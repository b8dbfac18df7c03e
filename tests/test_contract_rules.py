"""The storage rules every standard contract shares: member sets whose owner
is always a member, must-exist reads and deletes, and counted appends.

Each test pins the revert reason or the exact keys and values a rule leaves
in contract state, so a change to how the rules are written cannot change
what they store.
"""

import pytest

from thingchain.codec import enc_u64, encode_values
from thingchain.contracts.actuation import GRANTED, request_outcome
from thingchain.runtime import Revert


def _call(node, signer, address, method, args=(), tokens=0):
    receipt = node.call(signer, address, method, encode_values(list(args)), tokens=tokens)
    node.seal_block()
    return receipt


def _deploy(node, signer, code_id, init=()):
    receipt, address = node.deploy(signer, code_id, encode_values(list(init)) if init else b"")
    node.seal_block()
    assert receipt.ok, receipt.reason
    return address


def _static_reason(node, address, method, args):
    with pytest.raises(Revert) as info:
        node.static(address, method, list(args))
    return info.value.reason


# --- must-exist deletes and reads ----------------------------------------------

@pytest.mark.parametrize("code_id, method, reason", [
    ("feed", "revoke_writer", "UnknownWriter"),
    ("topic", "revoke_publisher", "UnknownPublisher"),
    ("actuation", "revoke_actor", "UnknownActor"),
])
def test_revoking_an_unlisted_member_reverts(node, alice, bob, code_id, method, reason):
    address = _deploy(node, alice, code_id)
    assert _call(node, alice, address, method, [bob.account]).reason == reason


def test_revoking_an_unknown_token_reverts(node, alice):
    access = _deploy(node, alice, "access")
    assert _call(node, alice, access, "revoke", [b"tok-1"]).reason == "UnknownToken"


def test_revoking_an_issued_token_deletes_it(node, alice, bob):
    access = _deploy(node, alice, "access")
    assert _call(node, alice, access, "issue", [b"tok-1", bob.account, "door", 100]).ok
    assert node.read_state(access, b"token/tok-1") is not None
    assert _call(node, alice, access, "revoke", [b"tok-1"]).ok
    assert node.read_state(access, b"token/tok-1") is None
    assert _call(node, alice, access, "revoke", [b"tok-1"]).reason == "UnknownToken"


def test_identity_unknown_attribute(node, alice):
    ident = _deploy(node, alice, "identity")
    assert _call(node, alice, ident, "revoke", ["email"]).reason == "UnknownAttribute"
    assert _static_reason(node, ident, "get_attribute", ["email"]) == "UnknownAttribute"
    assert _call(node, alice, ident, "set_attribute", ["email", b"a@x"]).ok
    assert node.static(ident, "get_attribute", ["email"]) == b"a@x"
    assert _call(node, alice, ident, "revoke", ["email"]).ok
    assert node.read_state(ident, b"attr/email") is None
    assert _static_reason(node, ident, "get_attribute", ["email"]) == "UnknownAttribute"


def test_device_extended_unknown_coap_uri(node, alice):
    device = _deploy(node, alice, "device_extended", ["lamp"])
    assert _static_reason(node, device, "coap_uri", []) == "UnknownAttribute"
    assert _call(node, alice, device, "coap_uri").reason == "UnknownAttribute"


def test_zone_unset_unknown_label(node, alice):
    zone = _deploy(node, alice, "zone")
    assert _call(node, alice, zone, "unset", ["nowhere"]).reason == "UnknownLabel"
    assert _call(node, alice, zone, "set_mapping", ["here", b"K", "coap://h", b""]).ok
    assert _call(node, alice, zone, "unset", ["HERE"]).ok
    assert node.read_state(zone, b"name/here") is None
    assert _call(node, alice, zone, "unset", ["here"]).reason == "UnknownLabel"


def test_must_exist_reads_on_empty_contracts(node, alice):
    feed = _deploy(node, alice, "feed")
    pointer = _deploy(node, alice, "pointer")
    skeleton = _deploy(node, alice, "skeleton")
    escrow = _deploy(node, alice, "escrow")
    topic = _deploy(node, alice, "topic")
    assert _static_reason(node, feed, "last", []) == "EmptyFeed"
    assert _static_reason(node, pointer, "verify", [b"item", b"data"]) == "UnknownItem"
    assert _static_reason(node, pointer, "describe", [b"item"]) == "UnknownItem"
    assert _static_reason(node, skeleton, "lookup", ["m"]) == "MethodNotFound"
    assert _call(node, alice, skeleton, "remove", ["m"]).reason == "MethodNotFound"
    assert _call(node, alice, escrow, "confirm", [0]).reason == "UnknownDeal"
    assert _call(node, alice, escrow, "refund", [0]).reason == "UnknownDeal"
    assert _call(node, alice, topic, "unsubscribe", [0]).reason == "UnknownSub"


# --- member sets ---------------------------------------------------------------

def _pushes(node, signer, feed, step):
    receipt = _call(node, signer, feed, "push", [20_000 + step, "C", step])
    assert receipt.ok or receipt.reason == "NotAuthorized", receipt.reason
    return receipt.ok


def _publishes(node, signer, topic, step):
    receipt = _call(node, signer, topic, "publish", ["room/1", b"on"])
    assert receipt.ok or receipt.reason == "NotAuthorized", receipt.reason
    return receipt.ok


def _actuates(node, signer, act, step):
    # a denied request commits, so the refusal is in the return value
    receipt = _call(node, signer, act, "request", ["open", b""])
    assert receipt.ok, receipt.reason
    return request_outcome(receipt.return_value) == GRANTED


@pytest.mark.parametrize("code_id, prefix, allow, revoke, authorized", [
    ("feed", b"writer/", "allow_writer", "revoke_writer", _pushes),
    ("topic", b"pub/", "allow_publisher", "revoke_publisher", _publishes),
    ("actuation", b"actor/", "allow_actor", "revoke_actor", _actuates),
])
def test_member_set_owner_implicit_and_revocation(node, alice, bob, carol, code_id, prefix,
                                                  allow, revoke, authorized):
    address = _deploy(node, alice, code_id)

    # the owner is a member without ever being listed
    assert authorized(node, alice, address, 1)
    assert node.state_keys(address, prefix) == []
    assert not authorized(node, bob, address, 2)

    # only the owner changes the set
    assert _call(node, bob, address, allow, [bob.account]).reason == "NotOwner"
    assert _call(node, alice, address, allow, [bob.account]).ok
    assert node.state_keys(address, prefix) == [prefix + bob.account]
    assert node.read_state(address, prefix + bob.account) == b"\x01"
    assert authorized(node, bob, address, 3)
    assert _call(node, bob, address, revoke, [bob.account]).reason == "NotOwner"
    assert _call(node, carol, address, revoke, [bob.account]).reason == "NotOwner"

    # a revoked member is refused
    assert _call(node, alice, address, revoke, [bob.account]).ok
    assert node.state_keys(address, prefix) == []
    assert node.history(address, prefix + bob.account)[-1][1] is None
    assert not authorized(node, bob, address, 4)

    # the owner stays a member after revoking someone else
    assert authorized(node, alice, address, 5)


def test_revoke_publisher_stops_publishing(node, alice, bob):
    topic = _deploy(node, alice, "topic")
    _call(node, alice, topic, "subscribe", ["room/#", 1, b"coap://sink"])
    assert _call(node, alice, topic, "allow_publisher", [bob.account]).ok
    receipt = _call(node, bob, topic, "publish", ["room/1", b"on"])
    assert receipt.return_value == enc_u64(1)
    assert [e.name for e in receipt.events] == ["Notify"]
    assert _call(node, alice, topic, "revoke_publisher", [bob.account]).ok
    assert node.read_state(topic, b"pub/" + bob.account) is None
    assert _call(node, bob, topic, "publish", ["room/1", b"on"]).reason == "NotAuthorized"
    assert _call(node, alice, topic, "revoke_publisher", [bob.account]).reason == (
        "UnknownPublisher")


def test_revoke_writer_and_actor_delete_their_key(node, alice, bob):
    feed = _deploy(node, alice, "feed")
    act = _deploy(node, alice, "actuation")
    assert _call(node, alice, feed, "allow_writer", [bob.account]).ok
    assert _call(node, alice, act, "allow_actor", [bob.account]).ok
    assert _call(node, alice, feed, "revoke_writer", [bob.account]).ok
    assert _call(node, alice, act, "revoke_actor", [bob.account]).ok
    assert node.read_state(feed, b"writer/" + bob.account) is None
    assert node.read_state(act, b"actor/" + bob.account) is None
    assert _call(node, alice, feed, "revoke_writer", [bob.account]).reason == "UnknownWriter"
    assert _call(node, alice, act, "revoke_actor", [bob.account]).reason == "UnknownActor"


# --- counted appends -------------------------------------------------------------

def test_feed_push_appends_samples(node, alice):
    feed = _deploy(node, alice, "feed")
    assert node.state_keys(feed) == []
    for n, (value, tick) in enumerate(((21_500, 3), (22_000, 3), (-4_000, 9))):
        receipt = _call(node, alice, feed, "push", [value, "C", tick])
        assert receipt.return_value == enc_u64(n)
    samples = [encode_values([21_500, "C", 3]), encode_values([22_000, "C", 3]),
               encode_values([-4_000, "C", 9])]
    assert node.state_keys(feed) == [b"count", b"last"] + [b"m/" + enc_u64(n) for n in range(3)]
    assert node.read_state(feed, b"count") == enc_u64(3)
    assert node.read_state(feed, b"last") == samples[-1]
    for n, sample in enumerate(samples):
        assert node.read_state(feed, b"m/" + enc_u64(n)) == sample
    # a refused push leaves the counter and the samples alone
    assert _call(node, alice, feed, "push", [1, "C", 2]).reason == "TickRegression"
    assert node.read_state(feed, b"count") == enc_u64(3)
    assert node.state_keys(feed, b"m/") == [b"m/" + enc_u64(n) for n in range(3)]


def test_topic_subscribe_appends_subscriptions(node, alice, bob):
    topic = _deploy(node, alice, "topic")
    first = _call(node, alice, topic, "subscribe", ["room/+", 1, b"coap://a"])
    second = _call(node, bob, topic, "subscribe", ["room/#", 0, alice.account])
    assert (first.return_value, second.return_value) == (enc_u64(0), enc_u64(1))
    assert node.state_keys(topic) == [b"sub/" + enc_u64(0), b"sub/" + enc_u64(1), b"subseq"]
    assert node.read_state(topic, b"subseq") == enc_u64(2)
    assert node.read_state(topic, b"sub/" + enc_u64(0)) == encode_values(
        ["room/+", 1, b"coap://a", alice.account])
    assert node.read_state(topic, b"sub/" + enc_u64(1)) == encode_values(
        ["room/#", 0, alice.account, bob.account])
    # unsubscribing deletes the record but never rewinds the counter
    assert _call(node, bob, topic, "unsubscribe", [0]).reason == "NotAuthorized"
    assert _call(node, alice, topic, "unsubscribe", [0]).ok
    assert _call(node, alice, topic, "unsubscribe", [0]).reason == "UnknownSub"
    third = _call(node, alice, topic, "subscribe", ["room/1", 1, b"coap://c"])
    assert third.return_value == enc_u64(2)
    assert node.state_keys(topic, b"sub/") == [b"sub/" + enc_u64(1), b"sub/" + enc_u64(2)]
    assert node.read_state(topic, b"subseq") == enc_u64(3)


def test_escrow_commit_appends_deals(node, alice, bob, carol):
    escrow = _deploy(node, alice, "escrow")
    first = _call(node, alice, escrow, "commit", [bob.account, 50], tokens=7)
    second = _call(node, bob, escrow, "commit", [carol.account, 60], tokens=3)
    assert (first.return_value, second.return_value) == (enc_u64(0), enc_u64(1))
    assert node.state_keys(escrow) == [b"deal/" + enc_u64(0), b"deal/" + enc_u64(1),
                                       b"dealseq"]
    assert node.read_state(escrow, b"dealseq") == enc_u64(2)
    assert node.read_state(escrow, b"deal/" + enc_u64(0)) == encode_values(
        [alice.account, bob.account, 7, 50, "committed"])
    assert node.read_state(escrow, b"deal/" + enc_u64(1)) == encode_values(
        [bob.account, carol.account, 3, 60, "committed"])
    assert _call(node, alice, escrow, "confirm", [0]).ok
    assert node.read_state(escrow, b"deal/" + enc_u64(0)) == encode_values(
        [alice.account, bob.account, 7, 50, "released"])
    assert _call(node, alice, escrow, "confirm", [2]).reason == "UnknownDeal"


def test_access_check_appends_to_the_check_log(node, alice, bob, carol):
    access = _deploy(node, alice, "access")
    assert _call(node, alice, access, "issue", [b"tok", bob.account, "door", 1000]).ok
    heights = []
    for signer, holder, scope in ((carol, bob.account, "door"), (bob, bob.account, "gate"),
                                  (carol, carol.account, "door")):
        heights.append(node.height + 1)
        receipt = _call(node, signer, access, "check", [b"tok", holder, scope])
        assert receipt.ok
    assert node.state_keys(access, b"check") == [b"check/" + enc_u64(n) for n in range(3)] + [
        b"checkseq"]
    assert node.read_state(access, b"checkseq") == enc_u64(3)
    expected = [
        [heights[0], carol.account, b"tok", bob.account, "door", True],
        [heights[1], bob.account, b"tok", bob.account, "gate", False],
        [heights[2], carol.account, b"tok", carol.account, "door", False],
    ]
    for n, entry in enumerate(expected):
        assert node.read_state(access, b"check/" + enc_u64(n)) == encode_values(entry)
    # an unknown token is checked, and logged, too
    assert _call(node, carol, access, "check", [b"none", bob.account, "door"]).return_value == (
        b"\x00")
    assert node.read_state(access, b"checkseq") == enc_u64(4)


def test_actuation_logs_granted_and_denied_decisions(node, alice, bob, carol):
    act = _deploy(node, alice, "actuation")
    assert _call(node, alice, act, "allow_actor", [bob.account]).ok
    calls = ((alice, "open"), (bob, "close"), (carol, "open"))
    heights = []
    for signer, action in calls:
        heights.append(node.height + 1)
        receipt = _call(node, signer, act, "request", [action, b"args"])
        assert receipt.ok, receipt.reason
    assert [e.name for e in receipt.events] == ["Denied"]
    assert node.state_keys(act, b"log") == [b"log/" + enc_u64(n) for n in range(3)] + [
        b"logseq"]
    assert node.read_state(act, b"logseq") == enc_u64(3)
    expected = [
        [heights[0], alice.account, "open", "granted"],
        [heights[1], bob.account, "close", "granted"],
        [heights[2], carol.account, "open", "denied"],
    ]
    for n, entry in enumerate(expected):
        assert node.read_state(act, b"log/" + enc_u64(n)) == encode_values(entry)
