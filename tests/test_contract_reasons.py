"""The revert reason every standard export gives for ill-formed arguments.

For each export a case list is built from one well-formed argument list:
each position dropped ("missingN"), replaced by a nested list ("wrongN"),
an int replaced by a bool ("boolN") and a 32-byte value cut to 31 bytes
("shortN"); a trailing extra value ("extra"); and a stranger (neither owner
nor member) calling with a list that is ill-typed at every position
("stranger").  Zone methods also get a bad label followed by ill-typed
values ("badlabel").  Each case runs against a freshly deployed contract, and
the reason its receipt carries ("ok" when it commits) is pinned below, so a
change to where or how arguments are checked cannot move a reason code.
"""

import pytest

from thingchain.codec import encode_values
from thingchain.contracts import STANDARD_BEHAVIORS

ACCOUNT = bytes(range(32))
HASH = bytes(32)

WELL_FORMED = {
    "identity.set_attribute": ["k", b"v"],
    "identity.revoke": ["k"],
    "identity.get_attribute": ["k"],
    "zone.set_mapping": ["lbl", b"key", "coap://x", b"text"],
    "zone.delegate": ["lbl", ACCOUNT],
    "zone.unset": ["lbl"],
    "feed.push": [1, "C", 1],
    "feed.last": [],
    "feed.stats": [0, 10],
    "feed.allow_writer": [ACCOUNT],
    "feed.revoke_writer": [ACCOUNT],
    "pointer.announce": [b"item", "uri", HASH, b"sig", b"desc"],
    "pointer.verify": [b"item", b"data"],
    "pointer.describe": [b"item"],
    "topic.subscribe": ["a/#", 1, b"sink"],
    "topic.unsubscribe": [0],
    "topic.publish": ["a/b", b"payload"],
    "topic.allow_publisher": [ACCOUNT],
    "topic.revoke_publisher": [ACCOUNT],
    "actuation.request": ["open", b""],
    "actuation.allow_actor": [ACCOUNT],
    "actuation.revoke_actor": [ACCOUNT],
    "escrow.commit": [ACCOUNT, 10],
    "escrow.confirm": [0],
    "escrow.refund": [0],
    "skeleton.lookup": ["m"],
    "skeleton.update": ["m", ACCOUNT],
    "skeleton.remove": ["m"],
    "access.issue": [b"tok", ACCOUNT, "door", 100],
    "access.check": [b"tok", ACCOUNT, "door"],
    "access.revoke": [b"tok"],
    "device_stub.describe": [],
    "device_stub.ping": [],
    "device_extended.describe": [],
    "device_extended.ping": [],
    "device_extended.set_coap_uri": ["coap://x"],
    "device_extended.coap_uri": [],
}

# case -> reason, for each export; "ok" is a committed call
EXPECTED = {
    "identity.set_attribute": dict(
        missing0="BadArgs", missing1="BadArgs", wrong0="BadArgs", wrong1="BadArgs",
        extra="ok", stranger="NotOwner"),
    "identity.revoke": dict(missing0="BadArgs", wrong0="BadArgs", extra="UnknownAttribute",
                            stranger="NotOwner"),
    "identity.get_attribute": dict(missing0="BadArgs", wrong0="BadArgs",
                                   extra="UnknownAttribute", stranger="BadArgs"),
    "zone.set_mapping": dict(
        missing0="BadArgs", missing1="BadArgs", missing2="BadArgs", missing3="BadArgs",
        wrong0="BadArgs", wrong1="BadArgs", wrong2="BadArgs", wrong3="BadArgs",
        extra="ok", stranger="NotOwner", badlabel="BadLabel"),
    "zone.delegate": dict(missing0="BadArgs", missing1="BadArgs", wrong0="BadArgs",
                          wrong1="BadArgs", short1="BadArgs", extra="ok",
                          stranger="NotOwner", badlabel="BadLabel"),
    "zone.unset": dict(missing0="BadArgs", wrong0="BadArgs", extra="UnknownLabel",
                       stranger="NotOwner", badlabel="BadLabel"),
    "feed.push": dict(
        missing0="BadArgs", missing1="BadArgs", missing2="BadArgs",
        wrong0="BadArgs", wrong1="BadArgs", wrong2="BadArgs",
        bool0="BadArgs", bool2="BadArgs", extra="ok", stranger="NotAuthorized"),
    "feed.last": dict(extra="EmptyFeed", stranger="EmptyFeed"),
    "feed.stats": dict(missing0="BadArgs", missing1="BadArgs", wrong0="BadArgs",
                       wrong1="BadArgs", bool0="BadArgs", bool1="BadArgs",
                       extra="EmptyWindow", stranger="BadArgs"),
    "feed.allow_writer": dict(missing0="BadArgs", wrong0="BadArgs", short0="BadArgs",
                              extra="ok", stranger="NotOwner"),
    "feed.revoke_writer": dict(missing0="BadArgs", wrong0="BadArgs", short0="BadArgs",
                               extra="UnknownWriter", stranger="NotOwner"),
    "pointer.announce": dict(
        missing0="BadArgs", missing1="BadArgs", missing2="BadArgs", missing3="BadArgs",
        missing4="BadArgs", wrong0="BadArgs", wrong1="BadArgs", wrong2="BadArgs",
        wrong3="BadArgs", wrong4="BadArgs", short2="BadArgs", extra="ok",
        stranger="NotOwner"),
    "pointer.verify": dict(missing0="BadArgs", missing1="BadArgs", wrong0="BadArgs",
                           wrong1="BadArgs", extra="UnknownItem", stranger="BadArgs"),
    "pointer.describe": dict(missing0="BadArgs", wrong0="BadArgs", extra="UnknownItem",
                             stranger="BadArgs"),
    "topic.subscribe": dict(
        missing0="BadArgs", missing1="BadArgs", missing2="BadArgs",
        wrong0="BadArgs", wrong1="BadArgs", wrong2="BadArgs", bool1="BadArgs",
        extra="ok", stranger="BadArgs"),
    "topic.unsubscribe": dict(missing0="BadArgs", wrong0="BadArgs", bool0="BadArgs",
                              extra="UnknownSub", stranger="BadArgs"),
    "topic.publish": dict(missing0="BadArgs", missing1="BadArgs", wrong0="BadArgs",
                          wrong1="BadArgs", extra="ok", stranger="NotAuthorized"),
    "topic.allow_publisher": dict(missing0="BadArgs", wrong0="BadArgs", short0="BadArgs",
                                  extra="ok", stranger="NotOwner"),
    "topic.revoke_publisher": dict(missing0="BadArgs", wrong0="BadArgs", short0="BadArgs",
                                   extra="UnknownPublisher", stranger="NotOwner"),
    "actuation.request": dict(missing0="BadArgs", missing1="BadArgs", wrong0="BadArgs",
                              wrong1="BadArgs", extra="ok", stranger="BadArgs"),
    "actuation.allow_actor": dict(missing0="BadArgs", wrong0="BadArgs", short0="BadArgs",
                                  extra="ok", stranger="NotOwner"),
    "actuation.revoke_actor": dict(missing0="BadArgs", wrong0="BadArgs", short0="BadArgs",
                                   extra="UnknownActor", stranger="NotOwner"),
    "escrow.commit": dict(missing0="BadArgs", missing1="BadArgs", wrong0="BadArgs",
                          wrong1="BadArgs", short0="BadArgs", bool1="BadArgs", extra="ok",
                          stranger="BadArgs"),
    "escrow.confirm": dict(missing0="BadArgs", wrong0="BadArgs", bool0="BadArgs",
                           extra="UnknownDeal", stranger="BadArgs"),
    "escrow.refund": dict(missing0="BadArgs", wrong0="BadArgs", bool0="BadArgs",
                          extra="UnknownDeal", stranger="BadArgs"),
    "skeleton.lookup": dict(missing0="BadArgs", wrong0="BadArgs", extra="MethodNotFound",
                            stranger="BadArgs"),
    "skeleton.update": dict(missing0="BadArgs", missing1="BadArgs", wrong0="BadArgs",
                            wrong1="BadArgs", short1="BadArgs", extra="ok",
                            stranger="NotOwner"),
    "skeleton.remove": dict(missing0="BadArgs", wrong0="BadArgs", extra="MethodNotFound",
                            stranger="NotOwner"),
    "access.issue": dict(
        missing0="BadArgs", missing1="BadArgs", missing2="BadArgs", missing3="BadArgs",
        wrong0="BadArgs", wrong1="BadArgs", wrong2="BadArgs", wrong3="BadArgs",
        short1="BadArgs", bool3="BadArgs", extra="ok", stranger="NotOwner"),
    "access.check": dict(missing0="BadArgs", missing1="BadArgs", missing2="BadArgs",
                         wrong0="BadArgs", wrong1="BadArgs", wrong2="BadArgs",
                         short1="BadArgs", extra="ok", stranger="BadArgs"),
    "access.revoke": dict(missing0="BadArgs", wrong0="BadArgs", extra="UnknownToken",
                          stranger="NotOwner"),
    "device_stub.describe": dict(extra="ok", stranger="ok"),
    "device_stub.ping": dict(extra="ok", stranger="ok"),
    "device_extended.describe": dict(extra="ok", stranger="ok"),
    "device_extended.ping": dict(extra="ok", stranger="ok"),
    "device_extended.set_coap_uri": dict(missing0="BadArgs", wrong0="BadArgs", extra="ok",
                                         stranger="NotOwner"),
    "device_extended.coap_uri": dict(extra="UnknownAttribute", stranger="UnknownAttribute"),
}


def cases(export: str) -> dict[str, list]:
    """Case name -> argument list, derived from the export's well-formed list."""
    good = WELL_FORMED[export]
    out = {}
    for i, value in enumerate(good):
        out[f"missing{i}"] = good[:i]
        out[f"wrong{i}"] = good[:i] + [[]] + good[i + 1:]
        if type(value) is int:
            out[f"bool{i}"] = good[:i] + [True] + good[i + 1:]
        if type(value) is bytes and len(value) == 32:
            out[f"short{i}"] = good[:i] + [value[:31]] + good[i + 1:]
    out["extra"] = good + ["extra"]
    out["stranger"] = [[]] * 5
    if export.startswith("zone."):
        out["badlabel"] = ["BAD!"] + [[]] * 3
    return out


def test_every_standard_export_has_a_well_formed_list():
    exports = {f"{cls.code_id}.{name}" for cls in STANDARD_BEHAVIORS for name in cls.exports}
    assert exports == set(WELL_FORMED) == set(EXPECTED)


def _reason(node, signer, address, method, args):
    receipt = node.call(signer, address, method, encode_values(args))
    return receipt.reason or "ok"


@pytest.mark.parametrize("export", sorted(WELL_FORMED))
def test_reason_codes_are_pinned(node, alice, bob, export):
    code_id, method = export.split(".")
    got = {}
    for case, args in cases(export).items():
        receipt, address = node.deploy(alice, code_id)
        assert receipt.ok, receipt.reason
        signer = bob if case == "stranger" else alice
        got[case] = _reason(node, signer, address, method, args)
    assert got == EXPECTED[export]


@pytest.mark.parametrize("code_id, method, args, reason", [
    ("zone", "set_mapping", [1, 2, 3, 4], "NotOwner"),
    ("feed", "push", ["x"], "NotAuthorized"),
    ("feed", "push", [1, "C", 1, "extra"], "ok"),
])
def test_probes(node, alice, bob, code_id, method, args, reason):
    """The guard wins over ill-typed arguments; trailing values are ignored."""
    _, address = node.deploy(alice, code_id)
    signer = alice if reason == "ok" else bob
    assert _reason(node, signer, address, method, args) == reason
