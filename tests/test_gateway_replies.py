"""Every datagram gets exactly one reply: values outside the codec's signed
64-bit range are rejected with an Error reply instead of ending the gateway,
and random datagrams fed through `Gateway.step` never make it raise."""

import socket
import struct
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from thingchain import Node, Signer
from thingchain.codec import I64_MAX, I64_MIN, decode_values, encode_values
from thingchain.gateway import Gateway, GatewayConfig, wire
from thingchain.ledger import Verifier

PROFILE = settings(derandomize=True, deadline=None, database=None)


def make_gateway(journal_dir, listen=""):
    council = Signer.from_seed("council")
    config = GatewayConfig(master_seed="gw-master", journal_path=f"{journal_dir}/gw.journal",
                           listen=listen, requesters={"ep:council": "council"})
    gateway = Gateway(Node({council.account: 100}), config)
    try:
        reg = gateway.register_thing("t17", endpoint="sim:t17")
        gateway.allow_requester(reg, "ep:council")
    except BaseException:
        gateway.close()
        raise
    return gateway


@pytest.fixture
def gateway(tmp_path):
    gw = make_gateway(tmp_path)
    yield gw
    gw.close()


def ask(gateway, code, path, payload=b"", msg_id=9):
    data = wire.request(code, msg_id, path, payload).encode()
    reply = wire.decode_message(gateway.handle_datagram(data, "sim:t17"))
    assert reply.message_id == msg_id
    return reply


def reason(reply):
    assert reply.msg_type == wire.MSG_ERROR
    return wire.error_reason(reply)[0]


# --- the signed 64-bit bounds -------------------------------------------------

@pytest.mark.parametrize("query", [
    f"from=0&to={I64_MAX + 1}",
    f"from={I64_MIN - 1}&to=1",
    f"from={2**70}&to={-2**70}",
])
def test_stats_bound_outside_i64_gets_bad_query(gateway, query):
    assert reason(ask(gateway, wire.GET, f"/things/t17/stats?{query}")) == "BadQuery"


def test_stats_bounds_at_the_i64_limits_are_answered(gateway):
    assert ask(gateway, wire.PUT, "/things/t17/data",
               encode_values([21_500, "C", 1])).msg_type == wire.MSG_ACK
    reply = ask(gateway, wire.GET, f"/things/t17/stats?from={I64_MIN}&to={I64_MAX}")
    assert reply.msg_type == wire.MSG_ACK
    assert decode_values(reply.payload) == [21_500, 21_500, 21_500, 1]


@pytest.mark.parametrize("value", [
    "99999999999999999999",
    "9223372036854775.808",           # I64_MAX + 1 milli
    "-9223372036854775.809",          # I64_MIN - 1 milli
])
def test_put_value_outside_i64_gets_bad_payload(gateway, value):
    reply = ask(gateway, wire.PUT, "/things/t17/data", encode_values([value, "C"]))
    assert reason(reply) == "BadPayload"


@pytest.mark.parametrize("value, milli", [
    ("9223372036854775.807", I64_MAX),
    ("-9223372036854775.808", I64_MIN),
])
def test_put_value_at_the_i64_limits_is_stored(gateway, value, milli):
    assert ask(gateway, wire.PUT, "/things/t17/data",
               encode_values([value, "C", 1])).msg_type == wire.MSG_ACK
    last = ask(gateway, wire.GET, "/things/t17/last")
    assert decode_values(last.payload) == [milli, "C", 1]


def test_served_gateway_answers_the_bad_get_and_keeps_serving(tmp_path):
    gw = make_gateway(tmp_path, listen="127.0.0.1:0")
    host, port = gw.address.rsplit(":", 1)
    stop = threading.Event()
    thread = threading.Thread(target=gw.serve, args=(stop,), daemon=True)
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.settimeout(3)
    thread.start()
    try:
        bad = wire.request(wire.GET, 21, f"/things/t17/stats?from=0&to={I64_MAX + 1}")
        put = wire.request(wire.PUT, 22, "/things/t17/data", encode_values([21_500, "C", 1]))
        replies = []
        for msg in (bad, put):
            client.sendto(msg.encode(), (host, int(port)))
            replies.append(wire.decode_message(client.recvfrom(65535)[0]))
        assert thread.is_alive()
    finally:
        stop.set()
        thread.join(timeout=3)
        client.close()
        gw.close()
    assert not thread.is_alive()
    assert [r.message_id for r in replies] == [21, 22]
    assert reason(replies[0]) == "BadQuery"
    assert replies[1].msg_type == wire.MSG_ACK


# --- one reply per datagram ----------------------------------------------------

_HEADER = struct.Struct(">BBBH")


def _datagram(version, msg_type, code, msg_id, path, payload):
    path_bytes = path.encode("utf-8")[:0xFFFF]
    return (_HEADER.pack(version, msg_type, code, msg_id)
            + struct.pack(">H", len(path_bytes)) + path_bytes
            + struct.pack(">H", len(payload)) + payload)


# any integer within 2^70, with the values next to the signed 64-bit
# limits drawn as often as the rest
_big_int = st.one_of(st.integers(-2**70, 2**70),
                     st.integers(I64_MIN - 2, I64_MIN + 1), st.integers(I64_MAX - 1, I64_MAX + 2))
_junk = st.text(alphabet="0123456789-+=&_. xfromto", max_size=12)
_query = st.one_of(
    st.builds(lambda lo, hi: f"from={lo}&to={hi}", _big_int, _big_int),
    st.builds(lambda lo, hi: f"from={lo}&to={hi}", _junk, _junk),
    _junk,
)
_value = st.one_of(
    st.integers(I64_MIN, I64_MAX),
    st.text(max_size=8),
    st.from_regex(r"-?[0-9]{1,22}(\.[0-9]{1,3})?", fullmatch=True),
    st.binary(max_size=8),
    st.booleans(),
)
_payload = st.one_of(
    st.binary(max_size=40),
    st.lists(_value, max_size=4).map(encode_values),
    st.builds(lambda value, unit: encode_values([value, unit]), _value, st.text(max_size=3)),
)


def _mostly(usual, other):
    """A draw from the strategy ``usual`` four times in five, else from ``other``."""
    return st.integers(0, 4).flatmap(lambda n: other if n == 4 else usual)


# (code, action): the four routes, each with its own method, or any pairing
_route = st.one_of(
    st.tuples(st.just(wire.GET), st.just("last")),
    st.tuples(st.just(wire.GET), st.builds(lambda q: f"stats?{q}", _query)),
    st.tuples(st.just(wire.PUT), st.just("data")),
    st.tuples(st.just(wire.POST), st.just("actuate")),
    st.tuples(st.integers(0, 255),
              st.sampled_from(["last", "stats?from=0&to=1", "data", "actuate", "other", ""])),
)


@st.composite
def _raw(draw):
    code, action = draw(_route)
    thing = draw(_mostly(st.just("t17"), st.just("t99")))
    return _datagram(draw(_mostly(st.just(wire.VERSION), st.integers(0, 255))),
                     draw(_mostly(st.just(wire.MSG_REQUEST), st.integers(0, 255))),
                     code, draw(st.integers(0, 0xFFFF)),
                     f"/things/{thing}/{action}", draw(_payload))


_datagrams = st.lists(
    st.tuples(_mostly(_raw(), st.binary(max_size=12)),
              st.sampled_from(["sim:t17", "ep:council", "ep:anyone"])),
    min_size=1, max_size=6)


@pytest.fixture(scope="module")
def verifier():
    with Verifier() as shared:
        yield shared


@settings(PROFILE, max_examples=250)
@given(_datagrams)
def test_step_answers_every_datagram_once(verifier, received):
    with tempfile.TemporaryDirectory() as directory:
        gw = make_gateway(directory)
        try:
            replies, _ = gw.step(0.0, received, verifier)
        finally:
            gw.close()
    assert len(replies) == len(received)
    for (data, _), reply in zip(received, replies):
        msg = wire.decode_message(reply)
        assert msg.msg_type in (wire.MSG_ACK, wire.MSG_ERROR)
        assert msg.message_id == wire.peek_message_id(data)


# --- a reply too long for one datagram ----------------------------------------

def test_reply_over_the_datagram_cap_is_an_error_and_the_gateway_goes_on(tmp_path, verifier):
    gw = make_gateway(tmp_path)
    try:
        owner = Signer.from_seed("council")
        _, feed = gw.node.deploy(owner, "feed")
        assert gw.node.call(owner, feed, "push", encode_values([1, "u" * 1200, 1])).ok
        gw.node.seal_block()
        gw.register_thing("t1", feed_addr=feed)
        big = wire.request(wire.GET, 31, "/things/t1/last").encode()
        small = wire.request(wire.GET, 32, "/things/t1/stats?from=0&to=1").encode()
        alone = [gw.handle_datagram(data, "ep:anyone") for data in (big, small)]
        stepped, _ = gw.step(0.0, [(big, "ep:anyone"), (small, "ep:anyone")], verifier)
    finally:
        gw.close()
    for replies in (alone, stepped):
        too_long, answered = map(wire.decode_message, replies)
        assert too_long.message_id == 31 and reason(too_long) == "TooLong"
        assert answered.message_id == 32 and decode_values(answered.payload) == [1, 1, 1, 1]
