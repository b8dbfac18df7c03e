"""The value codec and `Reader` against a reference: the recursive,
one-`Reader`-call-per-field implementation they replaced, kept here verbatim
in behaviour.  Every byte string must decode to equal values of the same
types, or fail with DecodeError in both; every value list must encode to the
same bytes, or fail with the same exception type in both."""

import enum
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from thingchain import Node, codec
from thingchain.errors import DecodeError
from thingchain.ledger import replay

settings.register_profile("codec-differential", derandomize=True, deadline=None,
                          database=None, max_examples=300)
DIFFERENTIAL = settings.get_profile("codec-differential")


# --- the reference ---------------------------------------------------------------

def ref_enc_u32(n):
    if not 0 <= n <= 0xFFFFFFFF:
        raise ValueError(f"u32 out of range: {n}")
    return struct.pack(">I", n)


def ref_enc_i64(n):
    if not -(1 << 63) <= n <= (1 << 63) - 1:
        raise ValueError(f"i64 out of range: {n}")
    return struct.pack(">q", n)


def ref_enc_bytes(b):
    if len(b) > 0xFFFFFFFF:
        raise ValueError("byte string too long")
    return ref_enc_u32(len(b)) + b


class RefReader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if n < 0 or self.pos + n > len(self.data):
            raise DecodeError(f"truncated input at offset {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.take(1)[0]

    def u32(self):
        return struct.unpack(">I", self.take(4))[0]

    def u64(self):
        return struct.unpack(">Q", self.take(8))[0]

    def i64(self):
        return struct.unpack(">q", self.take(8))[0]

    def bytes_(self):
        return self.take(self.u32())

    def frame(self):
        start = self.pos
        payload = self.bytes_()
        if self.u32() != zlib.crc32(payload):
            raise DecodeError(f"frame checksum mismatch at offset {start}")
        return payload

    def str_(self):
        raw = self.bytes_()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid utf-8 at offset {self.pos}") from exc

    def expect_end(self):
        if self.pos != len(self.data):
            raise DecodeError(f"{len(self.data) - self.pos} trailing bytes")


def ref_enc_value(v):
    if isinstance(v, bool):
        return bytes([3, 1 if v else 0])
    if isinstance(v, bytes):
        return bytes([0]) + ref_enc_bytes(v)
    if isinstance(v, str):
        return bytes([1]) + ref_enc_bytes(v.encode("utf-8"))
    if isinstance(v, int):
        return bytes([2]) + ref_enc_i64(v)
    if isinstance(v, (list, tuple)):
        out = [bytes([4]), ref_enc_u32(len(v))]
        out.extend(ref_enc_value(item) for item in v)
        return b"".join(out)
    raise TypeError(f"unsupported value type: {type(v).__name__}")


def ref_encode_values(values):
    out = [ref_enc_u32(len(values))]
    out.extend(ref_enc_value(v) for v in values)
    return b"".join(out)


def ref_dec_value(r):
    tag = r.u8()
    if tag == 0:
        return r.bytes_()
    if tag == 1:
        return r.str_()
    if tag == 2:
        return r.i64()
    if tag == 3:
        return r.u8() != 0
    if tag == 4:
        return [ref_dec_value(r) for _ in range(r.u32())]
    raise DecodeError(f"unknown value tag {tag}")


def ref_decode_values(data):
    r = RefReader(data)
    values = [ref_dec_value(r) for _ in range(r.u32())]
    r.expect_end()
    return values


# --- helpers -----------------------------------------------------------------------

def outcome(fn, *args):
    """("ok", result) or ("raised", exception type)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:         # noqa: BLE001 - compared, not swallowed
        return "raised", type(exc)


def typed(value):
    """``value`` with every element paired with its type, so that True and 1,
    or b"" and "", compare unequal."""
    if type(value) is list:
        return list, [typed(item) for item in value]
    return type(value), value


def nested_lists(depth: int) -> bytes:
    """The encoding of ``[[…[]…]]``, ``depth`` lists deep, built without
    recursion."""
    return (b"\x00\x00\x00\x01" + b"\x04\x00\x00\x00\x01" * (depth - 1)
            + b"\x04\x00\x00\x00\x00")


class Level(enum.IntEnum):
    LOW = 1


class Label(str):
    pass


class Blob(bytes):
    pass


leaf = st.one_of(
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1, 2**63, -(2**63) - 1, 0, -1]),
    st.binary(max_size=24),
    st.text(max_size=12),
    st.sampled_from([Level.LOW, Label("zone"), Blob(b"\x01\x02"), 1.5, bytearray(b"x"), None]),
)
values_strategy = st.lists(st.recursive(
    leaf, lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner), max_leaves=16),
    max_size=6)

# Valid encodings and damaged ones: truncated, with a byte changed, or with
# bytes appended, so both the values and every DecodeError path are reached.
encodable = st.lists(st.recursive(
    st.one_of(st.booleans(), st.integers(-(2**63), 2**63 - 1), st.binary(max_size=16),
              st.text(max_size=8)),
    lambda inner: st.lists(inner, max_size=4), max_leaves=12), max_size=5)


@st.composite
def byte_strings(draw):
    kind = draw(st.sampled_from(["random", "valid", "cut", "changed", "extended"]))
    if kind == "random":
        return draw(st.binary(max_size=80))
    data = ref_encode_values(draw(encodable))
    if kind == "cut":
        return data[:draw(st.integers(0, len(data)))]
    if kind == "changed":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if kind == "extended":
        return data + draw(st.binary(min_size=1, max_size=6))
    return data


# --- the differential tests ----------------------------------------------------------

@DIFFERENTIAL
@given(byte_strings())
def test_decode_values_matches_the_reference(data):
    # At most 80 random bytes, or the encoding of a few leaves: far fewer
    # nested lists than the reference's recursion limit.
    want, got = outcome(ref_decode_values, data), outcome(codec.decode_values, data)
    if want[0] == "raised":
        assert want == got == ("raised", DecodeError)
    else:
        assert got[0] == "ok" and typed(got[1]) == typed(want[1])


READS = ["u8", "u32", "u64", "i64", "bytes_", "str_", "frame", "expect_end"]


@DIFFERENTIAL
@given(st.one_of(st.binary(max_size=48),
                 st.builds(lambda payload, tail: codec.frame(payload) + tail,
                           st.binary(max_size=12), st.binary(max_size=8))),
       st.lists(st.sampled_from(READS), min_size=1, max_size=8))
def test_reader_matches_the_reference(data, reads):
    ref, reader = RefReader(data), codec.Reader(data)
    for name in reads:
        want, got = outcome(getattr(ref, name)), outcome(getattr(reader, name))
        if want[0] == "raised":
            assert want == got == ("raised", DecodeError)
            return
        assert got[0] == "ok" and typed(got[1]) == typed(want[1])
        assert reader.pos == ref.pos


@DIFFERENTIAL
@given(values_strategy)
def test_encode_values_matches_the_reference(values):
    want, got = outcome(ref_encode_values, values), outcome(codec.encode_values, values)
    assert got == want


def test_encode_values_edges_match_the_reference():
    for values in ([True, False, 1, 0], [2**63 - 1, -(2**63)], [2**63], [-(2**63) - 1],
                   [[], (), [[]]], [1.5], [[1, [2, None]]], [Level.LOW, Label("a"), Blob(b"b")]):
        assert outcome(codec.encode_values, values) == outcome(ref_encode_values, values)


# --- no recursion ------------------------------------------------------------------

def at_depth(frames: int, fn):
    """Call ``fn`` from ``frames`` Python frames deeper than this one."""
    return fn() if frames == 0 else at_depth(frames - 1, fn)


def depth_of(value) -> int:
    depth = 0
    while type(value) is list and value:
        value, depth = value[0], depth + 1
    return depth


def test_deep_nesting_decodes_at_any_call_depth():
    data = nested_lists(490)
    assert depth_of(codec.decode_values(data)) == 490
    assert depth_of(at_depth(60, lambda: codec.decode_values(data))) == 490
    assert depth_of(codec.decode_values(nested_lists(100_000))) == 100_000
    with pytest.raises(DecodeError):
        at_depth(60, lambda: codec.decode_values(nested_lists(100_000)[:-1]))


def test_deeply_nested_ignored_args_replay_as_they_ran(alice):
    """A call whose ignored arguments nest hundreds of lists deep, made deep
    in the caller's stack, gets the receipt that replay re-executes."""
    node = Node({alice.account: 1000})
    node.create_account("alice")
    _, feed = node.deploy(alice, "feed")
    node.call(alice, feed, "push", codec.encode_values([215, "C", 1]))
    node.seal_block()
    for depth in (470, 480, 494):
        receipt = at_depth(60, lambda: node.call(alice, feed, "last", nested_lists(depth)))
        assert receipt.ok, receipt
    node.seal_block()
    assert replay(node.export_bytes()) == node.state_digest()
