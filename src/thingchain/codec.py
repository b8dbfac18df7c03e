"""Canonical byte encoding used for transactions, blocks, state digests and
contract call arguments, and the checksummed record format of the files that
outlive a process.

Every field is length-prefixed (or fixed width) and concatenated in declared
order, so distinct inputs never produce identical byte strings.  All integers
are big-endian.  Decoding never recurses, so whether bytes decode does not
depend on the caller's stack depth.
"""

from __future__ import annotations

import struct
import zlib

from .errors import DecodeError

U32_MAX = 0xFFFFFFFF
U64_MAX = 0xFFFFFFFFFFFFFFFF
I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

_U32, _U64, _I64 = map(struct.Struct, (">I", ">Q", ">q"))


def enc_u8(n: int) -> bytes:
    if not 0 <= n <= 0xFF:
        raise ValueError(f"u8 out of range: {n}")
    return bytes([n])


def enc_u32(n: int) -> bytes:
    if not 0 <= n <= U32_MAX:
        raise ValueError(f"u32 out of range: {n}")
    return _U32.pack(n)


def enc_u64(n: int) -> bytes:
    if not 0 <= n <= U64_MAX:
        raise ValueError(f"u64 out of range: {n}")
    return _U64.pack(n)


def enc_i64(n: int) -> bytes:
    if not I64_MIN <= n <= I64_MAX:
        raise ValueError(f"i64 out of range: {n}")
    return _I64.pack(n)


def enc_bytes(b: bytes) -> bytes:
    if len(b) > U32_MAX:
        raise ValueError("byte string too long")
    return _U32.pack(len(b)) + b


def enc_str(s: str) -> bytes:
    return enc_bytes(s.encode("utf-8"))


def frame(payload: bytes) -> bytes:
    """One checksummed record, ``u32 length | payload | u32 crc32(payload)``,
    as the chain export and the gateway journal store them."""
    return enc_bytes(payload) + enc_u32(zlib.crc32(payload))


def _field(fmt: str):
    """A `Reader` method that reads one fixed-width integer of ``fmt``."""
    unpack_from, size = struct.Struct(fmt).unpack_from, struct.calcsize(fmt)

    def read(self) -> int:
        pos = self.pos
        if pos + size > len(self.data):
            raise DecodeError(f"truncated input at offset {pos}")
        self.pos = pos + size
        return unpack_from(self.data, pos)[0]
    return read


class Reader:
    """Sequential decoder over a byte string; raises DecodeError on underrun."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        pos = self.pos
        if n < 0 or pos + n > len(self.data):
            raise DecodeError(f"truncated input at offset {pos}")
        self.pos = pos + n
        return self.data[pos : pos + n]

    u8 = _field(">B")
    u32 = _field(">I")
    u64 = _field(">Q")
    i64 = _field(">q")

    def bytes_(self) -> bytes:
        return self.take(self.u32())

    def frame(self) -> bytes:
        """The payload of one record written by ``frame``; DecodeError when
        the record is truncated or fails its checksum."""
        start = self.pos
        payload = self.bytes_()
        if self.u32() != zlib.crc32(payload):
            raise DecodeError(f"frame checksum mismatch at offset {start}")
        return payload

    def str_(self) -> str:
        raw = self.bytes_()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid utf-8 at offset {self.pos}") from exc

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)

    def expect_end(self) -> None:
        if not self.exhausted:
            raise DecodeError(f"{len(self.data) - self.pos} trailing bytes")


# ---------------------------------------------------------------------------
# Tagged value lists: the call-argument / return-value ABI shared by contract
# behaviors, the gateway payloads and the CLI.

TAG_BYTES = 0
TAG_STR = 1
TAG_INT = 2
TAG_BOOL = 3
TAG_LIST = 4

_KINDS = frozenset((bool, bytes, str, int, list, tuple))
_BYTES, _STR, _INT, _LIST = (bytes([tag]) for tag in (TAG_BYTES, TAG_STR, TAG_INT, TAG_LIST))
_FALSE, _TRUE = bytes([TAG_BOOL, 0]), bytes([TAG_BOOL, 1])


def _enc_values(values, out: list) -> None:
    """Append the tagged encoding of each of ``values`` to ``out``, by its
    type if that is in _KINDS, else by its one base in _KINDS (bool has no
    subclasses, and no class derives from two of the others)."""
    for v in values:
        kind = type(v)
        if kind not in _KINDS:
            kind = next((base for base in _KINDS if isinstance(v, base)), None)
            if kind is None:
                raise TypeError(f"unsupported value type: {type(v).__name__}")
        if kind is int:
            out.append(_INT + enc_i64(v))
        elif kind is str:
            out.append(_STR + enc_str(v))
        elif kind is bytes:
            out.append(_BYTES + enc_bytes(v))
        elif kind is bool:
            out.append(_TRUE if v else _FALSE)
        else:
            out.append(_LIST + _U32.pack(len(v)))
            _enc_values(v, out)


def encode_values(values) -> bytes:
    """Encode a flat argument list into canonical bytes."""
    out = [enc_u32(len(values))]
    _enc_values(values, out)
    return b"".join(out)


def decode_values(data: bytes) -> list:
    """The value list that `encode_values` wrote as ``data``; DecodeError on
    an underrun, an unknown tag, invalid UTF-8 or trailing bytes.  Each value
    goes into the innermost list still open, kept on an explicit stack."""
    values, open_lists, pos = [], [], 0   # open_lists: (list, values it still lacks)
    try:
        into, left, pos = values, _U32.unpack_from(data)[0], 4
        while left or open_lists:
            if not left:
                into, left = open_lists.pop()
                continue
            left -= 1
            tag, pos = data[pos], pos + 1
            if tag == TAG_INT:
                into.append(_I64.unpack_from(data, pos)[0])
                pos += 8
            elif tag == TAG_BOOL:
                into.append(data[pos] != 0)
                pos += 1
            elif tag > TAG_LIST:
                raise DecodeError(f"unknown value tag {tag}")
            else:   # a u32 count, then that many values or bytes
                count, pos = _U32.unpack_from(data, pos)[0], pos + 4
                if tag == TAG_LIST:
                    inner = []
                    into.append(inner)
                    open_lists.append((into, left))
                    into, left = inner, count
                elif pos + count > len(data):
                    raise DecodeError(f"truncated input at offset {pos}")
                else:
                    raw, pos = data[pos : pos + count], pos + count
                    into.append(raw.decode("utf-8") if tag == TAG_STR else raw)
    except (struct.error, IndexError):   # a fixed-width field past the end
        raise DecodeError(f"truncated input at offset {pos}") from None
    except UnicodeDecodeError as exc:
        raise DecodeError(f"invalid utf-8 at offset {pos}") from exc
    if pos != len(data):
        raise DecodeError(f"{len(data) - pos} trailing bytes")
    return values
