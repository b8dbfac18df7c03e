"""Canonical byte encoding used for transactions, blocks, state digests and
contract call arguments, and the checksummed record format of the files that
outlive a process.

Every field is length-prefixed (or fixed width) and concatenated in declared
order, so distinct inputs never produce identical byte strings.  All integers
are big-endian.
"""

from __future__ import annotations

import struct
import zlib

from .errors import DecodeError

U16_MAX = 0xFFFF
U32_MAX = 0xFFFFFFFF
U64_MAX = 0xFFFFFFFFFFFFFFFF
I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1


def enc_u8(n: int) -> bytes:
    if not 0 <= n <= 0xFF:
        raise ValueError(f"u8 out of range: {n}")
    return bytes([n])


def enc_u16(n: int) -> bytes:
    if not 0 <= n <= U16_MAX:
        raise ValueError(f"u16 out of range: {n}")
    return struct.pack(">H", n)


def enc_u32(n: int) -> bytes:
    if not 0 <= n <= U32_MAX:
        raise ValueError(f"u32 out of range: {n}")
    return struct.pack(">I", n)


def enc_u64(n: int) -> bytes:
    if not 0 <= n <= U64_MAX:
        raise ValueError(f"u64 out of range: {n}")
    return struct.pack(">Q", n)


def enc_i64(n: int) -> bytes:
    if not I64_MIN <= n <= I64_MAX:
        raise ValueError(f"i64 out of range: {n}")
    return struct.pack(">q", n)


def enc_bytes(b: bytes) -> bytes:
    if len(b) > U32_MAX:
        raise ValueError("byte string too long")
    return enc_u32(len(b)) + b


def enc_str(s: str) -> bytes:
    return enc_bytes(s.encode("utf-8"))


def frame(payload: bytes) -> bytes:
    """One checksummed record, ``u32 length | payload | u32 crc32(payload)``,
    as the chain export and the gateway journal store them."""
    return enc_bytes(payload) + enc_u32(zlib.crc32(payload))


class Reader:
    """Sequential decoder over a byte string; raises DecodeError on underrun."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise DecodeError(f"truncated input at offset {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def i64(self) -> int:
        return struct.unpack(">q", self.take(8))[0]

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

Value = "bytes | str | int | bool | list"


def _enc_value(v) -> bytes:
    # bool before int: bool is an int subclass
    if isinstance(v, bool):
        return enc_u8(TAG_BOOL) + enc_u8(1 if v else 0)
    if isinstance(v, bytes):
        return enc_u8(TAG_BYTES) + enc_bytes(v)
    if isinstance(v, str):
        return enc_u8(TAG_STR) + enc_str(v)
    if isinstance(v, int):
        return enc_u8(TAG_INT) + enc_i64(v)
    if isinstance(v, (list, tuple)):
        out = [enc_u8(TAG_LIST), enc_u32(len(v))]
        out.extend(_enc_value(item) for item in v)
        return b"".join(out)
    raise TypeError(f"unsupported value type: {type(v).__name__}")


def encode_values(values) -> bytes:
    """Encode a flat argument list into canonical bytes."""
    out = [enc_u32(len(values))]
    out.extend(_enc_value(v) for v in values)
    return b"".join(out)


def _dec_value(r: Reader):
    tag = r.u8()
    if tag == TAG_BYTES:
        return r.bytes_()
    if tag == TAG_STR:
        return r.str_()
    if tag == TAG_INT:
        return r.i64()
    if tag == TAG_BOOL:
        return r.u8() != 0
    if tag == TAG_LIST:
        return [_dec_value(r) for _ in range(r.u32())]
    raise DecodeError(f"unknown value tag {tag}")


def decode_values(data: bytes) -> list:
    r = Reader(data)
    values = [_dec_value(r) for _ in range(r.u32())]
    r.expect_end()
    return values
