"""The constrained-device datagram format spoken on the gateway's IoT leg.

Layout (big-endian, bit-exact):
    version   1 byte  (= 1)
    msg_type  1 byte  (0 request, 1 ack, 2 error)
    code      1 byte  (1 GET, 2 PUT, 3 POST; 0 in replies)
    msg_id    2 bytes
    path      2-byte length + UTF-8 bytes
    payload   2-byte length + bytes

Total datagram size is capped at 1152 bytes.  Unknown versions and malformed
datagrams always produce an Error reply, never silence; the reply echoes the
message id whenever the header was readable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import WireError

VERSION = 1
MAX_DATAGRAM = 1152

MSG_REQUEST = 0
MSG_ACK = 1
MSG_ERROR = 2

GET = 1
PUT = 2
POST = 3

_HEADER = struct.Struct(">BBBH")


@dataclass(frozen=True)
class GatewayMessage:
    msg_type: int
    code: int
    message_id: int
    path: str = ""
    payload: bytes = b""

    def encode(self) -> bytes:
        path_bytes = self.path.encode("utf-8")
        if len(path_bytes) > 0xFFFF or len(self.payload) > 0xFFFF:
            raise WireError("FieldTooLong", self.message_id)
        data = (
            _HEADER.pack(VERSION, self.msg_type, self.code, self.message_id)
            + struct.pack(">H", len(path_bytes)) + path_bytes
            + struct.pack(">H", len(self.payload)) + self.payload
        )
        if len(data) > MAX_DATAGRAM:
            raise WireError("TooLong", self.message_id)
        return data


def peek_message_id(datagram: bytes) -> int:
    """Best-effort message id for error replies on unparseable datagrams."""
    if len(datagram) >= _HEADER.size:
        return _HEADER.unpack_from(datagram)[3]
    return 0


def is_write(datagram: bytes) -> bool:
    """Whether the header reads as a PUT or POST request (the rest of the
    datagram is not checked)."""
    if len(datagram) < _HEADER.size:
        return False
    version, msg_type, code, _ = _HEADER.unpack_from(datagram)
    return version == VERSION and msg_type == MSG_REQUEST and code in (PUT, POST)


def decode_message(datagram: bytes) -> GatewayMessage:
    msg_id = peek_message_id(datagram)
    if len(datagram) > MAX_DATAGRAM:
        raise WireError("TooLong", msg_id)
    if len(datagram) < _HEADER.size:
        raise WireError("Truncated", msg_id)
    version, msg_type, code, msg_id = _HEADER.unpack_from(datagram)
    if version != VERSION:
        raise WireError("BadVersion", msg_id)
    if msg_type not in (MSG_REQUEST, MSG_ACK, MSG_ERROR):
        raise WireError("BadType", msg_id)
    offset = _HEADER.size
    fields = []
    for _ in range(2):
        if offset + 2 > len(datagram):
            raise WireError("Truncated", msg_id)
        (length,) = struct.unpack_from(">H", datagram, offset)
        offset += 2
        if offset + length > len(datagram):
            raise WireError("Truncated", msg_id)
        fields.append(datagram[offset : offset + length])
        offset += length
    if offset != len(datagram):
        raise WireError("TrailingBytes", msg_id)
    try:
        path = fields[0].decode("utf-8")
    except UnicodeDecodeError:
        raise WireError("BadPath", msg_id) from None
    if msg_type == MSG_REQUEST and code not in (GET, PUT, POST):
        raise WireError("BadCode", msg_id)
    return GatewayMessage(msg_type, code, msg_id, path, fields[1])


def request(code: int, message_id: int, path: str, payload: bytes = b"") -> GatewayMessage:
    return GatewayMessage(MSG_REQUEST, code, message_id, path, payload)


def ack(message_id: int, payload: bytes = b"") -> GatewayMessage:
    return GatewayMessage(MSG_ACK, 0, message_id, "", payload)


def error(message_id: int, reason: str, detail: str = "") -> GatewayMessage:
    from ..codec import encode_values

    return GatewayMessage(MSG_ERROR, 0, message_id, "", encode_values([reason, detail]))


def error_reason(msg: GatewayMessage) -> tuple[str, str]:
    """Decode (reason, detail) from an Error reply."""
    from ..codec import decode_values

    reason, detail = decode_values(msg.payload)
    return reason, detail
