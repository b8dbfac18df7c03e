"""Append-only journal with checksummed records.

Each record is  u32 length | payload | u32 crc32(payload).  Recovery reads
until the first damaged or truncated frame, so a crash mid-append loses at
most the record being written.  Every record is flushed to the operating
system; a record appended with ``sync=False`` is not fsynced, so a machine
crash may lose it, together with any unsynced records after the last synced
one.  Each fsync makes every earlier record durable too.
"""

from __future__ import annotations

import os
import struct
import zlib

from ..codec import decode_values, encode_values


class Journal:
    def __init__(self, path):
        self.path = str(path)
        self._fh = None

    def _open(self):
        if self._fh is None:
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, kind: str, values: list, sync: bool = True) -> None:
        payload = encode_values([kind, *values])
        frame = struct.pack(">I", len(payload)) + payload + struct.pack(">I", zlib.crc32(payload))
        fh = self._open()
        fh.write(frame)
        fh.flush()
        if sync:
            os.fsync(fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def records(self) -> list[list]:
        """All intact records as [kind, *values] lists."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return []
        out = []
        offset = 0
        while offset + 4 <= len(data):
            (length,) = struct.unpack_from(">I", data, offset)
            end = offset + 4 + length + 4
            if end > len(data):
                break  # truncated tail from a crash
            payload = data[offset + 4 : offset + 4 + length]
            (crc,) = struct.unpack_from(">I", data, offset + 4 + length)
            if zlib.crc32(payload) != crc:
                break
            try:
                out.append(decode_values(payload))
            except Exception:
                break
            offset = end
        return out
