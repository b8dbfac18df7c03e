"""Append-only journal with checksummed records.

Each record is one ``codec.frame``, the record format of the chain export
too.  Recovery reads until the first damaged or truncated frame and keeps the
intact prefix, so a crash mid-append loses at most the record being written.
The first append after opening cuts the file to that prefix, so later records are read.
Every record is flushed to the operating system; a record appended with
``sync=False`` is not fsynced, so a machine crash may lose it, together with
any unsynced records after the last synced one.  Each fsync makes every
earlier record durable too.
"""

from __future__ import annotations

import os

from ..codec import Reader, decode_values, encode_values, frame
from ..errors import DecodeError


class Journal:
    def __init__(self, path):
        self.path = str(path)
        self._fh = None

    def _open(self):
        if self._fh is None:
            self._fh = open(self.path, "ab")
            self._fh.truncate(self._scan()[1])   # drop a torn or damaged tail
        return self._fh

    def append(self, kind: str, values: list, sync: bool = True) -> None:
        fh = self._open()
        fh.write(frame(encode_values([kind, *values])))
        fh.flush()
        if sync:
            os.fsync(fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def records(self) -> list[list]:
        """The intact records before the first damaged or truncated one, as
        [kind, *values] lists."""
        return self._scan()[0]

    def _scan(self) -> tuple[list[list], int]:
        """The intact records and the bytes they fill."""
        try:
            with open(self.path, "rb") as fh:
                r = Reader(fh.read())
        except FileNotFoundError:
            return [], 0
        out, intact = [], 0
        try:
            while not r.exhausted:
                out.append(decode_values(r.frame()))
                intact = r.pos
        except DecodeError:
            pass  # a torn tail from a crash, or a damaged record
        return out, intact
