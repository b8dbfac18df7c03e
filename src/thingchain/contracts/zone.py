"""Zone contract: label -> record mappings forming a delegation hierarchy.

A record holds an optional delegation to a child zone plus optional leaf
fields (service key, data uri, text).  Labels are case-folded ASCII, 1-63
characters; every mapping change lands in ledger history, so remappings are
always detectable.

State layout:
    name/<label>        encoded NameRecord
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codec import Reader, enc_bytes, enc_str, enc_u8
from ..keys import DIGEST_SIZE
from ..runtime import Behavior, Export, Revert, account, bytes_, only_owner, str_

NAME_PREFIX = b"name/"
LABEL_MAX = 63
_LABEL_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789-_")


def normalize_label(label: str) -> str:
    """Case-fold and validate a label; raises ValueError when malformed."""
    folded = label.lower()
    if not 1 <= len(folded) <= LABEL_MAX:
        raise ValueError(f"label length must be 1..{LABEL_MAX}")
    if not set(folded) <= _LABEL_CHARS:
        raise ValueError(f"label has characters outside [a-z0-9-_]: {label!r}")
    return folded


def label(value):
    """Declared argument type: a label, normalized; reverts BadLabel."""
    try:
        return normalize_label(str_(value))
    except ValueError as exc:
        raise Revert("BadLabel", str(exc)) from exc


@dataclass(frozen=True)
class NameRecord:
    delegation: bytes | None = None     # child zone contract address
    service_key: bytes | None = None
    uri: str | None = None
    text: bytes | None = None

    def encode(self) -> bytes:
        flags = (
            (1 if self.delegation is not None else 0)
            | (2 if self.service_key is not None else 0)
            | (4 if self.uri is not None else 0)
            | (8 if self.text is not None else 0)
        )
        parts = [enc_u8(flags)]
        if self.delegation is not None:
            parts.append(self.delegation)
        if self.service_key is not None:
            parts.append(enc_bytes(self.service_key))
        if self.uri is not None:
            parts.append(enc_str(self.uri))
        if self.text is not None:
            parts.append(enc_bytes(self.text))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "NameRecord":
        r = Reader(data)
        flags = r.u8()
        delegation = r.take(DIGEST_SIZE) if flags & 1 else None
        service_key = r.bytes_() if flags & 2 else None
        uri = r.str_() if flags & 4 else None
        text = r.bytes_() if flags & 8 else None
        r.expect_end()
        return cls(delegation, service_key, uri, text)


class ZoneContract(Behavior):
    code_id = "zone"
    exports = {
        "set_mapping": Export(label, bytes_, str_, bytes_, guard=only_owner),
        "delegate": Export(label, account, guard=only_owner),
        "unset": Export(label, guard=only_owner),
    }

    def _current(self, ctx, name: str) -> NameRecord:
        raw = ctx.get(NAME_PREFIX + name.encode())
        return NameRecord.decode(raw) if raw is not None else NameRecord()

    def set_mapping(self, ctx, name, service_key, uri, text):
        """Replace the leaf fields for a label.

        Empty byte strings / strings clear a field; any delegation is kept.
        """
        record = NameRecord(self._current(ctx, name).delegation,
                            service_key or None, uri or None, text or None)
        ctx.set(NAME_PREFIX + name.encode(), record.encode())

    def delegate(self, ctx, name, child):
        """Point a label at a child zone contract."""
        old = self._current(ctx, name)
        record = NameRecord(child, old.service_key, old.uri, old.text)
        ctx.set(NAME_PREFIX + name.encode(), record.encode())

    def unset(self, ctx, name):
        ctx.remove(NAME_PREFIX + name.encode(), "UnknownLabel", name)
