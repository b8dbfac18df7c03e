"""Iterative name resolution over zone contracts from well-known roots.

Resolution is a pure read: it walks delegation records most-significant label
first, never sends transactions, and returns the leaf record set together
with the path taken.  Because every mapping change is a logged transaction,
the same walk yields a tamper-evident audit trail.

Records are meant for security material and data locations (service keys,
content URIs), not for name-to-network-address routing: zone state is public,
so publishing host addresses would let anyone enumerate a target's machines
in one read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contracts.zone import NAME_PREFIX, NameRecord, normalize_label
from .errors import (
    BadName,
    DanglingDelegation,
    DepthExceeded,
    LoopDetected,
    NameNotFound,
    ResolutionError,
    UnknownContract,
)

MAX_LABELS = 10
DEFAULT_MAX_DEPTH = 10


@dataclass(frozen=True)
class Name:
    """Labels least-significant first: "uni.gr" -> ("uni", "gr")."""

    labels: tuple

    @classmethod
    def parse(cls, text: str) -> "Name":
        parts = text.split(".")
        if not 1 <= len(parts) <= MAX_LABELS:
            raise BadName(f"names take 1..{MAX_LABELS} labels, got {len(parts)}")
        try:
            return cls(tuple(normalize_label(p) for p in parts))
        except ValueError as exc:
            raise BadName(str(exc)) from exc

    def __str__(self) -> str:
        return ".".join(self.labels)


@dataclass(frozen=True)
class ResolutionResult:
    record: NameRecord
    path: tuple          # ((zone address, label followed), ...)
    depth: int


@dataclass(frozen=True)
class AuditEntry:
    height: int
    zone: bytes
    label: str
    old: NameRecord | None
    new: NameRecord | None


def _zone_record(node, zone: bytes, label: str) -> NameRecord | None:
    raw = node.read_state(zone, NAME_PREFIX + label.encode())
    return NameRecord.decode(raw) if raw is not None else None


def _check_zone_live(node, zone: bytes, label: str) -> None:
    try:
        meta = node.contract_info(zone)
    except UnknownContract as exc:
        raise DanglingDelegation(label, "no contract at delegated address") from exc
    if meta.killed:
        raise DanglingDelegation(label, "delegated zone contract is killed")


def _resolve_from(node, name: Name, root: bytes, max_depth: int) -> ResolutionResult:
    zone = root
    path = []
    visited = set()
    _check_zone_live(node, zone, "<root>")
    # walk most-significant label first
    remaining = list(reversed(name.labels))
    while remaining:
        if zone in visited:
            raise LoopDetected(f"zone {zone.hex()[:12]} visited twice")
        if len(path) >= max_depth:
            raise DepthExceeded(f"more than {max_depth} zone hops")
        visited.add(zone)
        label = remaining.pop(0)
        record = _zone_record(node, zone, label)
        if record is None:
            raise NameNotFound(label)
        path.append((zone, label))
        if remaining:
            # more labels to consume: only a delegation can continue the walk
            if record.delegation is None:
                raise NameNotFound(remaining[0])
            _check_zone_live(node, record.delegation, label)
            zone = record.delegation
        else:
            # final label: prefer the leaf fields; a bare delegation record
            # with no leaf data is still returned as-is
            return ResolutionResult(record, tuple(path), len(path))
    raise BadName("empty name")


def resolve(node, name: Name | str, roots, max_depth: int = DEFAULT_MAX_DEPTH) -> ResolutionResult:
    """Resolve a name, trying each configured root zone in order."""
    if isinstance(name, str):
        name = Name.parse(name)
    if isinstance(roots, (bytes, bytearray)):
        roots = [bytes(roots)]
    if not roots:
        raise ResolutionError("no root zones configured")
    first_error: ResolutionError | None = None
    for root in roots:
        try:
            return _resolve_from(node, name, root, max_depth)
        except ResolutionError as exc:
            if first_error is None:
                first_error = exc
    raise first_error


def audit_trail(node, name: Name | str, roots) -> list[AuditEntry]:
    """Every logged change to the mappings along the name's current path.

    Entries are ordered by height, then by walk position; folding a label's
    `new` values forward reproduces its current record.
    """
    result = resolve(node, name, roots)
    entries = []
    for position, (zone, label) in enumerate(result.path):
        previous: NameRecord | None = None
        for height, raw in node.history(zone, NAME_PREFIX + label.encode()):
            current = NameRecord.decode(raw) if raw is not None else None
            entries.append((height, position, AuditEntry(height, zone, label, previous, current)))
            previous = current
    entries.sort(key=lambda item: (item[0], item[1]))
    return [entry for _, _, entry in entries]
