"""Correctness checks of the benchmark.

Every expected value is computed here from the inputs the benchmark sent,
never read back from a stored copy of the program's output: window
statistics with decimal half-up rounding, topic matching with a matcher of
its own, PUT indices from the benchmark's own per-Thing counts.  A failed
check raises ``CheckFailed``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from decimal import ROUND_HALF_UP, Decimal

from thingchain import Node
from thingchain.chain import load_chain
from thingchain.codec import decode_values, enc_u64
from thingchain.gateway import wire

FULL_WINDOW = (0, 10**12)


class CheckFailed(Exception):
    pass


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# --- independent computations ----------------------------------------------


def half_up_average(total: int, count: int) -> int:
    """Mean rounded to the nearest integer, halves away from zero."""
    return int((Decimal(total) / Decimal(count)).quantize(Decimal(1), rounding=ROUND_HALF_UP))


def window_stats(values: list[int], ticks: list[int], n: int, lo: int, hi: int):
    """[min, max, half-up average, count] of the first n samples with a tick
    in [lo, hi]; ticks never decrease.  None when the window is empty."""
    start = bisect_left(ticks, lo, 0, n)
    stop = bisect_right(ticks, hi, 0, n)
    window = values[start:stop]
    if not window:
        return None
    return [min(window), max(window), half_up_average(sum(window), len(window)), len(window)]


def pattern_matches(pattern: str, path: str) -> bool:
    """Topic pattern semantics: "+" is one level, a final "#" is this level
    and everything below it (so "a/#" also matches "a")."""
    pat, top = pattern.split("/"), path.split("/")
    for i, seg in enumerate(pat):
        if seg == "#":
            return True
        if i >= len(top) or (seg != "+" and seg != top[i]):
            return False
    return len(pat) == len(top)


# --- gateway replies --------------------------------------------------------


def ack_payload(reply: bytes, message_id: int) -> bytes:
    """The payload of an ACK that carries the request's message id."""
    msg = wire.decode_message(reply)
    if msg.msg_type == wire.MSG_ERROR:
        raise CheckFailed(f"message {message_id}: error reply {wire.error_reason(msg)}")
    expect(msg.msg_type == wire.MSG_ACK, f"message {message_id}: reply is not an ACK")
    expect(msg.message_id == message_id,
           f"reply carries message id {msg.message_id}, request had {message_id}")
    return msg.payload


def check_put(payload: bytes, index: int) -> None:
    expect(decode_values(payload) == ["ok", enc_u64(index)],
           f"PUT returned {decode_values(payload)!r}, expected index {index}")


def check_granted(payload: bytes) -> None:
    status, outcome = decode_values(payload)
    expect(status == "ok" and decode_values(outcome)[0] == "granted",
           f"actuation not granted: {decode_values(payload)!r}")


def check_stats(payload: bytes, expected: list[int]) -> None:
    got = decode_values(payload)
    expect(got == expected, f"stats {got} != expected {expected}")


def check_last(payload: bytes, value: int, unit: str, tick: int | None) -> None:
    got = decode_values(payload)
    expect(len(got) == 3, f"last returned {got!r}")
    want = [value, unit, got[2] if tick is None else tick]      # None: the gateway chose it
    expect(got == want, f"last {got} != expected {want}")


def check_deliveries(datagrams, expected: dict) -> None:
    """Each authorised actuation reached its Thing's endpoint exactly once.

    expected maps (thing id, action args) -> (endpoint, requester account).
    """
    seen = set()
    for endpoint, data in datagrams:
        msg = wire.decode_message(data)
        parts = msg.path.strip("/").split("/")
        expect(len(parts) == 3 and parts[0] == "things" and parts[2] == "event",
               f"delivery to unexpected path {msg.path!r}")
        _, _, _, action, args, caller = decode_values(msg.payload)
        key = (parts[1], args)
        expect(key in expected, f"unexpected delivery {key!r}")
        expect(key not in seen, f"actuation {key!r} delivered twice")
        expect((endpoint, caller) == expected[key],
               f"actuation {key!r} went to {endpoint!r} from another caller")
        seen.add(key)
    expect(len(seen) == len(expected),
           f"{len(expected) - len(seen)} of {len(expected)} actuations never delivered")


# --- ledger -------------------------------------------------------------------


def check_receipt(receipt, return_value: bytes | None = None) -> None:
    expect(receipt.ok, f"transaction reverted: {receipt.reason}")
    if return_value is not None:
        expect(receipt.return_value == return_value,
               f"returned {receipt.return_value.hex()}, expected {return_value.hex()}")


def check_published(receipt, notified: int) -> None:
    check_receipt(receipt, enc_u64(notified))
    notes = sum(1 for event in receipt.events if event.name == "Notify")
    expect(notes == notified, f"{notes} Notify events for {notified} matching subscriptions")


def check_resolved(result, service_key: bytes, uri: str) -> None:
    record = result.record
    expect((record.delegation, record.service_key, record.uri, record.text)
           == (None, service_key, uri, None),
           f"resolved {record!r}, mapped key {service_key.hex()} uri {uri!r}")


def check_replay(node: Node, export: bytes, replayed_digest: bytes, genesis_total: int) -> None:
    """replay() of the export equals the live digest, the replayed node
    re-exports the same bytes and no token was created or lost."""
    expect(replayed_digest == node.state_digest(), "replay digest differs from the live node")
    replayed = Node.from_chain(*load_chain(export))
    expect(replayed.export_bytes() == export, "replayed node re-exports different bytes")
    expect(node.total_supply() == genesis_total,
           f"total supply {node.total_supply()} != genesis {genesis_total}")
    expect(replayed.total_supply() == genesis_total, "replayed total supply differs")

