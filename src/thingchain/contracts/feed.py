"""Measurement feed: authorized writers push fixed-point samples; anyone can
read the last value or windowed min/max/avg/count aggregates.

State layout:
    writer/<account>    writer-set membership (owner-managed; owner implicit)
    count               number of stored measurements (u64)
    m/<index>           encoded measurement [value_milli, unit, tick]
    last                copy of the newest measurement (its ledger history is
                        the full series of pushed values)
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..codec import decode_values, enc_u64, encode_values
from ..runtime import Behavior, Members, NOT_AUTHORIZED, Revert, want_int, want_str
from ..units import div_half_up

WRITER_PREFIX = b"writer/"
COUNT_KEY = b"count"
LAST_KEY = b"last"
MEASUREMENT_PREFIX = b"m/"


def encode_measurement(value_milli: int, unit: str, tick: int) -> bytes:
    return encode_values([value_milli, unit, tick])


def decode_measurement(data: bytes) -> tuple[int, str, int]:
    value, unit, tick = decode_values(data)
    return value, unit, tick


class FeedContract(Behavior):
    code_id = "feed"
    exports = ("push", "last", "stats", "allow_writer", "revoke_writer")

    writers = Members(WRITER_PREFIX, "UnknownWriter")
    allow_writer = writers.allow
    revoke_writer = writers.revoke

    def push(self, ctx, args):
        """Append one measurement: (value_milli, unit, tick)."""
        if not self.writers.contains(ctx, ctx.caller):
            raise Revert(NOT_AUTHORIZED, "caller is not in the writer set")
        value = want_int(args, 0, "value (milli)")
        unit = want_str(args, 1, "unit")
        tick = want_int(args, 2, "tick")
        if tick < 0:
            raise Revert("BadArgs", "tick must be nonnegative")
        raw_last = ctx.get(LAST_KEY)
        if raw_last is not None and tick < decode_measurement(raw_last)[2]:
            raise Revert("TickRegression", "ticks must be nondecreasing")
        sample = encode_measurement(value, unit, tick)
        ctx.set(LAST_KEY, sample)
        return enc_u64(ctx.append(COUNT_KEY, MEASUREMENT_PREFIX, sample))

    def last(self, ctx, args):
        return ctx.require(LAST_KEY, "EmptyFeed")

    def stats(self, ctx, args):
        """Aggregate over ticks in [from, to]: returns [min, max, avg, count].

        Ticks never decrease (push reverts with TickRegression), so two
        bisections find the window's first and last sample and only the
        window is read: O(log n + window) samples of n.  The average is
        rounded half-up at the 10^-3 scale.
        """
        lo = want_int(args, 0, "window start tick")
        hi = want_int(args, 1, "window end tick")

        def sample(index: int) -> tuple[int, str, int]:
            return decode_measurement(ctx.get(MEASUREMENT_PREFIX + enc_u64(index)))

        def tick(index: int) -> int:
            return sample(index)[2]

        samples = range(ctx.counter(COUNT_KEY))
        first = bisect_left(samples, lo, key=tick)
        end = bisect_right(samples, hi, lo=first, key=tick)
        if first == end:
            raise Revert("EmptyWindow")
        vmin = vmax = total = sample(first)[0]
        for index in samples[first + 1:end]:
            value = sample(index)[0]
            vmin, vmax, total = min(vmin, value), max(vmax, value), total + value
        return encode_values([vmin, vmax, div_half_up(total, end - first), end - first])
