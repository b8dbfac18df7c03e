"""``feed.stats`` bisects its window over nondecreasing ticks; checked against a
linear scan over random sample lists and windows."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thingchain import Node, Signer
from thingchain.codec import decode_values, encode_values
from thingchain.contracts import feed as feed_module
from thingchain.runtime import Revert
from thingchain.units import div_half_up

WRITER = Signer.from_seed("feed-window")


def feed_with(samples: list[tuple[int, int]]):
    """A node and a feed holding samples as (value, tick), in push order."""
    node = Node({WRITER.account: 10})
    node.create_account("feed-window")
    _, feed = node.deploy(WRITER, "feed")
    for value, tick in samples:
        assert node.call(WRITER, feed, "push", encode_values([value, "C", tick])).ok
    node.seal_block()
    return node, feed


def scan(samples, lo, hi):
    """The window aggregate by a linear scan; None for an empty window."""
    values = [value for value, tick in samples if lo <= tick <= hi]
    if not values:
        return None
    return [min(values), max(values), div_half_up(sum(values), len(values)), len(values)]


@st.composite
def samples_and_windows(draw):
    steps = draw(st.lists(st.tuples(st.integers(-50_000, 50_000), st.integers(0, 3)),
                          max_size=40))
    tick = draw(st.integers(0, 5))
    samples = []
    for value, step in steps:
        tick += step                     # ties and gaps, never a decrease
        samples.append((value, tick))
    bound = st.integers(-2, tick + 2)
    windows = draw(st.lists(st.tuples(bound, bound), min_size=1, max_size=6))
    return samples, windows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(samples_and_windows())
def test_stats_equals_linear_scan(case):
    samples, windows = case
    node, feed = feed_with(samples)
    for lo, hi in windows:
        expected = scan(samples, lo, hi)
        if expected is None:
            with pytest.raises(Revert) as info:
                node.static(feed, "stats", [lo, hi])
            assert info.value.reason == "EmptyWindow"
        else:
            assert decode_values(node.static(feed, "stats", [lo, hi])) == expected


def test_stats_reads_the_window_plus_two_bisections(monkeypatch):
    samples = [(i, i // 2) for i in range(500)]         # ticks 0, 0, 1, 1, ...
    node, feed = feed_with(samples)
    decoded = []

    def counting(data):
        decoded.append(data)
        return decode(data)

    decode = feed_module.decode_measurement
    monkeypatch.setattr(feed_module, "decode_measurement", counting)
    count = decode_values(node.static(feed, "stats", [100, 105]))[3]
    assert count == 12
    assert len(decoded) <= count + 2 * math.ceil(math.log2(len(samples)) + 1)
