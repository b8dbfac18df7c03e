"""Replay's two verify lanes: the `Verifier` worker and the replaying process,
which verifies the signatures not yet sent to the worker while it waits."""

import dataclasses
import functools
import gc
import multiprocessing
import os
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from thingchain import Node, Signer, ledger
from thingchain.chain import Block, Transaction
from thingchain.codec import encode_values
from thingchain.errors import BrokenChain
from thingchain.ledger import replay

SLOW_S = 0.001     # added to each verify in the slowed lane


def feed_chain(pushes: int, per_block: int) -> Node:
    alice = Signer.from_seed("alice")
    node = Node({alice.account: 1000})
    node.create_account("alice")
    _, feed = node.deploy(alice, "feed")
    node.seal_block()
    node.seal_block()
    for i in range(pushes):
        node.call(alice, feed, "push", encode_values([i, "C", node.height + 1]))
        if i % per_block == per_block - 1:
            node.seal_block()
    node.seal_block()
    return node


@functools.lru_cache(maxsize=None)
def shared_chain() -> Node:
    """More signatures than the worker is sent at once, so both lanes verify."""
    return feed_chain(pushes=2 * ledger._REPLAY_AHEAD + 40, per_block=9)


def lane_counting_verify(mp, slow: str):
    """Patch ``ledger.verify_signature`` to count calls in this process and
    in workers forked later, and to sleep in the ``slow`` lane ("main" or
    "worker")."""
    replaying = os.getpid()
    calls = {"main": multiprocessing.Value("i", 0), "worker": multiprocessing.Value("i", 0)}
    real_verify = ledger.verify_signature

    def verify(*args):
        lane = "main" if os.getpid() == replaying else "worker"
        with calls[lane].get_lock():
            calls[lane].value += 1
        if lane == slow:
            time.sleep(SLOW_S)
        return real_verify(*args)

    mp.setattr(ledger, "verify_signature", verify)
    return calls


@pytest.mark.parametrize("slow", ["worker", "main"])
def test_each_signature_verified_once_with_either_lane_slowed(monkeypatch, slow):
    pushes = ledger._REPLAY_AHEAD + 40
    node = feed_chain(pushes, per_block=7)
    calls = lane_counting_verify(monkeypatch, slow)
    assert replay(node.export_bytes()) == node.state_digest()
    assert calls["main"].value + calls["worker"].value == pushes + 1
    assert calls["worker"].value > 0
    if slow == "worker":
        assert calls["main"].value > 0
    assert multiprocessing.active_children() == []


def forge(block: Block, index: int) -> Block:
    txs = list(block.txs)
    tx = txs[index]
    txs[index] = Transaction(tx.sender_key, tx.nonce, tx.target, tx.method,
                             tx.args, tx.tokens, bytes(64))
    return Block.seal(block.height, block.prev_hash, block.timestamp, tuple(txs), block.receipts)


def break_link(block: Block, kind: str) -> tuple[Block, str]:
    if kind == "hash":
        return dataclasses.replace(block, block_hash=bytes(32)), "stored block hash is wrong"
    return (Block.seal(block.height, bytes(32), block.timestamp, block.txs, block.receipts),
            "prev_hash does not match parent")


@settings(max_examples=20, deadline=None, derandomize=True)
@given(where=st.floats(0, 1), slow=st.sampled_from(["worker", "main"]),
       fault=st.none() | st.tuples(st.floats(0, 1), st.sampled_from(["hash", "prev"])))
def test_forged_signature_reported_at_its_block(where, slow, fault):
    """A forged signature anywhere in the chain, whichever lane verifies it,
    is reported at its block; a link fault at or before that block is
    reported first."""
    node = shared_chain()
    blocks = list(node.blocks)
    positions = [(block.height, i) for block in blocks for i in range(len(block.txs))]
    height, index = positions[round(where * (len(positions) - 1))]
    blocks[height] = forge(blocks[height], index)
    expected = (height, "transaction signature does not verify")
    if fault is not None:
        at = 1 + round(fault[0] * (len(blocks) - 2))
        blocks[at], detail = break_link(blocks[at], fault[1])
        if at <= height:
            expected = (at, detail)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        lane_counting_verify(mp, slow)
        with pytest.raises(BrokenChain) as info:
            replay((node.config, blocks))
        gc.collect()
    assert (info.value.height, info.value.detail) == expected
    assert multiprocessing.active_children() == []


def test_worker_dying_while_the_replay_steals(monkeypatch):
    """The worker answers the signatures it was sent first, then dies at the
    next one, while this process verifies signatures the worker was not
    sent."""
    node = feed_chain(pushes=2 * ledger._REPLAY_AHEAD, per_block=7)
    replaying = os.getpid()
    first_sent = ledger._REPLAY_AHEAD
    main_calls = multiprocessing.Value("i", 0)
    worker_calls = multiprocessing.Value("i", 0)
    real_verify = ledger.verify_signature

    def verify(*args):
        if os.getpid() != replaying:
            with worker_calls.get_lock():
                worker_calls.value += 1
            if worker_calls.value > first_sent:
                os._exit(5)
            return real_verify(*args)
        main_calls.value += 1
        deadline = time.monotonic() + 10
        while worker_calls.value < first_sent and time.monotonic() < deadline:
            time.sleep(0.001)     # hold the first stolen verify until the worker
                                  # is on the last signature it was sent first
        return real_verify(*args)

    monkeypatch.setattr(ledger, "verify_signature", verify)
    with pytest.raises(ChildProcessError, match="exit code 5"):
        replay(node.export_bytes())
    assert worker_calls.value == first_sent + 1
    assert main_calls.value > 0
    assert multiprocessing.active_children() == []
