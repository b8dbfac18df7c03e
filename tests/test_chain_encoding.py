import gc
import multiprocessing
import os
import random
import sys
import threading
import warnings

import pytest
from hypothesis import given, strategies as st

from thingchain import Node, ledger
from thingchain.chain import (
    Block,
    GenesisConfig,
    Receipt,
    Transaction,
    dump_chain,
    genesis_block,
    load_chain,
)
from thingchain.codec import encode_values
from thingchain.errors import BrokenChain
from thingchain.ledger import replay


_tx_strategy = st.builds(
    Transaction,
    sender_key=st.binary(min_size=32, max_size=32),
    nonce=st.integers(0, 2**32),
    target=st.one_of(st.none(), st.binary(min_size=32, max_size=32)),
    method=st.text(max_size=20),
    args=st.binary(max_size=40),
    tokens=st.integers(0, 2**40),
    signature=st.binary(max_size=64),
)


@given(_tx_strategy)
def test_transaction_roundtrip(tx):
    assert Transaction.decode(tx.encode()) == tx


@given(_tx_strategy, _tx_strategy)
def test_transaction_encoding_injective(a, b):
    if a != b:
        assert a.encode() != b.encode()


def test_block_roundtrip(node, alice, bob):
    node.transfer(alice, bob.account, 3)
    block = node.seal_block()
    decoded = Block.decode(block.encode())
    assert decoded == block
    assert decoded.compute_hash() == block.block_hash


def test_genesis_config_roundtrip():
    cfg = GenesisConfig(((b"\x01" * 32, 5), (b"\x02" * 32, 9)), tx_cap=7)
    assert GenesisConfig.decode(cfg.encode()) == cfg
    assert genesis_block(cfg).prev_hash == cfg.config_digest


def test_chain_file_roundtrip(node, alice, bob):
    node.transfer(alice, bob.account, 1)
    node.seal_block()
    config, blocks = load_chain(dump_chain(node.config, node.blocks))
    assert config == node.config
    assert [b.encode() for b in blocks] == [b.encode() for b in node.blocks]


def test_replay_rejects_forged_signature(node, alice, bob):
    """A block whose hashes are recomputed around a bad signature still fails
    verification at the signature check."""
    node.transfer(alice, bob.account, 2)
    node.seal_block()
    config, blocks = load_chain(node.export_bytes())
    victim = blocks[1]
    tx = victim.txs[0]
    forged_tx = Transaction(tx.sender_key, tx.nonce, tx.target, tx.method,
                            tx.args, tx.tokens, b"\x00" * 64)
    forged = Block.seal(victim.height, victim.prev_hash, victim.timestamp,
                        (forged_tx,), victim.receipts)
    from thingchain.ledger import replay

    with pytest.raises(BrokenChain) as info:
        replay((config, [blocks[0], forged] + blocks[2:]))
    assert info.value.height == 1
    assert "signature" in info.value.detail


def test_replay_rejects_tampered_receipt(node, alice):
    """Recomputed receipts must match the sealed ones bit for bit."""
    _, feed = node.deploy(alice, "feed")
    node.call(alice, feed, "push", encode_values([1_000, "C", 1]))
    node.seal_block()
    config, blocks = load_chain(node.export_bytes())
    victim = blocks[1]
    fake_receipts = (victim.receipts[0], Receipt("ok", "", b"\x99"))
    forged = Block.seal(victim.height, victim.prev_hash, victim.timestamp,
                        victim.txs, fake_receipts)
    from thingchain.ledger import replay

    with pytest.raises(BrokenChain) as info:
        replay((config, [blocks[0], forged] + blocks[2:]))
    assert "receipt" in info.value.detail


def test_event_order_identical_across_replays(node, alice):
    _, actuation = node.deploy(alice, "actuation")
    for i in range(5):
        node.call(alice, actuation, "request", encode_values([f"a{i}", b""]))
    node.seal_block()

    def event_order(n):
        return [
            (e.height, e.tx_index, intra, e.name)
            for b in n.blocks
            for r in b.receipts
            for intra, e in enumerate(r.events)
        ]

    live = event_order(node)
    assert len(live) >= 5
    assert live == sorted(live)
    config, blocks = load_chain(node.export_bytes())
    replayed = Node.from_chain(config, blocks)
    assert event_order(replayed) == live


def test_digest_ignores_registered_but_unused_accounts(node):
    before = node.state_digest()
    node.create_account("lurker-with-no-activity")
    assert node.state_digest() == before


def test_concurrent_readers_see_only_sealed_state(node, alice, bob):
    """Readers racing the sequencer observe a consistent committed view."""
    errors = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            balance_a = node.balance(alice.account)
            balance_b = node.balance(bob.account)
            if (balance_a + balance_b) % 10 != 0:
                errors.append((balance_a, balance_b))

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    # alice->bob transfers in multiples of 10: a torn read would break the sum
    rng = random.Random(1)
    for _ in range(150):
        node.transfer(alice, bob.account, 0)
        node.transfer(alice, bob.account, rng.choice((0, 10)) if
                      node.balance(alice.account) >= 10 else 0)
        node.seal_block()
    stop.set()
    for t in threads:
        t.join()
    assert errors == []


def _feed_chain(node, signer, pushes, per_block):
    """A chain of `pushes` feed pushes, `per_block` to a block, with a sealed
    empty block after the first."""
    _, feed = node.deploy(signer, "feed")
    node.seal_block()
    node.seal_block()
    for i in range(pushes):
        node.call(signer, feed, "push", encode_values([i, "C", node.height + 1]))
        if i % per_block == per_block - 1:
            node.seal_block()
    node.seal_block()


def test_each_signature_verified_once_live_and_on_replay(node, alice, monkeypatch):
    """The live path verifies every signature it submits, and a replay
    verifies each one exactly once, counted across the replay's processes."""
    calls = multiprocessing.Value("i", 0)
    real_verify = ledger.verify_signature

    def counting_verify(*args):
        with calls.get_lock():
            calls.value += 1
        return real_verify(*args)

    monkeypatch.setattr(ledger, "verify_signature", counting_verify)
    _feed_chain(node, alice, pushes=150, per_block=7)
    txs = sum(len(block.txs) for block in node.blocks)
    assert txs == 151 and calls.value == txs
    calls.value = 0
    assert replay(node.export_bytes()) == node.state_digest()
    assert calls.value == txs
    assert multiprocessing.active_children() == []


def test_forged_signature_in_a_middle_block(node, alice):
    _feed_chain(node, alice, pushes=200, per_block=10)
    config, blocks = load_chain(node.export_bytes())
    victim = blocks[12]
    assert victim.height == 12 and len(victim.txs) == 10
    txs = list(victim.txs)
    tx = txs[6]
    txs[6] = Transaction(tx.sender_key, tx.nonce, tx.target, tx.method,
                         tx.args, tx.tokens, bytes(64))
    forged = Block.seal(victim.height, victim.prev_hash, victim.timestamp,
                        tuple(txs), victim.receipts)
    with pytest.raises(BrokenChain) as info:
        replay((config, blocks[:12] + [forged] + blocks[13:]))
    assert info.value.height == 12
    assert info.value.detail == "transaction signature does not verify"
    assert multiprocessing.active_children() == []


def test_replay_leaves_no_process_or_unclosed_resource(node, alice, monkeypatch):
    _feed_chain(node, alice, pushes=80, per_block=5)
    export = node.export_bytes()
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert replay(export) == node.state_digest()
        assert replay(dump_chain(node.config, node.blocks[:1])) == Node(
            dict(node.config.alloc)).state_digest()
        with pytest.raises(BrokenChain):
            replay((node.config, node.blocks[:4] + node.blocks[5:]))
        gc.collect()
    assert unraisable == []
    assert multiprocessing.active_children() == []


def test_dead_signature_worker_raises(node, alice, monkeypatch):
    replaying = os.getpid()

    def die_in_worker(*args):
        if os.getpid() != replaying:
            os._exit(3)
        return True

    _feed_chain(node, alice, pushes=20, per_block=4)
    monkeypatch.setattr(ledger, "verify_signature", die_in_worker)
    with pytest.raises(ChildProcessError, match="exit code 3"):
        replay(node.export_bytes())
    assert multiprocessing.active_children() == []
