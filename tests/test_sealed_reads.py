"""Every external read of a `Node` answers from the last sealed block,
through `Node.sealed`, the one live view of committed state made when the
node is built."""

import pytest

from thingchain.codec import encode_values
from thingchain.errors import UnknownContract
from thingchain.ledger import Verifier
from thingchain.runtime import contract_address
from thingchain.state import WorldState


def sealed_reads(node, alice, feed, later):
    """Each read, by name, of the accounts and contracts the staged block
    touches; a read that raises UnknownContract gives that class."""
    calls = {
        "balance": (alice.account,),
        "nonce": (alice.account,),
        "contract_info": (later,),
        "contract_exists": (later,),
        "read_state": (feed, b"last"),
        "state_keys": (feed,),
        "history": (feed, b"last"),
        "static": (feed, "last", []),
        "state_digest": (),
        "total_supply": (),
    }
    reads = {}
    for name, args in calls.items():
        try:
            reads[name] = getattr(node, name)(*args)
        except UnknownContract:
            reads[name] = UnknownContract
    return reads


def stage(node, alice, bob, feed):
    node.call(alice, feed, "push", encode_values([2000, "C", 2]))
    node.transfer(alice, bob.account, 7)
    node.deploy(alice, "feed", tokens=5)


@pytest.mark.parametrize("inside_batch", [False, True], ids=["pending", "batch"])
def test_node_reads_answer_from_the_last_sealed_block(node, alice, bob, monkeypatch,
                                                      inside_batch):
    _, feed = node.deploy(alice, "feed")
    node.call(alice, feed, "push", encode_values([1000, "C", 1]))
    node.seal_block()
    later = contract_address(alice.account, node.next_nonce(alice.account) + 2)
    view = node.sealed
    before = sealed_reads(node, alice, feed, later)
    assert before["contract_info"] is UnknownContract

    if inside_batch:
        with Verifier() as verifier, node.batch(verifier):
            stage(node, alice, bob, feed)
            assert sealed_reads(node, alice, feed, later) == before
    else:
        stage(node, alice, bob, feed)
        assert node.pending_count == 3
        assert sealed_reads(node, alice, feed, later) == before
        node.seal_block()

    assert node.sealed is view
    after = sealed_reads(node, alice, feed, later)
    assert after["contract_info"].balance == 5
    changed = {name for name in before if after[name] != before[name]}
    assert changed == set(before) - {"total_supply"}     # tokens only move

    made = []
    real_init = WorldState.__init__

    def counting_init(self):
        made.append(self)
        real_init(self)

    monkeypatch.setattr(WorldState, "__init__", counting_init)
    assert node.static(feed, "last", []) == after["static"]
    assert made == []


def test_receive_without_waiting_returns_nothing_when_nothing_was_sent():
    with Verifier() as verifier:
        assert verifier.receive(wait=False) == b""
