"""The per-block transaction cap: a node refuses a cap below 1, and replay
refuses a genesis with such a cap and a block holding more transactions than
the genesis cap."""

import pytest

from thingchain import Node, Signer, cli, ledger, replay
from thingchain.chain import Block, GenesisConfig, dump_chain, genesis_block, load_chain
from thingchain.errors import BrokenChain


@pytest.mark.parametrize("cap", [0, -1])
def test_node_rejects_a_cap_below_one(cap):
    with pytest.raises(ValueError, match=f"tx_cap must be at least 1, got {cap}"):
        Node({}, tx_cap=cap)


def test_init_rejects_a_cap_below_one_and_writes_no_file(tmp_path, capsys):
    chain = tmp_path / "c.chain"
    assert cli.main(["init", "--chain", str(chain), "--tx-cap", "0"]) == 1
    assert "tx_cap must be at least 1, got 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_replay_rejects_a_genesis_whose_cap_is_zero():
    config = GenesisConfig((), tx_cap=0)
    blocks = [genesis_block(config)]
    with pytest.raises(BrokenChain) as info:
        Node.from_chain(config, blocks)
    assert info.value.height == 0 and "tx_cap" in info.value.detail
    with pytest.raises(BrokenChain) as info:
        replay(dump_chain(config, blocks))
    assert info.value.height == 0 and "tx_cap" in info.value.detail


def test_replay_rejects_a_block_past_the_genesis_cap(monkeypatch):
    """Five transfers sealed as one block, rehashed under a genesis whose cap
    is 2: a live node with that cap seals them as blocks of 2, 2 and 1, and
    replay refuses the block of 5 before it takes that block's verdicts."""
    signer = Signer.from_seed("cap")
    sink = Signer.from_seed("sink").account
    alloc = ((signer.account, 100),)

    def transfers(node):
        node.create_account("cap")
        for _ in range(5):
            node.transfer(signer, sink, 1)
        node.seal_block()
        return node

    live = transfers(Node(alloc, tx_cap=2))
    assert [len(b.txs) for b in live.blocks] == [0, 2, 2, 1]
    assert replay(live.export_bytes()) == live.state_digest()

    wide = transfers(Node(alloc, tx_cap=5))
    config = GenesisConfig(alloc, tx_cap=2)
    first = wide.blocks[1]
    assert len(first.txs) == 5
    blocks = [genesis_block(config)]
    blocks.append(Block.seal(1, blocks[-1].block_hash, 1, first.txs[:1], first.receipts[:1]))
    blocks.append(Block.seal(2, blocks[-1].block_hash, 2, first.txs[1:], first.receipts[1:]))
    loaded = load_chain(dump_chain(config, blocks))
    taken = []
    take = ledger._Lanes.take
    monkeypatch.setattr(ledger._Lanes, "take",
                        lambda lanes, count: taken.append(count) or take(lanes, count))
    with pytest.raises(BrokenChain) as info:
        replay(loaded)
    assert info.value.height == 2
    assert info.value.detail == "4 transactions, past the cap of 2"
    assert taken == [1]                       # block 1's verdicts only
