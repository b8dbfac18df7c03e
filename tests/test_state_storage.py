"""Per-contract committed storage checked against a plain-dict model.

Random writes and deletes run inside transaction layers that are merged or
dropped, and blocks that are sealed.  After every step, reads and key listings
(through the overlays, committed-only, and on a committed view) match the
model, and the state digest equals one computed with the flat
``(address, key)`` algorithm that the nested storage replaced.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from thingchain.codec import enc_bytes, enc_str, enc_u8, enc_u32, enc_u64
from thingchain.keys import digest
from thingchain.state import ContractMeta, WorldState

CONTRACTS = (b"\x01" * 32, b"\x02" * 32, b"\x03" * 32)
STRAY = b"\x09" * 32                  # has storage but no contract metadata
ADDRESSES = CONTRACTS + (STRAY,)
KEYS = (b"a", b"a/1", b"a/2", b"b", b"b/1", b"c")
PREFIXES = (b"", b"a", b"a/", b"b", b"c", b"d")
OWNER = b"\x07" * 32


def flat_digest(contracts: dict, committed: dict) -> bytes:
    """The state digest as computed over one flat (address, key) map."""
    parts = [enc_u32(0), enc_u32(len(contracts))]
    for addr in sorted(contracts):
        meta = contracts[addr]
        parts += [addr, enc_str(meta.code_id), meta.owner, enc_u64(meta.balance),
                  enc_u8(1 if meta.killed else 0)]
        keys = sorted(key for (a, key) in committed if a == addr)
        parts.append(enc_u32(len(keys)))
        for key in keys:
            parts += [enc_bytes(key), enc_bytes(committed[(addr, key)])]
    return digest(b"state:" + b"".join(parts))


class StorageMachine(RuleBasedStateMachine):
    @initialize()
    def fresh_state(self):
        self.world = WorldState()
        self.contracts = {addr: ContractMeta("feed", OWNER) for addr in CONTRACTS}
        for addr, meta in self.contracts.items():
            self.world.set_contract(addr, meta)
        self.world.push_layer()         # the block being built, as in Node
        # one full snapshot per layer: [committed, block, tx, ...]
        self.snapshots = [{}, {}]

    @rule(addr=st.sampled_from(ADDRESSES), key=st.sampled_from(KEYS),
          value=st.binary(max_size=3))
    def set_storage(self, addr, key, value):
        self.world.set_storage(addr, key, value)
        self.snapshots[-1][(addr, key)] = value

    @rule(addr=st.sampled_from(ADDRESSES), key=st.sampled_from(KEYS))
    def delete_storage(self, addr, key):
        self.world.delete_storage(addr, key)
        self.snapshots[-1].pop((addr, key), None)

    @precondition(lambda self: len(self.snapshots) < 5)
    @rule()
    def begin_transaction(self):
        self.world.push_layer()
        self.snapshots.append(dict(self.snapshots[-1]))

    @precondition(lambda self: len(self.snapshots) > 2)
    @rule(merge=st.booleans())
    def end_transaction(self, merge):
        self.world.pop_layer(merge)
        top = self.snapshots.pop()
        if merge:
            self.snapshots[-1] = top

    @precondition(lambda self: len(self.snapshots) == 2)
    @rule()
    def seal_block(self):
        self.world.pop_layer(merge=True)
        self.world.push_layer()
        self.snapshots = [self.snapshots[1], dict(self.snapshots[1])]

    @invariant()
    def reads_match_model(self):
        committed, live = self.snapshots[0], self.snapshots[-1]
        view = self.world.committed_view()
        for addr in ADDRESSES:
            for key in KEYS:
                assert self.world.get_storage(addr, key) == live.get((addr, key))
                assert view.get_storage(addr, key) == committed.get((addr, key))
            for prefix in PREFIXES:
                def listed(model):
                    return sorted(k for (a, k) in model if a == addr and k.startswith(prefix))

                assert self.world.storage_keys(addr, prefix) == listed(live)
                assert view.storage_keys(addr, prefix) == listed(committed)

    @invariant()
    def digest_matches_flat_algorithm(self):
        expected = flat_digest(self.contracts, self.snapshots[0])
        assert self.world.state_digest() == expected
        assert self.world.committed_view().state_digest() == expected


StorageMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=25,
                                            deadline=None)
TestStorageMachine = StorageMachine.TestCase


def test_delete_then_reinsert_across_layers():
    world = WorldState()
    addr = CONTRACTS[0]
    world.set_contract(addr, ContractMeta("feed", OWNER))
    world.push_layer()
    world.set_storage(addr, b"k", b"1")
    world.pop_layer(merge=True)           # sealed: k committed
    world.push_layer()
    world.delete_storage(addr, b"k")      # block layer: tombstone
    world.push_layer()
    world.set_storage(addr, b"k", b"2")   # transaction layer: reinserted
    assert world.storage_keys(addr) == [b"k"]
    assert world.get_storage(addr, b"k") == b"2"
    world.pop_layer(merge=False)          # transaction reverted
    assert world.storage_keys(addr) == []
    assert world.committed_view().storage_keys(addr) == [b"k"]
    world.pop_layer(merge=True)           # sealed: the delete lands
    assert world.storage.base[addr] == {}
    assert world.get_storage(addr, b"k") is None
    world.push_layer()
    world.set_storage(addr, b"k", b"3")
    world.pop_layer(merge=True)
    assert world.committed_view().storage_keys(addr) == [b"k"]
    assert world.state_digest() == flat_digest({addr: ContractMeta("feed", OWNER)},
                                               {(addr, b"k"): b"3"})
