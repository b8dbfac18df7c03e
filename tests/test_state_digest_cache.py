"""The incremental state digest checked against a from-scratch reference.

A ``WorldState`` keeps each contract's encoded digest section from its first
digest on and re-encodes only the contracts committed since the digest
before.  Random contract creations, balance changes, kills, storage writes and
tombstone deletes run in layers that are merged or dropped (reverted
transactions, dropped batches) or committed directly.  At random points the
digest must equal the flat algorithm over the committed model, and so must the
digest of a committed view, whether taken now or before later commits.  On a
ledger, the digest recorded after each seal must equal the replay of the chain
up to that height.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from thingchain import Node, Signer, replay
from thingchain.chain import dump_chain, make_transaction
from thingchain.codec import enc_bytes, enc_str, enc_u8, enc_u32, enc_u64, encode_values
from thingchain.errors import BadSignature, InsufficientTokens
from thingchain.keys import digest
from thingchain.ledger import Verifier
from thingchain.state import ContractMeta, WorldState

ADDRESSES = (b"\x01" * 32, b"\x02" * 32, b"\x03" * 32, b"\x04" * 32)
ACCOUNTS = (b"\x0a" * 32, b"\x0b" * 32) + ADDRESSES[:1]   # one id is also a contract
KEYS = (b"a", b"a/1", b"b", b"c")
OWNER = b"\x07" * 32


def reference_digest(model: dict) -> bytes:
    """The state digest from scratch: the accounts part, then every contract
    with its key/value pairs from one flat (address, key) map."""
    balances, nonces = model["balances"], model["nonces"]
    contracts, storage = model["contracts"], model["storage"]
    accounts = []
    for acct in sorted((set(balances) | set(nonces)) - set(contracts)):
        bal, non = balances.get(acct, 0), nonces.get(acct, 0)
        if bal or non:
            accounts.append((acct, bal, non))
    parts = [enc_u32(len(accounts))]
    for acct, bal, non in accounts:
        parts += [acct, enc_u64(bal), enc_u64(non)]
    parts.append(enc_u32(len(contracts)))
    for addr in sorted(contracts):
        meta = contracts[addr]
        parts += [addr, enc_str(meta.code_id), meta.owner, enc_u64(meta.balance),
                  enc_u8(1 if meta.killed else 0)]
        keys = sorted(key for (a, key) in storage if a == addr)
        parts.append(enc_u32(len(keys)))
        for key in keys:
            parts += [enc_bytes(key), enc_bytes(storage[(addr, key)])]
    return digest(b"state:" + b"".join(parts))


def copy_model(model: dict) -> dict:
    return {name: dict(entries) for name, entries in model.items()}


class DigestCacheMachine(RuleBasedStateMachine):
    @initialize()
    def fresh_state(self):
        self.world = WorldState()
        # one model per layer: [committed, layer 1, ...]; writes go to the last
        self.models = [{"balances": {}, "nonces": {}, "contracts": {}, "storage": {}}]
        self.views = []

    @property
    def live(self) -> dict:
        return self.models[-1]

    @precondition(lambda self: len(self.models) < 4)
    @rule()
    def push_layer(self):
        self.world.push_layer()
        self.models.append(copy_model(self.live))

    @precondition(lambda self: len(self.models) > 1)
    @rule(merge=st.booleans())
    def pop_layer(self, merge):
        """Seal (into the committed base), merge a transaction or batch, or
        revert or drop one."""
        self.world.pop_layer(merge)
        top = self.models.pop()
        if merge:
            self.models[-1] = top

    @rule(addr=st.sampled_from(ADDRESSES), code_id=st.sampled_from(("feed", "zone")))
    def create_contract(self, addr, code_id):
        meta = ContractMeta(code_id, OWNER)
        self.world.set_contract(addr, meta)
        self.live["contracts"][addr] = meta

    @rule(addr=st.sampled_from(ADDRESSES), balance=st.integers(0, 3))
    def change_balance(self, addr, balance):
        if addr in self.live["contracts"]:
            self.live["contracts"][addr] = self.world.update_contract(addr, balance=balance)

    @rule(addr=st.sampled_from(ADDRESSES))
    def kill(self, addr):
        if addr in self.live["contracts"]:
            self.live["contracts"][addr] = self.world.update_contract(
                addr, balance=0, killed=True)

    @rule(addr=st.sampled_from(ADDRESSES), key=st.sampled_from(KEYS),
          value=st.binary(max_size=3))
    def set_storage(self, addr, key, value):
        self.world.set_storage(addr, key, value)
        self.live["storage"][(addr, key)] = value

    @rule(addr=st.sampled_from(ADDRESSES), key=st.sampled_from(KEYS))
    def delete_storage(self, addr, key):
        self.world.delete_storage(addr, key)
        self.live["storage"].pop((addr, key), None)

    @rule(acct=st.sampled_from(ACCOUNTS), amount=st.integers(0, 5), nonce=st.booleans())
    def touch_account(self, acct, amount, nonce):
        if nonce:
            value = self.world.nonce(acct) + 1
            self.world.nonces.set(acct, value)
            self.live["nonces"][acct] = value
        else:
            self.world.balances.set(acct, amount)
            self.live["balances"][acct] = amount

    @precondition(lambda self: len(self.views) < 3)
    @rule()
    def take_view(self):
        self.views.append(self.world.committed_view())

    @rule()
    def check_digest(self):
        expected = reference_digest(self.models[0])
        assert self.world.state_digest() == expected
        assert self.world.state_digest() == expected          # warm, nothing committed
        assert self.world.committed_view().state_digest() == expected
        for view in self.views:                                # taken before later commits
            assert view.state_digest() == expected

    def teardown(self):
        if hasattr(self, "world"):
            self.check_digest()


DigestCacheMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None, derandomize=True)
TestDigestCacheMachine = DigestCacheMachine.TestCase


def test_first_digest_starts_the_cache_and_a_view_keeps_none():
    world = WorldState()
    addr = ADDRESSES[0]
    world.set_contract(addr, ContractMeta("feed", OWNER))
    world.set_storage(addr, b"k", b"1")
    assert world.storage.stale is None and world._sections == {}
    view = world.committed_view()
    first = view.state_digest()
    assert view._sections is None and view.storage.stale is None
    assert world.state_digest() == first
    assert list(world._sections) == [addr] and world.storage.stale == set()
    world.delete_storage(addr, b"k")                          # a tombstone, committed
    assert world.storage.stale == {addr}
    assert view.state_digest() == world.state_digest() != first
    assert world.storage.stale == set()


# --- on a ledger ------------------------------------------------------------------

SEEDS = ("dc-a", "dc-b", "dc-c")


class ForgingSigner(Signer):
    """A broken signer: its signatures never verify."""

    def sign(self, message: bytes) -> bytes:
        return bytes(64)


def push(signer, node, feed, value, tick):
    return node.call(signer, feed, "push", encode_values([value, "C", tick]))


def random_block(rng, node, signers, feeds):
    """Submit one to four random transactions: transfers, deploys with
    tokens, pushes, paid calls, kills and calls that revert."""
    for _ in range(rng.randint(1, 4)):
        signer = rng.choice(signers)
        action = rng.randrange(7)
        live = [f for f in feeds if not node.world.contract(f).killed]
        try:
            if action == 0:
                node.transfer(signer, rng.choice(signers).account, rng.randrange(20))
            elif action == 1 or not live:
                _, address = node.deploy(signers[0], "feed", tokens=rng.randrange(3))
                feeds.append(address)
            elif action == 2:
                assert push(signers[0], node, rng.choice(live), rng.randrange(-99, 99),
                            node.height + 1).ok
            elif action == 3:                          # pays the feed, or reverts on an empty one
                node.call(signer, rng.choice(live), "last", tokens=1)
            elif action == 4 and len(live) > 2:
                assert node.call(signers[0], rng.choice(live), "kill").ok
            elif action == 5:                          # reverted: a negative tick
                assert not push(signers[0], node, rng.choice(live), 1, -1).ok
            else:                                      # reverted: not a writer
                assert not push(signers[1], node, rng.choice(live), 1, node.height + 1).ok
        except InsufficientTokens:
            pass


def batches(node, signers, feeds, recorded):
    """A batch holding a transaction whose signature does not verify is
    dropped whole, leaving the pending block as it was; a good batch then
    seals the pending block with its own transaction."""
    before = node.state_digest()
    forger = ForgingSigner.from_seed(SEEDS[1])
    with Verifier() as verifier:
        with pytest.raises(BadSignature):
            with node.batch(verifier):
                push(signers[0], node, feeds[0], 5, node.height + 1)
                node.submit(make_transaction(forger, node.next_nonce(forger.account),
                                             signers[0].account, "", b"", 1))
        assert node.state_digest() == before
        with node.batch(verifier):
            push(signers[0], node, feeds[-1], 5, node.height + 1)
    recorded[node.height] = node.state_digest()


@pytest.mark.parametrize("seed", range(3))
def test_digest_after_each_seal_equals_replay_of_that_prefix(seed):
    rng = random.Random(seed)
    signers = [Signer.from_seed(s) for s in SEEDS]
    node = Node({signers[0].account: 1000, signers[1].account: 300})
    for s in SEEDS:
        node.create_account(s)
    feeds = []
    recorded = {node.height: node.state_digest()}
    for block in range(24):
        random_block(rng, node, signers, feeds)
        assert node.state_digest() == recorded[node.height]   # pending work is not committed
        if block in (5, 17):
            batches(node, signers, feeds, recorded)
        node.seal_block()
        recorded[node.height] = node.state_digest()
    assert any(node.contract_info(f).killed for f in feeds)
    for height, expected in recorded.items():
        assert replay(dump_chain(node.config, node.blocks[:height + 1])) == expected
