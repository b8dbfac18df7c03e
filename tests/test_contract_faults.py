"""Contract faults are contained, and no argument list escapes dispatch.

A behavior that raises something other than `Revert` is a bug in the
program: the transaction is not staged and the world is left as it was, so
the chain a node seals still replays.  Every declared argument is checked
before a method body runs, so any decoded value list sent to any standard
export yields a receipt.
"""

import pytest
from hypothesis import given, settings, strategies as st

from thingchain import Node, Registry, Signer, ledger, replay
from thingchain.codec import I64_MAX, I64_MIN, encode_values
from thingchain.contracts import STANDARD_BEHAVIORS
from thingchain.contracts.zone import label
from thingchain.ledger import Verifier
from thingchain.runtime import Behavior, Export, account, bytes_, i64, str_, u64

PROFILE = settings(derandomize=True, deadline=None, database=None)


class Faulty(Behavior):
    """Test behavior: `fail` writes, emits and then raises a ValueError."""

    code_id = "faulty"
    exports = {"fail": Export(), "put": Export(bytes_)}

    def fail(self, ctx):
        ctx.set(b"k", b"lost")
        ctx.emit("Lost")
        raise ValueError("a bug in the contract")

    def put(self, ctx, value):
        ctx.set(b"k", value)


def _registry():
    return Registry([cls() for cls in STANDARD_BEHAVIORS] + [Faulty()])


@pytest.fixture
def faulty_node(monkeypatch, alice):
    monkeypatch.setattr(ledger, "default_registry", _registry)   # replay knows Faulty
    node = Node({alice.account: 100})
    node.create_account("alice")
    receipt, address = node.deploy(alice, "faulty")
    assert receipt.ok
    node.seal_block()
    return node, address


def _assert_replays(node):
    assert replay(node.export_bytes()) == node.state_digest()


def test_a_faulting_call_leaves_the_node_as_it_was(faulty_node, alice):
    node, address = faulty_node
    digest, nonce = node.state_digest(), node.next_nonce(alice.account)
    with pytest.raises(ValueError):
        node.call(alice, address, "fail")
    assert node.pending_count == 0
    assert node.next_nonce(alice.account) == nonce
    assert node.state_digest() == digest
    assert node.call(alice, address, "put", encode_values([b"kept"])).ok
    node.seal_block()
    assert node.read_state(address, b"k") == b"kept"
    _assert_replays(node)


def test_a_faulting_call_inside_a_batch_drops_the_batch(faulty_node, alice):
    node, address = faulty_node
    digest, nonce = node.state_digest(), node.next_nonce(alice.account)
    with Verifier() as verifier:
        with pytest.raises(ValueError):
            with node.batch(verifier):
                assert node.call(alice, address, "put", encode_values([b"batched"])).ok
                node.call(alice, address, "fail")
    assert node.pending_count == 0
    assert node.next_nonce(alice.account) == nonce
    assert node.state_digest() == digest
    assert node.call(alice, address, "put", encode_values([b"kept"])).ok
    node.seal_block()
    assert node.read_state(address, b"k") == b"kept"
    _assert_replays(node)


@pytest.mark.parametrize("code_id, method", [
    ("topic", "unsubscribe"), ("escrow", "confirm"), ("escrow", "refund"),
])
def test_a_negative_id_reverts_bad_args(node, alice, code_id, method):
    _, address = node.deploy(alice, code_id)
    assert node.call(alice, address, method, encode_values([-1])).reason == "BadArgs"
    assert node.call(alice, address, method, encode_values([0])).reason != "BadArgs"
    node.seal_block()
    _assert_replays(node)


def test_init_is_checked_but_not_callable(node, alice):
    assert node.deploy(alice, "identity", encode_values([1]))[0].reason == "BadArgs"
    _, address = node.deploy(alice, "identity", encode_values([b"subject"]))
    assert node.call(alice, address, "init", encode_values([b"other"])).reason == \
        "MethodNotFound"
    node.seal_block()
    assert node.read_state(address, b"subject_key") == b"subject"


# --- no decoded value list escapes dispatch ----------------------------------

DECLARED = {(cls.code_id, name): export.types
            for cls in STANDARD_BEHAVIORS for name, export in cls.exports.items()}
SEEDS = ("fuzz-owner", "fuzz-stranger")
OWNER, STRANGER = (Signer.from_seed(seed) for seed in SEEDS)

ints = (st.sampled_from([0, -1, 1, I64_MIN, I64_MAX]) | st.integers(-2, 2)
        | st.integers(I64_MIN, I64_MAX))
texts = st.sampled_from(["", "a", "a/#", "a/+/b", "#/a", "BAD!", "x" * 64]) | st.text(max_size=8)
blobs = st.sampled_from([b"", bytes(31), bytes(32)]) | st.binary(max_size=40)
accounts = st.sampled_from([OWNER.account, STRANGER.account]) | st.binary(min_size=32,
                                                                          max_size=32)
WELL_TYPED = {i64: ints, u64: ints, str_: texts, bytes_: blobs, account: accounts, label: texts}
anything = st.recursive(
    st.booleans() | ints | texts | blobs, lambda inner: st.lists(inner, max_size=3),
    max_leaves=6)


@st.composite
def value_lists(draw, types):
    """Values of the declared types, cut short, padded with extras, or any
    values at all."""
    values = [draw(WELL_TYPED[kind]) for kind in types]
    shape = draw(st.sampled_from(["typed", "short", "extra", "any"]))
    if shape == "short":
        values = values[:draw(st.integers(0, len(values)))]
    elif shape == "extra":
        values += draw(st.lists(anything, min_size=1, max_size=2))
    elif shape == "any":
        values = draw(st.lists(anything, max_size=6))
    return values


def test_every_declared_type_has_a_strategy():
    assert {kind for types in DECLARED.values() for kind in types} <= set(WELL_TYPED)


@pytest.mark.parametrize("code_id, method", sorted(DECLARED))
def test_any_value_list_gets_a_receipt(code_id, method):
    @settings(PROFILE, max_examples=25)
    @given(values=value_lists(DECLARED[code_id, method]), as_owner=st.booleans(),
           tokens=st.sampled_from([0, 0, 3]))
    def call(values, as_owner, tokens):
        node = Node({OWNER.account: 50, STRANGER.account: 50})
        for seed in SEEDS:
            node.create_account(seed)
        receipt, address = node.deploy(OWNER, code_id)
        assert receipt.ok
        signer = OWNER if as_owner else STRANGER
        node.call(signer, address, method, encode_values(values), tokens=tokens)

    call()
