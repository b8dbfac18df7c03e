import pytest

from thingchain import Node, Registry, Revert, Signer
from thingchain.codec import decode_values, encode_values
from thingchain.errors import StaticCallError, UnknownContract
from thingchain.runtime import Behavior, Export, bytes_, contract_address


def test_deploy_twice_independent_instances(node, alice):
    _, feed_a = node.deploy(alice, "feed")
    _, feed_b = node.deploy(alice, "feed")
    node.seal_block()
    assert feed_a != feed_b
    node.call(alice, feed_a, "push", encode_values([1000, "C", 1]))
    node.seal_block()
    assert node.read_state(feed_a, b"last") is not None
    assert node.read_state(feed_b, b"last") is None


def test_deploy_unknown_code(node, alice):
    receipt, address = node.deploy(alice, "no-such-behavior")
    node.seal_block()
    assert not receipt.ok
    assert receipt.reason == "UnknownCode"
    assert address is None


def test_address_recomputable_from_deploy_tx(node, alice):
    nonce = node.next_nonce(alice.account)
    _, address = node.deploy(alice, "feed")
    node.seal_block()
    assert address == contract_address(alice.account, nonce)
    deploy_tx = node.blocks[-1].txs[0]
    assert contract_address(deploy_tx.sender, deploy_tx.nonce) == address


def test_call_unknown_method(node, alice):
    _, feed = node.deploy(alice, "feed")
    receipt = node.call(alice, feed, "frobnicate")
    node.seal_block()
    assert receipt.reason == "MethodNotFound"


def test_call_unknown_contract(node, alice):
    receipt = node.call(alice, b"\x09" * 32, "anything")
    node.seal_block()
    assert receipt.reason == "UnknownContract"


def test_reverted_call_refunds_attached_tokens(node, alice):
    _, feed = node.deploy(alice, "feed")
    node.seal_block()
    before = node.balance(alice.account)
    digest_before = node.state_digest()
    receipt = node.call(alice, feed, "frobnicate", tokens=5)
    node.seal_block()
    assert not receipt.ok
    assert node.balance(alice.account) == before
    # atomicity: only the sender nonce moved
    assert node.contract_info(feed).balance == 0
    assert receipt.return_value == b""
    assert receipt.events == ()
    assert node.state_digest() != digest_before  # nonce advanced
    assert node.nonce(alice.account) == node.blocks[-1].txs[-1].nonce


def test_ok_call_credits_attached_tokens(node, alice):
    _, feed = node.deploy(alice, "feed")
    receipt = node.call(alice, feed, "push", encode_values([1, "C", 1]), tokens=7)
    node.seal_block()
    assert receipt.ok
    assert node.contract_info(feed).balance == 7


def test_read_state_by_stranger_and_after_kill(node, alice, bob):
    _, ident = node.deploy(alice, "identity")
    node.call(alice, ident, "set_attribute", encode_values(["name", b"Thing-17"]))
    node.seal_block()
    # no authentication on reads
    assert node.read_state(ident, b"attr/name") == b"Thing-17"
    node.call(alice, ident, "kill")
    node.seal_block()
    assert node.contract_info(ident).killed
    assert node.read_state(ident, b"attr/name") == b"Thing-17"


def test_read_state_unknown_key_absent(node, alice):
    _, ident = node.deploy(alice, "identity")
    node.seal_block()
    assert node.read_state(ident, b"nope") is None


def test_read_state_unknown_contract(node):
    with pytest.raises(UnknownContract):
        node.read_state(b"\x01" * 32, b"k")


# --- kill switch ------------------------------------------------------------

def test_kill_transfers_balance_to_owner(node, alice):
    _, feed = node.deploy(alice, "feed")
    node.call(alice, feed, "push", encode_values([1, "C", 1]), tokens=7)
    node.seal_block()
    owner_before = node.balance(alice.account)
    receipt = node.call(alice, feed, "kill")
    node.seal_block()
    assert receipt.ok
    assert node.balance(alice.account) == owner_before + 7
    assert node.contract_info(feed).balance == 0
    assert node.contract_info(feed).killed


def test_kill_by_non_owner(node, alice, bob):
    _, feed = node.deploy(alice, "feed")
    node.seal_block()
    receipt = node.call(bob, feed, "kill")
    node.seal_block()
    assert receipt.reason == "NotOwner"
    assert not node.contract_info(feed).killed


def test_kill_twice(node, alice):
    _, feed = node.deploy(alice, "feed")
    node.call(alice, feed, "kill")
    receipt = node.call(alice, feed, "kill")
    node.seal_block()
    assert receipt.reason == "AlreadyKilled"


def test_kill_monotonic_all_later_calls_rejected(node, alice):
    _, feed = node.deploy(alice, "feed")
    node.call(alice, feed, "kill")
    node.seal_block()
    for method in ("push", "last", "stats", "allow_writer", "nonsense"):
        receipt = node.call(alice, feed, method)
        assert receipt.reason == "ContractKilled"
    node.seal_block()


# --- transparency / no secrets ----------------------------------------------

def test_every_written_key_readable_by_stranger(node, alice, bob):
    """The runtime offers no private storage: all committed writes are
    world-readable via read_state."""
    _, ident = node.deploy(alice, "identity", encode_values([b"subject"]))
    node.call(alice, ident, "set_attribute", encode_values(["name", b"x"]))
    _, feed = node.deploy(alice, "feed")
    node.call(alice, feed, "push", encode_values([5, "C", 1]))
    node.seal_block()
    for address in (ident, feed):
        for key in node.state_keys(address):
            assert node.read_state(address, key) is not None


# --- caller authenticity ------------------------------------------------------

def test_caller_comes_from_signature(node, alice, bob):
    """The runtime takes the caller from the signed transaction; a forged
    owner in args cannot bypass owner checks."""
    _, ident = node.deploy(alice, "identity")
    node.seal_block()
    receipt = node.call(bob, ident, "set_attribute",
                        encode_values(["name", b"spoof"]))
    node.seal_block()
    assert receipt.reason == "NotOwner"
    tx = node.blocks[-1].txs[0]
    assert tx.sender == bob.account


# --- static calls -----------------------------------------------------------

def test_static_call_reads_sealed_state_only(node, alice):
    _, feed = node.deploy(alice, "feed")
    node.call(alice, feed, "push", encode_values([1234, "C", 1]))
    node.seal_block()
    assert decode_values(node.static(feed, "last", []))[0] == 1234
    # pending (unsealed) writes are invisible
    node.call(alice, feed, "push", encode_values([9999, "C", 2]))
    assert decode_values(node.static(feed, "last", []))[0] == 1234
    node.seal_block()
    assert decode_values(node.static(feed, "last", []))[0] == 9999


def test_static_call_rejects_writes(node, alice):
    _, feed = node.deploy(alice, "feed")
    node.seal_block()
    with pytest.raises(StaticCallError):
        node.static(feed, "push", [1, "C", 1], caller=alice.account)
    with pytest.raises(StaticCallError):
        node.static(feed, "kill", [], caller=alice.account)
    # and nothing leaked into state
    assert node.read_state(feed, b"last") is None


def test_static_call_on_killed_contract(node, alice):
    _, feed = node.deploy(alice, "feed")
    node.call(alice, feed, "push", encode_values([1, "C", 1]))
    node.call(alice, feed, "kill")
    node.seal_block()
    with pytest.raises(Revert) as info:
        node.static(feed, "last", [])
    assert info.value.reason == "ContractKilled"


# --- cross-contract calls and the reentrancy cap ------------------------------

class ChainCaller(Behavior):
    """Test behavior: hop() forwards to the next contract, depth-first."""

    code_id = "chain_caller"
    exports = {"hop": Export(), "set_next": Export(bytes_)}

    def set_next(self, ctx, nxt):
        ctx.set(b"next", nxt)

    def hop(self, ctx):
        nxt = ctx.get(b"next")
        if nxt is None:
            return encode_values([ctx.depth])
        return ctx.call(nxt, "hop", [])


def _registry_with_chain_caller():
    from thingchain.contracts import STANDARD_BEHAVIORS

    reg = Registry(cls() for cls in STANDARD_BEHAVIORS)
    reg.add(ChainCaller())
    return reg


def test_nested_calls_within_cap():
    signer = Signer.from_seed("nest")
    node = Node({signer.account: 10}, registry=_registry_with_chain_caller())
    node.create_account("nest")
    addrs = []
    for _ in range(4):
        _, addr = node.deploy(signer, "chain_caller")
        addrs.append(addr)
    for here, nxt in zip(addrs, addrs[1:]):
        node.call(signer, here, "set_next", encode_values([nxt]))
    receipt = node.call(signer, addrs[0], "hop")
    node.seal_block()
    assert receipt.ok
    assert decode_values(receipt.return_value)[0] == 4


def test_reentrancy_depth_cap():
    signer = Signer.from_seed("nest")
    node = Node({signer.account: 10}, registry=_registry_with_chain_caller())
    node.create_account("nest")
    addrs = []
    for _ in range(10):
        _, addr = node.deploy(signer, "chain_caller")
        addrs.append(addr)
    for here, nxt in zip(addrs, addrs[1:]):
        node.call(signer, here, "set_next", encode_values([nxt]))
    # a self-loop also trips the cap
    node.call(signer, addrs[-1], "set_next", encode_values([addrs[-1]]))
    receipt = node.call(signer, addrs[0], "hop")
    node.seal_block()
    assert not receipt.ok
    assert receipt.reason == "ReentrancyLimit"
