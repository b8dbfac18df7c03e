"""The ledger node: accounts, a single deterministic sequencer, sealed blocks,
history queries and full replay.

Submissions execute immediately against a pending-block overlay and return
their receipt; `seal_block` commits the batch.  External reads (balances,
read_state, history, state digest) always observe the last sealed block.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from .chain import (
    Block,
    GenesisConfig,
    Transaction,
    dump_chain,
    genesis_block,
    load_chain,
    make_transaction,
)
from .errors import (
    AccountCollision,
    BadNonce,
    BadSignature,
    BrokenChain,
    InsufficientTokens,
    SubmitError,
    UnknownContract,
    UnknownSender,
)
from .keys import Signer, account_id, verify_signature
from .runtime import Registry, execute_transaction, static_call
from .state import ContractMeta, WorldState


def default_registry() -> Registry:
    from .contracts import standard_registry

    return standard_registry()


class Node:
    """Single-sequencer ledger with an in-process contract runtime."""

    def __init__(self, genesis_alloc=None, tx_cap: int = 1024, registry: Registry | None = None):
        alloc = genesis_alloc or {}
        if isinstance(alloc, dict):
            alloc = alloc.items()
        config = GenesisConfig(tuple(sorted((bytes(a), int(n)) for a, n in alloc)), tx_cap)
        self._init_from_config(config, registry)

    def _init_from_config(self, config: GenesisConfig, registry: Registry | None) -> None:
        self.config = config
        self.registry = registry if registry is not None else default_registry()
        self.world = WorldState()
        for account, amount in config.alloc:
            self.world.credit(account, amount)
        self.blocks: list[Block] = [genesis_block(config)]
        self.directory: dict[bytes, bytes] = {}   # account id -> verification key
        self._history: dict[tuple[bytes, bytes], list] = {}
        self._pending: list[tuple[Transaction, object]] = []
        self._pending_writes: list[tuple[bytes, bytes, bytes | None]] = []
        self._lock = threading.RLock()
        self.world.push_layer()   # overlay for the block being built

    # ------------------------------------------------------------------
    # accounts

    def create_account(self, seed: bytes | str):
        """Derive, register and return (account id, signing capability)."""
        signer = Signer.from_seed(seed)
        with self._lock:
            self._register_key(signer.verify_key_bytes)
        return signer.account, signer

    def _register_key(self, verify_key: bytes) -> bytes:
        account = account_id(verify_key)
        known = self.directory.get(account)
        if known is not None and known != verify_key:
            raise AccountCollision(account.hex())
        self.directory[account] = verify_key
        return account

    def balance(self, account: bytes) -> int:
        with self._lock:
            return self.world.balance(account, committed_only=True)

    def nonce(self, account: bytes) -> int:
        with self._lock:
            return self.world.nonce(account, committed_only=True)

    def next_nonce(self, account: bytes) -> int:
        """Nonce for the next transaction, counting pending submissions."""
        with self._lock:
            return self.world.nonce(account) + 1

    # ------------------------------------------------------------------
    # sequencing

    @property
    def height(self) -> int:
        """Height of the last sealed block."""
        with self._lock:
            return len(self.blocks) - 1

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def submit(self, tx: Transaction):
        """Validate, execute and stage a transaction; returns its receipt.

        Invalid transactions raise a SubmitError subclass and leave no trace.
        The block auto-seals once the per-block transaction cap is reached.
        """
        with self._lock:
            receipt = self._execute_pending(tx)
            if len(self._pending) >= self.config.tx_cap:
                self._seal_locked()
            return receipt

    def _execute_pending(self, tx: Transaction, signature_checked: bool = False):
        self._validate(tx, signature_checked)
        height = len(self.blocks)
        receipt, writes = execute_transaction(
            self.world, self.registry, tx, height, len(self._pending), tick=height,
        )
        self._pending.append((tx, receipt))
        self._pending_writes.extend(writes)
        return receipt

    def _validate(self, tx: Transaction, signature_checked: bool = False) -> None:
        """Raise the SubmitError that rejects ``tx``.  ``signature_checked``
        is set only by replay, which has verified the signature already."""
        sender = tx.sender
        known = self.directory.get(sender)
        if known is None:
            raise UnknownSender(sender.hex())
        if known != tx.sender_key:
            raise BadSignature("verification key does not match sender")
        if not signature_checked and not verify_signature(
                tx.sender_key, tx.signature, tx.signing_bytes()):
            raise BadSignature("signature does not verify")
        expected = self.world.nonce(sender) + 1
        if tx.nonce != expected:
            raise BadNonce(f"expected {expected}, got {tx.nonce}")
        if tx.tokens and self.world.balance(sender) < tx.tokens:
            raise InsufficientTokens(f"balance {self.world.balance(sender)} < {tx.tokens}")

    def seal_block(self) -> Block:
        """Seal pending transactions (possibly none) into the next block."""
        with self._lock:
            return self._seal_locked()

    def _seal_locked(self) -> Block:
        height = len(self.blocks)
        block = Block.seal(
            height,
            self.blocks[-1].block_hash,
            timestamp=height,
            txs=[tx for tx, _ in self._pending],
            receipts=[rc for _, rc in self._pending],
        )
        self.blocks.append(block)
        self.world.pop_layer(merge=True)
        self.world.push_layer()
        for address, key, value in self._pending_writes:
            self._history.setdefault((address, key), []).append((height, value))
        self._pending.clear()
        self._pending_writes.clear()
        return block

    # ------------------------------------------------------------------
    # reads (sealed state only)

    def contract_info(self, address: bytes) -> ContractMeta:
        with self._lock:
            meta = self.world.contract(address, committed_only=True)
            if meta is None:
                raise UnknownContract(address.hex())
            return meta

    def contract_exists(self, address: bytes) -> bool:
        with self._lock:
            return self.world.contract(address, committed_only=True) is not None

    def read_state(self, address: bytes, key: bytes) -> bytes | None:
        """Uncredentialed read of committed contract state (None if absent)."""
        with self._lock:
            self.contract_info(address)
            return self.world.get_storage(address, key, committed_only=True)

    def state_keys(self, address: bytes, prefix: bytes = b"") -> list[bytes]:
        with self._lock:
            self.contract_info(address)
            return self.world.storage_keys(address, prefix, committed_only=True)

    def history(self, address: bytes, key: bytes) -> list[tuple[int, bytes | None]]:
        """Every committed write to a key, in height order; deletes are None."""
        with self._lock:
            self.contract_info(address)
            return list(self._history.get((address, key), []))

    def state_digest(self) -> bytes:
        with self._lock:
            return self.world.state_digest()

    def total_supply(self) -> int:
        with self._lock:
            return self.world.total_supply(committed_only=True)

    def static(self, address: bytes, method: str, args: list, caller: bytes = b"\x00" * 32) -> bytes:
        """Read-only method execution against sealed state."""
        with self._lock:
            height = len(self.blocks)
            return static_call(
                self.world, self.registry, address, method, args, height, height, caller,
            )

    # ------------------------------------------------------------------
    # convenience wrappers used by the gateway, scenarios and tests

    def transfer(self, signer: Signer, to: bytes, amount: int):
        tx = make_transaction(signer, self.next_nonce(signer.account), to, "", b"", amount)
        return self.submit(tx)

    def deploy(self, signer: Signer, code_id: str, init_args: bytes = b"", tokens: int = 0):
        """Returns (receipt, contract address or None when reverted)."""
        tx = make_transaction(
            signer, self.next_nonce(signer.account), None, code_id, init_args, tokens,
        )
        receipt = self.submit(tx)
        return receipt, (receipt.return_value if receipt.ok else None)

    def call(self, signer: Signer, address: bytes, method: str, args: bytes = b"",
             tokens: int = 0):
        tx = make_transaction(
            signer, self.next_nonce(signer.account), address, method, args, tokens,
        )
        return self.submit(tx)

    # ------------------------------------------------------------------
    # export / replay

    def export_bytes(self) -> bytes:
        with self._lock:
            return dump_chain(self.config, self.blocks)

    def export_chain(self, path) -> bytes:
        data = self.export_bytes()
        with open(path, "wb") as fh:
            fh.write(data)
        return data

    @classmethod
    def from_chain(cls, config: GenesisConfig, blocks: list[Block],
                   registry: Registry | None = None) -> "Node":
        """Rebuild a node by re-validating and re-executing a block list.

        Raises BrokenChain(height) on any link, hash, signature or
        re-execution mismatch.  Each transaction's signature is verified
        once, by one forked worker process that works through the chain
        while this process re-executes it (see ``_signature_verdicts``).
        """
        node = cls.__new__(cls)
        node._init_from_config(config, registry)
        if not blocks:
            raise BrokenChain(0, "chain has no genesis block")
        if blocks[0].encode() != node.blocks[0].encode():
            raise BrokenChain(0, "genesis does not match configuration")
        with _signature_verdicts(blocks[1:]) as verdicts:
            for expected_height, block in enumerate(blocks[1:], start=1):
                node._replay_block(expected_height, block, verdicts)
        return node

    def _replay_block(self, height: int, block: Block, verdicts) -> None:
        """Replay one block; ``verdicts`` yields, in chain order, whether
        each transaction's signature verifies."""
        if block.height != height:
            raise BrokenChain(height, f"height field says {block.height}")
        if block.prev_hash != self.blocks[-1].block_hash:
            raise BrokenChain(height, "prev_hash does not match parent")
        if block.timestamp != height:
            raise BrokenChain(height, "timestamp is not the block tick")
        if block.compute_hash() != block.block_hash:
            raise BrokenChain(height, "stored block hash is wrong")
        if len(block.receipts) != len(block.txs):
            raise BrokenChain(height, "receipt count != tx count")
        for tx, stored in zip(block.txs, block.receipts):
            if not next(verdicts):
                raise BrokenChain(height, "transaction signature does not verify")
            try:
                self._register_key(tx.sender_key)
                receipt = self._execute_pending(tx, signature_checked=True)
            except (SubmitError, AccountCollision) as exc:
                raise BrokenChain(height, str(exc)) from exc
            if receipt.encode() != stored.encode():
                raise BrokenChain(height, "re-executed receipt differs")
        sealed = self.seal_block()
        if sealed.block_hash != block.block_hash:
            raise BrokenChain(height, "re-sealed block hash differs")


_VERDICT_CHUNK = 64


def _send_verdicts(blocks: list[Block], conn) -> None:
    """Worker body: verify every transaction's signature in chain order and
    send the verdicts, one byte each, in chunks of ``_VERDICT_CHUNK``."""
    verdicts = bytearray()
    for block in blocks:
        for tx in block.txs:
            verdicts.append(verify_signature(tx.sender_key, tx.signature, tx.signing_bytes()))
            if len(verdicts) == _VERDICT_CHUNK:
                conn.send_bytes(verdicts)
                verdicts.clear()
    if verdicts:
        conn.send_bytes(verdicts)
    conn.close()


def _receive_verdicts(conn, worker):
    while True:
        try:
            chunk = conn.recv_bytes()
        except EOFError:       # the worker is gone before its last verdict
            worker.join()
            raise ChildProcessError(
                f"signature worker exited early (exit code {worker.exitcode})") from None
        yield from chunk


@contextmanager
def _signature_verdicts(blocks: list[Block]):
    """Yield an iterator over the signature verdicts of ``blocks``'
    transactions, in chain order, computed by one worker process.

    The worker is forked, so it reads the blocks the caller already decoded
    instead of receiving a pickled copy, and Ed25519 verification, which
    holds the interpreter lock, runs on a second CPU while the caller
    re-executes.  The worker runs nothing but transaction encoding,
    verification and writes to its pipe.  No worker is started for a chain without transactions.
    The worker is terminated and joined on return and on any exception; if
    it dies, reading the next verdict raises ChildProcessError.
    """
    if not any(block.txs for block in blocks):
        yield iter(())
        return
    import multiprocessing   # here, so that importing the ledger costs no memory for it

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(target=_send_verdicts, args=(blocks, sender),
                             name="thingchain-verify")
    with receiver:
        with sender:       # the worker's end stays open only in the worker
            worker.start()
        try:
            yield _receive_verdicts(receiver, worker)
        finally:
            worker.terminate()
            receiver.close()   # a worker that outlives SIGTERM cannot block on a send
            worker.join()
            worker.close()


def replay(source) -> bytes:
    """Replay a chain export and return the resulting state digest.

    `source` may be raw export bytes, a path, or a (config, blocks) pair.
    """
    if isinstance(source, tuple):
        config, blocks = source
    else:
        if not isinstance(source, (bytes, bytearray)):
            with open(source, "rb") as fh:
                source = fh.read()
        config, blocks = load_chain(bytes(source))
    return Node.from_chain(config, blocks).state_digest()
