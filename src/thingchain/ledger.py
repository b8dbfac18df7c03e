"""The ledger node: accounts, a single deterministic sequencer, sealed blocks,
history queries and full replay.

Submissions execute immediately against a pending-block overlay and return
their receipt; `seal_block` commits the batch.  External reads (balances,
read_state, history, read-only calls) go through `Node.sealed`, one live view
of the last sealed block, and the state digest reads the same committed maps.
`Node.batch` and replay check signatures through `_Lanes`: in a `Verifier`
worker process, and in this process in place of waiting for the worker.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from contextlib import contextmanager, nullcontext, suppress

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

    def _init_from_config(self, config: GenesisConfig, registry: Registry | None = None) -> None:
        if config.tx_cap < 1:   # a block could then hold nothing, and a batch never start
            raise ValueError(f"tx_cap must be at least 1, got {config.tx_cap}")
        self.config = config
        self.registry = registry if registry is not None else default_registry()
        self.world = WorldState()
        self.sealed = self.world.committed_view()   # what every external read sees
        for account, amount in config.alloc:
            self.world.credit(account, amount)
        self.blocks: list[Block] = [genesis_block(config)]
        self.directory: dict[bytes, bytes] = {}   # account id -> verification key
        self._history: dict[tuple[bytes, bytes], list] = {}
        self._pending: list[tuple[Transaction, object]] = []
        self._pending_writes: list[tuple[bytes, bytes, bytes | None]] = []
        self._lanes: _Lanes | None = None   # set while a batch is open
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
            return self.sealed.balance(account)

    def nonce(self, account: bytes) -> int:
        with self._lock:
            return self.sealed.nonce(account)

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

    def batch_room(self) -> int:
        """How many more transactions the pending block takes before its
        cap; a `batch` may submit no more than this."""
        with self._lock:
            return self.config.tx_cap - len(self._pending)

    def submit(self, tx: Transaction):
        """Validate, execute and stage a transaction; returns its receipt.

        Invalid transactions raise a SubmitError subclass and leave no trace.
        The block auto-seals once the per-block transaction cap is reached.
        Inside a `batch` the signature is verified by the batch's lanes
        instead, nothing auto-seals, and a transaction that would take the
        block past the cap raises SubmitError.
        """
        with self._lock:
            if self._lanes is None:
                receipt = self._execute_pending(tx)
                if len(self._pending) >= self.config.tx_cap:
                    self._seal_locked()
                return receipt
            if self.batch_room() <= 0:
                raise SubmitError("the batch's block is full")
            receipt = self._execute_pending(tx, signature_checked=True)
            self._lanes.add((tx,))
            return receipt

    def _execute_pending(self, tx: Transaction, signature_checked: bool = False):
        self._validate(tx, signature_checked)
        height = len(self.blocks)
        receipt, writes = execute_transaction(
            self.world, self.registry, tx, height, len(self._pending),
        )
        self._pending.append((tx, receipt))
        self._pending_writes.extend(writes)
        return receipt

    @contextmanager
    def batch(self, verifier: "Verifier"):
        """Stage the transactions submitted inside the ``with`` block as one
        block, verifying their signatures beside their execution.

        This is execute-order-validate on the single sequencer: each `submit`
        validates and executes its transaction at once, in a batch layer over
        the pending block, and adds it to the batch's `_Lanes` over
        ``verifier``.  On leaving the block the batch takes the verdicts and,
        if every one is true, seals one block (none if the batch staged
        nothing).  If a verdict is false it raises BadSignature; then, and on
        any exception from the block or the verifier, the batch layer is
        dropped and the pending block is as it was before the batch.  The
        verifier is left in step only after a normal exit or BadSignature.
        The node's lock is held throughout.
        """
        with self._lock:
            if self._lanes is not None:
                raise RuntimeError("batches do not nest")
            staged, written = len(self._pending), len(self._pending_writes)
            self.world.push_layer()
            self._lanes = _Lanes(verifier)
            try:
                yield
                verdicts = self._lanes.take(len(self._pending) - staged)
                if not all(verdicts):
                    raise BadSignature(
                        f"batched transaction {verdicts.index(0)} does not verify")
            except BaseException:
                self.world.pop_layer(merge=False)
                del self._pending[staged:]
                del self._pending_writes[written:]
                raise
            finally:
                self._lanes = None
            self.world.pop_layer(merge=True)
            if len(self._pending) > staged:
                self.seal_block()

    def _validate(self, tx: Transaction, signature_checked: bool = False) -> None:
        """Raise the SubmitError that rejects ``tx``.  ``signature_checked``
        is set by replay and batches, whose verifier checks the signature."""
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
        """Seal pending transactions (possibly none) into the next block;
        inside a `batch` only the batch seals."""
        with self._lock:
            if self._lanes is not None:
                raise RuntimeError("seal_block inside a batch")
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
            meta = self.sealed.contract(address)
            if meta is None:
                raise UnknownContract(address.hex())
            return meta

    def contract_exists(self, address: bytes) -> bool:
        with self._lock:
            return self.sealed.contract(address) is not None

    def read_state(self, address: bytes, key: bytes) -> bytes | None:
        """Uncredentialed read of committed contract state (None if absent)."""
        with self._lock:
            self.contract_info(address)
            return self.sealed.get_storage(address, key)

    def state_keys(self, address: bytes, prefix: bytes = b"") -> list[bytes]:
        with self._lock:
            self.contract_info(address)
            return self.sealed.storage_keys(address, prefix)

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
            return self.world.total_supply()

    def static(self, address: bytes, method: str, args: list, caller: bytes = b"\x00" * 32) -> bytes:
        """Read-only method execution against sealed state."""
        with self._lock:
            height = len(self.blocks)
            return static_call(
                self.sealed, self.registry, address, method, args, height, caller,
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
        """Write the chain export to ``path`` and return its bytes.

        The bytes go to a temporary file beside ``path``, are fsynced, and
        replace ``path`` in one rename, so a crash leaves the old file or the
        new one, never a truncated chain.
        """
        data = self.export_bytes()
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with suppress(FileNotFoundError):
                os.remove(tmp)
            raise
        return data

    @classmethod
    def from_chain(cls, config: GenesisConfig, blocks: list[Block]) -> "Node":
        """Rebuild a node by re-validating and re-executing a block list.

        Raises BrokenChain(height) on any link, hash, signature or
        re-execution mismatch and on a block with more transactions than the
        genesis cap, and BrokenChain(0) on a genesis whose cap is below 1.
        Every transaction is added to one `_Lanes` at the start, so each
        signature is verified once, by one `Verifier` worker process, kept
        ``_REPLAY_AHEAD`` signatures ahead, or by this process whenever a
        block's verdicts are not back in time.  A block's verdicts are read
        after its header and cap checks and before its transactions run.
        No worker is started for a chain without transactions; if the worker
        dies, ChildProcessError is raised.
        """
        node = cls.__new__(cls)
        try:
            node._init_from_config(config)
        except ValueError as exc:
            raise BrokenChain(0, str(exc)) from exc
        if not blocks:
            raise BrokenChain(0, "chain has no genesis block")
        if blocks[0].encode() != node.blocks[0].encode():
            raise BrokenChain(0, "genesis does not match configuration")
        body = blocks[1:]
        txs = [tx for block in body for tx in block.txs]
        with Verifier() if txs else nullcontext() as verifier:
            lanes = _Lanes(verifier)
            lanes.add(txs)
            for height, block in enumerate(body, start=1):
                node._replay_block(height, block, lanes)
        return node

    def _replay_block(self, height: int, block: Block, lanes: "_Lanes") -> None:
        """Replay one block, taking its signature verdicts from ``lanes``."""
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
        if len(block.txs) > self.config.tx_cap:
            raise BrokenChain(height, f"{len(block.txs)} transactions, past the cap of "
                                      f"{self.config.tx_cap}")
        verdicts = lanes.take(len(block.txs))
        for tx, stored, verified in zip(block.txs, block.receipts, verdicts):
            if not verified:
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


_REPLAY_AHEAD = 64   # most signatures `_Lanes` keeps unanswered at its worker (ROADMAP item 6)


def _signed(tx: Transaction) -> tuple[bytes, bytes, bytes]:
    """What the verifier needs of ``tx``: (verification key, signature,
    signing bytes)."""
    return tx.sender_key, tx.signature, tx.signing_bytes()


def _verify_requests(requests, verdicts, *parent_ends) -> None:
    """Worker body: answer each message of signature triples with one
    verdict byte per triple, until the request pipe closes, as it does once
    the parent is gone, even if killed: the parent's ends are closed here.
    Ctrl-c is left to the parent, and SIGTERM's default, exit, is restored."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for end in parent_ends:
        end.close()
    while True:
        try:
            triples = requests.recv()
        except EOFError:
            return
        verdicts.send_bytes(bytes([verify_signature(*triple) for triple in triples]))


class Verifier:
    """One forked worker process that verifies Ed25519 signatures.

    ``send`` ships one message of (verification key, signature, signing
    bytes) triples to the worker, and ``receive`` returns the worker's
    answer to the oldest message not yet received: one verdict byte per
    triple (1 when the signature verifies), in the order they were sent.
    With ``wait=False`` it returns b"" at once if no answer is back, so a
    caller with other work to do (`_Lanes`, which buffers the verdicts)
    need not block.  The worker is forked on construction, so nothing of
    this module is pickled for it, and it runs the ``verify_signature``
    the module holds then.  Verification holds the interpreter lock, so it
    runs on another CPU while the caller executes.  `_Lanes` keeps at most
    ``_REPLAY_AHEAD`` = 64 signatures unanswered, so neither pipe can fill:
    64 triples are a few KB (13 KB for feed pushes) and 64 verdicts a few
    hundred bytes, while a pipe holds 64 KB on Linux.  ``close``, or
    leaving a ``with`` block, terminates and joins the worker; if it dies,
    ``send`` or ``receive`` raises ChildProcessError.
    """

    def __init__(self):
        import multiprocessing   # here, so that importing the ledger costs no memory for it

        context = multiprocessing.get_context("fork")
        requests_in, self._requests = context.Pipe(duplex=False)
        self._verdicts, verdicts_out = context.Pipe(duplex=False)
        self._worker = context.Process(target=_verify_requests, name="thingchain-verify", args=(
            requests_in, verdicts_out, self._requests, self._verdicts))
        try:
            with requests_in, verdicts_out:   # the worker's ends stay open only in the worker
                self._worker.start()
        except BaseException:
            self._requests.close()
            self._verdicts.close()
            raise

    def send(self, triples: list) -> None:
        try:
            self._requests.send(triples)
        except BrokenPipeError:
            self._worker_exited()

    def receive(self, wait: bool = True) -> bytes:
        if not wait and not self._verdicts.poll():
            return b""
        try:
            return self._verdicts.recv_bytes()
        except EOFError:       # the worker is gone before its last verdict
            self._worker_exited()

    def _worker_exited(self):
        self._worker.join()
        raise ChildProcessError(
            f"signature worker exited early (exit code {self._worker.exitcode})") from None

    def close(self) -> None:
        self._worker.terminate()
        self._requests.close()
        self._verdicts.close()   # a worker that outlives SIGTERM cannot block on a send
        self._worker.join()
        self._worker.close()

    def __enter__(self) -> "Verifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Lanes:
    """Signature verdicts, in submission order, from two lanes, kept in the
    one verdict buffer, into which the worker's answers are filed.

    `add` takes transactions as they arrive: one per `submit` in a batch,
    a whole chain in replay.  Each signature is handed out once, in order:
    sent to the worker of ``verifier``, which every `add` and `take` tops up
    to ``_REPLAY_AHEAD`` unanswered signatures, or verified in this process.
    `take` returns the verdicts of the next ``count`` transactions.  While
    one of them is still with the worker, this process tops the worker up
    and verifies the next signature that nobody has started (work-stealing:
    Blumofe and Leiserson, JACM 1999), and waits only when every signature
    is handed out.
    """

    def __init__(self, verifier: Verifier | None):
        self._verifier = verifier   # None only while nothing is added
        self._txs: list[Transaction] = []
        self._verdicts = bytearray()
        self._handed = 0         # signatures sent to the worker or verified here
        self._taken = 0          # verdicts returned by `take`
        self._at_worker = deque()   # indices sent to the worker and not yet answered

    def add(self, txs) -> None:
        self._txs.extend(txs)
        self._verdicts += bytes(len(txs))
        self._top_up()

    def take(self, count: int) -> bytes:
        start, stop = self._taken, self._taken + count
        while True:
            self._top_up()
            if stop <= self._handed and not (self._at_worker and self._at_worker[0] < stop):
                break
            if self._handed < len(self._txs):
                tx = self._txs[self._handed]
                self._verdicts[self._handed] = verify_signature(*_signed(tx))
                self._handed += 1
            else:
                self._collect(self._verifier.receive())
        self._taken = stop
        return bytes(self._verdicts[start:stop])

    def _top_up(self) -> None:
        """File the verdicts the worker has sent back, then send it the next
        signatures until it has ``_REPLAY_AHEAD`` unanswered, at most a
        quarter of that to a message: the worker answers a message whole, so
        smaller messages bring verdicts back sooner and leave it one to go
        on with while this process reads an answer."""
        while self._at_worker and (verdicts := self._verifier.receive(wait=False)):
            self._collect(verdicts)
        start, per_message = self._handed, _REPLAY_AHEAD // 4
        stop = min(len(self._txs), start + _REPLAY_AHEAD - len(self._at_worker))
        for first in range(start, stop, per_message):
            chunk = self._txs[first:min(stop, first + per_message)]
            self._verifier.send([_signed(tx) for tx in chunk])
        self._at_worker.extend(range(start, stop))
        self._handed = stop

    def _collect(self, verdicts: bytes) -> None:
        """File the worker's ``verdicts``, which come in the order it was
        sent the signatures."""
        for verdict in verdicts:
            self._verdicts[self._at_worker.popleft()] = verdict


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
