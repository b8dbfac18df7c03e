"""Contract runtime: deploys, addresses, dispatches and kills contracts.

Contract "code" is a registry of native deterministic behaviors keyed by
code id; the id is recorded in the deploy transaction and on the instance, so
anyone can see which behavior an address runs.  Behaviors are pure functions
of (state, call, height): no clock, no randomness, no I/O.
"""

from __future__ import annotations

from .chain import Event, Receipt, STATUS_OK, STATUS_REVERTED, Transaction
from .codec import decode_values, enc_u64, encode_values
from .errors import StaticCallError, UnknownContract
from .keys import DIGEST_SIZE, digest
from .state import ContractMeta, WorldState

MAX_CALL_DEPTH = 8

# reason codes shared across behaviors
NOT_OWNER = "NotOwner"
NOT_AUTHORIZED = "NotAuthorized"
METHOD_NOT_FOUND = "MethodNotFound"
CONTRACT_KILLED = "ContractKilled"
ALREADY_KILLED = "AlreadyKilled"
UNKNOWN_CODE = "UnknownCode"
UNKNOWN_CONTRACT = "UnknownContract"
REENTRANCY_LIMIT = "ReentrancyLimit"
BAD_ARGS = "BadArgs"
INSUFFICIENT_TOKENS = "InsufficientTokens"


class Revert(Exception):
    """Abort the current call; the runtime rolls back every effect."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


def contract_address(deployer: bytes, nonce: int) -> bytes:
    """Address of the contract created by (deployer, nonce-at-deploy)."""
    return digest(b"contract:" + deployer + enc_u64(nonce))


# --- declared argument types: each checks one decoded value and returns it --


def _type(name: str, test):
    def check(value):
        if not test(value):
            raise Revert(BAD_ARGS, f"expected {name}")
        return value

    check.__name__ = name
    return check


i64 = _type("i64", lambda v: type(v) is int)     # unlike isinstance, rejects bools
u64 = _type("u64", lambda v: type(v) is int and v >= 0)
str_ = _type("str", lambda v: type(v) is str)
bytes_ = _type("bytes", lambda v: type(v) is bytes)
account = _type("account", lambda v: type(v) is bytes and len(v) == DIGEST_SIZE)


def checked(types: tuple, args: list) -> list:
    """The values at the declared positions, checked in order; values past
    the declaration are ignored."""
    values = [kind(value) for kind, value in zip(types, args)]
    if len(values) < len(types):
        raise Revert(BAD_ARGS, f"missing value at position {len(values)}")
    return values


def only_owner(ctx) -> None:
    """Guard: the caller must be the contract's owner."""
    if ctx.caller != ctx.owner:
        raise Revert(NOT_OWNER)


class Export:
    """A method's declaration: its argument types and an optional guard,
    a callable that reverts unless ``ctx`` may call the method."""

    def __init__(self, *types, guard=None):
        self.types, self.guard = types, guard


class Behavior:
    """Base class for registered contract behaviors.

    Subclasses set `code_id`, map each callable method name to its `Export`
    in `exports`, and implement it as `def name(self, ctx, *values)`.  `init`
    runs once at deployment, with the values `init_types` declares or, when
    the deployment passes no arguments, with none.
    """

    code_id = ""
    exports: dict = {}
    init_types: tuple = ()

    def init(self, ctx, *values) -> None:
        pass

    def dispatch(self, ctx, method: str, args: list) -> bytes | None:
        export = self.exports.get(method)
        if export is None:
            raise Revert(METHOD_NOT_FOUND, method)
        if export.guard is not None:
            export.guard(ctx)
        # looked up per call, so a method patched on the class takes effect
        return getattr(self, method)(ctx, *checked(export.types, args))


class Registry:
    """Static table of behaviors, fixed at process start."""

    def __init__(self, behaviors=()):
        self._by_id: dict[str, Behavior] = {}
        for behavior in behaviors:
            self.add(behavior)

    def add(self, behavior: Behavior) -> None:
        if not behavior.code_id:
            raise ValueError("behavior has no code_id")
        if behavior.code_id in self._by_id:
            raise ValueError(f"duplicate code_id {behavior.code_id!r}")
        self._by_id[behavior.code_id] = behavior

    def get(self, code_id: str) -> Behavior | None:
        return self._by_id.get(code_id)


class Members:
    """An owner-managed set of accounts, stored as ``<prefix><account>`` keys.

    The owner is always a member without being listed.  The set is the
    guard of a members-only method; a behavior exports `allow` and `revoke`
    directly, declared ``Export(account, guard=only_owner)``.
    """

    def __init__(self, prefix: bytes, unknown_reason: str):
        self.prefix = prefix
        self.unknown_reason = unknown_reason

    def contains(self, ctx, member: bytes) -> bool:
        return member == ctx.owner or ctx.get(self.prefix + member) is not None

    def __call__(self, ctx) -> None:
        """Guard: the caller must be a member."""
        if not self.contains(ctx, ctx.caller):
            raise Revert(NOT_AUTHORIZED, f"caller is not listed under {self.prefix!r}")

    def allow(self, ctx, member: bytes):
        ctx.set(self.prefix + member, b"\x01")

    def revoke(self, ctx, member: bytes):
        ctx.remove(self.prefix + member, self.unknown_reason)


class CallContext:
    """Execution context handed to behavior methods.

    The caller identity comes from the enclosing transaction's signature, never
    from the arguments.  All storage written here is readable by anyone via
    read_state, so behaviors cannot hold secrets.
    """

    def __init__(self, executor, address: bytes, caller: bytes, tokens: int, depth: int,
                 static: bool = False):
        self._executor = executor
        self.address = address
        self.caller = caller
        self.tokens = tokens
        self.depth = depth
        self.static = static

    # --- chain environment ----------------------------------------------

    @property
    def height(self) -> int:
        return self._executor.height

    @property
    def owner(self) -> bytes:
        return self._executor.world.contract(self.address).owner

    # --- storage ----------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        return self._executor.world.get_storage(self.address, key)

    def set(self, key: bytes, value: bytes) -> None:
        self._write_guard()
        self._executor.world.set_storage(self.address, key, value)
        self._executor.record_write(self.address, key, value)

    def delete(self, key: bytes) -> None:
        self._write_guard()
        self._executor.world.delete_storage(self.address, key)
        self._executor.record_write(self.address, key, None)

    def keys(self, prefix: bytes = b"") -> list[bytes]:
        return self._executor.world.storage_keys(self.address, prefix)

    def require(self, key: bytes, reason: str, detail: str = "") -> bytes:
        """The value at key; reverts with reason when it is absent."""
        value = self.get(key)
        if value is None:
            raise Revert(reason, detail)
        return value

    def remove(self, key: bytes, reason: str, detail: str = "") -> None:
        """Delete key; reverts with reason when it is absent."""
        self.require(key, reason, detail)
        self.delete(key)

    def counter(self, seq_key: bytes) -> int:
        """The u64 counter at seq_key; 0 before the first append."""
        return int.from_bytes(self.get(seq_key) or b"", "big")

    def append(self, seq_key: bytes, prefix: bytes, value: bytes) -> int:
        """Store value at prefix + u64(n), n being the counter at seq_key;
        advance the counter and return n."""
        n = self.counter(seq_key)
        self.set(prefix + enc_u64(n), value)
        self.set(seq_key, enc_u64(n + 1))
        return n

    # --- tokens and events --------------------------------------------------

    def transfer_out(self, to_account: bytes, amount: int) -> None:
        """Move tokens from this contract's balance to an account."""
        self._write_guard()
        meta = self._executor.world.contract(self.address)
        if amount < 0 or meta.balance < amount:
            raise Revert(INSUFFICIENT_TOKENS, "contract balance too low")
        self._executor.world.update_contract(self.address, balance=meta.balance - amount)
        self._executor.world.credit(to_account, amount)

    def emit(self, name: str, payload: bytes = b"") -> None:
        self._write_guard()
        self._executor.record_event(self.address, name, payload)

    def call(self, address: bytes, method: str, args: list) -> bytes:
        """Synchronous call into another contract; reverts propagate.  It
        carries no tokens: they leave a contract only by transfer_out or
        kill."""
        self._write_guard()
        if self.depth + 1 > MAX_CALL_DEPTH:
            raise Revert(REENTRANCY_LIMIT, f"call depth over {MAX_CALL_DEPTH}")
        return self._executor.run_call(
            address, caller=self.address, method=method,
            args=encode_values(args), tokens=0, depth=self.depth + 1,
        )

    def _write_guard(self) -> None:
        if self.static:
            raise StaticCallError("read-only call attempted a state effect")


class Executor:
    """Executes one transaction (or one read-only call) against world state."""

    def __init__(self, world: WorldState, registry: Registry, height: int):
        self.world = world
        self.registry = registry
        self.height = height
        self.events: list[tuple[bytes, str, bytes]] = []
        self.writes: list[tuple[bytes, bytes, bytes | None]] = []
        self.static = False

    def record_event(self, source: bytes, name: str, payload: bytes) -> None:
        self.events.append((source, name, payload))

    def record_write(self, address: bytes, key: bytes, value: bytes | None) -> None:
        self.writes.append((address, key, value))

    # --- entry points -----------------------------------------------------

    def run_deploy(self, deployer: bytes, nonce: int, code_id: str, init_args: bytes,
                   tokens: int) -> bytes:
        behavior = self.registry.get(code_id)
        if behavior is None:
            raise Revert(UNKNOWN_CODE, code_id)
        address = contract_address(deployer, nonce)
        if self.world.contract(address) is not None:
            raise Revert("AddressCollision", address.hex())
        self.world.set_contract(address, ContractMeta(code_id, deployer, tokens, False))
        ctx = CallContext(self, address, deployer, tokens, depth=1)
        try:
            args = decode_values(init_args) if init_args else []
        except Exception as exc:
            raise Revert(BAD_ARGS, f"undecodable init args: {exc}") from exc
        behavior.init(ctx, *(checked(behavior.init_types, args) if args else ()))
        return address

    def run_call(self, address: bytes, caller: bytes, method: str, args: bytes,
                 tokens: int, depth: int = 1) -> bytes:
        meta = self.world.contract(address)
        if meta is None:
            raise Revert(UNKNOWN_CONTRACT, address.hex())
        if method == "kill":
            if self.static:
                raise StaticCallError("kill is not available in a read-only call")
            return self._run_kill(address, caller)
        if meta.killed:
            raise Revert(CONTRACT_KILLED)
        behavior = self.registry.get(meta.code_id)
        if behavior is None:
            raise Revert(UNKNOWN_CODE, meta.code_id)
        if tokens and not self.static:
            self.world.update_contract(address, balance=meta.balance + tokens)
        ctx = CallContext(self, address, caller, tokens, depth, static=self.static)
        try:
            decoded = decode_values(args) if args else []
        except Exception as exc:
            raise Revert(BAD_ARGS, f"undecodable args: {exc}") from exc
        result = behavior.dispatch(ctx, method, decoded)
        return result if result is not None else b""

    def _run_kill(self, address: bytes, caller: bytes) -> bytes:
        meta = self.world.contract(address)
        if caller != meta.owner:
            raise Revert(NOT_OWNER)
        if meta.killed:
            raise Revert(ALREADY_KILLED)
        # full balance moves to the owner; code and data stay readable forever
        self.world.update_contract(address, balance=0, killed=True)
        self.world.credit(meta.owner, meta.balance)
        self.record_event(address, "Killed", enc_u64(meta.balance))
        return enc_u64(meta.balance)


def execute_transaction(world: WorldState, registry: Registry, tx: Transaction,
                        height: int, tx_index: int) -> tuple[Receipt, list]:
    """Run a validated transaction; returns (receipt, committed storage writes).

    The nonce bump happens before the call and survives a revert, so every
    submitted transaction stays attributable on-chain exactly once.  Any
    other exception is a program fault, not a transaction outcome: the world
    is left as it was found, nonce included, and the exception re-raised, so
    the transaction is not staged.  (A reverted receipt would write Python's
    exception behavior into consensus.)
    """
    sender = tx.sender
    world.push_layer()
    world.nonces.set(sender, world.nonce(sender) + 1)
    executor = Executor(world, registry, height)
    try:
        if tx.target is None:
            if tx.tokens:
                world.debit(sender, tx.tokens)
            address = executor.run_deploy(sender, tx.nonce, tx.method, tx.args, tx.tokens)
            return_value = address
        elif world.contract(tx.target) is not None:
            if tx.tokens:
                world.debit(sender, tx.tokens)
            return_value = executor.run_call(
                tx.target, caller=sender, method=tx.method, args=tx.args, tokens=tx.tokens,
            )
        elif tx.method == "":
            # plain token transfer to an account address
            world.debit(sender, tx.tokens)
            world.credit(tx.target, tx.tokens)
            return_value = b""
        else:
            raise Revert(UNKNOWN_CONTRACT, tx.target.hex())
    except Revert as exc:
        world.pop_layer(merge=False)
        # re-apply the nonce bump at the enclosing (block) layer
        world.nonces.set(sender, world.nonce(sender) + 1)
        return Receipt(STATUS_REVERTED, exc.reason), []
    except BaseException:
        world.pop_layer(merge=False)
        raise
    world.pop_layer(merge=True)
    events = tuple(
        Event(source, name, payload, height, tx_index)
        for source, name, payload in executor.events
    )
    return Receipt(STATUS_OK, "", return_value, events), executor.writes


def static_call(world: WorldState, registry: Registry, address: bytes, method: str,
                args: list, height: int, caller: bytes = b"\x00" * 32) -> bytes:
    """Execute a method read-only against committed ("sealed") state.

    This is the offline-execution path: any write, event, token move or kill
    raises StaticCallError, and pending-block state is never visible.
    """
    view = world.committed_view()
    meta = view.contract(address)
    if meta is None:
        raise UnknownContract(address.hex())
    executor = Executor(view, registry, height)
    executor.static = True
    return executor.run_call(address, caller, method, encode_values(args), tokens=0)
