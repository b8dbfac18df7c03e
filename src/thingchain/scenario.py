"""Line-oriented scenario scripts, simulated Things and the run driver.

A script is one step per line: a verb followed by key=value pairs.  Values in
argument positions use typed tokens (str:, hex:, int:, milli:, bool:, acct:,
addr:), `@name` references a symbol bound earlier with as=, and `#` starts a
comment.  Runs are fully deterministic given (script, seed).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

from .codec import decode_values, encode_values
from .contracts.actuation import request_outcome
from .contracts.topic import SINK_ADDRESS, SINK_URI
from .errors import ParseError, ResolutionError, StepFailed, ThingChainError
from .gateway.service import Gateway, GatewayConfig, RecordingTransport
from .gateway import wire
from .keys import Signer
from .ledger import Node
from .resolver import resolve
from .runtime import Revert
from .units import format_milli, parse_milli

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def _string_seed(text: str) -> int:
    value = 1469598103934665603
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * 1099511628211) & _LCG_MASK
    return value


_VALUE_PARSERS = {
    "str": str,
    "utf8": lambda body: body.encode("utf-8"),
    "hex": bytes.fromhex,
    "int": int,
    "milli": parse_milli,
    "bool": lambda body: body == "true",
    "acct": lambda seed: Signer.from_seed(seed).account,
    "addr": bytes.fromhex,
}


def parse_value(token: str, account=None, address=None):
    """Parse one typed token, ``kind:body``, into a codec value.

    An acct: body is a seed, or whatever ``account`` maps to an account id;
    an addr: body is hex, or whatever ``address`` maps to an address.  A
    token without a known type, or with a malformed body, raises ValueError.
    """
    kind, sep, body = token.partition(":")
    if not sep:
        raise ValueError(f"untyped value {token!r} (use str:/hex:/int:/milli:/bool:/acct:)")
    if kind == "acct" and account is not None:
        return account(body)
    if kind == "addr" and address is not None:
        return address(body)
    parse = _VALUE_PARSERS.get(kind)
    if parse is None:
        raise ValueError(f"unknown value type {kind!r}")
    return parse(body)


def parse_args_spec(spec: str, account=None, address=None) -> bytes:
    """Encode comma-separated typed tokens as call arguments; "" is none."""
    if not spec:
        return b""
    return encode_values([parse_value(tok, account, address) for tok in spec.split(",")])


def parse_key(token: str, account=None, address=None):
    """``parse_value`` for a storage key or value: a str: token gives its
    UTF-8 bytes."""
    value = parse_value(token, account, address)
    return value.encode() if isinstance(value, str) else value


class SimThing:
    """A simulated sensor/actuator endpoint.

    Measurements follow a seeded pseudo-random walk (same seed, same series);
    received actuations are deduplicated by (height, tx_index).
    """

    def __init__(self, thing_id: str, seed: int, start_milli: int = 21000, unit: str = "C"):
        self.thing_id = thing_id
        self.unit = unit
        self._state = (seed ^ _string_seed(thing_id)) & _LCG_MASK
        self._value = start_milli
        self._tick = 0
        self.actuations: list[tuple] = []
        self._seen: set[tuple[int, int]] = set()

    def _next(self) -> int:
        self._state = (_LCG_MULT * self._state + _LCG_INC) & _LCG_MASK
        return self._state >> 33

    def next_measurement(self) -> tuple[int, str, int]:
        self._value += (self._next() % 2001) - 1000   # walk step in [-1, +1] units
        self._tick += 1
        return self._value, self.unit, self._tick

    def receive(self, height: int, tx_index: int, intra: int, action: str, args: bytes) -> bool:
        key = (height, tx_index)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.actuations.append((height, tx_index, intra, action, args))
        return True


class SimTransport(RecordingTransport):
    """Delivers gateway datagrams into in-process SimThings."""

    def __init__(self, things: dict):
        super().__init__()
        self.things = things

    def deliver_datagram(self, endpoint: str, data: bytes) -> None:
        super().deliver_datagram(endpoint, data)
        msg = wire.decode_message(data)
        thing = self.things.get(endpoint)
        if thing is not None and msg.path.endswith("/event"):
            height, tx_index, intra, action, args, _caller = decode_values(msg.payload)
            thing.receive(height, tx_index, intra, action, args)


@dataclass
class Step:
    index: int
    line_no: int
    verb: str
    kv: dict


def parse_script(text: str) -> list[Step]:
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        # '#' comments only at line start or after whitespace: a bare '#' is
        # also the multi-level topic wildcard inside tokens
        line = raw.strip()
        if line.startswith("#"):
            continue
        cut = line.find(" #")
        if cut >= 0:
            line = line[:cut].strip()
        if not line:
            continue
        tokens = line.split()
        verb = tokens[0]
        kv = {}
        for token in tokens[1:]:
            key, eq, value = token.partition("=")
            if not eq or not key:
                raise ParseError(line_no, f"expected key=value, got {token!r}")
            if key in kv:
                raise ParseError(line_no, f"duplicate key {key!r}")
            kv[key] = value
        steps.append(Step(len(steps), line_no, verb, kv))
    return steps


@dataclass
class StepReport:
    index: int
    line_no: int
    verb: str
    status: str
    detail: str = ""
    receipt_digest: str = ""
    events: int = 0

    def as_dict(self) -> dict:
        return {
            "step": self.index,
            "line": self.line_no,
            "verb": self.verb,
            "status": self.status,
            "detail": self.detail,
            "receipt_digest": self.receipt_digest,
            "events": self.events,
        }


@dataclass
class ScenarioReport:
    seed: int
    steps: list = field(default_factory=list)
    exit_code: int = 0
    failure: str = ""
    final_digest: str = ""
    tx_count: int = 0
    chain_export: str = ""

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "exit_code": self.exit_code,
            "failure": self.failure,
            "final_digest": self.final_digest,
            "tx_count": self.tx_count,
            "chain_export": self.chain_export,
            "steps": [s.as_dict() for s in self.steps],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        for s in self.steps:
            suffix = f"  {s.detail}" if s.detail else ""
            digest = f"  rc={s.receipt_digest}" if s.receipt_digest else ""
            lines.append(f"[{s.status:>6}] step {s.index:<3} {s.verb}{digest}{suffix}")
        if self.failure:
            lines.append(f"FAILED: {self.failure}")
        lines.append(f"transactions: {self.tx_count}")
        lines.append(f"state digest: {self.final_digest}")
        if self.chain_export:
            lines.append(f"chain export: {self.chain_export}")
        return "\n".join(lines)


class ScenarioRunner:
    def __init__(self, seed: int, workdir: str | None = None):
        self.seed = seed
        # a directory the runner creates is removed at the end of run()
        self._tempdir = None if workdir else tempfile.TemporaryDirectory(prefix="thingchain-")
        self.workdir = workdir or self._tempdir.name
        self.node: Node | None = None
        self.accounts: dict[str, Signer] = {}
        self.symbols: dict[str, object] = {}
        self.things: dict[str, SimThing] = {}
        self.requesters: dict[str, str] = {}     # endpoint -> account name
        self.gateway: Gateway | None = None
        self.transport: SimTransport | None = None
        self._genesis: list[tuple[str, int]] = []
        self.last_receipt = None
        self._message_id = 0   # of the last request sent to the gateway

    # ------------------------------------------------------------------
    # value parsing

    def _account(self, name: str) -> Signer:
        signer = self.accounts.get(name)
        if signer is None:
            raise StepFailed(-1, f"unknown account {name!r}")
        return signer

    def _symbol(self, ref: str):
        if not ref.startswith("@"):
            raise StepFailed(-1, f"expected @symbol, got {ref!r}")
        try:
            return self.symbols[ref[1:]]
        except KeyError:
            raise StepFailed(-1, f"unknown symbol {ref!r}") from None

    def _address(self, ref: str) -> bytes:
        if ref.startswith("@"):
            value = self._symbol(ref)
            if not isinstance(value, bytes):
                raise StepFailed(-1, f"symbol {ref!r} is not an address")
            return value
        return bytes.fromhex(ref)

    def _account_id(self, ref: str) -> bytes:
        return self._address(ref) if ref.startswith("@") else self._account(ref).account

    # the token parsers, with @symbols and the run's named accounts
    def _value_token(self, token: str):
        return parse_value(token, self._account_id, self._address)

    def _key_token(self, token: str):
        return parse_key(token, self._account_id, self._address)

    def _args(self, spec: str) -> bytes:
        return parse_args_spec(spec, self._account_id, self._address)

    # ------------------------------------------------------------------

    def _require_node(self) -> Node:
        if self.node is None:
            alloc = {}
            for name, tokens in self._genesis:
                signer = Signer.from_seed(name)
                self.accounts[name] = signer
                alloc[signer.account] = alloc.get(signer.account, 0) + tokens
            self.node = Node(alloc)
            for name, _ in self._genesis:
                self.node.create_account(name)
        return self.node

    def _require_gateway(self) -> Gateway:
        if self.gateway is None:
            node = self._require_node()
            self.transport = SimTransport({})
            config = GatewayConfig(
                master_seed=f"gw/{self.seed}",
                journal_path=os.path.join(self.workdir, "gateway.journal"),
                requesters={ep: name for ep, name in self.requesters.items()},
            )
            self.gateway = Gateway(node, config, transport=self.transport)
        return self.gateway

    def run(self, text: str, export_path: str | None = None) -> ScenarioReport:
        """Run a script once; the gateway and the runner's own workdir are
        released when it returns."""
        try:
            return self._run(text, export_path)
        finally:
            if self.gateway is not None:
                self.gateway.close()
            if self._tempdir is not None:
                self._tempdir.cleanup()

    def _run(self, text: str, export_path: str | None) -> ScenarioReport:
        report = ScenarioReport(seed=self.seed)
        steps = parse_script(text)
        for step in steps:
            try:
                detail, receipt = self._run_step(step)
            except StepFailed as exc:
                reason = exc.reason if exc.index >= 0 else str(exc)
                failure = StepFailed(step.index, reason)
                report.steps.append(StepReport(step.index, step.line_no, step.verb,
                                               "failed", str(failure)))
                report.exit_code = 1
                report.failure = str(failure)
                break
            entry = StepReport(step.index, step.line_no, step.verb, "ok", detail)
            if receipt is not None:
                entry.receipt_digest = receipt.receipt_digest.hex()[:16]
                entry.events = len(receipt.events)
            report.steps.append(entry)
        if self.node is not None:
            self.node.seal_block()
            report.final_digest = self.node.state_digest().hex()
            report.tx_count = sum(len(b.txs) for b in self.node.blocks)
            if export_path:
                self.node.export_chain(export_path)
                report.chain_export = str(export_path)
        return report

    # ------------------------------------------------------------------
    # step dispatch

    def _run_step(self, step: Step):
        handler = getattr(self, "_verb_" + step.verb.replace("-", "_"), None)
        if handler is None:
            raise StepFailed(step.index, f"unknown verb {step.verb!r}")
        if step.verb not in ("account", "requester"):
            self._require_node()    # genesis accounts exist before a step parses its values
        try:
            return handler(step)
        except StepFailed as exc:
            if exc.index < 0:
                raise StepFailed(step.index, exc.reason) from None
            raise
        except (ThingChainError, Revert) as exc:    # a failed call, read, registration or lookup
            raise StepFailed(step.index, f"{type(exc).__name__}: {exc}") from None
        except ValueError as exc:      # a malformed number, token or value in the step
            raise StepFailed(step.index, str(exc)) from None

    @staticmethod
    def _need(step: Step, key: str) -> str:
        try:
            return step.kv[key]
        except KeyError:
            raise StepFailed(step.index, f"missing key {key!r}") from None

    def _bind(self, step: Step, value) -> None:
        name = step.kv.get("as")
        if name:
            self.symbols[name] = value

    def _call(self, step: Step, target_key: str, method: str, args: bytes = b"",
              tokens: int = 0):
        """Call ``method`` on the contract named by ``target_key`` as the
        step's caller=, seal, and check the receipt against expect=."""
        node = self._require_node()
        caller = self._account(self._need(step, "caller"))
        target = self._address(self._need(step, target_key))
        receipt = node.call(caller, target, method, args, tokens)
        node.seal_block()
        self._expect_receipt(step, receipt)
        return receipt

    def _expect_receipt(self, step: Step, receipt) -> None:
        self.last_receipt = receipt
        expected = step.kv.get("expect", "ok")
        if expected == "ok":
            if not receipt.ok:
                raise StepFailed(step.index, f"reverted: {receipt.reason}")
        elif expected.startswith("reverted"):
            _, _, reason = expected.partition(":")
            if receipt.ok:
                raise StepFailed(step.index, "expected revert, got ok")
            if reason and receipt.reason != reason:
                raise StepFailed(step.index,
                                 f"expected revert {reason}, got {receipt.reason}")
        else:
            raise StepFailed(step.index, f"bad expect value {expected!r}")

    # --- plumbing verbs ---------------------------------------------------

    def _verb_account(self, step: Step):
        if self.node is not None:
            raise StepFailed(step.index, "account lines must precede other steps")
        name = self._need(step, "name")
        tokens = int(step.kv.get("tokens", "0"))
        self._genesis.append((name, tokens))
        return f"{name} with {tokens} tokens at genesis", None

    def _verb_seal(self, step: Step):
        block = self._require_node().seal_block()
        return f"sealed block {block.height} ({len(block.txs)} txs)", None

    def _verb_transfer(self, step: Step):
        node = self._require_node()
        sender = self._account(self._need(step, "from"))
        target = self._account_id(step.kv.get("to", ""))
        receipt = node.transfer(sender, target, int(self._need(step, "tokens")))
        node.seal_block()
        self._expect_receipt(step, receipt)
        return "", receipt

    def _verb_deploy(self, step: Step):
        node = self._require_node()
        owner = self._account(self._need(step, "owner"))
        code_id = self._need(step, "code")
        init = self._args(step.kv.get("init", ""))
        tokens = int(step.kv.get("tokens", "0"))
        receipt, address = node.deploy(owner, code_id, init, tokens)
        node.seal_block()
        self._expect_receipt(step, receipt)
        if address is not None:
            self._bind(step, address)
            return f"{code_id} at {address.hex()}", receipt
        return "", receipt

    def _verb_call(self, step: Step):
        receipt = self._call(step, "target", self._need(step, "method"),
                             self._args(step.kv.get("args", "")),
                             int(step.kv.get("tokens", "0")))
        if receipt.ok:
            self._bind(step, receipt.return_value)
        return "", receipt

    def _verb_kill(self, step: Step):
        return "", self._call(step, "target", "kill")

    # --- stdlib sugar -------------------------------------------------------

    def _verb_push(self, step: Step):
        node = self._require_node()
        value = parse_milli(self._need(step, "value"))
        unit = step.kv.get("unit", "C")
        tick = int(step.kv.get("tick", str(node.height + 1)))
        return "", self._call(step, "feed", "push", encode_values([value, unit, tick]))

    def _verb_pushes(self, step: Step):
        """Batch: submit `count` walk measurements, then seal one block."""
        node = self._require_node()
        count = int(self._need(step, "count"))
        thing_id = step.kv.get("thing")
        if thing_id:
            thing = self.things.get(thing_id)
            if thing is None:
                raise StepFailed(step.index, f"unregistered thing {thing_id!r}")
            for _ in range(count):
                reply = self._exchange(wire.PUT, thing_id, "data",
                                       encode_values(thing.next_measurement()))
                if reply.msg_type != wire.MSG_ACK:
                    raise StepFailed(step.index,
                                     f"push rejected: {wire.error_reason(reply)[0]}")
            return f"{count} datagram pushes", None
        caller = self._account(self._need(step, "caller"))
        feed = self._address(self._need(step, "feed"))
        walk = SimThing("walk", (self.seed << 1) ^ int(step.kv.get("walk_seed", "1")),
                        start_milli=parse_milli(step.kv.get("start", "21.0")),
                        unit=step.kv.get("unit", "C"))
        start_tick = int(step.kv.get("start_tick", str(node.height + 1)))
        for i in range(count):
            value, unit, _ = walk.next_measurement()
            receipt = node.call(caller, feed, "push",
                                encode_values([value, unit, start_tick + i]))
            if not receipt.ok:
                raise StepFailed(step.index, f"push {i} reverted: {receipt.reason}")
        block = node.seal_block()
        return f"{count} pushes batched into block {block.height}", None

    def _verb_subscribe(self, step: Step):
        pattern = self._need(step, "pattern")
        sink_spec = self._need(step, "sink")
        kind, _, body = sink_spec.partition(":")
        if kind == "uri":
            sink_kind, sink = SINK_URI, body.encode()
        elif kind == "addr":
            sink_kind, sink = SINK_ADDRESS, self._address(body)
        else:
            raise StepFailed(step.index, f"bad sink {sink_spec!r}")
        receipt = self._call(step, "topic", "subscribe", encode_values([pattern, sink_kind, sink]))
        if not receipt.ok:
            return "", receipt
        sub_id = int.from_bytes(receipt.return_value, "big")
        self._bind(step, sub_id)
        return f"subscription {sub_id}", receipt

    def _verb_unsubscribe(self, step: Step):
        sub = self._symbol(self._need(step, "sub"))
        return "", self._call(step, "topic", "unsubscribe", encode_values([int(sub)]))

    def _verb_publish(self, step: Step):
        path = self._need(step, "path")
        payload = self._key_token(self._need(step, "payload"))
        if not isinstance(payload, bytes):
            raise StepFailed(step.index, "payload must be str: or hex:")
        receipt = self._call(step, "topic", "publish", encode_values([path, payload]))
        if not receipt.ok:
            return "", receipt
        notified = int.from_bytes(receipt.return_value, "big")
        want = step.kv.get("expect_notified")
        if want is not None and notified != int(want):
            raise StepFailed(step.index, f"notified {notified}, expected {want}")
        return f"notified {notified}", receipt

    def _verb_actuate(self, step: Step):
        node = self._require_node()
        caller = self._account(self._need(step, "caller"))
        contract = self._address(self._need(step, "contract"))
        action = self._need(step, "action")
        args = self._args(step.kv.get("args", ""))
        receipt = node.call(caller, contract, "request", encode_values([action, args]))
        node.seal_block()
        self.last_receipt = receipt
        if not receipt.ok:
            raise StepFailed(step.index, f"reverted: {receipt.reason}")
        outcome = request_outcome(receipt.return_value)
        expected = step.kv.get("expect", "granted")
        if outcome != expected:
            raise StepFailed(step.index, f"expected {expected}, got {outcome}")
        return outcome, receipt

    def _verb_escrow_commit(self, step: Step):
        node = self._require_node()
        provider = self._value_token("acct:" + self._need(step, "provider"))
        tokens = int(self._need(step, "tokens"))
        deadline_spec = self._need(step, "deadline")
        if deadline_spec.startswith("+"):
            deadline = node.height + 1 + int(deadline_spec[1:])
        else:
            deadline = int(deadline_spec)
        receipt = self._call(step, "escrow", "commit", encode_values([provider, deadline]), tokens)
        if not receipt.ok:
            return "", receipt
        deal = int.from_bytes(receipt.return_value, "big")
        self._bind(step, deal)
        return f"deal {deal}, deadline height {deadline}", receipt

    def _settle(self, step: Step, method: str):
        deal = self._symbol(self._need(step, "deal"))
        return "", self._call(step, "escrow", method, encode_values([int(deal)]))

    def _verb_escrow_confirm(self, step: Step):
        return self._settle(step, "confirm")

    def _verb_escrow_refund(self, step: Step):
        return self._settle(step, "refund")

    def _verb_resolve(self, step: Step):
        node = self._require_node()
        root = self._address(self._need(step, "root"))
        name = self._need(step, "name")
        expect_error = step.kv.get("expect_error")
        try:
            result = resolve(node, name, root)
        except ResolutionError as exc:
            if expect_error and type(exc).__name__ == expect_error:
                return f"failed as expected: {expect_error}", None
            raise
        if expect_error:
            raise StepFailed(step.index, f"expected {expect_error}, resolution succeeded")
        record = result.record
        want_key = step.kv.get("service_key")
        if want_key is not None and record.service_key != bytes.fromhex(
                want_key.removeprefix("hex:")):
            raise StepFailed(step.index, "service key mismatch")
        want_uri = step.kv.get("uri")
        if want_uri is not None and record.uri != want_uri:
            raise StepFailed(step.index, f"uri {record.uri!r} != {want_uri!r}")
        want_depth = step.kv.get("depth")
        if want_depth is not None and result.depth != int(want_depth):
            raise StepFailed(step.index, f"depth {result.depth} != {want_depth}")
        return f"depth {result.depth}", None

    # --- gateway verbs ------------------------------------------------------

    def _verb_requester(self, step: Step):
        if self.gateway is not None:
            raise StepFailed(step.index, "requester lines must precede gateway use")
        endpoint = self._need(step, "endpoint")
        account = self._need(step, "account")
        self.requesters[endpoint] = account
        # gateway custody uses the same seed string as the named account
        return f"{endpoint} -> {account}", None

    def _verb_register(self, step: Step):
        gateway = self._require_gateway()
        thing_id = self._need(step, "thing")
        endpoint = f"sim:{thing_id}"
        sink = step.kv.get("sink", "")
        reg = gateway.register_thing(thing_id, endpoint=endpoint, sink_uri=sink)
        thing = SimThing(thing_id, self.seed,
                         start_milli=parse_milli(step.kv.get("start", "21.0")),
                         unit=step.kv.get("unit", "C"))
        self.things[thing_id] = thing
        self.transport.things[endpoint] = thing
        name = step.kv.get("as", thing_id)
        self.symbols[f"{name}.feed"] = reg.feed_addr
        self.symbols[f"{name}.act"] = reg.actuation_addr
        self.symbols[f"{name}.account"] = reg.account
        return f"feed {reg.feed_addr.hex()[:12]} actuation {reg.actuation_addr.hex()[:12]}", None

    def _verb_allow_requester(self, step: Step):
        gateway = self._require_gateway()
        gateway.allow_requester(self._need(step, "thing"), self._need(step, "endpoint"))
        return "", None

    def _exchange(self, code: int, thing_id: str, action: str, payload: bytes = b"",
                  source: str = "") -> wire.GatewayMessage:
        """Send ``/things/<thing_id>/<action>`` to the gateway from ``source``
        (the thing's own endpoint by default) and decode the reply.  Each
        request gets a fresh message id, so that two steps never send
        identical bytes, which the gateway would take for a retransmit."""
        self._message_id = (self._message_id + 1) & 0xFFFF
        data = wire.request(code, self._message_id, f"/things/{thing_id}/{action}",
                            payload).encode()
        return wire.decode_message(
            self._require_gateway().handle_datagram(data, source or f"sim:{thing_id}"))

    def _verb_thing_put(self, step: Step):
        thing_id = self._need(step, "thing")
        payload = [parse_milli(self._need(step, "value")), step.kv.get("unit", "C")]
        if "tick" in step.kv:
            payload.append(int(step.kv["tick"]))
        return self._check_reply(step, self._exchange(wire.PUT, thing_id, "data",
                                                      encode_values(payload)))

    def _verb_thing_get(self, step: Step):
        thing_id = self._need(step, "thing")
        what = step.kv.get("what", "last")
        reply = self._exchange(wire.GET, thing_id, "last" if what == "last" else (
            f"stats?from={step.kv.get('from', '0')}&to={step.kv.get('to', str(2**62))}"))
        detail, receipt = self._check_reply(step, reply)
        if reply.msg_type == wire.MSG_ACK and what == "last" and "value" in step.kv:
            got = decode_values(reply.payload)[0]
            want = parse_milli(step.kv["value"])
            if got != want:
                raise StepFailed(step.index,
                                 f"last={format_milli(got)}, expected {step.kv['value']}")
            detail = f"last={format_milli(got)}"
        return detail, receipt

    def _verb_thing_post(self, step: Step):
        thing_id = self._need(step, "thing")
        endpoint = self._need(step, "from")
        payload = encode_values([self._need(step, "action"),
                                 self._args(step.kv.get("args", ""))])
        return self._check_reply(step, self._exchange(wire.POST, thing_id, "actuate",
                                                      payload, endpoint))

    def _check_reply(self, step: Step, reply: wire.GatewayMessage):
        expected = step.kv.get("expect", "ok")
        if expected == "ok":
            if reply.msg_type != wire.MSG_ACK:
                reason, detail = wire.error_reason(reply)
                raise StepFailed(step.index, f"gateway error {reason}: {detail}")
            return "ack", None
        if expected.startswith("error"):
            _, _, reason = expected.partition(":")
            if reply.msg_type != wire.MSG_ERROR:
                raise StepFailed(step.index, "expected an error reply")
            got_reason, _ = wire.error_reason(reply)
            if reason and got_reason != reason:
                raise StepFailed(step.index, f"expected {reason}, got {got_reason}")
            return f"error {got_reason} as expected", None
        raise StepFailed(step.index, f"bad expect value {expected!r}")

    def _verb_watch(self, step: Step):
        gateway = self._require_gateway()
        delivered = gateway.poll_events()
        want = step.kv.get("expect_deliveries")
        if want is not None and delivered != int(want):
            raise StepFailed(step.index, f"delivered {delivered}, expected {want}")
        return f"delivered {delivered}", None

    # --- assertions -----------------------------------------------------

    def _verb_assert(self, step: Step):
        node = self._require_node()
        kind = self._need(step, "kind")
        if kind == "balance":
            account = self._value_token("acct:" + self._need(step, "account"))
            got = node.balance(account)
            want = int(self._need(step, "value"))
            if got != want:
                raise StepFailed(step.index, f"balance {got} != {want}")
            return f"balance {got}", None
        if kind == "supply":
            got = node.total_supply()
            want = int(self._need(step, "value"))
            if got != want:
                raise StepFailed(step.index, f"supply {got} != {want}")
            return f"supply {got}", None
        if kind == "read":
            target = self._address(self._need(step, "target"))
            key = self._key_token(self._need(step, "key"))
            got = node.read_state(target, key)
            if step.kv.get("absent") == "true":
                if got is not None:
                    raise StepFailed(step.index, "expected absent key")
                return "absent", None
            want = self._key_token(self._need(step, "value"))
            if got != want:
                raise StepFailed(step.index, f"read {got!r} != {want!r}")
            return "value matches", None
        if kind == "last":
            feed = self._address(self._need(step, "feed"))
            value, unit, tick = decode_values(node.static(feed, "last", []))
            want = parse_milli(self._need(step, "value"))
            if value != want:
                raise StepFailed(step.index,
                                 f"last {format_milli(value)} != {step.kv['value']}")
            return f"last {format_milli(value)} {unit} @tick {tick}", None
        if kind == "stats":
            feed = self._address(self._need(step, "feed"))
            lo = int(step.kv.get("from", "0"))
            hi = int(step.kv.get("to", str(2**62)))
            vmin, vmax, avg, count = decode_values(node.static(feed, "stats", [lo, hi]))
            for name, got in (("min", vmin), ("max", vmax), ("avg", avg)):
                if name in step.kv and parse_milli(step.kv[name]) != got:
                    raise StepFailed(step.index,
                                     f"{name} {format_milli(got)} != {step.kv[name]}")
            if "count" in step.kv and count != int(step.kv["count"]):
                raise StepFailed(step.index, f"count {count} != {step.kv['count']}")
            return (f"min {format_milli(vmin)} max {format_milli(vmax)} "
                    f"avg {format_milli(avg)} count {count}"), None
        if kind == "history":
            target = self._address(self._need(step, "target"))
            key = self._key_token(self._need(step, "key"))
            entries = node.history(target, key)
            want = int(self._need(step, "count"))
            if len(entries) != want:
                raise StepFailed(step.index, f"history length {len(entries)} != {want}")
            return f"{len(entries)} entries", None
        if kind == "killed":
            target = self._address(self._need(step, "target"))
            got = node.contract_info(target).killed
            want = step.kv.get("value", "true") == "true"
            if got != want:
                raise StepFailed(step.index, f"killed={got}, expected {want}")
            return f"killed={got}", None
        if kind == "actuations":
            thing = self.things.get(self._need(step, "thing"))
            if thing is None:
                raise StepFailed(step.index, "unregistered thing")
            want = int(self._need(step, "count"))
            if len(thing.actuations) != want:
                raise StepFailed(step.index,
                                 f"{len(thing.actuations)} actuations != {want}")
            return f"{len(thing.actuations)} actuations", None
        raise StepFailed(step.index, f"unknown assert kind {kind!r}")


def run_scenario(script_path, seed: int = 1, export_path=None) -> ScenarioReport:
    """Execute a scenario file; ParseError raises, step failures are reported."""
    with open(script_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return run_scenario_text(text, seed=seed, export_path=export_path)


def run_scenario_text(text: str, seed: int = 1, export_path=None,
                      workdir: str | None = None) -> ScenarioReport:
    runner = ScenarioRunner(seed=seed, workdir=workdir)
    return runner.run(text, export_path=export_path)
