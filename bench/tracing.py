"""Per-layer tracing of thingchain, done from outside the program.

Each layer is timed by wrapping its public functions in the benchmark
process.  A wrapped name is replaced in every ``thingchain`` module that holds
it (``thingchain.ledger.verify_signature`` as well as
``thingchain.keys.verify_signature``), so no call path escapes the wrapper.

A span records (span id, parent span id, op id, phase, name, start, end,
annotation).  Spans of one op share the op id of their root span.  Spans are
kept in memory and written once, by ``Tracer.write``, when the run ends.
Counters record work done inside a span without timing it (sha-256 calls,
samples a ``feed.stats`` scanned, keys a ``storage_keys`` listing examined).

Nothing is recorded while ``Tracer.phase`` is None or on a thread that called
``Tracer.mute`` (the load generator's own use of the codec and the wire
format is not the gateway's work).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

# span name -> (module, owner inside the module or "", attribute)
SPANS = {
    "codec.encode_values": ("thingchain.codec", "", "encode_values"),
    "codec.decode_values": ("thingchain.codec", "", "decode_values"),
    "keys.sign": ("thingchain.keys", "Signer", "sign"),
    "keys.from_seed": ("thingchain.keys", "Signer", "from_seed"),
    "keys.verify": ("thingchain.keys", "", "verify_signature"),
    "chain.block_seal": ("thingchain.chain", "Block", "seal"),
    "chain.load_chain": ("thingchain.chain", "", "load_chain"),
    "chain.dump_chain": ("thingchain.chain", "", "dump_chain"),
    "state.state_digest": ("thingchain.state", "WorldState", "state_digest"),
    "state.storage_keys": ("thingchain.state", "WorldState", "storage_keys"),
    "runtime.execute_transaction": ("thingchain.runtime", "", "execute_transaction"),
    "runtime.static_call": ("thingchain.runtime", "", "static_call"),
    "contracts.feed.stats": ("thingchain.contracts.feed", "FeedContract", "stats"),
    "contracts.topic.publish": ("thingchain.contracts.topic", "TopicContract", "publish"),
    "ledger.submit": ("thingchain.ledger", "Node", "submit"),
    "ledger.seal_block": ("thingchain.ledger", "Node", "seal_block"),
    "ledger.from_chain": ("thingchain.ledger", "Node", "from_chain"),
    "resolver.resolve": ("thingchain.resolver", "", "resolve"),
    "gateway.wire.decode_message": ("thingchain.gateway.wire", "", "decode_message"),
    "gateway.wire.encode": ("thingchain.gateway.wire", "GatewayMessage", "encode"),
    "gateway.handle_datagram": ("thingchain.gateway.service", "Gateway", "handle_datagram"),
    "gateway.poll_events": ("thingchain.gateway.service", "Gateway", "poll_events"),
    "gateway.journal.append": ("thingchain.gateway.journal", "Journal", "append"),
}

# counter name -> (module, owner, attribute, enclosing span or None)
COUNTERS = {
    "keys.digest": ("thingchain.keys", "", "digest", None),
    "chain.tx_encode": ("thingchain.chain", "Transaction", "encode", None),
    "contracts.feed.scanned": ("thingchain.contracts.feed", "", "decode_measurement",
                               "contracts.feed.stats"),
    "state.storage_keys.examined": ("thingchain.state", "LayeredMap", "keys",
                                    "state.storage_keys"),
}


def _counted(name, result) -> int:
    return len(result) if name == "state.storage_keys.examined" else 1


def _import_all() -> None:
    import thingchain

    for info in pkgutil.walk_packages(thingchain.__path__, "thingchain."):
        importlib.import_module(info.name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.phase: str | None = None
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        from thingchain.codec import decode_values
        from thingchain.gateway.wire import peek_message_id

        self._decode_values = decode_values      # unwrapped, for annotations
        self._peek_message_id = peek_message_id

    def _annotate(self, name, args, result) -> int:
        """The integer a span carries besides its times."""
        if name == "chain.block_seal":
            return len(result.txs)
        if name == "state.storage_keys":
            return len(result)
        if name == "contracts.feed.stats":
            return self._decode_values(result)[3]       # samples in the window
        if name == "gateway.handle_datagram":
            return self._peek_message_id(args[1])
        if name == "gateway.poll_events":
            return len(args[0].node.blocks) - 1       # it walks every block from 1
        return 0

    # --- recording ---------------------------------------------------------

    def mute(self, muted: bool) -> None:
        """Record nothing on the calling thread while muted."""
        self._local.muted = muted

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _active(self) -> bool:
        return self.phase is not None and not getattr(self._local, "muted", False)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        if not self._active():
            return fn(*args, **kwargs)
        phase = self.phase
        stack = self._stack()
        span_id = next(self._span_ids)
        parent, op = (stack[-1][0], stack[-1][1]) if stack else (0, next(self._op_ids))
        stack.append((span_id, op, name))
        start = perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter_ns()
            stack.pop()
            note = self._annotate(name, args, result) if result is not None else 0
            self.spans.append((span_id, parent, op, phase, name, start, end, note))

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _counter_wrapper(self, name: str, fn, within: str | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._active():
                stack = self._stack()
                if within is None or (stack and stack[-1][2] == within):
                    self.counts[(self.phase, name)] += _counted(name, result)
            return result
        return wrapper

    # --- installing the wrappers -------------------------------------------

    def install(self) -> None:
        _import_all()
        for name, (module, owner, attr) in SPANS.items():
            self._patch(module, owner, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, (module, owner, attr, within) in COUNTERS.items():
            self._patch(module, owner, attr,
                        lambda fn, n=name, w=within: self._counter_wrapper(n, fn, w))

    def _patch(self, module: str, owner: str, attr: str, make) -> None:
        mod = sys.modules[module]
        if owner:
            cls = getattr(mod, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(make(raw.__func__)))
            else:
                setattr(cls, attr, make(raw))
            return
        original = getattr(mod, attr)
        replacement = make(original)
        for name, other in list(sys.modules.items()):
            if (name == "thingchain" or name.startswith("thingchain.")) and \
                    getattr(other, attr, None) is original:
                setattr(other, attr, replacement)

    # --- output --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,op_id,phase,name,start_ns,end_ns,note\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

    def layer_totals(self) -> dict[tuple[str, str], list]:
        """(phase, span name) -> [calls, self ns, summed annotations]."""
        covered: dict[int, int] = defaultdict(int)
        for _, parent, _, _, _, start, end, _ in self.spans:
            if parent:
                covered[parent] += end - start
        totals: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0, 0])
        for span_id, _, _, phase, name, start, end, note in self.spans:
            entry = totals[(phase, name)]
            entry[0] += 1
            entry[1] += end - start - covered[span_id]
            entry[2] += note
        return totals

    def entry_times(self, phase: str) -> list[tuple[int, int]]:
        """(message id, start ns) of each handle_datagram span, in order."""
        return sorted((start, note) for _, _, _, p, name, start, _, note in self.spans
                      if p == phase and name == "gateway.handle_datagram")


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, *, ops: int, puts: int, datagrams: int,
                  replayed_txs: int, digests: int, queue_waits_ms: list[float]) -> dict:
    """The per-layer metrics of one traced run.

    Load-phase figures are per timed op, replay-phase figures per replayed
    transaction and the digest figure per digest call.
    """
    totals = tracer.layer_totals()

    def calls(phase, name):
        return totals[(phase, name)][0] if (phase, name) in totals else 0

    def self_ms(phase, name):
        return totals[(phase, name)][1] / 1e6 if (phase, name) in totals else 0.0

    def note(phase, name):
        return totals[(phase, name)][2] if (phase, name) in totals else 0

    def count(phase, name):
        return tracer.counts.get((phase, name), 0)

    out = {}

    def per_op(name, unit_calls="call/op", unit_ms="ms/op", with_calls=True):
        if with_calls:
            out[f"{name}.calls"] = (_ratio(calls("load", name), ops), unit_calls)
        out[f"{name}.self_ms"] = (_ratio(self_ms("load", name), ops), unit_ms)

    for name in ("codec.encode_values", "codec.decode_values", "keys.sign", "keys.verify",
                 "chain.block_seal", "state.storage_keys", "runtime.execute_transaction",
                 "runtime.static_call", "ledger.submit", "ledger.seal_block",
                 "resolver.resolve", "gateway.handle_datagram", "gateway.poll_events",
                 "gateway.journal.append"):
        per_op(name)
    for name in ("contracts.feed.stats", "contracts.topic.publish",
                 "gateway.wire.decode_message", "gateway.wire.encode"):
        per_op(name, with_calls=False)

    out["keys.from_seed_per_put"] = (_ratio(calls("load", "keys.from_seed"), puts), "call/put")
    out["chain.txs_per_block"] = (
        _ratio(note("load", "chain.block_seal"), calls("load", "chain.block_seal")), "tx/block")
    out["state.storage_keys.examined_per_returned"] = (
        _ratio(count("load", "state.storage_keys.examined"), note("load", "state.storage_keys")),
        "key/key")
    out["contracts.feed.stats.scanned_per_counted"] = (
        _ratio(count("load", "contracts.feed.scanned"), note("load", "contracts.feed.stats")),
        "sample/sample")
    out["ledger.seals_per_datagram"] = (
        _ratio(calls("load", "ledger.seal_block"), datagrams), "seal/datagram")
    out["gateway.queue_wait_ms"] = (
        statistics.median(queue_waits_ms) if queue_waits_ms else 0.0, "ms")
    out["gateway.poll_events.blocks_scanned_per_call"] = (
        _ratio(note("load", "gateway.poll_events"), calls("load", "gateway.poll_events")),
        "block/call")
    out["gateway.journal.appends_per_op"] = (
        _ratio(calls("load", "gateway.journal.append"), ops), "call/op")

    out["keys.verify_per_replayed_tx"] = (
        _ratio(calls("replay", "keys.verify"), replayed_txs), "call/tx")
    out["keys.digest.calls"] = (_ratio(count("replay", "keys.digest"), replayed_txs), "call/tx")
    out["chain.tx_encode_per_tx"] = (
        _ratio(count("replay", "chain.tx_encode"), replayed_txs), "call/tx")
    for name in ("chain.load_chain", "chain.dump_chain", "ledger.from_chain"):
        out[f"{name}.self_ms"] = (_ratio(self_ms("replay", name), replayed_txs), "ms/tx")

    out["state.state_digest.self_ms"] = (
        _ratio(self_ms("digest", "state.state_digest"), digests), "ms/call")
    return out
