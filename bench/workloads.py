"""The two workloads.

Each workload runs whole rounds until the run has taken the requested
seconds.  A round builds a fresh starting state (timed as set-up) and runs a
fixed amount of closed-loop work on it (timed op by op).  After each round's
load the workload times the state digest after a few small sealed blocks and
times ``replay()`` of the chain the round built.  Resident memory is read
after the first round's load, before any replay.
Every output the program gave is checked.

All inputs come from the workload seed through ``random.Random``; the
program only ever sees the generated values.  The gateway's master seed and
the stakeholders' account seeds are fixed strings.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

from thingchain import Node, Signer, replay
from thingchain import resolver
from thingchain.codec import enc_u64, encode_values
from thingchain.contracts.topic import SINK_URI
from thingchain.gateway import Gateway, GatewayConfig, RecordingTransport, wire

import checks
from checks import FULL_WINDOW, expect

MASTER_SEED = "bench-master"
GENESIS_TOKENS = 1_000_000
THROWAWAY_SETUPS = 1         # set-ups per round timed but not used, for more
                             # setup_s samples at little cost
WINDOW_OPS = 500             # ops per window; ops_per_s and op_p50_ms are taken per window
DIGEST_BLOCKS = 2            # digest samples per round
DIGEST_WRITES = 3            # feed pushes, each to a different probe feed, per block
PROBE_FEEDS = 4
UNIT = "C"
REPLY_TIMEOUT_S = 10.0
DELIVERY_TIMEOUT_S = 20.0


@dataclass(frozen=True)
class Sizes:
    gateway_things: int = 32       # one request in flight per Thing
    ingest_round_ops: int = 6000   # datagrams per gateway_ingest round
    actuating_things: int = 8      # Things with an authorised requester
    city_things: int = 160         # city_state: Things onboarded per round
    districts: int = 8
    topics: int = 3
    subscriptions: int = 50        # per topic
    city_pushes: int = 24          # feed pushes per onboarded Thing


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    setup_s: list = field(default_factory=list)
    latencies_ns: list = field(default_factory=list)
    window_ops_per_s: list = field(default_factory=list)
    window_p50_ms: list = field(default_factory=list)
    load_s: float = 0.0
    rss_mb: float = 0.0
    digest_ns: list = field(default_factory=list)
    replay_rates: list = field(default_factory=list)    # tx/s, one per round
    replay_digest: bytes = b""
    puts: int = 0
    datagrams: int = 0
    replayed_txs: int = 0
    queue_waits_ms: list = field(default_factory=list)


def rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmRSS in /proc/self/status")


def stakeholders(*names: str):
    """Signers for fixed account seeds and a genesis allocation for each."""
    signers = {name: Signer.from_seed(f"bench/{name}") for name in names}
    return signers, {s.account: GENESIS_TOKENS for s in signers.values()}


def new_node(signers: dict, alloc: dict) -> Node:
    node = Node(alloc)
    for name in signers:
        node.create_account(f"bench/{name}")
    return node


def deploy_probes(node: Node, auditor: Signer) -> list[bytes]:
    probes = []
    for _ in range(PROBE_FEEDS):
        receipt, address = node.deploy(auditor, "feed")
        checks.check_receipt(receipt)
        probes.append(address)
    node.seal_block()
    return probes


def add_windows(result: Result, start_ns: int, ends: list[int], latencies: list[int]) -> None:
    """Split one round's ops, in the order they completed, into windows of
    WINDOW_OPS ops; record each full window's rate and median latency."""
    previous = start_ns
    for i in range(WINDOW_OPS, len(ends) + 1, WINDOW_OPS):
        result.window_ops_per_s.append(WINDOW_OPS / ((ends[i - 1] - previous) / 1e9))
        result.window_p50_ms.append(statistics.median(latencies[i - WINDOW_OPS:i]) / 1e6)
        previous = ends[i - 1]


def audit_round(node: Node, auditor: Signer, probes: list[bytes], rng: random.Random,
                result: Result, tracer) -> None:
    """After a round's load: time state_digest() after each of a few small
    sealed blocks, then time replay() of the round's own export.

    Each round adds its samples, so digest_ms and replay_tx_per_s come
    from samples spread across the whole run, not from a few seconds at
    its end.  A traced run traces the first
    round's digests, export and replay.
    """
    first = not result.replay_rates
    current = None
    digests = set()
    for _ in range(DIGEST_BLOCKS):
        for probe in rng.sample(probes, DIGEST_WRITES):
            tick = node.height + 1
            checks.check_receipt(node.call(auditor, probe, "push",
                                           encode_values([rng.randrange(10**6), UNIT, tick])))
        node.seal_block()
        gc.collect()          # time the digest's own allocations, not earlier garbage
        if tracer and first:
            tracer.phase = "digest"
        start = perf_counter_ns()
        current = node.state_digest()
        result.digest_ns.append(perf_counter_ns() - start)
        if tracer:
            tracer.phase = None
        expect(current not in digests, "state digest did not change after a sealed write")
        digests.add(current)
    gc.collect()
    if tracer and first:
        tracer.phase = "replay"
    export = node.export_bytes()
    txs = sum(len(block.txs) for block in node.blocks)
    start = perf_counter_ns()
    replayed = replay(export)
    elapsed = perf_counter_ns() - start
    if tracer:
        tracer.phase = None
    expect(replayed == current, "replay digest differs from the live node")
    if first:
        result.replayed_txs = txs
    result.replay_rates.append(txs / (elapsed / 1e9))
    result.replay_digest = replayed


# =============================================================================
# gateway_ingest: a closed loop of datagrams over loopback UDP


@dataclass
class Op:
    code: int
    path: str
    payload: bytes
    kind: str
    expected: object = None


class SimThing:
    """A simulated Thing: its own input stream and what the feed must hold."""

    def __init__(self, seed: int, index: int, thing_id: str):
        self.rng = random.Random(f"{seed}/{thing_id}")
        self.thing_id = thing_id
        self.endpoint = f"thing-{index}.sim:5683"
        self.values: list[int] = []
        self.actuating = False
        self.actuations = 0

    def put(self) -> Op:
        """A PUT with no tick, so the gateway sets it."""
        value = self.rng.randrange(-20_000, 45_001)
        index = len(self.values)
        self.values.append(value)
        return Op(wire.PUT, f"/things/{self.thing_id}/data", encode_values([value, UNIT]),
                  "put", index)

    def actuate(self) -> Op:
        args = f"{self.thing_id}/{self.actuations}".encode()
        self.actuations += 1
        return Op(wire.POST, f"/things/{self.thing_id}/actuate",
                  encode_values(["set", args]), "actuate", args)

    def get_last(self) -> Op:
        return Op(wire.GET, f"/things/{self.thing_id}/last", b"", "last", len(self.values))

    def get_stats(self, lo: int, hi: int) -> Op:
        return Op(wire.GET, f"/things/{self.thing_id}/stats?from={lo}&to={hi}", b"", "stats",
                  (lo, hi, len(self.values)))

    def next_op(self) -> Op:
        if self.actuating and self.rng.random() < 1 / 8:
            return self.actuate()
        return self.put()


def check_gateway_reply(thing: SimThing, op: Op, message_id: int, reply: bytes) -> None:
    payload = checks.ack_payload(reply, message_id)
    if op.kind == "put":
        checks.check_put(payload, op.expected)
    elif op.kind == "actuate":
        checks.check_granted(payload)
    elif op.kind == "last":
        checks.check_last(payload, thing.values[op.expected - 1], UNIT, None)
    else:
        # PUTs carry no tick, and only full windows are asked
        lo, hi, n = op.expected
        checks.check_stats(payload, checks.window_stats(thing.values, [0] * n, n, lo, hi))


class GatewayRig:
    """A node, a listening gateway and the simulated Things registered on it."""

    def __init__(self, seed: int, sizes: Sizes, journal_path: str, client_endpoint: str):
        signers, alloc = stakeholders("auditor")
        self.genesis_total = sum(alloc.values())
        self.auditor = signers["auditor"]
        self.node = new_node(signers, alloc)
        self.probes = deploy_probes(self.node, self.auditor)
        self.transport = RecordingTransport()
        self.gateway = Gateway(self.node, GatewayConfig(
            master_seed=MASTER_SEED, journal_path=journal_path, listen="127.0.0.1:0",
            requesters={client_endpoint: "bench/operator"}), transport=self.transport)
        try:
            self.things = self._register(seed, sizes, client_endpoint)
        except BaseException:
            self.gateway.close()
            raise

    def close(self) -> None:
        self.gateway.close()

    def _register(self, seed, sizes, client_endpoint):
        things = [SimThing(seed, i, f"t{i:03d}") for i in range(sizes.gateway_things)]
        picker = random.Random(f"{seed}/actuating")
        for thing in picker.sample(things, sizes.actuating_things):
            thing.actuating = True
        for thing in things:
            reg = self.gateway.register_thing(thing.thing_id, endpoint=thing.endpoint)
            if thing.actuating:
                self.gateway.allow_requester(reg, client_endpoint)
        return things


def drive(sock, server, things, next_op, total: int):
    """Closed loop: one request in flight per Thing until total requests are
    sent, then drain.  Never retransmits (a repeated PUT would be applied
    twice).  Returns the replies, their latencies and completion times in
    the order they came, the sends, the start time and the requests lost."""
    inflight = {}
    records = []
    latencies = []
    ends = []
    sends = []
    message_ids = itertools.count(1)

    def send(thing):
        message_id = next(message_ids) & 0xFFFF
        op = next_op(thing)
        datagram = wire.request(op.code, message_id, op.path, op.payload).encode()
        sent = perf_counter_ns()
        inflight[message_id] = (thing, op, sent)
        sends.append((message_id, sent))
        sock.sendto(datagram, server)

    start = perf_counter_ns()
    for thing in things[:total]:
        send(thing)
    while inflight:
        try:
            reply, _ = sock.recvfrom(4096)
        except socket.timeout:
            break
        end = perf_counter_ns()
        message_id = wire.peek_message_id(reply)
        thing, op, sent = inflight.pop(message_id)
        latencies.append(end - sent)
        ends.append(end)
        records.append((thing, op, message_id, reply))
        if len(sends) < total:
            send(thing)
    return records, latencies, ends, sends, start, len(inflight)


def queue_waits(sends, entries) -> list[float]:
    """ms from each send to the gateway's entry into handle_datagram,
    matched per message id in order."""
    by_id: dict[int, list[int]] = {}
    for message_id, sent in sends:
        by_id.setdefault(message_id, []).append(sent)
    waits = []
    for start, message_id in entries:
        queue = by_id.get(message_id)
        if queue:
            waits.append((start - queue.pop(0)) / 1e6)
    return waits


def run_rounds(build, load, seconds: float, result: Result, seed: int, tracer):
    """Whole rounds, each on a freshly built state, until one more round, as
    long as the one before, would run past the given seconds; returns the
    last round's state, still open.

    Every build, kept or not, is timed for setup_s, and every round's state
    is audited (``audit_round``) after its load.  A fixed amount of work per
    round keeps each audited state, and so the digest, replay and memory
    figures, the same however fast the program is.  The last round's replay
    is checked in full.
    """
    rng = random.Random(f"{seed}/digest")

    def timed_build():
        gc.collect()
        start = perf_counter()
        state = build(len(result.setup_s))
        result.setup_s.append(perf_counter() - start)
        return state

    started = perf_counter()
    state = None
    round_s = 0.0
    try:
        while state is None or perf_counter() - started + round_s < seconds:
            if state is not None:
                state.close()
                state = None
            round_started = perf_counter()
            for _ in range(THROWAWAY_SETUPS):
                timed_build().close()
            state = timed_build()
            load(state)
            audit_round(state.node, state.auditor, state.probes, rng, result, tracer)
            round_s = perf_counter() - round_started
        checks.check_replay(state.node, state.node.export_bytes(), result.replay_digest,
                            state.genesis_total)
    except BaseException:
        if state is not None:
            state.close()
        raise
    return state


def run_gateway(workload: str, seed: int, seconds: float, tracer, workdir: str,
                sizes: Sizes = Sizes()) -> Result:
    result = Result()
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    rig = None
    try:
        client.bind(("127.0.0.1", 0))
        client.settimeout(REPLY_TIMEOUT_S)
        client_endpoint = "127.0.0.1:%d" % client.getsockname()[1]
        sends = []
        rig = run_rounds(
            lambda n: GatewayRig(seed, sizes, os.path.join(workdir, f"gateway-{n}.journal"),
                                 client_endpoint),
            lambda rig: gateway_round(rig, client, client_endpoint, sizes, tracer, result, sends),
            seconds, result, seed, tracer)
        if tracer:
            result.queue_waits_ms = queue_waits(sends, tracer.entry_times("load"))
    finally:
        client.close()
        if rig is not None:
            rig.close()
    return result


def gateway_round(rig, client, client_endpoint, sizes, tracer, result, sends):
    gateway = rig.gateway
    host, port = gateway.address.rsplit(":", 1)
    stop = threading.Event()
    thread = threading.Thread(target=gateway.serve, args=(stop,), name="gateway-serve")
    if tracer:
        tracer.mute(True)
        tracer.phase = "load"
    thread.start()
    try:
        records, latencies, ends, round_sends, start, lost = drive(
            client, (host, int(port)), rig.things, SimThing.next_op, sizes.ingest_round_ops)
        if tracer:
            tracer.phase = None
            tracer.mute(False)
        if not result.rss_mb:          # the first round, before any replay
            result.rss_mb = rss_mb()
        actuations = sum(thing.actuations for thing in rig.things)
        waited = perf_counter()
        while len(rig.transport.datagrams) < actuations and \
                perf_counter() - waited < DELIVERY_TIMEOUT_S:
            time.sleep(0.01)
    finally:
        stop.set()
        thread.join(timeout=30)
    expect(not thread.is_alive(), "gateway serve thread did not stop")
    result.latencies_ns.extend(latencies)
    result.load_s += (ends[-1] - start) / 1e9 if ends else 0.0
    add_windows(result, start, ends, latencies)
    result.attempted += len(records) + lost
    result.failed += lost
    result.datagrams += len(records)
    result.puts += sum(1 for _, op, _, _ in records if op.kind == "put")
    sends.extend(round_sends)
    for thing, op, message_id, reply in records:
        check_gateway_reply(thing, op, message_id, reply)
    delivered = len(rig.transport.datagrams)
    expect(gateway.poll_events() == 0 and len(rig.transport.datagrams) == delivered,
           "an actuation was delivered again")
    checks.check_deliveries(rig.transport.datagrams, {
        (thing.thing_id, f"{thing.thing_id}/{n}".encode()):
            (thing.endpoint, Signer.from_seed("bench/operator").account)
        for thing in rig.things for n in range(thing.actuations)})
    for message_id, thing in enumerate(rig.things, start=1):
        for op in (thing.get_stats(*FULL_WINDOW), thing.get_last()):
            reply = gateway.handle_datagram(
                wire.request(op.code, message_id, op.path, op.payload).encode(), client_endpoint)
            check_gateway_reply(thing, op, message_id, reply)


# =============================================================================
# city_state: a multi-stakeholder city built up through public calls


KINDS = ("temp", "air", "noise", "traffic")
SENSORS = 10


@dataclass
class Step:
    """What happens when Thing i is onboarded."""

    district: int
    service_key: bytes
    uri: str
    pushes: list                  # [(feed index, value, tick, index the push returns)]
    topic: int
    path: str
    notified: int                 # subscriptions the benchmark's matcher counts
    resolves: list                # [thing index]
    stats: tuple                  # (feed index, lo, hi, samples pushed by then)
    last: tuple                   # (feed index, samples pushed by then)


class CityPlan:
    """Every input of one city round, drawn from the seed up front."""

    def __init__(self, seed: int, sizes: Sizes):
        rng = random.Random(f"{seed}/city")
        self.sizes = sizes
        self.patterns = [self._patterns(rng, sizes) for _ in range(sizes.topics)]
        self.sinks = [[f"https://sink-{t}-{s}.example/hook" for s in range(sizes.subscriptions)]
                      for t in range(sizes.topics)]
        self.values: list[list[int]] = []
        self.ticks: list[list[int]] = []
        self.steps = [self._step(rng, sizes, i) for i in range(sizes.city_things)]

    @staticmethod
    def _patterns(rng, sizes) -> list[str]:
        """Subscriptions of one topic, broad to narrow in fixed shares, so
        that every seed gives about the same notifications per publish."""
        def district():
            return f"d{rng.randrange(sizes.districts)}"

        def sensor():
            return f"s{rng.randrange(SENSORS)}"

        shapes = (
            lambda: "city/#",
            lambda: f"city/{district()}/#",
            lambda: f"city/+/{rng.choice(KINDS)}/#",
            lambda: f"city/{district()}/{rng.choice(KINDS)}/+",
            lambda: f"city/+/+/{sensor()}",
        )
        patterns = [shapes[n % len(shapes)]() for n in range(sizes.subscriptions)]
        rng.shuffle(patterns)
        return patterns

    def _step(self, rng, sizes, i) -> Step:
        self.values.append([])
        self.ticks.append([])
        pushes = []
        for _ in range(sizes.city_pushes):
            feed = rng.randrange(i + 1)
            tick = (self.ticks[feed][-1] if self.ticks[feed] else 0) + rng.choice((0, 1, 2))
            value = rng.randrange(-20_000, 45_001)
            pushes.append((feed, value, tick, len(self.values[feed])))
            self.values[feed].append(value)
            self.ticks[feed].append(tick)
        topic = rng.randrange(sizes.topics)
        path = (f"city/d{rng.randrange(sizes.districts)}/{rng.choice(KINDS)}"
                f"/s{rng.randrange(SENSORS)}")
        notified = sum(checks.pattern_matches(p, path) for p in self.patterns[topic])
        filled = [f for f in range(i + 1) if self.values[f]]
        feed = rng.choice(filled)
        n = len(self.values[feed])
        if rng.random() < 0.3:
            lo, hi = FULL_WINDOW
        else:
            a, b = sorted(rng.randrange(n) for _ in range(2))
            lo, hi = self.ticks[feed][a], self.ticks[feed][b]
        last_feed = rng.choice(filled)
        return Step(
            district=rng.randrange(sizes.districts),
            service_key=rng.randbytes(32),
            uri=f"coap://t{i}.sim/data",
            pushes=pushes, topic=topic, path=path, notified=notified,
            resolves=[rng.randrange(i + 1) for _ in range(2)],
            stats=(feed, lo, hi, n),
            last=(last_feed, len(self.values[last_feed])),
        )


class City:
    """One round's node, in-process gateway and stakeholders."""

    def __init__(self, plan: CityPlan, journal_path: str):
        sizes = plan.sizes
        signers, alloc = stakeholders("council", "operator", "auditor")
        self.genesis_total = sum(alloc.values())
        self.council = signers["council"]
        self.operator = signers["operator"]
        self.auditor = signers["auditor"]
        self.node = node = new_node(signers, alloc)
        self.transport = RecordingTransport()
        self.gateway = Gateway(node, GatewayConfig(master_seed=MASTER_SEED,
                                                   journal_path=journal_path),
                               transport=self.transport)
        try:
            self.root = self._deploy(self.council, "zone")
            self.districts = [self._deploy(self.council, "zone") for _ in range(sizes.districts)]
            for d, zone in enumerate(self.districts):
                checks.check_receipt(node.call(self.council, self.root, "delegate",
                                               encode_values([f"d{d}", zone])))
            self.topics = [self._deploy(self.council, "topic") for _ in range(sizes.topics)]
            for topic, patterns, sinks in zip(self.topics, plan.patterns, plan.sinks):
                for pattern, sink in zip(patterns, sinks):
                    checks.check_receipt(node.call(self.auditor, topic, "subscribe",
                                                   encode_values([pattern, SINK_URI, sink.encode()])))
            self.probes = deploy_probes(node, self.auditor)
        except BaseException:
            self.gateway.close()
            raise

    def close(self) -> None:
        self.gateway.close()

    def _deploy(self, signer: Signer, code: str) -> bytes:
        receipt, address = self.node.deploy(signer, code)
        checks.check_receipt(receipt)
        return address

    def run(self, plan: CityPlan, timed) -> list:
        """Onboard every Thing of the plan; returns the deferred checks."""
        node, gateway = self.node, self.gateway
        feeds: list[bytes] = []
        todo = []
        for i, step in enumerate(plan.steps):
            receipt, feed = timed(node.deploy, self.operator, "feed")
            feeds.append(feed)
            reg = timed(gateway.register_thing, f"t{i}", "", "", feed)
            todo.append(("register", reg, feed, receipt))
            todo.append(("polled", timed(gateway.poll_events), 0))
            todo.append(("receipt", timed(
                node.call, self.council, self.districts[step.district], "set_mapping",
                encode_values([f"t{i}", step.service_key, step.uri, b""])), None))
            for feed_index, value, tick, index in step.pushes:
                todo.append(("receipt", timed(node.call, self.operator, feeds[feed_index],
                                              "push", encode_values([value, UNIT, tick])),
                             enc_u64(index)))
            timed(node.seal_block)
            todo.append(("polled", timed(gateway.poll_events), 0))
            todo.append(("published", timed(node.call, self.council, self.topics[step.topic],
                                            "publish", encode_values([step.path, b"reading"])),
                         step.notified))
            timed(node.seal_block)
            todo.append(("polled", timed(gateway.poll_events), step.notified))
            for j in step.resolves:
                todo.append(("resolved", timed(resolver.resolve, node,
                                               f"t{j}.d{plan.steps[j].district}", [self.root]),
                             j))
            feed_index, lo, hi, n = step.stats
            todo.append(("stats", timed(node.static, feeds[feed_index], "stats", [lo, hi]),
                         step.stats))
            feed_index, n = step.last
            todo.append(("last", timed(node.static, feeds[feed_index], "last", []), step.last))
        return todo

    def verify(self, plan: CityPlan, todo: list) -> None:
        notified = 0
        for kind, got, *expected in todo:
            if kind == "register":
                reg_feed, receipt = expected
                checks.check_receipt(receipt)
                expect(got.feed_addr == reg_feed and self.node.contract_exists(got.actuation_addr),
                       f"registration of {got.thing_id} is incomplete")
            elif kind == "polled":
                expect(got == expected[0], f"poll_events delivered {got}, expected {expected[0]}")
                notified += got
            elif kind == "receipt":
                checks.check_receipt(got, expected[0])
            elif kind == "published":
                checks.check_published(got, expected[0])
            elif kind == "resolved":
                step = plan.steps[expected[0]]
                checks.check_resolved(got, step.service_key, step.uri)
            elif kind == "stats":
                feed_index, lo, hi, n = expected[0]
                checks.check_stats(got, checks.window_stats(
                    plan.values[feed_index], plan.ticks[feed_index], n, lo, hi))
            else:
                feed_index, n = expected[0]
                checks.check_last(got, plan.values[feed_index][n - 1], UNIT,
                                  plan.ticks[feed_index][n - 1])
        expect(len(self.transport.uri_payloads) == notified
               == sum(step.notified for step in plan.steps),
               f"{len(self.transport.uri_payloads)} URI deliveries for {notified} notifications")


def run_city(workload: str, seed: int, seconds: float, tracer, workdir: str,
             sizes: Sizes = Sizes()) -> Result:
    result = Result()
    plan = CityPlan(seed, sizes)
    latencies = result.latencies_ns
    ends = []

    def timed(fn, *args):
        start = perf_counter_ns()
        out = tracer.call("op", fn, *args) if tracer else fn(*args)
        end = perf_counter_ns()
        latencies.append(end - start)
        ends.append(end)
        return out

    def city_round(city: City) -> None:
        if tracer:
            tracer.phase = "load"
        done = len(latencies)
        start = perf_counter_ns()
        todo = city.run(plan, timed)
        result.load_s += (perf_counter_ns() - start) / 1e9
        add_windows(result, start, ends[done:], latencies[done:])
        if tracer:
            tracer.phase = None
        if not result.rss_mb:          # the first round, before any replay
            result.rss_mb = rss_mb()
        city.verify(plan, todo)

    city = run_rounds(lambda n: City(plan, os.path.join(workdir, f"city-{n}.journal")),
                      city_round, seconds, result, seed, tracer)
    city.close()
    result.attempted = len(latencies)
    return result


WORKLOADS = {
    "gateway_ingest": run_gateway,
    "city_state": run_city,
}
