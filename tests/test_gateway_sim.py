"""A seeded simulation of the gateway's protocol core, `Gateway.step`.

Nothing here opens a socket or reads a clock.  A fake clock counts ticks
(one tick stands for a millisecond); a network drops, duplicates, delays
and so reorders datagrams in both directions; Things send PUTs, GETs and
POSTs one at a time and resend an unanswered request with the same bytes
and message id, as CoAP clients do (RFC 7252 §4.2: a random first timeout
that doubles on each of at most MAX_RETRANSMIT resends); and the gateway is
restarted between steps, or crashes while it delivers an event, and comes
back from the same journal onto the same `Node`.  Event datagrams are
duplicated and delayed but never dropped, since their delivery is not yet
confirmed by the Thing.  A run is a function of its `Plan`, so hypothesis
can enumerate and shrink the faults.
"""

import heapq
import itertools
import os
import random
import socket
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from thingchain import Node
from thingchain.codec import decode_values, encode_values
from thingchain.contracts.feed import decode_measurement
from thingchain.gateway import Gateway, GatewayConfig, wire
from thingchain.gateway.service import BATCH_LIMIT
from thingchain.ledger import Verifier

from test_batch import feed_samples

POLL_TICKS = 50          # the gateway's poll interval
ACK_TIMEOUT = 20         # a Thing's first resend timeout, times 1 to 1.5
MAX_RETRANSMIT = 4       # resends before a Thing gives a request up
PROFILE = settings(derandomize=True, deadline=None, database=None)


class Crash(BaseException):
    """The gateway process dies; `_deliver_with_retry` must not catch it."""


@dataclass(frozen=True)
class Plan:
    scripts: tuple       # per Thing: ops ("put",) | ("get", thing) | ("post", thing)
    drop: float          # chance that a request or reply is lost
    dup: float           # chance that a datagram is sent twice
    max_delay: int       # a datagram takes 1..max_delay ticks
    busy: int            # ticks after a step before the gateway takes the next one
    tx_cap: int
    restart: float       # chance of a restart before a step
    crash_at: frozenset  # event deliveries (counted from 1) that crash the gateway
    seed: int


@st.composite
def plans(draw):
    count = draw(st.integers(1, 3))
    op = st.one_of(st.just(("put",)), st.tuples(st.just("get"), st.integers(0, count - 1)),
                   st.tuples(st.just("post"), st.integers(0, count - 1)))
    return Plan(
        scripts=tuple(tuple(draw(st.lists(op, min_size=1, max_size=10))) for _ in range(count)),
        drop=draw(st.sampled_from([0.0, 0.1, 0.3])),
        dup=draw(st.sampled_from([0.0, 0.2, 0.5])),
        max_delay=draw(st.integers(1, 30)),
        busy=draw(st.integers(0, 8)),
        tx_cap=draw(st.sampled_from([3, 1024])),
        restart=draw(st.sampled_from([0.0, 0.05, 0.2])),
        crash_at=draw(st.frozensets(st.integers(1, 8), max_size=2)),
        seed=draw(st.integers(0, 2**32 - 1)))


class SimTransport:
    """Hands event datagrams to the network; crashes on the planned deliveries."""

    def __init__(self, sim):
        self.sim = sim
        self.attempts = 0
        self.delivered = []          # (endpoint, datagram)

    def deliver_datagram(self, endpoint, data):
        self.attempts += 1
        if self.attempts in self.sim.plan.crash_at:
            raise Crash()
        self.delivered.append((endpoint, data))
        self.sim.send(endpoint, data, "gateway", lossless=True)

    def deliver_uri(self, uri, payload):
        raise AssertionError("no Notify sinks in the simulation")


@dataclass
class Outstanding:
    op: tuple
    data: bytes
    timeout: int             # ticks until the next resend
    floor: int | None        # for a GET: the feed index it must see at least
    resends: int = 0


class SimThing:
    """A stop-and-wait client: one request outstanding, resent until answered."""

    def __init__(self, sim, index, script):
        self.sim, self.index, self.script = sim, index, list(script)
        self.endpoint = f"sim:t{index}"
        self.message_id = 0
        self.outstanding = None      # the Outstanding request, if any
        self.acked = []              # the applications() key of each ACKed write
        self.gets = []               # (thing index, reply, floor)
        self.applied = []            # (height, tx_index, intra) of applied actuations

    @property
    def done(self):
        return self.outstanding is None and not self.script

    def start_next(self):
        if not self.script:
            return
        op = self.script.pop(0)
        self.message_id += 1
        path = f"/things/t{op[1] if len(op) > 1 else self.index}"
        if op[0] == "put":
            data = wire.request(wire.PUT, self.message_id, path + "/data",
                                encode_values([self.value(self.message_id), "C"]))
        elif op[0] == "get":
            data = wire.request(wire.GET, self.message_id, path + "/last")
        else:
            data = wire.request(wire.POST, self.message_id, path + "/actuate",
                                encode_values(["open", self.args(self.message_id)]))
        floor = self.sim.acked_index[op[1]] if op[0] == "get" else None
        timeout = self.sim.rng.randint(ACK_TIMEOUT, ACK_TIMEOUT * 3 // 2)
        self.outstanding = Outstanding(op, data.encode(), timeout, floor)
        self.transmit()

    def value(self, message_id):
        return self.index * 1000 + message_id

    def args(self, message_id):
        return f"{self.index}/{message_id}".encode()

    def transmit(self):
        request = self.outstanding
        self.sim.send("gateway", request.data, self.endpoint)
        self.sim.at(self.sim.now + request.timeout, self.expire, request, request.resends)

    def expire(self, request, resends):
        if request is not self.outstanding or resends != request.resends:
            return                   # answered, or resent since
        if resends == MAX_RETRANSMIT:
            self.outstanding = None
            self.start_next()
            return
        request.resends += 1
        request.timeout *= 2
        self.transmit()

    def receive(self, data):
        msg = wire.decode_message(data)
        if msg.msg_type == wire.MSG_REQUEST:          # an event from the watcher
            if delivery_key(data) not in self.applied:
                self.applied.append(delivery_key(data))
            return
        if self.outstanding is None or msg.message_id != self.message_id:
            return                                    # a late duplicate reply
        op = self.outstanding.op
        if op[0] == "get":
            self.gets.append((op[1], data, self.outstanding.floor))
        elif msg.msg_type == wire.MSG_ACK and op[0] == "put":
            self.acked.append(("put", self.index, self.value(self.message_id)))
            index = int.from_bytes(decode_values(msg.payload)[1], "big")
            self.sim.acked_index[self.index] = max(self.sim.acked_index[self.index], index)
        elif msg.msg_type == wire.MSG_ACK:
            self.acked.append(("post", self.args(self.message_id)))
        self.outstanding = None
        self.start_next()


class Sim:
    """One run of a `Plan`: the clock, the network, the Things and the gateway."""

    def __init__(self, plan: Plan, verifier, directory):
        self.plan = plan
        self.verifier = verifier
        self.rng = random.Random(plan.seed)
        self.now = 0
        self.events = []             # heap of (tick, order, callback, args)
        self.order = itertools.count()
        self.inbox = []              # (datagram, source) waiting at the gateway
        self.free_at = 0
        self.node = Node({}, tx_cap=plan.tx_cap)
        self.things = [SimThing(self, i, script) for i, script in enumerate(plan.scripts)]
        self.acked_index = [-1] * len(self.things)   # newest feed index a Thing got an ACK for
        self.config = GatewayConfig(
            master_seed="sim", journal_path=os.path.join(directory, "gateway.journal"),
            requesters={thing.endpoint: f"requester/{thing.index}" for thing in self.things})
        self.transport = SimTransport(self)
        self.gateway = Gateway(self.node, self.config, transport=self.transport)
        for thing in self.things:
            self.gateway.register_thing(f"t{thing.index}", endpoint=thing.endpoint)
        for thing, requester in itertools.product(self.things, self.things):
            self.gateway.allow_requester(f"t{thing.index}", requester.endpoint)
        self.restart_heights = []    # the node height at each restart
        self.replies = []            # (tick, source, reply) of every reply the gateway sent
        self.gateway_gets = []       # (thing index, reply, floor) in the gateway's order
        self.answered_index = [-1] * len(self.things)  # newest feed index in a sent ACK
        self.polled_height = 0
        self.wake_at = 0

    # --- the world -------------------------------------------------------------

    def at(self, tick, callback, *args):
        heapq.heappush(self.events, (tick, next(self.order), callback, args))

    def send(self, destination, data, source, lossless=False):
        if not lossless and self.rng.random() < self.plan.drop:
            return
        for _ in range(2 if self.rng.random() < self.plan.dup else 1):
            self.at(self.now + self.rng.randint(1, self.plan.max_delay),
                    self.arrive, destination, data, source)

    def arrive(self, destination, data, source):
        if destination == "gateway":
            self.inbox.append((data, source))
        else:
            self.things[int(destination.rsplit("t", 1)[1])].receive(data)

    def run(self):
        for thing in self.things:
            thing.start_next()
        while self.events or self.inbox or not all(thing.done for thing in self.things):
            step_at = max(self.free_at, self.now if self.inbox else self.wake_at)
            if self.events and self.events[0][0] <= step_at:
                self.now, _, callback, args = heapq.heappop(self.events)
                callback(*args)
            else:
                self.now = step_at
                self.step()
        self.now = max(self.now, self.wake_at)
        while not self.step():       # a last poll, done again after a crash
            pass
        while self.events:
            self.now, _, callback, args = heapq.heappop(self.events)
            callback(*args)

    # --- the gateway -----------------------------------------------------------

    def restart(self):
        """The process dies: its unread datagrams and memory go; the journal
        and the node stay."""
        self.gateway.close()
        self.restart_heights.append(self.node.height)
        self.inbox.clear()
        self.gateway = Gateway(self.node, self.config, transport=self.transport)
        self.wake_at = self.now

    def step(self) -> bool:
        """Give the gateway what waits for it; False if it crashed."""
        if self.plan.restart and self.rng.random() < self.plan.restart:
            self.restart()
        received, self.inbox = self.inbox[:BATCH_LIMIT], self.inbox[BATCH_LIMIT:]
        polls = self.now >= self.wake_at
        try:
            replies, self.wake_at = self.gateway.step(self.now, received, self.verifier,
                                                      POLL_TICKS)
        except Crash:
            self.restart()
            return False
        self.free_at = self.now + self.plan.busy
        tip = self.node.blocks[-1]
        assert self.gateway.cursor <= (tip.height, len(tip.txs) - 1)
        assert len(replies) == len(received)
        for (data, source), reply in zip(received, replies):
            self.observe(data, reply)
            self.replies.append((self.now, source, reply))
            self.send(source, reply, "gateway")
        if polls:
            self.check_events_delivered()
        return True

    def observe(self, data, reply):
        """Note each ACKed PUT's feed index, and what each GET /last should see."""
        request, answer = wire.decode_message(data), wire.decode_message(reply)
        thing = int(request.path.split("/")[2][1:])
        if request.code == wire.PUT and answer.msg_type == wire.MSG_ACK:
            index = int.from_bytes(decode_values(answer.payload)[1], "big")
            self.answered_index[thing] = max(self.answered_index[thing], index)
        elif request.code == wire.GET:
            self.gateway_gets.append((thing, reply, self.answered_index[thing]))

    def check_events_delivered(self):
        """Every Actuate event sealed before this poll has reached the transport."""
        delivered = {delivery_key(data) for _, data in self.transport.delivered}
        for key, _ in actuations(self, self.polled_height + 1):
            assert key in delivered, f"event {key} was not delivered"
        self.polled_height = self.node.height


def delivery_key(data):
    height, tx_index, intra, *_ = decode_values(wire.decode_message(data).payload)
    return height, tx_index, intra


def actuations(sim, from_height=1):
    """((height, tx_index, intra), (thing index, action args)) of each Actuate event."""
    things = {sim.gateway.things[f"t{thing.index}"].actuation_addr: thing.index
              for thing in sim.things}
    for block in sim.node.blocks[from_height:]:
        for tx_index, receipt in enumerate(block.receipts):
            for intra, event in enumerate(receipt.events):
                if event.name == "Actuate" and event.source in things:
                    _, args, _ = decode_values(event.payload)
                    yield (block.height, tx_index, intra), (things[event.source], args)


def applications(sim):
    """Heights at which each write was applied, by ("put", thing, value) and
    ("post", args)."""
    feeds = {sim.gateway.things[f"t{thing.index}"].feed_addr: thing.index
             for thing in sim.things}
    applied = {}
    for block in sim.node.blocks:
        for tx, receipt in zip(block.txs, block.receipts):
            if receipt.ok and tx.method == "push" and tx.target in feeds:
                key = ("put", feeds[tx.target], decode_values(tx.args)[0])
                applied.setdefault(key, []).append(block.height)
    for (height, _, _), (_, args) in actuations(sim):
        applied.setdefault(("post", args), []).append(height)
    return applied


def lifetime(sim, height):
    return sum(1 for restart_height in sim.restart_heights if restart_height < height)


def check_invariants(sim):
    # each write is applied at most once per gateway lifetime, and an ACKed
    # one at least once: exactly once when the gateway never restarted
    applied = applications(sim)
    for key, heights in applied.items():
        counts = Counter(lifetime(sim, height) for height in heights)
        assert max(counts.values()) == 1, f"{key} applied at heights {heights}"
    for thing in sim.things:
        for key in thing.acked:
            assert key in applied, f"ACKed {key} is in no block"
    # a GET /last reports the newest write answered before it, so a Thing
    # that got the ACK for a PUT before it sent the GET reads that PUT or a
    # later one
    samples = [[sample[1:] for sample in feed_samples(sim.gateway, f"t{thing.index}")]
               for thing in sim.things]
    for target, reply, floor in sim.gateway_gets + [
            get for thing in sim.things for get in thing.gets]:
        msg = wire.decode_message(reply)
        if msg.msg_type == wire.MSG_ACK:
            sample = decode_measurement(msg.payload)
            seen = max(i for i, known in enumerate(samples[target]) if known == sample)
        else:
            assert wire.error_reason(msg)[0] == "EmptyFeed"
            seen = -1
        assert seen >= floor, f"GET /things/t{target}/last read index {seen}, not {floor}"
    # each Actuate event reached the transport, and its Thing applied it once
    events = dict(actuations(sim))
    delivered = {delivery_key(data) for _, data in sim.transport.delivered}
    assert set(events) <= delivered
    for thing in sim.things:
        assert sorted(thing.applied) == sorted(
            key for key, (target, _) in events.items() if target == thing.index)


@pytest.fixture(scope="module")
def verifier():
    with Verifier() as shared:
        yield shared


@contextmanager
def no_socket_and_no_clock():
    """Make ``socket.socket`` raise, and ``time.monotonic`` raise when the
    program calls it (multiprocessing, under the verifier, still may)."""
    real_monotonic = time.monotonic

    def monotonic():
        if sys._getframe(1).f_globals.get("__name__", "").startswith("thingchain"):
            raise AssertionError("the gateway core read the clock")
        return real_monotonic()

    def no_socket(*args, **kwargs):
        raise AssertionError("the gateway core opened a socket")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(time, "monotonic", monotonic)
        patch.setattr(socket, "socket", no_socket)
        yield


def simulate(plan, verifier):
    with tempfile.TemporaryDirectory() as directory:
        sim = Sim(plan, verifier, directory)
        try:
            sim.run()
        finally:
            sim.gateway.close()
    return sim


@settings(PROFILE, max_examples=250)
@given(plans())
def test_simulated_gateway_keeps_its_invariants(verifier, plan):
    with no_socket_and_no_clock():
        sim = simulate(plan, verifier)
    check_invariants(sim)


@settings(PROFILE, max_examples=20)
@given(plans())
def test_a_plan_replays_to_the_same_bytes(verifier, plan):
    first, second = simulate(plan, verifier), simulate(plan, verifier)
    assert first.node.export_bytes() == second.node.export_bytes()
    assert first.replies == second.replies
