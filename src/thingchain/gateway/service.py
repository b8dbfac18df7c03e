"""The gateway: terminates the datagram protocol, custodies Thing keys, turns
requests into signed transactions and chain events into outbound deliveries.

Things never see key material: every signing key is derived from the
gateway's master seed and the thing id when the thing is registered or
recovered, held in memory only, and only ids and addresses are persisted.
Registrations, the event cursor and dead-lettered deliveries live in a
checksummed append-only journal, so a restarted gateway resumes without
skipping on-chain events (receivers deduplicate by (height, tx_index)).

`Gateway.step` is the protocol core: it decides batches and event polls and
touches no socket and no clock.  `Gateway.serve` moves datagrams for it over UDP.
"""

from __future__ import annotations

import json
import select
import socket as socket_module
import threading
import time
from collections import OrderedDict, deque
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..codec import I64_MAX, I64_MIN, decode_values, encode_values
from ..contracts.actuation import DENIED, request_outcome
from ..contracts.topic import SINK_URI
from ..errors import BadSignature, DuplicateThing, NotListening, ThingChainError, WireError
from ..keys import Signer
from ..ledger import Verifier
from ..runtime import Revert
from ..units import parse_milli
from . import wire
from .journal import Journal

RETRY_BASE_TICKS = 1
RETRY_CAP_TICKS = 32
MAX_DELIVERY_ATTEMPTS = 5
TRAFFIC_LOG_SIZE = 4096       # most recent entries kept in Gateway.traffic and
                              # UdpTransport.uri_payloads
DEAD_LETTER_LIMIT = 1024      # most recent undeliverable events kept in Gateway.dead_letters
BATCH_LIMIT = 32              # most PUT/POST datagrams step() answers as one batch
POLL_INTERVAL = 0.05          # seconds between the event polls of serve()
REPLY_CACHE_SIZE = 1024       # most recent ACKed writes whose replies answer retransmits


@dataclass
class GatewayConfig:
    master_seed: str
    journal_path: str
    listen: str = ""                                 # "host:port"; "" = no UDP endpoint
    requesters: dict = field(default_factory=dict)   # endpoint -> account seed
    genesis: dict = field(default_factory=dict)      # account seed -> tokens

    @classmethod
    def from_file(cls, path) -> "GatewayConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        for key in ("master_seed", "journal"):
            if key not in raw:
                raise ValueError(f"gateway config {path} has no {key!r}")
        return cls(
            master_seed=raw["master_seed"],
            journal_path=raw["journal"],
            listen=raw.get("listen", "127.0.0.1:5683"),
            requesters=dict(raw.get("requesters", {})),
            genesis=dict(raw.get("genesis", {})),
        )


@dataclass
class ThingRegistration:
    thing_id: str
    account: bytes
    feed_addr: bytes
    actuation_addr: bytes
    endpoint: str = ""
    sink_uri: str = ""


class RecordingTransport:
    """In-memory delivery transport; optionally fails the first N attempts
    per destination to exercise the retry and dead-letter paths."""

    def __init__(self):
        self.datagrams: list[tuple[str, bytes]] = []
        self.uri_payloads: list[tuple[str, bytes]] = []
        self.fail_remaining: dict[str, int] = {}

    def _maybe_fail(self, destination: str) -> None:
        left = self.fail_remaining.get(destination, 0)
        if left > 0:
            self.fail_remaining[destination] = left - 1
            raise ConnectionError(f"injected delivery failure to {destination}")

    def deliver_datagram(self, endpoint: str, data: bytes) -> None:
        self._maybe_fail(endpoint)
        self.datagrams.append((endpoint, data))

    def deliver_uri(self, uri: str, payload: bytes) -> None:
        self._maybe_fail(uri)
        self.uri_payloads.append((uri, payload))


class UdpTransport:
    """Sends actuation datagrams over UDP; URI deliveries are recorded only
    (off-chain sink transports are deployment-specific)."""

    def __init__(self):
        self._sock = socket_module.socket(socket_module.AF_INET, socket_module.SOCK_DGRAM)
        self.uri_payloads: deque[tuple[str, bytes]] = deque(maxlen=TRAFFIC_LOG_SIZE)

    def deliver_datagram(self, endpoint: str, data: bytes) -> None:
        host, port = endpoint.rsplit(":", 1)
        self._sock.sendto(data, (host, int(port)))

    def deliver_uri(self, uri: str, payload: bytes) -> None:
        self.uri_payloads.append((uri, payload))

    def close(self) -> None:
        self._sock.close()


def _bind_udp(listen: str) -> socket_module.socket:
    host, port = listen.rsplit(":", 1)
    port = int(port)
    sock = socket_module.socket(socket_module.AF_INET, socket_module.SOCK_DGRAM)
    try:
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


class Gateway:
    """Owns its UDP socket from construction to close().

    When ``config.listen`` is set the socket is bound before the node or the
    journal is touched, so an address in use raises ``OSError`` from the
    constructor, and datagrams sent before serve() runs wait in the socket's
    receive buffer instead of being dropped.
    """

    def __init__(self, node, config: GatewayConfig, transport=None):
        self._sock = _bind_udp(config.listen) if config.listen else None
        self.node = node
        self.config = config
        self.transport = transport if transport is not None else RecordingTransport()
        self.sleep_fn = None                      # called with each retry backoff, if set
        self.journal = Journal(config.journal_path)
        self.things: dict[str, ThingRegistration] = {}
        self.cursor = (0, -1)                     # last fully processed (height, tx_index)
        self.dead_letters: list[tuple] = []
        self.traffic: deque[tuple[str, str, bytes]] = deque(maxlen=TRAFFIC_LOG_SIZE)
        self._msg_counter = 0
        self._replies: OrderedDict[tuple[str, bytes], bytes] = OrderedDict()
        self._next_poll = float("-inf")           # step() polls once `now` reaches it
        self._lock = threading.RLock()
        self._requesters: dict[str, Signer] = {}
        self._thing_signers: dict[str, Signer] = {}
        try:
            for endpoint, seed in config.requesters.items():
                _, signer = node.create_account(seed)
                self._requesters[endpoint] = signer
            self._recover()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # custody

    def _thing_signer(self, thing_id: str) -> Signer:
        return self._thing_signers[thing_id]

    def _create_thing_account(self, thing_id: str) -> Signer:
        _, signer = self.node.create_account(f"{self.config.master_seed}/thing/{thing_id}")
        self._thing_signers[thing_id] = signer
        return signer

    def _recover(self) -> None:
        for record in self.journal.records():
            kind = record[0]
            if kind == "thing":
                _, thing_id, endpoint, sink_uri, feed_addr, act_addr = record
                account = self._create_thing_account(thing_id).account
                self.things[thing_id] = ThingRegistration(
                    thing_id, account, feed_addr, act_addr, endpoint, sink_uri)
            elif kind == "cursor":
                self.cursor = (record[1], record[2])
            elif kind == "dead":
                self._dead_letter(tuple(record[1:]))
        # a node rebuilt from an older export is behind the journal's cursor:
        # its next blocks reuse those heights, and their events are new
        tip = self.node.blocks[-1]
        self.cursor = min(self.cursor, (tip.height, len(tip.txs) - 1))

    def register_thing(self, thing_id: str, endpoint: str = "", sink_uri: str = "",
                       feed_addr: bytes | None = None) -> ThingRegistration:
        """Create the thing's account, deploy its actuation contract and,
        unless ``feed_addr`` binds an existing feed, its feed contract, seal
        them in one block and journal the registration."""
        with self._lock:
            if thing_id in self.things:
                raise DuplicateThing(thing_id)
            signer = self._create_thing_account(thing_id)
            if feed_addr is None:
                receipt, feed_addr = self.node.deploy(signer, "feed")
                if not receipt.ok:
                    raise ThingChainError(f"feed deploy reverted: {receipt.reason}")
            receipt, actuation_addr = self.node.deploy(signer, "actuation")
            if not receipt.ok:
                raise ThingChainError(f"actuation deploy reverted: {receipt.reason}")
            self.node.seal_block()
            reg = ThingRegistration(thing_id, signer.account, feed_addr, actuation_addr,
                                    endpoint, sink_uri)
            self.things[thing_id] = reg
            self.journal.append("thing", [thing_id, endpoint, sink_uri,
                                          feed_addr, actuation_addr])
            return reg

    def allow_requester(self, reg_or_thing_id, endpoint: str) -> None:
        """Owner-side helper: put a mapped requester on a thing's actor list."""
        reg = (self.things.get(reg_or_thing_id) if isinstance(reg_or_thing_id, str)
               else reg_or_thing_id)
        if reg is None:
            raise ThingChainError(f"unknown thing {reg_or_thing_id!r}")
        requester = self._requesters.get(endpoint)
        if requester is None:
            raise ThingChainError(f"unknown requester endpoint {endpoint!r}")
        receipt = self.node.call(self._thing_signer(reg.thing_id), reg.actuation_addr,
                                 "allow_actor", encode_values([requester.account]))
        self.node.seal_block()
        if not receipt.ok:
            raise ThingChainError(f"allow_actor reverted: {receipt.reason}")

    # ------------------------------------------------------------------
    # request handling

    def handle_datagram(self, data: bytes, source: str = "") -> bytes:
        """Answer one inbound datagram, verified in process; always returns a
        reply datagram.  It is a batch of one: `_answer_batch`, the one place
        where a reply is sealed, cached and logged, answers it as it answers
        the datagrams of a served batch."""
        return self._answer_batch([(data, source)])[0]

    def _translate(self, data: bytes, source: str) -> wire.GatewayMessage:
        try:
            msg = wire.decode_message(data)
        except WireError as exc:
            return wire.error(exc.message_id, exc.reason)
        if msg.msg_type != wire.MSG_REQUEST:
            return wire.error(msg.message_id, "NotARequest")
        try:
            return self._route(msg, source)
        except (Revert, WireError) as exc:
            return wire.error(msg.message_id, exc.reason)
        except ThingChainError as exc:
            # unreachable for well-registered things, but never go silent
            return wire.error(msg.message_id, type(exc).__name__)

    def _route(self, msg: wire.GatewayMessage, source: str) -> wire.GatewayMessage:
        path, _, query = msg.path.partition("?")
        parts = [p for p in path.split("/") if p]
        if len(parts) != 3 or parts[0] != "things":
            raise WireError("BadPath", msg.message_id)
        thing_id, action = parts[1], parts[2]
        reg = self.things.get(thing_id)
        if reg is None:
            raise WireError("UnknownThing", msg.message_id)

        if msg.code == wire.GET and action == "last":
            return wire.ack(msg.message_id, self.node.static(reg.feed_addr, "last", []))
        if msg.code == wire.GET and action == "stats":
            lo, hi = self._parse_window(query, msg.message_id)
            return wire.ack(msg.message_id,
                            self.node.static(reg.feed_addr, "stats", [lo, hi]))
        if msg.code == wire.PUT and action == "data":
            receipt = self._put_data(msg, reg)
        elif msg.code == wire.POST and action == "actuate":
            receipt = self._post_actuate(msg, reg, source)
        else:
            raise WireError("BadPath", msg.message_id)
        if not receipt.ok:
            return wire.error(msg.message_id, receipt.reason)
        if msg.code == wire.POST and request_outcome(receipt.return_value) == DENIED:
            return wire.error(msg.message_id, "NotAuthorized")
        return wire.ack(msg.message_id, encode_values(["ok", receipt.return_value]))

    @staticmethod
    def _parse_window(query: str, msg_id: int) -> tuple[int, int]:
        params = {}
        for pair in query.split("&"):
            key, eq, value = pair.partition("=")
            if eq:
                params[key] = value
        try:
            lo, hi = int(params["from"]), int(params["to"])
        except (KeyError, ValueError):
            raise WireError("BadQuery", msg_id) from None
        if not (I64_MIN <= lo <= I64_MAX and I64_MIN <= hi <= I64_MAX):
            raise WireError("BadQuery", msg_id)
        return lo, hi

    def _decode_put_payload(self, msg: wire.GatewayMessage) -> tuple[int, str, int]:
        """PUT payload: [value_milli:int | value:str, unit, (tick)]."""
        try:
            values = decode_values(msg.payload)
        except Exception:
            raise WireError("BadPayload", msg.message_id) from None
        if not 2 <= len(values) <= 3:
            raise WireError("BadPayload", msg.message_id)
        value = values[0]
        if isinstance(value, str):
            try:
                value = parse_milli(value)
            except ValueError:
                raise WireError("BadPayload", msg.message_id) from None
        if (not isinstance(value, int) or isinstance(value, bool)
                or not I64_MIN <= value <= I64_MAX or not isinstance(values[1], str)):
            raise WireError("BadPayload", msg.message_id)
        tick = values[2] if len(values) == 3 else self.node.height + 1
        if not isinstance(tick, int) or isinstance(tick, bool) or tick < 0:
            raise WireError("BadPayload", msg.message_id)
        return value, values[1], tick

    def _put_data(self, msg: wire.GatewayMessage, reg: ThingRegistration):
        """Push the PUT's sample from the thing's account; returns the receipt."""
        value, unit, tick = self._decode_put_payload(msg)
        return self.node.call(self._thing_signer(reg.thing_id), reg.feed_addr, "push",
                              encode_values([value, unit, tick]))

    def _post_actuate(self, msg: wire.GatewayMessage, reg: ThingRegistration, source: str):
        """Request the POST's action as the mapped requester; returns the receipt."""
        requester = self._requesters.get(source)
        if requester is None:
            raise WireError("UnknownRequester", msg.message_id)
        try:
            action, args = decode_values(msg.payload)
            if not isinstance(action, str) or not isinstance(args, bytes):
                raise ValueError
        except Exception:
            raise WireError("BadPayload", msg.message_id) from None
        return self.node.call(requester, reg.actuation_addr, "request",
                              encode_values([action, args]))

    def _answer_batch(self, requests: list[tuple[bytes, str]],
                      verifier: Verifier | None = None) -> list[bytes]:
        """Answer (datagram, source) requests: the one place where a reply is
        sealed, cached and logged, for served and lone datagrams alike.

        With a ``verifier`` (`step` gives one) the requests run as one
        `Node.batch`, whose worker checks their signatures, and seal as one
        block.  Without one each request is verified in process, and one
        that submitted a transaction, reverted or not, seals its own block.
        A datagram byte-identical to an ACKed PUT or POST from the same
        source (the message id is part of the bytes) is a retransmit: it
        gets the same reply and is not applied again.  The newest
        REPLY_CACHE_SIZE such replies are kept, in memory only.  The cache
        is trimmed, and traffic logged, once the requests are sealed, so an
        undone batch evicts no older reply.  If a batched signature does not
        verify, nothing of the batch is sealed, cached or logged, and each
        datagram is answered on its own, so the bad one gets BadSignature.
        """
        node = self.node
        with self._lock:
            cached = []       # reply-cache keys this call filled
            try:
                with node.batch(verifier) if verifier is not None else nullcontext():
                    replies = []
                    for data, source in requests:
                        reply = self._replies.get((source, data))
                        if reply is None:
                            staged = node.height, node.pending_count
                            msg = self._translate(data, source)
                            if verifier is None and (node.height, node.pending_count) != staged:
                                node.seal_block()
                            reply = msg.encode()
                            if msg.msg_type == wire.MSG_ACK and wire.is_write(data):
                                cached.append((source, data))
                                self._replies[(source, data)] = reply
                        replies.append(reply)
            except BaseException as exc:
                for key in cached:
                    self._replies.pop(key, None)
                if verifier is None or not isinstance(exc, BadSignature):
                    raise
                return [self.handle_datagram(data, source) for data, source in requests]
            while len(self._replies) > REPLY_CACHE_SIZE:
                self._replies.popitem(last=False)
            for (data, source), reply in zip(requests, replies):
                self.traffic.append(("in", source, data))
                self.traffic.append(("out", source, reply))
            return replies

    # ------------------------------------------------------------------
    # event watching

    def _dead_letter(self, entry: tuple) -> None:
        """Keep the newest DEAD_LETTER_LIMIT entries; the list is trimmed in
        place, so holders of ``dead_letters`` see the same list."""
        self.dead_letters.append(entry)
        del self.dead_letters[:-DEAD_LETTER_LIMIT]

    def _deliver_with_retry(self, describe: tuple, destination: str, data: bytes,
                            deliver) -> int:
        """Call ``deliver(destination, data)`` until it returns, at most
        MAX_DELIVERY_ATTEMPTS times; returns 1, or 0 once the event is
        dead-lettered.  Between attempts it calls ``sleep_fn`` with a capped
        exponential backoff in ticks, when one is set; without one (the
        default) the attempts run back to back."""
        backoff = RETRY_BASE_TICKS
        for attempt in range(1, MAX_DELIVERY_ATTEMPTS + 1):
            try:
                self.traffic.append(("watch", destination, data))
                deliver(destination, data)
                return 1
            except Exception as exc:
                if attempt == MAX_DELIVERY_ATTEMPTS:
                    entry = (*describe, f"{type(exc).__name__}: {exc}")
                    self._dead_letter(entry)
                    self.journal.append("dead", list(entry))
                    return 0
                if self.sleep_fn is not None:
                    self.sleep_fn(backoff)
                backoff = min(backoff * 2, RETRY_CAP_TICKS)

    def poll_events(self) -> int:
        """Process newly sealed events once; returns the delivery count.

        Actuate events on registered things go to the thing's endpoint as POST
        datagrams; Notify events with URI sinks go to the sink.  The cursor is
        journaled only after a transaction's deliveries complete, giving
        at-least-once delivery across crashes.  Cursor records are not
        fsynced: a machine crash that loses one only moves the cursor back,
        and the events after it are delivered again, which at-least-once
        allows.  The next synced record (a registration or a dead letter)
        makes them durable.
        """
        delivered = 0
        with self._lock:
            actuation_to_thing = {reg.actuation_addr: reg for reg in self.things.values()}
            last_h, last_i = self.cursor
            for block in self.node.blocks[max(last_h, 1):]:
                for tx_index, receipt in enumerate(block.receipts):
                    if block.height == last_h and tx_index <= last_i:
                        continue
                    attempted = False
                    for intra, event in enumerate(receipt.events):
                        if event.name == "Actuate" and event.source in actuation_to_thing:
                            attempted = True
                            delivered += self._deliver_actuation(
                                actuation_to_thing[event.source], event, intra)
                        elif event.name == "Notify":
                            sent = self._deliver_notification(event, intra)
                            attempted = attempted or sent >= 0
                            delivered += max(sent, 0)
                    if attempted:
                        self.cursor = (block.height, tx_index)
                        self.journal.append("cursor", [block.height, tx_index], sync=False)
            tip = self.node.blocks[-1]
            if self.cursor < (tip.height, len(tip.txs) - 1):
                self.cursor = (tip.height, len(tip.txs) - 1)
                self.journal.append("cursor", list(self.cursor), sync=False)
        return delivered

    def _deliver_actuation(self, reg: ThingRegistration, event, intra: int) -> int:
        action, args, caller = decode_values(event.payload)
        payload = encode_values([event.height, event.tx_index, intra, action, args, caller])
        self._msg_counter = (self._msg_counter + 1) & 0xFFFF
        datagram = wire.request(wire.POST, self._msg_counter,
                                f"/things/{reg.thing_id}/event", payload).encode()
        return self._deliver_with_retry((event.height, event.tx_index, "actuate", reg.thing_id),
                                        reg.endpoint, datagram, self.transport.deliver_datagram)

    def _deliver_notification(self, event, intra: int) -> int:
        """Returns deliveries (0/1), or -1 when the sink is on-chain only."""
        sub_id, sink_kind, sink, path, body = decode_values(event.payload)
        if sink_kind != SINK_URI:
            return -1
        uri = sink.decode("utf-8", "replace")
        payload = encode_values([event.height, event.tx_index, intra, sub_id, path, body])
        return self._deliver_with_retry((event.height, event.tx_index, "notify", uri),
                                        uri, payload, self.transport.deliver_uri)

    # ------------------------------------------------------------------
    # serving

    @property
    def address(self) -> str:
        """The bound "host:port" (the real port when listen asked for port 0),
        or "" when the gateway has no socket."""
        if self._sock is None:
            return ""
        host, port = self._sock.getsockname()
        return f"{host}:{port}"

    def step(self, now: float, received: list[tuple[bytes, str]], verifier: Verifier | None,
             poll_interval: float = POLL_INTERVAL) -> tuple[list[bytes], float]:
        """The protocol core; it touches no socket and reads no clock.

        Answers the (datagram, source) pairs ``received`` in arrival order:
        each run of PUTs and POSTs, cut at BATCH_LIMIT and at the block's
        room (`Node.batch_room`), as one batch through `_answer_batch`,
        which seals it as one block; any other datagram (a GET) alone
        through `handle_datagram`, after the writes ahead of it.  Then runs
        `poll_events` if ``now`` has reached the poll time: on the first
        step, then each ``poll_interval``.  Returns the replies, aligned
        with ``received``, and the time by which to call `step` again.  If
        a batch raises (the verifier's worker died), it is undone, and the
        replies of the batches sealed before it in this step are lost with
        the exception; a retransmit of one is answered from the reply cache.
        """
        replies: list[bytes] = []
        while len(replies) < len(received):
            start = run = len(replies)
            if wire.is_write(received[start][0]):
                end = min(len(received), start + min(BATCH_LIMIT, self.node.batch_room()))
                while run < end and wire.is_write(received[run][0]):
                    run += 1
                replies += self._answer_batch(received[start:run], verifier)
            else:
                replies.append(self.handle_datagram(*received[start]))
        if now >= self._next_poll:
            self.poll_events()
            self._next_poll = now + poll_interval
        return replies, self._next_poll

    def serve(self, stop_event: threading.Event, poll_interval: float = POLL_INTERVAL) -> None:
        """The UDP shell around `step`: waits on the socket bound at
        construction until a datagram comes or `step`'s wake-up time, takes
        up to BATCH_LIMIT waiting datagrams, gives them to `step` with the
        time and a `Verifier`, whose worker lives from entry to return, and
        sends the replies.  Returns once ``stop_event`` is set; the socket
        stays bound until close(), which must not be called while the loop
        runs.  Raises ``NotListening`` without a socket, and
        ChildProcessError if the worker dies."""
        sock = self._sock
        if sock is None:
            raise NotListening("gateway is closed" if self.config.listen
                               else "gateway has no listen address")
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        wake_at = time.monotonic()
        with Verifier() as verifier:
            while not stop_event.is_set():
                poller.poll(max(wake_at - time.monotonic(), 0) * 1000)
                received = []
                while len(received) < BATCH_LIMIT and poller.poll(0):
                    received.append(sock.recvfrom(65535))
                requests = [(data, f"{host}:{port}") for data, (host, port) in received]
                replies, wake_at = self.step(time.monotonic(), requests, verifier, poll_interval)
                for reply, (_, addr) in zip(replies, received):
                    sock.sendto(reply, addr)

    def close(self) -> None:
        """Release the socket, the journal and a transport that has a
        ``close``; later calls do nothing."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self.journal.close()
        close_transport = getattr(self.transport, "close", None)
        if close_transport is not None:
            close_transport()
