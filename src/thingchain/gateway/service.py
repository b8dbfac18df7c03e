"""The gateway: terminates the datagram protocol, custodies Thing keys, turns
requests into signed transactions and chain events into outbound deliveries.

Things never see key material: every signing key is derived from the
gateway's master seed and the thing id when the thing is registered or
recovered, held in memory only, and only ids and addresses are persisted.
Registrations, the event cursor and dead-lettered deliveries live in a
checksummed append-only journal, so a restarted gateway resumes without
skipping on-chain events (receivers deduplicate by (height, tx_index)).
"""

from __future__ import annotations

import json
import socket as socket_module
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from ..codec import decode_values, encode_values
from ..contracts.actuation import DENIED, request_outcome
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
BATCH_LIMIT = 32              # most PUT/POST datagrams serve() answers as one batch
REPLY_CACHE_SIZE = 1024       # most recent ACKed writes whose replies answer retransmits


@dataclass
class GatewayConfig:
    master_seed: str
    journal_path: str
    listen: str = ""                                 # "host:port"; "" = no UDP endpoint
    requesters: dict = field(default_factory=dict)   # endpoint -> account seed
    root_zones: list = field(default_factory=list)   # zone contract addresses
    genesis: dict = field(default_factory=dict)      # account seed -> tokens

    @classmethod
    def from_file(cls, path) -> "GatewayConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls(
            master_seed=raw["master_seed"],
            journal_path=raw["journal"],
            listen=raw.get("listen", "127.0.0.1:5683"),
            requesters=dict(raw.get("requesters", {})),
            root_zones=[bytes.fromhex(a) for a in raw.get("root_zones", [])],
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

    def __init__(self, node, config: GatewayConfig, transport=None,
                 sleep_fn=None, record_traffic: bool = True):
        self._sock = _bind_udp(config.listen) if config.listen else None
        self.node = node
        self.config = config
        self.transport = transport if transport is not None else RecordingTransport()
        self.sleep_fn = sleep_fn
        self.journal = Journal(config.journal_path)
        self.things: dict[str, ThingRegistration] = {}
        self.cursor = (0, -1)                     # last fully processed (height, tx_index)
        self.dead_letters: list[tuple] = []
        self.traffic: deque[tuple[str, str, bytes]] | None = (
            deque(maxlen=TRAFFIC_LOG_SIZE) if record_traffic else None)
        self._msg_counter = 0
        self._replies: OrderedDict[tuple[str, bytes], bytes] = OrderedDict()
        self._batch_replies: list[tuple[str, bytes]] = []   # cached by the open serve batch
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

    def register_thing(self, thing_id: str, endpoint: str = "", sink_uri: str = "",
                       feed_addr: bytes | None = None,
                       actuation_addr: bytes | None = None) -> ThingRegistration:
        """Create the thing's account, deploy (or bind) its contracts and
        persist the registration."""
        with self._lock:
            if thing_id in self.things:
                raise DuplicateThing(thing_id)
            signer = self._create_thing_account(thing_id)
            if feed_addr is None:
                receipt, feed_addr = self.node.deploy(signer, "feed")
                if not receipt.ok:
                    raise ThingChainError(f"feed deploy reverted: {receipt.reason}")
            if actuation_addr is None:
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
        reg = self.things[reg_or_thing_id] if isinstance(reg_or_thing_id, str) else reg_or_thing_id
        requester = self._requesters[endpoint]
        signer = self._thing_signer(reg.thing_id)
        receipt = self.node.call(signer, reg.actuation_addr, "allow_actor",
                                 encode_values([requester.account]))
        self.node.seal_block()
        if not receipt.ok:
            raise ThingChainError(f"allow_actor reverted: {receipt.reason}")

    # ------------------------------------------------------------------
    # request handling

    def handle_datagram(self, data: bytes, source: str = "") -> bytes:
        """Translate one inbound datagram; always returns a reply datagram.

        A datagram byte-identical to an ACKed PUT or POST from the same source
        (the message id is part of the bytes) is a retransmit: it gets the
        same reply and is not applied again.  The newest REPLY_CACHE_SIZE such
        replies are kept, in memory only.
        """
        with self._lock:
            reply = self._replies.get((source, data))
            if reply is None:
                reply = self._translate(data, source)
            if not self.node.in_batch:      # a batch logs what it sends at its end
                self._log_exchange(data, source, reply)
        return reply

    def _log_exchange(self, data: bytes, source: str, reply: bytes) -> None:
        if self.traffic is not None:
            self.traffic.append(("in", source, data))
            self.traffic.append(("out", source, reply))

    def _translate(self, data: bytes, source: str) -> bytes:
        try:
            msg = wire.decode_message(data)
        except WireError as exc:
            return wire.error(exc.message_id, exc.reason).encode()
        if msg.msg_type != wire.MSG_REQUEST:
            return wire.error(msg.message_id, "NotARequest").encode()
        try:
            reply = self._route(msg, source)
        except (Revert, WireError) as exc:
            reply = wire.error(msg.message_id, exc.reason)
        except ThingChainError as exc:
            # unreachable for well-registered things, but never go silent
            reply = wire.error(msg.message_id, type(exc).__name__)
        encoded = reply.encode()
        if reply.msg_type == wire.MSG_ACK and msg.code in (wire.PUT, wire.POST):
            self._replies[(source, data)] = encoded
            if len(self._replies) > REPLY_CACHE_SIZE:
                self._replies.popitem(last=False)
            if self.node.in_batch:
                self._batch_replies.append((source, data))
        return encoded

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
            return self._put_data(msg, reg)
        if msg.code == wire.POST and action == "actuate":
            return self._post_actuate(msg, reg, source)
        raise WireError("BadPath", msg.message_id)

    @staticmethod
    def _parse_window(query: str, msg_id: int) -> tuple[int, int]:
        params = {}
        for pair in query.split("&"):
            key, eq, value = pair.partition("=")
            if eq:
                params[key] = value
        try:
            return int(params["from"]), int(params["to"])
        except (KeyError, ValueError):
            raise WireError("BadQuery", msg_id) from None

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
        if not isinstance(value, int) or isinstance(value, bool) or not isinstance(values[1], str):
            raise WireError("BadPayload", msg.message_id)
        tick = values[2] if len(values) == 3 else self.node.height + 1
        if not isinstance(tick, int) or isinstance(tick, bool) or tick < 0:
            raise WireError("BadPayload", msg.message_id)
        return value, values[1], tick

    def _put_data(self, msg: wire.GatewayMessage, reg: ThingRegistration) -> wire.GatewayMessage:
        value, unit, tick = self._decode_put_payload(msg)
        receipt = self._call(self._thing_signer(reg.thing_id), reg.feed_addr, "push",
                             [value, unit, tick])
        if not receipt.ok:
            return wire.error(msg.message_id, receipt.reason)
        return wire.ack(msg.message_id, encode_values(["ok", receipt.return_value]))

    def _post_actuate(self, msg: wire.GatewayMessage, reg: ThingRegistration,
                      source: str) -> wire.GatewayMessage:
        requester = self._requesters.get(source)
        if requester is None:
            raise WireError("UnknownRequester", msg.message_id)
        try:
            action, args = decode_values(msg.payload)
            if not isinstance(action, str) or not isinstance(args, bytes):
                raise ValueError
        except Exception:
            raise WireError("BadPayload", msg.message_id) from None
        receipt = self._call(requester, reg.actuation_addr, "request", [action, args])
        if not receipt.ok:
            return wire.error(msg.message_id, receipt.reason)
        if request_outcome(receipt.return_value) == DENIED:
            return wire.error(msg.message_id, "NotAuthorized")
        return wire.ack(msg.message_id, encode_values(["ok", receipt.return_value]))

    def _call(self, signer: Signer, address: bytes, method: str, args: list):
        """Submit one call; outside a serve batch it is sealed in its own block."""
        receipt = self.node.call(signer, address, method, encode_values(args))
        if not self.node.in_batch:
            self.node.seal_block()
        return receipt

    def _answer_batch(self, writes: list[tuple[bytes, str]], verifier: Verifier) -> list[bytes]:
        """Answer (datagram, source) writes as one batch sealed as one block.

        Its traffic is logged once it is sealed.  If a signature does not
        verify, nothing of the batch is sealed, cached or logged, and each
        datagram is answered on its own, verified in process, so the bad one
        gets BadSignature.
        """
        with self._lock:
            try:
                with self.node.batch(verifier):
                    replies = [self.handle_datagram(data, source) for data, source in writes]
            except BaseException as exc:
                for key in self._batch_replies:
                    self._replies.pop(key, None)
                if not isinstance(exc, BadSignature):
                    raise
                return [self.handle_datagram(data, source) for data, source in writes]
            finally:
                self._batch_replies.clear()
            for (data, source), reply in zip(writes, replies):
                self._log_exchange(data, source, reply)
            return replies

    # ------------------------------------------------------------------
    # event watching

    def _next_msg_id(self) -> int:
        self._msg_counter = (self._msg_counter + 1) & 0xFFFF
        return self._msg_counter

    def _dead_letter(self, entry: tuple) -> None:
        """Keep the newest DEAD_LETTER_LIMIT entries; the list is trimmed in
        place, so holders of ``dead_letters`` see the same list."""
        self.dead_letters.append(entry)
        del self.dead_letters[:-DEAD_LETTER_LIMIT]

    def _deliver_with_retry(self, describe: tuple, destination: str, data: bytes,
                            deliver) -> int:
        """Call ``deliver(destination, data)`` until it returns, with capped
        exponential backoff; returns 1, or 0 once the event is dead-lettered."""
        backoff = RETRY_BASE_TICKS
        for attempt in range(1, MAX_DELIVERY_ATTEMPTS + 1):
            try:
                if self.traffic is not None:
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
            if self.node.blocks:
                tip = self.node.blocks[-1]
                if self.cursor < (tip.height, len(tip.txs) - 1):
                    self.cursor = (tip.height, len(tip.txs) - 1)
                    self.journal.append("cursor", list(self.cursor), sync=False)
        return delivered

    def _deliver_actuation(self, reg: ThingRegistration, event, intra: int) -> int:
        action, args, caller = decode_values(event.payload)
        payload = encode_values([event.height, event.tx_index, intra, action, args, caller])
        datagram = wire.request(wire.POST, self._next_msg_id(),
                                f"/things/{reg.thing_id}/event", payload).encode()
        return self._deliver_with_retry((event.height, event.tx_index, "actuate", reg.thing_id),
                                        reg.endpoint, datagram, self.transport.deliver_datagram)

    def _deliver_notification(self, event, intra: int) -> int:
        """Returns deliveries (0/1), or -1 when the sink is on-chain only."""
        from ..contracts.topic import SINK_URI

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

    def serve(self, stop_event: threading.Event, poll_interval: float = 0.05) -> None:
        """Blocking UDP loop; also drives the event watcher.

        Answers datagrams on the socket bound at construction, including any
        that arrived before the loop started.  Writes are answered in
        batches: a PUT or POST, with the PUTs and POSTs already waiting
        behind it (at most BATCH_LIMIT, and no more than the block's
        ``tx_cap`` leaves room for), runs as one `Node.batch`, whose
        signatures a `Verifier` worker process checks while the batch
        executes.  The batch seals one block, and only then are its replies
        sent.  Any other datagram (a GET) ends the batch and is answered
        after the seal, so it sees the batch's writes.  If a signature does
        not verify, the batch is undone and its datagrams are answered one
        at a time, verified in process.  The worker lives from entry to
        return; if it dies, the open batch is undone and ChildProcessError
        is raised.

        Runs poll_events() each time ``poll_interval`` has passed since the
        last poll, whether or not datagrams kept arriving.  Returns once
        ``stop_event`` is set; the socket stays bound until close(), which
        must not be called while the loop runs.  Raises ``NotListening``
        when the gateway was built without a listen address or has been
        closed.
        """
        sock = self._sock
        if sock is None:
            raise NotListening("gateway is closed" if self.config.listen
                               else "gateway has no listen address")
        sock.settimeout(poll_interval)
        next_poll = time.monotonic() + poll_interval
        with Verifier() as verifier:
            while not stop_event.is_set():
                try:
                    received = sock.recvfrom(65535)
                except socket_module.timeout:
                    pass
                else:
                    self._serve_waiting(sock, verifier, received)
                now = time.monotonic()
                if now >= next_poll:
                    self.poll_events()
                    next_poll = now + poll_interval

    def _serve_waiting(self, sock, verifier: Verifier, received: tuple) -> None:
        """Answer ``received`` and the writes already waiting behind it as one
        batch, then the datagram that ended the batch, if it is not a write."""
        room = min(BATCH_LIMIT, self.node.batch_room())
        writes = []
        timeout = sock.gettimeout()
        sock.setblocking(False)
        try:
            while received is not None and wire.is_write(received[0]):
                writes.append(received)
                try:
                    received = sock.recvfrom(65535) if len(writes) < room else None
                except BlockingIOError:
                    received = None
        finally:
            sock.settimeout(timeout)
        if writes:
            replies = self._answer_batch(
                [(data, f"{addr[0]}:{addr[1]}") for data, addr in writes], verifier)
            for (_, addr), reply in zip(writes, replies):
                sock.sendto(reply, addr)
        if received is not None:
            data, addr = received
            sock.sendto(self.handle_datagram(data, f"{addr[0]}:{addr[1]}"), addr)

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
