import os
import socket
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from thingchain import Node, Signer
from thingchain.chain import load_chain
from thingchain.codec import decode_values, encode_values
from thingchain.errors import DuplicateThing, NotListening
from thingchain.gateway import Gateway, GatewayConfig, Journal, wire

_made = []    # gateways built by make_gateway, closed when their test ends


@pytest.fixture(autouse=True)
def _close_made_gateways():
    yield
    while _made:
        _made.pop().close()


def make_gateway(tmp_path, node=None, **config_overrides):
    if node is None:
        council = Signer.from_seed("council")
        node = Node({council.account: 100})
    config = GatewayConfig(
        master_seed="gw-master",
        journal_path=str(tmp_path / "gw.journal"),
        requesters={"ep:council": "council", "ep:auditor": "auditor"},
        **config_overrides,
    )
    gateway = Gateway(node, config)
    _made.append(gateway)
    return gateway


def put_data(gateway, thing_id, milli, unit="C", tick=None, msg_id=1, source=None):
    values = [milli, unit] if tick is None else [milli, unit, tick]
    msg = wire.request(wire.PUT, msg_id, f"/things/{thing_id}/data",
                       encode_values(values))
    reply = gateway.handle_datagram(msg.encode(), source or f"sim:{thing_id}")
    return wire.decode_message(reply)


def get_(gateway, thing_id, what, msg_id=2):
    msg = wire.request(wire.GET, msg_id, f"/things/{thing_id}/{what}")
    return wire.decode_message(gateway.handle_datagram(msg.encode(), "ep:anyone"))


# --- registration -----------------------------------------------------------

def test_register_then_put_get_roundtrip(tmp_path):
    gw = make_gateway(tmp_path)
    gw.register_thing("t17", endpoint="sim:t17")
    reply = put_data(gw, "t17", 21_500, msg_id=77)
    assert reply.msg_type == wire.MSG_ACK
    assert reply.message_id == 77
    reply = get_(gw, "t17", "last")
    assert reply.msg_type == wire.MSG_ACK
    assert decode_values(reply.payload)[0] == 21_500


def test_duplicate_thing_rejected(tmp_path):
    gw = make_gateway(tmp_path)
    gw.register_thing("t17")
    with pytest.raises(DuplicateThing):
        gw.register_thing("t17")


def test_registration_survives_restart(tmp_path):
    node = Node({Signer.from_seed("council").account: 100})
    gw = make_gateway(tmp_path, node=node)
    reg = gw.register_thing("t17", endpoint="sim:t17", sink_uri="coap://sink")
    gw.close()
    gw2 = make_gateway(tmp_path, node=node)
    assert "t17" in gw2.things
    restored = gw2.things["t17"]
    assert restored.feed_addr == reg.feed_addr
    assert restored.actuation_addr == reg.actuation_addr
    assert restored.sink_uri == "coap://sink"
    # the restored gateway can still sign for the thing
    assert put_data(gw2, "t17", 19_000).msg_type == wire.MSG_ACK


def test_unknown_thing_gets_error_with_echoed_id(tmp_path):
    gw = make_gateway(tmp_path)
    reply = get_(gw, "ghost", "last", msg_id=9)
    assert reply.msg_type == wire.MSG_ERROR
    assert reply.message_id == 9
    assert wire.error_reason(reply)[0] == "UnknownThing"


def test_malformed_datagram_gets_error_reply(tmp_path):
    gw = make_gateway(tmp_path)
    reply = wire.decode_message(gw.handle_datagram(b"\x09\x00\x01\xab\xcd", "x"))
    assert reply.msg_type == wire.MSG_ERROR
    assert reply.message_id == 0xABCD
    assert wire.error_reason(reply)[0] == "BadVersion"


def test_get_last_on_empty_feed_is_an_error_reply(tmp_path):
    gw = make_gateway(tmp_path)
    gw.register_thing("t17")
    reply = get_(gw, "t17", "last", msg_id=12)
    assert reply.msg_type == wire.MSG_ERROR
    assert reply.message_id == 12
    assert wire.error_reason(reply)[0] == "EmptyFeed"


def test_non_request_message_rejected(tmp_path):
    gw = make_gateway(tmp_path)
    stray_ack = wire.ack(31, b"")
    reply = wire.decode_message(gw.handle_datagram(stray_ack.encode(), "x"))
    assert reply.msg_type == wire.MSG_ERROR
    assert reply.message_id == 31
    assert wire.error_reason(reply)[0] == "NotARequest"


def test_bad_path_and_bad_query(tmp_path):
    gw = make_gateway(tmp_path)
    gw.register_thing("t17")
    msg = wire.request(wire.GET, 3, "/nonsense")
    reply = wire.decode_message(gw.handle_datagram(msg.encode(), "x"))
    assert wire.error_reason(reply)[0] == "BadPath"
    reply = get_(gw, "t17", "stats?from=zero&to=ten")
    assert wire.error_reason(reply)[0] == "BadQuery"


def test_stats_route(tmp_path):
    gw = make_gateway(tmp_path)
    gw.register_thing("t17")
    for tick, milli in ((1, 10_000), (2, 20_000), (3, 30_000)):
        put_data(gw, "t17", milli, tick=tick)
    reply = get_(gw, "t17", "stats?from=1&to=2")
    vmin, vmax, avg, count = decode_values(reply.payload)
    assert (vmin, vmax, avg, count) == (10_000, 20_000, 15_000, 2)


def test_chain_revert_reason_forwarded(tmp_path):
    gw = make_gateway(tmp_path)
    gw.register_thing("t17")
    put_data(gw, "t17", 1_000, tick=9)
    reply = put_data(gw, "t17", 2_000, tick=3)   # tick goes backwards
    assert reply.msg_type == wire.MSG_ERROR
    assert wire.error_reason(reply)[0] == "TickRegression"


def test_actuate_requires_mapped_and_authorized_requester(tmp_path):
    gw = make_gateway(tmp_path)
    reg = gw.register_thing("t17", endpoint="sim:t17")
    payload = encode_values(["valve_open", b"50"])

    msg = wire.request(wire.POST, 4, "/things/t17/actuate", payload)
    reply = wire.decode_message(gw.handle_datagram(msg.encode(), "ep:unknown"))
    assert wire.error_reason(reply)[0] == "UnknownRequester"

    reply = wire.decode_message(gw.handle_datagram(msg.encode(), "ep:council"))
    assert reply.msg_type == wire.MSG_ERROR
    assert wire.error_reason(reply)[0] == "NotAuthorized"

    gw.allow_requester(reg, "ep:council")
    reply = wire.decode_message(gw.handle_datagram(msg.encode(), "ep:council"))
    assert reply.msg_type == wire.MSG_ACK


def test_translation_soundness_counts(tmp_path):
    """Every accepted write maps to exactly one on-chain receipt."""
    gw = make_gateway(tmp_path)
    reg = gw.register_thing("t17", endpoint="sim:t17")
    gw.allow_requester(reg, "ep:council")
    node = gw.node
    base_txs = sum(len(b.txs) for b in node.blocks) + node.pending_count
    accepted = 0
    for i in range(10):
        reply = put_data(gw, "t17", 1_000 * i, tick=i + 1)
        accepted += reply.msg_type == wire.MSG_ACK
    msg = wire.request(wire.POST, 5, "/things/t17/actuate",
                       encode_values(["go", b""]))
    reply = wire.decode_message(gw.handle_datagram(msg.encode(), "ep:council"))
    accepted += reply.msg_type == wire.MSG_ACK
    # a malformed write must not create a transaction
    bad = wire.request(wire.PUT, 6, "/things/t17/data", b"\xff\xff")
    assert wire.decode_message(gw.handle_datagram(bad.encode(), "x")).msg_type == wire.MSG_ERROR
    total_txs = sum(len(b.txs) for b in node.blocks) + node.pending_count
    assert total_txs - base_txs == accepted == 11


# --- custody -----------------------------------------------------------------

def test_no_signing_material_in_state_or_traffic(tmp_path):
    gw = make_gateway(tmp_path)
    reg = gw.register_thing("t17", endpoint="sim:t17")
    gw.allow_requester(reg, "ep:council")
    put_data(gw, "t17", 21_000, tick=1)
    msg = wire.request(wire.POST, 5, "/things/t17/actuate", encode_values(["go", b""]))
    gw.handle_datagram(msg.encode(), "ep:council")
    gw.poll_events()

    secrets = [gw._thing_signer("t17").private_bytes()]
    for seed in gw.config.requesters.values():
        secrets.append(Signer.from_seed(seed).private_bytes())

    blobs = [gw.node.export_bytes()]
    blobs.extend(data for _, _, data in gw.traffic)
    for address in (reg.feed_addr, reg.actuation_addr):
        for key in gw.node.state_keys(address):
            blobs.append(gw.node.read_state(address, key))
    with open(gw.config.journal_path, "rb") as fh:
        blobs.append(fh.read())
    for secret in secrets:
        assert len(secret) == 32
        for blob in blobs:
            assert secret not in blob


# --- journal -----------------------------------------------------------------

def test_journal_roundtrip_and_truncation(tmp_path):
    journal = Journal(tmp_path / "j")
    journal.append("thing", ["t1", "ep", "sink", b"\x01" * 32, b"\x02" * 32])
    journal.append("cursor", [5, 2])
    journal.close()
    with open(tmp_path / "j", "ab") as fh:
        fh.write(b"\x00\x00\x00\x20partial-frame")   # simulated crash tail
    records = Journal(tmp_path / "j").records()
    assert [r[0] for r in records] == ["thing", "cursor"]
    assert records[1][1:] == [5, 2]


def test_journal_checksum_rejects_corruption(tmp_path):
    journal = Journal(tmp_path / "j")
    journal.append("cursor", [1, 1])
    journal.append("cursor", [2, 2])
    journal.close()
    data = bytearray((tmp_path / "j").read_bytes())
    data[6] ^= 0xFF
    (tmp_path / "j").write_bytes(bytes(data))
    assert Journal(tmp_path / "j").records() == []


def test_journal_record_bytes(tmp_path):
    journal = Journal(tmp_path / "j")
    journal.append("cursor", [5, 2])
    journal.close()
    assert (tmp_path / "j").read_bytes() == bytes.fromhex(
        "00000021"                                    # payload length
        "00000003" "01" "00000006" "637572736f72"     # 3 values: str "cursor"
        "02" "0000000000000005" "02" "0000000000000002"   # int 5, int 2
        "c126db26")                                   # crc32 of the payload
    damaged = bytearray((tmp_path / "j").read_bytes())
    damaged[-5] ^= 0x01                  # int 2 -> 3: still decodes, fails the checksum
    (tmp_path / "j").write_bytes(bytes(damaged))
    assert Journal(tmp_path / "j").records() == []


def test_truncated_journal_keeps_the_records_before_the_cut(tmp_path):
    appended = [["thing", "t1", "sim:t1", "coap://sink", b"\x01" * 32, b"\x02" * 32],
                ["cursor", 4, 0], ["dead", 4, 0, "notify", "coap://sink", "OSError: x"],
                ["cursor", 9, 3]]
    journal = Journal(tmp_path / "j")
    for kind, *values in appended:
        journal.append(kind, values, sync=False)
    journal.close()
    data = (tmp_path / "j").read_bytes()
    ends = []
    for record in appended:
        ends.append((ends[-1] if ends else 0) + 8 + len(encode_values(record)))
    assert ends[-1] == len(data)
    for cut in range(len(data) + 1):
        (tmp_path / "cut").write_bytes(data[:cut])
        whole = sum(end <= cut for end in ends)
        assert Journal(tmp_path / "cut").records() == appended[:whole], cut


journal_values = st.lists(st.integers(-2**63, 2**63 - 1) | st.text(max_size=8)
                          | st.binary(max_size=40), max_size=4)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["thing", "cursor", "dead"]), journal_values),
                min_size=1, max_size=4),
       journal_values)
def test_append_after_a_torn_tail_is_read_back(appended, later):
    """Cut the journal at any byte, as a crash mid-append does: a restart
    that appends reads back the intact records and then the new one."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "j")
        journal = Journal(path)
        ends = []
        for kind, values in appended:
            journal.append(kind, values, sync=False)
            ends.append(os.path.getsize(path))
        journal.close()
        with open(path, "rb") as fh:
            data = fh.read()
        for cut in range(len(data) + 1):
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            restarted = Journal(path)
            restarted.append("cursor", later, sync=False)
            restarted.close()
            intact = [[kind, *values] for (kind, values), end in zip(appended, ends)
                      if end <= cut]
            assert Journal(path).records() == intact + [["cursor", *later]], cut


# --- event watcher -----------------------------------------------------------

def _actuate(gw, reg, action="valve_open", source="ep:council"):
    msg = wire.request(wire.POST, 8, f"/things/{reg.thing_id}/actuate",
                       encode_values([action, b""]))
    reply = wire.decode_message(gw.handle_datagram(msg.encode(), source))
    assert reply.msg_type == wire.MSG_ACK
    return reply


def test_watcher_delivers_actuation_once(tmp_path):
    gw = make_gateway(tmp_path)
    reg = gw.register_thing("t17", endpoint="sim:t17")
    gw.allow_requester(reg, "ep:council")
    _actuate(gw, reg)
    assert gw.poll_events() == 1
    assert gw.poll_events() == 0        # cursor advanced, no redelivery
    (endpoint, data), = gw.transport.datagrams
    assert endpoint == "sim:t17"
    delivered = wire.decode_message(data)
    assert delivered.path == "/things/t17/event"
    height, tx_index, intra, action, args, caller = decode_values(delivered.payload)
    assert action == "valve_open"



def test_cursor_records_are_flushed_but_not_fsynced(tmp_path, monkeypatch):
    import thingchain.gateway.journal as journal_module

    synced = []
    monkeypatch.setattr(journal_module.os, "fsync", synced.append)
    gw = make_gateway(tmp_path)
    reg = gw.register_thing("t17", endpoint="sim:t17")
    assert len(synced) == 1                  # the registration is durable at once
    gw.allow_requester(reg, "ep:council")
    _actuate(gw, reg)
    assert gw.poll_events() == 1
    assert len(synced) == 1                  # cursor moves are not fsynced
    # ...but they are written: a second reader sees them while the gateway is open
    kinds = [r[0] for r in Journal(gw.config.journal_path).records()]
    assert kinds[0] == "thing" and kinds[1:] and set(kinds[1:]) == {"cursor"}
    gw.close()

def test_watcher_delivers_notify_to_uri_sink(tmp_path):
    gw = make_gateway(tmp_path)
    node = gw.node
    council = Signer.from_seed("council")
    node.create_account("council")
    _, topic = node.deploy(council, "topic")
    node.call(council, topic, "subscribe",
              encode_values(["building/#", 1, b"coap://council/inbox"]))
    node.call(council, topic, "publish", encode_values(["building/3", b"hot"]))
    node.seal_block()
    assert gw.poll_events() == 1
    (uri, payload), = gw.transport.uri_payloads
    assert uri == "coap://council/inbox"
    assert decode_values(payload)[4] == "building/3"


def test_watcher_restart_loses_no_events(tmp_path):
    """Kill the gateway between deliveries; the successor may redeliver but
    never skips, and the receiver dedup set equals the on-chain event set."""
    node = Node({Signer.from_seed("council").account: 100})
    gw = make_gateway(tmp_path, node=node)
    reg = gw.register_thing("t17", endpoint="sim:t17")
    gw.allow_requester(reg, "ep:council")
    _actuate(gw, reg, action="a1")
    _actuate(gw, reg, action="a2")
    gw.poll_events()
    gw.close()                                   # crash after first poll
    gw2 = make_gateway(tmp_path, node=node)      # successor reads the journal
    _actuate(gw2, reg, action="a3")
    gw2.poll_events()

    received = {}
    for _, data in gw.transport.datagrams + gw2.transport.datagrams:
        msg = wire.decode_message(data)
        height, tx_index, intra, action, args, caller = decode_values(msg.payload)
        received.setdefault((height, tx_index), action)   # receiver-side dedup

    onchain = {}
    for block in node.blocks:
        for tx_index, receipt in enumerate(block.receipts):
            for event in receipt.events:
                if event.name == "Actuate":
                    onchain[(block.height, tx_index)] = decode_values(event.payload)[0]
    assert received == onchain
    assert sorted(onchain.values()) == ["a1", "a2", "a3"]


def test_restart_on_an_older_chain_skips_no_event(tmp_path):
    """A journaled cursor past the tip of a node rebuilt from an older
    export is brought back to that tip, so the events of the blocks sealed
    again at those heights are delivered."""
    gw = make_gateway(tmp_path)
    reg = gw.register_thing("t17", endpoint="sim:t17")
    gw.allow_requester(reg, "ep:council")
    saved = gw.node.export_bytes()               # height 2
    for action in ("a1", "a2", "a3"):
        _actuate(gw, reg, action=action)
    assert gw.poll_events() == 3
    assert gw.cursor == (5, 0)
    gw.close()
    node = Node.from_chain(*load_chain(saved))
    gw2 = make_gateway(tmp_path, node=node)
    assert gw2.cursor == (2, 0)
    _actuate(gw2, reg, action="a4")
    assert node.height == 3
    assert gw2.poll_events() == 1
    (endpoint, data), = gw2.transport.datagrams
    assert endpoint == "sim:t17"
    assert decode_values(wire.decode_message(data).payload)[:4] == [3, 0, 0, "a4"]


def test_delivery_failures_dead_letter_and_cursor_advances(tmp_path):
    gw = make_gateway(tmp_path)
    reg = gw.register_thing("t17", endpoint="sim:t17")
    gw.allow_requester(reg, "ep:council")
    _actuate(gw, reg)
    gw.transport.fail_remaining["sim:t17"] = 99     # every attempt fails
    backoffs = []
    gw.sleep_fn = backoffs.append
    assert gw.poll_events() == 0
    assert backoffs == [1, 2, 4, 8]                 # capped exponential, 5 attempts
    assert len(gw.dead_letters) == 1
    assert gw.dead_letters[0][2] == "actuate"
    # the cursor moved past the poisoned event
    gw.transport.fail_remaining.clear()
    assert gw.poll_events() == 0


def test_transient_failure_retried_successfully(tmp_path):
    gw = make_gateway(tmp_path)
    reg = gw.register_thing("t17", endpoint="sim:t17")
    gw.allow_requester(reg, "ep:council")
    _actuate(gw, reg)
    gw.transport.fail_remaining["sim:t17"] = 3      # fails 3x, then succeeds
    assert gw.poll_events() == 1
    assert gw.dead_letters == []


# --- UDP serving ---------------------------------------------------------------

def test_udp_round_trip(tmp_path):
    gw = make_gateway(tmp_path, listen="127.0.0.1:18683")
    gw.register_thing("t17")
    stop = threading.Event()
    thread = threading.Thread(target=gw.serve, args=(stop,), daemon=True)
    thread.start()
    try:
        client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        client.settimeout(2)
        request = wire.request(wire.PUT, 11, "/things/t17/data",
                               encode_values([21_500, "C", 1]))
        deadline = time.time() + 2
        while True:
            try:
                client.sendto(request.encode(), ("127.0.0.1", 18683))
                data, _ = client.recvfrom(65535)
                break
            except socket.timeout:
                if time.time() > deadline:
                    raise
        reply = wire.decode_message(data)
        assert reply.msg_type == wire.MSG_ACK
        assert reply.message_id == 11
    finally:
        stop.set()
        thread.join(timeout=3)
        client.close()


def test_datagram_sent_before_serve_is_answered(tmp_path):
    gw = make_gateway(tmp_path, listen="127.0.0.1:0")
    gw.register_thing("t17")
    host, port = gw.address.rsplit(":", 1)
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.settimeout(2)
    request = wire.request(wire.PUT, 12, "/things/t17/data",
                           encode_values([21_500, "C", 1]))
    client.sendto(request.encode(), (host, int(port)))     # no serve loop yet
    stop = threading.Event()
    thread = threading.Thread(target=gw.serve, args=(stop,), daemon=True)
    thread.start()
    try:
        data, _ = client.recvfrom(65535)
    finally:
        stop.set()
        thread.join(timeout=3)
        client.close()
        gw.close()
    assert not thread.is_alive()
    reply = wire.decode_message(data)
    assert reply.msg_type == wire.MSG_ACK
    assert reply.message_id == 12


def test_socket_lifecycle_errors(tmp_path):
    unbound = make_gateway(tmp_path)
    assert unbound.address == ""
    with pytest.raises(NotListening):
        unbound.serve(threading.Event())
    unbound.close()
    unbound.close()

    bound = make_gateway(tmp_path, listen="127.0.0.1:0")
    # the address is taken: the constructor fails before touching the node
    node = Node({})
    with pytest.raises(OSError):
        make_gateway(tmp_path, node=node, listen=bound.address)
    assert node.directory == {}
    bound.close()
    bound.close()
    with pytest.raises(NotListening):
        bound.serve(threading.Event())


def test_watcher_delivers_during_a_steady_put_stream(tmp_path):
    """An authorised POST's event reaches the transport within a few poll
    intervals while PUTs keep arriving about every 15 ms."""
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.bind(("127.0.0.1", 0))
    client.settimeout(2)
    client_endpoint = "127.0.0.1:%d" % client.getsockname()[1]
    council = Signer.from_seed("council")
    config = GatewayConfig(master_seed="gw-master", journal_path=str(tmp_path / "gw.journal"),
                           listen="127.0.0.1:0", requesters={client_endpoint: "council"})
    gw = Gateway(Node({council.account: 100}), config)
    reg = gw.register_thing("t17", endpoint="sim:t17")
    gw.allow_requester(reg, client_endpoint)
    host, port = gw.address.rsplit(":", 1)
    server = (host, int(port))
    poll_interval = 0.05
    stop = threading.Event()
    thread = threading.Thread(target=gw.serve, args=(stop, poll_interval), daemon=True)
    thread.start()

    def request(msg):
        client.sendto(msg.encode(), server)
        return wire.decode_message(client.recvfrom(65535)[0])

    try:
        post = wire.request(wire.POST, 1, "/things/t17/actuate",
                            encode_values(["valve_open", b"50"]))
        assert request(post).msg_type == wire.MSG_ACK
        posted = time.monotonic()
        delivered_after = None
        for msg_id in range(2, 102):                      # about 1.5 s of PUTs
            put = wire.request(wire.PUT, msg_id, "/things/t17/data",
                               encode_values([msg_id, "C"]))
            assert request(put).msg_type == wire.MSG_ACK
            if gw.transport.datagrams:
                delivered_after = time.monotonic() - posted
                break
            time.sleep(0.015)
    finally:
        stop.set()
        thread.join(timeout=3)
        client.close()
        gw.close()
    assert not thread.is_alive()
    assert delivered_after is not None, "no event delivered during the PUT stream"
    assert delivered_after < 5 * poll_interval
    (endpoint, data), = gw.transport.datagrams
    assert endpoint == "sim:t17"
    assert decode_values(wire.decode_message(data).payload)[3] == "valve_open"


def test_traffic_log_stays_at_its_bound(tmp_path):
    from thingchain.gateway.service import TRAFFIC_LOG_SIZE

    gw = make_gateway(tmp_path)
    for msg_id in range(TRAFFIC_LOG_SIZE):      # a request and a reply each
        gw.handle_datagram(b"\x00", f"sim:{msg_id}")
    assert len(gw.traffic) == TRAFFIC_LOG_SIZE
    assert gw.traffic[0][:2] == ("in", f"sim:{TRAFFIC_LOG_SIZE // 2}")
    assert gw.traffic[-1][:2] == ("out", f"sim:{TRAFFIC_LOG_SIZE - 1}")
    gw.close()


def test_uri_deliveries_and_dead_letters_stay_at_their_bounds(tmp_path, monkeypatch):
    from thingchain.gateway import service
    from thingchain.gateway.service import TRAFFIC_LOG_SIZE, UdpTransport

    transport = UdpTransport()
    try:
        for n in range(TRAFFIC_LOG_SIZE + 5):
            transport.deliver_uri(f"coap://sink/{n}", b"")
        assert len(transport.uri_payloads) == TRAFFIC_LOG_SIZE
        assert transport.uri_payloads[0][0] == "coap://sink/5"
    finally:
        transport.close()

    monkeypatch.setattr(service, "DEAD_LETTER_LIMIT", 3)
    gw = make_gateway(tmp_path)
    reg = gw.register_thing("t17", endpoint="sim:t17")
    gw.allow_requester(reg, "ep:council")
    held = gw.dead_letters
    gw.transport.fail_remaining["sim:t17"] = 10**6     # every attempt fails
    for n in range(5):
        _actuate(gw, reg, action=f"a{n}")
        assert gw.poll_events() == 0
    assert gw.dead_letters is held and len(held) == 3
    newest = [entry[:2] for entry in held]
    gw.close()
    successor = make_gateway(tmp_path, node=gw.node)      # recovery trims too
    assert [entry[:2] for entry in successor.dead_letters] == newest
