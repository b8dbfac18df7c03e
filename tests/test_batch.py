"""Batched execution: `Node.batch` with its `Verifier` worker, the gateway's
batched serve loop, and the reply cache that makes retransmits idempotent."""

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from thingchain import Node, Signer, ledger
from thingchain.chain import make_transaction
from thingchain.codec import decode_values, encode_values
from thingchain.contracts.feed import MEASUREMENT_PREFIX, decode_measurement
from thingchain.errors import BadSignature, SubmitError
from thingchain.gateway import Gateway, GatewayConfig, wire
from thingchain.gateway import service
from thingchain.ledger import Verifier

from test_replay_lanes import lane_counting_verify

THINGS = ("t0", "t1", "t2", "t3")


class ForgingSigner(Signer):
    """A broken signer: its signatures never verify."""

    def sign(self, message: bytes) -> bytes:
        return bytes(64)


def counting_verify(monkeypatch):
    """Count ``verify_signature`` calls in this process and in workers forked
    after this call."""
    calls = multiprocessing.Value("i", 0)
    real_verify = ledger.verify_signature

    def verify(*args):
        with calls.get_lock():
            calls.value += 1
        return real_verify(*args)

    monkeypatch.setattr(ledger, "verify_signature", verify)
    return calls


def dying_verify(monkeypatch):
    """Make every forked verifier exit with code 3 at its first signature."""
    parent = os.getpid()

    def verify(*args):
        if os.getpid() != parent:
            os._exit(3)
        return True

    monkeypatch.setattr(ledger, "verify_signature", verify)


# --- Node.batch -----------------------------------------------------------------

def push(signer, node, feed, value):
    return make_transaction(signer, node.next_nonce(signer.account), feed, "push",
                            encode_values([value, "C", 1]))


@pytest.fixture
def fed(node, alice):
    _, feed = node.deploy(alice, "feed")
    node.seal_block()
    return node, feed


def test_batch_seals_one_block_and_verifies_each_signature_once(fed, alice, monkeypatch):
    node, feed = fed
    calls = counting_verify(monkeypatch)
    height = node.height
    with Verifier() as verifier:
        with node.batch(verifier):
            receipts = [node.submit(push(alice, node, feed, v)) for v in range(20)]
        assert node.height == height + 1
        assert [int.from_bytes(r.return_value, "big") for r in receipts] == list(range(20))
        assert len(node.blocks[-1].txs) == 20 and node.pending_count == 0
        with node.batch(verifier):       # nothing staged: no block
            pass
    assert node.height == height + 1
    assert calls.value == 20
    assert multiprocessing.active_children() == []


def test_batch_with_a_forged_signature_leaves_the_node_as_it_was(fed, alice, bob):
    node, feed = fed
    node.transfer(bob, alice.account, 5)          # pending before the batch
    digest, height, nonce = node.state_digest(), node.height, node.next_nonce(alice.account)
    with Verifier() as verifier:
        with pytest.raises(BadSignature, match="batched transaction 2 does not verify"):
            with node.batch(verifier):
                node.submit(push(alice, node, feed, 1))
                node.submit(push(alice, node, feed, 2))
                node.submit(push(ForgingSigner.from_seed("alice"), node, feed, 3))
                node.submit(push(alice, node, feed, 4))
        assert (node.state_digest(), node.height, node.pending_count) == (digest, height, 1)
        assert node.next_nonce(alice.account) == nonce
        with node.batch(verifier):       # the verifier is still in step
            node.submit(push(alice, node, feed, 5))
    assert [len(block.txs) for block in node.blocks[height + 1:]] == [2]
    assert decode_values(node.static(feed, "last", []))[0] == 5


def test_batch_never_fills_a_block_past_its_cap(alice):
    node = Node({alice.account: 10}, tx_cap=3)
    node.create_account("alice")
    _, feed = node.deploy(alice, "feed")
    with Verifier() as verifier:
        with node.batch(verifier):
            node.submit(push(alice, node, feed, 1))
            node.submit(push(alice, node, feed, 2))
            with pytest.raises(SubmitError, match="full"):
                node.submit(push(alice, node, feed, 3))
            with pytest.raises(RuntimeError):
                node.seal_block()
    assert len(node.blocks[-1].txs) == 3


@pytest.mark.parametrize("slow", ["worker", "main"])
def test_batch_past_the_look_ahead_verifies_each_signature_once(fed, alice, monkeypatch, slow):
    """A batch of more signatures than the worker is kept ahead: each is
    verified once, and while a slow worker lags this process verifies the
    signatures not yet sent to it."""
    node, feed = fed
    count = 150
    assert count > ledger._REPLAY_AHEAD
    calls = lane_counting_verify(monkeypatch, slow)
    with Verifier() as verifier:
        with node.batch(verifier):
            for value in range(count):
                node.submit(push(alice, node, feed, value))
    assert len(node.blocks[-1].txs) == count and node.pending_count == 0
    assert calls["main"].value + calls["worker"].value == count
    assert calls["worker"].value > 0
    if slow == "worker":
        assert calls["main"].value > 0
    assert multiprocessing.active_children() == []


def test_batch_of_one_and_empty_batch(fed, alice, monkeypatch):
    node, feed = fed
    calls = counting_verify(monkeypatch)
    height = node.height
    with Verifier() as verifier:
        with node.batch(verifier):
            pass
        assert (node.height, node.pending_count) == (height, 0)
        with node.batch(verifier):
            node.submit(push(alice, node, feed, 7))
        assert node.height == height + 1 and len(node.blocks[-1].txs) == 1
        with pytest.raises(BadSignature, match="batched transaction 0 does not verify"):
            with node.batch(verifier):
                node.submit(push(ForgingSigner.from_seed("alice"), node, feed, 8))
        assert (node.height, node.pending_count) == (height + 1, 0)
        with node.batch(verifier):       # the verifier is still in step
            node.submit(push(alice, node, feed, 9))
    assert decode_values(node.static(feed, "last", []))[0] == 9
    assert calls.value == 3


def process_state(pid: int) -> str:
    """The state letter in /proc/<pid>/stat, or "gone" once it is reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return "gone"


def test_verifier_worker_exits_when_its_parent_is_killed():
    src = os.path.dirname(os.path.dirname(ledger.__file__))
    holder_code = ("import time\nfrom thingchain.ledger import Verifier\n"
                   "verifier = Verifier()\nprint(verifier._worker.pid, flush=True)\n"
                   "time.sleep(60)\n")
    with subprocess.Popen([sys.executable, "-c", holder_code], stdout=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as holder:
        worker = int(holder.stdout.readline())
        holder.kill()
    deadline = time.monotonic() + 2
    while process_state(worker) not in ("gone", "Z") and time.monotonic() < deadline:
        time.sleep(0.01)
    state = process_state(worker)
    if state not in ("gone", "Z"):
        os.kill(worker, signal.SIGKILL)
    assert state in ("gone", "Z")


def test_verifier_reports_a_dead_worker(monkeypatch, alice):
    dying_verify(monkeypatch)
    tx = make_transaction(alice, 1, None, "feed")
    with Verifier() as verifier:
        verifier.send([ledger._signed(tx)])
        with pytest.raises(ChildProcessError, match="exit code 3"):
            verifier.receive()
    assert multiprocessing.active_children() == []


# --- the gateway -----------------------------------------------------------------

def build_gateway(directory, listen="", tx_cap=1024):
    council = Signer.from_seed("council")
    config = GatewayConfig(master_seed="gw-master",
                           journal_path=os.path.join(directory, f"gw-{listen or 'local'}.journal"),
                           listen=listen, requesters={"ep:council": "council"})
    gateway = Gateway(Node({council.account: 100}, tx_cap=tx_cap), config)
    for thing_id in THINGS:
        gateway.register_thing(thing_id)
    return gateway


def put(thing_id, msg_id, value):
    return wire.request(wire.PUT, msg_id, f"/things/{thing_id}/data",
                        encode_values([value, "C"])).encode()


def put_index(reply):
    """The feed index an ACKed PUT reply carries."""
    status, index = decode_values(wire.decode_message(reply).payload)
    assert status == "ok"
    return int.from_bytes(index, "big")


def get_last(thing_id, msg_id):
    return wire.request(wire.GET, msg_id, f"/things/{thing_id}/last").encode()


@pytest.fixture
def client():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(5)
    yield sock
    sock.close()


def source_of(sock):
    return "%s:%d" % sock.getsockname()


def serve_waiting(gateway, client, datagrams):
    """Send the datagrams before serve() runs, so that they wait in the socket
    and are served as batches; returns the replies in the order they came."""
    host, port = gateway.address.rsplit(":", 1)
    for data in datagrams:
        client.sendto(data, (host, int(port)))
    stop = threading.Event()
    thread = threading.Thread(target=gateway.serve, args=(stop,), daemon=True)
    thread.start()
    try:
        return [client.recvfrom(65535)[0] for _ in datagrams]
    finally:
        stop.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert multiprocessing.active_children() == []


def feed_samples(gateway, thing_id):
    """(index key, value, unit, tick) of every sample in the thing's feed."""
    node, feed = gateway.node, gateway.things[thing_id].feed_addr
    return [(key, *decode_measurement(node.read_state(feed, key)))
            for key in node.state_keys(feed, MEASUREMENT_PREFIX)]


def test_retransmitted_put_is_applied_once(tmp_path):
    gateway = build_gateway(str(tmp_path))
    try:
        data = put("t0", 7, 21_500)
        replies = [gateway.handle_datagram(data, "sim:t0") for _ in range(3)]
        assert replies[0] == replies[1] == replies[2]
        assert wire.decode_message(replies[0]).msg_type == wire.MSG_ACK
        stats = wire.request(wire.GET, 8, "/things/t0/stats?from=0&to=1000").encode()
        assert decode_values(wire.decode_message(
            gateway.handle_datagram(stats, "sim:t0")).payload)[3] == 1
        # the same bytes from another source are another request
        assert put_index(gateway.handle_datagram(data, "sim:other")) == 1
    finally:
        gateway.close()


def test_reply_cache_stays_at_its_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(service, "REPLY_CACHE_SIZE", 8)
    gateway = build_gateway(str(tmp_path))
    try:
        for msg_id in range(20):
            gateway.handle_datagram(put("t0", msg_id, msg_id), "sim:t0")
        assert len(gateway._replies) == 8
        # the oldest replies were dropped, so their retransmits apply again
        assert put_index(gateway.handle_datagram(put("t0", 0, 0), "sim:t0")) == 20
        assert put_index(gateway.handle_datagram(put("t0", 19, 19), "sim:t0")) == 19
        assert len(gateway._replies) == 8
    finally:
        gateway.close()


def test_serve_batches_writes_and_a_read_sees_them(tmp_path, client):
    gateway = build_gateway(str(tmp_path), listen="127.0.0.1:0")
    try:
        height = gateway.node.height
        retransmit = put("t1", 2, 200)
        datagrams = [put("t0", 1, 100), retransmit, put("t0", 3, 300), retransmit,
                     get_last("t0", 4), put("t1", 5, 500)]
        replies = serve_waiting(gateway, client, datagrams)
        assert [put_index(reply) for reply in replies[:4]] == [0, 0, 1, 0]
        assert replies[1] == replies[3]
        # the read saw the batch before it
        assert decode_values(wire.decode_message(replies[4]).payload)[0] == 300
        assert put_index(replies[5]) == 1
        # two batches, one block each; the retransmit was executed once
        assert [len(block.txs) for block in gateway.node.blocks[height + 1:]] == [3, 1]
        # a PUT without a tick gets its batch's block height
        assert [tick for *_, tick in feed_samples(gateway, "t0")] == [height + 1] * 2
    finally:
        gateway.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("tx_cap", [3, 7])
def test_serve_batch_never_fills_a_block_past_its_cap(tmp_path, client, tx_cap):
    gateway = build_gateway(str(tmp_path), listen="127.0.0.1:0", tx_cap=tx_cap)
    try:
        height = gateway.node.height
        datagrams = [put(THINGS[n % 4], n, n) for n in range(40)]
        replies = serve_waiting(gateway, client, datagrams)
        assert all(wire.decode_message(r).msg_type == wire.MSG_ACK for r in replies)
        sizes = [len(block.txs) for block in gateway.node.blocks[height + 1:]]
        assert sum(sizes) == 40 and max(sizes) <= tx_cap
    finally:
        gateway.close()


def test_serve_verifies_each_sealed_signature_once(tmp_path, client, monkeypatch):
    gateway = build_gateway(str(tmp_path), listen="127.0.0.1:0")
    try:
        height = gateway.node.height
        calls = counting_verify(monkeypatch)      # before serve() forks its worker
        replies = serve_waiting(gateway, client, [put(THINGS[n % 4], n, n) for n in range(30)])
        assert all(wire.decode_message(r).msg_type == wire.MSG_ACK for r in replies)
        sealed = sum(len(block.txs) for block in gateway.node.blocks[height + 1:])
        assert sealed == 30 and calls.value == sealed
    finally:
        gateway.close()


def test_dead_verifier_undoes_the_batch_and_stops_serve(tmp_path, client, monkeypatch):
    gateway = build_gateway(str(tmp_path), listen="127.0.0.1:0")
    try:
        node = gateway.node
        before = (node.height, node.pending_count, node.state_digest())
        host, port = gateway.address.rsplit(":", 1)
        datagrams = [put(THINGS[n % 4], n, n) for n in range(5)]
        for data in datagrams:
            client.sendto(data, (host, int(port)))
        dying_verify(monkeypatch)
        with pytest.raises(ChildProcessError, match="exit code 3"):
            gateway.serve(threading.Event())
        assert multiprocessing.active_children() == []
        assert (node.height, node.pending_count, node.state_digest()) == before
        client.settimeout(0.2)
        with pytest.raises(socket.timeout):           # no reply left before a seal
            client.recvfrom(65535)
        # nothing was cached: the same datagram is applied when it comes again
        assert put_index(gateway.handle_datagram(datagrams[0], source_of(client))) == 0
    finally:
        gateway.close()


def test_undone_batch_logs_each_datagram_once(tmp_path):
    gateway = build_gateway(str(tmp_path))
    try:
        gateway.register_thing("forger")
        gateway._thing_signers["forger"] = ForgingSigner.from_seed("gw-master/thing/forger")
        gateway.traffic.clear()
        writes = [(put("t0", 1, 1), "sim:a"), (put("forger", 2, 2), "sim:b"),
                  (put("t1", 3, 3), "sim:c")]
        with Verifier() as verifier:
            replies = gateway._answer_batch(writes, verifier)
        assert wire.error_reason(wire.decode_message(replies[1]))[0] == "BadSignature"
        assert list(gateway.traffic) == [
            entry for (data, source), reply in zip(writes, replies)
            for entry in (("in", source, data), ("out", source, reply))]
    finally:
        gateway.close()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(THINGS), st.integers(-20_000, 45_000)),
                min_size=1, max_size=12),
       st.data())
def test_forged_signature_in_a_served_batch(writes, data):
    """A datagram whose Signer forges is answered BadSignature and sealed
    nowhere; every other reply, and every feed, equal one-at-a-time handling,
    with or without a forged datagram in the batch."""
    forged_at = data.draw(st.none() | st.integers(0, len(writes)), label="forged position")
    retransmit = data.draw(st.sampled_from([None, *range(len(writes))]), label="retransmit")
    datagrams = [put(thing, n, value) for n, (thing, value) in enumerate(writes)]
    if forged_at is not None:
        datagrams.insert(forged_at, put("forger", 999, 1))
    if retransmit is not None:
        datagrams.append(datagrams[retransmit])
    with tempfile.TemporaryDirectory() as directory:
        served = build_gateway(directory, listen="127.0.0.1:0")
        alone = build_gateway(directory)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.bind(("127.0.0.1", 0))
            sock.settimeout(5)
            for gateway in (served, alone):
                gateway.register_thing("forger")
                gateway._thing_signers["forger"] = ForgingSigner.from_seed(
                    "gw-master/thing/forger")
            height = served.node.height
            forger = served.things["forger"].account
            replies = serve_waiting(served, sock, datagrams)
            expected = [alone.handle_datagram(d, source_of(sock)) for d in datagrams]
            if forged_at is not None:
                assert wire.error_reason(wire.decode_message(replies[forged_at]))[0] == \
                    "BadSignature"
            assert replies == expected
            assert list(served.traffic) == list(alone.traffic)   # each exchange once
            assert all(tx.sender != forger
                       for block in served.node.blocks[height + 1:] for tx in block.txs)
            for thing in THINGS:      # ticks are block heights, which batching changes
                assert [sample[:3] for sample in feed_samples(served, thing)] == \
                    [sample[:3] for sample in feed_samples(alone, thing)]
        finally:
            sock.close()
            served.close()
            alone.close()


def test_undone_batch_keeps_the_reply_window(tmp_path, monkeypatch):
    """A batch undone by a dead worker evicts no older reply from the cache,
    so a retransmit of a write ACKed before it is still answered from it."""
    monkeypatch.setattr(service, "REPLY_CACHE_SIZE", 2)
    gateway = build_gateway(str(tmp_path))
    try:
        first = put("t0", 1, 1)
        acked = [gateway.handle_datagram(data, "sim:t0") for data in (first, put("t0", 2, 2))]
        dying_verify(monkeypatch)
        with Verifier() as verifier:
            with pytest.raises(ChildProcessError, match="exit code 3"):
                gateway._answer_batch([(put("t0", 3, 3), "sim:t0")], verifier)
        assert len(gateway._replies) == 2
        assert gateway.handle_datagram(first, "sim:t0") == acked[0]
        assert len(feed_samples(gateway, "t0")) == 2
    finally:
        gateway.close()
