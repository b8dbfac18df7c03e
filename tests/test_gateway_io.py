"""The production I/O paths: `thingchain gateway` as a process, which
answers a bad datagram and keeps serving, and event delivery over
`UdpTransport` to a Thing's UDP endpoint."""

import json
import os
import select
import signal
import socket
import subprocess
import sys

from thingchain import Node, Signer
from thingchain.chain import load_chain
from thingchain.cli import build_gateway
from thingchain.codec import decode_values, encode_values
from thingchain.gateway import Gateway, GatewayConfig, wire
from thingchain.gateway.service import UdpTransport

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _exchange(client, address, msg):
    client.sendto(msg.encode(), address)
    reply = wire.decode_message(client.recvfrom(65535)[0])
    assert reply.message_id == msg.message_id
    return reply


def test_gateway_command_serves_and_exports_on_sigint(tmp_path):
    config_path = tmp_path / "gw.json"
    chain_path = str(tmp_path / "gw.chain")
    config_path.write_text(json.dumps({
        "master_seed": "gw-master", "journal": str(tmp_path / "gw.journal"),
        "listen": "127.0.0.1:0"}))
    gateway = build_gateway(config_path)
    try:
        feed = gateway.register_thing("t1").feed_addr
        gateway.node.export_chain(chain_path)
    finally:
        gateway.close()

    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "thingchain.cli", "gateway", "--config", str(config_path),
         "--listen", "127.0.0.1:0", "--chain-export", chain_path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.settimeout(10)
    try:
        assert select.select([proc.stdout], [], [], 30)[0], "no address on stdout"
        line = proc.stdout.readline().decode()
        assert line.startswith("gateway listening on "), line
        host, port = line.split()[3].rsplit(":", 1)
        address = (host, int(port))
        bad = wire.request(wire.GET, 3, f"/things/t1/stats?from=0&to={2**63}")
        assert wire.error_reason(_exchange(client, address, bad))[0] == "BadQuery"
        put = wire.request(wire.PUT, 1, "/things/t1/data", encode_values([21_500, "C", 4]))
        assert _exchange(client, address, put).msg_type == wire.MSG_ACK
        last = _exchange(client, address, wire.request(wire.GET, 2, "/things/t1/last"))
        assert decode_values(last.payload) == [21_500, "C", 4]
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=30)
    finally:
        client.close()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert stderr == b""

    with open(chain_path, "rb") as fh:
        replayed = Node.from_chain(*load_chain(fh.read()))
    assert decode_values(replayed.static(feed, "last", [])) == [21_500, "C", 4]


def test_actuation_event_reaches_the_thing_over_udp(tmp_path):
    council = Signer.from_seed("council")
    config = GatewayConfig(master_seed="gw-master", journal_path=str(tmp_path / "gw.journal"),
                           requesters={"ep:council": "council"})
    thing = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    thing.settimeout(5)
    gateway = None
    try:
        thing.bind(("127.0.0.1", 0))
        host, port = thing.getsockname()
        gateway = Gateway(Node({council.account: 100}), config, transport=UdpTransport())
        reg = gateway.register_thing("t17", endpoint=f"{host}:{port}")
        gateway.allow_requester(reg, "ep:council")
        post = wire.request(wire.POST, 5, "/things/t17/actuate",
                            encode_values(["valve_open", b"50"]))
        reply = wire.decode_message(gateway.handle_datagram(post.encode(), "ep:council"))
        assert reply.msg_type == wire.MSG_ACK
        height = gateway.node.height
        assert gateway.poll_events() == 1
        event = wire.decode_message(thing.recvfrom(65535)[0])
    finally:
        if gateway is not None:
            gateway.close()
        thing.close()
    assert (event.msg_type, event.code) == (wire.MSG_REQUEST, wire.POST)
    assert event.path == "/things/t17/event"
    assert decode_values(event.payload) == [height, 0, 0, "valve_open", b"50", council.account]
