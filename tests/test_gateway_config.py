import json
import socket

import pytest

from thingchain import cli
from thingchain.cli import build_gateway
from thingchain.gateway import GatewayConfig, wire
from thingchain.codec import encode_values


def write_config(tmp_path, **overrides):
    raw = {
        "master_seed": "cfg-master",
        "journal": str(tmp_path / "cfg.journal"),
        "listen": "127.0.0.1:19001",
        "requesters": {"ep:ops": "ops"},
        "root_zones": ["ab" * 32],
        "genesis": {"ops": 40},
    }
    raw.update(overrides)
    path = tmp_path / "gw.json"
    path.write_text(json.dumps(raw))
    return path


def test_config_file_roundtrip(tmp_path):
    path = write_config(tmp_path)
    config = GatewayConfig.from_file(path)
    assert config.master_seed == "cfg-master"
    assert config.listen == "127.0.0.1:19001"
    assert config.requesters == {"ep:ops": "ops"}
    assert config.genesis == {"ops": 40}


def test_build_gateway_with_flag_overrides(tmp_path):
    path = write_config(tmp_path)
    gateway = build_gateway(path, listen="127.0.0.1:19002", seed="override-seed")
    try:
        assert gateway.config.listen == "127.0.0.1:19002"
        assert gateway.config.master_seed == "override-seed"
        # genesis accounts funded and requester registered
        from thingchain import Signer

        assert gateway.node.balance(Signer.from_seed("ops").account) == 40
        reg = gateway.register_thing("t1", endpoint="sim:t1")
        reply = wire.decode_message(gateway.handle_datagram(
            wire.request(wire.PUT, 3, "/things/t1/data",
                         encode_values([5_000, "C", 1])).encode(), "sim:t1"))
        assert reply.msg_type == wire.MSG_ACK
    finally:
        gateway.close()


def test_build_gateway_resumes_from_chain_export(tmp_path):
    path = write_config(tmp_path)
    first = build_gateway(path, chain_export=str(tmp_path / "gw.chain"))
    first.register_thing("t1", endpoint="sim:t1")
    first.node.export_chain(tmp_path / "gw.chain")
    first.close()

    second = build_gateway(path, chain_export=str(tmp_path / "gw.chain"))
    try:
        assert "t1" in second.things
        assert second.node.state_digest() == first.node.state_digest()
    finally:
        second.close()


def test_close_releases_the_transport_socket(tmp_path):
    gateway = build_gateway(write_config(tmp_path), listen="127.0.0.1:0")
    sock = gateway.transport._sock
    assert sock.fileno() != -1
    gateway.close()
    assert sock.fileno() == -1
    gateway.close()                     # a second close is harmless


@pytest.mark.parametrize("missing", ["master_seed", "journal"])
def test_config_without_a_required_key_is_reported(tmp_path, monkeypatch, capsys, missing):
    path = write_config(tmp_path, listen="127.0.0.1:0")
    raw = json.loads(path.read_text())
    del raw[missing]
    path.write_text(json.dumps(raw))
    opened = []
    monkeypatch.setattr(socket, "socket", lambda *args, **kwargs: opened.append(args))
    assert cli.main(["gateway", "--config", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"error: ValueError: gateway config {path} has no {missing!r}\n"
    assert opened == [] and not (tmp_path / "cfg.journal").exists()
