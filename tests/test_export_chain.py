"""Chain exports replace the target file whole or not at all."""

import os

import pytest

from thingchain import cli, replay
from thingchain.codec import encode_values


def _grow(node, signer, pushes):
    _, feed = node.deploy(signer, "feed")
    node.seal_block()
    for tick in range(pushes):
        node.call(signer, feed, "push", encode_values([tick * 100, "C", tick]))
    node.seal_block()


def _fail(*_args, **_kwargs):
    raise OSError("injected failure")


def test_export_replaces_the_target(tmp_path, node, alice):
    target = tmp_path / "run.chain"
    first = node.export_chain(target)
    _grow(node, alice, 5)
    second = node.export_chain(target)
    assert first != second
    assert target.read_bytes() == second
    assert replay(second) == node.state_digest()
    assert os.listdir(tmp_path) == ["run.chain"]


@pytest.mark.parametrize("step", ["replace", "fsync"])
def test_failed_export_keeps_the_old_chain(tmp_path, monkeypatch, node, alice, step):
    target = tmp_path / "run.chain"
    _grow(node, alice, 3)
    old = node.export_chain(target)
    old_digest = node.state_digest()
    _grow(node, alice, 4)

    monkeypatch.setattr(os, step, _fail)
    with pytest.raises(OSError, match="injected"):
        node.export_chain(target)
    monkeypatch.undo()

    assert target.read_bytes() == old
    assert replay(target.read_bytes()) == old_digest
    assert os.listdir(tmp_path) == ["run.chain"]


def test_cli_export_chain_out_is_atomic(tmp_path, monkeypatch, capsys, node, alice):
    source = tmp_path / "src.chain"
    out = tmp_path / "out.chain"
    _grow(node, alice, 2)
    data = node.export_chain(source)

    assert cli.main(["export-chain", "--chain", str(source), "--out", str(out)]) == 0
    assert f"exported {len(data)} bytes" in capsys.readouterr().out
    assert out.read_bytes() == data

    out.write_bytes(b"previous export")
    monkeypatch.setattr(os, "replace", _fail)
    assert cli.main(["export-chain", "--chain", str(source), "--out", str(out)]) == 1
    monkeypatch.undo()
    assert "OSError: injected failure" in capsys.readouterr().err
    assert out.read_bytes() == b"previous export"
    assert sorted(os.listdir(tmp_path)) == ["out.chain", "src.chain"]
