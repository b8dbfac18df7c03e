import re
import tempfile

import pytest

from thingchain import cli
from thingchain.errors import ParseError
from thingchain.scenario import SimThing, parse_script, run_scenario_text

try:
    from importlib.resources import files as resource_files
except ImportError:  # pragma: no cover
    resource_files = None


def bundled(name: str) -> str:
    return str(resource_files("thingchain") / "scenarios" / name)


# --- script parsing -----------------------------------------------------------

def test_parse_comments_and_wildcards():
    steps = parse_script(
        "# full line comment\n"
        "deploy as=x code=feed owner=a  # trailing comment\n"
        "subscribe pattern=building/# caller=a\n"
    )
    assert len(steps) == 2
    assert steps[0].kv == {"as": "x", "code": "feed", "owner": "a"}
    assert steps[1].kv["pattern"] == "building/#"


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_script("account name=a\nbroken token here\n")
    assert info.value.line_no == 2


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_script("deploy code=feed code=zone owner=a")


# --- SimThing ------------------------------------------------------------------

def test_simthing_walk_deterministic():
    a = SimThing("t1", seed=9)
    b = SimThing("t1", seed=9)
    series_a = [a.next_measurement() for _ in range(50)]
    series_b = [b.next_measurement() for _ in range(50)]
    assert series_a == series_b
    assert SimThing("t1", seed=10).next_measurement() != series_a[0]


def test_simthing_dedups_by_height_txindex():
    thing = SimThing("t1", seed=1)
    assert thing.receive(5, 2, 0, "open", b"") is True
    assert thing.receive(5, 2, 0, "open", b"") is False
    assert thing.receive(5, 3, 0, "open", b"") is True
    assert len(thing.actuations) == 2


# --- scenario runs ---------------------------------------------------------------

ECHO_SCRIPT = """
account name=alice tokens=100
deploy as=f code=feed owner=alice
push feed=@f caller=alice value=21.0 tick=1
assert kind=last feed=@f value=21.0
"""


def test_assert_last_after_push_passes():
    report = run_scenario_text(ECHO_SCRIPT, seed=3)
    assert report.exit_code == 0
    assert all(s.status == "ok" for s in report.steps)


def test_failed_assert_aborts_with_nonzero_exit():
    script = ECHO_SCRIPT.replace("assert kind=last feed=@f value=21.0",
                                 "assert kind=last feed=@f value=99.0")
    report = run_scenario_text(script, seed=3)
    assert report.exit_code == 1
    assert "99.0" in report.failure
    assert report.steps[-1].status == "failed"


def test_first_call_may_name_genesis_accounts_in_its_args():
    """The genesis accounts exist before the first step parses its values."""
    report = run_scenario_text(
        "account name=alice tokens=5\n"
        f"call caller=alice target={'00' * 32} method=x args=acct:alice expect=reverted\n",
        seed=1)
    assert report.exit_code == 0, report.failure
    assert report.tx_count == 1


def test_same_seed_same_digest_and_receipts():
    first = run_scenario_text(ECHO_SCRIPT, seed=5)
    second = run_scenario_text(ECHO_SCRIPT, seed=5)
    assert first.final_digest == second.final_digest
    assert ([s.receipt_digest for s in first.steps]
            == [s.receipt_digest for s in second.steps])


def test_report_json_shape():
    report = run_scenario_text(ECHO_SCRIPT, seed=5)
    data = report.as_dict()
    assert data["exit_code"] == 0
    assert data["final_digest"]
    assert {"step", "verb", "status", "receipt_digest", "events"} <= set(
        data["steps"][0])


def test_bundled_smart_building_script_passes(tmp_path):
    from thingchain.scenario import run_scenario

    export = tmp_path / "run.chain"
    report = run_scenario(bundled("smart_building.scn"), seed=7,
                          export_path=str(export))
    assert report.exit_code == 0, report.failure
    assert report.tx_count >= 200
    assert export.exists()


# --- CLI -----------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_end_to_end(tmp_path, capsys):
    chain = str(tmp_path / "c.chain")
    code, out, _ = run_cli(capsys, "init", "--chain", chain,
                           "--genesis", "alice=100,bob=10")
    assert code == 0

    code, out, _ = run_cli(capsys, "deploy", "--chain", chain, "--code", "feed",
                           "--owner-seed", "alice")
    assert code == 0
    feed = re.search(r"address: ([0-9a-f]{64})", out).group(1)

    code, out, _ = run_cli(capsys, "call", "--chain", chain, "--target", feed,
                           "--method", "push", "--caller-seed", "alice",
                           "--args", "milli:21.5,str:C,int:1")
    assert code == 0 and "status: ok" in out

    code, out, _ = run_cli(capsys, "read", "--chain", chain, "--target", feed,
                           "--key", "str:last")
    assert code == 0 and "21500" in out

    code, out, _ = run_cli(capsys, "call", "--chain", chain, "--target", feed,
                           "--method", "push", "--caller-seed", "alice",
                           "--args", "milli:22.5,str:C,int:2")
    assert code == 0

    code, out, _ = run_cli(capsys, "history", "--chain", chain, "--target", feed,
                           "--key", "str:last")
    assert code == 0
    assert len(out.strip().splitlines()) == 2

    code, out, _ = run_cli(capsys, "export-chain", "--chain", chain)
    digest_live = re.search(r"state digest: ([0-9a-f]{64})", out).group(1)

    code, out, _ = run_cli(capsys, "replay", chain)
    assert code == 0
    assert re.search(r"state digest: ([0-9a-f]{64})", out).group(1) == digest_live

    code, out, _ = run_cli(capsys, "kill", "--chain", chain, "--target", feed,
                           "--caller-seed", "alice")
    assert code == 0 and "status: ok" in out

    # killed contracts reject calls but stay readable
    code, out, _ = run_cli(capsys, "call", "--chain", chain, "--target", feed,
                           "--method", "push", "--caller-seed", "alice",
                           "--args", "milli:1.0,str:C,int:3")
    assert code == 1 and "ContractKilled" in out
    code, out, _ = run_cli(capsys, "read", "--chain", chain, "--target", feed,
                           "--key", "str:last")
    assert code == 0 and "22500" in out


def test_cli_resolve_and_audit_against_bundled_fixture(tmp_path, capsys):
    chain = str(tmp_path / "zones.chain")
    code, out, _ = run_cli(capsys, "run", bundled("zones.scn"),
                           "--export", chain)
    assert code == 0
    root = re.search(r"zone at ([0-9a-f]{64})", out).group(1)

    code, out, _ = run_cli(capsys, "resolve", "uni.gr", "--chain", chain,
                           "--root", root)
    assert code == 0
    assert "service_key=9f2ab04c" in out
    assert "depth: 2" in out
    assert out.count("  gr") == 1 and "uni" in out

    code, out, _ = run_cli(capsys, "audit", "uni.gr", "--chain", chain,
                           "--root", root)
    assert code == 0
    assert "label uni" in out

    code, out, err = run_cli(capsys, "resolve", "missing.gr", "--chain", chain,
                             "--root", root)
    assert code == 1
    assert "NameNotFound" in err


def test_cli_run_json(tmp_path, capsys):
    script = tmp_path / "mini.scn"
    script.write_text(ECHO_SCRIPT)
    code, out, _ = run_cli(capsys, "run", str(script), "--json")
    assert code == 0
    import json

    data = json.loads(out)
    assert data["exit_code"] == 0


def test_cli_parse_error_exit_code(tmp_path, capsys):
    script = tmp_path / "bad.scn"
    script.write_text("account broken-token\n")
    code, _, err = run_cli(capsys, "run", str(script))
    assert code == 2
    assert "parse error" in err


def test_run_without_workdir_leaves_no_directory(tmp_path, monkeypatch):
    with open(bundled("smart_building.scn"), encoding="utf-8") as fh:
        text = fh.read()
    kept = run_scenario_text(text, seed=7, workdir=str(tmp_path))
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
    report = run_scenario_text(text, seed=7)
    assert list(temp_root.glob("thingchain-*")) == []
    assert report.exit_code == 0
    assert report.to_json() == kept.to_json()


def test_repeated_gateway_writes_are_each_applied():
    """Two steps never send identical datagrams, so a repeated write is not
    answered from the gateway's retransmit cache."""
    report = run_scenario_text(
        "account name=council tokens=5\n"
        "requester endpoint=ep:council account=council\n"
        "register thing=t1 as=t1\n"
        "allow-requester thing=t1 endpoint=ep:council\n"
        "thing-post thing=t1 from=ep:council action=valve_open args=str:50%\n"
        "thing-post thing=t1 from=ep:council action=valve_open args=str:50%\n"
        "thing-put thing=t1 value=21.5\n"
        "thing-put thing=t1 value=21.5\n"
        "watch expect_deliveries=2\n"
        "assert kind=actuations thing=t1 count=2\n"
        "assert kind=history target=@t1.feed key=str:last count=2\n",
        seed=4)
    assert report.exit_code == 0, report.failure
