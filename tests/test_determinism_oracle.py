"""Determinism oracle: the bundled scenarios, run with seed 7, must keep their
final state digest and the exact bytes of their chain export.

Any change to execution, storage layout, receipts or the export format shows
up here.  A deliberate format change updates these values in the same change
that makes it, and says why.
"""

import hashlib
import re

import pytest

from thingchain import cli

try:
    from importlib.resources import files as resource_files
except ImportError:  # pragma: no cover
    resource_files = None

ORACLE = [
    ("smart_building.scn", 214,
     "a1c652b9f074e112e8fcd98fe5bb1d0a09f652ad3ae7b7540aea3ed09af9fb96",
     "5b59b28a1ce668116294d17675cf0b08de147647768f9eb199fedc3274f18540"),
    ("zones.scn", 7,
     "6015cc3968150619b039c8eb95d5850f03a812ca5fcd2aa10f226b1ffb0eee9b",
     "014405fc9ca33bf83dd02af023e7bcd3b76768f5d6b0a4e4ba48d341ef5b97b5"),
]


@pytest.mark.parametrize("script, tx_count, state_digest, export_sha256", ORACLE)
def test_seed_7_run_is_bit_identical(tmp_path, capsys, script, tx_count, state_digest,
                                     export_sha256):
    export = tmp_path / "run.chain"
    path = str(resource_files("thingchain") / "scenarios" / script)
    assert cli.main(["run", path, "--seed", "7", "--export", str(export)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^transactions: (\d+)$", out, re.M).group(1) == str(tx_count)
    assert re.search(r"^state digest: ([0-9a-f]{64})$", out, re.M).group(1) == state_digest
    assert hashlib.sha256(export.read_bytes()).hexdigest() == export_sha256


REPORT_ORACLE = [
    ("smart_building.scn", "9175c2796aa631f5575073c7ff28e895e96935b591c36d5b131ab4183f09d5c2"),
    ("zones.scn", "02bf1fee85e91a56ad212a44eb352a5f57679d4401e1bd75b9195f5762a1fb00"),
]


@pytest.mark.parametrize("script, report_sha256", REPORT_ORACLE)
def test_seed_7_json_report_is_bit_identical(capsys, script, report_sha256):
    path = str(resource_files("thingchain") / "scenarios" / script)
    assert cli.main(["run", path, "--seed", "7", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == report_sha256
