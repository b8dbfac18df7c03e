"""The benchmark still runs against this checkout.

``bench/selftest.py`` shows every benchmark check rejecting a wrong value, and
one traced ``city_state`` round checks replay digest = live digest and
patches every name the tracer wraps, so a refactor that breaks either fails
here rather than only when the benchmark is run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def test_bench_selftest_passes():
    proc = _bench("bench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_city_state_round_is_correct():
    proc = _bench("bench/run.py", "--workload", "city_state", "--seed", "1",
                  "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
