"""Every Python file of the project parses as Python 3.10, the oldest
version `requires-python` admits, so a 3.10 interpreter can import it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_python_3_10():
    paths = sorted(path for top in ("src", "bench", "tests") for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 60
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
