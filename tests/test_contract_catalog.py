"""The method catalog in docs/contracts.md matches the declarations.

Each behavior's section (headed with its `code_id`) holds one table whose
rows name a method (or two, joined by " / "), its guard ("owner", the
attribute name of a member set, or "—") and its arguments as `[name: type,
...]`.  The `*init*` row stands for `init_types`.  A method, type or guard
that the code and the document disagree on fails here.
"""

import re
from pathlib import Path

import pytest

from thingchain.contracts import STANDARD_BEHAVIORS
from thingchain.runtime import only_owner

DOC = Path(__file__).resolve().parent.parent / "docs" / "contracts.md"
INIT = "*init*"


def catalog() -> dict[str, dict[str, tuple[str, list[str]]]]:
    """code_id -> method -> (guard, argument type names), read from the doc."""
    tables: dict[str, dict] = {}
    code_id = None
    for line in DOC.read_text().splitlines():
        heading = re.match(r'#+ .*\(`code_id: "(\w+)"`\)', line)
        if heading:
            code_id = heading.group(1)
            tables[code_id] = {}
        elif line.startswith("| ") and not line.startswith("| method ") and code_id:
            methods, guard, args = (cell.strip() for cell in line.strip("|").split("|")[:3])
            params = re.match(r"`\[(.*?)\]`", args).group(1)
            types = [param.split(": ")[1] for param in params.split(", ") if param]
            for method in methods.split(" / "):
                tables[code_id][method.strip("`")] = (guard, types)
    return tables


def type_names(types) -> list[str]:
    return [kind.__name__ for kind in types]


def guard_name(cls, guard) -> str:
    if guard is None:
        return "—"
    if guard is only_owner:
        return "owner"
    return next(name for name, value in vars(cls).items() if value is guard)


def declared(cls) -> dict[str, tuple[str, list[str]]]:
    methods = {name: (guard_name(cls, export.guard), type_names(export.types))
               for name, export in cls.exports.items()}
    if cls.init_types:
        methods[INIT] = ("—", type_names(cls.init_types))
    return methods


def test_every_behavior_has_a_section():
    assert set(catalog()) == {cls.code_id for cls in STANDARD_BEHAVIORS}


@pytest.mark.parametrize("cls", STANDARD_BEHAVIORS, ids=lambda cls: cls.code_id)
def test_catalog_matches_the_declarations(cls):
    assert catalog()[cls.code_id] == declared(cls)
