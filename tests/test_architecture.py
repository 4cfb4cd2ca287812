"""The compiler passes must not depend on the simulator, the oracle that
checks what they emit, and the simulator must not take its uniformity from
the redundancy analysis it checks."""

import ast
from pathlib import Path

import pytest

import shardgraph

PACKAGE = Path(shardgraph.__file__).parent
COMPILER = ("profitability", "transform", "sharding", "redundancy")


def imported_modules(path: Path) -> set[str]:
    """Every module a source file imports, relative imports resolved against
    the package, at any nesting depth (function-local imports included)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"shardgraph.{base}" if base else "shardgraph"
            out.add(base)
            # `from . import simulator` names the module in the alias
            out.update(f"{base}.{a.name}" for a in node.names)
    return out


@pytest.mark.parametrize("name", COMPILER)
def test_compiler_pass_does_not_import_simulator(name):
    imports = imported_modules(PACKAGE / f"{name}.py")
    assert imports, name
    assert not [i for i in imports if i.split(".")[:2] == ["shardgraph", "simulator"]]


def test_simulator_does_not_import_redundancy():
    imports = imported_modules(PACKAGE / "simulator.py")
    assert imports
    assert not [i for i in imports if i.split(".")[:2] == ["shardgraph", "redundancy"]]
