"""The compiler passes must not depend on the simulator, and the oracle (the
simulator, the cost model and the memory accountant) must not depend on the
planner and the transform it checks: the simulator takes no uniformity from
the redundancy analysis, and the cost model no rule from the planner.
`pipeline`, which composes the two, sits above both, and only `cli` imports
it. Imports are followed through every module of the package, so a
dependency cannot hide behind another module. No module turns the garbage
collector's knobs, and every definition is read by the package itself."""

import ast
from pathlib import Path

import pytest

import shardgraph

PACKAGE = Path(shardgraph.__file__).parent
COMPILER = ("profitability", "transform", "sharding", "redundancy")
ORACLE = ("simulator", "costmodel", "memory")


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


def package_imports(name: str) -> set[str]:
    """The package modules `name` imports, directly or through other package
    modules."""
    reached: set[str] = set()
    work = [name]
    while work:
        for imported in imported_modules(PACKAGE / f"{work.pop()}.py"):
            parts = imported.split(".")
            if parts[0] != "shardgraph" or len(parts) < 2 or not (PACKAGE / f"{parts[1]}.py").exists():
                continue
            if parts[1] not in reached:
                reached.add(parts[1])
                work.append(parts[1])
    return reached


def test_imports_are_followed_transitively():
    # transform reaches redundancy and costmodel only through profitability
    direct = imported_modules(PACKAGE / "transform.py")
    assert not {"shardgraph.redundancy", "shardgraph.costmodel"} & direct
    assert {"profitability", "redundancy", "costmodel"} <= package_imports("transform")


@pytest.mark.parametrize("name", COMPILER)
def test_compiler_pass_does_not_import_simulator(name):
    reached = package_imports(name)
    assert "ir" in reached, name
    assert "simulator" not in reached


def test_simulator_does_not_import_redundancy():
    reached = package_imports("simulator")
    assert "ir" in reached
    assert "redundancy" not in reached


@pytest.mark.parametrize("name", ORACLE)
def test_oracle_does_not_import_the_compiler(name):
    reached = package_imports(name)
    assert "ir" in reached, name
    assert not reached & {"profitability", "transform", "redundancy"}


def test_pipeline_sits_above_the_compiler_and_the_oracle():
    reached = package_imports("pipeline")
    assert {"profitability", "transform"} <= reached and {"simulator", "costmodel", "memory"} <= reached
    importers = {path.stem for path in PACKAGE.glob("*.py") if "pipeline" in package_imports(path.stem)}
    assert importers == {"cli"}


def test_format_dims_are_walked_once():
    """`ShardingSpec.__post_init__` is the one place that walks a format's
    steps; everything else reads `dims_seq`."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        scopes: list[str] = []

        class Calls(ast.NodeVisitor):
            def visit_scope(self, node):
                scopes.append(node.name)
                self.generic_visit(node)
                scopes.pop()

            visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

            def visit_Call(self, node):
                f = node.func
                if getattr(f, "id", None) == "apply_step_dims" or getattr(f, "attr", None) == "apply_step_dims":
                    callers.add(".".join([path.stem, *scopes]))
                self.generic_visit(node)

        Calls().visit(ast.parse(path.read_text()))
    assert callers == {"sharding.ShardingSpec.__post_init__"}


def test_opcode_facts_live_in_the_ir_table():
    """`ir.OPCODES` is the one list of opcodes with their operand counts and
    callees: no other module keeps a dict or set literal naming more than 8
    opcodes (smaller sets, such as the opcodes that alias storage, are
    different facts)."""
    from shardgraph.ir import OPCODES

    largest = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "ir":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Dict, ast.Set)):
                names = node.keys if isinstance(node, ast.Dict) else node.elts
                n = sum(isinstance(k, ast.Constant) and k.value in OPCODES for k in names)
                largest[path.stem] = max(largest.get(path.stem, 0), n)
    assert {name: n for name, n in largest.items() if n > 8} == {}


def test_no_module_turns_the_collector_knobs():
    """The passes get faster by allocating less, not by pausing, freezing or
    retuning the cyclic garbage collector: no module calls `gc.disable`,
    `gc.freeze`, `gc.set_threshold` or `gc.collect`, under any import name."""
    knobs = {"disable", "freeze", "set_threshold", "collect"}
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        gc_names = {"gc"}  # the module's names for `gc` and for its knobs
        knob_names = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                gc_names.update(a.asname or a.name for a in node.names if a.name == "gc")
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                knob_names.update((a.asname or a.name, a.name) for a in node.names if a.name in knobs)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in knobs and getattr(f.value, "id", None) in gc_names:
                calls.append(f"{path.stem}:{node.lineno} gc.{f.attr}")
            elif isinstance(f, ast.Name) and f.id in knob_names:
                calls.append(f"{path.stem}:{node.lineno} gc.{knob_names[f.id]}")
    assert calls == []


# Definitions that only tests reach, kept on purpose, with the reason: no
# pass emits a masked reduce yet, and wiring one in is a feature.
TEST_ONLY = {
    "sharding.build_masked_reduce": "acceptance criterion 4 checks the masked reduce of a padded shard",
    "sharding.validate_for_reduce": "acceptance criterion 4 checks which reduces a padded format allows",
}


def test_every_definition_is_read_by_the_package():
    """`src/` holds what the system runs: every module-level function and
    class of the package is read (as a name or an attribute) by some module
    of it outside its own definition and outside `__init__`, except the
    named `TEST_ONLY` ones. A helper that only tests use belongs in
    `tests/`."""
    defined: set[str] = set()  # "<module>.<name>"
    readers: dict[str, set[str]] = {}  # name -> "<module>.<top-level definition>" that reads it
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = path.stem
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{path.stem}.{top.name}"
                defined.add(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    readers.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(owner)
    unread = sorted(name for name in defined if not readers.get(name.split(".")[1], set()) - {name})
    assert unread == sorted(TEST_ONLY)
