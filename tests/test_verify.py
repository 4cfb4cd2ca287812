import dataclasses

import numpy as np
import pytest

from irtools import modules_equal
from randmod import random_inputs_for, random_module
from shardgraph.ir import (
    ALL_REPLICAS,
    Computation,
    F32,
    GraphBuilder,
    Instruction,
    Module,
    OPCODES,
    PRED,
    ReplicaGroups,
    S32,
    Shape,
    TupleShape,
    mesh_topology,
    ring_topology,
    scalar,
)
from shardgraph.generators import gen_module
from shardgraph.sharding import build_reduce_scatter, choose_spec
from shardgraph.simulator import SimulationError, Simulator
from shardgraph.textfmt import ParseError, parse_module, print_module
from shardgraph.verify import Diagnostic, verify


def module_of(comp, n=2):
    return Module(comp, replica_count=n, topology=ring_topology(n))


def rules(diags):
    return {d.rule for d in diags}


def test_generated_modules_verify_clean():
    for kw in (dict(steps=3), dict(steps=0), dict(steps=4, outfeed_every=2)):
        m = gen_module("mlp", replicas=4, layers=2, dim=8, **kw)
        assert verify(m) == []


def test_while_body_shape_mismatch():
    body = GraphBuilder("body")
    bp = body.parameter(0, Shape((4,), F32), "bp")
    grow = body.emit("broadcast", Shape((8,), F32), (body.emit("reduce", scalar(F32), (bp, body.constant(0.0)), dims=(0,), kind="add"),), dims=())
    body_c = body.finish(grow)

    cond = GraphBuilder("cond")
    cp = cond.parameter(0, Shape((4,), F32), "cp")
    t = cond.emit("constant", scalar(PRED), value=(0.0,), id="f")
    cond_c = cond.finish(t)

    gb = GraphBuilder("main")
    init = gb.parameter(0, Shape((4,), F32), "init")
    w = gb.emit("while", Shape((4,), F32), (init,), cond=cond_c, body=body_c)
    m = module_of(gb.finish(w))
    assert "while body shape mismatch" in rules(verify(m))


def test_conditional_branch_result_mismatch():
    t = GraphBuilder("tb")
    tp = t.parameter(0, Shape((4,), F32), "tp")
    t_c = t.finish(tp)
    f = GraphBuilder("fb")
    fp = f.parameter(0, Shape((4,), F32), "fp")
    fgrown = f.emit("reshape", Shape((2, 2), F32), (fp,))
    f_c = f.finish(fgrown)

    gb = GraphBuilder("main")
    pred = gb.constant(True, PRED, id="pred")
    arg = gb.parameter(0, Shape((4,), F32), "arg")
    c = gb.emit("conditional", Shape((4,), F32), (pred, arg, arg), branches=(t_c, f_c))
    m = module_of(gb.finish(c))
    assert "conditional result shapes" in rules(verify(m))


def test_all_reduce_groups_must_partition():
    gb = GraphBuilder("main")
    g = gb.parameter(0, Shape((4,), F32), "g")
    ar = gb.emit(
        "all-reduce", Shape((4,), F32), (g,), kind="add",
        groups=ReplicaGroups(((0, 1), (1, 2))),
    )
    m = module_of(gb.finish(ar), n=4)
    diags = verify(m)
    assert "replica groups" in rules(diags)
    assert any("not disjoint" in d.message for d in diags)


def test_all_reduce_unequal_groups():
    gb = GraphBuilder("main")
    g = gb.parameter(0, Shape((4,), F32), "g")
    ar = gb.emit(
        "all-reduce", Shape((4,), F32), (g,), kind="add",
        groups=ReplicaGroups(((0,), (1, 2, 3))),
    )
    m = module_of(gb.finish(ar), n=4)
    assert any("equal-sized" in d.message for d in verify(m))


def _row_reduce_scatter() -> Module:
    """A reduce-scatter fusion within the rows of a 2x4 mesh: 4 shards."""
    topo = mesh_topology(2, 4)
    gb = GraphBuilder("main")
    x = gb.parameter(0, Shape((16, 16), F32), "x")
    rid = gb.emit("replica-id", scalar(S32), id="rid")
    spec = choose_spec(Shape((16, 16), F32), 4, group=topo.row_groups())
    rs = build_reduce_scatter(spec, x, rid, gb, topo, reduce_kind="add", name_hint="rs")
    return Module(gb.finish(rs), 8, topo)


class TestSpecGroup:
    """A sharding fusion's spec shards over the fusion's own group, one shard
    per replica of the group; otherwise the simulator fails at run time."""

    def test_a_spec_cut_for_rows_under_groups_all_from_a_file(self):
        text = print_module(_row_reduce_scatter())
        fused = 'spec="[16,16] slice0/4", groups={{0,1,2,3},{4,5,6,7}}'
        assert text.count(fused) == 1
        m = parse_module(text.replace(fused, 'spec="[16,16] slice0/4", groups=all'))
        assert [(d.instruction, d.rule, d.message) for d in verify(m)] == [
            ("rs", "fusion spec", "spec shard count 4 != group size 8")
        ]

    def test_groups_that_differ_from_the_spec_group(self):
        m = _row_reduce_scatter()
        m = _rebuilt(m, m.entry.root, groups=ALL_REPLICAS)
        assert [(d.instruction, d.rule, d.message) for d in verify(m)] == [
            ("rs", "fusion spec", "spec group {{0,1,2,3},{4,5,6,7}} != groups all")
        ]


def test_shared_groups_are_reported_on_every_instruction():
    # two all-reduces share one invalid partition, a third has an equal copy
    # of it, and a valid partition of the same sizes comes first
    gb = GraphBuilder("main")
    x = gb.parameter(0, Shape((4,), F32), "x")
    bad = ReplicaGroups(((0, 1), (1, 2)))
    v = x
    for name, groups in [
        ("ok", ReplicaGroups(((0, 1), (2, 3)))),
        ("bad1", bad),
        ("bad2", bad),
        ("bad3", ReplicaGroups(((0, 1), (1, 2)))),
        ("ok2", ReplicaGroups(((0, 1), (2, 3)))),
    ]:
        v = gb.emit("all-reduce", Shape((4,), F32), (v,), kind="add", groups=groups, id=name)
    diags = [d for d in verify(module_of(gb.finish(v), n=4)) if d.rule == "replica groups"]
    assert [d.instruction for d in diags] == ["bad1", "bad2", "bad3"]
    assert all("not disjoint" in d.message for d in diags)


def test_bitcast_must_preserve_physical_bytes():
    gb = GraphBuilder("main")
    x = gb.parameter(0, Shape((16, 128), F32), "x")
    bad = gb.emit("bitcast", Shape((4, 128), F32), (x,))
    m = module_of(gb.finish(bad))
    assert "bitcast bytes" in rules(verify(m))
    # rounding up inside one tile is physical-bytes preserving, hence legal
    ok = GraphBuilder("main2")
    y = ok.parameter(0, Shape((8, 128), F32), "y")
    ok.emit("bitcast", Shape((4, 128), F32), (y,), id="cast")
    m2 = module_of(Computation("main2", ok.instructions, ok.instructions[-1]))
    assert verify(m2) == []


def test_reshape_must_preserve_elements():
    gb = GraphBuilder("main")
    x = gb.parameter(0, Shape((4, 4), F32), "x")
    bad = gb.emit("reshape", Shape((4, 5), F32), (x,))
    m = module_of(gb.finish(bad))
    assert "reshape elements" in rules(verify(m))


def test_dot_shape_rule():
    gb = GraphBuilder("main")
    a = gb.parameter(0, Shape((2, 3), F32), "a")
    b = gb.parameter(1, Shape((4, 5), F32), "b")
    bad = gb.emit("dot", Shape((2, 5), F32), (a, b))
    m = module_of(gb.finish(bad))
    assert "dot contraction" in rules(verify(m))


def test_reduce_result_shape():
    gb = GraphBuilder("main")
    x = gb.parameter(0, Shape((2, 3), F32), "x")
    init = gb.constant(0.0)
    bad = gb.emit("reduce", Shape((2,), F32), (x, init), dims=(0,), kind="add")
    m = module_of(gb.finish(bad))
    assert any(d.rule == "result shape" for d in verify(m))


def test_def_before_use():
    a = GraphBuilder("x")
    p = a.parameter(0, Shape((2,), F32), "p")
    sq = a.emit("sqrt", Shape((2,), F32), (p,), id="sq")
    comp = Computation("main", [sq, p], sq)  # out of order
    m = module_of(comp)
    assert "def before use" in rules(verify(m))


def test_duplicate_ids_across_computations():
    t = GraphBuilder("tb")
    tp = t.parameter(0, scalar(F32), "dup")
    t_c = t.finish(tp)
    f = GraphBuilder("fb")
    fp = f.parameter(0, scalar(F32), "dup")
    f_c = f.finish(fp)
    gb = GraphBuilder("main")
    pred = gb.constant(True, PRED, id="p")
    arg = gb.parameter(0, scalar(F32), "arg")
    c = gb.emit("conditional", scalar(F32), (pred, arg, arg), branches=(t_c, f_c))
    m = module_of(gb.finish(c))
    assert "unique ids" in rules(verify(m))


def test_parameter_index_gap():
    gb = GraphBuilder("main")
    p = gb.parameter(1, scalar(F32), "p")  # index 1 with no index 0
    m = module_of(gb.finish(p))
    assert any(d.rule == "parameter indices" for d in verify(m))


def test_select_pred_shape():
    gb = GraphBuilder("main")
    p = gb.parameter(0, Shape((4,), PRED), "p")
    a = gb.parameter(1, Shape((5,), F32), "a")
    b = gb.parameter(2, Shape((5,), F32), "b")
    bad = gb.emit("select", Shape((5,), F32), (p, a, b))
    m = module_of(gb.finish(bad))
    assert "select shapes" in rules(verify(m))


def _grouped_all_reduce():
    """An all-reduce over two explicit groups of 4 replicas; valid at 8."""
    gb = GraphBuilder("main")
    g = gb.parameter(0, Shape((4,), F32), "g")
    groups = ReplicaGroups(((0, 1, 2, 3), (4, 5, 6, 7)))
    return gb.finish(gb.emit("all-reduce", Shape((4,), F32), (g,), kind="add", groups=groups, id="ar"))


class TestRememberedComputations:
    """An instruction found clean carries a note of the replica count and
    tile it was checked at (`Instruction.verified_at`). Its own rules are
    checked again at any other replica count or tile, and the rules that
    span the module, such as unique ids, run on every call."""

    def test_replica_count_override_is_checked_again(self):
        entry = _grouped_all_reduce()
        assert verify(module_of(entry, n=8)) == []
        # as `cli._override_topology` does: the same entry at 4 replicas
        diags = verify(module_of(entry, n=4))
        assert [(d.instruction, d.rule) for d in diags] == [("ar", "replica groups")]
        assert verify(module_of(entry, n=8)) == []

    def test_tile_is_checked_again(self):
        gb = GraphBuilder("main")
        y = gb.parameter(0, Shape((8, 128), F32), "y")
        entry = gb.finish(gb.emit("bitcast", Shape((4, 128), F32), (y,), id="cast"))
        assert verify(module_of(entry)) == []
        other_tile = Module(entry, replica_count=2, topology=ring_topology(2), tile=(4, 128))
        assert "bitcast bytes" in rules(verify(other_tile))

    def test_compare_with_fewer_replicas_still_fails_verification(self, tmp_path, capsys):
        from shardgraph.cli import main
        from shardgraph.textfmt import print_module

        path = tmp_path / "grouped.ir"
        path.write_text(print_module(module_of(_grouped_all_reduce(), n=8)))
        assert main(["compare", str(path), "--cost-only"]) == 0
        capsys.readouterr()
        assert main(["compare", str(path), "--replicas", "4", "--cost-only"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("[verify] %ar: [replica groups]")

    def test_malformed_module_twice_gives_the_same_diagnostics(self):
        body = GraphBuilder("body")
        bp = body.parameter(0, Shape((4,), F32), "bp")
        body_c = body.finish(body.emit("sqrt", Shape((4,), F32), (bp,), id="root"))
        cond = GraphBuilder("cond")
        cond.parameter(0, Shape((4,), F32), "cp")
        cond_c = cond.finish(cond.emit("constant", scalar(PRED), value=(0.0,), id="f"))
        gb = GraphBuilder("main")
        init = gb.parameter(0, Shape((4,), F32), "init")
        w = gb.emit("while", Shape((4,), F32), (init,), cond=cond_c, body=body_c, id="w")
        bad = gb.emit("reshape", Shape((5,), F32), (w,), id="bad")
        gb.emit("all-reduce", Shape((4,), F32), (w,), kind="add", groups=ReplicaGroups(((0,), (0,))), id="ar")
        m = module_of(gb.finish(bad))
        first = verify(m)
        assert {d.rule for d in first} == {"reshape elements", "replica groups"}
        assert verify(m) == first
        assert verify(module_of(m.entry)) == first

    def test_duplicate_id_with_a_noted_instruction_is_reported(self):
        remembered = GraphBuilder("fb")
        remembered_c = remembered.finish(remembered.parameter(0, scalar(F32), "dup"))
        assert verify(module_of(remembered_c)) == []
        fresh = GraphBuilder("tb")
        fresh_c = fresh.finish(fresh.parameter(0, scalar(F32), "dup"))
        gb = GraphBuilder("main")
        pred = gb.constant(True, PRED, id="p")
        arg = gb.parameter(0, scalar(F32), "arg")
        c = gb.emit("conditional", scalar(F32), (pred, arg, arg), branches=(fresh_c, remembered_c), id="c")
        m = module_of(gb.finish(c))
        # the remembered branch is visited second, so the duplicate is its
        assert [(d.instruction, d.rule) for d in verify(m)] == [("dup", "unique ids")]
        assert [(d.instruction, d.rule) for d in verify(m)] == [("dup", "unique ids")]


class TestSharedInstructions:
    """An instruction that passed in a clean computation is not checked by
    its own rules again at the same replica count and tile; the rules that
    depend on the computation holding it still run."""

    def test_a_rebuilt_computation_checks_only_its_new_instructions(self, handled):
        gb = GraphBuilder("main")
        p = gb.parameter(0, F4, "p")
        sq = gb.emit("sqrt", F4, (p,), id="sq")
        assert verify(module_of(gb.finish(sq))) == []
        assert [i.id for i in handled] == ["p", "sq"]
        added = Instruction("twice", "add", F4, (sq, sq))
        assert verify(module_of(Computation("main", [p, sq, added], added))) == []
        assert [i.id for i in handled] == ["p", "sq", "twice"]

    def test_a_shared_instruction_placed_before_its_operand_is_reported(self):
        gb = GraphBuilder("main")
        p = gb.parameter(0, F4, "p")
        sq = gb.emit("sqrt", F4, (p,), id="sq")
        assert verify(module_of(gb.finish(sq))) == []
        diags = verify(module_of(Computation("main", [sq, p], sq)))
        assert [(d.instruction, d.rule) for d in diags] == [("sq", "def before use")]

    def test_shared_instructions_keep_ids_parameters_and_root_checks(self):
        gb = GraphBuilder("main")
        p = gb.parameter(0, F4, "p")
        sq = gb.emit("sqrt", F4, (p,), id="sq")
        assert verify(module_of(gb.finish(sq))) == []
        other = Instruction("sq", "sqrt", F4, (p,))
        assert rules(verify(module_of(Computation("main", [p, sq, other], other)))) == {"unique ids"}
        second = Instruction("p2", "parameter", F4, index=0)
        assert rules(verify(module_of(Computation("main", [p, sq, second], sq)))) == {"parameter indices"}
        assert rules(verify(module_of(Computation("main", [p, sq], other)))) == {"root"}

    def test_a_shared_instruction_is_checked_again_at_another_replica_count(self):
        clean = _grouped_all_reduce()
        assert verify(module_of(clean, n=8)) == []
        rebuilt = Computation("main", clean.instructions, clean.root)
        diags = verify(module_of(rebuilt, n=4))
        assert [(d.instruction, d.rule) for d in diags] == [("ar", "replica groups")]

    def test_an_instruction_of_a_malformed_computation_is_checked_again(self, handled):
        gb = GraphBuilder("main")
        p = gb.parameter(2, F4, "p")  # no parameter 0
        sq = gb.emit("sqrt", F4, (p,), id="sq")
        assert rules(verify(module_of(gb.finish(sq)))) == {"parameter indices"}
        fixed = Instruction("p", "parameter", F4, index=0)
        sq2 = Instruction("sq", "sqrt", F4, (fixed,))
        assert verify(module_of(Computation("main", [fixed, sq2, sq], sq2))) == [
            Diagnostic("sq", "unique ids", "duplicate instruction id in module"),
            Diagnostic("sq", "def before use", "operand %p not defined earlier in main"),
        ]
        assert [i.id for i in handled] == ["p", "sq", "p", "sq", "sq"]

    def test_a_copy_of_a_clean_instruction_is_checked(self):
        gb = GraphBuilder("main")
        p = gb.parameter(0, F4, "p")
        sq = gb.emit("sqrt", F4, (p,), id="sq")
        assert verify(module_of(gb.finish(sq))) == []
        assert sq.verified_at == (2, (8, 128))
        # `dataclasses.replace` builds a new object, which carries no note
        wrong = dataclasses.replace(sq, shape=Shape((5,), F32))
        assert wrong.verified_at is None
        diags = verify(module_of(Computation("main", [p, wrong], wrong)))
        assert [(d.instruction, d.rule) for d in diags] == [("sq", "result shape")]


def test_computation_holds_a_tuple():
    gb = GraphBuilder("main")
    p = gb.parameter(0, scalar(F32), "p")
    comp = Computation("main", [p], p)
    assert comp.instructions == (p,)
    assert gb.finish(p).instructions == (p,)
    assert comp.parameters == (p,)


# --------------------------------------------------------------------------- #
# Operand counts and callees: IR built in code is checked as parsed IR is
# --------------------------------------------------------------------------- #

F4 = Shape((4,), F32)


def _loop_callees():
    cond = GraphBuilder("cond")
    cond.parameter(0, F4, "cp")
    body = GraphBuilder("body")
    return {"cond": cond.finish(cond.constant(True, PRED, id="t")), "body": body.finish(body.parameter(0, F4, "bp"))}


# (opcode, operand count, attributes, the diagnostic's message)
PROBES = [
    ("add", 1, {}, "add expects 2 operand(s), got 1"),
    ("add", 3, {}, "add expects 2 operand(s), got 3"),
    ("sqrt", 2, {}, "sqrt expects 1 operand(s), got 2"),
    ("broadcast", 2, {"dims": (0,)}, "broadcast expects 1 operand(s), got 2"),
    ("reshape", 2, {}, "reshape expects 1 operand(s), got 2"),
    ("bitcast", 2, {}, "bitcast expects 1 operand(s), got 2"),
    ("iota", 1, {"dims": (0,)}, "iota expects 0 operand(s), got 1"),
    ("rng", 2, {}, "rng expects 0 operand(s), got 2"),
    ("constant", 1, {"value": (0.0,) * 4}, "constant expects 0 operand(s), got 1"),
    ("select", 2, {}, "select expects 3 operand(s), got 2"),
    ("pad", 1, {"pad_low": (0,), "pad_high": (0,)}, "pad expects 2 operand(s), got 1"),
    ("dot", 1, {}, "dot expects 2 operand(s), got 1"),
    ("convert", 0, {}, "convert expects 1 operand(s), got 0"),
    ("while", 0, _loop_callees(), "while expects 1 operand(s), got 0"),
    ("dynamic-slice", 0, {"slice_sizes": (4,)}, "dynamic-slice expects at least 1 operand"),
    ("get-tuple-element", 0, {"index": 0}, "get-tuple-element expects 1 operand(s), got 0"),
    ("reduce", 1, {"dims": (0,), "kind": "add"}, "reduce expects 2 operand(s), got 1"),
    ("parameter", 1, {"index": 1}, "parameter expects 0 operand(s), got 1"),
]


@pytest.mark.parametrize(
    "opcode,count,attrs,message", PROBES, ids=[f"{op}-{n}" for op, n, _, _ in PROBES]
)
def test_operand_count_is_one_diagnostic(opcode, count, attrs, message):
    gb = GraphBuilder("main")
    operands = [gb.parameter(i, F4, f"p{i}") for i in range(count)]
    bad = gb.emit(opcode, F4, operands, id="bad", **attrs)
    m = module_of(gb.finish(bad))
    diags = verify(m)
    assert [(d.instruction, d.rule, d.message) for d in diags] == [("bad", "operand count", message)]
    if opcode in ("constant", "parameter"):
        return  # their text holds literals, not operands
    with pytest.raises(ParseError) as err:
        parse_module(print_module(m))
    assert str(err.value) == f"{err.value.line}:{err.value.col}: {message}"


def test_an_opcode_that_calls_nothing_holds_no_callee():
    """The printer writes no callee for such an instruction, so without the
    check the module verifies and its text parses back as another module."""
    gb = GraphBuilder("main")
    x = gb.parameter(0, F4, "x")
    fused = GraphBuilder("f")
    stray = gb.emit("sqrt", F4, (x,), id="root", fused=fused.finish(fused.parameter(0, F4, "fp")))
    m = module_of(gb.finish(stray))
    assert [(d.instruction, d.rule) for d in verify(m)] == [("root", "callee")]
    assert not modules_equal(m, parse_module(print_module(m)))

    gb = GraphBuilder("main")
    x = gb.parameter(0, F4, "x")
    c = gb.emit("constant", F4, (x,), id="root", value=(1.0,) * 4)
    m = module_of(gb.finish(c))
    assert [(d.instruction, d.rule) for d in verify(m)] == [("root", "operand count")]
    assert not modules_equal(m, parse_module(print_module(m)))


def _identity(name: str) -> Computation:
    gb = GraphBuilder(name)
    return gb.finish(gb.parameter(0, F4, f"{name}.p"))


def _calling(opcode: str, **stray) -> Module:
    """A well-formed module whose root is a `while`, `fusion` or
    `conditional`, with the extra callee fields `stray`."""
    gb = GraphBuilder("main")
    x = gb.parameter(0, F4, "x")
    if opcode == "while":
        root = gb.emit("while", F4, (x,), id="root", **_loop_callees(), **stray)
    elif opcode == "fusion":
        root = gb.emit("fusion", F4, (x,), id="root", kind="standard", fused=_identity("f"), **stray)
    else:
        pred = gb.constant(True, PRED, id="pred")
        branches = (_identity("t"), _identity("e"))
        root = gb.emit("conditional", F4, (pred, x, x), id="root", branches=branches, **stray)
    return module_of(gb.finish(root))


@pytest.mark.parametrize("opcode,field", [("while", "fused"), ("fusion", "body"), ("conditional", "cond")])
def test_a_calling_opcode_holds_only_its_own_callees(opcode, field):
    """The printer writes only the callees an opcode owns, so without the
    check the module verifies and its text parses back as another module."""
    assert verify(_calling(opcode)) == []
    m = _calling(opcode, **{field: _identity("stray")})
    assert [(d.instruction, d.rule, d.message) for d in verify(m)] == [
        ("root", "callee", f"{opcode} does not call through {field}")
    ]
    assert not modules_equal(m, parse_module(print_module(m)))


def _rebuilt(m: Module, target, **fields) -> Module:
    """`m` with the entry instruction `target` rebuilt with `fields`, and its
    users rebuilt to read the new instruction."""
    new = {}
    for ins in m.entry.instructions:
        ops = tuple(new.get(id(o), o) for o in ins.operands)
        changes = fields if ins is target else {}
        if changes or any(a is not b for a, b in zip(ops, ins.operands)):
            new[id(ins)] = dataclasses.replace(ins, **{"operands": ops, **changes})
    entry = m.entry
    comp = Computation(entry.name, [new.get(id(i), i) for i in entry.instructions], new.get(id(entry.root), entry.root))
    return Module(comp, m.replica_count, m.topology, m.tile)


def _mutants(seed: int, count: int):
    """`count` one-instruction mutants of `random_module(seed)`: an operand
    dropped, duplicated or swapped for an earlier value, or the opcode
    changed to another one in `OPCODES`."""
    m = random_module(seed)
    rng = np.random.default_rng(seed)
    instrs = m.entry.instructions
    opcodes = sorted(OPCODES)
    readers = [i for i, ins in enumerate(instrs) if ins.operands]
    for _ in range(count):
        kind = str(rng.choice(["drop", "duplicate", "swap", "opcode"]))
        if kind == "opcode" or not readers:
            target = instrs[int(rng.integers(len(instrs)))]
            other = [op for op in opcodes if op != target.opcode]
            yield "opcode", _rebuilt(m, target, opcode=other[int(rng.integers(len(other)))])
            continue
        at = readers[int(rng.integers(len(readers)))]
        target = instrs[at]
        ops = list(target.operands)
        j = int(rng.integers(len(ops)))
        if kind == "drop":
            del ops[j]
        elif kind == "duplicate":
            ops.insert(j, ops[j])
        else:
            ops[j] = instrs[int(rng.integers(at))]
        yield kind, _rebuilt(m, target, operands=tuple(ops))


@pytest.mark.parametrize("first", [0, 100, 200])
def test_mutants_are_diagnosed_not_raised(first):
    """Over seeded IR-level mutants: `verify` never raises; a module it
    passes simulates or fails with `SimulationError`; and for operand
    mutants, the parser rejects the printed text for its operand count
    exactly when `verify` does, with the same message. (An opcode mutant
    that fails verification may not print: the printer takes verified IR.)"""
    for seed in range(first, first + 100):
        for kind, m in _mutants(seed, 6):
            diags = verify(m)
            if not diags:
                try:
                    Simulator(m, seed=seed).run(random_inputs_for(m, seed))
                except SimulationError:
                    pass
            if kind == "opcode":
                continue
            counts = [d.message for d in diags if d.rule == "operand count"]
            text = print_module(m)
            if counts:
                with pytest.raises(ParseError) as err:
                    parse_module(text)
                assert str(err.value).endswith(f": {counts[0]}"), (seed, kind)
            else:
                parse_module(text)
