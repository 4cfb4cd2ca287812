import numpy as np

from irtools import find
from shardgraph.ir import (
    ALL_REPLICAS,
    Computation,
    F32,
    GraphBuilder,
    Module,
    PRED,
    ReplicaGroups,
    S32,
    Shape,
    TupleShape,
    ring_topology,
    scalar,
)
from shardgraph.redundancy import analyze


def module_of(comp, n=4):
    return Module(comp, replica_count=n, topology=ring_topology(n))


def test_sources_and_sinks():
    gb = GraphBuilder("main")
    c = gb.constant(3.0, id="c")
    noise = gb.emit("rng", scalar(F32), id="noise")
    tainted = gb.emit("add", scalar(F32), (noise, c), id="tainted")
    clean = gb.emit("add", scalar(F32), (c, c), id="clean")
    rid = gb.emit("replica-id", scalar(S32), id="rid")
    io = gb.emit("iota", Shape((4,), S32), dims=(0,), id="io")
    root = gb.emit("tuple", TupleShape((scalar(F32), scalar(S32), Shape((4,), S32))), (tainted, rid, io))
    m = module_of(gb.finish(root))
    r = analyze(m)
    assert r.redundant("c")
    assert r.redundant("clean")
    assert r.redundant("io")
    assert not r.redundant("noise")
    assert not r.redundant("tainted")
    assert not r.redundant("rid")


def test_annotated_vs_plain_parameters():
    gb = GraphBuilder("main")
    w = gb.parameter(0, Shape((4,), F32), "w", replica_equal=True)
    x = gb.parameter(1, Shape((4,), F32), "x")
    s = gb.emit("add", Shape((4,), F32), (w, x), id="s")
    root = gb.emit("tuple", TupleShape((Shape((4,), F32),)), (s,))
    r = analyze(module_of(gb.finish(root)))
    assert r.redundant("w")
    assert not r.redundant("x")
    assert not r.redundant("s")


def test_all_reduce_launders_and_subgroups_do_not():
    gb = GraphBuilder("main")
    x = gb.parameter(0, Shape((4,), F32), "x")
    full = gb.emit("all-reduce", Shape((4,), F32), (x,), kind="add", groups=ALL_REPLICAS, id="full")
    sub = gb.emit(
        "all-reduce", Shape((4,), F32), (x,), kind="add",
        groups=ReplicaGroups(((0, 1), (2, 3))), id="sub",
    )
    root = gb.emit("tuple", TupleShape((Shape((4,), F32),) * 2), (full, sub))
    r = analyze(module_of(gb.finish(root)))
    assert r.redundant("full")
    assert not r.redundant("sub")


def test_outfeed_never_redundant():
    gb = GraphBuilder("main")
    c = gb.constant(1.0, id="c")
    o = gb.emit("outfeed", TupleShape(()), (c,), id="o")
    root = gb.emit("tuple", TupleShape(()), (), id="root")
    r = analyze(module_of(gb.finish(root)))
    assert not r.redundant("o")


def _counting_loop(body_extra=None, cond_reads_rid=False, carry_noise=False):
    state = TupleShape((scalar(S32), Shape((4,), F32)))
    body = GraphBuilder("body")
    bp = body.parameter(0, state, "bp")
    i = body.emit("get-tuple-element", scalar(S32), (bp,), index=0, id="i")
    w = body.emit("get-tuple-element", Shape((4,), F32), (bp,), index=1, id="w")
    upd = body.emit("add", Shape((4,), F32), (w, w), id="upd")
    if carry_noise:
        noise = body.emit("rng", Shape((4,), F32), id="noise")
        upd = body.emit("add", Shape((4,), F32), (upd, noise), id="upd2")
    i2 = body.emit("add", scalar(S32), (i, body.constant(1, S32)), id="i2")
    root = body.emit("tuple", state, (i2, upd), id="next")
    body_c = body.finish(root)

    cond = GraphBuilder("cond")
    cp = cond.parameter(0, state, "cp")
    ci = cond.emit("get-tuple-element", scalar(S32), (cp,), index=0, id="ci")
    if cond_reads_rid:
        rid = cond.emit("replica-id", scalar(S32), id="crid")
        bound = cond.emit("add", scalar(S32), (rid, cond.constant(5, S32)), id="cbound")
    else:
        bound = cond.constant(1000, S32, id="cbound")
    flag = cond.emit("compare", scalar(PRED), (ci, bound), direction="lt", id="cont")
    cond_c = cond.finish(flag)

    gb = GraphBuilder("main")
    w0 = gb.parameter(0, Shape((4,), F32), "w0", replica_equal=True)
    init = gb.emit("tuple", state, (gb.constant(0, S32, id="zero"), w0), id="init")
    loop = gb.emit("while", state, (init,), cond=cond_c, body=body_c, id="loop")
    return module_of(gb.finish(loop))


def test_counter_loop_all_redundant():
    r = analyze(_counting_loop())
    for iid in ("i", "w", "upd", "i2", "next", "loop", "cont"):
        assert r.redundant(iid), iid


def test_loop_carrying_taint_reaches_fixed_point():
    # noise enters the carried weight; after feedback both elements of the
    # update chain must be non-redundant while the counter stays redundant
    r = analyze(_counting_loop(carry_noise=True))
    assert r.redundant("i") and r.redundant("i2")
    assert not r.redundant("w")
    assert not r.redundant("upd")
    assert not r.redundant("upd2")
    assert not r.redundant("loop")


def test_replica_varying_condition_poisons_body():
    r = analyze(_counting_loop(cond_reads_rid=True))
    for iid in ("i", "w", "upd", "i2", "next", "cont", "loop"):
        assert not r.redundant(iid), iid


def _entry_over(instr, verdicts):
    """A module whose entry calls `instr` (a `while` or a `conditional`) on
    fresh parameters: one per operand, or per element of a tuple operand
    (packed by a `tuple`), parameter k carrying verdict k as
    `replica_equal`. A tuple result is unpacked into %out0, %out1, ..."""
    gb = GraphBuilder("main")
    params = []

    def param(shape):
        params.append(gb.parameter(len(params), shape, f"p{len(params)}", verdicts[len(params)]))
        return params[-1]

    operands = [
        gb.emit("tuple", o.shape, [param(e) for e in o.shape.elements]) if isinstance(o.shape, TupleShape)
        else param(o.shape)
        for o in instr.operands
    ]
    call = gb.emit(
        instr.opcode, instr.shape, operands, id=instr.id, cond=instr.cond, body=instr.body, branches=instr.branches
    )
    if isinstance(instr.shape, TupleShape):
        elements = enumerate(instr.shape.elements)
        outs = [gb.emit("get-tuple-element", e, (call,), index=k, id=f"out{k}") for k, e in elements]
        call = gb.emit("tuple", instr.shape, outs)
    return module_of(gb.finish(call))


def test_analyze_loop_direct():
    loop = find(_counting_loop(carry_noise=True).entry, "loop")
    r = analyze(_entry_over(loop, (True, False)))
    out = (r.redundant("out0"), r.redundant("out1"))
    assert out == (True, False)
    assert r.verdicts["upd"] is False
    assert r.verdicts["i2"] is True


def _conditional_module(pred_from="const", branch_rng=False):
    arg_shape = Shape((4,), F32)
    t = GraphBuilder("tb")
    tp = t.parameter(0, arg_shape, "tp")
    tout = t.emit("add", arg_shape, (tp, tp), id="tout")
    if branch_rng:
        nz = t.emit("rng", arg_shape, id="tnoise")
        tout = t.emit("add", arg_shape, (tout, nz), id="tout2")
    t_c = t.finish(tout)
    f = GraphBuilder("fb")
    fp = f.parameter(0, arg_shape, "fp")
    f_c = f.finish(fp)

    gb = GraphBuilder("main")
    if pred_from == "const":
        pred = gb.constant(True, PRED, id="pred")
    else:
        rid = gb.emit("replica-id", scalar(S32), id="rid")
        pred = gb.emit("compare", scalar(PRED), (rid, gb.constant(0, S32)), direction="eq", id="pred")
    arg = gb.parameter(0, arg_shape, "arg", replica_equal=True)
    c = gb.emit("conditional", arg_shape, (pred, arg, arg), branches=(t_c, f_c), id="cond")
    return module_of(gb.finish(c))


def test_conditional_redundant_when_all_parts_are():
    r = analyze(_conditional_module())
    assert r.redundant("cond")


def test_conditional_replica_varying_predicate():
    r = analyze(_conditional_module(pred_from="rid"))
    assert not r.redundant("cond")
    assert not r.redundant("tout")  # poisoned branch internals


def test_conditional_rng_in_branch_root():
    r = analyze(_conditional_module(branch_rng=True))
    assert not r.redundant("cond")


def test_analyze_conditional_direct():
    c = find(_conditional_module().entry, "cond")
    assert analyze(_entry_over(c, [True, True, True])).redundant("cond")
    assert not analyze(_entry_over(c, [False, True, True])).redundant("cond")


def test_monotone_in_annotations():
    def build(annotated: bool):
        gb = GraphBuilder("main")
        w = gb.parameter(0, Shape((4,), F32), "w", replica_equal=annotated)
        u = gb.emit("mul", Shape((4,), F32), (w, w), id="u")
        root = gb.emit("tuple", TupleShape((Shape((4,), F32),)), (u,))
        return module_of(gb.finish(root))

    with_ann = {k for k, v in analyze(build(True)).verdicts.items() if v}
    without = {k for k, v in analyze(build(False)).verdicts.items() if v}
    assert without <= with_ann


def test_verdicts_independent_of_emission_order():
    # same dataflow, operands declared in a different (still def-before-use) order
    def build(reordered: bool):
        gb = GraphBuilder("main")
        a = gb.constant(1.0, id="a")
        b = gb.constant(2.0, id="b")
        if reordered:
            y = gb.emit("add", scalar(F32), (b, b), id="y")
            x = gb.emit("add", scalar(F32), (a, a), id="x")
        else:
            x = gb.emit("add", scalar(F32), (a, a), id="x")
            y = gb.emit("add", scalar(F32), (b, b), id="y")
        root = gb.emit("tuple", TupleShape((scalar(F32), scalar(F32))), (x, y), id="r")
        return module_of(gb.finish(root))

    assert analyze(build(False)).verdicts == analyze(build(True)).verdicts
