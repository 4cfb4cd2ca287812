"""Random module sampler for the redundancy soundness oracle.

Builds small modules mixing redundancy sources (constants, iota, annotated
parameters, full-group all-reduces) with replica-varying taint (rng,
replica-id, plain parameters, subgrouped all-reduces), plus optional counted
or replica-varying while loops and conditionals. Loops with replica-varying
conditions never contain collectives, so they stay simulatable.

Seeds from `FORM_SEEDS` on may also draw two forms that `verify` accepts and
the seeds below it never draw: a loop whose state is one array (it runs
until the state's largest element is at most 1, with no counter), and a loop
state that enters as a tuple entry parameter. Seeds below it draw the
modules they always drew.
"""

from __future__ import annotations

import numpy as np

from shardgraph.ir import (
    ALL_REPLICAS,
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
from shardgraph.simulator import PerReplica

SHAPE_POOL = [(), (4,), (2, 3), (3, 4)]
FORM_SEEDS = 1000


def _rand_value_producer(gb, rng, shape, n, idx):
    kind = rng.choice(["const", "annotated", "plain", "rng", "iota", "rid"])
    s = Shape(shape, F32)
    if kind == "const":
        vals = rng.normal(size=max(s.element_count, 1)).round(3)
        return gb.constant(vals[: s.element_count] if shape else float(vals[0]), F32, dims=shape)
    if kind == "annotated":
        return gb.parameter(idx[0], s, f"p{idx[0]}", replica_equal=True)
    if kind == "plain":
        return gb.parameter(idx[0], s, f"p{idx[0]}")
    if kind == "rng":
        return gb.emit("rng", s, id=gb.fresh_id("noise"))
    if kind == "iota":
        if not shape:
            return gb.constant(1.0, F32)
        return gb.emit("iota", Shape(shape, F32), dims=(0,), id=gb.fresh_id("io"))
    rid = gb.emit("replica-id", scalar(S32), id=gb.fresh_id("rid"))
    if shape == ():
        return gb.emit("convert", scalar(F32), (rid,))
    c = gb.emit("convert", scalar(F32), (rid,))
    return gb.broadcast_scalar(c, s)


def _rand_combine(gb, rng, values, shape):
    s = Shape(shape, F32)
    pool = [v for v in values if isinstance(v.shape, Shape) and v.shape.dims == shape]
    if len(pool) < 2:
        return None
    a, b = rng.choice(len(pool), size=2, replace=True)
    a, b = pool[a], pool[b]
    op = rng.choice(["add", "mul", "max", "min", "sub"])
    return gb.emit(op, s, (a, b))


def random_module(seed: int, n: int | None = None) -> Module:
    rng = np.random.default_rng(seed)
    n = n or int(rng.choice([2, 3, 4]))
    gb = GraphBuilder("main")
    idx = [0]
    values = []
    shape = tuple(SHAPE_POOL[int(rng.integers(0, len(SHAPE_POOL)))])

    for _ in range(int(rng.integers(2, 5))):
        v = _rand_value_producer(gb, rng, shape, n, idx)
        if v.opcode == "parameter":
            idx[0] += 1
        values.append(v)
    for _ in range(int(rng.integers(1, 5))):
        v = _rand_combine(gb, rng, values, shape)
        if v is not None:
            values.append(v)

    # sometimes an all-reduce (full or subgrouped)
    if rng.random() < 0.7 and shape:
        src = values[int(rng.integers(0, len(values)))]
        if isinstance(src.shape, Shape) and src.shape.dims == shape:
            if n % 2 == 0 and rng.random() < 0.4:
                groups = ReplicaGroups(tuple((i, i + n // 2) for i in range(n // 2)))
            else:
                groups = ALL_REPLICAS
            values.append(
                gb.emit("all-reduce", Shape(shape, F32), (src,), kind="add", groups=groups,
                        id=gb.fresh_id("ar"))
            )

    # sometimes a conditional on a redundant or varying predicate
    if rng.random() < 0.5:
        arg = values[-1]
        if isinstance(arg.shape, Shape):
            t = GraphBuilder(gb.fresh_id("tb"), id_prefix="t.")
            tp = t.parameter(0, arg.shape, t.fresh_id("a"))
            tr = t.emit("add", arg.shape, (tp, tp))
            tcomp = t.finish(tr)
            f = GraphBuilder(gb.fresh_id("fb"), id_prefix="f.")
            fp = f.parameter(0, arg.shape, f.fresh_id("a"))
            fcomp = f.finish(fp)
            if rng.random() < 0.5:
                pred = gb.emit("compare", scalar(PRED),
                               (gb.constant(1, S32), gb.constant(0, S32)), direction="gt")
            else:
                rid = gb.emit("replica-id", scalar(S32), id=gb.fresh_id("rid"))
                pred = gb.emit("compare", scalar(PRED), (rid, gb.constant(1, S32)), direction="lt")
            values.append(
                gb.emit("conditional", arg.shape, (pred, arg, arg), branches=(tcomp, fcomp),
                        id=gb.fresh_id("cond"))
            )

    # sometimes a loop carrying (i, value); condition either counted or
    # replica-varying (collective-free body by construction)
    forms = seed >= FORM_SEEDS
    if (forms or rng.random() < 0.5) and shape:
        carried = next(
            (v for v in reversed(values) if isinstance(v.shape, Shape) and v.shape.dims == shape),
            None,
        )
        if carried is not None and forms and rng.random() < 0.5:
            values.append(_one_array_loop(gb, carried))
        elif carried is not None:
            state = TupleShape((scalar(S32), Shape(shape, F32)))
            body = GraphBuilder(gb.fresh_id("body"), id_prefix="b.")
            bp = body.parameter(0, state, body.fresh_id("state"))
            bi = body.emit("get-tuple-element", scalar(S32), (bp,), index=0)
            bw = body.emit("get-tuple-element", Shape(shape, F32), (bp,), index=1)
            half = body.broadcast_scalar(body.constant(0.5), Shape(shape, F32))
            bw2 = body.emit("mul", Shape(shape, F32), (bw, half))
            bi2 = body.emit("add", scalar(S32), (bi, body.constant(1, S32)))
            broot = body.emit("tuple", state, (bi2, bw2))
            bcomp = body.finish(broot)

            cond = GraphBuilder(gb.fresh_id("cond_c"), id_prefix="c.")
            cp = cond.parameter(0, state, cond.fresh_id("state"))
            ci = cond.emit("get-tuple-element", scalar(S32), (cp,), index=0)
            if rng.random() < 0.3:
                crid = cond.emit("replica-id", scalar(S32), id=cond.fresh_id("rid"))
                bound = cond.emit("add", scalar(S32), (crid, cond.constant(2, S32)))
            else:
                bound = cond.constant(int(rng.integers(1, 4)), S32)
            cflag = cond.emit("compare", scalar(PRED), (ci, bound), direction="lt")
            ccomp = cond.finish(cflag)

            if forms and rng.random() < 0.5:
                init = gb.parameter(idx[0], state, f"p{idx[0]}")
            else:
                init = gb.emit("tuple", state, (gb.constant(0, S32), carried))
            values.append(gb.emit("while", state, (init,), cond=ccomp, body=bcomp,
                                  id=gb.fresh_id("loop")))

    roots = [v for v in values if isinstance(v.shape, Shape)][-3:]
    root = gb.emit("tuple", TupleShape(tuple(r.shape for r in roots)), tuple(roots), id="out")
    return Module(gb.finish(root), n, ring_topology(n))


def _one_array_loop(gb, carried):
    """A `while` over `carried` itself: the body halves the state until its
    largest element is at most 1."""
    shape = carried.shape
    body = GraphBuilder(gb.fresh_id("body"), id_prefix="b.")
    bp = body.parameter(0, shape, body.fresh_id("state"))
    bcomp = body.finish(body.emit("mul", shape, (bp, body.broadcast_scalar(body.constant(0.5), shape))))
    cond = GraphBuilder(gb.fresh_id("cond_c"), id_prefix="c.")
    cp = cond.parameter(0, shape, cond.fresh_id("state"))
    top = cond.emit(
        "reduce", scalar(F32), (cp, cond.constant(float("-inf"))), dims=tuple(range(shape.rank)), kind="max"
    )
    ccomp = cond.finish(cond.emit("compare", scalar(PRED), (top, cond.constant(1.0)), direction="gt"))
    return gb.emit("while", shape, (carried,), cond=ccomp, body=bcomp, id=gb.fresh_id("loop"))


def random_inputs_for(m: Module, seed: int) -> dict:
    rng = np.random.default_rng(seed + 10_000)
    inputs = {}
    for p in m.entry.parameters:
        def draw(shape=p.shape):
            if isinstance(shape, TupleShape):
                return tuple(draw(e) for e in shape.elements)
            return rng.normal(size=shape.dims).astype(np.float32 if shape.etype == F32 else np.int32)

        if p.replica_equal:
            inputs[p.id] = draw()
        else:
            inputs[p.id] = PerReplica([draw() for _ in range(m.replica_count)])
    return inputs
