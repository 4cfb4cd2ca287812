"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with `pytest tests/test_acceptance.py -s` to see
them inline)."""

import time

import numpy as np
import pytest

from collectives import all_gather, reduce_scatter, reduce_scatter_all_gather
from conftest import bitwise_same, outputs_bitwise_equal, run_pipeline, training_inputs
from irtools import all_instructions
from randmod import random_inputs_for, random_module
from shardgraph import memory, profitability, transform
from shardgraph.costmodel import CostModel, cost
from shardgraph.generators import GenConfig, WeightDef, _chain, build_training_module, gen_module
from shardgraph.ir import (
    ALL_REPLICAS,
    F16R,
    F32,
    GraphBuilder,
    Module,
    S32,
    Shape,
    TupleShape,
    mesh_topology,
    physical_bytes,
    ring_topology,
    scalar,
)
from shardgraph.pipeline import chain_inputs, compile_module
from shardgraph.redundancy import analyze
from shardgraph.sharding import choose_spec
from shardgraph.simulator import Simulator, run
from shardgraph.verify import verify


def report(n, name, detail=""):
    print(f"\nACCEPTANCE {n} {name}: PASS {detail}")


# --------------------------------------------------------------------------- #
# 1. Equivalence suite
# --------------------------------------------------------------------------- #

DIM_POOL = [3, 4, 6, 8, 9, 12, 16, 24]


def _random_config(rng) -> GenConfig:
    n = int(rng.choice([2, 4, 8, 10, 16]))
    optimizer = str(rng.choice(["sgd", "adam", "lars"]))
    steps = int(rng.integers(1, 6))
    n_weights = int(rng.integers(1, 5))
    chain_dims = [int(rng.choice(DIM_POOL)) for _ in range(n_weights + 1)]
    factors: dict[int, tuple[int, int, int]] = {}
    if rng.random() < 0.25:
        li = int(rng.integers(0, n_weights))
        a, b, c = int(rng.choice([2, 3])), int(rng.choice([2, 3])), int(rng.choice([2, 3, 4]))
        chain_dims[li] = a * b * c
        factors[li] = (a, b, c)
    if rng.random() < 0.1:
        # a tile-aligned weight: exercises the bitcast format end to end
        li = int(rng.integers(0, n_weights))
        chain_dims[li] = 2 * 8 * 16
        factors[li] = (2, 8, 16)
    # out dims come from the final chain so overlapping rewrites stay consistent
    fourd = {li: (a, b, c, chain_dims[li + 1]) for li, (a, b, c) in factors.items()}
    topology = ring_topology(n)
    if rng.random() < 0.2 and n in (4, 8, 16):
        topology = {4: mesh_topology(2, 2), 8: mesh_topology(2, 4), 16: mesh_topology(4, 4)}[n]
    outfeed = int(rng.integers(1, steps + 1)) if rng.random() < 0.25 else None
    return GenConfig(
        name="rand",
        weights=_chain(chain_dims, fourd),
        batch=int(rng.integers(2, 6)),
        optimizer=optimizer,
        replicas=n,
        topology=topology,
        steps=steps,
        outfeed_every=outfeed,
        mixed_precision=bool(rng.random() < 0.3),
    )


def test_criterion_1_equivalence_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    cases = 200
    counts = {"sgd": 0, "adam": 0, "lars": 0}
    for case in range(cases):
        cfg = _random_config(rng)
        counts[cfg.optimizer] += 1
        m = build_training_module(cfg)
        assert verify(m) == [], f"case {case}"
        base, fin, res, main = run_pipeline(
            m, steps=cfg.steps, seed=case,
            demote=cfg.mixed_precision, batch=(case % 2 == 0),
        )
        assert outputs_bitwise_equal(base, fin), (
            f"case {case}: {cfg.optimizer} N={cfg.replicas} steps={cfg.steps} "
            f"dims={[w.dims for w in cfg.weights]}"
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"equivalence suite took {elapsed:.1f}s"
    report(1, "equivalence suite",
           f"({cases} modules bitwise-equal in {elapsed:.1f}s; optimizers {counts})")


# --------------------------------------------------------------------------- #
# 2. Collective algebra
# --------------------------------------------------------------------------- #


def test_criterion_2_collective_algebra():
    rng = np.random.default_rng(7)
    cases = 0
    for case in range(110):
        if case % 3 == 0:
            topo = [mesh_topology(2, 2), mesh_topology(2, 4), mesh_topology(4, 4)][case // 3 % 3]
        else:
            topo = ring_topology(int(rng.choice([2, 4, 8])))
        n = topo.n
        etype = S32 if case % 2 else F32
        dims = tuple(int(d) for d in rng.integers(1, 10, size=int(rng.integers(1, 3))))
        spec = choose_spec(Shape(dims, etype), n)
        if etype == S32:
            vals = [rng.integers(-40, 40, size=dims).astype(np.int32) for _ in range(n)]
        else:
            vals = [rng.normal(size=dims).astype(np.float32) for _ in range(n)]
        oracle = np.sum(np.stack([v.astype(np.float64) for v in vals]), axis=0)

        # RS then AG == all-reduce
        full = reduce_scatter_all_gather(vals, spec, topo, etype=etype)
        for out in full:
            if etype == S32:
                assert np.array_equal(out, oracle.astype(np.int32))
            else:
                assert np.all(np.abs(out - oracle) <= 1e-6 * np.maximum(np.abs(oracle), 1.0))

        # group-local RS + cross-group AR + group-local AG == all-reduce
        if topo.kind == "mesh":
            rows = topo.row_groups()
            gspec = choose_spec(Shape(dims, etype), topo.cols, group=rows)
            gshards = reduce_scatter(vals, gspec, topo, etype=etype)
            combined = [None] * n
            for col in topo.col_groups().groups:
                acc = gshards[col[0]]
                for r in col[1:]:
                    acc = acc + gshards[r]
                for r in col:
                    combined[r] = acc
            gfull = all_gather(combined, gspec, topo, etype=etype)
            for out in gfull:
                if etype == S32:
                    assert np.array_equal(out, oracle.astype(np.int32))
                else:
                    assert np.all(np.abs(out - oracle) <= 1e-6 * np.maximum(np.abs(oracle), 1.0))
        cases += 1
    assert cases >= 100
    report(2, "collective algebra", f"({cases} cases incl. two-phase mesh)")


# --------------------------------------------------------------------------- #
# 3. Sharding-spec goldens
# --------------------------------------------------------------------------- #


def test_criterion_3_spec_goldens():
    ten = choose_spec(Shape((3, 3, 256, 256), F32), 10)
    sixty_four = choose_spec(Shape((3, 3, 256, 256), F32), 64)
    assert str(ten) == "[3,3,256,256] reshape[9,256,256] pad0+1 slice0/10"
    assert str(sixty_four) == "[3,3,256,256] bitcast[576,8,128] slice0/64"
    report(3, "sharding-spec goldens", f'("{ten}" / "{sixty_four}")')


# --------------------------------------------------------------------------- #
# 4. Masked reduce
# --------------------------------------------------------------------------- #


def test_criterion_4_masked_reduce():
    from shardgraph.sharding import build_masked_reduce, build_shard_ops

    checked = 0
    for dims, s in [((9, 6), 10), ((3, 3, 12, 6), 10), ((7,), 4), ((12, 8), 4)]:
        for etype in (S32, F32):
            topo = ring_topology(s)
            spec = choose_spec(Shape(dims, etype), s)
            gb = GraphBuilder("main")
            x = gb.parameter(0, spec.source_shape(etype), "x", replica_equal=True)
            rid = gb.emit("replica-id", scalar(S32), id="rid")
            sh = build_shard_ops(spec, x, rid, gb, topo)
            sq = gb.emit("mul", sh.shape, (sh, sh), id="sq")
            init = gb.constant(0.0, etype)
            total = build_masked_reduce(spec, sq, "add", init, rid, gb, topo)
            if etype == F32:
                total = gb.emit("sqrt", scalar(F32), (total,), id="norm")
            m = Module(gb.finish(total), s, topo)
            assert verify(m) == []
            rng = np.random.default_rng(checked)
            if etype == S32:
                xv = rng.integers(-9, 9, size=dims).astype(np.int32)
                expect = int((xv.astype(np.int64) ** 2).sum())
            else:
                xv = rng.normal(size=dims).astype(np.float32)
                expect = float(np.sqrt((xv.astype(np.float64) ** 2).sum()))
            res = run(m, {"x": xv})
            for out in res.outputs:
                if etype == S32:
                    assert int(out) == expect
                else:
                    assert abs(float(out) - expect) <= 1e-5 * max(abs(expect), 1.0)
            checked += 1
    report(4, "masked reduce", f"({checked} sharded weight-norm configs incl. padding)")


# --------------------------------------------------------------------------- #
# 5. Memory formula
# --------------------------------------------------------------------------- #


def test_criterion_5_memory_formula():
    checked = []
    for n, optimizer, layers, steps in [
        (4, "adam", 1, 2),
        (8, "adam", 2, 2),
        (8, "lars", 1, 2),
        (16, "sgd", 1, 2),
        (8, "adam", 1, 0),  # no compiler-visible loop
    ]:
        # large batch: the non-state peak sits in the forward region, which the
        # transform leaves untouched, so P is the same on both sides
        m = gen_module("mlp", replicas=n, steps=steps, layers=layers, dim=8, batch=256,
                       optimizer=optimizer)
        decisions = profitability.plan(m, steps=2)
        for d in decisions:
            d.shard = True
        res = transform.apply(m, decisions, steps_hint=2)
        base = memory.memory_plan_for(m, memory.baseline_manifest(res.manifest), m)
        trans = memory.memory_plan_for(res.main, res.manifest, m)
        w, v, p = base.weight_bytes, base.aux_bytes, base.other_peak
        assert base.peak_bytes == w + v + p
        assert trans.peak_bytes == max(w + v / n + p, w + v), (n, optimizer)
        checked.append((n, optimizer))

    # direct evaluation of the published numbers
    from shardgraph.memory import Manifest, VariableInfo, memory_plan
    from shardgraph.sharding import parse_spec_string

    gb = GraphBuilder("step")
    act = gb.parameter(0, Shape((1024,), F32), "act")
    comp = gb.finish(act)
    manifest = Manifest(
        variables=[
            VariableInfo("w", "weight", 0, residency="sharded",
                         spec=parse_spec_string("[256] slice0/8"), gathered_in_body=True),
            VariableInfo("v", "aux", 1, residency="sharded",
                         spec=parse_spec_string("[512] slice0/8"), gathered_in_body=False),
        ]
    )
    rep = memory_plan(comp, manifest, {"w": Shape((256,), F32), "v": Shape((512,), F32)})
    assert rep.peak_bytes == 5376
    report(5, "memory formula", f"(exact on {checked}; 1024/2048/4096@8 -> 5376)")


# --------------------------------------------------------------------------- #
# 6. Cost-model trends
# --------------------------------------------------------------------------- #


def test_criterion_6_cost_trends():
    t0 = time.monotonic()

    def compare_costs(model):
        m = gen_module(model)
        decisions = profitability.plan(m)
        modeled = compile_module(m, decisions, 1000).model(CostModel())
        base_cost = modeled.baseline_cost
        share = base_cost.weight_update_compute / base_cost.total_step_time
        sharded = sum(1 for d in decisions if d.shard)
        return share, modeled.speedup, sharded, len(decisions)

    share, speedup, sharded, total = compare_costs("transformer-like")
    assert share > 0.40, f"transformer-like weight-update share {share:.3f}"
    assert speedup >= 1.4, f"transformer-like speedup {speedup:.2f}"
    tf_detail = f"transformer: share {share:.2f}, speedup {speedup:.2f} ({sharded}/{total} sharded)"

    _, rspeed, rsharded, rtotal = compare_costs("resnet-like")
    assert rspeed >= 1.03, f"resnet-like speedup {rspeed:.2f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"cost trend checks took {elapsed:.1f}s"
    report(6, "cost-model trends",
           f"({tf_detail}; resnet speedup {rspeed:.2f}; {elapsed:.1f}s)")


# --------------------------------------------------------------------------- #
# 7. Latency-bound detection and batching
# --------------------------------------------------------------------------- #


def test_criterion_7_latency_and_batching():
    # 4 MB tensor across 2048 replicas: 2 KB shards, latency-bound
    gb = GraphBuilder("main")
    g = gb.parameter(0, Shape((1048576,), F32), "g")
    gb.emit("all-reduce", Shape((1048576,), F32), (g,), kind="add", groups=ALL_REPLICAS, id="ar")
    root = gb.instructions[-1]
    m = Module(gb.finish(root), 2048, ring_topology(2048))
    rep = cost(m)
    assert rep.latency_bound
    [c] = rep.collectives
    piece = c.bytes_per_replica / c.rounds
    assert piece == pytest.approx(2048, rel=0.01)  # the 2 KB shard

    # batching 32 cross-group all-reduces cuts their rounds exactly 32x
    k = 32
    cfg = GenConfig("t", _chain([8] * (k + 1)), batch=2, optimizer="sgd",
                    replicas=32, topology=mesh_topology(4, 8), steps=2)
    m2 = build_training_module(cfg)
    decisions = profitability.plan(m2, steps=2)
    for d in decisions:
        d.shard = True
        assert not d.spec.group.is_all  # partial sharding on the mesh
    res = transform.apply(m2, decisions, steps_hint=2)
    batched = transform.batch_collectives(res.main)

    def cross_rounds(module):
        rep = cost(module)
        return sum(
            c.rounds * c.executions
            for c in rep.collectives
            if c.op == "all-reduce" and c.group_size == 4
        )

    before, after = cross_rounds(res.main), cross_rounds(batched)
    assert before == k * after, (before, after)
    report(7, "latency-bound + batching",
           f"(2KB shards flagged; cross-group rounds {before:.0f} -> {after:.0f}, exactly {k}x)")


# --------------------------------------------------------------------------- #
# 8. Precision demotion
# --------------------------------------------------------------------------- #


def test_criterion_8_precision_demotion():
    cfg = GenConfig("t", _chain([8, 8, 8]), batch=4, optimizer="adam", replicas=4,
                    topology=ring_topology(4), steps=3, mixed_precision=True)
    m = build_training_module(cfg)
    decisions = profitability.plan(m, steps=3)
    for d in decisions:
        d.shard = True
    res = transform.apply(m, decisions, steps_hint=3)
    demoted = transform.demote_allgather_precision(res.main)

    before = {c.instruction: c for c in cost(res.main).collectives if c.op == "all_gather"}
    after = {c.instruction: c for c in cost(demoted).collectives if c.op == "all_gather"}
    assert before and len(before) == len(after)
    for key in before:
        assert after[key].bytes_per_replica * 2 == before[key].bytes_per_replica

    inputs = training_inputs(m, 13)
    sh = run(res.shard_program, inputs, seed=13)
    out_f32 = run(res.main, chain_inputs(res.main, sh.outputs), seed=13)
    out_f16 = run(demoted, chain_inputs(demoted, sh.outputs), seed=13)
    assert outputs_bitwise_equal(out_f32.outputs, out_f16.outputs)
    report(8, "precision demotion",
           f"({len(before)} gathers halved: "
           f"{[int(c.bytes_per_replica) for c in before.values()]} -> "
           f"{[int(c.bytes_per_replica) for c in after.values()]} bytes; outputs bitwise equal)")


# --------------------------------------------------------------------------- #
# 9. Redundancy soundness
# --------------------------------------------------------------------------- #


def test_criterion_9_redundancy_soundness():
    checked = 0
    varying_loops = 0
    for seed in range(110):
        m = random_module(seed)
        assert verify(m) == []
        rmap = analyze(m)
        failures = []

        def watch(instr, replicas, values):
            if len(replicas) < 2 or not rmap.verdicts.get(instr.id, False):
                return
            def key(v):
                if isinstance(v, tuple):
                    return tuple(np.asarray(e).tobytes() for e in v)
                return np.asarray(v).tobytes()
            first = key(values[0])
            if any(key(v) != first for v in values[1:]):
                failures.append(instr.id)

        Simulator(m, seed=seed, on_value=watch).run(random_inputs_for(m, seed))
        assert not failures, f"seed {seed}: {failures[:5]}"
        checked += 1

        for instr in all_instructions(m):
            if instr.opcode == "while":
                if any(i.opcode == "replica-id" for i in instr.cond.instructions):
                    varying_loops += 1
                    for body_instr in instr.body.instructions:
                        assert not rmap.verdicts[body_instr.id], body_instr.id
    assert checked >= 100
    assert varying_loops >= 3  # the sampler must actually produce such loops
    report(9, "redundancy soundness",
           f"({checked} random modules, {varying_loops} replica-varying loops all poisoned)")
