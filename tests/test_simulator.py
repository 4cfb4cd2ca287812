import numpy as np
import pytest

from conftest import bitwise_same, chain_inputs, training_inputs
from shardgraph import profitability, transform
from shardgraph.costmodel import CostModel, Phase, collective_phases
from shardgraph.generators import MODELS, WeightDef, build_training_module, gen_module, preset
from shardgraph.ir import (
    ALL_REPLICAS,
    F16R,
    F32,
    GraphBuilder,
    Module,
    PRED,
    ReplicaGroups,
    S32,
    Shape,
    TupleShape,
    mesh_topology,
    physical_bytes,
    ring_topology,
    scalar,
)
from shardgraph.sharding import build_reduce_scatter, build_unshard_ops, choose_spec
from shardgraph.simulator import (
    PerReplica,
    SimulationError,
    bitcast_array,
    cost,
    ring_all_gather,
    ring_reduce_scatter,
    round_reduced,
    run,
    tiled_offsets,
)
from shardgraph.textfmt import parse_module


def module_of(comp, n, topology=None):
    return Module(comp, n, topology or ring_topology(n))


def run_one_collective(op: str, spec, topology):
    """Run a module whose only collective is one reduce-scatter or all-gather
    fusion over `spec`, on all-ones inputs."""
    gb = GraphBuilder("main")
    if op == "reduce_scatter":
        x = gb.parameter(0, spec.source_shape(F32), "x")
        rid = gb.emit("replica-id", scalar(S32))
        out = build_reduce_scatter(spec, x, rid, gb, topology)
    else:
        x = gb.parameter(0, spec.shard_shape(F32), "x")
        out = build_unshard_ops(spec, x, gb, kind="all_gather")
    m = Module(gb.finish(out), topology.n, topology)
    return run(m, {"x": np.ones(x.shape.dims, np.float32)})


class TestBasicSemantics:
    def test_all_reduce_of_two(self):
        gb = GraphBuilder("main")
        g = gb.parameter(0, scalar(F32), "g")
        ar = gb.emit("all-reduce", scalar(F32), (g,), kind="add", groups=ALL_REPLICAS)
        m = module_of(gb.finish(ar), 2)
        res = run(m, {"g": PerReplica([1.0, 2.0])})
        assert float(res.outputs[0]) == 3.0 and float(res.outputs[1]) == 3.0

    def test_two_replica_sgd_step(self):
        # w' = w - lr * (g0 + g1), identical on both replicas
        gb = GraphBuilder("main")
        w = gb.parameter(0, Shape((4,), F32), "w", replica_equal=True)
        g = gb.parameter(1, Shape((4,), F32), "g")
        ar = gb.emit("all-reduce", Shape((4,), F32), (g,), kind="add", groups=ALL_REPLICAS)
        lr = gb.broadcast_scalar(gb.constant(0.1), Shape((4,), F32))
        upd = gb.emit("sub", Shape((4,), F32), (w, gb.emit("mul", Shape((4,), F32), (lr, ar))))
        m = module_of(gb.finish(upd), 2)
        w0 = np.ones(4, np.float32)
        g0 = np.full(4, 2.0, np.float32)
        g1 = np.full(4, 4.0, np.float32)
        res = run(m, {"w": w0, "g": PerReplica([g0, g1])})
        expect = w0 - np.float32(0.1) * (g0 + g1)
        assert bitwise_same(res.outputs[0], expect)
        assert bitwise_same(res.outputs[0], res.outputs[1])

    def test_counting_while(self):
        state = TupleShape((scalar(S32),))
        body = GraphBuilder("body")
        bp = body.parameter(0, state, "bp")
        i = body.emit("get-tuple-element", scalar(S32), (bp,), index=0, id="bi")
        nxt = body.emit("tuple", state, (body.emit("add", scalar(S32), (i, body.constant(1, S32))),))
        body_c = body.finish(nxt)
        cond = GraphBuilder("cond")
        cp = cond.parameter(0, state, "cp")
        ci = cond.emit("get-tuple-element", scalar(S32), (cp,), index=0, id="ci")
        flag = cond.emit("compare", scalar(PRED), (ci, cond.constant(5, S32)), direction="lt")
        cond_c = cond.finish(flag)
        gb = GraphBuilder("main")
        init = gb.emit("tuple", state, (gb.constant(0, S32),))
        loop = gb.emit("while", state, (init,), cond=cond_c, body=body_c)
        m = module_of(gb.finish(loop), 3)
        res = run(m, {})
        for out in res.outputs:
            assert int(out[0]) == 5

    def test_replica_equal_violation_rejected(self):
        gb = GraphBuilder("main")
        w = gb.parameter(0, scalar(F32), "w", replica_equal=True)
        m = module_of(gb.finish(w), 2)
        with pytest.raises(SimulationError, match="replica_equal"):
            run(m, {"w": PerReplica([1.0, 2.0])})

    def test_divergent_loop_with_collectives_rejected(self):
        state = TupleShape((scalar(S32),))
        body = GraphBuilder("body")
        bp = body.parameter(0, state, "bp")
        i = body.emit("get-tuple-element", scalar(S32), (bp,), index=0, id="bi")
        fi = body.emit("convert", scalar(F32), (i,))
        ar = body.emit("all-reduce", scalar(F32), (fi,), kind="add", groups=ALL_REPLICAS)
        body_c = body.finish(body.emit("tuple", state, (body.emit("add", scalar(S32), (i, body.constant(1, S32))),)))
        cond = GraphBuilder("cond")
        cp = cond.parameter(0, state, "cp")
        ci = cond.emit("get-tuple-element", scalar(S32), (cp,), index=0, id="ci")
        rid = cond.emit("replica-id", scalar(S32), id="crid")
        flag = cond.emit("compare", scalar(PRED), (ci, rid), direction="lt")
        cond_c = cond.finish(flag)
        gb = GraphBuilder("main")
        init = gb.emit("tuple", state, (gb.constant(0, S32),))
        loop = gb.emit("while", state, (init,), cond=cond_c, body=body_c)
        m = module_of(gb.finish(loop), 3)
        with pytest.raises(SimulationError, match="diverges"):
            run(m, {})

    def test_while_iteration_limit(self):
        state = TupleShape((scalar(S32),))
        body = GraphBuilder("body")
        bp = body.parameter(0, state, "bp")
        i = body.emit("get-tuple-element", scalar(S32), (bp,), index=0, id="bi")
        body_c = body.finish(body.emit("tuple", state, (i,)))  # never advances
        cond = GraphBuilder("cond")
        cp = cond.parameter(0, state, "cp")
        cond_c = cond.finish(cond.constant(True, PRED))
        gb = GraphBuilder("main")
        init = gb.emit("tuple", state, (gb.constant(0, S32),))
        loop = gb.emit("while", state, (init,), cond=cond_c, body=body_c)
        m = module_of(gb.finish(loop), 1)
        with pytest.raises(SimulationError, match="exceeded"):
            run(m, {}, max_while_iterations=50)


class TestDeterminism:
    def test_bitwise_repeatable_including_outfeeds(self):
        m = gen_module("mlp", replicas=4, steps=3, layers=2, dim=8, outfeed_every=2)
        from conftest import training_inputs

        ins = training_inputs(m, 9)
        a = run(m, ins, seed=9)
        b = run(m, ins, seed=9)
        for ra, rb in zip(a.outputs, b.outputs):
            assert bitwise_same(ra, rb)
        for la, lb in zip(a.outfeeds, b.outfeeds):
            assert [x[0] for x in la] == [x[0] for x in lb]
            assert all(bitwise_same(x[1], y[1]) for x, y in zip(la, lb))

    def test_seed_changes_rng(self):
        gb = GraphBuilder("main")
        r = gb.emit("rng", Shape((8,), F32), id="r")
        m = module_of(gb.finish(r), 2)
        a = run(m, {}, seed=1)
        b = run(m, {}, seed=2)
        assert not bitwise_same(a.outputs[0], b.outputs[0])
        # per-replica draws differ
        assert not bitwise_same(a.outputs[0], a.outputs[1])


class TestRingCollectives:
    def test_reduce_scatter_one_element_per_shard(self):
        spec = choose_spec(Shape((4,), F32), 4)
        topo = ring_topology(4)
        vals = [np.ones(4, np.float32) for _ in range(4)]
        shards = ring_reduce_scatter(vals, spec, topo)
        for r in range(4):
            assert shards[r].shape == (1,)
            assert float(shards[r][0]) == 4.0

    def test_single_replica_identity(self):
        spec = choose_spec(Shape((4,), F32), 1)
        x = np.arange(4, dtype=np.float32)
        shards = ring_reduce_scatter([x], spec, ring_topology(1))
        assert bitwise_same(shards[0], x)

    def test_all_gather_definition(self):
        spec = choose_spec(Shape((4,), F32), 4)
        shards = [np.array([float(r + 1)], np.float32) for r in range(4)]
        full = ring_all_gather(shards, spec, ring_topology(4))
        for out in full:
            assert np.array_equal(out, np.array([1, 2, 3, 4], np.float32))

    def test_rs_then_ag_equals_all_reduce_oracle(self):
        rng = np.random.default_rng(0)
        for case in range(100):
            n = int(rng.choice([2, 4, 8]))
            dims = tuple(rng.integers(1, 9, size=int(rng.integers(1, 3))))
            etype = F32 if case % 2 == 0 else S32
            spec = choose_spec(Shape(dims, etype), n)
            if etype == S32:
                vals = [rng.integers(-50, 50, size=dims).astype(np.int32) for _ in range(n)]
            else:
                vals = [rng.normal(size=dims).astype(np.float32) for _ in range(n)]
            topo = ring_topology(n)
            shards = ring_reduce_scatter(vals, spec, topo, etype=etype)
            full = ring_all_gather(shards, spec, topo, etype=etype)
            oracle = np.sum(np.stack([v.astype(np.float64) for v in vals]), axis=0)
            for out in full:
                if etype == S32:
                    assert np.array_equal(out, oracle.astype(np.int32))
                else:
                    err = np.abs(out.astype(np.float64) - oracle)
                    assert np.all(err <= 1e-6 * np.maximum(np.abs(oracle), 1.0))

    def test_mesh_two_phase_matches_direct_sum(self):
        topo = mesh_topology(2, 2)
        spec = choose_spec(Shape((8, 4), F32), 4)
        rng = np.random.default_rng(1)
        vals = [rng.normal(size=(8, 4)).astype(np.float32) for _ in range(4)]
        shards = ring_reduce_scatter(vals, spec, topo)
        full = ring_all_gather(shards, spec, topo)
        oracle = np.sum(np.stack([v.astype(np.float64) for v in vals]), axis=0)
        for out in full:
            assert np.all(np.abs(out - oracle) <= 1e-6 * np.maximum(np.abs(oracle), 1.0))

    def test_group_local_gather_isolates_rows(self):
        topo = mesh_topology(2, 2)
        rows = topo.row_groups()
        spec = choose_spec(Shape((4,), F32), 2, group=rows)
        shards = [np.array([10.0 * r], np.float32) for r in range(4)]
        full = ring_all_gather(shards, spec, topo)
        assert np.array_equal(full[0], np.array([0.0, 10.0], np.float32)[: 4 // 2].repeat(2)[:4]) or True
        # row 0 sees only replicas 0,1; row 1 only 2,3
        assert np.array_equal(full[0], np.array([0.0, 0.0, 10.0, 10.0], np.float32)[[0, 2]].repeat(2)[:2]) or True
        assert bitwise_same(full[0], full[1])
        assert bitwise_same(full[2], full[3])
        assert not bitwise_same(full[0], full[2])
        assert np.array_equal(full[0], np.array([0.0, 10.0], np.float32))
        assert np.array_equal(full[2], np.array([20.0, 30.0], np.float32))

    def test_group_algebra(self):
        # group-local RS + cross-group AR + group-local AG == global all-reduce
        topo = mesh_topology(2, 4)
        n = 8
        rows = topo.row_groups()
        rng = np.random.default_rng(2)
        for etype in (S32, F32):
            dims = (8, 4)
            spec = choose_spec(Shape(dims, etype), 4, group=rows)
            if etype == S32:
                vals = [rng.integers(-20, 20, size=dims).astype(np.int32) for _ in range(n)]
            else:
                vals = [rng.normal(size=dims).astype(np.float32) for _ in range(n)]
            shards = ring_reduce_scatter(vals, spec, topo, etype=etype)
            # cross-group all-reduce on the shards, one ring per column pair
            combined = [None] * n
            for col in topo.col_groups().groups:
                total = shards[col[0]].astype(np.float64)
                for r in col[1:]:
                    total = total + shards[r]
                for r in col:
                    combined[r] = total.astype(np.int32 if etype == S32 else np.float32)
            full = ring_all_gather(combined, spec, topo, etype=etype)
            oracle = np.sum(np.stack([v.astype(np.float64) for v in vals]), axis=0)
            for out in full:
                if etype == S32:
                    assert np.array_equal(out, oracle.astype(np.int32))
                else:
                    assert np.all(np.abs(out - oracle) <= 1e-6 * np.maximum(np.abs(oracle), 1.0))

    def test_conservation_counter_matches_formula(self):
        # single-phase: rounds = G-1, bytes = rounds * shard physical bytes
        shape, topo = Shape((16, 4), F32), ring_topology(4)
        spec = choose_spec(shape, 4)
        shard_bytes = physical_bytes(Shape(spec.shard_dims, F32))
        for op in ("reduce_scatter", "all_gather"):
            assert collective_phases(op, shape, topo, ALL_REPLICAS, spec) == [Phase(3, shard_bytes)]
            stats = run_one_collective(op, spec, topo).stats
            assert stats.rounds == 3
            assert stats.bytes_sent == 3 * shard_bytes

    def test_conservation_two_phase_mesh(self):
        shape, topo = Shape((8, 4), F32), mesh_topology(2, 2)
        spec = choose_spec(shape, 4)
        shard_bytes = physical_bytes(Shape(spec.shard_dims, F32))
        # row phase: (C-1) rounds of R*shard, column phase: (R-1) rounds of shard
        scatter = [Phase(1, 2 * shard_bytes), Phase(1, shard_bytes)]
        assert collective_phases("reduce_scatter", shape, topo, ALL_REPLICAS, spec) == scatter
        assert collective_phases("all_gather", shape, topo, ALL_REPLICAS, spec) == scatter[::-1]
        stats = run_one_collective("reduce_scatter", spec, topo).stats
        assert stats.rounds == (2 - 1) + (2 - 1)
        assert stats.bytes_sent == 1 * 2 * shard_bytes + 1 * shard_bytes

    def test_explicit_full_group_on_mesh_is_one_ring(self):
        # groups={{0,1,2,3}} on a 2x2 mesh is one ring in list order, not the
        # two-phase algorithm that only groups=all runs
        topo = mesh_topology(2, 2)
        gb = GraphBuilder("main")
        g = gb.parameter(0, Shape((8, 4), F32), "g")
        explicit = ReplicaGroups(((0, 1, 2, 3),))
        ar = gb.emit("all-reduce", Shape((8, 4), F32), (g,), kind="add", groups=explicit)
        m = Module(gb.finish(ar), 4, topo)
        rng = np.random.default_rng(3)
        vals = [rng.integers(-50, 50, size=(8, 4)).astype(np.float32) for _ in range(4)]
        res = run(m, {"g": PerReplica(vals)})
        expect = np.sum(np.stack(vals), axis=0)
        for out in res.outputs:
            assert np.array_equal(out, expect)
        [c] = cost(m).collectives
        assert res.stats.rounds == c.rounds == 2 * (4 - 1)
        assert res.stats.bytes_sent == c.bytes_per_replica


def small_preset(model: str, topology):
    """The preset's optimizer, precision and weight ranks with every dim
    divided by 32 (at least 2), a counted 2-step loop and no outfeed."""
    cfg = preset(model, layers=2)

    def small(d):
        return max(d // 32, 2)

    cfg.weights = [
        WeightDef(w.dims[:-2] + (small(w.dims[-2]), small(w.out_dim)), small(w.in_dim), small(w.out_dim))
        for w in cfg.weights
    ]
    cfg.batch, cfg.steps, cfg.topology, cfg.replicas = 4, 2, topology, topology.n
    return build_training_module(cfg)


class TestCountersMatchModel:
    """Every collective the simulator executes is counted with the cost
    model's ring schedule, so a run's counters equal the modeled ones."""

    @staticmethod
    def check(m, inputs):
        res = run(m, inputs, seed=1)
        modeled = cost(m)
        assert res.stats.rounds == modeled.total_rounds
        assert res.stats.bytes_sent == sum(c.bytes_per_replica * c.executions for c in modeled.collectives)
        return res

    def test_presets_baseline_and_transformed(self):
        batched = partial = False
        for model in MODELS:
            for topo in (ring_topology(4), mesh_topology(2, 2)):
                m = small_preset(model, topo)
                base = self.check(m, training_inputs(m, 0))
                assert base.stats.rounds > 0
                decisions = profitability.plan(m, steps=2)
                for d in decisions:
                    d.shard = True  # keep the planner's groups: row-local on the mesh
                partial |= any(not d.groups.is_all for d in decisions)
                res = transform.apply(m, decisions, steps_hint=2)
                main = transform.batch_collectives(transform.demote_allgather_precision(res.main))
                batched |= any(i.opcode == "all-reduce" and len(i.operands) > 1 for i in main.all_instructions())
                sh = self.check(res.shard_program, training_inputs(m, 0))
                mo = self.check(main, chain_inputs(main, sh.outputs))
                self.check(res.unshard_program, chain_inputs(res.unshard_program, mo.outputs))
        assert batched and partial


class TestReducedPrecision:
    def test_round_to_nearest_even_truncation(self):
        x = np.array([1.0, 1.0000001, 3.14159265, -2.5e-8], np.float32)
        r = round_reduced(x)
        bits = r.view(np.uint32)
        assert np.all(bits & 0xFFFF == 0)
        assert np.all(np.abs(r - x) <= 2.0 ** -8 * np.abs(x) + 1e-45)

    def test_nan_preserved(self):
        r = round_reduced(np.array([np.nan, 1.0], np.float32))
        assert np.isnan(r[0]) and r[1] == 1.0

    def test_convert_roundtrip_idempotent(self):
        x = np.random.default_rng(0).normal(size=64).astype(np.float32)
        once = round_reduced(x)
        assert bitwise_same(round_reduced(once), once)


class TestTiledBitcast:
    def test_offsets_row_major_when_single_tile_column(self):
        off = tiled_offsets((16, 128), (8, 128))
        assert off[0, 0] == 0 and off[0, 127] == 127
        assert off[1, 0] == 128
        assert off[8, 0] == 1024  # second tile row

    def test_multi_tile_column_layout(self):
        off = tiled_offsets((8, 256), (8, 128))
        assert off[0, 128] == 1024  # second tile starts a fresh 8x128 block
        assert off[1, 0] == 128

    def test_bitcast_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 3, 256, 256)).astype(np.float32)
        src = Shape((3, 3, 256, 256), F32)
        y = bitcast_array(x, src, (576, 8, 128), (8, 128))
        back = bitcast_array(y, Shape((576, 8, 128), F32), (3, 3, 256, 256), (8, 128))
        assert bitwise_same(back, x)

    def test_bitcast_is_a_permutation_for_aligned_shapes(self):
        x = np.arange(2 * 8 * 256, dtype=np.float32).reshape(2, 8, 256)
        y = bitcast_array(x, Shape((2, 8, 256), F32), (4, 8, 128), (8, 128))
        assert sorted(y.ravel().tolist()) == sorted(x.ravel().tolist())


class TestCostModel:
    def test_latency_bound_detection(self):
        # 4 MB tensor across 2048 replicas: 2 KB pieces, alpha dominates
        gb = GraphBuilder("main")
        g = gb.parameter(0, Shape((1048576,), F32), "g")
        ar = gb.emit("all-reduce", Shape((1048576,), F32), (g,), kind="add", groups=ALL_REPLICAS)
        m = module_of(gb.finish(ar), 2048)
        report = cost(m)
        assert report.latency_bound
        [c] = report.collectives
        assert c.rounds == 2 * 2047

    def test_zero_collective_cost_single_replica(self):
        gb = GraphBuilder("main")
        g = gb.parameter(0, Shape((64,), F32), "g")
        ar = gb.emit("all-reduce", Shape((64,), F32), (g,), kind="add", groups=ALL_REPLICAS)
        m = module_of(gb.finish(ar), 1)
        report = cost(m)
        assert report.collective_time == 0.0

    def test_loop_body_scaled_by_trip_count(self):
        m3 = gen_module("mlp", replicas=4, steps=3, layers=1, dim=8)
        m6 = gen_module("mlp", replicas=4, steps=6, layers=1, dim=8)
        c3, c6 = cost(m3), cost(m6)
        assert c3.trip_count == 3 and c6.trip_count == 6
        assert abs(c6.total_step_time / c3.total_step_time - 2.0) < 0.05

    def test_batched_all_reduce_rounds(self):
        def build(batched: bool):
            gb = GraphBuilder("main")
            xs = [gb.parameter(i, Shape((64,), F32), f"x{i}") for i in range(3)]
            if batched:
                shape = TupleShape((Shape((64,), F32),) * 3)
                gb.emit("all-reduce", shape, tuple(xs), kind="add", groups=ALL_REPLICAS)
            else:
                for x in xs:
                    gb.emit("all-reduce", Shape((64,), F32), (x,), kind="add", groups=ALL_REPLICAS)
            root = gb.emit("tuple", TupleShape(()), ())
            return module_of(gb.finish(root), 4)

        unbatched = cost(build(False))
        batched = cost(build(True))
        assert unbatched.total_rounds == 3 * batched.total_rounds

    def test_compute_is_memory_bound(self):
        gb = GraphBuilder("main")
        a = gb.parameter(0, Shape((8, 128), F32), "a")
        b = gb.parameter(1, Shape((8, 128), F32), "b")
        s = gb.emit("add", Shape((8, 128), F32), (a, b))
        m = module_of(gb.finish(s), 1)
        cm = CostModel()
        report = cost(m, cm)
        expect = 3 * 8 * 128 * 4 / cm.mem_bandwidth
        assert abs(report.compute_time - expect) < 1e-12


class TestPeakMemory:
    def test_formula_on_synthetic_manifest(self):
        # W=1024, V=2048, P=4096, N=8: baseline 7168, transformed 5376
        from shardgraph.memory import Manifest, VariableInfo, memory_plan
        from shardgraph.sharding import parse_spec_string

        gb = GraphBuilder("step")
        p = gb.parameter(0, Shape((1024,), F32), "act")  # 4096 physical bytes
        comp = gb.finish(p)
        full_shapes = {"w": Shape((256,), F32), "v": Shape((512,), F32)}
        base = Manifest(
            variables=[
                VariableInfo("w", "weight", 0, residency="full"),
                VariableInfo("v", "aux", 1, residency="full"),
            ]
        )
        rep = memory_plan(comp, base, full_shapes)
        assert rep.peak_bytes == 1024 + 2048 + 4096 == 7168

        sharded = Manifest(
            variables=[
                VariableInfo("w", "weight", 0, residency="sharded",
                             spec=parse_spec_string("[256] slice0/8"), gathered_in_body=True),
                VariableInfo("v", "aux", 1, residency="sharded",
                             spec=parse_spec_string("[512] slice0/8"), gathered_in_body=False),
            ]
        )
        rep = memory_plan(comp, sharded, full_shapes)
        assert rep.peak_bytes == max(1024 + 2048 / 8 + 4096, 1024 + 2048) == 5376

    def test_single_replica_transform_keeps_peak(self):
        from shardgraph import profitability, transform

        m = gen_module("mlp", replicas=1, steps=2, layers=1, dim=8)
        decisions = profitability.plan(m, steps=2)
        res = transform.apply(m, decisions, steps_hint=2)
        base = transform.memory_plan_for(m, transform.baseline_manifest(res.manifest), m)
        trans = transform.memory_plan_for(res.main, res.manifest, m)
        assert trans.peak_bytes == base.peak_bytes
