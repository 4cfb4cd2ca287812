import tracemalloc
import zlib

import numpy as np
import pytest

from collectives import all_gather, collective_module, reduce_scatter, reduce_scatter_all_gather
from conftest import bitwise_same, small_preset, training_inputs
from irtools import all_instructions
from shardgraph import memory, profitability, transform
from shardgraph.costmodel import CostModel, Phase, collective_phases, cost
from shardgraph.generators import MODELS, gen_module
from shardgraph.ir import (
    ALL_REPLICAS,
    DEFAULT_TILE,
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
from shardgraph.pipeline import chain_inputs
from shardgraph.sharding import choose_spec
from shardgraph.simulator import (
    PerReplica,
    SimulationError,
    Simulator,
    Uniform,
    Varying,
    apply_steps_array,
    bitcast_array,
    coerce,
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
    m = collective_module(spec, topology, (op,))
    return run(m, {"x": np.ones(m.entry.parameters[0].shape.dims, np.float32)})


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


class TestReplicaEqualInputs:
    """A replica_equal parameter's inputs are compared bit for bit, so a NaN
    equals itself."""

    @staticmethod
    def doubled():
        gb = GraphBuilder("main")
        w = gb.parameter(0, Shape((2,), F32), "w", replica_equal=True)
        return module_of(gb.finish(gb.emit("add", Shape((2,), F32), (w, w))), 2)

    def test_single_nan_value(self):
        res = run(self.doubled(), {"w": np.array([1.0, np.nan], np.float32)})
        for out in res.outputs:
            assert out[0] == 2.0 and np.isnan(out[1])

    def test_identical_per_replica_nan_values(self):
        w = np.array([1.0, np.nan], np.float32)
        res = run(self.doubled(), {"w": PerReplica([w, w.copy()])})
        assert bitwise_same(res.outputs[0], res.outputs[1])

    def test_differing_values_raise(self):
        w = np.array([1.0, np.nan], np.float32)
        with pytest.raises(SimulationError, match="replica_equal"):
            run(self.doubled(), {"w": PerReplica([w, np.array([2.0, np.nan], np.float32)])})


class TestReadOnlyOutputs:
    """`run`'s rows share memory with each other and with the inputs, so they
    are read-only views; the caller's own arrays are left as they were."""

    @staticmethod
    def identity(shape):
        gb = GraphBuilder("main")
        return module_of(gb.finish(gb.parameter(0, shape, "w")), 2)

    def test_uniform_output_of_a_shared_input(self):
        w = np.array([1.0, 2.0], np.float32)
        res = run(self.identity(Shape((2,), F32)), {"w": w})
        with pytest.raises(ValueError, match="read-only"):
            res.outputs[0][0] = 5.0
        assert w.flags.writeable
        assert w.tolist() == [1.0, 2.0] and res.outputs[1].tolist() == [1.0, 2.0]

    def test_varying_and_tuple_outputs(self):
        w = [np.array([1.0, 2.0], np.float32), np.array([3.0, 4.0], np.float32)]
        res = run(self.identity(Shape((2,), F32)), {"w": PerReplica(w)})
        with pytest.raises(ValueError, match="read-only"):
            res.outputs[0][0] = 5.0
        assert res.outputs[1].tolist() == [3.0, 4.0]
        pair = TupleShape((Shape((2,), F32), scalar(S32)))
        res = run(self.identity(pair), {"w": (w[0], np.int32(7))})
        with pytest.raises(ValueError, match="read-only"):
            res.outputs[1][0][1] = 5.0
        assert all(a.flags.writeable for a in w) and w[0].tolist() == [1.0, 2.0]


class TestOutfeedViews:
    """Outfeeds record read-only rows, shared as `run`'s outputs are."""

    def test_rows_are_read_only_and_a_uniform_one_is_shared(self):
        vec = Shape((3,), F32)
        gb = GraphBuilder("main")
        w = gb.parameter(0, vec, "w", replica_equal=True)
        g = gb.parameter(1, vec, "g")
        gb.emit("outfeed", TupleShape(()), (w,), id="out.w")
        gb.emit("outfeed", TupleShape(()), (gb.emit("tuple", TupleShape((vec, vec)), (w, g)),), id="out.wg")
        m = module_of(gb.finish(gb.emit("add", vec, (w, g))), 4)
        g_in = [np.full(3, r, np.float32) for r in range(4)]
        res = run(m, {"w": np.ones(3, np.float32), "g": PerReplica(g_in)})
        feeds = [dict(log) for log in res.outfeeds]
        for r, feed in enumerate(feeds):
            assert feed["out.w"].tolist() == [1.0] * 3 and feed["out.wg"][1].tolist() == [r] * 3
            with pytest.raises(ValueError, match="read-only"):
                feed["out.w"][0] = 5.0
            with pytest.raises(ValueError, match="read-only"):
                feed["out.wg"][1][0] = 5.0
        assert all(np.shares_memory(feeds[0]["out.w"], f["out.w"]) for f in feeds[1:])
        assert all(np.shares_memory(feeds[0]["out.wg"][0], f["out.wg"][0]) for f in feeds[1:])
        assert all(a.flags.writeable for a in g_in)


class TestValueLifetime:
    """A value lives only while something still reads it."""

    N = 4
    VEC = Shape((1 << 16,), F32)  # a 1 MB varying value over four replicas

    def chain(self, length):
        gb = GraphBuilder("main")
        x = gb.parameter(0, self.VEC, "x")
        v = x
        for _ in range(length):
            v = gb.emit("add", self.VEC, (v, x))
            gb.emit("mul", self.VEC, (v, v))  # read by nothing: dropped at once
        return module_of(gb.finish(v), self.N)

    def test_chain_of_adds_holds_a_few_values(self):
        m = self.chain(40)
        rows = np.ones((self.N,) + self.VEC.dims, np.float32)
        seen = []
        sim = Simulator(m, on_value=lambda instr, replicas, values: seen.append(instr.id))
        tracemalloc.start()
        try:
            res = sim.run({"x": PerReplica(rows)})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * rows.nbytes  # keeping every value would take about 80 of them
        assert seen == [i.id for i in m.entry.instructions]
        assert all(np.array_equal(out, np.full(self.VEC.dims, 41.0, np.float32)) for out in res.outputs)


class TestRng:
    """`rng` draws each replica's row straight into one stack."""

    N = 4

    @staticmethod
    def per_replica_stack(seed, instr_id, shape, n):
        """The draws made one replica at a time and stacked afterwards, as
        the simulator made them before it filled one stack."""
        out = []
        for r in range(n):
            entropy = (seed, r, zlib.crc32(instr_id.encode()), 0)
            gen = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy)))
            if shape.etype == S32:
                v = gen.integers(0, 100, size=shape.dims, dtype=np.int32)
            else:
                v = gen.random(size=shape.dims, dtype=np.float32)
            out.append(coerce(v, shape))
        return np.stack(out)

    def run_rng(self, shape, seed=5):
        gb = GraphBuilder("main")
        m = module_of(gb.finish(gb.emit("rng", shape, id="noise")), self.N)
        return run(m, {}, seed=seed)

    @pytest.mark.parametrize(
        "shape", [Shape((5, 3), F32), Shape((2, 3, 4), F32), Shape((7,), S32), scalar(F32), scalar(S32), Shape((4, 6), F16R)]
    )
    def test_matches_the_per_replica_stack(self, shape):
        res = self.run_rng(shape)
        assert bitwise_same(np.stack(res.outputs), self.per_replica_stack(5, "noise", shape, self.N))

    @pytest.mark.parametrize("etype", [F32, S32])
    def test_holds_one_value_not_two(self, etype):
        shape = Shape((1 << 16,), etype)  # 1 MiB over four replicas
        self.run_rng(Shape((4,), etype))  # allocations made once per process
        tracemalloc.start()
        try:
            res = self.run_rng(shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack = self.N * shape.element_count * 4
        assert peak < 1.5 * stack  # the draws and their stack would take two
        assert np.stack(res.outputs).nbytes == stack


class TestPerReplicaInputs:
    """Per-replica inputs are stacked only when they have to be."""

    N = 4
    VEC = Shape((3,), F32)

    def evaluate(self, rows, replica_equal=False):
        gb = GraphBuilder("main")
        m = module_of(gb.finish(gb.parameter(0, self.VEC, "w", replica_equal=replica_equal)), self.N)
        return Simulator(m).evaluate({"w": PerReplica(rows)})

    def identity_run(self, rows):
        gb = GraphBuilder("main")
        m = module_of(gb.finish(gb.parameter(0, self.VEC, "w")), self.N)
        return run(m, {"w": PerReplica(rows)})

    def test_one_buffer_is_uniform(self):
        w = np.arange(3, dtype=np.float32)
        for rows in ([w] * self.N, [w.view() for _ in range(self.N)]):
            for replica_equal in (False, True):
                v = self.evaluate(rows, replica_equal)
                assert type(v) is Uniform and np.shares_memory(v.a, w)

    def test_equal_separate_arrays_stay_varying(self):
        w = np.arange(3, dtype=np.float32)
        v = self.evaluate([w.copy() for _ in range(self.N)])
        assert type(v) is Varying and not np.shares_memory(v.a, w)
        assert type(self.evaluate([w.copy() for _ in range(self.N)], replica_equal=True)) is Uniform

    def test_rows_of_one_owner_are_viewed_read_only(self):
        owner = np.arange(self.N * 6, dtype=np.float32).reshape(self.N, 6)
        for rows in (
            list(owner[:, :3]),  # rows of a wider array
            [owner[k, ::2] for k in range(self.N)],  # strided rows
            [owner.T[:3, k] for k in range(self.N)],  # columns
            [owner[self.N - 1 - k, 3:] for k in range(self.N)],  # backwards
        ):
            v = self.evaluate(rows)
            assert type(v) is Varying and np.shares_memory(v.a, owner)
            assert not v.a.flags.writeable and owner.flags.writeable
            assert all(np.array_equal(v.a[k], r) for k, r in enumerate(rows))
            res = self.identity_run(rows)
            assert all(np.shares_memory(out, owner) and not out.flags.writeable for out in res.outputs)
            assert all(np.array_equal(out, r) for out, r in zip(res.outputs, rows))

    def test_unevenly_spaced_rows_are_copied(self):
        owner = np.arange(self.N * 3, dtype=np.float32).reshape(self.N, 3)
        rows = [owner[k] for k in (0, 1, 3, 2)]
        v = self.evaluate(rows)
        assert type(v) is Varying and not np.shares_memory(v.a, owner)
        assert all(np.array_equal(v.a[k], r) for k, r in enumerate(rows))

    def test_separate_arrays_are_copied_and_outlive_the_caller_s(self):
        # two separate arrays always look evenly spaced; matched by address
        # alone, a view over the gap between them would read freed memory
        for n in (2, self.N):
            gb = GraphBuilder("main")
            m = module_of(gb.finish(gb.parameter(0, Shape((1 << 12,), F32), "w")), n)
            rows = [np.full(1 << 12, k + 1, np.float32) for k in range(n)]
            views = [np.ones((2, 1 << 12), np.float32)[0] for _ in range(n)]  # one owner each
            res, res_views = run(m, {"w": PerReplica(rows)}), run(m, {"w": PerReplica(views)})
            assert not any(np.shares_memory(out, r) for out in res.outputs for r in rows)
            del rows, views
            junk = [np.full(1 << 12, -7.0, np.float32) for _ in range(4 * n)]
            assert all(np.array_equal(out, np.full(1 << 12, k + 1, np.float32)) for k, out in enumerate(res.outputs))
            assert all(np.array_equal(out, np.ones(1 << 12, np.float32)) for out in res_views.outputs)
            assert all((j == -7.0).all() for j in junk)


def counted_while(gb, value, bound):
    """A while loop carrying (i, value) that halves the value while
    i < bound(cond builder, i); returns the loop's result value."""
    shape = value.shape
    state = TupleShape((scalar(S32), shape))
    body = GraphBuilder("body", id_prefix="b.")
    bp = body.parameter(0, state, "b.state")
    bi = body.emit("get-tuple-element", scalar(S32), (bp,), index=0)
    bw = body.emit("get-tuple-element", shape, (bp,), index=1)
    half = body.emit("mul", shape, (bw, body.broadcast_scalar(body.constant(0.5), shape)))
    nxt = body.emit("add", scalar(S32), (bi, body.constant(1, S32)))
    body_c = body.finish(body.emit("tuple", state, (nxt, half)))
    cond = GraphBuilder("cond", id_prefix="c.")
    cp = cond.parameter(0, state, "c.state")
    ci = cond.emit("get-tuple-element", scalar(S32), (cp,), index=0)
    flag = cond.emit("compare", scalar(PRED), (ci, bound(cond, ci)), direction="lt")
    cond_c = cond.finish(flag)
    init = gb.emit("tuple", state, (gb.constant(0, S32), value))
    loop = gb.emit("while", state, (init,), cond=cond_c, body=body_c)
    return gb.emit("get-tuple-element", shape, (loop,), index=1)


class TestUniformity:
    """The run-time uniformity rules, read from `Simulator.evaluate`: which
    values the interpreter holds once and which it holds per replica."""

    N = 4
    VEC = Shape((3,), F32)

    def evaluate(self, build, inputs=None):
        gb = GraphBuilder("main")
        values = build(gb)
        root = gb.emit("tuple", TupleShape(tuple(v.shape for v in values)), tuple(values))
        m = module_of(gb.finish(root), self.N)
        return Simulator(m, seed=3).evaluate(inputs or {})

    def per_replica(self, k=0):
        return PerReplica([np.full(3, r + k, np.float32) for r in range(self.N)])

    def test_sources_of_variation(self):
        def build(gb):
            rid = gb.emit("replica-id", scalar(S32))
            noise = gb.emit("rng", self.VEC, id="noise")
            plain = gb.parameter(0, self.VEC, "plain")
            return [rid, noise, plain]

        root = self.evaluate(build, {"plain": self.per_replica()})
        assert all(type(v) is Varying for v in root)
        assert root[0].a.tolist() == list(range(self.N))

    def test_shared_inputs_and_pure_ops_are_uniform(self):
        def build(gb):
            shared = gb.parameter(0, self.VEC, "shared")
            equal = gb.parameter(1, self.VEC, "equal", replica_equal=True)
            c = gb.broadcast_scalar(gb.constant(2.0), self.VEC)
            total = gb.emit("add", self.VEC, (gb.emit("mul", self.VEC, (shared, c)), equal))
            iota = gb.emit("iota", self.VEC, dims=(0,))
            return [shared, equal, total, iota]

        w = np.arange(3, dtype=np.float32)
        root = self.evaluate(build, {"shared": w, "equal": PerReplica([w.copy() for _ in range(self.N)])})
        assert all(type(v) is Uniform for v in root)
        assert root[2].a.tolist() == [0.0, 3.0, 6.0]

    def test_a_varying_operand_makes_a_pure_op_varying(self):
        def build(gb):
            plain = gb.parameter(0, self.VEC, "plain")
            c = gb.broadcast_scalar(gb.constant(2.0), self.VEC)
            return [gb.emit("add", self.VEC, (plain, c)), gb.emit("dot", scalar(F32), (plain, c))]

        root = self.evaluate(build, {"plain": self.per_replica()})
        assert all(type(v) is Varying for v in root)
        assert root[0].a[:, 0].tolist() == [2.0, 3.0, 4.0, 5.0]
        assert root[1].a.tolist() == [0.0, 6.0, 12.0, 18.0]

    def test_full_group_all_reduce_is_uniform_subgroups_are_varying(self):
        pairs = ReplicaGroups(((0, 2), (1, 3)))

        def build(gb):
            plain = gb.parameter(0, self.VEC, "plain")
            full = gb.emit("all-reduce", self.VEC, (plain,), kind="add", groups=ALL_REPLICAS)
            sub = gb.emit("all-reduce", self.VEC, (plain,), kind="add", groups=pairs)
            return [full, sub]

        full, sub = self.evaluate(build, {"plain": self.per_replica()})
        assert type(full) is Uniform and full.a.tolist() == [6.0] * 3
        assert type(sub) is Varying and sub.a[:, 0].tolist() == [2.0, 4.0, 2.0, 4.0]

    def test_divergent_control_flow_merges_to_varying(self):
        def build(gb):
            w = gb.parameter(0, self.VEC, "w", replica_equal=True)
            rid = gb.emit("replica-id", scalar(S32))
            pred = gb.emit("compare", scalar(PRED), (rid, gb.constant(2, S32)), direction="lt")
            same = gb.emit("compare", scalar(PRED), (gb.constant(1, S32), gb.constant(0, S32)), direction="gt")
            t = GraphBuilder("t", id_prefix="t.")
            tp = t.parameter(0, self.VEC, "t.a")
            t_c = t.finish(t.emit("add", self.VEC, (tp, tp)))
            f = GraphBuilder("f", id_prefix="f.")
            f_c = f.finish(f.parameter(0, self.VEC, "f.a"))
            diverged = gb.emit("conditional", self.VEC, (pred, w, w), branches=(t_c, f_c))
            agreed = gb.emit("conditional", self.VEC, (same, w, w), branches=(t_c, f_c))
            uneven = counted_while(gb, w, lambda c, i: c.emit(
                "add", scalar(S32), (c.emit("replica-id", scalar(S32)), c.constant(1, S32))))
            even = counted_while(gb, w, lambda c, i: c.constant(2, S32))
            return [diverged, agreed, uneven, even]

        w = np.ones(3, np.float32)
        diverged, agreed, uneven, even = self.evaluate(build, {"w": w})
        assert type(diverged) is Varying and diverged.a[:, 0].tolist() == [2.0, 2.0, 1.0, 1.0]
        assert type(agreed) is Uniform and agreed.a.tolist() == [2.0] * 3
        assert type(uneven) is Varying and uneven.a[:, 0].tolist() == [0.5, 0.25, 0.125, 0.0625]
        assert type(even) is Uniform and even.a.tolist() == [0.25] * 3

    def test_on_value_sees_one_value_per_active_replica(self):
        gb = GraphBuilder("main")
        w = gb.parameter(0, self.VEC, "w", replica_equal=True)
        doubled = gb.emit("add", self.VEC, (w, w))
        out = counted_while(gb, doubled, lambda c, i: c.emit(
            "add", scalar(S32), (c.emit("replica-id", scalar(S32)), c.constant(1, S32))))
        m = module_of(gb.finish(out), self.N)
        seen = {}

        def watch(instr, replicas, values):
            assert len(values) == len(replicas)
            seen.setdefault(instr.id, []).append((list(replicas), values))

        res = Simulator(m, on_value=watch).run({"w": np.ones(3, np.float32)})
        [(replicas, values)] = seen[doubled.id]
        assert replicas == list(range(self.N))
        assert all(bitwise_same(v, np.full(3, 2.0, np.float32)) for v in values)
        # the body runs for fewer replicas as they leave the loop
        body_runs = [len(r) for r, _ in seen["b.state"]]
        assert body_runs == [4, 3, 2, 1]
        assert [float(o[0]) for o in res.outputs] == [1.0, 0.5, 0.25, 0.125]


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


def reference_reduce_scatter(values, spec, topology, kind, etype, tile=(8, 128)):
    """The per-replica ring reduce-scatter: every piece folded on its own, in
    ring order starting after the member that keeps it."""
    ufunc = {"add": np.add, "mul": np.multiply, "max": np.maximum, "min": np.minimum}[kind]

    def fold(arrays, start):
        acc = arrays[(start + 1) % len(arrays)].copy()
        for k in range(2, len(arrays) + 1):
            acc = ufunc(acc, arrays[(start + k) % len(arrays)])
            if etype == F16R:
                acc = round_reduced(acc)
        return acc

    n, s = topology.n, spec.shard_count
    fill = {"add": 0.0, "mul": 1.0, "max": float("-inf"), "min": float("inf")}[kind]
    out = [None] * n
    for group in spec.group.resolve(n):
        formatted = {r: apply_steps_array(values[r], spec, etype, tile, fill) for r in group}
        pieces = {
            r: [a] if a.ndim == 0 else np.split(a, s, axis=spec.shard_dim) for r, a in formatted.items()
        }
        if not topology.two_phase(spec.group):
            for p, r in enumerate(group):
                out[r] = fold([pieces[q][p] for q in group], p)
            continue
        rows, cols = topology.rows, topology.cols
        partial = {}
        for i in range(rows):
            row = [i * cols + j for j in range(cols)]
            for j in range(cols):
                for t in range(rows):
                    partial[row[j], j * rows + t] = fold([pieces[r][j * rows + t] for r in row], j)
        for j in range(cols):
            col = [i * cols + j for i in range(rows)]
            for i in range(rows):
                out[col[i]] = fold([partial[r, j * rows + i] for r in col], i)
    return out


class TestRingCollectives:
    def test_vectorized_fold_matches_per_replica_reference(self):
        # the stacked fold must combine every element in the per-replica
        # ring order, bit for bit, on every topology and group kind
        rng = np.random.default_rng(11)
        topologies = [ring_topology(n) for n in (1, 2, 3, 4, 8)]
        topologies += [mesh_topology(2, 2), mesh_topology(2, 4), mesh_topology(4, 2)]
        cases = 0
        for topo in topologies:
            group_kinds = [ALL_REPLICAS]
            if topo.kind == "mesh":
                group_kinds += [topo.row_groups(), topo.col_groups()]
            if topo.n == 4:
                group_kinds.append(ReplicaGroups(((0, 2), (3, 1))))
            for groups in group_kinds:
                for etype, kind in ((F32, "add"), (F16R, "add"), (S32, "add"), (F32, "max"), (F32, "mul")):
                    dims = tuple(int(d) for d in rng.integers(1, 10, size=int(rng.integers(0, 4))))
                    spec = choose_spec(Shape(dims, etype), groups.group_size(topo.n), group=groups)
                    if etype == S32:
                        vals = [rng.integers(-50, 50, size=dims).astype(np.int32) for _ in range(topo.n)]
                    else:
                        vals = [rng.normal(size=dims).astype(np.float32) for _ in range(topo.n)]
                        if etype == F16R:
                            vals = [round_reduced(v) for v in vals]
                    got = reduce_scatter(vals, spec, topo, kind, etype)
                    want = reference_reduce_scatter(vals, spec, topo, kind, etype)
                    assert all(bitwise_same(g, w) for g, w in zip(got, want)), (topo, groups, dims, etype, kind)
                    cases += 1
        assert cases == 5 * (5 + 3 * 3 + 1 + 1)

    def test_reduce_scatter_one_element_per_shard(self):
        spec = choose_spec(Shape((4,), F32), 4)
        topo = ring_topology(4)
        vals = [np.ones(4, np.float32) for _ in range(4)]
        shards = reduce_scatter(vals, spec, topo)
        for r in range(4):
            assert shards[r].shape == (1,)
            assert float(shards[r][0]) == 4.0

    def test_scalar_all_reduce_on_one_replica(self):
        gb = GraphBuilder("main")
        g = gb.parameter(0, scalar(F32), "g")
        ar = gb.emit("all-reduce", scalar(F32), (g,), kind="add", groups=ALL_REPLICAS)
        res = run(module_of(gb.finish(ar), 1), {"g": 2.5})
        assert bitwise_same(res.outputs[0], np.asarray(np.float32(2.5)))

    def test_single_replica_identity(self):
        spec = choose_spec(Shape((4,), F32), 1)
        x = np.arange(4, dtype=np.float32)
        shards = reduce_scatter([x], spec, ring_topology(1))
        assert bitwise_same(shards[0], x)

    def test_all_gather_definition(self):
        spec = choose_spec(Shape((4,), F32), 4)
        shards = [np.array([float(r + 1)], np.float32) for r in range(4)]
        full = all_gather(shards, spec, ring_topology(4))
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
            full = reduce_scatter_all_gather(vals, spec, topo, etype=etype)
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
        full = reduce_scatter_all_gather(vals, spec, topo)
        oracle = np.sum(np.stack([v.astype(np.float64) for v in vals]), axis=0)
        for out in full:
            assert np.all(np.abs(out - oracle) <= 1e-6 * np.maximum(np.abs(oracle), 1.0))

    def test_group_local_gather_isolates_rows(self):
        topo = mesh_topology(2, 2)
        rows = topo.row_groups()
        spec = choose_spec(Shape((2,), F32), 2, group=rows)
        shards = [np.array([10.0 * r], np.float32) for r in range(4)]
        full = all_gather(shards, spec, topo)
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
            shards = reduce_scatter(vals, spec, topo, etype=etype)
            # cross-group all-reduce on the shards, one ring per column pair
            combined = [None] * n
            for col in topo.col_groups().groups:
                total = shards[col[0]].astype(np.float64)
                for r in col[1:]:
                    total = total + shards[r]
                for r in col:
                    combined[r] = total.astype(np.int32 if etype == S32 else np.float32)
            full = all_gather(combined, spec, topo, etype=etype)
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
            assert collective_phases(op, spec, F32, topo, DEFAULT_TILE) == [Phase(3, shard_bytes)]
            stats = run_one_collective(op, spec, topo).stats
            assert stats.rounds == 3
            assert stats.bytes_sent == 3 * shard_bytes

    def test_conservation_two_phase_mesh(self):
        shape, topo = Shape((8, 4), F32), mesh_topology(2, 2)
        spec = choose_spec(shape, 4)
        shard_bytes = physical_bytes(Shape(spec.shard_dims, F32))
        # row phase: (C-1) rounds of R*shard, column phase: (R-1) rounds of shard
        scatter = [Phase(1, 2 * shard_bytes), Phase(1, shard_bytes)]
        assert collective_phases("reduce_scatter", spec, F32, topo, DEFAULT_TILE) == scatter
        assert collective_phases("all_gather", spec, F32, topo, DEFAULT_TILE) == scatter[::-1]
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
                partial |= any(not d.spec.group.is_all for d in decisions)
                res = transform.apply(m, decisions, steps_hint=2)
                main = transform.batch_collectives(transform.demote_allgather_precision(res.main))
                batched |= any(i.opcode == "all-reduce" and len(i.operands) > 1 for i in all_instructions(main))
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
        m = gen_module("mlp", replicas=1, steps=2, layers=1, dim=8)
        decisions = profitability.plan(m, steps=2)
        res = transform.apply(m, decisions, steps_hint=2)
        base = memory.memory_plan_for(m, memory.baseline_manifest(res.manifest), m)
        trans = memory.memory_plan_for(res.main, res.manifest, m)
        assert trans.peak_bytes == base.peak_bytes
