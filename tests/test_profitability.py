from fractions import Fraction

import numpy as np
import pytest

from conftest import small_preset
from shardgraph.costmodel import (
    DEFAULT_TRIP_COUNT,
    CostModel,
    amortization_steps,
    estimate_branch_frequency,
    loop_trip_count,
    predicate_mod_frequency,
)
from shardgraph.generators import MODELS, GenConfig, _chain, build_training_module, gen_module
from shardgraph.ir import (
    ALL_REPLICAS,
    F32,
    GraphBuilder,
    Module,
    PRED,
    S32,
    Shape,
    TupleShape,
    mesh_topology,
    physical_bytes,
    ring_topology,
    scalar,
    users_map,
)
from shardgraph.profitability import cluster_io_bytes, evaluate, find_clusters, plan, select_spec
from shardgraph.redundancy import analyze
from shardgraph.textfmt import parse_module, print_module


def step_computation(m):
    loop = next((i for i in m.entry.instructions if i.opcode == "while"), None)
    return (loop.body if loop else m.entry), loop


def clusters_of(m):
    """The clusters `plan` finds in `m`'s step computation."""
    comp, loop = step_computation(m)
    return find_clusters(comp, analyze(m), users_map(comp), loop)


class TestFindClusters:
    def test_update_cluster_members_and_frontier(self):
        # all-reduce -> update around weight + two aux; weight feeds a matmul
        # (frontier) and the loop output
        m = gen_module("mlp", replicas=4, steps=3, layers=1, dim=8)
        clusters = clusters_of(m)
        assert len(clusters) == 1
        c = clusters[0]
        assert c.anchor.id == "ar0"
        assert {"b.w0", "b.m0", "b.v0", "w0.new", "m0.new", "v0.new"} <= set(c.members)
        placements = {(f.member.id, f.placement) for f in c.frontier}
        assert ("b.w0", "in-loop") in placements  # forward matmul needs the full weight
        assert {p for _, p in placements} <= {"in-loop", "loop-output"}
        assert set(c.state_slots) == {2, 3, 4}
        assert all(paired for _, paired in c.state_slots.values())

    @pytest.mark.parametrize("model", MODELS)
    def test_loopless_state_slots_are_the_parameter_members(self, model):
        # without a loop, slot k is entry parameter k, written back by root
        # element k; the generator writes every update back at its position
        clusters = clusters_of(small_preset(model, ring_topology(4), steps=None))
        assert clusters
        for c in clusters:
            params = {i.index for i in c.members.values() if i.opcode == "parameter"}
            assert params and set(c.state_slots) == params
            assert all(paired for _, paired in c.state_slots.values())

    def test_two_weights_two_disjoint_clusters(self):
        m = gen_module("mlp", replicas=4, steps=3, layers=2, dim=8)
        clusters = clusters_of(m)
        assert len(clusters) == 2
        assert not (set(clusters[0].members) & set(clusters[1].members))

    def test_anchor_feeding_only_outfeed(self):
        gb = GraphBuilder("main")
        g = gb.parameter(0, Shape((8,), F32), "g")
        ar = gb.emit("all-reduce", Shape((8,), F32), (g,), kind="add", groups=ALL_REPLICAS, id="ar")
        gb.emit("outfeed", TupleShape(()), (ar,), id="sink")
        root = gb.emit("tuple", TupleShape(()), ())
        m = Module(gb.finish(root), 4, ring_topology(4))
        clusters = clusters_of(m)
        assert len(clusters) == 1
        c = clusters[0]
        assert set(c.members) == {"ar"}
        assert [f.placement for f in c.frontier] == ["outfeed"]

    def test_dead_end_members_pruned(self):
        # an elementwise op feeding only a reduce stays in the full domain
        m = gen_module("mlp", replicas=4, steps=2, layers=1, dim=8, optimizer="lars")
        comp, _ = step_computation(m)
        [c] = clusters_of(m)
        # w*w (the norm square) is consumed only by the norm reduce
        wsq = [i for i in comp.instructions if i.opcode == "mul" and i.operands[0].id == "b.w0" and i.operands[1].id == "b.w0"]
        assert wsq and wsq[0].id not in c.members

    def test_scalar_all_reduce_not_an_anchor(self):
        m = gen_module("mlp", replicas=4, steps=2, layers=1, dim=8, optimizer="lars")
        assert [c.anchor.id for c in clusters_of(m)] == ["ar0"]


class TestFrequency:
    def _loop_with_conditional(self, k, pred_kind="mod"):
        m = gen_module("mlp", replicas=2, steps=8, layers=1, dim=8,
                       outfeed_every=k if pred_kind == "mod" else None)
        comp, loop = step_computation(m)
        if pred_kind == "mod":
            cond_instr = next(i for i in comp.instructions if i.opcode == "conditional")
            return cond_instr, loop
        # build a value-based predicate: loss < 0.5
        gb = GraphBuilder("noise")
        return None, loop

    def test_mod_pattern(self):
        cond, loop = self._loop_with_conditional(1000)
        assert estimate_branch_frequency(cond, loop) == Fraction(1, 1000)

    def test_mod_one_is_every_step(self):
        cond, loop = self._loop_with_conditional(1)
        assert estimate_branch_frequency(cond, loop) == Fraction(1, 1)

    def test_value_predicate_unknown(self):
        gb = GraphBuilder("p")
        loss = gb.parameter(0, scalar(F32), "loss")
        half = gb.constant(0.5)
        pred = gb.emit("compare", scalar(PRED), (loss, half), direction="lt", id="pred")
        assert predicate_mod_frequency(pred) is None

    def test_mod_of_non_induction_value_unknown(self):
        # the remainder pattern over something other than the loop counter
        # must not be treated as an every-k branch
        m = gen_module("mlp", replicas=2, steps=8, layers=1, dim=8)
        comp, loop = step_computation(m)
        gb = GraphBuilder("noise")
        other = gb.parameter(0, scalar(S32), "other")
        k = gb.constant(4, S32)
        q = gb.emit("div", scalar(S32), (other, k))
        r = gb.emit("sub", scalar(S32), (other, gb.emit("mul", scalar(S32), (q, k))))
        pred = gb.emit("compare", scalar(PRED), (r, gb.constant(0, S32)), direction="eq")
        fake_cond = GraphBuilder("fake")
        arg = fake_cond.parameter(0, scalar(S32), "arg")
        from shardgraph.ir import Instruction, TupleShape as _TS

        cond_instr = Instruction(
            id="c", opcode="conditional", shape=_TS(()), operands=(pred, arg, arg),
            branches=(fake_cond.finish(arg), fake_cond.finish(arg)),
        )
        assert predicate_mod_frequency(pred) == Fraction(1, 4)
        assert estimate_branch_frequency(cond_instr, loop) is None

    def test_frequency_bounds(self):
        for k in (1, 2, 7, 1000):
            cond, loop = self._loop_with_conditional(k)
            f = estimate_branch_frequency(cond, loop)
            assert f is not None and 0 < f <= 1

    def test_trip_count(self):
        m = gen_module("mlp", replicas=2, steps=7, layers=1, dim=8)
        _, loop = step_computation(m)
        assert loop_trip_count(loop) == 7


class TestAmortization:
    def test_steps_below_one_is_rejected(self):
        m = gen_module("mlp", replicas=2, steps=3, layers=1, dim=8)
        for steps in (0, -5):
            with pytest.raises(ValueError, match="steps must be at least 1"):
                plan(m, steps=steps)

    def test_given_steps_override_the_loop(self):
        m = gen_module("mlp", replicas=2, steps=3, layers=1, dim=8)
        assert amortization_steps(m.training_loop(), None) == 3
        assert amortization_steps(m.training_loop(), 50) == 50
        assert amortization_steps(None, None) == DEFAULT_TRIP_COUNT

    def test_zero_trip_counted_loop_amortizes_over_the_default(self):
        text = print_module(gen_module("mlp", replicas=2, steps=3, layers=1, dim=8))
        assert text.count("%c.bound = s32[] constant(3)") == 1
        m = parse_module(text.replace("%c.bound = s32[] constant(3)", "%c.bound = s32[] constant(0)"))
        assert loop_trip_count(m.training_loop()) == 0
        assert amortization_steps(m.training_loop(), None) == DEFAULT_TRIP_COUNT
        decisions = [d.to_dict() for d in plan(m)]
        assert decisions and decisions == [d.to_dict() for d in plan(m, steps=DEFAULT_TRIP_COUNT)]


class TestEvaluate:
    def test_transformer_scale_cluster_shards(self):
        # per-tensor megabytes, N=16, one in-loop all-gather: clear win
        m = gen_module("mlp", replicas=16, steps=1000, layers=1, dim=1024)
        [d] = plan(m, steps=1000)
        assert d.shard
        assert d.benefit_sec > d.cost_sec

    def test_anchor_only_cluster_not_sharded(self):
        gb = GraphBuilder("main")
        g = gb.parameter(0, Shape((8,), F32), "g")
        ar = gb.emit("all-reduce", Shape((8,), F32), (g,), kind="add", groups=ALL_REPLICAS, id="ar")
        gb.emit("outfeed", TupleShape(()), (ar,), id="sink")
        root = gb.emit("tuple", TupleShape(()), ())
        m = Module(gb.finish(root), 4, ring_topology(4))
        [c] = clusters_of(m)
        d = evaluate(c, m, users_map(m.entry), None)
        assert not d.shard
        assert d.update_bytes == 0

    def test_single_replica_never_shards(self):
        m = gen_module("mlp", replicas=1, steps=1000, layers=1, dim=256)
        decisions = plan(m, steps=1000)
        assert all(not d.shard for d in decisions)

    def test_unconditioned_outfeed_vetoes(self):
        # outfeed of the full weight every step defeats sharding
        m = gen_module("mlp", replicas=8, steps=1000, layers=1, dim=256)
        comp, loop = step_computation(m)
        gb = GraphBuilder("patched")
        # rebuild the body with an outfeed of the updated weight appended
        from shardgraph.transform import _clone_instruction

        mapping = {}
        for ins in comp.instructions:
            operands = tuple(mapping[o.id] for o in ins.operands)
            mapping[ins.id] = _clone_instruction(ins, gb, operands, {c.name: c for c in ins.called_computations})
        gb.emit("outfeed", TupleShape(()), (mapping["w0.new"],), id="leak")
        from shardgraph.ir import Computation

        body2 = Computation(comp.name, gb.instructions, mapping[comp.root.id])
        loop2 = GraphBuilder("main2")
        mapping2 = {}
        for ins in m.entry.instructions:
            if ins.opcode == "while":
                mapping2[ins.id] = loop2.emit(
                    "while", ins.shape, (mapping2[ins.operands[0].id],),
                    id=ins.id, cond=ins.cond, body=body2,
                )
            else:
                mapping2[ins.id] = _clone_instruction(ins, loop2, tuple(mapping2[o.id] for o in ins.operands), {})
        m2 = Module(
            Computation("main", loop2.instructions, mapping2[m.entry.root.id]),
            m.replica_count, m.topology,
        )
        decisions = plan(m2, steps=1000)
        assert all(not d.shard for d in decisions)
        assert any("outfeed" in d.reason for d in decisions)

    def test_monotone_in_update_bytes(self):
        # growing the cluster's update traffic never flips shard -> keep
        results = []
        for dim in (64, 128, 256, 512):
            m = gen_module("mlp", replicas=8, steps=1000, layers=1, dim=dim)
            [d] = plan(m, steps=1000)
            results.append((d.update_bytes, d.shard))
        results.sort()
        first_yes = next((i for i, (_, s) in enumerate(results) if s), len(results))
        assert all(s for _, s in results[first_yes:])

    def test_zero_latency_closed_form(self):
        # with alpha = 0 the decision reduces to a pure byte comparison,
        # checked against direct evaluation of the two formulas
        cm = CostModel(per_message_latency=0.0)
        for dim, steps in [(64, 1000), (256, 100), (512, 10)]:
            m = gen_module("mlp", replicas=8, steps=steps, layers=1, dim=dim)
            [d] = plan(m, cm, steps=steps)
            assert d.shard == (d.benefit_sec > d.cost_sec)
            assert d.benefit_sec == pytest.approx(
                cluster_io_bytes(d.cluster, m, users_map(d.cluster.computation)) * (1 - 1 / 8) / cm.mem_bandwidth
            )

    def test_partial_groups_on_mesh_for_small_shards(self):
        m = gen_module("mlp", replicas=2048, topology=mesh_topology(32, 64),
                       steps=1000, layers=1, dim=512)
        shape = Shape((512, 512), F32)
        groups = select_spec(shape, m).group
        assert not groups.is_all
        assert groups.groups == m.topology.row_groups().groups

    def test_full_groups_on_ring(self):
        m = gen_module("mlp", replicas=16, steps=1000, layers=1, dim=512)
        assert select_spec(Shape((512, 512), F32), m).group.is_all


class TestSharedUsersMap:
    @pytest.mark.parametrize("layers", [2, 6])
    def test_plan_builds_the_step_users_map_once(self, layers, monkeypatch):
        from shardgraph import ir, profitability, transform

        m = gen_module("mlp", replicas=4, steps=3, layers=layers, dim=8)
        comp, _ = step_computation(m)
        built = []
        original = ir.users_map

        def counting(c):
            built.append(c)
            return original(c)

        for mod in (ir, profitability, transform):
            if getattr(mod, "users_map", None) is original:
                monkeypatch.setattr(mod, "users_map", counting)
        decisions = plan(m)
        assert len(decisions) == layers
        assert built == [comp]


class TestClusterIoBytes:
    def test_adam_counts_seven_weights(self):
        # inputs: gradient + w + m + v, outputs: w' + m' + v'  => 7 tensors
        m = gen_module("mlp", replicas=4, steps=3, layers=1, dim=64)
        [c] = clusters_of(m)
        per_tensor = physical_bytes(Shape((64, 64), F32))
        assert cluster_io_bytes(c, m, users_map(c.computation)) == 7 * per_tensor


def test_cost_weights_a_branch_as_the_planner_does():
    # the snapshot predicate tests i + 1 instead of the loop's induction
    # variable i, so its frequency is Unknown (every step) to the planner,
    # and `cost` must weight the branch's gathers the same
    from shardgraph.costmodel import cost
    from shardgraph.textfmt import parse_module, print_module
    from shardgraph.transform import apply

    text = print_module(gen_module("mlp", replicas=8, steps=1000, layers=1, dim=256, outfeed_every=4))
    text = text.replace("div(%b.i,", "div(%add,").replace("sub(%b.i,", "sub(%add,")
    m = parse_module(text)
    decisions = plan(m, steps=1000)
    branch_sites = [s for d in decisions for s in d.ag_sites if s.placement == "branch"]
    assert len(branch_sites) == 3 and all(s.weight == 1.0 for s in branch_sites)
    for d in decisions:
        d.shard = True
    report = cost(apply(m, decisions, steps_hint=1000).main)
    gathers = [c for c in report.collectives if c.instruction.startswith("brag_")]
    assert len(gathers) == 3
    assert all(c.executions / report.trip_count == 1.0 for c in gathers)
