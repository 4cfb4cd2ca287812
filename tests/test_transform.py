import dataclasses
import json
import random

import numpy as np
import pytest

from conftest import (
    bitwise_same,
    compiled_small_presets,
    outputs_bitwise_equal,
    run_pipeline,
    small_preset,
    training_inputs,
)
from irtools import all_instructions, computations_equal, instructions_equal, modules_equal
from shardgraph import memory, pipeline, profitability, transform
from shardgraph.cli import main
from shardgraph.costmodel import cost
from shardgraph.generators import MODELS, GenConfig, _chain, build_training_module, gen_module
from shardgraph.ir import (
    ALL_REPLICAS,
    F16R,
    F32,
    GraphBuilder,
    Instruction,
    Module,
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
from shardgraph.sharding import build_reduce_scatter, build_unshard_ops, choose_spec
from shardgraph.simulator import PerReplica, run
from shardgraph.textfmt import parse_module, print_module
from shardgraph.verify import verify


def forced_transform(m, steps):
    decisions = profitability.plan(m, steps=steps)
    for d in decisions:
        d.shard = True
    return transform.apply(m, decisions, steps_hint=steps)


def fusions_of(comp, kind):
    return [i for i in comp.instructions if i.opcode == "fusion" and i.kind == kind]


class TestApplyStructure:
    def test_loop_module_matches_expected_layout(self):
        # one reduce-scatter and one in-loop weight all-gather per weight in
        # the body; auxiliary gathers only in the unsharding program
        m = gen_module("mlp", replicas=4, steps=3, layers=1, dim=8)
        res = forced_transform(m, 3)
        body = next(i for i in res.main.entry.instructions if i.opcode == "while").body
        assert len(fusions_of(body, "reduce_scatter")) == 1
        assert len(fusions_of(body, "all_gather")) == 1
        assert not fusions_of(body, "unshard")
        un = res.unshard_program.entry
        assert len(fusions_of(un, "unshard")) == 3  # w, m, v
        sh = res.shard_program.entry
        assert len(fusions_of(sh, "shard")) == 3
        for mod in (res.main, res.shard_program, res.unshard_program):
            assert verify(mod) == []

    def test_no_loop_module_keeps_weight_gather_in_main(self):
        m = gen_module("mlp", replicas=4, steps=0, layers=1, dim=8)
        res = forced_transform(m, 4)
        assert len(fusions_of(res.main.entry, "all_gather")) == 1
        assert len(fusions_of(res.main.entry, "reduce_scatter")) == 1
        assert len(fusions_of(res.unshard_program.entry, "unshard")) == 3
        wvar = next(v for v in res.manifest.variables if v.name == "w0")
        assert wvar.residency == "sharded" and wvar.gathered_in_body

    def test_identity_when_nothing_shards(self):
        m = gen_module("mlp", replicas=4, steps=3, layers=1, dim=8)
        decisions = profitability.plan(m, steps=3)  # honest: too small to shard
        assert all(not d.shard for d in decisions)
        res = transform.apply(m, decisions, steps_hint=3)
        assert modules_equal(res.main, m)
        assert all(v.residency == "full" for v in res.manifest.variables)

    def test_stale_decision_rejected(self):
        m1 = gen_module("mlp", replicas=4, steps=3, layers=1, dim=8)
        m2 = gen_module("mlp", replicas=4, steps=3, layers=2, dim=8)
        decisions = profitability.plan(m2, steps=3)
        for d in decisions:
            d.shard = True
        with pytest.raises(transform.TransformError, match="stale|not in the step"):
            transform.apply(m1, decisions)

    def test_specs_agree_within_cluster(self):
        m = gen_module("mlp", replicas=4, steps=3, layers=2, dim=8)
        res = forced_transform(m, 3)
        body = next(i for i in res.main.entry.instructions if i.opcode == "while").body
        by_cluster = {}
        for f in fusions_of(body, "reduce_scatter") + fusions_of(body, "all_gather"):
            by_cluster.setdefault(str(f.spec.source_dims), set()).add(str(f.spec))
        for specs in by_cluster.values():
            assert len(specs) == 1

    def test_manifest_roundtrips_json(self):
        m = gen_module("mlp", replicas=4, steps=3, layers=1, dim=8)
        res = forced_transform(m, 3)
        assert json.loads(res.manifest.to_json())["variables"] == [
            v.to_dict() for v in res.manifest.variables
        ]


class TestEquivalence:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam", "lars"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_loop_composition_bitwise(self, optimizer, n):
        m = gen_module("mlp", replicas=n, steps=3, layers=2, dim=8, optimizer=optimizer)
        base, fin, _, _ = run_pipeline(m, steps=3, seed=11)
        assert outputs_bitwise_equal(base, fin)

    def test_no_loop_composition_bitwise(self):
        m = gen_module("mlp", replicas=4, steps=0, layers=1, dim=8)
        base, fin, _, _ = run_pipeline(m, steps=3, seed=11)
        assert outputs_bitwise_equal(base, fin)

    def test_outfeed_conditional_branch_gather(self):
        m = gen_module("mlp", replicas=4, steps=4, layers=1, dim=8, outfeed_every=2)
        decisions = profitability.plan(m, steps=4)
        for d in decisions:
            d.shard = True
        res = transform.apply(m, decisions, steps_hint=4)
        tb = next(
            b
            for i in next(x for x in res.main.entry.instructions if x.opcode == "while").body.instructions
            if i.opcode == "conditional"
            for b in i.branches
            if "true" in b.name
        )
        assert fusions_of(tb, "all_gather"), "branch must gather before the outfeed"
        inputs = training_inputs(m, 3)
        base = run(m, inputs, seed=3)
        sh = run(res.shard_program, inputs, seed=3)
        mn = run(res.main, chain_inputs(res.main, sh.outputs), seed=3)
        assert all(
            len(a) == len(b) and all(bitwise_same(x[1], y[1]) for x, y in zip(a, b))
            for a, b in zip(base.outfeeds, mn.outfeeds)
        )


class TestDemotion:
    def _mixed(self, n=4):
        return gen_module("mlp", replicas=n, steps=3, layers=1, dim=8)

    def test_pattern_rewrite_halves_gathered_bytes(self):
        cfg = GenConfig("t", _chain([8, 8]), batch=4, optimizer="adam", replicas=4,
                        topology=ring_topology(4), steps=3, mixed_precision=True)
        m = build_training_module(cfg)
        res = forced_transform(m, 3)
        before = cost(res.main)
        demoted = transform.demote_allgather_precision(res.main)
        assert verify(demoted) == []
        after = cost(demoted)
        ag_b = next(c for c in before.collectives if c.op == "all_gather")
        ag_a = next(c for c in after.collectives if c.op == "all_gather")
        assert ag_a.bytes_per_replica * 2 == ag_b.bytes_per_replica
        body = next(i for i in demoted.entry.instructions if i.opcode == "while").body
        ag = fusions_of(body, "all_gather")[0]
        assert ag.shape.etype == F16R
        assert ag.operands[0].opcode == "convert"

    def test_f32_consumer_blocks_demotion(self):
        # LARS norm reads the gathered weight in f32: conservative no-op
        cfg = GenConfig("t", _chain([8, 8]), batch=4, optimizer="lars", replicas=4,
                        topology=ring_topology(4), steps=3, mixed_precision=True)
        m = build_training_module(cfg)
        res = forced_transform(m, 3)
        demoted = transform.demote_allgather_precision(res.main)
        body = next(i for i in demoted.entry.instructions if i.opcode == "while").body
        for ag in fusions_of(body, "all_gather"):
            assert ag.shape.etype == F32

    def test_pure_f32_module_untouched(self):
        m = self._mixed()
        res = forced_transform(m, 3)
        demoted = transform.demote_allgather_precision(res.main)
        assert modules_equal(demoted, res.main)

    def test_f32_outfeed_consumer_blocks_demotion(self):
        # gathered weight goes straight to an outfeed: full precision stays
        from shardgraph.sharding import build_unshard_ops, choose_spec

        spec = choose_spec(Shape((8, 8), F32), 4)
        gb = GraphBuilder("main")
        w = gb.parameter(0, spec.shard_shape(F32), "w")
        ag = build_unshard_ops(spec, w, gb, kind="all_gather")
        gb.emit("outfeed", TupleShape(()), (ag,), id="snap")
        q = gb.emit("convert", Shape((8, 8), F16R), (ag,), id="q")
        m = Module(gb.finish(q), 4, ring_topology(4))
        out = transform.demote_allgather_precision(m)
        assert modules_equal(out, m)

    def test_outputs_unchanged_bitwise(self):
        cfg = GenConfig("t", _chain([8, 8, 8]), batch=4, optimizer="adam", replicas=4,
                        topology=ring_topology(4), steps=3, mixed_precision=True)
        m = build_training_module(cfg)
        base, fin, res, _ = run_pipeline(m, steps=3, seed=5)
        base2, fin2, _, _ = run_pipeline(m, steps=3, seed=5, demote=True)
        assert outputs_bitwise_equal(fin, fin2)
        assert outputs_bitwise_equal(base, fin2)


class TestPartialSharding:
    def test_fig9_dataflow_on_scalars(self):
        # 4x4 mesh, 16 elements: row reduce-scatter leaves 4-element shards,
        # a column all-reduce combines partial sums, a row all-gather restores
        topo = mesh_topology(4, 4)
        spec = choose_spec(Shape((16,), F32), 4, group=topo.row_groups())
        gb = GraphBuilder("main")
        x = gb.parameter(0, Shape((16,), F32), "x")
        rid = gb.emit("replica-id", scalar(S32), id="rid")
        rs = build_reduce_scatter(spec, x, rid, gb, topo)
        xg = gb.emit("all-reduce", rs.shape, (rs,), kind="add", groups=topo.col_groups(), id="xg")
        full = build_unshard_ops(spec, xg, gb, kind="all_gather")
        m = Module(gb.finish(full), 16, topo)
        assert verify(m) == []
        assert rs.shape.dims == (4,)
        rng = np.random.default_rng(0)
        vals = [rng.integers(0, 10, size=16).astype(np.float32) for _ in range(16)]
        res = run(m, {"x": PerReplica(vals)})
        oracle = np.sum(np.stack(vals), axis=0)
        for out in res.outputs:
            assert np.allclose(np.asarray(out), oracle, rtol=1e-6)

    def test_single_row_mesh_elides_cross_group(self):
        # forced row groups on a 1x4 mesh: the one row holds every replica,
        # so there is no column all-reduce to add
        topo = mesh_topology(1, 4)
        cfg = GenConfig("t", _chain([8, 8]), batch=2, optimizer="sgd", replicas=4,
                        topology=topo, steps=2)
        m = build_training_module(cfg)
        decisions = profitability.plan(m, steps=2)
        for d in decisions:
            d.shard = True
            d.spec = choose_spec(d.cluster.anchor.shape, 4, group=topo.row_groups())
        res = transform.apply(m, decisions, steps_hint=2)
        body = next(i for i in res.main.entry.instructions if i.opcode == "while").body
        assert len(fusions_of(body, "reduce_scatter")) == len(decisions)
        cross = [i for i in body.instructions if i.opcode == "all-reduce" and i.groups and not i.groups.is_all]
        assert cross == []

    def test_planner_row_groups_within_tolerance(self):
        # on a 2x2 mesh the planner shards small tensors within rows: a row
        # reduce-scatter plus a column all-reduce re-associates the sum, so
        # the composition is held to compare's scaled 1e-6 tolerance
        topo = mesh_topology(2, 2)
        cfg = GenConfig("t", _chain([8, 8]), batch=2, optimizer="sgd", replicas=4,
                        topology=topo, steps=2)
        m = build_training_module(cfg)
        base, fin, res, main = run_pipeline(m, steps=2, seed=6, pin_full_groups=False)
        assert res.decisions and all(d.spec.group == topo.row_groups() for d in res.decisions)
        body = next(i for i in main.entry.instructions if i.opcode == "while").body
        cross = [i for i in body.instructions if i.opcode == "all-reduce" and i.groups == topo.col_groups()]
        assert len(cross) == len(res.decisions)
        for a, b in zip(base, fin):
            for xa, xb in zip(a, b):
                xa, xb = np.asarray(xa, np.float64), np.asarray(xb, np.float64)
                assert np.all(np.abs(xa - xb) <= 1e-6 * (1.0 + np.abs(xa)))


def _weight_loop(cond_reads_weight: bool, weight_written_back: bool) -> Module:
    """SGD on one weight in state slot 1 of a hand-built loop. The condition
    either counts steps or runs until the weights sum past a bound; the body
    either writes the update back to slot 1, or sends it to slot 2 and
    writes slot 1 with a dot of the weight, an operator that stays outside
    the update cluster."""
    if cond_reads_weight:
        cond = """
    %c.w = f32[8,8] get-tuple-element(%cs), index=1
    %c.zero = f32[] constant(0.0)
    %c.sum = f32[] reduce(%c.w, %c.zero), dims=[0,1], kind=add
    %c.bound = f32[] constant(100.0)
    %c.go = pred[] compare(%c.sum, %c.bound), direction=lt"""
    else:
        cond = """
    %c.i = s32[] get-tuple-element(%cs), index=0
    %c.bound = s32[] constant(1000)
    %c.go = pred[] compare(%c.i, %c.bound), direction=lt"""
    if weight_written_back:
        slot1, slot2 = "%w.new", "%b.u"
    else:
        slot1, slot2 = "%w.sq", "%w.new"
    state = "(s32[], f32[8,8], f32[8,8])"
    text = f"""module N=4 topology=ring {{
  computation cond (%cs: {state}) -> pred[] {{
    %cs = {state} parameter(0){cond}
    return (%c.go)
  }}
  computation body (%bs: {state}) -> {state} {{
    %bs = {state} parameter(0)
    %b.i = s32[] get-tuple-element(%bs), index=0
    %b.w = f32[8,8] get-tuple-element(%bs), index=1
    %b.u = f32[8,8] get-tuple-element(%bs), index=2
    %g = f32[8,8] rng()
    %ar = f32[8,8] all-reduce(%g), kind=add, groups=all
    %lr = f32[] constant(0.01)
    %lrb = f32[8,8] broadcast(%lr), dims=[]
    %step = f32[8,8] mul(%lrb, %ar)
    %w.new = f32[8,8] sub(%b.w, %step)
    %w.sq = f32[8,8] dot(%b.w, %b.w)
    %one = s32[] constant(1)
    %i.new = s32[] add(%b.i, %one)
    %next = {state} tuple(%i.new, {slot1}, {slot2})
    return (%next)
  }}
  entry computation main (%w: f32[8,8] {{replica_equal}}, %u: f32[8,8] {{replica_equal}}) -> {state} {{
    %w = f32[8,8] parameter(0) {{replica_equal}}
    %u = f32[8,8] parameter(1) {{replica_equal}}
    %i0 = s32[] constant(0)
    %init = {state} tuple(%i0, %w, %u)
    %loop = {state} while(%init), cond=cond, body=body
    return (%loop)
  }}
}}
"""
    m = parse_module(text)
    assert verify(m) == []
    return m


class TestStateSlotVeto:
    """A cluster whose weight slot cannot stay sharded across iterations is
    kept by the planner, with the slot in its reason; the transform rejects
    a forced shard of it instead of quietly keeping it."""

    @pytest.mark.parametrize(
        "cond_reads_weight, written_back, reason",
        [
            (True, True, "state slot 1 is read by the loop condition"),
            (False, False, "state slot 1 is not written back by the update"),
        ],
    )
    def test_planner_keeps_and_transform_rejects(self, cond_reads_weight, written_back, reason):
        m = _weight_loop(cond_reads_weight, written_back)
        [d] = profitability.plan(m, steps=1000)
        assert 1 in d.cluster.state_slots
        assert not d.shard and d.reason == reason
        res = transform.apply(m, [d], steps_hint=1000)
        [w] = [v for v in res.manifest.variables if v.slot == 1]
        assert w.residency == "full"
        assert modules_equal(res.main, m)
        d.shard = True
        with pytest.raises(transform.TransformError, match=reason):
            transform.apply(m, [d], steps_hint=1000)

    def test_paired_uncounted_slot_is_sharded(self):
        # the same loop with the weight written back and a counted condition
        # passes the veto, so the decision rests on benefit and cost
        m = _weight_loop(cond_reads_weight=False, weight_written_back=True)
        [d] = profitability.plan(m, steps=1000)
        loop = next(i for i in m.entry.instructions if i.opcode == "while")
        assert profitability.state_veto(d.cluster, loop) is None
        assert d.reason.startswith("benefit")
        d.shard = True
        res = transform.apply(m, [d], steps_hint=1000)
        [w] = [v for v in res.manifest.variables if v.slot == 1]
        assert w.residency == "sharded"


SWAPPED_OUTPUTS = """module N=4 topology=ring {
  entry computation main (%w: f32[8,8] {replica_equal}, %m: f32[8,8] {replica_equal}) -> (f32[8,8], f32[8,8]) {
    %w = f32[8,8] parameter(0) {replica_equal}
    %m = f32[8,8] parameter(1) {replica_equal}
    %g = f32[8,8] rng()
    %ar = f32[8,8] all-reduce(%g), kind=add, groups=all
    %mu = f32[] constant(0.9)
    %mub = f32[8,8] broadcast(%mu), dims=[]
    %mm = f32[8,8] mul(%m, %mub)
    %mn = f32[8,8] add(%mm, %ar)
    %lr = f32[] constant(0.01)
    %lrb = f32[8,8] broadcast(%lr), dims=[]
    %step = f32[8,8] mul(%mn, %lrb)
    %wn = f32[8,8] sub(%w, %step)
    %out = (f32[8,8], f32[8,8]) tuple(%mn, %wn)
    return (%out)
  }
}
"""


class TestLooplessPairing:
    """Without a loop, slot k is read from parameter k and written back by
    root element k, as `compare` chains steps. Here the root lists the
    momentum before the weight, the reverse of the parameters, an order the
    generator never writes: the weight's slot is written back by the new
    momentum, an update member of its cluster, and chaining feeds that
    output back into the weight."""

    def test_manifest_pairs_and_outputs_are_bitwise_equal(self):
        m = parse_module(SWAPPED_OUTPUTS)
        assert verify(m) == []
        [d] = profitability.plan(m)
        assert d.shard
        compiled = pipeline.compile_module(m, [d])
        triples = [
            (v.name, v.param_index, v.output_index)
            for v in compiled.result.manifest.variables
            if v.residency == "sharded"
        ]
        assert triples == [("w", 0, 0), ("m", 1, 1)]
        inputs = {"w": np.full((8, 8), 0.5, np.float32), "m": np.full((8, 8), 0.25, np.float32)}
        base, outs = compiled.run(inputs, 3)
        assert outputs_bitwise_equal(base, outs)

    def test_compare_reports_no_difference(self, tmp_path):
        path = tmp_path / "swapped.ir"
        path.write_text(SWAPPED_OUTPUTS)
        report = tmp_path / "c.json"
        assert main(["compare", str(path), "--seed", "3", "--json", str(report)]) == 0
        data = json.loads(report.read_text())
        assert [d["decision"] for d in data["decisions"]] == ["shard"]
        assert data["max_rel_diff"] == 0.0


ROOT_SKIPS_THE_WEIGHT = """module N=4 topology=ring {
  entry computation main (%x: f32[8,8] {replica_equal}, %w: f32[8,8] {replica_equal}) -> (f32[8,8], f32[8,8]) {
    %x = f32[8,8] parameter(0) {replica_equal}
    %w = f32[8,8] parameter(1) {replica_equal}
    %g = f32[8,8] rng()
    %ar = f32[8,8] all-reduce(%g), kind=add, groups=all
    %lr = f32[] constant(0.01)
    %lrb = f32[8,8] broadcast(%lr), dims=[]
    %step = f32[8,8] mul(%ar, %lrb)
    %wn = f32[8,8] sub(%w, %step)
    %out = (f32[8,8], f32[8,8]) tuple(%wn, %x)
    return (%out)
  }
}
"""


class TestLooplessStateRule:
    """The weight is parameter 1, but its update is root element 0, the
    position of %x: slot 1 is not written back, so the weight cannot stay
    sharded across chained steps."""

    def test_planner_keeps_and_transform_rejects(self):
        m = parse_module(ROOT_SKIPS_THE_WEIGHT)
        assert verify(m) == []
        [d] = profitability.plan(m)
        assert set(d.cluster.state_slots) == {1}
        reason = "state slot 1 is not written back by the update"
        assert not d.shard and d.reason == reason
        d.shard = True
        with pytest.raises(transform.TransformError, match=reason):
            transform.apply(m, [d])

    def test_compare_two_steps(self, tmp_path):
        path = tmp_path / "skip.ir"
        path.write_text(ROOT_SKIPS_THE_WEIGHT)
        report = tmp_path / "c.json"
        assert main(["compare", str(path), "--seed", "3", "--steps", "2", "--json", str(report)]) == 0
        data = json.loads(report.read_text())
        assert [d["decision"] for d in data["decisions"]] == ["keep"]
        assert data["max_rel_diff"] == 0.0

    @pytest.mark.parametrize("steps", ["1", "2"])
    def test_compare_chains_a_single_array_root(self, tmp_path, steps):
        # the root is one array: it is output 0 and feeds parameter 0
        path = tmp_path / "single.ir"
        path.write_text(SINGLE_ARRAY_ROOT)
        report = tmp_path / "c.json"
        assert main(["compare", str(path), "--seed", "3", "--steps", steps, "--json", str(report)]) == 0
        assert json.loads(report.read_text())["max_rel_diff"] == 0.0


SINGLE_ARRAY_ROOT = """module N=4 topology=ring {
  entry computation main (%w: f32[8,8] {replica_equal}) -> f32[8,8] {
    %w = f32[8,8] parameter(0) {replica_equal}
    %g = f32[8,8] rng()
    %ar = f32[8,8] all-reduce(%g), kind=add, groups=all
    %lr = f32[] constant(0.01)
    %lrb = f32[8,8] broadcast(%lr), dims=[]
    %step = f32[8,8] mul(%ar, %lrb)
    %wn = f32[8,8] sub(%w, %step)
    return (%wn)
  }
}
"""


def test_every_shard_decision_becomes_a_reduce_scatter():
    # the planner's own decisions on every preset, on a ring and on a mesh:
    # each `shard` anchor is a reduce-scatter of its gradient in the emitted
    # main program, and each `keep` anchor is still its all-reduce
    seen = set()
    for model in MODELS:
        for topo in (ring_topology(4), mesh_topology(2, 2)):
            m = small_preset(model, topo)
            decisions = profitability.plan(m, steps=1000)
            res = transform.apply(m, decisions, steps_hint=1000)
            body = next(i for i in res.main.entry.instructions if i.opcode == "while").body
            scattered = sorted(f.operands[0].id for f in fusions_of(body, "reduce_scatter"))
            assert scattered == sorted(d.cluster.anchor.operands[0].id for d in decisions if d.shard)
            kept = {i.id for i in body.instructions if i.opcode == "all-reduce"}
            assert all(d.cluster.anchor.id in kept for d in decisions if not d.shard)
            seen.update(d.shard for d in decisions)
    assert seen == {True, False}


class TestBatching:
    def test_merges_independent_same_group(self):
        gb = GraphBuilder("main")
        groups = mesh_topology(2, 2).col_groups()
        xs = [gb.parameter(i, Shape((8,), F32), f"x{i}") for i in range(3)]
        ars = [
            gb.emit("all-reduce", Shape((8,), F32), (x,), kind="add", groups=groups, id=f"ar{i}")
            for i, x in enumerate(xs)
        ]
        root = gb.emit(
            "tuple", TupleShape(tuple(a.shape for a in ars)), tuple(ars), id="root"
        )
        m = Module(gb.finish(root), 4, mesh_topology(2, 2))
        out = transform.batch_collectives(m)
        merged = [i for i in out.entry.instructions if i.opcode == "all-reduce"]
        assert len(merged) == 1 and len(merged[0].operands) == 3
        res_a = run(m, {f"x{i}": PerReplica([np.full(8, r + i, np.float32) for r in range(4)]) for i in range(3)})
        res_b = run(out, {f"x{i}": PerReplica([np.full(8, r + i, np.float32) for r in range(4)]) for i in range(3)})
        assert outputs_bitwise_equal(res_a.outputs, res_b.outputs)

    def test_dependent_not_merged(self):
        gb = GraphBuilder("main")
        x = gb.parameter(0, Shape((8,), F32), "x")
        a = gb.emit("all-reduce", Shape((8,), F32), (x,), kind="add", groups=ALL_REPLICAS, id="a")
        b = gb.emit("all-reduce", Shape((8,), F32), (a,), kind="add", groups=ALL_REPLICAS, id="b")
        m = Module(gb.finish(b), 4, ring_topology(4))
        out = transform.batch_collectives(m)
        ars = [i for i in out.entry.instructions if i.opcode == "all-reduce"]
        assert len(ars) == 2

    def test_different_groups_not_merged(self):
        topo = mesh_topology(2, 2)
        gb = GraphBuilder("main")
        x = gb.parameter(0, Shape((8,), F32), "x")
        y = gb.parameter(1, Shape((8,), F32), "y")
        a = gb.emit("all-reduce", Shape((8,), F32), (x,), kind="add", groups=topo.row_groups(), id="a")
        b = gb.emit("all-reduce", Shape((8,), F32), (y,), kind="add", groups=topo.col_groups(), id="b")
        root = gb.emit("tuple", TupleShape((a.shape, b.shape)), (a, b))
        m = Module(gb.finish(root), 4, topo)
        out = transform.batch_collectives(m)
        assert len([i for i in out.entry.instructions if i.opcode == "all-reduce"]) == 2

    def test_no_batching_across_outfeed(self):
        gb = GraphBuilder("main")
        x = gb.parameter(0, Shape((8,), F32), "x")
        y = gb.parameter(1, Shape((8,), F32), "y")
        a = gb.emit("all-reduce", Shape((8,), F32), (x,), kind="add", groups=ALL_REPLICAS, id="a")
        gb.emit("outfeed", TupleShape(()), (a,), id="snap")
        b = gb.emit("all-reduce", Shape((8,), F32), (y,), kind="add", groups=ALL_REPLICAS, id="b")
        root = gb.emit("tuple", TupleShape((a.shape, b.shape)), (a, b))
        m = Module(gb.finish(root), 2, ring_topology(2))
        out = transform.batch_collectives(m)
        assert len([i for i in out.entry.instructions if i.opcode == "all-reduce"]) == 2


    def test_outfeeds_keep_their_order(self):
        # m1 must wait for m2's operand; the outfeed of m1 must still come
        # before the later, independent outfeed
        gb = GraphBuilder("main")
        s = Shape((8,), F32)
        x0 = gb.parameter(0, s, "x0")
        x1 = gb.parameter(1, s, "x1")
        m1 = gb.emit("all-reduce", s, (x0,), kind="add", groups=ALL_REPLICAS, id="m1")
        x = gb.emit("add", s, (x1, x1), id="x")
        m2 = gb.emit("all-reduce", s, (x,), kind="add", groups=ALL_REPLICAS, id="m2")
        gb.emit("outfeed", TupleShape(()), (m1,), id="o1")
        gb.emit("outfeed", TupleShape(()), (x0,), id="o2")
        root = gb.emit("tuple", TupleShape((s, s)), (m1, m2), id="root")
        out = transform.batch_collectives(Module(gb.finish(root), 2, ring_topology(2)))
        assert len([i for i in out.entry.instructions if i.opcode == "all-reduce"]) == 1
        assert [i.id for i in out.entry.instructions if i.opcode == "outfeed"] == ["o1", "o2"]

    def test_crossed_keys_compile(self, tmp_path):
        # a2 waits on c1 and c2 on a1: batching {a1, a2} and {c1, c2} would
        # make each batch wait on the other
        topo = mesh_topology(2, 2)
        s = Shape((8,), F32)
        gb = GraphBuilder("main")
        x = gb.parameter(0, s, "x")
        y = gb.parameter(1, s, "y")
        a1 = gb.emit("all-reduce", s, (x,), kind="add", groups=ALL_REPLICAS, id="a1")
        c1 = gb.emit("all-reduce", s, (y,), kind="add", groups=topo.col_groups(), id="c1")
        a2 = gb.emit("all-reduce", s, (gb.emit("add", s, (c1, c1), id="cc"),), kind="add", groups=ALL_REPLICAS, id="a2")
        c2 = gb.emit("all-reduce", s, (gb.emit("add", s, (a1, a1), id="aa"),), kind="add", groups=topo.col_groups(), id="c2")
        root = gb.emit("tuple", TupleShape((s, s)), (a2, c2), id="root")
        m = Module(gb.finish(root), 4, topo)
        out = transform.batch_collectives(m)
        assert verify(out) == []
        inputs = _random_replica_inputs(m, 0)
        assert outputs_bitwise_equal(run(m, inputs).outputs, run(out, inputs).outputs)
        path = tmp_path / "crossed.ir"
        path.write_text(print_module(m))
        assert main(["compare", str(path), "--seed", "1"]) == 0

    def test_level_rule_batches_chains_by_depth(self):
        gb = GraphBuilder("main")
        s = Shape((8,), F32)
        x = gb.parameter(0, s, "x")
        y = gb.parameter(1, s, "y")
        a1 = gb.emit("all-reduce", s, (x,), kind="add", groups=ALL_REPLICAS, id="a1")
        a2 = gb.emit("all-reduce", s, (a1,), kind="add", groups=ALL_REPLICAS, id="a2")
        b1 = gb.emit("all-reduce", s, (y,), kind="add", groups=ALL_REPLICAS, id="b1")
        b2 = gb.emit("all-reduce", s, (b1,), kind="add", groups=ALL_REPLICAS, id="b2")
        root = gb.emit("tuple", TupleShape((s, s)), (a2, b2), id="root")
        out = transform.batch_collectives(Module(gb.finish(root), 4, ring_topology(4)))
        batches = {}
        for i in out.entry.instructions:
            if i.opcode == "get-tuple-element":
                batches.setdefault(i.operands[0].id, set()).add(i.id)
        assert sorted(batches.values(), key=sorted) == [{"a1", "b1"}, {"a2", "b2"}]

    # 132 and 207 made the former greedy batching fail to schedule
    @pytest.mark.parametrize("first", range(0, 400, 100))
    def test_random_graphs(self, first):
        for seed in range(first, first + 100):
            m = _random_batching_module(seed)
            out = transform.batch_collectives(m)
            assert verify(out) == [], seed
            inputs = _random_replica_inputs(m, seed)
            a, b = run(m, inputs), run(out, inputs)
            assert outputs_bitwise_equal(a.outputs, b.outputs), seed
            assert [i for i, _ in a.outfeeds[0]] == [i for i, _ in b.outfeeds[0]], seed
            # no member of a batch depends on another member: each reduces
            # an operand computed without the others
            deps: dict[str, set[str]] = {}
            for ins in m.entry.instructions:
                deps[ins.id] = set().union(*({o.id} | deps[o.id] for o in ins.operands))
            batches: dict[str, set[str]] = {}
            for ins in out.entry.instructions:
                if ins.opcode == "get-tuple-element" and ins.operands[0].opcode == "all-reduce":
                    batches.setdefault(ins.operands[0].id, set()).add(ins.id)
            for members in batches.values():
                assert all(not deps[a] & members for a in members), seed


def _random_batching_module(seed: int) -> Module:
    """Three f32[8] parameters on a 2x2 mesh, then 4 to 11 random steps: an
    all-reduce of an earlier value over all replicas, rows or columns, an
    add of two earlier values, or an outfeed of one. The root holds every
    value."""
    rnd = random.Random(seed)
    topo = mesh_topology(2, 2)
    groups = [ALL_REPLICAS, topo.row_groups(), topo.col_groups()]
    s = Shape((8,), F32)
    gb = GraphBuilder("main")
    values = [gb.parameter(i, s, f"x{i}") for i in range(3)]
    for k in range(rnd.randint(4, 11)):
        step = rnd.choice(("all-reduce", "add", "outfeed"))
        if step == "all-reduce":
            values.append(gb.emit("all-reduce", s, (rnd.choice(values),), kind="add", groups=rnd.choice(groups), id=f"ar{k}"))
        elif step == "add":
            values.append(gb.emit("add", s, (rnd.choice(values), rnd.choice(values)), id=f"add{k}"))
        else:
            gb.emit("outfeed", TupleShape(()), (rnd.choice(values),), id=f"out{k}")
    root = gb.emit("tuple", TupleShape(tuple(v.shape for v in values)), tuple(values), id="root")
    return Module(gb.finish(root), 4, topo)


def _random_replica_inputs(m: Module, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        p.id: PerReplica([rng.normal(size=p.shape.dims).astype(np.float32) for _ in range(m.replica_count)])
        for p in m.entry.parameters
    }


class TestMemoryPlan:
    def test_baseline_is_w_plus_v_plus_p(self):
        m = gen_module("mlp", replicas=8, steps=2, layers=1, dim=16, batch=64)
        res = forced_transform(m, 2)
        base = memory.memory_plan_for(m, memory.baseline_manifest(res.manifest), m)
        assert base.peak_bytes == base.weight_bytes + base.aux_bytes + base.other_peak

    def test_transformed_peak_never_exceeds_baseline(self):
        for dim, batch in [(16, 64), (32, 8), (8, 4)]:
            m = gen_module("mlp", replicas=8, steps=2, layers=2, dim=dim, batch=batch)
            res = forced_transform(m, 2)
            base = memory.memory_plan_for(m, memory.baseline_manifest(res.manifest), m)
            trans = memory.memory_plan_for(res.main, res.manifest, m)
            assert trans.peak_bytes <= base.peak_bytes

    def test_sgd_no_aux_no_saving_from_aux(self):
        m = gen_module("mlp", replicas=8, steps=2, layers=1, dim=16, optimizer="sgd")
        res = forced_transform(m, 2)
        trans = memory.memory_plan_for(res.main, res.manifest, m)
        assert trans.aux_bytes == 0


def _assert_unchanged_computations_shared(before: Module, after: Module) -> int:
    """Every computation of `after` that matches its namesake in `before`
    instruction for instruction, and calls only shared computations, must be
    that very object. Returns how many are shared."""
    old = {c.name: c for c in before.computations()}
    shared: set[int] = set()  # ids of the computations taken over from `before`
    for c in after.computations():  # callees first
        o = old.get(c.name)
        if (
            o is not None
            and all(id(k) in shared for i in c.instructions for k in i.called_computations)
            and computations_equal(o, c)
        ):
            assert c is o, f"computation {c.name} is unchanged but was copied"
            shared.add(id(c))
    return len(shared)


def _assert_shared_exactly_upstream_of_edits(before: Module, after: Module) -> int:
    """Every instruction of `after` is the object of `before` with its id, in
    the computation it was rebuilt from, exactly when it is not downstream of
    an edit. A forward pass over `before` works that out: an instruction is
    clean when `after` holds one with its id and fields, calling the very
    same computations, and all its operands are clean. Returns how many
    instructions are shared."""
    old = {c.name: c for c in before.computations()}
    before_ids = {id(i) for k in old.values() for i in k.instructions}
    shared = 0
    for c in after.computations():
        # a conditional branch that now takes shards is rebuilt as `<name>.sharded`
        src = old.get(c.name) or old.get(c.name.removesuffix(".sharded"))
        if src is None:  # built by the pass: nothing in it comes from `before`
            assert not any(id(i) in before_ids for i in c.instructions), c.name
            continue
        out = {i.id: i for i in c.instructions}
        clean: dict[str, bool] = {}
        for i in src.instructions:  # operands before users
            o = out.get(i.id)
            clean[i.id] = (
                o is not None
                and instructions_equal(i, o)
                and len(o.called_computations) == len(i.called_computations)
                and all(a is b for a, b in zip(o.called_computations, i.called_computations))
                and all(clean[x.id] for x in i.operands)
            )
        mine = {i.id: i for i in src.instructions}
        for o in c.instructions:
            is_input = o is mine.get(o.id)
            assert is_input == clean.get(o.id, False), (c.name, o.id, is_input)
            shared += is_input
    return shared


class TestCopyOnWrite:
    def test_instructions_are_shared_exactly_upstream_of_edits(self):
        # every compiled small preset, and a module whose outfeed branch
        # takes shards after `apply`
        cases = [(n, m, r.decisions, r.manifest.notes["steps_assumed"]) for n, m, r, _ in compiled_small_presets()]
        outfeed = gen_module("mlp", topology=mesh_topology(2, 4), steps=3, layers=2, dim=16, outfeed_every=2)
        cases.append(("mlp-outfeed", outfeed, forced_transform(outfeed, 3).decisions, 3))
        branches = 0
        for name, m, decisions, steps in cases:
            module = m
            for label, p in (
                ("apply", lambda x: transform.apply(x, decisions, steps_hint=steps).main),
                ("demote", transform.demote_allgather_precision),
                ("batch", transform.batch_collectives),
            ):
                text = print_module(module)
                out = p(module)
                assert print_module(module) == text, (name, label)
                if out is not module:
                    shared = _assert_shared_exactly_upstream_of_edits(module, out)
                    assert 0 < shared < len(all_instructions(out)), (name, label)
                if label == "apply":
                    branches += sum(c.name.endswith(".sharded") for c in out.computations())
                module = out
        assert branches > 0

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("topology", [ring_topology(4), mesh_topology(2, 2)], ids=["ring4", "mesh2x2"])
    def test_passes_leave_their_input_unchanged(self, model, topology):
        m = small_preset(model, topology)
        text = print_module(m)
        decisions = profitability.plan(m, steps=2)
        assert print_module(m) == text
        for d in decisions:
            d.shard = True
        main = transform.apply(m, decisions, steps_hint=2).main
        assert print_module(m) == text
        for p in (transform.demote_allgather_precision, transform.batch_collectives):
            before = print_module(main)
            out = p(main)
            assert print_module(main) == before
            assert _assert_unchanged_computations_shared(main, out) > 0
            main = out

    def test_demote_with_nothing_to_demote_returns_its_input(self):
        res = forced_transform(gen_module("mlp", replicas=4, steps=3, layers=1, dim=8), 3)
        assert transform.demote_allgather_precision(res.main) is res.main

    def test_batch_with_nothing_to_merge_returns_its_input(self):
        res = forced_transform(gen_module("mlp", replicas=4, steps=3, layers=1, dim=8), 3)
        assert transform.batch_collectives(res.main) is res.main

    def test_demote_and_batch_share_what_they_leave_unchanged(self):
        # both passes rewrite the loop body; its condition and the
        # reduce-scatter computations it calls are shared
        main = forced_transform(small_preset("transformer-like", mesh_topology(2, 2)), 2).main
        demoted = transform.demote_allgather_precision(main)
        batched = transform.batch_collectives(demoted)

        def scatters(m):
            return [i.fused for i in m.training_loop().body.instructions if i.kind == "reduce_scatter"]

        for before, after in ((main, demoted), (demoted, batched)):
            _assert_unchanged_computations_shared(before, after)
            assert after.training_loop().body is not before.training_loop().body
            assert after.training_loop().cond is before.training_loop().cond
            assert scatters(after) and all(a is b for a, b in zip(scatters(after), scatters(before)))


class TestCloneInstruction:
    """`_clone_instruction` is the one clone path of every pass."""

    @staticmethod
    def _callee(name):
        gb = GraphBuilder(name)
        return gb.finish(gb.parameter(0, scalar(F32), f"{name}.p"))

    def _original(self, opcode):
        """An instruction with every field set away from its default; a field
        this table does not know gets a fresh object. `verify`'s note, the one
        field not given to the constructor, is set as a clean check sets it."""
        values = {
            "id": "orig",
            "opcode": opcode,
            "shape": Shape((3,), F32),
            "operands": (GraphBuilder("x").parameter(0, scalar(F32), "old"),),
            "value": (1.0, 2.0, 3.0),
            "index": 3,
            "replica_equal": True,
            "dims": (0,),
            "kind": "add",
            "direction": "lt",
            "groups": ReplicaGroups(((0,), (1,))),
            "pad_low": (1,),
            "pad_high": (2,),
            "slice_sizes": (3,),
            "cond": self._callee("cond"),
            "body": self._callee("body"),
            "branches": (self._callee("yes"), self._callee("no")),
            "fused": self._callee("fused"),
            "spec": object(),
        }
        kwargs = {}
        for f in dataclasses.fields(Instruction):
            v = values.get(f.name, object())
            assert f.default is dataclasses.MISSING or v != f.default, f.name
            if f.init:
                kwargs[f.name] = v
        instr = Instruction(**kwargs)
        instr.verified_at = (2, (8, 128))
        return instr

    @pytest.mark.parametrize(
        "opcode, remapped",
        [("while", {"cond", "body"}), ("conditional", {"branches"}), ("fusion", {"fused"}), ("add", set())],
    )
    def test_copies_every_field_and_remaps_callees(self, opcode, remapped):
        instr = self._original(opcode)
        callees = [instr.cond, instr.body, *instr.branches, instr.fused]
        comp_map = {c.name: self._callee(c.name) for c in callees}
        operands = (GraphBuilder("y").parameter(0, scalar(F32), "new"),)
        gb = GraphBuilder("out")
        clone = transform._clone_instruction(instr, gb, operands, comp_map)
        assert gb.instructions == [clone] and clone is not instr
        for f in dataclasses.fields(Instruction):
            got, old = getattr(clone, f.name), getattr(instr, f.name)
            if f.name == "operands":
                assert got is operands
            elif not f.init:  # a new instruction, which `verify` has not checked
                assert got is None, f.name
            elif f.name in remapped and f.name == "branches":
                assert got == tuple(comp_map[b.name] for b in old)
            elif f.name in remapped:
                assert got is comp_map[old.name]
            else:
                assert got is old, f.name

    @pytest.mark.parametrize("opcode", ["while", "conditional", "fusion", "add"])
    def test_unchanged_operands_return_the_instruction_itself(self, opcode):
        instr = self._original(opcode)
        unrelated = {"elsewhere": self._callee("elsewhere")}  # rebuilt, but not called here
        gb = GraphBuilder("out")
        same = tuple(list(instr.operands))  # another tuple of the same objects
        assert same is not instr.operands
        assert transform._clone_instruction(instr, gb, same, unrelated) is instr
        assert gb.instructions == [instr]

    @pytest.mark.parametrize(
        "opcode, rebuilt", [("while", "cond"), ("while", "body"), ("conditional", "no"), ("fusion", "fused")]
    )
    def test_a_rebuilt_callee_makes_a_new_instruction(self, opcode, rebuilt):
        instr = self._original(opcode)
        gb = GraphBuilder("out")
        clone = transform._clone_instruction(instr, gb, instr.operands, {rebuilt: self._callee(rebuilt)})
        assert clone is not instr and gb.instructions == [clone]
        assert clone.operands is instr.operands
        assert [c.name for c in clone.called_computations] == [c.name for c in instr.called_computations]
        assert any(a is not b for a, b in zip(clone.called_computations, instr.called_computations))

    def test_shape_override_and_duplicate_ids(self):
        instr = self._original("bitcast")
        gb = GraphBuilder("out")
        new_shape = Shape((3,), F16R)
        clone = transform._clone_instruction(instr, gb, instr.operands, {}, new_shape)
        assert clone.shape is new_shape and clone.dims is instr.dims
        same = transform._clone_instruction(instr, GraphBuilder("other"), instr.operands, {}, instr.shape)
        assert same is not instr and same.shape is instr.shape  # an override is a copy, even to the same shape
        # the instruction itself comes back here, and its id is taken
        with pytest.raises(ValueError, match="duplicate instruction id: orig"):
            transform._clone_instruction(instr, gb, instr.operands, {})


class TestVerifyOnce:
    """A compile puts each instruction object through its opcode's rules at
    most once: `verify` notes what it found clean, so the passes' own checks
    of shared instructions skip those rules."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_module("transformer-like", layers=3),
            lambda: gen_module("mlp", topology=mesh_topology(2, 4), steps=3, layers=2, dim=16, outfeed_every=2),
        ],
        ids=["transformer-like-3", "mlp-outfeed"],
    )
    def test_each_instruction_is_checked_at_most_once(self, build, handled):
        m = build()
        assert verify(m) == []
        decisions = profitability.plan(m, steps=1000)
        for d in decisions:
            d.shard = True
        res = transform.apply(m, decisions, steps_hint=1000)
        main = transform.batch_collectives(transform.demote_allgather_precision(res.main))
        assert main is not res.main
        checked = {id(i) for i in handled}
        assert len(checked) == len(handled)
        # and every instruction of every program the compile hands out was checked
        for prog in (m, res.main, res.shard_program, res.unshard_program, main):
            assert all(id(i) in checked for c in prog.computations() for i in c.instructions)

    def test_apply_checks_a_malformed_input(self):
        # a computation found clean at 4 replicas, then put into a module of
        # 8, where its groups no longer cover every replica
        gb = GraphBuilder("main")
        g = gb.parameter(0, Shape((4,), F32), "g")
        ar = gb.emit("all-reduce", Shape((4,), F32), (g,), kind="add", groups=ReplicaGroups(((0, 1), (2, 3))))
        small = Module(gb.finish(ar), 4, ring_topology(4))
        assert verify(small) == []
        with pytest.raises(ValueError, match="replica groups"):
            transform.apply(Module(small.entry, 8, ring_topology(8)), [])
