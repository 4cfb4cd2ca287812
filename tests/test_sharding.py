import dataclasses

import numpy as np
import pytest

from shardgraph.ir import (
    F32,
    GraphBuilder,
    Module,
    S32,
    Shape,
    TupleShape,
    mesh_topology,
    physical_bytes,
    ring_topology,
    round_up,
    scalar,
)
from shardgraph.sharding import (
    Bitcast,
    Pad,
    ShardingSpec,
    TrivialReshape,
    build_masked_reduce,
    build_shard_ops,
    build_unshard_ops,
    choose_spec,
    parse_spec_string,
    validate_for_reduce,
)
from shardgraph.simulator import PerReplica, run
from shardgraph.verify import verify


SWEEP_DIMS = [(4, 8), (6, 4), (2, 3, 8), (8, 8, 128), (2, 4, 8, 128)]
SWEEP_COUNTS = (2, 4, 8)


class TestChooseSpec:
    def test_golden_pad_ten(self):
        spec = choose_spec(Shape((3, 3, 256, 256), F32), 10)
        assert str(spec) == "[3,3,256,256] reshape[9,256,256] pad0+1 slice0/10"
        assert spec.shard_dims == (1, 256, 256)

    def test_golden_bitcast_sixtyfour(self):
        spec = choose_spec(Shape((3, 3, 256, 256), F32), 64)
        assert str(spec) == "[3,3,256,256] bitcast[576,8,128] slice0/64"
        assert spec.shard_dims == (9, 8, 128)

    def test_identity_for_one_shard(self):
        spec = choose_spec(Shape((7, 5), F32), 1)
        assert spec.steps == () and spec.shard_dims == (7, 5)

    def test_never_pads_when_exact_candidate_exists(self):
        # exhaustive check on small shapes: whenever any candidate divides
        # evenly, the chosen spec has no Pad step
        for dims in SWEEP_DIMS:
            for s in SWEEP_COUNTS:
                spec = choose_spec(Shape(dims, F32), s)
                merged = dims if len(dims) <= 3 else (int(np.prod(dims[:-2])), dims[-2], dims[-1])
                divisible = merged[0] % s == 0
                if divisible:
                    assert not any(isinstance(step, Pad) for step in spec.steps), (dims, s, str(spec))

    def test_waste_minimal_among_candidates(self):
        # [4096,1024] sliced at dim 0 would tile-pad each shard 4x; the
        # bitcast candidate is chosen instead
        spec = choose_spec(Shape((4096, 1024), F32), 2048)
        assert str(spec) == "[4096,1024] bitcast[4096,8,128] slice0/2048"
        assert spec.waste_bytes(F32) == 0

    def test_spec_string_roundtrip(self):
        for dims, s in [((3, 3, 256, 256), 10), ((3, 3, 256, 256), 64), ((16, 16), 4), ((7,), 2)]:
            spec = choose_spec(Shape(dims, F32), s)
            assert str(parse_spec_string(str(spec))) == str(spec)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[8] slice0/\u0662", "bad number '\u0662'"),  # Arabic-Indic two
            ("[8] slice0/\uff18", "bad number '\uff18'"),  # fullwidth eight
            ("[\u0668] slice0/4", "bad number '\u0668'"),
            ("[8] slice0/+2", "bad number '+2'"),
            ("[8] slice0/2_0", "bad number '2_0'"),
            ("[8] slice-1/2", "bad number '-1'"),
            ("[8] pad-1+0 slice0/4", "bad number '-1'"),
            ("[8] slice5/4", "slice dim 5 out of range for (8,)"),
            ("[8] slice1/4", "slice dim 1 out of range for (8,)"),
            ("[8] pad3+1 slice0/4", "pad dim 3 out of range for (8,)"),
            ("[2,8] reshape[16] pad1+0 slice0/4", "pad dim 1 out of range for (16,)"),
            ("[] slice1/1", "slice dim 1 out of range for ()"),
            ("[[8]] slice0/4", "bad number '[8]'"),
            ("[8] reshape[8 slice0/4", "bad dims '[8'"),
        ],
    )
    def test_malformed_spec_string_raises_value_error(self, text, message):
        with pytest.raises(ValueError) as e:
            parse_spec_string(text)
        assert str(e.value) == message

    def test_spec_dims_index_the_rank_they_apply_to(self):
        # the slice and pad dims count in the reformatted shape, not the source
        spec = parse_spec_string("[2,3,8] reshape[6,8] pad1+8 slice1/4")
        assert spec.shard_dims == (6, 4)
        assert str(parse_spec_string("[] slice0/1")) == "[] slice0/1"

    def test_scalar_pads_to_shards(self):
        spec = choose_spec(Shape((), F32), 4)
        assert spec.shard_dims == (1,)


class TestSpecDims:
    def test_dims_seq_follows_the_steps(self):
        for dims in SWEEP_DIMS + [(), (9, 5), (3, 3, 12, 12), (6, 8, 128)]:
            for s in SWEEP_COUNTS + (10,):
                spec = choose_spec(Shape(dims, F32), s)
                assert spec.dims_seq[0] == spec.source_dims == dims, str(spec)
                assert len(spec.dims_seq) == len(spec.steps) + 1, str(spec)
                assert spec.padded_dims == spec.dims_seq[-1]
                assert spec.shard_dims[spec.shard_dim] * s == spec.padded_dims[spec.shard_dim]

    def test_equal_fields_equal_specs(self):
        a = ShardingSpec((2, 3, 8), [TrivialReshape((6, 8)), Pad(1, 8)], 1, 4)
        b = parse_spec_string("[2,3,8] reshape[6,8] pad1+8 slice1/4")
        assert a == b and hash(a) == hash(b)
        assert a != dataclasses.replace(a, shard_count=2)
        assert a.dims_seq == ((2, 3, 8), (6, 8), (6, 16)) and a.shard_dims == (6, 4)

    def test_replace_recomputes_dims(self):
        spec = ShardingSpec((9, 4), (Pad(0, 3),), 0, 4)
        rows = mesh_topology(2, 2).row_groups()
        grouped = dataclasses.replace(spec, group=rows)
        assert grouped.group == rows and grouped != spec
        assert grouped.dims_seq == spec.dims_seq == ((9, 4), (12, 4))
        assert grouped.shard_dims == spec.shard_dims == (3, 4)
        halved = dataclasses.replace(spec, shard_count=2)
        assert halved.shard_dims == (6, 4)
        unpadded = dataclasses.replace(spec, steps=(), shard_dim=1)
        assert unpadded.dims_seq == ((9, 4),) and unpadded.shard_dims == (9, 1)

    def test_str_and_repr_show_the_fields_only(self):
        spec = parse_spec_string("[2,3,8] reshape[6,8] pad1+8 slice1/4")
        assert str(spec) == "[2,3,8] reshape[6,8] pad1+8 slice1/4"
        assert repr(spec) == (
            "ShardingSpec(source_dims=(2, 3, 8), steps=(TrivialReshape(new_dims=(6, 8)), "
            "Pad(dim=1, amount=8)), shard_dim=1, shard_count=4, group=ReplicaGroups(groups=None))"
        )


def _roundtrip_module(spec, etype=F32, n=None, topology=None):
    n = n or spec.shard_count
    topology = topology or ring_topology(n)
    gb = GraphBuilder("main")
    x = gb.parameter(0, spec.source_shape(etype), "x", replica_equal=True)
    rid = gb.emit("replica-id", scalar(S32), id="rid")
    sh = build_shard_ops(spec, x, rid, gb, topology)
    full = build_unshard_ops(spec, sh, gb, kind="unshard")
    return Module(gb.finish(full), n, topology)


class TestShardUnshardRoundTrip:
    @pytest.mark.parametrize(
        "dims,s",
        [
            ((8, 8), 2),
            ((8, 8), 4),
            ((9, 5), 10),  # heavy padding
            ((3, 3, 12, 12), 10),  # the reshape+pad pattern
            ((6, 8, 128), 4),  # bitcast
            ((16, 16, 24, 12), 8),
            ((128, 8, 128), 64),  # many shards, no padding
            ((5,), 2),  # rank 1
        ],
    )
    def test_bitwise_roundtrip(self, dims, s):
        spec = choose_spec(Shape(dims, F32), s)
        m = _roundtrip_module(spec)
        assert verify(m) == []
        rng = np.random.default_rng(0)
        x = rng.normal(size=dims).astype(np.float32)
        res = run(m, {"x": x})
        for out in res.outputs:
            assert np.asarray(out).tobytes() == x.tobytes()

    def test_roundtrip_s32(self):
        spec = choose_spec(Shape((9, 4), S32), 4)
        m = _roundtrip_module(spec, etype=S32)
        x = np.arange(36, dtype=np.int32).reshape(9, 4)
        res = run(m, {"x": x})
        for out in res.outputs:
            assert np.array_equal(np.asarray(out), x)

    def test_mesh_topology_shard_ids(self):
        spec = choose_spec(Shape((8, 4), F32), 4)
        m = _roundtrip_module(spec, topology=mesh_topology(2, 2))
        x = np.random.default_rng(1).normal(size=(8, 4)).astype(np.float32)
        res = run(m, {"x": x})
        for out in res.outputs:
            assert np.asarray(out).tobytes() == x.tobytes()

    def test_replica_offsets(self):
        # replica r of 10 slices [r,0,0] size [1,256//?,...]; use small dims
        spec = choose_spec(Shape((3, 3, 4, 4), F32), 10)
        gb = GraphBuilder("main")
        x = gb.parameter(0, spec.source_shape(F32), "x", replica_equal=True)
        rid = gb.emit("replica-id", scalar(S32), id="rid")
        sh = build_shard_ops(spec, x, rid, gb, ring_topology(10))
        m = Module(gb.finish(sh), 10, ring_topology(10))
        x_val = np.arange(3 * 3 * 4 * 4, dtype=np.float32).reshape(3, 3, 4, 4)
        res = run(m, {"x": x_val})
        padded = np.concatenate([x_val.reshape(9, 4, 4), np.zeros((1, 4, 4), np.float32)])
        for r in range(10):
            assert np.array_equal(np.asarray(res.outputs[r]), padded[r : r + 1])
        # replica 9's shard is pure padding
        assert np.all(np.asarray(res.outputs[9]) == 0.0)


class TestValidateForReduce:
    def test_reduce_to_scalar_always_ok(self):
        spec = choose_spec(Shape((3, 3, 256, 256), F32), 64)  # bitcast, merges everything
        assert validate_for_reduce(spec, (0, 1, 2, 3), 4) is None

    def test_merge_of_collapsed_and_passthrough_rejected(self):
        spec = ShardingSpec((3, 3, 16, 16), (TrivialReshape((9, 16, 16)),), 0, 3)
        violation = validate_for_reduce(spec, (0,), 4)  # dim0 collapsed, dim1 pass-through
        assert violation is not None and "merges" in violation

    def test_merge_of_all_collapsed_ok(self):
        spec = ShardingSpec((3, 3, 16, 16), (TrivialReshape((9, 16, 16)),), 0, 3)
        assert validate_for_reduce(spec, (0, 1), 4) is None

    def test_bitcast_after_pad_rejected(self):
        spec = ShardingSpec(
            (3, 16, 128), (Pad(0, 1), Bitcast((4, 16, 128))), 0, 4
        )
        violation = validate_for_reduce(spec, (0,), 3)
        assert violation is not None and "padding" in violation


class TestMaskedReduce:
    def _masked_module(self, dims, s, kind, etype, n=None):
        n = n or s
        topology = ring_topology(n)
        spec = choose_spec(Shape(dims, etype), s)
        gb = GraphBuilder("main")
        x = gb.parameter(0, spec.source_shape(etype), "x", replica_equal=True)
        rid = gb.emit("replica-id", scalar(S32), id="rid")
        sh = build_shard_ops(spec, x, rid, gb, topology,
                             fill=float("-inf") if kind == "max" else 0.0)
        init = gb.constant({"add": 0.0, "max": float("-inf")}[kind], etype)
        out = build_masked_reduce(spec, sh, kind, init, rid, gb, topology)
        return Module(gb.finish(out), n, topology), spec

    def test_padded_sum_exact_s32(self):
        m, spec = self._masked_module((9, 4), 10, "add", S32)
        assert verify(m) == []
        x = np.arange(36, dtype=np.int32).reshape(9, 4)
        res = run(m, {"x": x})
        for out in res.outputs:
            assert int(out) == int(x.sum())

    def test_padded_sum_f32_close(self):
        m, spec = self._masked_module((9, 6), 10, "add", F32)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 6)).astype(np.float32)
        res = run(m, {"x": x})
        expect = float(x.astype(np.float64).sum())
        for out in res.outputs:
            assert abs(float(out) - expect) <= 1e-5 * max(abs(expect), 1.0)

    def test_max_identity_in_padding(self):
        # all-negative data: padded lanes hold -inf and never win
        m, spec = self._masked_module((9, 4), 10, "max", F32)
        rng = np.random.default_rng(4)
        x = (-1.0 - np.abs(rng.normal(size=(9, 4)))).astype(np.float32)
        res = run(m, {"x": x})
        for out in res.outputs:
            assert float(out) == float(x.max())

    def test_unpadded_spec_elides_mask(self):
        spec = choose_spec(Shape((8, 4), F32), 4)
        gb = GraphBuilder("main")
        x = gb.parameter(0, spec.source_shape(F32), "x", replica_equal=True)
        rid = gb.emit("replica-id", scalar(S32), id="rid")
        sh = build_shard_ops(spec, x, rid, gb, ring_topology(4))
        init = gb.constant(0.0, F32)
        build_masked_reduce(spec, sh, "add", init, rid, gb, ring_topology(4))
        ops = {i.opcode for i in gb.instructions}
        assert "select" not in ops  # no mask emitted

    def test_weight_norm_style(self):
        # sum of squares over a padded sharded weight vs the plain oracle
        dims, s = (9, 6), 10
        spec = choose_spec(Shape(dims, F32), s)
        topology = ring_topology(s)
        gb = GraphBuilder("main")
        x = gb.parameter(0, spec.source_shape(F32), "x", replica_equal=True)
        rid = gb.emit("replica-id", scalar(S32), id="rid")
        sh = build_shard_ops(spec, x, rid, gb, topology)
        sq = gb.emit("mul", sh.shape, (sh, sh), id="sq")
        init = gb.constant(0.0, F32)
        total = build_masked_reduce(spec, sq, "add", init, rid, gb, topology)
        norm = gb.emit("sqrt", scalar(F32), (total,), id="norm")
        m = Module(gb.finish(norm), s, topology)
        rng = np.random.default_rng(5)
        xv = rng.normal(size=dims).astype(np.float32)
        res = run(m, {"x": xv})
        expect = float(np.sqrt((xv.astype(np.float64) ** 2).sum()))
        for out in res.outputs:
            assert abs(float(out) - expect) <= 1e-5 * expect


def test_unshard_with_one_shard_is_pure_reformatting():
    spec = choose_spec(Shape((4, 4), F32), 1)
    gb = GraphBuilder("main")
    x = gb.parameter(0, spec.source_shape(F32), "x", replica_equal=True)
    sh = build_unshard_ops(spec, x, gb, kind="unshard")
    m = Module(gb.finish(sh), 1, ring_topology(1))
    res = run(m, {"x": np.ones((4, 4), np.float32)})
    assert res.stats.rounds == 0
