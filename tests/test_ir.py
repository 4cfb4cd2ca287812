import copy
import heapq
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import compiled_small_presets
from randmod import random_module
from shardgraph.ir import (
    ALL_REPLICAS,
    DEFAULT_TILE,
    F32,
    GraphBuilder,
    Module,
    PRED,
    ReplicaGroups,
    S32,
    Shape,
    Topology,
    TupleShape,
    mesh_topology,
    physical_bytes,
    physical_elements,
    ring_topology,
    scalar,
    topo_order,
    users_map,
)


class TestPhysicalBytes:
    def test_tile_aligned_4d(self):
        assert physical_bytes(Shape((3, 3, 256, 256), F32)) == 3 * 3 * 256 * 256 * 4 == 2_359_296

    def test_small_matrix_rounds_to_tile(self):
        # 5 -> 8 on the second-minor dim, 3 -> 128 on the minor dim
        assert physical_bytes(Shape((5, 3), F32)) == 8 * 128 * 4 == 4096

    def test_scalar(self):
        assert physical_bytes(Shape((), F32)) == 4
        assert physical_bytes(Shape((), PRED)) == 1

    def test_rank1_tiles_to_128(self):
        assert physical_bytes(Shape((5,), S32)) == 128 * 4
        assert physical_bytes(Shape((256,), F32)) == 256 * 4

    def test_element_sizes(self):
        from shardgraph.ir import ElementType

        assert ElementType.F32.byte_size == 4
        assert ElementType.F16R.byte_size == 2
        assert ElementType.S32.byte_size == 4
        assert ElementType.PRED.byte_size == 1

    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=3),
    )
    def test_monotone_in_each_dim(self, dims, which):
        which = which % len(dims)
        base = physical_bytes(Shape(tuple(dims), F32))
        grown = list(dims)
        grown[which] += 1
        assert physical_bytes(Shape(tuple(grown), F32)) >= base

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=200))
    def test_invariant_under_leading_merge(self, a, b, c, d):
        # merging dims left of the two minor-most is a trivial reshape
        merged = physical_bytes(Shape((a * b, c, d), F32))
        assert physical_bytes(Shape((a, b, c, d), F32)) == merged


class TestInternedShapes:
    def test_one_object_per_shape(self):
        s = Shape((2, 3), F32)
        assert Shape([2, 3], F32) is Shape((np.int64(2), 3), F32) is s
        assert Shape([np.int32(2), 3.0], F32) is s
        assert Shape((2, 3), S32) is not s and Shape((3, 2), F32) is not s
        assert scalar(PRED) is Shape((), PRED) is Shape([], PRED)
        assert s == Shape([2, 3], F32) and hash(s) == hash(Shape([2, 3], F32))

    def test_a_tuple_of_equal_elements_is_one_object(self):
        t = TupleShape([Shape((2,), F32), scalar(S32)])
        assert TupleShape((Shape([2], F32), Shape((), S32))) is t
        assert TupleShape(iter(t)) is t
        assert TupleShape(()) is TupleShape([])
        assert TupleShape((scalar(S32),)) is not t

    @pytest.mark.parametrize("shape", [Shape((4, 128), F32), scalar(PRED), TupleShape((Shape((4,), F32), scalar(S32))), TupleShape(())])
    def test_copies_and_pickles_are_the_interned_object(self, shape):
        assert copy.copy(shape) is shape
        assert copy.deepcopy(shape) is shape
        assert pickle.loads(pickle.dumps(shape)) is shape
        gb = GraphBuilder("c")
        p = gb.parameter(0, shape, "p")
        assert copy.deepcopy(gb.finish(p)).root.shape is shape

    def test_values_the_ir_rejects_raise_the_same_errors(self):
        for _ in range(2):  # nothing is remembered from a failed build
            with pytest.raises(ValueError, match=r"^negative dimension in shape: \(2, -1\)$"):
                Shape([2, np.int64(-1)], F32)
            with pytest.raises(ValueError, match="^tuple shapes may only contain array shapes$"):
                TupleShape((Shape((2,), F32), TupleShape(())))

    def test_shapes_are_immutable(self):
        s, t = Shape((4,), F32), TupleShape((scalar(F32),))
        for obj, name in ((s, "dims"), (s, "etype"), (t, "elements"), (s, "extra")):
            with pytest.raises(AttributeError):
                setattr(obj, name, ())
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert s.dims == (4,) and t.elements == (scalar(F32),)

    def test_repr_and_str(self):
        s = Shape((2, 3), F32)
        assert repr(s) == "Shape(dims=(2, 3), etype=<ElementType.F32: 'f32'>)"
        assert repr(TupleShape((s,))) == f"TupleShape(elements=({s!r},))"
        assert str(s) == "f32[2,3]" and str(TupleShape((s, scalar(PRED)))) == "(f32[2,3], pred[])"

    def test_physical_bytes_are_remembered_per_tile(self):
        s = Shape((5, 3), F32)
        t = TupleShape((s, scalar(PRED)))
        for _ in range(2):
            assert physical_bytes(s) == physical_bytes(s, DEFAULT_TILE) == 8 * 128 * 4
            assert physical_bytes(s, (4, 64)) == 8 * 64 * 4
            assert physical_bytes(t, (4, 64)) == 8 * 64 * 4 + 1
            assert physical_bytes(t) == 8 * 128 * 4 + 1

    def test_module_tile_is_a_tuple(self):
        gb = GraphBuilder("main")
        comp = gb.finish(gb.parameter(0, scalar(F32), "p"))
        m = Module(comp, replica_count=2, topology=ring_topology(2), tile=[4, 64])
        assert m.tile == (4, 64) and isinstance(m.tile, tuple)


def reference_topo_order(comp):
    """`topo_order` as written before it ranked ids: a heap of (id, object
    key) pairs and dicts keyed by object."""
    in_comp = {id(i) for i in comp.instructions}
    indegree = {}
    users = {}
    by_key = {id(i): i for i in comp.instructions}
    for instr in comp.instructions:
        ops = [o for o in instr.operands if id(o) in in_comp]
        indegree[id(instr)] = len(ops)
        for o in ops:
            users.setdefault(id(o), []).append(instr)
    ready = [(i.id, id(i)) for i in comp.instructions if indegree[id(i)] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        _, key = heapq.heappop(ready)
        out.append(by_key[key])
        for u in users.get(key, ()):
            indegree[id(u)] -= 1
            if indegree[id(u)] == 0:
                heapq.heappush(ready, (u.id, id(u)))
    if len(out) != len(comp.instructions):
        raise ValueError(f"cycle detected in computation {comp.name}")
    return out


class TestTopoOrder:
    def _chain(self):
        gb = GraphBuilder("c")
        a = gb.parameter(0, Shape((4,), F32), "a")
        b = gb.emit("sqrt", Shape((4,), F32), (a,), id="b")
        c = gb.emit("sqrt", Shape((4,), F32), (b,), id="c")
        return gb.finish(c)

    def test_chain(self):
        comp = self._chain()
        assert [i.id for i in topo_order(comp)] == ["a", "b", "c"]

    def test_diamond(self):
        gb = GraphBuilder("d")
        a = gb.parameter(0, Shape((4,), F32), "a")
        b = gb.emit("sqrt", Shape((4,), F32), (a,), id="b")
        c = gb.emit("sqrt", Shape((4,), F32), (a,), id="c")
        d = gb.emit("add", Shape((4,), F32), (b, c), id="d")
        comp = gb.finish(d)
        order = [i.id for i in topo_order(comp)]
        assert order[0] == "a" and order[-1] == "d"

    def test_stable_across_calls(self):
        comp = self._chain()
        assert [i.id for i in topo_order(comp)] == [i.id for i in topo_order(comp)]

    def test_ties_broken_by_id(self):
        gb = GraphBuilder("t")
        a = gb.parameter(0, Shape((4,), F32), "z_param")
        b = gb.parameter(1, Shape((4,), F32), "a_param")
        c = gb.emit("add", Shape((4,), F32), (a, b), id="sum")
        comp = gb.finish(c)
        assert [i.id for i in topo_order(comp)] == ["a_param", "z_param", "sum"]


    def test_matches_reference_on_random_modules(self):
        for seed in range(200):
            for comp in random_module(seed).computations():
                assert topo_order(comp) == reference_topo_order(comp), (seed, comp.name)

    def test_matches_reference_on_compiled_presets(self):
        checked = 0
        for name, m, result, main in compiled_small_presets():
            for prog in (m, result.main, main, result.shard_program, result.unshard_program):
                for comp in prog.computations():
                    assert topo_order(comp) == reference_topo_order(comp), (name, comp.name)
                    checked += 1
        assert checked > 500

    def test_cycle_raises(self):
        gb = GraphBuilder("cyc")
        a = gb.parameter(0, Shape((4,), F32), "a")
        b = gb.emit("sqrt", Shape((4,), F32), (a,), id="b")
        c = gb.emit("sqrt", Shape((4,), F32), (b,), id="c")
        b.operands = (c,)
        with pytest.raises(ValueError, match="cycle detected in computation cyc"):
            topo_order(gb.finish(c))


class TestGroupsAndTopology:
    def test_mesh_rows_cols(self):
        t = mesh_topology(2, 3)
        assert t.row_groups().groups == ((0, 1, 2), (3, 4, 5))
        assert t.col_groups().groups == ((0, 3), (1, 4), (2, 5))

    def test_partitions_are_built_once_per_topology(self):
        # shard-rank emission classifies a group against them per collective
        t = mesh_topology(32, 64)
        assert t.row_groups() is t.row_groups() and t.col_groups() is t.col_groups()
        assert t == mesh_topology(32, 64) and hash(t) == hash(mesh_topology(32, 64))
        assert t.row_groups().groups[31] == tuple(range(31 * 64, 32 * 64))
        assert t.col_groups().groups[63] == tuple(63 + 64 * i for i in range(32))

    def test_groups_hash_once(self):
        class Counted(int):
            hashes = 0

            def __hash__(self):
                Counted.hashes += 1
                return int.__hash__(self)

        g = ReplicaGroups(((Counted(0), Counted(1)), (Counted(2), Counted(3))))
        built = Counted.hashes
        seen = {g: 1}
        for _ in range(3):
            assert seen[g] == 1 and hash(g) == hash(ReplicaGroups(((0, 1), (2, 3))))
        assert Counted.hashes == built
        # equality stays by value
        assert g == ReplicaGroups(((0, 1), (2, 3))) and g != ReplicaGroups(((0, 2), (1, 3)))
        assert g != ALL_REPLICAS and ReplicaGroups(None) == ALL_REPLICAS
        assert repr(ALL_REPLICAS) == "ReplicaGroups(groups=None)"
        plain = ReplicaGroups(((0, 1), (2, 3)))
        assert pickle.loads(pickle.dumps(plain)) == plain and hash(copy.deepcopy(plain)) == hash(plain)

    def test_all_replicas_resolve_once_per_count(self):
        assert ALL_REPLICAS.resolve(8) is ALL_REPLICAS.resolve(8) == (tuple(range(8)),)
        assert ALL_REPLICAS.group_size(2048) == 2048
        assert ALL_REPLICAS.group_of(5, 8) == tuple(range(8))

    def test_group_resolution(self):
        g = ReplicaGroups(((0, 1), (2, 3)))
        assert g.group_of(2, 4) == (2, 3)
        assert g.group_size(4) == 2
        assert ALL_REPLICAS.resolve(3) == ((0, 1, 2),)

    def test_topology_size_must_match(self):
        from shardgraph.ir import Module

        gb = GraphBuilder("main")
        p = gb.parameter(0, scalar(F32), "p")
        comp = gb.finish(p)
        with pytest.raises(ValueError):
            Module(comp, replica_count=4, topology=ring_topology(2))


class TestUsersMap:
    def test_matches_naive_scan_on_random_modules(self):
        from randmod import random_module

        for seed in range(60):
            for comp in random_module(seed).computations():
                users = users_map(comp)
                used = set()
                for x in comp.instructions:
                    naive = [u for u in comp.instructions for o in u.operands if o is x]
                    assert users.get(x.id, []) == naive, (seed, comp.name, x.id)
                    if naive:
                        used.add(x.id)
                assert set(users) == used

    def test_a_value_read_twice_lists_its_user_twice(self):
        gb = GraphBuilder("sq")
        a = gb.parameter(0, Shape((4,), F32), "a")
        sq = gb.emit("mul", Shape((4,), F32), (a, a), id="sq")
        out = gb.emit("add", Shape((4,), F32), (sq, a), id="out")
        users = users_map(gb.finish(out))
        assert users == {"a": [sq, sq, out], "sq": [out]}
