import pytest
from hypothesis import given, strategies as st

from shardgraph.ir import (
    ALL_REPLICAS,
    F32,
    GraphBuilder,
    PRED,
    ReplicaGroups,
    S32,
    Shape,
    Topology,
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
