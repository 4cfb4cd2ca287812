"""Ring reduce-scatter and all-gather, run the way the system runs them: a
small module holding a reduce-scatter fusion (`sharding.build_reduce_scatter`)
and/or an all-gather fusion (`sharding.build_unshard_ops(kind="all_gather")`),
executed by `simulator.run` on `PerReplica` inputs.

A group that the fusion builders cannot emit a shard rank for (one that is
neither every replica nor the mesh rows or columns) has no fusion form; its
reduce-scatter goes through `_reduce_scatter_stack`, the function the
simulator's fusion handler calls."""

import numpy as np

from shardgraph.ir import DEFAULT_TILE, F32, S32, GraphBuilder, Module, scalar
from shardgraph.sharding import build_reduce_scatter, build_unshard_ops
from shardgraph.simulator import PerReplica, _reduce_scatter_stack, _ring_groups, run

REDUCE_SCATTER, ALL_GATHER = "reduce_scatter", "all_gather"


def collective_module(spec, topology, ops, etype=F32, kind="add", tile=DEFAULT_TILE) -> Module:
    """A module whose entry runs `ops` (reduce-scatter and all-gather fusions
    over `spec`, in order) on its parameter %x."""
    gb = GraphBuilder("main")
    x = gb.parameter(0, spec.source_shape(etype) if ops[0] == REDUCE_SCATTER else spec.shard_shape(etype), "x")
    v = x
    for op in ops:
        if op == REDUCE_SCATTER:
            v = build_reduce_scatter(spec, v, gb.emit("replica-id", scalar(S32)), gb, topology, reduce_kind=kind)
        else:
            v = build_unshard_ops(spec, v, gb, kind="all_gather")
    return Module(gb.finish(v), topology.n, topology, tile)


def _run(m: Module, values) -> list[np.ndarray]:
    return run(m, {"x": PerReplica(values)}).outputs


def reduce_scatter(values, spec, topology, kind="add", etype=F32) -> list[np.ndarray]:
    """Each replica's shard of the reduction of `values`, one array per
    replica of the spec's source shape."""
    try:
        m = collective_module(spec, topology, (REDUCE_SCATTER,), etype, kind)
    except NotImplementedError:  # no shard-rank emission for this group
        groups = [members for members, _ in _ring_groups(spec.group, topology, list(range(topology.n)))]
        return list(_reduce_scatter_stack(np.stack(values), groups, spec, topology, kind, etype, DEFAULT_TILE))
    return _run(m, values)


def all_gather(shards, spec, topology, etype=F32) -> list[np.ndarray]:
    """Each replica's full (source-shape) tensor, gathered from one shard per
    replica."""
    return _run(collective_module(spec, topology, (ALL_GATHER,), etype), shards)


def reduce_scatter_all_gather(values, spec, topology, etype=F32) -> list[np.ndarray]:
    """The all-reduce of `values` as one module: a reduce-scatter fusion
    feeding an all-gather fusion."""
    return _run(collective_module(spec, topology, (REDUCE_SCATTER, ALL_GATHER), etype), values)
