"""Deterministic lockstep multi-replica interpreter with ring collectives.

All replicas advance through the instruction list of a computation together;
collectives rendezvous at that point. Floating-point reduction order inside a
collective is fixed by ring position, so a decomposed reduce-scatter/all-gather
pair over the same format produces bit-identical results to the all-reduce it
replaces. `rng` draws from a counter-based generator keyed on
(seed, replica, instruction id, invocation), which makes runs reproducible and
independent of graph rewrites that keep instruction ids stable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .costmodel import CollectiveCost, CostModel, Phase, collective_cost, instruction_phases
from .ir import (
    Computation,
    ElementType,
    Instruction,
    Module,
    ReplicaGroups,
    Shape,
    Topology,
    TupleShape,
    physical_bytes,
    physical_elements,
    reduce_identity,
    round_up,
)
from .profitability import DEFAULT_TRIP_COUNT, loop_trip_count, predicate_mod_frequency
from .sharding import Bitcast, ShardingSpec, TrivialReshape, choose_spec, shard_id_of


class SimulationError(RuntimeError):
    pass


class PerReplica:
    """Wrapper marking an input as one value per replica."""

    def __init__(self, values):
        self.values = list(values)


_NP_DTYPES = {
    ElementType.F32: np.float32,
    ElementType.F16R: np.float32,  # stored as f32 rounded to the reduced pattern
    ElementType.S32: np.int32,
    ElementType.PRED: np.bool_,
}


def np_dtype(etype: ElementType):
    return _NP_DTYPES[etype]


def round_reduced(x: np.ndarray) -> np.ndarray:
    """Round-to-nearest-even truncation of f32 to a 16-bit significand pattern
    (8-bit exponent, 7-bit mantissa); result stays materialized as f32."""
    x = np.asarray(x, dtype=np.float32)
    bits = np.ascontiguousarray(x).view(np.uint32)
    rounded = (bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))) & np.uint32(
        0xFFFF0000
    )
    out = rounded.view(np.float32).copy()
    nan = np.isnan(x)
    if nan.any():
        out[nan] = np.float32("nan")
    return out.reshape(x.shape)


def coerce(arr: np.ndarray, shape: Shape) -> np.ndarray:
    out = np.asarray(arr, dtype=np_dtype(shape.etype)).reshape(shape.dims)
    if shape.etype == ElementType.F16R:
        out = round_reduced(out)
    return out


# --------------------------------------------------------------------------- #
# Tiled physical layout: element offsets and bitcast
# --------------------------------------------------------------------------- #


def tiled_offsets(dims: tuple[int, ...], tile: tuple[int, int]) -> np.ndarray:
    """Physical buffer offset of every logical element (row-major result)."""
    if len(dims) == 0:
        return np.zeros((), dtype=np.int64)
    if len(dims) == 1:
        return np.arange(dims[0], dtype=np.int64)
    t0, t1 = tile
    r, c = dims[-2], dims[-1]
    cpad = round_up(c, t1)
    tiles_per_row = cpad // t1
    rr = np.arange(r, dtype=np.int64)[:, None]
    cc = np.arange(c, dtype=np.int64)[None, :]
    minor = ((rr // t0) * tiles_per_row + cc // t1) * (t0 * t1) + (rr % t0) * t1 + cc % t1
    lead = 1
    for d in dims[:-2]:
        lead *= d
    slab = round_up(r, t0) * cpad
    out = (np.arange(lead, dtype=np.int64)[:, None, None] * slab) + minor[None, :, :]
    return out.reshape(dims)


def bitcast_array(arr: np.ndarray, src: Shape, dst_dims: tuple[int, ...], tile) -> np.ndarray:
    """Reinterpret the tiled physical buffer as a new logical shape. Elements
    of the target that fall into tile padding of the source read as zero."""
    phys = np.zeros(physical_elements(src, tile), dtype=arr.dtype)
    phys[tiled_offsets(src.dims, tile).ravel()] = np.asarray(arr).ravel()
    dst_off = tiled_offsets(dst_dims, tile).ravel()
    return phys[dst_off].reshape(dst_dims)


def apply_steps_array(arr: np.ndarray, spec: ShardingSpec, etype: ElementType, tile, fill=0.0) -> np.ndarray:
    dims = spec.source_dims
    for step in spec.steps:
        if isinstance(step, TrivialReshape):
            arr = arr.reshape(step.new_dims)
        elif isinstance(step, Bitcast):
            arr = bitcast_array(arr, Shape(dims, etype), step.new_dims, tile)
        else:
            widths = [(0, step.amount if i == step.dim else 0) for i in range(len(dims))]
            arr = np.pad(arr, widths, constant_values=np.asarray(fill, dtype=arr.dtype))
        dims = tuple(arr.shape)
    return arr


def invert_steps_array(arr: np.ndarray, spec: ShardingSpec, etype: ElementType, tile) -> np.ndarray:
    dims = spec.source_dims
    seq = [dims]
    for step in spec.steps:
        if isinstance(step, (TrivialReshape, Bitcast)):
            dims = step.new_dims
        else:
            d = list(dims)
            d[step.dim] += step.amount
            dims = tuple(d)
        seq.append(dims)
    for step, before in zip(reversed(spec.steps), reversed(seq[:-1])):
        if isinstance(step, TrivialReshape):
            arr = arr.reshape(before)
        elif isinstance(step, Bitcast):
            arr = bitcast_array(arr, Shape(tuple(arr.shape), etype), before, tile)
        else:
            sl = tuple(slice(0, d) for d in before)
            arr = arr[sl]
    return arr


# --------------------------------------------------------------------------- #
# Ring collectives
# --------------------------------------------------------------------------- #


@dataclass
class CollectiveStats:
    """Ring rounds and per-replica, per-link bytes of the collectives a run
    executed, counted with the cost model's schedule."""

    rounds: int = 0
    bytes_sent: float = 0.0

    def record(self, phases: list[Phase]):
        for p in phases:
            self.rounds += p.rounds
            self.bytes_sent += p.rounds * p.piece_bytes


def _combine(a: np.ndarray, b: np.ndarray, kind: str) -> np.ndarray:
    if kind == "add":
        return a + b
    if kind == "mul":
        return a * b
    if kind == "max":
        return np.maximum(a, b)
    if kind == "min":
        return np.minimum(a, b)
    raise ValueError(f"unknown reduction kind {kind}")


def _ring_fold(arrays: list[np.ndarray], start: int, kind: str, etype: ElementType) -> np.ndarray:
    """Fold arrays in ring order starting after `start`: the accumulation
    order every piece experiences in the classic ring algorithm."""
    n = len(arrays)
    acc = arrays[(start + 1) % n].copy()
    for k in range(2, n + 1):
        acc = _combine(acc, arrays[(start + k) % n], kind)
        if etype == ElementType.F16R:
            acc = round_reduced(acc)
    return acc


def _rs_values(
    arrays: list[np.ndarray],
    spec: ShardingSpec,
    topology: Topology,
    kind: str,
    etype: ElementType,
) -> list[np.ndarray]:
    """Reduce-scatter across one group: arrays are the formatted+padded full
    tensors in group order; returns each member's fully-reduced shard."""
    g = len(arrays)
    s = spec.shard_count
    if s != g:
        raise SimulationError(f"spec shard count {s} != group size {g}")
    pieces = [np.split(a, s, axis=spec.shard_dim) for a in arrays]
    out: list[np.ndarray | None] = [None] * g
    if not topology.two_phase(spec.group):
        # Single ring: member at position p keeps piece p, accumulated in ring
        # order starting from its successor.
        for p in range(g):
            out[p] = _ring_fold([pieces[q][p] for q in range(g)], p, kind, etype)
        return out
    # Two-phase mesh: rows exchange superpieces (R consecutive shards), then
    # columns exchange single shards. Replica (i, j) ends with shard j*R + i.
    rows, cols = topology.rows, topology.cols
    row_partial: list[list[np.ndarray]] = [[None] * s for _ in range(g)]
    for i in range(rows):
        row = [i * cols + j for j in range(cols)]
        for j in range(cols):
            for t in range(rows):
                piece_idx = j * rows + t
                row_partial[row[j]][piece_idx] = _ring_fold(
                    [pieces[r][piece_idx] for r in row], j, kind, etype
                )
    for j in range(cols):
        col = [i * cols + j for i in range(rows)]
        for i in range(rows):
            piece_idx = j * rows + i
            out[col[i]] = _ring_fold(
                [row_partial[r][piece_idx] for r in col], i, kind, etype
            )
    return out


def _gathered_full(
    shards: list[np.ndarray],
    spec: ShardingSpec,
    topology: Topology,
    group: tuple[int, ...],
) -> np.ndarray:
    """All-gather across one group: `shards` in group order, each the shard
    matching its owner's ring position; returns the post-steps full tensor."""
    ordered = [None] * len(group)
    for pos, replica in enumerate(group):
        ordered[shard_id_of(replica, topology, spec.group)] = shards[pos]
    return np.concatenate(ordered, axis=spec.shard_dim)


def ring_reduce_scatter(
    values: list[np.ndarray],
    spec: ShardingSpec,
    topology: Topology,
    kind: str = "add",
    etype: ElementType = ElementType.F32,
    tile=(8, 128),
) -> list[np.ndarray]:
    """Per-replica shards of the reduction of `values` (one array per replica,
    all of the spec's source shape). Piece boundaries equal the spec's shard
    boundaries; padding is applied while preparing pieces."""
    n = topology.n
    if len(values) != n:
        raise SimulationError(f"expected {n} per-replica values, got {len(values)}")
    for v in values:
        if tuple(np.asarray(v).shape) != tuple(spec.source_dims):
            raise SimulationError(
                f"reduce-scatter input shape {np.asarray(v).shape} != spec source {spec.source_dims}"
            )
    fill = reduce_identity(kind)
    out: list[np.ndarray | None] = [None] * n
    for group in spec.group.resolve(n):
        arrays = [
            apply_steps_array(np.asarray(values[r]), spec, etype, tile, fill) for r in group
        ]
        shards = _rs_values(arrays, spec, topology, kind, etype)
        for pos, r in enumerate(group):
            # _rs_values leaves each member's own shard (shard_id_of(r)) at
            # its group position.
            out[r] = shards[pos]
    return [o for o in out]


def ring_all_gather(
    shards: list[np.ndarray],
    spec: ShardingSpec,
    topology: Topology,
    etype: ElementType = ElementType.F32,
    tile=(8, 128),
) -> list[np.ndarray]:
    """Reconstruct the full (source-shape) tensor on every replica from
    per-replica shards: concatenation by shard id, then reverse formatting."""
    n = topology.n
    out: list[np.ndarray | None] = [None] * n
    for group in spec.group.resolve(n):
        full = _gathered_full([np.asarray(shards[r]) for r in group], spec, topology, group)
        restored = invert_steps_array(full, spec, etype, tile)
        for r in group:
            out[r] = restored
    return [o for o in out]


# --------------------------------------------------------------------------- #
# Interpreter
# --------------------------------------------------------------------------- #


@dataclass
class RunResult:
    outputs: list  # per replica: ndarray or tuple of ndarrays (the root value)
    outfeeds: list  # per replica: list of (instruction id, value)
    stats: CollectiveStats


def _contains(comp: Computation, pred) -> bool:
    for ins in comp.instructions:
        if pred(ins):
            return True
        for callee in ins.called_computations:
            if _contains(callee, pred):
                return True
    return False


def _is_collective(instr: Instruction) -> bool:
    return instr.opcode == "all-reduce" or (
        instr.opcode == "fusion" and instr.kind in ("reduce_scatter", "all_gather", "unshard")
    )


def _has_collective(comp: Computation) -> bool:
    return _contains(comp, _is_collective)


class Simulator:
    def __init__(
        self,
        m: Module,
        seed: int = 0,
        max_while_iterations: int = 10**6,
        on_value=None,
    ):
        self.m = m
        self.seed = seed
        self.max_while = max_while_iterations
        self.on_value = on_value  # callback(instr, replicas, values) for analysis oracles
        self.stats = CollectiveStats()
        self.outfeeds: list[list] = [[] for _ in range(m.replica_count)]
        self._rng_counters: dict[str, int] = {}

    # -- public entry ---------------------------------------------------------

    def run(self, inputs: dict) -> RunResult:
        n = self.m.replica_count
        params = self.m.entry.parameters
        args: list[list] = [[] for _ in range(n)]
        for p in params:
            if p.id not in inputs:
                raise SimulationError(f"missing input for parameter %{p.id}")
            val = inputs[p.id]
            per_replica = self._per_replica_values(p, val)
            for r in range(n):
                args[r].append(per_replica[r])
        roots = self._run_computation(self.m.entry, args, list(range(n)))
        return RunResult(outputs=roots, outfeeds=self.outfeeds, stats=self.stats)

    def _per_replica_values(self, p: Instruction, val) -> list:
        n = self.m.replica_count
        shape = p.shape

        def conv(v):
            try:
                if isinstance(shape, TupleShape):
                    return tuple(coerce(np.asarray(e), s) for e, s in zip(v, shape.elements))
                return coerce(np.asarray(v), shape)
            except (ValueError, TypeError) as e:
                raise SimulationError(
                    f"input for parameter %{p.id} does not match {shape}: {e}"
                ) from None

        if isinstance(val, PerReplica):
            if len(val.values) != n:
                raise SimulationError(
                    f"parameter %{p.id}: {len(val.values)} per-replica values for {n} replicas"
                )
            vals = [conv(v) for v in val.values]
        else:
            vals = [conv(val)] * n
        if p.replica_equal:
            first = vals[0]
            for v in vals[1:]:
                if not _values_equal(first, v):
                    raise SimulationError(
                        f"parameter %{p.id} is annotated replica_equal but inputs differ"
                    )
        return vals

    # -- computation evaluation ------------------------------------------------

    def _run_computation(self, comp: Computation, args: list[list], replicas: list[int]) -> list:
        env: dict[str, list] = {}
        for instr in comp.instructions:
            env[instr.id] = self._eval(instr, env, args, replicas, comp)
            if self.on_value is not None:
                self.on_value(instr, replicas, env[instr.id])
        return env[comp.root.id]

    def _eval(self, instr: Instruction, env, args, replicas: list[int], comp: Computation) -> list:
        op = instr.opcode
        handler = getattr(self, "_op_" + op.replace("-", "_"))
        return handler(instr, env, args, replicas)

    # -- leaf ops ---------------------------------------------------------------

    def _op_parameter(self, instr, env, args, replicas):
        return [args[k][instr.index] for k in range(len(replicas))]

    def _op_constant(self, instr, env, args, replicas):
        arr = np.array(instr.value, dtype=np.float64).reshape(instr.shape.dims)
        v = coerce(arr, instr.shape)
        return [v] * len(replicas)

    def _op_iota(self, instr, env, args, replicas):
        dims = instr.shape.dims
        d = instr.dims[0]
        ramp = np.arange(dims[d] if dims else 1, dtype=np.float64)
        view = ramp.reshape([-1 if i == d else 1 for i in range(len(dims))])
        v = coerce(np.broadcast_to(view, dims).copy(), instr.shape)
        return [v] * len(replicas)

    def _op_replica_id(self, instr, env, args, replicas):
        return [np.int32(r) for r in replicas]

    def _op_rng(self, instr, env, args, replicas):
        count = self._rng_counters.get(instr.id, 0)
        self._rng_counters[instr.id] = count + 1
        out = []
        for r in replicas:
            entropy = (self.seed, r, zlib.crc32(instr.id.encode()), count)
            gen = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy)))
            if instr.shape.etype == ElementType.S32:
                v = gen.integers(0, 100, size=instr.shape.dims, dtype=np.int32)
            else:
                v = gen.random(size=instr.shape.dims, dtype=np.float32)
            out.append(coerce(v, instr.shape))
        return out

    # -- elementwise -------------------------------------------------------------

    def _binary(self, instr, env, fn):
        a, b = env[instr.operands[0].id], env[instr.operands[1].id]
        out = [coerce(fn(x, y), instr.shape) for x, y in zip(a, b)]
        return out

    def _op_add(self, instr, env, args, replicas):
        return self._binary(instr, env, lambda x, y: x + y)

    def _op_sub(self, instr, env, args, replicas):
        return self._binary(instr, env, lambda x, y: x - y)

    def _op_mul(self, instr, env, args, replicas):
        return self._binary(instr, env, lambda x, y: x * y)

    def _op_div(self, instr, env, args, replicas):
        if instr.shape.etype == ElementType.S32:
            # truncating integer division
            def fn(x, y):
                with np.errstate(divide="ignore", invalid="ignore"):
                    q = np.where(y != 0, np.abs(x) // np.maximum(np.abs(y), 1), 0)
                return (q * np.sign(x) * np.sign(y)).astype(np.int32)

        else:
            def fn(x, y):
                with np.errstate(divide="ignore", invalid="ignore"):
                    return x / y

        return self._binary(instr, env, fn)

    def _op_max(self, instr, env, args, replicas):
        return self._binary(instr, env, np.maximum)

    def _op_min(self, instr, env, args, replicas):
        return self._binary(instr, env, np.minimum)

    def _op_power(self, instr, env, args, replicas):
        def fn(x, y):
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.power(x, y)

        return self._binary(instr, env, fn)

    def _op_sqrt(self, instr, env, args, replicas):
        a = env[instr.operands[0].id]
        with np.errstate(invalid="ignore"):
            return [coerce(np.sqrt(x), instr.shape) for x in a]

    def _op_compare(self, instr, env, args, replicas):
        a, b = env[instr.operands[0].id], env[instr.operands[1].id]
        fn = {
            "eq": np.equal,
            "ne": np.not_equal,
            "lt": np.less,
            "le": np.less_equal,
            "gt": np.greater,
            "ge": np.greater_equal,
        }[instr.direction]
        return [fn(x, y) for x, y in zip(a, b)]

    def _op_select(self, instr, env, args, replicas):
        p, a, b = (env[o.id] for o in instr.operands)
        return [coerce(np.where(x, y, z), instr.shape) for x, y, z in zip(p, a, b)]

    def _op_convert(self, instr, env, args, replicas):
        src = env[instr.operands[0].id]
        etype = instr.shape.etype
        out = []
        for x in src:
            if etype == ElementType.S32:
                v = np.trunc(np.asarray(x, dtype=np.float64)).astype(np.int32) if np.asarray(x).dtype != np.bool_ else np.asarray(x).astype(np.int32)
            elif etype == ElementType.PRED:
                v = np.asarray(x) != 0
            else:
                v = np.asarray(x, dtype=np.float32)
            out.append(coerce(v, instr.shape))
        return out

    def _op_broadcast(self, instr, env, args, replicas):
        src = env[instr.operands[0].id]
        out_dims = instr.shape.dims
        mapping = instr.dims or ()
        view_dims = [1] * len(out_dims)
        for i, d in enumerate(mapping):
            view_dims[d] = instr.operands[0].shape.dims[i]
        return [
            coerce(np.broadcast_to(np.asarray(x).reshape(view_dims), out_dims).copy(), instr.shape)
            for x in src
        ]

    def _op_dot(self, instr, env, args, replicas):
        a, b = env[instr.operands[0].id], env[instr.operands[1].id]
        return [coerce(np.matmul(x, y), instr.shape) for x, y in zip(a, b)]

    def _op_reduce(self, instr, env, args, replicas):
        src = env[instr.operands[0].id]
        init = env[instr.operands[1].id]
        kind = instr.kind
        dims = tuple(instr.dims or ())
        fn = {"add": np.add, "mul": np.multiply, "max": np.maximum, "min": np.minimum}[kind]
        out = []
        for x, i0 in zip(src, init):
            red = fn.reduce(x, axis=dims) if dims else x.copy()
            red = _combine(np.asarray(red), np.asarray(i0), kind)
            out.append(coerce(red, instr.shape))
        return out

    def _op_reshape(self, instr, env, args, replicas):
        src = env[instr.operands[0].id]
        return [coerce(np.reshape(x, instr.shape.dims), instr.shape) for x in src]

    def _op_bitcast(self, instr, env, args, replicas):
        src = env[instr.operands[0].id]
        s = instr.operands[0].shape
        return [
            coerce(bitcast_array(x, s, instr.shape.dims, self.m.tile), instr.shape) for x in src
        ]

    def _op_pad(self, instr, env, args, replicas):
        src = env[instr.operands[0].id]
        fill = env[instr.operands[1].id]
        widths = list(zip(instr.pad_low, instr.pad_high))
        return [
            coerce(np.pad(x, widths, constant_values=np.asarray(f, dtype=np.asarray(x).dtype)), instr.shape)
            for x, f in zip(src, fill)
        ]

    def _op_dynamic_slice(self, instr, env, args, replicas):
        src = env[instr.operands[0].id]
        starts = [env[o.id] for o in instr.operands[1:]]
        sizes = instr.slice_sizes
        dims = instr.operands[0].shape.dims
        out = []
        for k in range(len(src)):
            idx = []
            for d in range(len(dims)):
                s = int(starts[d][k])
                s = max(0, min(s, dims[d] - sizes[d]))
                idx.append(slice(s, s + sizes[d]))
            out.append(np.ascontiguousarray(src[k][tuple(idx)]))
        return out

    def _op_tuple(self, instr, env, args, replicas):
        elems = [env[o.id] for o in instr.operands]
        return [tuple(e[k] for e in elems) for k in range(len(replicas))]

    def _op_get_tuple_element(self, instr, env, args, replicas):
        src = env[instr.operands[0].id]
        return [v[instr.index] for v in src]

    def _op_outfeed(self, instr, env, args, replicas):
        src = env[instr.operands[0].id]
        for k, r in enumerate(replicas):
            v = src[k]
            copy = tuple(np.array(e) for e in v) if isinstance(v, tuple) else np.array(v)
            self.outfeeds[r].append((instr.id, copy))
        return [() for _ in replicas]

    # -- collectives -------------------------------------------------------------

    def _require_full_groups(self, instr, groups: ReplicaGroups, replicas: list[int]):
        active = set(replicas)
        for g in groups.resolve(self.m.replica_count):
            if any(r in active for r in g) and not all(r in active for r in g):
                raise SimulationError(
                    f"collective %{instr.id} rendezvous with divergent replicas: "
                    f"group {g}, active {sorted(active)}"
                )

    def _op_all_reduce(self, instr, env, args, replicas):
        self._require_full_groups(instr, instr.groups, replicas)
        self.stats.record(instruction_phases(instr, self.m))
        n = self.m.replica_count
        pos = {r: k for k, r in enumerate(replicas)}
        results_per_operand = []
        for o in instr.operands:
            vals = env[o.id]
            shape = o.shape
            full = [None] * n
            for r in replicas:
                full[r] = vals[pos[r]]
            spec = choose_spec(shape, instr.groups.group_size(n), self.m.tile, instr.groups)
            # values fold in the exposed RS+AG order; bytes were counted above
            shards = ring_reduce_scatter(full, spec, self.m.topology, instr.kind, shape.etype, self.m.tile)
            gathered = ring_all_gather(shards, spec, self.m.topology, shape.etype, self.m.tile)
            results_per_operand.append([coerce(gathered[r], shape) for r in replicas])
        if len(instr.operands) == 1:
            return results_per_operand[0]
        return [tuple(res[k] for res in results_per_operand) for k in range(len(replicas))]

    def _op_fusion(self, instr, env, args, replicas):
        kind = instr.kind
        if kind in ("standard", "shard"):
            fargs = [
                [env[o.id][k] for o in instr.operands] for k in range(len(replicas))
            ]
            return self._run_computation(instr.fused, fargs, replicas)
        spec: ShardingSpec = instr.spec
        self._require_full_groups(instr, spec.group, replicas)
        self.stats.record(instruction_phases(instr, self.m))
        n = self.m.replica_count
        pos = {r: k for k, r in enumerate(replicas)}
        src_shape = instr.operands[0].shape
        etype = src_shape.etype
        vals = env[instr.operands[0].id]
        full = [None] * n
        for r in replicas:
            full[r] = vals[pos[r]]
        if kind == "reduce_scatter":
            rk = _fusion_reduce_kind(instr)
            shards = ring_reduce_scatter(full, spec, self.m.topology, rk, etype, self.m.tile)
            return [coerce(shards[r], instr.shape) for r in replicas]
        # all_gather / unshard: ring gather, then the fused reverse formatting.
        out = [None] * n
        for group in spec.group.resolve(n):
            gathered = _gathered_full([np.asarray(full[r]) for r in group], spec, self.m.topology, group)
            for r in group:
                if r in pos:
                    out[r] = gathered
        fargs = [[out[r]] for r in replicas]
        return self._run_computation(instr.fused, fargs, replicas)

    # -- control flow --------------------------------------------------------------

    def _op_while(self, instr, env, args, replicas):
        state = list(env[instr.operands[0].id])
        active = list(range(len(replicas)))
        has_coll = _has_collective(instr.body) or _has_collective(instr.cond)
        iters = 0
        while active:
            if iters > self.max_while:
                raise SimulationError(
                    f"while %{instr.id} exceeded {self.max_while} iterations"
                )
            act_replicas = [replicas[k] for k in active]
            conds = self._run_computation(instr.cond, [[state[k]] for k in active], act_replicas)
            cont = [k for k, c in zip(active, conds) if bool(c)]
            if not cont:
                break
            if len(cont) != len(active) and has_coll:
                raise SimulationError(
                    f"while %{instr.id}: condition diverges across replicas with "
                    "collectives in the loop"
                )
            new_states = self._run_computation(
                instr.body, [[state[k]] for k in cont], [replicas[k] for k in cont]
            )
            for k, s in zip(cont, new_states):
                state[k] = s
            active = cont
            iters += 1
        return state

    def _op_conditional(self, instr, env, args, replicas):
        preds = env[instr.operands[0].id]
        t_idx = [k for k, p in enumerate(preds) if bool(p)]
        f_idx = [k for k, p in enumerate(preds) if not bool(p)]
        diverged = bool(t_idx) and bool(f_idx)
        if diverged and (
            _has_collective(instr.branches[0]) or _has_collective(instr.branches[1])
        ):
            raise SimulationError(
                f"conditional %{instr.id}: predicate diverges across replicas with "
                "collectives in a branch"
            )
        out = [None] * len(replicas)
        for idx, branch, operand in (
            (t_idx, instr.branches[0], instr.operands[1]),
            (f_idx, instr.branches[1], instr.operands[2]),
        ):
            if not idx:
                continue
            vals = env[operand.id]
            res = self._run_computation(
                branch, [[vals[k]] for k in idx], [replicas[k] for k in idx]
            )
            for k, v in zip(idx, res):
                out[k] = v
        return out


def _fusion_reduce_kind(instr: Instruction) -> str:
    for ins in instr.fused.instructions:
        if ins.opcode == "all-reduce":
            return ins.kind
    return "add"


def _values_equal(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (
            isinstance(a, tuple)
            and isinstance(b, tuple)
            and len(a) == len(b)
            and all(_values_equal(x, y) for x, y in zip(a, b))
        )
    return np.array_equal(np.asarray(a), np.asarray(b))


def run(
    m: Module,
    inputs: dict,
    seed: int = 0,
    max_while_iterations: int = 10**6,
    on_value=None,
) -> RunResult:
    """Execute the module on all replicas in lockstep.

    `inputs` maps entry parameter ids to either a single value (used on every
    replica) or a list of per-replica values. Parameters annotated
    replica_equal must receive identical values.
    """
    return Simulator(m, seed, max_while_iterations, on_value).run(inputs)


# --------------------------------------------------------------------------- #
# Static cost analysis
# --------------------------------------------------------------------------- #


_FREE_OPCODES = frozenset({"parameter", "tuple", "get-tuple-element", "bitcast", "replica-id"})


def _op_bytes(instr: Instruction, tile) -> int:
    if instr.opcode in _FREE_OPCODES:
        return 0
    if instr.opcode in ("constant", "iota", "rng"):
        return physical_bytes(instr.shape, tile)
    total = physical_bytes(instr.shape, tile)
    for o in instr.operands:
        total += physical_bytes(o.shape, tile)
    return total


@dataclass
class CostReport:
    collectives: list[CollectiveCost] = field(default_factory=list)
    compute_time: float = 0.0
    collective_time: float = 0.0
    weight_update_compute: float = 0.0
    trip_count: int = 1
    latency_bound: bool = False

    @property
    def total_step_time(self) -> float:
        return self.compute_time + self.collective_time

    @property
    def total_rounds(self) -> float:
        return sum(c.rounds * c.executions for c in self.collectives)

    def to_dict(self) -> dict:
        return {
            "total_step_time": self.total_step_time,
            "compute_time": self.compute_time,
            "collective_time": self.collective_time,
            "weight_update_compute": self.weight_update_compute,
            "weight_update_share": (
                self.weight_update_compute / self.total_step_time
                if self.total_step_time
                else 0.0
            ),
            "trip_count": self.trip_count,
            "total_rounds": self.total_rounds,
            "latency_bound": self.latency_bound,
            "collectives": [vars(c) for c in self.collectives],
        }


def cost(
    m: Module, cm: CostModel | None = None, update_members: set[str] | frozenset[str] = frozenset()
) -> CostReport:
    """Model the per-step time of a module: memory-bound compute plus ring
    collective phases, loop bodies scaled by the trip count when it is a
    compile-time constant. `update_members` holds the ids of the instructions
    whose compute time is attributed to weight update; callers take them from
    the sharding decisions with `profitability.update_member_ids`."""
    cm = cm or CostModel()
    report = CostReport()

    def walk(comp: Computation, weight: float):
        for instr in comp.instructions:
            op = instr.opcode
            if op == "while":
                trips = loop_trip_count(instr)
                trips = trips if trips is not None else DEFAULT_TRIP_COUNT
                report.trip_count = max(report.trip_count, trips)
                walk(instr.cond, weight * trips)
                walk(instr.body, weight * trips)
                continue
            if op == "conditional":
                freq = predicate_mod_frequency(instr.operands[0])
                f = float(freq) if freq is not None else 1.0
                walk(instr.branches[0], weight * f)
                walk(instr.branches[1], weight * max(0.0, 1.0 - f) if freq is not None else weight)
                report.compute_time += weight * cm.compute_time(_op_bytes(instr, m.tile))
                continue
            if _is_collective(instr):
                groups = instr.groups if op == "all-reduce" else instr.spec.group
                gsize = groups.group_size(m.replica_count)
                name = "all-reduce" if op == "all-reduce" else instr.kind
                cc = collective_cost(instr.id, name, instruction_phases(instr, m), cm, gsize)
                cc.executions = weight
                report.collectives.append(cc)
                report.collective_time += cc.modeled_time * weight
                if op == "all-reduce":
                    continue  # fusions also pay the memory-bound time of their formatting
            t = weight * cm.compute_time(_op_bytes(instr, m.tile))
            report.compute_time += t
            if instr.id in update_members:
                report.weight_update_compute += t

    walk(m.entry, 1.0)
    report.latency_bound = any(c.latency_bound for c in report.collectives)
    return report
