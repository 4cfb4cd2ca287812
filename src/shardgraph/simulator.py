"""Deterministic lockstep multi-replica interpreter with ring collectives.

All replicas advance through the instruction list of a computation together;
collectives rendezvous at that point. Floating-point reduction order inside a
collective is fixed by ring position, so a decomposed reduce-scatter/all-gather
pair over the same format produces bit-identical results to the all-reduce it
replaces. `rng` draws from a counter-based generator keyed on
(seed, replica, instruction id, invocation), which makes runs reproducible and
independent of graph rewrites that keep instruction ids stable.

Values. Inside a run an array value is either `Uniform(array)`, one array
that every active replica holds, or `Varying(stack)`, one row per active
replica stacked along axis 0; a tuple value is a tuple of such values. Most
of a data-parallel step is replica-uniform (the weight update, the paper's
point), so it is computed once instead of once per replica. Uniformity is
tracked at run time by these rules, never taken from `redundancy.analyze`,
so the simulator stays an independent oracle for that analysis:

- a pure op whose operands are all uniform gives a uniform result;
- `rng` and `replica-id` give varying values;
- a `PerReplica` input whose rows are all one buffer (same data address,
  shape, strides and dtype) is uniform, and so is a `replica_equal`
  parameter whose per-replica inputs are bitwise equal; any other
  `PerReplica` input is varying;
- an all-reduce or all-gather over a single group (`groups=all`) gives a
  uniform result, one over subgroups a varying one; a reduce-scatter gives
  each replica its own shard, a varying value;
- the result of a `while` or `conditional` whose replicas took different
  paths is varying, merged row by row.

Elementwise ops, `broadcast`, `select`, `compare`, `convert`, `reshape`,
`bitcast`, `pad` and `dynamic-slice` with uniform starts run once, on the
shared array or on the stack: each element gets the same IEEE operation as
in a per-replica run. `reduce`, `dot` and `power` on a varying operand keep
one call per replica: a stacked reduction or matmul may sum in another
order, and `power` may take another libm path on a larger array. A varying
`dynamic-slice` start or `pad` value is also applied row by row.

Ring collectives format and pad the stack once and fold every piece of every
group in one vectorized pass per ring step, each element in the ring order
of the per-replica algorithm. `run`, `RunResult`, `PerReplica` and the
`on_value` callback see one value per replica; values are split into rows
only at those boundaries.

Memory. A value lives only while something still reads it. Each
computation's last reads are worked out once per `Simulator` and cached by
computation; once `on_value` has seen an instruction's value, every value
that instruction read for the last time is dropped, and a value that
nothing reads is dropped at once unless it is the root. Values cross the
run's boundaries without a copy where one is not needed:

- the rows of `run`'s outputs and of the outfeeds are read-only views: they
  share memory with each other and with the inputs, so a uniform value is
  one buffer that every replica's row shows;
- a varying `PerReplica` input whose rows are evenly spaced rows of one
  array (each row's `.base` is that array) is a read-only view built on
  that array's buffer, which keeps it alive and is bounds-checked by numpy.
  Rows are never matched by their addresses alone: two separate arrays can
  look evenly spaced, and a view over the gap between them would read freed
  memory. Any other varying input is stacked into a copy.

The step-time model is `costmodel`'s: a run counts the collectives it
executes with `costmodel.instruction_phases`, and `simulator.cost` is
`costmodel.cost`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .costmodel import Phase, cost, instruction_phases  # `cost` is re-exported as `simulator.cost`
from .ir import (
    Computation,
    ElementType,
    Instruction,
    Module,
    ReplicaGroups,
    Shape,
    Topology,
    TupleShape,
    is_collective,
    physical_elements,
    reduce_identity,
    round_up,
)
from .sharding import Bitcast, ShardingSpec, TrivialReshape, choose_spec, shard_id_of


class SimulationError(RuntimeError):
    pass


class PerReplica:
    """Wrapper marking an input as one value per replica."""

    def __init__(self, values):
        self.values = list(values)


# keyed by the type's value: hashing the member calls Enum.__hash__
_NP_DTYPES = {
    ElementType.F32.value: np.float32,
    ElementType.F16R.value: np.float32,  # stored as f32 rounded to the reduced pattern
    ElementType.S32.value: np.int32,
    ElementType.PRED.value: np.bool_,
}


def round_reduced(x: np.ndarray) -> np.ndarray:
    """Round-to-nearest-even truncation of f32 to a 16-bit significand pattern
    (8-bit exponent, 7-bit mantissa); result stays materialized as f32."""
    x = np.asarray(x, dtype=np.float32)
    bits = np.ascontiguousarray(x).view(np.uint32)
    out = np.empty(bits.shape, np.float32)
    rounded = out.view(np.uint32)  # (bits + 0x7FFF + lsb) & 0xFFFF0000, worked in `out`
    np.right_shift(bits, np.uint32(16), out=rounded)
    rounded &= np.uint32(1)
    rounded += np.uint32(0x7FFF)
    rounded += bits
    rounded &= np.uint32(0xFFFF0000)
    nan = np.isnan(x)
    if nan.any():
        out[nan] = np.float32("nan")
    return out.reshape(x.shape)


def coerce(arr: np.ndarray, shape: Shape, lead: tuple[int, ...] = ()) -> np.ndarray:
    """`arr` as the storage of `shape`; `lead` is the stacking prefix of a
    varying value's shape."""
    out = np.asarray(arr, dtype=_NP_DTYPES[shape.etype._value_])
    dims = lead + shape.dims if lead else shape.dims
    if out.shape != dims:
        out = out.reshape(dims)
    if shape.etype is ElementType.F16R:
        out = round_reduced(out)
    return out


# --------------------------------------------------------------------------- #
# Tiled physical layout: element offsets and bitcast
# --------------------------------------------------------------------------- #
#
# The array helpers below take arrays with any leading (stacking) dims in
# front of the logical shape and apply the same data movement to each.


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
    arr = np.asarray(arr)
    lead = arr.shape[: arr.ndim - len(src.dims)]
    phys = np.zeros(lead + (physical_elements(src, tile),), dtype=arr.dtype)
    phys[..., tiled_offsets(src.dims, tile).ravel()] = arr.reshape(lead + (-1,))
    dst_off = tiled_offsets(dst_dims, tile).ravel()
    return phys[..., dst_off].reshape(lead + tuple(dst_dims))


def apply_steps_array(arr: np.ndarray, spec: ShardingSpec, etype: ElementType, tile, fill=0.0) -> np.ndarray:
    lead = arr.shape[: arr.ndim - len(spec.source_dims)]
    for step, dims in zip(spec.steps, spec.dims_seq):
        if isinstance(step, TrivialReshape):
            arr = arr.reshape(lead + step.new_dims)
        elif isinstance(step, Bitcast):
            arr = bitcast_array(arr, Shape(dims, etype), step.new_dims, tile)
        else:
            high = [step.amount if i == step.dim else 0 for i in range(len(dims))]
            arr = _pad(arr, len(lead), [0] * len(dims), high, fill)
    return arr


def _pad(arr: np.ndarray, nlead: int, low, high, fill) -> np.ndarray:
    """`arr` with `low`/`high` elements of `fill` around each logical dim
    (the `nlead` leading stacking dims are not padded)."""
    lead = arr.shape[:nlead]
    dims = arr.shape[nlead:]
    new_dims = tuple(lo + d + hi for lo, d, hi in zip(low, dims, high))
    out = np.full(lead + new_dims, np.asarray(fill, dtype=arr.dtype), dtype=arr.dtype)
    out[(slice(None),) * nlead + tuple(slice(lo, lo + d) for lo, d in zip(low, dims))] = arr
    return out


def invert_steps_array(arr: np.ndarray, spec: ShardingSpec, etype: ElementType, tile) -> np.ndarray:
    seq = spec.dims_seq
    lead = arr.shape[: arr.ndim - len(seq[-1])]
    for i in reversed(range(len(spec.steps))):
        step, before = spec.steps[i], seq[i]
        if isinstance(step, TrivialReshape):
            arr = arr.reshape(lead + before)
        elif isinstance(step, Bitcast):
            arr = bitcast_array(arr, Shape(seq[i + 1], etype), before, tile)
        else:
            arr = arr[(slice(None),) * len(lead) + tuple(slice(0, d) for d in before)]
    return arr


# --------------------------------------------------------------------------- #
# Values: uniform or stacked
# --------------------------------------------------------------------------- #


class Uniform:
    """An array value every active replica holds: one array for all."""

    __slots__ = ("a",)

    def __init__(self, a: np.ndarray):
        self.a = a

    def __repr__(self) -> str:
        return f"Uniform({self.a!r})"


class Varying:
    """An array value that may differ between replicas: one row per active
    replica, stacked along axis 0 in the order of the active replicas."""

    __slots__ = ("a",)

    def __init__(self, a: np.ndarray):
        self.a = a

    def __repr__(self) -> str:
        return f"Varying({self.a!r})"


def _row(v, k: int):
    """Active replica k's own value."""
    if isinstance(v, tuple):
        return tuple(_row(e, k) for e in v)
    return v.a if type(v) is Uniform else v.a[k, ...]


def _rows(v, count: int) -> list:
    """One value per active replica."""
    if type(v) is Uniform:
        return [v.a] * count
    return [_row(v, k) for k in range(count)]


def _read_only(v):
    """A read-only view of a row. Rows share memory with each other and with
    the inputs, so a write into one must not silently change the others."""
    if isinstance(v, tuple):
        return tuple(_read_only(e) for e in v)
    view = v.view()
    view.flags.writeable = False
    return view


def _layout(a: np.ndarray):
    return a.__array_interface__["data"][0], a.shape, a.strides, a.dtype


def _one_buffer(rows: list[np.ndarray]) -> bool:
    """Whether every row is the same memory seen the same way. The rows are
    all alive, so equal addresses mean one buffer."""
    first = rows[0]
    key = _layout(first)
    return all(r is first or _layout(r) == key for r in rows[1:])


def _rows_view(rows: list[np.ndarray]) -> np.ndarray | None:
    """The rows as one read-only stack that views the array they all belong
    to, when they are evenly spaced rows of it; else None. The owner is each
    row's `.base`, never a guess from addresses, and the view is built on the
    owner's buffer, so it keeps the owner alive and numpy checks its bounds."""
    first = rows[0]
    owner = first.base
    if not isinstance(owner, np.ndarray):
        return None
    if any(
        r.base is not owner or r.shape != first.shape or r.strides != first.strides or r.dtype != first.dtype
        for r in rows
    ):
        return None
    addrs = [r.__array_interface__["data"][0] for r in rows]
    step = addrs[1] - addrs[0]
    if any(b - a != step for a, b in zip(addrs[1:], addrs[2:])):
        return None
    try:
        view = np.ndarray(
            (len(rows),) + first.shape,
            first.dtype,
            buffer=owner,
            offset=addrs[0] - owner.__array_interface__["data"][0],
            strides=(step,) + first.strides,
        )
    except (TypeError, ValueError):  # the owner exposes no plain buffer, or the rows leave it
        return None
    view.flags.writeable = False
    return view


def _from_rows(rows: list[np.ndarray]) -> Uniform | Varying:
    """The value whose row k is `rows[k]`, copied only when it has to be: one
    buffer gives a uniform value, evenly spaced rows of one array a view of
    it, anything else a stacked copy."""
    if _one_buffer(rows):
        return Uniform(rows[0])
    view = _rows_view(rows)
    return Varying(np.stack(rows) if view is None else view)


def _stacked(v: Uniform | Varying, count: int) -> np.ndarray:
    """The value as a stack of `count` rows; a uniform one is broadcast."""
    if type(v) is Uniform:
        return np.broadcast_to(v.a, (count,) + v.a.shape)
    return v.a


def _take(v, idx: list[int]):
    """The value on the active replicas at positions `idx`."""
    if isinstance(v, tuple):
        return tuple(_take(e, idx) for e in v)
    return v if type(v) is Uniform else Varying(v.a[idx])


def _merge(parts: list[tuple[list[int], object]], count: int):
    """The varying value whose rows at each part's positions come from that
    part's value: the join of replicas that took different paths."""
    first = parts[0][1]
    if isinstance(first, tuple):
        return tuple(
            _merge([(idx, v[i]) for idx, v in parts], count) for i in range(len(first))
        )
    shape = first.a.shape if type(first) is Uniform else first.a.shape[1:]
    out = np.empty((count,) + shape, dtype=first.a.dtype)
    for idx, v in parts:
        out[idx] = v.a
    return Varying(out)


def _same_bits(a, b) -> bool:
    """Same dtype, shape and bytes; a NaN equals itself bit for bit."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (
            isinstance(a, tuple)
            and isinstance(b, tuple)
            and len(a) == len(b)
            and all(_same_bits(x, y) for x, y in zip(a, b))
        )
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


_REDUCE_UFUNCS = {"add": np.add, "mul": np.multiply, "max": np.maximum, "min": np.minimum}


def _ring_fold(terms, kind: str, etype: ElementType) -> np.ndarray:
    """Fold the ring steps' arrays left to right, rounding after every
    combine for f16r. The first array must be a fresh copy: the fold
    accumulates into it."""
    terms = iter(terms)
    acc = next(terms)
    fn = _REDUCE_UFUNCS[kind]
    for t in terms:
        fn(acc, t, out=acc)
        if etype == ElementType.F16R:
            acc = round_reduced(acc)
    return acc


def _ring_groups(
    groups: ReplicaGroups, topology: Topology, replicas: list[int]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """For each group with active members: the stack rows of its members in
    ring order, and the same rows ordered by the shard each one keeps."""
    row = {r: k for k, r in enumerate(replicas)}
    out = []
    for group in groups.resolve(topology.n):
        if group[0] not in row:
            continue
        by_shard = [0] * len(group)
        for r in group:
            by_shard[shard_id_of(r, topology, groups)] = row[r]
        out.append((tuple(row[r] for r in group), tuple(by_shard)))
    return out


def _reduce_scatter_stack(
    stack: np.ndarray,
    groups: list[tuple[int, ...]],
    spec: ShardingSpec,
    topology: Topology,
    kind: str,
    etype: ElementType,
    tile,
) -> np.ndarray:
    """Reduce-scatter of a stack of source-shape values: each group's rows
    (in ring order) reduce to one shard per member, returned as a stack.

    The stack is formatted and padded once. Single ring: the member at ring
    position p keeps piece p, accumulated in ring order starting from its
    successor. Two-phase mesh: rows exchange superpieces (R consecutive
    shards), then columns exchange single shards; replica (i, j) ends with
    shard j*R + i. Each ring step combines one piece of every member of
    every group in one vectorized operation."""
    g, s = len(groups[0]), spec.shard_count
    if s != g:
        raise SimulationError(f"spec shard count {s} != group size {g}")
    rows = np.array(groups)
    formatted = apply_steps_array(stack, spec, etype, tile, reduce_identity(kind))[rows]
    # (group, member, *dims) -> (group, member, piece, *piece dims); a
    # scalar (only ever one shard) is its own piece
    d = spec.shard_dim
    fdims = formatted.shape[2:]
    if not fdims:
        pieces = formatted[:, :, np.newaxis]
    else:
        pieces = np.moveaxis(
            formatted.reshape(rows.shape + fdims[:d] + (s, fdims[d] // s) + fdims[d + 1 :]), 2 + d, 2
        )
    piece_dims = pieces.shape[3:]
    if topology.two_phase(spec.group):
        R, C = topology.rows, topology.cols
        x = pieces[0].reshape((R, C, C, R) + piece_dims)  # [row, col, superpiece, shard]
        c, r = np.arange(C), np.arange(R)
        # row phase: (i, j) holds superpiece j of row i; then the column
        # phase: (i, j) holds shard i of it
        part = _ring_fold((x[:, (c + k) % C, c] for k in range(1, C + 1)), kind, etype)
        shards = _ring_fold((part[(r + k) % R, :, r] for k in range(1, R + 1)), kind, etype)
        shards = shards.reshape((1, g) + piece_dims)
    else:
        p = np.arange(g)
        shards = _ring_fold((pieces[:, (p + k) % g, p] for k in range(1, g + 1)), kind, etype)
    out = np.empty((stack.shape[0],) + piece_dims, dtype=shards.dtype)
    out[rows] = shards
    return out


def _all_gather_stack(shards: np.ndarray, groups, spec: ShardingSpec) -> Uniform | Varying:
    """All-gather of a stack of shards: each group's post-steps full tensor,
    the concatenation of its members' shards by shard id. One group gives a
    uniform value."""
    fulls = [
        shards[by_shard[0]] if shards.ndim == 1 else np.concatenate(shards[list(by_shard)], axis=spec.shard_dim)
        for _, by_shard in groups
    ]
    if len(groups) == 1:
        return Uniform(fulls[0])
    out = np.empty((shards.shape[0],) + fulls[0].shape, dtype=fulls[0].dtype)
    for (members, _), full in zip(groups, fulls):
        out[list(members)] = full
    return Varying(out)


# --------------------------------------------------------------------------- #
# Interpreter
# --------------------------------------------------------------------------- #


@dataclass
class RunResult:
    outputs: list  # per replica: read-only ndarray or tuple of them (the root value)
    outfeeds: list  # per replica: list of (instruction id, read-only value); rows share memory as outputs do
    stats: CollectiveStats


def _last_reads(comp: Computation) -> list[tuple[str, ...]]:
    """For each instruction of `comp`, the ids of the values to drop once it
    has run: the operands it reads for the last time, and its own value when
    nothing reads it and it is not the root."""
    last: dict[str, int] = {}
    for k, instr in enumerate(comp.instructions):
        for o in instr.operands:
            last[o.id] = k
        last[instr.id] = k  # operands come first, so no read has been seen yet
    del last[comp.root.id]
    drops: list[list[str]] = [[] for _ in comp.instructions]
    for name, k in last.items():
        drops[k].append(name)
    return [tuple(d) for d in drops]


def _has_collective(comp: Computation) -> bool:
    return any(
        is_collective(ins) or any(_has_collective(c) for c in ins.called_computations)
        for ins in comp.instructions
    )


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
        self._drops: dict[Computation, list[tuple[str, ...]]] = {}  # by computation: `_last_reads`

    # -- public entry ---------------------------------------------------------

    def run(self, inputs: dict) -> RunResult:
        rows = _rows(self.evaluate(inputs), self.m.replica_count)
        return RunResult(outputs=[_read_only(v) for v in rows], outfeeds=self.outfeeds, stats=self.stats)

    def evaluate(self, inputs: dict):
        """Execute the module; returns the entry root as the interpreter holds
        it: `Uniform`/`Varying` values, or a tuple of them."""
        args = []
        for p in self.m.entry.parameters:
            if p.id not in inputs:
                raise SimulationError(f"missing input for parameter %{p.id}")
            args.append(self._input_value(p, inputs[p.id]))
        return self._run_computation(self.m.entry, args, list(range(self.m.replica_count)))

    def _input_value(self, p: Instruction, val):
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

        def shared(v):
            return tuple(Uniform(e) for e in v) if isinstance(v, tuple) else Uniform(v)

        if not isinstance(val, PerReplica):
            return shared(conv(val))
        if len(val.values) != n:
            raise SimulationError(
                f"parameter %{p.id}: {len(val.values)} per-replica values for {n} replicas"
            )
        vals = [conv(v) for v in val.values]
        if isinstance(shape, TupleShape):
            columns = [[v[i] for v in vals] for i in range(len(shape.elements))]
        else:
            columns = [vals]
        if p.replica_equal:
            if not all(map(_one_buffer, columns)) and not all(_same_bits(vals[0], v) for v in vals[1:]):
                raise SimulationError(
                    f"parameter %{p.id} is annotated replica_equal but inputs differ"
                )
            return shared(vals[0])
        values = tuple(map(_from_rows, columns))
        return values if isinstance(shape, TupleShape) else values[0]

    # -- computation evaluation ------------------------------------------------

    def _run_computation(self, comp: Computation, args: list, replicas: list[int]):
        drops = self._drops.get(comp)
        if drops is None:
            drops = self._drops[comp] = _last_reads(comp)
        env: dict[str, object] = {}
        on_value = self.on_value
        for instr, dead in zip(comp.instructions, drops):
            v = env[instr.id] = _HANDLERS[instr.opcode](self, instr, env, args, replicas)
            if on_value is not None:
                on_value(instr, replicas, _rows(v, len(replicas)))
            for name in dead:
                del env[name]
        return env[comp.root.id]

    # -- leaf ops ---------------------------------------------------------------

    def _op_parameter(self, instr, env, args, replicas):
        return args[instr.index]

    def _op_constant(self, instr, env, args, replicas):
        arr = np.array(instr.value, dtype=np.float64).reshape(instr.shape.dims)
        return Uniform(coerce(arr, instr.shape))

    def _op_iota(self, instr, env, args, replicas):
        dims = instr.shape.dims
        d = instr.dims[0]
        ramp = np.arange(dims[d] if dims else 1, dtype=np.float64)
        view = ramp.reshape([-1 if i == d else 1 for i in range(len(dims))])
        return Uniform(coerce(np.broadcast_to(view, dims).copy(), instr.shape))

    def _op_replica_id(self, instr, env, args, replicas):
        return Varying(np.array(replicas, dtype=np.int32))

    def _op_rng(self, instr, env, args, replicas):
        count = self._rng_counters.get(instr.id, 0)
        self._rng_counters[instr.id] = count + 1
        shape = instr.shape
        s32 = shape.etype is ElementType.S32
        # each replica's draw goes straight into its row of one stack, so a
        # varying value is never held twice
        stack = np.empty((len(replicas), *shape.dims), np.int32 if s32 else np.float32)
        for k, r in enumerate(replicas):
            entropy = (self.seed, r, zlib.crc32(instr.id.encode()), count)
            gen = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy)))
            if s32:
                stack[k] = gen.integers(0, 100, size=shape.dims, dtype=np.int32)
            else:
                gen.random(dtype=np.float32, out=stack[k, ...])  # the bits of a separate draw
        return Varying(coerce(stack, shape, stack.shape[:1]))

    # -- pure ops ----------------------------------------------------------------

    def _stacked_op(self, instr, env, fn):
        """Apply `fn` once, to the shared arrays or to the stacks: for ops that
        act on each element alone, where a stack gets the same arithmetic."""
        vals = [env[o.id] for o in instr.operands]
        out = fn(*[v.a for v in vals])
        if all(type(v) is Uniform for v in vals):
            return Uniform(coerce(out, instr.shape))
        return Varying(coerce(out, instr.shape, out.shape[:1]))

    def _row_op(self, instr, env, replicas, fn):
        """Apply `fn` once if every operand is uniform, else once per replica:
        for ops whose arithmetic on a stack could differ from a single run."""
        vals = [env[o.id] for o in instr.operands]
        if all(type(v) is Uniform for v in vals):
            return Uniform(fn(*[v.a for v in vals]))
        return Varying(
            np.stack(
                [
                    fn(*[v.a if type(v) is Uniform else v.a[k, ...] for v in vals])
                    for k in range(len(replicas))
                ]
            )
        )

    @staticmethod
    def _layout_op(v, fn):
        """Apply the data movement `fn(array, lead)` once, to the shared array
        or to the stack; `lead` is the stacking prefix of the array's shape,
        () for a uniform value."""
        if type(v) is Uniform:
            return Uniform(fn(v.a, ()))
        return Varying(fn(v.a, v.a.shape[:1]))

    def _op_add(self, instr, env, args, replicas):
        return self._stacked_op(instr, env, np.add)

    def _op_sub(self, instr, env, args, replicas):
        return self._stacked_op(instr, env, np.subtract)

    def _op_mul(self, instr, env, args, replicas):
        return self._stacked_op(instr, env, np.multiply)

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

        return self._stacked_op(instr, env, fn)

    def _op_max(self, instr, env, args, replicas):
        return self._stacked_op(instr, env, np.maximum)

    def _op_min(self, instr, env, args, replicas):
        return self._stacked_op(instr, env, np.minimum)

    def _op_power(self, instr, env, args, replicas):
        def fn(x, y):
            with np.errstate(invalid="ignore", divide="ignore"):
                return coerce(np.power(x, y), instr.shape)

        return self._row_op(instr, env, replicas, fn)

    def _op_sqrt(self, instr, env, args, replicas):
        def fn(x):
            with np.errstate(invalid="ignore"):
                return np.sqrt(x)

        return self._stacked_op(instr, env, fn)

    def _op_compare(self, instr, env, args, replicas):
        fn = {
            "eq": np.equal,
            "ne": np.not_equal,
            "lt": np.less,
            "le": np.less_equal,
            "gt": np.greater,
            "ge": np.greater_equal,
        }[instr.direction]
        return self._stacked_op(instr, env, fn)

    def _op_select(self, instr, env, args, replicas):
        return self._stacked_op(instr, env, np.where)

    def _op_convert(self, instr, env, args, replicas):
        etype = instr.shape.etype

        def fn(x):
            if etype == ElementType.S32:
                if x.dtype == np.bool_:
                    return x.astype(np.int32)
                return np.trunc(np.asarray(x, dtype=np.float64)).astype(np.int32)
            if etype == ElementType.PRED:
                return x != 0
            return np.asarray(x, dtype=np.float32)

        return self._stacked_op(instr, env, fn)

    def _op_broadcast(self, instr, env, args, replicas):
        out_dims = instr.shape.dims
        view_dims = [1] * len(out_dims)
        for i, d in enumerate(instr.dims or ()):
            view_dims[d] = instr.operands[0].shape.dims[i]

        def fn(x, lead):
            out = np.broadcast_to(x.reshape(lead + tuple(view_dims)), lead + out_dims).copy()
            return coerce(out, instr.shape, lead)

        return self._layout_op(env[instr.operands[0].id], fn)

    def _op_dot(self, instr, env, args, replicas):
        return self._row_op(instr, env, replicas, lambda x, y: coerce(np.matmul(x, y), instr.shape))

    def _op_reduce(self, instr, env, args, replicas):
        dims = tuple(instr.dims or ())
        fn = _REDUCE_UFUNCS[instr.kind]

        def reduce(x, init):
            red = fn.reduce(x, axis=dims) if dims else x.copy()
            return coerce(fn(np.asarray(red), init), instr.shape)

        return self._row_op(instr, env, replicas, reduce)

    def _op_reshape(self, instr, env, args, replicas):
        return self._layout_op(
            env[instr.operands[0].id], lambda x, lead: coerce(x, instr.shape, lead)
        )

    def _op_bitcast(self, instr, env, args, replicas):
        s = instr.operands[0].shape

        def fn(x, lead):
            return coerce(bitcast_array(x, s, instr.shape.dims, self.m.tile), instr.shape, lead)

        return self._layout_op(env[instr.operands[0].id], fn)

    def _op_pad(self, instr, env, args, replicas):
        def fn(x, lead, f):
            padded = _pad(x, len(lead), instr.pad_low, instr.pad_high, f)
            return coerce(padded, instr.shape, lead)

        src, fill = (env[o.id] for o in instr.operands)
        if type(fill) is Uniform:
            return self._layout_op(src, lambda x, lead: fn(x, lead, fill.a))
        return self._row_op(instr, env, replicas, lambda x, f: fn(x, (), f))

    def _op_dynamic_slice(self, instr, env, args, replicas):
        src = env[instr.operands[0].id]
        starts = [env[o.id] for o in instr.operands[1:]]
        sizes = instr.slice_sizes
        dims = instr.operands[0].shape.dims

        def window(start_values):
            idx = []
            for d, s in enumerate(start_values):
                s = max(0, min(int(s), dims[d] - sizes[d]))
                idx.append(slice(s, s + sizes[d]))
            return tuple(idx)

        if all(type(s) is Uniform for s in starts):
            idx = window([s.a for s in starts])
            return self._layout_op(
                src, lambda x, lead: np.ascontiguousarray(x[(slice(None),) * len(lead) + idx])
            )
        return Varying(
            np.stack(
                [
                    np.ascontiguousarray(_row(src, k)[window([_row(s, k) for s in starts])])
                    for k in range(len(replicas))
                ]
            )
        )

    def _op_tuple(self, instr, env, args, replicas):
        return tuple(env[o.id] for o in instr.operands)

    def _op_get_tuple_element(self, instr, env, args, replicas):
        return env[instr.operands[0].id][instr.index]

    def _op_outfeed(self, instr, env, args, replicas):
        rows = _rows(env[instr.operands[0].id], len(replicas))
        for r, v in zip(replicas, rows):
            self.outfeeds[r].append((instr.id, _read_only(v)))
        return ()

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
        m = self.m
        groups = _ring_groups(instr.groups, m.topology, replicas)
        members = [g for g, _ in groups]
        results = []
        for o in instr.operands:
            shape = o.shape
            spec = choose_spec(shape, instr.groups.group_size(m.replica_count), m.tile, instr.groups)
            # values fold in the exposed RS+AG order; bytes were counted above
            stack = _stacked(env[o.id], len(replicas))
            shards = _reduce_scatter_stack(stack, members, spec, m.topology, instr.kind, shape.etype, m.tile)
            full = _all_gather_stack(shards, groups, spec)
            results.append(
                self._layout_op(
                    full,
                    lambda x, lead: coerce(invert_steps_array(x, spec, shape.etype, m.tile), shape, lead),
                )
            )
        if len(instr.operands) == 1:
            return results[0]
        return tuple(results)

    def _op_fusion(self, instr, env, args, replicas):
        kind = instr.kind
        if kind in ("standard", "shard"):
            return self._run_computation(instr.fused, [env[o.id] for o in instr.operands], replicas)
        spec: ShardingSpec = instr.spec
        self._require_full_groups(instr, spec.group, replicas)
        self.stats.record(instruction_phases(instr, self.m))
        m = self.m
        groups = _ring_groups(spec.group, m.topology, replicas)
        stack = _stacked(env[instr.operands[0].id], len(replicas))
        if kind == "reduce_scatter":
            etype = instr.operands[0].shape.etype
            rk = _fusion_reduce_kind(instr)
            members = [g for g, _ in groups]
            shards = _reduce_scatter_stack(stack, members, spec, m.topology, rk, etype, m.tile)
            return Varying(coerce(shards, instr.shape, shards.shape[:1]))
        # all_gather / unshard: ring gather, then the fused reverse formatting.
        gathered = _all_gather_stack(stack, groups, spec)
        return self._run_computation(instr.fused, [gathered], replicas)

    # -- control flow --------------------------------------------------------------

    def _op_while(self, instr, env, args, replicas):
        count = len(replicas)
        state = env[instr.operands[0].id]
        active = list(range(count))  # positions of the replicas still looping
        done = []  # (positions, final state) of the replicas that left
        iters = 0
        while True:
            if iters > self.max_while:
                raise SimulationError(
                    f"while %{instr.id} exceeded {self.max_while} iterations"
                )
            act_replicas = replicas if len(active) == count else [replicas[k] for k in active]
            flags = self._run_computation(instr.cond, [state], act_replicas)
            if type(flags) is Uniform:
                cont = list(range(len(active))) if bool(flags.a) else []
            else:
                cont = np.flatnonzero(flags.a).tolist()
            if not cont:
                done.append((active, state))
                break
            if len(cont) != len(active):
                if _has_collective(instr.body) or _has_collective(instr.cond):
                    raise SimulationError(
                        f"while %{instr.id}: condition diverges across replicas with "
                        "collectives in the loop"
                    )
                stop = sorted(set(range(len(active))) - set(cont))
                done.append(([active[k] for k in stop], _take(state, stop)))
                state = _take(state, cont)
                active = [active[k] for k in cont]
            state = self._run_computation(
                instr.body, [state], replicas if len(active) == count else [replicas[k] for k in active]
            )
            iters += 1
        if len(done) == 1:
            return state
        return _merge(done, count)

    def _op_conditional(self, instr, env, args, replicas):
        pred = env[instr.operands[0].id]
        paths = (
            (instr.branches[0], instr.operands[1]),
            (instr.branches[1], instr.operands[2]),
        )
        if type(pred) is Uniform:
            taken = bool(pred.a)
        else:
            t_idx = np.flatnonzero(pred.a).tolist()
            if 0 < len(t_idx) < len(replicas):
                return self._diverged_conditional(instr, env, replicas, paths, t_idx)
            taken = bool(t_idx)
        branch, operand = paths[0 if taken else 1]
        return self._run_computation(branch, [env[operand.id]], replicas)

    def _diverged_conditional(self, instr, env, replicas, paths, t_idx):
        if _has_collective(instr.branches[0]) or _has_collective(instr.branches[1]):
            raise SimulationError(
                f"conditional %{instr.id}: predicate diverges across replicas with "
                "collectives in a branch"
            )
        f_idx = sorted(set(range(len(replicas))) - set(t_idx))
        parts = []
        for idx, (branch, operand) in zip((t_idx, f_idx), paths):
            res = self._run_computation(
                branch, [_take(env[operand.id], idx)], [replicas[k] for k in idx]
            )
            parts.append((idx, res))
        return _merge(parts, len(replicas))


_HANDLERS = {
    name[len("_op_"):].replace("_", "-"): fn
    for name, fn in vars(Simulator).items()
    if name.startswith("_op_")
}


def _fusion_reduce_kind(instr: Instruction) -> str:
    for ins in instr.fused.instructions:
        if ins.opcode == "all-reduce":
            return ins.kind
    return "add"


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

