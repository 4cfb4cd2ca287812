"""Per-tensor sharding formats.

A sharding format is an ordered list of reformatting steps (trivial reshape,
bitcast, pad-at-end) followed by a dynamic-slice along one dimension. The same
format is shared by the slicing side, the reduce-scatter that produces shards,
and the all-gather that reconstructs the full tensor, so piece boundaries in
the ring collectives always line up with the slice.

Spec strings are bit-exact: `[3,3,256,256] reshape[9,256,256] pad0+1 slice0/10`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .ir import (
    ALL_REPLICAS,
    ElementType,
    GraphBuilder,
    Instruction,
    ReplicaGroups,
    S32,
    Shape,
    Topology,
    DEFAULT_TILE,
    is_tile_aligned,
    physical_bytes,
    physical_elements,
    reduce_identity,
    round_up,
    scalar,
)


@dataclass(frozen=True)
class TrivialReshape:
    new_dims: tuple[int, ...]

    def __str__(self):
        return f"reshape[{','.join(str(d) for d in self.new_dims)}]"


@dataclass(frozen=True)
class Bitcast:
    new_dims: tuple[int, ...]

    def __str__(self):
        return f"bitcast[{','.join(str(d) for d in self.new_dims)}]"


@dataclass(frozen=True)
class Pad:
    dim: int
    amount: int  # grown at the end of `dim`

    def __str__(self):
        return f"pad{self.dim}+{self.amount}"


Step = TrivialReshape | Bitcast | Pad


def apply_step_dims(dims: tuple[int, ...], step: Step) -> tuple[int, ...]:
    if isinstance(step, (TrivialReshape, Bitcast)):
        return step.new_dims
    out = list(dims)
    out[step.dim] += step.amount
    return tuple(out)


@dataclass(frozen=True)
class ShardingSpec:
    source_dims: tuple[int, ...]
    steps: tuple[Step, ...]
    shard_dim: int
    shard_count: int
    group: ReplicaGroups = ALL_REPLICAS

    def __post_init__(self):
        object.__setattr__(self, "source_dims", tuple(self.source_dims))
        object.__setattr__(self, "steps", tuple(self.steps))
        full = self.padded_dims
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if full and full[self.shard_dim] % self.shard_count != 0:
            raise ValueError(
                f"dim {self.shard_dim} of {full} not divisible by {self.shard_count}"
            )

    @property
    def padded_dims(self) -> tuple[int, ...]:
        dims = self.source_dims
        for step in self.steps:
            dims = apply_step_dims(dims, step)
        return dims

    @property
    def shard_dims(self) -> tuple[int, ...]:
        full = list(self.padded_dims)
        if full:
            full[self.shard_dim] //= self.shard_count
        return tuple(full)

    @property
    def shard_extent(self) -> int:
        return self.shard_dims[self.shard_dim] if self.shard_dims else 1

    def shard_shape(self, etype: ElementType) -> Shape:
        return Shape(self.shard_dims, etype)

    def padded_shape(self, etype: ElementType) -> Shape:
        return Shape(self.padded_dims, etype)

    def source_shape(self, etype: ElementType) -> Shape:
        return Shape(self.source_dims, etype)

    @property
    def pad_steps(self) -> tuple[Pad, ...]:
        return tuple(s for s in self.steps if isinstance(s, Pad))

    def padded_bytes(self, etype: ElementType, tile=DEFAULT_TILE) -> int:
        """Physical bytes added by explicit Pad steps."""
        dims = self.source_dims
        total = 0
        for step in self.steps:
            new = apply_step_dims(dims, step)
            if isinstance(step, Pad):
                total += physical_bytes(Shape(new, etype), tile) - physical_bytes(
                    Shape(dims, etype), tile
                )
            dims = new
        return total

    def waste_bytes(self, etype: ElementType, tile=DEFAULT_TILE) -> int:
        """Total physical padding across all shards relative to the source
        buffer: explicit Pad bytes plus tile padding the slicing introduces
        (a shard whose second-minor dim falls below the tile rounds back up)."""
        shard = physical_bytes(Shape(self.shard_dims, etype), tile)
        src = physical_bytes(Shape(self.source_dims, etype), tile)
        return shard * self.shard_count - src

    def __str__(self):
        parts = [f"[{','.join(str(d) for d in self.source_dims)}]"]
        parts.extend(str(s) for s in self.steps)
        parts.append(f"slice{self.shard_dim}/{self.shard_count}")
        return " ".join(parts)


def parse_spec_string(text: str) -> ShardingSpec:
    def dims_of(body: str) -> tuple[int, ...]:
        body = body.strip("[]")
        return tuple(int(d) for d in body.split(",")) if body else ()

    parts = text.split()
    if len(parts) < 2 or not parts[0].startswith("["):
        raise ValueError(f"malformed sharding spec: {text!r}")
    source = dims_of(parts[0])
    steps: list[Step] = []
    for p in parts[1:-1]:
        if p.startswith("reshape["):
            steps.append(TrivialReshape(dims_of(p[len("reshape") :])))
        elif p.startswith("bitcast["):
            steps.append(Bitcast(dims_of(p[len("bitcast") :])))
        elif p.startswith("pad"):
            dim, amount = p[len("pad") :].split("+")
            steps.append(Pad(int(dim), int(amount)))
        else:
            raise ValueError(f"unknown sharding step {p!r}")
    tail = parts[-1]
    if not tail.startswith("slice"):
        raise ValueError(f"sharding spec missing slice: {text!r}")
    dim, count = tail[len("slice") :].split("/")
    return ShardingSpec(source, tuple(steps), int(dim), int(count))


# --------------------------------------------------------------------------- #
# Format selection
# --------------------------------------------------------------------------- #


def choose_spec(
    shape: Shape,
    shard_count: int,
    tile: tuple[int, int] = DEFAULT_TILE,
    group: ReplicaGroups = ALL_REPLICAS,
) -> ShardingSpec:
    """Pick the reformatting for sharding `shape` in `shard_count` pieces.

    Candidates, in preference order on (padded bytes, step count):
      1. merge all dimensions left of the two minor-most, slice dim 0 if it
         divides evenly;
      2. bitcast to [physical_elements/(t0*t1), t0, t1] when the buffer is
         tile-aligned and the leading dim divides evenly;
      3. merge, then pad dim 0 up to the next multiple of the shard count.
    """
    s = shard_count
    if s == 1:
        return ShardingSpec(shape.dims, (), 0, 1, group)

    dims = shape.dims
    if len(dims) == 0:
        merged = (1,)
        merge_steps: tuple[Step, ...] = (TrivialReshape((1,)),)
    elif len(dims) <= 3:
        merged = dims
        merge_steps = ()
    else:
        merged = (int_prod(dims[:-2]), dims[-2], dims[-1])
        merge_steps = (TrivialReshape(merged),)

    candidates: list[ShardingSpec] = []
    if merged[0] % s == 0:
        candidates.append(ShardingSpec(shape.dims, merge_steps, 0, s, group))
    if len(dims) >= 2 and is_tile_aligned(shape, tile):
        phys = physical_elements(shape, tile)
        tile_elems = tile[0] * tile[1]
        lead = phys // tile_elems
        if lead >= 1 and phys % tile_elems == 0 and lead % s == 0:
            candidates.append(
                ShardingSpec(shape.dims, (Bitcast((lead, tile[0], tile[1])),), 0, s, group)
            )
    padded_lead = round_up(merged[0], s)
    pad_steps = merge_steps + (Pad(0, padded_lead - merged[0]),) if padded_lead != merged[0] else merge_steps
    candidates.append(ShardingSpec(shape.dims, pad_steps, 0, s, group))

    def rank(spec: ShardingSpec):
        return (spec.waste_bytes(shape.etype, tile), len(spec.steps), spec.shard_dim)

    candidates.sort(key=rank)
    return candidates[0]


def int_prod(xs) -> int:
    n = 1
    for x in xs:
        n *= x
    return n


# --------------------------------------------------------------------------- #
# Padding masks for reduces over sharded data
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PadMaskInfo:
    """Valid extents on the post-steps full shape, one entry per padded dim."""

    valid_extents: tuple[tuple[int, int], ...]  # (dim, elements that are real data)
    identity: float

    @property
    def empty(self) -> bool:
        return not self.valid_extents


def pad_mask_info(spec: ShardingSpec, reduce_kind: str) -> PadMaskInfo:
    dims = spec.source_dims
    ranges: dict[int, int] = {}
    for step in spec.steps:
        if isinstance(step, (TrivialReshape, Bitcast)):
            if ranges:
                raise ValueError("padding locations lost: formatting step follows pad")
            dims = step.new_dims
        else:
            ranges[step.dim] = dims[step.dim]
            dims = apply_step_dims(dims, step)
    return PadMaskInfo(tuple(sorted(ranges.items())), reduce_identity(reduce_kind))


# --------------------------------------------------------------------------- #
# Reduce compatibility
# --------------------------------------------------------------------------- #


def _reshape_groups(old: tuple[int, ...], new: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """Map each new dim to the contiguous run of old dims it covers.

    Returns None when the factorization is not a clean merge/split of
    contiguous runs.
    """
    groups: list[tuple[int, ...]] = []
    i = 0
    for nd in new:
        run: list[int] = []
        p = 1
        while p < nd and i < len(old):
            p *= old[i]
            run.append(i)
            i += 1
        if p != nd:
            if nd == 1 and p == 1:
                groups.append(tuple(run))
                continue
            return None
        if not run and nd == 1:
            groups.append(())
            continue
        groups.append(tuple(run))
    if i != len(old):
        # trailing size-1 dims
        while i < len(old) and old[i] == 1:
            i += 1
        if i != len(old):
            return None
    return groups


def validate_for_reduce(spec: ShardingSpec, reduce_dims: tuple[int, ...], operand_rank: int):
    """Check that a reduce over `reduce_dims` of the source tensor is
    expressible on data sharded by `spec`.

    Returns None when fine; otherwise a string naming the offending step.
    Reduce-to-scalar is always allowed.
    """
    collapsed = set(reduce_dims)
    if len(collapsed) == operand_rank:
        saw_pad = False
        for step in spec.steps:
            if isinstance(step, Pad):
                saw_pad = True
            elif saw_pad:
                return f"padding unidentifiable after {step}"
        return None

    dims = spec.source_dims
    saw_pad = False
    for step in spec.steps:
        if isinstance(step, Pad):
            saw_pad = True
            new_collapsed = collapsed  # pad keeps dim numbering
        else:
            if saw_pad:
                return f"padding unidentifiable after {step}"
            groups = _reshape_groups(dims, step.new_dims)
            if groups is None:
                return f"unsupported dim regrouping in {step}"
            new_collapsed = set()
            for new_dim, run in enumerate(groups):
                kinds = {d in collapsed for d in run}
                if len(kinds) > 1:
                    return f"{step} merges a collapsed dim with a pass-through dim"
                if kinds == {True}:
                    new_collapsed.add(new_dim)
            collapsed = new_collapsed
        dims = apply_step_dims(dims, step)
    return None


# --------------------------------------------------------------------------- #
# Shard-id arithmetic
# --------------------------------------------------------------------------- #


def shard_id_of(replica: int, topology: Topology, group: ReplicaGroups) -> int:
    """Position of `replica` in its group's logical ring.

    The shard a replica keeps is the one the ring algorithm leaves in place,
    so shard assignment follows the network topology. Where the two-phase mesh
    algorithm runs (`Topology.two_phase`), it leaves replica (row r, col c)
    holding shard c*R + r.
    """
    if topology.two_phase(group):
        r, c = divmod(replica, topology.cols)
        return c * topology.rows + r
    if group.is_all:
        return replica
    return group.group_of(replica, topology.n).index(replica)


def emit_shard_rank(
    gb: GraphBuilder, rid: Instruction, topology: Topology, group: ReplicaGroups
) -> Instruction:
    """Emit IR computing shard_id_of(replica-id) with integer arithmetic."""

    def const(v: int) -> Instruction:
        return gb.constant(v, S32)

    def div(a, b):
        return gb.emit("div", scalar(S32), (a, b))

    def mul(a, b):
        return gb.emit("mul", scalar(S32), (a, b))

    def sub(a, b):
        return gb.emit("sub", scalar(S32), (a, b))

    def add(a, b):
        return gb.emit("add", scalar(S32), (a, b))

    rows, cols = topology.rows, topology.cols
    if topology.two_phase(group):
        # (rid mod cols) * rows + rid div cols
        q = div(rid, const(cols))
        rem = sub(rid, mul(q, const(cols)))
        return add(mul(rem, const(rows)), q)
    if group.is_all:
        return rid
    groups = group.resolve(topology.n)
    if groups == topology.row_groups().groups:
        q = div(rid, const(cols))
        return sub(rid, mul(q, const(cols)))
    if groups == topology.col_groups().groups:
        return div(rid, const(cols))
    raise NotImplementedError("shard rank emission only supports all/row/column groups")


# --------------------------------------------------------------------------- #
# Graph construction: shard / unshard / masked reduce
# --------------------------------------------------------------------------- #


def _emit_steps(gb: GraphBuilder, value: Instruction, spec: ShardingSpec, etype: ElementType, fill: float) -> Instruction:
    dims = spec.source_dims
    for step in spec.steps:
        new = apply_step_dims(dims, step)
        if isinstance(step, TrivialReshape):
            value = gb.emit("reshape", Shape(new, etype), (value,))
        elif isinstance(step, Bitcast):
            value = gb.emit("bitcast", Shape(new, etype), (value,))
        else:
            fill_c = gb.constant(fill, etype)
            low = tuple(0 for _ in dims)
            high = tuple(step.amount if i == step.dim else 0 for i in range(len(dims)))
            value = gb.emit("pad", Shape(new, etype), (value, fill_c), pad_low=low, pad_high=high)
        dims = new
    return value


def _emit_reverse_steps(gb: GraphBuilder, value: Instruction, spec: ShardingSpec, etype: ElementType) -> Instruction:
    dims_seq = [spec.source_dims]
    for step in spec.steps:
        dims_seq.append(apply_step_dims(dims_seq[-1], step))
    for step, before in zip(reversed(spec.steps), reversed(dims_seq[:-1])):
        if isinstance(step, TrivialReshape):
            value = gb.emit("reshape", Shape(before, etype), (value,))
        elif isinstance(step, Bitcast):
            value = gb.emit("bitcast", Shape(before, etype), (value,))
        else:
            starts = [gb.constant(0, S32) for _ in before]
            value = gb.emit(
                "dynamic-slice",
                Shape(before, etype),
                (value, *starts),
                slice_sizes=before,
            )
    return value


def build_shard_ops(
    spec: ShardingSpec,
    value: Instruction,
    replica_id: Instruction,
    gb: GraphBuilder,
    topology: Topology,
    fill: float = 0.0,
    name_hint: str = "shard",
) -> Instruction:
    """Emit a fusion of kind `shard`: formatting steps plus a dynamic-slice at
    this replica's shard offset. Pure data movement, no collective."""
    etype = value.shape.etype
    inner = GraphBuilder(gb.fresh_id(f"{name_hint}_calc"), id_prefix=f"{name_hint}.")
    p0 = inner.parameter(0, value.shape, inner.fresh_id("x"))
    p1 = inner.parameter(1, scalar(S32), inner.fresh_id("rid"))
    formatted = _emit_steps(inner, p0, spec, etype, fill)
    rank = emit_shard_rank(inner, p1, topology, spec.group)
    offset = inner.emit("mul", scalar(S32), (rank, inner.constant(spec.shard_extent, S32)))
    zero = inner.constant(0, S32)
    starts = [offset if d == spec.shard_dim else zero for d in range(len(spec.padded_dims))]
    sliced = inner.emit(
        "dynamic-slice",
        spec.shard_shape(etype),
        (formatted, *starts),
        slice_sizes=spec.shard_dims,
    )
    comp = inner.finish(sliced)
    return gb.emit(
        "fusion",
        spec.shard_shape(etype),
        (value, replica_id),
        id=gb.fresh_id(name_hint),
        kind="shard",
        fused=comp,
        spec=spec,
        groups=spec.group,
    )


def build_unshard_ops(
    spec: ShardingSpec,
    shard: Instruction,
    gb: GraphBuilder,
    kind: str = "unshard",
    name_hint: str | None = None,
) -> Instruction:
    """Emit an all-gather fusion restoring the full tensor from shards.

    The gather across the group is defined by the fusion kind and spec; the
    fused computation holds only the reverse formatting applied to the
    gathered (post-steps) tensor. With shard_count == 1 no collective is
    implied and the fusion reduces to the identity reformatting.
    """
    etype = shard.shape.etype
    name_hint = name_hint or kind
    inner = GraphBuilder(gb.fresh_id(f"{name_hint}_calc"), id_prefix=f"{name_hint}.")
    p0 = inner.parameter(0, spec.padded_shape(etype), inner.fresh_id("gathered"))
    restored = _emit_reverse_steps(inner, p0, spec, etype)
    comp = inner.finish(restored)
    return gb.emit(
        "fusion",
        spec.source_shape(etype),
        (shard,),
        id=gb.fresh_id(name_hint),
        kind=kind,
        fused=comp,
        spec=spec,
        groups=spec.group,
    )


def build_reduce_scatter(
    spec: ShardingSpec,
    value: Instruction,
    replica_id: Instruction,
    gb: GraphBuilder,
    topology: Topology,
    reduce_kind: str = "add",
    name_hint: str = "rs",
) -> Instruction:
    """Emit a reduce-scatter fusion: formatting steps, an all-reduce, and a
    dynamic-slice keeping this replica's shard."""
    etype = value.shape.etype
    fill = reduce_identity(reduce_kind)
    inner = GraphBuilder(gb.fresh_id(f"{name_hint}_calc"), id_prefix=f"{name_hint}.")
    p0 = inner.parameter(0, value.shape, inner.fresh_id("x"))
    p1 = inner.parameter(1, scalar(S32), inner.fresh_id("rid"))
    formatted = _emit_steps(inner, p0, spec, etype, fill)
    reduced = inner.emit(
        "all-reduce",
        formatted.shape,
        (formatted,),
        kind=reduce_kind,
        groups=spec.group,
    )
    rank = emit_shard_rank(inner, p1, topology, spec.group)
    offset = inner.emit("mul", scalar(S32), (rank, inner.constant(spec.shard_extent, S32)))
    zero = inner.constant(0, S32)
    starts = [offset if d == spec.shard_dim else zero for d in range(len(spec.padded_dims))]
    sliced = inner.emit(
        "dynamic-slice",
        spec.shard_shape(etype),
        (reduced, *starts),
        slice_sizes=spec.shard_dims,
    )
    comp = inner.finish(sliced)
    return gb.emit(
        "fusion",
        spec.shard_shape(etype),
        (value, replica_id),
        id=gb.fresh_id(name_hint),
        kind="reduce_scatter",
        fused=comp,
        spec=spec,
        groups=spec.group,
    )


def build_masked_reduce(
    spec: ShardingSpec,
    shard: Instruction,
    reduce_kind: str,
    init: Instruction,
    replica_id: Instruction,
    gb: GraphBuilder,
    topology: Topology,
    name_hint: str = "mreduce",
) -> Instruction:
    """Reduce-to-scalar over a sharded tensor.

    Padded elements are masked to the reduction identity by comparing element
    positions (iota plus this replica's shard offset) against the valid extent
    of the padded dimension, then each replica reduces its shard locally and
    the partial results are combined with a full-group all-reduce.
    """
    etype = shard.shape.etype
    mask = pad_mask_info(spec, reduce_kind)
    shard_shape = spec.shard_shape(etype)
    value = shard
    if not mask.empty:
        rank = emit_shard_rank(gb, replica_id, topology, spec.group)
        offset = gb.emit("mul", scalar(S32), (rank, gb.constant(spec.shard_extent, S32)))
        for dim, valid in mask.valid_extents:
            io = gb.emit("iota", Shape(shard_shape.dims, S32), dims=(dim,))
            start = offset if dim == spec.shard_dim else gb.constant(0, S32)
            start_b = gb.broadcast_scalar(start, Shape(shard_shape.dims, S32))
            pos = gb.emit("add", Shape(shard_shape.dims, S32), (io, start_b))
            limit = gb.broadcast_scalar(
                gb.constant(valid, S32), Shape(shard_shape.dims, S32)
            )
            ok = gb.emit(
                "compare",
                Shape(shard_shape.dims, ElementType.PRED),
                (pos, limit),
                direction="lt",
            )
            ident = gb.broadcast_scalar(gb.constant(mask.identity, etype), shard_shape)
            value = gb.emit("select", shard_shape, (ok, value, ident))
    ident_init = gb.constant(reduce_identity(reduce_kind), etype)
    local = gb.emit(
        "reduce",
        scalar(etype),
        (value, ident_init),
        dims=tuple(range(len(shard_shape.dims))),
        kind=reduce_kind,
    )
    combined = gb.emit(
        "all-reduce",
        scalar(etype),
        (local,),
        id=gb.fresh_id(name_hint),
        kind=reduce_kind,
        groups=spec.group,
    )
    return gb.emit(reduce_kind if reduce_kind in ("add", "mul", "max", "min") else "add",
                   scalar(etype), (combined, init))
