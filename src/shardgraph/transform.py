"""Graph transformation: sharded weight update.

`apply` rewrites each profitable cluster: the anchoring all-reduce becomes a
reduce-scatter fusion, update operators are re-emitted at the shard shape,
weights and auxiliaries stay sharded across steps, and consumers that need
full tensors are fed by an all-gather placed immediately before their first
use. The result is a three-program split: a sharding program (full state in,
sharded state out), the main program, and an unsharding program, plus a
manifest describing slot residency.

The step state is the planner's (`profitability.Cluster.state_slots`): slot
k is read from input k and written back by root element k, with a loop (the
loop state tuple) or without one (the entry's parameters and root).

`apply` decides nothing: it emits every `shard` decision it is given,
row-local ones included (a reduce-scatter within each mesh row followed by an
all-reduce over the columns), and rejects decisions that do not fit the
module. Which clusters shard, within which groups, is the planner's call
(`profitability`).

Also here: precision demotion of in-loop all-gathers and collective
batching. The memory accounting of the result is `memory`'s.

Every pass is copy-on-write. It shares with its input each computation it
leaves alone (`rebuild_module`), and within a computation it rebuilds, each
instruction upstream of its edits (`_clone_instruction`): only an edited
instruction and what reads it, directly or not, are new objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (
    Computation,
    ElementType,
    GraphBuilder,
    Instruction,
    Module,
    Shape,
    TupleShape,
    scalar,
    S32,
)
from .memory import Manifest, VariableInfo, baseline_manifest, memory_plan_for  # the last two are re-exported
from .profitability import ShardingDecision, plan, state_veto  # `plan` is re-exported as `transform.plan`
from .sharding import ShardingSpec, build_reduce_scatter, build_shard_ops, build_unshard_ops
from .verify import check


class TransformError(ValueError):
    pass


@dataclass
class TransformResult:
    main: Module
    shard_program: Module
    unshard_program: Module
    manifest: Manifest
    decisions: list[ShardingDecision] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# Generic module rebuilding
# --------------------------------------------------------------------------- #


def _clone_instruction(
    instr: Instruction, gb: GraphBuilder, operands: tuple, comp_map: dict[str, Computation], shape=None
) -> Instruction:
    """`instr` with `operands` (and `shape`, when given), added to `gb`. The
    callees of a `while`, `conditional` or `fusion` that were rebuilt in
    `comp_map` replace the old ones; every other field is copied as is.

    When `operands` are `instr`'s own operand objects, no shape is given and
    no callee was rebuilt, the copy would equal `instr`, so `instr` itself
    is added: instructions are never changed once built, and a pass shares
    each instruction upstream of its edits as it shares each computation it
    leaves alone."""
    op, cond, body, branches, fused = instr.opcode, instr.cond, instr.body, instr.branches, instr.fused
    if comp_map:
        if op == "fusion":
            if fused is not None:
                fused = comp_map.get(fused.name, fused)
        elif op == "while":
            if cond is not None:
                cond = comp_map.get(cond.name, cond)
            if body is not None:
                body = comp_map.get(body.name, body)
        elif op == "conditional" and branches is not None and any(b.name in comp_map for b in branches):
            branches = tuple(comp_map.get(b.name, b) for b in branches)
    # operand tuples compare by identity: instructions have no `__eq__`
    if (
        shape is None
        and operands == instr.operands
        and fused is instr.fused
        and cond is instr.cond
        and body is instr.body
        and branches is instr.branches
    ):
        return gb.add(instr)
    return gb.add(
        Instruction(
            instr.id, op, instr.shape if shape is None else shape, operands,
            instr.value, instr.index, instr.replica_equal, instr.dims, instr.kind, instr.direction,
            instr.groups, instr.pad_low, instr.pad_high, instr.slice_sizes,
            cond, body, branches, fused, instr.spec,
        )
    )


def rebuild_module(m: Module, rewrite) -> Module:
    """Copy-on-write rebuild. `rewrite(comp, comp_map)` returns the new
    computation, or None to leave `comp` alone; `comp_map` holds the callees
    rebuilt so far. A computation left alone is re-emitted only when one of
    its callees was rebuilt. Every other computation object is shared with
    `m`, and `m` itself comes back when nothing changed."""
    comp_map: dict[str, Computation] = {}
    for comp in m.computations():
        new = rewrite(comp, comp_map)
        if new is None and comp_map and any(
            c.name in comp_map for i in comp.instructions for c in i.called_computations
        ):
            new = _rebuild_computation(comp, comp_map)
        if new is not None:
            comp_map[comp.name] = new
    if m.entry.name not in comp_map:
        return m
    return Module(comp_map[m.entry.name], m.replica_count, m.topology, m.tile)


def _rebuild_computation(comp: Computation, comp_map: dict[str, Computation], rewriter=None, name=None) -> Computation:
    """Re-emit `comp` (as `name` when given), letting
    `rewriter(instr, gb, mapping, comp_map)` substitute instructions: it
    returns the replacement, or None for a plain clone."""
    gb = GraphBuilder(name or comp.name)
    mapping: dict[str, Instruction] = {}
    for instr in comp.instructions:
        new = rewriter(instr, gb, mapping, comp_map) if rewriter else None
        if new is None:
            new = _clone_instruction(instr, gb, tuple(mapping[o.id] for o in instr.operands), comp_map)
        mapping[instr.id] = new
    return gb.finish(mapping[comp.root.id])


def _replica_id(gb: GraphBuilder, cache: dict) -> Instruction:
    """The replica-id of the computation `gb` builds, emitted on first use."""
    if gb not in cache:
        cache[gb] = gb.emit("replica-id", scalar(S32), id=gb.fresh_id("rid"))
    return cache[gb]


# --------------------------------------------------------------------------- #
# The sharding transform
# --------------------------------------------------------------------------- #


class _BodyRewriter:
    """Re-emits a step computation with cluster members at shard shapes.

    Walks the original instruction order; members map to shard-shaped clones,
    and any non-member consuming a member value triggers an all-gather right
    before that first use.
    """

    def __init__(
        self, m: Module, comp: Computation, decisions: list[ShardingDecision], state_shape,
        sharded_slots: dict[int, ShardingSpec],
    ):
        self.m = m
        self.comp = comp
        self.state_shape = state_shape  # None when the computation has plain parameters
        self.sharded_slots = sharded_slots
        self.gb = GraphBuilder(comp.name)
        self.mapping: dict[str, Instruction] = {}
        self.shard_of: dict[str, Instruction] = {}  # member id -> shard value
        self.full_of: dict[str, Instruction] = {}  # member id -> gathered value
        self.input_shards: dict[str, Instruction] = {}  # non-member id -> its shard
        self._rids: dict = {}
        self._spec_of = {mid: d.spec for d in decisions for mid in d.cluster.members}
        self._branch_args = {  # ids of the values passed to a conditional branch
            a.id for i in comp.instructions if i.opcode == "conditional" for a in i.operands[1:]
        }

    def full_value(self, instr: Instruction) -> Instruction:
        """Full tensor for a member value, gathered on first demand."""
        if instr.id not in self._spec_of:
            return self.mapping[instr.id]
        if instr.id in self.full_of:
            return self.full_of[instr.id]
        ag = build_unshard_ops(
            self._spec_of[instr.id], self.shard_of[instr.id], self.gb, kind="all_gather", name_hint=f"ag_{instr.id}"
        )
        self.full_of[instr.id] = ag
        return ag

    def operand(self, o: Instruction) -> Instruction:
        if o.id in self._spec_of:
            return self.full_value(o)
        return self.mapping[o.id]

    def run(self) -> Computation:
        for instr in self.comp.instructions:
            out = self.emit(instr)
            self.mapping[instr.id] = out
        return self.gb.finish(self.mapping[self.comp.root.id])

    def emit(self, instr: Instruction) -> Instruction:
        spec = self._spec_of.get(instr.id)
        if spec is not None:
            shard = self.emit_member(instr, spec)
            self.shard_of[instr.id] = shard
            return shard
        return self.emit_other(instr)

    def emit_member(self, instr: Instruction, spec: ShardingSpec) -> Instruction:
        etype = instr.shape.etype if isinstance(instr.shape, Shape) else None
        shard_shape = spec.shard_shape(etype)
        op = instr.opcode
        if op == "all-reduce":  # the anchor
            rs = build_reduce_scatter(
                spec,
                self.operand(instr.operands[0]),
                _replica_id(self.gb, self._rids),
                self.gb,
                self.m.topology,
                reduce_kind=instr.kind,
                name_hint=f"rs_{instr.id}",
            )
            if not spec.group.is_all and self.m.topology.rows > 1:
                # row-local sharding: the column all-reduce completes the sum
                rs = self.gb.emit(
                    "all-reduce",
                    rs.shape,
                    (rs,),
                    id=self.gb.fresh_id(f"xg_{instr.id}"),
                    kind=instr.kind,
                    groups=self.m.topology.col_groups(),
                )
            return rs
        if op == "get-tuple-element":
            return self.gb.emit(
                "get-tuple-element", shard_shape, (self.mapping[instr.operands[0].id],),
                id=instr.id, index=instr.index,
            )
        if op == "parameter":
            return self.gb.emit(
                "parameter", shard_shape, id=instr.id, index=instr.index, replica_equal=False
            )
        if op == "broadcast":
            return self.gb.emit(
                "broadcast", shard_shape, (self.mapping[instr.operands[0].id],),
                id=instr.id, dims=instr.dims,
            )
        # elementwise members: shard-shaped clone; scalar operands map through,
        # tensor operands use shard values (gathering inputs produced outside)
        operands = []
        for o in instr.operands:
            if o.id in self._spec_of:
                operands.append(self.shard_of[o.id])
            elif isinstance(o.shape, Shape) and o.shape.dims == spec.source_dims:
                operands.append(self.input_shard(o, spec))
            else:
                operands.append(self.mapping[o.id])
        out_shape = shard_shape
        if isinstance(instr.shape, Shape) and instr.shape.etype == ElementType.PRED:
            out_shape = Shape(shard_shape.dims, ElementType.PRED)
        return self.gb.emit(
            instr.opcode, out_shape, tuple(operands), id=instr.id,
            kind=instr.kind, direction=instr.direction, dims=instr.dims,
        )

    def input_shard(self, o: Instruction, spec: ShardingSpec) -> Instruction:
        """Slice a full redundant tensor produced outside the cluster, once."""
        if o.id not in self.input_shards:
            self.input_shards[o.id] = build_shard_ops(
                spec, self.mapping[o.id], _replica_id(self.gb, self._rids), self.gb, self.m.topology,
                name_hint=f"slice_{o.id}",
            )
        return self.input_shards[o.id]

    def emit_other(self, instr: Instruction) -> Instruction:
        if instr.opcode == "parameter" and self.state_shape is not None:
            return self.gb.emit("parameter", self.state_shape, id=instr.id, index=instr.index)
        if instr is self.comp.root and instr.opcode == "tuple":
            operands = []
            for slot, o in enumerate(instr.operands):
                if slot in self.sharded_slots:  # written back by a member (`state_veto`)
                    operands.append(self.shard_of[o.id])
                else:
                    operands.append(self.operand(o))
            shape = TupleShape(tuple(op.shape for op in operands))
            return self.gb.emit("tuple", shape, tuple(operands), id=instr.id)
        if instr.opcode == "tuple" and self._feeds_conditional(instr):
            # branch argument: pass shards through; the branch gathers inside
            operands = [
                self.shard_of[o.id] if o.id in self._spec_of else self.mapping[o.id]
                for o in instr.operands
            ]
            shape = TupleShape(tuple(op.shape for op in operands))
            return self.gb.emit("tuple", shape, tuple(operands), id=instr.id)
        if instr.opcode == "conditional":
            return self.emit_conditional(instr)
        return _clone_instruction(instr, self.gb, tuple(self.operand(o) for o in instr.operands), {})

    def _feeds_conditional(self, instr: Instruction) -> bool:
        return instr.id in self._branch_args and any(o.id in self._spec_of for o in instr.operands)

    def emit_conditional(self, instr: Instruction) -> Instruction:
        new_branches = []
        for branch, arg in zip(instr.branches, instr.operands[1:]):
            new_arg = self.mapping[arg.id]
            if new_arg.shape == arg.shape:
                new_branches.append(branch)
                continue
            specs_by_slot: dict[int, ShardingSpec] = {}
            if arg.opcode == "tuple":
                for i, o in enumerate(arg.operands):
                    if o.id in self._spec_of:
                        specs_by_slot[i] = self._spec_of[o.id]
            new_branches.append(_rewrite_branch(branch, new_arg.shape, specs_by_slot))
        operands = tuple(self.mapping[o.id] for o in instr.operands)
        return self.gb.emit(
            "conditional", instr.shape, operands, id=instr.id, branches=tuple(new_branches)
        )


def _rewrite_branch(branch: Computation, arg_shape, specs_by_slot: dict[int, ShardingSpec]) -> Computation:
    """Clone a conditional branch whose argument now carries shards: slots in
    `specs_by_slot` are gathered inside the branch before use."""

    def rewriter(instr: Instruction, gb: GraphBuilder, mapping, comp_map):
        if instr.opcode == "parameter":
            return gb.emit("parameter", arg_shape, id=instr.id, index=instr.index)
        if (
            instr.opcode == "get-tuple-element"
            and instr.operands[0].opcode == "parameter"
            and instr.index in specs_by_slot
        ):
            spec = specs_by_slot[instr.index]
            gte = gb.emit(
                "get-tuple-element", spec.shard_shape(instr.shape.etype), (mapping[instr.operands[0].id],),
                id=instr.id, index=instr.index,
            )
            return build_unshard_ops(spec, gte, gb, kind="all_gather", name_hint=f"brag_{instr.id}")
        return None

    return _rebuild_computation(branch, {}, rewriter, name=branch.name + ".sharded")


def apply(m: Module, decisions: list[ShardingDecision], steps_hint: int | None = None) -> TransformResult:
    """Rewrite `m` according to the sharding decisions.

    Produces the three-program split. Two forms that verify clean are not
    emitted and raise TransformError before anything is built: a loop whose
    state is one array rather than a tuple, and an entry parameter that is a
    tuple. Every `shard` decision is emitted; one whose anchor or members
    are not in the step computation, or whose state cannot stay sharded
    (`profitability.state_veto`), raises TransformError.
    The state slots of the `shard` decisions' clusters are the sharded state.
    When no decision shards anything, the main program is structurally
    identical to the input and the sharding and unsharding programs are
    positional pass-throughs.
    """
    check(m)
    loop = m.training_loop()
    if loop is not None and not isinstance(loop.shape, TupleShape):
        raise TransformError(f"the state of loop %{loop.id} is one array, not a tuple")
    for p in m.entry.parameters:
        if isinstance(p.shape, TupleShape):
            raise TransformError(f"entry parameter %{p.id} is a tuple, not an array")
    body = loop.body if loop is not None else m.entry

    body_ids = {i.id for i in body.instructions}
    active = [d for d in decisions if d.shard]
    for d in active:
        if d.cluster.anchor.id not in body_ids:
            raise TransformError(
                f"decision anchor %{d.cluster.anchor.id} is not in the step computation"
            )
        for mid in d.cluster.members:
            if mid not in body_ids:
                raise TransformError(f"decision references stale instruction %{mid}")
        veto = state_veto(d.cluster, loop)
        if veto is not None:
            raise TransformError(f"cannot shard the cluster of %{d.cluster.anchor.id}: {veto}")

    sharded_slots = {slot: d.spec for d in active for slot in d.cluster.state_slots}
    if loop is not None:
        main, full_of = _apply_loop(m, loop, active, sharded_slots)
        init = loop.operands[0]
        sources = init.operands if init.opcode == "tuple" else None
        out_slots = _root_slot_index(m.entry, loop)
    else:
        main, full_of = _apply_entry(m, active, sharded_slots)
        sources, out_slots = m.entry.parameters, None
    manifest = _manifest(active, full_of, sources, out_slots)
    manifest.notes["steps_assumed"] = steps_hint or 0
    manifest.notes["unshard_idempotent"] = False
    shard_prog = _build_shard_program(m, main, manifest)
    unshard_prog = _build_unshard_program(m, main, manifest)
    for prog in (main, shard_prog, unshard_prog):
        check(prog)
    return TransformResult(main, shard_prog, unshard_prog, manifest, active)


def _new_state_shape(old: TupleShape, sharded: dict[int, ShardingSpec]) -> TupleShape:
    elems = []
    for i, s in enumerate(old.elements):
        if i in sharded:
            elems.append(sharded[i].shard_shape(s.etype))
        else:
            elems.append(s)
    return TupleShape(tuple(elems))


def _apply_loop(
    m: Module, loop: Instruction, decisions: list[ShardingDecision], sharded_slots: dict[int, ShardingSpec]
) -> tuple[Module, dict[str, Instruction]]:
    """The main program of a module with a training loop: the sharded slots
    of the loop state carry shards, entering through shard-shaped parameters
    or sliced in the entry. Returns it with the body's gathered values."""
    body = loop.body
    init = loop.operands[0]
    new_state = _new_state_shape(init.shape, sharded_slots)

    body_rw = _BodyRewriter(m, body, decisions, new_state, sharded_slots)
    new_body = body_rw.run()
    new_cond = _BodyRewriter(m, loop.cond, [], new_state, {}).run()

    # Entry: re-type parameters feeding sharded slots, rebuild init and loop.
    shard_param_specs: dict[str, ShardingSpec] = {}
    if init.opcode == "tuple":
        for slot, spec in sharded_slots.items():
            src = init.operands[slot]
            if src.opcode == "parameter":
                shard_param_specs[src.id] = spec

    rids: dict = {}

    def rewriter(instr: Instruction, gb: GraphBuilder, mapping, comp_map):
        if instr.id in shard_param_specs:
            spec = shard_param_specs[instr.id]
            return gb.emit(
                "parameter",
                spec.shard_shape(instr.shape.etype),
                id=instr.id,
                index=instr.index,
                replica_equal=False,
            )
        if instr is init and instr.opcode == "tuple":
            operands = []
            for slot, o in enumerate(instr.operands):
                v = mapping[o.id]
                if slot in sharded_slots and o.id not in shard_param_specs:
                    v = build_shard_ops(
                        sharded_slots[slot], v, _replica_id(gb, rids), gb, m.topology,
                        name_hint=f"shard_init{slot}",
                    )
                operands.append(v)
            return gb.emit(
                "tuple", TupleShape(tuple(o.shape for o in operands)), tuple(operands), id=instr.id
            )
        if instr is loop:
            return gb.emit(
                "while", new_state, (mapping[init.id],), id=instr.id, cond=new_cond, body=new_body
            )
        if instr.opcode == "get-tuple-element" and instr.operands[0] is loop:
            slot = instr.index
            shape = new_state.elements[slot]
            return gb.emit("get-tuple-element", shape, (mapping[loop.id],), id=instr.id, index=slot)
        return None

    main = Module(_rebuild_computation(m.entry, {}, rewriter), m.replica_count, m.topology, m.tile)
    return main, body_rw.full_of


def _root_slot_index(entry: Computation, loop: Instruction) -> dict[int, int]:
    """Map loop state slots to positions in the entry root, when the root is
    the loop result or a tuple of its elements."""
    root = entry.root
    if root is loop:
        return {}
    out: dict[int, int] = {}
    if root.opcode == "tuple":
        for i, o in enumerate(root.operands):
            if o.opcode == "get-tuple-element" and o.operands[0] is loop:
                out[o.index] = i
    return out


def _apply_entry(
    m: Module, decisions: list[ShardingDecision], sharded_slots: dict[int, ShardingSpec]
) -> tuple[Module, dict[str, Instruction]]:
    """The main program of a module with no compiler-visible loop: the step
    computation is the entry itself. Sharded slot k enters as a shard-shaped
    parameter k and leaves sharded as root element k. Returns it with the
    entry's gathered values."""
    body_rw = _BodyRewriter(m, m.entry, decisions, None, sharded_slots)
    return Module(body_rw.run(), m.replica_count, m.topology, m.tile), body_rw.full_of


def _manifest(
    decisions: list[ShardingDecision],
    full_of: dict[str, Instruction],
    sources: tuple[Instruction, ...] | None,
    out_slots: dict[int, int] | None,
) -> Manifest:
    """One record per state slot, the sharded ones (the slots of the
    decisions' clusters) first, in slot order.
    Slot k starts from `sources[k]` in the entry; when a loop's state is not
    built by a tuple, `sources` is None and only the sharded slots are
    recorded. A sharded slot is a weight when the step gathers the member
    that reads it (`full_of`), else an aux. With a loop, `out_slots` maps
    slots to positions in the entry root. Without one it is None: slot k is
    written back to output k, and the records carry no slot."""
    looped = out_slots is not None
    sharded = {slot: (d.spec, read) for d in decisions for slot, (read, _) in d.cluster.state_slots.items()}
    manifest = Manifest()

    def record(slot: int, **fields):
        src = sources[slot] if sources is not None else None
        param = src is not None and src.opcode == "parameter"
        manifest.variables.append(
            VariableInfo(
                name=src.id if param else f"slot{slot}",
                param_index=src.index if param else -1,
                slot=slot if looped else None,
                **fields,
            )
        )

    for slot, (spec, read) in sorted(sharded.items()):
        gathered = read.id in full_of
        placements = ("in-loop", "loop-boundary") if looped else ("in-loop",)
        record(
            slot,
            kind="weight" if gathered else "aux",
            output_index=out_slots.get(slot, slot) if looped else slot,
            residency="sharded",
            spec=spec,
            gathered_in_body=gathered,
            placements=placements if gathered else ("loop-boundary",),
        )
    for slot in range(len(sources or ())):
        if slot not in sharded:
            record(slot, kind="other", output_index=out_slots.get(slot, slot) if looped else None, residency="full")
    return manifest


def _build_shard_program(baseline: Module, main: Module, manifest: Manifest) -> Module:
    """Full state in (baseline entry signature), main-program state out."""
    gb = GraphBuilder("shard_state")
    rids: dict = {}
    outs = []
    by_param = {v.param_index: v for v in manifest.variables}
    main_params = {p.index: p for p in main.entry.parameters}
    for p in baseline.entry.parameters:
        full = gb.emit(
            "parameter", p.shape, id=p.id, index=p.index, replica_equal=p.replica_equal
        )
        var = by_param.get(p.index)
        if var is not None and var.residency == "sharded":
            sh = build_shard_ops(
                var.spec, full, _replica_id(gb, rids), gb, baseline.topology, name_hint=f"shard_{p.id}"
            )
            outs.append(sh)
        else:
            outs.append(full)
        want = main_params[p.index].shape
        if outs[-1].shape != want:
            raise TransformError(
                f"sharding program output for %{p.id} is {outs[-1].shape}, main expects {want}"
            )
    root = gb.emit("tuple", TupleShape(tuple(o.shape for o in outs)), tuple(outs))
    comp = gb.finish(root)
    return Module(comp, baseline.replica_count, baseline.topology, baseline.tile)


def _build_unshard_program(baseline: Module, main: Module, manifest: Manifest) -> Module:
    """Main-program outputs in, full (baseline-shaped) outputs out."""
    gb = GraphBuilder("unshard_state")
    main_root = main.entry.root.shape
    base_root = baseline.entry.root.shape
    main_shapes = list(main_root.elements) if isinstance(main_root, TupleShape) else [main_root]
    base_shapes = list(base_root.elements) if isinstance(base_root, TupleShape) else [base_root]
    by_out = {
        v.output_index: v
        for v in manifest.variables
        if v.output_index is not None and v.residency == "sharded"
    }
    outs = []
    for i, (ms, bs) in enumerate(zip(main_shapes, base_shapes)):
        p = gb.emit("parameter", ms, id=gb.fresh_id(f"out{i}"), index=i)
        var = by_out.get(i)
        if var is not None and ms != bs:
            full = build_unshard_ops(var.spec, p, gb, kind="unshard", name_hint=f"unshard_{i}")
            outs.append(full)
        else:
            outs.append(p)
        if outs[-1].shape != bs:
            raise TransformError(f"unsharding output {i} is {outs[-1].shape}, expected {bs}")
    root = gb.emit("tuple", TupleShape(tuple(o.shape for o in outs)), tuple(outs))
    comp = gb.finish(root)
    return Module(comp, baseline.replica_count, baseline.topology, baseline.tile)


# --------------------------------------------------------------------------- #
# Precision demotion of in-loop all-gathers
# --------------------------------------------------------------------------- #

_TRANSPARENT = frozenset({"reshape", "bitcast"})


def demote_allgather_precision(m: Module) -> Module:
    """Move reduced-precision converts above in-loop all-gathers.

    When every transitive consumer of an all-gather converts the value to
    reduced precision before any arithmetic, the gather itself can run in the
    smaller type: convert the shard, gather half the bytes, and feed the old
    converts' users directly. No-op when any consumer needs full precision;
    only the computations holding a demotable gather are rewritten, and `m`
    comes back itself when there is none.
    """
    demotable: dict[str, tuple[list[Instruction], set[str]]] = {}
    touched: set[str] = set()  # names of the computations to rewrite
    for comp in m.computations():
        # one forward pass: the users of each f32 all-gather and of the
        # formatting (`_TRANSPARENT`) that reads one of those values
        users: dict[str, list[Instruction]] = {}
        gathers = []
        for ins in comp.instructions:
            if users:
                for o in ins.operands:
                    readers = users.get(o.id)
                    if readers is not None:
                        readers.append(ins)
                        if ins.opcode in _TRANSPARENT:
                            users.setdefault(ins.id, [])
            if ins.opcode == "fusion" and ins.kind == "all_gather" and ins.shape.etype == ElementType.F32:
                users[ins.id] = []
                gathers.append(ins)
        for ins in gathers:
            found = _all_consumers_convert(ins, users)
            if found is not None:
                demotable[ins.id] = found
                touched.add(comp.name)

    drop: set[str] = set()  # converts made redundant by the moved conversion
    retype: set[str] = set()  # transparent formatting between gather and converts
    for convs, through in demotable.values():
        drop.update(c.id for c in convs)
        retype.update(through)

    def rewriter(instr: Instruction, gb: GraphBuilder, mapping, comp_map):
        if instr.id in demotable:
            spec: ShardingSpec = instr.spec
            shard = mapping[instr.operands[0].id]
            low = gb.emit(
                "convert",
                Shape(shard.shape.dims, ElementType.F16R),
                (shard,),
                id=gb.fresh_id(f"{instr.id}_f16r"),
            )
            return build_unshard_ops(spec, low, gb, kind="all_gather", name_hint=instr.id)
        if instr.id in retype:
            operands = tuple(mapping[o.id] for o in instr.operands)
            return _clone_instruction(instr, gb, operands, comp_map, Shape(instr.shape.dims, ElementType.F16R))
        if instr.id in drop:
            return mapping[instr.operands[0].id]
        return None

    return rebuild_module(
        m, lambda comp, comp_map: _rebuild_computation(comp, comp_map, rewriter) if comp.name in touched else None
    )


def _all_consumers_convert(
    ag: Instruction, users: dict[str, list[Instruction]]
) -> tuple[list[Instruction], set[str]] | None:
    """(converts, transparent formatting between) when every consumer path of
    `ag` converts to reduced precision before any arithmetic; None when some
    consumer needs full precision (conservative on mixed consumers)."""
    converts: list[Instruction] = []
    through: set[str] = set()
    work = [ag]
    seen = set()
    while work:
        cur = work.pop()
        for u in users.get(cur.id, ()):
            if u.id in seen:
                continue
            seen.add(u.id)
            if u.opcode == "convert" and u.shape.etype == ElementType.F16R:
                converts.append(u)
            elif u.opcode in _TRANSPARENT:
                through.add(u.id)
                work.append(u)
            else:
                return None
    return (converts, through) if converts else None


# --------------------------------------------------------------------------- #
# Collective batching
# --------------------------------------------------------------------------- #


def batch_collectives(m: Module) -> Module:
    """Merge single-operand all-reduces into variadic all-reduces, one batch
    per (groups, kind, level, segment) within each computation.

    An instruction's level is the longest chain of single-operand
    all-reduces feeding it, and an all-reduce's segment is the number of
    outfeeds before it, so batches never span an outfeed; outfeeds keep
    their order. All-reduces of one level never feed each other and a batch
    waits only on lower levels, so every batch can be scheduled; values are
    unchanged because each operand still reduces over the same group. A
    computation with no merged batch is left alone.

    Trade-off: where batchable all-reduces feed one another across group
    keys, two independent all-reduces of one key can sit at different levels
    and stay apart although merging them would be sound. The gradient
    all-reduces of one training step all sit at level 0; there the rule
    forms one batch per key and segment, the most that can be merged."""

    def batchable(ins: Instruction) -> bool:
        return ins.opcode == "all-reduce" and len(ins.operands) == 1

    def rebuild(comp: Computation, comp_map: dict[str, Computation]) -> Computation | None:
        instrs = comp.instructions
        if sum(map(batchable, instrs)) < 2:
            return None
        # chain[ins]: the most batchable all-reduces on one dependency path
        # ending at `ins`; an instruction's level is the most over its operands
        chain: dict[Instruction, int] = {}
        chain_of = chain.__getitem__
        segment = 0
        by_key: dict[tuple, list[Instruction]] = {}
        for ins in instrs:
            lv = max(map(chain_of, ins.operands)) if ins.operands else 0
            if batchable(ins):
                by_key.setdefault((ins.groups, ins.kind, lv, segment), []).append(ins)
                lv += 1
            elif ins.opcode == "outfeed":
                segment += 1
            chain[ins] = lv
        merged = {b[0].id: b for b in by_key.values() if len(b) > 1}
        if not merged:
            return None

        member_to_batch: dict[str, tuple[str, int]] = {}  # member -> (lead, position)
        for lead, batch in merged.items():
            for pos, b in enumerate(batch):
                member_to_batch[b.id] = (lead, pos)
        # operand ids of each batch, scanned once: ready[lead] counts the
        # leading ones already emitted, and emission only adds ids
        batch_operands = {lead: [o.id for b in batch for o in b.operands] for lead, batch in merged.items()}
        ready = dict.fromkeys(merged, 0)

        def batch_ready(lead: str) -> bool:
            ops, k = batch_operands[lead], ready[lead]
            while k < len(ops) and ops[k] in mapping:
                k += 1
            ready[lead] = k
            return k == len(ops)

        # dependency-driven re-emission: members become one merged node placed
        # once all its operands are available
        gb = GraphBuilder(comp.name)
        mapping: dict[str, Instruction] = {}
        emitted_batch: dict[str, Instruction] = {}
        pending = list(instrs)
        while pending:
            progressed = False
            outfeed_waits = False  # outfeeds keep their order: none passes a waiting one
            remaining = []
            for ins in pending:
                if ins.id in member_to_batch:
                    lead, pos = member_to_batch[ins.id]
                    if batch_ready(lead):
                        if lead not in emitted_batch:
                            batch = merged[lead]
                            operands = tuple(mapping[b.operands[0].id] for b in batch)
                            shape = TupleShape(tuple(o.shape for o in operands))
                            emitted_batch[lead] = gb.emit(
                                "all-reduce",
                                shape,
                                operands,
                                id=gb.fresh_id(f"batched_{lead}"),
                                kind=batch[0].kind,
                                groups=batch[0].groups,
                            )
                        node = emitted_batch[lead]
                        mapping[ins.id] = gb.emit(
                            "get-tuple-element",
                            ins.shape,
                            (node,),
                            id=ins.id,
                            index=pos,
                        )
                        progressed = True
                    else:
                        remaining.append(ins)
                    continue
                if not (outfeed_waits and ins.opcode == "outfeed") and all(o.id in mapping for o in ins.operands):
                    mapping[ins.id] = _clone_instruction(ins, gb, tuple(mapping[o.id] for o in ins.operands), comp_map)
                    progressed = True
                else:
                    outfeed_waits |= ins.opcode == "outfeed"
                    remaining.append(ins)
            pending = remaining
            if not progressed and pending:
                raise TransformError("collective batching could not schedule the computation")
        return gb.finish(mapping[comp.root.id])

    out = rebuild_module(m, rebuild)
    check(out)
    return out

