"""Graph transformation: sharded weight update.

`apply` rewrites each profitable cluster: the anchoring all-reduce becomes a
reduce-scatter fusion, update operators are re-emitted at the shard shape,
loop-carried weights and auxiliaries stay sharded across iterations, and
consumers that need full tensors are fed by an all-gather placed immediately
before their first use. The result is a three-program split: a sharding
program (full state in, sharded state out), the main program, and an
unsharding program, plus a manifest describing slot residency.

Also here: precision demotion of in-loop all-gathers, partial (group-local)
sharding, collective batching, and the per-step memory accountant.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .ir import (
    Computation,
    ELEMENTWISE_BINARY,
    ElementType,
    GraphBuilder,
    Instruction,
    Module,
    ReplicaGroups,
    Shape,
    TupleShape,
    scalar,
    S32,
)
from .memory import Manifest, MemoryReport, VariableInfo, memory_plan, step_computation
from .profitability import Cluster, ShardingDecision, plan
from .sharding import (
    ShardingSpec,
    build_reduce_scatter,
    build_shard_ops,
    build_unshard_ops,
    choose_spec,
)
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


def _copy_attrs(instr: Instruction, comp_map: dict[str, Computation]) -> dict:
    attrs = dict(
        value=instr.value,
        index=instr.index,
        replica_equal=instr.replica_equal,
        dims=instr.dims,
        kind=instr.kind,
        direction=instr.direction,
        groups=instr.groups,
        pad_low=instr.pad_low,
        pad_high=instr.pad_high,
        slice_sizes=instr.slice_sizes,
        spec=instr.spec,
    )
    if instr.cond is not None:
        attrs["cond"] = comp_map[instr.cond.name]
    if instr.body is not None:
        attrs["body"] = comp_map[instr.body.name]
    if instr.branches is not None:
        attrs["branches"] = tuple(comp_map[b.name] for b in instr.branches)
    if instr.fused is not None:
        attrs["fused"] = comp_map[instr.fused.name]
    return attrs


def _clone_instruction(instr: Instruction, gb: GraphBuilder, mapping: dict, comp_map: dict) -> Instruction:
    operands = tuple(mapping[o.id] for o in instr.operands)
    return gb.emit(instr.opcode, instr.shape, operands, id=instr.id, **_copy_attrs(instr, comp_map))


def rebuild_module(m: Module, rewriter=None) -> Module:
    """Deep-copy a module, letting `rewriter(instr, gb, mapping, comp_map)`
    substitute instructions (return the replacement, or None for a plain
    clone). Computations are rebuilt callees-first."""
    comp_map: dict[str, Computation] = {}
    for comp in m.computations():
        comp_map[comp.name] = _rebuild_computation(comp, comp_map, rewriter)
    return Module(
        entry=comp_map[m.entry.name],
        replica_count=m.replica_count,
        topology=m.topology,
        tile=m.tile,
    )


def _rebuild_computation(comp: Computation, comp_map: dict[str, Computation], rewriter=None) -> Computation:
    gb = GraphBuilder(comp.name)
    mapping: dict[str, Instruction] = {}
    for instr in comp.instructions:
        new = rewriter(instr, gb, mapping, comp_map) if rewriter else None
        if new is None:
            new = _clone_instruction(instr, gb, mapping, comp_map)
        mapping[instr.id] = new
    return Computation(comp.name, gb.instructions, mapping[comp.root.id])


# --------------------------------------------------------------------------- #
# The sharding transform
# --------------------------------------------------------------------------- #


@dataclass
class _ClusterPlan:
    decision: ShardingDecision
    spec: ShardingSpec
    cross_groups: ReplicaGroups | None  # column all-reduce for partial sharding
    member_ids: set[str]
    sharded_state_slots: dict[int, str]  # loop slot -> variable name
    sharded_params: dict[int, tuple[str, int | None]]  # entry param index -> (name, output slot)


class _BodyRewriter:
    """Re-emits a step computation with cluster members at shard shapes.

    Walks the original instruction order; members map to shard-shaped clones,
    and any non-member consuming a member value triggers an all-gather right
    before that first use.
    """

    def __init__(self, m: Module, comp: Computation, plans: list[_ClusterPlan], state_shape, name: str, sharded_slots: dict[int, ShardingSpec]):
        self.m = m
        self.comp = comp
        self.plans = plans
        self.state_shape = state_shape  # None when the computation has plain parameters
        self.name = name
        self.sharded_slots = sharded_slots
        self.gb = GraphBuilder(name)
        self.mapping: dict[str, Instruction] = {}
        self.shard_of: dict[str, Instruction] = {}  # member id -> shard value
        self.full_of: dict[str, Instruction] = {}  # member id -> gathered value
        self.placements: list[tuple[str, str]] = []  # (variable/member, placement)
        self._rid: Instruction | None = None
        self._plan_of: dict[str, _ClusterPlan] = {}
        for p in plans:
            for mid in p.member_ids:
                self._plan_of[mid] = p

    def rid(self) -> Instruction:
        if self._rid is None:
            self._rid = self.gb.emit("replica-id", scalar(S32), id=self.gb.fresh_id("rid"))
        return self._rid

    def shard_value(self, instr: Instruction) -> Instruction:
        return self.shard_of[instr.id]

    def full_value(self, instr: Instruction) -> Instruction:
        """Full tensor for a member value, gathered on first demand."""
        if instr.id not in self._plan_of:
            return self.mapping[instr.id]
        if instr.id in self.full_of:
            return self.full_of[instr.id]
        p = self._plan_of[instr.id]
        ag = build_unshard_ops(
            p.spec, self.shard_of[instr.id], self.gb, kind="all_gather", name_hint=f"ag_{instr.id}"
        )
        self.full_of[instr.id] = ag
        self.placements.append((instr.id, "in-loop"))
        return ag

    def operand(self, o: Instruction) -> Instruction:
        if o.id in self._plan_of:
            return self.full_value(o)
        return self.mapping[o.id]

    def run(self) -> Computation:
        for instr in self.comp.instructions:
            out = self.emit(instr)
            self.mapping[instr.id] = out
        return self.gb.finish(self.mapping[self.comp.root.id])

    def emit(self, instr: Instruction) -> Instruction:
        plan = self._plan_of.get(instr.id)
        if plan is not None:
            shard = self.emit_member(instr, plan)
            self.shard_of[instr.id] = shard
            return shard
        return self.emit_other(instr)

    def emit_member(self, instr: Instruction, plan: _ClusterPlan) -> Instruction:
        spec = plan.spec
        etype = instr.shape.etype if isinstance(instr.shape, Shape) else None
        shard_shape = spec.shard_shape(etype)
        op = instr.opcode
        if op == "all-reduce":  # the anchor
            rs = build_reduce_scatter(
                spec,
                self.operand(instr.operands[0]),
                self.rid(),
                self.gb,
                self.m.topology,
                reduce_kind=instr.kind,
                name_hint=f"rs_{instr.id}",
            )
            if plan.cross_groups is not None:
                rs = self.gb.emit(
                    "all-reduce",
                    rs.shape,
                    (rs,),
                    id=self.gb.fresh_id(f"xg_{instr.id}"),
                    kind=instr.kind,
                    groups=plan.cross_groups,
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
            if o.id in self._plan_of:
                operands.append(self.shard_of[o.id])
            elif isinstance(o.shape, Shape) and o.shape.dims == plan.spec.source_dims:
                operands.append(self.input_shard(o, plan))
            else:
                operands.append(self.mapping[o.id])
        out_shape = shard_shape
        if isinstance(instr.shape, Shape) and instr.shape.etype == ElementType.PRED:
            out_shape = Shape(shard_shape.dims, ElementType.PRED)
        return self.gb.emit(
            instr.opcode, out_shape, tuple(operands), id=instr.id,
            kind=instr.kind, direction=instr.direction, dims=instr.dims,
        )

    def input_shard(self, o: Instruction, plan: _ClusterPlan) -> Instruction:
        """Slice a full redundant tensor produced outside the cluster."""
        key = f"{o.id}//shard"
        if key in self.full_of:
            return self.full_of[key]
        sh = build_shard_ops(
            plan.spec, self.mapping[o.id], self.rid(), self.gb, self.m.topology,
            name_hint=f"slice_{o.id}",
        )
        self.full_of[key] = sh
        return sh

    def emit_other(self, instr: Instruction) -> Instruction:
        if instr.opcode == "parameter" and self.state_shape is not None:
            return self.gb.emit("parameter", self.state_shape, id=instr.id, index=instr.index)
        if instr is self.comp.root and instr.opcode == "tuple":
            operands = []
            for slot, o in enumerate(instr.operands):
                if slot in self.sharded_slots and o.id in self._plan_of:
                    operands.append(self.shard_of[o.id])
                else:
                    operands.append(self.operand(o))
            shape = TupleShape(tuple(op.shape for op in operands))
            return self.gb.emit("tuple", shape, tuple(operands), id=instr.id)
        if instr.opcode == "tuple" and self._feeds_conditional(instr):
            # branch argument: pass shards through; the branch gathers inside
            operands = [
                self.shard_of[o.id] if o.id in self._plan_of else self.mapping[o.id]
                for o in instr.operands
            ]
            shape = TupleShape(tuple(op.shape for op in operands))
            return self.gb.emit("tuple", shape, tuple(operands), id=instr.id)
        if instr.opcode == "conditional":
            return self.emit_conditional(instr)
        operands = tuple(self.operand(o) for o in instr.operands)
        return self.gb.emit(instr.opcode, instr.shape, operands, id=instr.id,
                            **_copy_attrs(instr, {c.name: c for c in instr.called_computations}))

    def _feeds_conditional(self, instr: Instruction) -> bool:
        for other in self.comp.instructions:
            if other.opcode == "conditional" and instr in other.operands[1:]:
                if any(o.id in self._plan_of for o in instr.operands):
                    return True
        return False

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
                    if o.id in self._plan_of:
                        specs_by_slot[i] = self._plan_of[o.id].spec
            new_branches.append(_rewrite_branch(branch, new_arg.shape, specs_by_slot))
            for i in specs_by_slot:
                self.placements.append((f"{arg.id}[{i}]", "branch"))
        operands = (self.mapping[instr.operands[0].id],)
        operands += tuple(self.mapping[a.id] for a in instr.operands[1:])
        return self.gb.emit(
            "conditional", instr.shape, operands, id=instr.id, branches=tuple(new_branches)
        )


def _rewrite_branch(branch: Computation, arg_shape, specs_by_slot: dict[int, ShardingSpec]) -> Computation:
    """Clone a conditional branch whose argument now carries shards: slots in
    `specs_by_slot` are gathered inside the branch before use."""
    gb = GraphBuilder(branch.name + ".sharded")
    mapping: dict[str, Instruction] = {}
    param = None
    for instr in branch.instructions:
        if instr.opcode == "parameter":
            param = gb.emit("parameter", arg_shape, id=instr.id, index=instr.index)
            mapping[instr.id] = param
            continue
        if (
            instr.opcode == "get-tuple-element"
            and instr.operands[0].id in mapping
            and mapping[instr.operands[0].id] is param
            and instr.index in specs_by_slot
        ):
            spec = specs_by_slot[instr.index]
            etype = instr.shape.etype
            gte = gb.emit(
                "get-tuple-element", spec.shard_shape(etype), (param,),
                id=instr.id, index=instr.index,
            )
            ag = build_unshard_ops(spec, gte, gb, kind="all_gather", name_hint=f"brag_{instr.id}")
            mapping[instr.id] = ag
            continue
        operands = tuple(mapping[o.id] for o in instr.operands)
        mapping[instr.id] = gb.emit(
            instr.opcode, instr.shape, operands, id=instr.id,
            **_copy_attrs(instr, {c.name: c for c in instr.called_computations}),
        )
    return Computation(gb.name, gb.instructions, mapping[branch.root.id])


def apply(m: Module, decisions: list[ShardingDecision], steps_hint: int | None = None) -> TransformResult:
    """Rewrite `m` according to the sharding decisions.

    Produces the three-program split. When no decision shards anything, the
    main program is structurally identical to the input and the sharding and
    unsharding programs are positional pass-throughs.
    """
    check(m)
    loop = next((i for i in m.entry.instructions if i.opcode == "while"), None)
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

    plans: list[_ClusterPlan] = []
    cond_slots = _slots_read(loop.cond) if loop is not None else set()
    for d in active:
        cluster = d.cluster
        sharded_state: dict[int, str] = {}
        ok = True
        for slot, (gte, paired) in cluster.state_slots.items():
            if not paired or slot in cond_slots:
                ok = False
        if not ok:
            continue  # unpaired state cannot stay sharded; keep this cluster replicated
        spec = d.spec
        cross = None
        if not d.groups.is_all:
            cols = m.topology.col_groups()
            if m.topology.rows > 1:
                cross = cols
        for slot in cluster.state_slots:
            sharded_state[slot] = f"slot{slot}"
        sharded_params: dict[int, tuple[str, int | None]] = {}
        root_ops = cluster.computation.root.operands if cluster.computation.root.opcode == "tuple" else ()
        member_out_slots = [
            i for i, o in enumerate(root_ops) if o.id in cluster.members and o is not cluster.anchor
        ]
        if loop is None:
            pidx = 0
            for ins in sorted(
                (i for i in cluster.members.values() if i.opcode == "parameter"),
                key=lambda i: i.index,
            ):
                out_slot = member_out_slots[pidx] if pidx < len(member_out_slots) else None
                sharded_params[ins.index] = (ins.id, out_slot)
                pidx += 1
        plans.append(
            _ClusterPlan(
                decision=d,
                spec=spec,
                cross_groups=cross,
                member_ids=set(d.cluster.members),
                sharded_state_slots=sharded_state,
                sharded_params=sharded_params,
            )
        )

    if loop is not None:
        return _apply_loop(m, loop, plans, steps_hint)
    return _apply_entry(m, plans, steps_hint)


def _slots_read(comp: Computation) -> set[int]:
    params = comp.parameters
    if len(params) != 1:
        return set()
    p = params[0]
    return {
        i.index
        for i in comp.instructions
        if i.opcode == "get-tuple-element" and i.operands[0] is p
    }


def _new_state_shape(old: TupleShape, sharded: dict[int, ShardingSpec]) -> TupleShape:
    elems = []
    for i, s in enumerate(old.elements):
        if i in sharded:
            elems.append(sharded[i].shard_shape(s.etype))
        else:
            elems.append(s)
    return TupleShape(tuple(elems))


def _apply_loop(m: Module, loop: Instruction, plans: list[_ClusterPlan], steps_hint) -> TransformResult:
    body = loop.body
    sharded_slots: dict[int, ShardingSpec] = {}
    for p in plans:
        for slot in p.sharded_state_slots:
            sharded_slots[slot] = p.spec
    old_state: TupleShape = loop.operands[0].shape
    new_state = _new_state_shape(old_state, sharded_slots)

    body_rw = _BodyRewriter(m, body, plans, new_state, body.name, sharded_slots)
    new_body = body_rw.run()
    cond_rw = _BodyRewriter(m, loop.cond, [], new_state, loop.cond.name, {})
    new_cond = cond_rw.run()

    # Entry: re-type parameters feeding sharded slots, rebuild init and loop.
    init = loop.operands[0]
    shard_param_specs: dict[str, ShardingSpec] = {}
    if init.opcode == "tuple":
        for slot, spec in sharded_slots.items():
            src = init.operands[slot]
            if src.opcode == "parameter":
                shard_param_specs[src.id] = spec

    gb = GraphBuilder(m.entry.name)
    mapping: dict[str, Instruction] = {}
    rid_holder: list[Instruction | None] = [None]

    def rid() -> Instruction:
        if rid_holder[0] is None:
            rid_holder[0] = gb.emit("replica-id", scalar(S32), id=gb.fresh_id("rid"))
        return rid_holder[0]

    manifest = Manifest()
    for instr in m.entry.instructions:
        if instr.opcode == "parameter":
            if instr.id in shard_param_specs:
                spec = shard_param_specs[instr.id]
                mapping[instr.id] = gb.emit(
                    "parameter",
                    spec.shard_shape(instr.shape.etype),
                    id=instr.id,
                    index=instr.index,
                    replica_equal=False,
                )
            else:
                mapping[instr.id] = _clone_instruction(instr, gb, mapping, {})
            continue
        if instr is init and instr.opcode == "tuple":
            operands = []
            for slot, o in enumerate(instr.operands):
                v = mapping[o.id]
                if slot in sharded_slots and o.id not in shard_param_specs:
                    v = build_shard_ops(
                        sharded_slots[slot], v, rid(), gb, m.topology, name_hint=f"shard_init{slot}"
                    )
                operands.append(v)
            mapping[instr.id] = gb.emit(
                "tuple", TupleShape(tuple(o.shape for o in operands)), tuple(operands), id=instr.id
            )
            continue
        if instr is loop:
            mapping[instr.id] = gb.emit(
                "while", new_state, (mapping[init.id],), id=instr.id, cond=new_cond, body=new_body
            )
            continue
        if instr.opcode == "get-tuple-element" and instr.operands[0] is loop:
            slot = instr.index
            shape = new_state.elements[slot]
            mapping[instr.id] = gb.emit(
                "get-tuple-element", shape, (mapping[loop.id],), id=instr.id, index=slot
            )
            continue
        mapping[instr.id] = _clone_instruction(
            instr, gb, mapping, {c.name: c for c in instr.called_computations}
        )
    new_entry = Computation(m.entry.name, gb.instructions, mapping[m.entry.root.id])
    main = Module(new_entry, m.replica_count, m.topology, m.tile)

    # Variable records: classify by whether the body gathers the slot's value.
    gathered_members = set(body_rw.full_of)
    out_slots = _root_slot_index(m.entry, loop)
    for slot, spec in sorted(sharded_slots.items()):
        src = init.operands[slot] if init.opcode == "tuple" else None
        name = src.id if src is not None and src.opcode == "parameter" else f"slot{slot}"
        gte_member = _slot_gte(body, slot)
        gathered = gte_member is not None and gte_member.id in gathered_members
        manifest.variables.append(
            VariableInfo(
                name=name,
                kind="weight" if gathered else "aux",
                param_index=src.index if src is not None and src.opcode == "parameter" else -1,
                slot=slot,
                output_index=out_slots.get(slot, slot),
                residency="sharded",
                spec=spec,
                gathered_in_body=gathered,
                placements=tuple(
                    pl for mid, pl in body_rw.placements if gte_member is not None and mid == gte_member.id
                )
                + ("loop-boundary",),
            )
        )
    _add_full_slot_records(manifest, m, init, old_state, sharded_slots, out_slots)
    manifest.notes["steps_assumed"] = steps_hint or 0
    manifest.notes["unshard_idempotent"] = False

    shard_prog = _build_shard_program(m, main, manifest)
    unshard_prog = _build_unshard_program(m, main, manifest)
    result = TransformResult(main, shard_prog, unshard_prog, manifest, [p.decision for p in plans])
    _check_result(result)
    return result


def _slot_gte(body: Computation, slot: int) -> Instruction | None:
    params = body.parameters
    if len(params) != 1:
        return None
    for i in body.instructions:
        if i.opcode == "get-tuple-element" and i.operands[0] is params[0] and i.index == slot:
            return i
    return None


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


def _add_full_slot_records(manifest, m, init, old_state, sharded_slots, out_slots):
    if init.opcode != "tuple":
        return
    for slot, o in enumerate(init.operands):
        if slot in sharded_slots:
            continue
        name = o.id if o.opcode == "parameter" else f"slot{slot}"
        manifest.variables.append(
            VariableInfo(
                name=name,
                kind="other",
                param_index=o.index if o.opcode == "parameter" else -1,
                slot=slot,
                output_index=out_slots.get(slot, slot),
                residency="full",
            )
        )


def _apply_entry(m: Module, plans: list[_ClusterPlan], steps_hint) -> TransformResult:
    """Transform a module with no compiler-visible loop: the step computation
    is the entry itself; sharded variables enter as shard-shaped parameters
    and leave sharded in the corresponding outputs."""
    sharded_params: dict[int, ShardingSpec] = {}
    sharded_out_slots: dict[int, ShardingSpec] = {}
    for p in plans:
        for pidx, (name, out_slot) in p.sharded_params.items():
            sharded_params[pidx] = p.spec
            if out_slot is not None:
                sharded_out_slots[out_slot] = p.spec

    body_rw = _BodyRewriter(m, m.entry, plans, None, m.entry.name, sharded_out_slots)
    new_entry = body_rw.run()
    main = Module(new_entry, m.replica_count, m.topology, m.tile)

    manifest = Manifest()
    gathered_members = set(body_rw.full_of)
    for p in plans:
        for pidx, (name, out_slot) in sorted(p.sharded_params.items()):
            member = next(i for i in p.decision.cluster.members.values() if i.opcode == "parameter" and i.index == pidx)
            gathered = member.id in gathered_members
            manifest.variables.append(
                VariableInfo(
                    name=name,
                    kind="weight" if gathered else "aux",
                    param_index=pidx,
                    slot=None,
                    output_index=out_slot,
                    residency="sharded",
                    spec=p.spec,
                    gathered_in_body=gathered,
                    placements=("in-loop",) if gathered else ("loop-boundary",),
                )
            )
    for param in m.entry.parameters:
        if param.index not in sharded_params:
            manifest.variables.append(
                VariableInfo(
                    name=param.id,
                    kind="other",
                    param_index=param.index,
                    slot=None,
                    output_index=None,
                    residency="full",
                )
            )
    manifest.notes["steps_assumed"] = steps_hint or 0
    manifest.notes["unshard_idempotent"] = False

    shard_prog = _build_shard_program(m, main, manifest)
    unshard_prog = _build_unshard_program(m, main, manifest)
    result = TransformResult(main, shard_prog, unshard_prog, manifest, [p.decision for p in plans])
    _check_result(result)
    return result


def _build_shard_program(baseline: Module, main: Module, manifest: Manifest) -> Module:
    """Full state in (baseline entry signature), main-program state out."""
    gb = GraphBuilder("shard_state")
    rid: Instruction | None = None
    outs = []
    by_param = {v.param_index: v for v in manifest.variables}
    main_params = {p.index: p for p in main.entry.parameters}
    for p in baseline.entry.parameters:
        full = gb.emit(
            "parameter", p.shape, id=p.id, index=p.index, replica_equal=p.replica_equal
        )
        var = by_param.get(p.index)
        if var is not None and var.residency == "sharded":
            if rid is None:
                rid = gb.emit("replica-id", scalar(S32), id=gb.fresh_id("rid"))
            sh = build_shard_ops(
                var.spec, full, rid, gb, baseline.topology, name_hint=f"shard_{p.id}"
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


def _check_result(result: TransformResult):
    check(result.main)
    check(result.shard_program)
    check(result.unshard_program)


# --------------------------------------------------------------------------- #
# Precision demotion of in-loop all-gathers
# --------------------------------------------------------------------------- #

_TRANSPARENT = frozenset({"reshape", "bitcast"})


def demote_allgather_precision(m: Module) -> Module:
    """Move reduced-precision converts above in-loop all-gathers.

    When every transitive consumer of an all-gather converts the value to
    reduced precision before any arithmetic, the gather itself can run in the
    smaller type: convert the shard, gather half the bytes, and feed the old
    converts' users directly. No-op when any consumer needs full precision.
    """
    comp_users: dict[str, dict[str, list[Instruction]]] = {}
    for comp in m.computations():
        users: dict[str, list[Instruction]] = {}
        for ins in comp.instructions:
            for o in ins.operands:
                users.setdefault(o.id, []).append(ins)
        comp_users[comp.name] = users

    demotable: dict[str, tuple[list[Instruction], set[str]]] = {}
    for comp in m.computations():
        users = comp_users[comp.name]
        for ins in comp.instructions:
            if ins.opcode != "fusion" or ins.kind != "all_gather":
                continue
            if ins.shape.etype != ElementType.F32:
                continue
            found = _all_consumers_convert(ins, users)
            if found is not None:
                demotable[ins.id] = found
    if not demotable:
        return rebuild_module(m)

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
            return gb.emit(
                instr.opcode,
                Shape(instr.shape.dims, ElementType.F16R),
                operands,
                id=instr.id,
                **_copy_attrs(instr, comp_map),
            )
        if instr.id in drop:
            return mapping[instr.operands[0].id]
        return None

    return rebuild_module(m, rewriter)


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
# Partial sharding of an already-transformed module
# --------------------------------------------------------------------------- #


def _shard_domain(m: Module, respeccable) -> set[tuple[str, int | None]]:
    """Value positions living in the shard domain of re-specced collectives.

    Positions are (instruction id, None) for arrays and (id, slot) for tuple
    elements. Taint seeds at the outputs of shard/reduce-scatter fusions and
    the inputs of all-gather/unshard fusions, then closes over value-forwarding
    edges: elementwise users and operands of matching dims, tuple packing and
    projection, loop state threading, and conditional argument passing.
    """
    edges: dict[tuple, set[tuple]] = {}

    def link(a, b):
        edges.setdefault(a, set()).add(b)
        edges.setdefault(b, set()).add(a)

    old_dims: set[tuple] = set()
    seeds: list[tuple] = []
    elementwise_like = ELEMENTWISE_BINARY | {"sqrt", "select", "compare", "convert", "broadcast"}
    for comp in m.computations():
        for ins in comp.instructions:
            if ins.opcode == "fusion" and ins.kind in ("shard", "reduce_scatter", "all_gather", "unshard"):
                if respeccable(ins):
                    old_dims.add(tuple(ins.spec.shard_dims))
                    if ins.kind in ("shard", "reduce_scatter"):
                        seeds.append((ins.id, None))
                    else:
                        seeds.append((ins.operands[0].id, None))
            elif ins.opcode == "tuple":
                for k, o in enumerate(ins.operands):
                    link((ins.id, k), (o.id, None))
            elif ins.opcode == "get-tuple-element":
                link((ins.id, None), (ins.operands[0].id, ins.index))
            elif ins.opcode == "while":
                init = ins.operands[0]
                arity = len(ins.shape) if isinstance(ins.shape, TupleShape) else 1
                bp = ins.body.parameters[0]
                cp = ins.cond.parameters[0]
                for k in range(arity):
                    slot = k if isinstance(ins.shape, TupleShape) else None
                    link((ins.id, slot), (init.id, slot))
                    link((ins.id, slot), (bp.id, slot))
                    link((ins.id, slot), (cp.id, slot))
                    link((ins.id, slot), (ins.body.root.id, slot))
            elif ins.opcode == "conditional":
                for branch, arg in zip(ins.branches, ins.operands[1:]):
                    bp = branch.parameters[0]
                    arity = len(arg.shape) if isinstance(arg.shape, TupleShape) else 1
                    for k in range(arity):
                        slot = k if isinstance(arg.shape, TupleShape) else None
                        link((bp.id, slot), (arg.id, slot))
                    rarity = len(ins.shape) if isinstance(ins.shape, TupleShape) else 1
                    for k in range(rarity):
                        slot = k if isinstance(ins.shape, TupleShape) else None
                        link((ins.id, slot), (branch.root.id, slot))
            elif ins.opcode in elementwise_like and isinstance(ins.shape, Shape):
                for o in ins.operands:
                    if isinstance(o.shape, Shape) and o.shape.dims == ins.shape.dims:
                        link((ins.id, None), (o.id, None))

    dims_at: dict[tuple, tuple | None] = {}
    for comp in m.computations():
        for ins in comp.instructions:
            if isinstance(ins.shape, Shape):
                dims_at[(ins.id, None)] = ins.shape.dims
            else:
                for k, e in enumerate(ins.shape.elements):
                    dims_at[(ins.id, k)] = e.dims

    tainted: set[tuple] = set()
    work = [s for s in seeds if dims_at.get(s) in old_dims]
    while work:
        cur = work.pop()
        if cur in tainted:
            continue
        tainted.add(cur)
        for nxt in edges.get(cur, ()):
            if nxt not in tainted and dims_at.get(nxt) in old_dims:
                work.append(nxt)
    return tainted


def apply_partial_sharding(m: Module, groups: ReplicaGroups) -> Module:
    """Re-shard full-group collective fusions within `groups` (the mesh rows),
    inserting a cross-group all-reduce after each reduce-scatter. Shard-domain
    values between the collectives are re-typed to the group-local format."""
    if groups.is_all:
        return rebuild_module(m)
    topo = m.topology
    if topo.kind != "mesh" or groups.groups != topo.row_groups().groups:
        raise TransformError("partial sharding groups must be the mesh rows")
    gsize = topo.cols
    cols = topo.col_groups()
    cross = cols if topo.rows > 1 else None

    def respeccable(ins: Instruction) -> bool:
        return ins.spec.group.is_all and ins.spec.shard_count == m.replica_count

    dim_map: dict[tuple, tuple] = {}
    spec_map: dict[str, ShardingSpec] = {}

    def respec(old: ShardingSpec, etype: ElementType) -> ShardingSpec:
        key = str(old)
        if key not in spec_map:
            new = choose_spec(Shape(old.source_dims, etype), gsize, m.tile, groups)
            spec_map[key] = new
            dim_map[tuple(old.shard_dims)] = tuple(new.shard_dims)
        return spec_map[key]

    for ins in m.all_instructions():
        if ins.opcode == "fusion" and ins.kind in ("shard", "reduce_scatter", "all_gather", "unshard"):
            if respeccable(ins):
                respec(ins.spec, ins.shape.etype if isinstance(ins.shape, Shape) else ElementType.F32)

    tainted = _shard_domain(m, respeccable)

    def remap_shape(instr: Instruction):
        shape = instr.shape
        if isinstance(shape, TupleShape):
            elems = []
            for k, e in enumerate(shape.elements):
                if (instr.id, k) in tainted and e.dims in dim_map:
                    elems.append(Shape(dim_map[e.dims], e.etype))
                else:
                    elems.append(e)
            return TupleShape(tuple(elems))
        if (instr.id, None) in tainted and shape.dims in dim_map:
            return Shape(dim_map[shape.dims], shape.etype)
        return shape

    def rewriter(instr: Instruction, gb: GraphBuilder, mapping, comp_map):
        if instr.opcode == "fusion" and instr.kind in ("shard", "reduce_scatter", "all_gather", "unshard"):
            old: ShardingSpec = instr.spec
            if not respeccable(instr):
                return None
            etype = instr.shape.etype if isinstance(instr.shape, Shape) else ElementType.F32
            new = respec(old, etype)
            if instr.kind in ("shard", "reduce_scatter"):
                builder = build_shard_ops if instr.kind == "shard" else build_reduce_scatter
                kwargs = {}
                if instr.kind == "reduce_scatter":
                    from .simulator import _fusion_reduce_kind

                    kwargs["reduce_kind"] = _fusion_reduce_kind(instr)
                out = builder(
                    new,
                    mapping[instr.operands[0].id],
                    mapping[instr.operands[1].id],
                    gb,
                    topo,
                    name_hint=instr.id,
                    **kwargs,
                )
                if instr.kind == "reduce_scatter" and cross is not None:
                    out = gb.emit(
                        "all-reduce",
                        out.shape,
                        (out,),
                        id=gb.fresh_id(f"xg_{instr.id}"),
                        kind=kwargs.get("reduce_kind", "add"),
                        groups=cross,
                    )
                return out
            return build_unshard_ops(
                new, mapping[instr.operands[0].id], gb, kind=instr.kind, name_hint=instr.id
            )
        new_shape = remap_shape(instr)
        if new_shape == instr.shape:
            return None
        operands = tuple(mapping[o.id] for o in instr.operands)
        attrs = _copy_attrs(instr, comp_map)
        return gb.emit(instr.opcode, new_shape, operands, id=instr.id, **attrs)

    out = rebuild_module(m, rewriter)
    check(out)
    return out


# --------------------------------------------------------------------------- #
# Collective batching
# --------------------------------------------------------------------------- #


def batch_collectives(m: Module) -> Module:
    """Merge independent all-reduces with identical groups and reduction kind
    into variadic all-reduces. Greedy in instruction order within each
    computation; batches never span side-effecting operators; values are
    unchanged because each operand still reduces over the same group."""

    def rebuild(comp: Computation, comp_map: dict[str, Computation]) -> Computation:
        instrs = comp.instructions
        index = {ins.id: i for i, ins in enumerate(instrs)}
        candidates = [
            ins
            for ins in instrs
            if ins.opcode == "all-reduce" and len(ins.operands) == 1
        ]
        # transitive candidate ancestors, for the independence check
        anc: dict[str, frozenset] = {}

        def ancestors(ins: Instruction) -> frozenset:
            if ins.id in anc:
                return anc[ins.id]
            s = set()
            for o in ins.operands:
                s.update(ancestors(o))
                if o.opcode == "all-reduce":
                    s.add(o.id)
            fs = frozenset(s)
            anc[ins.id] = fs
            return fs

        barriers = [i for i, ins in enumerate(instrs) if ins.opcode == "outfeed"]

        def barrier_between(a: int, b: int) -> bool:
            return any(a < k < b for k in barriers)

        batches: list[list[Instruction]] = []
        for c in candidates:
            placed = False
            for batch in batches:
                key = (str(batch[0].groups), batch[0].kind)
                if key != (str(c.groups), c.kind):
                    continue
                if any(b.id in ancestors(c) for b in batch):
                    continue
                if barrier_between(index[batch[-1].id], index[c.id]):
                    continue
                batch.append(c)
                placed = True
                break
            if not placed:
                batches.append([c])
        merged = {b[0].id: b for b in batches if len(b) > 1}
        if not merged:
            return _rebuild_computation(comp, comp_map)

        member_to_batch: dict[str, str] = {}
        for lead, batch in merged.items():
            for b in batch:
                member_to_batch[b.id] = lead

        # dependency-driven re-emission: members become one merged node placed
        # once all its operands are available
        gb = GraphBuilder(comp.name)
        mapping: dict[str, Instruction] = {}
        emitted_batch: dict[str, Instruction] = {}
        pending = list(instrs)
        guard = 0
        while pending:
            progressed = False
            remaining = []
            for ins in pending:
                if ins.id in member_to_batch:
                    lead = member_to_batch[ins.id]
                    batch = merged[lead]
                    if all(o.id in mapping for b in batch for o in b.operands):
                        if lead not in emitted_batch:
                            operands = tuple(mapping[b.operands[0].id] for b in batch)
                            shape = TupleShape(tuple(o.shape for o in operands))
                            node = gb.emit(
                                "all-reduce",
                                shape,
                                operands,
                                id=gb.fresh_id(f"batched_{lead}"),
                                kind=batch[0].kind,
                                groups=batch[0].groups,
                            )
                            emitted_batch[lead] = node
                        node = emitted_batch[lead]
                        pos = merged[lead].index(ins)
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
                if all(o.id in mapping for o in ins.operands):
                    mapping[ins.id] = _clone_instruction(ins, gb, mapping, comp_map)
                    progressed = True
                else:
                    remaining.append(ins)
            pending = remaining
            guard += 1
            if not progressed and pending:
                raise TransformError("collective batching could not schedule the computation")
            if guard > len(instrs) + 4:
                raise TransformError("collective batching did not converge")
        return Computation(comp.name, gb.instructions, mapping[comp.root.id])

    comp_map: dict[str, Computation] = {}
    for comp in m.computations():
        comp_map[comp.name] = rebuild(comp, comp_map)
    out = Module(comp_map[m.entry.name], m.replica_count, m.topology, m.tile)
    check(out)
    return out


# --------------------------------------------------------------------------- #
# Memory plan (re-exported accountant)
# --------------------------------------------------------------------------- #


def memory_plan_for(m: Module, manifest: Manifest, baseline: Module | None = None) -> MemoryReport:
    """Accountant over the step computation of `m` using full shapes from the
    baseline entry signature (or from `m` itself for unsharded modules)."""
    source = baseline or m
    full_shapes = {p.id: p.shape for p in source.entry.parameters if isinstance(p.shape, Shape)}
    # variables whose init was not a parameter: take the full shape from the spec
    for v in manifest.variables:
        if v.name not in full_shapes and v.spec is not None:
            full_shapes[v.name] = v.spec.source_shape(ElementType.F32)
    comp = step_computation(m)
    return memory_plan(comp, manifest, full_shapes, m.tile)


def baseline_manifest(manifest: Manifest) -> Manifest:
    """The same variables at full residency, for accounting the input module."""
    vars = [dataclasses.replace(v, residency="full", gathered_in_body=False) for v in manifest.variables]
    return Manifest(variables=vars, notes=dict(manifest.notes))
