"""Weight-update cluster discovery and sharding profitability.

Each full-group all-reduce anchors one cluster: the redundant elementwise
update operators reachable from it, plus the loop-state slots they read and
write. Everything that needs the full tensor (forward-pass consumers, program
outputs, outfeeds) lands on the frontier and becomes an all-gather site.

The benefit of sharding a cluster is the memory-bound time of its non-fusible
inputs and outputs scaled by (1 - 1/S); the cost is the modeled time of the
all-gathers weighted by how often they run. One every-step all-gather per
cluster is free: decomposing the anchor all-reduce into reduce-scatter plus
all-gather already pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .costmodel import CostModel, all_reduce_phases, collective_phases
from .ir import (
    ALL_REPLICAS,
    Computation,
    ELEMENTWISE_BINARY,
    Instruction,
    Module,
    ReplicaGroups,
    Shape,
    TupleShape,
    physical_bytes,
)
from .redundancy import RedundancyMap, analyze
from .sharding import ShardingSpec, choose_spec

DEFAULT_TRIP_COUNT = 1000
PARTIAL_SHARDING_THRESHOLD_BYTES = 64 * 1024


@dataclass
class FrontierUse:
    member: Instruction  # cluster value consumed in full form
    user: Instruction
    placement: str  # "in-loop" | "loop-output" | "branch" | "outfeed"
    frequency: Fraction | None = None
    slot: int | None = None


@dataclass
class Cluster:
    anchor: Instruction
    computation: Computation
    members: dict[str, Instruction]
    inputs: list[Instruction]  # redundant full tensors produced outside the cluster
    frontier: list[FrontierUse]
    state_slots: dict[int, tuple[Instruction, bool]]  # slot -> (gte member, output paired)
    dims: tuple[int, ...]
    etype: object

    @property
    def update_members(self) -> list[Instruction]:
        return [i for i in self.members.values() if i is not self.anchor]


_MEMBER_OPCODES = ELEMENTWISE_BINARY | {"sqrt", "select", "compare"}


def _is_member_candidate(
    instr: Instruction, dims: tuple[int, ...], rmap: RedundancyMap, claimed: set[str]
) -> bool:
    if instr.id in claimed or not rmap.verdicts.get(instr.id, False):
        return False
    shape = instr.shape
    if not isinstance(shape, Shape) or shape.dims != dims:
        return False
    if instr.opcode in _MEMBER_OPCODES:
        return True
    if instr.opcode == "broadcast":
        op = instr.operands[0].shape
        return isinstance(op, Shape) and op.rank == 0
    if instr.opcode in ("get-tuple-element", "parameter"):
        # state reads: loop slot projections, or annotated parameters when
        # the step computation is the entry itself
        return True
    return False


def enclosing_loop(m: Module, comp: Computation) -> Instruction | None:
    for ins in m.all_instructions():
        if ins.opcode == "while" and ins.body is comp:
            return ins
    return None


def find_clusters(comp: Computation, rmap: RedundancyMap, m: Module) -> list[Cluster]:
    """One cluster per full-group single-tensor all-reduce in `comp`.

    Growth walks users and operands of members; it stops at non-redundant
    instructions, unsupported opcodes, the computation root and side effects,
    which become frontier entries. Clusters are pairwise disjoint.
    """
    loop = enclosing_loop(m, comp)
    users: dict[str, list[Instruction]] = {}
    for ins in comp.instructions:
        for o in ins.operands:
            users.setdefault(o.id, []).append(ins)

    state_param = None
    params = comp.parameters
    if len(params) == 1 and isinstance(params[0].shape, TupleShape):
        state_param = params[0]

    claimed: set[str] = set()
    clusters: list[Cluster] = []
    for anchor in comp.instructions:
        if anchor.opcode != "all-reduce" or len(anchor.operands) != 1:
            continue
        if not (anchor.groups.is_all or len(anchor.groups.groups) == 1):
            continue
        if not isinstance(anchor.shape, Shape) or anchor.shape.rank == 0:
            continue
        dims = anchor.shape.dims
        etype = anchor.shape.etype
        members: dict[str, Instruction] = {anchor.id: anchor}
        work = [anchor]
        while work:
            cur = work.pop()
            for user in users.get(cur.id, ()):
                if user.id not in members and _is_member_candidate(user, dims, rmap, claimed):
                    members[user.id] = user
                    work.append(user)
            if cur is anchor:
                continue
            for op in cur.operands:
                if op.id not in members and op is not anchor and _is_member_candidate(
                    op, dims, rmap, claimed
                ):
                    members[op.id] = op
                    work.append(op)

        # Prune members that feed nothing inside the cluster and are not state
        # outputs: sharding them only forces an extra gather, so they stay in
        # the replicated full domain instead.
        root_op_ids = (
            {o.id for o in comp.root.operands} if comp.root.opcode == "tuple" else set()
        )
        changed = True
        while changed:
            changed = False
            for ins in list(members.values()):
                if ins is anchor:
                    continue
                if any(u.id in members for u in users.get(ins.id, ())):
                    continue
                if ins.id in root_op_ids:
                    continue
                del members[ins.id]
                changed = True

        inputs: list[Instruction] = []
        frontier: list[FrontierUse] = []
        for ins in members.values():
            for user in users.get(ins.id, ()):
                if user.id not in members:
                    frontier.append(_classify_use(ins, user, comp, loop))
            if ins is anchor:
                continue
            for op in ins.operands:
                if op.id in members or op is anchor:
                    continue
                if (
                    isinstance(op.shape, Shape)
                    and op.shape.dims == dims
                    and rmap.verdicts.get(op.id, False)
                    and op.opcode != "parameter"
                    and op not in inputs
                ):
                    inputs.append(op)
                # scalar and non-matching operands pass through untouched

        state_slots: dict[int, tuple[Instruction, bool]] = {}
        if state_param is not None:
            root_ops = comp.root.operands if comp.root.opcode == "tuple" else ()
            for ins in members.values():
                if ins.opcode == "get-tuple-element" and ins.operands[0] is state_param:
                    slot = ins.index
                    paired = (
                        slot < len(root_ops)
                        and root_ops[slot].id in members
                        and root_ops[slot] is not anchor
                    )
                    state_slots[slot] = (ins, paired)

        claimed.update(members)
        clusters.append(
            Cluster(
                anchor=anchor,
                computation=comp,
                members=members,
                inputs=inputs,
                frontier=frontier,
                state_slots=state_slots,
                dims=dims,
                etype=etype,
            )
        )
    return clusters


def _classify_use(member: Instruction, user: Instruction, comp: Computation, loop: Instruction | None) -> FrontierUse:
    if user is comp.root and user.opcode == "tuple":
        slot = next(i for i, o in enumerate(user.operands) if o is member)
        return FrontierUse(member, user, "loop-output", slot=slot)
    if user.opcode == "outfeed":
        return FrontierUse(member, user, "outfeed")
    if user.opcode == "tuple":
        # a tuple bundling full tensors for a conditional branch
        for maybe_cond in _users_of(user, comp):
            if maybe_cond.opcode == "conditional":
                if loop is not None:
                    freq = estimate_branch_frequency(maybe_cond, loop)
                else:
                    freq = predicate_mod_frequency(maybe_cond.operands[0])
                return FrontierUse(member, user, "branch", frequency=freq)
        if user is comp.root:
            slot = next(i for i, o in enumerate(user.operands) if o is member)
            return FrontierUse(member, user, "loop-output", slot=slot)
    return FrontierUse(member, user, "in-loop")


def _users_of(instr: Instruction, comp: Computation) -> list[Instruction]:
    return [i for i in comp.instructions if instr in i.operands]


# --------------------------------------------------------------------------- #
# Loop shape analysis: induction variable, trip count, branch frequency
# --------------------------------------------------------------------------- #


def _constant_scalar(instr: Instruction) -> float | None:
    if instr.opcode == "constant" and isinstance(instr.shape, Shape) and instr.shape.rank == 0:
        return instr.value[0]
    return None


def induction_slot(w: Instruction) -> tuple[int, float, str] | None:
    """(slot, bound, direction) for a counted loop `while i < K`."""
    cond = w.cond
    root = cond.root
    if root.opcode != "compare" or root.direction not in ("lt", "le"):
        return None
    lhs, rhs = root.operands
    bound = _constant_scalar(rhs)
    if bound is None:
        return None
    param = cond.parameters[0] if cond.parameters else None
    if lhs.opcode != "get-tuple-element" or lhs.operands[0] is not param:
        return None
    slot = lhs.index
    # the body must step the slot by one
    body_root = w.body.root
    if body_root.opcode != "tuple" or slot >= len(body_root.operands):
        return None
    upd = body_root.operands[slot]
    if upd.opcode != "add":
        return None
    ops = upd.operands
    body_param = w.body.parameters[0]
    is_ind = (
        lambda x: x.opcode == "get-tuple-element"
        and x.operands[0] is body_param
        and x.index == slot
    )
    if is_ind(ops[0]) and _constant_scalar(ops[1]) == 1.0:
        pass
    elif is_ind(ops[1]) and _constant_scalar(ops[0]) == 1.0:
        pass
    else:
        return None
    return slot, bound, root.direction


def loop_trip_count(w: Instruction) -> int | None:
    """Trip count when the loop is a counted `i = c0; while i < K: i += 1`."""
    ind = induction_slot(w)
    if ind is None:
        return None
    slot, bound, direction = ind
    init = w.operands[0]
    if init.opcode != "tuple" or slot >= len(init.operands):
        return None
    c0 = _constant_scalar(init.operands[slot])
    if c0 is None:
        return None
    trips = int(bound - c0)
    if direction == "le":
        trips += 1
    return max(trips, 0)


def predicate_mod_frequency(pred: Instruction) -> Fraction | None:
    """Match `compare(i - (i div k) * k, c, eq)` and return 1/k.

    The subtraction pattern is the remainder of the loop counter; anything
    else is Unknown (None) and treated as running every step.
    """
    if pred.opcode != "compare" or pred.direction != "eq":
        return None
    lhs, rhs = pred.operands
    if _constant_scalar(rhs) is None:
        lhs, rhs = rhs, lhs
    c = _constant_scalar(rhs)
    if c is None:
        return None
    if lhs.opcode != "sub":
        return None
    i_expr, prod = lhs.operands
    if prod.opcode != "mul":
        return None
    a, b = prod.operands
    k = _constant_scalar(b)
    quot = a
    if k is None:
        k = _constant_scalar(a)
        quot = b
    if k is None or quot.opcode != "div":
        return None
    if quot.operands[0] is not i_expr:
        return None
    k2 = _constant_scalar(quot.operands[1])
    if k2 != k or k is None or k < 1:
        return None
    if not 0 <= c < k:
        return None  # remainder never equals c; treat as unknown
    return Fraction(1, int(k))


def estimate_branch_frequency(cond: Instruction, loop: Instruction) -> Fraction | None:
    """Execution frequency of `cond`'s true branch inside `loop`'s body.

    Recognizes predicates testing the loop induction variable modulo a
    constant; everything else is Unknown (None, treated as every step).
    """
    freq = predicate_mod_frequency(cond.operands[0])
    if freq is None:
        return None
    ind = induction_slot(loop)
    if ind is None:
        return None
    # the counter in the predicate must be the loop induction variable
    pred = cond.operands[0]
    lhs = pred.operands[0] if pred.operands[0].opcode == "sub" else pred.operands[1]
    i_expr = lhs.operands[0]
    body_param = loop.body.parameters[0] if loop.body.parameters else None
    if (
        i_expr.opcode != "get-tuple-element"
        or i_expr.operands[0] is not body_param
        or i_expr.index != ind[0]
    ):
        return None
    return freq


# --------------------------------------------------------------------------- #
# Decisions
# --------------------------------------------------------------------------- #


@dataclass
class AgSite:
    tensor: str  # member instruction id gathered in full
    placement: str  # "in-loop" | "loop-boundary" | "branch"
    weight: float  # executions per step

    def to_dict(self):
        return {"tensor": self.tensor, "placement": self.placement, "weight": self.weight}


@dataclass
class ShardingDecision:
    cluster: Cluster
    shard: bool
    groups: ReplicaGroups
    spec: ShardingSpec | None
    benefit_sec: float
    cost_sec: float
    update_bytes: int
    ag_sites: list[AgSite] = field(default_factory=list)
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "anchor": self.cluster.anchor.id,
            "members": sorted(self.cluster.members),
            "frontier": [
                {"member": f.member.id, "user": f.user.id, "placement": f.placement}
                for f in self.cluster.frontier
            ],
            "benefit_sec": self.benefit_sec,
            "cost_sec": self.cost_sec,
            "update_bytes": self.update_bytes,
            "decision": "shard" if self.shard else "keep",
            "groups": str(self.groups),
            "spec": str(self.spec) if self.spec else None,
            "ag_sites": [s.to_dict() for s in self.ag_sites],
            "reason": self.reason,
        }


def select_groups(shape: Shape, m: Module, threshold: int = PARTIAL_SHARDING_THRESHOLD_BYTES) -> ReplicaGroups:
    """Full sharding by default; on a mesh, shard within rows instead when the
    fully-sharded piece would be small enough to be latency-bound, or when the
    row-local format wastes fewer padded bytes than the full one."""
    topo = m.topology
    if topo.kind != "mesh" or topo.rows <= 1 or topo.cols <= 1:
        return ALL_REPLICAS
    rows = topo.row_groups()
    full_spec = choose_spec(shape, m.replica_count, m.tile)
    shard_bytes = physical_bytes(Shape(full_spec.shard_dims, shape.etype), m.tile)
    if shard_bytes < threshold:
        return rows
    row_spec = choose_spec(shape, rows.group_size(m.replica_count), m.tile, rows)
    if row_spec.waste_bytes(shape.etype, m.tile) < full_spec.waste_bytes(shape.etype, m.tile):
        return rows
    return ALL_REPLICAS


def cluster_io_bytes(cluster: Cluster, m: Module) -> int:
    """Combined physical bytes of the update subgraph's inputs and outputs.

    Inputs: the anchor's reduced gradient, state reads (slot projections and
    parameter members, which carry data in from outside the step) and any
    non-member tensors the update consumes. Outputs: update values consumed
    outside the cluster (state writes, frontier uses). Broadcast members and
    intermediate arithmetic fuse away and do not count.
    """
    conduits = {
        i.id
        for i in cluster.members.values()
        if i.opcode in ("get-tuple-element", "parameter")
    }
    compute = {
        i.id
        for i in cluster.update_members
        if i.id not in conduits
    }
    if not compute:
        return 0
    tensor = physical_bytes(Shape(cluster.dims, cluster.etype), m.tile)
    total = tensor  # the anchor's output feeds the update
    seen: set[str] = {cluster.anchor.id}
    for ins in cluster.update_members:
        for op in ins.operands:
            if op.id in compute or op.id in seen or op is cluster.anchor:
                continue
            if op.id in conduits or (
                isinstance(op.shape, Shape) and op.shape.dims == cluster.dims
            ):
                seen.add(op.id)
                if op.opcode != "broadcast":
                    total += physical_bytes(op.shape, m.tile)
    users: dict[str, list[Instruction]] = {}
    for ins in cluster.computation.instructions:
        for o in ins.operands:
            users.setdefault(o.id, []).append(ins)
    member_ids = set(cluster.members)
    for ins in cluster.update_members:
        if ins.id in conduits or ins.id in seen:
            continue
        if any(u.id not in member_ids for u in users.get(ins.id, ())):
            total += physical_bytes(ins.shape, m.tile)
    return total


def evaluate(
    cluster: Cluster,
    m: Module,
    cm: CostModel | None = None,
    steps: int | None = None,
    loop: Instruction | None = None,
) -> ShardingDecision:
    """Decide whether to shard one cluster. Benefit is the saved update
    traffic; cost is the weighted time of the all-gathers sharding makes
    necessary, minus the one every-step gather the decomposed all-reduce
    already pays for. Ties keep the cluster unsharded."""
    cm = cm or CostModel()
    n = m.replica_count
    shape = Shape(cluster.dims, cluster.etype)
    groups = select_groups(shape, m)
    s = groups.group_size(n)
    spec = choose_spec(shape, s, m.tile, groups)

    if steps is None:
        steps = loop_trip_count(loop) if loop is not None else None
        if steps is None:
            steps = DEFAULT_TRIP_COUNT
        steps = max(steps, 1)

    update_bytes = cluster_io_bytes(cluster, m)
    benefit = cm.compute_time(update_bytes) * (1.0 - 1.0 / s) if s > 1 else 0.0

    veto = None
    ag_sites: list[AgSite] = []
    in_loop_tensors: list[str] = []
    for f in cluster.frontier:
        if f.placement == "outfeed":
            veto = f"unconditioned outfeed of %{f.member.id} needs the full tensor every step"
        elif f.placement == "in-loop":
            if f.member.id not in in_loop_tensors:
                in_loop_tensors.append(f.member.id)
        elif f.placement == "branch":
            freq = float(f.frequency) if f.frequency is not None else 1.0
            ag_sites.append(AgSite(f.member.id, "branch", freq))
        # loop-output uses of paired slots stay sharded; gathering moves to
        # the unsharding program
    for tensor in in_loop_tensors:
        ag_sites.append(AgSite(tensor, "in-loop", 1.0))
    for slot, (gte, paired) in sorted(cluster.state_slots.items()):
        if paired:
            ag_sites.append(AgSite(gte.id, "loop-boundary", 1.0 / steps))

    def time_of(phases):
        return sum(cm.phase_time(p.rounds, p.piece_bytes) for p in phases)

    # Communication delta: the reduce-scatter plus the weighted all-gathers
    # replace the anchoring all-reduce. With a low-waste format one in-loop
    # gather comes out free; pad-heavy formats pay their padding here.
    ag_time = time_of(collective_phases("all_gather", shape, m.topology, groups, spec, m.tile))
    rs_time = time_of(collective_phases("reduce_scatter", shape, m.topology, groups, spec, m.tile))
    ar_time = time_of(all_reduce_phases(physical_bytes(shape, m.tile), m.topology, ALL_REPLICAS))
    if not groups.is_all:
        # partial sharding adds a cross-group all-reduce on the shard
        shard_bytes = physical_bytes(Shape(spec.shard_dims, shape.etype), m.tile)
        rs_time += time_of(all_reduce_phases(shard_bytes, m.topology, m.topology.col_groups()))
    cost_sec = rs_time + sum(site.weight * ag_time for site in ag_sites) - ar_time

    shard = (
        veto is None
        and s > 1
        and update_bytes > 0
        and benefit > cost_sec
        and bool(cluster.update_members)
    )
    reason = veto or (
        f"benefit {benefit:.3e}s vs cost {cost_sec:.3e}s over {steps} steps"
    )
    return ShardingDecision(
        cluster=cluster,
        shard=shard,
        groups=groups,
        spec=spec,
        benefit_sec=benefit,
        cost_sec=cost_sec,
        update_bytes=update_bytes,
        ag_sites=ag_sites,
        reason=reason,
    )


def plan(m: Module, cm: CostModel | None = None, steps: int | None = None) -> list[ShardingDecision]:
    """Full analysis pipeline: redundancy, clusters in the training-step
    computation, and a decision per cluster."""
    rmap = analyze(m)
    loop = next((i for i in m.entry.instructions if i.opcode == "while"), None)
    comp = loop.body if loop is not None else m.entry
    clusters = find_clusters(comp, rmap, m)
    return [evaluate(c, m, cm, steps=steps, loop=loop) for c in clusters]


def update_member_ids(decisions: list[ShardingDecision]) -> set[str]:
    """Ids of the instructions whose compute counts as weight update: every
    cluster's members, the anchor all-reduce excluded, sharded or kept. The
    transform keeps these ids, so the set applies to its output too."""
    return {i.id for d in decisions for i in d.cluster.update_members}
