"""Weight-update cluster discovery and sharding profitability.

Each `groups=all` all-reduce anchors one cluster: the redundant elementwise
update operators reachable from it, plus the loop-state slots they read and
write. Everything that needs the full tensor (forward-pass consumers, program
outputs, outfeeds) lands on the frontier and becomes an all-gather site.

The benefit of sharding a cluster is the memory-bound time of its non-fusible
inputs and outputs scaled by (1 - 1/S); the cost is the modeled time of the
all-gathers weighted by how often they run. One every-step all-gather per
cluster is free: decomposing the anchor all-reduce into reduce-scatter plus
all-gather already pays for it. Trip counts, branch frequencies and the
amortization horizon are `costmodel`'s rules, the ones `cost` uses too.

This module makes every sharding decision: whether a cluster shards (a
cluster whose loop state cannot stay sharded is kept, see `state_veto`), and
in which format (`select_spec`: sharded over all replicas, or within the rows
of a mesh). A decision's spec is its one record of the format and of the
replica group it shards over (`spec.group`). `transform.apply` emits exactly
the decisions it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .costmodel import (  # `DEFAULT_TRIP_COUNT` and `loop_trip_count` are re-exported here
    DEFAULT_TRIP_COUNT,
    CostModel,
    all_reduce_phases,
    amortization_steps,
    branch_frequency,
    collective_phases,
    loop_trip_count,
)
from .ir import (
    ALL_REPLICAS,
    Computation,
    ELEMENTWISE_BINARY,
    Instruction,
    Module,
    Shape,
    TupleShape,
    physical_bytes,
    users_map,
)
from .redundancy import RedundancyMap, analyze
from .sharding import ShardingSpec, choose_spec

PARTIAL_SHARDING_THRESHOLD_BYTES = 64 * 1024


@dataclass
class FrontierUse:
    member: Instruction  # cluster value consumed in full form
    user: Instruction
    placement: str  # "in-loop" | "loop-output" | "branch" | "outfeed"
    frequency: Fraction | None = None


@dataclass
class Cluster:
    anchor: Instruction
    computation: Computation
    members: dict[str, Instruction]
    frontier: list[FrontierUse]
    state_slots: dict[int, tuple[Instruction, bool]]  # slot k -> (reader of input k, written back by root element k)

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


def find_clusters(
    comp: Computation,
    rmap: RedundancyMap,
    users: dict[str, list[Instruction]],
    loop: Instruction | None,
) -> list[Cluster]:
    """One cluster per `groups=all` single-tensor all-reduce in `comp`.

    An anchor that lists its group explicitly is left alone, even when the
    group holds every replica: on a mesh it runs as one ring, while the
    rewrite emits `groups=all` collectives that run two-phase, so the sums
    would come out in a different order.

    Growth walks users and operands of members; it stops at non-redundant
    instructions, unsupported opcodes, the computation root and side effects,
    which become frontier entries. Clusters are pairwise disjoint.

    The step's state follows one rule: slot k is read from input k and
    written back by root element k. In a loop body, input k is element k of
    the state tuple, read by a projection; in the entry, it is parameter k.
    `Cluster.state_slots` holds each slot a member reads, written back when
    root element k is an update member of the same cluster.

    `users` is `ir.users_map(comp)` and `loop` the while whose body is
    `comp`, or None when `comp` is the entry.
    """
    root = comp.root
    root_ops = root.operands if root.opcode == "tuple" else ()
    root_outputs = {o.id for o in root_ops}
    branch_freq: dict[str, Fraction | None] = {}  # conditional id -> frequency

    def classify(member: Instruction, user: Instruction) -> FrontierUse:
        if user is root and user.opcode == "tuple":
            return FrontierUse(member, user, "loop-output")
        if user.opcode == "outfeed":
            return FrontierUse(member, user, "outfeed")
        if user.opcode == "tuple":
            # a tuple bundling full tensors for a conditional branch
            cond = next((u for u in users.get(user.id, ()) if u.opcode == "conditional"), None)
            if cond is not None:
                if cond.id not in branch_freq:
                    branch_freq[cond.id] = branch_frequency(cond, loop)
                return FrontierUse(member, user, "branch", frequency=branch_freq[cond.id])
        return FrontierUse(member, user, "in-loop")

    state_param = None  # the loop state, when `comp` is the body
    params = comp.parameters
    if loop is not None and len(params) == 1 and isinstance(params[0].shape, TupleShape):
        state_param = params[0]

    claimed: set[str] = set()
    clusters: list[Cluster] = []
    for anchor in comp.instructions:
        if anchor.opcode != "all-reduce" or len(anchor.operands) != 1:
            continue
        if not anchor.groups.is_all:
            continue
        if not isinstance(anchor.shape, Shape) or anchor.shape.rank == 0:
            continue
        dims = anchor.shape.dims
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
        changed = True
        while changed:
            changed = False
            for ins in list(members.values()):
                if ins is anchor:
                    continue
                if any(u.id in members for u in users.get(ins.id, ())):
                    continue
                if ins.id in root_outputs:
                    continue
                del members[ins.id]
                changed = True

        frontier: list[FrontierUse] = []
        for ins in members.values():
            for user in users.get(ins.id, ()):
                if user.id not in members:
                    frontier.append(classify(ins, user))

        state_slots: dict[int, tuple[Instruction, bool]] = {}
        for ins in members.values():
            if loop is None:
                reads_state = ins.opcode == "parameter"
            else:
                reads_state = ins.opcode == "get-tuple-element" and ins.operands[0] is state_param
            if reads_state:
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
                frontier=frontier,
                state_slots=state_slots,
            )
        )
    return clusters


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
    spec: ShardingSpec
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
            "groups": str(self.spec.group),
            "spec": str(self.spec),
            "ag_sites": [s.to_dict() for s in self.ag_sites],
            "reason": self.reason,
        }


def select_spec(shape: Shape, m: Module) -> ShardingSpec:
    """The format to shard `shape` in: over all replicas by default; on a
    mesh, within its rows instead when the fully-sharded piece would be small
    enough to be latency-bound, or when the row-local format wastes fewer
    padded bytes than the full one."""
    topo = m.topology
    full_spec = choose_spec(shape, m.replica_count, m.tile)
    if topo.kind != "mesh" or topo.rows <= 1 or topo.cols <= 1:
        return full_spec
    rows = topo.row_groups()
    row_spec = choose_spec(shape, rows.group_size(m.replica_count), m.tile, rows)
    shard_bytes = physical_bytes(full_spec.shard_shape(shape.etype), m.tile)
    if shard_bytes < PARTIAL_SHARDING_THRESHOLD_BYTES:
        return row_spec
    if row_spec.waste_bytes(shape.etype, m.tile) < full_spec.waste_bytes(shape.etype, m.tile):
        return row_spec
    return full_spec


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


def state_veto(cluster: Cluster, loop: Instruction | None) -> str | None:
    """Why the cluster's state cannot stay sharded across steps, or None when
    it can. Every state slot the update reads must be written back by the
    update at its own position (`find_clusters`'s rule), with or without a
    loop; with one, the loop condition, which would see a shard of the slot,
    must not read it."""
    cond_slots = _slots_read(loop.cond) if loop is not None else set()
    for slot, (_, paired) in sorted(cluster.state_slots.items()):
        if not paired:
            return f"state slot {slot} is not written back by the update"
        if slot in cond_slots:
            return f"state slot {slot} is read by the loop condition"
    return None


def cluster_io_bytes(cluster: Cluster, m: Module, users: dict[str, list[Instruction]]) -> int:
    """Combined physical bytes of the update subgraph's inputs and outputs.

    Inputs: the anchor's reduced gradient, state reads (slot projections and
    parameter members, which carry data in from outside the step) and any
    non-member tensors the update consumes. Outputs: update values consumed
    outside the cluster (state writes, frontier uses). Broadcast members and
    intermediate arithmetic fuse away and do not count.

    `users` is `ir.users_map(cluster.computation)`.
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
    total = physical_bytes(cluster.anchor.shape, m.tile)  # the anchor's output feeds the update
    seen: set[str] = {cluster.anchor.id}
    for ins in cluster.update_members:
        for op in ins.operands:
            if op.id in compute or op.id in seen or op is cluster.anchor:
                continue
            if op.id in conduits or (
                isinstance(op.shape, Shape) and op.shape.dims == cluster.anchor.shape.dims
            ):
                seen.add(op.id)
                if op.opcode != "broadcast":
                    total += physical_bytes(op.shape, m.tile)
    for ins in cluster.update_members:
        if ins.id in conduits or ins.id in seen:
            continue
        if any(u.id not in cluster.members for u in users.get(ins.id, ())):
            total += physical_bytes(ins.shape, m.tile)
    return total


def evaluate(
    cluster: Cluster,
    m: Module,
    users: dict[str, list[Instruction]],
    loop: Instruction | None,
    cm: CostModel | None = None,
    steps: int | None = None,
) -> ShardingDecision:
    """Decide whether to shard one cluster. Benefit is the saved update
    traffic; cost is the weighted time of the all-gathers sharding makes
    necessary, minus the one every-step gather the decomposed all-reduce
    already pays for. Ties keep the cluster unsharded, and so do the vetoes:
    an unconditioned outfeed of a member, or loop state that cannot stay
    sharded (`state_veto`; `loop` is the loop whose body holds the cluster).
    A vetoed decision's reason names the veto. The loop-boundary gathers are
    amortized over `costmodel.amortization_steps(loop, steps)`. `users` is
    the users map of the cluster's computation, which `plan` builds once for
    all clusters."""
    cm = cm or CostModel()
    shape = cluster.anchor.shape
    spec = select_spec(shape, m)
    s = spec.shard_count

    steps = amortization_steps(loop, steps)
    update_bytes = cluster_io_bytes(cluster, m, users)
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
    veto = veto or state_veto(cluster, loop)
    for tensor in in_loop_tensors:
        ag_sites.append(AgSite(tensor, "in-loop", 1.0))
    # a loop's boundary gathers; those of a loop-less step's unshard program
    # are not priced here, only in `pipeline.Compiled.model`
    if loop is not None:
        for slot, (read, paired) in sorted(cluster.state_slots.items()):
            if paired:
                ag_sites.append(AgSite(read.id, "loop-boundary", 1.0 / steps))

    # Communication delta: the reduce-scatter plus the weighted all-gathers
    # replace the anchoring all-reduce. With a low-waste format one in-loop
    # gather comes out free; pad-heavy formats pay their padding here.
    ag_time = cm.phases_time(collective_phases("all_gather", spec, shape.etype, m.topology, m.tile))
    rs_time = cm.phases_time(collective_phases("reduce_scatter", spec, shape.etype, m.topology, m.tile))
    ar_time = cm.phases_time(all_reduce_phases(physical_bytes(shape, m.tile), m.topology, ALL_REPLICAS))
    if not spec.group.is_all:
        # partial sharding adds a cross-group all-reduce on the shard
        shard_bytes = physical_bytes(spec.shard_shape(shape.etype), m.tile)
        rs_time += cm.phases_time(all_reduce_phases(shard_bytes, m.topology, m.topology.col_groups()))
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
        spec=spec,
        benefit_sec=benefit,
        cost_sec=cost_sec,
        update_bytes=update_bytes,
        ag_sites=ag_sites,
        reason=reason,
    )


def plan(m: Module, cm: CostModel | None = None, steps: int | None = None) -> list[ShardingDecision]:
    """Full analysis pipeline: redundancy, clusters in the training-step
    computation, and a decision per cluster. The users map of the step
    computation and the amortization horizon are worked out once for all; a
    `steps` below 1 raises `ValueError`."""
    loop = m.training_loop()
    steps = amortization_steps(loop, steps)
    rmap = analyze(m)
    comp = loop.body if loop is not None else m.entry
    users = users_map(comp)
    clusters = find_clusters(comp, rmap, users, loop)
    return [evaluate(c, m, users, loop, cm, steps) for c in clusters]


def update_member_ids(decisions: list[ShardingDecision]) -> set[str]:
    """Ids of the instructions whose compute counts as weight update: every
    cluster's members, the anchor all-reduce excluded, sharded or kept. The
    transform keeps these ids, so the set applies to its output too."""
    return {i.id for d in decisions for i in d.cluster.update_members}
