"""The oracle's step-time model: alpha-beta communication, memory-bound
compute, and the loop-shape rules that weight loops and branches.

Every collective is modeled as a sequence of ring phases; a phase of `rounds`
rounds exchanging `piece_bytes` per round per replica costs
`rounds * (alpha + piece_bytes / link_bandwidth)`. Compute is memory-bound:
an operator costs (bytes read + bytes written) / mem_bandwidth. No overlap of
compute and communication is modeled; phase times add up (`phases_time`).

`collective_phases` and `all_reduce_phases` are the one ring schedule. The
planner prices the collectives it considers with them; `instruction_phases`
applies them to a collective instruction, for `cost` and for the counters of
the collectives a simulator run executes.

All-reduce bytes follow the ring convention of Thakur et al. (MPICH, 2005):
2(G-1) rounds of D/G bytes, where D is the flat physical size of the
operands. The simulator folds an all-reduce's values in the exposed-format
order of a reduce-scatter plus all-gather (padded pieces), so that a
decomposed all-reduce is bitwise equal to the original; it still counts bytes
as the ring moves them, in flat D/G pieces, because an all-reduce never
exposes its internal sharding and need not pad it. Reduce-scatters and
all-gathers do expose their format, so their pieces are the format's padded
shard bytes.

The loop-shape rules (`loop_trip_count`, `predicate_mod_frequency`,
`estimate_branch_frequency`, and `branch_frequency`, which weights a
conditional for the planner and for `cost` alike) and the amortization
horizon (`amortization_steps`) live here, where the planner and `cost` both
read them, so the oracle imports nothing from the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ir import (
    Computation, ElementType, Instruction, Module, ReplicaGroups, Shape, Topology, is_collective, physical_bytes,
)
from .sharding import ShardingSpec


@dataclass(frozen=True)
class CostModel:
    mem_bandwidth: float = 8e11  # bytes/sec
    link_bandwidth: float = 5e10  # bytes/sec per link
    per_message_latency: float = 1e-6  # seconds (alpha)

    def __post_init__(self):
        if min(self.mem_bandwidth, self.link_bandwidth) <= 0 or self.per_message_latency < 0:
            raise ValueError("bandwidths must be positive and latency non-negative")

    def compute_time(self, bytes_touched: int | float) -> float:
        return bytes_touched / self.mem_bandwidth

    def phases_time(self, phases: list[Phase]) -> float:
        return sum(p.rounds * (self.per_message_latency + p.piece_bytes / self.link_bandwidth) for p in phases)

    @classmethod
    def from_dict(cls, d: dict) -> "CostModel":
        return cls(
            mem_bandwidth=float(d.get("mem_bandwidth", cls.mem_bandwidth)),
            link_bandwidth=float(d.get("link_bandwidth", cls.link_bandwidth)),
            per_message_latency=float(d.get("per_message_latency", cls.per_message_latency)),
        )

    def to_dict(self) -> dict:
        return {
            "mem_bandwidth": self.mem_bandwidth,
            "link_bandwidth": self.link_bandwidth,
            "per_message_latency": self.per_message_latency,
        }


@dataclass(frozen=True)
class Phase:
    rounds: int
    piece_bytes: float


def collective_phases(op: str, spec: ShardingSpec, etype: ElementType, topology: Topology, tile) -> list[Phase]:
    """Ring phases for one reduce-scatter or all-gather (`op` is
    "reduce_scatter" or "all_gather") of a tensor of element type `etype` in
    the format `spec`, over the spec's group.

    Each takes G-1 rounds per phase, with piece size equal to the sharding
    format's physical shard bytes (piece boundaries must match the exposed
    format, so its padding is transferred too). On a full mesh the algorithm
    is two-phase: rows exchange superpieces (one per column), then columns
    exchange the final shards.
    """
    g = spec.group.group_size(topology.n)
    if g == 1:
        return []
    shard_bytes = physical_bytes(spec.shard_shape(etype), tile)

    if topology.two_phase(spec.group):
        m, r = topology.cols, topology.rows
        scatter = [Phase(m - 1, shard_bytes * r), Phase(r - 1, shard_bytes)]
    else:
        scatter = [Phase(g - 1, shard_bytes)]
    gather = list(reversed(scatter))

    if op == "reduce_scatter":
        return scatter
    if op == "all_gather":
        return gather
    raise ValueError(f"unknown collective {op}")


def all_reduce_phases(total_bytes: float, topology: Topology, group: ReplicaGroups) -> list[Phase]:
    """Ring phases for an all-reduce of `total_bytes`. It treats its operands
    (one, or several when variadic) as one concatenated buffer and never
    exposes its internal sharding, so it moves flat D/G pieces."""
    g = group.group_size(topology.n)
    if g == 1:
        return []
    piece = total_bytes / g
    if topology.two_phase(group):
        m, r = topology.cols, topology.rows
        return [Phase(m - 1, piece * r), Phase(r - 1, piece), Phase(r - 1, piece), Phase(m - 1, piece * r)]
    return [Phase(g - 1, piece), Phase(g - 1, piece)]


def instruction_phases(instr: Instruction, m: Module) -> list[Phase]:
    """Ring phases of one execution of a collective instruction: an all-reduce
    (one operand or variadic) or a reduce-scatter, all-gather or unshard
    fusion."""
    if instr.opcode == "all-reduce":
        total = sum(physical_bytes(o.shape, m.tile) for o in instr.operands)
        return all_reduce_phases(total, m.topology, instr.groups)
    spec: ShardingSpec = instr.spec
    if instr.kind == "reduce_scatter":
        return collective_phases("reduce_scatter", spec, instr.operands[0].shape.etype, m.topology, m.tile)
    return collective_phases("all_gather", spec, instr.shape.etype, m.topology, m.tile)


# --------------------------------------------------------------------------- #
# Loop shape analysis: induction variable, trip count, branch frequency
# --------------------------------------------------------------------------- #

DEFAULT_TRIP_COUNT = 1000  # the trips of a loop that is not counted


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
    body_param = w.body.parameters[0]
    if not any(  # `i + 1` or `1 + i`
        i.opcode == "get-tuple-element" and i.operands[0] is body_param and i.index == slot
        and _constant_scalar(one) == 1.0
        for i, one in (upd.operands, upd.operands[::-1])
    ):
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


def branch_frequency(cond: Instruction, loop: Instruction | None) -> Fraction | None:
    """How often `cond`'s true branch runs per step, the rule of the planner
    and the cost model alike: inside `loop`'s body by
    `estimate_branch_frequency`, outside any loop by the predicate alone.
    None is Unknown: every step."""
    if loop is None:
        return predicate_mod_frequency(cond.operands[0])
    return estimate_branch_frequency(cond, loop)


def amortization_steps(loop: Instruction | None, steps: int | None = None) -> int:
    """The number of steps the one-time shard and unshard programs are
    amortized over: `steps` when given, else the counted trip count of
    `loop`, else `DEFAULT_TRIP_COUNT` (no loop, a loop that is not counted,
    or a counted loop of 0 trips)."""
    if steps is not None:
        if steps < 1:
            raise ValueError(f"steps must be at least 1, got {steps}")
        return steps
    return (loop_trip_count(loop) if loop is not None else None) or DEFAULT_TRIP_COUNT


# --------------------------------------------------------------------------- #
# Step time
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
class CollectiveCost:
    instruction: str
    op: str
    group_size: int
    rounds: int  # per execution
    bytes_per_replica: float  # rounds x piece bytes, moved per replica per link
    modeled_time: float  # per execution
    latency_bound: bool
    executions: float = 1.0  # per modeled step (trip counts, branch frequency)


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

    def walk(comp: Computation, weight: float, loop: Instruction | None):
        for instr in comp.instructions:
            op = instr.opcode
            if op == "while":
                trips = loop_trip_count(instr)
                trips = trips if trips is not None else DEFAULT_TRIP_COUNT
                report.trip_count = max(report.trip_count, trips)
                walk(instr.cond, weight * trips, instr)
                walk(instr.body, weight * trips, instr)
                continue
            if op == "conditional":
                freq = branch_frequency(instr, loop)
                f = float(freq) if freq is not None else 1.0
                walk(instr.branches[0], weight * f, loop)
                walk(instr.branches[1], weight * max(0.0, 1.0 - f) if freq is not None else weight, loop)
                report.compute_time += weight * cm.compute_time(_op_bytes(instr, m.tile))
                continue
            if is_collective(instr):
                phases = instruction_phases(instr, m)
                rounds = sum(p.rounds for p in phases)
                moved = sum(p.rounds * p.piece_bytes for p in phases)
                time = cm.phases_time(phases)
                groups = instr.groups if op == "all-reduce" else instr.spec.group
                report.collectives.append(CollectiveCost(
                    instruction=instr.id,
                    op="all-reduce" if op == "all-reduce" else instr.kind,
                    group_size=groups.group_size(m.replica_count),
                    rounds=rounds,
                    bytes_per_replica=moved,
                    modeled_time=time,
                    latency_bound=cm.per_message_latency * rounds > moved / cm.link_bandwidth,
                    executions=weight,
                ))
                report.collective_time += time * weight
                if op == "all-reduce":
                    continue  # fusions also pay the memory-bound time of their formatting
            t = weight * cm.compute_time(_op_bytes(instr, m.tile))
            report.compute_time += t
            if instr.id in update_members:
                report.weight_update_compute += t

    walk(m.entry, 1.0, None)
    report.latency_bound = any(c.latency_bound for c in report.collectives)
    return report
