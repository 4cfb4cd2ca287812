"""Alpha-beta communication cost model and memory-bound compute model.

Every collective is modeled as a sequence of ring phases; a phase of `rounds`
rounds exchanging `piece_bytes` per round per replica costs
`rounds * (alpha + piece_bytes / link_bandwidth)`. Compute is memory-bound:
an operator costs (bytes read + bytes written) / mem_bandwidth. No overlap of
compute and communication is modeled; phase times add up.

`collective_phases` and `all_reduce_phases` are the one ring schedule. The
planner prices the collectives it considers with them; `instruction_phases`
applies them to a collective instruction, for `simulator.cost` and for the
counters of the collectives a simulator run executes.

All-reduce bytes follow the ring convention of Thakur et al. (MPICH, 2005):
2(G-1) rounds of D/G bytes, where D is the flat physical size of the
operands. The simulator folds an all-reduce's values in the exposed-format
order of a reduce-scatter plus all-gather (padded pieces), so that a
decomposed all-reduce is bitwise equal to the original; it still counts bytes
as the ring moves them, in flat D/G pieces, because an all-reduce never
exposes its internal sharding and need not pad it. Reduce-scatters and
all-gathers do expose their format, so their pieces are the format's padded
shard bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import Instruction, Module, ReplicaGroups, Shape, Topology, physical_bytes
from .sharding import ShardingSpec, choose_spec


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

    def phase_time(self, rounds: int, piece_bytes: float) -> float:
        return rounds * (self.per_message_latency + piece_bytes / self.link_bandwidth)

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


def collective_phases(
    op: str,  # "reduce_scatter" | "all_gather"
    shape: Shape,
    topology: Topology,
    group: ReplicaGroups,
    spec: ShardingSpec | None = None,
    tile=(8, 128),
) -> list[Phase]:
    """Ring phases for one reduce-scatter or all-gather on one tensor.

    Each takes G-1 rounds per phase, with piece size equal to the sharding
    format's physical shard bytes (piece boundaries must match the exposed
    format, so its padding is transferred too). On a full mesh the algorithm
    is two-phase: rows exchange superpieces (one per column), then columns
    exchange the final shards.
    """
    g = group.group_size(topology.n)
    if g == 1:
        return []
    if spec is None:
        spec = choose_spec(shape, g, tile, group)
    shard_bytes = physical_bytes(Shape(spec.shard_dims, shape.etype), tile)

    if topology.two_phase(group):
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
        return collective_phases("reduce_scatter", instr.operands[0].shape, m.topology, spec.group, spec, m.tile)
    return collective_phases("all_gather", instr.shape, m.topology, spec.group, spec, m.tile)


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


def collective_cost(
    instruction_id: str,
    op: str,
    phases: list[Phase],
    cm: CostModel,
    group_size: int,
) -> CollectiveCost:
    rounds = sum(p.rounds for p in phases)
    moved = sum(p.rounds * p.piece_bytes for p in phases)
    time = sum(cm.phase_time(p.rounds, p.piece_bytes) for p in phases)
    latency = cm.per_message_latency * rounds > moved / cm.link_bandwidth
    return CollectiveCost(
        instruction=instruction_id,
        op=op,
        group_size=group_size,
        rounds=rounds,
        bytes_per_replica=moved,
        modeled_time=time,
        latency_bound=latency,
    )
