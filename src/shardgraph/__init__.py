"""shardgraph: cross-replica weight-update sharding on a small dataflow IR,
with a deterministic multi-replica simulator and communication cost model."""

from .ir import (
    ALL_REPLICAS,
    Computation,
    ElementType,
    F16R,
    F32,
    GraphBuilder,
    Instruction,
    Module,
    PRED,
    ReplicaGroups,
    S32,
    Shape,
    Topology,
    TupleShape,
    mesh_topology,
    physical_bytes,
    ring_topology,
    scalar,
    topo_order,
    users_map,
)
from .textfmt import ParseError, parse_module, print_module
from .verify import Diagnostic, check, verify
from .sharding import (
    Bitcast,
    Pad,
    ShardingSpec,
    TrivialReshape,
    build_masked_reduce,
    build_reduce_scatter,
    build_shard_ops,
    build_unshard_ops,
    choose_spec,
    parse_spec_string,
    validate_for_reduce,
)
from .redundancy import RedundancyMap, analyze
from .costmodel import CostModel, CostReport, amortization_steps, cost, estimate_branch_frequency, loop_trip_count
from .memory import Manifest, MemoryReport, VariableInfo, baseline_manifest, memory_plan, memory_plan_for
from .simulator import (
    CollectiveStats,
    PerReplica,
    RunResult,
    SimulationError,
    run,
)
from .profitability import Cluster, ShardingDecision, evaluate, find_clusters, plan

__version__ = "0.1.0"
