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
from .redundancy import RedundancyMap, analyze, analyze_conditional, analyze_loop
from .costmodel import CostModel
from .memory import Manifest, MemoryReport, VariableInfo, memory_plan
from .simulator import (
    CollectiveStats,
    CostReport,
    PerReplica,
    RunResult,
    SimulationError,
    cost,
    ring_all_gather,
    ring_reduce_scatter,
    run,
)
from .profitability import (
    Cluster,
    ShardingDecision,
    estimate_branch_frequency,
    evaluate,
    find_clusters,
    loop_trip_count,
    plan,
)

__version__ = "0.1.0"
