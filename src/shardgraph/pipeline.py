"""The compare pipeline, the one composition of the compiler and the oracle:
`compile_module` emits the three-program split for a module and its
decisions; `Compiled.run` runs baseline against shard → main → unshard,
`max_diffs` diffs their outputs, and `Compiled.model` models step time and
peak memory. Callers bring the decisions and the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transform
from .costmodel import CostModel, CostReport, amortization_steps, cost
from .ir import Module
from .memory import MemoryReport, baseline_manifest, memory_plan_for
from .profitability import ShardingDecision, update_member_ids
from .simulator import PerReplica, run


def chain_inputs(module: Module, outputs_per_replica) -> dict:
    """`module`'s entry parameters bound to another program's outputs:
    parameter k takes output k, the step state rule of
    `profitability.find_clusters`. An output that is one array, not a tuple,
    is output 0."""
    outs = [out if isinstance(out, tuple) else (out,) for out in outputs_per_replica]
    return {p.id: PerReplica([out[k] for out in outs]) for k, p in enumerate(module.entry.parameters)}


def _run_chained(m: Module, inputs: dict, seed: int, k: int):
    outs = run(m, inputs, seed=seed).outputs
    for _ in range(k - 1):
        outs = run(m, chain_inputs(m, outs), seed=seed).outputs
    return outs


def _flatten(v) -> list[np.ndarray]:
    if isinstance(v, tuple):
        return [a for e in v for a in _flatten(e)]
    return [np.asarray(v)]


def max_diffs(base_outputs, outputs) -> tuple[float, float]:
    """(max |a - b|, max |a - b| / (1 + |a|)) over replicas and outputs, `a`
    from the baseline. The scaled diff acts as a relative tolerance on large
    values and an absolute one near zero. Equal elements differ by 0, and so
    do NaNs at the same position; any other NaN is an infinite diff."""
    worst = [0.0, 0.0]
    for ra, rb in zip(base_outputs, outputs):
        for xa, xb in zip(_flatten(ra), _flatten(rb)):
            a, b = xa.astype(np.float64), xb.astype(np.float64)
            differ = ~((a == b) | (np.isnan(a) & np.isnan(b)))
            with np.errstate(invalid="ignore"):
                d = np.abs(a - b)
                for k, x in enumerate((d, d / (1.0 + np.abs(a)))):  # absolute, then scaled
                    x = np.nan_to_num(x, nan=np.inf, posinf=np.inf)
                    worst[k] = max(worst[k], float(np.max(x, where=differ, initial=0.0)))
    return worst[0], worst[1]


@dataclass(frozen=True)
class Model:
    """Modeled step time and peak memory of the baseline and of the split."""

    baseline_cost: CostReport
    transformed_cost: CostReport  # the main program's
    boundary: float  # the shard and unshard programs' time per step
    speedup: float
    baseline_memory: MemoryReport
    transformed_memory: MemoryReport
    memory_saving: float


@dataclass(frozen=True)
class Compiled:
    """`baseline` split under `decisions`; `main` is demoted and batched
    unless switched off. `steps` is the caller's horizon, if any."""

    baseline: Module
    decisions: list[ShardingDecision]
    result: transform.TransformResult
    main: Module
    steps: int | None
    amortize: int  # the steps the shard and unshard programs are spread over

    def run(self, inputs: dict, seed: int):
        """(baseline outputs, shard → main → unshard outputs), per replica.
        Without a loop the step runs `steps` times (default 1), chained."""
        k = 1 if self.baseline.training_loop() is not None else (self.steps or 1)
        base = _run_chained(self.baseline, inputs, seed, k)
        shard, unshard = self.result.shard_program, self.result.unshard_program
        sharded = run(shard, inputs, seed=seed).outputs
        main_out = _run_chained(self.main, chain_inputs(self.main, sharded), seed, k)
        return base, run(unshard, chain_inputs(unshard, main_out), seed=seed).outputs

    def model(self, cm: CostModel) -> Model:
        """Both sides' costs, with the planner's clusters as weight update, and peak memory."""
        members = update_member_ids(self.decisions)
        base_cost, main_cost, shard_cost, unshard_cost = (
            cost(p, cm, members)
            for p in (self.baseline, self.main, self.result.shard_program, self.result.unshard_program)
        )
        boundary = (shard_cost.total_step_time + unshard_cost.total_step_time) / self.amortize
        trans_time = main_cost.total_step_time + boundary
        manifest = self.result.manifest
        base_mem = memory_plan_for(self.baseline, baseline_manifest(manifest), self.baseline)
        trans_mem = memory_plan_for(self.main, manifest, self.baseline)
        speedup = base_cost.total_step_time / trans_time if trans_time else 1.0
        saving = base_mem.peak_bytes / trans_mem.peak_bytes if trans_mem.peak_bytes else 1.0
        return Model(base_cost, main_cost, boundary, speedup, base_mem, trans_mem, saving)


def compile_module(m: Module, decisions, steps: int | None = None, *, demote=True, batch=True) -> Compiled:
    """`transform.apply` amortized over `amortization_steps(loop, steps)`, then demotion and
    batching unless switched off; raises `TransformError` on decisions it cannot emit."""
    amortize = amortization_steps(m.training_loop(), steps)
    result = transform.apply(m, decisions, steps_hint=amortize)
    main = result.main
    if demote:
        main = transform.demote_allgather_precision(main)
    if batch:
        main = transform.batch_collectives(main)
    return Compiled(m, decisions, result, main, steps, amortize)
