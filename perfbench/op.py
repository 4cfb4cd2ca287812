"""One op: a case taken through the steps of `shardgraph compare`.

The steps mirror `cli.cmd_compare` call for call, through the public
functions of each module, and are timed from outside:

- compile: parse_module, verify, plan, apply, demote, batch;
- simulate (not on cost-only workloads): baseline, then shard, main and
  unshard programs, then the output diff;
- model: cost of all four programs, memory plans of baseline and main.

Checks that are not part of compare run after the clock stops: outputs and
decisions are digested for the golden comparison, and `verify_emitted`
verifies the emitted programs again. The CLI cross-check keeps these steps equal to compare's.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from shardgraph import cli, profitability, simulator, textfmt, transform
from shardgraph.costmodel import CostModel
from shardgraph.simulator import PerReplica

# the package re-exports the function `verify` under the submodule's name
verify = importlib.import_module("shardgraph.verify")

TOLERANCE = 1e-6  # compare's default --tolerance on the scaled diff


@dataclass
class OpResult:
    case: str
    seconds: float
    compile_seconds: float
    speedup: float
    memory_saving: float
    max_rel_diff: float | None  # None on cost-only workloads
    module_digest: str
    decisions_digest: str
    outputs_digest: str | None
    counts: dict[str, float]
    problems: list[str] = field(default_factory=list)
    emitted: dict = field(default_factory=dict, repr=False)  # until verify_emitted
    unit: int = 0  # the tracer unit the op ran as


def _chain_inputs(m, outputs_per_replica) -> dict:
    return {
        p.id: PerReplica([out[idx] for out in outputs_per_replica])
        for idx, p in enumerate(m.entry.parameters)
    }


def _with_aux(inputs: dict, aux: set[str]) -> dict:
    """The inputs `cli.random_inputs(m, seed, aux_names=aux)` returns, from
    the ones it returned with no aux names: aux draws become |v| * 0.1."""
    if not aux:
        return inputs
    out = dict(inputs)
    for name in aux & inputs.keys():
        v = inputs[name]
        if isinstance(v, PerReplica):
            out[name] = PerReplica([np.abs(x) * 0.1 for x in v.values])
        elif v.dtype.kind == "f":
            out[name] = np.abs(v) * 0.1
    return out


def _flatten(v) -> list[np.ndarray]:
    if isinstance(v, tuple):
        return [a for e in v for a in _flatten(e)]
    return [np.asarray(v)]


def max_scaled_diff(base_outputs, outputs) -> float:
    """compare's max |a - b| / (1 + |a|) over replicas and outputs; a NaN in
    only one of a pair counts as an infinite diff."""
    worst = 0.0
    for ra, rb in zip(base_outputs, outputs):
        for xa, xb in zip(_flatten(ra), _flatten(rb)):
            if xa.size == 0:
                continue
            a, b = xa.astype(np.float64), xb.astype(np.float64)
            rel = float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))
            if math.isnan(rel):
                if not np.array_equal(np.isnan(a), np.isnan(b)):
                    return math.inf
                rel = float(np.nanmax(np.abs(a - b) / (1.0 + np.abs(a)), initial=0.0))
            worst = max(worst, rel)
    return worst


def outputs_digest(outputs) -> str:
    h = hashlib.sha256()
    for replica in outputs:
        for a in _flatten(replica):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def decisions_digest(decisions) -> str:
    text = json.dumps([d.to_dict() for d in decisions], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _instructions(m) -> int:
    return sum(len(c.instructions) for c in m.computations())


def _collectives(m) -> int:
    return sum(
        1
        for c in m.computations()
        for i in c.instructions
        if i.opcode == "all-reduce"
        or (i.opcode == "fusion" and i.kind in ("reduce_scatter", "all_gather", "unshard"))
    )


def _modeled_bytes(report) -> float:
    return sum(c.bytes_per_replica * c.executions for c in report.collectives)


def run_op(case, cost_only: bool, tracer) -> OpResult:
    """Run one op; raises whatever a step raises."""
    cm = CostModel()
    t0 = time.perf_counter()
    with tracer.span("phase.compile"):
        m = textfmt.parse_module(case.text)
        diags = verify.verify(m)
        if diags:
            raise ValueError(f"input module fails verification: {diags[0]}")
        loop = next((i for i in m.entry.instructions if i.opcode == "while"), None)
        loop_steps = profitability.loop_trip_count(loop) if loop is not None else None
        amortize = loop_steps or profitability.DEFAULT_TRIP_COUNT
        decisions = profitability.plan(m, cm, steps=amortize)
        result = transform.apply(m, decisions, steps_hint=amortize)
        main = transform.demote_allgather_precision(result.main)
        main = transform.batch_collectives(main)
    t_compile = time.perf_counter()

    max_rel = base = None
    transformed_runs = []
    if not cost_only:
        aux = {v.name for v in result.manifest.variables if v.kind == "aux"}
        inputs = _with_aux(case.inputs, aux)
        # compare without --steps runs each program once, loop or not
        with tracer.span("phase.baseline"):
            base = simulator.run(m, inputs, seed=case.seed)
        with tracer.span("phase.transformed"):
            sh = simulator.run(result.shard_program, inputs, seed=case.seed)
            mo = simulator.run(main, _chain_inputs(main, sh.outputs), seed=case.seed)
            fin = simulator.run(
                result.unshard_program, _chain_inputs(result.unshard_program, mo.outputs), seed=case.seed
            )
            transformed_runs = [sh, mo, fin]
        max_rel = max_scaled_diff(base.outputs, fin.outputs)

    with tracer.span("phase.model"):
        base_cost = simulator.cost(m, cm)
        main_cost = simulator.cost(main, cm)
        shard_cost = simulator.cost(result.shard_program, cm)
        unshard_cost = simulator.cost(result.unshard_program, cm)
        boundary = (shard_cost.total_step_time + unshard_cost.total_step_time) / amortize
        trans_time = main_cost.total_step_time + boundary
        speedup = base_cost.total_step_time / trans_time if trans_time else 1.0
        base_mem = transform.memory_plan_for(m, transform.baseline_manifest(result.manifest), m)
        trans_mem = transform.memory_plan_for(main, result.manifest, m)
        saving = base_mem.peak_bytes / trans_mem.peak_bytes if trans_mem.peak_bytes else 1.0
    t_end = time.perf_counter()

    problems = []
    if max_rel is not None and not max_rel <= TOLERANCE:
        problems.append(f"transformed outputs differ: max scaled diff {max_rel:.3e} > {TOLERANCE:g}")

    trips = loop_steps or 1
    counts = {
        "profitability.clusters": len(decisions),
        "profitability.sharded": sum(d.shard for d in decisions),
        "ir.instructions_in": _instructions(m),
        "transform.instructions_out": _instructions(main),
        "transform.collectives_out": _collectives(main),
        "costmodel.rounds.baseline": base_cost.total_rounds,
        "costmodel.rounds.transformed": main_cost.total_rounds,
        "costmodel.bytes.baseline": _modeled_bytes(base_cost),
        "costmodel.bytes.transformed": _modeled_bytes(main_cost),
        "costmodel.collective_bytes_per_step.baseline": _modeled_bytes(base_cost) / base_cost.trip_count,
        "simulator.collective_rounds.baseline": base.stats.rounds if base else 0,
        "simulator.collective_rounds.transformed": sum(r.stats.rounds for r in transformed_runs),
        "simulator.collective_bytes.baseline": base.stats.bytes_sent if base else 0,
        "simulator.collective_bytes.transformed": sum(r.stats.bytes_sent for r in transformed_runs),
        "simulator.collective_bytes_per_step.baseline": base.stats.bytes_sent / trips if base else 0,
    }
    return OpResult(
        case=case.name,
        seconds=t_end - t0,
        compile_seconds=t_compile - t0,
        speedup=speedup,
        memory_saving=saving,
        max_rel_diff=max_rel,
        module_digest=hashlib.sha256(case.text.encode()).hexdigest(),
        decisions_digest=decisions_digest(decisions),
        outputs_digest=outputs_digest(base.outputs) if base else None,
        counts=counts,
        problems=problems,
        emitted={"main": main, "shard": result.shard_program, "unshard": result.unshard_program},
    )


def verify_emitted(res: OpResult) -> None:
    """Verify the op's emitted programs again, outside its time and spans,
    then let them go."""
    for label, prog in res.emitted.items():
        diags = verify.verify(prog)
        if diags:
            res.problems.append(f"emitted {label} program fails verification: {diags[0]}")
    res.emitted = {}


def cli_crosscheck(case, cost_only: bool, res: OpResult, workdir: Path) -> list[str]:
    """Run `shardgraph compare --json` on the case and list every reported
    speedup, memory saving or max scaled diff that differs from the op's."""
    path = workdir / "module.ir"
    out = workdir / "compare.json"
    path.write_text(case.text)
    argv = ["compare", str(path), "--seed", str(case.seed), "--json", str(out)]
    if cost_only:
        argv.append("--cost-only")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report = json.loads(out.read_text())
    problems = [] if code == 0 else [f"compare exited {code}"]
    pairs = [("speedup", res.speedup), ("memory_saving_ratio", res.memory_saving)]
    if not cost_only:
        pairs.append(("max_rel_diff", res.max_rel_diff))
    for key, ours in pairs:
        if report[key] != ours:
            problems.append(f"compare --json {key} {report[key]!r} != benchmark {ours!r}")
    return problems
