"""One benchmark run: warm-up and golden checks, set-up, timed ops, and the
metrics computed from them. `run.py` is the command-line entry."""

from __future__ import annotations

import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from perfbench import op as op_mod
from perfbench.tracing import LAYERS, TRACED, NullTracer, Tracer, instrument

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0

# set-up runs at least this many times and for at least this long; its
# median is setup_s
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0

END_TO_END = {
    "setup_s": "s",
    "compare_s": "s",
    "compare_s.p90": "s",
    "compile_s": "s",
    "modeled_speedup": "x",
    "modeled_memory_saving": "x",
    "peak_rss_mb": "MB",
}

SETUP_SPANS = ("generators.gen_module", "textfmt.print", "cli.random_inputs")
OP_SPANS = (
    "textfmt.parse",
    "verify.verify",
    "redundancy.analyze",
    "profitability.plan",
    "profitability.find_clusters",
    "profitability.evaluate",
    "profitability.cluster_io_bytes",
    "transform.apply",
    "transform.demote",
    "transform.batch",
    "transform.memory_plan",
    "simulator.cost",
)
COUNTS = (
    "profitability.clusters",
    "profitability.sharded",
    "ir.instructions_in",
    "transform.instructions_out",
    "transform.collectives_out",
    "costmodel.rounds.baseline",
    "costmodel.rounds.transformed",
    "costmodel.bytes.baseline",
    "costmodel.bytes.transformed",
    "costmodel.collective_bytes_per_step.baseline",
    "simulator.collective_rounds.baseline",
    "simulator.collective_rounds.transformed",
    "simulator.collective_bytes.baseline",
    "simulator.collective_bytes.transformed",
    "simulator.collective_bytes_per_step.baseline",
)


PER_LAYER = {f"{name}_s": "s" for name in SETUP_SPANS + OP_SPANS}
PER_LAYER["profitability.plan.total_s"] = "s"
PER_LAYER["simulator.run_s.baseline"] = "s"
PER_LAYER["simulator.run_s.transformed"] = "s"
PER_LAYER.update({name: "B" if "bytes" in name else "count" for name in COUNTS})
PER_LAYER.update({f"{layer}.errors": "count" for layer in LAYERS})
PER_LAYER["bench.unattributed_s"] = "s"
PER_LAYER["trace.overhead_s"] = "s"


class Runner:
    def __init__(self, workload, tracer):
        self.wl = workload
        self.tracer = tracer
        self.null = NullTracer()
        self.attempted = 0
        self.failed = 0
        self.golden = json.loads(GOLDEN.read_text())
        self.seen: dict[tuple, tuple] = {}
        self.unit = 0

    def fail(self, case: str, problem: str):
        self.failed += 1
        if self.failed <= 5:
            print(f"failed op on {case}: {problem}", file=sys.stderr)

    def next_unit(self) -> int:
        self.unit += 1
        if self.tracer is not None:
            self.tracer.unit = self.unit
        return self.unit

    def traced(self, on: bool):
        return instrument(self.tracer) if on else contextlib.nullcontext()

    def op(self, case, traced: bool = False, crosscheck: bool = False):
        """One checked op, or None when it raised."""
        self.attempted += 1
        gc.collect()
        unit = self.next_unit()
        try:
            with self.traced(traced):
                res = op_mod.run_op(case, self.wl.cost_only, self.tracer if traced else self.null)
        except Exception as e:  # the op fails; the run goes on
            self.fail(case.name, f"{type(e).__name__}: {e}")
            return None
        res.unit = unit
        op_mod.verify_emitted(res)
        self._check_digests(case, res)
        if crosscheck:
            OUT.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                res.problems += op_mod.cli_crosscheck(case, self.wl.cost_only, res, Path(tmp))
        for p in res.problems[:1]:
            self.fail(case.name, p)
        return res

    def _check_digests(self, case, res):
        key = (res.module_digest, case.seed)
        got = (res.decisions_digest, res.outputs_digest, res.speedup, res.memory_saving)
        first = self.seen.setdefault(key, got)
        if first != got:
            res.problems.append("decisions, outputs or modeled ratios differ from an earlier op")
        want = self.golden.get("decisions", {}).get(res.module_digest)
        if want is not None and want != res.decisions_digest:
            res.problems.append("decisions digest differs from the golden")
        want = self.golden.get("baseline_outputs", {}).get(f"{res.module_digest}:{case.seed}")
        if want is not None and want != res.outputs_digest:
            res.problems.append("baseline outputs digest differs from the golden")


def _geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def _first_per_case(results) -> list:
    first = {}
    for r in results:
        first.setdefault(r.module_digest + r.case, r)
    return list(first.values())


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object the last line prints,
    plus `info` lines for people."""
    tracer = Tracer() if trace else None
    runner = Runner(workload, tracer)

    # warm-up: the golden seed's cases, checked against golden.json; the
    # first one is also checked against `shardgraph compare --json`
    golden_cases = workload.build(GOLDEN_SEED, workload.sizes)
    for i, case in enumerate(golden_cases):
        runner.op(case, crosscheck=i == 0)
    del golden_cases

    setup_times, setup_units, cases = [], [], None
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        cases = None
        gc.collect()
        setup_units.append(runner.next_unit())
        with runner.traced(trace):
            t0 = time.perf_counter()
            cases = workload.build(seed, workload.sizes)
            setup_times.append(time.perf_counter() - t0)

    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while i < len(cases) or time.perf_counter() - start < seconds:
        case = cases[i % len(cases)]
        if trace:
            # each case untraced and traced, alternating which goes first
            order = (False, True) if (i + i // len(cases)) % 2 == 0 else (True, False)
            for on in order:
                res = runner.op(case, traced=on)
                if res is not None:
                    (traced if on else plain).append(res)
        else:
            res = runner.op(case)
            if res is not None:
                plain.append(res)
        i += 1
    if not plain or (trace and not traced):
        raise RuntimeError("no op completed; nothing to report")

    once = _first_per_case(plain)
    info = []
    if not workload.cost_only:
        sim = sum(r.counts["simulator.collective_bytes_per_step.baseline"] for r in once)
        model = sum(r.counts["costmodel.collective_bytes_per_step.baseline"] for r in once)
        info.append(f"baseline collective bytes per step: simulator {sim:.0f} B, cost model {model:.0f} B")

    if trace:
        metrics = _per_layer(tracer, setup_units, plain, traced)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{workload.name}-seed{seed}.json")
    else:
        times = [r.seconds for r in plain]
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "compare_s": statistics.median(times),
            "compare_s.p90": p90,
            "compile_s": statistics.median([r.compile_seconds for r in plain]),
            "modeled_speedup": _geomean([r.speedup for r in once]),
            "modeled_memory_saving": _geomean([r.memory_saving for r in once]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info.append(f"ops timed: {len(times)} over {len(once)} cases")
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "info": info,
    }


def _per_layer(tracer, setup_units, plain, traced) -> dict:
    own = tracer.self_times()
    op_units = [r.unit for r in traced]

    def med(name, units):
        return statistics.median([own.get(u, {}).get(name, 0.0) for u in units])

    metrics = {f"{n}_s": med(n, setup_units) for n in SETUP_SPANS}
    metrics.update({f"{n}_s": med(n, op_units) for n in OP_SPANS})
    plan_total = tracer.total_times("profitability.plan")
    metrics["profitability.plan.total_s"] = statistics.median([plan_total.get(u, 0.0) for u in op_units])
    metrics["simulator.run_s.baseline"] = med("simulator.run.baseline", op_units)
    metrics["simulator.run_s.transformed"] = med("simulator.run.transformed", op_units)
    once = _first_per_case(traced)
    for name in COUNTS:
        metrics[name] = sum(r.counts[name] for r in once)
    for layer, n in tracer.errors.items():
        metrics[f"{layer}.errors"] = n
    traced_fns = {span for _, _, span in TRACED}
    metrics["bench.unattributed_s"] = statistics.median(
        [r.seconds - sum(t for n, t in own.get(r.unit, {}).items() if n in traced_fns) for r in traced]
    )
    metrics["trace.overhead_s"] = statistics.median([r.seconds for r in traced]) - statistics.median(
        [r.seconds for r in plain]
    )
    return metrics
