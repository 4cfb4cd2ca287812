"""The benchmark's own tests: every workload at a tiny size prints every
metric with its unit and fails no op; a wrong transformed output fails ops."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import bench, op, run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from shardgraph import cli, generators, profitability, simulator, transform  # noqa: E402
from shardgraph.simulator import PerReplica, RunResult  # noqa: E402

TINY = {
    "compile-transformer": {"layers": 4},
    "simulate-ncf": {"mesh": (1, 2), "steps": 1, "batch": 8},
    "equiv-mix": {"modules": 6},
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_SECONDS", 0.0)
    for name, sizes in TINY.items():
        monkeypatch.setitem(WORKLOADS, name, dataclasses.replace(WORKLOADS[name], sizes=sizes))


def _run_main(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_prints_every_metric(tiny, capsys, workload):
    result, lines = _run_main(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for name, unit in bench.END_TO_END.items():
        m = result["metrics"][name]
        assert m["unit"] == unit and m["value"] > 0
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_ops 0 share") for line in lines)


def test_traced_run_reports_every_layer_and_restores(tiny, capsys):
    plan = profitability.plan
    result, _ = _run_main(capsys, "equiv-mix", trace=1)
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    assert result["metrics"]["simulator.run_s.baseline"]["value"] > 0
    assert result["metrics"]["simulator.collective_bytes_per_step.baseline"]["value"] > 0
    assert profitability.plan is plan and transform.plan is plan


def test_perturbed_transformed_output_fails_ops(tiny, monkeypatch):
    real_run = simulator.run

    def perturbed(m, inputs, seed=0, **kw):
        res = real_run(m, inputs, seed=seed, **kw)
        if m.entry.name != "unshard_state":
            return res
        outs = [tuple(np.asarray(v) + 1.0 if v.dtype.kind == "f" else v for v in r) for r in res.outputs]
        return RunResult(outs, res.outfeeds, res.stats)

    monkeypatch.setattr(simulator, "run", perturbed)
    result = bench.measure(WORKLOADS["equiv-mix"], seed=3, seconds=0, trace=False)
    assert result["failed"] > 0 and not result["correct"]


def test_aux_inputs_match_random_inputs():
    m = generators.gen_module("mlp", replicas=2, layers=1, dim=16, optimizer="adam")
    aux = {"m0", "v0"}
    ours = op._with_aux(cli.random_inputs(m, 5), aux)
    theirs = cli.random_inputs(m, 5, aux_names=aux)
    assert ours.keys() == theirs.keys()
    for k, v in theirs.items():
        a, b = (ours[k].values, v.values) if isinstance(v, PerReplica) else ([ours[k]], [v])
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b))


def test_tracer_self_time_excludes_children():
    t = tracing.Tracer()
    with t.span("phase.baseline"):
        with t.span("a"):
            with t.span("b"):
                pass
    own = t.self_times()[0]
    a, b = t.spans[1], t.spans[2]
    assert own["a"] == pytest.approx((a.end - a.start) - (b.end - b.start))
    assert own["b.baseline"] == own["b"]


def test_exits_without_result_when_sources_missing(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "equiv-mix", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
