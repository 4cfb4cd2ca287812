import json
import os

import numpy as np
import pytest

from conftest import small_preset
from shardgraph import pipeline, profitability, transform
from shardgraph.cli import main, random_inputs
from shardgraph.generators import gen_module
from irtools import all_instructions
from shardgraph.ir import F32, PRED, S32, GraphBuilder, Module, TupleShape, ring_topology, scalar
from shardgraph.simulator import PerReplica
from shardgraph.textfmt import parse_module, print_module
from shardgraph.verify import verify


@pytest.fixture
def mlp_ir(tmp_path):
    path = tmp_path / "mlp.ir"
    rc = main(["gen", "mlp", "--layers", "2", "--dim", "64", "--replicas", "4",
               "--steps", "3", "--out", str(path)])
    assert rc == 0
    return path


def test_gen_writes_parseable_module(mlp_ir):
    m = parse_module(mlp_ir.read_text())
    assert verify(m) == []
    assert m.replica_count == 4


def test_gen_resnet_has_conv_shaped_weight(capsys):
    assert main(["gen", "resnet-like"]) == 0
    text = capsys.readouterr().out
    assert "f32[3,3,256,256]" in text


def test_gen_models_match_table(capsys):
    for model, marker in [("transformer-like", "ar0"), ("ncf-like", "f32[8192,64]")]:
        assert main(["gen", model]) == 0
        assert marker in capsys.readouterr().out


def test_analyze_json_schema(mlp_ir, tmp_path):
    out = tmp_path / "a.json"
    assert main(["analyze", str(mlp_ir), "--profit", "--steps", "1000", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"verdicts", "summary", "clusters"}
    assert all(v in ("redundant", "non_redundant") for v in data["verdicts"].values())
    assert data["summary"]["redundant"] + data["summary"]["non_redundant"] == len(data["verdicts"])
    for c in data["clusters"]:
        assert {"anchor", "members", "frontier", "benefit_sec", "cost_sec", "decision", "groups"} <= set(c)


def test_transform_writes_three_programs(mlp_ir, tmp_path):
    out = tmp_path / "t"
    assert main(["transform", str(mlp_ir), "--out-dir", str(out), "--steps", "1000"]) == 0
    for name in ("main.ir", "shard.ir", "unshard.ir", "manifest.json"):
        assert (out / name).exists()
    for name in ("main.ir", "shard.ir", "unshard.ir"):
        m = parse_module((out / name).read_text())
        assert verify(m) == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert {v["name"] for v in manifest["variables"] if v["residency"] == "sharded"} == {
        "w0", "m0", "v0", "w1", "m1", "v1"
    }


def test_simulate_random_and_file_inputs(mlp_ir, tmp_path):
    out = tmp_path / "o.json"
    assert main(["simulate", str(mlp_ir), "--seed", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["replicas"] == 4
    assert len(data["outputs"]) == 4

    m = parse_module(mlp_ir.read_text())
    inputs = {}
    rng = np.random.default_rng(0)
    for p in m.entry.parameters:
        if p.replica_equal:
            inputs[p.id] = {"value": rng.normal(size=p.shape.dims).round(3).tolist()}
        else:
            inputs[p.id] = {
                "per_replica": [rng.normal(size=p.shape.dims).round(3).tolist() for _ in range(4)]
            }
    ipath = tmp_path / "in.json"
    ipath.write_text(json.dumps(inputs))
    out2 = tmp_path / "o2.json"
    assert main(["simulate", str(mlp_ir), "--inputs", str(ipath), "--seed", "3", "--out", str(out2)]) == 0


def test_simulate_seed_env_fallback(mlp_ir, tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("SHARDGRAPH_SEED", "17")
    assert main(["simulate", str(mlp_ir), "--out", str(a)]) == 0
    assert main(["simulate", str(mlp_ir), "--seed", "17", "--out", str(b)]) == 0
    assert json.loads(a.read_text()) == json.loads(b.read_text())


@pytest.mark.parametrize("command", [["compare", "--cost-only"], ["simulate"]], ids=["compare", "simulate"])
@pytest.mark.parametrize(
    "env, flags, message",
    [
        ("abc", [], "[args] SHARDGRAPH_SEED 'abc' is not an integer"),
        ("-1", [], "[args] SHARDGRAPH_SEED must be non-negative, got -1"),
        ("7", ["--seed", "-1"], "[args] --seed must be non-negative, got -1"),
    ],
    ids=["env-not-an-integer", "env-negative", "flag-negative"],
)
def test_a_bad_seed_is_an_args_error(mlp_ir, monkeypatch, capsys, command, env, flags, message):
    monkeypatch.setenv("SHARDGRAPH_SEED", env)
    assert main([command[0], str(mlp_ir), *command[1:], *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message] and captured.out == ""


def test_cost_json(mlp_ir, tmp_path):
    out = tmp_path / "c.json"
    assert main(["cost", str(mlp_ir), "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert {"total_step_time", "compute_time", "collective_time", "collectives",
            "weight_update_share", "latency_bound"} <= set(data)


def test_cost_model_override(mlp_ir, tmp_path):
    model = tmp_path / "cm.json"
    model.write_text(json.dumps({"link_bandwidth": 1e12, "per_message_latency": 0.0}))
    fast = tmp_path / "fast.json"
    slow = tmp_path / "slow.json"
    assert main(["cost", str(mlp_ir), "--model", str(model), "--json", str(fast)]) == 0
    assert main(["cost", str(mlp_ir), "--json", str(slow)]) == 0
    assert json.loads(fast.read_text())["collective_time"] < json.loads(slow.read_text())["collective_time"]


def test_compare_small_module_exit_zero(mlp_ir, tmp_path, capsys):
    report = tmp_path / "r.json"
    rc = main(["compare", str(mlp_ir), "--seed", "5", "--json", str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["max_rel_diff"] <= 1e-6
    assert data["speedup"] > 0
    assert data["transformed_memory"]["peak_bytes"] <= data["baseline_memory"]["peak_bytes"]
    assert "speedup" in out


def test_compare_single_replica_is_identity(tmp_path):
    path = tmp_path / "one.ir"
    assert main(["gen", "mlp", "--layers", "1", "--dim", "8", "--replicas", "1",
                 "--steps", "2", "--out", str(path)]) == 0
    report = tmp_path / "r.json"
    assert main(["compare", str(path), "--seed", "1", "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["max_abs_diff"] == 0.0
    assert all(d["decision"] == "keep" for d in data["decisions"])


def test_compare_cost_only_runs_at_scale(tmp_path):
    path = tmp_path / "tf.ir"
    assert main(["gen", "transformer-like", "--out", str(path)]) == 0
    report = tmp_path / "r.json"
    assert main(["compare", str(path), "--cost-only", "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert "max_abs_diff" not in data
    assert data["speedup"] >= 1.0


def test_compare_tiny_sgd_is_neutral(tmp_path):
    # nothing profitable to shard: outputs identical, no memory regression
    path = tmp_path / "tiny.ir"
    assert main(["gen", "mlp", "--layers", "1", "--dim", "8", "--replicas", "2",
                 "--steps", "2", "--optimizer", "sgd", "--out", str(path)]) == 0
    report = tmp_path / "r.json"
    assert main(["compare", str(path), "--seed", "4", "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["max_abs_diff"] == 0.0
    assert 0.5 <= data["speedup"] <= 2.0


def test_compare_never_increases_peak_memory(tmp_path):
    for model in ("mlp", "transformer-like", "resnet-like", "ncf-like"):
        path = tmp_path / f"{model}.ir"
        assert main(["gen", model, "--out", str(path)]) == 0
        report = tmp_path / f"{model}.json"
        assert main(["compare", str(path), "--cost-only", "--json", str(report)]) == 0
        data = json.loads(report.read_text())
        assert (
            data["transformed_memory"]["peak_bytes"]
            <= data["baseline_memory"]["peak_bytes"]
        ), model


def test_simulate_replicas_override(mlp_ir, tmp_path):
    out = tmp_path / "o.json"
    assert main(["simulate", str(mlp_ir), "--replicas", "2", "--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["replicas"] == 2


def test_compare_no_loop_module_chains_steps(tmp_path):
    path = tmp_path / "step.ir"
    assert main(["gen", "mlp", "--layers", "1", "--dim", "64", "--replicas", "4",
                 "--steps", "0", "--out", str(path)]) == 0
    report = tmp_path / "r.json"
    assert main(["compare", str(path), "--steps", "3", "--seed", "8", "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["max_abs_diff"] == 0.0


def test_compare_deterministic_given_flags(mlp_ir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["compare", str(mlp_ir), "--seed", "6", "--json", str(a)]) == 0
    assert main(["compare", str(mlp_ir), "--seed", "6", "--json", str(b)]) == 0
    assert json.loads(a.read_text()) == json.loads(b.read_text())


def test_compare_tolerance_breach_nonzero_exit(tmp_path, monkeypatch):
    path = tmp_path / "m.ir"
    assert main(["gen", "mlp", "--layers", "1", "--dim", "64", "--replicas", "4",
                 "--steps", "2", "--out", str(path)]) == 0
    # with matched rings the diff is exactly zero, so even a zero tolerance passes
    assert main(["compare", str(path), "--seed", "2"]) == 0
    assert main(["compare", str(path), "--seed", "2", "--tolerance", "0"]) == 0
    # a scaled diff above the tolerance exits 1; one equal to it passes
    monkeypatch.setattr(pipeline, "max_diffs", lambda base, outs: (1e-3, 1e-5))
    assert main(["compare", str(path), "--seed", "2"]) == 1
    assert main(["compare", str(path), "--seed", "2", "--tolerance", "1e-5"]) == 0


def test_transform_records_the_horizon_it_planned_for(mlp_ir, tmp_path):
    assert main(["transform", str(mlp_ir), "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["notes"]["steps_assumed"] == 3  # the loop's trips


@pytest.mark.parametrize("base, out, diffs", [
    ([1, 2, 3], [1, 2, np.nan], ("Infinity", "Infinity")),  # a NaN in only one of a pair
    ([1, 2, np.nan], [1, 50, np.nan], ("48.0", "16.0")),  # NaNs at the same position are equal
], ids=["one-sided-nan", "same-position-nan"])
def test_compare_diff_keeps_nan(base, out, diffs, mlp_ir, tmp_path, monkeypatch):
    outputs = tuple([(np.array(v, np.float32),)] for v in (base, out))  # one replica, one output
    monkeypatch.setattr(pipeline.Compiled, "run", lambda self, inputs, seed: outputs)
    report = tmp_path / "r.json"
    assert main(["compare", str(mlp_ir), "--json", str(report)]) == 1
    text = report.read_text()
    assert f'"max_abs_diff": {diffs[0]},' in text and f'"max_rel_diff": {diffs[1]},' in text


def test_compare_explicit_full_group_on_mesh(tmp_path):
    # groups={{0,1,2,3}} runs as one ring on a 2x2 mesh, while the rewrite
    # emits groups=all collectives that run two-phase; the planner leaves
    # such anchors alone, so the outputs stay bitwise equal
    path = tmp_path / "m.ir"
    assert main(["gen", "mlp", "--layers", "1", "--dim", "64", "--topology", "2x2",
                 "--steps", "0", "--out", str(path)]) == 0
    text = path.read_text()
    assert "groups=all" in text
    path.write_text(text.replace("groups=all", "groups={{0,1,2,3}}"))
    report = tmp_path / "r.json"
    assert main(["compare", str(path), "--seed", "0", "--json", str(report)]) == 0
    assert json.loads(report.read_text())["max_abs_diff"] == 0.0


def test_compare_reports_kept_update_members(tmp_path):
    # nothing is sharded over a 2-step loop, so the transformed step does the
    # same weight-update work as the baseline
    path = tmp_path / "m.ir"
    assert main(["gen", "mlp", "--layers", "1", "--dim", "16", "--replicas", "4",
                 "--steps", "2", "--out", str(path)]) == 0
    report = tmp_path / "r.json"
    assert main(["compare", str(path), "--seed", "1", "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["decisions"] and all(d["decision"] == "keep" for d in data["decisions"])
    base = data["baseline_cost"]["weight_update_compute"]
    assert base > 0
    assert data["transformed_cost"]["weight_update_compute"] == base


def test_cost_reports_update_share(mlp_ir, tmp_path):
    out = tmp_path / "c.json"
    assert main(["cost", str(mlp_ir), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["weight_update_share"] > 0


def test_cost_planner_failure_is_one_line(mlp_ir, monkeypatch, capsys):
    from shardgraph import profitability

    def fail(*args, **kwargs):
        raise ValueError("no plan")

    monkeypatch.setattr(profitability, "plan", fail)
    assert main(["cost", str(mlp_ir)]) == 2
    assert capsys.readouterr().err.strip() == "[analyze] no plan"


def _truncated_module(tmp_path):
    path = tmp_path / "m.ir"
    assert main(["gen", "mlp", "--layers", "1", "--dim", "8", "--replicas", "4",
                 "--steps", "3", "--out", str(path)]) == 0
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    return ["analyze", str(path)]


def _zero_bandwidth_model(tmp_path):
    path = tmp_path / "m.ir"
    assert main(["gen", "mlp", "--layers", "1", "--dim", "8", "--replicas", "4",
                 "--steps", "3", "--out", str(path)]) == 0
    model = tmp_path / "cm.json"
    model.write_text(json.dumps({"mem_bandwidth": 0}))
    return ["cost", str(path), "--model", str(model)]


def _small_mlp(tmp_path, loop_steps: str) -> str:
    """A 1-layer mlp on 4 replicas with a `loop_steps`-step loop (none for 0)."""
    path = tmp_path / "m.ir"
    assert main(["gen", "mlp", "--layers", "1", "--dim", "8", "--replicas", "4",
                 "--steps", loop_steps, "--out", str(path)]) == 0
    return str(path)


def _scalar_per_replica(tmp_path):
    """An inputs file whose `per_replica` entries are numbers, not lists."""
    path = _small_mlp(tmp_path, "3")
    inputs = tmp_path / "in.json"
    params = parse_module((tmp_path / "m.ir").read_text()).entry.parameters
    inputs.write_text(json.dumps({p.id: {"per_replica": 5} for p in params}))
    return ["simulate", path, "--inputs", str(inputs)]


@pytest.mark.parametrize(
    "argv, stage",
    [
        (_truncated_module, "parse"),
        (lambda tmp_path: ["simulate", str(tmp_path / "missing.ir")], "read"),
        (lambda tmp_path: ["gen", "mlp", "--topology", "3x"], "args"),
        (_zero_bandwidth_model, "cost-model"),
        (lambda tmp_path: ["transform", _small_mlp(tmp_path, "3"), "--out-dir", str(tmp_path / "t"),
                           "--steps", "0"], "args"),
        (lambda tmp_path: ["analyze", _small_mlp(tmp_path, "3"), "--profit", "--steps", "0"], "args"),
        (lambda tmp_path: ["compare", _small_mlp(tmp_path, "0"), "--steps", "-5"], "args"),
        (lambda tmp_path: ["compare", _small_mlp(tmp_path, "3"), "--replicas", "0"], "args"),
        (lambda tmp_path: ["compare", _small_mlp(tmp_path, "3"), "--replicas", "-2"], "args"),
        (lambda tmp_path: ["simulate", _small_mlp(tmp_path, "3"), "--replicas", "0"], "args"),
        (lambda tmp_path: ["compare", _small_mlp(tmp_path, "3"), "--tolerance", "nan"], "args"),
        (lambda tmp_path: ["compare", _small_mlp(tmp_path, "3"), "--tolerance", "-1"], "args"),
        (lambda tmp_path: ["gen", "mlp", "--replicas", "0"], "args"),
        (lambda tmp_path: ["gen", "mlp", "--topology", "ring", "--replicas", "0"], "args"),
        (lambda tmp_path: ["gen", "mlp", "--layers", "-2"], "args"),
        (lambda tmp_path: ["gen", "mlp", "--layers", "0"], "args"),
        (lambda tmp_path: ["gen", "mlp", "--dim", "-4"], "args"),
        (lambda tmp_path: ["gen", "mlp", "--dim", "0"], "args"),
        (lambda tmp_path: ["gen", "mlp", "--batch", "0"], "args"),
        (lambda tmp_path: ["gen", "mlp", "--outfeed-every", "0"], "args"),
        (lambda tmp_path: ["gen", "mlp", "--steps", "-1"], "args"),
        (lambda tmp_path: ["gen", "mlp", "--steps", "-5"], "args"),
        (_scalar_per_replica, "inputs"),
    ],
    ids=["truncated-ir", "missing-file", "bad-topology", "zero-bandwidth", "transform-steps-0",
         "analyze-steps-0", "compare-steps-negative", "compare-replicas-0", "compare-replicas-negative",
         "simulate-replicas-0", "compare-tolerance-nan", "compare-tolerance-negative", "gen-replicas-0",
         "gen-ring-replicas-0", "gen-layers-negative", "gen-layers-0", "gen-dim-negative", "gen-dim-0",
         "gen-batch-0", "gen-outfeed-every-0", "gen-steps-minus-1", "gen-steps-negative",
         "inputs-per-replica-not-a-list"],
)
def test_user_error_is_one_line_exit_2(argv, stage, tmp_path, capsys):
    args = argv(tmp_path)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith(f"[{stage}] ")


def _misshapen_module(tmp_path):
    """An mlp module whose weight parameter %w0 is retyped to f32[8,4], so
    the forward dot and the update no longer type-check."""
    path = tmp_path / "bad.ir"
    assert main(["gen", "mlp", "--layers", "1", "--dim", "8", "--steps", "0",
                 "--out", str(path)]) == 0
    text = path.read_text()
    assert text.count("%w0 = f32[8,8] parameter") == 1
    path.write_text(text.replace("%w0 = f32[8,8] parameter", "%w0 = f32[8,4] parameter"))
    return path


@pytest.mark.parametrize(
    "cmd, extra",
    [("analyze", []), ("transform", ["--out-dir", "out"]), ("simulate", []), ("cost", []),
     ("compare", [])],
    ids=["analyze", "transform", "simulate", "cost", "compare"],
)
def test_every_subcommand_verifies_its_input(cmd, extra, tmp_path, capsys, monkeypatch):
    path = _misshapen_module(tmp_path)
    diags = verify(parse_module(path.read_text()))
    assert len(diags) >= 2
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main([cmd, str(path), *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"[verify] {d}" for d in diags]
    assert not (tmp_path / "out").exists()


def test_simulation_error_is_one_line(mlp_ir, tmp_path, capsys):
    m = parse_module(mlp_ir.read_text())
    inputs = tmp_path / "in.json"
    # one value per parameter where four replicas need one each
    inputs.write_text(json.dumps({p.id: {"per_replica": [np.zeros(p.shape.dims).tolist()]}
                                  for p in m.entry.parameters}))
    capsys.readouterr()
    assert main(["simulate", str(mlp_ir), "--inputs", str(inputs)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("[simulate] "), err


@pytest.mark.parametrize(
    "cmd, target",
    [("compare", "transform.apply"), ("cost", "profitability.plan"),
     ("compare", "transform.batch_collectives")],
)
def test_a_bug_in_a_pass_is_not_swallowed(cmd, target, mlp_ir, monkeypatch):
    import shardgraph

    mod_name, fn_name = target.split(".")

    def broken(*args, **kwargs):
        raise KeyError("a bug")

    monkeypatch.setattr(getattr(shardgraph, mod_name), fn_name, broken)
    with pytest.raises(KeyError):
        main([cmd, str(mlp_ir), "--cost-only"] if cmd == "compare" else [cmd, str(mlp_ir)])


@pytest.fixture(scope="module")
def forced_shard_transformer_main():
    """The main program of a 2-layer transformer-like with every cluster
    sharded: it carries `spec="..."` strings."""
    m = gen_module("transformer-like", layers=2)
    decisions = profitability.plan(m, steps=2)
    for d in decisions:
        d.shard = True
    return print_module(transform.apply(m, decisions, steps_hint=2).main)


@pytest.mark.parametrize(
    "spec",
    ["garbage", "[8] slicex/4", "[8,a] slice0/4", "[8] pad0 slice0/4", "[8] slice5/4",
     "[8] pad3+1 slice0/4", "[8,8] slice0/\u0662"],
)
def test_malformed_spec_string_is_a_parse_error(spec, forced_shard_transformer_main, tmp_path, capsys):
    text = forced_shard_transformer_main
    start = text.index('spec="') + len("spec=")
    end = text.index('"', start + 1) + 1
    path = tmp_path / "bad.ir"
    path.write_text(text[:start] + f'"{spec}"' + text[end:])
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    line, col = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
    assert err.startswith(f"[parse] {path}:{line}:{col}: bad sharding spec {spec!r}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("header", ["topology=mesh 2x²", "topology=mesh 2x2 tile=8x²"])
def test_non_ascii_digit_in_dimensions_is_a_parse_error(header, tmp_path, capsys):
    path = tmp_path / "m.ir"
    assert main(["gen", "mlp", "--layers", "1", "--dim", "8", "--topology", "2x2", "--out", str(path)]) == 0
    text = path.read_text()
    assert "topology=mesh 2x2 {" in text
    path.write_text(text.replace("topology=mesh 2x2", header, 1))
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"[parse] {path}:1:{len('module N=4 ' + header)}: unexpected character '²'\n"


@pytest.fixture
def mixed_adam_mlp_ir(tmp_path):
    """A mixed-precision adam mlp on a 4-ring: sharded at 1000 steps, kept
    at its 3-step loop, where its two gradient all-reduces batch."""
    from shardgraph.generators import GenConfig, _chain, build_training_module
    from shardgraph.ir import ring_topology

    cfg = GenConfig("t", _chain([64, 64, 64]), batch=4, optimizer="adam", replicas=4,
                    topology=ring_topology(4), steps=3, mixed_precision=True)
    path = tmp_path / "mixed.ir"
    path.write_text(print_module(build_training_module(cfg)))
    return path


def _main_program(module, tmp_path, *flags):
    out = tmp_path / ("out" + "".join(flags))
    assert main(["transform", str(module), "--out-dir", str(out), *flags]) == 0
    return all_instructions(parse_module((out / "main.ir").read_text()))


def test_no_demote_keeps_f32_all_gathers(mixed_adam_mlp_ir, tmp_path):
    def gather_types(*flags):
        instrs = _main_program(mixed_adam_mlp_ir, tmp_path, "--steps", "1000", *flags)
        return [i.shape.etype.value for i in instrs if i.opcode == "fusion" and i.kind == "all_gather"]

    assert gather_types() == ["f16r", "f16r"]
    assert gather_types("--no-demote") == ["f32", "f32"]


def test_no_batch_leaves_no_variadic_all_reduce(mixed_adam_mlp_ir, tmp_path):
    def all_reduce_arities(*flags):
        return [len(i.operands) for i in _main_program(mixed_adam_mlp_ir, tmp_path, *flags) if i.opcode == "all-reduce"]

    assert all_reduce_arities() == [2]
    assert all_reduce_arities("--no-batch") == [1, 1]


def test_compare_without_demote_and_batch(mixed_adam_mlp_ir, tmp_path, capsys):
    report = tmp_path / "report.json"
    args = ["compare", str(mixed_adam_mlp_ir), "--no-demote", "--no-batch", "--json", str(report)]
    assert main(args) == 0
    out = json.loads(report.read_text())
    # kept at the loop's 3 steps: nothing shards, and nothing batches either
    assert out["speedup"] == 1.0 and out["max_rel_diff"] == 0.0


def test_compare_steps_set_the_horizon_of_a_looped_module(mixed_adam_mlp_ir, tmp_path):
    """`compare --steps` plans and amortizes over the steps given, as
    `transform --steps` does, also when the module has a counted loop."""
    out = tmp_path / "t"
    assert main(["transform", str(mixed_adam_mlp_ir), "--out-dir", str(out), "--steps", "1000"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert {v["name"] for v in manifest["variables"] if v["residency"] == "sharded"} == {
        "w0", "m0", "v0", "w1", "m1", "v1"
    }
    report = tmp_path / "report.json"
    assert main(["compare", str(mixed_adam_mlp_ir), "--steps", "1000", "--json", str(report)]) == 0
    decisions = json.loads(report.read_text())["decisions"]
    planned = profitability.plan(parse_module(mixed_adam_mlp_ir.read_text()), steps=1000)
    assert decisions == json.loads(json.dumps([d.to_dict() for d in planned]))
    assert [d["decision"] for d in decisions] == ["shard", "shard"]


def _random_inputs_one_draw_per_replica(m, seed, aux_names=()):
    """`cli.random_inputs` as it was written before its per-replica draws were
    made as one array: one draw per replica, in replica order."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for p in m.entry.parameters:
        def draw():
            if p.shape.etype.value == "s32":
                return np.zeros(p.shape.dims, dtype=np.int32)
            if p.shape.etype.value == "pred":
                return np.zeros(p.shape.dims, dtype=bool)
            v = rng.normal(0.0, 0.5, size=p.shape.dims).astype(np.float32)
            if p.id in aux_names:
                v = np.abs(v) * 0.1
            return v

        inputs[p.id] = draw() if p.replica_equal else [draw() for _ in range(m.replica_count)]
    return inputs


def _scalar_parameters():
    gb = GraphBuilder("main")
    params = [gb.parameter(k, scalar(t), f"p{k}") for k, t in enumerate((F32, S32, PRED, F32))]
    root = gb.emit("tuple", TupleShape(tuple(p.shape for p in params)), tuple(params))
    return Module(gb.finish(root), 4, ring_topology(4))


@pytest.mark.parametrize("model", ["mlp", "transformer-like", "resnet-like", "ncf-like", "scalars"])
def test_random_inputs_match_one_draw_per_replica(model):
    m = _scalar_parameters() if model == "scalars" else small_preset(model, ring_topology(4))
    assert any(not p.replica_equal for p in m.entry.parameters)
    aux = {p.id for p in m.entry.parameters[::2]}
    for seed, names in ((0, None), (7, aux)):
        ours = random_inputs(m, seed, aux_names=names)
        theirs = _random_inputs_one_draw_per_replica(m, seed, names or ())
        assert ours.keys() == theirs.keys()
        for k, want in theirs.items():
            if isinstance(want, list):
                assert isinstance(ours[k], PerReplica) and len(ours[k].values) == len(want)
                pairs = zip(ours[k].values, want)
            else:
                pairs = [(ours[k], want)]
            for x, y in pairs:
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


ONE_ARRAY_LOOP = """\
module N=4 topology=ring {
  computation cond (%c: f32[8]) -> pred[] {
    %c = f32[8] parameter(0)
    %t = pred[] constant(0)
    return (%t)
  }
  computation body (%b: f32[8]) -> f32[8] {
    %b = f32[8] parameter(0)
    %n = f32[8] add(%b, %b)
    return (%n)
  }
  entry computation main (%x: f32[8]) -> f32[8] {
    %x = f32[8] parameter(0)
    %loop = f32[8] while(%x), cond=cond, body=body
    return (%loop)
  }
}
"""

TUPLE_PARAMETER = """\
module N=4 topology=ring {
  computation cond (%c: (s32[], f32[8])) -> pred[] {
    %c = (s32[], f32[8]) parameter(0)
    %ci = s32[] get-tuple-element(%c), index=0
    %bound = s32[] constant(2)
    %go = pred[] compare(%ci, %bound), direction=lt
    return (%go)
  }
  computation body (%b: (s32[], f32[8])) -> (s32[], f32[8]) {
    %b = (s32[], f32[8]) parameter(0)
    %i = s32[] get-tuple-element(%b), index=0
    %w = f32[8] get-tuple-element(%b), index=1
    %one = s32[] constant(1)
    %i2 = s32[] add(%i, %one)
    %g = f32[8] rng()
    %ar = f32[8] all-reduce(%g), kind=add, groups=all
    %wn = f32[8] sub(%w, %ar)
    %next = (s32[], f32[8]) tuple(%i2, %wn)
    return (%next)
  }
  entry computation main (%init: (s32[], f32[8])) -> (s32[], f32[8]) {
    %init = (s32[], f32[8]) parameter(0)
    %loop = (s32[], f32[8]) while(%init), cond=cond, body=body
    return (%loop)
  }
}
"""


@pytest.mark.parametrize(
    "text, message",
    [(ONE_ARRAY_LOOP, "the state of loop %loop is one array, not a tuple"),
     (TUPLE_PARAMETER, "entry parameter %init is a tuple, not an array")],
    ids=["one-array-loop-state", "tuple-entry-parameter"],
)
def test_forms_apply_does_not_emit_are_one_transform_line(text, message, tmp_path, capsys):
    """Two forms that verify clean but that `apply` does not emit are refused
    when it reads the module, before any builder runs: `compare` and
    `transform` exit 2 with one `[transform]` line and write nothing, while
    `analyze` and `cost`, which do not rewrite, still run."""
    assert verify(parse_module(text)) == []
    path = tmp_path / "m.ir"
    path.write_text(text)
    out_dir = tmp_path / "out"
    for args in (["compare", str(path), "--cost-only"], ["compare", str(path), "--seed", "1"],
                 ["transform", str(path), "--out-dir", str(out_dir)]):
        capsys.readouterr()
        assert main(args) == 2, args
        assert capsys.readouterr().err == f"[transform] {message}\n", args
    assert not out_dir.exists()
    for args in (["analyze", str(path), "--profit"], ["cost", str(path)]):
        assert main(args) == 0, args
