"""Command-line front end.

Subcommands: `analyze` (redundancy and profitability), `transform` (three-
program split to a directory), `simulate`, `cost`, `compare` (end-to-end
baseline vs. transformed diff of outputs, modeled cost and peak memory), and
`gen` (synthetic training modules). SHARDGRAPH_SEED provides the seed when
--seed is not given. `transform` and `compare` go through `pipeline`; this
module reads arguments, draws inputs, maps errors to stages and prints.

A user error (unreadable or malformed input file, bad argument, invalid cost
model) prints one `[stage] message` line to stderr and exits 2. Every
subcommand that reads a module verifies it first and prints each diagnostic
as a `[verify] ...` line. A pass that rejects a verified module exits 2 with
`[analyze]`, `[transform]` or `[simulate]`; any other exception is a bug and
is not caught.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import generators, pipeline, profitability
from .costmodel import DEFAULT_TRIP_COUNT, CostModel, cost
from .ir import Module, Topology, TupleShape, mesh_topology, ring_topology
from .redundancy import analyze
from .simulator import PerReplica, SimulationError, run
from .textfmt import ParseError, parse_module, print_module
from .transform import TransformError
from .verify import verify


class CLIError(Exception):
    """A user error; `main` prints each line of the message as
    `[stage] line` and exits 2."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def _seed(args) -> int:
    """--seed, else SHARDGRAPH_SEED, else 0; a non-negative integer."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        text, source = os.environ.get("SHARDGRAPH_SEED", "0"), "SHARDGRAPH_SEED"
        try:
            seed = int(text)
        except ValueError:
            raise CLIError("args", f"SHARDGRAPH_SEED {text!r} is not an integer") from None
    if seed < 0:
        raise CLIError("args", f"{source} must be non-negative, got {seed}")
    return seed


def _at_least(args, low: int, *names: str):
    """An `[args]` error for the first of the integer arguments `names` that
    is given and below `low`."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < low:
            raise CLIError("args", f"--{name.replace('_', '-')} must be at least {low}, got {value}")


def _parse_topology(text: str, n: int | None) -> Topology:
    """`ring` of `n` replicas, or an `RxC` (or `meshRxC`) mesh, which must
    have `n` replicas unless `n` is None."""
    if text == "ring":
        return ring_topology(n)
    body = text[4:] if text.startswith("mesh") else text
    try:
        r, c = (int(x) for x in body.lower().split("x"))
    except ValueError:
        raise CLIError("args", f"topology {text!r} is neither 'ring' nor RxC, e.g. 2x4") from None
    if r < 1 or c < 1:
        raise CLIError("args", f"topology {text!r} needs at least one row and one column")
    topo = mesh_topology(r, c)
    if n is not None and topo.n != n:
        raise CLIError("args", f"topology {text} has {topo.n} replicas, expected {n}")
    return topo


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CLIError("read", f"{path}: {e.strerror or e}") from None


def _load_module(path: str) -> Module:
    text = _read_text(path)
    try:
        return parse_module(text)
    except ParseError as e:
        raise CLIError("parse", f"{path}:{e}") from None


def _override_topology(m: Module, args) -> Module:
    _at_least(args, 1, "replicas")
    if args.replicas is None and args.topology is None:
        return m
    n = args.replicas if args.replicas is not None else m.replica_count
    topo = _parse_topology(args.topology, n) if args.topology else ring_topology(n)
    return Module(entry=m.entry, replica_count=n, topology=topo, tile=m.tile)


def _load_verified(path: str, overrides=None) -> Module:
    """The module at `path`, with the --replicas/--topology arguments in
    `overrides` applied, or a `[verify]` error listing every diagnostic."""
    m = _load_module(path)
    if overrides is not None:
        m = _override_topology(m, overrides)
    diags = verify(m)
    if diags:
        raise CLIError("verify", "\n".join(str(d) for d in diags))
    return m


def _emit_json(obj, path: str | None):
    text = json.dumps(obj, indent=2, default=_json_default)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON-serializable: {type(o)}")


def _steps(args) -> int | None:
    """The --steps horizon of `analyze`, `transform` and `compare`, if given."""
    _at_least(args, 1, "steps")
    return args.steps


def _cost_model(args) -> CostModel:
    path = getattr(args, "cost_model", None)
    if not path:
        return CostModel()
    try:
        raw = json.loads(_read_text(path))
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object")
        return CostModel.from_dict(raw)
    except (ValueError, TypeError) as e:  # bad JSON, bad field, or the model's own checks
        raise CLIError("cost-model", f"{path}: {e}") from None


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #


def _plan(m: Module, cm: CostModel, steps: int | None):
    """`profitability.plan`; the `ValueError` it rejects a module with
    becomes an `[analyze]` error."""
    try:
        return profitability.plan(m, cm, steps=steps)
    except ValueError as e:
        raise CLIError("analyze", str(e)) from None


def _split(m: Module, cm: CostModel, args, steps: int | None) -> pipeline.Compiled:
    """The planned module's three-program split, honouring --no-demote and
    --no-batch; a `TransformError` becomes a `[transform]` error."""
    decisions = _plan(m, cm, steps)
    try:
        return pipeline.compile_module(m, decisions, steps, demote=not args.no_demote, batch=not args.no_batch)
    except TransformError as e:
        raise CLIError("transform", str(e)) from None


def cmd_analyze(args) -> int:
    steps = _steps(args)
    m = _load_verified(args.module)
    rmap = analyze(m)
    out = {"verdicts": rmap.to_dict(), "summary": rmap.summary()}
    if args.profit:
        decisions = _plan(m, _cost_model(args), steps)
        out["clusters"] = [d.to_dict() for d in decisions]
    _emit_json(out, args.json)
    return 0


def cmd_transform(args) -> int:
    steps = _steps(args)
    compiled = _split(_load_verified(args.module), _cost_model(args), args, steps)
    result = compiled.result
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, prog in (("main", compiled.main), ("shard", result.shard_program), ("unshard", result.unshard_program)):
        (out / f"{name}.ir").write_text(print_module(prog))
    (out / "manifest.json").write_text(result.manifest.to_json() + "\n")
    sharded = [v.name for v in result.manifest.variables if v.residency == "sharded"]
    print(f"wrote {out}/: main.ir shard.ir unshard.ir manifest.json "
          f"(sharded: {', '.join(sharded) if sharded else 'none'})")
    return 0


def _inputs_from_file(m: Module, path: str) -> dict:
    try:
        raw = json.loads(_read_text(path))
    except ValueError as e:
        raise CLIError("inputs", f"{path}: {e}") from None
    inputs = {}
    for p in m.entry.parameters:
        if not isinstance(raw, dict) or p.id not in raw:
            raise CLIError("inputs", f"{path}: missing parameter {p.id!r}")
        entry = raw[p.id]
        if isinstance(entry, dict) and "per_replica" in entry:
            if not isinstance(entry["per_replica"], list):
                raise CLIError("inputs", f"{path}: parameter {p.id!r}: per_replica must be a list")
            inputs[p.id] = PerReplica(entry["per_replica"])
        elif isinstance(entry, dict) and "value" in entry:
            inputs[p.id] = entry["value"]
        else:
            inputs[p.id] = entry
    return inputs


def random_inputs(m: Module, seed: int, aux_names: set[str] | None = None) -> dict:
    """Deterministic inputs: replica-equal parameters get one draw, others one
    draw per replica; names in `aux_names` are made non-negative (optimizer
    second moments). A per-replica parameter's draws are the rows of one
    `(replicas, *dims)` array, passed as its rows so that the simulator views
    them instead of stacking a copy; they are drawn one replica at a time, so
    only one row's float64 draw is alive at once."""
    rng = np.random.default_rng(seed)
    aux_names = aux_names or set()
    inputs = {}
    for p in m.entry.parameters:
        if isinstance(p.shape, TupleShape):
            raise CLIError("inputs", f"tuple-shaped entry parameter {p.id} needs an inputs file")

        def draw():
            if p.shape.etype.value == "s32":
                return np.zeros(p.shape.dims, dtype=np.int32)
            if p.shape.etype.value == "pred":
                return np.zeros(p.shape.dims, dtype=bool)
            v = rng.normal(0.0, 0.5, size=p.shape.dims).astype(np.float32)
            if p.id in aux_names:
                v = np.abs(v) * 0.1
            return v

        if p.replica_equal:
            inputs[p.id] = draw()
        else:
            first = draw()
            rows = np.empty((m.replica_count, *first.shape), dtype=first.dtype)
            rows[0] = first
            for k in range(1, m.replica_count):
                rows[k] = draw()
            inputs[p.id] = PerReplica(rows)
    return inputs


def cmd_simulate(args) -> int:
    m = _load_verified(args.module, args)
    seed = _seed(args)
    if args.inputs:
        inputs = _inputs_from_file(m, args.inputs)
    else:
        inputs = random_inputs(m, seed)
    try:
        result = run(m, inputs, seed=seed)
    except SimulationError as e:
        raise CLIError("simulate", str(e)) from None
    payload = {
        "replicas": m.replica_count,
        "outputs": [_value_to_json(v) for v in result.outputs],
        "outfeeds": [
            [{"id": i, "value": _value_to_json(v)} for i, v in log] for log in result.outfeeds
        ],
    }
    _emit_json(payload, args.out)
    return 0


def _value_to_json(v):
    if isinstance(v, tuple):
        return [_value_to_json(e) for e in v]
    return np.asarray(v).tolist()


def cmd_cost(args) -> int:
    m = _load_verified(args.module)
    cm = _cost_model(args)
    decisions = _plan(m, cm, None)
    report = cost(m, cm, profitability.update_member_ids(decisions))
    _emit_json(report.to_dict(), args.json)
    return 0


def cmd_gen(args) -> int:
    _at_least(args, 1, "replicas", "layers", "dim", "batch", "outfeed_every")
    _at_least(args, 0, "steps")
    topo = None
    if args.topology:
        # without --replicas a mesh sets the replica count and a ring has 8
        n = args.replicas or (8 if args.topology == "ring" else None)
        topo = _parse_topology(args.topology, n)
    m = generators.gen_module(
        args.model,
        replicas=args.replicas,
        topology=topo,
        steps=args.steps if args.steps is not None else -1,
        layers=args.layers,
        dim=args.dim,
        batch=args.batch,
        optimizer=args.optimizer,
        outfeed_every=args.outfeed_every,
    )
    text = print_module(m)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #


def cmd_compare(args) -> int:
    steps = _steps(args)
    if not args.tolerance >= 0:  # NaN too
        raise CLIError("args", f"--tolerance must be a non-negative number, got {args.tolerance}")
    m = _load_verified(args.module, args)
    cm = _cost_model(args)
    seed = _seed(args)
    compiled = _split(m, cm, args, steps)
    report: dict = {}
    if not args.cost_only:
        aux = {v.name for v in compiled.result.manifest.variables if v.kind == "aux"}
        inputs = random_inputs(m, seed, aux_names=aux)
        try:
            report["max_abs_diff"], report["max_rel_diff"] = pipeline.max_diffs(*compiled.run(inputs, seed))
        except SimulationError as e:
            raise CLIError("simulate", str(e)) from None
    model = compiled.model(cm)
    report["baseline_cost"] = model.baseline_cost.to_dict()
    report["transformed_cost"] = model.transformed_cost.to_dict()
    report["boundary_amortized_sec"] = model.boundary
    report["speedup"] = model.speedup
    report["baseline_memory"] = model.baseline_memory.to_dict()
    report["transformed_memory"] = model.transformed_memory.to_dict()
    report["memory_saving_ratio"] = model.memory_saving

    if args.json:  # only the JSON report lists the decisions
        header = {"replicas": m.replica_count, "topology": str(m.topology)}
        _emit_json({**header, "decisions": [d.to_dict() for d in compiled.decisions], **report}, args.json)
    _print_compare_table(report, args.cost_only)
    return 0 if args.cost_only or report["max_rel_diff"] <= args.tolerance else 1


def _print_compare_table(report: dict, cost_only: bool):
    rows = []
    b, t = report["baseline_cost"], report["transformed_cost"]
    rows.append(("step time (s)", f"{b['total_step_time']:.6e}", f"{t['total_step_time']:.6e}"))
    rows.append(("compute (s)", f"{b['compute_time']:.6e}", f"{t['compute_time']:.6e}"))
    rows.append(("collectives (s)", f"{b['collective_time']:.6e}", f"{t['collective_time']:.6e}"))
    rows.append(("weight-update share", f"{b['weight_update_share']:.3f}", f"{t['weight_update_share']:.3f}"))
    bm, tm = report["baseline_memory"], report["transformed_memory"]
    rows.append(("peak memory (B)", str(bm["peak_bytes"]), str(tm["peak_bytes"])))
    if not cost_only:
        rows.append(("max |diff|", f"{report['max_abs_diff']:.3e}", ""))
        rows.append(("max rel diff", f"{report['max_rel_diff']:.3e}", ""))
    w0 = max(len(r[0]) for r in rows)
    w1 = max(len(r[1]) for r in rows)
    print(f"{'':{w0}}  {'baseline':>{w1}}  transformed")
    for name, a, bb in rows:
        print(f"{name:{w0}}  {a:>{w1}}  {bb}")
    print(f"speedup: {report['speedup']:.3f}x   "
          f"memory saving: {report['memory_saving_ratio']:.3f}x")


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


STEPS_HELP = (f"amortization horizon, at least 1 (default: the loop's trip count, or {DEFAULT_TRIP_COUNT} "
              "without a loop or when the trip count is unknown or 0)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="shardgraph", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    a = sub.add_parser("analyze", help="redundancy (and profitability) analysis")
    a.add_argument("module")
    a.add_argument("--profit", action="store_true", help="include per-cluster decisions")
    a.add_argument("--steps", type=int, default=None, help=STEPS_HELP)
    a.add_argument("--cost-model", default=None)
    a.add_argument("--json", default=None, help="write JSON here instead of stdout")
    a.set_defaults(fn=cmd_analyze)

    t = sub.add_parser("transform", help="apply weight-update sharding")
    t.add_argument("module")
    t.add_argument("--out-dir", required=True)
    t.add_argument("--steps", type=int, default=None, help=STEPS_HELP)
    t.add_argument("--cost-model", default=None)
    t.add_argument("--no-demote", action="store_true")
    t.add_argument("--no-batch", action="store_true")
    t.set_defaults(fn=cmd_transform)

    s = sub.add_parser("simulate", help="run a module on the multi-replica simulator")
    s.add_argument("module")
    s.add_argument("--replicas", type=int, default=None, help="override the module header")
    s.add_argument("--topology", default=None)
    s.add_argument("--inputs", default=None, help="inputs JSON (default: random by seed)")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", default=None, help="outputs JSON path")
    s.set_defaults(fn=cmd_simulate)

    c = sub.add_parser("cost", help="model step time")
    c.add_argument("module")
    c.add_argument("--model", dest="cost_model", default=None)
    c.add_argument("--json", default=None)
    c.set_defaults(fn=cmd_cost)

    g = sub.add_parser("gen", help="generate a synthetic training module")
    g.add_argument("model", choices=generators.MODELS)
    g.add_argument("--layers", type=int, default=None)
    g.add_argument("--dim", type=int, default=None)
    g.add_argument("--batch", type=int, default=None)
    g.add_argument("--optimizer", choices=("sgd", "adam", "lars"), default=None)
    g.add_argument("--replicas", type=int, default=None)
    g.add_argument("--topology", default=None, help="ring or RxC mesh, e.g. 32x64")
    g.add_argument("--steps", type=int, default=None, help="loop bound; 0 for no loop")
    g.add_argument("--outfeed-every", type=int, default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gen)

    cp = sub.add_parser("compare", help="baseline vs transformed: outputs, cost, memory")
    cp.add_argument("module")
    cp.add_argument("--replicas", type=int, default=None)
    cp.add_argument("--topology", default=None)
    cp.add_argument("--steps", type=int, default=None,
                    help=STEPS_HELP + "; without a loop, also the steps simulated (default 1)")
    cp.add_argument("--seed", type=int, default=None)
    cp.add_argument("--cost-model", default=None)
    cp.add_argument("--tolerance", type=float, default=1e-6,
                    help="max allowed |diff| / (1 + |baseline|) before a nonzero exit")
    cp.add_argument("--cost-only", action="store_true", help="skip simulation")
    cp.add_argument("--no-demote", action="store_true")
    cp.add_argument("--no-batch", action="store_true")
    cp.add_argument("--json", default=None)
    cp.set_defaults(fn=cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CLIError as e:
        for line in str(e).splitlines() or [""]:
            print(f"[{e.stage}] {line}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
