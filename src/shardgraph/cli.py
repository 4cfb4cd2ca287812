"""Command-line front end.

Subcommands: `analyze` (redundancy and profitability), `transform` (three-
program split to a directory), `simulate`, `cost`, `compare` (end-to-end
baseline vs. transformed diff of outputs, modeled cost and peak memory), and
`gen` (synthetic training modules). SHARDGRAPH_SEED provides the seed when
--seed is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import generators, profitability, transform
from .costmodel import CostModel
from .ir import Module, Topology, TupleShape, mesh_topology, ring_topology
from .redundancy import analyze
from .simulator import PerReplica, cost, run
from .textfmt import parse_module, print_module
from .verify import verify


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("SHARDGRAPH_SEED", "0"))


def _parse_topology(text: str, n: int) -> Topology:
    if text == "ring":
        return ring_topology(n)
    body = text[4:] if text.startswith("mesh") else text
    r, c = body.lower().split("x")
    topo = mesh_topology(int(r), int(c))
    if topo.n != n:
        raise SystemExit(f"topology {text} has {topo.n} replicas, expected {n}")
    return topo


def _load_module(path: str) -> Module:
    return parse_module(Path(path).read_text())


def _override_topology(m: Module, args) -> Module:
    if args.replicas is None and args.topology is None:
        return m
    n = args.replicas if args.replicas is not None else m.replica_count
    topo = _parse_topology(args.topology, n) if args.topology else ring_topology(n)
    return Module(entry=m.entry, replica_count=n, topology=topo, tile=m.tile)


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


def _cost_model(args) -> CostModel:
    if getattr(args, "cost_model", None):
        return CostModel.from_dict(json.loads(Path(args.cost_model).read_text()))
    return CostModel()


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #


def cmd_analyze(args) -> int:
    m = _load_module(args.module)
    diags = verify(m)
    if diags:
        for d in diags:
            print(str(d), file=sys.stderr)
        return 2
    rmap = analyze(m)
    out = {"verdicts": rmap.to_dict(), "summary": rmap.summary()}
    if args.profit:
        decisions = profitability.plan(m, _cost_model(args), steps=args.steps)
        out["clusters"] = [d.to_dict() for d in decisions]
    _emit_json(out, args.json)
    return 0


def cmd_transform(args) -> int:
    m = _load_module(args.module)
    decisions = profitability.plan(m, _cost_model(args), steps=args.steps)
    result = transform.apply(m, decisions, steps_hint=args.steps)
    main = result.main
    if not args.no_demote:
        main = transform.demote_allgather_precision(main)
    if not args.no_batch:
        main = transform.batch_collectives(main)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "main.ir").write_text(print_module(main))
    (out / "shard.ir").write_text(print_module(result.shard_program))
    (out / "unshard.ir").write_text(print_module(result.unshard_program))
    (out / "manifest.json").write_text(result.manifest.to_json() + "\n")
    sharded = [v.name for v in result.manifest.variables if v.residency == "sharded"]
    print(f"wrote {out}/: main.ir shard.ir unshard.ir manifest.json "
          f"(sharded: {', '.join(sharded) if sharded else 'none'})")
    return 0


def _inputs_from_file(m: Module, path: str) -> dict:
    raw = json.loads(Path(path).read_text())
    inputs = {}
    for p in m.entry.parameters:
        if p.id not in raw:
            raise SystemExit(f"inputs file missing parameter {p.id!r}")
        entry = raw[p.id]
        if isinstance(entry, dict) and "per_replica" in entry:
            inputs[p.id] = PerReplica(entry["per_replica"])
        elif isinstance(entry, dict) and "value" in entry:
            inputs[p.id] = entry["value"]
        else:
            inputs[p.id] = entry
    return inputs


def random_inputs(m: Module, seed: int, aux_names: set[str] | None = None) -> dict:
    """Deterministic inputs: replica-equal parameters get one draw, others one
    draw per replica; names in `aux_names` are made non-negative (optimizer
    second moments)."""
    rng = np.random.default_rng(seed)
    aux_names = aux_names or set()
    inputs = {}
    for p in m.entry.parameters:
        if isinstance(p.shape, TupleShape):
            raise SystemExit(f"tuple-shaped entry parameter {p.id} needs an inputs file")

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
            inputs[p.id] = PerReplica([draw() for _ in range(m.replica_count)])
    return inputs


def cmd_simulate(args) -> int:
    m = _override_topology(_load_module(args.module), args)
    seed = _seed(args)
    if args.inputs:
        inputs = _inputs_from_file(m, args.inputs)
    else:
        inputs = random_inputs(m, seed)
    result = run(m, inputs, seed=seed)
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
    m = _load_module(args.module)
    cm = _cost_model(args)
    try:
        decisions = profitability.plan(m, cm)
    except Exception as e:  # surface the failing pass per the CLI contract
        print(f"[analyze] {e}", file=sys.stderr)
        return 2
    report = cost(m, cm, profitability.update_member_ids(decisions))
    _emit_json(report.to_dict(), args.json)
    return 0


def cmd_gen(args) -> int:
    topo = None
    if args.topology:
        if args.replicas is None and args.topology != "ring":
            body = args.topology[4:] if args.topology.startswith("mesh") else args.topology
            r, c = body.lower().split("x")
            topo = mesh_topology(int(r), int(c))
        else:
            topo = _parse_topology(args.topology, args.replicas or 8)
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


def _chain_inputs(module: Module, outputs_per_replica) -> dict:
    params = module.entry.parameters
    return {
        p.id: PerReplica([out[idx] for out in outputs_per_replica])
        for idx, p in enumerate(params)
    }


def _flatten(v):
    if isinstance(v, tuple):
        out = []
        for e in v:
            out.extend(_flatten(e))
        return out
    return [np.asarray(v)]


def _diff_outputs(a, b):
    """(max absolute diff, max scaled diff). The scaled diff divides by
    1 + |baseline| so it behaves like a relative tolerance on large values
    and an absolute one near zero."""
    max_abs = 0.0
    max_rel = 0.0
    for va, vb in zip(a, b):
        fa, fb = _flatten(va), _flatten(vb)
        for xa, xb in zip(fa, fb):
            xa64 = xa.astype(np.float64)
            xb64 = xb.astype(np.float64)
            d = np.abs(xa64 - xb64)
            if d.size == 0:
                continue
            max_abs = max(max_abs, float(np.max(d)))
            max_rel = max(max_rel, float(np.max(d / (1.0 + np.abs(xa64)))))
    return max_abs, max_rel


def cmd_compare(args) -> int:
    m = _override_topology(_load_module(args.module), args)
    cm = _cost_model(args)
    seed = _seed(args)
    steps = args.steps

    diags = verify(m)
    if diags:
        for d in diags:
            print(f"[verify] {d}", file=sys.stderr)
        return 2

    loop = next((i for i in m.entry.instructions if i.opcode == "while"), None)
    loop_steps = profitability.loop_trip_count(loop) if loop is not None else None
    amortize = loop_steps or steps or profitability.DEFAULT_TRIP_COUNT

    try:
        decisions = profitability.plan(m, cm, steps=amortize)
    except Exception as e:  # surface the failing pass per the CLI contract
        print(f"[analyze] {e}", file=sys.stderr)
        return 2
    try:
        result = transform.apply(m, decisions, steps_hint=amortize)
        main = result.main
        if not args.no_demote:
            main = transform.demote_allgather_precision(main)
        if not args.no_batch:
            main = transform.batch_collectives(main)
    except Exception as e:
        print(f"[transform] {e}", file=sys.stderr)
        return 2

    report: dict = {
        "replicas": m.replica_count,
        "topology": str(m.topology),
        "decisions": [d.to_dict() for d in decisions],
    }

    max_abs = max_rel = 0.0
    if not args.cost_only:
        try:
            aux = {v.name for v in result.manifest.variables if v.kind == "aux"}
            inputs = random_inputs(m, seed, aux_names=aux)
            k = 1 if loop is not None else (steps or 1)
            base_out = _run_chained(m, inputs, seed, k)
            sh = run(result.shard_program, inputs, seed=seed)
            main_out = _run_chained(main, _chain_inputs(main, sh.outputs), seed, k)
            fin = run(result.unshard_program, _chain_inputs(result.unshard_program, main_out), seed=seed)
        except Exception as e:
            print(f"[simulate] {e}", file=sys.stderr)
            return 2
        for r in range(m.replica_count):
            a, rel = _diff_outputs([base_out[r]], [fin.outputs[r]])
            max_abs, max_rel = max(max_abs, a), max(max_rel, rel)
        report["max_abs_diff"] = max_abs
        report["max_rel_diff"] = max_rel

    members = profitability.update_member_ids(decisions)
    base_cost = cost(m, cm, members)
    main_cost = cost(main, cm, members)
    shard_cost = cost(result.shard_program, cm, members)
    unshard_cost = cost(result.unshard_program, cm, members)
    boundary = (shard_cost.total_step_time + unshard_cost.total_step_time) / amortize
    trans_time = main_cost.total_step_time + boundary
    speedup = base_cost.total_step_time / trans_time if trans_time else 1.0
    report["baseline_cost"] = base_cost.to_dict()
    report["transformed_cost"] = main_cost.to_dict()
    report["boundary_amortized_sec"] = boundary
    report["speedup"] = speedup

    base_mem = transform.memory_plan_for(m, transform.baseline_manifest(result.manifest), m)
    trans_mem = transform.memory_plan_for(main, result.manifest, m)
    report["baseline_memory"] = base_mem.to_dict()
    report["transformed_memory"] = trans_mem.to_dict()
    report["memory_saving_ratio"] = (
        base_mem.peak_bytes / trans_mem.peak_bytes if trans_mem.peak_bytes else 1.0
    )

    if args.json:
        _emit_json(report, args.json)
    _print_compare_table(report, args.cost_only)

    if args.cost_only:
        return 0
    return 0 if max_rel <= args.tolerance else 1


def _run_chained(m: Module, inputs: dict, seed: int, k: int):
    outs = None
    for _ in range(k):
        if outs is not None:
            inputs = _chain_inputs(m, outs)
        res = run(m, inputs, seed=seed)
        outs = res.outputs
    return outs


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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="shardgraph", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    a = sub.add_parser("analyze", help="redundancy (and profitability) analysis")
    a.add_argument("module")
    a.add_argument("--profit", action="store_true", help="include per-cluster decisions")
    a.add_argument("--steps", type=int, default=None, help="amortization horizon")
    a.add_argument("--cost-model", default=None)
    a.add_argument("--json", default=None, help="write JSON here instead of stdout")
    a.set_defaults(fn=cmd_analyze)

    t = sub.add_parser("transform", help="apply weight-update sharding")
    t.add_argument("module")
    t.add_argument("--out-dir", required=True)
    t.add_argument("--steps", type=int, default=None)
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
    cp.add_argument("--steps", type=int, default=None)
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
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
