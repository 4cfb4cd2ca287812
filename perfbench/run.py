"""shardgraph benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. One run:

1. warms up with one untimed op on every case of workload W built from the
   golden seed, checking each against `golden.json` and the first against
   `shardgraph compare --json`;
2. builds W from seed N several times (set-up, timed);
3. runs ops for at least S seconds and at least one full pass over the
   cases, one workload per process and single-threaded.

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
every case untraced and traced in turn, prints the per-layer metrics from the
traced ops' spans, and writes the spans to `perfbench/out/`. Every line
before the last is for people; the last line is the JSON result. An op fails
when it raises, emits a program that `verify` rejects, gives transformed
outputs beyond compare's tolerance, or gives decisions or baseline outputs
that differ from the golden or from its own earlier ops.

The workloads, the layer-to-metric map and the reference numbers are in
`perfbench/NOTES.md`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_sources() -> bool:
    """Import shardgraph from the checkout's sources and the benchmark as
    the `perfbench` package; False, with a message, when the sources are
    missing."""
    if not (ROOT / "src" / "shardgraph" / "__init__.py").is_file():
        print(f"shardgraph sources not found under {ROOT / 'src'}", file=sys.stderr)
        return False
    for p in (str(ROOT), str(ROOT / "src")):
        if p not in sys.path:
            sys.path.insert(0, p)
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not use_sources():
        return 2
    from perfbench.bench import measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    for line in result.pop("info"):
        print(line)
    failed, attempted = result["failed"], result["attempted"]
    print(f"failed_ops {failed / attempted:.6g} share ({failed} of {attempted} ops)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
