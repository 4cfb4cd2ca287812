"""Write perfbench/golden.json from the current sources.

    python3 perfbench/record_golden.py

For every workload built from the golden seed at its default sizes, records
the sha256 of each case's decision JSON, keyed by the sha256 of the module
text, and of each simulated case's baseline outputs, keyed by module and
seed. The benchmark fails any op whose digests differ from these, so record
only on a commit whose outputs are known good.
"""

from __future__ import annotations

import json
import sys

from run import use_sources


def main() -> int:
    if not use_sources():
        return 2
    from perfbench.bench import GOLDEN, GOLDEN_SEED
    from perfbench.op import run_op
    from perfbench.tracing import NullTracer
    from perfbench.workloads import WORKLOADS

    golden = {"seed": GOLDEN_SEED, "decisions": {}, "baseline_outputs": {}}
    for wl in WORKLOADS.values():
        for case in wl.build(GOLDEN_SEED, wl.sizes):
            res = run_op(case, wl.cost_only, NullTracer())
            if res.problems:
                print(f"{wl.name} {case.name}: {res.problems}", file=sys.stderr)
                return 1
            golden["decisions"][res.module_digest] = res.decisions_digest
            if res.outputs_digest is not None:
                golden["baseline_outputs"][f"{res.module_digest}:{case.seed}"] = res.outputs_digest
        print(f"{wl.name}: recorded")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
