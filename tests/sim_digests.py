"""Golden simulator digests: sha256 of `run()` outputs, outfeeds and
collective stats over a fixed set of modules, so that a numeric change in
the simulator shows even when it hits baseline and transformed runs alike.

    PYTHONPATH=src:tests python3 tests/sim_digests.py

rewrites tests/data/sim_digests.json from the current sources; record only
on a commit whose simulator is known good. The cases are the random modules
of criterion 9, every small preset on a 4-ring and a 2x2 mesh (baseline,
plus the forced shard, main and unshard programs) and an mlp with outfeeds
on each of those topologies.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from conftest import small_preset, training_inputs
from randmod import random_inputs_for, random_module
from shardgraph import pipeline, profitability
from shardgraph.generators import MODELS, gen_module
from shardgraph.ir import mesh_topology, ring_topology
from shardgraph.simulator import run

DIGESTS = Path(__file__).parent / "data" / "sim_digests.json"
RANDMOD_SEEDS = range(110)  # the seeds criterion 9 checks


def _update(h, v) -> None:
    if isinstance(v, tuple):
        h.update(b"(")
        for e in v:
            _update(h, e)
        h.update(b")")
        return
    a = np.asarray(v)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())


def result_digest(res) -> str:
    h = hashlib.sha256()
    for out in res.outputs:
        h.update(b"out")
        _update(h, out)
    for feed in res.outfeeds:
        h.update(b"feed")
        for instr_id, v in feed:
            h.update(instr_id.encode())
            _update(h, v)
    h.update(f"stats {res.stats.rounds} {res.stats.bytes_sent!r}".encode())
    return h.hexdigest()


def compute() -> dict[str, str]:
    out = {}
    for seed in RANDMOD_SEEDS:
        m = random_module(seed)
        out[f"randmod/{seed}"] = result_digest(run(m, random_inputs_for(m, seed), seed=seed))
    topologies = (("ring4", ring_topology(4)), ("mesh2x2", mesh_topology(2, 2)))
    for model in MODELS:
        for label, topo in topologies:
            key = f"preset/{model}/{label}"
            m = small_preset(model, topo)
            out[f"{key}/baseline"] = result_digest(run(m, training_inputs(m, 0), seed=1))
            decisions = profitability.plan(m, steps=2)
            for d in decisions:
                d.shard = True  # the planner's groups: row-local on the mesh
            c = pipeline.compile_module(m, decisions, 2)
            sh = run(c.result.shard_program, training_inputs(m, 0), seed=1)
            mo = run(c.main, pipeline.chain_inputs(c.main, sh.outputs), seed=1)
            fin = run(c.result.unshard_program, pipeline.chain_inputs(c.result.unshard_program, mo.outputs), seed=1)
            out[f"{key}/shard"] = result_digest(sh)
            out[f"{key}/main"] = result_digest(mo)
            out[f"{key}/unshard"] = result_digest(fin)
    for label, topo in topologies:
        m = gen_module("mlp", topology=topo, steps=3, layers=2, dim=8, outfeed_every=2)
        out[f"outfeed/mlp/{label}"] = result_digest(run(m, training_inputs(m, 9), seed=9))
    return out


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
