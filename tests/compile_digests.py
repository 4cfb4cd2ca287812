"""Golden compile digests: sha256 of what the compiler emits over a fixed set
of modules, so that a rewrite of the passes shows any byte it changes.

    PYTHONPATH=src:tests python3 tests/compile_digests.py

rewrites tests/data/compile_digests.json from the current sources; record
only on a commit whose compiler is known good. Each case is planned as
`compare` plans it, once with the planner's decisions and once with every
cluster forced to shard (the planner's groups). The digests cover the
decisions, the manifest, the printed main, shard and unshard programs, and
the main program after demotion and after batching. The cases are every
small preset on a ring of 8 and on 2x4 and 4x8 meshes, with a counted
2-step loop and without a loop, transformer-like at 3 layers on 4x8, and an
mlp with outfeeds (so with conditionals) on 2x4.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from conftest import small_preset
from shardgraph import pipeline, profitability, transform
from shardgraph.generators import MODELS, gen_module
from shardgraph.ir import mesh_topology, ring_topology
from shardgraph.textfmt import print_module

DIGESTS = Path(__file__).parent / "data" / "compile_digests.json"
TOPOLOGIES = (("ring8", ring_topology(8)), ("mesh2x4", mesh_topology(2, 4)), ("mesh4x8", mesh_topology(4, 8)))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compile_digests(m, force: bool) -> dict[str, str]:
    """The digest of each compiler output for `m`, keyed by output name."""
    decisions = profitability.plan(m)
    if force:
        for d in decisions:
            d.shard = True
    compiled = pipeline.compile_module(m, decisions, batch=False)
    result, demoted = compiled.result, compiled.main
    batched = transform.batch_collectives(demoted)
    return {
        "decisions": _sha(json.dumps([d.to_dict() for d in decisions], sort_keys=True)),
        "manifest": _sha(result.manifest.to_json()),
        "main": _sha(print_module(result.main)),
        "shard": _sha(print_module(result.shard_program)),
        "unshard": _sha(print_module(result.unshard_program)),
        "demoted": _sha(print_module(demoted)),
        "batched": _sha(print_module(batched)),
    }


def modules():
    """(name, module) for every case."""
    for model in MODELS:
        for label, topo in TOPOLOGIES:
            yield f"preset/{model}/{label}/loop", small_preset(model, topo)
            yield f"preset/{model}/{label}/noloop", small_preset(model, topo, steps=None)
    yield "transformer-like/3/mesh4x8", gen_module("transformer-like", topology=mesh_topology(4, 8), layers=3)
    yield "outfeed/mlp/mesh2x4", gen_module(
        "mlp", topology=mesh_topology(2, 4), steps=3, layers=2, dim=16, outfeed_every=2
    )


def compute() -> dict[str, str]:
    out = {}
    for name, m in modules():
        for mode, force in (("planned", False), ("forced", True)):
            for what, digest in compile_digests(m, force).items():
                out[f"{name}/{mode}/{what}"] = digest
    return out


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
