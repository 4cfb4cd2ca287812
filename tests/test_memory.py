"""The memory accountant's live-range walk against a reference copy of the
walk as written before it indexed by topological position."""

import numpy as np

from conftest import compiled_small_presets
from randmod import random_module
from shardgraph import memory
from shardgraph.ir import DEFAULT_TILE
from test_ir import reference_topo_order


def reference_liveness_peak(comp, exclude, tile) -> int:
    """`memory.liveness_peak` with positions and last uses in dicts keyed by
    instruction id, over the reference topological order."""
    order = reference_topo_order(comp)
    index = {ins.id: i for i, ins in enumerate(order)}
    last_use = {ins.id: i for i, ins in enumerate(order)}
    for i, ins in enumerate(order):
        for op in ins.operands:
            if op.id in last_use:
                last_use[op.id] = max(last_use[op.id], i)
    last_use[comp.root.id] = len(order) - 1

    deltas = [0] * (len(order) + 1)
    for ins in order:
        if ins.id in exclude:
            continue
        b = memory._buffer_bytes(ins, tile)
        if b == 0:
            continue
        deltas[index[ins.id]] += b
        deltas[last_use[ins.id] + 1] -= b
    peak = 0
    live = 0
    for d in deltas[:-1]:
        live += d
        peak = max(peak, live)
    return peak


def test_liveness_peak_matches_reference_on_random_modules():
    rng = np.random.default_rng(0)
    for seed in range(200):
        for comp in random_module(seed).computations():
            ids = [i.id for i in comp.instructions]
            exclude = {i for i in ids if rng.random() < 0.3}
            for ex in (set(), exclude):
                assert memory.liveness_peak(comp, ex, DEFAULT_TILE) == reference_liveness_peak(comp, ex, DEFAULT_TILE)


def test_memory_plans_match_reference_on_compiled_presets(monkeypatch):
    """The two plans `compare` makes (the baseline at full residency and the
    transformed main), and the plan of the main before demotion and
    batching, on every compiled small preset."""
    cases = []
    for name, m, result, main in compiled_small_presets():
        full = memory.baseline_manifest(result.manifest)
        cases += [(name, m, full, m), (name, result.main, result.manifest, m), (name, main, result.manifest, m)]
    got = [memory.memory_plan_for(prog, manifest, base).to_dict() for _, prog, manifest, base in cases]
    monkeypatch.setattr(memory, "liveness_peak", reference_liveness_peak)
    want = [memory.memory_plan_for(prog, manifest, base).to_dict() for _, prog, manifest, base in cases]
    assert len(cases) == 48 and all(w["other_peak"] > 0 for w in want)
    for (name, *_), g, w in zip(cases, got, want):
        assert g == w, name
