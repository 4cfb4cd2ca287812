import numpy as np
import pytest

from shardgraph import pipeline, profitability
from shardgraph.generators import MODELS, WeightDef, build_training_module, preset
from shardgraph.ir import Module, TupleShape, mesh_topology, ring_topology
from shardgraph.sharding import choose_spec
from shardgraph.simulator import PerReplica


def bitwise_same(a, b) -> bool:
    """Strict equality: same dtype, shape and bytes (NaNs compare equal to
    themselves bit-for-bit)."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (
            isinstance(a, tuple)
            and isinstance(b, tuple)
            and len(a) == len(b)
            and all(bitwise_same(x, y) for x, y in zip(a, b))
        )
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def training_inputs(m: Module, seed: int) -> dict:
    """Deterministic inputs for generated training modules: per-replica batch
    for x, shared draws elsewhere, non-negative second moments."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for p in m.entry.parameters:
        if isinstance(p.shape, TupleShape):
            raise AssertionError("generated modules have array parameters")
        if p.shape.etype.value == "s32":
            inputs[p.id] = np.zeros(p.shape.dims, dtype=np.int32)
        elif p.id == "x":
            inputs[p.id] = PerReplica(
                [
                    rng.normal(0, 1, size=p.shape.dims).astype(np.float32)
                    for _ in range(m.replica_count)
                ]
            )
        elif p.id.startswith("v"):
            inputs[p.id] = np.abs(rng.normal(0, 0.01, size=p.shape.dims)).astype(np.float32)
        else:
            inputs[p.id] = rng.normal(0, 0.5, size=p.shape.dims).astype(np.float32)
    return inputs


def run_pipeline(m: Module, steps, seed, demote=False, batch=False, pin_full_groups=True):
    """Baseline vs shard/main/unshard composition with every cluster forced
    to shard; returns (baseline outputs, composed outputs, transform result,
    main program).

    The forced decisions pin full-group sharding by default, so the transformed
    collectives use the same rings as the baseline all-reduce and results
    stay bitwise identical. With `pin_full_groups=False` they keep the
    planner's groups; row-local sharding on a mesh re-associates reductions
    and is held to compare's tolerance in
    test_transform.py::TestPartialSharding::test_planner_row_groups_within_tolerance."""
    decisions = profitability.plan(m, steps=steps)
    for d in decisions:
        d.shard = True
        if pin_full_groups and not d.spec.group.is_all:
            d.spec = choose_spec(d.cluster.anchor.shape, m.replica_count, m.tile)
    compiled = pipeline.compile_module(m, decisions, steps, demote=demote, batch=batch)
    base_outs, outs = compiled.run(training_inputs(m, seed), seed)
    return base_outs, outs, compiled.result, compiled.main


def outputs_bitwise_equal(a, b) -> bool:
    return all(bitwise_same(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def small_preset(model: str, topology, steps: int | None = 2):
    """The preset's optimizer, precision and weight ranks with every dim
    divided by 32 (at least 2), a counted loop of `steps` steps (no loop when
    None) and no outfeed."""
    cfg = preset(model, layers=2)

    def small(d):
        return max(d // 32, 2)

    cfg.weights = [
        WeightDef(w.dims[:-2] + (small(w.dims[-2]), small(w.out_dim)), small(w.in_dim), small(w.out_dim))
        for w in cfg.weights
    ]
    cfg.batch, cfg.steps, cfg.topology, cfg.replicas = 4, steps, topology, topology.n
    return build_training_module(cfg)


def compiled_small_presets():
    """(name, baseline, transform result, main after demotion and batching)
    for every small preset on a 4-ring and a 2x2 mesh, with a 2-step loop and
    without one, planned as `compare` plans and every cluster forced to
    shard."""
    for model in MODELS:
        for label, topo in (("ring4", ring_topology(4)), ("mesh2x2", mesh_topology(2, 2))):
            for loop, steps in (("loop", 2), ("noloop", None)):
                m = small_preset(model, topo, steps)
                decisions = profitability.plan(m)
                for d in decisions:
                    d.shard = True
                compiled = pipeline.compile_module(m, decisions)
                yield f"{model}/{label}/{loop}", m, compiled.result, compiled.main


@pytest.fixture
def handled(monkeypatch):
    """The instructions whose opcode handler `verify` runs, in order, kept alive."""
    from shardgraph.verify import _Verifier

    seen: list = []
    counting = {}
    for op, (counts, owned, handler) in _Verifier._HANDLERS.items():
        def run(self, instr, handler=handler):
            seen.append(instr)
            return handler(self, instr)

        counting[op] = (counts, owned, run)
    monkeypatch.setattr(_Verifier, "_HANDLERS", counting)
    return seen
