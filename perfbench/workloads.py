"""The benchmark's workloads and their set-up.

A workload is a list of cases. A case is one module in text form plus the
simulator inputs and seed that `shardgraph compare` would draw for it. Set-up
(module generation, printing and `cli.random_inputs`) happens here, outside
the timed op; the op starts from the text, as the CLI does from a file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from shardgraph import cli, generators, textfmt
from shardgraph.ir import mesh_topology, ring_topology


@dataclass
class Case:
    name: str
    text: str
    seed: int  # the seed `compare --seed` gets: inputs and rng streams
    # drawn with no aux names; the op applies the manifest's aux names the
    # way `cli.random_inputs` would (they change no draw, only its sign and
    # scale). None on a cost-only workload.
    inputs: dict | None


@dataclass(frozen=True)
class Workload:
    name: str
    cost_only: bool
    build: Callable[[int, dict], list[Case]]  # (seed, sizes) -> cases
    sizes: dict  # default sizes; tests pass smaller ones


def _case(name: str, m, seed: int, cost_only: bool) -> Case:
    text = textfmt.print_module(m)
    return Case(name, text, seed, None if cost_only else cli.random_inputs(m, seed))


def build_compile_transformer(seed: int, sizes: dict) -> list[Case]:
    # the module does not depend on the seed: the cost-only compare draws
    # no inputs
    m = generators.gen_module("transformer-like", layers=sizes["layers"])
    return [_case(f"transformer-like-{sizes['layers']}", m, seed, cost_only=True)]


def build_simulate_ncf(seed: int, sizes: dict) -> list[Case]:
    m = generators.gen_module(
        "ncf-like", topology=mesh_topology(*sizes["mesh"]), steps=sizes["steps"], batch=sizes["batch"]
    )
    return [_case("ncf-like", m, seed, cost_only=False)]


TOPOLOGIES = {
    "ring2": lambda: ring_topology(2),
    "ring4": lambda: ring_topology(4),
    "ring8": lambda: ring_topology(8),
    "ring16": lambda: ring_topology(16),
    "mesh2x2": lambda: mesh_topology(2, 2),
    "mesh2x4": lambda: mesh_topology(2, 4),
    "mesh4x4": lambda: mesh_topology(4, 4),
}
# (optimizer, topology, layers, loop steps; 0 is no loop)
DESIGN = [
    (opt, topo, layers, steps)
    for opt in ("sgd", "adam", "lars")
    for topo in TOPOLOGIES
    for layers in (1, 2, 3)
    for steps in (0, 2, 3)
]
# the largest module of the design at the largest dim, with the outfeed
LARGEST = ("adam", "ring16", 3, 3, 128, True)


def _mlp_case(spec, input_seed: int) -> Case:
    opt, topo, layers, steps, dim, outfeed = spec
    m = generators.gen_module(
        "mlp",
        topology=TOPOLOGIES[topo](),
        steps=steps,
        layers=layers,
        dim=dim,
        optimizer=opt,
        outfeed_every=2 if outfeed else None,
    )
    name = f"mlp-{opt}-{topo}-l{layers}-d{dim}-s{steps}{'-of2' if outfeed else ''}"
    return _case(name, m, input_seed, cost_only=False)


def build_equiv_mix(seed: int, sizes: dict) -> list[Case]:
    """Small mlp modules drawn from the seed.

    The first module is always the design's largest at dim 128; it sets the
    run's peak memory whatever the seed. The others take the combinations of
    optimizer, topology, depth and loop steps in seeded order, each once
    before any repeats, so the seed draws only the order, each module's dim
    (16-128, one draw from each of equal strata), which looped modules get
    the every-2 outfeed (half of them), and the input seeds. Op time depends
    mostly on the combination, so the median and tail op time and the
    modeled ratios move far less between seeds than with independent draws.
    """
    n = sizes["modules"] - 1
    rng = np.random.default_rng(seed)
    combos = [DESIGN[i % len(DESIGN)] for i in rng.permutation(max(n, len(DESIGN)))][:n]
    dims = [16 + int((k + rng.random()) * 113 / n) for k in rng.permutation(n)]
    looped = [i for i, c in enumerate(combos) if c[3]]
    outfeed = set(looped[k] for k in rng.permutation(len(looped))[: len(looped) // 2])
    input_seeds = [int(x) for x in rng.integers(0, 2**31 - 1, size=n + 1)]
    specs = [LARGEST] + [(*c, dims[i], i in outfeed) for i, c in enumerate(combos)]
    return [_mlp_case(spec, s) for spec, s in zip(specs, input_seeds)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compile-transformer", True, build_compile_transformer, {"layers": 150}),
        Workload("simulate-ncf", False, build_simulate_ncf, {"mesh": (4, 8), "steps": 2, "batch": 256}),
        Workload("equiv-mix", False, build_equiv_mix, {"modules": 1 + len(DESIGN)}),
    )
}
