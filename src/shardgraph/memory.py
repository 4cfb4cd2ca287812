"""Peak-memory accounting, the oracle's memory model.

`memory_plan_for` is the entry point: it charges the step computation of a
module (the loop body, or the entry) against a manifest of variable
residency, and `baseline_manifest` gives the manifest of the untransformed
module. The transform writes the manifest; nothing here imports the transform.

The accountant separates buffers into three categories using the transform
manifest: weight state (W), auxiliary/optimizer state (V) and everything else
(P: activations, gradients and transients, plus non-state inputs). P is
measured with a live-range analysis over the linearized computation; state is
charged by residency:

  * full residency:            state contributes its full physical bytes;
  * sharded, gathered in body: weights still contribute full bytes (the shard
    aliases into the gathered buffer, like a slice fused into its consumer);
  * sharded, never gathered:   contributes full_bytes / shard_count.

The peak of a transformed program is max(in-body peak, W + V), the second term
being the point where the unsharding program materializes the full state.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .ir import Computation, ElementType, Instruction, Module, Shape, TupleShape, physical_bytes, topo_order
from .sharding import ShardingSpec


@dataclass
class VariableInfo:
    name: str  # baseline entry parameter id
    kind: str  # "weight" | "aux" | "other"
    param_index: int
    slot: int | None = None  # loop state tuple index (None when no loop)
    output_index: int | None = None  # position in the program root tuple
    residency: str = "full"  # "full" | "sharded"
    spec: ShardingSpec | None = None
    gathered_in_body: bool = False
    placements: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "param_index": self.param_index,
            "slot": self.slot,
            "output_index": self.output_index,
            "residency": self.residency,
            "spec": str(self.spec) if self.spec else None,
            "shard_count": self.spec.shard_count if self.spec else 1,
            "gathered_in_body": self.gathered_in_body,
            "placements": list(self.placements),
        }


@dataclass
class Manifest:
    variables: list[VariableInfo] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def by_slot(self) -> dict[int, VariableInfo]:
        return {v.slot: v for v in self.variables if v.slot is not None}

    def to_json(self) -> str:
        return json.dumps(
            {"variables": [v.to_dict() for v in self.variables], "notes": self.notes},
            indent=2,
        )


@dataclass
class MemoryReport:
    weight_bytes: int  # W: full weight state
    aux_bytes: int  # V: full auxiliary state
    other_peak: int  # P: live-range peak of non-state buffers
    body_bytes: float  # in-body charge: W' + V' + P by residency
    boundary_bytes: int  # full state materialization outside the loop
    peak_bytes: float

    def to_dict(self) -> dict:
        return {
            "weight_bytes": self.weight_bytes,
            "aux_bytes": self.aux_bytes,
            "other_peak": self.other_peak,
            "body_bytes": self.body_bytes,
            "boundary_bytes": self.boundary_bytes,
            "peak_bytes": self.peak_bytes,
        }


_ALIAS_OPCODES = frozenset({"tuple", "get-tuple-element", "bitcast", "replica-id"})


def _buffer_bytes(instr: Instruction, tile) -> int:
    if instr.opcode in _ALIAS_OPCODES:
        return 0
    return physical_bytes(instr.shape, tile)


def liveness_peak(comp: Computation, exclude: set[str], tile) -> int:
    """Max over program points of live buffer bytes, for instructions not in
    `exclude`. Live range runs from definition to last use; the root stays
    live to the end. Positions in the topological order index the walk."""
    order = topo_order(comp)
    n = len(order)
    position = {ins: k for k, ins in enumerate(order)}  # instructions hash by identity
    last_use = list(range(n))
    for k, ins in enumerate(order):
        for op in ins.operands:
            j = position.get(op)
            if j is not None:
                last_use[j] = k
    last_use[position[comp.root]] = n - 1

    deltas = [0] * (n + 1)
    for k, ins in enumerate(order):
        if ins.id in exclude:
            continue
        b = _buffer_bytes(ins, tile)
        if b == 0:
            continue
        deltas[k] += b
        deltas[last_use[k] + 1] -= b
    peak = 0
    live = 0
    for d in deltas[:-1]:
        live += d
        peak = max(peak, live)
    return peak


def _state_image_ids(comp: Computation, manifest: Manifest) -> set[str]:
    """Instructions whose buffers are charged through the W/V state model:
    the state parameter, slot projections, state-root elements, and the
    shard/gather fusions of state variables."""
    slots = manifest.by_slot()
    state_ids: set[str] = set()
    params = comp.parameters
    looped = len(params) == 1 and isinstance(params[0].shape, TupleShape)
    if looped:
        state_ids.add(params[0].id)
        for ins in comp.instructions:
            if ins.opcode == "get-tuple-element" and ins.operands and ins.operands[0] is params[0] and ins.index in slots:
                state_ids.add(ins.id)
    else:
        by_name = {v.name: v for v in manifest.variables}
        state_ids.update(p.id for p in params if p.id in by_name and by_name[p.id].kind in ("weight", "aux"))
    for ins in comp.instructions:
        if ins.opcode == "fusion" and ins.kind in ("shard", "unshard", "all_gather"):
            if any(op.id in state_ids for op in ins.operands):
                state_ids.add(ins.id)
    if comp.root.opcode == "tuple":
        state_ids.add(comp.root.id)
        for idx, op in enumerate(comp.root.operands):
            if looped and idx in slots and slots[idx].kind in ("weight", "aux"):
                state_ids.add(op.id)
            elif not looped and any(v.output_index == idx and v.kind in ("weight", "aux") for v in manifest.variables):
                state_ids.add(op.id)
    return state_ids


def memory_plan(
    comp: Computation,
    manifest: Manifest,
    full_shapes: dict[str, Shape],
    tile=(8, 128),
) -> MemoryReport:
    """Accountant for one step computation (the loop body, or the entry when
    there is no loop). `full_shapes` maps variable names to their full
    (unsharded) shapes."""
    weight_full = aux_full = 0
    body_state = 0.0
    any_sharded = False
    for v in manifest.variables:
        if v.kind not in ("weight", "aux"):
            continue
        b = physical_bytes(full_shapes[v.name], tile)
        if v.kind == "weight":
            weight_full += b
        else:
            aux_full += b
        if v.residency == "sharded":
            any_sharded = True
            if v.gathered_in_body:
                body_state += b
            else:
                body_state += b / (v.spec.shard_count if v.spec else 1)
        else:
            body_state += b

    exclude = _state_image_ids(comp, manifest)
    p = liveness_peak(comp, exclude, tile)
    body = body_state + p
    boundary = weight_full + aux_full
    peak = max(body, boundary) if any_sharded else body
    return MemoryReport(
        weight_bytes=weight_full,
        aux_bytes=aux_full,
        other_peak=p,
        body_bytes=body,
        boundary_bytes=boundary,
        peak_bytes=peak,
    )


def step_computation(m: Module) -> Computation:
    """The computation whose per-step footprint matters: the body of the
    training loop when one exists, otherwise the entry."""
    loop = m.training_loop()
    return loop.body if loop is not None else m.entry


def memory_plan_for(m: Module, manifest: Manifest, baseline: Module) -> MemoryReport:
    """Accountant over the step computation of `m` using full shapes from the
    baseline entry signature (`m` itself when `m` is the baseline)."""
    full_shapes = {p.id: p.shape for p in baseline.entry.parameters if isinstance(p.shape, Shape)}
    # variables whose init was not a parameter: take the full shape from the spec
    for v in manifest.variables:
        if v.name not in full_shapes and v.spec is not None:
            full_shapes[v.name] = v.spec.source_shape(ElementType.F32)
    return memory_plan(step_computation(m), manifest, full_shapes, m.tile)


def baseline_manifest(manifest: Manifest) -> Manifest:
    """The same variables at full residency, for accounting the input module."""
    vars = [dataclasses.replace(v, residency="full", gathered_in_body=False) for v in manifest.variables]
    return Manifest(variables=vars, notes=dict(manifest.notes))
