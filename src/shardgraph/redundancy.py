"""Cross-replica redundancy analysis.

An instruction is redundant when it provably produces the same value on every
replica. Sources: compile-time constants (and iota), full-group all-reduces,
and entry parameters annotated replica_equal. Verdicts propagate in data-flow
order; pure operators with all-redundant inputs are redundant. `rng`,
`replica-id`, subgrouped all-reduces and unannotated parameters are
non-redundant, and side-effecting operators are never marked redundant.

Tuple-shaped values carry one verdict per element so that loop state can mix
redundant weights with per-replica batch data. Loops run to a fixed point on
the carried tuple's verdicts; a non-redundant loop condition or branch
predicate poisons every instruction in the nested computations, since control
flow itself then differs across replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (
    Computation,
    Instruction,
    Module,
    TupleShape,
)

# A verdict is a bool for array values and a tuple of bools for tuple values.
Verdict = bool | tuple


def verdict_all(v: Verdict) -> bool:
    if isinstance(v, tuple):
        return all(verdict_all(e) for e in v)
    return bool(v)


def _uniform(shape, value: bool) -> Verdict:
    if isinstance(shape, TupleShape):
        return tuple(value for _ in shape.elements)
    return value


@dataclass
class RedundancyMap:
    verdicts: dict[str, bool] = field(default_factory=dict)
    parameter_verdicts: dict[str, tuple] = field(default_factory=dict)

    def redundant(self, instr_id: str) -> bool:
        return self.verdicts[instr_id]

    def summary(self) -> dict:
        red = sum(1 for v in self.verdicts.values() if v)
        return {"redundant": red, "non_redundant": len(self.verdicts) - red}

    def to_dict(self) -> dict:
        return {
            i: ("redundant" if v else "non_redundant") for i, v in sorted(self.verdicts.items())
        }


class _Analysis:
    def __init__(self):
        self.map = RedundancyMap()

    def record(self, instr: Instruction, v: Verdict):
        if instr.opcode == "outfeed":
            # side-effecting: never redundant, even though its empty-tuple
            # value is vacuously equal everywhere
            self.map.verdicts[instr.id] = False
            return
        self.map.verdicts[instr.id] = verdict_all(v)

    def run_computation(self, comp: Computation, param_verdicts: list[Verdict]) -> Verdict:
        self.map.parameter_verdicts[comp.name] = tuple(param_verdicts)
        env: dict[str, Verdict] = {}
        for instr in comp.instructions:
            v = self.eval(instr, env, param_verdicts)
            env[instr.id] = v
            self.record(instr, v)
        return env[comp.root.id]

    def poison(self, comp: Computation):
        """Mark every instruction of `comp` (and callees) non-redundant."""
        for instr in comp.instructions:
            self.map.verdicts[instr.id] = False
            for callee in instr.called_computations:
                self.poison(callee)

    def eval(self, instr: Instruction, env: dict[str, Verdict], params: list[Verdict]) -> Verdict:
        op = instr.opcode
        if op == "parameter":
            return params[instr.index]
        if op in ("constant", "iota"):
            return _uniform(instr.shape, True)
        if op in ("rng", "replica-id"):
            return _uniform(instr.shape, False)
        if op == "outfeed":
            return _uniform(instr.shape, False)
        if op == "all-reduce":
            full = instr.groups.is_all or len(instr.groups.groups) == 1
            return _uniform(instr.shape, full)
        if op == "tuple":
            return tuple(verdict_all(env[o.id]) for o in instr.operands)
        if op == "get-tuple-element":
            v = env[instr.operands[0].id]
            return v[instr.index] if isinstance(v, tuple) else bool(v)
        if op == "while":
            return self.loop(instr, env[instr.operands[0].id])
        if op == "conditional":
            return self.conditional(instr, [env[o.id] for o in instr.operands])
        if op == "fusion":
            return self.fusion(instr, [env[o.id] for o in instr.operands])
        # pure operators: redundant iff every input is
        v = all(verdict_all(env[o.id]) for o in instr.operands)
        return _uniform(instr.shape, v)

    def fusion(self, instr: Instruction, operand_verdicts: list[Verdict]) -> Verdict:
        if instr.kind in ("all_gather", "unshard"):
            # a gather combines every participant's shard identically, so a
            # full-group gather launders per-replica shards
            g = instr.spec.group
            full = g.is_all or len(g.groups) == 1
            # still propagate into the reverse-formatting computation for
            # completeness of the verdict map
            self.run_computation(instr.fused, [_uniform(p.shape, full) for p in instr.fused.parameters])
            return _uniform(instr.shape, full)
        root = self.run_computation(instr.fused, list(operand_verdicts))
        if _contains_impure(instr.fused):
            return _uniform(instr.shape, False)
        return root

    def loop(self, instr: Instruction, entry: Verdict) -> Verdict:
        state = entry if isinstance(entry, tuple) else (bool(entry),)
        tuple_state = isinstance(instr.shape, TupleShape)
        for _ in range(len(state) + 2):
            cond_v = self.run_computation(instr.cond, [state if tuple_state else state[0]])
            if not verdict_all(cond_v):
                self.poison(instr.cond)
                self.poison(instr.body)
                return _uniform(instr.shape, False)
            out = self.run_computation(instr.body, [state if tuple_state else state[0]])
            out_t = out if isinstance(out, tuple) else (bool(out),)
            new = tuple(a and b for a, b in zip(state, out_t))
            if new == state:
                return state if tuple_state else state[0]
            state = new
        raise AssertionError("loop verdict fixed point did not converge")

    def conditional(self, instr: Instruction, operand_verdicts: list[Verdict]) -> Verdict:
        pred = verdict_all(operand_verdicts[0])
        if not pred:
            for b in instr.branches:
                self.poison(b)
            return _uniform(instr.shape, False)
        roots = [
            self.run_computation(branch, [arg_v])
            for branch, arg_v in zip(instr.branches, operand_verdicts[1:])
        ]
        ok = all(verdict_all(r) for r in roots)
        if ok and isinstance(instr.shape, TupleShape):
            return tuple(
                all(_elem(r, i) for r in roots) for i in range(len(instr.shape.elements))
            )
        return _uniform(instr.shape, ok)


def _elem(v: Verdict, i: int) -> bool:
    return v[i] if isinstance(v, tuple) else bool(v)


def _contains_impure(comp: Computation) -> bool:
    for ins in comp.instructions:
        if ins.opcode in ("rng", "outfeed"):
            return True
        for callee in ins.called_computations:
            if _contains_impure(callee):
                return True
    return False


def analyze(m: Module) -> RedundancyMap:
    """Compute the redundancy verdict of every instruction in the module.

    Requires a verified module; total on such inputs. Only entry-computation
    parameters act as annotation sources.
    """
    a = _Analysis()
    params = [
        _uniform(p.shape, p.replica_equal) for p in m.entry.parameters
    ]
    a.run_computation(m.entry, params)
    return a.map


def analyze_loop(w: Instruction, entry_verdicts: Verdict) -> tuple[Verdict, dict[str, bool]]:
    """Verdicts for a while loop given the carried tuple's entry verdicts.

    Returns (fixed-point state verdict, per-instruction verdicts for the body
    and condition). The fixed point only moves verdicts from redundant to
    non-redundant, so it converges within tuple-arity + 1 rounds.
    """
    a = _Analysis()
    out = a.loop(w, entry_verdicts)
    return out, a.map.verdicts


def analyze_conditional(c: Instruction, operand_verdicts: list[Verdict]) -> Verdict:
    """Verdict of a conditional from its predicate and branch argument verdicts."""
    a = _Analysis()
    return a.conditional(c, list(operand_verdicts))
