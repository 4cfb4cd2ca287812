"""Structural verifier.

`verify(module)` returns a list of diagnostics; an empty list means the module
is well-formed. Each diagnostic carries the offending instruction id and the
name of the violated rule. The checks cover operand counts and callee
ownership (an instruction holds only the callees its opcode calls, and an
opcode that calls no computation holds none), both read from `ir.OPCODES`
as the parser reads them; per-opcode shape rules, which run only on an
instruction with a valid operand count; nested computation signatures
(while body T=>T and condition T=>pred[], equal branch result shapes);
replica-group partitions, and a sharding fusion's spec against its group;
id uniqueness and def-before-use ordering.
`verify` reports a malformed module, and does not raise on one.

An instruction's own rules (operand count, callees, its opcode's shape rule)
read only the instruction, the objects it holds and two module facts: the
replica count (replica groups) and the tile (bitcasts). IR objects are not
changed after they are built (see `ir`), so each instruction of a computation
found clean gets a note of those facts (`Instruction.verified_at`), and an
instruction noted at the same count and tile skips its own rules. Everything
else runs for every computation on every call: unique ids across the module,
unique computation names, def-before-use, parameter indices and the root
check. The note lives and dies with the instruction, and a new instruction
starts without one. A compile therefore puts each instruction object through
its own rules once, however many passes share it, and a pass that rebuilds a
body checks only the instructions it made anew.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    ATTRIBUTE_FIELDS,
    COLLECTIVE_FUSION_KINDS,
    COMPARE_DIRECTIONS,
    Computation,
    ElementType,
    FUSION_KINDS,
    Instruction,
    Module,
    OPCODES,
    REDUCE_KINDS,
    ReplicaGroups,
    Shape,
    TupleShape,
    operand_count_message,
    physical_bytes,
)

_CALLEE_FIELDS = tuple(dict.fromkeys(ATTRIBUTE_FIELDS[a] for info in OPCODES.values() for a in info.callees))

# shapes are interned (see `ir`), so these are compared by identity
_S32_SCALAR = Shape((), ElementType.S32)
_PRED_SCALAR = Shape((), ElementType.PRED)
_EMPTY_TUPLE = TupleShape(())


@dataclass(frozen=True)
class Diagnostic:
    instruction: str
    rule: str
    message: str

    def __str__(self):
        return f"%{self.instruction}: [{self.rule}] {self.message}"


def verify(m: Module) -> list[Diagnostic]:
    v = _Verifier(m)
    v.run()
    return v.diags


def check(m: Module):
    """Raise ValueError listing all diagnostics if the module is malformed."""
    diags = verify(m)
    if diags:
        raise ValueError("module failed verification:\n" + "\n".join(str(d) for d in diags))


class _Verifier:
    _HANDLERS: dict = {}  # opcode -> (operand counts, callee fields, handler), filled in from `ir.OPCODES`

    def __init__(self, m: Module):
        self.m = m
        self.facts = (m.replica_count, m.tile)  # the module facts the per-computation checks read
        self.diags: list[Diagnostic] = []
        # what is wrong with each distinct explicit partition (None: valid),
        # so that instructions sharing one check it once
        self._group_problems: dict[ReplicaGroups, str | None] = {}

    def fail(self, instr: Instruction, rule: str, message: str):
        self.diags.append(Diagnostic(instr.id, rule, message))

    def run(self):
        seen_ids: set[str] = set()
        comps = self.m.computations()
        names = [c.name for c in comps]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            self.diags.append(
                Diagnostic("<module>", "computation names", f"duplicate computation names: {dup}")
            )
        facts = self.facts
        for comp in comps:
            before = len(self.diags)
            self.check_computation(comp, seen_ids)
            if len(self.diags) == before:
                for instr in comp.instructions:
                    instr.verified_at = facts

    def check_computation(self, comp: Computation, seen_ids: set[str]):
        defined: set[Instruction] = set()  # by identity: the `id` ints share low bits and crowd a set
        params = [i for i in comp.instructions if i.opcode == "parameter"]
        indices = sorted(p.index if p.index is not None else -1 for p in params)
        if indices != list(range(len(params))):
            self.diags.append(
                Diagnostic(
                    comp.name, "parameter indices", f"parameter indices {indices} not 0..{len(params) - 1}"
                )
            )
        handlers = self._HANDLERS
        facts = self.facts
        for instr in comp.instructions:
            if instr.id in seen_ids:
                self.fail(instr, "unique ids", "duplicate instruction id in module")
            seen_ids.add(instr.id)
            for op in instr.operands:
                if op not in defined:
                    self.fail(instr, "def before use", f"operand %{op.id} not defined earlier in {comp.name}")
            defined.add(instr)
            if instr.verified_at == facts:  # its own rules held in a computation found clean
                continue
            rule = handlers.get(instr.opcode)
            if rule is None:
                self.fail(instr, "opcode", f"unknown opcode {instr.opcode}")
            else:
                counts, owned, handler = rule
                if (
                    instr.cond is not None or instr.body is not None or instr.branches is not None or instr.fused is not None
                ):
                    self._check_callees(instr, owned)
                if len(instr.operands) in counts:
                    handler(self, instr)
                else:
                    self.fail(instr, "operand count", operand_count_message(instr.opcode, len(instr.operands)))
        if comp.root not in defined:
            self.diags.append(Diagnostic(comp.name, "root", "root is not an instruction of the computation"))

    def _check_callees(self, instr: Instruction, owned: frozenset[str]):
        """An instruction may set only the callee fields its opcode owns."""
        stray = ", ".join(f for f in _CALLEE_FIELDS if f not in owned and getattr(instr, f) is not None)
        if not stray:
            return
        if owned:
            self.fail(instr, "callee", f"{instr.opcode} does not call through {stray}")
        else:
            self.fail(instr, "callee", f"{instr.opcode} calls no computation, but sets {stray}")

    # ------------------------------------------------------------------ #
    # Opcode handlers: `op_<opcode>`, with `-` written `_`. Each sees an
    # operand count its opcode takes.

    def _expect_array(self, instr: Instruction, what: str, shape) -> Shape | None:
        if not isinstance(shape, Shape):
            self.fail(instr, "array operand", f"{what} must be an array, got {shape}")
            return None
        return shape

    def _same_shape(self, instr: Instruction, rule: str):
        a = instr.operands[0].shape
        for o in instr.operands[1:]:
            if o.shape != a:
                self.fail(instr, rule, f"operand shapes differ: {a} vs {o.shape}")
                return False
        return True

    def op_parameter(self, instr: Instruction):
        if instr.index is None or instr.index < 0:
            self.fail(instr, "parameter index", "missing or negative parameter index")

    def op_constant(self, instr: Instruction):
        shape = self._expect_array(instr, "constant", instr.shape)
        if shape is None:
            return
        n = shape.element_count
        if instr.value is None or len(instr.value) != n:
            got = 0 if instr.value is None else len(instr.value)
            self.fail(instr, "constant arity", f"expected {n} values, got {got}")

    def op_iota(self, instr: Instruction):
        shape = self._expect_array(instr, "iota", instr.shape)
        if shape is None:
            return
        if shape.etype == ElementType.PRED:
            self.fail(instr, "iota type", "iota cannot produce pred")
        if instr.dims is None or len(instr.dims) != 1 or not (0 <= instr.dims[0] < max(shape.rank, 1)):
            self.fail(instr, "iota dim", f"iota dim {instr.dims} out of range for {shape}")

    def op_replica_id(self, instr: Instruction):
        if instr.shape is not _S32_SCALAR:
            self.fail(instr, "replica-id shape", f"must be s32[], got {instr.shape}")

    def op_rng(self, instr: Instruction):
        shape = self._expect_array(instr, "rng", instr.shape)
        if shape and shape.etype == ElementType.PRED:
            self.fail(instr, "rng type", "rng cannot produce pred")

    def _binary_arith(self, instr: Instruction):
        shapes = [o.shape for o in instr.operands]
        for s in shapes:
            if not isinstance(s, Shape) or s.etype == ElementType.PRED:
                self.fail(instr, "arith operand", f"non-numeric operand {s}")
                return
        if not self._same_shape(instr, "elementwise shapes"):
            return
        if instr.shape != shapes[0]:
            self.fail(instr, "result shape", f"expected {shapes[0]}, got {instr.shape}")

    op_add = op_sub = op_mul = op_div = op_max = op_min = op_power = _binary_arith

    def op_sqrt(self, instr: Instruction):
        s = instr.operands[0].shape
        if not isinstance(s, Shape) or not s.etype.is_float:
            self.fail(instr, "sqrt operand", f"sqrt requires a float array, got {s}")
            return
        if instr.shape != s:
            self.fail(instr, "result shape", f"expected {s}, got {instr.shape}")

    def op_compare(self, instr: Instruction):
        if instr.direction not in COMPARE_DIRECTIONS:
            self.fail(instr, "compare direction", f"bad direction {instr.direction}")
        if not self._same_shape(instr, "compare shapes"):
            return
        s = instr.operands[0].shape
        want = Shape(s.dims, ElementType.PRED) if isinstance(s, Shape) else None
        if instr.shape != want:
            self.fail(instr, "result shape", f"expected {want}, got {instr.shape}")

    def op_select(self, instr: Instruction):
        pred, a, b = (o.shape for o in instr.operands)
        if not isinstance(pred, Shape) or pred.etype != ElementType.PRED:
            self.fail(instr, "select pred", f"predicate must be pred, got {pred}")
            return
        if a != b:
            self.fail(instr, "select shapes", f"branch value shapes differ: {a} vs {b}")
            return
        if isinstance(a, Shape) and pred.dims != a.dims:
            self.fail(instr, "select shapes", f"predicate dims {pred.dims} != value dims {a.dims}")
        if instr.shape != a:
            self.fail(instr, "result shape", f"expected {a}, got {instr.shape}")

    def op_convert(self, instr: Instruction):
        s = self._expect_array(instr, "convert", instr.operands[0].shape)
        if s is None:
            return
        if not isinstance(instr.shape, Shape) or instr.shape.dims != s.dims:
            self.fail(instr, "convert dims", f"dims must match operand {s}")

    def op_broadcast(self, instr: Instruction):
        s = self._expect_array(instr, "broadcast", instr.operands[0].shape)
        out = self._expect_array(instr, "broadcast", instr.shape)
        if s is None or out is None:
            return
        dims = instr.dims
        if dims is None or len(dims) != s.rank:
            self.fail(instr, "broadcast dims", f"dims must map each operand dim, got {dims}")
            return
        if list(dims) != sorted(set(dims)):
            self.fail(instr, "broadcast dims", "dims must be strictly increasing")
            return
        for i, d in enumerate(dims):
            if not (0 <= d < out.rank) or out.dims[d] != s.dims[i]:
                self.fail(instr, "broadcast dims", f"operand dim {i} does not map onto result dim {d}")
        if out.etype != s.etype:
            self.fail(instr, "broadcast type", "element type must be preserved")

    def op_dot(self, instr: Instruction):
        a = self._expect_array(instr, "dot lhs", instr.operands[0].shape)
        b = self._expect_array(instr, "dot rhs", instr.operands[1].shape)
        if a is None or b is None:
            return
        if a.rank != 2 or b.rank != 2:
            self.fail(instr, "dot rank", f"dot requires rank-2 operands, got {a} and {b}")
            return
        if a.etype != b.etype or not a.etype.is_float and a.etype != ElementType.S32:
            self.fail(instr, "dot type", f"operand types must match and be numeric: {a} vs {b}")
        if a.dims[1] != b.dims[0]:
            self.fail(instr, "dot contraction", f"contracted dims differ: {a.dims[1]} vs {b.dims[0]}")
        want_dims = (a.dims[0], b.dims[1])
        if not isinstance(instr.shape, Shape) or instr.shape.dims != want_dims:
            self.fail(instr, "result shape", f"expected dims {want_dims}, got {instr.shape}")

    def op_reduce(self, instr: Instruction):
        s = self._expect_array(instr, "reduce", instr.operands[0].shape)
        init = self._expect_array(instr, "reduce init", instr.operands[1].shape)
        if s is None or init is None:
            return
        if instr.kind not in REDUCE_KINDS:
            self.fail(instr, "reduce kind", f"bad kind {instr.kind}")
        if init.rank != 0 or init.etype != s.etype:
            self.fail(instr, "reduce init", f"init must be a scalar {s.etype.value}, got {init}")
        dims = instr.dims or ()
        if list(dims) != sorted(set(dims)) or any(not 0 <= d < s.rank for d in dims):
            self.fail(instr, "reduce dims", f"bad reduce dims {dims} for {s}")
            return
        want = Shape(tuple(d for i, d in enumerate(s.dims) if i not in set(dims)), s.etype)
        if instr.shape != want:
            self.fail(instr, "result shape", f"expected {want}, got {instr.shape}")

    def op_reshape(self, instr: Instruction):
        s = self._expect_array(instr, "reshape", instr.operands[0].shape)
        out = self._expect_array(instr, "reshape", instr.shape)
        if s is None or out is None:
            return
        if s.element_count != out.element_count:
            self.fail(instr, "reshape elements", f"element count {s.element_count} != {out.element_count}")
        if s.etype != out.etype:
            self.fail(instr, "reshape type", "element type must be preserved")

    def op_bitcast(self, instr: Instruction):
        s = self._expect_array(instr, "bitcast", instr.operands[0].shape)
        out = self._expect_array(instr, "bitcast", instr.shape)
        if s is None or out is None:
            return
        tile = self.m.tile
        if physical_bytes(s, tile) != physical_bytes(out, tile):
            self.fail(
                instr,
                "bitcast bytes",
                f"physical bytes {physical_bytes(s, tile)} != {physical_bytes(out, tile)}",
            )

    def op_pad(self, instr: Instruction):
        s = self._expect_array(instr, "pad", instr.operands[0].shape)
        fill = self._expect_array(instr, "pad fill", instr.operands[1].shape)
        if s is None or fill is None:
            return
        if fill.rank != 0 or fill.etype != s.etype:
            self.fail(instr, "pad fill", f"fill must be scalar {s.etype.value}, got {fill}")
        low, high = instr.pad_low, instr.pad_high
        if low is None or high is None or len(low) != s.rank or len(high) != s.rank:
            self.fail(instr, "pad config", "low/high must list one entry per dim")
            return
        if any(x < 0 for x in low + high):
            self.fail(instr, "pad config", "padding cannot be negative")
        want = Shape(tuple(d + l + h for d, l, h in zip(s.dims, low, high)), s.etype)
        if instr.shape != want:
            self.fail(instr, "result shape", f"expected {want}, got {instr.shape}")

    def op_dynamic_slice(self, instr: Instruction):
        s = self._expect_array(instr, "dynamic-slice", instr.operands[0].shape)
        if s is None:
            return
        starts = instr.operands[1:]
        if len(starts) != s.rank:
            self.fail(instr, "slice starts", f"expected {s.rank} start indices, got {len(starts)}")
            return
        for st in starts:
            if st.shape is not _S32_SCALAR:
                self.fail(instr, "slice starts", f"start %{st.id} must be s32[], got {st.shape}")
        sizes = instr.slice_sizes
        if sizes is None or len(sizes) != s.rank or any(
            not 0 <= sz <= d for sz, d in zip(sizes, s.dims)
        ):
            self.fail(instr, "slice sizes", f"bad slice sizes {sizes} for {s}")
            return
        want = Shape(tuple(sizes), s.etype)
        if instr.shape != want:
            self.fail(instr, "result shape", f"expected {want}, got {instr.shape}")

    def op_tuple(self, instr: Instruction):
        shapes = []
        for o in instr.operands:
            if not isinstance(o.shape, Shape):
                self.fail(instr, "tuple element", "nested tuples are not supported")
                return
            shapes.append(o.shape)
        want = TupleShape(tuple(shapes))
        if instr.shape != want:
            self.fail(instr, "result shape", f"expected {want}, got {instr.shape}")

    def op_get_tuple_element(self, instr: Instruction):
        s = instr.operands[0].shape
        if not isinstance(s, TupleShape):
            self.fail(instr, "gte operand", f"operand must be a tuple, got {s}")
            return
        if instr.index is None or not 0 <= instr.index < len(s):
            self.fail(instr, "gte index", f"index {instr.index} out of range for {s}")
            return
        if instr.shape != s.elements[instr.index]:
            self.fail(instr, "result shape", f"expected {s.elements[instr.index]}, got {instr.shape}")

    def op_all_reduce(self, instr: Instruction):
        if instr.kind not in REDUCE_KINDS:
            self.fail(instr, "all-reduce kind", f"bad kind {instr.kind}")
        for o in instr.operands:
            if not isinstance(o.shape, Shape) or o.shape.etype == ElementType.PRED:
                self.fail(instr, "all-reduce operand", f"operand %{o.id} must be numeric array")
                return
        if len(instr.operands) == 1:
            want = instr.operands[0].shape
        else:
            want = TupleShape(tuple(o.shape for o in instr.operands))
        if instr.shape != want:
            self.fail(instr, "result shape", f"expected {want}, got {instr.shape}")
        self._check_groups(instr)

    def _check_groups(self, instr: Instruction):
        groups = instr.groups
        if groups is None:
            self.fail(instr, "replica groups", "missing groups")
            return
        if groups.is_all:
            return
        try:
            problem = self._group_problems[groups]
        except KeyError:
            problem = self._group_problems[groups] = self._partition_problem(groups)
        if problem is not None:
            self.fail(instr, "replica groups", problem)

    def _partition_problem(self, groups: ReplicaGroups) -> str | None:
        n = self.m.replica_count
        flat = [r for g in groups.groups for r in g]
        if len(set(flat)) != len(flat) or sorted(flat) != list(range(n)):
            return f"groups not disjoint / not covering 0..{n - 1}"
        sizes = {len(g) for g in groups.groups}
        if len(sizes) != 1:
            return f"groups not equal-sized: {sorted(sizes)}"
        return None

    def op_while(self, instr: Instruction):
        init = instr.operands[0].shape
        body, cond = instr.body, instr.cond
        if body is None or cond is None:
            self.fail(instr, "while computations", "missing body or condition computation")
            return
        bp, cp = body.parameters, cond.parameters
        if len(bp) != 1 or bp[0].shape != init:
            self.fail(instr, "while body shape mismatch", f"body must be {init} => {init}")
        elif body.root.shape != init:
            self.fail(instr, "while body shape mismatch", f"body returns {body.root.shape}, expected {init}")
        if len(cp) != 1 or cp[0].shape != init:
            self.fail(instr, "while condition shape mismatch", f"condition must take {init}")
        if cond is not None and cond.root.shape is not _PRED_SCALAR:
            self.fail(instr, "while condition shape mismatch", f"condition returns {cond.root.shape}, expected pred[]")
        if instr.shape != init:
            self.fail(instr, "result shape", f"expected {init}, got {instr.shape}")

    def op_conditional(self, instr: Instruction):
        pred = instr.operands[0].shape
        if pred is not _PRED_SCALAR:
            self.fail(instr, "conditional predicate", f"predicate must be pred[], got {pred}")
        if instr.branches is None or len(instr.branches) != 2:
            self.fail(instr, "conditional branches", "must reference true and false computations")
            return
        results = []
        for comp, arg in zip(instr.branches, instr.operands[1:]):
            p = comp.parameters
            if len(p) != 1 or p[0].shape != arg.shape:
                self.fail(
                    instr,
                    "conditional argument",
                    f"branch {comp.name} takes {p[0].shape if p else None}, operand is {arg.shape}",
                )
            results.append(comp.root.shape)
        if results[0] != results[1]:
            self.fail(
                instr,
                "conditional result shapes",
                f"branch result shapes differ: {results[0]} vs {results[1]}",
            )
        if instr.shape != results[0]:
            self.fail(instr, "result shape", f"expected {results[0]}, got {instr.shape}")

    def op_fusion(self, instr: Instruction):
        if instr.kind not in FUSION_KINDS:
            self.fail(instr, "fusion kind", f"bad kind {instr.kind}")
            return
        comp = instr.fused
        if comp is None:
            self.fail(instr, "fusion computation", "missing fused computation")
            return
        if instr.kind in COLLECTIVE_FUSION_KINDS or instr.kind == "shard":
            if instr.spec is None:
                self.fail(instr, "fusion spec", f"fusion kind {instr.kind} requires a sharding spec")
                return
            self._check_groups(instr)
            self._check_spec_group(instr)
            self._check_collective_fusion(instr)
            return
        params = comp.parameters
        if len(params) != len(instr.operands):
            self.fail(instr, "fusion arity", f"{len(instr.operands)} operands for {len(params)} parameters")
            return
        for p, o in zip(params, instr.operands):
            if p.shape != o.shape:
                self.fail(instr, "fusion argument", f"parameter {p.id} is {p.shape}, operand is {o.shape}")
        if comp.root.shape != instr.shape:
            self.fail(instr, "result shape", f"fused root is {comp.root.shape}, fusion is {instr.shape}")

    def _check_spec_group(self, instr: Instruction):
        """A sharding fusion's spec shards over the fusion's own group, one
        shard per replica of a group."""
        spec, groups = instr.spec, instr.groups
        if groups is None:  # reported by `_check_groups`
            return
        if groups != spec.group:
            self.fail(instr, "fusion spec", f"spec group {spec.group} != groups {groups}")
        elif groups.is_all or self._group_problems[groups] is None:
            size = groups.group_size(self.m.replica_count)
            if spec.shard_count != size:
                self.fail(instr, "fusion spec", f"spec shard count {spec.shard_count} != group size {size}")

    def _check_collective_fusion(self, instr: Instruction):
        spec = instr.spec
        etype = None
        operand = instr.operands[0].shape
        if isinstance(operand, Shape):
            etype = operand.etype
        if etype is None:
            self.fail(instr, "fusion operand", "collective fusion operand must be an array")
            return
        if instr.kind in ("shard", "reduce_scatter"):
            if operand.dims != tuple(spec.source_dims):
                self.fail(instr, "fusion spec", f"operand dims {operand.dims} != spec source {spec.source_dims}")
            if not isinstance(instr.shape, Shape) or instr.shape.dims != spec.shard_dims:
                self.fail(instr, "result shape", f"expected shard dims {spec.shard_dims}, got {instr.shape}")
            if len(instr.operands) != 2 or instr.operands[1].shape is not _S32_SCALAR:
                self.fail(instr, "fusion operand", f"{instr.kind} takes (tensor, replica-id)")
            if instr.fused.root.shape != instr.shape:
                self.fail(instr, "result shape", f"fused root is {instr.fused.root.shape}")
        else:  # all_gather / unshard
            if operand.dims != tuple(spec.shard_dims):
                self.fail(instr, "fusion spec", f"operand dims {operand.dims} != spec shard {spec.shard_dims}")
            params = instr.fused.parameters
            if len(params) != 1 or params[0].shape.dims != tuple(spec.padded_dims):
                self.fail(
                    instr,
                    "fusion spec",
                    f"gather computation must take the post-steps shape {spec.padded_dims}",
                )
            if not isinstance(instr.shape, Shape) or instr.shape.dims != tuple(spec.source_dims):
                self.fail(instr, "result shape", f"expected source dims {spec.source_dims}, got {instr.shape}")
            if instr.fused.root.shape != instr.shape:
                self.fail(instr, "result shape", f"fused root is {instr.fused.root.shape}")

    def op_outfeed(self, instr: Instruction):
        if instr.shape is not _EMPTY_TUPLE:
            self.fail(instr, "outfeed shape", f"outfeed produces an empty tuple, got {instr.shape}")


_Verifier._HANDLERS = {
    op: (
        info.operands,
        frozenset(ATTRIBUTE_FIELDS[attr] for attr in info.callees),
        getattr(_Verifier, "op_" + op.replace("-", "_")),
    )
    for op, info in OPCODES.items()
}
