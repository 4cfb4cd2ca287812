"""IR helpers the tests share: structural equality of instructions,
computations and modules, and lookups by instruction id."""

from shardgraph.ir import Computation, Instruction, Module


def find(comp: Computation, instr_id: str) -> Instruction:
    """The instruction of `comp` with id `instr_id`."""
    for i in comp.instructions:
        if i.id == instr_id:
            return i
    raise KeyError(instr_id)


def all_instructions(m: Module) -> list[Instruction]:
    """Every instruction of every computation reachable from the entry,
    callees first."""
    return [i for c in m.computations() for i in c.instructions]


def instructions_equal(a: Instruction, b: Instruction) -> bool:
    if (
        a.id != b.id
        or a.opcode != b.opcode
        or a.shape != b.shape
        or tuple(o.id for o in a.operands) != tuple(o.id for o in b.operands)
    ):
        return False
    simple = (
        "value index replica_equal dims kind direction groups "
        "pad_low pad_high slice_sizes".split()
    )
    for f in simple:
        if getattr(a, f) != getattr(b, f):
            return False
    for f in ("cond", "body", "fused"):
        ca, cb = getattr(a, f), getattr(b, f)
        if (ca is None) != (cb is None):
            return False
        if ca is not None and ca.name != cb.name:
            return False
    ba = tuple(c.name for c in a.branches) if a.branches else None
    bb = tuple(c.name for c in b.branches) if b.branches else None
    if ba != bb:
        return False
    sa = str(a.spec) if a.spec is not None else None
    sb = str(b.spec) if b.spec is not None else None
    return sa == sb


def computations_equal(a: Computation, b: Computation) -> bool:
    if a.name != b.name or len(a.instructions) != len(b.instructions):
        return False
    if a.root.id != b.root.id:
        return False
    return all(instructions_equal(x, y) for x, y in zip(a.instructions, b.instructions))


def modules_equal(a: Module, b: Module) -> bool:
    if a.replica_count != b.replica_count or a.topology != b.topology or a.tile != b.tile:
        return False
    ca, cb = a.computations(), b.computations()
    if len(ca) != len(cb):
        return False
    cb_by_name = {c.name: c for c in cb}
    for c in ca:
        other = cb_by_name.get(c.name)
        if other is None or not computations_equal(c, other):
            return False
    return a.entry.name == b.entry.name
