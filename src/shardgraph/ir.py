"""Core graph IR: element types, shapes, tiled layout arithmetic, instructions,
computations and modules.

The IR is a static-shape dataflow graph. Each computation holds instructions in
def-before-use order; control flow (`while`, `conditional`) and `fusion` call
nested computations. Values are either dense arrays (`Shape`) or flat tuples of
arrays (`TupleShape`). All structures are treated as immutable once a module is
built; passes construct fresh modules instead of mutating.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ElementType(enum.Enum):
    F32 = "f32"
    F16R = "f16r"  # reduced-precision float: f32 rounded to an 8-bit-exponent/7-bit-mantissa pattern
    S32 = "s32"
    PRED = "pred"

    @property
    def byte_size(self) -> int:
        return _BYTE_SIZES[self]

    @property
    def is_float(self) -> bool:
        return self in (ElementType.F32, ElementType.F16R)


_BYTE_SIZES = {
    ElementType.F32: 4,
    ElementType.F16R: 2,
    ElementType.S32: 4,
    ElementType.PRED: 1,
}

F32 = ElementType.F32
F16R = ElementType.F16R
S32 = ElementType.S32
PRED = ElementType.PRED

# Tile applied to the two minor-most dimensions of every dense buffer.
DEFAULT_TILE = (8, 128)


@dataclass(frozen=True)
class Shape:
    dims: tuple[int, ...]
    etype: ElementType

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        for d in self.dims:
            if d < 0:
                raise ValueError(f"negative dimension in shape: {self.dims}")

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def element_count(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def with_dims(self, dims) -> Shape:
        return Shape(tuple(dims), self.etype)

    def with_etype(self, etype: ElementType) -> Shape:
        return Shape(self.dims, etype)

    def __str__(self) -> str:
        return f"{self.etype.value}[{','.join(str(d) for d in self.dims)}]"


@dataclass(frozen=True)
class TupleShape:
    elements: tuple[Shape, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for e in self.elements:
            if not isinstance(e, Shape):
                raise ValueError("tuple shapes may only contain array shapes")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.elements) + ")"


def scalar(etype: ElementType) -> Shape:
    return Shape((), etype)


def round_up(x: int, to: int) -> int:
    return -(-x // to) * to


def physical_elements(shape: Shape, tile: tuple[int, int] = DEFAULT_TILE) -> int:
    """Element capacity of the tiled physical buffer backing `shape`.

    The minor-most dimension rounds up to tile[1], the second-minor to tile[0];
    rank-1 buffers tile as (tile[1],) and scalars occupy one element.
    """
    dims = shape.dims
    if len(dims) == 0:
        return 1
    if len(dims) == 1:
        return round_up(dims[0], tile[1])
    n = 1
    for d in dims[:-2]:
        n *= d
    return n * round_up(dims[-2], tile[0]) * round_up(dims[-1], tile[1])


def physical_bytes(shape: Shape | TupleShape, tile: tuple[int, int] = DEFAULT_TILE) -> int:
    if isinstance(shape, TupleShape):
        return sum(physical_bytes(e, tile) for e in shape.elements)
    return physical_elements(shape, tile) * shape.etype.byte_size


def is_tile_aligned(shape: Shape, tile: tuple[int, int] = DEFAULT_TILE) -> bool:
    """True when the physical buffer has no tile-padding holes."""
    dims = shape.dims
    if len(dims) == 0:
        return True
    if len(dims) == 1:
        return dims[0] % tile[1] == 0
    return dims[-2] % tile[0] == 0 and dims[-1] % tile[1] == 0


# --------------------------------------------------------------------------- #
# Opcodes
# --------------------------------------------------------------------------- #

OPCODES = frozenset(
    {
        "parameter",
        "constant",
        "iota",
        "replica-id",
        "rng",
        "add",
        "sub",
        "mul",
        "div",
        "max",
        "min",
        "sqrt",
        "power",
        "compare",
        "select",
        "convert",
        "broadcast",
        "dot",
        "reduce",
        "reshape",
        "bitcast",
        "pad",
        "dynamic-slice",
        "tuple",
        "get-tuple-element",
        "all-reduce",
        "while",
        "conditional",
        "fusion",
        "outfeed",
    }
)

ELEMENTWISE_BINARY = frozenset({"add", "sub", "mul", "div", "max", "min", "power"})
ELEMENTWISE_UNARY = frozenset({"sqrt"})

# Non-pure opcodes. `rng` and `replica-id` are additionally replica-varying.
SIDE_EFFECTING = frozenset({"outfeed", "rng"})
REPLICA_VARYING = frozenset({"rng", "replica-id"})

REDUCE_KINDS = ("add", "mul", "max", "min")
COMPARE_DIRECTIONS = ("eq", "ne", "lt", "le", "gt", "ge")
FUSION_KINDS = ("standard", "shard", "unshard", "reduce_scatter", "all_gather")
COLLECTIVE_FUSION_KINDS = frozenset({"reduce_scatter", "all_gather", "unshard"})


def reduce_identity(kind: str) -> float:
    if kind == "add":
        return 0.0
    if kind == "mul":
        return 1.0
    if kind == "max":
        return float("-inf")
    if kind == "min":
        return float("inf")
    raise ValueError(f"unknown reduction kind: {kind}")


@dataclass(frozen=True)
class ReplicaGroups:
    """Either all replicas together (groups=None) or a disjoint equal-size partition."""

    groups: tuple[tuple[int, ...], ...] | None = None

    @property
    def is_all(self) -> bool:
        return self.groups is None

    def resolve(self, n: int) -> tuple[tuple[int, ...], ...]:
        if self.groups is None:
            return (tuple(range(n)),)
        return self.groups

    def group_of(self, replica: int, n: int) -> tuple[int, ...]:
        for g in self.resolve(n):
            if replica in g:
                return g
        raise ValueError(f"replica {replica} not in any group")

    def group_size(self, n: int) -> int:
        return len(self.resolve(n)[0])

    def __str__(self) -> str:
        if self.groups is None:
            return "all"
        return "{" + ",".join("{" + ",".join(str(r) for r in g) + "}" for g in self.groups) + "}"


ALL_REPLICAS = ReplicaGroups(None)


@dataclass(frozen=True)
class Topology:
    kind: str  # "ring" or "mesh"
    rows: int = 1
    cols: int = 1

    def __post_init__(self):
        if self.kind not in ("ring", "mesh"):
            raise ValueError(f"unknown topology kind: {self.kind}")

    @property
    def n(self) -> int:
        return self.rows * self.cols

    def row_groups(self) -> ReplicaGroups:
        return ReplicaGroups(
            tuple(tuple(range(i * self.cols, (i + 1) * self.cols)) for i in range(self.rows))
        )

    def col_groups(self) -> ReplicaGroups:
        return ReplicaGroups(
            tuple(tuple(j + i * self.cols for i in range(self.rows)) for j in range(self.cols))
        )

    def two_phase(self, group: ReplicaGroups) -> bool:
        """Whether collectives over `group` run the two-phase mesh algorithm
        (rows, then columns). Only `groups=all` on a true 2-D mesh does; an
        explicit group listing every replica runs as one ring in list order."""
        return group.is_all and self.kind == "mesh" and self.rows > 1 and self.cols > 1

    def __str__(self) -> str:
        if self.kind == "ring":
            return "ring"
        return f"mesh {self.rows}x{self.cols}"


def ring_topology(n: int) -> Topology:
    return Topology("ring", 1, n)


def mesh_topology(rows: int, cols: int) -> Topology:
    return Topology("mesh", rows, cols)


# --------------------------------------------------------------------------- #
# Instructions, computations, modules
# --------------------------------------------------------------------------- #


@dataclass(eq=False)
class Instruction:
    id: str
    opcode: str
    shape: Shape | TupleShape
    operands: tuple[Instruction, ...] = ()

    # Opcode-specific attributes. Unused ones stay at their defaults.
    value: tuple[float, ...] | None = None  # constant payload, row-major
    index: int | None = None  # parameter / get-tuple-element
    replica_equal: bool = False  # parameter annotation
    dims: tuple[int, ...] | None = None  # broadcast map, reduce dims, iota dim
    kind: str | None = None  # reduce / all-reduce reduction kind, fusion kind
    direction: str | None = None  # compare
    groups: ReplicaGroups | None = None  # all-reduce
    pad_low: tuple[int, ...] | None = None
    pad_high: tuple[int, ...] | None = None
    slice_sizes: tuple[int, ...] | None = None
    cond: "Computation | None" = None  # while
    body: "Computation | None" = None  # while
    branches: tuple["Computation", ...] | None = None  # conditional: (true, false)
    fused: "Computation | None" = None  # fusion
    spec: object | None = None  # sharding spec carried by collective fusions

    def __repr__(self) -> str:
        return f"<{self.id}: {self.shape} {self.opcode}>"

    @property
    def called_computations(self) -> tuple["Computation", ...]:
        out = []
        if self.cond is not None:
            out.append(self.cond)
        if self.body is not None:
            out.append(self.body)
        if self.branches is not None:
            out.extend(self.branches)
        if self.fused is not None:
            out.append(self.fused)
        return tuple(out)


@dataclass(eq=False)
class Computation:
    name: str
    instructions: list[Instruction]
    root: Instruction

    @property
    def parameters(self) -> list[Instruction]:
        params = [i for i in self.instructions if i.opcode == "parameter"]
        params.sort(key=lambda p: p.index or 0)
        return params

    def find(self, instr_id: str) -> Instruction:
        for i in self.instructions:
            if i.id == instr_id:
                return i
        raise KeyError(instr_id)

    def __repr__(self) -> str:
        return f"<computation {self.name}: {len(self.instructions)} instructions>"


@dataclass(eq=False)
class Module:
    entry: Computation
    replica_count: int
    topology: Topology
    tile: tuple[int, int] = DEFAULT_TILE

    def __post_init__(self):
        if self.replica_count < 1:
            raise ValueError("replica_count must be >= 1")
        if self.topology.n != self.replica_count:
            raise ValueError(
                f"topology size {self.topology.n} != replica_count {self.replica_count}"
            )

    def computations(self) -> list[Computation]:
        """All computations reachable from the entry, callees before callers."""
        seen: dict[int, Computation] = {}
        order: list[Computation] = []

        def visit(c: Computation):
            if id(c) in seen:
                return
            seen[id(c)] = c
            for instr in c.instructions:
                for callee in instr.called_computations:
                    visit(callee)
            order.append(c)

        visit(self.entry)
        return order

    def all_instructions(self) -> list[Instruction]:
        out = []
        for c in self.computations():
            out.extend(c.instructions)
        return out

    def find(self, instr_id: str) -> Instruction:
        for i in self.all_instructions():
            if i.id == instr_id:
                return i
        raise KeyError(instr_id)


# --------------------------------------------------------------------------- #
# Topological order
# --------------------------------------------------------------------------- #


def topo_order(comp: Computation) -> list[Instruction]:
    """Deterministic topological order of a computation's instructions.

    Operands precede users; among ready instructions the smallest id goes
    first, so the order is stable across calls and platforms.
    """
    import heapq

    in_comp = {id(i) for i in comp.instructions}
    indegree: dict[int, int] = {}
    users: dict[int, list[Instruction]] = {}
    by_key = {id(i): i for i in comp.instructions}
    for instr in comp.instructions:
        ops = [o for o in instr.operands if id(o) in in_comp]
        indegree[id(instr)] = len(ops)
        for o in ops:
            users.setdefault(id(o), []).append(instr)

    ready = [(i.id, id(i)) for i in comp.instructions if indegree[id(i)] == 0]
    heapq.heapify(ready)
    out: list[Instruction] = []
    while ready:
        _, key = heapq.heappop(ready)
        instr = by_key[key]
        out.append(instr)
        for u in users.get(key, ()):
            indegree[id(u)] -= 1
            if indegree[id(u)] == 0:
                heapq.heappush(ready, (u.id, id(u)))
    if len(out) != len(comp.instructions):
        raise ValueError(f"cycle detected in computation {comp.name}")
    return out


# --------------------------------------------------------------------------- #
# Structural equality
# --------------------------------------------------------------------------- #


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


# --------------------------------------------------------------------------- #
# Graph construction helper
# --------------------------------------------------------------------------- #


class GraphBuilder:
    """Incremental computation builder used by passes, generators and tests."""

    def __init__(self, name: str, id_prefix: str = ""):
        self.name = name
        self.instructions: list[Instruction] = []
        self._ids: set[str] = set()
        self._prefix = id_prefix
        self._counter = 0

    def fresh_id(self, hint: str) -> str:
        base = f"{self._prefix}{hint}"
        if base not in self._ids:
            return base
        while True:
            self._counter += 1
            cand = f"{base}.{self._counter}"
            if cand not in self._ids:
                return cand

    def emit(self, opcode: str, shape: Shape | TupleShape, operands=(), id: str | None = None, **attrs) -> Instruction:
        iid = id if id is not None else self.fresh_id(opcode.replace("-", "_"))
        if iid in self._ids:
            raise ValueError(f"duplicate instruction id: {iid}")
        self._ids.add(iid)
        instr = Instruction(id=iid, opcode=opcode, shape=shape, operands=tuple(operands), **attrs)
        self.instructions.append(instr)
        return instr

    def parameter(self, index: int, shape: Shape | TupleShape, id: str, replica_equal: bool = False) -> Instruction:
        return self.emit("parameter", shape, id=id, index=index, replica_equal=replica_equal)

    def constant(self, value, etype: ElementType = F32, dims=(), id: str | None = None) -> Instruction:
        if isinstance(value, (int, float, bool)):
            payload = (float(value),)
        else:
            payload = tuple(float(v) for v in value)
        return self.emit("constant", Shape(tuple(dims), etype), id=id, value=payload)

    def binary(self, op: str, a: Instruction, b: Instruction, id: str | None = None) -> Instruction:
        return self.emit(op, a.shape, (a, b), id=id)

    def broadcast_scalar(self, s: Instruction, shape: Shape, id: str | None = None) -> Instruction:
        return self.emit("broadcast", shape, (s,), id=id, dims=())

    def finish(self, root: Instruction) -> Computation:
        return Computation(self.name, self.instructions, root)
