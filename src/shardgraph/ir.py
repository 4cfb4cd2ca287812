"""Core graph IR: element types, shapes, tiled layout arithmetic, instructions,
computations and modules.

The IR is a static-shape dataflow graph. Each computation holds instructions in
def-before-use order; control flow (`while`, `conditional`) and `fusion` call
nested computations. Values are either dense arrays (`Shape`) or flat tuples of
arrays (`TupleShape`).

No IR object is changed after it is built: a computation holds its
instructions as a tuple, and passes construct fresh instructions and
computations instead of mutating. Two things rely on this invariant. Passes
share every instruction and every computation they leave unchanged between
their input and their output (`transform._clone_instruction` and
`transform.rebuild_module`), and `verify` does not put an instruction it
found well-formed through its own rules again. The one field set after an
instruction is built is `Instruction.verified_at`, `verify`'s note of the
replica count and tile at which the instruction passed its own rules. It is
not part of the instruction's value, and a new instruction starts without it.
"""

from __future__ import annotations

import enum
import heapq
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple


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


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


# The hash-consing tables (Filliâtre and Conchon, "Type-safe modular
# hash-consing", ML Workshop 2006): the one `Shape` per (dims, type value) and
# the one `TupleShape` per element tuple. They keep every distinct shape built
# in the process, which is a few dozen per module.
_SHAPES: dict[tuple, Shape] = {}
_TUPLE_SHAPES: dict[tuple, TupleShape] = {}


def _intern(cls, table: dict, key: tuple, **fields):
    """The shape in `table` under `key`, built from `fields` if it is new."""
    if key not in table:
        self = object.__new__(cls)
        for name, value in (*fields.items(), ("_bytes", {})):  # _bytes: tile -> physical bytes
            object.__setattr__(self, name, value)
        table[key] = self
    return table[key]


class Shape:
    """A dense array shape. There is one object per (dims, etype), so equality
    and hashing are identity and each distinct shape is validated once; dims
    given as a list or as numpy ints give the same object. Shapes are
    immutable, copying or unpickling one returns the interned object, and
    each caches its physical byte size per tile (`physical_bytes`). Its text
    is made once, when it is interned."""

    __slots__ = ("dims", "etype", "_bytes", "_str")
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, dims, etype: ElementType) -> Shape:
        try:  # keyed by the type's value: hashing the member calls Enum.__hash__
            return _SHAPES[dims, etype._value_]
        except (KeyError, TypeError):  # new, or dims given as a list
            pass
        dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in dims):
            raise ValueError(f"negative dimension in shape: {dims}")
        text = f"{etype._value_}[{','.join(map(str, dims))}]"
        return _intern(cls, _SHAPES, (dims, etype._value_), dims=dims, etype=etype, _str=text)

    def __reduce__(self):
        return Shape, (self.dims, self.etype)

    def __repr__(self) -> str:
        return f"Shape(dims={self.dims!r}, etype={self.etype!r})"

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def element_count(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def __str__(self) -> str:
        return self._str


class TupleShape:
    """A flat tuple of array shapes, interned like `Shape`: one object per
    element tuple, with its text made once."""

    __slots__ = ("elements", "_bytes", "_str")
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, elements) -> TupleShape:
        elements = tuple(elements)
        try:
            return _TUPLE_SHAPES[elements]
        except (KeyError, TypeError):  # new, or holds something unhashable
            pass
        if not all(isinstance(e, Shape) for e in elements):
            raise ValueError("tuple shapes may only contain array shapes")
        text = "(" + ", ".join(e._str for e in elements) + ")"
        return _intern(cls, _TUPLE_SHAPES, elements, elements=elements, _str=text)

    def __reduce__(self):
        return TupleShape, (self.elements,)

    def __repr__(self) -> str:
        return f"TupleShape(elements={self.elements!r})"

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __str__(self) -> str:
        return self._str


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
    """Bytes of the tiled buffer(s) backing `shape`, worked out once per
    shape and tile."""
    try:
        return shape._bytes[tile]
    except KeyError:
        pass
    if isinstance(shape, TupleShape):
        size = sum(physical_bytes(e, tile) for e in shape.elements)
    else:
        size = physical_elements(shape, tile) * shape.etype.byte_size
    shape._bytes[tile] = size
    return size


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


class Opcode(NamedTuple):
    operands: range  # the operand counts the opcode takes
    callees: tuple[str, ...] = ()  # the callee attributes it owns, by their text names
    attributes: tuple[str, ...] = ()  # the attributes its printed line carries, by their text names, in order


_CALLEES = {"while": ("cond", "body"), "conditional": ("true", "false"), "fusion": ("calls",)}
# a line leaves out an unset attribute, as a fusion's line does `spec` and `groups`
_ATTRIBUTES = {
    "iota": ("dim",),
    "compare": ("direction",),
    "broadcast": ("dims",),
    "reduce": ("dims", "kind"),
    "pad": ("low", "high"),
    "dynamic-slice": ("sizes",),
    "get-tuple-element": ("index",),
    "all-reduce": ("kind", "groups"),
    "while": ("cond", "body"),
    "conditional": ("true", "false"),
    "fusion": ("kind", "calls", "spec", "groups"),
}

# Every opcode, with its operand counts, callee attributes and printed
# attributes. The parsers and `verify` check instructions against this table.
OPCODES: dict[str, Opcode] = {
    op: Opcode(counts, _CALLEES.get(op, ()), _ATTRIBUTES.get(op, ()))
    for counts, ops in (
        (range(0, 1), "parameter constant iota replica-id rng"),
        (range(1, 2), "sqrt convert broadcast reshape bitcast get-tuple-element while outfeed"),
        (range(2, 3), "add sub mul div max min power compare dot reduce pad"),
        (range(3, 4), "select conditional"),
        (range(1, sys.maxsize), "dynamic-slice all-reduce fusion"),
        (range(sys.maxsize), "tuple"),
    )
    for op in ops.split()
}
CALLING_OPCODES = frozenset(op for op, info in OPCODES.items() if info.callees)
# the `Instruction` field that holds each printed attribute, for the printer,
# both parsers and `verify`
ATTRIBUTE_FIELDS = {"dim": "dims", "low": "pad_low", "high": "pad_high", "sizes": "slice_sizes",
                    "calls": "fused", "true": "branches", "false": "branches"}
ATTRIBUTE_FIELDS.update(
    (key, key) for info in OPCODES.values() for key in info.attributes if key not in ATTRIBUTE_FIELDS
)


def operand_count_message(opcode: str, got: int) -> str:
    """What is wrong with `got` operands, a count `OPCODES[opcode]` does not
    allow; the parser and `verify` report the same text."""
    counts = OPCODES[opcode].operands
    if len(counts) == 1:
        return f"{opcode} expects {counts.start} operand(s), got {got}"
    return f"{opcode} expects at least {counts.start} operand"


ELEMENTWISE_BINARY = frozenset({"add", "sub", "mul", "div", "max", "min", "power"})

REDUCE_KINDS = ("add", "mul", "max", "min")
COMPARE_DIRECTIONS = ("eq", "ne", "lt", "le", "gt", "ge")
FUSION_KINDS = ("standard", "shard", "unshard", "reduce_scatter", "all_gather")
COLLECTIVE_FUSION_KINDS = frozenset({"reduce_scatter", "all_gather", "unshard"})


def is_collective(instr: Instruction) -> bool:
    """An all-reduce, or a fusion that runs a ring collective."""
    return instr.opcode == "all-reduce" or (instr.opcode == "fusion" and instr.kind in COLLECTIVE_FUSION_KINDS)


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
    """Either all replicas together (groups=None) or a disjoint equal-size
    partition. Equality is by value; the hash is worked out once, because a
    partition of thousands of replicas is a dictionary key in `verify` and in
    batching."""

    groups: tuple[tuple[int, ...], ...] | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.groups))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_all(self) -> bool:
        return self.groups is None

    def resolve(self, n: int) -> tuple[tuple[int, ...], ...]:
        if self.groups is None:
            return _all_replicas(n)
        return self.groups

    def group_of(self, replica: int, n: int) -> tuple[int, ...]:
        for g in self.resolve(n):
            if replica in g:
                return g
        raise ValueError(f"replica {replica} not in any group")

    def group_size(self, n: int) -> int:
        return n if self.groups is None else len(self.groups[0])

    def __str__(self) -> str:
        if self.groups is None:
            return "all"
        return "{" + ",".join("{" + ",".join(str(r) for r in g) + "}" for g in self.groups) + "}"


@lru_cache(maxsize=None)
def _all_replicas(n: int) -> tuple[tuple[int, ...], ...]:
    """`groups=all` over `n` replicas as one explicit group, built once per
    replica count."""
    return (tuple(range(n)),)


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
        return self._partitions[0]

    def col_groups(self) -> ReplicaGroups:
        return self._partitions[1]

    @cached_property
    def _partitions(self) -> tuple[ReplicaGroups, ReplicaGroups]:
        """The row and the column partition, built once per topology: callers
        classify groups against them once per emitted collective."""
        rows = tuple(tuple(range(i * self.cols, (i + 1) * self.cols)) for i in range(self.rows))
        cols = tuple(tuple(j + i * self.cols for i in range(self.rows)) for j in range(self.cols))
        return ReplicaGroups(rows), ReplicaGroups(cols)

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


@dataclass(eq=False, slots=True)
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
    # `verify`'s note, not a value: the (replica_count, tile) at which the
    # instruction passed its own rules inside a computation found clean
    verified_at: tuple | None = field(default=None, init=False)

    def __repr__(self) -> str:
        return f"<{self.id}: {self.shape} {self.opcode}>"

    @property
    def called_computations(self) -> tuple["Computation", ...]:
        """The computations a `while`, `conditional` or `fusion` calls; ()
        for every other opcode."""
        op = self.opcode
        if op not in CALLING_OPCODES:
            return ()
        if op == "fusion":
            return () if self.fused is None else (self.fused,)
        if op == "conditional":
            return self.branches or ()
        return tuple(c for c in (self.cond, self.body) if c is not None)


@dataclass(eq=False)
class Computation:
    name: str
    instructions: tuple[Instruction, ...]
    root: Instruction

    def __post_init__(self):
        self.instructions = tuple(self.instructions)

    @cached_property
    def parameters(self) -> tuple[Instruction, ...]:
        """The parameter instructions in index order, found once."""
        params = [i for i in self.instructions if i.opcode == "parameter"]
        params.sort(key=lambda p: p.index or 0)
        return tuple(params)

    def __repr__(self) -> str:
        return f"<computation {self.name}: {len(self.instructions)} instructions>"


@dataclass(eq=False)
class Module:
    entry: Computation
    replica_count: int
    topology: Topology
    tile: tuple[int, int] = DEFAULT_TILE

    def __post_init__(self):
        self.tile = tuple(self.tile)  # a key of each shape's byte-size cache
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
                if instr.opcode in CALLING_OPCODES:
                    for callee in instr.called_computations:
                        visit(callee)
            order.append(c)

        visit(self.entry)
        return order

    def training_loop(self) -> Instruction | None:
        """The entry's training loop (its first `while`), or None."""
        return next((i for i in self.entry.instructions if i.opcode == "while"), None)


# --------------------------------------------------------------------------- #
# Def-use index and topological order
# --------------------------------------------------------------------------- #


def users_map(comp: Computation) -> dict[str, list[Instruction]]:
    """The users of each value in `comp`, keyed by the value's id, in
    instruction order; a user that reads a value twice is listed twice.
    The planner builds it once per step computation and looks users up in
    it."""
    users: dict[str, list[Instruction]] = {}
    for ins in comp.instructions:
        for o in ins.operands:
            users.setdefault(o.id, []).append(ins)
    return users


def topo_order(comp: Computation) -> list[Instruction]:
    """Deterministic topological order of a computation's instructions.

    Operands precede users; among ready instructions the smallest id goes
    first, so the order is stable across calls and platforms. The ids are
    ranked once, and the walk runs on positions and ranks. The def-use
    edges are held in flat integer lists: the users of position j are
    `users[start[j]:start[j + 1]]`, in instruction order, so the walk builds
    no list per instruction.
    """
    instrs = comp.instructions
    n = len(instrs)
    position = {ins: k for k, ins in enumerate(instrs)}  # instructions hash by identity
    by_rank = sorted(range(n), key=[ins.id for ins in instrs].__getitem__)
    rank = [0] * n
    for r, k in enumerate(by_rank):
        rank[k] = r
    indegree = [0] * n
    start = [0] * (n + 1)  # user counts, shifted by one, then offsets
    edge_from: list[int] = []
    edge_to: list[int] = []
    for k, ins in enumerate(instrs):
        for o in ins.operands:
            j = position.get(o)
            if j is not None:  # operands from outside the computation are ready
                indegree[k] += 1
                start[j + 1] += 1
                edge_from.append(j)
                edge_to.append(k)
    for j in range(n):
        start[j + 1] += start[j]
    users = [0] * len(edge_to)
    fill = start[:n]
    for j, k in zip(edge_from, edge_to):
        users[fill[j]] = k
        fill[j] += 1

    ready = [rank[k] for k in range(n) if not indegree[k]]
    heapq.heapify(ready)
    out: list[Instruction] = []
    while ready:
        k = by_rank[heapq.heappop(ready)]
        out.append(instrs[k])
        for e in range(start[k], start[k + 1]):
            u = users[e]
            indegree[u] -= 1
            if not indegree[u]:
                heapq.heappush(ready, rank[u])
    if len(out) != n:
        raise ValueError(f"cycle detected in computation {comp.name}")
    return out


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
        return self.add(Instruction(id=iid, opcode=opcode, shape=shape, operands=tuple(operands), **attrs))

    def add(self, instr: Instruction) -> Instruction:
        """Append an instruction built elsewhere; its id must be new here."""
        if instr.id in self._ids:
            raise ValueError(f"duplicate instruction id: {instr.id}")
        self._ids.add(instr.id)
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

    def broadcast_scalar(self, s: Instruction, shape: Shape, id: str | None = None) -> Instruction:
        return self.emit("broadcast", shape, (s,), id=id, dims=())

    def finish(self, root: Instruction) -> Computation:
        return Computation(self.name, self.instructions, root)
