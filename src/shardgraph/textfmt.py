"""Text serialization of modules.

Grammar (one instruction per line, `#` starts a comment):

    module N=<replicas> topology=<ring|mesh RxC> [tile=8x128] {
      computation <name> (<p>: <shape> [{replica_equal}], ...) -> <shape> {
        %id = <shape> opcode(<args>) [{replica_equal}] [, attr=value ...]
        return (%root)
      }
      entry computation <name> (...) -> <shape> { ... }
    }

Shapes print as `f32[3,3,256,256]`, scalars as `f32[]`, tuples as
`(f32[4], s32[])`. `parameter` and `constant` take literals as call
arguments; every other opcode takes `%id` references. `print_module` and
`parse_module` round-trip bit-exactly; neither runs the verifier.

Tokens are ASCII: punctuation `{}()[]=,:` and `->`; words
`[A-Za-z_][A-Za-z0-9_.-]*` (a `-` before `>` ends one); references
`%[A-Za-z0-9_.]+`; numbers `-?[0-9][0-9.eE]*`, with a sign allowed only
after an exponent marker, and `-inf`; strings `"..."` without escapes.
Blanks, newlines and `#` comments separate them; any other character,
non-ASCII digits and letters included, is an error outside strings and
comments.

`parse_module` has two paths, and the input alone picks one:

- The line reader (`_parse_lines`) takes text exactly as `print_module`
  writes it: one compiled pattern per kind of line, shapes looked up by
  their text, and each value checked by printing it back. It reads only
  such text, which the token parser accepts too, and builds the module the
  token parser builds from it, through the same constructors. On any other
  line, and on anything the token parser would reject, it gives up.
- The token parser (`_Parser`) then reads the whole text. It is the only
  path for comments, other spacing and hand-written modules, and the only
  code that raises `ParseError`. One compiled pattern scans the whole text
  in C, and the parser reads plain token strings. Positions are worked out
  only for an error, by scanning again up to the failing token: lines count
  newlines between tokens, and columns count characters, where a comment
  counts none and a newline inside a string counts as one.

Every malformed input raises `ParseError`, including values the IR
rejects (a negative dimension, a replica count that is not the topology's)
and bad sharding spec strings. Nothing is remembered from one call to the
next.
"""

from __future__ import annotations

import dataclasses
import re
import string
from itertools import islice
from operator import itemgetter

from .ir import (
    ALL_REPLICAS,
    ATTRIBUTE_FIELDS,
    Computation,
    ElementType,
    Instruction,
    Module,
    OPCODES,
    ReplicaGroups,
    Shape,
    Topology,
    TupleShape,
    DEFAULT_TILE,
    operand_count_message,
)
from .sharding import parse_spec_string


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# --------------------------------------------------------------------------- #
# Printing
# --------------------------------------------------------------------------- #


def _fmt_number(v: float, etype: ElementType) -> str:
    if etype == ElementType.PRED:
        return "true" if v else "false"
    if etype == ElementType.S32:
        return str(int(v))
    if v != v:
        return "nan"
    if v == float("inf"):
        return "inf"
    if v == float("-inf"):
        return "-inf"
    return repr(float(v))


def _fmt_ints(v: tuple[int, ...]) -> str:
    return f"[{','.join(map(str, v))}]"


# the printed value of each attribute key, from its field
_FORMATS = {key: _fmt_ints for key in ("dims", "low", "high", "sizes")}
_FORMATS.update((key, str) for key in ("index", "kind", "direction", "groups"))
_FORMATS.update((key, lambda v: v.name) for key in ("cond", "body", "calls"))
_FORMATS.update(dim=lambda v: str(v[0]), true=lambda v: v[0].name, false=lambda v: v[1].name, spec=lambda v: f'"{v}"')


def _instruction_line(instr: Instruction) -> str:
    """The instruction's line, leaving out each unset attribute of its opcode (`ir.OPCODES`)."""
    op = instr.opcode
    if op == "parameter":
        args = str(instr.index)
    elif op == "constant":
        args = ", ".join(_fmt_number(v, instr.shape.etype) for v in instr.value)
    else:
        args = ", ".join(f"%{o.id}" for o in instr.operands)
    line = f"%{instr.id} = {instr.shape} {op}({args})"
    if op == "parameter" and instr.replica_equal:
        line += " {replica_equal}"
    attrs = []
    for key in OPCODES[op].attributes:
        value = getattr(instr, ATTRIBUTE_FIELDS[key])
        if value is not None:
            attrs.append(f"{key}={_FORMATS[key](value)}")
    if attrs:
        line += ", " + ", ".join(attrs)
    return line


def _signature(comp: Computation) -> str:
    """The parameter list of a computation's header, without its parentheses."""
    return ", ".join(
        f"%{p.id}: {p.shape} {{replica_equal}}" if p.replica_equal else f"%{p.id}: {p.shape}"
        for p in comp.parameters
    )


def _computation_text(comp: Computation, entry: bool) -> list[str]:
    head = "entry computation" if entry else "computation"
    lines = [f"  {head} {comp.name} ({_signature(comp)}) -> {comp.root.shape} {{"]
    for instr in comp.instructions:
        lines.append("    " + _instruction_line(instr))
    lines.append(f"    return (%{comp.root.id})")
    lines.append("  }")
    return lines


def print_module(m: Module) -> str:
    header = f"module N={m.replica_count} topology={m.topology}"
    if m.tile != DEFAULT_TILE:
        header += f" tile={m.tile[0]}x{m.tile[1]}"
    lines = [header + " {"]
    for comp in m.computations():
        lines.extend(_computation_text(comp, entry=comp is m.entry))
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# Tokenizer
# --------------------------------------------------------------------------- #

# The alternatives start with different characters, so their order does not
# change a token; it follows how often each occurs in a module, and the word
# and number loops are unrolled to a run of plain characters. Possessive
# quantifiers would cut more, but they need Python 3.11.
_TOKEN = re.compile(
    r"[{}()\[\]=,:]"  # punctuation
    r"|%[0-9A-Za-z_.]+"  # instruction reference
    r"|[A-Za-z_][0-9A-Za-z_.]*(?:-(?!>)[0-9A-Za-z_.]*)*"  # word, hyphenated opcodes included
    r"|-?[0-9][0-9.eE]*(?:(?<=[eE])[+-][0-9.eE]*)*|-inf"  # number; a sign only in an exponent
    r"|->"
    r'|"[^"]*"'  # string
)
# Blanks and comments, then one token. Where no token starts, the last
# alternative takes the rest of the text, so a lexical error is always the
# last match; at the end of the text it matches the empty string.
_SCAN = re.compile(r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(" + _TOKEN.pattern + r"|[\s\S]*)")

_KINDS = {"": "eof", "%": "ref", '"': "string", "-": "number"}
_KINDS.update((c, c) for c in "{}()[]=,:")
_KINDS.update((c, "number") for c in string.digits)
_KINDS.update((c, "word") for c in string.ascii_letters + "_")


_LEX_ERRORS = {'"': "unterminated string", "%": "empty instruction id after '%'", "-i": "bad number"}


def _kind(tok: str) -> str:
    return "->" if tok == "->" else _KINDS[tok[:1]]


def _shown(tok: str) -> str:
    """A token as messages quote it: a reference without `%`, a string unquoted."""
    return tok[1:-1] if tok[:1] == '"' else tok[1:] if tok[:1] == "%" else tok


def _tokenize(text: str) -> list[str]:
    """The token texts, then "" for the end of the text."""
    toks = _SCAN.findall(text)
    while toks and not toks[-1]:
        toks.pop()
    if toks and not _TOKEN.fullmatch(bad := toks[-1]):
        msg = _LEX_ERRORS.get(bad[:2] if bad[:2] == "-i" else bad[0], f"unexpected character {bad[0]!r}")
        raise ParseError(msg, *_position(text, len(toks) - 1))
    toks.append("")
    return toks


def _position(text: str, k: int) -> tuple[int, int]:
    """Line and column of token `k`. Only errors need them, so they are
    counted by scanning again: a newline between tokens starts a line, a
    comment takes no column, and every other character takes one, newlines
    inside strings included. The scan to token `k` runs in C; only the
    tokens of its line are walked in Python."""
    matches = list(islice(_SCAN.finditer(text), k + 1))
    start = matches[-1].start(1)
    # only strings hold newlines among the tokens before `k`
    line = 1 + text.count("\n", 0, start) - "".join(map(itemgetter(1), matches[:-1])).count("\n")
    line_start = 0  # just after the last newline between tokens
    for m in reversed(matches):
        newline = text.rfind("\n", m.start(), m.start(1))
        if newline >= 0:
            line_start = newline + 1
            break
    # a comment before token `k` on its line runs to the end of the text
    comment = text.find("#", max(line_start, matches[-1].start()), start)
    return line, 1 + (start if comment < 0 else comment) - line_start


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #

_ETYPES = {e.value: e for e in ElementType}
# the opcode each callee attribute belongs to: only these call computations
_CALLER = {attr: op for op, info in OPCODES.items() for attr in info.callees}


class _Parser:
    """Recursive descent over the token texts. `pos` indexes the next
    token; errors name a token by its index."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.shapes: dict[tuple[str, ...], Shape] = {}  # by token run up to `]`: shapes that parsed cleanly

    def peek(self) -> str:
        return self.toks[self.pos]

    def next(self) -> str:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str, at: int | None = None):
        raise ParseError(msg, *_position(self.text, self.pos if at is None else at))

    def expect_number(self, conv=int):
        """The next token as a number; lexed numbers such as `1e` or `1.5` in
        an integer position are parse errors."""
        t = self.expect_kind("number")
        try:
            return conv(t)
        except ValueError:
            self.error(f"bad number {t!r}", self.pos - 1)

    def expect(self, mark: str) -> str:
        """The next token, which must be the punctuation `mark`."""
        t = self.toks[self.pos]
        if t != mark:
            self.error(f"expected {mark!r}, found {_shown(t)!r}")
        self.pos += 1
        return t

    def expect_kind(self, kind: str) -> str:
        """The next token, which must be a 'word', 'ref', 'number', 'string'
        or 'eof'."""
        t = self.toks[self.pos]
        if _kind(t) != kind:
            self.error(f"expected {kind!r}, found {_shown(t)!r}")
        self.pos += 1
        return t

    def expect_word(self, word: str) -> str:
        t = self.expect_kind("word")
        if t != word:
            self.error(f"expected {word!r}, found {t!r}", self.pos - 1)
        return t

    def accept(self, mark: str) -> bool:
        if self.toks[self.pos] == mark:
            self.pos += 1
            return True
        return False

    def build(self, at: int, make, *args, **kwargs):
        """`make(*args, **kwargs)`; the ValueError of a value the IR rejects
        becomes a ParseError at token `at`."""
        try:
            return make(*args, **kwargs)
        except ValueError as e:
            self.error(str(e), at)

    # -- shapes --------------------------------------------------------------

    def parse_shape(self, depth: int = 0) -> Shape | TupleShape:
        if self.peek() == "(":
            if depth == 2:  # bounds the recursion; the enclosing tuple fails anyway
                self.error("nested tuple shapes are not supported")
            self.next()
            elems = []
            if self.peek() != ")":
                while True:
                    s = self.parse_shape(depth + 1)
                    if isinstance(s, TupleShape):
                        self.error("nested tuple shapes are not supported")
                    elems.append(s)
                    if not self.accept(","):
                        break
            self.expect(")")
            return TupleShape(tuple(elems))
        at = self.pos
        try:  # a clean parse ends at the first `]`, so the same run parses the same way
            key = tuple(self.toks[at : self.toks.index("]", at) + 1])
            shape = self.shapes[key]
        except (ValueError, KeyError):  # no `]` left, or a run not parsed yet
            pass
        else:
            self.pos += len(key)
            return shape
        etype = _ETYPES.get(self.toks[at])
        if etype is None:  # element types are words
            self.error(f"unknown element type {self.expect_kind('word')!r}", at)
        self.pos += 1
        shape = self.build(at, Shape, self.parse_int_list(), etype)
        self.shapes[tuple(self.toks[at : self.pos])] = shape
        return shape

    def parse_int_list(self) -> tuple[int, ...]:
        self.expect("[")
        out = []
        if self.peek() != "]":
            while True:
                out.append(self.expect_number())
                if not self.accept(","):
                    break
        self.expect("]")
        return tuple(out)

    def parse_groups(self) -> ReplicaGroups:
        if self.accept("all"):
            return ALL_REPLICAS
        self.expect("{")
        groups = []
        while True:
            self.expect("{")
            g = []
            while True:
                g.append(self.expect_number())
                if not self.accept(","):
                    break
            self.expect("}")
            groups.append(tuple(g))
            if not self.accept(","):
                break
        self.expect("}")
        return ReplicaGroups(tuple(groups))

    def parse_number_literal(self, etype: ElementType) -> float:
        t = self.peek()
        if t in ("true", "false"):
            self.next()
            return 1.0 if t == "true" else 0.0
        if t in ("inf", "nan"):
            self.next()
            return float(t)
        return self.expect_number(float)

    # -- module --------------------------------------------------------------

    def parse_module(self) -> Module:
        self.expect_word("module")
        self.expect_word("N")
        self.expect("=")
        n_at = self.pos
        n = self.expect_number()
        self.expect_word("topology")
        self.expect("=")
        t = self.expect_kind("word")
        if t == "ring":
            topo = Topology("ring", 1, n)
        elif t == "mesh":
            topo = Topology("mesh", *self._parse_grid())
        else:
            self.error(f"unknown topology {t!r}", self.pos - 1)
        tile = DEFAULT_TILE
        if self.accept("tile"):
            self.expect("=")
            tile = self._parse_grid()
        self.expect("{")

        comps: dict[str, Computation] = {}
        entry: Computation | None = None
        while _kind(self.peek()) == "word":
            is_entry = self.accept("entry")
            comp = self.parse_computation(comps)
            if comp.name in comps:
                self.error(f"duplicate computation name {comp.name!r}")
            comps[comp.name] = comp
            if is_entry:
                entry = comp
        self.expect("}")
        self.expect_kind("eof")
        if entry is None:
            if not comps:
                self.error("module has no computations", self.pos - 1)
            entry = list(comps.values())[-1]
        return self.build(n_at, Module, entry=entry, replica_count=n, topology=topo, tile=tile)

    def _parse_grid(self) -> tuple[int, int]:
        """`RxC`, which lexes as a number followed by a word ('8' 'x128');
        with R missing it is one word ('x128')."""
        at = self.pos
        t = self.next()
        kind = _kind(t)
        if kind not in ("word", "number"):
            self.error("expected RxC dimensions", at)
        text = t + (self.expect_kind("word") if kind == "number" else "")
        r, x, c = text.partition("x")
        try:  # int() also rejects numbers too long to convert
            dims = (int(r), int(c)) if x and r.isdigit() and c.isdigit() else (0, 0)
        except ValueError:
            dims = (0, 0)
        if not all(dims):
            self.error(f"bad dimensions {text!r}", at)
        return dims

    def parse_computation(self, known: dict[str, Computation]) -> Computation:
        self.expect_word("computation")
        name = self.expect_kind("word")
        self.expect("(")
        # Signature parameters are redundant with the body's parameter
        # instructions; shapes are taken from the body lines.
        depth = 0
        while self.peek() != ")" or depth > 0:
            t = self.next()
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
            elif not t:
                self.error("unterminated computation signature", self.pos - 1)
        self.expect(")")
        self.expect("->")
        self.parse_shape()  # result shape, validated against the root below
        self.expect("{")

        by_id: dict[str, Instruction] = {}
        instructions: list[Instruction] = []
        root: Instruction | None = None
        while True:
            if self.accept("return"):
                self.expect("(")
                r = self.expect_kind("ref")[1:]
                if r not in by_id:
                    self.error(f"return references undefined id %{r}", self.pos - 1)
                root = by_id[r]
                self.expect(")")
                break
            instr = self.parse_instruction(by_id, known)
            if instr.id in by_id:
                self.error(f"duplicate instruction id %{instr.id}")
            by_id[instr.id] = instr
            instructions.append(instr)
        self.expect("}")
        return Computation(name, instructions, root)

    def parse_instruction(self, by_id: dict[str, Instruction], comps: dict[str, Computation]) -> Instruction:
        iid = self.expect_kind("ref")[1:]
        self.expect("=")
        shape = self.parse_shape()
        op_at = self.pos
        opcode = self.toks[op_at]
        if opcode not in OPCODES:  # opcodes are words
            self.error(f"unknown opcode {self.expect_kind('word')!r}", op_at)
        self.pos += 1
        self.expect("(")

        operands: list[Instruction] = []
        attrs: dict = {}
        if opcode == "parameter":
            attrs["index"] = self.expect_number()
        elif opcode == "constant":
            values = []
            if self.peek() != ")":
                while True:
                    if not isinstance(shape, Shape):
                        self.error("constant must have an array shape")
                    values.append(self.parse_number_literal(shape.etype))
                    if not self.accept(","):
                        break
            attrs["value"] = tuple(values)
        elif self.peek() != ")":
            while True:
                r = self.expect_kind("ref")[1:]
                if r not in by_id:
                    self.error(f"reference to undefined id %{r}", self.pos - 1)
                operands.append(by_id[r])
                if not self.accept(","):
                    break
        self.expect(")")

        if len(operands) not in OPCODES[opcode].operands:
            self.error(operand_count_message(opcode, len(operands)), op_at)

        if self.accept("{"):  # parameter annotation block
            w = self.expect_kind("word")
            if w != "replica_equal":
                self.error(f"unknown annotation {w!r}", self.pos - 1)
            self.expect("}")
            attrs["replica_equal"] = True

        while self.accept(","):
            key = self.expect_kind("word")
            self.expect("=")
            if key in _CALLER:
                value = self._callee(comps, key, opcode)
            elif key in _VALUE_PARSERS:
                value = _VALUE_PARSERS[key](self)
            else:
                self.error(f"unknown attribute {key!r}")
            if key in ("true", "false"):
                attrs.setdefault("_branches", [None, None])[key == "false"] = value
            else:
                attrs[ATTRIBUTE_FIELDS[key]] = value

        branches = attrs.pop("_branches", None)
        if branches is not None:
            if branches[0] is None or branches[1] is None:
                self.error("conditional requires both true= and false= computations", op_at)
            attrs["branches"] = tuple(branches)
        if attrs.get("spec") is not None and attrs.get("groups") is not None:
            # the spec string is group-free; the fusion's groups attribute
            # carries the collective's scope
            attrs["spec"] = dataclasses.replace(attrs["spec"], group=attrs["groups"])
        return Instruction(id=iid, opcode=opcode, shape=shape, operands=tuple(operands), **attrs)

    def parse_spec(self):
        spec = self.expect_kind("string")[1:-1]
        try:
            return parse_spec_string(spec)
        except ValueError as e:
            self.error(f"bad sharding spec {spec!r}: {e}", self.pos - 1)

    def _callee(self, comps: dict[str, Computation], key: str, opcode: str) -> Computation:
        """The computation a callee attribute names; only the opcode that
        calls it (`ir.OPCODES`) takes the attribute."""
        t = self.expect_kind("word")
        if t not in comps:
            self.error(f"reference to undefined computation {t!r}", self.pos - 1)
        if opcode != _CALLER[key]:
            self.error(f"attribute {key!r} belongs to {_CALLER[key]}, not {opcode}", self.pos - 3)
        return comps[t]


# the token parser's reader of each attribute value other than a callee
_VALUE_PARSERS = {
    "dim": lambda p: (p.expect_number(),),
    "dims": _Parser.parse_int_list,
    "low": _Parser.parse_int_list,
    "high": _Parser.parse_int_list,
    "sizes": _Parser.parse_int_list,
    "index": _Parser.expect_number,
    "kind": lambda p: p.expect_kind("word"),
    "direction": lambda p: p.expect_kind("word"),
    "groups": _Parser.parse_groups,
    "spec": _Parser.parse_spec,
}


# --------------------------------------------------------------------------- #
# Line reader
# --------------------------------------------------------------------------- #

# A word token wherever the printer puts one: a blank, `(`, `,` or the end of
# the line follows it, so a `-` in it never starts `->`.
_WORD = r"[A-Za-z_][0-9A-Za-z_.-]*"
_SHAPE = r"\([^()]*\)|[a-z0-9]+\[[0-9,]*\]"
_HEADER = re.compile(
    r"module N=([1-9][0-9]*) topology=(?:ring|mesh ([1-9][0-9]*)x([1-9][0-9]*))"
    r"(?: tile=([1-9][0-9]*)x([1-9][0-9]*))? \{"
)
_COMPUTATION = re.compile(rf"  (entry )?computation ({_WORD}) \((.*)\) -> ({_SHAPE}) \{{")
_INSTRUCTION = re.compile(rf"    %([0-9A-Za-z_.]+) = ({_SHAPE}) ([a-z-]+)\(([^()]*)\)(.*)")
_RETURN = "    return (%"
_WORD_VALUE = re.compile(_WORD)

# the shorter attribute lists of a fusion line (`ir.OPCODES` has the full one)
_FUSION_KEYS = {("kind", "calls"), ("kind", "calls", "spec"), ("kind", "calls", "groups")}


# Each reader returns the value the token parser makes of a printed value. The
# line reader gives up unless printing that value, with the printer's formatter
# of the key (`_FORMATS`), gives back the same text.


def _ints(t: str) -> tuple[int, ...]:
    return tuple(map(int, t[1:-1].split(","))) if t != "[]" else ()


def _word(t: str) -> str:
    if not _WORD_VALUE.fullmatch(t):
        raise ValueError(t)
    return t


def _groups(t: str) -> ReplicaGroups:
    if t == "all":
        return ALL_REPLICAS
    return ReplicaGroups(tuple(tuple(map(int, g.split(","))) for g in t[2:-2].split("},{")))


_READERS = {
    "dim": lambda t: (int(t),),
    "dims": _ints,
    "low": _ints,
    "high": _ints,
    "sizes": _ints,
    "index": int,
    "kind": _word,
    "direction": _word,
    "groups": _groups,
    "spec": lambda t: parse_spec_string(t[1:-1]),
}


def _literal(t: str, etype: ElementType) -> float:
    v = 1.0 if t == "true" else 0.0 if t == "false" else float(t)
    if _fmt_number(v, etype) != t:
        raise ValueError(t)
    return v


def _array_shape(t: str) -> Shape:
    etype, _, dims = t.partition("[")
    return Shape(tuple(map(int, dims[:-1].split(","))) if dims != "]" else (), _ETYPES[etype])


def _read_shape(t: str) -> Shape | TupleShape:
    if t[0] == "(":
        shape = TupleShape([_array_shape(e) for e in t[1:-1].split(", ")] if t != "()" else ())
    else:
        shape = _array_shape(t)
    if str(shape) != t:
        raise ValueError(t)
    return shape


def _parse_lines(text: str) -> Module | None:
    """The module in `text` when every line of it is as `print_module` writes
    it; None for any other text, valid or not. The module is then the one
    the token parser builds from the same text, and prints back to it."""
    try:
        return _read_lines(text.split("\n"))
    except (ValueError, LookupError, RecursionError):  # `Module.computations` recurses per call depth
        return None


def _read_lines(lines: list[str]) -> Module | None:
    head = _HEADER.fullmatch(lines[0])
    if head is None or lines[-2:] != ["}", ""]:
        return None
    n, rows, cols, tile_rows, tile_cols = head.groups()
    n = int(n)
    topology = Topology("ring", 1, n) if rows is None else Topology("mesh", int(rows), int(cols))
    tile = DEFAULT_TILE
    if tile_rows is not None:
        tile = (int(tile_rows), int(tile_cols))
        if tile == DEFAULT_TILE:  # the printer leaves the default out
            return None
    shapes: dict[str, Shape | TupleShape] = {}  # by text
    comps: dict[str, Computation] = {}
    entry = None
    match_instruction = _INSTRUCTION.fullmatch
    k = 1
    while k < len(lines) - 2:
        head = _COMPUTATION.fullmatch(lines[k])
        if head is None or head[2] in comps:
            return None
        by_id: dict[str, Instruction] = {}  # in line order
        k += 1
        while (line := match_instruction(lines[k])) is not None:
            k += 1
            iid, shape_text, opcode, args, rest = line.groups()
            try:
                shape = shapes[shape_text]
            except KeyError:
                shape = shapes[shape_text] = _read_shape(shape_text)
            operands = ()
            attrs = {}
            if opcode == "parameter":
                attrs["index"] = int(args)
                if str(attrs["index"]) != args:
                    return None
                if rest == " {replica_equal}":
                    attrs["replica_equal"] = True
                    rest = ""
            elif opcode == "constant":
                if args and not isinstance(shape, Shape):
                    return None
                attrs["value"] = tuple(_literal(t, shape.etype) for t in args.split(", ")) if args else ()
            elif args:
                if args[0] != "%":
                    return None
                operands = tuple([by_id[r] for r in args[1:].split(", %")])
            info = OPCODES[opcode]
            if len(operands) not in info.operands or iid in by_id:
                return None
            if rest or info.attributes:
                if rest[:2] != ", ":
                    return None
                pairs = [p.split("=", 1) for p in rest[2:].split(", ")]
                keys = tuple(key for key, _ in pairs)
                if keys != info.attributes and (opcode != "fusion" or keys not in _FUSION_KEYS):
                    return None
                for key, text in pairs:
                    if key in _CALLER:
                        value = comps[text]
                    elif _FORMATS[key](value := _READERS[key](text)) != text:
                        return None
                    attrs[ATTRIBUTE_FIELDS[key]] = value
                if opcode == "conditional":
                    attrs["branches"] = (comps[pairs[0][1]], comps[pairs[1][1]])
                elif "spec" in attrs and "groups" in attrs:
                    attrs["spec"] = dataclasses.replace(attrs["spec"], group=attrs["groups"])
            by_id[iid] = Instruction(iid, opcode, shape, operands, **attrs)
        ret = lines[k]
        if not ret.startswith(_RETURN) or ret[-1] != ")" or lines[k + 1] != "  }":
            return None
        root = by_id[ret[len(_RETURN) : -1]]
        comp = Computation(head[2], by_id.values(), root)
        if head[3] != _signature(comp) or head[4] != str(root.shape):
            return None
        comps[comp.name] = comp
        if head[1]:
            if entry is not None:
                return None
            entry = comp
        k += 2
    if entry is None:
        return None
    m = Module(entry, n, topology, tile)
    # the printer writes the computations the entry reaches, callees first
    if m.computations() != list(comps.values()):
        return None
    return m


def parse_module(text: str) -> Module:
    """Parse module text. Raises ParseError with line/column on malformed input.

    Text as `print_module` writes it is read a line at a time
    (`_parse_lines`); any other text, and so every malformed one, goes to the
    token parser, which alone raises ParseError."""
    m = _parse_lines(text)
    return _Parser(text).parse_module() if m is None else m
