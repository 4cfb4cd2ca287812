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
"""

from __future__ import annotations

import dataclasses

from .ir import (
    ALL_REPLICAS,
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


def _fmt_shape(shape: Shape | TupleShape) -> str:
    return str(shape)


def _fmt_groups(groups: ReplicaGroups) -> str:
    return str(groups)


def _instruction_line(instr: Instruction) -> str:
    op = instr.opcode
    if op == "parameter":
        args = str(instr.index)
    elif op == "constant":
        args = ", ".join(_fmt_number(v, instr.shape.etype) for v in instr.value)
    else:
        args = ", ".join(f"%{o.id}" for o in instr.operands)
    line = f"%{instr.id} = {_fmt_shape(instr.shape)} {op}({args})"
    if op == "parameter" and instr.replica_equal:
        line += " {replica_equal}"
    attrs: list[str] = []
    if op == "iota":
        attrs.append(f"dim={instr.dims[0]}")
    elif op == "compare":
        attrs.append(f"direction={instr.direction}")
    elif op == "broadcast":
        attrs.append(f"dims=[{','.join(str(d) for d in instr.dims)}]")
    elif op == "reduce":
        attrs.append(f"dims=[{','.join(str(d) for d in instr.dims)}]")
        attrs.append(f"kind={instr.kind}")
    elif op == "pad":
        attrs.append(f"low=[{','.join(str(d) for d in instr.pad_low)}]")
        attrs.append(f"high=[{','.join(str(d) for d in instr.pad_high)}]")
    elif op == "dynamic-slice":
        attrs.append(f"sizes=[{','.join(str(d) for d in instr.slice_sizes)}]")
    elif op == "get-tuple-element":
        attrs.append(f"index={instr.index}")
    elif op == "all-reduce":
        attrs.append(f"kind={instr.kind}")
        attrs.append(f"groups={_fmt_groups(instr.groups)}")
    elif op == "while":
        attrs.append(f"cond={instr.cond.name}")
        attrs.append(f"body={instr.body.name}")
    elif op == "conditional":
        attrs.append(f"true={instr.branches[0].name}")
        attrs.append(f"false={instr.branches[1].name}")
    elif op == "fusion":
        attrs.append(f"kind={instr.kind}")
        attrs.append(f"calls={instr.fused.name}")
        if instr.spec is not None:
            attrs.append(f'spec="{instr.spec}"')
        if instr.groups is not None:
            attrs.append(f"groups={_fmt_groups(instr.groups)}")
    if attrs:
        line += ", " + ", ".join(attrs)
    return line


def _computation_text(comp: Computation, entry: bool) -> list[str]:
    params = comp.parameters
    sig_parts = []
    for p in params:
        part = f"%{p.id}: {_fmt_shape(p.shape)}"
        if p.replica_equal:
            part += " {replica_equal}"
        sig_parts.append(part)
    head = "entry computation" if entry else "computation"
    lines = [f"  {head} {comp.name} ({', '.join(sig_parts)}) -> {_fmt_shape(comp.root.shape)} {{"]
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

_PUNCT = "{}()[]=,:"


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "word", "ref", "number", "string", or a punct char
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r})"


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise ParseError("unterminated string", line, start_col)
            toks.append(_Token("string", text[i + 1 : j], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c == "%":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._"):
                j += 1
            if j == i + 1:
                raise ParseError("empty instruction id after '%'", line, start_col)
            toks.append(_Token("ref", text[i + 1 : j], line, start_col))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            toks.append(_Token(c, c, line, start_col))
            i += 1
            col += 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == "i")):
            j = i + 1 if c == "-" else i
            if text[j] == "i":  # -inf
                if text[j : j + 3] != "inf":
                    raise ParseError("bad number", line, start_col)
                j += 3
            else:
                while j < n and (text[j].isdigit() or text[j] in ".eE+-"):
                    # '+'/'-' only valid right after an exponent marker
                    if text[j] in "+-" and text[j - 1] not in "eE":
                        break
                    j += 1
            toks.append(_Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_.-"):
                # keep hyphenated opcodes as a single word, but '->' is punctuation
                if text[j] == "-" and j + 1 < n and text[j + 1] == ">":
                    break
                j += 1
            toks.append(_Token("word", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            toks.append(_Token("->", "->", line, start_col))
            i += 2
            col += 2
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    toks.append(_Token("eof", "", line, col))
    return toks


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #

_ETYPES = {e.value: e for e in ElementType}

# Fixed operand arity per opcode; None means variadic (checked elsewhere).
_ARITY: dict[str, int | None] = {
    "parameter": 0,
    "constant": 0,
    "iota": 0,
    "replica-id": 0,
    "rng": 0,
    "add": 2,
    "sub": 2,
    "mul": 2,
    "div": 2,
    "max": 2,
    "min": 2,
    "power": 2,
    "sqrt": 1,
    "compare": 2,
    "select": 3,
    "convert": 1,
    "broadcast": 1,
    "dot": 2,
    "reduce": 2,
    "reshape": 1,
    "bitcast": 1,
    "pad": 2,
    "dynamic-slice": None,
    "tuple": None,
    "get-tuple-element": 1,
    "all-reduce": None,
    "while": 1,
    "conditional": 3,
    "fusion": None,
    "outfeed": 1,
}


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def expect_number(self, conv=int):
        """The next token as a number; lexed numbers such as `1e` or `1.5` in
        an integer position are parse errors."""
        t = self.expect("number")
        try:
            return conv(t.text)
        except ValueError:
            self.error(f"bad number {t.text!r}", t)

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            self.error(f"expected {kind!r}, found {t.text!r}")
        return self.next()

    def expect_word(self, word: str) -> _Token:
        t = self.expect("word")
        if t.text != word:
            self.error(f"expected {word!r}, found {t.text!r}", t)
        return t

    def accept(self, kind: str) -> bool:
        if self.peek().kind == kind:
            self.next()
            return True
        return False

    # -- shapes --------------------------------------------------------------

    def parse_shape(self) -> Shape | TupleShape:
        if self.peek().kind == "(":
            self.next()
            elems = []
            if self.peek().kind != ")":
                while True:
                    s = self.parse_shape()
                    if isinstance(s, TupleShape):
                        self.error("nested tuple shapes are not supported")
                    elems.append(s)
                    if not self.accept(","):
                        break
            self.expect(")")
            return TupleShape(tuple(elems))
        t = self.expect("word")
        if t.text not in _ETYPES:
            self.error(f"unknown element type {t.text!r}", t)
        etype = _ETYPES[t.text]
        self.expect("[")
        dims = []
        if self.peek().kind != "]":
            while True:
                dims.append(self.expect_number())
                if not self.accept(","):
                    break
        self.expect("]")
        return Shape(tuple(dims), etype)

    def parse_int_list(self) -> tuple[int, ...]:
        self.expect("[")
        out = []
        if self.peek().kind != "]":
            while True:
                out.append(self.expect_number())
                if not self.accept(","):
                    break
        self.expect("]")
        return tuple(out)

    def parse_groups(self) -> ReplicaGroups:
        if self.peek().kind == "word" and self.peek().text == "all":
            self.next()
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
        if t.kind == "word" and t.text in ("true", "false"):
            self.next()
            return 1.0 if t.text == "true" else 0.0
        if t.kind == "word" and t.text in ("inf", "nan"):
            self.next()
            return float(t.text)
        return self.expect_number(float)

    # -- module --------------------------------------------------------------

    def parse_module(self) -> Module:
        self.expect_word("module")
        self.expect_word("N")
        self.expect("=")
        n = self.expect_number()
        self.expect_word("topology")
        self.expect("=")
        t = self.expect("word")
        if t.text == "ring":
            topo = Topology("ring", 1, n)
        elif t.text == "mesh":
            topo = Topology("mesh", *self._parse_grid())
        else:
            self.error(f"unknown topology {t.text!r}", t)
        tile = DEFAULT_TILE
        if self.peek().kind == "word" and self.peek().text == "tile":
            self.next()
            self.expect("=")
            tile = self._parse_grid()
        self.expect("{")

        comps: dict[str, Computation] = {}
        entry: Computation | None = None
        while self.peek().kind == "word":
            is_entry = False
            if self.peek().text == "entry":
                self.next()
                is_entry = True
            comp = self.parse_computation(comps)
            if comp.name in comps:
                self.error(f"duplicate computation name {comp.name!r}")
            comps[comp.name] = comp
            if is_entry:
                entry = comp
        self.expect("}")
        self.expect("eof")
        if entry is None:
            if not comps:
                self.error("module has no computations")
            entry = list(comps.values())[-1]
        return Module(entry=entry, replica_count=n, topology=topo, tile=tile)

    def _parse_grid(self) -> tuple[int, int]:
        """`RxC`, which lexes either as one word ('8x128') or as a number
        followed by a word ('32' 'x64')."""
        t = self.next()
        if t.kind not in ("word", "number"):
            self.error("expected RxC dimensions", t)
        text = t.text + (self.expect("word").text if t.kind == "number" else "")
        r, x, c = text.partition("x")
        if not (x and r.isdigit() and c.isdigit()):
            self.error(f"bad dimensions {text!r}", t)
        return int(r), int(c)

    def parse_computation(self, known: dict[str, Computation]) -> Computation:
        self.expect_word("computation")
        name = self.expect("word").text
        self.expect("(")
        # Signature parameters are redundant with the body's parameter
        # instructions; shapes are taken from the body lines.
        depth = 0
        while self.peek().kind != ")" or depth > 0:
            t = self.next()
            if t.kind == "(":
                depth += 1
            elif t.kind == ")":
                depth -= 1
            elif t.kind == "eof":
                self.error("unterminated computation signature", t)
        self.expect(")")
        self.expect("->")
        self.parse_shape()  # result shape, validated against the root below
        self.expect("{")

        by_id: dict[str, Instruction] = {}
        instructions: list[Instruction] = []
        root: Instruction | None = None
        while True:
            t = self.peek()
            if t.kind == "word" and t.text == "return":
                self.next()
                self.expect("(")
                r = self.expect("ref")
                if r.text not in by_id:
                    self.error(f"return references undefined id %{r.text}", r)
                root = by_id[r.text]
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
        id_tok = self.expect("ref")
        self.expect("=")
        shape = self.parse_shape()
        op_tok = self.expect("word")
        opcode = op_tok.text
        if opcode not in OPCODES:
            self.error(f"unknown opcode {opcode!r}", op_tok)
        self.expect("(")

        operands: list[Instruction] = []
        attrs: dict = {}
        if opcode == "parameter":
            attrs["index"] = self.expect_number()
        elif opcode == "constant":
            values = []
            if self.peek().kind != ")":
                while True:
                    if not isinstance(shape, Shape):
                        self.error("constant must have an array shape")
                    values.append(self.parse_number_literal(shape.etype))
                    if not self.accept(","):
                        break
            attrs["value"] = tuple(values)
        else:
            if self.peek().kind != ")":
                while True:
                    r = self.expect("ref")
                    if r.text not in by_id:
                        self.error(f"reference to undefined id %{r.text}", r)
                    operands.append(by_id[r.text])
                    if not self.accept(","):
                        break
        self.expect(")")

        want = _ARITY[opcode]
        if want is not None and len(operands) != want:
            self.error(
                f"{opcode} expects {want} operand(s), got {len(operands)}", op_tok
            )
        if opcode in ("all-reduce", "fusion") and not operands:
            self.error(f"{opcode} expects at least 1 operand", op_tok)
        if opcode == "dynamic-slice" and not operands:
            self.error("dynamic-slice expects at least 1 operand", op_tok)

        if self.peek().kind == "{":  # parameter annotation block
            self.next()
            w = self.expect("word")
            if w.text != "replica_equal":
                self.error(f"unknown annotation {w.text!r}", w)
            self.expect("}")
            attrs["replica_equal"] = True

        while self.accept(","):
            key = self.expect("word").text
            self.expect("=")
            if key == "dim":
                attrs["dims"] = (self.expect_number(),)
            elif key == "dims":
                attrs["dims"] = self.parse_int_list()
            elif key == "kind":
                attrs["kind"] = self.expect("word").text
            elif key == "direction":
                attrs["direction"] = self.expect("word").text
            elif key == "groups":
                attrs["groups"] = self.parse_groups()
            elif key == "low":
                attrs["pad_low"] = self.parse_int_list()
            elif key == "high":
                attrs["pad_high"] = self.parse_int_list()
            elif key == "sizes":
                attrs["slice_sizes"] = self.parse_int_list()
            elif key == "index":
                attrs["index"] = self.expect_number()
            elif key == "cond":
                attrs["cond"] = self._comp_ref(comps)
            elif key == "body":
                attrs["body"] = self._comp_ref(comps)
            elif key == "true":
                attrs.setdefault("_branches", [None, None])[0] = self._comp_ref(comps)
            elif key == "false":
                attrs.setdefault("_branches", [None, None])[1] = self._comp_ref(comps)
            elif key == "calls":
                attrs["fused"] = self._comp_ref(comps)
            elif key == "spec":
                attrs["spec"] = parse_spec_string(self.expect("string").text)
            else:
                self.error(f"unknown attribute {key!r}")

        branches = attrs.pop("_branches", None)
        if branches is not None:
            if branches[0] is None or branches[1] is None:
                self.error("conditional requires both true= and false= computations", op_tok)
            attrs["branches"] = tuple(branches)
        if attrs.get("spec") is not None and attrs.get("groups") is not None:
            # the spec string is group-free; the fusion's groups attribute
            # carries the collective's scope
            attrs["spec"] = dataclasses.replace(attrs["spec"], group=attrs["groups"])
        return Instruction(
            id=id_tok.text, opcode=opcode, shape=shape, operands=tuple(operands), **attrs
        )

    def _comp_ref(self, comps: dict[str, Computation]) -> Computation:
        t = self.expect("word")
        if t.text not in comps:
            self.error(f"reference to undefined computation {t.text!r}", t)
        return comps[t.text]


def parse_module(text: str) -> Module:
    """Parse module text. Raises ParseError with line/column on malformed input."""
    return _Parser(text).parse_module()
