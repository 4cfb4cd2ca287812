import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compiled_small_presets
from parse_errors import OUTCOMES
from parse_errors import inputs as corpus_inputs
from test_cli_fuzz import ODD_TOKENS, TOKEN, forced_shard_programs
from shardgraph.generators import MODELS, GenConfig, _chain, build_training_module, gen_module
from irtools import all_instructions, find, modules_equal
from shardgraph.ir import ring_topology
from shardgraph.textfmt import _SCAN, _TOKEN, ParseError, _parse_lines, _Parser, parse_module, print_module

MINI = """
module N=2 topology=ring {
  entry computation main (%c: f32[]) -> f32[512,512] {
    %c = f32[] constant(0.01)
    %p = f32[512,512] parameter(0) {replica_equal}
    %cb = f32[512,512] broadcast(%c), dims=[]
    %q = f32[512,512] mul(%p, %cb)
    return (%q)
  }
}
"""


def test_scalar_constant_literal():
    m = parse_module(MINI)
    c = find(m.entry, "c")
    assert c.opcode == "constant"
    assert c.shape.dims == ()
    assert c.value == (0.01,)


def test_parameter_annotation():
    m = parse_module(MINI)
    p = find(m.entry, "p")
    assert p.opcode == "parameter" and p.replica_equal
    assert p.shape.dims == (512, 512)


def test_arity_error_names_opcode():
    bad = """
module N=1 topology=ring {
  entry computation main () -> f32[] {
    %y = f32[] constant(1.0)
    %x = f32[] add(%y)
    return (%x)
  }
}
"""
    with pytest.raises(ParseError, match="add expects 2"):
        parse_module(bad)


def test_duplicate_id_rejected():
    bad = """
module N=1 topology=ring {
  entry computation main () -> f32[] {
    %x = f32[] constant(1.0)
    %x = f32[] constant(2.0)
    return (%x)
  }
}
"""
    with pytest.raises(ParseError, match="duplicate instruction id"):
        parse_module(bad)


def test_undefined_reference():
    bad = """
module N=1 topology=ring {
  entry computation main () -> f32[] {
    %x = f32[] sqrt(%nope)
    return (%x)
  }
}
"""
    with pytest.raises(ParseError, match="undefined id"):
        parse_module(bad)


def test_error_carries_line_and_column():
    try:
        parse_module("module N=1 topology=ring {\n  garbage\n}")
    except ParseError as e:
        assert e.line == 2
    else:
        raise AssertionError("expected a parse error")


def test_empty_module_prints_and_roundtrips():
    text = """
module N=1 topology=ring {
  entry computation main (%z: f32[]) -> f32[] {
    %z = f32[] parameter(0)
    return (%z)
  }
}
"""
    m = parse_module(text)
    assert modules_equal(m, parse_module(print_module(m)))


@pytest.mark.parametrize("model,kw", [
    ("mlp", dict(replicas=4, steps=3, layers=2, dim=8)),
    ("mlp", dict(replicas=4, steps=0, layers=1, dim=8)),  # no loop
    ("mlp", dict(replicas=4, steps=4, layers=1, dim=8, outfeed_every=2)),
    ("ncf-like", dict(replicas=4)),
])
def test_roundtrip_generated(model, kw):
    m = gen_module(model, **kw)
    text = print_module(m)
    m2 = parse_module(text)
    assert modules_equal(m, m2)
    # canonical form: printing the reparse is byte-identical
    assert print_module(m2) == text


def test_roundtrip_nested_and_collectives():
    cfg = GenConfig("t", _chain([108, 6], fourd={0: (3, 3, 12, 6)}), batch=2,
                    optimizer="adam", replicas=10, topology=ring_topology(10), steps=2)
    m = build_training_module(cfg)
    from shardgraph import profitability, transform

    decisions = profitability.plan(m, steps=2)
    for d in decisions:
        d.shard = True
    res = transform.apply(m, decisions, steps_hint=2)
    for mod in (res.main, res.shard_program, res.unshard_program):
        text = print_module(mod)
        again = parse_module(text)
        assert modules_equal(mod, again)
        assert print_module(again) == text


def test_roundtrip_preserves_collective_groups():
    # group-local fusions: the spec string is group-free, so the groups
    # attribute must be re-attached on parse or semantics silently widen
    from shardgraph import profitability, transform
    from shardgraph.ir import ALL_REPLICAS, Shape, mesh_topology
    from shardgraph.sharding import choose_spec

    topo = mesh_topology(2, 2)
    cfg = GenConfig("t", _chain([8, 8]), batch=2, optimizer="sgd", replicas=4,
                    topology=topo, steps=2)
    m = build_training_module(cfg)
    decisions = profitability.plan(m, steps=2)
    for d in decisions:
        d.shard = True
    res = transform.apply(m, decisions, steps_hint=2)
    again = parse_module(print_module(res.main))
    assert modules_equal(res.main, again)
    for ins in all_instructions(again):
        if ins.opcode == "fusion" and ins.kind in ("reduce_scatter", "all_gather"):
            assert not ins.spec.group.is_all
            assert ins.spec.group.groups == topo.row_groups().groups


def test_while_computations_printed_once():
    m = gen_module("mlp", replicas=2, steps=2, layers=1, dim=8)
    text = print_module(m)
    assert text.count("computation train_body") == 1
    assert text.count("computation train_cond") == 1


def test_comments_ignored():
    commented = MINI.replace(
        "%cb = f32[512,512] broadcast(%c), dims=[]",
        "# a comment line\n    %cb = f32[512,512] broadcast(%c), dims=[]  # trailing",
    )
    assert modules_equal(parse_module(MINI), parse_module(commented))


def test_non_default_tile_in_header():
    text = """
module N=2 topology=ring tile=4x64 {
  entry computation main (%z: f32[5,3]) -> f32[5,3] {
    %z = f32[5,3] parameter(0)
    return (%z)
  }
}
"""
    m = parse_module(text)
    assert m.tile == (4, 64)
    assert "tile=4x64" in print_module(m)
    assert modules_equal(m, parse_module(print_module(m)))


def test_roundtrip_random_analysis_modules():
    from randmod import random_module

    for seed in range(30):
        m = random_module(seed)
        text = print_module(m)
        again = parse_module(text)
        assert modules_equal(m, again), seed
        assert print_module(again) == text


def test_special_float_literals():
    text = """
module N=1 topology=ring {
  entry computation main () -> f32[3] {
    %x = f32[3] constant(inf, -inf, 1e-07)
    return (%x)
  }
}
"""
    m = parse_module(text)
    assert find(m.entry, "x").value[0] == float("inf")
    assert modules_equal(m, parse_module(print_module(m)))


MESH = """module N=4 topology=mesh 2x2 {
  entry computation main (%p: f32[4]) -> f32[4] {
    %p = f32[4] parameter(0)
    return (%p)
  }
}
"""


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


@pytest.mark.parametrize("old, new", [
    ("2x2 {", "2x² {"),  # superscript two: str.isdigit(), but int() rejects it
    ("2x2 {", "2x2 tile=8x² {"),
    ("N=4", "N=١"),  # Arabic-Indic one: int() reads it as 1
    ("%p:", "%pé:"),  # a letter: names are ASCII too
], ids=["mesh-superscript", "tile-superscript", "arabic-indic-digit", "letter-in-name"])
def test_non_ascii_outside_strings_and_comments_is_an_unexpected_character(old, new):
    text = MESH.replace(old, new, 1)
    offset = next(i for i, c in enumerate(text) if not c.isascii())
    with pytest.raises(ParseError, match=f"unexpected character '{text[offset]}'") as e:
        parse_module(text)
    assert (e.value.line, e.value.col) == _line_col(text, offset)


def test_non_ascii_in_comments_is_ignored():
    commented = MESH.replace(" {\n", " {  # ² ١ é\n", 1)
    assert modules_equal(parse_module(MESH), parse_module(commented))


@pytest.mark.parametrize("old, new, message, line, col", [
    ("N=4", "N=0", "replica_count must be >= 1", 1, 10),  # at N's number
    ("N=4", "N=3", "topology size 4 != replica_count 3", 1, 10),
    ("f32[4] parameter", "f32[-1] parameter", "negative dimension in shape", 3, 10),  # at the element type
    ("  entry computation main (%p: f32[4]) -> f32[4] {\n    %p = f32[4] parameter(0)\n    return (%p)\n  }\n",
     "", "module has no computations", 3, 1),  # at the end of the text
], ids=["zero-replicas", "topology-size", "negative-dim", "no-computations"])
def test_values_the_ir_rejects_are_parse_errors(old, new, message, line, col):
    with pytest.raises(ParseError, match=message) as e:
        parse_module(MESH.replace(old, new, 1))
    assert (e.value.line, e.value.col) == (line, col)


def _agrees(text: str) -> bool:
    """Whether the line path reads `text`. It must read only text the token
    parser accepts, as the same module, and must give back `text` when the
    module is printed; anything else, the token parser raises only
    ParseError on."""
    lines = _parse_lines(text)
    try:
        tokens = _Parser(text).parse_module()
    except ParseError:
        assert lines is None
        return False
    if lines is not None:
        assert modules_equal(lines, tokens)
        assert print_module(lines) == text
    return lines is not None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text())
def test_any_text_raises_nothing_but_parse_error(text):
    _agrees(text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(forced_shard_programs().items())),
    st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.sampled_from(["delete", "insert", "replace"]),
            st.one_of(st.sampled_from(ODD_TOKENS + ['"', "-i", "%", "²", "١", "é"]), st.text(max_size=4)),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_token_mutants_of_emitted_programs_raise_nothing_but_parse_error(program, edits):
    tokens = TOKEN.findall(program[1])
    for k, op, token in edits:
        k %= len(tokens)
        if op == "delete":
            del tokens[k]
        elif op == "insert":
            tokens.insert(k, token)
        else:
            tokens[k] = token
    _agrees("".join(tokens))


def test_line_edits_of_emitted_programs_agree_with_the_token_parser():
    """One token of one line replaced, by an odd token or by another token
    of the same program, the line's blanks kept: most edits leave text the
    line path must decide on, and some leave it valid."""
    read = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(sorted(forced_shard_programs().items())),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.one_of(st.sampled_from(ODD_TOKENS + ["²", "-0", "1.0"]), st.integers(0, 10**6)),
    )
    def edit(program, line, token, new):
        lines = program[1].split("\n")
        line %= len(lines)
        tokens = TOKEN.findall(lines[line])
        spots = [i for i, t in enumerate(tokens) if not t.isspace()]
        if spots:
            if isinstance(new, int):  # a token of the program
                pool = [t for t in TOKEN.findall(program[1]) if not t.isspace()]
                new = pool[new % len(pool)]
            tokens[spots[token % len(spots)]] = new
            lines[line] = "".join(tokens)
        read.append(_agrees("\n".join(lines)))

    edit()
    assert read.count(True) > 20 and read.count(False) > 100, (read.count(True), read.count(False))


def test_line_path_gives_up_on_every_rejected_corpus_text():
    """Over the golden parse corpus, whose outcomes the token parser set: the
    line path reads only accepted texts, and reads them as the token parser
    does."""
    golden = json.loads(OUTCOMES.read_text())
    read = 0
    for label, text in corpus_inputs():
        module = _parse_lines(text)
        if module is None:
            continue
        read += 1
        assert golden[label] == "accepted", label
        assert modules_equal(module, _Parser(text).parse_module()), label
        assert print_module(module) == text, label
    assert read >= 20


CONST = """module N=1 topology=ring {
  entry computation main () -> f32[2] {
    %c = f32[2] constant(1.0, 2.5)
    return (%c)
  }
}
"""
LOOP = print_module(gen_module("mlp", replicas=2, steps=2, layers=1, dim=8))
UNUSED = "  computation unused (%q: f32[4]) -> f32[4] {\n    %q = f32[4] parameter(0)\n    return (%q)\n  }\n"


@pytest.mark.parametrize("base, old, new, accepted", [
    # the token parser reads these, but the module prints as other text
    (MESH, "2x2 {", "2x2 tile=8x128 {", True),
    (MESH, "N=4", "N=04", True),
    (MESH, "f32[4] parameter", "f32[04] parameter", True),
    (MESH, "parameter(0)", "parameter(00)", True),
    (MESH, "(%p: f32[4])", "(%p: f32[4], %q: s32[])", True),  # the signature is not read
    (MESH, "-> f32[4] {", "-> s32[] {", True),  # nor compared with the root
    (MESH, "  entry computation", "  computation", True),  # the entry is then the last one
    (MESH, "    return (%p)", "    return (%p)  # root", True),
    (MESH, "{\n  entry", "{\n" + UNUSED + "  entry", True),  # not reached from the entry
    (CONST, "constant(1.0, 2.5)", "constant(1.0, 2.50)", True),
    (CONST, "constant(1.0, 2.5)", "constant(1, 2.5)", True),
    (LOOP, "  computation train_cond", "  entry computation train_cond", True),  # main is still the entry
    (LOOP, "direction=lt", "direction=lt, kind=add", True),  # an attribute compare does not print
    (LOOP, "broadcast(%constant), dims=[]", "broadcast(%constant)", True),  # dims unset: printed without it
    # and these it rejects
    (MESH, "2x2 {", "0x4 {", False),
    (MESH, "2x2 {", "2x2 tile=8x0 {", False),
    (MESH, "(%p: f32[4])", "(%p: f32[4]é)", False),
    (CONST, "-> f32[2] {\n    %c = f32[2] constant", "-> (f32[2]) {\n    %c = (f32[2]) constant", False),
    (CONST, "    return", "    %c = f32[2] constant(1.0, 2.5)\n    return", False),
], ids=[
    "default-tile", "leading-zero-N", "leading-zero-dim", "leading-zero-index", "other-signature",
    "other-result-shape", "no-entry-mark", "comment", "unreached-computation", "trailing-zero-literal",
    "integer-literal", "two-entry-marks", "unprinted-attribute", "missing-attribute",
    "zero-mesh-dim", "zero-tile-dim", "non-ascii-signature", "tuple-constant-with-values", "duplicate-id",
])
def test_line_path_leaves_other_text_to_the_token_parser(base, old, new, accepted):
    assert _parse_lines(base) is not None
    text = base.replace(old, new, 1)
    assert text != base
    assert _parse_lines(text) is None
    if accepted:
        parse_module(text)
    else:
        with pytest.raises(ParseError):
            parse_module(text)


@pytest.mark.parametrize("line", [
    "%b = f32[4] broadcast(%c)",
    "%q = f32[6] pad(%p, %c), low=[1]",
    "%io = s32[4] iota()",
    "%r = f32[] reduce(%p, %c), dims=[0]",
    "%ar = f32[4] all-reduce(%p), kind=add",
    "%cmp = pred[4] compare(%p, %p)",
], ids=["broadcast-dims", "pad-high", "iota-dim", "reduce-kind", "all-reduce-groups", "compare-direction"])
def test_an_unset_attribute_is_not_printed(line):
    """An attribute the text leaves out stays unset, and the printer leaves
    it out again instead of raising or printing `None`."""
    text = MESH.replace("    return", f"    %c = f32[] constant(0.0)\n    {line}\n    return")
    m = parse_module(text)
    assert print_module(m) == text
    assert modules_equal(parse_module(print_module(m)), m)


def test_printed_programs_take_the_line_path():
    """Every generator preset and every program a compile emits prints as
    text the line path reads, so a printer change that leaves that form
    fails here instead of falling back to the token parser unnoticed."""
    programs = [(model, gen_module(model)) for model in MODELS]
    for name, baseline, result, main in compiled_small_presets():
        programs += [(f"{name} baseline", baseline), (f"{name} main", main)]
        programs += [(f"{name} {p}", getattr(result, p)) for p in ("shard_program", "main", "unshard_program")]
    for name, m in programs:
        text = print_module(m)
        module = _parse_lines(text)
        assert module is not None, name
        assert modules_equal(module, m), name


# The tokenizer's patterns before their alternatives were reordered and their
# word and number loops unrolled, kept as the reference the new ones must match.
_REFERENCE_TOKEN = re.compile(
    r'"[^"]*"'
    r"|%[0-9A-Za-z_.]+"
    r"|[{}()\[\]=,:]|->"
    r"|-?[0-9](?:[0-9.eE]|(?<=[eE])[+-])*|-inf"
    r"|[A-Za-z_](?:[0-9A-Za-z_.]|-(?!>))*"
)
_REFERENCE_SCAN = re.compile(r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(" + _REFERENCE_TOKEN.pattern + r"|[\s\S]*)")
_LEXICAL_PIECES = [
    "# note -> 1e+5\n", "#", '"a b"', '"1e-3 ->"', '"', "->", "-", ">", "-inf", "-in", "inf", "1e+5", "2.5E-3",
    "1e", "e+", "1e+-2", "7.", ".5", "-0", "+1", "all-reduce", "get-tuple-element", "a-", "-a", "a->b", "x-1",
    "%x.1", "%", "%-", "{", "}", "(", ")", "[", "]", "=", ",", ":", " ", "\n", "\t", "\r", "²", "١", "é", "_",
]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.sampled_from(_LEXICAL_PIECES), st.text(max_size=3)), max_size=24).map("".join))
def test_tokenizer_matches_its_reference_patterns(text):
    toks = _SCAN.findall(text)
    assert toks == _REFERENCE_SCAN.findall(text)
    # `_tokenize` tells a lexical error by the last token not being a token
    assert [bool(_TOKEN.fullmatch(t)) for t in toks] == [bool(_REFERENCE_TOKEN.fullmatch(t)) for t in toks]


def test_deeply_nested_tuple_shapes_are_a_parse_error():
    text = "module N=1 topology=ring {\n  entry computation main () -> " + "(" * 5000
    with pytest.raises(ParseError, match="nested tuple shapes are not supported"):
        parse_module(text)


@pytest.mark.parametrize("old, new", [
    ("2x2 {", "0x4 {"),
    ("2x2 {", "2x2 tile=8x0 {"),
    ("2x2 {", "2x2 tile=0x0 {"),
    ("2x2 {", "2x2 tile=8x" + "1" * 5000 + " {"),  # more digits than int() converts
], ids=["zero-rows", "zero-tile-cols", "zero-tile", "5000-digits"])
def test_zero_or_unconvertible_grid_dimensions_are_a_parse_error(old, new):
    text = MESH.replace(old, new, 1)
    with pytest.raises(ParseError, match="bad dimensions") as e:
        parse_module(text)
    assert e.value.line == 1


@pytest.mark.parametrize("op, attr", [
    ("add(%a, %a)", "calls=f"),
    ("add(%a, %a)", "cond=f"),
    ("sqrt(%a)", "true=f"),
    ("fusion(%a), kind=standard", "body=f"),
])
def test_callee_attribute_belongs_to_its_caller(op, attr):
    # only `while`, `conditional` and `fusion` call computations
    text = f"""module N=1 topology=ring {{
  computation f () -> f32[] {{
    %c = f32[] constant(1)
    return (%c)
  }}
  entry computation main () -> f32[] {{
    %a = f32[] constant(1)
    %b = f32[] {op}, {attr}
    return (%b)
  }}
}}
"""
    key = attr.split("=")[0]
    with pytest.raises(ParseError, match=f"attribute '{key}' belongs to") as e:
        parse_module(text)
    assert (e.value.line, e.value.col) == (8, text.splitlines()[7].index(attr) + 1)


@pytest.mark.parametrize("bad, message", [
    ("f32[512,]", "expected 'number'"),
    ("f32[512,512", "expected ']'"),
    ("f32[512,-1]", "negative dimension"),
    ("f33[512,512]", "unknown element type"),
])
def test_a_shape_parsed_before_does_not_hide_a_later_error(bad, message):
    # shapes that parsed cleanly are remembered by their tokens; a run that
    # differs, even only after the first `]`, still parses token by token
    text = MINI.replace("%q = f32[512,512] mul", f"%q = {bad} mul")
    fresh = MINI.replace("f32[512,512]", "f32[4,4]").replace("%q = f32[4,4] mul", f"%q = {bad} mul")
    with pytest.raises(ParseError, match=message) as e:
        parse_module(text)
    with pytest.raises(ParseError, match=message) as f:
        parse_module(fresh)
    assert (e.value.line, e.value.col) == (f.value.line, f.value.col)
    m = parse_module(MINI)
    assert find(m.entry, "p").shape is find(m.entry, "q").shape
