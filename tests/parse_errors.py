"""Golden parse outcomes: for each input text, the `ParseError` message,
line and column that `parse_module` raises, or "accepted".

    PYTHONPATH=src:tests python3 tests/parse_errors.py

rewrites tests/data/parse_errors.json from the current sources; record only
on a commit whose parser is known good. The inputs are every text of the CLI
fuzz corpus (`test_cli_fuzz.texts`: random modules and their token mutants),
every truncation of a forced-shard main program, and hand-written cases for
each tokenizer error and for the positions after tabs, comments and
multi-line strings.
"""

from __future__ import annotations

import json
from pathlib import Path

from shardgraph.textfmt import ParseError, parse_module
from test_cli_fuzz import forced_shard_programs, texts

OUTCOMES = Path(__file__).parent / "data" / "parse_errors.json"

BASE = """module N=2 topology=ring {
  entry computation main (%p: f32[4]) -> f32[4] {
    %p = f32[4] parameter(0)
    %c = f32[] constant(1.5)
    %b = f32[4] broadcast(%c), dims=[]
    %s = f32[4] add(%p, %b)
    return (%s)
  }
}
"""
HEAD = "module N=1 topology=ring {\n  entry computation main () -> f32[] {\n"
TAIL = "    return (%x)\n  }\n}\n"


def _body(*lines: str) -> str:
    return HEAD + "".join(f"    {line}\n" for line in lines) + TAIL


HAND = {
    # the four tokenizer errors
    "tokenizer/unterminated string": BASE.replace("dims=[]", 'dims=[], spec="[4] slice0/2'),
    "tokenizer/unterminated string at eof": 'module N=1 "abc',
    "tokenizer/empty id": BASE.replace("%s = ", "% = "),
    "tokenizer/empty id at eof": "module %",
    "tokenizer/-in": _body("%x = f32[] constant(-in)"),
    "tokenizer/-ix": _body("%x = f32[] constant(-ix)"),
    "tokenizer/-i at eof": "module N=-i",
    "tokenizer/unexpected @": BASE.replace("add(", "add@("),
    "tokenizer/unexpected lone minus": _body("%x = f32[] constant(- 1)"),
    "tokenizer/unexpected minus at eof": "module -",
    "tokenizer/unexpected $ after a comment": "# fine $ here\n  $",
    "tokenizer/form feed": "module\x0cN=1",
    "tokenizer/after tabs and CR": "module\tN=1\r topology=ring { @",
    "tokenizer/error wins over an earlier parse error": "garbage {\n}\n!",
    # positions
    "position/eof after a trailing comment": "module N=1 topology=ring { # trailing",
    "position/eof after trailing blanks": "module N=1 topology=ring {\n\t \r\n  ",
    "position/after a multi-line string": (
        'module N=1 topology=ring {\n  entry computation main ("a\nb") -> f32[] {\n'
        "    %z = f32[] parameter(0)\n    return (%q)\n  }\n}\n"
    ),
    "position/same line after a multi-line string": 'module N=1 topology=ring {\n  entry computation main ("a\nbc") => f32[]',
    "position/parse error after a multi-line string": 'module N=1 topology=ring {\n  entry computation main ("a\nbc") = f32[]',
    "position/comments between tokens": "module # one\n N=1 # two\n topology=ring # three\n { } }",
    # parser errors and accepted literals
    "parse/empty text": "",
    "parse/whitespace only": "  \n\t",
    "parse/string where a number goes": 'module N="abc"',
    "parse/ref where a word goes": "module %N",
    "parse/bad number 1e": "module N=1e topology=ring {",
    "parse/float replica count": "module N=1.5",
    "parse/-inf replica count": "module N=-inf",
    "parse/unknown topology": "module N=1 topology=torus {",
    "parse/bad mesh 2y2": "module N=4 topology=mesh 2y2 {",
    "parse/bad mesh 2x": "module N=4 topology=mesh 2x {",
    "parse/bad mesh x2": "module N=4 topology=mesh x2 {",
    "parse/mesh without dims": "module N=4 topology=mesh {",
    "parse/bad tile": "module N=1 topology=ring tile=8x {",
    "parse/tile as one word": BASE.replace("ring {", "ring tile=x8 {"),
    "parse/duplicate computation": BASE.replace("entry computation", "computation").replace(
        "  }\n}", "  }\n  computation main () -> f32[] {\n    %q = f32[] constant(0)\n    return (%q)\n  }\n}"
    ),
    "parse/unterminated signature": "module N=1 topology=ring {\n  entry computation main (%p: (f32[4]",
    "parse/nested tuple shape": _body("%x = ((f32[]), s32[]) parameter(0)"),
    "parse/unknown element type": _body("%x = f33[] constant(1)"),
    "parse/unknown opcode": _body("%x = f32[] frob()"),
    "parse/arity": _body("%y = f32[] constant(1)", "%x = f32[] add(%y)"),
    "parse/all-reduce without operands": _body("%x = f32[] all-reduce(), kind=add, groups=all"),
    "parse/dynamic-slice without operands": _body("%x = f32[] dynamic-slice(), sizes=[]"),
    "parse/unknown annotation": _body("%x = f32[] parameter(0) {shared}"),
    "parse/unknown attribute": _body("%x = f32[] constant(1), colour=red"),
    "parse/conditional without false": "module N=1 topology=ring {\n  computation br (%q: f32[]) -> f32[] {\n"
    "    %q = f32[] parameter(0)\n    return (%q)\n  }\n  entry computation main () -> f32[] {\n"
    "    %p = pred[] constant(true)\n    %x = f32[] conditional(%p, %p, %p), true=br\n" + TAIL,
    "parse/undefined computation": _body("%x = f32[] constant(1), cond=nope"),
    "parse/undefined operand": _body("%x = f32[] sqrt(%nope)"),
    "parse/return undefined": HEAD + "    %y = f32[] constant(1)\n" + TAIL,
    "parse/duplicate id": _body("%x = f32[] constant(1)", "%x = f32[] constant(2)"),
    "parse/constant with a tuple shape": _body("%x = (f32[]) constant(1)"),
    "parse/literals": _body("%x = f32[7] constant(true, false, inf, nan, -inf, 1e-07, 2.5E+3)"),
    "parse/-infinity": _body("%x = f32[] constant(-infinity)"),
    "parse/1e+-5": _body("%x = f32[] constant(1e+-5)"),
    "parse/empty groups": _body("%y = f32[] constant(1)", "%x = f32[] all-reduce(%y), kind=add, groups={}"),
    "parse/ragged groups": _body("%y = f32[] constant(1)", "%x = f32[] all-reduce(%y), kind=add, groups={{0},{1,2}}"),
    "parse/trailing brace": BASE + "}\n",
    "parse/hyphen before arrow": "module N=1 topology=ring {\n  entry computation main ()->f32[] {\n"
    "    %x-y = f32[] constant(1)\n" + TAIL,
}


def inputs():
    for label, text in texts():
        yield f"fuzz/{label}", text
    program = forced_shard_programs()["main"]
    for k in range(len(program) + 1):
        yield f"truncated/{k}", program[:k]
    for label, text in HAND.items():
        yield f"hand/{label}", text


def outcome(text: str):
    try:
        parse_module(text)
    except ParseError as e:
        return [str(e).split(": ", 1)[1], e.line, e.col]
    return "accepted"


def compute() -> dict:
    return {label: outcome(text) for label, text in inputs()}


if __name__ == "__main__":
    OUTCOMES.parent.mkdir(exist_ok=True)
    rows = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(compute().items()))
    OUTCOMES.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {OUTCOMES}")
