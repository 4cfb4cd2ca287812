"""Error-contract property test: random modules and token-level mutations of
their text, fed to every module-reading subcommand, end in exit 0, 1 or 2
and never in an uncaught exception. The seeds from `randmod.FORM_SEEDS` on
add loops whose state is one array and loop states that enter as a tuple
entry parameter, which `compare` and `transform` refuse in one line."""

import contextlib
import io
import itertools
import re

import numpy as np
import pytest

import randmod
from randmod import random_module
from shardgraph import profitability, transform
from shardgraph.cli import main
from shardgraph.generators import gen_module
from shardgraph.ir import TupleShape, mesh_topology
from shardgraph.textfmt import print_module

SUBCOMMANDS = {
    "analyze": ["--profit"],
    "transform": ["--out-dir", "{dir}"],
    "simulate": ["--seed", "3"],
    "cost": [],
    "compare": ["--seed", "3"],
}
TOKEN = re.compile(r"%?[\w.\-]+|\s+|.", re.S)
ODD_TOKENS = ["0", "-1", "7", "1e", "99999", "f32[]", "s32", "pred", "{", "}", ",", "=", "%x", "all"]
FORM_SEEDS = range(randmod.FORM_SEEDS, randmod.FORM_SEEDS + 16)


def mutate(text: str, rng) -> str:
    """One to three token edits: delete, duplicate, swap with the next
    token, or replace with another token of the text or an odd one."""
    tokens = TOKEN.findall(text)
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(0, len(tokens)))
        op = int(rng.integers(0, 4))
        if op == 0:
            del tokens[k]
        elif op == 1:
            tokens.insert(k, tokens[k])
        elif op == 2 and k + 1 < len(tokens):
            tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
        else:
            pool = ODD_TOKENS if rng.random() < 0.5 else tokens
            tokens[k] = pool[int(rng.integers(0, len(pool)))]
    return "".join(tokens)


def exit_code(argv) -> int:
    """The subcommand's exit code; any other exception propagates."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as e:  # argparse
            return e.code


def texts(seeds=range(24), mutants=4):
    rng = np.random.default_rng(7)
    for seed in seeds:
        text = print_module(random_module(seed))
        yield f"randmod {seed}", text
        for k in range(mutants):
            yield f"randmod {seed} mutant {k}", mutate(text, rng)


def forced_shard_programs() -> dict[str, str]:
    """The main, shard and unshard programs of a forced-shard mlp on a 2x2
    mesh: spec strings, replica groups, fusions and a while loop."""
    m = gen_module("mlp", topology=mesh_topology(2, 2), steps=2, layers=1, dim=8)
    decisions = profitability.plan(m, steps=2)
    for d in decisions:
        d.shard = True
    res = transform.apply(m, decisions, steps_hint=2)
    return {"main": print_module(res.main), "shard": print_module(res.shard_program),
            "unshard": print_module(res.unshard_program)}


def spec_texts(mutants=32):
    rng = np.random.default_rng(11)
    for name, text in forced_shard_programs().items():
        yield f"forced-shard {name}", text
        for k in range(mutants):
            yield f"forced-shard {name} mutant {k}", mutate(text, rng)


def test_no_subcommand_ends_in_a_traceback(tmp_path):
    path = tmp_path / "m.ir"
    codes = {}
    accepted_mutants = 0
    code_of = {}
    for label, text in itertools.chain(texts(), texts(FORM_SEEDS)):
        path.write_text(text)
        for cmd, extra in SUBCOMMANDS.items():
            argv = [cmd, str(path)] + [a.format(dir=tmp_path / "out") for a in extra]
            try:
                code = exit_code(argv)
            except Exception as e:
                pytest.fail(f"{cmd} on {label} raised {type(e).__name__}: {e}\n--- module\n{text}")
            assert code in (0, 1, 2), (cmd, label, code)
            codes[code] = codes.get(code, 0) + 1
            accepted_mutants += code == 0 and "mutant" in label
            code_of[cmd, label] = code
    # the mix must exercise accepted modules, mutants among them, and
    # rejected ones
    assert codes.get(0, 0) > 100 and codes.get(2, 0) > 100 and accepted_mutants > 20, (codes, accepted_mutants)
    # each form is drawn, and refused by the two subcommands that rewrite
    reached = {"one-array loop state": 0, "tuple entry parameter": 0}
    for seed in FORM_SEEDS:
        m = random_module(seed)
        loop = m.training_loop()
        one_array = loop is not None and not isinstance(loop.shape, TupleShape)
        tuple_param = any(isinstance(p.shape, TupleShape) for p in m.entry.parameters)
        reached["one-array loop state"] += one_array
        reached["tuple entry parameter"] += tuple_param
        if one_array or tuple_param:
            assert code_of["compare", f"randmod {seed}"] == code_of["transform", f"randmod {seed}"] == 2, seed
    assert min(reached.values()) >= 3, reached


def test_spec_bearing_programs_end_in_no_traceback(tmp_path):
    """The same contract on emitted programs, whose spec strings and replica
    groups the random modules do not have."""
    path = tmp_path / "m.ir"
    codes = {}
    accepted_mutants = 0
    for label, text in spec_texts():
        path.write_text(text)
        for cmd, extra in SUBCOMMANDS.items():
            argv = [cmd, str(path)] + [a.format(dir=tmp_path / "out") for a in extra]
            try:
                code = exit_code(argv)
            except Exception as e:
                pytest.fail(f"{cmd} on {label} raised {type(e).__name__}: {e}\n--- module\n{text}")
            assert code in (0, 1, 2), (cmd, label, code)
            assert code == 0 or "mutant" in label, (cmd, label, code)
            codes[code] = codes.get(code, 0) + 1
            accepted_mutants += code == 0 and "mutant" in label
    assert codes.get(2, 0) > 200 and accepted_mutants > 40, (codes, accepted_mutants)
