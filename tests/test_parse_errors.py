"""`parse_module` accepts and rejects the golden corpus exactly as recorded:
the same message, line and column for every error."""

import json

from parse_errors import OUTCOMES, compute


def test_parse_outcomes_match_golden_corpus():
    golden = json.loads(OUTCOMES.read_text())
    got = compute()
    assert got.keys() == golden.keys()
    changed = sorted(k for k in golden if got[k] != golden[k])
    assert not changed, f"{len(changed)} of {len(golden)} outcomes changed: " + "; ".join(
        f"{k}: {golden[k]} -> {got[k]}" for k in changed[:8]
    )
