"""The compiler's outputs match the golden digests byte for byte: decisions,
manifest, the three programs and the demoted and batched main program of
every case in `compile_digests.py`."""

import json

from compile_digests import DIGESTS, compute


def test_compiler_matches_golden_digests():
    golden = json.loads(DIGESTS.read_text())
    got = compute()
    assert got.keys() == golden.keys()
    changed = sorted(k for k in golden if got[k] != golden[k])
    assert not changed, f"{len(changed)} of {len(golden)} digests changed: {changed[:8]}"
