"""The simulator's results match the golden digests bit for bit. The
equivalence suite compares the simulator with itself; these digests catch a
numeric change that would move baseline and transformed runs alike."""

import json

from sim_digests import DIGESTS, compute


def test_simulator_matches_golden_digests():
    golden = json.loads(DIGESTS.read_text())
    got = compute()
    assert got.keys() == golden.keys()
    changed = sorted(k for k in golden if got[k] != golden[k])
    assert not changed, f"{len(changed)} of {len(golden)} digests changed: {changed[:8]}"
