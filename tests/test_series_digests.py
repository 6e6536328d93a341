"""The first recorded cocycle-series ops of the benchmark give their recorded
digests: Kolchin's cocycle, the sampled checks and the matrix products on
Q[[t]]/t^10 keep their outputs byte for byte."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

from harness import DEFAULT_SEED, recorded_digests, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_cocycle_series_digests_hold_at_the_default_seed():
    w = WORKLOADS["cocycle-series"]
    expected = recorded_digests("cocycle-series", DEFAULT_SEED)
    assert expected is not None and len(expected) >= w.digest_ops
    res = run_pass(w, w.setup(DEFAULT_SEED), DEFAULT_SEED, seconds=0, min_ops=w.digest_ops)
    assert res.failures == []
    assert res.digests[:w.digest_ops] == expected[:w.digest_ops]
