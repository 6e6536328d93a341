"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

from harness import (
    DEFAULT_SEED,
    REFERENCE_S,
    SRC,
    canonical_digest,
    recorded_digests,
    run_pass,
    scaled,
    tail_percentile,
)

sys.path.insert(0, SRC)

import delta_forge as df  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize("n, expect", [
    (5, (100.0, 5)),       # too few samples for any grid point: the maximum
    (20, (50.0, 10)),      # p50 leaves exactly 10 beyond
    (39, (50.0, 20)),      # p75 would leave only 9
    (40, (75.0, 30)),
    (100, (90.0, 90)),     # p95 would leave only 5
    (200, (95.0, 190)),
    (1000, (99.0, 990)),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expect):
    samples = list(range(n, 0, -1))  # order must not matter
    q, value = tail_percentile(samples)
    assert (q, value) == expect
    assert sum(1 for s in samples if s > value) >= 10 or q == 100.0


def test_tail_percentile_respects_the_workload_cap():
    assert tail_percentile(range(1, 1001), cap=75.0) == (75.0, 750)
    assert tail_percentile(range(1, 30), cap=75.0) == (50.0, 15)


# -- reference scaling -------------------------------------------------------


def test_scaled_times_follow_the_reference_and_ignore_one_outlier():
    ref = REFERENCE_S
    assert scaled([0.1, 0.2], [ref, ref, ref]) == pytest.approx([0.1, 0.2])
    # the machine runs at half speed: references and ops take twice as long
    assert scaled([0.2, 0.4], [2 * ref] * 3) == pytest.approx([0.1, 0.2])
    # one disturbed reference among steady ones leaves the op unscaled
    refs = [ref, ref, 5 * ref, ref, ref]
    assert scaled([0.1] * 4, refs) == pytest.approx([0.1] * 4)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_merged_child_coverage():
    # root [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] runs past
    # the root's end; the first child has a grandchild [1.5, 2.5]
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 5.0, 0, 0),
        ("c", 8.0, 12.0, 0, 0),
        ("g", 1.5, 2.5, 1, 0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx([10 - 4 - 2, 2 - 1, 3, 4, 1])


def test_layer_metrics_from_a_synthetic_trace():
    tree = [
        ("matrices.random_gl", 0.0, 4.0, -1, 0),
        ("matrices.det", 0.5, 1.0, 0, 0),
        ("matrices.det", 1.5, 2.0, 0, 0),
        ("matrices.random_gl", 5.0, 6.0, -1, 1),
        ("matrices.det", 5.2, 5.4, 3, 1),
        ("matrices.det", 7.0, 8.0, -1, 1),  # not a sampling try
        ("jets.prolong", 9.0, 11.0, -1, 2),
    ]
    m = spans.layer_metrics(tree, {"jets.prolong.terms_out": 500})
    assert m["matrices.random_gl.calls"] == (2, "count")
    assert m["matrices.random_gl.self_s"][0] == pytest.approx(5.0 - 1.0 - 0.2)
    assert m["matrices.random_gl.tries_per_sample"][0] == pytest.approx(1.5)
    assert m["matrices.det.calls"] == (4, "count")
    assert m["jets.prolong.terms_per_s"][0] == pytest.approx(250.0)
    assert m["homs.psi.calls"] == (0, "count")
    assert m["homs.psi.us_per_call"] == (0.0, "us")


# -- digests and inputs ------------------------------------------------------


def _digests(name, seed):
    w = workloads.WORKLOADS[name]
    return run_pass(w, w.setup(seed), seed, seconds=0, min_ops=w.digest_ops).digests


def test_same_seed_gives_identical_digests():
    first = _digests("cocycle-witt", 5)
    assert "-" not in first
    assert first == _digests("cocycle-witt", 5)
    assert first != _digests("cocycle-witt", 6)


def test_recorded_digests_hold_at_the_default_seed():
    expected = recorded_digests("cocycle-witt", DEFAULT_SEED)
    assert expected is not None
    got = _digests("cocycle-witt", DEFAULT_SEED)
    assert got[:len(expected)] == expected


def _jet_inputs(seed):
    w = workloads.WORKLOADS["jet-prolong"]
    state = w.setup(seed)
    return [canonical_digest([str(op.__defaults__[0]), repr(op.__defaults__[1])])
            for op in w.ops(state, seed, 0)]


def test_another_seed_gives_other_inputs_of_the_same_shapes():
    a, b = _jet_inputs(1), _jet_inputs(2)
    assert a == _jet_inputs(1)
    assert len(a) == len(b) and all(x != y for x, y in zip(a, b))


# -- tracing -----------------------------------------------------------------


def test_every_wrapped_name_is_restored():
    before = {}
    for mod in spans._library_modules():
        for key, value in vars(mod).items():
            before[(mod.__name__, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    before[(mod.__name__, key, attr)] = member
    tracer = spans.Tracer()
    with tracer.installed(df):
        names = spans.wrapped_names()
        assert "delta_forge.homs.psi" in names
        assert "delta_forge.cli.psi" in names
        assert "delta_forge.matrices.SquareMatrix.invert" in names
        assert "delta_forge.cocycles.DeltaMapHandle.__call__" in names
        ring = workloads._witt_ring(5, 4)
        df.gm_hom(df.GmHomParams((ring.one,)), ring.from_int(2))
    assert spans.wrapped_names() == []
    for mod in spans._library_modules():
        for key, value in vars(mod).items():
            assert before.get((mod.__name__, key), value) is value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    assert before.get((mod.__name__, key, attr), member) is member
    # gm_hom reaches psi through the homs module globals
    psi = [s for s in tracer.spans if s[0] == "homs.psi"]
    assert len(psi) == 1 and tracer.spans[psi[0][3]][0] == "homs.gm_hom"


# -- the contract for a tree without the library -----------------------------


def test_run_fails_without_the_library(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cocycle-witt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
