"""Closed-loop run loop, statistics, digests, reference scaling of timings,
set-up probes and provenance."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DIGEST_FILE = os.path.join(BENCH_DIR, "digests.json")
DEFAULT_SEED = 31415
NPROC = len(os.sched_getaffinity(0))  # before run.py pins itself to one CPU

# op_tail_ms is read at the highest of these percentiles that leaves at
# least TAIL_MIN_BEYOND samples above it.  A coarse grid, capped per
# workload at the point its run length supports, keeps the choice fixed
# when a faster or slower program completes more or fewer ops, so two
# versions are compared at the same percentile.
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# On a shared machine the speed of a core can drift by tens of percent
# over seconds to minutes, for all code alike.  Each timed figure is
# therefore scaled by
# REFERENCE_S / (time of a fixed reference kernel measured next to it):
# it reads as the time the work takes where the kernel takes REFERENCE_S.
# The kernel never touches delta_forge, so no change to the library can
# move it.  Raw wall-clock figures are reported beside the scaled ones.
REFERENCE_S = 0.0015
REFERENCE_LOOPS = 250


class CheckFailed(Exception):
    """An op's identity or output check did not hold."""


def reference_kernel():
    """Fixed work in the style of the library: rationals, tuples, dicts,
    big-integer powers."""
    table = {}
    for i in range(REFERENCE_LOOPS):
        a = Fraction(i + 1, 2 * i + 7) * Fraction(3 * i + 2, i + 5) + Fraction(1, i + 3)
        table[(i, i % 13)] = (a.numerator % 97, tuple(range(i % 8)))
        table[i] = pow(3, 64 + i, (1 << 127) - 1)
    return table


def reference_time():
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def scaled(times, refs):
    """Scale ``times[i]`` by the reference timings taken around it.

    ``refs`` has one entry before each timed item and one after the last;
    item i uses the median of the references just before and after it and
    of their neighbours, so one disturbed reference cannot skew it.
    """
    out = []
    for i, t in enumerate(times):
        window = refs[max(i - 1, 0):i + 3]
        out.append(t * REFERENCE_S / statistics.median(window))
    return out


def quiet(tracer):
    """Context in which library calls are not recorded as spans."""
    return contextlib.nullcontext() if tracer is None else tracer.paused()


def tail_percentile(samples, cap=100.0):
    """(percentile, value): the highest grid percentile, at most ``cap``,
    with at least TAIL_MIN_BEYOND samples strictly above its nearest-rank
    position.

    Falls back to the maximum (percentile 100) when the run has too few
    samples for any grid point.
    """
    xs = sorted(samples)
    n = len(xs)
    for q in TAIL_GRID:
        if q > cap:
            continue
        rank = math.ceil(q / 100 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return q, xs[rank - 1]
    return 100.0, xs[-1]


def min_ops_for(cap):
    """Ops a run needs for ``cap`` to leave TAIL_MIN_BEYOND samples above it."""
    return math.ceil(TAIL_MIN_BEYOND * 100 / (100 - cap))


def canonical_digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fold(op_digests):
    return hashlib.sha256("".join(op_digests).encode()).hexdigest()


def recorded_digests(workload, seed):
    """Per-op digests recorded for ``seed``, or None if none were recorded."""
    if seed != DEFAULT_SEED or not os.path.exists(DIGEST_FILE):
        return None
    with open(DIGEST_FILE) as fh:
        data = json.load(fh)
    if data.get("seed") != seed:
        return None
    return data["workloads"].get(workload, {}).get("ops")


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (op index, reason)
    digests: list = field(default_factory=list)
    refs: list = field(default_factory=list)  # reference timings, see scaled()
    rounds: int = 0

    def record(self, seconds, digest, reason, expected=None):
        idx = self.ops
        if reason is None and expected is not None and idx < len(expected) \
                and expected[idx] != digest:
            reason = f"digest {digest} != recorded {expected[idx]}"
        self.latencies.append(seconds)
        self.digests.append(digest)
        if reason is not None:
            self.failures.append((idx, reason))

    @property
    def ops(self):
        return len(self.latencies)

    @property
    def busy_s(self):
        return sum(self.latencies)


def run_op(op):
    """Time one op alone; (seconds, digest of its output, failure or None)."""
    t0 = perf_counter()
    try:
        canon = op()
        reason = None
    except CheckFailed as exc:
        reason = f"check: {exc}"
    except Exception as exc:  # an op failure is counted, not fatal
        reason = f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    return dt, (canonical_digest(canon) if reason is None else "-"), reason


def next_op(gen, tracer=None):
    with quiet(tracer):  # input generation is not traced
        return next(gen, None)


def run_pass(workload, state, seed, *, seconds, min_ops=0, expected=None):
    """Run whole rounds of ops, one at a time (a closed loop, one caller).

    Stops at the first round boundary once ``seconds`` have passed and
    ``min_ops`` ops completed.  Every op is timed alone, checked, and its
    canonical output digested; a digest that disagrees with ``expected``
    counts as a failure.
    """
    res = PassResult()
    t_start = perf_counter()
    while not (res.rounds and perf_counter() - t_start >= seconds and res.ops >= min_ops):
        gen = workload.ops(state, seed, res.rounds)
        while (op := next_op(gen)) is not None:
            res.refs.append(reference_time())
            res.record(*run_op(op), expected)
        res.rounds += 1
    res.refs.append(reference_time())
    return res


def latency_figures(latencies, tail_cap):
    """ops_per_s, op_p50_ms, op_tail_ms and the tail percentile used."""
    q, tail = tail_percentile(latencies, tail_cap)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "tail_percentile": q,
    }


# -- set-up probes -----------------------------------------------------------

_PROBE = r"""
import json, sys, time
src, bench, name, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
t0 = time.perf_counter()
sys.path.insert(0, src)
import delta_forge
t1 = time.perf_counter()
sys.path.insert(0, bench)
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[name].setup(seed)
t3 = time.perf_counter()
print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))
"""


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "DELTA_FORGE_SEED", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = SRC
    return env


def probe_setup(name, seed, repeats):
    """Seconds of ``import delta_forge`` plus the workload's set-up, each
    measured in a fresh interpreter: (median scaled, median raw).  One
    unmeasured warm-up comes first (it may compile bytecode)."""
    times, refs = [], []
    for i in range(repeats + 1):
        if i:
            refs.append(reference_time())
        out = subprocess.run(
            [sys.executable, "-c", _PROBE, SRC, BENCH_DIR, name, str(seed)],
            capture_output=True, text=True, env=child_env(), timeout=120,
            cwd=ROOT,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        if i:
            times.append(json.loads(out.stdout)["setup_s"])
    refs.append(reference_time())
    return statistics.median(scaled(times, refs)), statistics.median(times)


# -- provenance --------------------------------------------------------------


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed):
    return {
        "seed": seed,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }
