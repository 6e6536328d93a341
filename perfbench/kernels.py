"""Ring kernel section: median microseconds per element operation.

Operands are seeded random elements at p=5, N=8 (m = 1, 2, 3) and random
series at truncation 10.  Each figure is the median over REPEATS passes of
the mean time per op over OPERANDS operands; it is reported next to the
per-op table of the ROADMAP baseline as a ratio, for reading, not as a gate.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import delta_forge as df
import delta_forge.selftest

OPERANDS = 64
REPEATS = 9

# per-op baseline, microseconds (ROADMAP "Baseline", single timeit runs)
BASELINE_US = {
    "rings.witt_m1.mul_us": 0.78, "rings.witt_m1.delta_us": 0.68,
    "rings.witt_m1.invert_us": 2.3,
    "rings.witt_m2.mul_us": 1.08, "rings.witt_m2.delta_us": 9.4,
    "rings.witt_m2.invert_us": 25.0,
    "rings.witt_m3.mul_us": 8.9, "rings.witt_m3.delta_us": 68.0,
    "rings.witt_m3.invert_us": 85.0,
    "rings.series_t10.mul_us": 30.0, "rings.series_t10.invert_us": 23.0,
}


def _time_per_op(fn, args):
    best = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for a in args:
            fn(*a)
        best.append((perf_counter() - t0) / len(args))
    return statistics.median(best) * 1e6


def _cases(ring, rng, ops):
    xs = [(ring.random_unit(rng),) for _ in range(OPERANDS)]
    pairs = [(ring.random_element(rng), ring.random_element(rng)) for _ in range(OPERANDS)]
    table = {
        "mul": (lambda x, y: x * y, pairs),
        "delta": (lambda x: x.delta(), xs),
        "frobenius": (lambda x: x.frobenius(), xs),
        "invert": (lambda x: x.invert(), xs),
    }
    return [(op,) + table[op] for op in ops]


def ring_kernels(seed):
    """name -> (microseconds per op, "us") for the 13 ring kernels."""
    rng = random.Random(f"{seed}:kernels")
    out = {}
    for m in (1, 2, 3):
        modulus = df.selftest.find_irreducible(5, m)
        ring = df.WittRing(df.RingParams(p=5, prec=8, m=m, modulus=modulus))
        ops = ("mul", "delta", "invert") if m == 1 else ("mul", "delta", "frobenius", "invert")
        for op, fn, args in _cases(ring, rng, ops):
            out[f"rings.witt_m{m}.{op}_us"] = (_time_per_op(fn, args), "us")
    for op, fn, args in _cases(df.SeriesRing(10), rng, ("mul", "invert")):
        out[f"rings.series_t10.{op}_us"] = (_time_per_op(fn, args), "us")
    return out


def baseline_report(kernels):
    """Lines comparing each kernel with the ROADMAP baseline."""
    lines = [f"{'ring kernel':28s} {'now_us':>9s} {'baseline_us':>11s} {'ratio':>6s}"]
    for name, (value, _) in kernels.items():
        base = BASELINE_US.get(name)
        if base is None:
            lines.append(f"{name:28s} {value:9.2f} {'-':>11s} {'-':>6s}")
        else:
            lines.append(f"{name:28s} {value:9.2f} {base:11.2f} {value / base:6.2f}")
    return lines
