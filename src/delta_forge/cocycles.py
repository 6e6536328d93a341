"""Classical delta-cocycles on GL_n and their verification.

Builds coboundaries g v g^{-1} - v, the classified cocycles
omega(det g) 1_n + g v g^{-1} - v, and the logarithmic derivative
(delta g) g^{-1} on the series backend.  Black-box maps are wrapped as
DeltaMapHandle with a declared order; the handle truncates outputs to
input precision minus the order, which keeps every downstream equality
honest.  ``recover`` inverts the classification constructively: on an
elementary matrix 1 + e_kl, where the determinant part contributes
nothing, f gives entries of v directly, and seeded SL_n samples verify
the v read off.
"""

from __future__ import annotations

import random

from .errors import BackendError, DeltaForgeError, InconsistentSystemError, InputError, PrecisionExhausted
from .homs import GmHomParams, Report, first_counterexample, gm_hom
from .matrices import SquareMatrix, random_constant_gl, random_gl, random_sl
from .rings import KOLCHIN, Record

TORUS = "torus"
SL = "sl_n"
BOREL = "borel"
CONJUGATED_TORUS = "conjugated-torus"
# random SL_n points ``recover`` samples beside the elementary matrices
RECOVER_EXTRA_SAMPLES = 2


class ClassifiedCocycle(Record):
    """Parameters (omega, v) of a classified cocycle."""

    __slots__ = ("omega", "v")

    def __init__(self, omega: GmHomParams, v: SquareMatrix):
        super().__init__(omega, v)

    @property
    def order(self) -> int:
        return self.omega.order


class DeltaMapHandle(Record):
    """Black-box matrix map of a declared order.

    Calling the handle evaluates the wrapped map and truncates every
    entry to (input precision - order); precision below one digit raises.
    """

    __slots__ = ("evaluator", "order")

    def __init__(self, evaluator, order: int):
        super().__init__(evaluator, order)

    def __call__(self, g: SquareMatrix) -> SquareMatrix:
        out_prec = g.prec - self.order
        if out_prec < 1:
            raise PrecisionExhausted(
                f"order-{self.order} map needs input precision > {self.order}"
            )
        return self.evaluator(g).reduce_prec(out_prec)


class CocycleReport(Report):
    __slots__ = ("passed", "samples", "precision", "counterexample")

    def __init__(self, passed: bool, samples: int, precision: int,
                 counterexample: dict | None = None):
        super().__init__(passed, samples, precision, counterexample)


def coboundary(v: SquareMatrix, g: SquareMatrix) -> SquareMatrix:
    """g v g^{-1} - v; vanishes iff v is scalar plus central noise."""
    return g * v * g.invert() - v


def classified_eval(c: ClassifiedCocycle, g: SquareMatrix) -> SquareMatrix:
    """omega(det g) 1_n + g v g^{-1} - v.

    The coboundary runs first: inverting g keeps its determinant on g, so
    the ``g.det()`` after it costs no second elimination.  omega(det g) is
    added onto the coboundary's diagonal by ``add_scalar``, in its values,
    at the lesser of the two precisions."""
    cob = coboundary(c.v, g)
    return cob.add_scalar(gm_hom(c.omega, g.det()))


def classified_handle(c: ClassifiedCocycle) -> DeltaMapHandle:
    return DeltaMapHandle(lambda g: classified_eval(c, g), c.order)


def coboundary_handle(v: SquareMatrix) -> DeltaMapHandle:
    return DeltaMapHandle(lambda g: coboundary(v, g), 0)


def log_derivative(g: SquareMatrix) -> SquareMatrix:
    """Kolchin logarithmic derivative (delta g) g^{-1}."""
    if g.ring.kind != KOLCHIN:
        raise BackendError("log_derivative lives on the series backend")
    # each value's delta is a value one truncation lower; none below 1 (raises)
    dom = g.ring.values(g.prec - 1)
    return SquareMatrix._of(dom, [[v.delta() for v in r] for r in g.vals]) * g.invert()


def log_derivative_handle() -> DeltaMapHandle:
    return DeltaMapHandle(log_derivative, 1)


def cocycle_check(f: DeltaMapHandle, ring, n: int, samples: int = 1000,
                  seed: int = 0) -> CocycleReport:
    """Check f(g1 g2) = f(g1) + g1 f(g2) g1^{-1} on GL_n pairs drawn by
    ``first_counterexample``.  The report's precision is the lesser of the
    two sides' at the last sample run."""

    def trial(rng):
        g1 = random_gl(ring, n, rng)
        g2 = random_gl(ring, n, rng)
        lhs = f(g1 * g2)
        rhs = f(g1) + g1 * f(g2) * g1.invert()
        bad = None if lhs == rhs else {"g1": g1.to_json(), "g2": g2.to_json(),
                                       "lhs": lhs.to_json(), "rhs": rhs.to_json()}
        return min(lhs.prec, rhs.prec), bad

    count, precision, bad = first_counterexample(samples, seed, trial)
    return CocycleReport(bad is None, count, precision, bad)


def recover(f: DeltaMapHandle, ring, n: int, seed: int = 0):
    """Recover (v, omega) from a claimed classified cocycle.

    On SL_n, where omega(det) = omega(1) = 0, f(g) g = g v - v g.  On the
    elementary 1 + e_kl that is T_kl = f(1 + e_kl)(1 + e_kl) = e_kl v - v e_kl,
    with entries T_kl[i][j] = [i = k] v[l][j] - [l = j] v[i][k].  So v,
    unique up to scalars and normalized by v[0][0] = 0, reads off as
    v[a][b] = T_ba[b][b] for a != b and v[a][a] = T_0a[0][a] for a >= 1.
    Every elementary matrix and RECOVER_EXTRA_SAMPLES seeded SL_n points
    then check f(g) g = g v - v g, else InconsistentSystemError.  v has
    the least precision of f(g) g over all these points.  Returns
    (v, omega_eval) with omega_eval(a) reading a diagonal entry of
    f(diag(a,1,...,1)) minus the recovered coboundary.
    """
    if n < 2:
        raise InputError("recover needs n >= 2")
    pairs = [(k, l) for k in range(n) for l in range(n) if k != l]
    points = [SquareMatrix(ring, [[int(i == j or (i, j) == kl) for j in range(n)]
                                  for i in range(n)]) for kl in pairs]
    rng = random.Random(f"{seed}:recover")
    points += [random_sl(ring, n, rng) for _ in range(RECOVER_EXTRA_SAMPLES)]
    targets = [f(g) * g for g in points]

    t = dict(zip(pairs, targets))
    v = SquareMatrix(ring, [[t[b, a][b, b] if a != b else t[0, a][0, a] if a else ring.zero
                             for b in range(n)] for a in range(n)])
    v = v.reduce_prec(min(x.prec for x in targets))
    for i, (g, target) in enumerate(zip(points, targets)):
        if not target == g * v - v * g:
            raise InconsistentSystemError(
                f"f(g) g != g v - v g at sample point {i}: f is not a classified cocycle")

    def omega_eval(a):
        d = SquareMatrix.diagonal(ring, [a] + [ring.one] * (n - 1))
        return (f(d) - coboundary(v, d))[0, 0]

    return v, omega_eval


_BLOCK_MEMO_SIZE = 4


class HBlockComponents(Record):
    """Block reading of a handle on the subgroup [[a, b], [0, 1_{n-1}]].

    alpha, beta, gamma and epsilon of one point share one handle
    evaluation: the last few values are kept, oldest evicted first, keyed
    by the identity of a and of each entry of b.  An entry holds those
    (immutable) objects, so their ids cannot be reused while it lives; a
    b list mutated in place, or equal values in new objects, miss.
    """

    __slots__ = ("handle", "ring", "n", "_memo")

    def __init__(self, handle: DeltaMapHandle, ring, n: int):
        super().__init__(handle, ring, n, {})

    def _eval(self, a, b):
        b = tuple(b)
        key = (id(a), *map(id, b))
        hit = self._memo.get(key)
        if hit is not None and hit[0] is a and all(x is y for x, y in zip(hit[1], b)):
            return hit[2]
        value = self.handle(SquareMatrix.h_block(self.ring, a, b))
        if len(self._memo) >= _BLOCK_MEMO_SIZE:
            del self._memo[next(iter(self._memo))]
        self._memo[key] = (a, b, value)
        return value

    def alpha(self, a, b):
        return self._eval(a, b)[0, 0]

    def beta(self, a, b):
        fv = self._eval(a, b)
        return [fv[0, j] for j in range(1, self.n)]

    def gamma(self, a, b):
        fv = self._eval(a, b)
        return [fv[j, 0] for j in range(1, self.n)]

    def epsilon(self, a, b):
        return self._eval(a, b).block(1, self.n, 1, self.n)


def h_block_components(f: DeltaMapHandle, ring, n: int) -> HBlockComponents:
    if n < 2:
        raise InputError("block components need n >= 2")
    return HBlockComponents(f, ring, n)


def _random_torus_point(ring, n, rng):
    return SquareMatrix.diagonal(ring, [ring.random_unit(rng) for _ in range(n)])


def _random_borel_point(ring, n, rng):
    rows = []
    for i in range(n):
        row = [ring.zero] * i
        row.append(ring.random_unit(rng))
        row.extend(ring.random_element(rng) for _ in range(n - 1 - i))
        rows.append(row)
    return SquareMatrix(ring, rows)


def _is_diagonal(m):
    return not any(v for i, r in enumerate(m.vals) for j, v in enumerate(r) if i != j)


def _is_upper(m):
    return not any(v for i, r in enumerate(m.vals) for v in r[:i])


def coherence_check(f: DeltaMapHandle, ring, n: int, subgroup: str,
                    samples: int = 100, seed: int = 0,
                    u: SquareMatrix | None = None) -> CocycleReport:
    """Check f maps the named constant-defined subgroup into its Lie
    algebra: diagonal (torus), trace zero (sl_n), upper triangular
    (borel), or u^{-1} (diagonal) u for a conjugated torus, on points
    drawn by ``first_counterexample``.  The subgroup and u are checked
    before any point is drawn.  The report's precision is that of f at
    the last point."""
    if subgroup == CONJUGATED_TORUS:
        if u is None:
            raise InputError("conjugated-torus needs the conjugating matrix u")
        if not all(e.is_constant() for r in u.rows for e in r):
            raise InputError("conjugating matrix must have constant entries")
        uinv = u.invert()
        # a torus point's draws, conjugated: the point knows its det and inverse
        draw = lambda ring, n, rng: SquareMatrix.conjugated_diagonal(  # noqa: E731
            u, [ring.random_unit(rng) for _ in range(n)])
        holds = lambda val: _is_diagonal(u * val * uinv)  # noqa: E731
    elif subgroup in (TORUS, SL, BOREL):
        # built per call: the samplers are looked up in this module's globals
        # when the check runs, where a tracer may have replaced them
        draw, holds = {TORUS: (_random_torus_point, _is_diagonal),
                       SL: (random_sl, lambda val: val.trace().is_zero()),
                       BOREL: (_random_borel_point, _is_upper)}[subgroup]
    else:
        raise InputError(f"unknown subgroup {subgroup!r}")

    def trial(rng):
        g = draw(ring, n, rng)
        val = f(g)
        bad = None if holds(val) else {"subgroup": subgroup, "g": g.to_json(),
                                       "value": val.to_json()}
        return val.prec, bad

    count, precision, bad = first_counterexample(samples, seed, trial)
    return CocycleReport(bad is None, count, precision, bad)
