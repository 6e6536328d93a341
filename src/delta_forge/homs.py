"""Delta-homomorphism families on the additive and multiplicative groups.

Covers the additive families sum lambda_i phi^i(a) (resp. lambda_i
delta^i(a) on the series backend), the log-like series map ``psi`` from
units to the additive group, the induced multiplicative-to-additive
families, the twisted cocycles mu(1 - a^s), a seeded black-box
homomorphism checker, and ``first_counterexample``, the seeded search
that it shares with the cocycle checks.
"""

from __future__ import annotations

import functools
import random

from .errors import BackendError, InputError, NonUnitError
from .rings import ARITHMETIC, Record, _vp, dot
from .serialize import elem_to_json

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative-to-additive"
TWISTED = "twisted"


def _trim(lam):
    """lam without its trailing zeros at the ring's full precision.  A zero
    known only mod p^k (t^k) is an unknown multiple of p^k, and stays."""
    lam = list(lam)
    while lam and lam[-1].is_zero() and lam[-1].prec >= lam[-1].ring.one.prec:
        lam.pop()
    return tuple(lam)


class GaHomParams(Record):
    """Coefficients lambda_0..lambda_r of an additive-group family."""

    __slots__ = ("lam",)

    def __init__(self, lam):
        super().__init__(_trim(lam))

    @property
    def order(self) -> int:
        return max(len(self.lam) - 1, 0)


class GmHomParams(Record):
    """Coefficients lambda_0..lambda_r applied to psi (resp. the
    logarithmic derivative) of a unit."""

    __slots__ = ("lam",)

    def __init__(self, lam):
        super().__init__(_trim(lam))

    @property
    def order(self) -> int:
        # one delta inside psi / dlog, plus one per extra composition
        return len(self.lam)


class TwistedCocycleParams(Record):
    __slots__ = ("mu", "s")

    def __init__(self, mu, s):
        if s == 0:
            raise InputError("twist exponent s must be nonzero")
        super().__init__(mu, s)


def _past_target(p: int, n: int, vu: int, target: int) -> bool:
    """Whether n - 1 - log_p(n) + n*vu >= target, tested in integers as
    p^(n - 1 + n*vu - target) >= n.  The left side never decreases in n
    and bounds the valuation of every term from n on."""
    k = n - 1 + n * vu - target
    return k >= 0 and p**k >= n


@functools.lru_cache
def _psi_coefficients(p: int, target: int) -> tuple:
    """(n, n - 1 - v_p(n), c_n) for every n a unit (val(u) = 0) needs at
    precision target, with c_n = (-1)^(n-1) p^(n-1-v_p(n)) (n/p^v_p(n))^-1
    mod p^target.  Trailing entries with n - 1 - v_p(n) >= target, whose
    c_n is 0, are left out."""
    pk = p**target
    out = []
    n = 1
    while not _past_target(p, n, 0, target):
        e = _vp(n, p, n)
        c = p ** (n - 1 - e) * pow(n // p**e, -1, pk)
        out.append((n, n - 1 - e, (c if n % 2 else -c) % pk))
        n += 1
    while out and out[-1][1] >= target:
        out.pop()
    return tuple(out)


@functools.lru_cache
def _horner(p: int, target: int, vu: int) -> tuple:
    """The coefficients c_n of ``_psi_coefficients(p, target)`` that a u
    of valuation vu needs, from the last n down: those n before the first
    one ``_past_target`` at vu."""
    return tuple(c for n, _, c in reversed(_psi_coefficients(p, target))
                 if not _past_target(p, n, vu, target))


def psi(a):
    """Series delta-homomorphism from units to the additive group:

        sum_{n>=1} (-1)^(n-1) (p^(n-1)/n) (delta a / a^p)^n

    evaluated in u = delta a / a^p by Horner's rule over the signed
    coefficients, in the coefficient domain ``ring.values`` (int residues
    on W(Z/p^N)).  Term n has valuation at least
    n - 1 - log_p(n) + n*val(u), which never decreases in n, so the
    polynomial stops before the first n where that bound reaches the
    working precision: no later term adds anything.  The coefficients it
    runs over are a table cached per (p, precision, val(u)), so the loop
    tests nothing.  The result carries one digit less than the input.
    """
    ring = a.ring
    if ring.kind != ARITHMETIC:
        raise BackendError("psi is only defined on the arithmetic backend")
    if not a.is_unit():
        raise NonUnitError(a)
    p = ring.p
    u = a.delta() * (a**p).invert()
    target = u.prec
    dom = ring.values(target)
    x, red = dom.from_elem(u), dom.reduce
    acc = dom.from_elem(ring.zero)
    for c in _horner(p, target, u.valuation()):
        acc = red((acc + c) * x)
    return dom.to_elem(acc)


def _additive(lam, a):
    """sum lam_i phi^i(a), or sum lam_i delta^i(a) on the series backend,
    for a nonempty lam."""
    arithmetic = a.ring.kind == ARITHMETIC
    xs = [a]
    for _ in lam[1:]:
        xs.append(xs[-1].frobenius() if arithmetic else xs[-1].delta())
    return dot(lam, xs)


def ga_hom(params: GaHomParams, a):
    """Additive family: sum lambda_i phi^i(a), or sum lambda_i delta^i(a)
    on the series backend."""
    if not params.lam:
        return a.ring.zero
    return _additive(params.lam, a)


def gm_hom(params: GmHomParams, a):
    """Multiplicative-to-additive family built on psi (arithmetic) or on
    the logarithmic derivative delta(a)/a (series backend)."""
    ring = a.ring
    if not a.is_unit():
        raise NonUnitError(a)
    if not params.lam:
        return ring.zero
    base = psi(a) if ring.kind == ARITHMETIC else a.delta() * a.invert()
    return _additive(params.lam, base)


def twisted_cocycle(params: TwistedCocycleParams, a):
    """mu * (1 - a^s); satisfies f(a1 a2) = f(a1) + a1^s f(a2)."""
    if not a.is_unit():
        raise NonUnitError(a)
    one = a.ring.one
    return params.mu * (one - a**params.s)


class Report(Record):
    """Outcome of a sampled law check.  A subclass names four slots:
    passed, samples, one of its own (``law`` or ``precision``) and
    counterexample."""

    __slots__ = ()

    def to_dict(self):
        passed, samples, own, counterexample = self._values()
        out = {"pass": passed, "samples": samples, self.__slots__[2]: own}
        if counterexample is not None:
            out["counterexample"] = counterexample
        return out


class HomReport(Report):
    __slots__ = ("passed", "samples", "law", "counterexample")

    def __init__(self, passed: bool, samples: int, law: str, counterexample: dict | None = None):
        super().__init__(passed, samples, law, counterexample)


def first_counterexample(samples: int, seed, trial):
    """The seeded search that every sampled law check runs.

    Calls ``trial(random.Random(f"{seed}:{idx}"))`` for idx = 0, 1, ...,
    at most ``samples`` times, and stops at the first counterexample.  A
    trial returns (info, counterexample or None).  Each sample draws from
    its own stream, derived from (seed, idx) alone, so a run is
    deterministic and no sample depends on another.  Returns (samples
    run, info of the last trial, counterexample or None).
    """
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    for idx in range(samples):
        info, bad = trial(random.Random(f"{seed}:{idx}"))
        if bad is not None:
            break
    return idx + 1, info, bad


def check_hom(f, law: str, ring, samples: int = 1000, seed: int = 0,
              s: int | None = None) -> HomReport:
    """Sampled check of a homomorphism law for a black-box evaluator:
    f(a1 + a2) = f(a1) + f(a2) (additive), f(a1 a2) = f(a1) + f(a2)
    (multiplicative-to-additive) or f(a1 a2) = f(a1) + a1^s f(a2)
    (twisted), on pairs of elements (units for the last two) drawn by
    ``first_counterexample``.  Equality is tested at the minimum
    precision of the two sides.
    """
    if law == TWISTED and s is None:
        raise InputError("twisted law requires the exponent s")
    if law not in (ADDITIVE, MULTIPLICATIVE, TWISTED):
        raise InputError(f"unknown law {law!r}")
    draw = ring.random_element if law == ADDITIVE else ring.random_unit

    def trial(rng):
        a1 = draw(rng)
        a2 = draw(rng)
        lhs = f(a1 + a2 if law == ADDITIVE else a1 * a2)
        f1, f2 = f(a1), f(a2)
        rhs = f1 + (a1**s * f2 if law == TWISTED else f2)
        bad = None if lhs == rhs else {"a1": elem_to_json(a1), "a2": elem_to_json(a2),
                                       "lhs": elem_to_json(lhs), "rhs": elem_to_json(rhs)}
        return None, bad

    count, _, bad = first_counterexample(samples, seed, trial)
    return HomReport(bad is None, count, law, bad)
