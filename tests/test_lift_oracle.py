"""A seeded lift oracle for precision honesty in the ring and hom layers.

Each operation runs on inputs of mixed precision in a ring of precision
N, and again on random lifts of the same inputs in the ring with the same
parameters at precision N + 3.  A lift keeps every digit (series term) an
input claims and fills the rest at random: on W it adds p^k times a random
residue to a value known mod p^k, on Q[[t]] it adds terms from t^k up.
Every digit the first result claims must agree with the result on every
lift.  Inputs on which the first run raises a typed error are skipped.
A jet polynomial is lifted coefficient by coefficient, and results are
compared monomial by monomial, a missing monomial standing for zero.
"""

import random

import pytest

from delta_forge import (
    ClassifiedCocycle,
    GaHomParams,
    GmHomParams,
    JetPoint,
    JetPolynomial,
    SquareMatrix,
    TwistedCocycleParams,
    classified_eval,
    eval_jet,
    ga_hom,
    gm_hom,
    log_derivative,
    nabla,
    psi,
    twisted_cocycle,
)
from delta_forge.errors import DeltaForgeError
from delta_forge.rings import RingParams, SeriesElement, SeriesRing, WittRing, make_ring

CASES = 60
LIFTS = 4
RINGS = {
    "W(Z/3^5)": make_ring(3, 5),
    "W(Z/5^4)": make_ring(5, 4),
    "W(F_9)/3^4": make_ring(3, 4, 2),
    "Q[[t]]/t^6": SeriesRing(6),
}
HIGH = {
    name: SeriesRing(r.trunc + 3) if r.kind == "kolchin"
    else WittRing(RingParams(r.p, r.prec + 3, r.m, r.params.modulus))
    for name, r in RINGS.items()
}


def draw(ring, rng, unit=False, prec=None):
    """An element at prec, or at a random precision: zero one time in four,
    a unit if ``unit``."""
    prec = prec or rng.randint(1, ring.one.prec)
    if unit:
        return ring.random_unit(rng, prec)
    return ring.zero.at_prec(prec) if rng.random() < 0.25 else ring.random_element(rng, prec)


def draw_lam(ring, rng):
    return tuple(draw(ring, rng) for _ in range(rng.randint(1, 3)))


def draw_matrix(ring, rng, n=2):
    """A matrix at a random precision of at least 2 (a matrix has the
    least precision of its entries), with zero entries."""
    prec = rng.randint(2, ring.one.prec)
    return SquareMatrix(ring, [[draw(ring, rng, prec=prec) for _ in range(n)] for _ in range(n)])


def draw_square(ring, rng):
    """The argument tuple of a one-matrix operation: a matrix of size 1..3."""
    return (draw_matrix(ring, rng, rng.randint(1, 3)),)


def draw_jet(ring, rng):
    """A jet polynomial of up to four terms in x0, x1, x0', x1' of degree
    at most 2 each, at a random precision of at least 2."""
    prec = rng.randint(2, ring.one.prec)
    return JetPolynomial.from_terms(ring, [
        (tuple({(rng.randint(0, 1), rng.randint(0, 1)): rng.randint(1, 2)
                for _ in range(rng.randint(0, 2))}.items()), draw(ring, rng, prec=prec))
        for _ in range(rng.randint(1, 4))
    ])


def draw_components(ring, rng):
    """Values of x0, x0', x1 and x1' at mixed precision, as (j, i) nested
    tuples, which ``lift`` takes apart."""
    return tuple(tuple(draw(ring, rng) for _ in range(2)) for _ in range(2))


def lift(x, high, rng):
    """A random lift of x (an element, a matrix, a jet polynomial or a tuple
    of them) to high."""
    if isinstance(x, tuple):
        return tuple(lift(e, high, rng) for e in x)
    if isinstance(x, SquareMatrix):
        return SquareMatrix(high, [[lift(e, high, rng) for e in r] for r in x.rows])
    if isinstance(x, JetPolynomial):
        return JetPolynomial.from_terms(high, [(m, lift(c, high, rng)) for m, c in x.sorted_terms()])
    k, top = x.prec, high.one.prec
    if isinstance(x, SeriesElement):
        return high.element(list(x.coeffs) + [rng.randint(-3, 3) for _ in range(top - k)])
    pk = high.p**k
    return high.element([c + pk * rng.randrange(high.p ** (top - k)) for c in x.coeffs])


def pairs(low, high):
    """(low, high) entries or coefficients of two results of one operation."""
    if isinstance(low, SquareMatrix):
        return zip((e for r in low.rows for e in r), (e for r in high.rows for e in r))
    if isinstance(low, JetPoint):
        return zip(sum(low.components_, ()), sum(high.components_, ()))
    if isinstance(low, JetPolynomial):
        lo, hi = dict(low.sorted_terms()), dict(high.sorted_terms())
        zero_lo, zero_hi = low.ring.zero.at_prec(low.prec), high.ring.zero.at_prec(high.prec)
        return [(lo.get(m, zero_lo), hi.get(m, zero_hi)) for m in lo.keys() | hi.keys()]
    return [(low, high)]


def digits(x, k):
    """The first k digits (series terms) of the element x."""
    if isinstance(x, SeriesElement):
        return x.coeffs[:k]
    return tuple(c % x.ring.p**k for c in x.coeffs)


OPERATIONS = {
    # name: (operation, draw of its arguments)
    "delta": (lambda x: x.delta(), lambda r, rng: (draw(r, rng),)),
    "frobenius": (lambda x: x.frobenius(), lambda r, rng: (draw(r, rng),)),
    "mul": (lambda x, y: x * y, lambda r, rng: (draw(r, rng), draw(r, rng))),
    "invert": (lambda x: x.invert(), lambda r, rng: (draw(r, rng, unit=True),)),
    "psi": (psi, lambda r, rng: (draw(r, rng, unit=True),)),
    "ga_hom": (lambda lam, a: ga_hom(GaHomParams(lam), a),
               lambda r, rng: (draw_lam(r, rng), draw(r, rng))),
    "gm_hom": (lambda lam, a: gm_hom(GmHomParams(lam), a),
               lambda r, rng: (draw_lam(r, rng), draw(r, rng, unit=True))),
    "classified_eval": (
        lambda lam, v, g: classified_eval(ClassifiedCocycle(GmHomParams(lam), v), g),
        lambda r, rng: (draw_lam(r, rng), draw_matrix(r, rng), draw_matrix(r, rng))),
    "prolong": (lambda f: f.prolong(), lambda r, rng: (draw_jet(r, rng),)),
    "eval_jet": (lambda f, comps: eval_jet(f, JetPoint(comps, 1)),
                 lambda r, rng: (draw_jet(r, rng), draw_components(r, rng))),
    "det": (lambda g: g.det(), draw_square),
    "matrix_invert": (lambda g: g.invert(), draw_square),
    "twisted_s-2": (lambda mu, a: twisted_cocycle(TwistedCocycleParams(mu, -2), a),
                    lambda r, rng: (draw(r, rng), draw(r, rng, unit=True))),
    "twisted_s3": (lambda mu, a: twisted_cocycle(TwistedCocycleParams(mu, 3), a),
                   lambda r, rng: (draw(r, rng), draw(r, rng, unit=True))),
    "log_derivative": (log_derivative, draw_square),
    "nabla": (lambda values: nabla(values, 2),
              lambda r, rng: (tuple(draw(r, rng) for _ in range(rng.randint(1, 2))),)),
}
# the backend an operation is defined on, where it is defined on one only
BACKEND = {"psi": "arithmetic", "frobenius": "arithmetic", "log_derivative": "kolchin"}
CASES_RUN = [(op, ring) for op in OPERATIONS for ring in RINGS
             if BACKEND.get(op, RINGS[ring].kind) == RINGS[ring].kind]


def disagreements(op, ring_name, seed):
    """(checked cases, disagreeing lifts) for one operation on one ring."""
    run, draw_args = OPERATIONS[op]
    ring, high = RINGS[ring_name], HIGH[ring_name]
    rng = random.Random(f"lift:{op}:{ring_name}:{seed}")
    checked, bad = 0, []
    for _ in range(CASES):
        args = draw_args(ring, rng)
        try:
            low = run(*args)
        except DeltaForgeError:
            continue
        checked += 1
        for _ in range(LIFTS):
            high_args = lift(args, high, rng)
            for a, b in pairs(low, run(*high_args)):
                if b.prec < a.prec or digits(b, a.prec) != digits(a, a.prec):
                    bad.append((args, high_args, a, b))
    return checked, bad


@pytest.mark.parametrize("op, ring", CASES_RUN, ids=[f"{o}-{r}" for o, r in CASES_RUN])
def test_every_claimed_digit_survives_lifting(op, ring):
    checked, bad = disagreements(op, ring, seed=0)
    assert checked >= CASES // 4
    assert not bad, bad[0]
