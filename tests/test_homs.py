import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_forge import (
    ClassifiedCocycle,
    GaHomParams,
    GmHomParams,
    SquareMatrix,
    classified_eval,
    TwistedCocycleParams,
    check_hom,
    ga_hom,
    gm_hom,
    psi,
    twisted_cocycle,
)
from delta_forge.errors import BackendError, InputError, NonUnitError
from delta_forge.homs import _past_target, _psi_coefficients
from delta_forge.rings import SeriesRing, make_ring


def psi_series_oracle(a, terms=60):
    """Independent brute-force summation of the defining series."""
    ring = a.ring
    p = ring.p
    u = a.delta() * (a**p).invert()
    acc = ring.from_int(0, prec=u.prec)
    for n in range(1, terms + 1):
        e = 0
        nn = n
        while nn % p == 0:
            nn //= p
            e += 1
        if n - 1 - e >= u.prec:
            continue
        coef = ring.from_int(p ** (n - 1 - e)) * ring.from_int(nn).invert()
        if n % 2 == 0:
            coef = -coef
        acc = acc + coef * u**n
    return acc


class TestPsi:
    def test_one(self):
        assert psi(make_ring(3, 6).from_int(1)).is_zero()

    def test_teichmueller_units(self):
        ring = make_ring(5, 6)
        for a in range(1, 5):
            assert psi(ring.teichmueller(a)).is_zero()

    def test_matches_series_oracle(self):
        terms = 60
        cases = []
        for p in (3, 5):
            ring = make_ring(p, 6)
            rng = random.Random(f"oracle:{p}")
            cases += [ring.random_unit(rng) for _ in range(25)]
        for p, prec, m in ((7, 5, 1), (11, 4, 1), (3, 6, 2), (5, 4, 2), (7, 4, 2),
                           (3, 5, 3), (5, 4, 3)):
            ring = make_ring(p, prec, m)
            rng = random.Random(f"oracle:{p}:{prec}:{m}")
            for _ in range(6):
                low = rng.randrange(3, prec + 1)  # at or below the ring's precision
                r = ring.teichmueller(ring.random_unit(rng)).at_prec(low)
                k = rng.randrange(2, low)
                one_plus = ring.one.at_prec(low) + p**k * ring.random_element(rng, low)
                # a random unit, a Teichmueller unit (u = 0), and one with v(u) >= 1
                cases += [ring.random_unit(rng, low), r, r * one_plus]
        seen = set()
        for a in cases:
            p = a.ring.p
            u = a.delta() * (a**p).invert()
            vu = u.valuation()
            seen.add(min(vu, 1) if vu < u.prec else "u=0")
            got, want = psi(a), psi_series_oracle(a, terms)
            assert got == want and got.prec == want.prec == a.prec - 1
            kept = [n for n, b, _ in _psi_coefficients(p, u.prec) if b + n * vu < u.prec]
            assert max(kept, default=0) < terms
        assert seen == {0, 1, "u=0"}

    def test_large_prime_returns(self, deadline):
        for p in (1000000007, 1000003):
            ring = make_ring(p, 4)
            with deadline(1):
                value = psi(ring.from_int(5))
            assert value.prec == 3
        assert value.coeffs == (449088409007311824,)

    def test_additivity_specific(self):
        ring = make_ring(3, 6)
        a, b = ring.from_int(4), ring.from_int(7)
        assert psi(a * b) == psi(a) + psi(b)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitError):
            psi(make_ring(3, 6).from_int(3))

    def test_series_backend_rejected(self):
        with pytest.raises(BackendError):
            psi(SeriesRing(5).one)

    def test_precision(self):
        ring = make_ring(3, 6)
        assert psi(ring.from_int(2)).prec == 5


# the largest precision the property below draws, per prime
PSI_N = {3: 6, 5: 5, 7: 4}


@lru_cache
def psi_ring(p, m):
    return make_ring(p, PSI_N[p], m)


PSI_KINDS = ("random", "teichmueller", "near-teichmueller")


def psi_unit(ring, prec, kind, rng):
    """(a, kind) for a unit a of ``ring`` at ``prec`` of the given kind:
    random, Teichmueller (u = 0), or a Teichmueller unit times 1 + p^k x,
    k >= 2 (v(u) >= 1), which falls back to Teichmueller below prec 3."""
    if kind == "random":
        return ring.random_unit(rng, prec), kind
    r = ring.teichmueller(ring.random_unit(rng)).at_prec(prec)
    if kind == "teichmueller" or prec < 3:
        return r, "teichmueller"
    k = rng.randrange(2, prec)
    return r * (ring.one.at_prec(prec) + ring.p**k * ring.random_element(rng, prec)), kind


@st.composite
def psi_inputs(draw):
    """A unit of W(F_{p^m}) at a precision in [2, N], of any ``PSI_KINDS``."""
    p = draw(st.sampled_from(sorted(PSI_N)))
    ring = psi_ring(p, draw(st.sampled_from((1, 2, 3))))
    prec = draw(st.integers(2, ring.prec))
    kind = draw(st.sampled_from(PSI_KINDS))
    return psi_unit(ring, prec, kind, random.Random(draw(st.integers(0, 2**32))))


@settings(max_examples=150)
@given(psi_inputs())
def test_psi_matches_series_oracle(case):
    a, kind = case
    u = a.delta() * (a**a.ring.p).invert()
    if kind == "teichmueller":
        assert u.is_zero()
    elif kind == "near-teichmueller":
        assert u.valuation() >= 1
    got, want = psi(a), psi_series_oracle(a)
    assert got == want and got.prec == want.prec == a.prec - 1


def psi_element_horner(a):
    """psi by Horner's rule in ring elements, the reference for the loop in
    the coefficient domain that ``homs.psi`` runs."""
    ring = a.ring
    p = ring.p
    u = a.delta() * (a**p).invert()
    target = u.prec
    vu = u.valuation()
    acc = ring.from_int(0, prec=target)
    for n, _, c in reversed(_psi_coefficients(p, target)):
        if not _past_target(p, n, vu, target):
            acc = (acc + c) * u
    return acc


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("p", sorted(PSI_N))
def test_psi_matches_element_horner(p, m):
    ring = psi_ring(p, m)
    rng = random.Random(f"horner:{p}:{m}")
    seen = set()
    for prec in range(2, ring.prec + 1):
        for kind in PSI_KINDS:
            for _ in range(3):
                a, kind = psi_unit(ring, prec, kind, rng)
                seen.add(kind)
                got, want = psi(a), psi_element_horner(a)
                assert got.coeffs == want.coeffs and got.prec == want.prec == prec - 1
                if kind == "teichmueller":
                    assert got.is_zero()
    assert seen == set(PSI_KINDS)


class TestGaHom:
    def test_identity_coefficients(self):
        ring = make_ring(3, 5)
        params = GaHomParams((ring.one,))
        rng = random.Random(20)
        a, b = ring.random_element(rng), ring.random_element(rng)
        assert ga_hom(params, a) == a
        assert ga_hom(params, a + b) == ga_hom(params, a) + ga_hom(params, b)

    def test_frobenius_coefficient_m1(self):
        ring = make_ring(5, 5)
        params = GaHomParams((ring.zero, ring.one))
        a = ring.from_int(12)
        assert ga_hom(params, a) == a

    def test_series_is_derivative(self):
        R = SeriesRing(6)
        params = GaHomParams((R.zero, R.one))
        f = R.t * R.t
        assert ga_hom(params, f) == R.element([0, 2])


class TestGmHom:
    def test_vanishes_at_one(self):
        ring = make_ring(3, 6)
        params = GmHomParams((ring.from_int(2), ring.one))
        assert gm_hom(params, ring.one).is_zero()

    def test_single_coefficient_is_psi(self):
        ring = make_ring(5, 6)
        params = GmHomParams((ring.one,))
        rng = random.Random(21)
        for _ in range(10):
            a = ring.random_unit(rng)
            assert gm_hom(params, a) == psi(a)

    def test_series_log_derivative(self):
        R = SeriesRing(8)
        params = GmHomParams((R.one,))
        g = R.one + R.t
        assert gm_hom(params, g * g) == gm_hom(params, g) * R.from_rational(2)

    def test_order_counts_inner_delta(self):
        ring = make_ring(3, 6)
        assert GmHomParams((ring.one, ring.one)).order == 2


class TestTrailingZeros:
    """A zero coefficient known only mod p^k stands for an unknown multiple
    of p^k: it stays in the family and bounds the result's precision.  The
    lift 9 of a zero mod 3^2 shows what trimming it would claim."""

    ring = make_ring(3, 5)

    def test_ga_hom_keeps_a_low_precision_zero(self):
        ring, a = self.ring, self.ring.from_int(2)
        params = GaHomParams((ring.from_int(0, 2),))
        assert params.order == 0 and len(params.lam) == 1
        got = ga_hom(params, a)
        assert got.is_zero() and got.prec == 2
        lifted = ga_hom(GaHomParams((ring.from_int(9),)), a)
        assert lifted == 18 and lifted.at_prec(2) == got

    def test_gm_hom_keeps_a_low_precision_zero(self):
        ring, a = self.ring, self.ring.from_int(2)
        params = GmHomParams((ring.one, ring.from_int(0, 2)))
        assert params.order == 2
        got = gm_hom(params, a)
        lifted = gm_hom(GmHomParams((ring.one, ring.from_int(9))), a)
        assert got.prec == 2 and lifted.prec == 4
        assert lifted.at_prec(2) == got

    def test_full_precision_zeros_are_trimmed(self):
        ring = self.ring
        assert GaHomParams((ring.one, ring.zero, ring.zero)).lam == (ring.one,)
        assert GmHomParams((ring.one, ring.zero)).order == 1
        assert GaHomParams((ring.zero,)).lam == ()

    def test_classified_eval_keeps_a_low_precision_zero(self):
        ring = make_ring(5, 4)
        v = SquareMatrix(ring, [[1, 2], [3, 4]])
        g = SquareMatrix(ring, [[2, 1], [7, 3]])
        low = ClassifiedCocycle(GmHomParams((ring.one, ring.from_int(0, 2))), v)
        lifted = ClassifiedCocycle(GmHomParams((ring.one, ring.from_int(25))), v)
        assert low.order == 2
        got, want = classified_eval(low, g), classified_eval(lifted, g)
        assert got.prec == 2 and want.prec == 3
        assert want.reduce_prec(2) == got


class TestTwisted:
    def test_vanishes_at_one(self):
        ring = make_ring(5, 3)
        params = TwistedCocycleParams(ring.from_int(3), 2)
        assert twisted_cocycle(params, ring.one).is_zero()

    def test_zero_mu(self):
        ring = make_ring(5, 3)
        params = TwistedCocycleParams(ring.zero, 1)
        assert twisted_cocycle(params, ring.from_int(3)).is_zero()

    def test_negative_twist_value(self):
        # 1 - 4^(-1) = 1 - 94 mod 125
        ring = make_ring(5, 3)
        params = TwistedCocycleParams(ring.one, -1)
        assert twisted_cocycle(params, ring.from_int(4)) == 1 - 94

    def test_zero_twist_rejected(self):
        with pytest.raises(InputError):
            TwistedCocycleParams(make_ring(5, 3).one, 0)

    def test_twisted_law_by_hand(self):
        ring = make_ring(7, 4)
        rng = random.Random(22)
        params = TwistedCocycleParams(ring.random_element(rng), 3)
        a1, a2 = ring.random_unit(rng), ring.random_unit(rng)
        lhs = twisted_cocycle(params, a1 * a2)
        rhs = twisted_cocycle(params, a1) + a1**3 * twisted_cocycle(params, a2)
        assert lhs == rhs


class TestCheckHom:
    def test_psi_passes(self):
        ring = make_ring(3, 6)
        rep = check_hom(psi, "multiplicative-to-additive", ring, samples=100, seed=1)
        assert rep.passed
        assert rep.counterexample is None

    def test_identity_fails_multiplicative_law(self):
        ring = make_ring(3, 6)
        rep = check_hom(lambda a: a, "multiplicative-to-additive", ring,
                        samples=100, seed=1)
        assert not rep.passed
        assert rep.counterexample is not None

    def test_twisted_requires_s(self):
        ring = make_ring(3, 6)
        with pytest.raises(InputError):
            check_hom(lambda a: a, "twisted", ring, samples=5, seed=1)

    def test_deterministic(self):
        ring = make_ring(3, 6)
        r1 = check_hom(lambda a: a, "multiplicative-to-additive", ring,
                       samples=50, seed=9)
        r2 = check_hom(lambda a: a, "multiplicative-to-additive", ring,
                       samples=50, seed=9)
        assert r1.to_dict() == r2.to_dict()

    def test_series_twisted(self):
        R = SeriesRing(8)
        params = TwistedCocycleParams(R.element([1, Fraction(1, 2)]), -2)
        rep = check_hom(lambda a: twisted_cocycle(params, a), "twisted", R,
                        samples=50, seed=3, s=-2)
        assert rep.passed
