import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delta_forge import (
    RingParams,
    SeriesRing,
    WittRing,
    delta,
    frobenius,
    invert,
    is_constant,
    teichmueller,
)
from delta_forge.errors import InputError, NonUnitError, PrecisionExhausted
from delta_forge.rings import (
    _fp_euclid,
    _fp_is_irreducible,
    _is_prime,
    _power,
    _zpoly_mul_reduce,
    dot,
    find_irreducible,
    make_ring,
)


def W(p, prec, m=1):
    return WittRing(RingParams(p=p, prec=prec, m=m, modulus=find_irreducible(p, m)))


class TestRingParams:
    def test_rejects_even_prime(self):
        with pytest.raises(InputError):
            RingParams(p=2, prec=4)

    def test_rejects_composite(self):
        with pytest.raises(InputError):
            RingParams(p=9, prec=4)

    def test_rejects_low_precision(self):
        with pytest.raises(InputError):
            RingParams(p=3, prec=1)

    def test_rejects_reducible_modulus(self):
        # t^2 - 1 = (t-1)(t+1) over F_5
        with pytest.raises(InputError):
            RingParams(p=5, prec=3, m=2, modulus=(4, 0, 1))

    def test_accepts_irreducible_modulus(self):
        params = RingParams(p=5, prec=3, m=2, modulus=(2, 0, 1))
        assert params.q == 25


class TestIsPrime:
    def test_large_prime(self):
        assert _is_prime(10**18 + 3)

    def test_carmichael_number(self):
        assert not _is_prime(561)

    def test_strong_pseudoprime_to_small_bases(self):
        # strong pseudoprime to the bases 2, 3, 5 and 7
        assert not _is_prime(3215031751)

    def test_matches_sieve_below_10_4(self):
        n = 10**4
        sieve = [False, False] + [True] * (n - 2)
        for i in range(2, n):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(range(i * i, n, i))
        assert [k for k in range(n) if _is_prime(k)] == [k for k in range(n) if sieve[k]]

    def test_undecided_range_is_an_input_error(self):
        with pytest.raises(InputError):
            _is_prime(10**24 + 7)

    def test_large_prime_ring(self):
        assert RingParams(p=10**18 + 3, prec=2).q == 10**18 + 3


class TestFromInt:
    def test_zero_and_one(self):
        ring = W(3, 4)
        assert ring.from_int(0).is_zero()
        assert ring.from_int(1) == ring.one

    def test_negative_reduction(self):
        # -563 mod 125
        assert W(5, 3).from_int(-563).coeffs == (62,)

    def test_ring_homomorphism(self):
        ring = W(7, 5)
        rng = random.Random(7)
        for _ in range(50):
            a, b = rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)
            assert ring.from_int(a) + ring.from_int(b) == ring.from_int(a + b)
            assert ring.from_int(a) * ring.from_int(b) == ring.from_int(a * b)


class TestDelta:
    def test_constants(self):
        ring = W(3, 4)
        assert delta(ring.from_int(0)).is_zero()
        assert delta(ring.from_int(1)).is_zero()

    def test_fermat_quotient_small(self):
        # (2 - 2^3)/3 = -2 and (2 - 2^5)/5 = -6
        assert W(3, 4).from_int(2).delta() == -2
        assert W(5, 4).from_int(2).delta() == -6

    def test_precision_drop(self):
        x = W(3, 4).from_int(2)
        assert x.delta().prec == 3

    def test_precision_exhausted(self):
        ring = W(3, 4)
        x = ring.from_int(2, prec=1)
        with pytest.raises(PrecisionExhausted):
            x.delta()

    def test_matches_definition_with_frobenius(self):
        ring = W(5, 6, 2)
        rng = random.Random(11)
        for _ in range(30):
            x = ring.random_element(rng)
            p = ring.p
            assert x.delta() * p == (frobenius(x) - x**p).at_prec(x.prec - 1)


class TestFrobenius:
    def test_identity_at_m1(self):
        ring = W(3, 5)
        rng = random.Random(1)
        for _ in range(20):
            x = ring.random_element(rng)
            assert frobenius(x) == x

    def test_reduces_to_pth_power(self):
        ring = W(3, 5, 2)
        rng = random.Random(2)
        for _ in range(30):
            x = ring.random_element(rng)
            assert frobenius(x).at_prec(1) == (x**3).at_prec(1)

    def test_lifted_root_kills_modulus(self):
        ring = W(5, 4, 2)
        c = ring.params.modulus
        r = ring.phi_t
        acc = ring.from_int(c[-1])
        for coef in reversed(c[:-1]):
            acc = acc * r + ring.from_int(coef)
        assert acc.is_zero()

    def test_rejected_on_series_backend(self):
        from delta_forge.errors import BackendError

        with pytest.raises(BackendError):
            SeriesRing(5).one.frobenius()


class TestTeichmueller:
    def test_fixed_points(self):
        ring = W(5, 3)
        assert teichmueller(0, ring).is_zero()
        assert teichmueller(1, ring) == 1

    def test_small_value(self):
        # iterate x -> x^5 mod 25 starting at 2
        assert W(5, 2).teichmueller(2).coeffs == (7,)

    def test_multiplicative_order(self):
        ring = W(7, 4, 2)
        for r in ring.residue_elements():
            if all(c == 0 for c in r):
                continue
            t = ring.teichmueller(r)
            assert t ** (ring.q - 1) == 1

    def test_delta_kernel(self):
        ring = W(5, 4)
        for a in range(5):
            assert is_constant(ring.teichmueller(a))

    def test_p_is_not_constant(self):
        ring = W(5, 4)
        assert not is_constant(ring.from_int(5))


class TestInvert:
    def test_unit_inverse(self):
        # 4 * 94 = 376 = 3*125 + 1
        assert W(5, 3).from_int(4).invert().coeffs == (94,)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitError):
            W(5, 3).from_int(10).invert()

    def test_extension_field_inverse(self):
        ring = W(3, 5, 2)
        rng = random.Random(3)
        for _ in range(30):
            x = ring.random_unit(rng)
            assert x * invert(x) == 1


def exact_power(ring, a, e):
    """a**e for integer coefficients a, in Z[t] mod the modulus (not mod p^k)."""
    one = [1] + [0] * (ring.m - 1)
    return _power(lambda u, v: _zpoly_mul_reduce(u, v, ring.mlift), one, list(a), e)


class TestCarryTerm:
    def test_definition(self):
        rng = random.Random(4)
        for p, m in [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]:
            ring = W(p, 6, m)
            for _ in range(30):
                # mixed precisions: the carry term is good to one digit less
                # than the lower of the two
                x = ring.random_element(rng, rng.randint(2, 6))
                y = ring.random_element(rng, rng.randint(2, 6))
                c, prec = ring.carry_term(x, y), min(x.prec, y.prec)
                assert c.prec == prec - 1
                lhs = c * p
                assert lhs == (x**p + y**p - (x + y) ** p).at_prec(lhs.prec)
                # the same numerator in exact integer arithmetic, divided by p
                s = [a + b for a, b in zip(x.coeffs, y.coeffs)]
                xp, yp, sp = (exact_power(ring, a, p) for a in (x.coeffs, y.coeffs, s))
                num = [a + b - d for a, b, d in zip(xp, yp, sp)]
                assert all(v % p == 0 for v in num)
                assert c.coeffs == tuple(v // p % p ** (prec - 1) for v in num)

    def test_needs_two_digits(self):
        ring = W(5, 4, 2)
        with pytest.raises(PrecisionExhausted):
            ring.carry_term(ring.one, ring.one.at_prec(1))

    def test_symmetry(self):
        ring = W(5, 4, 2)
        rng = random.Random(5)
        x, y = ring.random_element(rng), ring.random_element(rng)
        assert ring.carry_term(x, y) == ring.carry_term(y, x)


# Reference implementations for the shared kernels: Horner evaluation of
# the coefficient polynomial at phi(t), powers by repeated multiplication,
# and irreducibility by trial division over F_p.


def horner_frobenius(x):
    ring = x.ring
    phit = ring.phi_t.at_prec(x.prec)
    acc = ring.from_int(x.coeffs[-1], prec=x.prec)
    for c in reversed(x.coeffs[:-1]):
        acc = acc * phit + ring.from_int(c, prec=x.prec)
    return acc


def repeated_power(x, e):
    acc = x.ring.one.at_prec(x.prec)
    for _ in range(e):
        acc = acc * x
    return acc


def fp_divides(d, f, p):
    """Whether monic d divides f over F_p (low-to-high lists)."""
    f = list(f)
    for k in range(len(f) - len(d), -1, -1):
        c = f[k + len(d) - 1] % p
        for i, di in enumerate(d):
            f[k + i] -= c * di
    return all(c % p == 0 for c in f)


def trial_division_irreducible(f, p):
    m = len(f) - 1
    return not any(
        fp_divides(list(tail) + [1], f, p)
        for deg in range(1, m // 2 + 1)
        for tail in product(range(p), repeat=deg)
    )


class TestKernels:
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("m", [2, 3])
    def test_frobenius_matrix_matches_horner(self, p, m):
        ring = W(p, 6, m)
        rng = random.Random(p * 10 + m)
        for prec in range(1, ring.prec + 1):
            for _ in range(5):
                x = ring.random_element(rng, prec)
                got, want = x.frobenius(), horner_frobenius(x)
                assert (got.coeffs, got.prec) == (want.coeffs, want.prec)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_witt_power_matches_repeated_product(self, p, m):
        ring = W(p, 5, m)
        rng = random.Random(p * 10 + m)
        for prec in (2, 5):
            x = ring.random_element(rng, prec)
            for e in range(2 * p + 2):
                got, want = x**e, repeated_power(x, e)
                assert (got.coeffs, got.prec) == (want.coeffs, want.prec)

    def test_series_power_matches_repeated_product(self):
        ring = SeriesRing(6)
        rng = random.Random(7)
        for trunc in (3, 6):
            x = ring.random_element(rng, trunc)
            for e in range(2 * 5 + 2):
                got, want = x**e, repeated_power(x, e)
                assert (got.num, got.den, got.prec) == (want.num, want.den, want.prec)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("m", [2, 3])
    def test_inverse_through_euclid(self, p, m):
        ring = W(p, 6, m)
        rng = random.Random(p * 10 + m)
        units = [ring.random_unit(rng, prec) for prec in range(1, 7) for _ in range(4)]
        # constant mod p: Euclid stops after one division
        units.append(ring.element([1 + p, p, 2 * p][:m]))
        for x in units:
            inv = x.invert()
            assert inv.prec == x.prec
            assert x * inv == 1


class TestIntOperands:
    # x + c, c + x, x - c, c - x and x == c for an int c, against the same
    # operation on the element ring.from_int(c, prec=x.prec)
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_match_the_element_operand(self, p, m):
        ring = W(p, 4, m)
        rng = random.Random(p * 10 + m)
        pN = p**ring.prec
        ints = [0, 1, -1, p - 1, p, -p - 2, pN, pN + 7, -pN, -3 * pN + 2, 5 * pN**2 + 4]
        as_pair = lambda x: (x.coeffs, x.prec)
        for prec in range(1, ring.prec + 1):
            xs = [ring.random_element(rng, prec) for _ in range(3)]
            xs += [ring.from_int(c, prec) for c in ints]
            for x in xs:
                for c in ints:
                    e = ring.from_int(c, prec=x.prec)
                    assert as_pair(x + c) == as_pair(x + e)
                    assert as_pair(c + x) == as_pair(e + x)
                    assert as_pair(x - c) == as_pair(x - e)
                    assert as_pair(c - x) == as_pair(e - x)
                    assert (x == c) == (x == e) and (c == x) == (e == x)
                    assert (x != c) == (x != e)

    def test_other_operands_are_not_implemented(self):
        x = W(5, 3, 2).one
        for other in (1.0, "1", None, W(7, 3).one):
            for op in (lambda: x + other, lambda: other + x, lambda: x - other,
                       lambda: other - x):
                with pytest.raises(TypeError):
                    op()
            assert x != other and not x == other


# The m = 1 branches of WittElement (int arithmetic mod p^prec) against the
# kernels that every m >= 2 runs, on coefficient lists.


def general_mul(ring, a, b, pk):
    return [c % pk for c in _zpoly_mul_reduce(list(a), list(b), ring.mlift)]


def general_frobenius(ring, a, pk):
    return [dot(row, a) % pk for row in ring.frobenius_rows]


def general_invert(ring, a, prec):
    """The inverse mod p by Euclid in F_p[t], then Newton steps b(2 - ab)."""
    p, pk = ring.p, ring.p**prec
    g, s = _fp_euclid(ring.mlift, list(a), p)
    c = pow(g[0], -1, p)
    b = [c * si % p for si in s] + [0] * (ring.m - len(s))
    for _ in range(prec.bit_length()):
        ab = general_mul(ring, a, b, pk)
        b = general_mul(ring, b, [2 - ab[0]] + [-v for v in ab[1:]], pk)
    return b


class TestWittM1Branches:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_matches_general_kernels(self, p):
        ring = W(p, 6)
        rng = random.Random(p)
        as_pair = lambda x: (list(x.coeffs), x.prec)
        for _ in range(60):
            x = ring.random_element(rng, rng.randint(1, 6))
            y = ring.random_element(rng, rng.randint(1, 6))
            prec, pk = x.prec, p**x.prec
            lower = min(prec, y.prec)
            assert as_pair(x * y) == (general_mul(ring, x.coeffs, y.coeffs, p**lower), lower)
            for e in (0, 1, 2, p, rng.randint(3, 3 * p)):
                assert as_pair(x**e) == ([c % pk for c in exact_power(ring, x.coeffs, e)], prec)
            phi = general_frobenius(ring, x.coeffs, pk)
            assert as_pair(x.frobenius()) == (phi, prec)
            if x.is_unit():
                assert as_pair(x.invert()) == (general_invert(ring, x.coeffs, prec), prec)
            if prec >= 2:
                num = [(a - b) % pk for a, b in zip(phi, exact_power(ring, x.coeffs, p))]
                assert all(v % p == 0 for v in num)
                assert as_pair(x.delta()) == ([v // p for v in num], prec - 1)


class TestFindIrreducible:
    # first monic irreducible of degree m = 2, 3, 4 in lexicographic order
    PINNED = {
        3: [(1, 0, 1), (1, 0, 2, 1), (1, 0, 1, 1, 1)],
        5: [(1, 1, 1), (1, 0, 1, 1), (1, 0, 1, 1, 1)],
        7: [(1, 0, 1), (1, 0, 1, 1), (1, 0, 0, 1, 1)],
        11: [(1, 0, 1), (1, 0, 4, 1), (1, 0, 0, 4, 1)],
        13: [(1, 3, 1), (1, 0, 4, 1), (1, 0, 0, 1, 1)],
    }

    @pytest.mark.parametrize("p", sorted(PINNED))
    def test_pinned_values(self, p):
        assert [find_irreducible(p, m) for m in (2, 3, 4)] == self.PINNED[p]

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_rabin_matches_trial_division(self, p, m):
        for tail in product(range(p), repeat=m):
            f = list(tail) + [1]
            assert _fp_is_irreducible(f, p) == trial_division_irreducible(f, p)

    def test_large_prime_returns(self, deadline):
        with deadline(1):
            modulus = find_irreducible(101, 4)
        assert modulus[0] != 0 and modulus[-1] == 1
        assert RingParams(p=101, prec=2, m=4, modulus=modulus).q == 101**4


class TestMixedPrecision:
    def test_min_precision_arithmetic(self):
        ring = W(3, 6)
        x = ring.from_int(7)
        y = ring.from_int(11, prec=3)
        assert (x + y).prec == 3
        assert (x * y).prec == 3

    def test_equality_at_min_precision(self):
        ring = W(3, 6)
        assert ring.from_int(5 + 81) == ring.from_int(5, prec=4)


class TestElementPrecision:
    @pytest.mark.parametrize("prec", [-1, 0, 5, 9])
    def test_outside_ring_precision_rejected(self, prec):
        ring = make_ring(5, 4)
        for build in (lambda: ring.element([1], prec=prec),
                      lambda: ring.random_element(random.Random(0), prec),
                      lambda: ring.from_int(1, prec)):
            with pytest.raises(PrecisionExhausted):
                build()


class TestSeriesBackend:
    def test_delta_is_derivative(self):
        R = SeriesRing(6)
        f = R.t * R.t
        assert f.delta() == R.element([0, 2])

    def test_invert_geometric(self):
        R = SeriesRing(5)
        inv = (R.one + R.t).invert()
        assert list(inv.coeffs) == [1, -1, 1, -1, 1]

    def test_leibniz(self):
        R = SeriesRing(8)
        rng = random.Random(6)
        for _ in range(30):
            x, y = R.random_element(rng), R.random_element(rng)
            assert (x * y).delta() == x.delta() * y.at_prec(7) + y.delta() * x.at_prec(7)

    def test_no_carry(self):
        R = SeriesRing(6)
        rng = random.Random(7)
        assert R.carry_term(R.random_element(rng), R.random_element(rng)).is_zero()

    def test_constant_detection(self):
        R = SeriesRing(6)
        assert R.from_rational(3).is_constant()
        assert not R.t.is_constant()


# ---------------------------------------------------------------------------
# The stored series form (integer numerators over one denominator) against a
# schoolbook reference on lists of Fraction.

TRUNC = 8
R8 = SeriesRing(TRUNC)
COEFF = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


@st.composite
def series_coeffs(draw, unit=False):
    trunc = draw(st.integers(1, TRUNC))
    coeffs = draw(st.lists(COEFF, min_size=trunc, max_size=trunc))
    if unit and coeffs[0] == 0:
        coeffs[0] = draw(COEFF.filter(bool))
    return [Fraction(c) for c in coeffs]


def ref_mul(a, b):
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0))
            for n in range(min(len(a), len(b)))]


def ref_invert(a):
    b = [1 / a[0]]
    for n in range(1, len(a)):
        b.append(-sum(a[i] * b[n - i] for i in range(1, n + 1)) / a[0])
    return b


def stored(coeffs):
    x = R8.element(coeffs, trunc=len(coeffs))
    assert_canonical(x)
    return x


def assert_canonical(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert len(x.num) == x.trunc


class TestSeriesStoredForm:
    @given(series_coeffs())
    def test_coeffs_view_roundtrip(self, a):
        x = stored(a)
        assert list(x.coeffs) == a
        assert all(isinstance(c, Fraction) for c in x.coeffs)

    @given(series_coeffs(), series_coeffs())
    def test_add_sub(self, a, b):
        x, y = stored(a), stored(b)
        for got, want in ((x + y, [u + v for u, v in zip(a, b)]),
                          (x - y, [u - v for u, v in zip(a, b)]),
                          (-x, [-u for u in a])):
            assert_canonical(got)
            assert list(got.coeffs) == want

    @given(series_coeffs(), series_coeffs())
    def test_mul(self, a, b):
        got = stored(a) * stored(b)
        assert_canonical(got)
        assert list(got.coeffs) == ref_mul(a, b)

    @given(series_coeffs(unit=True))
    def test_invert(self, a):
        x = stored(a)
        got = x.invert()
        assert_canonical(got)
        assert list(got.coeffs) == ref_invert(a)
        assert x * got == 1

    @given(series_coeffs())
    def test_delta(self, a):
        x = stored(a)
        if x.trunc < 2:
            with pytest.raises(PrecisionExhausted):
                x.delta()
            return
        got = x.delta()
        assert_canonical(got)
        assert list(got.coeffs) == [i * a[i] for i in range(1, len(a))]

    @given(series_coeffs(), st.data())
    def test_at_prec(self, a, data):
        k = data.draw(st.integers(1, len(a)))
        got = stored(a).at_prec(k)
        assert_canonical(got)
        assert list(got.coeffs) == a[:k]

    @given(series_coeffs(), series_coeffs())
    def test_eq_at_shorter_truncation(self, a, b):
        k = min(len(a), len(b))
        assert (stored(a) == stored(b)) == (a[:k] == b[:k])
        # a tail beyond the shorter truncation takes no part in ==
        c = a[:k] + [Fraction(1, 7)] * (len(b) - k)
        assert stored(a) == stored(c)

    @given(series_coeffs(), COEFF)
    def test_scalar_coercion(self, a, c):
        x, c = stored(a), Fraction(c)
        const = [c] + [Fraction(0)] * (len(a) - 1)
        assert list((x + c).coeffs) == [u + v for u, v in zip(a, const)]
        assert list((c - x).coeffs) == [v - u for u, v in zip(a, const)]
        assert list((x * c).coeffs) == [u * c for u in a]
        assert (x == c) == (a == const)

    @given(series_coeffs(unit=True))
    def test_invert_against_sympy(self, a):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.ring_series import rs_series_inversion
        from sympy.polys.rings import ring

        QQ = sympy.QQ
        S, t = ring("t", QQ)
        f = sum((QQ(c.numerator, c.denominator) * t**i for i, c in enumerate(a)), S.zero)
        inv = rs_series_inversion(f, t, len(a))
        want = [inv.coeff(t**i) for i in range(len(a))]
        got = stored(a).invert().coeffs
        assert [(c.numerator, c.denominator) for c in got] == [
            (int(w.numerator), int(w.denominator)) for w in want
        ]


@pytest.mark.parametrize("ring", [make_ring(3, 4), make_ring(3, 4, 2), SeriesRing(4)],
                         ids=["W(Z/3^4)", "W(F_9)/3^4", "Q[[t]]/t^4"])
def test_values_valuation(ring):
    # p^v * u and t^v * u for a unit u, and prec for a value that vanishes
    dom = ring.values(4)
    if ring.kind == "arithmetic":
        of = lambda v: dom.from_elem(ring.element([2 * 3**v, 3**(v + 1)][:ring.m]))
    else:
        of = lambda v: dom.from_elem(ring.element([0] * v + [Fraction(1, 2), 3]))
    assert [dom.valuation(of(v)) for v in range(5)] == [0, 1, 2, 3, 4]


def element_path_draw(ring, rng, trunc):
    """A series draw through ``element``: one Fraction per coefficient, each
    drawn by ``randint(-3, 3)``, the stream the series digests were made on."""
    return ring.element([rng.randint(-3, 3) for _ in range(trunc)], trunc)


def element_path_unit(ring, rng, trunc):
    while True:
        x = element_path_draw(ring, rng, trunc)
        if x.is_unit():
            return x


@pytest.mark.parametrize("draw, ref", [("random_element", element_path_draw),
                                       ("random_unit", element_path_unit)])
def test_series_draws_as_the_element_path(draw, ref):
    # Q[[t]]/t^10 is the ring of the series digests
    for ring in (SeriesRing(6), SeriesRing(10)):
        for seed in range(10):
            for trunc in range(1, ring.trunc + 1):
                got_rng, ref_rng = random.Random(seed), random.Random(seed)
                got = getattr(ring, draw)(got_rng, trunc)
                want = ref(ring, ref_rng, trunc)
                assert (got.num, got.den, got.trunc) == (want.num, want.den, want.trunc)
                assert got_rng.getstate() == ref_rng.getstate()
            assert getattr(ring, draw)(random.Random(seed)).trunc == ring.trunc


@pytest.mark.parametrize("trunc", [0, 7])
def test_series_draws_check_the_truncation(trunc):
    with pytest.raises(PrecisionExhausted):
        SeriesRing(6).random_element(random.Random(0), trunc)
