import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_forge import (
    JetPolynomial,
    eval_jet,
    jet_presentation,
    nabla,
    parse_polynomial,
    prolong,
)
from delta_forge.errors import ArityError, InputError, TermBudgetError
from delta_forge.jets import JetPoint, _mono_mul, _mul_packed
from delta_forge.rings import SeriesRing, _zpoly_mul_reduce
from delta_forge.selftest import make_ring


@pytest.fixture
def ring():
    return make_ring(3, 6)


class TestParse:
    def test_simple_product(self, ring):
        f = parse_polynomial("x0*x1", ring)
        assert str(f) == "x0*x1"

    def test_primes_and_orders(self, ring):
        f = parse_polynomial("2*x0''^3 - x1^(5)", ring)
        assert f.order == 5
        assert str(f) == "2*x0''^3 + 728*x1^(5)"  # -1 mod 3^6

    def test_garbage_rejected(self, ring):
        with pytest.raises(InputError):
            parse_polynomial("x0 @ x1", ring)


class TestProlong:
    def test_variable(self, ring):
        x = JetPolynomial.variable(ring, 0)
        assert prolong(x) == JetPolynomial.variable(ring, 0, 1)

    def test_product_formula(self, ring):
        # ((x^p + px')(y^p + py') - (xy)^p)/p
        f = parse_polynomial("x0*x1", ring)
        expect = parse_polynomial("x0^3*x1' + x1^3*x0' + 3*x0'*x1'", ring)
        assert prolong(f) == expect

    def test_constant_rule(self, ring):
        c = ring.from_int(2)
        f = JetPolynomial.constant(ring, c)
        g = prolong(f)
        assert g == JetPolynomial.constant(ring, c.delta())

    def test_series_backend_is_derivation(self):
        R = SeriesRing(6)
        f = parse_polynomial("x0^2", R)
        assert prolong(f) == parse_polynomial("2*x0*x0'", R)

    def test_order_increments(self, ring):
        f = parse_polynomial("x0^2*x1", ring)
        assert prolong(f).order == 1
        assert prolong(prolong(f)).order == 2


class TestPresentation:
    def test_single_variable_chain(self, ring):
        x = JetPolynomial.variable(ring, 0)
        pres = jet_presentation([x], 2)
        assert pres.level == 2
        assert list(pres.generators) == [
            x,
            JetPolynomial.variable(ring, 0, 1),
            JetPolynomial.variable(ring, 0, 2),
        ]

    def test_level_zero_identity(self, ring):
        f = parse_polynomial("x0^2 - x1", ring)
        pres = jet_presentation([f], 0)
        assert list(pres.generators) == [f]

    def test_rejects_higher_order_input(self, ring):
        with pytest.raises(InputError):
            jet_presentation([parse_polynomial("x0'", ring)], 1)

    def test_series_example(self):
        R = SeriesRing(6)
        f = parse_polynomial("x0^2 - x1", R)
        pres = jet_presentation([f], 1)
        assert pres.generators[1] == parse_polynomial("2*x0*x0' - x1'", R)


class TestNabla:
    def test_constant_chain(self, ring):
        pt = nabla(ring.from_int(1), 3)
        assert pt.component(0, 0) == 1
        for i in range(1, 4):
            assert pt.component(0, i).is_zero()

    def test_iterated_fermat_quotient(self, ring):
        # delta(2) = -2, delta(-2) = (-2+8)/3 = 2
        pt = nabla(ring.from_int(2), 2)
        assert pt.component(0, 1) == -2
        assert pt.component(0, 2) == 2

    def test_teichmueller_chain(self, ring):
        pt = nabla(ring.teichmueller(2), 3)
        for i in range(1, 4):
            assert pt.component(0, i).is_zero()

    def test_precision_along_chain(self, ring):
        pt = nabla(ring.from_int(5), 2)
        assert pt.component(0, 2).prec == ring.prec - 2


class TestEvalJet:
    def test_first_order(self, ring):
        f = parse_polynomial("x0'", ring)
        assert eval_jet(f, nabla(ring.from_int(2), 1)) == -2

    def test_constant(self, ring):
        f = JetPolynomial.constant(ring, 7)
        assert eval_jet(f, nabla(ring.from_int(2), 1)) == 7

    def test_chain_rule_product(self, ring):
        rng = random.Random(9)
        f = parse_polynomial("x0*x1", ring)
        g = prolong(f)
        for _ in range(20):
            a, b = ring.random_element(rng), ring.random_element(rng)
            got = eval_jet(g, nabla((a, b), 1))
            assert got == (a * b).delta()

    def test_arity_mismatch(self, ring):
        f = parse_polynomial("x2'", ring)
        with pytest.raises(ArityError):
            eval_jet(f, nabla(ring.from_int(1), 1))

    def test_fast_path_matches_generic(self, ring):
        # force both paths over the same polynomial
        rng = random.Random(10)
        f = parse_polynomial("x0^2*x1 + 2*x1*x2", ring)
        g = f.prolong().prolong()
        pt = nabla(tuple(ring.random_element(rng) for _ in range(3)), 2)
        fast = g.evaluate(pt)
        acc = None
        for mono, c in g.terms.items():
            val = c
            for (j, i), e in mono:
                val = val * pt.component(j, i) ** e
            acc = val if acc is None else acc + val
        assert fast == acc


class TestTermBudget:
    def test_cap_enforced(self, ring):
        f = parse_polynomial("x0 + x1 + x2", ring)
        f.term_cap = 2
        with pytest.raises(TermBudgetError):
            f * f


class TestSerialization:
    def test_roundtrip(self, ring):
        f = parse_polynomial("x0^2*x1' + 5", ring)
        assert JetPolynomial.from_records(ring, f.to_records()) == f


# -- fast paths against reference loops ----------------------------------------


def _schoolbook_mul(f, g):
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = _mono_mul(m1, m2)
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return {m: c for m, c in out.items() if not c.is_zero()}


def _generic_evaluate(f, point):
    acc = None
    for mono, c in f.terms.items():
        val = c
        for (j, i), e in mono:
            val = val * point.component(j, i) ** e
        acc = val if acc is None else acc + val
    return acc


def _as_pairs(terms):
    return {m: (c.coeffs, c.prec) for m, c in terms.items()}


_monomials = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), st.integers(1, 2**17), max_size=3
).map(lambda d: tuple(sorted(d.items())))


@st.composite
def _packed_polynomials(draw, ring, prec):
    terms = draw(st.dictionaries(
        _monomials, st.integers(1, ring.p**prec - 1), min_size=64, max_size=72
    ))
    return JetPolynomial.from_terms(
        ring, [(m, ring.from_int(c, prec=prec)) for m, c in terms.items()]
    )


class TestFastPaths:
    def test_packed_mul_wide_exponents(self):
        # a 16-bit field used to wrap x0^80000 round to x0^40000
        ring = make_ring(3, 4)
        f = JetPolynomial.from_terms(
            ring, [((((0, 0), 40000),), ring.one)]
            + [((((1, 0), k),), ring.one) for k in range(1, 64)],
        )
        product = _mul_packed(f, f)
        assert max(e for m in product.terms for _, e in m) == 80000
        assert _as_pairs(product.terms) == _as_pairs(_schoolbook_mul(f, f))

    @settings(max_examples=5)
    @given(st.data())
    def test_packed_mul_matches_schoolbook(self, data):
        ring = make_ring(3, 4)
        prec = data.draw(st.integers(1, 4))
        f = data.draw(_packed_polynomials(ring, prec))
        g = data.draw(_packed_polynomials(ring, prec))
        product = _mul_packed(f, g)
        assert product is not None
        assert _as_pairs(product.terms) == _as_pairs(_schoolbook_mul(f, g))

    @settings(max_examples=6)
    @given(st.data())
    def test_evaluate_fast_matches_generic(self, data):
        ring = make_ring(5, 4)
        f = data.draw(_packed_polynomials(ring, data.draw(st.integers(1, 4))))
        elem = st.builds(
            lambda c, prec: ring.from_int(c, prec=prec),
            st.integers(0, 5**4 - 1), st.integers(1, 4),
        )
        point = JetPoint(tuple(tuple(data.draw(elem) for _ in range(2)) for _ in range(3)), 1)
        fast = f._evaluate_fast(point)
        ref = _generic_evaluate(f, point)
        assert (fast.coeffs, fast.prec) == (ref.coeffs, ref.prec)

    @settings(max_examples=200)
    @given(
        st.sampled_from([(3, 5), (5, 4), (7, 3)]),
        st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
        st.integers(1, 5), st.integers(1, 5),
    )
    def test_m2_mul_matches_zpoly_reduce(self, pn, raw, pa, pb):
        p, top = pn
        ring = make_ring(p, top, 2)
        a = ring.element(raw[:2], min(pa, top))
        b = ring.element(raw[2:], min(pb, top))
        prec = min(a.prec, b.prec)
        expected = tuple(
            c % p**prec for c in _zpoly_mul_reduce(a.coeffs, b.coeffs, ring.mlift)
        )
        got = a * b
        assert (got.coeffs, got.prec) == (expected, prec)
