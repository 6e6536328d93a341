import json
import random
import sys
from math import comb

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from delta_forge import (
    JetPolynomial,
    eval_jet,
    jet_presentation,
    nabla,
    parse_polynomial,
    prolong,
)
from delta_forge import cli, jets
from delta_forge.errors import ArityError, InputError, PrecisionExhausted, TermBudgetError
from delta_forge.jets import JetPoint
from delta_forge.rings import ARITHMETIC, SeriesRing, _zpoly_mul_reduce, make_ring


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

    def test_high_power_keeps_only_terms_below_precision(self, deadline):
        # of the e + 1 terms C(e, k) p^k x^(p(e-k)) x'^k of (x^p + p x')^e,
        # those with k >= prec vanish and k = 0 cancels against f^p
        ring, e = make_ring(3, 3), 20000
        with deadline(10):
            g = prolong(parse_polynomial(f"x0^{e}", ring))
        want = JetPolynomial.from_terms(ring, [
            ((((0, 0), 3 * (e - k)), ((0, 1), k)), ring.from_int(comb(e, k) * 3 ** (k - 1), prec=2))
            for k in (1, 2)
        ])
        assert g.prec == 2 and g == want

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

    def test_packed_evaluate_matches_generic(self, ring):
        rng = random.Random(10)
        f = parse_polynomial("x0^2*x1 + 2*x1*x2", ring)
        g = f.prolong().prolong()
        pt = nabla(tuple(ring.random_element(rng) for _ in range(3)), 2)
        assert g.evaluate(pt) == _generic_evaluate(g, pt)


class TestTermBudget:
    def test_cap_enforced(self, ring, monkeypatch):
        f = parse_polynomial("x0 + x1 + x2", ring)
        g = parse_polynomial("x0", ring)
        monkeypatch.setattr(jets, "TERM_CAP", 2)
        # the cap binds whichever operand comes first
        for x, y in ((f, f), (g, f), (f, g)):
            with pytest.raises(TermBudgetError):
                x * y


def test_mixed_rings_rejected(ring):
    # int residues carry no ring, so mixing W(Z/3^6) with W(Z/5^4) must not
    # quietly add residues mod 3^k to residues mod 5^k
    f = parse_polynomial("x0 + 1", ring)
    for g in (parse_polynomial("x0 + 1", make_ring(5, 4)), parse_polynomial("x0", SeriesRing(4))):
        for op in (f.__add__, f.__mul__, f.__eq__):
            with pytest.raises(TypeError):
                op(g)


class TestSerialization:
    def test_roundtrip(self, ring):
        f = parse_polynomial("x0^2*x1' + 5", ring)
        assert JetPolynomial.from_records(ring, f.to_records()) == f


class TestFromTerms:
    """A monomial that lists one variable twice has the sum of its exponents,
    as in ``parse_polynomial``."""

    def test_repeated_variable(self):
        ring = make_ring(5, 4)
        x0 = (0, 0)
        cases = {
            # each exponent used to be shifted into one field sized for 2
            (((x0, 2), (x0, 2)),): "x0^4",
            (((x0, 1), (x0, 1)), ((x0, 2), ((1, 0), 2))): "x0^2 + x0^2*x1^2",
            (((x0, 1), (x0, 1)),): "x0^2",
            (((x0, 1), (x0, 1)), (((1, 0), 1),)): "x0^2 + x1",
        }
        for monos, text in cases.items():
            f = JetPolynomial.from_terms(ring, [(m, ring.one) for m in monos])
            assert str(f) == text
            assert f == parse_polynomial(text, ring)


# -- packed kernels against reference loops -----------------------------------


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _schoolbook_mul(f, g):
    """Tuple-monomial product of two {monomial: element} dicts."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = _mono_mul(m1, m2)
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return {m: c for m, c in out.items() if not c.is_zero()}


def _generic_evaluate(f, point):
    acc = f.ring.zero.at_prec(f.prec)
    for mono, c in f.sorted_terms():
        val = c
        for (j, i), e in mono:
            val = val * point.component(j, i) ** e
        acc = acc + val
    return acc


def _as_pairs(terms):
    return {m: (c.coeffs, c.prec) for m, c in dict(terms).items()}


_monomials = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), st.integers(1, 2**17), max_size=3
).map(lambda d: tuple(sorted(d.items())))


_KERNEL_RINGS = {
    "W(Z/3^4)": lambda: make_ring(3, 4),
    "W(F_9)/3^3": lambda: make_ring(3, 3, 2),
    "Q[[t]]/t^6": lambda: SeriesRing(6),
}


def _layered_coefficients(ring, prec):
    """Coefficients p^v*u at prec (t^v*u on Q[[t]]) with v in 0..prec, so
    whole valuation layers appear and so do pairs that vanish across them."""
    v = st.integers(0, prec)
    if ring.kind == ARITHMETIC:
        u = st.lists(st.integers(0, ring.p**prec - 1), min_size=ring.m, max_size=ring.m)
        return st.builds(lambda v, u: ring.element([ring.p**v * x for x in u], prec), v, u)
    u = st.lists(st.integers(-3, 3), min_size=1, max_size=prec)
    return st.builds(lambda v, u: ring.element([0] * v + u, prec), v, u)


# Shrinking 64-72-term examples takes minutes, so a wrong product kernel
# would look like a hang; the kernel properties run the same examples
# without the shrink phase and fail at once.
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


# x_j^(i) for j < 6 and i < 2: the first n make a layout of n variables
_EVAL_VARS = [(j, i) for j in range(6) for i in range(2)]
# one ring per coefficient domain class: int residues, elements, series
_EVAL_RINGS = {
    "W(Z/5^4)": lambda: make_ring(5, 4),
    "W(F_25)/5^3": lambda: make_ring(5, 3, 2),
    "Q[[t]]/t^8": lambda: SeriesRing(8),
}


@settings(max_examples=10, phases=_NO_SHRINK)
@given(data=st.data())
def _evaluate_matches_generic(ring, nvars, top, sizes, data):
    # f at prec from sizes[0]..sizes[1] drawn terms of exponents 1..top, the
    # point's components at any precision, lower ones too; nvars None is
    # the zero polynomial
    n = ring.one.prec
    prec = data.draw(st.integers(1, n))
    items = [((), ring.zero.at_prec(prec))]
    if nvars is not None:
        vars_ = _EVAL_VARS[:nvars]
        mono = (st.dictionaries(st.sampled_from(vars_), st.integers(1, top), max_size=4)
                if vars_ else st.just({}))
        items = data.draw(st.lists(
            st.tuples(mono.map(lambda d: tuple(d.items())), _layered_coefficients(ring, prec)),
            min_size=sizes[0], max_size=sizes[1],
        ))
        # a unit term on every variable, of an exponent no drawn term has,
        # fixes the layout at nvars of them
        items.append((tuple((v, top + 1) for v in vars_), ring.one.at_prec(prec)))
    f = JetPolynomial.from_terms(ring, items)
    assert len(f.vars) == (nvars or 0) and f.prec == prec
    assert not nvars or 1 << f.bits > top + 1
    assert nvars is not None or f.is_zero()
    elem = _layered_coefficients(ring, n).flatmap(
        lambda x: st.integers(1, n).map(x.at_prec))
    point = JetPoint(tuple(tuple(data.draw(elem) for _ in range(2)) for _ in range(6)), 1)
    got, ref = f.evaluate(point), _generic_evaluate(f, point)
    assert (got.coeffs, got.prec) == (ref.coeffs, ref.prec)


@st.composite
def _packed_polynomials(draw, ring, prec):
    terms = draw(st.dictionaries(
        _monomials, _layered_coefficients(ring, prec), min_size=64, max_size=72
    ))
    return JetPolynomial.from_terms(ring, list(terms.items()))


@settings(max_examples=5, phases=_NO_SHRINK)
@given(data=st.data())
def _mul_matches_schoolbook(ring, data):
    # the reference pairs every two terms, also those that vanish
    prec = data.draw(st.integers(1, ring.one.prec))
    f = data.draw(_packed_polynomials(ring, prec))
    g = data.draw(_packed_polynomials(ring, prec))
    product = f * g
    assert product.prec == prec
    ref = _schoolbook_mul(dict(f.sorted_terms()), dict(g.sorted_terms()))
    assert _as_pairs(product.sorted_terms()) == _as_pairs(ref)


class TestFastPaths:
    def test_packed_mul_wide_exponents(self):
        # a 16-bit field used to wrap x0^80000 round to x0^40000
        ring = make_ring(3, 4)
        f = JetPolynomial.from_terms(
            ring, [((((0, 0), 40000),), ring.one)]
            + [((((1, 0), k),), ring.one) for k in range(1, 64)],
        )
        product = f * f
        assert max(e for m, _ in product.sorted_terms() for _, e in m) == 80000
        ref = dict(f.sorted_terms())
        assert _as_pairs(product.sorted_terms()) == _as_pairs(_schoolbook_mul(ref, ref))

    def test_packed_mul_matches_schoolbook(self):
        for make in _KERNEL_RINGS.values():
            _mul_matches_schoolbook(make())

    def test_packed_evaluate_matches_generic(self):
        # value and precision, on layouts with no, one, an odd number and
        # twelve variables (an empty low half, or half-keys of unequal and
        # equal widths) and on the zero polynomial
        for make in _EVAL_RINGS.values():
            for nvars in (0, 1, 5, 12, None):
                _evaluate_matches_generic(make(), nvars, 3, (0, 24))
        # 64-72 terms of exponents up to 2^17, so fields of 18 bits, half-keys
        # of up to 108 bits and powers of large exponent, on both Witt
        # domain classes (on Q[[t]] such powers have coefficients of tens of
        # thousands of digits)
        for name in ("W(Z/5^4)", "W(F_25)/5^3"):
            for nvars in (1, 6, 12):
                _evaluate_matches_generic(_EVAL_RINGS[name](), nvars, 2**17, (64, 72))

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


# -- prolongation against the tuple-monomial implementation it replaced --------


def _ref_add(*polys):
    out = {}
    for poly in polys:
        for m, c in poly.items():
            c = out[m] + c if m in out else c
            if c.is_zero():
                out.pop(m, None)
            else:
                out[m] = c
    return out


def _ref_pow(ring, f, e):
    result, base = {(): ring.one}, f
    while e:
        if e & 1:
            result = _schoolbook_mul(result, base)
        base = _schoolbook_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def _ref_prolong(ring, f):
    """Prolongation on {monomial: element} dicts, each coefficient carrying
    its own precision, as the library computed it before the packed form."""
    if ring.kind != ARITHMETIC:
        # d/dt costs every coefficient one order, constants included
        out = {}
        for mono, c in f.items():
            items = [(mono, c.delta())]
            for idx, ((j, i), e) in enumerate(mono):
                rest = mono[:idx] + mono[idx + 1:]
                shifted = tuple(x for x in [((j, i), e - 1), ((j, i + 1), 1)] if x[1])
                items.append((_mono_mul(rest, shifted), (c * ring.from_int(e)).at_prec(c.prec - 1)))
            out = _ref_add(out, {m: c for m, c in items if not c.is_zero()})
        return out
    if any(c.prec < 2 for c in f.values()):
        raise PrecisionExhausted("prolongation needs coefficient precision >= 2")
    p = ring.p
    fphi = {}
    for mono, c in f.items():
        partial = [((), c.frobenius())]
        for (j, i), e in mono:
            choices = []
            for k in range(e + 1):
                coef = ring.from_int(comb(e, k) * p**k)
                if coef.is_zero():
                    continue
                mv = []
                if e - k:
                    mv.append(((j, i), p * (e - k)))
                if k:
                    mv.append(((j, i + 1), k))
                choices.append((tuple(mv), coef))
            partial = [
                (_mono_mul(mp, mv), cc * cv)
                for mp, cc in partial
                for mv, cv in choices
                if not (cc * cv).is_zero()
            ]
        fphi = _ref_add(fphi, dict(partial))
    g = _ref_add(fphi, {m: -c for m, c in _ref_pow(ring, f, p).items()})
    return {m: c._div_p_exact() for m, c in g.items()}


# p > 3 admits cross terms C(p, k) p^k A^(p-k) B'^k with 2 <= k <= p - 1
# (W(Z/5^4) forms k = 2 at prec 4), and F_25 the lift of a term formed
# below prec on m >= 2.  The schoolbook f^p of their third prolongation
# takes minutes, so they are prolonged twice.
_LARGE_P_RINGS = {
    "W(Z/5^4)": lambda: make_ring(5, 4),
    "W(Z/7^3)": lambda: make_ring(7, 3),
    "W(F_25)/5^3": lambda: make_ring(5, 3, 2),
}
# at prec 2 the split leaves only the unit terms of f in f^p
_PROLONG_RINGS = {**_KERNEL_RINGS, "W(Z/3^2)": lambda: make_ring(3, 2), **_LARGE_P_RINGS}


@st.composite
def _small_polynomials(draw, ring, prec=None):
    monos = draw(st.lists(
        st.dictionaries(
            st.tuples(st.integers(0, 1), st.integers(0, 1)), st.integers(1, 2), max_size=2
        ).map(lambda d: tuple(sorted(d.items()))),
        min_size=1, max_size=3,
    ))
    coeff = _layered_coefficients(ring, prec or ring.one.prec)
    return [(m, draw(coeff)) for m in monos]


def _assert_split_matches_power(f):
    raw = {}
    bits = f._pth_power(raw, 1)
    got, want = f._new(f.vars, bits, f.ring.p * f.top, raw, f.prec), f**f.ring.p
    assert got.prec == want.prec == f.prec
    assert _as_pairs(got.sorted_terms()) == _as_pairs(want.sorted_terms())


class TestPthPowerMatchesPow:
    """The binomial split of prolongation against the generic ``__pow__``."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("p", [3, 5, 7])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_layered_polynomials(self, p, m, data):
        ring = make_ring(p, 6, m)
        f = JetPolynomial.from_terms(
            ring, data.draw(_small_polynomials(ring, data.draw(st.integers(2, 6)))))
        _assert_split_matches_power(f)

    def test_zero_polynomial_at_prec_2(self):
        ring = make_ring(3, 6)
        f = JetPolynomial.from_terms(ring, [((), ring.zero.at_prec(2))])
        assert f.is_zero() and f.prec == 2
        _assert_split_matches_power(f)

    @pytest.mark.parametrize("text", ["3*x0 + 9", "x0^2 + 2*x1 + 1", "3*x0^2*x1' + 9*x1"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_no_unit_part_and_only_units(self, text, m):
        _assert_split_matches_power(parse_polynomial(text, make_ring(3, 6, m)))

    @staticmethod
    def _frobenius_case(p, m):
        """(f, B' mod p) at N = p + 1, where the term k = p is B'^p mod p.
        On m = 2 the coefficients of B' lie outside F_p, so c^p differs
        from c."""
        ring = make_ring(p, p + 1, m)
        x0, x1, x1d = (0, 0), (1, 0), (1, 1)

        def c(k):
            return ring.element([k] + [1] * (m - 1))

        units = [(((x0, 2),), c(1)), (((x0, 1), (x1d, 1)), c(2))]
        b = [(((x1, 1),), c(1)), (((x0, 1), (x1d, 2)), c(2)), (((x1, 2),), c(3)), ((), c(2))]
        f = JetPolynomial.from_terms(ring, units + [(mono, x * ring.from_int(p)) for mono, x in b])
        return f, JetPolynomial.from_terms(ring, [(mono, x.at_prec(1)) for mono, x in b])

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_b_prime_to_the_p_mod_p(self, p, m):
        _assert_split_matches_power(self._frobenius_case(p, m)[0])

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_b_prime_to_the_p_takes_no_product(self, p, m, monkeypatch):
        f, b1 = self._frobenius_case(p, m)
        bits = max(f.bits, (p * f.top).bit_length())
        products, real = [], jets._mul_into

        def record(out, a, b, dom, width, fields, scale=1):
            # every product, its own or added into f^p, goes through the
            # kernel; its operands are keyed in f's variables at width bits
            assert (width, fields) == (bits, len(f.vars))
            products.append(tuple(f._new(f.vars, bits, p * f.top, x, dom.prec) for x in (a, b)))
            return real(out, a, b, dom, width, fields, scale)

        monkeypatch.setattr(jets, "_mul_into", record)
        f._pth_power({}, 1)
        monkeypatch.undo()
        at_1 = [(x, y) for x, y in products if x.prec == 1]
        bp = b1 ** (p - 1)
        # B'^(p-1) is formed, for the term k = p - 1, and never multiplied by B'
        assert any(y == bp for _, y in at_1)
        assert not any(x == bp and y == b1 for x, y in at_1)

    @pytest.mark.parametrize("m", [1, 2])
    def test_every_cross_term_below_one_digit(self, m):
        # at prec 2 term k needs p^(1-k) (k < p) or p^(2-p): none survives
        f = parse_polynomial("x0^2 + 5*x1*x0' + 10*x1 + 1", make_ring(5, 2, m))
        _assert_split_matches_power(f)


class TestPthPowerAccumulates:
    """``_pth_power`` adds its last products into the caller's dict."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("p", [3, 5])
    def test_last_products_go_into_the_accumulator(self, p, n, products):
        ring = make_ring(p, n)
        x0, x1, x1d = (0, 0), (1, 0), (1, 1)
        a = JetPolynomial.from_terms(ring, [
            (((x0, 2), (x1, 1)), ring.one), (((x1, 2),), ring.from_int(2)), ((), ring.one)])
        b = JetPolynomial.from_terms(ring, [
            (((x0, 1),), ring.one), (((x0, 1), (x1d, 1)), ring.from_int(2)),
            (((x1d, 2),), ring.from_int(p))])
        f = a + b * JetPolynomial.constant(ring, p)

        def size(g, q, j):
            """The terms of g^j, g known mod p^q."""
            g = JetPolynomial.from_terms(ring, [(mono, c.at_prec(q)) for mono, c in g.sorted_terms()])
            return len((g**j).terms)

        ks = {k: q for k in range(1, p + 1) if (q := n - k - (k < p)) > 0}
        # products of their own: A^j = A^(j-1) A and B'^k = B'^(k-1) B'
        own = [(size(a, n, j - 1), len(a.terms), n) for j in range(2, p)]
        own += [(size(b, q, k - 1), size(b, q, 1), q) for k, q in ks.items() if 1 < k < p]
        # added into f^phi: A^p = A^(p-1) A, each A^(p-k) B'^k, and B'^(p-1) B'
        # where B'^p is needed mod more than p
        into = [(size(a, n, p - 1), len(a.terms), n)]
        into += [(size(a, n, p - k), size(b, q, k), q) for k, q in ks.items() if k < p]
        if ks.get(p, 1) > 1:
            into.append((size(b, ks[p], p - 1), len(b.terms), ks[p]))
        products.clear()
        f.prolong()
        assert sorted(call[:3] for call in products if not call[3]) == sorted(own)
        assert sorted(call[:3] for call in products if call[3]) == sorted(into)

    def test_exact_cancellation_leaves_no_key(self):
        # (x0 + 3 x1)^3 = x0^3 + 9 x0^2 x1 + 27 x0 x1^2 + 27 x1^3 on W(Z/3^4)
        ring = make_ring(3, 4)
        f = parse_polynomial("x0 + 3*x1", ring)
        bits = max(f.bits, (3 * f.top).bit_length())

        def key(e0, e1):
            return e0 + (e1 << bits)

        # 82 - 1 and 27 - 27 vanish mod 3^4, 9 - 9 at once
        acc = {key(3, 0): 82, key(0, 3): 27, key(2, 1): 9, key(1, 1): 5}
        assert f._pth_power(acc, -1) == bits
        got = f._new(f.vars, bits, 3 * f.top, acc, f.prec)
        assert got.terms == {key(1, 1): 5, key(1, 2): 81 - 27}

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("p", [3, 5])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_adds_minus_f_to_the_p_key_by_key(self, p, m, data):
        ring = make_ring(p, 4, m)
        f = JetPolynomial.from_terms(
            ring, data.draw(_small_polynomials(ring, data.draw(st.integers(2, 4)))))
        dom, top = ring.values(f.prec), p * f.top
        bits = max(f.bits, top.bit_length())
        fp = f**p
        assert (fp.vars, fp.bits) == (f.vars, bits)
        coeff = _layered_coefficients(ring, f.prec).map(dom.from_elem)
        # keys of f^p with its own value (which cancels), or another, and
        # keys of no term of f^p
        acc = {k: data.draw(st.sampled_from([c, data.draw(coeff)]))
               for k, c in fp.terms.items() if data.draw(st.booleans())}
        for exps in data.draw(st.lists(st.lists(
                st.integers(0, top), min_size=len(f.vars), max_size=len(f.vars)), max_size=3)):
            acc[sum(e << n * bits for n, e in enumerate(exps))] = data.draw(coeff)
        cancelled = {k for k, c in acc.items() if fp.terms.get(k) == c}
        want = f._new(f.vars, bits, top, dict(acc), f.prec) - fp
        assert f._pth_power(acc, -1) == bits
        got = f._new(f.vars, bits, top, acc, f.prec)
        assert _as_pairs(got.sorted_terms()) == _as_pairs(want.sorted_terms())
        assert not cancelled & set(got.terms)

    @pytest.mark.parametrize("p, n", [(5, 4), (3, 5)])
    def test_m2_lifts_the_terms_formed_below_full_precision(self, p, n):
        # f has unit terms only, so its prolongation is the first to have a
        # B', whose terms are formed mod p^q < p^N and lifted
        ring = make_ring(p, n, 2)
        f = parse_polynomial("x0*x1 + x0", ring)
        ref = dict(f.sorted_terms())
        for _ in range(2):
            f, ref = f.prolong(), _ref_prolong(ring, ref)
        assert f.prec == n - 2
        assert _as_pairs(f.sorted_terms()) == _as_pairs(ref)

    def test_m2_cli_prolongs_twice(self, capsys):
        ring = make_ring(5, 4, 2)
        code = cli.main(["jet-prolong", "--ring", '{"p": 5, "prec": 4, "m": 2}',
                         "--times", "2", "x0*x1 + x0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["terms"] == parse_polynomial("x0*x1 + x0", ring).prolong().prolong().to_records()

    def test_term_cap_binds_on_the_accumulator(self, products, monkeypatch, capsys):
        text = "x0^2*x1^2 + 3*x0*x1' + 9*x1 + 2"
        f = parse_polynomial(text, make_ring(3, 6))
        f.prolong()
        fphi = next(before for *_, before, _ in products if before)
        cap = max([fphi, *(after for *_, before, after in products if not before)])
        assert cap < products[-1][-1]
        # above f^phi and every product of its own, below the accumulator
        monkeypatch.setattr(jets, "TERM_CAP", cap)
        with pytest.raises(TermBudgetError) as exc:
            f.prolong()
        names = [entry.name for entry in exc.traceback]
        assert names[-2:] == ["_mul_into", "_check_cap"] and "_pth_power" in names
        code = cli.main(["jet-prolong", "--p", "3", "--prec", "6", text])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2 and doc["error"] == "TermBudgetError"


# (p, N) of the rings whose int products the row packing is checked on, and
# the field width of the two-field layout those products are keyed in
_ROW_RINGS = [(3, 6), (5, 4), (7, 3)]
_ROW_BITS = 4


@st.composite
def _row_products(draw):
    """(p, N, q, scale, a, b): an int product as ``_pth_power`` passes it to
    ``_mul_into``, at q = N times 1 or at the precision q that the term k
    needs times -C(p, k) p^k, with a known mod p^N and b mod p^q.  Their
    terms line up along field 0 (field 1 is 0 or 1), with many collisions,
    so the rows of both pair up in at most a quarter of their term pairs."""
    p, n = draw(st.sampled_from(_ROW_RINGS))
    k = draw(st.sampled_from([k for k in range(p + 1) if not k or n - k - (k < p) > 0]))
    q = n - k - (k < p) if k else n
    top = draw(st.integers(3, 7))

    def operand(prec):
        pk = p**prec
        value = st.one_of(st.just(pk - 1), st.integers(1, pk - 1),
                          st.integers(0, prec - 1).map(lambda v: p**v))
        key = st.tuples(st.integers(0, top), st.integers(0, 1)).map(
            lambda e: e[0] | e[1] << _ROW_BITS)
        return draw(st.dictionaries(key, value, min_size=4, max_size=2 * top + 2))

    return p, n, q, -comb(p, k) * p**k if k else 1, operand(n), operand(q)


class TestRowPacking:
    """The packed int product of ``_mul_into`` against its pair loop."""

    @staticmethod
    def _product(gate, p, n, q, scale, a, b):
        """The product added into {0: 1} by ``_mul_into`` with the row gate
        at gate, reduced mod p^N, and whether it packed rows."""
        packed, real = [], jets._mul_rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jets, "_ROW_PAIRS", gate)
            mp.setattr(jets, "_mul_rows", lambda *args: packed.append(args) or real(*args))
            out = jets._mul_into({0: 1}, a, b, make_ring(p, n).values(q), _ROW_BITS, 2, scale)
        return {k: r for k, c in out.items() if (r := c % p**n)}, bool(packed)

    # every slot at its widest: n terms of value p^N - 1 against themselves,
    # n of them meeting at exponent n - 1, fill the slot width
    @example(case=(3, 6, 6, 1, {e: 3**6 - 1 for e in range(8)}, {e: 3**6 - 1 for e in range(8)}))
    @example(case=(5, 4, 4, 1, {e: 5**4 - 1 for e in range(5)}, {e: 5**4 - 1 for e in range(7)}))
    @example(case=(7, 3, 3, 1, {e: 7**3 - 1 for e in range(4)}, {e: 7**3 - 1 for e in range(4)}))
    @settings(max_examples=80)
    @given(case=_row_products())
    def test_packed_rows_match_the_pair_loop(self, case):
        packed, took = self._product(0, *case)
        loop, took_loop = self._product(1 << 60, *case)
        assert took and not took_loop
        assert packed == loop

    @pytest.mark.parametrize("text, packs", [
        ("x0 + x1^2 + 5", [False, False, True]),
        # weighted-homogeneous: its products stay below the row gate
        ("x0^2*x1^2 + 5", [False, False, False]),
    ])
    def test_which_prolongations_pack(self, text, packs, monkeypatch):
        f, calls, real = parse_polynomial(text, make_ring(3, 6)), [], jets._mul_rows
        monkeypatch.setattr(jets, "_mul_rows", lambda *args: calls.append(args) or real(*args))
        got = []
        for _ in packs:
            calls.clear()
            f = f.prolong()
            got.append(bool(calls))
        assert got == packs

    def test_term_cap_binds_in_the_packed_path(self, monkeypatch, capsys):
        text = "x0 + x1^2 + 5"
        f = parse_polynomial(text, make_ring(3, 6)).prolong().prolong()
        sizes, real = [], jets._check_cap

        def spy(n):
            sizes.append((n, sys._getframe(1).f_code.co_name))
            real(n)

        monkeypatch.setattr(jets, "_check_cap", spy)
        f.prolong()
        monkeypatch.undo()
        at = next(i for i, (_, name) in enumerate(sizes) if name == "_mul_rows")
        # above every size checked before the first packed product, below it
        cap = max(n for n, _ in sizes[:at])
        assert cap < sizes[at][0]
        monkeypatch.setattr(jets, "TERM_CAP", cap)
        with pytest.raises(TermBudgetError) as exc:
            f.prolong()
        names = [entry.name for entry in exc.traceback]
        assert names[-3:] == ["_mul_into", "_mul_rows", "_check_cap"] and "_pth_power" in names
        code = cli.main(["jet-prolong", "--p", "3", "--prec", "6", "--times", "3", text])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2 and doc["error"] == "TermBudgetError"


class TestProlongMatchesTupleForm:
    @pytest.mark.parametrize("name", sorted(_PROLONG_RINGS))
    @settings(max_examples=12, phases=_NO_SHRINK)
    @given(data=st.data())
    def test_pow_matches_schoolbook(self, name, data):
        ring = _PROLONG_RINGS[name]()
        f = JetPolynomial.from_terms(ring, data.draw(_small_polynomials(ring)))
        ref = _ref_pow(ring, dict(f.sorted_terms()), 3)
        assert _as_pairs((f**3).sorted_terms()) == _as_pairs(ref)

    @pytest.mark.parametrize("p, prec", [(3, 2), (3, 3), (5, 3), (3, 4)])
    def test_terms_of_valuation_prec_minus_1(self, p, prec):
        # p^(prec-1) x0^2 and the constant reach f^p only through the lemma;
        # at prec 2 the p x0 x1 term is dropped as well
        ring = make_ring(p, prec)
        top = ring.from_int(p ** (prec - 1))
        f = JetPolynomial.from_terms(ring, [
            ((((0, 0), 2),), top),
            ((((0, 0), 1), ((1, 0), 1)), ring.from_int(p)),
            ((((1, 0), 2),), ring.one),
            ((), top * ring.from_int(2)),
        ])
        for _ in range(prec - 1):
            ref = _ref_prolong(ring, dict(f.sorted_terms()))
            f = f.prolong()
            assert _as_pairs(f.sorted_terms()) == _as_pairs(ref)

    @pytest.mark.parametrize("name", sorted(_PROLONG_RINGS))
    @settings(max_examples=12)
    @given(data=st.data())
    def test_prolong_k_1_to_3(self, name, data):
        ring = _PROLONG_RINGS[name]()
        items = data.draw(_small_polynomials(ring))
        f = JetPolynomial.from_terms(ring, items)
        assert dict(f.sorted_terms()) == _ref_add(*({m: c} for m, c in items))
        for _ in range(2 if name in _LARGE_P_RINGS else 3):
            ref_in = dict(f.sorted_terms())
            if f.prec < 2:
                # the tuple form raised only when some coefficient was left
                with pytest.raises(PrecisionExhausted):
                    f.prolong()
                if ref_in:
                    with pytest.raises(PrecisionExhausted):
                        _ref_prolong(ring, ref_in)
                return
            ref = _ref_prolong(ring, ref_in)
            prec_in, f = f.prec, f.prolong()
            got = f.sorted_terms()
            if ref:
                assert f.prec == min(c.prec for c in ref.values())
            else:
                assert f.prec == prec_in - 1
            # the tuple form's coefficients, lowered to the one precision of
            # the packed form, are the packed form's coefficients
            want = {m: c.at_prec(f.prec) for m, c in ref.items()}
            want = {m: c for m, c in want.items() if not c.is_zero()}
            assert [m for m, _ in got] == sorted(want)
            assert all(c.prec == f.prec and c == want[m] for m, c in got)
            if ring.kind == ARITHMETIC:
                assert _as_pairs(got) == _as_pairs(ref)
