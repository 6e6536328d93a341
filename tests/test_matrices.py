"""det, invert, is_unit and solve_linear against references in this file.

The references are cofactor expansion and the adjugate, computed with the
ring's own arithmetic, so they carry the precision that every entry of the
matrix supports.  The re-lift properties check precision honesty: a result
must agree, at the precision it claims, with the result for any
full-precision lift of its inputs.
"""

import gc
import itertools
import random
import re
import weakref
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_forge import matrices
from delta_forge.errors import NonUnitError, PrecisionExhausted, ShapeError
from delta_forge.matrices import SquareMatrix, random_gl, random_sl, solve_linear
from delta_forge.rings import SeriesRing, Values, make_ring

RINGS = {
    "witt-m1": make_ring(5, 4),
    "witt-m1-p3": make_ring(3, 4),
    "witt-m1-p7": make_ring(7, 2),
    "witt-m2": make_ring(3, 3, 2),
    "series": SeriesRing(4),
}


def ref_det(rows):
    """Cofactor expansion along the first row, memoised on column sets."""
    n = len(rows)

    @lru_cache(maxsize=None)
    def minor(r, cols):
        if r == n - 1:
            return rows[r][cols[0]]
        acc = None
        for k, c in enumerate(cols):
            term = rows[r][c] * minor(r + 1, cols[:k] + cols[k + 1:])
            if k % 2:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    return minor(0, tuple(range(n)))


def ref_inverse(rows):
    """Adjugate over the cofactor determinant."""
    n = len(rows)
    dinv = ref_det(rows).invert()
    if n == 1:
        return [[dinv]]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            m = [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            cof = ref_det(m)
            row.append((-cof if (i + j) % 2 else cof) * dinv)
        out.append(row)
    return out


def full_prec(ring):
    return getattr(ring, "prec", None) or ring.trunc


def uniformizer(ring):
    return ring.t if ring.kind == "kolchin" else ring.from_int(ring.p)


def same(a, b):
    """Equal value and equal claimed precision."""
    return a.prec == b.prec and a == b


def sample_rows(ring, n, style, rng):
    top = full_prec(ring)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            prec = top if style in ("full", "non-unit", "zero-column", "valuations") else rng.randint(1, top)
            e = ring.random_element(rng, prec)
            if style == "sparse" and rng.random() < 0.4:
                e = ring.zero.at_prec(prec)
            if style == "valuations" and rng.random() < 0.4:
                e = e * uniformizer(ring) ** rng.randint(1, 2)
            row.append(e)
        rows.append(row)
    if style == "non-unit":
        col = rng.randrange(n)
        for row in rows:
            row[col] = row[col] * uniformizer(ring)
    if style == "zero-column":
        col = rng.randrange(n)
        for row in rows:
            row[col] = ring.zero
    return rows


STYLES = ("full", "mixed", "sparse", "non-unit", "zero-column", "valuations")


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("n", range(1, 7))
def test_det_and_invert_match_cofactor_reference(name, n):
    ring = RINGS[name]
    rng = random.Random(f"{name}:{n}")
    cases = 4 if n <= 4 else 1
    for style in STYLES:
        for _ in range(cases):
            rows = sample_rows(ring, n, style, rng)
            m = SquareMatrix(ring, rows)
            d = ref_det(rows)
            assert same(m.det(), d), (style, rows)
            assert m.is_unit() == d.is_unit()
            if d.is_unit():
                inv = m.invert()
                ref = ref_inverse(rows)
                assert all(same(inv[i, j], ref[i][j]) for i in range(n) for j in range(n))
            else:
                expected = f"matrix determinant is not a unit: {d!r}"
                with pytest.raises(NonUnitError, match=re.escape(expected)):
                    m.invert()


@pytest.mark.parametrize("name", sorted(RINGS))
def test_non_unit_determinant_of_size_ten_is_prompt(name, deadline):
    # a deadline that cofactor expansion, 10! products, cannot meet
    ring = RINGS[name]
    rows = sample_rows(ring, 10, "non-unit", random.Random(f"{name}:10"))
    d = ref_det(rows)
    m = SquareMatrix(ring, rows)
    with deadline(1):
        det = m.det()
        with pytest.raises(NonUnitError) as info:
            m.invert()
    assert same(det, d)
    assert same(info.value.element, d)


def test_empty_matrix_is_a_shape_error():
    with pytest.raises(ShapeError):
        SquareMatrix(RINGS["witt-m1"], [])


@pytest.mark.parametrize("name", sorted(RINGS))
def test_empty_identity_and_permutation_are_shape_errors(name):
    # they build without __init__, so its size check does not cover them
    ring = RINGS[name]
    for build in (lambda: SquareMatrix.identity(ring, 0),
                  lambda: SquareMatrix.permutation(ring, [])):
        with pytest.raises(ShapeError, match="n >= 1"):
            build()


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__"])
def test_sizes_must_agree(op):
    # rows of unequal length used to be zipped into a ragged matrix
    ring = RINGS["witt-m1"]
    a, b = SquareMatrix.identity(ring, 3), SquareMatrix.identity(ring, 2)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ShapeError):
            getattr(x, op)(y)


def test_mixed_rings_rejected():
    # int residues carry no ring, so mixing W(Z/5^4) with W(Z/7^4) must not
    # quietly reduce residues mod 7^k modulo 5^k.  Building a matrix from,
    # or scaling it by, elements of another ring is refused too: these used
    # to give diag(7, 7) over W(Z/5^4) from a scalar of W(Z/7^4), and a
    # Witt matrix holding a Fraction.
    cases = (
        (make_ring(5, 4), (make_ring(7, 4), make_ring(5, 4, 2), SeriesRing(4)), make_ring(5, 4)),
        (SeriesRing(4), (make_ring(7, 4), make_ring(5, 4)), SeriesRing(6)),
    )
    for ring, others, twin in cases:
        m = SquareMatrix.identity(ring, 2)
        for other in others:
            for op in (m.__add__, m.__sub__, m.__mul__, m.__eq__):
                with pytest.raises(TypeError):
                    op(SquareMatrix.identity(other, 2))
            with pytest.raises(TypeError):
                m.scale(other.from_int(7))
            with pytest.raises(TypeError):
                m.add_scalar(other.from_int(7))
            with pytest.raises(TypeError):
                SquareMatrix(ring, [[ring.one, ring.zero], [other.zero, ring.one]])
        # a ring with equal parameters, or a series ring of another
        # truncation, mixes
        assert m.scale(twin.from_int(7)) == SquareMatrix.diagonal(ring, [ring.from_int(7)] * 2)
        assert m.add_scalar(twin.from_int(7)) == SquareMatrix.diagonal(ring, [ring.from_int(8)] * 2)
        assert SquareMatrix(ring, [[twin.one]]) == SquareMatrix.identity(ring, 1)


@pytest.mark.parametrize("ring", [make_ring(5, 3), SeriesRing(4)], ids=["witt", "series"])
def test_scalars_are_what_element_arithmetic_takes(ring):
    # numbers that are not ring elements used to end in AttributeError
    # ('... has no attribute ring') in scale and in building a matrix
    rows = sample_rows(ring, 2, "mixed", random.Random(f"scalars:{ring!r}"))
    a = SquareMatrix(ring, rows)
    low = ring.from_int(2, 1)  # an element below the matrix's precision
    accepted = []
    for c in (3, -1, True, Fraction(1, 2), Fraction(4), low, 1.5, None, "2"):
        try:
            e = ring.one * c
        except TypeError:
            for build in (
                lambda: a.scale(c),
                lambda: a.add_scalar(c),
                lambda: SquareMatrix(ring, [[c]]),
                lambda: SquareMatrix(ring, [[ring.one, c], [ring.zero, ring.one]]),
            ):
                with pytest.raises(TypeError):
                    build()
            continue
        accepted.append(c)
        prec = min(a.prec, e.prec)
        assert_holds(a.scale(c), [[e * x for x in r] for r in rows], prec)
        plus = [[x + e if i == j else x for j, x in enumerate(r)] for i, r in enumerate(rows)]
        assert_holds(a.add_scalar(c), plus, prec)
        assert_holds(SquareMatrix(ring, [[c, 0], [1, c]]), [[e, ring.zero], [ring.one, e]], e.prec)
    fractions = [Fraction(1, 2), Fraction(4)] if ring.kind == "kolchin" else []
    assert accepted == [3, -1, True, *fractions, low]
    assert SquareMatrix(ring, [[1, 0], [0, 1]]) == SquareMatrix.identity(ring, 2)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_reduce_prec_at_or_above_the_matrix_precision_is_the_matrix(name):
    ring = RINGS[name]
    m = SquareMatrix(ring, sample_rows(ring, 3, "mixed", random.Random(f"reduce:{name}")))
    for prec in (m.prec, m.prec + 1, full_prec(ring) + 3):
        assert m.reduce_prec(prec) is m
    for prec in (0, -1):
        with pytest.raises(PrecisionExhausted):
            m.reduce_prec(prec)


def test_solve_linear_claims_only_supported_digits():
    # the zero at prec 1 multiplies x0; lifted to 5 it changes the answer
    ring = RINGS["witt-m1"]
    rows = [[ring.one, ring.from_int(3)], [ring.from_int(0, prec=1), ring.one]]
    rhs = [ring.from_int(2), ring.from_int(7)]
    x = solve_linear(ring, rows, rhs)
    rows[1][0] = ring.from_int(5)
    lifted = solve_linear(ring, rows, rhs)
    assert all(xi.prec == 1 for xi in x)
    assert all(li.at_prec(xi.prec) == xi for li, xi in zip(lifted, x))


# -- the elimination memo ----------------------------------------------------


@pytest.fixture
def eliminations(monkeypatch):
    """The column counts of the ``_eliminate`` calls made from now on."""
    calls = []
    real = matrices._eliminate

    def counted(dom, aug, ncols):
        calls.append(ncols)
        return real(dom, aug, ncols)

    monkeypatch.setattr(matrices, "_eliminate", counted)
    return calls


def outcome(m, op):
    """What m.op() gives: a value with its precision, or the error text."""
    try:
        r = getattr(m, op)()
    except NonUnitError as e:
        return "raises", str(e)
    if op == "is_unit":
        return r
    if op == "det":
        return r.coeffs, r.prec
    return [[(e.coeffs, e.prec) for e in row] for row in r.rows]


MEMO_OPS = ("det", "is_unit", "invert")


def memo_rows(ring, unit, rng):
    """Rows of a 3 x 3 matrix of mixed precisions whose determinant is a
    unit, or of one whose determinant is not."""
    if not unit:
        return sample_rows(ring, 3, "non-unit", rng)
    while True:
        rows = sample_rows(ring, 3, "mixed", rng)
        if ref_det(rows).is_unit():
            return rows


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("unit", [True, False], ids=["unit", "non-unit"])
def test_memo_gives_a_fresh_matrix_results_in_any_order(name, unit, eliminations):
    ring = RINGS[name]
    rows = memo_rows(ring, unit, random.Random(f"memo:{name}:{unit}"))
    fresh = {op: outcome(SquareMatrix(ring, rows), op) for op in MEMO_OPS}
    assert fresh["is_unit"] == unit
    for order in itertools.permutations(MEMO_OPS):
        m = SquareMatrix(ring, rows)
        eliminations.clear()
        for op in order:
            assert outcome(m, op) == fresh[op], (order, op)
            assert outcome(m, op) == fresh[op], (order, op)
        # a unit matrix inverted after its det needs the augmented pass too
        assert len(eliminations) == (2 if unit and order[0] != "invert" else 1), order


@pytest.mark.parametrize("name", sorted(RINGS))
def test_each_matrix_is_eliminated_at_most_once_per_job(name, eliminations):
    ring = RINGS[name]
    rng = random.Random(f"once:{name}")
    rows = memo_rows(ring, True, rng)
    m = SquareMatrix(ring, rows)
    m.det()
    assert eliminations == [3]
    m.det(), m.is_unit(), m.det()
    assert eliminations == [3]

    m = SquareMatrix(ring, rows)
    eliminations.clear()
    inv = m.invert()
    assert eliminations == [3]
    assert m.invert() is inv
    m.det(), m.is_unit()
    assert eliminations == [3]

    m = SquareMatrix(ring, memo_rows(ring, False, rng))
    eliminations.clear()
    for _ in range(2):
        with pytest.raises(NonUnitError):
            m.invert()
    assert eliminations == [3]


class Tracked(SquareMatrix):
    """A matrix a weak reference can follow."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "non-unit"])
def test_memo_makes_no_reference_cycle(unit):
    ring = RINGS["witt-m2"]
    m = Tracked(ring, memo_rows(ring, unit, random.Random(f"cycle:{unit}")))
    gc.disable()
    try:
        try:
            inv = m.invert()
        except NonUnitError:
            inv = None
        m.det()
        ref = weakref.ref(m)
        del m
        assert ref() is None
        assert inv is None or inv.det().is_unit()
    finally:
        gc.enable()


# -- the determinant pass ----------------------------------------------------

# the 4 x 4 Pascal matrix: every pivot is 1 and every multiplier that
# Gauss-Jordan meets, above or below a pivot, is nonzero in each ring
PASCAL = [[1, 1, 1, 1], [1, 2, 3, 4], [1, 3, 6, 10], [1, 4, 10, 20]]


def reductions(n, width, above):
    """``reduce`` calls of elimination over n rows of ``width`` columns with
    n unit pivots and no zero multiplier: per column, the pivot row's
    entries right of the pivot, as many per row cleared (the rows below,
    and with ``above`` the rows above too), and a product into the
    determinant from the second column on."""
    return sum(
        (width - col - 1) * (1 + (n - 1 if above else n - col - 1)) for col in range(n)
    ) + n - 1


@pytest.fixture
def reduce_calls(monkeypatch):
    """The number of ``reduce`` calls made from now on by the domains that
    matrices build."""
    calls = [0]

    class Counting(Values):
        def __init__(self, ring, prec):
            super().__init__(ring, prec)
            real = self.reduce

            def counted(v):
                calls[0] += 1
                return real(v)

            self.reduce = counted

    monkeypatch.setattr(matrices, "Values", Counting)
    return calls


@pytest.mark.parametrize("name", sorted(RINGS))
def test_det_eliminates_downwards_only(name, reduce_calls):
    ring = RINGS[name]
    m = SquareMatrix(ring, PASCAL)
    reduce_calls[0] = 0
    assert m.det() == 1
    assert reduce_calls[0] == reductions(4, 4, above=False) == 23
    # the inverse and a solution still clear above each pivot
    m = SquareMatrix(ring, PASCAL)
    reduce_calls[0] = 0
    inv = m.invert()
    assert reduce_calls[0] == reductions(4, 8, above=True)
    assert inv * m == SquareMatrix.identity(ring, 4)
    rows = [[ring.from_int(c) for c in r] for r in PASCAL]
    reduce_calls[0] = 0
    x = solve_linear(ring, rows, [ring.from_int(c) for c in (1, 4, 10, 20)])
    assert reduce_calls[0] == reductions(4, 5, above=True)
    assert x == [0, 0, 0, 1]


# -- sampling ----------------------------------------------------------------


def ref_random_gl(ring, n, rng):
    """``random_gl`` through elements: each entry drawn by
    ``ring.random_element``, resampled until the cofactor determinant is
    a unit."""
    while True:
        rows = [[ring.random_element(rng) for _ in range(n)] for _ in range(n)]
        if ref_det(rows).is_unit():
            return SquareMatrix(ring, rows)


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("n", range(1, 5))
def test_random_gl_draws_as_the_element_path(name, n):
    ring = RINGS[name]
    for seed in range(30):
        rng, ref_rng = random.Random(f"gl:{seed}"), random.Random(f"gl:{seed}")
        got, want = random_gl(ring, n, rng), ref_random_gl(ring, n, ref_rng)
        assert (got.prec, got.vals) == (want.prec, want.vals)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("name", sorted(RINGS))
def test_values_random_draws_as_random_element(name):
    ring = RINGS[name]
    for prec in range(1, full_prec(ring) + 1):
        dom = Values(ring, prec)
        rng, ref_rng = random.Random(f"values:{prec}"), random.Random(f"values:{prec}")
        for _ in range(20):
            assert same(dom.to_elem(dom.random(rng)), ring.random_element(ref_rng, prec))
        assert rng.getstate() == ref_rng.getstate()


def ref_random_sl(ring, n, rng):
    """``random_sl`` through elements: a ``random_gl`` sample whose first
    row is multiplied by det^-1 as elements."""
    g = random_gl(ring, n, rng)
    dinv = g.det().invert()
    rows = [list(r) for r in g.rows]
    rows[0] = [dinv * e for e in rows[0]]
    return SquareMatrix(ring, rows)


SL_RINGS = {"witt-m1": RINGS["witt-m1"], "witt-m2": RINGS["witt-m2"], "series-t8": SeriesRing(8)}


@pytest.mark.parametrize("name", sorted(SL_RINGS))
@pytest.mark.parametrize("n", range(1, 5))
def test_random_sl_draws_as_the_element_path(name, n):
    ring = SL_RINGS[name]
    for seed in range(30):
        rng, ref_rng = random.Random(f"sl:{seed}"), random.Random(f"sl:{seed}")
        got, want = random_sl(ring, n, rng), ref_random_sl(ring, n, ref_rng)
        assert (got.prec, got.vals) == (want.prec, want.vals)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("sample", [random_gl, random_sl])
def test_sampling_an_empty_matrix_is_a_shape_error(sample):
    for n in (0, -1):
        with pytest.raises(ShapeError):
            sample(RINGS["witt-m1"], n, random.Random(0))


# -- re-lift properties ------------------------------------------------------


@st.composite
def low_precision_elements(draw, ring):
    top = full_prec(ring)
    prec = draw(st.integers(1, top))
    if draw(st.integers(0, 3)) == 0:
        return ring.zero.at_prec(prec)
    if ring.kind == "kolchin":
        return ring.element(draw(st.lists(st.integers(-3, 3), min_size=prec, max_size=prec)), prec)
    pk = ring.p**prec
    return ring.element([draw(st.integers(0, pk - 1)) for _ in range(ring.m)], prec)


def lift(ring, e, rng):
    """A full-precision element that agrees with e at e's precision."""
    top = full_prec(ring)
    if ring.kind == "kolchin":
        extra = [rng.randint(-3, 3) for _ in range(top - e.prec)]
        return ring.element(list(e.coeffs) + extra, top)
    pk = ring.p**e.prec
    return ring.element([c + pk * rng.randrange(ring.p**top) for c in e.coeffs], top)


def agrees(lifted, low):
    return lifted.at_prec(low.prec) == low


@st.composite
def systems(draw):
    name = draw(st.sampled_from(sorted(RINGS)))
    ring = RINGS[name]
    n = draw(st.integers(1, 4))
    elems = low_precision_elements(ring)
    rows = [[draw(elems) for _ in range(n)] for _ in range(n)]
    rhs = [draw(elems) for _ in range(n)]
    return ring, rows, rhs, draw(st.integers(0, 2**32))


@settings(max_examples=100)
@given(systems())
def test_relift_det_and_invert(system):
    ring, rows, _, seed = system
    rng = random.Random(seed)
    m = SquareMatrix(ring, rows)
    lifted = SquareMatrix(ring, [[lift(ring, e, rng) for e in r] for r in rows])
    assert agrees(lifted.det(), m.det())
    if m.is_unit():
        inv, inv_lifted = m.invert(), lifted.invert()
        n = m.n
        assert all(agrees(inv_lifted[i, j], inv[i, j]) for i in range(n) for j in range(n))


@settings(max_examples=150)
@given(systems())
def test_relift_solve_linear(system):
    ring, rows, rhs, seed = system
    if not SquareMatrix(ring, rows).is_unit():
        return
    rng = random.Random(seed)
    x = solve_linear(ring, rows, rhs)
    for _ in range(3):
        lifted = solve_linear(
            ring,
            [[lift(ring, e, rng) for e in r] for r in rows],
            [lift(ring, b, rng) for b in rhs],
        )
        assert all(agrees(li, xi) for li, xi in zip(lifted, x))


# -- permutation matrices ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("n", range(1, 6))
def test_permutation_matrices_are_recognised(name, n):
    ring = RINGS[name]
    for sigma in itertools.permutations(range(n)):
        assert SquareMatrix.permutation(ring, sigma).is_permutation_matrix()


@pytest.mark.parametrize("name", sorted(RINGS))
def test_non_permutation_matrices_are_rejected(name):
    ring = RINGS[name]
    one, zero = ring.one, ring.zero
    two_in_a_row = [[one, one, zero], [zero, zero, zero], [zero, zero, one]]
    two_in_a_column = [[one, zero, zero], [one, zero, zero], [zero, zero, one]]
    assert not SquareMatrix(ring, two_in_a_row).is_permutation_matrix()
    assert not SquareMatrix(ring, two_in_a_column).is_permutation_matrix()
    for stray in (ring.from_int(2), uniformizer(ring), one + uniformizer(ring)):
        rows = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
        rows[0][1] = stray
        assert not SquareMatrix(ring, rows).is_permutation_matrix()


def permutation_pairs(n, rng):
    """Every pair of permutations of range(n) for n <= 3, else 20 seeded
    random pairs."""
    if n <= 3:
        return itertools.product(itertools.permutations(range(n)), repeat=2)
    return [(tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))) for _ in range(20)]


@pytest.mark.parametrize("name", ["witt-m1", "witt-m2", "series"])
@pytest.mark.parametrize("n", range(1, 6))
def test_permuted_is_the_permutation_product(name, n):
    ring = RINGS[name]
    rng = random.Random(f"permuted:{name}:{n}")
    x = SquareMatrix(ring, sample_rows(ring, n, "mixed", rng))
    for sl, sr in permutation_pairs(n, rng):
        want = SquareMatrix.permutation(ring, sl) * x * SquareMatrix.permutation(ring, sr)
        got = x.permuted(sl, sr)
        assert (got.prec, got.vals) == (want.prec, want.vals), (sl, sr)


def test_permuted_rejects_what_permutation_rejects():
    ring = RINGS["witt-m1"]
    x = SquareMatrix(ring, [[1, 2], [3, 4]])
    for bad in ((0, 0), (0, 7), (1, 2), [1, 1]):
        with pytest.raises(ShapeError) as want:
            SquareMatrix.permutation(ring, bad)
        for args in ((bad, (0, 1)), ((1, 0), bad)):
            with pytest.raises(ShapeError) as got:
                x.permuted(*args)
            assert str(got.value) == str(want.value)
    for short in ((0,), (0, 1, 2)):
        with pytest.raises(ShapeError, match=re.escape(f"not a permutation: {short}")):
            x.permuted(short, (0, 1))


# -- entrywise references ----------------------------------------------------


def least_prec(*matrices):
    return min(e.prec for rows in matrices for r in rows for e in r)


def assert_holds(m, ref, prec):
    """m claims prec and holds the entries of ref lowered to prec, through
    both [i, j] and rows."""
    assert m.prec == prec
    want = [[e.at_prec(prec) for e in r] for r in ref]
    assert len(m.rows) == len(want)
    assert all(len(r) == len(w) and all(map(same, r, w)) for r, w in zip(m.rows, want))
    assert all(same(m[i, j], e) for i, r in enumerate(want) for j, e in enumerate(r))


def ref_product(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i][0] * b[0][j]
            for k in range(1, n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


@st.composite
def matrix_cases(draw):
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    n = draw(st.integers(1, 4))
    elems = low_precision_elements(ring)
    a = [[draw(elems) for _ in range(n)] for _ in range(n)]
    b = [[draw(elems) for _ in range(n)] for _ in range(n)]
    k = draw(st.integers(1, full_prec(ring)))
    return ring, a, b, draw(elems), k, draw(st.integers(0, 2**32))


@settings(max_examples=150)
@given(matrix_cases())
def test_operations_match_entrywise_references(case):
    ring, a, b, c, k, seed = case
    rng = random.Random(seed)
    n = len(a)
    ma, mb = SquareMatrix(ring, a), SquareMatrix(ring, b)
    pa, pab = least_prec(a), least_prec(a, b)
    assert_holds(ma, a, pa)
    assert_holds(ma + mb, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)], pab)
    assert_holds(ma - mb, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)], pab)
    assert_holds(ma * mb, ref_product(a, b), pab)
    assert_holds(ma.scale(c), [[c * x for x in r] for r in a], min(pa, c.prec))
    assert_holds(ma.reduce_prec(k), a, min(k, pa))
    diag = a[0][0]
    for i in range(1, n):
        diag = diag + a[i][i]
    assert same(ma.trace(), diag.at_prec(pa))
    size = rng.randint(1, n)
    r0, c0 = rng.randint(0, n - size), rng.randint(0, n - size)
    block = [r[c0:c0 + size] for r in a[r0:r0 + size]]
    assert_holds(ma.block(r0, r0 + size, c0, c0 + size), block, pa)
    # equal at the least precision: b, and a changed only beyond that precision
    near = [[x + uniformizer(ring) ** pa * ring.random_element(rng) for x in r] for r in a]
    for other in (b, near):
        p = least_prec(a, other)
        agree = all(x.at_prec(p) == y.at_prec(p) for r, s in zip(a, other) for x, y in zip(r, s))
        assert (ma == SquareMatrix(ring, other)) == agree
    assert ma == SquareMatrix(ring, near)
