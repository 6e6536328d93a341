"""det, invert, is_unit and solve_linear against references in this file.

The references are cofactor expansion and the adjugate, computed with the
ring's own arithmetic, so they carry the precision that every entry of the
matrix supports.  The re-lift properties check precision honesty: a result
must agree, at the precision it claims, with the result for any
full-precision lift of its inputs.
"""

import random
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_forge.errors import NonUnitError, ShapeError
from delta_forge.matrices import SquareMatrix, solve_linear
from delta_forge.rings import SeriesRing
from delta_forge.selftest import make_ring

RINGS = {
    "witt-m1": make_ring(5, 4),
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
            prec = top if style in ("full", "non-unit", "zero-column") else rng.randint(1, top)
            e = ring.random_element(rng, prec)
            if style == "sparse" and rng.random() < 0.4:
                e = ring.zero.at_prec(prec)
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


STYLES = ("full", "mixed", "sparse", "non-unit", "zero-column")


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


def test_empty_matrix_is_a_shape_error():
    with pytest.raises(ShapeError):
        SquareMatrix(RINGS["witt-m1"], [])


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
