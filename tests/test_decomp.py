import random
from itertools import permutations

import pytest

from delta_forge import (
    DecompositionWord,
    PermFactor,
    SFactor,
    SquareMatrix,
    decompose,
    precondition,
    random_gl,
    reconstruct,
    rings,
)
from delta_forge.decomp import expected_word_length, is_admissible
from delta_forge.errors import NonUnitError, NonUnitMinorError, ShapeError
from delta_forge.rings import SeriesRing, make_ring

RINGS = {"witt-m1": make_ring(5, 3), "witt-m2": make_ring(3, 3, 2), "series": SeriesRing(4)}


def uniformizer(ring):
    return ring.t if ring.kind == "kolchin" else ring.from_int(ring.p)


def same(a, b):
    """Equal value and equal claimed precision."""
    return a.prec == b.prec and a == b


def trailing_minors(x: SquareMatrix):
    """Determinants after deleting the first i rows and columns, and
    their product: one elimination per minor, which gives the exact value
    of a minor that is not a unit as well.  The oracle of this file."""
    n = x.n
    minors = [x.block(i, n, i, n).det() for i in range(1, n)]
    prod = x.ring.one
    for d in minors:
        prod = prod * d
    return minors, prod


@pytest.fixture
def ring():
    return make_ring(5, 3)


class TestTrailingMinors:
    def test_identity(self, ring):
        minors, prod = trailing_minors(SquareMatrix.identity(ring, 4))
        assert all(d == 1 for d in minors)
        assert prod == 1

    def test_two_by_two(self, ring):
        x = SquareMatrix(ring, [[1, 2], [3, 4]])
        minors, _ = trailing_minors(x)
        assert minors == [ring.from_int(4)]

    def test_upper_triangular(self, ring):
        x = SquareMatrix(ring, [[2, 1, 1], [0, 3, 1], [0, 0, 4]])
        minors, _ = trailing_minors(x)
        assert minors[0] == 12 and minors[1] == 4


class TestDecompose:
    def test_one_by_one(self, ring):
        x = SquareMatrix(ring, [[7]])
        word = decompose(x)
        assert word.length == 1
        assert reconstruct(word, ring) == x

    def test_two_by_two_schur_pivot(self, ring):
        # leading s-block entry is a - b d^{-1} c; 1 - 2*94*3 = 62 mod 125
        x = SquareMatrix(ring, [[1, 2], [3, 4]])
        word = decompose(x)
        s1 = word.s_factors()[0]
        assert s1.a == 62
        assert reconstruct(word, ring) == x

    def test_word_length_depends_only_on_n(self, ring):
        rng = random.Random(30)
        for n in (2, 3, 4):
            lengths = set()
            for _ in range(5):
                x = random_gl(ring, n, rng)
                if not is_admissible(x):
                    continue
                lengths.add(decompose(x).length)
            assert lengths <= {expected_word_length(n)}

    def test_non_unit_minor_rejected(self, ring):
        x = SquareMatrix(ring, [[0, 1], [1, 0]])
        with pytest.raises(NonUnitMinorError):
            decompose(x)

    def test_non_unit_det_rejected(self, ring):
        x = SquareMatrix(ring, [[5, 1], [0, 1]])
        with pytest.raises(NonUnitError):
            decompose(x)

    def test_non_unit_minor_of_size_eleven_is_prompt(self, ring, deadline):
        # the trailing 10 x 10 block is L * D * U with unit triangular L and
        # U and D = diag(1, 1, 1, 5, 1, 1, 1, 1, 5, 1), so minor 1 is 25, and
        # its elimination meets a pivot of valuation 1 midway
        rng = random.Random(33)
        n = 11
        lower = [[1 if i == j else rng.randrange(125) if j < i else 0 for j in range(n - 1)]
                 for i in range(n - 1)]
        upper = [[1 if i == j else rng.randrange(125) if j > i else 0 for j in range(n - 1)]
                 for i in range(n - 1)]
        d = [5 if i in (3, 8) else 1 for i in range(n - 1)]
        block = SquareMatrix(ring, lower) * SquareMatrix.diagonal(
            ring, [ring.from_int(c) for c in d]) * SquareMatrix(ring, upper)
        rows = [[ring.random_element(rng) for _ in range(n)]]
        rows += [[ring.random_element(rng), *r] for r in block.rows]
        x = SquareMatrix(ring, rows)
        with deadline(1):
            with pytest.raises(NonUnitMinorError) as info:
                decompose(x)
        assert info.value.index == 1
        assert info.value.value == 25 and info.value.value.prec == 3

    def test_roundtrip_random(self, ring):
        rng = random.Random(31)
        done = 0
        while done < 25:
            n = rng.choice((2, 3, 4))
            x = random_gl(ring, n, rng)
            if not is_admissible(x):
                continue
            assert reconstruct(decompose(x), ring) == x
            done += 1


def ref_outcome(x):
    """What ``decompose`` must raise for x, read off ``trailing_minors``
    and ``det``: the first non-unit minor by index, else a non-unit
    determinant, else None."""
    minors, _ = trailing_minors(x)
    for i, d in enumerate(minors, 1):
        if not d.is_unit():
            return NonUnitMinorError, i, d
    d = x.det()
    return (NonUnitError, None, d) if not d.is_unit() else None


def outcome(x):
    try:
        decompose(x)
    except NonUnitMinorError as e:
        return NonUnitMinorError, e.index, e.value
    except NonUnitError as e:
        return NonUnitError, None, e.element
    return None


def assert_outcome(rows, ring):
    """decompose and the reference agree on fresh matrices of rows:
    the error type, the minor's index, and the value with its precision."""
    got, want = outcome(SquareMatrix(ring, rows)), ref_outcome(SquareMatrix(ring, rows))
    assert (got is None) == (want is None), (got, want)
    if want is not None:
        assert got[:2] == want[:2] and same(got[2], want[2]), (got, want)
    return want


class TestErrorPrecedence:
    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_first_non_unit_minor_then_det(self, name):
        ring = RINGS[name]
        pi, u = uniformizer(ring), ring.from_int(2)
        # minor 1 a unit, minor 2 = 2 pi at precision 2: index 2
        low = (u * pi).at_prec(2)
        got = assert_outcome([[1, 0, 0], [0, 0, 1], [0, 1, low]], ring)
        assert got[:2] == (NonUnitMinorError, 2) and got[2].prec == 2
        # minor 1 = pi and det = pi^2 both non-units: index 1
        got = assert_outcome([[pi, 0, 0], [0, pi, 0], [0, 0, 1]], ring)
        assert got[:2] == (NonUnitMinorError, 1)
        # every minor a unit, det = 2 pi: the determinant's value
        got = assert_outcome([[u * pi, 0, 0], [0, 1, 0], [0, 0, 1]], ring)
        assert got[0] is NonUnitError and got[2] == u * pi

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_random_matrices_raise_what_the_reference_raises(self, name):
        ring = RINGS[name]
        pi, top = uniformizer(ring), ring.one.prec
        rng = random.Random(f"precedence:{name}")
        seen = set()
        for _ in range(60):
            n = rng.choice((1, 2, 3, 4))
            rows = [[ring.random_element(rng, rng.choice((top, top, top - 1)))
                     * pi ** rng.choice((0, 0, 0, 1)) for _ in range(n)] for _ in range(n)]
            want = assert_outcome(rows, ring)
            seen.add(want and want[:2])
        assert {None, (NonUnitMinorError, 1), (NonUnitError, None)} <= seen

    def test_each_trailing_block_is_eliminated_once(self, ring, eliminations):
        rng = random.Random(34)
        for n in range(1, 6):
            while True:
                rows = random_gl(ring, n, rng).rows
                if is_admissible(SquareMatrix(ring, rows)):
                    break
            eliminations.clear()
            decompose(SquareMatrix(ring, rows))
            # the inverse of each trailing block, outermost first, then det
            assert eliminations == [*((k, True) for k in range(n - 1, 0, -1)), (n, False)]


def dense_product(word, ring):
    """The word's factors as matrices, multiplied left to right."""
    acc = None
    for f in word.factors:
        if isinstance(f, PermFactor):
            m = SquareMatrix.permutation(ring, f.sigma)
        else:
            m = SquareMatrix.h_block(ring, f.a, f.b)
        acc = m if acc is None else acc * m
    return acc


def random_word(ring, n, rng):
    """A word of 1..4 s-factors whose entries are drawn at precisions
    down to 1."""
    top = ring.one.prec
    elem = lambda: ring.random_element(rng, rng.choice((top, top, rng.randint(1, top))))  # noqa: E731
    factors = [PermFactor(tuple(rng.sample(range(n), n)))]
    for _ in range(rng.randint(1, 4)):
        a = elem()
        while not a.is_unit():
            a = elem()
        factors += [SFactor(a, tuple(elem() for _ in range(n - 1))),
                    PermFactor(tuple(rng.sample(range(n), n)))]
    return DecompositionWord(n, tuple(factors))


class TestReconstruct:
    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_applying_the_factors_is_the_dense_product(self, name):
        ring = RINGS[name]
        rng = random.Random(f"apply:{name}")
        for n in range(1, 5):
            for _ in range(10):
                word = random_word(ring, n, rng)
                got, want = reconstruct(word, ring), dense_product(word, ring)
                assert (got.prec, got.vals) == (want.prec, want.vals)

    def test_an_s_entry_of_lower_precision_lowers_the_product(self, ring):
        b = (ring.from_int(7), ring.from_int(3).at_prec(1))
        word = DecompositionWord(3, (PermFactor((2, 0, 1)), SFactor(ring.from_int(2), b),
                                     PermFactor((0, 1, 2))))
        got, want = reconstruct(word, ring), dense_product(word, ring)
        assert got.prec == 1 and (got.prec, got.vals) == (want.prec, want.vals)

    def test_int_entries_are_taken(self, ring):
        word = DecompositionWord(2, (PermFactor((1, 0)), SFactor(ring.from_int(2), (3,)),
                                     PermFactor((0, 1))))
        assert reconstruct(word, ring) == SquareMatrix(ring, [[0, 1], [2, 3]])

    def test_an_element_of_another_ring_is_a_type_error(self, ring):
        other = make_ring(7, 3)
        for a, b in ((ring.from_int(2), (other.one,)), (other.one, (ring.one,))):
            word = DecompositionWord(2, (PermFactor((0, 1)), SFactor(a, b), PermFactor((0, 1))))
            with pytest.raises(TypeError):
                reconstruct(word, ring)


# W(Z/5^6), W(F_9)/3^4 and Q[[t]]/t^8: int residues, elements and series
H_RINGS = {"witt-m1": make_ring(5, 6), "witt-m2": make_ring(3, 4, 2), "series-t8": SeriesRing(8)}


def lowered_word(ring, n, rng):
    """A word whose s-factors have a known to a lower precision than b,
    or b entries at mixed precisions."""
    top = ring.one.prec
    factors = [PermFactor(tuple(rng.sample(range(n), n)))]
    for _ in range(rng.randint(1, 4)):
        low = rng.randint(1, top - 1)
        if rng.random() < 0.5:
            a, b = ring.random_unit(rng, low), [ring.random_element(rng) for _ in range(n - 1)]
        else:
            a = ring.random_unit(rng)
            b = [ring.random_element(rng, rng.randint(low, top)) for _ in range(n - 1)]
        factors += [SFactor(a, tuple(b)), PermFactor(tuple(rng.sample(range(n), n)))]
    return DecompositionWord(n, tuple(factors))


@pytest.mark.parametrize("name", sorted(H_RINGS))
@pytest.mark.parametrize("n", range(1, 5))
def test_reconstruct_makes_no_elimination_or_domain_inversion(name, n, eliminations, monkeypatch):
    ring = H_RINGS[name]
    inversions = []
    real_values, real_residues = rings.Values.invert, rings._Residues.invert
    monkeypatch.setattr(rings.Values, "invert",
                        staticmethod(lambda v: inversions.append(v) or real_values(v)))
    monkeypatch.setattr(rings._Residues, "invert",
                        lambda dom, v: inversions.append(v) or real_residues(dom, v))
    ring.values().invert(ring.values().from_elem(ring.one))
    assert inversions  # the patches see a domain inversion
    rng = random.Random(f"lowered:{name}:{n}")
    for _ in range(10):
        word = lowered_word(ring, n, rng)
        eliminations.clear()
        inversions.clear()
        got = reconstruct(word, ring)
        assert eliminations == [] and inversions == []
        want = dense_product(word, ring)
        assert (got.prec, got.vals) == (want.prec, want.vals)


class TestWordShape:
    def test_alternation_enforced(self, ring):
        ident = PermFactor((0, 1))
        s = SFactor(ring.one, (ring.zero,))
        with pytest.raises(ShapeError):
            DecompositionWord(2, (ident, ident, ident))
        with pytest.raises(ShapeError):
            DecompositionWord(2, (ident, s))

    def test_permutation_word_reconstructs_to_permutation(self, ring):
        w = DecompositionWord(
            2,
            (
                PermFactor((1, 0)),
                SFactor(ring.one, (ring.zero,)),
                PermFactor((0, 1)),
            ),
        )
        assert reconstruct(w, ring).is_permutation_matrix()

    def test_non_unit_s_entry_rejected(self, ring):
        w = DecompositionWord(
            2,
            (
                PermFactor((0, 1)),
                SFactor(ring.from_int(5), (ring.zero,)),
                PermFactor((0, 1)),
            ),
        )
        with pytest.raises(ShapeError):
            reconstruct(w, ring)

    def test_empty_word_is_rejected_as_decompose_rejects_its_matrix(self, ring):
        with pytest.raises(ShapeError, match="n >= 1"):
            reconstruct(DecompositionWord(0, (PermFactor(()),)), ring)

    def test_json_roundtrip(self, ring):
        x = SquareMatrix(ring, [[1, 2], [3, 4]])
        word = decompose(x)
        back = DecompositionWord.from_json(ring, word.to_json())
        assert reconstruct(back, ring) == x


PRECONDITION_RINGS = {**RINGS, "witt-m3": make_ring(3, 2, 3)}


def ref_precondition_order(x):
    """The search that ``precondition`` replaced: the first row order, in
    ``itertools.permutations`` order, whose permuted matrix is admissible."""
    n = x.n
    return next(s for s in permutations(range(n)) if is_admissible(x.permuted(s, range(n))))


def sparse_unit_det_rows(ring, n, rng):
    """Rows of a matrix of unit determinant, about half of whose entries
    are zero and the rest drawn at precisions down to one below the
    ring's, some of them times the uniformizer."""
    top, pi = ring.one.prec, uniformizer(ring)
    while True:
        rows = [[ring.zero if rng.random() < 0.5 else
                 ring.random_element(rng, rng.choice((top, top, top - 1))) * pi ** rng.choice((0, 0, 1))
                 for _ in range(n)] for _ in range(n)]
        if SquareMatrix(ring, rows).is_unit():
            return rows


class TestPrecondition:
    @pytest.mark.parametrize("name", sorted(PRECONDITION_RINGS))
    def test_first_admissible_row_order_of_the_search(self, name):
        ring = PRECONDITION_RINGS[name]
        rng = random.Random(f"precondition:{name}")
        moved = total = 0
        for n in range(1, 6):
            for _ in range(16):
                x = SquareMatrix(ring, sparse_unit_det_rows(ring, n, rng))
                sigma = ref_precondition_order(x)
                want = (SquareMatrix.permutation(ring, sigma), SquareMatrix.identity(ring, n),
                        x.permuted(sigma, range(n)))
                got = precondition(x)
                for g, w in zip(got, want):
                    assert g.vals == w.vals and g.prec == w.prec, (n, sigma)
                assert is_admissible(got[2])
                moved += sigma != tuple(range(n))
                total += 1
        assert moved >= total / 4, (moved, total)

    def test_antidiagonal_of_size_eleven_is_prompt(self, ring, deadline):
        # the search took the 11!-th row order here, the reversal
        n = 11
        x = SquareMatrix(ring, [[int(i + j == n - 1) for j in range(n)] for i in range(n)])
        with deadline(1):
            wl, wr, xp = precondition(x)
        assert wl == SquareMatrix.permutation(ring, range(n - 1, -1, -1))
        assert wr == SquareMatrix.identity(ring, n) and xp == SquareMatrix.identity(ring, n)

    def test_x_then_each_block_but_the_last_is_inverted_once(self, ring, eliminations):
        rng = random.Random(35)
        for n in range(1, 6):
            g = random_gl(ring, n, rng)
            eliminations.clear()
            xp = precondition(SquareMatrix(ring, g.rows))[2]
            # column 0's block is x, whose inversion also gives det x
            assert eliminations == [(n, True), *((k, True) for k in range(n - 1, 1, -1))]
            # x' keeps the determinant: decompose only inverts its trailing blocks
            eliminations.clear()
            decompose(xp)
            assert eliminations == [(k, True) for k in range(n - 1, 0, -1)]
            # a sample knows its inverse, so nothing of its size is eliminated
            eliminations.clear()
            precondition(g)
            assert eliminations == [(k, True) for k in range(n - 1, 1, -1)]

    def test_admissible_is_fixed(self, ring):
        x = SquareMatrix(ring, [[1, 2], [3, 4]])
        wl, wr, xp = precondition(x)
        assert wl == SquareMatrix.identity(ring, 2)
        assert wr == SquareMatrix.identity(ring, 2)
        assert xp == x

    def test_antidiagonal(self, ring):
        x = SquareMatrix(ring, [[0, 1], [1, 0]])
        wl, wr, xp = precondition(x)
        assert is_admissible(xp)
        assert wl * x * wr == xp

    def test_non_unit_det_rejected(self, ring):
        x = SquareMatrix(ring, [[5, 0], [0, 1]])
        with pytest.raises(NonUnitError, match="^determinant is not a unit: ") as info:
            precondition(x)
        assert info.value.element == x.det()

    def test_admissible_identity_of_size_ten_is_prompt(self, ring, deadline):
        # an admissible matrix keeps its row order
        x = SquareMatrix.identity(ring, 10)
        with deadline(1):
            wl, wr, xp = precondition(x)
        assert wl == x and wr == x and xp == x

    def test_enables_decomposition(self, ring):
        rng = random.Random(32)
        for _ in range(10):
            x = random_gl(ring, 3, rng)
            wl, wr, xp = precondition(x)
            word = decompose(xp)
            assert wl.invert() * reconstruct(word, ring) * wr.invert() == x
