import random

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
    trailing_minors,
)
from delta_forge.decomp import expected_word_length, is_admissible
from delta_forge.errors import NonUnitError, NonUnitMinorError, ShapeError
from delta_forge.rings import make_ring


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

    def test_json_roundtrip(self, ring):
        x = SquareMatrix(ring, [[1, 2], [3, 4]])
        word = decompose(x)
        back = DecompositionWord.from_json(ring, word.to_json())
        assert reconstruct(back, ring) == x


class TestPrecondition:
    def test_admissible_is_fixed(self, ring):
        x = SquareMatrix(ring, [[1, 2], [3, 4]])
        wl, wr, xp = precondition(x, seed=1)
        assert wl == SquareMatrix.identity(ring, 2)
        assert wr == SquareMatrix.identity(ring, 2)
        assert xp == x

    def test_antidiagonal(self, ring):
        x = SquareMatrix(ring, [[0, 1], [1, 0]])
        wl, wr, xp = precondition(x, seed=2)
        assert is_admissible(xp)
        assert wl * x * wr == xp

    def test_non_unit_det_rejected(self, ring):
        x = SquareMatrix(ring, [[5, 0], [0, 1]])
        with pytest.raises(NonUnitError):
            precondition(x, seed=3)

    def test_admissible_identity_of_size_ten_is_prompt(self, ring, deadline):
        # the first of the 4 * 10! candidates is taken without listing the rest
        x = SquareMatrix.identity(ring, 10)
        with deadline(1):
            wl, wr, xp = precondition(x, seed=5)
        assert wl == x and wr == x and xp == x

    def test_enables_decomposition(self, ring):
        rng = random.Random(32)
        for _ in range(10):
            x = random_gl(ring, 3, rng)
            wl, wr, xp = precondition(x, seed=4)
            word = decompose(xp)
            assert wl.invert() * reconstruct(word, ring) * wr.invert() == x
