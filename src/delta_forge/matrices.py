"""Square matrices over the ring backends, with exact linear solving.

Both backends are local rings, so a matrix is invertible exactly when
Gauss-Jordan elimination finds a unit pivot in every column.  That one
kernel gives the determinant, the unit test, the inverse and linear
solving in O(n^3); cofactor expansion only reports the exact value of a
determinant that is not a unit.
"""

from __future__ import annotations

from .errors import (
    InconsistentSystemError,
    InputError,
    NonUnitError,
    ShapeError,
    SingularPivotError,
)
from .rings import ARITHMETIC, dot
from .serialize import elem_from_json, elem_to_json


class SquareMatrix:
    """Immutable n x n matrix of ring elements."""

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.n = len(rows)
        self.rows = tuple(tuple(r) for r in rows)
        if not self.rows or any(len(r) != self.n for r in self.rows):
            raise ShapeError("matrix rows must all have length n >= 1")

    @classmethod
    def from_rows(cls, ring, rows):
        conv = [
            [ring.from_int(e) if isinstance(e, int) else e for e in row]
            for row in rows
        ]
        return cls(ring, conv)

    @classmethod
    def identity(cls, ring, n):
        return cls.from_rows(
            ring, [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zero(cls, ring, n):
        return cls.from_rows(ring, [[0] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, ring, entries):
        n = len(entries)
        z = ring.zero
        return cls(
            ring,
            [[entries[i] if i == j else z for j in range(n)] for i in range(n)],
        )

    @classmethod
    def permutation(cls, ring, sigma):
        """Permutation matrix M with M[i][sigma[i]] = 1."""
        n = len(sigma)
        if sorted(sigma) != list(range(n)):
            raise ShapeError(f"not a permutation: {sigma}")
        return cls.from_rows(
            ring, [[1 if j == sigma[i] else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def h_block(cls, ring, a, b):
        """The point [[a, b], [0, 1_{n-1}]] of the subgroup H, n = len(b) + 1."""
        n = len(b) + 1
        one, zero = ring.one, ring.zero
        rows = [[a, *b]] + [[zero] * i + [one] + [zero] * (n - 1 - i) for i in range(1, n)]
        return cls(ring, rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        return f"SquareMatrix({[[repr(e) for e in r] for r in self.rows]})"

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix) or other.n != self.n:
            return NotImplemented
        return all(
            self.rows[i][j] == other.rows[i][j]
            for i in range(self.n)
            for j in range(self.n)
        )

    __hash__ = None

    def map(self, fn):
        return SquareMatrix(self.ring, [[fn(e) for e in r] for r in self.rows])

    def min_prec(self):
        return min(e.prec for r in self.rows for e in r)

    def reduce_prec(self, prec):
        return self.map(lambda e: e.at_prec(min(prec, e.prec)))

    def __add__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return SquareMatrix(
            self.ring,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return SquareMatrix(
            self.ring,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self):
        return self.map(lambda e: -e)

    def __mul__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        cols = list(zip(*other.rows))
        return SquareMatrix(self.ring, [[dot(r, c) for c in cols] for r in self.rows])

    def scale(self, c):
        if isinstance(c, int):
            c = self.ring.from_int(c)
        return self.map(lambda e: c * e)

    def trace(self):
        acc = self.rows[0][0]
        for i in range(1, self.n):
            acc = acc + self.rows[i][i]
        return acc

    def det(self):
        pivots, d, _ = _eliminate([list(r) for r in self.rows], self.n)
        return _det(self.rows) if None in pivots else d.at_prec(self.min_prec())

    def is_unit(self):
        return None not in _eliminate([list(r) for r in self.rows], self.n)[0]

    def invert(self):
        n, one, zero = self.n, self.ring.one, self.ring.zero
        aug = [list(r) + [zero] * i + [one] + [zero] * (n - 1 - i)
               for i, r in enumerate(self.rows)]
        if None in _eliminate(aug, n)[0]:
            raise NonUnitError(_det(self.rows), "matrix determinant is not a unit")
        # like the adjugate, each entry depends on every entry of the matrix
        prec = self.min_prec()
        return SquareMatrix(self.ring, [[e.at_prec(prec) for e in r[n:]] for r in aug])

    def block(self, r0, r1, c0, c1):
        return SquareMatrix(
            self.ring, [list(r[c0:c1]) for r in self.rows[r0:r1]]
        )

    def is_permutation_matrix(self):
        one, zero = self.ring.one, self.ring.zero
        for r in self.rows:
            if sum(1 for e in r if e == one) != 1:
                return False
            if any(not (e == one or e == zero) for e in r):
                return False
        for c in zip(*self.rows):
            if sum(1 for e in c if e == one) != 1:
                return False
        return True

    def to_json(self):
        return {"n": self.n, "rows": [[elem_to_json(e) for e in r] for r in self.rows]}

    @classmethod
    def from_json(cls, ring, obj):
        rows = obj.get("rows") if isinstance(obj, dict) else None
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputError('matrix must be {"n": n, "rows": [[...], ...]}')
        rows = [[elem_from_json(ring, e) for e in r] for r in rows]
        if len(rows) != obj.get("n", len(rows)):
            raise InputError("matrix row count disagrees with n")
        return cls(ring, rows)


def _eliminate(aug, ncols):
    """Gauss-Jordan on the row lists ``aug``, in place, over their first
    ``ncols`` columns, pivoting on the first unit at or below the pivot
    row.  Returns (pivots, det, stop): the row of each column's pivot (None
    for an all-zero column, which is skipped, or one never reached), the
    signed pivot product, and the column with no unit pivot that stopped
    the reduction, if any."""
    m, width = len(aug), len(aug[0])
    pivots = [None] * ncols
    det, swaps, prow = None, 0, 0
    for col in range(ncols):
        if prow == m:
            break
        sel = next((r for r in range(prow, m) if aug[r][col].is_unit()), None)
        if sel is None:
            if all(aug[r][col].is_zero() for r in range(prow, m)):
                continue
            return pivots, det, col
        if sel != prow:
            aug[prow], aug[sel] = aug[sel], aug[prow]
            swaps += 1
        row = aug[prow]
        det = row[col] if det is None else det * row[col]
        # entries left of col are final, and col itself is never read again;
        # with nothing right of it (the last column of det) no inverse is due
        if col + 1 < width:
            inv = row[col].invert()
            for j in range(col + 1, width):
                row[j] = inv * row[j]
        for other in aug:
            if other is row:
                continue
            c = other[col]
            if not c.is_zero():
                for j in range(col + 1, width):
                    other[j] = other[j] - c * row[j]
            else:
                # skipping e - c * pe keeps e only to the precision of c
                for j in range(col + 1, width):
                    if other[j].prec > c.prec:
                        other[j] = other[j].at_prec(c.prec)
        pivots[col] = prow
        prow += 1
    return pivots, (-det if swaps % 2 else det), None


def solve_linear(ring, rows, rhs):
    """Solve A x = b exactly; requires unit pivots.

    Raises SingularPivotError when some needed column has no unit pivot
    and InconsistentSystemError when eliminated rows leave a nonzero
    right-hand side.
    """
    if not rows:
        return []
    m, k = len(rows), len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots, _, stop = _eliminate(aug, k)
    prow = len(pivots) - pivots.count(None)
    if stop is not None:
        col = [aug[r][stop] for r in range(prow, m)]
        raise SingularPivotError(stop, min(e.valuation() for e in col if not e.is_zero()))
    for r in range(prow, m):
        if not aug[r][k].is_zero():
            raise InconsistentSystemError(f"residual {aug[r][k]!r} in eliminated row {r}")
    if None in pivots:
        raise SingularPivotError(pivots.index(None), None)
    return [aug[r][k] for r in pivots]


def _det(rows):
    """Cofactor expansion: the exact value of a non-unit determinant."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


# ---------------------------------------------------------------------------
# sampling


def random_gl(ring, n, rng):
    """Uniform entries, resampled until the determinant is a unit."""
    while True:
        m = SquareMatrix(
            ring, [[ring.random_element(rng) for _ in range(n)] for _ in range(n)]
        )
        if m.is_unit():
            return m


def random_sl(ring, n, rng):
    """GL sample with the first row scaled by det^{-1}."""
    g = random_gl(ring, n, rng)
    dinv = g.det().invert()
    rows = [list(r) for r in g.rows]
    rows[0] = [dinv * e for e in rows[0]]
    return SquareMatrix(ring, rows)


def random_constant_gl(ring, n, rng):
    """Invertible matrix with delta-constant entries."""
    while True:
        if ring.kind == ARITHMETIC:
            entries = [
                [ring.teichmueller(rng.randrange(ring.q) if ring.m == 1
                                   else [rng.randrange(ring.p) for _ in range(ring.m)])
                 for _ in range(n)]
                for _ in range(n)
            ]
        else:
            entries = [
                [ring.from_rational(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(n)
            ]
        m = SquareMatrix(ring, entries)
        if m.is_unit():
            return m
