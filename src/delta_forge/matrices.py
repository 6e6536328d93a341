"""Square matrices over the ring backends, with exact linear solving.

A matrix has one precision, the least among the elements it is built
from, and holds its entries in the coefficient domain ``rings.Values``
that jet polynomials use.  Both backends are local rings with uniformizer
pi (p on W, t on Q[[t]]), so every nonzero value is pi^v times a unit, and
an entry divisible by a pivot's power of pi is cleared by it exactly.  One
elimination kernel, pivoting on an entry of least valuation, gives the
determinant of every matrix, the unit test, the inverse and linear solving
in O(n^3); a matrix is invertible exactly when every pivot is a unit.  It
clears the rows above a unit pivot only for the inverse and for solving,
whose rows carry columns beyond the matrix; the determinant alone needs
only the rows below.

A matrix is eliminated at most once per job and keeps what it found:
the determinant (which also answers the unit test) and the inverse each
come from at most one elimination, an inversion gives the determinant
too, and a second request costs nothing.  So a matrix's ``vals`` must
never be mutated.
"""

from __future__ import annotations

from functools import reduce
from operator import add, sub

from .errors import (
    InconsistentSystemError,
    InputError,
    NonUnitError,
    ShapeError,
    SingularPivotError,
)
from .rings import ARITHMETIC, Values, dot, same_ring
from .serialize import elem_from_json, elem_to_json


class SquareMatrix:
    """Immutable n x n matrix at one precision ``prec``: ``vals`` holds the
    normal forms of its entries in ``dom = Values(ring, prec)``, and
    ``[i, j]`` and ``rows`` give them back as elements.

    ``_elim`` keeps what elimination found: None before any, else
    (det, inverse) with the determinant's normal form and the inverse,
    None until an augmented pass has produced it (or for ever, on a
    matrix whose determinant is not a unit).  The inverse holds no
    reference back, so the memo makes no reference cycle."""

    __slots__ = ("ring", "n", "prec", "dom", "vals", "_elim")

    def __init__(self, ring, rows):
        """The matrix of ``rows``, whose entries are what ``_element`` takes."""
        rows = [[_element(ring, e) for e in r] for r in rows]
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ShapeError("matrix rows must all have length n >= 1")
        dom = Values(ring, min(e.prec for r in rows for e in r))
        self.ring, self.n, self.prec, self.dom = ring, len(rows), dom.prec, dom
        self.vals = [[dom.from_elem(e) for e in r] for r in rows]
        self._elim = None

    @classmethod
    def _of(cls, dom, vals):
        """The matrix of the normal forms ``vals`` in ``dom``."""
        m = cls.__new__(cls)
        m.ring, m.n, m.prec, m.dom, m.vals = dom.ring, len(vals), dom.prec, dom, vals
        m._elim = None
        return m

    @property
    def rows(self):
        return tuple(tuple(map(self.dom.to_elem, r)) for r in self.vals)

    @classmethod
    def identity(cls, ring, n):
        return cls.permutation(ring, range(n))

    @classmethod
    def zero(cls, ring, n):
        return cls(ring, [[0] * n for _ in range(n)])

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
        if not n:
            raise ShapeError("matrix rows must all have length n >= 1")
        dom = Values(ring, ring.one.prec)
        one, zero = dom.from_elem(ring.one), dom.from_elem(ring.zero)
        ident = cls._of(dom, [[one if j == i else zero for j in range(n)] for i in range(n)])
        return ident.permuted(sigma, range(n))

    @classmethod
    def h_block(cls, ring, a, b):
        """The point [[a, b], [0, 1_{n-1}]] of the subgroup H, n = len(b) + 1."""
        n = len(b) + 1
        one, zero = ring.one, ring.zero
        rows = [[a, *b]] + [[zero] * i + [one] + [zero] * (n - 1 - i) for i in range(1, n)]
        return cls(ring, rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.dom.to_elem(self.vals[i][j])

    def __repr__(self):
        return f"SquareMatrix({[[repr(e) for e in r] for r in self.rows]})"

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix) or other.n != self.n:
            return NotImplemented
        return not any(map(any, (self - other).vals))

    __hash__ = None

    def reduce_prec(self, prec):
        """The matrix at precision min(prec, self.prec).  At or above its
        own precision that is the matrix itself, which is never mutated."""
        if prec >= self.prec:
            return self
        dom = Values(self.ring, prec)
        return SquareMatrix._of(dom, [list(map(dom.reduce, r)) for r in self.vals])

    def _dom(self, other):
        """The domain of a sum or product with ``other``, which must be a
        matrix of the same size over the same ring."""
        if not same_ring(self.ring, other.ring):
            raise TypeError("matrices over different rings")
        if other.n != self.n:
            raise ShapeError(f"matrix sizes differ: {self.n} and {other.n}")
        return self.dom if self.prec <= other.prec else other.dom

    def _entrywise(self, other, op):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        dom = self._dom(other)
        red = dom.reduce
        return SquareMatrix._of(
            dom, [[red(op(a, b)) for a, b in zip(r1, r2)] for r1, r2 in zip(self.vals, other.vals)]
        )

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def __mul__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        dom = self._dom(other)
        red, cols = dom.reduce, list(zip(*other.vals))
        return SquareMatrix._of(dom, [[red(dot(r, c)) for c in cols] for r in self.vals])

    def _scalar(self, c):
        """The domain of self combined with the scalar c, at the lesser of
        their precisions, and c's value in it."""
        c = _element(self.ring, c)
        dom = self.dom if c.prec >= self.prec else Values(self.ring, c.prec)
        return dom, dom.from_elem(c)

    def scale(self, c):
        """c * self for a scalar c that ``_element`` takes."""
        dom, x = self._scalar(c)
        red = dom.reduce
        return SquareMatrix._of(dom, [[red(x * v) for v in r] for r in self.vals])

    def add_scalar(self, c):
        """self + c * 1_n for a scalar c that ``_element`` takes."""
        dom, x = self._scalar(c)
        red = dom.reduce
        vals = [list(map(red, r)) for r in self.vals]
        for i, r in enumerate(vals):
            r[i] = red(r[i] + x)
        return SquareMatrix._of(dom, vals)

    def trace(self):
        return self.dom.to_elem(reduce(add, (r[i] for i, r in enumerate(self.vals))))

    def det(self):
        if self._elim is None:
            self._elim = (_eliminate(self.dom, [list(r) for r in self.vals], self.n)[1], None)
        return self.dom.to_elem(self._elim[0])

    def is_unit(self):
        return self.det().is_unit()

    def invert(self):
        n, dom = self.n, self.dom
        memo = self._elim
        if memo is None or (memo[1] is None and dom.is_unit(memo[0])):
            one, zero = dom.from_elem(self.ring.one), dom.from_elem(self.ring.zero)
            aug = [r + [zero] * i + [one] + [zero] * (n - 1 - i) for i, r in enumerate(self.vals)]
            d = _eliminate(dom, aug, n)[1]
            inv = SquareMatrix._of(dom, [r[n:] for r in aug]) if dom.is_unit(d) else None
            memo = self._elim = (d, inv)
        if memo[1] is None:
            raise NonUnitError(dom.to_elem(memo[0]), "matrix determinant is not a unit")
        return memo[1]

    def permuted(self, rows, cols):
        """permutation(rows) * self * permutation(cols), by re-indexing:
        entry (i, j) is self[rows[i], k] for the k with cols[k] = j."""
        for sigma in (rows, cols):
            if sorted(sigma) != list(range(self.n)):
                raise ShapeError(f"not a permutation: {sigma}")
        inv = sorted(range(self.n), key=cols.__getitem__)
        return SquareMatrix._of(self.dom, [[self.vals[i][k] for k in inv] for i in rows])

    def block(self, r0, r1, c0, c1):
        return SquareMatrix._of(self.dom, [r[c0:c1] for r in self.vals[r0:r1]])

    def is_permutation_matrix(self):
        # the only candidate has its ones at the first nonzero entry of each row
        sigma = [next((j for j, v in enumerate(r) if v), 0) for r in self.vals]
        if sorted(sigma) != list(range(self.n)):
            return False
        return self == SquareMatrix.permutation(self.ring, sigma)

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


def _element(ring, x):
    """x as an element of ``ring``, taking what element arithmetic takes:
    an element of ``ring`` or of a ring that mixes with it, an int, or on
    Q[[t]] a Fraction.  Anything else raises TypeError."""
    e = ring.one._coerce(x)
    if e is None:
        raise TypeError(f"not a value of {ring!r}: {x!r}")
    return e


def _eliminate(dom, aug, ncols):
    """Gauss-Jordan on the rows ``aug`` of normal forms in ``dom``, in
    place, over their first ``ncols`` columns.  Each column pivots on its
    first entry of least valuation at or below the pivot row, found
    without any valuation when it is a unit.  The pivot row is scaled so
    that its pivot pi^v * w, w a unit, reads pi^v; then each entry pi^v * c
    below it is cleared with the exact multiplier c.  A unit pivot clears
    the rows above as well, but only when the rows have columns beyond
    ``ncols`` (an inverse or a right-hand side to finish): the
    determinant never reads those rows again.  Returns (pivots, det,
    stop): the row of each column's pivot (None for a column that
    vanishes at and below the pivot row, which is skipped and makes det
    zero, or for one never reached), the signed pivot product, which on a
    square ``aug`` is the determinant, and the first column whose pivot
    is not a unit, if any."""
    m, width = len(aug), len(aug[0])
    red, is_unit, valuation, div_pi = dom.reduce, dom.is_unit, dom.valuation, dom.div_pi
    pivots = [None] * ncols
    det, swaps, prow, stop = None, 0, 0, None
    for col in range(ncols):
        if prow == m:
            break
        sel, v = next((r for r in range(prow, m) if is_unit(aug[r][col])), None), 0
        if sel is None:
            v, sel = min((valuation(aug[r][col]), r) for r in range(prow, m))
            if v == dom.prec:
                det = aug[sel][col]  # zero, and so is the determinant
                continue
            if stop is None:
                stop = col
        if sel != prow:
            aug[prow], aug[sel] = aug[sel], aug[prow]
            swaps += 1
        row = aug[prow]
        det = row[col] if det is None else red(det * row[col])
        # entries left of col are final, and col itself is never read again;
        # with nothing right of it (the last column of det) no scaling is due
        if col + 1 < width:
            inv = dom.invert(div_pi(row[col], v) if v else row[col])
            for j in range(col + 1, width):
                row[j] = red(inv * row[j])
        for other in aug if not v and width > ncols else aug[prow + 1:]:
            if other is row:
                continue
            c = other[col]
            if c:
                c = div_pi(c, v) if v else c
                for j in range(col + 1, width):
                    other[j] = red(other[j] - c * row[j])
        pivots[col] = prow
        prow += 1
    return pivots, (red(-det) if swaps % 2 else det), stop


def solve_linear(ring, rows, rhs):
    """Solve A x = b exactly; requires unit pivots.  The solution has the
    least precision among the entries of A and b.

    Raises SingularPivotError with the column and valuation of the first
    pivot that is not a unit, and InconsistentSystemError when eliminated
    rows leave a nonzero right-hand side.
    """
    if not rows:
        return []
    m, k = len(rows), len(rows[0])
    dom = Values(ring, min(e.prec for r in (*rows, rhs) for e in r))
    aug = [[dom.from_elem(e) for e in (*r, b)] for r, b in zip(rows, rhs)]
    pivots, _, stop = _eliminate(dom, aug, k)
    if stop is not None:
        raise SingularPivotError(stop, dom.valuation(aug[pivots[stop]][stop]))
    prow = len(pivots) - pivots.count(None)
    for r in range(prow, m):
        if aug[r][k]:
            raise InconsistentSystemError(f"residual {dom.to_elem(aug[r][k])!r} in eliminated row {r}")
    if None in pivots:
        raise SingularPivotError(pivots.index(None), None)
    return [dom.to_elem(aug[r][k]) for r in pivots]


# ---------------------------------------------------------------------------
# sampling


def random_gl(ring, n, rng):
    """Uniform entries at the ring's full precision, resampled until the
    determinant is a unit.  Each entry is drawn as a value, with the same
    draws on ``rng`` as ``ring.random_element``."""
    if n < 1:
        raise ShapeError("matrix rows must all have length n >= 1")
    dom = Values(ring, ring.one.prec)
    while True:
        m = SquareMatrix._of(dom, [[dom.random(rng) for _ in range(n)] for _ in range(n)])
        if m.is_unit():
            return m


def random_sl(ring, n, rng):
    """GL sample with the first row scaled by det^{-1} in its values; the
    determinant is the one ``random_gl`` accepted the sample on."""
    g = random_gl(ring, n, rng)
    dom = g.dom
    dinv = dom.invert(g._elim[0])
    return SquareMatrix._of(dom, [[dom.reduce(dinv * v) for v in g.vals[0]], *g.vals[1:]])


def random_constant_gl(ring, n, rng):
    """Invertible matrix with delta-constant entries."""
    while True:
        if ring.kind == ARITHMETIC:
            entries = [
                [ring.teichmueller([rng.randrange(ring.p) for _ in range(ring.m)])
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
