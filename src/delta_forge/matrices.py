"""Square matrices over the ring backends, with exact linear solving.

A matrix has one precision, the least among the elements it is built from,
and holds its entries in ``ring.values(prec)``, the ring's one coefficient
domain at that precision, which jet polynomials use too: int residues on
W(Z/p^N) (``_Residues``), elements on W(F_q) with m >= 2 (``Values``) and
on Q[[t]] (``_Series``).  Both backends are local rings with uniformizer
pi (p on W, t on Q[[t]]), so every nonzero value is pi^v times a unit, and
an entry divisible by a pivot's power of pi is cleared by it exactly.  One
elimination kernel, pivoting on an entry of least valuation, gives the
determinant of every matrix, the unit test, the inverse and linear solving
in O(n^3); a matrix is invertible exactly when every pivot is a unit.  It
clears the rows above a unit pivot only for the inverse and for solving,
whose rows carry columns beyond the matrix; the determinant alone needs
only the rows below.

The elimination clears the rows under (and for Gauss-Jordan, over) each
pivot through one hook, the domain's ``clear``.  On W it is the element
loop.  On Q[[t]]/t^K it Kronecker-packs each pivot-row entry right of the
pivot once per column and each multiplier once per row it clears, in
signed slots wide enough for K products (bits of the largest multiplier
numerator, plus bits of the largest entry numerator, plus bits(K), plus a
sign bit), so each entry update is one big-int product, one unpack and one
normal form.

A product runs one kernel over the operands the domain's
``product_operands`` hands back: entry (i, j) is
finish(total(map(mul, rows[i], cols[j]))).  On W those are the values
themselves, a sum, and ``reduce``.  On Q[[t]]/t^K each entry is
Kronecker-packed once per product into one int, in signed slots wide
enough for a sum of n products (bits of the largest numerator of each
operand, plus bits(n K), plus a sign bit), so each of the n^3 entry
products is one big-int multiply.

A matrix is eliminated at most once per job and keeps what it found:
the determinant (which also answers the unit test) and the inverse each
come from at most one elimination, an inversion gives the determinant
too, and a second request costs nothing.  So a matrix's ``vals`` must
never be mutated.  A product a * b of two matrices that both know their
determinants keeps them until its own memo is set: its determinant is
det a * det b, and its inverse b^-1 * a^-1, each factor inverted at most
once and into its own memo.  That pays when the factors' inverses are
used too, as in the cocycle law f(ab) = f(a) + a f(b) a^-1, where every
library handle inverts its argument.  A row or column permutation keeps
a known determinant, up to sign.

A sampled GL_n point costs one elimination.  ``random_gl`` makes one
augmented pass at full precision per try and keeps the draw when that
pass finds an inverse, so the accepted sample comes back knowing its
determinant and inverse, which the callers (the cocycle law, the
logarithmic derivative, ``precondition``) all use; ``random_sl`` builds
its point's memo from that one without an elimination of its own.  A
point [[a, b], [0, 1_{n-1}]] of the subgroup H costs none: ``h_block``
sets its determinant a and, for a unit a, its inverse
[[a^-1, -a^-1 b], [0, 1_{n-1}]] from its shape.  Nor does a point
u^-1 diag(d) u of a conjugated torus: ``conjugated_diagonal`` sets its
determinant, the product of the d_i, and for unit d_i its inverse
u^-1 diag(d^-1) u, once u itself is inverted.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import add, mul, sub

from .errors import (
    InconsistentSystemError,
    InputError,
    NonUnitError,
    ShapeError,
    SingularPivotError,
)
from .rings import ARITHMETIC, same_ring
from .serialize import elem_from_json, elem_to_json


class SquareMatrix:
    """Immutable n x n matrix at one precision ``prec``: ``vals`` holds the
    normal forms of its entries in ``dom = ring.values(prec)``, and
    ``[i, j]`` and ``rows`` give them back as elements.

    ``_elim`` keeps what elimination found: None before any, else
    (det, inverse) with the determinant's normal form and the inverse,
    None until an augmented pass has produced it (or for ever, on a
    matrix whose determinant is not a unit).  The inverse holds no
    reference back, so the memo makes no reference cycle.  A product of
    two matrices that both know their determinants keeps them in
    ``_factors`` until its own memo is set; so a chain of products holds
    no chain of factors."""

    __slots__ = ("ring", "n", "prec", "dom", "vals", "_elim", "_factors")

    def __init__(self, ring, rows):
        """The matrix of ``rows``, whose entries are what ``_element`` takes."""
        rows = [[_element(ring, e) for e in r] for r in rows]
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ShapeError("matrix rows must all have length n >= 1")
        dom = ring.values(min(e.prec for r in rows for e in r))
        self.ring, self.n, self.prec, self.dom = ring, len(rows), dom.prec, dom
        self.vals = [[dom.from_elem(e) for e in r] for r in rows]
        self._elim = self._factors = None

    @classmethod
    def _of(cls, dom, vals, factors=None):
        """The matrix of the normal forms ``vals`` in ``dom``; ``factors``
        is the pair (a, b) of a product a * b."""
        m = cls.__new__(cls)
        m.ring, m.n, m.prec, m.dom, m.vals = dom.ring, len(vals), dom.prec, dom, vals
        m._elim, m._factors = None, factors
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
        dom = ring.values()
        one, zero = dom.from_elem(ring.one), dom.from_elem(ring.zero)
        ident = cls._of(dom, [[one if j == i else zero for j in range(n)] for i in range(n)])
        return ident.permuted(sigma, range(n))

    @classmethod
    def h_block(cls, ring, a, b):
        """The point [[a, b], [0, 1_{n-1}]] of the subgroup H, n = len(b) + 1.
        It knows its determinant, a, and for a unit a its inverse
        [[a^-1, -a^-1 b], [0, 1_{n-1}]], without an elimination."""
        n = len(b) + 1
        one, zero = ring.one, ring.zero
        rows = [[a, *b]] + [[zero] * i + [one] + [zero] * (n - 1 - i) for i in range(1, n)]
        h = cls(ring, rows)
        dom, (d, *bv) = h.dom, h.vals[0]
        inv = None
        if dom.is_unit(d):
            ainv, red = dom.invert(d), dom.reduce
            inv = cls._of(dom, [[ainv, *(red(-ainv * v) for v in bv)], *h.vals[1:]])
        h._elim = (d, inv)
        return h

    @classmethod
    def conjugated_diagonal(cls, u, entries):
        """The point u^-1 diag(entries) u of the torus conjugated by an
        invertible u, for entries that ``_element`` takes.  It knows its
        determinant, the product of the entries, and for unit entries its
        inverse u^-1 diag(entries^-1) u, without an elimination: each is
        u^-1 times u with its rows scaled, in their values.  u is inverted
        at most once, into its own memo."""
        if len(entries) != u.n:
            raise ShapeError(f"{len(entries)} diagonal entries for a matrix of size {u.n}")
        ring, uinv = u.ring, u.invert()
        entries = [_element(ring, e) for e in entries]
        dom = ring.values(min(u.prec, *(e.prec for e in entries)))
        red, xs = dom.reduce, [dom.from_elem(e) for e in entries]

        def conjugate(scales):
            return uinv * cls._of(dom, [[red(v * x) for v in r] for x, r in zip(scales, u.vals)])

        d = reduce(lambda a, b: red(a * b), xs)
        g = conjugate(xs)
        g._elim = (d, conjugate(map(dom.invert, xs)) if dom.is_unit(d) else None)
        return g

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
        dom = self.ring.values(prec)
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
        rows, cols, total, finish = dom.product_operands(self.vals, other.vals)
        vals = [[finish(total(map(mul, r, c))) for c in cols] for r in rows]
        return SquareMatrix._of(dom, vals, (self, other) if self._elim and other._elim else None)

    def _scalar(self, c):
        """The domain of self combined with the scalar c, at the lesser of
        their precisions, and c's value in it."""
        c = _element(self.ring, c)
        dom = self.dom if c.prec >= self.prec else self.ring.values(c.prec)
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
            self._memo(False)
        return self.dom.to_elem(self._elim[0])

    def is_unit(self):
        return self.det().is_unit()

    def invert(self):
        dom, memo = self.dom, self._elim
        if memo is None or (memo[1] is None and dom.is_unit(memo[0])):
            memo = self._memo(True)
        if memo[1] is None:
            raise NonUnitError(dom.to_elem(memo[0]), "matrix determinant is not a unit")
        return memo[1]

    def _memo(self, augmented):
        """Set ``_elim`` to (det, inverse), the inverse only if ``augmented``
        and det is a unit, and drop the factors.  A product that kept its
        factors a and b takes det a * det b, and b^-1 * a^-1 with each
        inverse in its factor's memo; anything else is eliminated, over
        [A | 1] when ``augmented``."""
        n, dom, pair = self.n, self.dom, self._factors
        if pair:
            a, b = pair
            d = dom.reduce(a._elim[0] * b._elim[0])
            inv = b.invert() * a.invert() if augmented and dom.is_unit(d) else None
        elif augmented:
            one, zero = dom.from_elem(self.ring.one), dom.from_elem(self.ring.zero)
            aug = [r + [zero] * i + [one] + [zero] * (n - 1 - i) for i, r in enumerate(self.vals)]
            d = _eliminate(dom, aug, n)[1]
            inv = SquareMatrix._of(dom, [r[n:] for r in aug]) if dom.is_unit(d) else None
        else:
            d, inv = _eliminate(dom, [list(r) for r in self.vals], n)[1], None
        self._elim, self._factors = (d, inv), None
        return self._elim

    def permuted(self, rows, cols):
        """permutation(rows) * self * permutation(cols), by re-indexing:
        entry (i, j) is self[rows[i], k] for the k with cols[k] = j.  A
        known determinant carries over, times sgn(rows) * sgn(cols)."""
        for sigma in (rows, cols):
            if sorted(sigma) != list(range(self.n)):
                raise ShapeError(f"not a permutation: {sigma}")
        inv = sorted(range(self.n), key=cols.__getitem__)
        out = SquareMatrix._of(self.dom, [[self.vals[i][k] for k in inv] for i in rows])
        if self._elim is not None:
            d = self._elim[0]
            out._elim = (d if _is_even(rows) == _is_even(cols) else self.dom.reduce(-d), None)
        return out

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


def _is_even(sigma):
    """Whether the permutation sigma has an even number of inversions."""
    return not sum(a > b for a, b in combinations(sigma, 2)) % 2


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
    below it is cleared with the exact multiplier c, by ``dom.clear``,
    which skips the rows whose entry in the column is zero.  A unit
    pivot clears the rows above as well, but only when the rows have
    columns beyond ``ncols`` (an inverse or a right-hand side to finish):
    the determinant never reads those rows again.  Returns (pivots, det,
    stop): the row of each column's pivot (None for a column that
    vanishes at and below the pivot row, which is skipped and makes det
    zero, or for one never reached), the signed pivot product, which on a
    square ``aug`` is the determinant, and the first column whose pivot
    is not a unit, if any."""
    m, width = len(aug), len(aug[0])
    red, is_unit, valuation, div_pi, clear = (
        dom.reduce, dom.is_unit, dom.valuation, dom.div_pi, dom.clear)
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
        # with nothing right of it (the last column of det) nothing is due
        if col + 1 < width:
            inv = dom.invert(div_pi(row[col], v) if v else row[col])
            for j in range(col + 1, width):
                row[j] = red(inv * row[j])
            clear(row, aug if not v and width > ncols else aug[prow + 1:], col, v)
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
    dom = ring.values(min(e.prec for r in (*rows, rhs) for e in r))
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
    draws on ``rng`` as ``ring.random_element``.  Each try is one
    augmented pass at full precision, and a draw is kept when that pass
    finds its inverse, so the sample comes back knowing its determinant
    and inverse."""
    if n < 1:
        raise ShapeError("matrix rows must all have length n >= 1")
    dom = ring.values()
    while True:
        m = SquareMatrix._of(dom, [[dom.random(rng) for _ in range(n)] for _ in range(n)])
        if m._memo(True)[1] is not None:
            return m


def random_sl(ring, n, rng):
    """``random_gl`` sample with the first row scaled by det^{-1} in its
    values.  It knows its determinant, 1, and its inverse without an
    elimination: the sample's inverse with column 0 times det."""
    g = random_gl(ring, n, rng)
    dom = g.dom
    d, ginv = g._elim
    dinv = dom.invert(d)
    s = SquareMatrix._of(dom, [[dom.reduce(dinv * v) for v in g.vals[0]], *g.vals[1:]])
    s._elim = (dom.from_elem(ring.one),
               SquareMatrix._of(dom, [[dom.reduce(r[0] * d), *r[1:]] for r in ginv.vals]))
    return s


def random_constant_gl(ring, n, rng):
    """Invertible matrix with delta-constant entries, resampled until its
    residue matrix (the matrix at precision 1: entries mod p on W,
    constant terms on Q[[t]]) is invertible, which on a local ring is
    exactly when the determinant is a unit.  Unlike a ``random_gl``
    sample it is not inverted here, as not every caller inverts it."""
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
        if m.reduce_prec(1).is_unit():
            return m
