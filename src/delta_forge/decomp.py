"""Constructive factorization of invertible matrices into permutation
matrices and row-stabilizer blocks.

A word is an alternating product w0 s1 w1 ... sL wL where each w is a
permutation matrix and each s has the block shape [[a, b], [0, 1_{n-1}]]
with a a unit.  Peeling the first row and column of a block,

    x = [[u, y], [z^t, w]]
      = [[u - y w^{-1} z^t, y w^{-1}], [0, 1]] * diag(1, w) * [[1, 0], [w^{-1} z^t, 1]]

diag(1, w) is conjugated to diag(w, 1) by the cyclic shift and expanded
the same way; the lower-unipotent factor splits into single-entry columns,
each conjugated to an upper s-block by a transposition.  The factor
sequence, and hence the word length, depends only on n.  ``decompose``
factors the trailing blocks from the 1 x 1 corner outwards.  The pivot
a = u - y w^{-1} z^t is det x / det w, so the pivots check the trailing
minors and their product is det x; and y w^{-1}, w^{-1} z^t and a^{-1}
give x^{-1} by bordering w^{-1}, for the next block out.  So nothing is
eliminated unless a pivot is not a unit, and then only the minors up to
the first that is not one.  ``reconstruct`` applies the factors one by
one, as column re-indexing and column operations, without multiplying
dense factor matrices.

``precondition`` makes every trailing minor a unit by a row permutation
alone: a unit determinant has, in its first column, a unit entry with a
unit complementary minor, so the rows can be fixed one column at a time,
each by one inversion of the block still to be ordered.  The first block
is x itself, so x is eliminated once, and not at all when it already
knows its inverse (a ``random_gl`` sample does).
"""

from __future__ import annotations

from .errors import InputError, NonUnitError, NonUnitMinorError, ShapeError
from .matrices import SquareMatrix, _element
from .rings import Record, dot
from .serialize import all_ints, elem_from_json, elem_to_json


class PermFactor(Record):
    __slots__ = ("sigma",)

    def __init__(self, sigma: tuple):
        super().__init__(sigma)

    def to_json(self):
        return {"kind": "perm", "sigma": list(self.sigma)}


class SFactor(Record):
    __slots__ = ("a", "b")

    def __init__(self, a, b: tuple):
        super().__init__(a, b)

    def to_json(self):
        return {
            "kind": "s",
            "a": elem_to_json(self.a),
            "b": [elem_to_json(e) for e in self.b],
        }


class DecompositionWord(Record):
    """Alternating factor sequence perm, s, perm, ..., s, perm."""

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: tuple):
        if len(factors) % 2 == 0 or not factors:
            raise ShapeError("word must alternate w0 s1 w1 ... sL wL")
        for i, f in enumerate(factors):
            if i % 2 == 0 and not isinstance(f, PermFactor):
                raise ShapeError(f"factor {i} must be a permutation")
            if i % 2 == 1 and not isinstance(f, SFactor):
                raise ShapeError(f"factor {i} must be an s-block")
            if isinstance(f, PermFactor) and len(f.sigma) != n:
                raise ShapeError(f"permutation factor {i} has wrong size")
            if isinstance(f, SFactor) and len(f.b) != n - 1:
                raise ShapeError(f"s factor {i} has wrong size")
        super().__init__(n, factors)

    @property
    def length(self) -> int:
        return len(self.factors) // 2

    def s_factors(self):
        return [f for f in self.factors if isinstance(f, SFactor)]

    def to_json(self):
        return {"n": self.n, "factors": [f.to_json() for f in self.factors]}

    @classmethod
    def from_json(cls, ring, obj):
        recs = obj.get("factors") if isinstance(obj, dict) else None
        if not isinstance(recs, list) or not all_ints([obj.get("n")]):
            raise InputError('word must be {"n": n, "factors": [...]}')
        factors = []
        for rec in recs:
            kind = rec.get("kind") if isinstance(rec, dict) else None
            if kind == "perm" and isinstance(rec.get("sigma"), list) and all_ints(rec["sigma"]):
                factors.append(PermFactor(tuple(rec["sigma"])))
            elif kind == "s" and isinstance(rec.get("b"), list) and "a" in rec:
                factors.append(
                    SFactor(
                        elem_from_json(ring, rec["a"]),
                        tuple(elem_from_json(ring, e) for e in rec["b"]),
                    )
                )
            else:
                raise InputError(f"cannot decode factor {rec!r}")
        return cls(obj["n"], tuple(factors))


def _identity_perm(n):
    return PermFactor(tuple(range(n)))


def _compose(sig1, sig2):
    # perm_matrix(sig1) * perm_matrix(sig2) == perm_matrix(sig2 o sig1)
    return tuple(sig2[sig1[i]] for i in range(len(sig1)))


def decompose(x: SquareMatrix) -> DecompositionWord:
    """Factor x into the canonical alternating word.

    Requires det(x) and every trailing minor to be units; use
    ``precondition`` first otherwise.  The first non-unit minor by index
    is reported before a non-unit determinant.
    """
    n, dom, vals, zero = x.n, x.dom, x.vals, x.ring.zero
    red, to_elem = dom.reduce, dom.to_elem
    head, tail = [], []  # the factors left and right of the inner block's
    winv, d = [], dom.from_elem(x.ring.one)
    for i in range(n - 1, -1, -1):
        # block [[u, y], [z, w]] = x[i:, i:] of size k, with w^-1 = winv;
        # its factors keep the last n - k indices fixed
        k, fix = n - i, tuple(range(n - i, n))
        u, y, z = vals[i][i], vals[i][i + 1:], [r[i] for r in vals[i + 1:]]
        yw = [red(dot(y, col)) for col in zip(*winv)]
        wz = [red(dot(row, z)) for row in winv]
        a = red(u - dot(yw, z)) if yw else u  # det of the block / det w
        d = red(d * a)
        if not dom.is_unit(a):
            if not i:
                raise NonUnitError(to_elem(d), "determinant is not a unit")
            for j in range(1, n):
                minor = x.block(j, n, j, n).det()
                if not minor.is_unit():
                    raise NonUnitMinorError(j, minor)
        # diag(1, w) = C^{-1} diag(w, 1) C for the cyclic shift C (at the
        # corner, k = 1, the identity)
        head = [SFactor(to_elem(a), (*map(to_elem, yw), *(zero,) * i)),
                PermFactor((k - 1, *range(k - 1), *fix)), *head]
        tail.append(PermFactor((*range(1, k), 0, *fix)))
        # lower-unipotent column, one transposed elementary block per entry
        for j, c in enumerate(wz, 1):
            tau = PermFactor((j, *range(1, j), 0, *range(j + 1, n)))
            b = [zero] * (n - 1)
            b[j - 1] = to_elem(c)
            tail += [tau, SFactor(x.ring.one, tuple(b)), tau]
        if i:  # the block's inverse [[a^-1, -a^-1 yw], [-wz a^-1, w^-1 + wz a^-1 yw]]
            ainv = dom.invert(a)
            top = [ainv] + [red(-ainv * v) for v in yw]
            winv = [top] + [[red(-c * ainv)] + [red(v - c * t) for v, t in zip(row, top[1:])]
                            for c, row in zip(wz, winv)]

    factors = []
    pending = _identity_perm(n)
    for f in head + tail:
        if isinstance(f, PermFactor):
            pending = PermFactor(_compose(pending.sigma, f.sigma))
        else:
            factors.append(pending)
            factors.append(f)
            pending = _identity_perm(n)
    factors.append(pending)
    return DecompositionWord(n, tuple(factors))


def reconstruct(word: DecompositionWord, ring) -> SquareMatrix:
    """Left-to-right product of the word's factors, each applied to the
    product so far: a permutation re-indexes its columns, and an s-block
    is a column operation, with its a and b read as values at the lesser
    of their precision and the product's, and no matrix of its own."""
    for f in word.s_factors():
        if not f.a.is_unit():
            raise ShapeError(f"s factor has non-unit leading entry {f.a!r}")
    n = word.n
    acc = SquareMatrix.identity(ring, n)
    for f in word.factors:
        if isinstance(f, PermFactor):
            acc = acc.permuted(range(n), f.sigma)
            continue
        # times [[a, b], [0, 1]]: column 0 times a, plus column 0 times b_j onto column j
        s = [_element(ring, e) for e in (f.a, *f.b)]
        prec = min(acc.prec, *(e.prec for e in s))
        dom = acc.dom if prec == acc.prec else ring.values(prec)
        red, (a, *b) = dom.reduce, [dom.from_elem(e) for e in s]
        acc = SquareMatrix._of(dom, [[red(r[0] * a), *(red(r[0] * bj + rj) for bj, rj in zip(b, r[1:]))]
                                     for r in acc.vals])
    return acc


def is_admissible(x: SquareMatrix) -> bool:
    n = x.n
    return x.is_unit() and all(x.block(i, n, i, n).is_unit() for i in range(1, n))


def precondition(x: SquareMatrix):
    """Row order making every trailing minor a unit, built one column at a
    time.  Returns (w_left, w_right, x') with x' = w_left * x * w_right
    admissible, w_right the identity and w_left the lexicographically first
    admissible row order.

    With rows sigma[:i] fixed, the remaining rows in ascending order,
    restricted to columns i.., form an invertible block B.  Deleting row k
    and column 0 of B leaves an invertible block exactly when entry (0, k)
    of B^{-1} is a unit (the cofactor formula, det B being a unit), and
    such a k always extends to an admissible order: expanding a unit
    determinant along column 0 over the residue field finds a row whose
    entry and complementary minor are both units.  So sigma[i] is the first
    such k, and a unit det(x) is all that admissibility needs.  B at i = 0
    is x, whose inversion also tests det(x); NonUnitError if it is not a
    unit.
    """
    ring, n = x.ring, x.n
    try:
        inv = x.invert()  # column 0's block is x itself
    except NonUnitError as exc:
        raise NonUnitError(exc.element, "determinant is not a unit") from None
    sigma, rest = [], list(range(n))
    for i in range(n - 1):
        if i:
            inv = SquareMatrix._of(x.dom, [x.vals[r][i:] for r in rest]).invert()
        sigma.append(rest.pop(next(k for k, v in enumerate(inv.vals[0]) if x.dom.is_unit(v))))
    sigma += rest
    w_left = SquareMatrix.permutation(ring, sigma)
    return w_left, SquareMatrix.identity(ring, n), x.permuted(sigma, range(n))
