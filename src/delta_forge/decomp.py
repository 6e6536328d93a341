"""Constructive factorization of invertible matrices into permutation
matrices and row-stabilizer blocks.

A word is an alternating product w0 s1 w1 ... sL wL where each w is a
permutation matrix and each s has the block shape [[a, b], [0, 1_{n-1}]]
with a a unit.  The recursion peels the first row and column:

    x = [[u, y], [z^t, w]]
      = [[u - y w^{-1} z^t, y w^{-1}], [0, 1]] * diag(1, w) * [[1, 0], [w^{-1} z^t, 1]]

diag(1, w) is conjugated to diag(w, 1) by the cyclic shift and expanded
recursively; the lower-unipotent factor splits into single-entry columns,
each conjugated to an upper s-block by a transposition.  The factor
sequence, and hence the word length, depends only on n.  Each level
inverts w once, which also checks that trailing minor.  ``reconstruct``
applies the factors one by one, as column re-indexing and column
operations, without multiplying dense factor matrices.

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


def _raw_factors(x: SquareMatrix, level=1):
    """Unnormalized factor stream (permutations and s-blocks, any order)
    of x, whose trailing block w is trailing minor ``level``."""
    ring, n, to_elem = x.ring, x.n, x.dom.to_elem
    if n == 1:
        return [SFactor(x[0, 0], ())]
    w = x.block(1, n, 1, n)
    try:
        winv = w.invert()
    except NonUnitError as exc:
        raise NonUnitMinorError(level, exc.element) from None
    (u, *y), z = x.vals[0], [r[0] for r in x.vals[1:]]
    yw = [x.dom.reduce(dot(y, col)) for col in zip(*winv.vals)]
    factors = [SFactor(to_elem(u - dot(yw, z)), tuple(map(to_elem, yw)))]

    # diag(1, w) = C^{-1} diag(w, 1) C for the cyclic shift C
    shift = tuple(list(range(1, n)) + [0])
    shift_inv = tuple([n - 1] + list(range(n - 1)))
    factors.append(PermFactor(shift_inv))
    for f in _raw_factors(w, level + 1):
        if isinstance(f, PermFactor):
            factors.append(PermFactor(f.sigma + (n - 1,)))
        else:
            factors.append(SFactor(f.a, f.b + (ring.zero,)))
    factors.append(PermFactor(shift))

    # lower-unipotent column, one transposed elementary block per entry
    for j, row in enumerate(winv.vals, 1):
        tau = list(range(n))
        tau[0], tau[j] = tau[j], tau[0]
        b = [ring.zero] * (n - 1)
        b[j - 1] = to_elem(dot(row, z))
        factors.append(PermFactor(tuple(tau)))
        factors.append(SFactor(ring.one, tuple(b)))
        factors.append(PermFactor(tuple(tau)))
    return factors


def decompose(x: SquareMatrix) -> DecompositionWord:
    """Factor x into the canonical alternating word.

    Requires det(x) and every trailing minor to be units; use
    ``precondition`` first otherwise.  The first non-unit minor by index
    is reported before a non-unit determinant.
    """
    raw = _raw_factors(x)
    d = x.det()
    if not d.is_unit():
        raise NonUnitError(d, "determinant is not a unit")

    n = x.n
    factors = []
    pending = _identity_perm(n)
    for f in raw:
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


def expected_word_length(n: int) -> int:
    # L(1) = 1, L(n) = L(n-1) + n
    return n * (n + 1) // 2


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
