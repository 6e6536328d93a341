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
sequence, and hence the word length, depends only on n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from math import factorial

from .errors import (
    ExhaustedSearchError,
    InputError,
    NonUnitError,
    NonUnitMinorError,
    ShapeError,
)
from .matrices import SquareMatrix
from .serialize import elem_from_json, elem_to_json


@dataclass(frozen=True)
class PermFactor:
    sigma: tuple

    def matrix(self, ring):
        return SquareMatrix.permutation(ring, self.sigma)

    def to_json(self):
        return {"kind": "perm", "sigma": list(self.sigma)}


@dataclass(frozen=True)
class SFactor:
    a: object
    b: tuple

    def matrix(self, ring):
        n = len(self.b) + 1
        one, zero = ring.one, ring.zero
        rows = [[self.a] + list(self.b)]
        for i in range(1, n):
            rows.append([zero] * i + [one] + [zero] * (n - 1 - i))
        return SquareMatrix(ring, rows)

    def to_json(self):
        return {
            "kind": "s",
            "a": elem_to_json(self.a),
            "b": [elem_to_json(e) for e in self.b],
        }


@dataclass(frozen=True)
class DecompositionWord:
    """Alternating factor sequence perm, s, perm, ..., s, perm."""

    n: int
    factors: tuple

    def __post_init__(self):
        fs = self.factors
        if len(fs) % 2 == 0 or not fs:
            raise ShapeError("word must alternate w0 s1 w1 ... sL wL")
        for i, f in enumerate(fs):
            if i % 2 == 0 and not isinstance(f, PermFactor):
                raise ShapeError(f"factor {i} must be a permutation")
            if i % 2 == 1 and not isinstance(f, SFactor):
                raise ShapeError(f"factor {i} must be an s-block")
            if isinstance(f, PermFactor) and len(f.sigma) != self.n:
                raise ShapeError(f"permutation factor {i} has wrong size")
            if isinstance(f, SFactor) and len(f.b) != self.n - 1:
                raise ShapeError(f"s factor {i} has wrong size")

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
        if not isinstance(recs, list) or not isinstance(obj.get("n"), int):
            raise InputError('word must be {"n": n, "factors": [...]}')
        factors = []
        for rec in recs:
            kind = rec.get("kind") if isinstance(rec, dict) else None
            if kind == "perm" and isinstance(rec.get("sigma"), list):
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


def trailing_minors(x: SquareMatrix):
    """Determinants after deleting the first i rows and columns, and
    their product."""
    n = x.n
    minors = [x.block(i, n, i, n).det() for i in range(1, n)]
    prod = x.ring.one
    for d in minors:
        prod = prod * d
    return minors, prod


def _identity_perm(n):
    return PermFactor(tuple(range(n)))


def _compose(sig1, sig2):
    # perm_matrix(sig1) * perm_matrix(sig2) == perm_matrix(sig2 o sig1)
    return tuple(sig2[sig1[i]] for i in range(len(sig1)))


def _raw_factors(x: SquareMatrix):
    """Unnormalized factor stream (permutations and s-blocks, any order)."""
    ring, n = x.ring, x.n
    if n == 1:
        return [SFactor(x[0, 0], ())]
    u = x[0, 0]
    y = [x[0, j] for j in range(1, n)]
    z = [x[i, 0] for i in range(1, n)]
    w = x.block(1, n, 1, n)
    winv = w.invert()
    yw = [None] * (n - 1)
    for j in range(n - 1):
        acc = None
        for k in range(n - 1):
            t = y[k] * winv[k, j]
            acc = t if acc is None else acc + t
        yw[j] = acc
    ywz = None
    for k in range(n - 1):
        t = yw[k] * z[k]
        ywz = t if ywz is None else ywz + t
    a = u - ywz
    factors = [SFactor(a, tuple(yw))]

    # diag(1, w) = C^{-1} diag(w, 1) C for the cyclic shift C
    shift = tuple(list(range(1, n)) + [0])
    shift_inv = tuple([n - 1] + list(range(n - 1)))
    factors.append(PermFactor(shift_inv))
    for f in _raw_factors(w):
        if isinstance(f, PermFactor):
            factors.append(PermFactor(f.sigma + (n - 1,)))
        else:
            factors.append(SFactor(f.a, f.b + (ring.zero,)))
    factors.append(PermFactor(shift))

    # lower-unipotent column, one transposed elementary block per entry
    c = [None] * (n - 1)
    for i in range(n - 1):
        acc = None
        for k in range(n - 1):
            t = winv[i, k] * z[k]
            acc = t if acc is None else acc + t
        c[i] = acc
    for j in range(1, n):
        tau = list(range(n))
        tau[0], tau[j] = tau[j], tau[0]
        b = [ring.zero] * (n - 1)
        b[j - 1] = c[j - 1]
        factors.append(PermFactor(tuple(tau)))
        factors.append(SFactor(ring.one, tuple(b)))
        factors.append(PermFactor(tuple(tau)))
    return factors


def decompose(x: SquareMatrix) -> DecompositionWord:
    """Factor x into the canonical alternating word.

    Requires det(x) and every trailing minor to be units; use
    ``precondition`` first otherwise.
    """
    minors, _ = trailing_minors(x)
    for i, d in enumerate(minors, 1):
        if not d.is_unit():
            raise NonUnitMinorError(i, d)
    d = x.det()
    if not d.is_unit():
        raise NonUnitError(d, "determinant is not a unit")

    n = x.n
    raw = _raw_factors(x)
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
    """Left-to-right product of the word's factors."""
    for f in word.s_factors():
        if not f.a.is_unit():
            raise ShapeError(f"s factor has non-unit leading entry {f.a!r}")
    acc = None
    for f in word.factors:
        m = f.matrix(ring)
        acc = m if acc is None else acc * m
    return acc


def expected_word_length(n: int) -> int:
    # L(1) = 1, L(n) = L(n-1) + n
    return n * (n + 1) // 2


def is_admissible(x: SquareMatrix) -> bool:
    n = x.n
    return x.is_unit() and all(x.block(i, n, i, n).is_unit() for i in range(1, n))


def precondition(x: SquareMatrix, seed: int = 0):
    """Find permutations making every trailing minor a unit.

    Tries the identity, then row permutations in lexicographic order,
    then seeded random pairs, capped at n!*4 attempts.  Returns
    (w_left, w_right, x') with x' = w_left * x * w_right admissible.
    """
    ring, n = x.ring, x.n
    d = x.det()
    if not d.is_unit():
        raise NonUnitError(d, "determinant is not a unit")
    cap = factorial(n) * 4
    ident = tuple(range(n))
    attempts = 0
    tried = []
    for sigma in permutations(range(n)):
        tried.append((sigma, ident))
        if len(tried) >= cap:
            break
    rng = random.Random(f"{seed}:precondition")
    while len(tried) < cap:
        tried.append(
            (
                tuple(rng.sample(range(n), n)),
                tuple(rng.sample(range(n), n)),
            )
        )
    for sl, sr in tried:
        attempts += 1
        wl = SquareMatrix.permutation(ring, sl)
        wr = SquareMatrix.permutation(ring, sr)
        xp = wl * x * wr
        if is_admissible(xp):
            return wl, wr, xp
    raise ExhaustedSearchError(
        f"no admissible permutation pair found in {attempts} attempts"
    )
