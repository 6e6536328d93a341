"""Exact ring backends behind a common delta-ring interface.

Two backends:

* ``WittRing`` -- the truncated unramified extension W(F_{p^m})/p^N,
  realized as (Z/p^N)[t]/(Mtilde(t)) for a fixed monic lift Mtilde of an
  irreducible degree-m polynomial over F_p.  Carries the Frobenius lift
  ``phi`` and the p-derivation ``delta x = (phi(x) - x^p)/p``.
* ``SeriesRing`` -- Q[[t]]/t^M with exact rational coefficients and the
  derivation d/dt.  An element stores its M coefficients as one tuple of
  integer numerators over one positive common denominator, in lowest
  terms, and does all arithmetic on those integers.

Every element tracks its own effective precision (p-adic digits for the
arithmetic backend, series order for the series backend); mixed-precision
arithmetic truncates to the minimum, and ``delta`` consumes one digit.
Elements are immutable values, falsy exactly when zero.  ``ring.values(prec)``
is the ring's one coefficient domain at prec, of jet polynomials and
matrices: int residues (``_Residues``) on W(Z/p^N), elements (``Values``) on
W(F_q) with m >= 2, and elements with packed products (``_Series``) on Q[[t]].
"""

from __future__ import annotations

import random
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, product, repeat, zip_longest
from math import gcd, lcm
from operator import add, lshift, methodcaller, mul

from .errors import BackendError, InputError, NonUnitError, PrecisionExhausted

ARITHMETIC = "arithmetic"
KOLCHIN = "kolchin"
# seed of the CLI and the self-test when none is given
DEFAULT_SEED = 31415


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the bases above is exact below this bound (the least
# strong pseudoprime to all twelve, Sorenson and Webster 2015)
_MR_EXACT_BELOW = 318665857834031151167461


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_EXACT_BELOW:
        raise InputError(f"primality of {n} is not decided above {_MR_EXACT_BELOW - 1}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Generic kernels shared by every layer.

def _power(mul, one, base, e):
    """base**e for e >= 0 by square-and-multiply with the product ``mul``;
    the last squaring, which nothing reads, is skipped."""
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _vp(c, p, cap):
    """The p-adic valuation of the int c, at most cap (cap for c = 0)."""
    k = 0
    while k < cap and not c % p:
        c //= p
        k += 1
    return k


def same_ring(r, s):
    """Whether values of rings r and s may be mixed: the same Witt ring
    parameters, or two series rings (their elements carry their truncation)."""
    return r is s or getattr(r, "params", None) == getattr(s, "params", None)


def dot(u, v):
    """u[0]*v[0] + u[1]*v[1] + ..., summed left to right from the first
    product, so the result has the precision of that plain sum."""
    return reduce(add, map(mul, u, v))


_sum_from_first = partial(reduce, add)


def randbelow(rng, n):
    """What ``rng.randrange(n)`` returns for an int n >= 1, by the same
    calls on rng and without its argument checks: getrandbits(n.bit_length()),
    drawn again while >= n."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class Values:
    """Ring values at one precision, as elements: the domain of W(F_q), m >= 2,
    and the base of the other two.  Sums and products of values are raw
    values, and ``reduce`` gives their normal form, falsy exactly for zero.
    ``random`` draws one with the calls ``ring.random_element`` makes.
    ``valuation`` is p-adic on W, t-adic on Q[[t]], and prec for zero; a
    product of valuations v and w has valuation at least v + w."""

    def __init__(self, ring, prec):
        if prec < 1:
            raise PrecisionExhausted("precision dropped below 1")
        self.ring, self.prec = ring, prec
        self.reduce = methodcaller("at_prec", prec)
        self.valuation = lambda v: min(v.valuation(), prec)

    def from_elem(self, x):
        """The normal form of an element of precision at least prec."""
        return x.at_prec(self.prec)

    to_elem = from_elem  # the element of a raw value
    is_unit = staticmethod(methodcaller("is_unit"))
    invert = staticmethod(methodcaller("invert"))
    div_p = staticmethod(methodcaller("_div_p_exact"))

    def random(self, rng):
        return self.ring.random_element(rng, self.prec)

    def div_pi(self, v, k):
        """v / pi^k (pi = p on W, t on Q[[t]]) for v divisible by pi^k:
        known mod pi^(prec-k), and lifted to prec with zero top digits."""
        pk = self.ring.p**k
        return WittElement(self.ring, tuple(c // pk for c in v.coeffs), self.prec)

    def lift(self, v):
        """A value of W known mod p^k, k <= prec, at prec with zero top
        digits (arithmetic prolongation's f^p)."""
        return WittElement(self.ring, v.coeffs, self.prec)

    _total = _sum_from_first  # a sum of elements from the int 0 adds once more

    def product_operands(self, a, b):
        """(rows, cols, total, finish) for the product of the n x n
        matrices of values a and b, each at precision at least prec: entry
        (i, j) of its normal form is finish(total(map(mul, rows[i], cols[j]))).
        Here a's rows, b's columns, ``_total`` and ``reduce``."""
        return a, list(zip(*b)), self._total, self.reduce

    def clear(self, row, rows, col, v):
        """The row update of matrix elimination: for each ``other`` in rows
        but row itself whose entry at col is nonzero, and each j right of
        col, other[j] -= c * row[j] in place, with c = other[col] / pi^v."""
        red, start, width = self.reduce, col + 1, len(row)
        for other in rows:
            c = other[col]
            if c and other is not row:
                if v:
                    c = self.div_pi(c, v)
                for j in range(start, width):
                    other[j] = red(other[j] - c * row[j])

    def scale(self, row, start, x):
        """row[j] = x * row[j] in normal form, in place, for each j >= start."""
        red = self.reduce
        for j in range(start, len(row)):
            row[j] = red(x * row[j])


class _Residues(Values):
    """``Values`` on W(Z/p^N): int residues mod p^prec."""

    def __init__(self, ring, prec):
        super().__init__(ring, prec)
        self.pk = pk = ring.p**prec
        self.reduce = pk.__rmod__
        self.valuation = lambda v: _vp(v, ring.p, prec)

    def from_elem(self, x):
        return x.coeffs[0] % self.pk

    def to_elem(self, v):
        return WittElement(self.ring, (v % self.pk,), self.prec)

    def random(self, rng):
        return randbelow(rng, self.pk)

    def is_unit(self, v):
        return v % self.ring.p != 0

    def invert(self, v):
        return pow(v, -1, self.pk)

    def div_pi(self, v, k):
        return v // self.ring.p**k

    def lift(self, v):
        return v

    def div_p(self, v):
        q, r = divmod(v, self.ring.p)
        if r:
            raise InputError(f"coefficient not divisible by p: {v}")
        return q

    _total = sum


class _Series(Values):
    """``Values`` on Q[[t]]/t^K, K = prec, Kronecker-packing numerators."""

    def div_pi(self, v, k):
        return SeriesElement(self.ring, v.num[k:] + (0,) * k, v.den, self.prec)

    def product_operands(self, a, b):
        """Each entry is one int: its numerators over its matrix's common
        denominator, cut to K, packed once per product.  A slot sums at most
        n K products of two numerators, so w = bits(max |c| in a) +
        bits(max |c| in b) + bits(n K) + 1 keeps it below 2^(w-1) in size."""
        k, ring = self.prec, self.ring
        da, na, bits_a = _over_one_den(a)
        db, nb, bits_b = _over_one_den(b)
        shifts, half, mask, low, bias = _slots(k, bits_a + bits_b + (len(a) * k).bit_length() + 1)
        den = da * db

        def pack(num):
            return sum(map(lshift, num, shifts))

        def finish(x):
            x = (x + bias) & low
            return SeriesElement(ring, tuple([(x >> s & mask) - half for s in shifts]), den, k)

        rows = [list(map(pack, r)) for r in na]
        cols = list(zip(*(map(pack, r) for r in nb)))
        return rows, cols, sum, finish

    def clear(self, row, rows, col, v):
        """With c = C/e, row[j] = R/d and other[j] = O/od (C: other[col]'s
        numerators shifted down by v), each R right of col and each C is
        packed once; P = C R cut to K is the low K slots of their product,
        and other[j] becomes (O e d - P od) / (od e d).  A slot sums at most
        K products: w = bits(max |C|) + bits(max |R|) + bits(K) + 1."""
        others = [other for other in rows if other[col] and other is not row]
        ents = [(j, e) for j in range(col + 1, len(row)) if (e := row[j])]
        if not (others and ents):
            return
        k, ring = self.prec, self.ring
        cnums = [other[col].num[v:] for other in others]
        w = (max(map(int.bit_length, chain.from_iterable(cnums)))
             + max(map(int.bit_length, chain.from_iterable(e.num for _, e in ents)))
             + k.bit_length() + 1)
        shifts, half, mask, low, bias = _slots(k, w)
        packed = [(j, sum(map(lshift, e.num, shifts)), e.den) for j, e in ents]
        for other, cnum in zip(others, cnums):
            pc, e = sum(map(lshift, cnum, shifts)), other[col].den
            for j, pr, d in packed:
                o = other[j]
                x = (pc * pr + bias) & low
                f, od = e * d, o.den
                other[j] = SeriesElement(
                    ring,
                    tuple([a * f - ((x >> s & mask) - half) * od for a, s in zip(o.num, shifts)]),
                    od * f, k)

    def scale(self, row, start, x):
        """x = X/e is packed once and each nonzero row[j] = R/d once, so
        x * row[j] is the low K slots of their product over e d.  A slot
        sums at most K products: w = bits(max |X|) + bits(max |R|) + bits(K) + 1."""
        ents = [(j, e) for j in range(start, len(row)) if (e := row[j])]
        if not ents:
            return
        k, ring = self.prec, self.ring
        w = (max(map(int.bit_length, x.num))
             + max(map(int.bit_length, chain.from_iterable(e.num for _, e in ents)))
             + k.bit_length() + 1)
        shifts, half, mask, low, bias = _slots(k, w)
        px, xd = sum(map(lshift, x.num, shifts)), x.den
        for j, e in ents:
            y = (px * sum(map(lshift, e.num, shifts)) + bias) & low
            row[j] = SeriesElement(
                ring, tuple([(y >> s & mask) - half for s in shifts]), xd * e.den, k)


@lru_cache(maxsize=256)
def _slots(k, w):
    """(shifts, half, mask, low, bias) for K = k signed slots of w bits:
    slot i of x is ((x + bias) & low) >> shifts[i] & mask, minus half, as
    bias puts half in every slot of the low K."""
    shifts = range(0, k * w, w)
    half, low = 1 << (w - 1), (1 << (k * w)) - 1
    return shifts, half, (1 << w) - 1, low, low // ((1 << w) - 1) * half


def _over_one_den(vals):
    """(den, nums, bits) for a matrix of series values: den the lcm of
    their denominators, nums their numerators over den, by rows, and bits
    the bit length of the largest |numerator|."""
    den = lcm(*(v.den for r in vals for v in r))
    nums = [[v.num if v.den == den else tuple(map((den // v.den).__mul__, v.num)) for v in r]
            for r in vals]
    return den, nums, max(map(int.bit_length, chain.from_iterable(chain.from_iterable(nums))))


# ---------------------------------------------------------------------------
# F_p[t] helpers (dense low-to-high coefficient lists), used only for
# modulus validation and inversion mod p.  A product reduced by a monic
# modulus is exact over Z, so _zpoly_mul_reduce and _zpoly_pow serve here
# too.

def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_divmod(a, b, p):
    a = list(a)
    db, dm = len(_fp_trim(list(b))) - 1, len(_fp_trim(list(a))) - 1
    binv = pow(b[db], -1, p)
    q = [0] * max(dm - db + 1, 0)
    for k in range(dm - db, -1, -1):
        c = (a[k + db] * binv) % p
        q[k] = c
        if c:
            for i in range(db + 1):
                a[k + i] = (a[k + i] - c * b[i]) % p
    return q, _fp_trim(a[:db])


def _fp_euclid(mod, b, p):
    """Extended Euclid in F_p[t] for a monic ``mod``: (g, s) with g a gcd
    of mod and b, and s * b = g mod (mod, p)."""
    r0, r1 = list(mod), _fp_trim([c % p for c in b])
    s0, s1 = [], [1]
    while r1:
        q, r = _fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        qs1 = _zpoly_mul_reduce(q, s1, mod)
        s0, s1 = s1, [(x - y) % p for x, y in zip_longest(s0, qs1, fillvalue=0)]
    return r0, s0


def _fp_is_irreducible(coeffs, p):
    """Rabin test for a monic polynomial over F_p given low-to-high."""
    m = len(coeffs) - 1
    if m < 1:
        return False
    # t^(p^m) == t mod f
    if _fp_trim(_zpoly_pow([0, 1], p**m, coeffs, p)) != [0, 1]:
        return False
    d = 2
    mm = m
    prime_divs = set()
    while d * d <= mm:
        if mm % d == 0:
            prime_divs.add(d)
            while mm % d == 0:
                mm //= d
        d += 1
    if mm > 1:
        prime_divs.add(mm)
    for q in prime_divs:
        h = _zpoly_pow([0, 1], p ** (m // q), coeffs, p)
        h[1] -= 1
        if len(_fp_euclid(coeffs, h, p)[0]) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# The product in Z[t] reduced by a fixed monic modulus, with no p-power
# reduction: the one product of every m >= 2; callers reduce mod p^k.

def _zpoly_mul_reduce(a, b, mlift):
    m = len(mlift) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    for d in range(len(out) - 1, m - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for i in range(m):
                out[d - m + i] -= c * mlift[i]
    return out[:m] + [0] * (m - len(out))


def _zpoly_pow(base, e, mlift, pk):
    """base**e in (Z/pk)[t]/(mlift) for e >= 0, as m coefficients."""
    mulmod = lambda a, b: [c % pk for c in _zpoly_mul_reduce(a, b, mlift)]
    return _power(mulmod, [1] + [0] * (len(mlift) - 2), base, e)


class Record:
    """Base of the library's immutable value classes.

    A subclass names its fields in ``__slots__``, in the order of its
    ``__init__``, which validates its arguments and hands the values of
    its slots to ``Record.__init__`` in that order.  Slots whose names begin with an
    underscore hold private state (a cache) and take no part in equality,
    hashing or repr.  Instances compare equal field by field, and only to
    instances of the same class; assigning or deleting an attribute after
    construction raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, n) for n in self.__slots__ if n[0] != "_")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {self.__class__.__name__}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by assignment
        return self.__class__, self._values()


class RingParams(Record):
    """Parameters of a truncated Witt ring W(F_{p^m}) mod p^prec; modulus
    holds F_p coefficients low-to-high, length m+1, monic."""

    __slots__ = ("p", "prec", "m", "modulus")

    def __init__(self, p, prec, m=1, modulus=()):
        if not _is_prime(p) or p == 2:
            raise InputError(f"p must be an odd prime, got {p}")
        if prec < 2:
            raise InputError(f"prec must be >= 2, got {prec}")
        if m < 1:
            raise InputError(f"m must be >= 1, got {m}")
        if m == 1:
            if modulus and tuple(modulus) != (0, 1):
                raise InputError("m=1 takes no modulus")
            mod = (0, 1)
        else:
            mod = tuple(c % p for c in modulus)
            if len(mod) != m + 1 or mod[-1] != 1:
                raise InputError(f"modulus must be monic of degree m={m}, got {modulus}")
            if not _fp_is_irreducible(list(mod), p):
                raise InputError(f"modulus {modulus} is reducible over F_{p}")
        super().__init__(p, prec, m, mod)

    @property
    def q(self) -> int:
        return self.p**self.m


class _Element:
    """Operator wiring of both element classes, over each class's own
    ``__neg__`` and ``_add(other, sign)``, which returns NotImplemented for
    an operand that is neither a number nor an element of the same ring."""

    __slots__ = ()

    def is_zero(self):
        return not self

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)


class WittElement(_Element):
    """Element of a WittRing: polynomial coefficients mod p^prec.

    Canonical representatives live in [0, p^prec).  Instances are
    immutable; all arithmetic returns fresh elements at the minimum
    precision of the operands.
    """

    __slots__ = ("ring", "coeffs", "prec")

    def __init__(self, ring, coeffs, prec):
        self.ring = ring
        self.coeffs = coeffs
        self.prec = prec

    # -- basic structure ----------------------------------------------------

    def __repr__(self):
        return f"WittElement({list(self.coeffs)}, p={self.ring.p}, prec={self.prec})"

    def at_prec(self, prec):
        if prec > self.prec:
            raise PrecisionExhausted(
                f"cannot raise precision {self.prec} to {prec}"
            )
        if prec < 1:
            raise PrecisionExhausted("precision dropped below 1")
        if prec == self.prec:
            return self
        pk = self.ring.p**prec
        return WittElement(self.ring, tuple(c % pk for c in self.coeffs), prec)

    def __bool__(self):
        # False exactly for zero, as for numbers
        return any(self.coeffs)

    def is_unit(self):
        p = self.ring.p
        return any(c % p for c in self.coeffs)

    def valuation(self):
        """min p-adic valuation over coefficients; prec when zero."""
        return min(_vp(c, self.ring.p, self.prec) for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            # an int is a constant: compare the first coefficient, and the
            # others with zero
            c = self.coeffs
            return (c[0] - other) % self.ring.p**self.prec == 0 and not any(c[1:])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        pk = self.ring.p ** min(self.prec, o.prec)
        return all(a % pk == b % pk for a, b in zip(self.coeffs, o.coeffs))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, WittElement):
            if other.ring is self.ring or other.ring.params == self.ring.params:
                return other
            return None
        if isinstance(other, int):
            return self.ring.from_int(other, prec=self.prec)
        return None

    def _add(self, other, sign):
        if isinstance(other, int):
            c = self.coeffs
            first = (c[0] + sign * other) % self.ring.p**self.prec
            return WittElement(self.ring, (first, *c[1:]), self.prec)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        pk = self.ring.p**prec
        return WittElement(
            self.ring, tuple((a + sign * b) % pk for a, b in zip(self.coeffs, o.coeffs)), prec
        )

    def __neg__(self):
        pk = self.ring.p**self.prec
        return WittElement(self.ring, tuple(-c % pk for c in self.coeffs), self.prec)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        prec = min(self.prec, o.prec)
        pk = ring.p**prec
        if ring.m == 1:
            return WittElement(ring, ((self.coeffs[0] * o.coeffs[0]) % pk,), prec)
        raw = _zpoly_mul_reduce(self.coeffs, o.coeffs, ring.mlift)
        return WittElement(ring, tuple(c % pk for c in raw), prec)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.invert() ** (-e)
        ring = self.ring
        pk = ring.p**self.prec
        if ring.m == 1:
            return WittElement(ring, (pow(self.coeffs[0], e, pk),), self.prec)
        return WittElement(ring, tuple(_zpoly_pow(self.coeffs, e, ring.mlift, pk)), self.prec)

    def invert(self):
        ring, p = self.ring, self.ring.p
        if not self.is_unit():
            raise NonUnitError(self)
        pk = p**self.prec
        if ring.m == 1:
            return WittElement(ring, (pow(self.coeffs[0], -1, pk),), self.prec)
        # invert mod p by extended Euclid in F_p[t], then Hensel-lift
        g, s = _fp_euclid(ring.mlift, self.coeffs, p)
        c = pow(g[0], -1, p)  # g is a nonzero constant: the modulus is irreducible
        b = WittElement(ring, tuple(c * si % p for si in s) + (0,) * (ring.m - len(s)), self.prec)
        known = 1
        while known < self.prec:
            b = b * (2 - self * b)
            known *= 2
        return b

    # -- delta structure ----------------------------------------------------

    def frobenius(self):
        ring = self.ring
        if ring.m == 1:
            return self
        # sum of c_j phi(t)^j, one integer matrix-vector product
        pk = ring.p**self.prec
        return WittElement(
            ring, tuple(dot(row, self.coeffs) % pk for row in ring.frobenius_rows), self.prec
        )

    def _div_p_exact(self):
        p = self.ring.p
        if any(c % p for c in self.coeffs):
            raise InputError(f"element not divisible by p: {self!r}")
        if self.prec < 2:
            raise PrecisionExhausted("division by p needs prec >= 2")
        pk = p ** (self.prec - 1)
        return WittElement(
            self.ring, tuple((c // p) % pk for c in self.coeffs), self.prec - 1
        )

    def delta(self):
        """Fermat-quotient operator (phi(x) - x^p)/p; consumes one digit."""
        if self.prec < 2:
            raise PrecisionExhausted("delta needs prec >= 2")
        ring = self.ring
        if ring.m == 1:
            p, pk = ring.p, ring.p**self.prec
            x = self.coeffs[0]
            d = (x - pow(x, p, pk)) % pk
            return WittElement(ring, (d // p,), self.prec - 1)
        return (self.frobenius() - self**ring.p)._div_p_exact()

    def is_constant(self):
        if self.prec < 2:
            raise PrecisionExhausted("is_constant needs prec >= 2")
        return self.delta().is_zero()


class _Ring:
    """Both backends: one coefficient domain per precision, of the class
    ``_Domain`` chosen when the ring is built, made on first use and kept
    (a copy or a pickle starts with none), and the unit draw."""

    def values(self, prec=None):
        """The domain at prec, or at the ring's own precision for None."""
        dom = self._domains.get(prec)
        if dom is None:
            dom = self._domains[prec] = (
                self.values(self.one.prec) if prec is None else self._Domain(self, prec))
        return dom

    def __getstate__(self):
        return {**self.__dict__, "_domains": {}}

    def random_unit(self, rng: random.Random, prec=None):
        while True:
            x = self.random_element(rng, prec)
            if x.is_unit():
                return x


class WittRing(_Ring):
    """Truncated Witt ring W(F_{p^m}) mod p^prec with Frobenius lift."""

    kind = ARITHMETIC

    def __init__(self, params: RingParams):
        self.params, self.p, self.prec, self.m = params, params.p, params.prec, params.m
        self.q = params.q
        self._Domain, self._domains = _Residues if self.m == 1 else Values, {}
        # monic integer lift of the modulus with coefficients in [0, p)
        self.mlift = [c % params.p for c in params.modulus]
        self.zero = WittElement(self, (0,) * self.m, self.prec)
        self.one = WittElement(self, (1,) + (0,) * (self.m - 1), self.prec)
        self.phi_t = self._lift_frobenius_root() if self.m > 1 else None
        # the Frobenius matrix by rows: row i holds the t^i coefficients of
        # phi(t)^0, ..., phi(t)^(m-1)
        powers = [self.one]
        for _ in range(self.m - 1):
            powers.append(powers[-1] * self.phi_t)
        self.frobenius_rows = tuple(zip(*(x.coeffs for x in powers)))

    def __repr__(self):
        return f"WittRing(p={self.p}, prec={self.prec}, m={self.m})"

    def _lift_frobenius_root(self):
        """Hensel-lift the root of the modulus congruent to t^p mod p.

        Newton iteration r <- r - M(r)/M'(r); M'(r) is a unit because the
        modulus is separable mod p.
        """
        t = self.element([0, 1])
        r = t**self.p
        dcoeffs = [i * c for i, c in enumerate(self.mlift)][1:]

        def ev(coeffs, x):
            acc = self.from_int(coeffs[-1])
            for c in reversed(coeffs[:-1]):
                acc = acc * x + self.from_int(c)
            return acc

        for _ in range(self.prec.bit_length() + 1):
            fr = ev(self.mlift, r)
            if fr.is_zero():
                break
            r = r - fr * ev(dcoeffs, r).invert()
        if not ev(self.mlift, r).is_zero():
            raise InputError("Frobenius lift failed; modulus not separable?")
        return r

    # -- constructors -------------------------------------------------------

    def _check_prec(self, prec):
        """prec, or the ring's precision for None; PrecisionExhausted
        outside [1, self.prec]."""
        prec = self.prec if prec is None else prec
        if prec < 1 or prec > self.prec:
            raise PrecisionExhausted(f"precision {prec} outside [1, {self.prec}]")
        return prec

    def from_int(self, n: int, prec=None) -> WittElement:
        prec = self._check_prec(prec)
        return WittElement(self, (n % self.p**prec,) + (0,) * (self.m - 1), prec)

    def element(self, coeffs, prec=None) -> WittElement:
        prec = self._check_prec(prec)
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            raise InputError(f"coefficient list longer than m={self.m}")
        coeffs += [0] * (self.m - len(coeffs))
        pk = self.p**prec
        return WittElement(self, tuple(c % pk for c in coeffs), prec)

    def teichmueller(self, a) -> WittElement:
        """Multiplicative lift of a residue-field element.

        Iterates x -> x^q; each step gains one digit, so prec-1 steps
        stabilize mod p^prec.
        """
        if isinstance(a, WittElement):
            coeffs = [c % self.p for c in a.coeffs]
        elif isinstance(a, int):
            coeffs = [a % self.p]
        else:
            coeffs = [c % self.p for c in a]
        x = self.element(coeffs)
        for _ in range(self.prec - 1):
            x = x**self.q
        return x

    def carry_term(self, x: WittElement, y: WittElement) -> WittElement:
        """C_p(x,y) = (x^p + y^p - (x+y)^p)/p; the numerator is divisible
        by p, so dividing its residue mod p^prec gives C_p mod p^(prec-1)."""
        if min(x.prec, y.prec) < 2:
            raise PrecisionExhausted("carry term needs prec >= 2")
        p = self.p
        return (x**p + y**p - (x + y) ** p)._div_p_exact()

    # -- residue field / sampling -------------------------------------------

    def residue_elements(self):
        """All q residue-field elements as coefficient tuples mod p."""
        out = [()]
        for _ in range(self.m):
            out = [pre + (c,) for pre in out for c in range(self.p)]
        return [tuple(t) for t in out]

    def random_element(self, rng: random.Random, prec=None) -> WittElement:
        prec = self._check_prec(prec)
        pk = self.p**prec
        return WittElement(self, tuple([randbelow(rng, pk) for _ in range(self.m)]), prec)


# ---------------------------------------------------------------------------


class SeriesElement(_Element):
    """Truncated power series over Q as integer numerators over one
    denominator: the coefficient of t^i is ``num[i] / den`` for i < trunc.

    ``den > 0`` and ``gcd(den, *num) == 1``, so every value has exactly one
    stored form; ``coeffs`` is a read-only ``Fraction`` view of it.
    """

    __slots__ = ("ring", "num", "den", "trunc")

    def __init__(self, ring, num, den, trunc):
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(map(g.__rfloordiv__, num))
            den //= g
        self.ring = ring
        self.num = num
        self.den = den
        self.trunc = trunc

    @property
    def prec(self):
        # uniform name so generic code can treat both backends alike
        return self.trunc

    @property
    def coeffs(self):
        from fractions import Fraction

        return tuple(Fraction(c, self.den) for c in self.num)

    def __repr__(self):
        return f"SeriesElement({[str(c) for c in self.coeffs]}, trunc={self.trunc})"

    def at_prec(self, trunc):
        if trunc > self.trunc:
            raise PrecisionExhausted(
                f"cannot raise truncation {self.trunc} to {trunc}"
            )
        if trunc < 1:
            raise PrecisionExhausted("truncation dropped below 1")
        if trunc == self.trunc:
            return self
        return SeriesElement(self.ring, self.num[:trunc], self.den, trunc)

    def __bool__(self):
        return any(self.num)

    def is_unit(self):
        return self.num[0] != 0

    def valuation(self):
        for i, c in enumerate(self.num):
            if c:
                return i
        return self.trunc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return all(a * o.den == b * self.den for a, b in zip(self.num, o.num))

    def _coerce(self, other):
        if isinstance(other, SeriesElement):
            return other
        if not isinstance(other, int):
            from fractions import Fraction

            if not isinstance(other, Fraction):
                return None
        return self.ring.from_rational(other, trunc=self.trunc)

    def _add(self, other, sign):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        g = gcd(self.den, o.den)
        fa, fb = o.den // g, sign * (self.den // g)
        num = tuple(a * fa + b * fb for a, b in zip(self.num, o.num))
        return SeriesElement(self.ring, num, self.den * fa, len(num))

    def __neg__(self):
        return SeriesElement(self.ring, tuple(-c for c in self.num), self.den, self.trunc)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = min(self.trunc, o.trunc)
        a, b = self.num, o.num
        out = [0] * k
        for i in range(k):
            ai = a[i]
            if ai:
                for j in range(k - i):
                    if b[j]:
                        out[i + j] += ai * b[j]
        return SeriesElement(self.ring, tuple(out), self.den * o.den, k)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.invert() ** (-e)
        return _power(mul, self.ring.one.at_prec(self.trunc), self, e)

    def invert(self):
        if not self.is_unit():
            raise NonUnitError(self)
        k, a = self.trunc, self.num
        # 1/(a/den) = den/a; B[n] = b[n] * a0^(n+1) stays integral along the
        # recursion for b = 1/a, B[n] = -sum_i a[i] a0^(i-1) B[n-i] over
        # 1 <= i <= n, so den * b[n] sits over a0^k
        a0 = a[0]
        pw = list(accumulate(repeat(a0, k - 1), mul, initial=1))  # a0^0 .. a0^(k-1)
        c = list(map(mul, a[1:], pw))  # c[i-1] = a[i] * a0^(i-1)
        bint = [1]
        for _ in range(1, k):
            bint.append(-sum(map(mul, c, reversed(bint))))
        den = self.den
        out = tuple([b * den * q for b, q in zip(bint, reversed(pw))])
        return SeriesElement(self.ring, out, pw[-1] * a0, k)

    def delta(self):
        """Formal derivative d/dt; loses one order of information."""
        if self.trunc < 2:
            raise PrecisionExhausted("delta needs trunc >= 2")
        num = tuple(map(mul, range(1, self.trunc), self.num[1:]))
        return SeriesElement(self.ring, num, self.den, self.trunc - 1)

    def is_constant(self):
        if self.trunc < 2:
            raise PrecisionExhausted("is_constant needs trunc >= 2")
        return self.delta().is_zero()

    def frobenius(self):
        raise BackendError("frobenius is not defined on the series backend")


class SeriesRing(_Ring):
    """Q[[t]]/t^trunc with derivation d/dt."""

    kind = KOLCHIN

    def __init__(self, trunc: int):
        if trunc < 2:
            raise InputError(f"trunc must be >= 2, got {trunc}")
        self.trunc = trunc
        self._Domain, self._domains = _Series, {}
        self.zero = self.from_rational(0)
        self.one = self.from_rational(1)

    def __repr__(self):
        return f"SeriesRing(trunc={self.trunc})"

    def from_rational(self, c, trunc=None) -> SeriesElement:
        return self.element([c], trunc)

    from_int = from_rational

    def _check_trunc(self, trunc):
        """trunc, or the ring's truncation for None; PrecisionExhausted
        outside [1, self.trunc]."""
        trunc = self.trunc if trunc is None else trunc
        if trunc < 1 or trunc > self.trunc:
            raise PrecisionExhausted(f"truncation {trunc} outside [1, {self.trunc}]")
        return trunc

    def element(self, coeffs, trunc=None) -> SeriesElement:
        trunc = self._check_trunc(trunc)
        from fractions import Fraction

        coeffs = [Fraction(c) for c in coeffs][:trunc]
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        return SeriesElement(self, tuple(num) + (0,) * (trunc - len(num)), den, trunc)

    @property
    def t(self) -> SeriesElement:
        return self.element([0, 1])

    def teichmueller(self, a):
        raise BackendError("teichmueller is not defined on the series backend")

    def carry_term(self, x, y):
        # derivations are additive: no carry
        k = min(x.trunc, y.trunc)
        if k < 2:
            raise PrecisionExhausted("carry term needs trunc >= 2")
        return self.from_rational(0, trunc=k - 1)

    def random_element(self, rng: random.Random, trunc=None) -> SeriesElement:
        # integer draws: the element over denominator 1, which is its normal form
        trunc = self._check_trunc(trunc)
        # randbelow(rng, 7) - 3 draws as randint(-3, 3), which is -3 + randrange(7)
        return SeriesElement(self, tuple([randbelow(rng, 7) - 3 for _ in range(trunc)]), 1, trunc)


def find_irreducible(p: int, m: int):
    """First monic irreducible of degree m over F_p in lexicographic order."""
    if m == 1:
        return ()
    if not _is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    # t divides every candidate with constant term 0
    for tail in product(range(1, p), *[range(p)] * (m - 1)):
        cand = list(tail) + [1]
        if _fp_is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("unreachable: irreducibles exist in every degree")


def make_ring(p, prec, m=1):
    return WittRing(RingParams(p=p, prec=prec, m=m, modulus=find_irreducible(p, m)))


# ---------------------------------------------------------------------------
# Operation-style aliases for the common contract.

def frobenius(x):
    return x.frobenius()


def delta(x):
    return x.delta()


def teichmueller(a, ring):
    return ring.teichmueller(a)


def is_constant(x) -> bool:
    return x.is_constant()


def invert(x):
    return x.invert()
