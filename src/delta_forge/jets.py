"""Symbolic jet polynomials and the prolongation operator.

A jet polynomial lives in R[x_j^(i)] where (j, i) indexes base variable j
and jet order i.  On the arithmetic backend prolongation is
(f^phi - f^p)/p with the substitution x^(i) -> (x^(i))^p + p x^(i+1) and
coefficientwise Frobenius; the division by p is exact.  On the series
backend prolongation is the formal derivation x^(i) -> x^(i+1) with
coefficientwise d/dt.  On both, the result has one digit or order less
precision than its input.

One packed form: a layout (``vars``, a sorted tuple of (j, i), and a
field width ``bits``) puts the exponent of the n-th variable in bits
[n*bits, (n+1)*bits) of an int key, so multiplying monomials adds keys.
``top`` bounds every exponent; a result uses a layout only if its
exponents fit, so no field carries into the next.  ``terms`` maps keys to
nonzero normal forms in ``ring.values(prec)``, the ring's coefficient
domain at the polynomial's precision, which matrices share: int residues
on W(Z/p^N), elements elsewhere (one domain class per backend).  One
``prec`` covers the whole polynomial, the zero polynomial included.  Tuple
monomials ((j, i), e) are built only by ``sorted_terms``, for printing and
serialization.

Products skip what vanishes at their precision N, by two exact facts:

* layer rule: terms of valuations v and w (p-adic on W, t-adic on Q[[t]])
  have a product of valuation at least v + w, so the product kernel's pair
  loop groups terms by valuation and never pairs layers with v + w >= N;
* binomial split: the f^p of an arithmetic prolongation at precision N
  writes f = A + p B', A the unit terms, and sums
  C(p, k) p^k A^(p-k) B'^k, each term k >= 1 formed only at the
  precision N - v_p(C(p, k) p^k) it needs (N - k - 1 below k = p, N - p
  at k = p) and skipped where that is none.  So the terms of f of
  valuation N - 1 still never reach f^p, as the lemma a = b mod p^j =>
  a^p = b^p mod p^(j+1) allows: they are terms of B' of valuation N - 2,
  and B' enters only terms needed mod p^(N-2) or less.  Where the term
  k = p is needed mod p alone (N = p + 1), B'^p = sum c^p m^p mod p takes
  no product: its terms are {p key: c^p}, which fit, as the layout has
  room for p top.  Each last product (A^(p-1) A, A^(p-k) B'^k, B'^(p-1) B')
  builds no dict: the kernel adds it into f^phi times -C(p, k) p^k, whose
  valuation N - q makes operands known mod p^q, lifted to N, exact.

Row packing: an int product (W(Z/p^N), m = 1) of at least ``_ROW_PAIRS``
term pairs picks the field along which its smaller operand has the fewest
rows, a row being the terms that agree on every other field.  If the rows
of both pair up in at most a quarter of their term pairs, each row becomes
one int with a slot per exponent of that field, and the row products,
summed by the rest of the key, are unpacked, each slot reduced mod p^N,
times scale.  Exact: normal forms are non-negative, so no slot borrows, and
a slot is as wide as the sum of every term product of its key, those with
v + w >= N included.  Other products take the pair loop.

Evaluation splits each key at half its fields into a low and a high
half-key, and keeps per half a table from half-key to the normal form of
its monomial, filled on first use from one power table per variable.  A
term then costs a product per nonzero half-key (a half-key 0 is the
monomial 1), and the sum is reduced once.  In a layout of 0 or 1 variable
the low half is empty, and the high table is keyed by the whole key.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import reduce
from math import comb
from operator import mul, or_

from .errors import ArityError, InputError, PrecisionExhausted, TermBudgetError
from .rings import ARITHMETIC, Record, _power, _Residues, same_ring
from .serialize import elem_from_json, elem_to_json

# most terms any polynomial may have; a larger result raises TermBudgetError
TERM_CAP = 10**6
# fewest term pairs of an int product for which _mul_into looks for rows
_ROW_PAIRS = 1 << 16


def _check_cap(n):
    if n > TERM_CAP:
        raise TermBudgetError(n, TERM_CAP)


def _mul_into(out, a, b, dom, bits, fields, scale=1):
    """Add the product of the terms a and b at precision ``dom.prec``, each
    value of a times scale, into the raw values out, and return out.  Keys,
    of ``fields`` fields of width bits, add as monomials multiply; values
    are left unreduced, every sum starting from the int 0, which elements
    accept.  Large int products pack rows where terms line up along a
    field (module docstring)."""
    pairs = len(a) * len(b)
    if pairs >= _ROW_PAIRS and type(dom) is _Residues:
        # the field, at shift s, along which the smaller operand has fewest
        # rows; a key with that field set to all ones names its row
        small, large = sorted((a, b), key=len)
        mask = (1 << bits) - 1
        rows, s = min((len({k | mask << s for k in small}), s)
                      for s in range(0, fields * bits, bits))
        if 4 * rows * len({k | mask << s for k in large}) <= pairs:
            return _mul_rows(out, a, b, s, mask << s, scale, dom.pk)
    # a layer of a of valuation v meets only the terms of b of valuation
    # below prec - v, a prefix of b sorted by valuation: the other pairs
    # vanish at prec
    val, prec = dom.valuation, dom.prec
    layers = {}
    for k, c in a.items():
        # an element times the int 1 would still cost a whole product
        layers.setdefault(val(c), []).append((k, c if scale == 1 else c * scale))
    b = sorted(b.items(), key=lambda kc: val(kc[1]))
    vals = [val(c) for _, c in b]
    get = out.get
    for v, layer in layers.items():
        bl = b[:bisect_left(vals, prec - v)]
        for ka, ca in layer:
            for kb, cb in bl:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
    _check_cap(len(out))
    return out


def _mul_rows(out, a, b, s, fm, scale, pk):
    """``_mul_into`` on int terms mod pk, one int per row, its slot e the
    value of the term of exponent e in the field fm at shift s.  A slot sums
    at most min(|a|, |b|) term products: w = bits(max a max b min(|a|, |b|))."""
    w = (max(a.values()) * max(b.values()) * min(len(a), len(b))).bit_length()

    def rows(terms):
        packed = {}
        for k, c in terms.items():
            e = k & fm
            packed[k ^ e] = packed.get(k ^ e, 0) | c << (e >> s) * w
        return packed

    acc, (ra, rb) = {}, sorted((rows(a), rows(b)), key=len)
    get, rb = acc.get, list(rb.items())
    for ka, ca in ra.items():
        for kb, cb in rb:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    del ra, rb
    get, slot, step = out.get, (1 << w) - 1, 1 << s
    while acc:
        k, x = acc.popitem()
        while x:
            if c := (x & slot) % pk:
                out[k] = get(k, 0) + c * scale
            x >>= w
            k += step
    _check_cap(len(out))
    return out


def _naturals(values):
    return all(type(v) is int and v >= 0 for v in values)


class _Table(dict):
    """A dict that fills a missing key with ``fill(key)``."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def var_name(j: int, i: int) -> str:
    if i <= 3:
        return f"x{j}" + "'" * i
    return f"x{j}^({i})"


class JetPolynomial:
    """Immutable sparse polynomial in jet variables over a ring backend."""

    __slots__ = ("ring", "vars", "bits", "top", "terms", "prec")

    def __init__(self, ring, vars_, bits, top, terms, prec):
        self.ring = ring
        self.vars = vars_
        self.bits = bits
        self.top = top
        self.terms = terms
        self.prec = prec

    @classmethod
    def from_terms(cls, ring, items):
        """Build from (monomial, element) pairs, a monomial being pairs
        ((j, i), e).  The polynomial takes the least precision among the
        coefficients, those that cancel or vanish included."""
        merged = {}
        prec = ring.one.prec
        for mono, c in items:
            prec = min(prec, c.prec)
            exps = {}
            for v, e in mono:
                exps[v] = exps.get(v, 0) + e
            mono = tuple(sorted((v, e) for v, e in exps.items() if e))
            merged[mono] = merged[mono] + c if mono in merged else c
        dom = ring.values(prec)
        merged = {m: r for m, c in merged.items() if (r := dom.from_elem(c))}
        vars_ = tuple(sorted({v for mono in merged for v, _ in mono}))
        top = max((e for mono in merged for _, e in mono), default=0)
        bits = top.bit_length()
        slot = {v: n * bits for n, v in enumerate(vars_)}
        terms = {sum(e << slot[v] for v, e in mono): c for mono, c in merged.items()}
        return cls(ring, vars_, bits, top, terms, prec)

    @classmethod
    def zero(cls, ring):
        return cls.from_terms(ring, [])

    @classmethod
    def constant(cls, ring, c):
        if isinstance(c, int):
            c = ring.from_int(c)
        return cls.from_terms(ring, [((), c)])

    @classmethod
    def variable(cls, ring, j: int, i: int = 0):
        return cls.from_terms(ring, [((((j, i), 1),), ring.one)])

    def _new(self, vars_, bits, top, acc, prec):
        """The polynomial of raw values ``acc``, normalised at ``prec``."""
        red = self.ring.values(prec).reduce
        terms = {k: r for k, c in acc.items() if (r := red(c))}
        _check_cap(len(terms))
        return JetPolynomial(self.ring, vars_, bits, top, terms, prec)

    # -- layout -----------------------------------------------------------

    def _exponents(self, key):
        mask = (1 << self.bits) - 1
        return [key >> n * self.bits & mask for n in range(len(self.vars))]

    def _used(self):
        """(index, variable) of every variable some term carries."""
        seen, mask = reduce(or_, self.terms, 0), (1 << self.bits) - 1
        return [(n, v) for n, v in enumerate(self.vars) if (seen >> n * self.bits) & mask]

    def _relayout(self, vars_, bits):
        """The terms re-keyed for a layout holding every variable of self."""
        if vars_ == self.vars and bits == self.bits:
            return self.terms
        slots = [vars_.index(v) * bits for v in self.vars]
        return {
            sum(e << s for e, s in zip(self._exponents(k), slots)): c
            for k, c in self.terms.items()
        }

    def _align(self, other, top):
        """A layout for both operands with room for exponents up to top."""
        if not same_ring(self.ring, other.ring):
            raise TypeError("jet polynomials over different rings")
        if self.vars == other.vars and self.bits == other.bits and not top >> self.bits:
            return self.vars, self.bits, self.terms, other.terms
        vars_ = tuple(sorted(set(self.vars) | set(other.vars)))
        bits = top.bit_length()
        return vars_, bits, self._relayout(vars_, bits), other._relayout(vars_, bits)

    # -- structure ------------------------------------------------------

    @property
    def order(self) -> int:
        return max((i for _, (_, i) in self._used()), default=0)

    @property
    def base_vars(self):
        return sorted({j for _, (j, _) in self._used()})

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        """(monomial, element) pairs in monomial order."""
        dom = self.ring.values(self.prec)
        return sorted(
            ((tuple((v, e) for v, e in zip(self.vars, self._exponents(k)) if e), dom.to_elem(c))
             for k, c in self.terms.items()),
            key=lambda kv: kv[0],
        )

    def __eq__(self, other):
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        return f"JetPolynomial({self})"

    def __str__(self):
        return _terms_text(self.sorted_terms())

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        top = max(self.top, other.top)
        vars_, bits, a, b = self._align(other, top)
        out = dict(a)
        for k, c in b.items():
            out[k] = out[k] + c if k in out else c
        return self._new(vars_, bits, top, out, min(self.prec, other.prec))

    def __neg__(self):
        terms = {k: -c for k, c in self.terms.items()}
        return self._new(self.vars, self.bits, self.top, terms, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        top = self.top + other.top
        vars_, bits, a, b = self._align(other, top)
        prec = min(self.prec, other.prec)
        out = _mul_into({}, a, b, self.ring.values(prec), bits, len(vars_))
        return self._new(vars_, bits, top, out, prec)

    def __pow__(self, e: int):
        if e < 0:
            raise InputError("negative polynomial powers are not defined")
        # one layout wide enough for the last product serves every step
        bits = max(self.bits, (e * self.top).bit_length())
        base = self._new(self.vars, bits, self.top, self._relayout(self.vars, bits), self.prec)
        one = {0: self.ring.values(self.prec).from_elem(self.ring.one)}
        return _power(mul, self._new(self.vars, bits, 0, one, self.prec), base, e)

    # -- prolongation ---------------------------------------------------

    def prolong(self):
        # the zero polynomial too: its precision is all that is left of it
        if self.prec < 2:
            raise PrecisionExhausted("prolongation needs coefficient precision >= 2")
        if self.ring.kind == ARITHMETIC:
            return self._prolong_arithmetic()
        return self._prolong_kolchin()

    def _prolonged_layout(self, top):
        """Every variable and its derivative, with room for exponents up to top."""
        vars_ = tuple(sorted(set(self.vars) | {(j, i + 1) for j, i in self.vars}))
        bits = top.bit_length()
        return vars_, bits, {v: n * bits for n, v in enumerate(vars_)}

    def _prolong_arithmetic(self):
        ring, p, prec = self.ring, self.ring.p, self.prec
        dom = ring.values(prec)
        terms = [(self._exponents(k), dom.to_elem(c)) for k, c in self.terms.items()]
        # p * (total degree) bounds every exponent of f^phi and of f^p
        deg = max((sum(exps) for exps, _ in terms), default=0)
        vars_, bits, slot = self._prolonged_layout(p * deg)
        fphi = {}
        get = fphi.get
        choices = {}
        for exps, c in terms:
            # per-variable expansion of (x^p + p x')^e; factors p^k that
            # vanish at this precision (every k >= prec) are left out,
            # keeping this short
            partial = [(0, dom.from_elem(c.frobenius()))]
            for (j, i), e in zip(self.vars, exps):
                if not e:
                    continue
                if ((j, i), e) not in choices:
                    s, s1 = slot[(j, i)], slot[(j, i + 1)]
                    choices[(j, i), e] = [
                        ((p * (e - k) << s) + (k << s1), cv)
                        for k in range(min(e, prec - 1) + 1)
                        if (cv := dom.from_elem(ring.from_int(comb(e, k) * p**k)))
                    ]
                partial = [
                    (ka + kb, r)
                    for ka, ca in partial
                    for kb, cb in choices[(j, i), e]
                    if (r := dom.reduce(ca * cb))
                ]
                _check_cap(len(partial))
            for k, c in partial:
                fphi[k] = get(k, 0) + c
        # top = deg keeps f^p in this layout, so its keys are fphi's
        f = self._new(vars_, bits, deg, self._relayout(vars_, bits), prec)
        f._pth_power(fphi, -1)
        red, div_p = dom.reduce, dom.div_p
        # in place: a second table as large as f^phi's would set the peak memory
        for k, c in fphi.items():
            fphi[k] = div_p(r) if (r := red(c)) else 0
        for k in [k for k, c in fphi.items() if not c]:
            del fphi[k]
        _check_cap(len(fphi))
        return JetPolynomial(ring, vars_, bits, p * deg, fphi, prec - 1)

    def _pth_power(self, acc, sign):
        """Add sign f^p, at the precision N of f, into the raw values acc,
        keyed in f's variables at the field width it returns, by the
        binomial split (module docstring): f = A + p B', A the unit terms.
        Only A^j and B'^k below p are products of their own; each last
        product goes into acc scaled by sign C(p, k) p^k.  That scale has
        valuation N - q, so operands known mod p^q suffice; they are lifted
        to N, or on m >= 2 the sum would keep precision q."""
        p, n, top, fields = self.ring.p, self.prec, self.top, len(self.vars)
        dom = self.ring.values(n)
        bits = max(self.bits, (p * top).bit_length())
        terms = self._relayout(self.vars, bits)

        def poly(values, prec):
            return self._new(self.vars, bits, top, values, prec)

        a = poly({k: c for k, c in terms.items() if dom.is_unit(c)}, n)
        b = {k: dom.lift(dom.div_p(c)) for k, c in terms.items() if not dom.is_unit(c)}
        # the precision of each term k >= 1 that has any
        ks = {k: q for k in range(1, p + 1) if (q := n - k - (k < p)) > 0}
        # A^j for j = 1..p-1, kept only where the term k = p - j needs it
        kept, power = {}, a
        for j in range(1, p):
            if p - j in ks:
                kept[j] = power.terms
            if j < p - 1:
                power = power * a
        _mul_into(acc, power.terms, a.terms, dom, bits, fields, sign)
        get, bk = acc.get, None
        for k, q in ks.items():
            s = sign * comb(p, k) * p**k
            if k == p and q == 1:
                # mod p, (sum c m)^p = sum c^p m^p; p top fits in bits
                for key, c in poly(b, 1).terms.items():
                    acc[key * p] = get(key * p, 0) + dom.lift(c**p) * s
            elif k == p:
                # B'^p = B'^(p-1) B', both at q = N - p
                _mul_into(acc, bk, b, self.ring.values(q), bits, fields, s)
            else:
                bk = poly(b, q) if bk is None else poly(bk, q) * poly(b, q)
                bk = {key: dom.lift(c) for key, c in bk.terms.items()}
                _mul_into(acc, kept.pop(p - k), bk, self.ring.values(q), bits, fields, s)
        return bits

    def _prolong_kolchin(self):
        vars_, bits, slot = self._prolonged_layout(self.top + 1)
        terms = [(self._exponents(k), c) for k, c in self.terms.items()]
        out = {}
        get = out.get
        for exps, c in terms:
            key = sum(e << slot[v] for v, e in zip(self.vars, exps))
            out[key] = get(key, 0) + c.delta()
            for (j, i), e in zip(self.vars, exps):
                if e:
                    k = key - (1 << slot[(j, i)]) + (1 << slot[(j, i + 1)])
                    out[k] = get(k, 0) + c * e
        # d/dt costs one order of every coefficient, constants included: a
        # coefficient known mod t^M has a derivative known only mod t^(M-1)
        return self._new(vars_, bits, self.top + 1, out, self.prec - 1)

    # -- evaluation -----------------------------------------------------

    def evaluate(self, point):
        """f(point), at the least precision of f and of the components of
        the variables its terms carry, through half-key tables (module
        docstring)."""
        xs = {n: point.component(j, i) for n, (j, i) in self._used()}
        dom = self.ring.values(min([self.prec, *(x.prec for x in xs.values())]))
        bits, mask = self.bits, (1 << self.bits) - 1
        # {exponent: normal form of its power} per variable a term carries
        powers = {n: _Table(lambda e, x=x: dom.from_elem(x**e)) for n, x in xs.items()}

        def monomials(n):
            """{nonzero half-key: its monomial's normal form}, fields from
            variable n on."""
            def value(key):
                v, m = None, n
                while key:
                    if e := key & mask:
                        v = powers[m][e] if v is None else v * powers[m][e]
                    key, m = key >> bits, m + 1
                return dom.reduce(v)
            return _Table(value)

        half = len(self.vars) // 2
        shift = half * bits
        low, lo_t, hi_t = (1 << shift) - 1, monomials(0), monomials(half)
        acc = dom.from_elem(self.ring.zero)
        for k, c in self.terms.items():
            # a half-key 0 is the monomial 1 and takes no product
            if lo := k & low:
                c = c * lo_t[lo]
            if hi := k >> shift:
                c = c * hi_t[hi]
            acc = acc + c
        return dom.to_elem(acc)

    # -- serialization --------------------------------------------------

    def to_records(self):
        return _terms_records(self.sorted_terms())

    def text_and_records(self):
        """(str(self), self.to_records()) from one decode and sort of the terms."""
        terms = self.sorted_terms()
        return _terms_text(terms), _terms_records(terms)

    @classmethod
    def from_records(cls, ring, records):
        if not isinstance(records, list):
            raise InputError(f"jet terms must be a list of records, got {records!r}")
        items = []
        for rec in records:
            exps = rec.get("exponents") if isinstance(rec, dict) else None
            if not (
                isinstance(exps, list) and "coefficient" in rec
                and all(isinstance(t, list) and len(t) == 3 and _naturals(t) for t in exps)
                and len({(t[0], t[1]) for t in exps}) == len(exps)
            ):
                raise InputError(
                    'jet term must be {"exponents": [[j, i, e], ...], "coefficient": c}'
                    f" with distinct (j, i) and naturals j, i, e; got {rec!r}"
                )
            mono = tuple(sorted(((j, i), e) for j, i, e in exps))
            items.append((mono, elem_from_json(ring, rec["coefficient"])))
        return cls.from_terms(ring, items)


def _terms_text(terms):
    if not terms:
        return "0"
    parts = []
    for mono, c in terms:
        factors = []
        cs = _coeff_str(c)
        if cs != "1" or not mono:
            factors.append(cs)
        for (j, i), e in mono:
            factors.append(var_name(j, i) + (f"^{e}" if e > 1 else ""))
        parts.append("*".join(factors))
    return " + ".join(parts)


def _terms_records(terms):
    return [
        {"exponents": [[j, i, e] for (j, i), e in mono],
         "coefficient": elem_to_json(c)}
        for mono, c in terms
    ]


def _coeff_str(c):
    coeffs = getattr(c, "coeffs", None)
    if coeffs is not None and len(coeffs) == 1:
        return str(coeffs[0])
    return "[" + ",".join(str(x) for x in coeffs) + "]"


class JetPresentation(Record):
    """Generators (f, delta f, ..., delta^n f) of a jet-space presentation."""

    __slots__ = ("generators", "level", "base_count")

    def __init__(self, generators: tuple, level: int, base_count: int):
        super().__init__(generators, level, base_count)


def prolong(f: JetPolynomial) -> JetPolynomial:
    return f.prolong()


def jet_presentation(f_list, n: int) -> JetPresentation:
    gens = []
    for f in f_list:
        if f.order != 0:
            raise InputError(f"presentation inputs must have order 0, got {f.order}")
    for f in f_list:
        chain = [f]
        for _ in range(n):
            chain.append(chain[-1].prolong())
        gens.extend(chain)
    base = max((j + 1 for f in f_list for j in f.base_vars), default=0)
    return JetPresentation(tuple(gens), n, base)


class JetPoint:
    """Tuple (a, delta a, ..., delta^n a) per base variable."""

    __slots__ = ("components_", "level")

    def __init__(self, components, level):
        self.components_ = components
        self.level = level

    def component(self, j: int, i: int):
        if j >= len(self.components_) or i > self.level:
            raise ArityError(f"jet point has no component ({j},{i})")
        return self.components_[j][i]

    @property
    def base_count(self):
        return len(self.components_)

    def __repr__(self):
        return f"JetPoint({self.components_})"


def nabla(values, n: int) -> JetPoint:
    """Iterated delta: value tuple -> (a, delta a, ..., delta^n a)."""
    if not isinstance(values, (tuple, list)):
        values = (values,)
    comps = []
    for a in values:
        chain = [a]
        for _ in range(n):
            chain.append(chain[-1].delta())
        comps.append(tuple(chain))
    return JetPoint(tuple(comps), n)


def eval_jet(f: JetPolynomial, point: JetPoint):
    for _, (j, i) in f._used():
        if j >= point.base_count or i > point.level:
            raise ArityError(
                f"point does not cover variable {var_name(j, i)}"
            )
    return f.evaluate(point)


# ---------------------------------------------------------------------------
# Textual syntax: sums of terms like "3*x0^2*x1'" or "x0^(4)^2 - 2".

_TOKEN = re.compile(
    r"\s*(?:(?P<var>x(?P<j>\d+)(?P<primes>'*)(?:\^\((?P<order>\d+)\))?"
    r"(?:\^(?P<exp>\d+))?)|(?P<int>\d+)|(?P<op>[+*-]))"
)


def parse_polynomial(text: str, ring) -> JetPolynomial:
    pos = 0
    terms = []
    sign = 1
    coeff = None
    mono = {}
    started = False

    def flush():
        nonlocal sign, coeff, mono, started
        if not started:
            return
        c = ring.from_int(sign if coeff is None else sign * coeff)
        terms.append((tuple(sorted(mono.items())), c))
        sign, coeff, mono, started = 1, None, {}, False

    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"cannot parse polynomial at: {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("op") == "+":
            flush()
        elif m.group("op") == "-":
            flush()
            sign = -sign
        elif m.group("op") == "*":
            pass
        elif m.group("int") is not None:
            coeff = (1 if coeff is None else coeff) * int(m.group("int"))
            started = True
        else:
            j = int(m.group("j"))
            i = len(m.group("primes"))
            if m.group("order"):
                i += int(m.group("order"))
            e = int(m.group("exp") or 1)
            key = (j, i)
            mono[key] = mono.get(key, 0) + e
            started = True
    flush()
    return JetPolynomial.from_terms(ring, terms)
