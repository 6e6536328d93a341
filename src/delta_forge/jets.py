"""Symbolic jet polynomials and the prolongation operator.

A jet polynomial lives in R[x_j^(i)] where (j, i) indexes base variable j
and jet order i.  On the arithmetic backend prolongation is
(f^phi - f^p)/p with the substitution x^(i) -> (x^(i))^p + p x^(i+1) and
coefficientwise Frobenius; the division by p is exact.  On the series
backend prolongation is the formal derivation x^(i) -> x^(i+1) with
coefficientwise d/dt.

Monomials are stored sparsely as sorted tuples of ((j, i), exponent) with
positive exponents; terms with zero coefficients are never stored, so the
serialized form is canonical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb

from .errors import ArityError, InputError, PrecisionExhausted, TermBudgetError
from .rings import ARITHMETIC
from .serialize import elem_from_json, elem_to_json

DEFAULT_TERM_CAP = 10**6


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _naturals(values):
    return all(type(v) is int and v >= 0 for v in values)


def var_name(j: int, i: int) -> str:
    if i <= 3:
        return f"x{j}" + "'" * i
    return f"x{j}^({i})"


class JetPolynomial:
    """Immutable sparse polynomial in jet variables over a ring backend."""

    __slots__ = ("ring", "terms", "term_cap")

    def __init__(self, ring, terms, term_cap=DEFAULT_TERM_CAP):
        self.ring = ring
        self.terms = terms
        self.term_cap = term_cap

    @classmethod
    def from_terms(cls, ring, items, term_cap=DEFAULT_TERM_CAP):
        out = {}
        for mono, c in items:
            mono = tuple(sorted((v, e) for v, e in mono if e))
            if mono in out:
                c = out[mono] + c
            if c.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = c
        return cls(ring, out, term_cap)

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def constant(cls, ring, c):
        if isinstance(c, int):
            c = ring.from_int(c)
        return cls.from_terms(ring, [((), c)])

    @classmethod
    def variable(cls, ring, j: int, i: int = 0):
        return cls(ring, {(((j, i), 1),): ring.one})

    # -- structure ------------------------------------------------------

    @property
    def order(self) -> int:
        return max((v[1] for mono in self.terms for v, _ in mono), default=0)

    @property
    def base_vars(self):
        return sorted({v[0] for mono in self.terms for v, _ in mono})

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __eq__(self, other):
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[m] for m, c in self.terms.items())

    __hash__ = None

    def __repr__(self):
        return f"JetPolynomial({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            factors = []
            cs = _coeff_str(c)
            if cs != "1" or not mono:
                factors.append(cs)
            for (j, i), e in mono:
                factors.append(var_name(j, i) + (f"^{e}" if e > 1 else ""))
            parts.append("*".join(factors))
        return " + ".join(parts)

    # -- arithmetic -----------------------------------------------------

    def _check_cap(self, n):
        if n > self.term_cap:
            raise TermBudgetError(n, self.term_cap)

    def __add__(self, other):
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            if mono in out:
                s = out[mono] + c
                if s.is_zero():
                    del out[mono]
                else:
                    out[mono] = s
            else:
                out[mono] = c
        self._check_cap(len(out))
        return JetPolynomial(self.ring, out, self.term_cap)

    def __neg__(self):
        return JetPolynomial(
            self.ring, {m: -c for m, c in self.terms.items()}, self.term_cap
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        fast = _mul_packed(self, other)
        if fast is not None:
            return fast
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                if m in out:
                    c = out[m] + c
                if c.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = c
        self._check_cap(len(out))
        return JetPolynomial(self.ring, out, self.term_cap)

    def scale(self, c):
        if isinstance(c, int):
            c = self.ring.from_int(c)
        return JetPolynomial.from_terms(
            self.ring, [(m, c * cc) for m, cc in self.terms.items()], self.term_cap
        )

    def __pow__(self, e: int):
        if e < 0:
            raise InputError("negative polynomial powers are not defined")
        result = JetPolynomial.constant(self.ring, self.ring.one)
        result.term_cap = self.term_cap
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def map_coeffs(self, fn):
        return JetPolynomial.from_terms(
            self.ring, [(m, fn(c)) for m, c in self.terms.items()], self.term_cap
        )

    # -- prolongation ---------------------------------------------------

    def prolong(self):
        if self.ring.kind == ARITHMETIC:
            return self._prolong_arithmetic()
        return self._prolong_kolchin()

    def _prolong_arithmetic(self):
        # the division by p costs one digit; a coefficient at prec 1 would
        # cancel to zero and be dropped before it could report that
        if any(c.prec < 2 for c in self.terms.values()):
            raise PrecisionExhausted("prolongation needs coefficient precision >= 2")
        ring = self.ring
        p = ring.p
        fphi = {}
        for mono, c in self.terms.items():
            # per-variable expansion of (x^p + p x')^e; factors p^k beyond
            # the coefficient precision vanish, keeping this short
            partial = [((), c.frobenius())]
            for (j, i), e in mono:
                choices = []
                for k in range(e + 1):
                    coef = ring.from_int(comb(e, k) * p**k)
                    if coef.is_zero():
                        continue
                    mv = []
                    if e - k:
                        mv.append(((j, i), p * (e - k)))
                    if k:
                        mv.append(((j, i + 1), k))
                    choices.append((tuple(mv), coef))
                partial = [
                    (_mono_mul(mp, mv), cc * cv)
                    for mp, cc in partial
                    for mv, cv in choices
                    if not (cc * cv).is_zero()
                ]
                self._check_cap(len(partial))
            for m, cc in partial:
                if m in fphi:
                    s = fphi[m] + cc
                    if s.is_zero():
                        del fphi[m]
                    else:
                        fphi[m] = s
                else:
                    fphi[m] = cc
            self._check_cap(len(fphi))
        g = JetPolynomial(ring, fphi, self.term_cap) - self**p
        return g.map_coeffs(lambda c: c._div_p_exact())

    def _prolong_kolchin(self):
        ring = self.ring
        items = []
        for mono, c in self.terms.items():
            dc = c.delta()
            if not dc.is_zero():
                items.append((mono, dc))
            for idx, ((j, i), e) in enumerate(mono):
                rest = mono[:idx] + mono[idx + 1:]
                shifted = _mono_mul(
                    rest,
                    tuple(x for x in [((j, i), e - 1), ((j, i + 1), 1)] if x[1]),
                )
                ce = c * ring.from_int(e)
                if not ce.is_zero():
                    items.append((shifted, ce))
        return JetPolynomial.from_terms(ring, items, self.term_cap)

    def prolong_iter(self, k: int):
        f = self
        for _ in range(k):
            f = f.prolong()
        return f

    # -- evaluation -----------------------------------------------------

    def evaluate(self, point):
        fast = self._evaluate_fast(point)
        if fast is not None:
            return fast
        acc = None
        for mono, c in self.terms.items():
            val = c
            for (j, i), e in mono:
                val = val * point.component(j, i) ** e
            acc = val if acc is None else acc + val
        if acc is None:
            return self.ring.zero
        return acc

    def _evaluate_fast(self, point):
        # raw int arithmetic for W(Z/p^N); the generic path builds one
        # element object per operation, which dominates on large polynomials
        ring = self.ring
        if ring.kind != ARITHMETIC or getattr(ring, "m", 0) != 1:
            return None
        if not self.terms or len(self.terms) < 64:
            return None
        prec = min(c.prec for c in self.terms.values())
        vals = {}
        for mono in self.terms:
            for (j, i), _ in mono:
                if (j, i) not in vals:
                    x = point.component(j, i)
                    prec = min(prec, x.prec)
                    vals[(j, i)] = x.coeffs[0]
        pk = ring.p**prec
        acc = 0
        for mono, c in self.terms.items():
            val = c.coeffs[0]
            for v, e in mono:
                val = val * pow(vals[v], e, pk) % pk
            acc = (acc + val) % pk
        return ring.from_int(acc, prec=prec)

    # -- serialization --------------------------------------------------

    def to_records(self):
        return [
            {"exponents": [[j, i, e] for (j, i), e in mono],
             "coefficient": elem_to_json(c)}
            for mono, c in self.sorted_terms()
        ]

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


_FAST_MUL_THRESHOLD = 4096


def _mul_packed(f, g):
    """Large products over W(Z/p^N) with m=1: exponent vectors are packed
    into integer keys so the inner loop is pure int arithmetic.  Returns
    None when the fast path does not apply.

    Only sound when all coefficients share one precision.  Each field is as
    wide as the largest exponent sum of the product, so packed addition
    never carries between fields.
    """
    ring = f.ring
    if ring.kind != ARITHMETIC or getattr(ring, "m", 0) != 1:
        return None
    if len(f.terms) * len(g.terms) < _FAST_MUL_THRESHOLD:
        return None
    precs = {c.prec for c in f.terms.values()} | {c.prec for c in g.terms.values()}
    if len(precs) != 1:
        return None
    prec = precs.pop()
    pk = ring.p**prec
    vars_ = sorted(
        {v for m in f.terms for v, _ in m} | {v for m in g.terms for v, _ in m}
    )
    top_sum = sum(max((e for m in h.terms for _, e in m), default=0) for h in (f, g))
    bits = top_sum.bit_length()
    slot = {v: i * bits for i, v in enumerate(vars_)}

    def enc(terms):
        return [
            (sum(e << slot[v] for v, e in m), c.coeffs[0]) for m, c in terms.items()
        ]

    out = {}
    bt = enc(g.terms)
    get = out.get
    for ka, ca in enc(f.terms):
        for kb, cb in bt:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    out = {k: cm for k, c in out.items() if (cm := c % pk)}
    f._check_cap(len(out))
    mask = (1 << bits) - 1
    terms = {}
    for k, c in out.items():
        mono = []
        for v in vars_:
            e = (k >> slot[v]) & mask
            if e:
                mono.append((v, e))
        terms[tuple(mono)] = ring.element((c,), prec)
    return JetPolynomial(ring, terms, f.term_cap)


def _coeff_str(c):
    coeffs = getattr(c, "coeffs", None)
    if coeffs is not None and len(coeffs) == 1:
        return str(coeffs[0])
    return "[" + ",".join(str(x) for x in coeffs) + "]"


@dataclass(frozen=True)
class JetPresentation:
    """Generators (f, delta f, ..., delta^n f) of a jet-space presentation."""

    generators: tuple
    level: int
    base_count: int


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
    for mono in f.terms:
        for (j, i), _ in mono:
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
