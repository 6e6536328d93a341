"""The acceptance suite: twelve oracle- and property-based criteria.

Each criterion is a function (seed, scale) -> (passed, detail).  ``scale``
divides the sample counts; the ``full`` profile runs at scale 1 and the
``quick`` profile at scale 50.  Runs are deterministic in the seed.
"""

from __future__ import annotations

import random
import time

from .cocycles import (
    ClassifiedCocycle,
    classified_eval,
    classified_handle,
    coboundary,
    coboundary_handle,
    cocycle_check,
    coherence_check,
    DeltaMapHandle,
    h_block_components,
    log_derivative,
    log_derivative_handle,
    recover,
)
from .decomp import decompose, precondition, reconstruct
from .errors import ExhaustedSearchError, NonUnitMinorError
from .homs import GmHomParams, TwistedCocycleParams, check_hom, gm_hom, psi, twisted_cocycle
from .jets import JetPolynomial, eval_jet, nabla
from .matrices import SquareMatrix, random_constant_gl, random_gl
# find_irreducible is re-exported: perfbench calls and traces selftest.find_irreducible
from .rings import DEFAULT_SEED, Record, SeriesRing, dot, find_irreducible, make_ring  # noqa: F401


def _sc(n, scale):
    return max(8, n // scale)


# --------------------------------------------------------------------------
# vector helpers for the block relations


def _vadd(u, v):
    return [a + b for a, b in zip(u, v)]


def _vscale(c, u):
    return [c * a for a in u]


def _vmat(u, m):
    return [dot(u, col) for col in zip(*m.rows)]


def _outer(ring, col, row):
    return SquareMatrix(ring, [[c * r for r in row] for c in col])


def _veq(u, v):
    return all(a == b for a, b in zip(u, v))


# --------------------------------------------------------------------------
# criteria


def criterion_1_delta_ring_axioms(seed, scale):
    """Sum and product rules for delta on W(F_{p^m})/p^8."""
    t0 = time.monotonic()
    combos = [(p, m) for p in (3, 5, 7) for m in (1, 2)]
    per = _sc(10**4, scale) // len(combos) + 1
    for p, m in combos:
        ring = make_ring(p, 8, m)
        rng = random.Random(f"{seed}:c1:{p}:{m}")
        for _ in range(per):
            x = ring.random_element(rng)
            y = ring.random_element(rng)
            dx, dy = x.delta(), y.delta()
            lhs = (x + y).delta()
            if not lhs == dx + dy + ring.carry_term(x, y):
                return False, f"sum rule failed at p={p}, m={m}"
            lhs = (x * y).delta()
            rhs = x**p * dy + y**p * dx + ring.from_int(p) * dx * dy
            if not lhs == rhs:
                return False, f"product rule failed at p={p}, m={m}"
    elapsed = time.monotonic() - t0
    if scale == 1 and elapsed >= 5.0:
        return False, f"runtime bound exceeded: {elapsed:.2f}s >= 5s"
    return True, f"{per} pairs per (p,m) combo, {elapsed:.2f}s"


def criterion_2_frobenius_contract(seed, scale):
    """Frobenius is a ring homomorphism, reduces to x^p mod p, and is the
    identity at m=1."""
    combos = [(p, m) for p in (3, 5, 7) for m in (1, 2)]
    per = _sc(10**4, scale) // len(combos) + 1
    for p, m in combos:
        ring = make_ring(p, 8, m)
        rng = random.Random(f"{seed}:c2:{p}:{m}")
        for _ in range(per):
            x = ring.random_element(rng)
            y = ring.random_element(rng)
            if not (x + y).frobenius() == x.frobenius() + y.frobenius():
                return False, f"additivity failed at p={p}, m={m}"
            if not (x * y).frobenius() == x.frobenius() * y.frobenius():
                return False, f"multiplicativity failed at p={p}, m={m}"
            if not x.frobenius().at_prec(1) == (x**p).at_prec(1):
                return False, f"phi(x) != x^p mod p at p={p}, m={m}"
            if m == 1 and not x.frobenius() == x:
                return False, f"phi != id at m=1, p={p}"
    return True, f"{per} pairs per (p,m) combo"


def criterion_3_constants(seed, scale):
    """Over W(F_25)/5^6, is_constant matches the Teichmueller lifts."""
    ring = make_ring(5, 6, 2)
    teichs = [ring.teichmueller(r) for r in ring.residue_elements()]
    if len(teichs) != 25:
        return False, "expected 25 Teichmueller lifts"
    rng = random.Random(f"{seed}:c3")
    samples = [ring.random_element(rng) for _ in range(_sc(10**3, scale))]
    samples.extend(teichs)
    for x in samples:
        matches = any(x.at_prec(5) == t.at_prec(5) for t in teichs)
        if x.is_constant() != matches:
            return False, f"constants mismatch at {x!r}"
    return True, f"{len(samples)} samples against all 25 lifts"


def criterion_4_psi_additivity(seed, scale):
    """psi(a1 a2) = psi(a1) + psi(a2) at precision 7; psi kills
    Teichmueller units."""
    per = _sc(10**3, scale)
    for p in (3, 5):
        ring = make_ring(p, 8)
        rng = random.Random(f"{seed}:c4:{p}")
        for _ in range(per):
            a1 = ring.random_unit(rng)
            a2 = ring.random_unit(rng)
            if not psi(a1 * a2) == psi(a1) + psi(a2):
                return False, f"psi additivity failed at p={p}"
        for r in range(1, p):
            if not psi(ring.teichmueller(r)).is_zero():
                return False, f"psi(teich({r})) != 0 at p={p}"
    return True, f"{per} unit pairs per prime"


def _random_jet_poly(ring, rng, nvars=3, maxdeg=4, budget=4):
    # total monomial mass is budgeted: three arithmetic prolongations of a
    # polynomial with several dense degree-4 terms run past 10^8 products
    terms = []
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(0, min(maxdeg, budget))
        budget -= deg
        mono = {}
        for _ in range(deg):
            j = rng.randrange(nvars)
            mono[(j, 0)] = mono.get((j, 0), 0) + 1
        c = ring.random_element(rng)
        terms.append((tuple(sorted(mono.items())), c))
    return JetPolynomial.from_terms(ring, terms)


def criterion_5_jet_oracle(seed, scale):
    """Chain rule: eval_jet(prolong^k f, nabla(a,k)) = delta^k(f(a))."""
    count = _sc(50, scale)
    for ring in (make_ring(3, 6), SeriesRing(10)):
        rng = random.Random(f"{seed}:c5:{ring.kind}")
        for _ in range(count):
            f = _random_jet_poly(ring, rng)
            point = tuple(ring.random_element(rng) for _ in range(3))
            base = eval_jet(f, nabla(point, 0))
            fk = f
            for k in range(1, 4):
                fk = fk.prolong()
                base = base.delta()
                got = eval_jet(fk, nabla(point, k))
                if not got == base:
                    return False, f"chain rule failed on {ring.kind} at k={k}"
    return True, f"{count} polynomials per backend, k <= 3"


def criterion_6_valuation_bound(seed, scale):
    """Every coefficient of prolong^r(x^(3^nu)) has valuation >= nu-r+1."""
    del seed
    t0 = time.monotonic()
    ring = make_ring(3, 8)
    x = JetPolynomial.variable(ring, 0)
    top = 4 if scale == 1 else 3
    for nu in range(1, top + 1):
        f = x ** (3**nu)
        for r in range(1, nu + 1):
            f = f.prolong()
            need = nu - r + 1
            for _, c in f.sorted_terms():
                if c.valuation() < need:
                    return False, (
                        f"valuation {c.valuation()} < {need} at nu={nu}, r={r}"
                    )
    elapsed = time.monotonic() - t0
    if scale == 1 and elapsed >= 60.0:
        return False, f"runtime bound exceeded: {elapsed:.2f}s >= 60s"
    return True, f"all 1 <= r <= nu <= {top}, {elapsed:.2f}s"


def _random_classified(ring, n, rng, max_order=2):
    lam = tuple(ring.random_element(rng) for _ in range(rng.randint(1, max_order)))
    v = SquareMatrix(
        ring, [[ring.random_element(rng) for _ in range(n)] for _ in range(n)]
    )
    return ClassifiedCocycle(GmHomParams(lam), v)


def criterion_7_classified_forward(seed, scale):
    """Classified cocycles pass the cocycle check; trace law holds."""
    pairs = _sc(10**3, scale)
    for n in (2, 3):
        for p in (3, 5, 7):
            ring = make_ring(p, 8)
            rng = random.Random(f"{seed}:c7:{n}:{p}")
            c = _random_classified(ring, n, rng)
            handle = classified_handle(c)
            rep = cocycle_check(handle, ring, n, samples=pairs, seed=f"{seed}:c7s:{n}:{p}")
            if not rep.passed:
                return False, f"cocycle check failed at n={n}, p={p}"
            for _ in range(pairs):
                g = random_gl(ring, n, rng)
                lhs = handle(g).trace()
                rhs = ring.from_int(n) * gm_hom(c.omega, g.det())
                if not lhs == rhs:
                    return False, f"trace law failed at n={n}, p={p}"
    return True, f"{pairs} pairs per (n,p) combo"


def criterion_8_recovery_roundtrip(seed, scale):
    """recover() returns v modulo scalars and reproduces f pointwise."""
    count = _sc(20, scale)
    fresh = _sc(100, scale)
    primes = (3, 5, 7)
    for idx in range(count):
        n = 2 + idx % 2
        p = primes[idx % 3]
        ring = make_ring(p, 8)
        rng = random.Random(f"{seed}:c8:{idx}")
        c = _random_classified(ring, n, rng)
        handle = classified_handle(c)
        v, omega_eval = recover(handle, ring, n, seed=f"{seed}:c8r:{idx}")
        expect = c.v - SquareMatrix.diagonal(ring, [c.v[0, 0]] * n)
        if not v == expect:
            return False, f"recovered v disagrees mod scalars at sample {idx}"
        for _ in range(fresh):
            g = random_gl(ring, n, rng)
            w = omega_eval(g.det())
            rebuilt = SquareMatrix.diagonal(ring, [w] * n) + coboundary(v, g)
            if not rebuilt == handle(g):
                return False, f"roundtrip evaluation failed at sample {idx}"
    return True, f"{count} cocycles, {fresh} fresh samples each"


def criterion_9_twisted_cocycles(seed, scale):
    """mu(1 - a^s) satisfies the twisted law on both backends."""
    samples = _sc(10**3, scale)
    for backend in ("arithmetic", "kolchin"):
        ring = make_ring(5, 6) if backend == "arithmetic" else SeriesRing(8)
        rng = random.Random(f"{seed}:c9:{backend}")
        for s in (-3, -2, -1, 1, 2, 3):
            params = TwistedCocycleParams(ring.random_element(rng), s)
            rep = check_hom(
                lambda a: twisted_cocycle(params, a),
                "twisted",
                ring,
                samples=samples,
                seed=f"{seed}:c9s:{backend}:{s}",
                s=s,
            )
            if not rep.passed:
                return False, f"twisted law failed at s={s} on {backend}"
    return True, f"{samples} samples per twist, both backends"


def criterion_10_decomposition(seed, scale):
    """Decompose/reconstruct roundtrip; precondition success rate."""
    ring = make_ring(5, 4)
    per = _sc(10**3, scale) // 3 + 1
    for n in (2, 3, 4):
        rng = random.Random(f"{seed}:c10:{n}")
        done = 0
        while done < per:
            x = random_gl(ring, n, rng)
            # a draw with a non-unit trailing minor is redrawn
            try:
                word = decompose(x)
            except NonUnitMinorError:
                continue
            if not reconstruct(word, ring) == x:
                return False, f"roundtrip failed at n={n}"
            done += 1
    trials = _sc(10**3, scale)
    ok = 0
    for n in (2, 3, 4):
        rng = random.Random(f"{seed}:c10p:{n}")
        for _ in range(trials // 3 + 1):
            x = random_gl(ring, n, rng)
            try:
                precondition(x)
                ok += 1
            except ExhaustedSearchError:
                pass
    total = 3 * (trials // 3 + 1)
    rate = ok / total
    if rate < 0.99:
        return False, f"precondition success rate {rate:.3f} < 0.99"
    return True, f"{per} roundtrips per n, precondition rate {rate:.3f}"


def criterion_11_kolchin_side(seed, scale):
    """Logarithmic derivative: cocycle + coherence; the normal form
    nu*ldelta + coboundary passes; non-scalar coboundaries fail coherence
    on some conjugated torus."""
    ring = SeriesRing(10)
    pairs = _sc(10**3, scale)
    coh = _sc(100, scale)
    ld = log_derivative_handle()
    for n in (2, 3):
        rep = cocycle_check(ld, ring, n, samples=pairs, seed=f"{seed}:c11:{n}")
        if not rep.passed:
            return False, f"log derivative cocycle check failed at n={n}"
        for sub in ("torus", "sl_n", "borel"):
            rep = coherence_check(ld, ring, n, sub, samples=coh, seed=f"{seed}:c11c:{n}:{sub}")
            if not rep.passed:
                return False, f"log derivative not coherent on {sub}, n={n}"
        rng = random.Random(f"{seed}:c11u:{n}")
        for k in range(10):
            u = random_constant_gl(ring, n, rng)
            rep = coherence_check(
                ld, ring, n, "conjugated-torus",
                samples=max(coh // 5, 4), seed=f"{seed}:c11t:{n}:{k}", u=u,
            )
            if not rep.passed:
                return False, f"log derivative not coherent on conj torus, n={n}"
        # normal form nu * ldelta + coboundary(v)
        nu = ring.from_rational(rng.randint(-3, 3))
        v = SquareMatrix(
            ring, [[ring.random_element(rng) for _ in range(n)] for _ in range(n)]
        )
        nf = DeltaMapHandle(
            lambda g, nu=nu, v=v: log_derivative(g).scale(nu) + coboundary(v, g), 1
        )
        rep = cocycle_check(nf, ring, n, samples=max(pairs // 5, 8),
                            seed=f"{seed}:c11n:{n}")
        if not rep.passed:
            return False, f"normal form cocycle check failed at n={n}"
        # a coboundary with non-scalar v must fail on some conjugated torus
        vns = SquareMatrix(
            ring, [[1 if (i, j) == (0, 1) else 0 for j in range(n)] for i in range(n)]
        )
        cb = coboundary_handle(vns)
        failed = False
        for k in range(10):
            u = random_constant_gl(ring, n, rng)
            rep = coherence_check(
                cb, ring, n, "conjugated-torus", samples=8,
                seed=f"{seed}:c11f:{n}:{k}", u=u,
            )
            if not rep.passed:
                failed = True
                break
        if not failed:
            return False, f"non-scalar coboundary passed all conj tori at n={n}"
    return True, f"{pairs} pairs, {coh} coherence samples per subgroup"


def criterion_12_block_relations(seed, scale):
    """The four block relations of the restriction to H, exactly."""
    count = _sc(10, scale)
    per = _sc(200, scale)
    ring = make_ring(5, 8)
    n = 3
    for idx in range(count):
        rng = random.Random(f"{seed}:c12:{idx}")
        c = _random_classified(ring, n, rng)
        blocks = h_block_components(classified_handle(c), ring, n)
        for _ in range(per):
            a1, a2 = ring.random_unit(rng), ring.random_unit(rng)
            b1 = [ring.random_element(rng) for _ in range(n - 1)]
            b2 = [ring.random_element(rng) for _ in range(n - 1)]
            a12 = a1 * a2
            b12 = _vadd(b1, _vscale(a1, b2))
            a1inv = a1.invert()
            al1, al2 = blocks.alpha(a1, b1), blocks.alpha(a2, b2)
            be1, be2 = blocks.beta(a1, b1), blocks.beta(a2, b2)
            ga1, ga2 = blocks.gamma(a1, b1), blocks.gamma(a2, b2)
            ep1, ep2 = blocks.epsilon(a1, b1), blocks.epsilon(a2, b2)
            dot12 = dot(b1, ga2)
            if not blocks.alpha(a12, b12) == al1 + al2 + a1inv * dot12:
                return False, f"relation (1) failed at cocycle {idx}"
            rhs2 = _vadd(
                _vadd(be1, _vscale(a1, be2)),
                _vadd(
                    _vscale(-al2, b1),
                    _vadd(_vmat(b1, ep2), _vscale(-(a1inv * dot12), b1)),
                ),
            )
            if not _veq(blocks.beta(a12, b12), rhs2):
                return False, f"relation (2) failed at cocycle {idx}"
            if not _veq(blocks.gamma(a12, b12), _vadd(ga1, _vscale(a1inv, ga2))):
                return False, f"relation (3) failed at cocycle {idx}"
            rhs4 = ep1 + ep2 - _outer(ring, ga2, b1).scale(a1inv)
            if not blocks.epsilon(a12, b12) == rhs4:
                return False, f"relation (4) failed at cocycle {idx}"
    return True, f"{count} cocycles, {per} (a,b) pairs each"


CRITERIA = [
    ("1 delta-ring axioms", criterion_1_delta_ring_axioms),
    ("2 Frobenius contract", criterion_2_frobenius_contract),
    ("3 constants characterization", criterion_3_constants),
    ("4 psi additivity", criterion_4_psi_additivity),
    ("5 jet/numeric oracle equivalence", criterion_5_jet_oracle),
    ("6 prolongation valuation bound", criterion_6_valuation_bound),
    ("7 classified cocycles forward", criterion_7_classified_forward),
    ("8 recovery roundtrip", criterion_8_recovery_roundtrip),
    ("9 twisted cocycles", criterion_9_twisted_cocycles),
    ("10 decomposition roundtrip", criterion_10_decomposition),
    ("11 series-backend cocycles", criterion_11_kolchin_side),
    ("12 block relations", criterion_12_block_relations),
]


class CriterionResult(Record):
    __slots__ = ("name", "passed", "detail", "seconds")

    def __init__(self, name: str, passed: bool, detail: str, seconds: float):
        super().__init__(name, passed, detail, seconds)


def run_selftest(profile: str = "quick", seed: int = DEFAULT_SEED, out=None):
    scale = 1 if profile == "full" else 50
    results = []
    for name, fn in CRITERIA:
        t0 = time.monotonic()
        passed, detail = fn(seed, scale)
        dt = time.monotonic() - t0
        results.append(CriterionResult(name, passed, detail, dt))
        if out is not None:
            status = "PASS" if passed else "FAIL"
            out.write(f"{status} criterion {name}: {detail} ({dt:.2f}s)\n")
    return {
        "profile": profile,
        "seed": seed,
        "pass": all(r.passed for r in results),
        "criteria": [
            {"name": r.name, "pass": r.passed, "detail": r.detail,
             "seconds": round(r.seconds, 2)}
            for r in results
        ],
    }
