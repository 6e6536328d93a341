"""The four benchmark workloads.

Each workload has a ``setup(seed)`` that builds its rings and fixed
parameters (what ``setup_s`` measures) and an ``ops(state, seed, r)``
generator that yields the ops of round ``r`` as zero-argument callables.
Inputs come from ``random.Random`` streams keyed by (seed, round, slot); the
library only sees the generated inputs.  Every round has the same
composition, so a run of whole rounds has the same mix of op costs
whatever its length.  An op returns its canonical output (JSON values)
and raises ``CheckFailed`` when its identity does not hold.

Library functions are always looked up through their module at call time
(``df.cocycle_check``), so a traced pass sees the patched entry points.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import delta_forge as df
import delta_forge.cli
import delta_forge.selftest
from delta_forge.serialize import elem_to_json

from harness import ROOT, CheckFailed, child_env, quiet


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _witt_ring(p, prec, m=1):
    modulus = df.selftest.find_irreducible(p, m)
    return df.WittRing(df.RingParams(p=p, prec=prec, m=m, modulus=modulus))


# ---------------------------------------------------------------------------
# jet-prolong


# Polynomial shapes over three base variables, total degree <= 4, as drawn
# by the self-test's random jet polynomials; a shape lists monomials as
# ((variable, exponent), ...).  Seeds draw the variable labels, the unit
# coefficients and the evaluation point, so an op's cost depends on its
# shape alone.  Order-3 prolongations on W(Z/3^6) have about 5*10^3 (x^2 y^2
# + c) to 5.5*10^4 (x y + z^2 + c) terms.  The 10^5-term shapes of the
# family (c + x + y + z, c + x + x y z) are left out: at 5-10 s per op one
# of them takes half a run.
X2Y2_C = (((0, 2), (1, 2)), ())
X2Y_Z = (((0, 2), (1, 1)), ((2, 1),))
X_Y2_C = (((0, 1),), ((1, 2),), ())
XYZ2_C = (((0, 1), (1, 1), (2, 2)), ())
XY_Z2_C = (((0, 1), (1, 1)), ((2, 2),), ())

# One round of 16 ops, cheapest to dearest: five on Q[[t]]/t^10 (tens of
# ms), then on W(Z/3^6) five x^2 y^2 + c (~0.15 s), three x^2 y + z
# (~0.25 s) and one each of x + y^2 + c, x y z^2 + c and x y + z^2 + c
# (0.5 s to 2.6 s).  The median (rank 8) sits in the middle of the first
# Witt group and the 75th percentile (rank 12) in the middle of the second,
# away from the boundaries between shapes, so both move with the cost of
# like ops; the heaviest ops weigh on ops_per_s and peak_rss_mb.
JET_ROUND = (
    [("series", s) for s in (X2Y2_C, X2Y_Z, X_Y2_C, XYZ2_C, XY_Z2_C)]
    + [("witt", X2Y2_C)] * 5 + [("witt", X2Y_Z)] * 3
    + [("witt", X_Y2_C), ("witt", XYZ2_C), ("witt", XY_Z2_C)]
)
JET_ORDER = 3


@dataclass
class JetState:
    witt: object
    series: object


class JetProlong:
    name = "jet-prolong"
    digest_ops = len(JET_ROUND)
    tail_cap = 75.0
    trace_rounds = 1

    def setup(self, seed):
        return JetState(_witt_ring(3, 6), df.SeriesRing(10))

    def ops(self, state, seed, r):
        for slot, (backend, shape) in enumerate(JET_ROUND):
            ring = getattr(state, backend)
            rng = random.Random(f"{seed}:jet:{r}:{slot}")
            label = rng.sample(range(3), 3)
            f = df.JetPolynomial.from_terms(ring, [
                (tuple(((label[v], 0), e) for v, e in mono), ring.random_unit(rng))
                for mono in shape
            ])
            point = tuple(ring.random_element(rng) for _ in range(3))
            yield lambda f=f, point=point: self._chain_rule(f, point)

    @staticmethod
    def _chain_rule(f, point):
        """eval_jet(prolong^k f, nabla(a, k)) == delta^k f(a), k = 1..3."""
        value = df.eval_jet(f, df.nabla(point, 0))
        out = {"terms": [], "values": []}
        fk = f
        for k in range(1, JET_ORDER + 1):
            fk = fk.prolong()
            value = value.delta()
            got = df.eval_jet(fk, df.nabla(point, k))
            _require(got == value, f"chain rule fails at k={k}")
            out["terms"].append(len(fk.terms))
            out["values"].append(elem_to_json(got))
        return out


# ---------------------------------------------------------------------------
# helpers for the H-block relations of criterion 12


def _vadd(u, v):
    return [a + b for a, b in zip(u, v)]


def _vscale(c, u):
    return [c * a for a in u]


def _vdot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def _vmat(u, m):
    return [_vdot(u, [m[i, j] for i in range(m.n)]) for j in range(m.n)]


def _h_block_relations(blocks, ring, rng):
    """The four relations of a cocycle restricted to [[a, b], [0, 1]]."""
    n = blocks.n
    a1, a2 = ring.random_unit(rng), ring.random_unit(rng)
    b1 = [ring.random_element(rng) for _ in range(n - 1)]
    b2 = [ring.random_element(rng) for _ in range(n - 1)]
    a12, b12 = a1 * a2, _vadd(b1, _vscale(a1, b2))
    a1inv = a1.invert()
    al1, al2 = blocks.alpha(a1, b1), blocks.alpha(a2, b2)
    be1, be2 = blocks.beta(a1, b1), blocks.beta(a2, b2)
    ga1, ga2 = blocks.gamma(a1, b1), blocks.gamma(a2, b2)
    ep1, ep2 = blocks.epsilon(a1, b1), blocks.epsilon(a2, b2)
    dot12 = _vdot(b1, ga2)
    alpha12 = blocks.alpha(a12, b12)
    _require(alpha12 == al1 + al2 + a1inv * dot12, "H-block relation (1)")
    rhs2 = _vadd(_vadd(be1, _vscale(a1, be2)),
                 _vadd(_vscale(-al2, b1),
                       _vadd(_vmat(b1, ep2), _vscale(-(a1inv * dot12), b1))))
    _require(all(x == y for x, y in zip(blocks.beta(a12, b12), rhs2)),
             "H-block relation (2)")
    _require(all(x == y for x, y in zip(blocks.gamma(a12, b12),
                                        _vadd(ga1, _vscale(a1inv, ga2)))),
             "H-block relation (3)")
    outer = df.SquareMatrix(ring, [[c * b for b in b1] for c in ga2])
    _require(blocks.epsilon(a12, b12) == ep1 + ep2 - outer.scale(a1inv),
             "H-block relation (4)")
    return elem_to_json(alpha12)


# ---------------------------------------------------------------------------
# cocycle-witt

WITT_NS = (2, 3, 4)
WITT_PS = (3, 5, 7)
WITT_PREC = 8


@dataclass
class WittCocycleState:
    rings: dict
    cocycles: dict = field(default_factory=dict)  # (n, p) -> (cocycle, handle)
    blocks: dict = field(default_factory=dict)    # p -> H-block reader at n=3


class CocycleWitt:
    name = "cocycle-witt"
    digest_ops = 8
    tail_cap = 90.0
    trace_rounds = 150

    def setup(self, seed):
        state = WittCocycleState({p: _witt_ring(p, WITT_PREC) for p in WITT_PS})
        for n in WITT_NS:
            for p in WITT_PS:
                ring = state.rings[p]
                rng = random.Random(f"{seed}:cw:setup:{n}:{p}")
                lam = (ring.random_unit(rng),)
                v = df.SquareMatrix(ring, [[ring.random_element(rng) for _ in range(n)]
                                           for _ in range(n)])
                c = df.ClassifiedCocycle(df.GmHomParams(lam), v)
                state.cocycles[(n, p)] = (c, df.classified_handle(c))
        for p in WITT_PS:
            handle = state.cocycles[(3, p)][1]
            state.blocks[p] = df.h_block_components(handle, state.rings[p], 3)
        return state

    def ops(self, state, seed, r):
        yield lambda: self._round(state, f"{seed}:cw:{r}")

    @staticmethod
    def _round(state, key):
        out = []
        for n in WITT_NS:
            for p in WITT_PS:
                ring = state.rings[p]
                c, handle = state.cocycles[(n, p)]
                rep = df.cocycle_check(handle, ring, n, samples=1, seed=f"{key}:{n}:{p}")
                _require(rep.passed, f"cocycle law at n={n}, p={p}")
                rng = random.Random(f"{key}:{n}:{p}:trace")
                g = df.random_gl(ring, n, rng)
                trace = handle(g).trace()
                _require(trace == ring.from_int(n) * df.gm_hom(c.omega, g.det()),
                         f"trace law at n={n}, p={p}")
                item = {"n": n, "p": p, "check": rep.to_dict(),
                        "trace": elem_to_json(trace)}
                if n == 3:
                    item["alpha"] = _h_block_relations(state.blocks[p], ring, rng)
                out.append(item)
        return out


# ---------------------------------------------------------------------------
# cocycle-series

SERIES_NS = (2, 3, 4)
SUBGROUPS = ("torus", "sl_n", "borel")


@dataclass
class SeriesCocycleState:
    ring: object
    handle: object
    conjugators: dict


class CocycleSeries:
    name = "cocycle-series"
    digest_ops = 8
    tail_cap = 75.0
    trace_rounds = 30

    def setup(self, seed):
        ring = df.SeriesRing(10)
        conj = {n: df.random_constant_gl(ring, n, random.Random(f"{seed}:cs:u:{n}"))
                for n in SERIES_NS}
        return SeriesCocycleState(ring, df.log_derivative_handle(), conj)

    def ops(self, state, seed, r):
        yield lambda: self._round(state, f"{seed}:cs:{r}")

    @staticmethod
    def _round(state, key):
        ring, handle = state.ring, state.handle
        out = []
        for n in SERIES_NS:
            rep = df.cocycle_check(handle, ring, n, samples=1, seed=f"{key}:{n}")
            _require(rep.passed, f"cocycle law at n={n}")
            reps = [rep.to_dict()]
            for sub in SUBGROUPS:
                rep = df.coherence_check(handle, ring, n, sub, samples=1,
                                         seed=f"{key}:{n}:{sub}")
                _require(rep.passed, f"coherence on {sub} at n={n}")
                reps.append(rep.to_dict())
            rep = df.coherence_check(handle, ring, n, "conjugated-torus", samples=1,
                                     seed=f"{key}:{n}:conj", u=state.conjugators[n])
            _require(rep.passed, f"coherence on conjugated torus at n={n}")
            reps.append(rep.to_dict())
            # Jacobi: tr(delta(g) g^-1) = delta(det g) / det g
            g = df.random_gl(ring, n, random.Random(f"{key}:{n}:jacobi"))
            trace = handle(g).trace()
            d = g.det()
            _require(trace == d.delta() * d.invert(), f"Jacobi trace law at n={n}")
            out.append({"n": n, "checks": reps, "trace": elem_to_json(trace)})
        return out


# ---------------------------------------------------------------------------
# cli-session

# (p, prec, m, n for the cocycle steps, n for decompose)
CLI_RINGS = [
    (3, 4, 3, 2, 4),
    (5, 4, 2, 3, 5),
    (7, 3, 3, 2, 6),
    (11, 3, 2, 2, 4),
]
CLI_POLYS = ["x0*x1 + x0", "x0^2 + x1", "x0*x1", "x0^2*x1"]
CLI_COCYCLE_SAMPLES = 3
CLI_JET_TIMES = 2

_CLI_MAIN = "import sys; from delta_forge.cli import main; sys.exit(main())"


@dataclass
class CliState:
    rings: dict                 # (p, prec, m) -> ring, for the output checks
    inprocess: bool = False     # replay through cli.main instead of a child
    tracer: object = None
    peak_child_kb: int = 0


class CliSession:
    name = "cli-session"
    digest_ops = 9 * len(CLI_RINGS)
    tail_cap = 75.0
    trace_rounds = 6

    def setup(self, seed):
        return CliState({(p, prec, m): _witt_ring(p, prec, m)
                         for p, prec, m, _, _ in CLI_RINGS})

    def call(self, state, argv):
        """Run one ``delta-forge`` invocation and return its parsed output.

        A child process is started the way the installed console script
        starts; its peak resident memory is kept for ``peak_rss_mb``.
        """
        if state.inprocess:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = df.cli.main(argv)
                except SystemExit as exc:  # argparse rejects its input
                    code = exc.code
            text = buf.getvalue()
        else:
            proc = subprocess.Popen(
                [sys.executable, "-c", _CLI_MAIN, *argv], cwd=ROOT, env=child_env(),
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
            with proc.stdout:
                text = proc.stdout.read().decode()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            state.peak_child_kb = max(state.peak_child_kb, usage.ru_maxrss)
        _require(code == 0, f"exit code {code} for {argv[0]}: {text[-300:]}")
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise CheckFailed(f"{argv[0]} printed no JSON document: {text[-300:]}")

    def ops(self, state, seed, r):
        for slot, (p, prec, m, n, n_dec) in enumerate(CLI_RINGS):
            rng = random.Random(f"{seed}:cli:{r}:{slot}")
            ring = state.rings[(p, prec, m)]
            spec = ["--ring", json.dumps({"p": p, "prec": prec, "m": m})]
            sub_seed = str(rng.randrange(10**6))
            made, word = {}, {}
            yield from self._script(state, rng, ring, spec, sub_seed, n, n_dec,
                                    slot, made, word)

    def _script(self, state, rng, ring, spec, sub_seed, n, n_dec, slot, made, word):
        call, tracer = self.call, state.tracer

        def step(argv, check):
            def op():
                out = call(state, argv)
                with quiet(tracer):  # output checks are not part of the op
                    check(out)
                return out
            return op

        def ring_info(out):
            _require(out["q"] == ring.q and out["m"] == ring.m, "ring-info q, m")
            _require(out["modulus"] == list(ring.params.modulus), "ring-info modulus")
            _require(out["phi_of_t"] == elem_to_json(ring.phi_t), "ring-info phi(t)")

        yield step(["ring-info", *spec], ring_info)

        x = ring.random_element(rng)

        def delta_eval(out):
            d = df.serialize.elem_from_json(ring, out["delta"], prec=out["prec"])
            # p * delta(x) == phi(x) - x^p, exactly mod p^prec
            lhs = ring.element([ring.p * c for c in d.coeffs])
            _require(lhs == x.frobenius() - x**ring.p, "p delta(x) = phi(x) - x^p")

        yield step(["delta-eval", *spec, json.dumps(elem_to_json(x))], delta_eval)

        b, c = ring.random_unit(rng), ring.random_unit(rng)

        def psi(out):
            got = df.serialize.elem_from_json(ring, out["psi"], prec=out["prec"])
            _require(got == df.psi(b) + df.psi(c), "psi(bc) = psi(b) + psi(c)")

        yield step(["psi", *spec, json.dumps(elem_to_json(b * c))], psi)

        def cocycle_make(out):
            _require(len(out["omega"]["lambda"]) == 1 and out["v"]["n"] == n,
                     "cocycle-make shape")
            made["doc"] = json.dumps(out)

        yield step(["cocycle-make", *spec, "--n", str(n), "--seed", sub_seed],
                   cocycle_make)

        def recover(out):
            # the JSON drops precision: compare at that of the order-1 handle
            v = df.SquareMatrix.from_json(ring, json.loads(made["doc"])["v"])
            expect = v - df.SquareMatrix.diagonal(ring, [v[0, 0]] * n)
            got = df.SquareMatrix.from_json(ring, out["v"])
            _require(got.reduce_prec(ring.prec - 1) == expect.reduce_prec(ring.prec - 1),
                     "recovered v differs modulo scalars")

        yield step(["cocycle-recover", *spec, "--n", str(n), "--cocycle",
                    made.get("doc", "{}"),
                    "--seed", sub_seed], recover)

        def check(out):
            _require(out["pass"] and out["samples"] == CLI_COCYCLE_SAMPLES,
                     "cocycle-check on a classified cocycle")

        yield step(["cocycle-check", *spec, "--n", str(n), "--cocycle",
                    made.get("doc", "{}"),
                    "--samples", str(CLI_COCYCLE_SAMPLES), "--seed", sub_seed], check)

        with quiet(tracer):
            xm = df.random_gl(ring, n_dec, rng)

        def decompose(out):
            _require(len(out["word"]["factors"]) == n_dec * (n_dec + 1) + 1,
                     "decomposition word length")
            word["doc"] = json.dumps(out["word"])
            wl = df.SquareMatrix.from_json(ring, out["w_left"])
            wr = df.SquareMatrix.from_json(ring, out["w_right"])
            _require(wl.is_permutation_matrix() and wr.is_permutation_matrix(),
                     "preconditioning factors are permutations")
            word["target"] = wl * xm * wr

        yield step(["decompose", *spec, "--precondition", "--seed", sub_seed,
                    json.dumps(xm.to_json())], decompose)

        def reconstruct(out):
            _require(df.SquareMatrix.from_json(ring, out["matrix"]) == word["target"],
                     "reconstruct(decompose(x')) == x'")

        yield step(["reconstruct", *spec, word.get("doc", "{}")], reconstruct)

        poly = CLI_POLYS[slot % len(CLI_POLYS)]
        point = tuple(ring.random_element(rng) for _ in range(2))

        def jet(out):
            with quiet(tracer):
                f = df.parse_polynomial(poly, ring)
                fk = df.JetPolynomial.from_records(ring, out["terms"])
                value = df.eval_jet(f, df.nabla(point, 0))
                for _ in range(CLI_JET_TIMES):
                    value = value.delta()
                got = df.eval_jet(fk, df.nabla(point, CLI_JET_TIMES))
            _require(got == value, "chain rule on the CLI prolongation")

        yield step(["jet-prolong", *spec, "--times", str(CLI_JET_TIMES), poly], jet)


WORKLOADS = {w.name: w for w in (JetProlong(), CocycleWitt(), CocycleSeries(), CliSession())}
