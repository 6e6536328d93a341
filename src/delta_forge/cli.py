"""Command-line surface.

All payloads are JSON; results go to stdout (or --out) as a single JSON
document.  Exit codes: 0 success/pass, 1 mathematical failure
(counterexample found), 2 input error, 3 precision exhaustion.  The
default seed is DEFAULT_SEED; the environment variable DELTA_FORGE_SEED
overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cocycles import (
    ClassifiedCocycle,
    classified_handle,
    coboundary_handle,
    cocycle_check,
    coherence_check,
    log_derivative_handle,
    recover,
)
from .decomp import DecompositionWord, decompose, precondition, reconstruct
from .errors import DeltaForgeError, InputError, PrecisionExhausted
from .homs import GaHomParams, GmHomParams, TwistedCocycleParams, check_hom, ga_hom, gm_hom, psi, twisted_cocycle
from .jets import JetPolynomial, nabla, parse_polynomial
from .matrices import SquareMatrix, random_constant_gl
from .rings import RingParams, SeriesRing, WittRing
from .selftest import DEFAULT_SEED, find_irreducible, run_selftest
from .serialize import elem_from_json, elem_to_json

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_PRECISION = 3

# smallest accepted value of each size option
_MINIMUMS = {"n": 1, "order": 0, "times": 0, "samples": 1}


def _load_json(text):
    if text is None:
        return None
    if os.path.exists(text):
        with open(text) as fh:
            return json.load(fh)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"payload is neither a file nor valid JSON: {exc}")


def _make_ring(args):
    if getattr(args, "backend", "arithmetic") == "kolchin":
        return SeriesRing(args.trunc)
    if args.ring is not None:
        cfg = _load_json(args.ring)
    elif args.p is not None:
        if args.prec is None:
            raise InputError("--prec is required alongside --p")
        cfg = {"p": args.p, "prec": args.prec, "m": args.m}
        if args.modulus:
            cfg["modulus"] = _load_json(args.modulus)
    else:
        raise InputError("ring config required: --ring JSON, or --p/--prec/--m")
    if not isinstance(cfg, dict):
        raise InputError(f"ring config must be a JSON object, got {cfg!r}")
    p, prec, m = cfg.get("p"), cfg.get("prec"), cfg.get("m", 1)
    modulus = cfg.get("modulus", [])
    if not (_all_ints([p, prec, m]) and isinstance(modulus, list) and _all_ints(modulus)):
        raise InputError(
            f"ring config needs integers p, prec (and m, modulus list), got {cfg!r}"
        )
    if m > 1 and not modulus:
        modulus = find_irreducible(p, m)
    return WittRing(RingParams(p=p, prec=prec, m=m, modulus=tuple(modulus)))


def _all_ints(values):
    return all(isinstance(v, int) and not isinstance(v, bool) for v in values)


def _seed(args):
    env = os.environ.get("DELTA_FORGE_SEED")
    if args.seed is not None:
        return args.seed
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _elem(ring, text):
    try:
        return elem_from_json(ring, json.loads(text))
    except json.JSONDecodeError:
        return elem_from_json(ring, text)


# -- subcommand handlers ----------------------------------------------------


def cmd_ring_info(args):
    ring = _make_ring(args)
    out = {
        "p": ring.p,
        "prec": ring.prec,
        "m": ring.m,
        "q": ring.q,
        "modulus": list(ring.params.modulus),
    }
    if ring.m > 1:
        out["phi_of_t"] = elem_to_json(ring.phi_t)
    return EXIT_OK, out


def cmd_delta_eval(args):
    ring = _make_ring(args)
    x = _elem(ring, args.value)
    d = x.delta()
    return EXIT_OK, {"value": elem_to_json(x), "delta": elem_to_json(d),
                     "prec": d.prec}


def cmd_teich(args):
    ring = _make_ring(args)
    residue = _load_json(args.residue)
    if not _all_ints(residue if isinstance(residue, list) else [residue]):
        raise InputError(f"residue must be an integer or a list of them, got {residue!r}")
    t = ring.teichmueller(residue)
    return EXIT_OK, {"residue": residue, "teichmueller": elem_to_json(t)}


def cmd_psi(args):
    ring = _make_ring(args)
    a = _elem(ring, args.value)
    val = psi(a)
    return EXIT_OK, {"value": elem_to_json(a), "psi": elem_to_json(val),
                     "prec": val.prec}


def cmd_jet_prolong(args):
    ring = _make_ring(args)
    payload = args.poly
    try:
        records = json.loads(payload)
    except json.JSONDecodeError:
        records = None
    if isinstance(records, list):
        f = JetPolynomial.from_records(ring, records)
    elif isinstance(records, dict):
        f = JetPolynomial.from_records(ring, records.get("terms"))
    else:
        f = parse_polynomial(payload, ring)
    for _ in range(args.times):
        f = f.prolong()
    return EXIT_OK, {"order": f.order, "text": str(f), "terms": f.to_records()}


def cmd_jet_nabla(args):
    ring = _make_ring(args)
    values = tuple(_elem(ring, v) for v in args.values)
    point = nabla(values, args.order)
    return EXIT_OK, {
        "level": args.order,
        "components": [
            [elem_to_json(c) for c in chain] for chain in point.components_
        ],
    }


def cmd_hom_check(args):
    ring = _make_ring(args)
    params = _load_json(args.params) or {}
    if not isinstance(params, dict) or not isinstance(params.get("lambda", []), list):
        raise InputError(f'--params must be {{"lambda": [...]}} or {{"mu": c}}, got {params!r}')
    seed = _seed(args)
    if args.law == "additive":
        p = GaHomParams(tuple(elem_from_json(ring, v) for v in params.get("lambda", [1])))
        f = lambda a: ga_hom(p, a)
        law = "additive"
        s = None
    elif args.law == "multiplicative":
        p = GmHomParams(tuple(elem_from_json(ring, v) for v in params.get("lambda", [1])))
        f = lambda a: gm_hom(p, a)
        law = "multiplicative-to-additive"
        s = None
    elif args.law == "twisted":
        p = TwistedCocycleParams(elem_from_json(ring, params.get("mu", 1)), args.s)
        f = lambda a: twisted_cocycle(p, a)
        law = "twisted"
        s = args.s
    else:
        raise InputError(f"unknown law {args.law!r}")
    rep = check_hom(f, law, ring, samples=args.samples, seed=seed, s=s)
    return (EXIT_OK if rep.passed else EXIT_COUNTEREXAMPLE), rep.to_dict()


def _cocycle_from_json(ring, obj):
    omega = obj.get("omega") if isinstance(obj, dict) else None
    lam = omega.get("lambda") if isinstance(omega, dict) else None
    if not isinstance(lam, list) or "v" not in obj:
        raise InputError('cocycle must be {"omega": {"lambda": [...]}, "v": matrix}')
    omega = GmHomParams(tuple(elem_from_json(ring, v) for v in lam))
    return ClassifiedCocycle(omega, SquareMatrix.from_json(ring, obj["v"]))


def cmd_cocycle_make(args):
    import random as _random

    ring = _make_ring(args)
    rng = _random.Random(f"{_seed(args)}:make")
    lam = tuple(ring.random_element(rng) for _ in range(args.order))
    v = SquareMatrix(
        ring,
        [[ring.random_element(rng) for _ in range(args.n)] for _ in range(args.n)],
    )
    out = {
        "omega": {"lambda": [elem_to_json(e) for e in lam]},
        "v": v.to_json(),
    }
    return EXIT_OK, out


def _handle_from_args(ring, args):
    if args.map == "logderiv":
        return log_derivative_handle()
    obj = _load_json(args.cocycle)
    if obj is None:
        raise InputError(f"--cocycle payload is required for {args.map} maps")
    if args.map == "coboundary":
        if isinstance(obj, dict) and "v" in obj:
            obj = obj["v"]
        return coboundary_handle(SquareMatrix.from_json(ring, obj))
    return classified_handle(_cocycle_from_json(ring, obj))


def cmd_cocycle_check(args):
    ring = _make_ring(args)
    f = _handle_from_args(ring, args)
    rep = cocycle_check(f, ring, args.n, samples=args.samples, seed=_seed(args))
    return (EXIT_OK if rep.passed else EXIT_COUNTEREXAMPLE), rep.to_dict()


def cmd_cocycle_recover(args):
    ring = _make_ring(args)
    f = _handle_from_args(ring, args)
    v, omega_eval = recover(f, ring, args.n, seed=_seed(args))
    # sample omega on small units for the report
    samples = {}
    for k in (2, 3, 4):
        a = ring.from_int(k)
        if a.is_unit():
            samples[str(k)] = elem_to_json(omega_eval(a))
    return EXIT_OK, {"v": v.to_json(), "omega_samples": samples}


def cmd_coherence_check(args):
    ring = _make_ring(args)
    f = _handle_from_args(ring, args)
    u = None
    if args.subgroup == "conjugated-torus":
        import random as _random

        if args.u:
            u = SquareMatrix.from_json(ring, _load_json(args.u))
        else:
            u = random_constant_gl(ring, args.n, _random.Random(f"{_seed(args)}:u"))
    rep = coherence_check(
        f, ring, args.n, args.subgroup, samples=args.samples, seed=_seed(args), u=u
    )
    out = rep.to_dict()
    out["subgroup"] = args.subgroup
    return (EXIT_OK if rep.passed else EXIT_COUNTEREXAMPLE), out


def cmd_decompose(args):
    ring = _make_ring(args)
    x = SquareMatrix.from_json(ring, _load_json(args.matrix))
    out = {}
    if args.precondition:
        wl, wr, xp = precondition(x, seed=_seed(args))
        out["w_left"] = wl.to_json()
        out["w_right"] = wr.to_json()
        x = xp
    word = decompose(x)
    out["word"] = word.to_json()
    return EXIT_OK, out


def cmd_reconstruct(args):
    ring = _make_ring(args)
    word = DecompositionWord.from_json(ring, _load_json(args.word))
    m = reconstruct(word, ring)
    return EXIT_OK, {"matrix": m.to_json()}


def cmd_selftest(args):
    report = run_selftest(profile=args.profile, seed=_seed(args), out=sys.stderr)
    return (EXIT_OK if report["pass"] else EXIT_COUNTEREXAMPLE), report


# -- parser -----------------------------------------------------------------


def _add_ring_opts(sp, backend=False):
    sp.add_argument("--ring", help="ring config JSON or file path")
    sp.add_argument("--p", type=int, help="prime (alternative to --ring)")
    sp.add_argument("--prec", type=int, help="p-adic precision")
    sp.add_argument("--m", type=int, default=1, help="residue field degree")
    sp.add_argument("--modulus", help="modulus coefficients as a JSON list")
    if backend:
        sp.add_argument("--backend", choices=["arithmetic", "kolchin"],
                        default="arithmetic")
        sp.add_argument("--trunc", type=int, default=10,
                        help="series truncation for the kolchin backend")


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--samples", type=int, default=100)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="delta-forge",
        description="Exact arithmetic differential algebra toolkit",
    )
    ap.add_argument("--out", help="write the result document to this path")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("ring-info")
    _add_ring_opts(sp)
    sp.set_defaults(fn=cmd_ring_info)

    sp = sub.add_parser("delta-eval")
    _add_ring_opts(sp, backend=True)
    sp.add_argument("value")
    sp.set_defaults(fn=cmd_delta_eval)

    sp = sub.add_parser("teich")
    _add_ring_opts(sp)
    sp.add_argument("residue")
    sp.set_defaults(fn=cmd_teich)

    sp = sub.add_parser("psi")
    _add_ring_opts(sp)
    sp.add_argument("value")
    sp.set_defaults(fn=cmd_psi)

    sp = sub.add_parser("jet-prolong")
    _add_ring_opts(sp, backend=True)
    sp.add_argument("--times", type=int, default=1)
    sp.add_argument("poly")
    sp.set_defaults(fn=cmd_jet_prolong)

    sp = sub.add_parser("jet-nabla")
    _add_ring_opts(sp, backend=True)
    sp.add_argument("--order", type=int, default=1)
    sp.add_argument("values", nargs="+")
    sp.set_defaults(fn=cmd_jet_nabla)

    sp = sub.add_parser("hom-check")
    _add_ring_opts(sp, backend=True)
    _add_common(sp)
    sp.add_argument("--law", required=True,
                    choices=["additive", "multiplicative", "twisted"])
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--params", help="parameter JSON or file path")
    sp.set_defaults(fn=cmd_hom_check)

    sp = sub.add_parser("cocycle-make")
    _add_ring_opts(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--order", type=int, default=1)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=cmd_cocycle_make)

    for name, fn in (
        ("cocycle-check", cmd_cocycle_check),
        ("cocycle-recover", cmd_cocycle_recover),
        ("coherence-check", cmd_coherence_check),
    ):
        sp = sub.add_parser(name)
        _add_ring_opts(sp, backend=True)
        _add_common(sp)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--map", choices=["classified", "logderiv", "coboundary"],
                        default="classified")
        sp.add_argument("--cocycle", help="cocycle parameter JSON or file path")
        if name == "coherence-check":
            sp.add_argument("--subgroup", required=True,
                            choices=["torus", "sl_n", "borel", "conjugated-torus"])
            sp.add_argument("--u", help="conjugating matrix JSON or file path")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("decompose")
    _add_ring_opts(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--precondition", action="store_true")
    sp.add_argument("matrix")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("reconstruct")
    _add_ring_opts(sp)
    sp.add_argument("word")
    sp.set_defaults(fn=cmd_reconstruct)

    sp = sub.add_parser("selftest")
    sp.add_argument("--profile", choices=["quick", "full"], default="quick")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=cmd_selftest)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for name, low in _MINIMUMS.items():
            value = getattr(args, name, None)
            if value is not None and value < low:
                raise InputError(f"--{name} must be at least {low}, got {value}")
        code, result = args.fn(args)
    except PrecisionExhausted as exc:
        code, result = EXIT_PRECISION, {"error": "precision-exhausted",
                                        "message": str(exc)}
    except InputError as exc:
        code, result = EXIT_INPUT, {"error": type(exc).__name__, "message": str(exc)}
    except DeltaForgeError as exc:
        code, result = EXIT_INPUT, {"error": type(exc).__name__, "message": str(exc)}
    doc = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
