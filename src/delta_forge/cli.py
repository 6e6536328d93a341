"""Command-line surface.

All payloads are JSON; results go to stdout (or --out) as a single JSON
document.  Exit codes: 0 success/pass, 1 mathematical failure
(counterexample found), 2 input error, 3 precision exhaustion.  The
default seed is DEFAULT_SEED; the environment variable DELTA_FORGE_SEED
overrides it.

One table, ``COMMANDS``, names each subcommand's handler and options, and
a call builds the parser of its own subcommand only.  ``main`` builds the
ring of a subcommand with ring options and hands it to the handler.

A call imports only what its subcommand uses: this module loads the ring
backends, their JSON encoding and the homomorphisms (a small module, and
``psi`` stays a name of this module for tracers that patch it here); each
handler imports the layer it runs (jets, matrices, cocycles, decomp or
selftest) in its body.  No call loads ``dataclasses``, and only calls that
run the series backend (``--backend kolchin``, and selftest) load
``fractions``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DeltaForgeError, InputError, PrecisionExhausted
from .homs import GaHomParams, GmHomParams, TwistedCocycleParams, check_hom, ga_hom, gm_hom, psi, twisted_cocycle
from .rings import DEFAULT_SEED, RingParams, SeriesRing, WittRing, find_irreducible
from .serialize import all_ints, elem_from_json, elem_to_json

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
        try:
            with open(text) as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read a JSON payload from file {text!r}: {exc}")
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
    if not (all_ints([p, prec, m]) and isinstance(modulus, list) and all_ints(modulus)):
        raise InputError(
            f"ring config needs integers p, prec (and m, modulus list), got {cfg!r}"
        )
    if m > 1 and not modulus:
        modulus = find_irreducible(p, m)
    return WittRing(RingParams(p=p, prec=prec, m=m, modulus=tuple(modulus)))


def _seed(args):
    env = os.environ.get("DELTA_FORGE_SEED")
    if args.seed is not None:
        return args.seed
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"DELTA_FORGE_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _elem(ring, text):
    try:
        return elem_from_json(ring, json.loads(text))
    except json.JSONDecodeError:
        return elem_from_json(ring, text)


# -- subcommand handlers ----------------------------------------------------


def cmd_ring_info(args, ring):
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


def cmd_delta_eval(args, ring):
    x = _elem(ring, args.value)
    d = x.delta()
    return EXIT_OK, {"value": elem_to_json(x), "delta": elem_to_json(d),
                     "prec": d.prec}


def cmd_teich(args, ring):
    residue = _load_json(args.residue)
    if not all_ints(residue if isinstance(residue, list) else [residue]):
        raise InputError(f"residue must be an integer or a list of them, got {residue!r}")
    t = ring.teichmueller(residue)
    return EXIT_OK, {"residue": residue, "teichmueller": elem_to_json(t)}


def cmd_psi(args, ring):
    a = _elem(ring, args.value)
    val = psi(a)
    return EXIT_OK, {"value": elem_to_json(a), "psi": elem_to_json(val),
                     "prec": val.prec}


def cmd_jet_prolong(args, ring):
    from .jets import JetPolynomial, parse_polynomial

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
    text, records = f.text_and_records()
    return EXIT_OK, {"order": f.order, "text": text, "terms": records}


def cmd_jet_nabla(args, ring):
    from .jets import nabla

    values = tuple(_elem(ring, v) for v in args.values)
    point = nabla(values, args.order)
    return EXIT_OK, {
        "level": args.order,
        "components": [
            [elem_to_json(c) for c in chain] for chain in point.components_
        ],
    }


# law name -> (params class, hom, the law check_hom tests)
_HOM_LAWS = {
    "additive": (GaHomParams, ga_hom, "additive"),
    "multiplicative": (GmHomParams, gm_hom, "multiplicative-to-additive"),
}


def cmd_hom_check(args, ring):
    params = _load_json(args.params) or {}
    if not isinstance(params, dict) or not isinstance(params.get("lambda", []), list):
        raise InputError(f'--params must be {{"lambda": [...]}} or {{"mu": c}}, got {params!r}')
    seed = _seed(args)
    if args.law == "twisted":
        p = TwistedCocycleParams(elem_from_json(ring, params.get("mu", 1)), args.s)
        f, law, s = (lambda a: twisted_cocycle(p, a)), "twisted", args.s
    else:
        cls, hom, law = _HOM_LAWS[args.law]
        p = cls(tuple(elem_from_json(ring, v) for v in params.get("lambda", [1])))
        f, s = (lambda a: hom(p, a)), None
    rep = check_hom(f, law, ring, samples=args.samples, seed=seed, s=s)
    return (EXIT_OK if rep.passed else EXIT_COUNTEREXAMPLE), rep.to_dict()


def _cocycle_from_json(ring, obj):
    from .cocycles import ClassifiedCocycle
    from .matrices import SquareMatrix

    omega = obj.get("omega") if isinstance(obj, dict) else None
    lam = omega.get("lambda") if isinstance(omega, dict) else None
    if not isinstance(lam, list) or "v" not in obj:
        raise InputError('cocycle must be {"omega": {"lambda": [...]}, "v": matrix}')
    omega = GmHomParams(tuple(elem_from_json(ring, v) for v in lam))
    return ClassifiedCocycle(omega, SquareMatrix.from_json(ring, obj["v"]))


def cmd_cocycle_make(args, ring):
    import random as _random

    from .matrices import SquareMatrix

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
    from .cocycles import classified_handle, coboundary_handle, log_derivative_handle
    from .matrices import SquareMatrix

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


def cmd_cocycle_check(args, ring):
    from .cocycles import cocycle_check

    f = _handle_from_args(ring, args)
    rep = cocycle_check(f, ring, args.n, samples=args.samples, seed=_seed(args))
    return (EXIT_OK if rep.passed else EXIT_COUNTEREXAMPLE), rep.to_dict()


def cmd_cocycle_recover(args, ring):
    from .cocycles import recover

    f = _handle_from_args(ring, args)
    v, omega_eval = recover(f, ring, args.n, seed=_seed(args))
    # sample omega on small units for the report
    samples = {}
    for k in (2, 3, 4):
        a = ring.from_int(k)
        if a.is_unit():
            samples[str(k)] = elem_to_json(omega_eval(a))
    return EXIT_OK, {"v": v.to_json(), "omega_samples": samples}


def cmd_coherence_check(args, ring):
    from .cocycles import coherence_check
    from .matrices import SquareMatrix, random_constant_gl

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


def cmd_decompose(args, ring):
    from .decomp import decompose, precondition
    from .matrices import SquareMatrix

    x = SquareMatrix.from_json(ring, _load_json(args.matrix))
    out = {}
    if args.precondition:
        wl, wr, xp = precondition(x)
        out["w_left"] = wl.to_json()
        out["w_right"] = wr.to_json()
        x = xp
    word = decompose(x)
    out["word"] = word.to_json()
    return EXIT_OK, out


def cmd_reconstruct(args, ring):
    from .decomp import DecompositionWord, reconstruct

    word = DecompositionWord.from_json(ring, _load_json(args.word))
    m = reconstruct(word, ring)
    return EXIT_OK, {"matrix": m.to_json()}


def cmd_selftest(args, ring):
    from .selftest import run_selftest

    report = run_selftest(profile=args.profile, seed=_seed(args), out=sys.stderr)
    return (EXIT_OK if report["pass"] else EXIT_COUNTEREXAMPLE), report


# -- the subcommand table ---------------------------------------------------
# name -> (handler, options); an option is (flag or name, add_argument keywords)

_RING = (
    ("--ring", {"help": "ring config JSON or file path"}),
    ("--p", {"type": int, "help": "prime (alternative to --ring)"}),
    ("--prec", {"type": int, "help": "p-adic precision"}),
    ("--m", {"type": int, "default": 1, "help": "residue field degree"}),
    ("--modulus", {"help": "modulus coefficients as a JSON list"}),
)
_BACKEND = _RING + (
    ("--backend", {"choices": ["arithmetic", "kolchin"], "default": "arithmetic"}),
    ("--trunc", {"type": int, "default": 10,
                 "help": "series truncation for the kolchin backend"}),
)
_SEED = (("--seed", {"type": int}),)
_SAMPLED = _SEED + (("--samples", {"type": int, "default": 100}),)
_N = (("--n", {"type": int, "required": True}),)
_MAP = _BACKEND + _SAMPLED + _N + (
    ("--map", {"choices": ["classified", "logderiv", "coboundary"], "default": "classified"}),
    ("--cocycle", {"help": "cocycle parameter JSON or file path"}),
)

COMMANDS = {
    "ring-info": (cmd_ring_info, _RING),
    "delta-eval": (cmd_delta_eval, _BACKEND + (("value", {}),)),
    "teich": (cmd_teich, _RING + (("residue", {}),)),
    "psi": (cmd_psi, _RING + (("value", {}),)),
    "jet-prolong": (cmd_jet_prolong,
                    _BACKEND + (("--times", {"type": int, "default": 1}), ("poly", {}))),
    "jet-nabla": (cmd_jet_nabla, _BACKEND + (("--order", {"type": int, "default": 1}),
                                             ("values", {"nargs": "+"}))),
    "hom-check": (cmd_hom_check, _BACKEND + _SAMPLED + (
        ("--law", {"required": True, "choices": ["additive", "multiplicative", "twisted"]}),
        ("--s", {"type": int, "default": 1}),
        ("--params", {"help": "parameter JSON or file path"}),
    )),
    "cocycle-make": (cmd_cocycle_make, _RING + _N + (("--order", {"type": int, "default": 1}),)
                     + _SEED),
    "cocycle-check": (cmd_cocycle_check, _MAP),
    "cocycle-recover": (cmd_cocycle_recover, _MAP),
    "coherence-check": (cmd_coherence_check, _MAP + (
        ("--subgroup", {"required": True,
                        "choices": ["torus", "sl_n", "borel", "conjugated-torus"]}),
        ("--u", {"help": "conjugating matrix JSON or file path"}),
    )),
    "decompose": (cmd_decompose, _RING + (
        ("--seed", {"type": int, "help": "accepted; has no effect on decompose"}),
        ("--precondition", {"action": "store_true"}),
        ("matrix", {}),
    )),
    "reconstruct": (cmd_reconstruct, _RING + (("word", {}),)),
    "selftest": (cmd_selftest, (("--profile", {"choices": ["quick", "full"], "default": "quick"}),)
                 + _SEED),
}


def _parser(cmd):
    """The parser of one subcommand, its handler set as ``fn``."""
    fn, options = COMMANDS[cmd]
    sp = argparse.ArgumentParser(prog=f"delta-forge {cmd}")
    for flag, kw in options:
        sp.add_argument(flag, **kw)
    sp.set_defaults(fn=fn)
    return sp


def main(argv=None):
    # the top level reads [--out] and the subcommand's name; only that
    # subcommand's parser is built, and it reads the rest
    ap = argparse.ArgumentParser(prog="delta-forge",
                                 description="Exact arithmetic differential algebra toolkit")
    ap.add_argument("--out", help="write the result document to this path")
    ap.add_argument("cmd", choices=COMMANDS)
    ap.add_argument("rest", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    top = ap.parse_args(argv)
    args = _parser(top.cmd).parse_args(top.rest, argparse.Namespace(out=top.out))
    try:
        for name, low in _MINIMUMS.items():
            value = getattr(args, name, None)
            if value is not None and value < low:
                raise InputError(f"--{name} must be at least {low}, got {value}")
        ring = _make_ring(args) if hasattr(args, "ring") else None
        code, result = args.fn(args, ring)
    except PrecisionExhausted as exc:
        code, result = EXIT_PRECISION, {"error": "precision-exhausted",
                                        "message": str(exc)}
    except DeltaForgeError as exc:
        code, result = EXIT_INPUT, {"error": type(exc).__name__, "message": str(exc)}
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(_document(result))
            return code
        except OSError as exc:
            code, result = EXIT_INPUT, {"error": "InputError",
                                        "message": f"cannot write --out {args.out!r}: {exc}"}
    sys.stdout.write(_document(result))
    return code


def _document(result):
    return json.dumps(result, indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    sys.exit(main())
