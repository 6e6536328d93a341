"""Lazy loading: ``import delta_forge`` imports no submodule, its public
names resolve on first use, and each CLI call imports only the modules of
its subcommand, never ``dataclasses``, and ``fractions`` only on the series
backend (checked in a fresh interpreter per call)."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import delta_forge
from delta_forge import homs

SRC = os.path.dirname(os.path.dirname(os.path.abspath(delta_forge.__file__)))

# the package's public names, by the submodule that defines them
PUBLIC = {
    "cocycles": [
        "ClassifiedCocycle", "CocycleReport", "DeltaMapHandle", "HBlockComponents",
        "classified_eval", "classified_handle", "coboundary", "coboundary_handle",
        "cocycle_check", "coherence_check", "h_block_components", "log_derivative",
        "log_derivative_handle", "recover",
    ],
    "decomp": [
        "DecompositionWord", "PermFactor", "SFactor", "decompose", "precondition", "reconstruct",
    ],
    "errors": [
        "ArityError", "BackendError", "DeltaForgeError", "ExhaustedSearchError",
        "InconsistentSystemError", "InputError", "NonUnitError", "NonUnitMinorError",
        "PrecisionExhausted", "ShapeError", "SingularPivotError", "TermBudgetError",
    ],
    "homs": [
        "GaHomParams", "GmHomParams", "HomReport", "TwistedCocycleParams", "check_hom",
        "ga_hom", "gm_hom", "psi", "twisted_cocycle",
    ],
    "jets": [
        "JetPoint", "JetPolynomial", "JetPresentation", "eval_jet", "jet_presentation",
        "nabla", "parse_polynomial", "prolong",
    ],
    "matrices": ["SquareMatrix", "random_constant_gl", "random_gl", "random_sl"],
    "rings": [
        "RingParams", "SeriesElement", "SeriesRing", "WittElement", "WittRing", "delta",
        "frobenius", "invert", "is_constant", "teichmueller",
    ],
}


def test_all_lists_the_public_names():
    names = [n for group in PUBLIC.values() for n in group]
    assert len(names) == 63
    assert sorted(delta_forge.__all__) == sorted(names)
    assert set(names) <= set(dir(delta_forge))


def test_each_name_is_its_submodules_object():
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"delta_forge.{module}")
        for name in names:
            assert getattr(delta_forge, name) is getattr(mod, name), name


def test_star_import():
    namespace = {}
    exec("from delta_forge import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(delta_forge.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        delta_forge.no_such_name
    assert not hasattr(delta_forge, "no_such_name")
    with pytest.raises(ImportError):
        from delta_forge import no_such_name  # noqa: F401


def test_names_are_looked_up_in_their_submodule(monkeypatch):
    # a wrapper installed on the submodule (as a tracer does) is what the
    # package hands out, and the original comes back once it is removed
    original = homs.psi
    monkeypatch.setattr(homs, "psi", lambda a: a)
    assert delta_forge.psi is homs.psi
    monkeypatch.undo()
    assert delta_forge.psi is original


def test_default_seed_is_shared():
    from delta_forge import cli, rings, selftest

    assert cli.DEFAULT_SEED is rings.DEFAULT_SEED is selftest.DEFAULT_SEED


_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
argv = sys.argv[1:]
if argv:
    from delta_forge.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
else:
    import delta_forge
    code = None
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def _loaded(argv):
    """(exit code, library modules loaded, other modules loaded) of one call
    in a fresh interpreter, beyond those loaded before the call."""
    env = {k: v for k, v in os.environ.items() if k != "DELTA_FORGE_SEED"}
    env["PYTHONPATH"] = SRC
    out = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    code, added = json.loads(out.stdout)
    ours = {m for m in added if m.split(".")[0] == "delta_forge"}
    return code, {m.removeprefix("delta_forge.") for m in ours} - {"delta_forge"}, set(added) - ours


def test_import_loads_no_submodule():
    code, modules, others = _loaded([])
    assert (code, modules) == (None, set())
    assert not {"dataclasses", "fractions"} & others


COCYCLE = '{"omega":{"lambda":[[67],[97]]},"v":{"n":2,"rows":[[[23],[89]],[[60],[85]]]}}'
BASE = {"cli", "errors", "homs", "rings", "serialize"}
EVERY = BASE | {"cocycles", "decomp", "jets", "matrices", "selftest"}

CALLS = [
    (("ring-info", "--p", "5", "--prec", "3", "--m", "2"), BASE),
    (("delta-eval", "--p", "5", "--prec", "3", "7"), BASE),
    (("teich", "--p", "5", "--prec", "3", "2"), BASE),
    (("psi", "--p", "5", "--prec", "3", "6"), BASE),
    (("hom-check", "--p", "5", "--prec", "3", "--law", "additive", "--samples", "3"), BASE),
    (("jet-prolong", "--p", "3", "--prec", "3", "x0^2 + x1"), BASE | {"jets"}),
    (("jet-nabla", "--p", "5", "--prec", "3", "--order", "2", "2"), BASE | {"jets"}),
    (("cocycle-make", "--p", "5", "--prec", "3", "--n", "2"), BASE | {"matrices"}),
    (("cocycle-check", "--p", "5", "--prec", "3", "--n", "2", "--samples", "2",
      "--cocycle", COCYCLE), BASE | {"cocycles", "matrices"}),
    (("cocycle-recover", "--p", "5", "--prec", "3", "--n", "2", "--cocycle", COCYCLE),
     BASE | {"cocycles", "matrices"}),
    (("coherence-check", "--backend", "kolchin", "--trunc", "5", "--n", "2", "--samples", "2",
      "--subgroup", "torus", "--map", "logderiv"), BASE | {"cocycles", "matrices"}),
    (("decompose", "--p", "5", "--prec", "3", '{"n":2,"rows":[[1,2],[3,4]]}'),
     BASE | {"decomp", "matrices"}),
    (("reconstruct", "--p", "5", "--prec", "3", '{"n":2,"factors":[{"kind":"perm","sigma":[1,0]}]}'),
     BASE | {"decomp", "matrices"}),
    (("selftest", "--profile", "quick"), EVERY),
]


@pytest.mark.parametrize("argv, modules", CALLS, ids=[argv[0] for argv, _ in CALLS])
def test_cli_call_loads_only_its_subcommands_modules(argv, modules):
    code, loaded, others = _loaded(argv)
    assert code == 0
    assert loaded == modules
    assert "dataclasses" not in others
    # rationals appear only on the series backend, which selftest runs too
    assert ("fractions" in others) == ("kolchin" in argv or argv[0] == "selftest")


def test_call_on_a_degree_3_extension():
    # cli-session runs its calls on m = 2 and m = 3 rings
    code, loaded, others = _loaded(("psi", "--ring", '{"p":3,"prec":4,"m":3}', "[1,2,0]"))
    assert (code, loaded) == (0, BASE)
    assert not {"dataclasses", "fractions"} & others


_RATIONALS = """
import json
from fractions import Fraction
from delta_forge.errors import InputError
from delta_forge.rings import SeriesRing
from delta_forge.serialize import elem_from_json
R = SeriesRing(4)
x, c = R.element([1, 2, -3]), Fraction(-3, 4)
show = lambda y: [str(v) for v in y.coeffs] + [y.prec]
out = [show(y) for y in (x + c, c + x, x - c, c - x, x * c, c * x)]
out += [x == c, c == x, R.from_int(c) == c, c == R.from_int(c), x != c]
out += [show(elem_from_json(R, "-3/4")), show(elem_from_json(R, ["1/2", -3, "7"]))]
try:
    elem_from_json(R, "1/0")
except InputError as exc:
    out.append(str(exc))
print(json.dumps(out))
"""


def test_rational_operands_in_a_fresh_interpreter():
    env = {k: v for k, v in os.environ.items() if k != "DELTA_FORGE_SEED"}
    env["PYTHONPATH"] = SRC
    out = subprocess.run([sys.executable, "-c", _RATIONALS], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert json.loads(out.stdout) == [
        ["1/4", "2", "-3", "0", 4], ["1/4", "2", "-3", "0", 4],
        ["7/4", "2", "-3", "0", 4], ["-7/4", "-2", "3", "0", 4],
        ["-3/4", "-3/2", "9/4", "0", 4], ["-3/4", "-3/2", "9/4", "0", 4],
        False, False, True, True, True,
        ["-3/4", "0", "0", "0", 4], ["1/2", "-3", "7", "0", 4],
        "cannot decode coefficient from '1/0'",
    ]
    bad = subprocess.run([sys.executable, "-m", "delta_forge.cli", "delta-eval", "--backend",
                          "kolchin", "--trunc", "4", '["1/0"]'], capture_output=True,
                         text=True, env=env, timeout=120)
    assert bad.returncode == 2 and "Traceback" not in bad.stderr
