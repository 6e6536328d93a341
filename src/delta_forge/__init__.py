"""Exact arithmetic differential algebra: p-derivations and jets over
truncated Witt rings, delta-homomorphism families, and classical
delta-cocycles on GL_n.

The public names below are loaded lazily (PEP 562): ``import delta_forge``
imports no submodule, and the first use of a name imports the one
submodule that defines it.
"""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "cocycles": (
            "ClassifiedCocycle", "CocycleReport", "DeltaMapHandle", "HBlockComponents",
            "classified_eval", "classified_handle", "coboundary", "coboundary_handle",
            "cocycle_check", "coherence_check", "h_block_components", "log_derivative",
            "log_derivative_handle", "recover",
        ),
        "decomp": (
            "DecompositionWord", "PermFactor", "SFactor", "decompose", "precondition", "reconstruct",
        ),
        "errors": (
            "ArityError", "BackendError", "DeltaForgeError", "ExhaustedSearchError",
            "InconsistentSystemError", "InputError", "NonUnitError", "NonUnitMinorError",
            "PrecisionExhausted", "ShapeError", "SingularPivotError", "TermBudgetError",
        ),
        "homs": (
            "GaHomParams", "GmHomParams", "HomReport", "TwistedCocycleParams", "check_hom",
            "ga_hom", "gm_hom", "psi", "twisted_cocycle",
        ),
        "jets": (
            "JetPoint", "JetPolynomial", "JetPresentation", "eval_jet", "jet_presentation",
            "nabla", "parse_polynomial", "prolong",
        ),
        "matrices": ("SquareMatrix", "random_constant_gl", "random_gl", "random_sl"),
        "rings": (
            "RingParams", "SeriesElement", "SeriesRing", "WittElement", "WittRing", "delta",
            "frobenius", "invert", "is_constant", "teichmueller",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: a name replaced in its submodule is seen at once
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
