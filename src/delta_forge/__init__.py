"""Exact arithmetic differential algebra: p-derivations and jets over
truncated Witt rings, delta-homomorphism families, and classical
delta-cocycles on GL_n."""

from .cocycles import (
    ClassifiedCocycle,
    CocycleReport,
    DeltaMapHandle,
    HBlockComponents,
    classified_eval,
    classified_handle,
    coboundary,
    coboundary_handle,
    cocycle_check,
    coherence_check,
    h_block_components,
    log_derivative,
    log_derivative_handle,
    recover,
)
from .decomp import (
    DecompositionWord,
    PermFactor,
    SFactor,
    decompose,
    precondition,
    reconstruct,
    trailing_minors,
)
from .errors import (
    ArityError,
    BackendError,
    DeltaForgeError,
    ExhaustedSearchError,
    InconsistentSystemError,
    InputError,
    NonUnitError,
    NonUnitMinorError,
    PrecisionExhausted,
    ShapeError,
    SingularPivotError,
    TermBudgetError,
)
from .homs import (
    GaHomParams,
    GmHomParams,
    HomReport,
    TwistedCocycleParams,
    check_hom,
    ga_hom,
    gm_hom,
    psi,
    twisted_cocycle,
)
from .jets import (
    JetPoint,
    JetPolynomial,
    JetPresentation,
    eval_jet,
    jet_presentation,
    nabla,
    parse_polynomial,
    prolong,
)
from .matrices import SquareMatrix, random_constant_gl, random_gl, random_sl
from .rings import (
    RingParams,
    SeriesElement,
    SeriesRing,
    WittElement,
    WittRing,
    delta,
    frobenius,
    invert,
    is_constant,
    teichmueller,
)

__version__ = "0.1.0"
