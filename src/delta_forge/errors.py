"""Exception taxonomy shared by every module.

The CLI maps these onto exit codes: mathematical counterexamples are
reported in-band (exit 1), InputError subclasses give exit 2, and
PrecisionExhausted gives exit 3.
"""


class DeltaForgeError(Exception):
    """Base class for all library errors."""


class InputError(DeltaForgeError):
    """Invalid argument, payload, or precondition violation."""


class BackendError(InputError):
    """Operation not supported on this ring backend."""


class NonUnitError(InputError):
    """An inversion was requested for a non-unit element."""

    def __init__(self, element, msg="not a unit"):
        super().__init__(f"{msg}: {element!r}")
        self.element = element


class NonUnitMinorError(InputError):
    """A trailing minor required to be a unit is not one."""

    def __init__(self, index, value):
        super().__init__(f"trailing minor {index} is not a unit: {value!r}")
        self.index = index
        self.value = value


class SingularPivotError(InputError):
    """Gaussian elimination found no unit pivot in a needed column."""

    def __init__(self, column, valuation):
        super().__init__(
            f"no unit pivot in column {column} (best valuation {valuation})"
        )
        self.column = column
        self.valuation = valuation


class InconsistentSystemError(InputError):
    """A linear system had no solution at the working precision."""


class ShapeError(InputError):
    """Matrix or word shape invariant violated."""


class ArityError(InputError):
    """A jet point does not cover the variables of a jet polynomial."""


class ExhaustedSearchError(DeltaForgeError):
    """Preconditioning found no admissible permutation (no library call raises it now)."""


class TermBudgetError(DeltaForgeError):
    """A polynomial operation exceeded the term-count cap."""

    def __init__(self, count, cap):
        super().__init__(f"term count {count} exceeds cap {cap}")
        self.count = count
        self.cap = cap


class PrecisionExhausted(DeltaForgeError):
    """An operation would drop effective precision below one digit."""
