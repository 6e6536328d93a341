"""Canonical JSON-compatible encodings for ring elements."""

from __future__ import annotations

from .errors import InputError
from .rings import ARITHMETIC, SeriesElement, WittElement


def elem_to_json(x):
    if isinstance(x, WittElement):
        return list(x.coeffs)
    if isinstance(x, SeriesElement):
        return [str(c) for c in x.coeffs]
    raise InputError(f"not a ring element: {x!r}")


def all_ints(values):
    """Whether every value is a JSON integer: an int that is not a bool."""
    return all(isinstance(v, int) and not isinstance(v, bool) for v in values)


def _coefficient(ring, c):
    """One JSON coefficient: an int, or a string holding an integer
    (arithmetic backend) or a rational such as "-3/4" (series backend)."""
    if all_ints([c]):
        return c
    if isinstance(c, str):
        try:
            if ring.kind == ARITHMETIC:
                return int(c)
            from fractions import Fraction

            return Fraction(c)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"cannot decode coefficient from {c!r}")


def elem_from_json(ring, v, prec=None):
    if isinstance(v, list):
        return ring.element([_coefficient(ring, c) for c in v], prec)
    return ring.from_int(_coefficient(ring, v), prec)
