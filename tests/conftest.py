import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

# Derandomized, so that every run draws the same examples; no deadline, so
# that a slow machine cannot turn a correct result into a failure.
settings.register_profile("delta-forge", derandomize=True, deadline=None, database=None)
settings.load_profile("delta-forge")


@pytest.fixture
def deadline():
    """Context manager that fails the test once the block has run for the
    given seconds (SIGALRM, so it also stops a hung loop).  The failure
    is reported by its message alone (``pytrace=False``): formatting a
    traceback through the frame the alarm interrupted can crash pytest."""

    @contextmanager
    def within(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        except TimeoutError as exc:
            pytest.fail(str(exc), pytrace=False)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within


class Elimination(tuple):
    """(ncols, augmented) of one ``matrices._eliminate`` call, equal to that
    plain pair, with the precision of its domain as ``prec``."""

    def __new__(cls, ncols, augmented, prec):
        call = super().__new__(cls, (ncols, augmented))
        call.prec = prec
        return call


@pytest.fixture
def eliminations(monkeypatch):
    """An ``Elimination`` for each ``matrices._eliminate`` call made from
    now on: the columns it pivots on, whether its rows carry columns beyond
    them (an inverse or a right-hand side), and its domain's precision."""
    from delta_forge import matrices

    calls = []
    real = matrices._eliminate

    def counted(dom, aug, ncols):
        calls.append(Elimination(ncols, len(aug[0]) > ncols, dom.prec))
        return real(dom, aug, ncols)

    monkeypatch.setattr(matrices, "_eliminate", counted)
    return calls


@pytest.fixture
def products(monkeypatch):
    """(|a|, |b|, prec, before, after) of each ``jets._mul_into`` call made
    from now on: the operand sizes, the precision they are known at, and
    the terms of the dict it adds into before and after the call.  A call
    with ``before == 0`` filled a fresh dict (a product of its own)."""
    from delta_forge import jets

    calls = []
    real = jets._mul_into

    def counted(out, a, b, dom, bits, fields, scale=1):
        before = len(out)
        real(out, a, b, dom, bits, fields, scale)
        calls.append((len(a), len(b), dom.prec, before, len(out)))
        return out

    monkeypatch.setattr(jets, "_mul_into", counted)
    return calls
