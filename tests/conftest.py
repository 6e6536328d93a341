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


@pytest.fixture
def eliminations(monkeypatch):
    """(ncols, augmented) of each ``matrices._eliminate`` call made from now
    on: the columns it pivots on, and whether its rows carry columns beyond
    them (an inverse or a right-hand side)."""
    from delta_forge import matrices

    calls = []
    real = matrices._eliminate

    def counted(dom, aug, ncols):
        calls.append((ncols, len(aug[0]) > ncols))
        return real(dom, aug, ncols)

    monkeypatch.setattr(matrices, "_eliminate", counted)
    return calls
