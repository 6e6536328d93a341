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
    """Context manager that fails the block with TimeoutError once it has
    run for the given seconds (SIGALRM, so it also stops a hung loop)."""

    @contextmanager
    def within(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
