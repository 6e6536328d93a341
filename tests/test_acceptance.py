"""Full-scale acceptance gate: all twelve self-test criteria must pass.

Each criterion runs at its full sample counts with the default seed, so
this module is the slow part of the suite (several minutes in total).
"""

import pytest

from delta_forge.selftest import CRITERIA, DEFAULT_SEED

pytestmark = pytest.mark.slow


@pytest.mark.parametrize(
    "name,criterion", CRITERIA, ids=[name.replace(" ", "-") for name, _ in CRITERIA]
)
def test_criterion_full_scale(name, criterion):
    passed, detail = criterion(DEFAULT_SEED, 1)
    assert passed, f"criterion {name}: {detail}"
