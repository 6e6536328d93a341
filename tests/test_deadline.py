"""The ``deadline`` fixture turns a block that runs too long into a test
failure, not an error inside pytest."""

import pytest


def test_busy_loop_fails_with_message(deadline):
    with pytest.raises(pytest.fail.Exception, match="still running after 0.05 s") as info:
        with deadline(0.05):
            while True:
                pass
    assert info.value.pytrace is False


def test_prompt_block_passes(deadline):
    with deadline(1):
        assert sum(range(10)) == 45
