"""Shared fixtures."""

import pytest

from rigidconn import transforms


@pytest.fixture
def fresh_memos():
    """Empty middle-convolution and stationary-phase-leg memos before and
    after the test, for a test that patches something on the path of
    either: no outcome memoized before the patch hides it, and none
    memoized under it outlives it."""
    memos = (transforms._mc_outcome, transforms._leg_polar)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
