"""Shared fixtures."""

import pytest

from rigidconn import transforms


@pytest.fixture
def fresh_mc_memo():
    """An empty middle-convolution memo before and after the test, for a
    test that patches something on middle_convolution's path: no outcome
    memoized before the patch hides it, and none memoized under it
    outlives it."""
    transforms._mc_outcome.cache_clear()
    yield transforms._mc_outcome
    transforms._mc_outcome.cache_clear()
