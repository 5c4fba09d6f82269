"""Fixtures shared by several test modules."""

import pytest

from _census_reps import representatives


@pytest.fixture(scope="session")
def reps5():
    """The census classes on 1 to 5 vertices, keyed by ground size."""
    return {n: representatives(n) for n in range(1, 6)}
