"""Shared fixtures for the test suite."""

import pytest
from hypothesis import settings

from scriptshift import translit

# `pytest --hypothesis-profile=ci` searches harder than a local run: more
# examples for every test that does not fix its own count, a new random
# seed each run and no per-example deadline.
settings.register_profile("ci", max_examples=1000, derandomize=False,
                          deadline=None)


@pytest.fixture(scope="session")
def registry():
    return translit.default_registry()
