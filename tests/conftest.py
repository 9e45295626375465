"""Shared fixtures for the test suite."""

import pytest
from hypothesis import settings

from scriptshift import pipeline, translit

# `pytest --hypothesis-profile=ci` searches harder than a local run: more
# examples for every test that does not fix its own count, a new random
# seed each run and no per-example deadline.
settings.register_profile("ci", max_examples=1000, derandomize=False,
                          deadline=None)
# Any other run draws the same examples each time and replays no stored
# failure, so its result is a function of the commit. Loaded here, as
# Hypothesis loads its own ci profile by itself under a CI environment.
settings.register_profile("default", settings.get_profile("default"),
                          derandomize=True)
settings.load_profile("default")


@pytest.fixture(scope="session")
def registry():
    return translit.default_registry()


@pytest.fixture(autouse=True)
def no_model_in_memory(monkeypatch):
    """Each test starts without the model a run without a store keeps in
    the process, so what a test trains does not depend on earlier tests."""
    monkeypatch.setattr(pipeline, "_last_model", None)
