import numpy as np
import pytest
from hypothesis import settings

from emforms import cli

settings.register_profile("ci", deadline=None, max_examples=40, derandomize=True)
settings.load_profile("ci")

SEED = 20260808


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(autouse=True)
def forget_the_kept_scenario():
    """Each test starts with no scenario kept by a run of an earlier test,
    so that no test's solves depend on the order the tests run in."""
    cli._kept_scenario.clear()
