import numpy as np
import pytest
from hypothesis import settings

from qreplica import approx

# Example run times vary several-fold under neighbour load on small shared
# machines, so no per-example deadline applies.
settings.register_profile("qreplica", deadline=None)
settings.load_profile("qreplica")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def cold_level_store():
    """Every test starts with no search levels stored, so a test that watches
    levels being built sees them built."""
    approx._forget_levels()
