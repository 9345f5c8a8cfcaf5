import numpy as np
import pytest
from hypothesis import settings

# Example run times vary several-fold under neighbour load on small shared
# machines, so no per-example deadline applies.
settings.register_profile("qreplica", deadline=None)
settings.load_profile("qreplica")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
