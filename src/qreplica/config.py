"""Numerical tolerances and capacity limits shared across the package.

All values are read at call time (never captured in defaults), so a CLI
``--set-tolerance`` override affects every check that call makes. Reports
embed a snapshot of these values so published numbers are self-describing.
"""

import os
from contextlib import contextmanager

from .errors import InputError

# State norm may deviate from 1 by at most this much.
NORM_TOL = 1e-10

# Max-entry residual of A†A − I below which an operator counts as unitary.
# Leaves headroom for composed products of length ~10^3 in double precision.
UNITARY_TOL = 1e-10

# A computation must agree with its dense or literal reference to this.
STRUCT_DENSE_TOL = 1e-12

# Non-basis inputs to the basis cloner must miss the perfect-copy target by
# at least this much.
NO_CLONE_GAP = 1e-6

# Certified copy fidelity floor during tape replication, checked once per
# distinct tape symbol, is 1 − this.
REPLICATION_TOL = 1e-9

# A program state must be within this of an exact basis state to decode.
PROGRAM_DECODE_TOL = 1e-9

# An automaton's payload must match its tape's translation to this.
TRANSLATED_TOL = 1e-9

# Two partial products closer than this merge during approximation search;
# this is the documented completeness resolution of the search.
DEFAULT_NET_RADIUS = 1e-3

# Dense states are capped at this many amplitudes unless overridden.
DEFAULT_MAX_DIM = 2**20

ENV_MAX_DIM = "QREPLICA_MAX_DIM"

# Joint and dense cross-checks run up to this many amplitudes (a power of two).
JOINT_CHECK_LIMIT = 2**10

_TOLERANCE_NAMES = (
    "NORM_TOL",
    "UNITARY_TOL",
    "STRUCT_DENSE_TOL",
    "NO_CLONE_GAP",
    "REPLICATION_TOL",
    "PROGRAM_DECODE_TOL",
    "TRANSLATED_TOL",
    "DEFAULT_NET_RADIUS",
)


def max_dim() -> int:
    """Amplitude budget for dense constructions; QREPLICA_MAX_DIM overrides."""
    raw = os.environ.get(ENV_MAX_DIM)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{ENV_MAX_DIM} must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise InputError(f"{ENV_MAX_DIM} must be a positive integer, got {raw!r}")
    return value


def snapshot() -> dict:
    """All tolerances and limits currently in force, for report embedding."""
    values = {name: float(globals()[name]) for name in _TOLERANCE_NAMES}
    values["MAX_DIM"] = max_dim()
    return values


@contextmanager
def overridden(overrides):
    """Apply (name, value) tolerance overrides until the with block returns or raises."""
    saved = {name: globals()[name] for name in _TOLERANCE_NAMES}
    try:
        for name, value in overrides:
            if name not in _TOLERANCE_NAMES:
                known = ", ".join(_TOLERANCE_NAMES)
                raise InputError(f"unknown tolerance {name!r}; known names: {known}")
            globals()[name] = float(value)
        yield
    finally:
        globals().update(saved)
