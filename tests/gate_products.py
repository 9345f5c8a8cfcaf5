"""Gate products for the test oracles, built with the package's sequence kernel."""

import numpy as np

from qreplica.linalg import Operator, apply_sequence


def rotation_y(theta):
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return Operator(np.array([[c, -s], [s, c]]))


def gate_product(symbols, g):
    """Product of g's gates in application order: symbols[0]'s gate acts
    first, and the empty product is the identity."""
    return Operator(apply_sequence([gate.entries for gate in g.gates], symbols, np.eye(g.dim, dtype=complex)))
