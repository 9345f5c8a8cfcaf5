"""Completeness of the indexed visited net.

If B lies within the merge radius of an admitted product A, ``admit`` must
cover B, whether A was admitted at an earlier level or earlier in the same
level. The net's grid finds B only if a merge moves each grid coordinate by
at most half a cell side and the two cells probed per axis hold every
partner, so A is placed with its coordinates at or next to cell boundaries
and at half-cell offsets, where the probed cells change, and B is pushed up
to the merge radius in a random direction.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qreplica.approx import _EXACT_MARGIN, _VisitedNet
from qreplica.linalg import random_unitary


def _snapped(value, lo, hi, step, offset):
    """``value`` moved to the nearest multiple of ``step`` plus ``offset``, if that stays in [lo, hi]."""
    snapped = round(value / step) * step + offset
    return snapped if lo <= snapped <= hi else value


def unitary_with_coordinates(dim, rng, step, offset):
    """A unitary whose grid coordinates sit at multiples of ``step`` plus ``offset``.

    The coordinates (|A₀₀|², Re A₀₀·conj(A₁₀), Re A₀₀·conj(A₀₁)) depend on the
    top-left 2×2 block alone, which is [[c·e^{iα}, −s·e^{iβ}], [s·e^{iγ},
    c·e^{i(β+γ−α)}]]; unitaries on the remaining rows and on the remaining
    columns leave them unchanged.
    """
    x = _snapped(rng.uniform(0.02, 0.98), 0.01, 0.99, step, offset)
    c, s = np.sqrt(x), np.sqrt(1.0 - x)
    bound = c * s
    # The other two coordinates are stored shifted by 1, so their cell
    # boundaries sit at multiples of ``step`` minus 1.
    y = _snapped(rng.uniform(-bound, bound) + 1.0, 1.0 - bound, 1.0 + bound, step, offset) - 1.0
    z = _snapped(rng.uniform(-bound, bound) + 1.0, 1.0 - bound, 1.0 + bound, step, offset) - 1.0
    alpha = rng.uniform(0.0, 2.0 * np.pi)
    gamma = alpha - np.arccos(np.clip(y / bound, -1.0, 1.0))
    beta = alpha - np.arccos(np.clip(-z / bound, -1.0, 1.0))
    a = np.eye(dim, dtype=complex)
    a[:2, :2] = [
        [c * np.exp(1j * alpha), -s * np.exp(1j * beta)],
        [s * np.exp(1j * gamma), c * np.exp(1j * (beta + gamma - alpha))],
    ]
    if dim > 2:
        left, right = np.eye(dim, dtype=complex), np.eye(dim, dtype=complex)
        left[2:, 2:] = random_unitary(dim - 2, rng).entries
        right[2:, 2:] = random_unitary(dim - 2, rng).entries
        a = left @ a @ right
    return a * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


def partner(a, rng, target, rotate):
    """e^{iφ}·A·V with V = exp(i·t·H), at distance ≈ ``target`` from A.

    H is a random Hermitian matrix, or with ``rotate`` one that turns column 0
    of A toward column 1, which moves the first grid coordinate of a product
    whose |A₀₀|² is near ½ close to the most that the distance allows.
    d(A, A·V)² = 1 − |Σ e^{i·t·λ}|/dim over the eigenvalues λ of H.
    """
    dim = len(a)
    if rotate:
        h = np.zeros((dim, dim), dtype=complex)
        h[1, 0] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    else:
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    eigenvalues, basis = np.linalg.eigh(h + h.conj().T)
    eigenvalues /= np.abs(eigenvalues).max()

    def distance(t):
        return np.sqrt(np.maximum(0.0, 1.0 - np.abs(np.exp(1j * np.multiply.outer(t, eigenvalues)).sum(-1)) / dim))

    steps = np.linspace(0.0, np.pi, 2001)
    reached = distance(steps)
    beyond = np.flatnonzero(reached >= target)
    if len(beyond):
        lo, hi = steps[beyond[0] - 1], steps[beyond[0]]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if distance(mid) < target else (lo, mid)
        t = lo
    else:
        t = steps[int(np.argmax(reached))]
    v = (basis * np.exp(1j * t * eigenvalues)) @ basis.conj().T
    return a @ v * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


@settings(max_examples=300)
@given(
    dim=st.sampled_from([2, 3, 4]),
    # From 0.6 on the grid is a single cell; 1.0 caps the side at 4 for dim 4.
    radius=st.sampled_from([1e-6, 1e-3, 0.05, 0.3, 0.6, 1.0]),
    fraction=st.sampled_from([0.0, 0.5, 0.9, 0.999, 1.0 - 1e-6]),
    half_cells=st.booleans(),
    rotate=st.booleans(),
    offset=st.sampled_from([-1e-9, 0.0, 1e-9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_product_within_the_radius_of_an_admitted_one_is_covered(
    dim, radius, fraction, half_cells, rotate, offset, seed
):
    rng = np.random.default_rng(seed)
    net = _VisitedNet(dim, radius)
    # Boundaries of cells, and of the cells probed from a base cell, lie at
    # multiples of half the side.
    side = net._side
    step = side / 2.0 if half_cells else side
    a = unitary_with_coordinates(dim, rng, step, offset * side)
    b = partner(a, rng, fraction * radius, rotate)
    # Only pairs the exact test merges without a near-threshold recompute.
    assume(abs(np.vdot(a, b)) >= dim * (1.0 - radius * radius) + _EXACT_MARGIN)

    assert list(net.admit(a.reshape(1, -1))) == [0]
    assert len(net.admit(b.reshape(1, -1))) == 0

    same_level = _VisitedNet(dim, radius)
    assert list(same_level.admit(np.stack([a.reshape(-1), b.reshape(-1)]))) == [0]
