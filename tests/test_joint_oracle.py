"""The joint evolution against the index-scatter kernel it replaced.

``scatter_joint_evolution`` is a test-only reference: each step applies the
conditioned gate with one broadcast einsum over all symbols, then rotates the
tape register by scattering rows through an explicit index image. The
package writes the rotation as the output layout of one einsum per symbol
instead; both must produce the same bytes, signed zeros included.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qreplica.linalg import random_state, random_unitary
from qreplica.tape import Tape, joint_tape_evolution, tape_index, tape_to_state


def rotation_image(n, s):
    """Tape index after one rotation (cell 2 to cell 1) of each tape index."""
    idx = np.arange(n**s)
    image = np.zeros_like(idx)
    for j in range(s):
        image += ((idx // n ** ((j + 1) % s)) % n) * n**j
    return image


def scatter_joint_evolution(t, gates, payload):
    n, s, m = t.alphabet_size, t.length, payload.dim
    stack = np.stack([gate.entries for gate in gates])
    image = rotation_image(n, s)
    joint = np.kron(tape_to_state(t).amps, payload.amps)
    for _ in range(s):
        slices = np.einsum("lij,rlj->rli", stack, joint.reshape(n ** (s - 1), n, m))
        rows = slices.reshape(n**s, m)
        rotated = np.empty_like(rows)
        rotated[image] = rows
        joint = rotated.reshape(-1)
    return joint


@given(
    n=st.integers(2, 4),
    m=st.integers(1, 8),
    s=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_scatter_kernel_bytes(n, m, s, seed):
    rng = np.random.default_rng(seed)
    gates = tuple(random_unitary(m, rng) for _ in range(n))
    t = Tape(n, tuple(int(c) for c in rng.integers(0, n, s)))
    payload = random_state(m, rng)
    got = joint_tape_evolution(t, gates, payload).amps
    assert got.tobytes() == scatter_joint_evolution(t, gates, payload).tobytes()


def test_full_size_tape_row_and_leak_are_pinned():
    """4^9 tape cells x 4 payload amplitudes = 2^20; row recorded with the scatter kernel."""
    rng = np.random.default_rng(2026)
    n, s, m = 4, 9, 4
    gates = tuple(random_unitary(m, rng) for _ in range(n))
    t = Tape(n, tuple(int(c) for c in rng.integers(0, n, s)))
    payload = random_state(m, rng)
    assert t.cells == (1, 2, 2, 2, 3, 3, 3, 1, 2)
    rows = joint_tape_evolution(t, gates, payload).amps.reshape(n**s, m)
    row = rows[tape_index(t)]
    assert [(z.real.hex(), z.imag.hex()) for z in row] == [
        ("-0x1.fbc8e6d251866p-4", "-0x1.a091956bebf58p-3"),
        ("0x1.2ff944a1bbfb8p-3", "0x1.675402dd8f925p-1"),
        ("0x1.da99dfdef1b32p-5", "0x1.ae51c6de106a0p-6"),
        ("-0x1.4d2af50c84067p-1", "0x1.1c94d61f46aecp-5"),
    ]
    assert np.max(np.abs(np.delete(rows, tape_index(t), axis=0))) == 0.0
