"""Byte oracle for the shared sequence kernel ``linalg.apply_sequence``.

The reference functions below are test-only copies of the earlier per-step
forms: ``run_tape`` applied one ``linalg.apply`` per cell while shifting a
``Tape`` head, ``scattering_apply`` peeled program digits in a loop, and
``product_operator``, ``sequence_unitary`` and the exhaustive oracle of
criterion 6 each multiplied their own gate loop. Every kernel caller must
reproduce them byte for byte, except ``sequence_unitary``, whose fold moved
from the right to the left and so may differ by rounding.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import qreplica.tape as tape_module
from qreplica.approx import GateSet, product_operator, sequence_unitary
from qreplica.automaton import ProgramRegistry, scattering_apply, translate
from qreplica.basis_ops import apply_controlled
from qreplica.linalg import Operator, apply, apply_sequence, basis_state, random_state, random_unitary
from qreplica.tape import Tape, read_symbol, replicate_tape, run_tape, shift_tape, tape_to_state
from qreplica.verify import _exhaustive_best_distance


def reference_run_tape(t, gates, payload):
    cur = t
    out = payload
    for _ in range(t.length):
        out = apply(gates[read_symbol(cur)], out)
        cur = shift_tape(cur)
    return out


def reference_translate(t, registry):
    blank = basis_state(registry.gate_set.dim, 0)
    return reference_run_tape(Tape(t.alphabet_size, t.cells, 0), registry.gate_set.gates, blank)


def reference_scattering_apply(program, psi, registry):
    n = registry.gate_set.n
    length = 0
    probe = 1
    while probe < program.dim:
        probe *= n
        length += 1
    out = psi
    index = int(np.argmax(np.abs(program.amps)))
    for _ in range(length):
        out = apply(registry.gate_set.gates[index % n], out)
        index //= n
    return out


def reference_product_operator(symbols, g):
    matrix = np.eye(g.dim, dtype=complex)
    for c in symbols:
        matrix = g.gates[c].entries @ matrix
    return Operator(matrix)


def reference_sequence_unitary(t, g):
    matrix = np.eye(g.dim, dtype=complex)
    for c in t.cells:
        matrix = matrix @ g.gates[c].entries
    return matrix


def reference_exhaustive_best_distance(target, g, max_len):
    dim = g.dim
    tmat = target.entries
    best = float(np.sqrt(max(0.0, 1.0 - abs(np.trace(tmat)) / dim)))
    for length in range(1, max_len + 1):
        for symbols in itertools.product(range(g.n), repeat=length):
            matrix = np.eye(dim, dtype=complex)
            for c in symbols:
                matrix = g.gates[c].entries @ matrix
            overlap = abs(np.trace(matrix.conj().T @ tmat)) / dim
            best = min(best, float(np.sqrt(max(0.0, 1.0 - overlap))))
    return best


def reference_copy_order(t):
    """Cell positions in the order the shifting head read them."""
    cur = t
    order = []
    for _ in range(t.length):
        order.append(t.length - 1 - cur.head)
        cur = shift_tape(cur)
    return order


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    dim=st.integers(2, 4),
    # The program register is a dense state of n^length amplitudes; 4^8 keeps
    # it well inside the MAX_DIM budget.
    length=st.integers(0, 8),
    head=st.integers(0, 7),
)
def test_kernel_callers_match_the_step_by_step_forms(seed, n, dim, length, head):
    rng = np.random.default_rng(seed)
    g = GateSet(tuple(random_unitary(dim, rng) for _ in range(n)))
    registry = ProgramRegistry(g, {})
    symbols = tuple(int(c) for c in rng.integers(0, n, length))
    psi = random_state(dim, rng)

    assert (
        product_operator(symbols, g).entries.tobytes()
        == reference_product_operator(symbols, g).entries.tobytes()
    )
    # Program digits are applied least significant first, as tape cells are.
    cells = tuple(reversed(symbols))
    program = tape_to_state(Tape(n, cells)) if cells else basis_state(1, 0)
    assert (
        scattering_apply(program, psi, registry).amps.tobytes()
        == reference_scattering_apply(program, psi, registry).amps.tobytes()
    )
    if not cells:
        return

    t = Tape(n, cells)
    assert run_tape(t, g.gates, psi).amps.tobytes() == reference_run_tape(t, g.gates, psi).amps.tobytes()
    headed = Tape(n, cells, head % length)
    assert translate(headed, registry).amps.tobytes() == reference_translate(headed, registry).amps.tobytes()
    drift = np.abs(sequence_unitary(t, g).entries - reference_sequence_unitary(t, g))
    assert float(np.max(drift)) <= 1e-13

    with mock.patch.object(tape_module, "apply_controlled", wraps=apply_controlled) as spy:
        parent, child = replicate_tape(headed)
    certified = [int(np.argmax(np.abs(call.args[1].amps))) // n for call in spy.call_args_list]
    # Each distinct symbol is certified once, at its first cell in head-read order.
    assert certified == list(dict.fromkeys(cells[pos] for pos in reference_copy_order(headed)))
    assert parent is headed
    assert child == headed


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    dim=st.integers(2, 4),
    max_len=st.integers(0, 3),
)
def test_exhaustive_distance_matches_the_gate_loop(seed, n, dim, max_len):
    rng = np.random.default_rng(seed)
    g = GateSet(tuple(random_unitary(dim, rng) for _ in range(n)))
    target = random_unitary(dim, rng)
    # A target equal to one of the gates puts the minimum at an exact overlap.
    for candidate in (target, g.gates[int(rng.integers(0, n))]):
        got = _exhaustive_best_distance(candidate, g, max_len)
        assert got.hex() == reference_exhaustive_best_distance(candidate, g, max_len).hex()


def reference_apply_sequence(matrices, symbols, x):
    for c in symbols:
        x = matrices[c] @ x
    return x


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 16),
    n=st.integers(1, 4),
    start=st.sampled_from(["vector", "identity", "matrix"]),
    length=st.integers(0, 40),
)
def test_apply_sequence_matches_the_matmul_fold(seed, d, n, start, length):
    rng = np.random.default_rng(seed)

    def raw(shape):
        # Raw complex entries with signed zeros sprinkled in: the kernel takes
        # unchecked arrays, and zeros are where products can differ in sign.
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        zeros = np.array([complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
        return np.where(rng.random(shape) < 0.25, rng.choice(zeros, shape), z)

    matrices = [raw((d, d)) for _ in range(n)]
    x = np.eye(d, dtype=complex) if start == "identity" else raw(d if start == "vector" else (d, d))
    symbols = [int(c) for c in rng.integers(0, n, length)]
    got = apply_sequence(matrices, symbols, x)
    assert got.tobytes() == reference_apply_sequence(matrices, symbols, x).tobytes()
