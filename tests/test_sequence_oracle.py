"""Byte oracle for the shared sequence kernel ``linalg.apply_sequence``.

The reference functions below are test-only copies of the earlier per-step
forms: ``run_tape`` applied one ``linalg.apply`` per cell while stepping a
tape head (``reference_head_order``), ``scattering_apply`` peeled program
digits in a loop, and the exhaustive oracle of criterion 6 multiplied its own
gate loop. Every kernel caller must reproduce them byte for byte.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import qreplica.tape as tape_module
from qreplica.approx import GateSet
from qreplica.automaton import ProgramRegistry, scattering_apply, translate
from qreplica.basis_ops import _copy_rows
from qreplica.linalg import apply, apply_sequence, basis_state, random_state, random_unitary
from qreplica.tape import Tape, replicate_tape, run_tape, tape_to_state
from qreplica.verify import _exhaustive_best_distances


def reference_head_order(t):
    """Cell positions in the order a head stepping from t.head reads them.

    Head h reads cell h+1, which sits at position length-1-h of ``cells``;
    each step advances the head one cell cyclically.
    """
    head = t.head
    for _ in range(t.length):
        yield t.length - 1 - head
        head = (head + 1) % t.length


def reference_run_tape(t, gates, payload):
    out = payload
    for pos in reference_head_order(t):
        out = apply(gates[t.cells[pos]], out)
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

    with mock.patch.object(tape_module, "_copy_rows", wraps=_copy_rows) as spy:
        child = replicate_tape(headed)
    certified = [int(np.argmax(np.abs(row))) for call in spy.call_args_list for row in call.args[0]]
    # Each distinct symbol is certified once, at its first cell in head-read order.
    assert certified == list(dict.fromkeys(cells[pos] for pos in reference_head_order(headed)))
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
    candidates = (target, g.gates[int(rng.integers(0, n))])
    for candidate, got in zip(candidates, _exhaustive_best_distances(candidates, g, max_len), strict=True):
        want = [reference_exhaustive_best_distance(candidate, g, length) for length in range(max_len + 1)]
        assert [d.hex() for d in got] == [d.hex() for d in want]


def reference_apply_sequence(matrices, symbols, x):
    for c in symbols:
        x = matrices[c] @ x
    return x


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 16),
    n=st.integers(1, 4),
    start=st.sampled_from(["vector", "identity", "matrix"]),
    # Lengths 0-2 end on each side of the buffer swap, and on no step at all.
    length=st.integers(0, 2) | st.integers(0, 40),
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
    given_bytes = x.tobytes()
    got = apply_sequence(matrices, symbols, x)
    got_bytes = got.tobytes()
    assert x.tobytes() == given_bytes
    assert got_bytes == reference_apply_sequence(matrices, symbols, x).tobytes()
    if length:
        # The result is the kernel's own buffer: the caller may freeze it in place.
        assert not np.shares_memory(got, x)
        again = apply_sequence(matrices, symbols, x)
        assert got.tobytes() == got_bytes and again.tobytes() == got_bytes
        assert not np.shares_memory(got, again)
