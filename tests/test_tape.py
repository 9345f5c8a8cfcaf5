"""Tape encoding, sequential gate application, certified copying.

The joint-space oracle here is rebuilt from dense matrices inside the test
(a projector ⊗ block sum and an explicitly constructed rotation permutation),
so it shares no code with the package's own joint evolution.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qreplica.basis_ops
import qreplica.tape
from qreplica import config
from qreplica.basis_ops import _copy_rows, conditional_dynamics, shift_power
from qreplica.errors import CapacityError, ContractError, InputError, ReplicationIntegrityError
from qreplica.linalg import (
    Operator,
    basis_state,
    fidelity,
    identity,
    random_state,
    random_unitary,
)
from qreplica.tape import (
    Tape,
    format_tape,
    joint_tape_evolution,
    parse_tape,
    replicate_tape,
    run_tape,
    tape_from_json,
    tape_index,
    tape_to_json,
    tape_to_state,
)

X = Operator(np.array([[0, 1], [1, 0]], dtype=complex))


def joint_oracle(t, gates, payload):
    """Dense-matrix re-derivation of the s-step joint evolution."""
    n, s, m = t.alphabet_size, t.length, payload.dim
    cond = np.zeros((n * m, n * m), dtype=complex)
    for l, gate in enumerate(gates):
        projector = np.zeros((n, n), dtype=complex)
        projector[l, l] = 1.0
        cond += np.kron(projector, gate.entries)
    step = np.kron(np.eye(n ** (s - 1), dtype=complex), cond)
    perm = np.zeros((n**s, n**s), dtype=complex)
    for x in range(n**s):
        digits = [(x // n**i) % n for i in range(s)]
        y = sum(digits[(j + 1) % s] * n**j for j in range(s))
        perm[y, x] = 1.0
    rot = np.kron(perm, np.eye(m, dtype=complex))
    vec = np.kron(tape_to_state(t).amps, payload.amps)
    for _ in range(s):
        vec = rot @ (step @ vec)
    return vec


class TestTapeType:
    def test_symbol_out_of_alphabet(self):
        with pytest.raises(ContractError, match="alphabet"):
            Tape(2, (0, 2))

    def test_head_out_of_range(self):
        with pytest.raises(ContractError, match="head"):
            Tape(2, (0, 1), head=2)
        with pytest.raises(ContractError, match="^head -1 out of range for 2 cells$"):
            Tape(2, (0, 1), head=-1)

    def test_alphabet_size_must_be_positive(self):
        with pytest.raises(ContractError, match="^alphabet size must be positive, got 0$"):
            Tape(0, (0,))

    def test_needs_a_cell(self):
        with pytest.raises(ContractError):
            Tape(2, ())

    def test_value_equality(self):
        assert Tape(2, (1, 0)) == Tape(2, (1, 0))
        assert Tape(2, (1, 0)) != Tape(2, (0, 1))

    def test_numpy_integers_become_plain_ints(self):
        t = Tape(np.int64(3), (np.int32(2), np.uint8(0)), np.int64(1))
        assert t == Tape(3, (2, 0), 1)
        assert all(type(v) is int for v in (t.alphabet_size, t.head, *t.cells))

    @pytest.mark.parametrize(
        "args, what",
        [
            ((2, (1.9, 1)), "cell 0"),
            ((2, (1, True)), "cell 1"),
            ((2, (np.float64(1.0),)), "cell 0"),
            ((2, ("1",)), "cell 0"),
            ((2.0, (1,)), "alphabet size"),
            ((True, (0,)), "alphabet size"),
            ((2, (1, 0), 1.0), "head"),
            ((2, (1, 0), False), "head"),
        ],
    )
    def test_non_integers_are_refused(self, args, what):
        with pytest.raises(ContractError, match=what):
            Tape(*args)


# Symbols a caller may hand over: plain ints in and out of range, bools, numpy
# integers and floats, so the fast path and the per-cell check both run.
SYMBOLS = st.one_of(
    st.integers(-2, 5),
    st.booleans(),
    st.integers(-2, 5).map(np.int64),
    st.sampled_from([1.0, 2.5, np.float64(0.0)]),
)


def reference_cells(n, cells):
    """Cell validation one cell at a time: the checked cells, or the error message."""
    checked = []
    for i, c in enumerate(cells):
        if type(c) is not int:
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                return f"cell {i} must be an integer, got {c!r}"
            c = int(c)
        if not 0 <= c < n:
            return f"cell {i} holds symbol {c}, outside alphabet of size {n}"
        checked.append(c)
    return tuple(checked) if checked else "a tape needs at least one cell"


@given(n=st.integers(1, 4), cells=st.lists(SYMBOLS, max_size=12))
def test_cell_validation_matches_the_per_cell_check(n, cells):
    try:
        outcome = Tape(n, tuple(cells)).cells
    except ContractError as exc:
        outcome = str(exc)
    expected = reference_cells(n, cells)
    assert outcome == expected
    if isinstance(outcome, tuple):
        assert all(type(c) is int for c in outcome)


class TestTapeState:
    def test_single_cell(self):
        out = tape_to_state(Tape(2, (0,)))
        np.testing.assert_array_equal(out.amps, [1, 0])

    def test_positional_encoding(self):
        """Cells read as a numeral: (1,0) over a binary alphabet is index 2."""
        out = tape_to_state(Tape(2, (1, 0)))
        assert out.dim == 4
        assert np.argmax(np.abs(out.amps)) == 2

    def test_head_does_not_enter_the_state(self):
        a = tape_to_state(Tape(3, (2, 1), head=0))
        b = tape_to_state(Tape(3, (2, 1), head=1))
        np.testing.assert_array_equal(a.amps, b.amps)

    def test_exhaustive_orthogonality(self):
        """All 64 pairs of distinct 3-cell binary tapes are orthogonal."""
        tapes = [Tape(2, cells) for cells in itertools.product(range(2), repeat=3)]
        states = [tape_to_state(t) for t in tapes]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                expected = 1.0 if i == j else 0.0
                assert fidelity(a, b) == pytest.approx(expected, abs=1e-15)

    def test_injective(self):
        seen = set()
        for cells in itertools.product(range(3), repeat=3):
            seen.add(tape_index(Tape(3, cells)))
        assert len(seen) == 27

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
        )
    )
    def test_index_and_cells_are_a_bijection(self, n_and_cells):
        """Decoding the index in base n gives back the cells, so the n^L tapes
        of length L map one-to-one onto the basis indices [0, n^L)."""
        n, cells = n_and_cells
        t = Tape(n, tuple(cells))
        index = tape_index(t)
        assert 0 <= index < n ** len(cells)
        assert tuple(index // n**k % n for k in reversed(range(len(cells)))) == t.cells
        state = tape_to_state(t)
        assert np.flatnonzero(state.amps).tolist() == [index]
        assert state.amps[index] == 1.0

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setenv(config.ENV_MAX_DIM, "8")
        tape_to_state(Tape(2, (1, 0, 1)))
        with pytest.raises(CapacityError, match="tape state needs 16 amplitudes"):
            tape_to_state(Tape(2, (1, 0, 1, 1)))


class TestRunTape:
    def test_identity_cells(self, rng):
        payload = random_state(3, rng)
        gates = (identity(3), random_unitary(3, rng))
        out = run_tape(Tape(2, (0, 0, 0)), gates, payload)
        np.testing.assert_allclose(out.amps, payload.amps, atol=1e-15)

    def test_involution_squared(self):
        out = run_tape(Tape(2, (1, 1)), (identity(2), X), basis_state(2, 0))
        np.testing.assert_allclose(out.amps, basis_state(2, 0).amps, atol=1e-15)

    def test_dual_oracle_agreement(self, rng):
        """Product form must match both the dense product and the joint oracle."""
        gates = (random_unitary(2, rng), random_unitary(2, rng))
        cells = tuple(int(rng.integers(0, 2)) for _ in range(5))
        t = Tape(2, cells)
        payload = basis_state(2, 0)
        out = run_tape(t, gates, payload)

        product = np.eye(2, dtype=complex)
        for c in cells:
            product = product @ gates[c].entries  # cells listed most-significant-first
        np.testing.assert_allclose(out.amps, product @ payload.amps, atol=1e-12)

        joint = joint_oracle(t, gates, payload)
        expected_joint = np.kron(tape_to_state(t).amps, out.amps)
        np.testing.assert_allclose(joint, expected_joint, atol=1e-12)

    def test_composition_law(self, rng):
        """Running a concatenation equals running the parts in time order."""
        gates = tuple(random_unitary(3, rng) for _ in range(3))
        for _ in range(10):
            first = tuple(int(rng.integers(0, 3)) for _ in range(int(rng.integers(1, 4))))
            second = tuple(int(rng.integers(0, 3)) for _ in range(int(rng.integers(1, 4))))
            payload = random_state(3, rng)
            # earlier cells sit at the least significant end, so the tape that
            # runs `first` before `second` lists second's cells first
            combined = Tape(3, second + first)
            step_by_step = run_tape(Tape(3, second), gates, run_tape(Tape(3, first), gates, payload))
            np.testing.assert_allclose(
                run_tape(combined, gates, payload).amps, step_by_step.amps, atol=1e-12
            )

    def test_requires_head_at_first_cell(self):
        with pytest.raises(ContractError, match="head"):
            run_tape(Tape(2, (0, 1), head=1), (identity(2), X), basis_state(2, 0))

    def test_gate_count_must_match_alphabet(self):
        with pytest.raises(ContractError, match="one gate per symbol"):
            run_tape(Tape(3, (0,)), (identity(2), X), basis_state(2, 0))

    def test_gate_payload_dim_mismatch(self):
        with pytest.raises(ContractError, match="dim"):
            run_tape(Tape(2, (0,)), (identity(3), identity(3)), basis_state(2, 0))


class TestJointEvolution:
    def test_tape_restored_and_payload_correct(self, rng):
        """Small random instances: exact tape restoration, payload = product."""
        for _ in range(15):
            n = int(rng.integers(2, 4))
            s = int(rng.integers(1, 5))
            m = int(rng.integers(2, 4))
            if n**s * m > 2**10:
                continue
            gates = tuple(random_unitary(m, rng) for _ in range(n))
            t = Tape(n, tuple(int(rng.integers(0, n)) for _ in range(s)))
            payload = basis_state(m, 0)
            final = joint_tape_evolution(t, gates, payload)
            rows = final.amps.reshape(n**s, m)
            others = np.delete(rows, tape_index(t), axis=0)
            if others.size:
                assert np.max(np.abs(others)) == 0.0
            expected = run_tape(t, gates, payload)
            np.testing.assert_allclose(rows[tape_index(t)], expected.amps, atol=1e-10)

    def test_matches_dense_oracle(self, rng):
        gates = tuple(random_unitary(3, rng) for _ in range(2))
        t = Tape(2, (1, 0, 1))
        payload = random_state(3, rng)
        final = joint_tape_evolution(t, gates, payload)
        np.testing.assert_allclose(final.amps, joint_oracle(t, gates, payload), atol=1e-12)

    def test_capacity_error(self, monkeypatch, rng):
        """The tape state alone fits; the joint space is 4 times larger."""
        monkeypatch.setenv(config.ENV_MAX_DIM, "16")
        gates = tuple(random_unitary(4, rng) for _ in range(2))
        with pytest.raises(CapacityError, match="joint space needs 32 amplitudes"):
            joint_tape_evolution(Tape(2, (1, 0, 1)), gates, basis_state(4, 0))


class TestReplicateTape:
    def test_child_matches_parent(self):
        parent = Tape(4, (3, 0, 1, 2), head=1)
        child = replicate_tape(parent)
        assert child.cells == parent.cells == (3, 0, 1, 2)
        assert child.head == parent.head

    def test_blank_tape(self):
        child = replicate_tape(Tape(3, (0, 0, 0)))
        assert child.cells == (0, 0, 0)

    def test_exhaustive_small_alphabet(self):
        """All 81 four-cell ternary tapes copy exactly."""
        for cells in itertools.product(range(3), repeat=4):
            child = replicate_tape(Tape(3, cells))
            assert child.cells == cells

    def test_idempotent_in_content(self):
        child = replicate_tape(Tape(5, (4, 1, 0, 3)))
        grandchild = replicate_tape(child)
        assert grandchild.cells == child.cells

    def test_broken_copier_raises(self, monkeypatch):
        """If the wiring stops copying, the per-cell certificate must fail."""
        monkeypatch.setattr(
            qreplica.basis_ops, "cloner", lambda n: conditional_dynamics([identity(n)] * n)
        )
        with pytest.raises(ReplicationIntegrityError, match="fidelity"):
            replicate_tape(Tape(3, (1, 2)))

    @staticmethod
    def _broken_on(symbol):
        """A cloner whose block for one symbol does nothing: only that symbol fails to copy."""
        return lambda n: conditional_dynamics(
            [identity(n) if l == symbol else shift_power(n, l) for l in range(n)]
        )

    def test_broken_symbol_names_its_first_cell_in_head_order(self, monkeypatch):
        """Symbol 2 sits at cells 0, 2 and 5; with head 2 the head reads cell 2 first."""
        monkeypatch.setattr(qreplica.basis_ops, "cloner", self._broken_on(2))
        message = "cell 2 copy fidelity 0.0 below 1 - REPLICATION_TOL; cloner wiring is broken"
        with pytest.raises(ReplicationIntegrityError) as excinfo:
            replicate_tape(Tape(3, (2, 1, 2, 0, 1, 2), head=2))
        assert str(excinfo.value) == message

    def test_tape_without_the_broken_symbol_still_copies(self, monkeypatch):
        monkeypatch.setattr(qreplica.basis_ops, "cloner", self._broken_on(2))
        parent = Tape(3, (1, 0, 1, 1), head=1)
        assert replicate_tape(parent) == parent

    def test_child_is_read_from_the_copy_register(self, monkeypatch):
        """A cloner wired one symbol off, certified against a floor of 0: each child
        cell holds what the output's copy register holds, not the parent's symbol."""
        monkeypatch.setattr(
            qreplica.basis_ops, "cloner", lambda n: conditional_dynamics([shift_power(n, l + 1) for l in range(n)])
        )
        with config.overridden([("REPLICATION_TOL", 1.0)]):
            child = replicate_tape(Tape(3, (2, 1, 0, 1), head=1))
        assert child == Tape(3, (0, 2, 1, 2), head=1)

    @pytest.mark.parametrize("i, j", list(itertools.combinations(range(4), 2)))
    def test_swapped_readback_is_remapped(self, monkeypatch, i, j):
        """The output rows of the i-th and j-th certified symbols trade places, with
        their true fidelities: the child holds that readback, the two symbols swapped."""
        swapped = []

        def swapping(batch, limit):
            rows, fidelities = _copy_rows(batch, limit)
            rows = rows.copy()
            rows[[i, j]] = rows[[j, i]]
            swapped.extend(int(np.argmax(np.abs(batch[k]))) for k in (i, j))
            return rows, fidelities

        monkeypatch.setattr(qreplica.tape, "_copy_rows", swapping)
        parent = Tape(4, (3, 0, 1, 2, 1, 3), head=2)
        child = replicate_tape(parent)
        a, b = swapped
        swap = {a: b, b: a}
        assert child == Tape(4, tuple(swap.get(c, c) for c in parent.cells), head=2)

    @pytest.mark.parametrize("i", range(4))
    def test_one_wrong_readback_is_remapped(self, monkeypatch, i):
        """The i-th certified symbol's output row is replaced by the next symbol's: the
        child holds that next symbol wherever the parent holds the i-th."""
        read = []

        def misreading(batch, limit):
            rows, fidelities = _copy_rows(batch, limit)
            rows = rows.copy()
            rows[i] = rows[(i + 1) % len(rows)]
            read.extend(int(np.argmax(np.abs(batch[k]))) for k in (i, (i + 1) % len(rows)))
            return rows, fidelities

        monkeypatch.setattr(qreplica.tape, "_copy_rows", misreading)
        parent = Tape(4, (3, 0, 1, 2, 1, 3), head=2)
        child = replicate_tape(parent)
        wrong, shown = read
        assert child == Tape(4, tuple(shown if c == wrong else c for c in parent.cells), head=2)

    @pytest.mark.parametrize(
        "limit, n, message",
        [
            ("2", 3, "basis state needs 3 amplitudes, exceeding MAX_DIM=2"),
            ("8", 3, "tensor product state needs 9 amplitudes, exceeding MAX_DIM=8"),
            ("53", 3, "basis cloner needs 54 amplitudes, exceeding MAX_DIM=53"),
            (None, 2**62, "basis state needs 4611686018427387904 amplitudes, exceeding MAX_DIM=1048576"),
        ],
    )
    def test_budget_refuses_the_first_oversized_construction(self, monkeypatch, limit, n, message):
        """In the order the copy check builds them; an alphabet far over budget is
        refused before any input batch is allocated."""
        if limit is None:
            monkeypatch.delenv(config.ENV_MAX_DIM, raising=False)
        else:
            monkeypatch.setenv(config.ENV_MAX_DIM, limit)
        with pytest.raises(CapacityError) as excinfo:
            replicate_tape(Tape(n, (2, 1, 0), head=1))
        assert str(excinfo.value) == message

    def test_each_distinct_symbol_is_certified_once(self):
        """One copy check, whose batch rows are the basis states of the distinct symbols."""
        cells = tuple(int(c) for c in np.random.default_rng(5).integers(0, 4, 240))
        parent = Tape(4, cells, head=17)
        with mock.patch.object(qreplica.tape, "_copy_rows", wraps=_copy_rows) as spy:
            child = replicate_tape(parent)
        assert child == parent
        assert spy.call_count == 1
        (batch,) = spy.call_args.args
        symbols = np.abs(batch).argmax(axis=1)
        assert sorted(symbols.tolist()) == sorted(set(cells))
        assert batch.tobytes() == np.eye(4, dtype=complex)[symbols].tobytes()


class TestTextAndJson:
    def test_round_trip_text(self):
        t = Tape(4, (3, 0, 1), head=2)
        assert parse_tape(format_tape(t)) == t

    def test_parse_example(self):
        t = parse_tape("n=2;cells=1,0;head=0")
        assert t == Tape(2, (1, 0), 0)

    def test_bad_text(self):
        for text in (
            "cells=1,0",
            "n=2;cells=;head=0",
            "n=2;cells=1,0;head=x",
            "n=two;cells=1;head=0",
            # Arabic-Indic digits: int() reads them, the format does not.
            "n=٣;cells=1,0;head=٠",
            "n=٣;cells=1,0;head=0",
            "n=3;cells=1,0;head=٠",
            "n=3;cells=١,0;head=0",
        ):
            with pytest.raises(InputError):
                parse_tape(text)

    @pytest.mark.parametrize(
        "text",
        [
            "n=" + "7" * 5000 + ";cells=1;head=0",
            "n=8;cells=" + "7" * 4000 + ";head=0",
            "n=8;cells=7;head=" + "7" * 4000,
        ],
    )
    def test_error_line_cuts_long_text_short(self, text):
        with pytest.raises(InputError) as info:
            parse_tape(text)
        message = str(info.value)
        assert message.startswith(f"tape text {text[:160] + '...'!r}: ") and len(message) < 400

    def test_out_of_range_symbol_in_text(self):
        with pytest.raises(InputError, match="alphabet"):
            parse_tape("n=2;cells=2;head=0")

    def test_round_trip_json(self):
        t = Tape(3, (2, 0, 1), head=1)
        assert tape_from_json(tape_to_json(t)) == t

    def test_json_missing_keys(self):
        with pytest.raises(InputError):
            tape_from_json({"cells": [0, 1]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 2, "cells": [1.9, True]},
            {"n": 2.0, "cells": [1, 0]},
            {"n": 2, "cells": [1, 0], "head": 0.0},
            {"n": "2", "cells": [1]},
        ],
    )
    def test_json_non_integers_are_input_errors(self, obj):
        with pytest.raises(InputError, match="integer"):
            tape_from_json(obj)
