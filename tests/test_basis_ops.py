"""Shift operators, the basis cloner, and controlled-block application.

Dense oracles here are built from raw numpy (projector ⊗ block sums), never
from the package's own densify path, so the two routes stay independent.
"""

import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qreplica.basis_ops
from qreplica import config
from qreplica.basis_ops import (
    ControlledOperator,
    apply_controlled,
    cloner,
    conditional_dynamics,
    controlled_from_json,
    controlled_to_json,
    copy_onto_blank,
    cyclic_shift,
    densify,
    shift_power,
)
from qreplica.basis_ops import _check_joint_dim, _copy_rows
from qreplica.errors import CapacityError, ContractError, InputError
from qreplica.linalg import _check_capacity, _state_with_amps
from qreplica.linalg import (
    Operator,
    StateVector,
    apply,
    basis_state,
    fidelity,
    identity,
    random_state,
    random_unitary,
    tensor_state,
)


def dense_controlled(blocks):
    """Independent dense form: sum of |l><l| ⊗ U_l built entrywise."""
    n = len(blocks)
    m = blocks[0].dim
    out = np.zeros((n * m, n * m), dtype=complex)
    for l, block in enumerate(blocks):
        projector = np.zeros((n, n), dtype=complex)
        projector[l, l] = 1.0
        out += np.kron(projector, block.entries)
    return out


class TestCyclicShift:
    def test_two_is_bit_flip(self):
        np.testing.assert_array_equal(cyclic_shift(2).entries, [[0, 1], [1, 0]])

    def test_wraps_around(self):
        out = apply(cyclic_shift(3), basis_state(3, 2))
        np.testing.assert_allclose(out.amps, basis_state(3, 0).amps)

    def test_nth_power_is_identity(self):
        """n successive shifts must return every basis vector to itself."""
        for n in range(2, 9):
            power = np.eye(n, dtype=complex)
            for _ in range(n):
                power = cyclic_shift(n).entries @ power
            np.testing.assert_allclose(power, np.eye(n), atol=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(ContractError):
            cyclic_shift(0)


class TestShiftPower:
    def test_zero_power_is_identity(self):
        np.testing.assert_array_equal(shift_power(4, 0).entries, np.eye(4))

    def test_modular_action(self):
        out = apply(shift_power(5, 3), basis_state(5, 4))
        np.testing.assert_allclose(out.amps, basis_state(5, 2).amps)

    def test_negative_power_reduced(self):
        np.testing.assert_array_equal(shift_power(5, -2).entries, shift_power(5, 3).entries)

    def test_composition_table(self):
        """shift(a)·shift(b) = shift(a+b mod n), all pairs, by dense multiply."""
        for n in range(2, 7):
            for a in range(n):
                for b in range(n):
                    composed = shift_power(n, a).entries @ shift_power(n, b).entries
                    np.testing.assert_allclose(
                        composed, shift_power(n, (a + b) % n).entries, atol=1e-15
                    )


class TestCloner:
    def test_copies_every_basis_state(self):
        for n in range(2, 9):
            copier = cloner(n)
            for k in range(n):
                out = apply_controlled(copier, tensor_state(basis_state(n, k), basis_state(n, 0)))
                ideal = tensor_state(basis_state(n, k), basis_state(n, k))
                assert fidelity(out, ideal) >= 1.0 - 1e-12

    def test_superposition_entangles(self):
        """A balanced input yields the maximally entangled pair, not a product."""
        plus = StateVector.normalized([1, 1])
        out = apply_controlled(cloner(2), tensor_state(plus, basis_state(2, 0)))
        bell = StateVector.normalized([1, 0, 0, 1])
        assert fidelity(out, bell) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(out, tensor_state(plus, plus)) == pytest.approx(0.5, abs=1e-12)

    def test_nonblank_environment(self):
        """|k>|j> goes to |k>|k+j mod n>: each block shifts whatever it finds."""
        for n in (3, 5):
            copier = cloner(n)
            for k in range(n):
                for j in range(n):
                    out = apply_controlled(copier, tensor_state(basis_state(n, k), basis_state(n, j)))
                    expect = tensor_state(basis_state(n, k), basis_state(n, (k + j) % n))
                    assert fidelity(out, expect) == pytest.approx(1.0, abs=1e-12)

    def test_outputs_orthogonal_family(self):
        """The copier produces exactly n pairwise-orthogonal outputs."""
        n = 5
        copier = cloner(n)
        outputs = [
            apply_controlled(copier, tensor_state(basis_state(n, l), basis_state(n, 0)))
            for l in range(n)
        ]
        for i in range(n):
            for j in range(i + 1, n):
                assert fidelity(outputs[i], outputs[j]) <= 1e-12

    def test_one_frozen_cloner_per_alphabet(self):
        # The cloner is cached, so nothing it holds may be writable.
        for n in range(1, 6):
            copier = cloner(n)
            assert cloner(n) is copier
            assert not copier._stack.flags.writeable
            assert all(not block.entries.flags.writeable for block in copier.blocks)

    def test_superposed_inputs_miss_perfect_copy(self, rng):
        """Sampled Haar states never reach the perfect-copy target."""
        # States this concentrated on one basis index are skipped as near-basis.
        basis_cutoff = 1e-6
        for n in range(2, 6):
            copier = cloner(n)
            checked = 0
            while checked < 50:
                psi = random_state(n, rng)
                if float(np.max(np.abs(psi.amps) ** 2)) >= 1.0 - basis_cutoff:
                    continue
                checked += 1
                out = apply_controlled(copier, tensor_state(psi, basis_state(n, 0)))
                assert fidelity(out, tensor_state(psi, psi)) < 1.0 - 1e-6
                analytic = np.zeros(n * n, dtype=complex)
                analytic[np.arange(n) * n + np.arange(n)] = psi.amps
                np.testing.assert_allclose(out.amps, analytic, atol=1e-10)


def reference_copy(psi):
    """The one-state copy check, step by step: psi ⊗ |0⟩ through the block form."""
    n = psi.dim
    out = apply_controlled(cloner(n), tensor_state(psi, basis_state(n, 0)))
    return out, fidelity(out, tensor_state(psi, psi))


@st.composite
def copy_batches(draw):
    """n, then 1 to 2n states drawn from a pool of basis and Haar states, in
    any order and with repeats."""
    n = draw(st.integers(1, 8))
    kinds = st.one_of(
        st.builds(lambda k: basis_state(n, k), st.integers(0, n - 1)),
        st.builds(lambda seed: random_state(n, np.random.default_rng(seed)), st.integers(0, 2**32 - 1)),
    )
    pool = draw(st.lists(kinds, min_size=1, max_size=n + 1))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=2 * n))
    return [pool[i] for i in picks]


def reference_copy_onto_blank(states):
    """The copy check written as one function over a list of states: the oracle
    of copy_onto_blank and the batch core under it."""
    states = tuple(states)
    if not states:
        raise ContractError("copy_onto_blank needs at least one state")
    n = states[0].dim
    for psi in states:
        if psi.dim != n:
            raise ContractError(f"state dims differ: {n} vs {psi.dim}")
    blank = basis_state(n, 0).amps
    _check_capacity(n * n, "tensor product state")
    _check_capacity(2 * n**3, "basis cloner")
    c = cloner(n)
    _check_joint_dim(c, n * n)
    amps = np.stack([psi.amps for psi in states])
    joint = np.multiply(amps[:, :, None], blank[None, None, :])
    rows = np.einsum("lij,klj->kli", c._stack, joint).reshape(len(states), n * n)
    perfect = np.multiply(amps[:, :, None], amps[:, None, :]).reshape(len(states), n * n)
    outs = tuple(_state_with_amps(row) for row in rows)
    return outs, tuple(float(abs(np.vdot(row, want)) ** 2) for row, want in zip(rows, perfect))


@st.composite
def budgeted_copy_batches(draw):
    """n in 1..6, then 1 to n basis or Haar states, and an amplitude budget:
    the default, or one on either side of each of the n, n² and 2·n³ checks."""
    n = draw(st.integers(1, 6))
    kinds = st.one_of(
        st.builds(lambda k: basis_state(n, k), st.integers(0, n - 1)),
        st.builds(lambda seed: random_state(n, np.random.default_rng(seed)), st.integers(0, 2**32 - 1)),
    )
    states = draw(st.lists(kinds, min_size=1, max_size=n))
    edges = [size + step for size in (n, n * n, 2 * n**3) for step in (-1, 0) if size + step >= 1]
    return states, draw(st.none() | st.sampled_from(edges))


def _copy_outcome(copy, states):
    """The outputs' bytes and flags and the fidelities' bits, or the error raised."""
    try:
        outs, fidelities = copy(states)
    except ContractError as exc:
        return type(exc), str(exc)
    return (
        [(out.amps.tobytes(), out.amps.flags.writeable) for out in outs],
        [(type(f), np.float64(f).tobytes()) for f in fidelities],
    )


class TestCopyOntoBlank:
    @given(states=copy_batches())
    def test_batch_matches_the_one_state_path_byte_for_byte(self, states):
        outs, fidelities = copy_onto_blank(states)
        assert len(outs) == len(fidelities) == len(states)
        for psi, out, achieved in zip(states, outs, fidelities):
            ref_out, ref_fidelity = reference_copy(psi)
            assert out.amps.tobytes() == ref_out.amps.tobytes()
            assert np.float64(achieved).tobytes() == np.float64(ref_fidelity).tobytes()
            assert type(achieved) is float
            assert not out.amps.flags.writeable

    @given(budgeted_copy_batches())
    def test_matches_the_one_function_oracle_under_any_budget(self, case):
        """The same output bytes and fidelities, or the same first CapacityError."""
        states, limit = case
        env = {} if limit is None else {config.ENV_MAX_DIM: str(limit)}
        with mock.patch.dict(os.environ, env):
            got = _copy_outcome(copy_onto_blank, states)
            assert got == _copy_outcome(reference_copy_onto_blank, states)
        if limit is not None and limit < 2 * states[0].dim ** 3:
            assert got[0] is CapacityError

    @pytest.mark.parametrize("bad, message", [(2.0, "state norm 2.0 deviates"), (np.nan, "must be finite")])
    def test_core_checks_every_output_row(self, bad, message):
        """A batch row that is no state gives an output row that is none either."""
        batch = np.eye(3, dtype=complex)
        batch[2, 2] = bad
        with pytest.raises(ContractError, match=message):
            _copy_rows(batch)

    def test_each_output_row_is_checked_once(self, monkeypatch):
        """``_copy_rows`` checks every output row, and making the rows states
        checks none of them again: one check per output, and none for the
        constant blank."""
        states = [basis_state(3, 0), random_state(3, np.random.default_rng(1))]
        checked = []
        check = qreplica.linalg._check_amplitudes

        def spy(amps):
            checked.append(len(amps))
            return check(amps)

        monkeypatch.setattr(qreplica.linalg, "_check_amplitudes", spy)
        monkeypatch.setattr(qreplica.basis_ops, "_check_amplitudes", spy)
        outs, _ = copy_onto_blank(states)
        assert checked == [9, 9]
        assert all(not out.amps.flags.writeable for out in outs)

    def test_refuses_an_empty_or_mixed_batch(self):
        with pytest.raises(ContractError, match="at least one state"):
            copy_onto_blank([])
        with pytest.raises(ContractError, match="state dims differ: 2 vs 3"):
            copy_onto_blank([basis_state(2, 0), basis_state(3, 0)])

    @pytest.mark.parametrize(
        "limit, message",
        [("8", "tensor product state needs 9 amplitudes"), ("20", "basis cloner needs 54 amplitudes")],
    )
    def test_joint_then_cloner_budget_is_checked_before_any_cloner_is_built(self, monkeypatch, limit, message):
        def unbuilt(n):
            raise AssertionError(f"cloner({n}) was built")

        monkeypatch.setattr(qreplica.basis_ops, "cloner", unbuilt)
        monkeypatch.setenv(config.ENV_MAX_DIM, limit)
        with pytest.raises(CapacityError, match=message):
            copy_onto_blank([basis_state(3, 1), basis_state(3, 2)])

    def test_a_register_over_budget_is_refused_before_its_joint_space(self, monkeypatch):
        """A state built without a budget check, such as a random one, is
        refused for its own n amplitudes before its n² joint space."""
        psi = random_state(5, np.random.default_rng(2))
        monkeypatch.setenv(config.ENV_MAX_DIM, "4")
        with pytest.raises(CapacityError, match="^basis state needs 5 amplitudes, exceeding MAX_DIM=4$"):
            copy_onto_blank([psi])


class TestConditionalDynamics:
    def test_identity_blocks_do_nothing(self, rng):
        cd = conditional_dynamics([identity(3)] * 4)
        joint = random_state(12, rng)
        np.testing.assert_allclose(apply_controlled(cd, joint).amps, joint.amps, atol=1e-15)

    def test_cloner_is_the_shift_power_special_case(self):
        for n in range(2, 6):
            general = conditional_dynamics([shift_power(n, l) for l in range(n)])
            special = cloner(n)
            for a, b in zip(general.blocks, special.blocks):
                np.testing.assert_array_equal(a.entries, b.entries)

    def test_selects_block_by_control(self, rng):
        """|1>|0> picks up block 1; checked against a dense matrix product."""
        blocks = (random_unitary(3, rng), random_unitary(3, rng))
        cd = conditional_dynamics(blocks)
        out = apply_controlled(cd, tensor_state(basis_state(2, 1), basis_state(3, 0)))
        expect = tensor_state(basis_state(2, 1), apply(blocks[1], basis_state(3, 0)))
        np.testing.assert_allclose(out.amps, expect.amps, atol=1e-12)
        dense = dense_controlled(blocks) @ tensor_state(basis_state(2, 1), basis_state(3, 0)).amps
        np.testing.assert_allclose(out.amps, dense, atol=1e-12)

    def test_rejects_non_unitary_block(self):
        bad = Operator(np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(ContractError, match="unitary"):
            conditional_dynamics([identity(2), bad])

    def test_rejects_mismatched_block_dims(self):
        with pytest.raises(ContractError, match="dim"):
            conditional_dynamics([identity(2), identity(3)])

    def test_rejects_no_blocks(self):
        with pytest.raises(ContractError, match="^a controlled operator needs at least one block$"):
            ControlledOperator(())

    def test_block_count_is_control_dim(self, rng):
        """The program count cannot disagree with the control dimension."""
        blocks = tuple(random_unitary(2, rng) for _ in range(5))
        cd = ControlledOperator(blocks)
        assert cd.control_dim == len(cd.blocks) == 5


class TestApplyControlled:
    def test_cloner_four(self):
        out = apply_controlled(cloner(4), tensor_state(basis_state(4, 3), basis_state(4, 0)))
        expect = tensor_state(basis_state(4, 3), basis_state(4, 3))
        assert fidelity(out, expect) == pytest.approx(1.0, abs=1e-14)

    def test_control_factor_untouched(self, rng):
        cd = conditional_dynamics([random_unitary(4, rng) for _ in range(3)])
        for l in range(3):
            target = random_state(4, rng)
            out = apply_controlled(cd, tensor_state(basis_state(3, l), target))
            marginal = out.amps.reshape(3, 4)
            for other in range(3):
                if other != l:
                    assert np.max(np.abs(marginal[other])) == 0.0

    def test_matches_dense_oracle(self, rng):
        """Structured block application equals the projector ⊗ block dense sum."""
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            blocks = tuple(random_unitary(m, rng) for _ in range(n))
            cd = conditional_dynamics(blocks)
            joint = random_state(n * m, rng)
            structured = apply_controlled(cd, joint)
            dense = dense_controlled(blocks) @ joint.amps
            np.testing.assert_allclose(structured.amps, dense, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            apply_controlled(cloner(2), basis_state(6, 0))


class TestDensify:
    def test_cloner_two_is_controlled_flip(self):
        expect = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        np.testing.assert_array_equal(densify(cloner(2)).entries, expect)

    def test_identity_blocks(self):
        np.testing.assert_array_equal(
            densify(conditional_dynamics([identity(3)] * 2)).entries, np.eye(6)
        )

    def test_random_blocks_stay_unitary(self, rng):
        for _ in range(10):
            blocks = [random_unitary(3, rng) for _ in range(4)]
            dense = densify(conditional_dynamics(blocks))
            assert dense.unitary_residual <= 1e-12

    def test_densify_matches_independent_dense_form(self, rng):
        blocks = tuple(random_unitary(3, rng) for _ in range(2))
        np.testing.assert_allclose(
            densify(conditional_dynamics(blocks)).entries, dense_controlled(blocks), atol=1e-15
        )

    def test_certificate_matches_dense_residual(self, rng):
        """The block-derived residual equals max|A†A − I| of the dense matrix.

        Blocks are scaled off the unit circle by up to 4e-11 so the residual
        is not just rounding noise; it stays below UNITARY_TOL.
        """
        for _ in range(40):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            blocks = tuple(
                Operator(random_unitary(m, rng).entries * (1.0 + rng.uniform(0.0, 4e-11)))
                for _ in range(n)
            )
            dense = densify(conditional_dynamics(blocks))
            a = dense_controlled(blocks)
            recomputed = float(np.max(np.abs(a.conj().T @ a - np.eye(n * m))))
            assert abs(dense.unitary_residual - recomputed) <= 1e-15
            assert dense.is_unitary == (recomputed <= config.UNITARY_TOL)
            assert not dense.entries.flags.writeable

    def test_capacity_error(self, monkeypatch):
        """The budget counts the matrix's joint_dim² amplitudes: cloner(2)'s 4 × 4 fits 16, not 15."""
        monkeypatch.setenv(config.ENV_MAX_DIM, "16")
        densify(cloner(2))
        monkeypatch.setenv(config.ENV_MAX_DIM, "15")
        with pytest.raises(CapacityError, match="dense controlled operator needs 16 amplitudes, exceeding MAX_DIM=15"):
            densify(cloner(2))

    def test_a_joint_dim_past_1024_is_refused_before_its_matrix_is_built(self, monkeypatch):
        """At the default budget a joint dim of 1,024 fills 2²⁰ amplitudes exactly,
        and 1,025 is refused with no more than its blocks allocated."""
        monkeypatch.delenv(config.ENV_MAX_DIM, raising=False)
        assert densify(conditional_dynamics([identity(32)] * 32)).dim == 1024
        c = conditional_dynamics([identity(41)] * 25)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"needs {1025**2} amplitudes, exceeding MAX_DIM={2**20}$"):
                densify(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1025**2


class TestControlledJson:
    def test_round_trip(self, rng):
        cd = conditional_dynamics(tuple(random_unitary(3, rng) for _ in range(4)))
        data = json.loads(json.dumps(controlled_to_json(cd)))
        assert data["control_dim"] == 4 and data["target_dim"] == 3
        back = controlled_from_json(data)
        for a, b in zip(back.blocks, cd.blocks):
            np.testing.assert_allclose(a.entries, b.entries, rtol=1e-15, atol=0.0)

    def test_inconsistent_dims_rejected(self, rng):
        cd = conditional_dynamics((random_unitary(2, rng), random_unitary(2, rng)))
        for key in ("control_dim", "target_dim"):
            for value, message in ((3, "inconsistent"), (2.0, "integer"), (True, "integer")):
                data = {**controlled_to_json(cd), key: value}
                with pytest.raises(InputError, match=message):
                    controlled_from_json(data)

    def test_missing_blocks(self):
        with pytest.raises(InputError):
            controlled_from_json({"control_dim": 2, "target_dim": 2})
