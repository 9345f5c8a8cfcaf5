"""Shift operators, the basis cloner, and controlled-block application.

Dense oracles here are built from raw numpy (projector ⊗ block sums), never
from the package's own densify path, so the two routes stay independent.
"""

import json

import numpy as np
import pytest

from qreplica import config
from qreplica.basis_ops import (
    ControlledOperator,
    apply_controlled,
    cloner,
    conditional_dynamics,
    controlled_from_json,
    controlled_to_json,
    cyclic_shift,
    densify,
    shift_power,
)
from qreplica.errors import CapacityError, ContractError, InputError
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
        for n in range(2, 6):
            copier = cloner(n)
            checked = 0
            while checked < 50:
                psi = random_state(n, rng)
                if float(np.max(np.abs(psi.amps) ** 2)) >= 1.0 - config.BASIS_CUTOFF:
                    continue
                checked += 1
                out = apply_controlled(copier, tensor_state(psi, basis_state(n, 0)))
                assert fidelity(out, tensor_state(psi, psi)) < 1.0 - 1e-6
                analytic = np.zeros(n * n, dtype=complex)
                analytic[np.arange(n) * n + np.arange(n)] = psi.amps
                np.testing.assert_allclose(out.amps, analytic, atol=1e-10)


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
        monkeypatch.setenv(config.ENV_MAX_DIM, "8")
        densify(cloner(2))
        with pytest.raises(CapacityError, match="dense controlled operator needs 9 amplitudes"):
            densify(cloner(3))


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
