"""Gate-product search: soundness, determinism, and agreement with enumeration.

The enumeration oracle rebuilds every product level by level with no pruning;
the searched results must never beat it and never fall behind it.
"""

from unittest import mock

import numpy as np
import pytest

from qreplica import config, verify
from qreplica.approx import (
    ApproxResult,
    GateSet,
    best_approximation,
    default_gate_set,
    rotation_x,
    rotation_z,
)
from qreplica.errors import CapacityError, ContractError
from qreplica.linalg import Operator, basis_state, identity, phase_invariant_distance, random_unitary
from qreplica.tape import Tape, run_tape

from gate_products import gate_product, rotation_y

X = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
H = Operator(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))


def exhaustive_level_minima(target, g, max_len):
    """Distance of the best product at each exact length, no pruning."""
    dim = g.dim
    minima = {}
    level = [np.eye(dim, dtype=complex)]
    for length in range(1, max_len + 1):
        level = [gate.entries @ m for m in level for gate in g.gates]
        best = None
        for matrix in level:
            overlap = abs(np.trace(matrix.conj().T @ target.entries)) / dim
            d = float(np.sqrt(max(0.0, 1.0 - overlap)))
            best = d if best is None else min(best, d)
        minima[length] = best
    return minima


class TestGateSet:
    def test_default_is_a_unitary_pair(self):
        g = default_gate_set()
        assert g.n == 2 and g.dim == 2
        assert g.labels == ("rz", "rx")
        assert all(gate.is_unitary for gate in g.gates)

    def test_rejects_mixed_dims(self):
        with pytest.raises(ContractError):
            GateSet((identity(2), identity(3)))

    def test_rejects_non_unitary(self):
        with pytest.raises(ContractError, match="unitary"):
            GateSet((Operator(np.diag([1.0, 2.0])),))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ContractError, match="unique"):
            GateSet((identity(2), X), ("a", "a"))

    def test_default_labels(self):
        assert GateSet((identity(2), X)).labels == ("g0", "g1")


def tape_unitary(t, g):
    """The operator ``run_tape`` applies for tape t, one basis column at a time."""
    return np.column_stack([run_tape(t, g.gates, basis_state(g.dim, j)).amps for j in range(g.dim)])


class TestSequenceUnitary:
    """The unitary a tape's cells select: cell 1's gate acts first."""

    def test_single_cell_is_the_gate(self):
        g = default_gate_set()
        for l in range(2):
            np.testing.assert_array_equal(tape_unitary(Tape(2, (l,)), g), g.gates[l].entries)

    def test_involution_squared_is_identity(self):
        g = GateSet((H, X))
        np.testing.assert_allclose(tape_unitary(Tape(2, (0, 0)), g), np.eye(2), atol=1e-15)

    def test_matches_reverse_fold(self, rng):
        """Forward numeral order must equal applying cells back-to-front."""
        g = GateSet(tuple(random_unitary(3, rng) for _ in range(2)))
        cells = tuple(int(rng.integers(0, 2)) for _ in range(8))
        folded = np.eye(3, dtype=complex)
        for c in reversed(cells):
            folded = g.gates[c].entries @ folded
        np.testing.assert_allclose(tape_unitary(Tape(2, cells), g), folded, atol=1e-12)

    def test_consistent_with_the_symbol_product(self, rng):
        """A result's symbols, in application order, are its tape's cells reversed."""
        g = default_gate_set()
        symbols = tuple(int(rng.integers(0, 2)) for _ in range(6))
        via_tape = tape_unitary(Tape(2, tuple(reversed(symbols))), g)
        np.testing.assert_allclose(via_tape, gate_product(symbols, g).entries, atol=1e-13)


class TestApproximate:
    def test_exact_gate_is_length_one(self):
        g = default_gate_set()
        result = best_approximation(g.gates[0], g, 6, epsilon=0.25)
        assert result.achieved_distance <= 0.25
        assert result.symbols == (0,)
        assert result.achieved_distance <= 1e-7

    def test_identity_is_the_empty_sequence(self):
        g = default_gate_set()
        result = best_approximation(identity(2), g, 6, epsilon=0.25)
        assert result.achieved_distance <= 0.25
        assert result.symbols == ()
        assert result.achieved_distance == 0.0

    def test_flip_target_with_oracle(self):
        """The found sequence must match unpruned enumeration: length 13 is
        the first length reaching 0.05, and its optimum is the value below."""
        g = default_gate_set()
        result = best_approximation(X, g, 20, epsilon=0.05)
        assert result.achieved_distance <= 0.05
        assert len(result.symbols) == 13
        assert result.achieved_distance == pytest.approx(0.039443699164107, abs=1e-9)

        minima = exhaustive_level_minima(X, g, 13)
        assert min(minima[length] for length in range(1, 13)) > 0.05
        assert result.achieved_distance == pytest.approx(minima[13], abs=1e-9)

    def test_one_dimensional_gates_are_phases(self):
        """Every 1×1 product is the identity up to phase, so the net merges
        the first level into the root and the empty product is best."""
        g = GateSet((Operator(np.array([[1j]])), Operator(np.array([[np.exp(0.3j)]]))))
        result = best_approximation(Operator(np.array([[-1.0]])), g, 5)
        assert (result.symbols, result.achieved_distance, result.expansions) == ((), 0.0, 3)

    def test_not_found_stays_above_epsilon(self):
        g = default_gate_set()
        assert best_approximation(X, g, 4, epsilon=1e-6).achieved_distance > 1e-6

    def test_soundness_recompute(self, rng):
        g = default_gate_set()
        for _ in range(5):
            target = random_unitary(2, rng)
            result = best_approximation(target, g, 8)
            recomputed = phase_invariant_distance(gate_product(result.symbols, g), result.target)
            assert abs(recomputed - result.achieved_distance) <= 1e-12

    def test_result_invariant_on_construction(self):
        g = default_gate_set()
        result = best_approximation(X, g, 6)
        rebuilt = ApproxResult(result.symbols, result.achieved_distance, X, result.expansions, result.profile)
        recomputed = phase_invariant_distance(gate_product(rebuilt.symbols, g), rebuilt.target)
        assert abs(recomputed - rebuilt.achieved_distance) <= 1e-12

    def test_monotone_in_length(self, rng):
        g = default_gate_set()
        target = random_unitary(2, rng)
        best = [best_approximation(target, g, L).achieved_distance for L in range(1, 9)]
        assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))

    def test_pruned_matches_exhaustive_three_gates(self, rng):
        """With a 3-symbol alphabet the pruned optimum still equals enumeration."""
        theta = 2.0 * np.pi * (np.sqrt(5.0) - 1.0) / 2.0
        g = GateSet((rotation_z(theta), rotation_x(theta), rotation_y(theta)))
        for _ in range(3):
            target = random_unitary(2, rng)
            for max_len in range(1, 6):
                pruned = best_approximation(target, g, max_len).achieved_distance
                minima = exhaustive_level_minima(target, g, max_len)
                exhaustive = min(
                    [np.sqrt(max(0.0, 1 - abs(np.trace(target.entries)) / 2))]
                    + [minima[length] for length in range(1, max_len + 1)]
                )
                assert pruned == pytest.approx(float(exhaustive), abs=1e-9)

    def test_density_improvement(self, rng):
        """Longer budgets strictly improve on short ones for random targets."""
        g = default_gate_set()
        for _ in range(5):
            target = random_unitary(2, rng)
            short = best_approximation(target, g, 4).achieved_distance
            long = best_approximation(target, g, 12).achieved_distance
            assert long < short

    def test_repeated_search_is_identical_and_sound(self):
        g = default_gate_set()
        first = best_approximation(X, g, 10)
        second = best_approximation(X, g, 10)
        assert (first.symbols, first.expansions) == (second.symbols, second.expansions)
        assert first.achieved_distance.hex() == second.achieved_distance.hex()
        recomputed = phase_invariant_distance(gate_product(first.symbols, g), first.target)
        assert abs(recomputed - first.achieved_distance) <= 1e-12

    def test_contract_errors(self):
        g = default_gate_set()
        with pytest.raises(ContractError, match="epsilon"):
            best_approximation(X, g, 4, epsilon=0.0)
        with pytest.raises(ContractError, match="unitary"):
            best_approximation(Operator(np.diag([1.0, 2.0])), g, 4, epsilon=0.1)
        with pytest.raises(ContractError, match="dim"):
            best_approximation(identity(3), g, 4, epsilon=0.1)
        with pytest.raises(ContractError, match="max_len"):
            best_approximation(X, g, 0, epsilon=0.1)

    def test_an_expanded_level_beyond_max_dim_is_refused(self, monkeypatch):
        """Levels of 2, 4, 8 and 16 products of 4 amplitudes fit 64; the
        fifth level, built only when a sixth follows, would hold 128."""
        monkeypatch.setenv(config.ENV_MAX_DIM, "64")
        g = default_gate_set()
        assert len(best_approximation(X, g, 5).symbols) == 4
        with pytest.raises(CapacityError, match=r"^approximation level needs 128 amplitudes, exceeding MAX_DIM=64$"):
            best_approximation(X, g, 6)
        # A search that meets epsilon before that level never builds it.
        assert best_approximation(g.gates[0], g, 40, epsilon=0.25).symbols == (0,)

    def test_a_search_reads_the_amplitude_budget_once(self):
        """Once for every level it expands, whether it builds them or finds
        them stored; a search that expands no level does not read it."""
        g = default_gate_set()
        for max_len, want in ((12, 1), (12, 1), (1, 0)):
            with mock.patch.object(config, "max_dim", wraps=config.max_dim) as reads:
                best_approximation(X, g, max_len)
            assert reads.call_count == want

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf"), float("-inf")])
    def test_search_inputs_must_be_positive_and_finite(self, bad):
        g = default_gate_set()
        with pytest.raises(ContractError, match="net radius"):
            best_approximation(X, g, 4, net_radius=bad)
        with pytest.raises(ContractError, match="epsilon"):
            best_approximation(X, g, 4, epsilon=bad)
        with pytest.raises(ContractError, match="net radius"):
            best_approximation(X, g, 4, epsilon=0.1, net_radius=bad)

    def test_tape_round_trip(self):
        g = default_gate_set()
        result = best_approximation(X, g, 6)
        t = result.tape(g.n)
        assert t.cells == tuple(reversed(result.symbols))
        via_tape = Operator(tape_unitary(t, g))
        assert phase_invariant_distance(via_tape, X) == pytest.approx(
            result.achieved_distance, abs=1e-12
        )

    def test_empty_sequence_has_no_tape(self):
        g = default_gate_set()
        result = best_approximation(identity(2), g, 4)
        with pytest.raises(ContractError):
            result.tape(g.n)


def criterion_6_targets(seed):
    """The 20 targets criterion 6 draws for ``verify --seed seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(8)[5])
    return [random_unitary(2, rng) for _ in range(20)]


class TestProfile:
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_each_entry_is_the_search_at_that_length(self, seed):
        """profile[L] has the bits of a search with max_len=L, and ends at
        the result's own distance without ever rising."""
        g = default_gate_set()
        for target in criterion_6_targets(seed):
            result = best_approximation(target, g, 12)
            profile = result.profile
            assert len(profile) == 13
            assert profile[-1] == result.achieved_distance
            assert all(b <= a for a, b in zip(profile, profile[1:]))
            for length in (1, 2, 3, 4, 5, 6, 8, 12):
                alone = best_approximation(target, g, length).achieved_distance
                assert profile[length].hex() == alone.hex()

    @pytest.mark.parametrize("target, epsilon", [(X, 0.1), (H, 0.1), (default_gate_set().gates[0], 0.25)])
    def test_epsilon_ends_the_profile_where_the_search_stopped(self, target, epsilon):
        g = default_gate_set()
        result = best_approximation(target, g, 12, epsilon=epsilon)
        profile = result.profile
        assert profile[-1] == result.achieved_distance <= epsilon
        assert all(d > epsilon for d in profile[:-1])
        # The search stops at the first length that meets epsilon.
        assert len(profile) - 1 == len(result.symbols)

    def test_an_emptied_frontier_ends_the_profile(self):
        """The one gate is the identity, so the net merges the first level
        into the root and no second level is evaluated."""
        g = GateSet((identity(2),))
        result = best_approximation(X, g, 5)
        assert result.symbols == ()
        assert result.profile == (result.achieved_distance,) * 2


def test_criterion_6_searches_each_target_once():
    spy_search = mock.patch.object(verify, "best_approximation", wraps=best_approximation)
    spy_oracle = mock.patch.object(verify, "_exhaustive_best_distances", wraps=verify._exhaustive_best_distances)
    with spy_search as searches, spy_oracle as oracles:
        verify.criterion_approximation(np.random.default_rng(7))
    assert [call.args[2] for call in searches.call_args_list] == [12] * 20
    # One enumeration to length 6 scores all 20 targets.
    assert [(len(call.args[0]), call.args[2]) for call in oracles.call_args_list] == [(20, 6)]
