"""Core linear algebra: construction contracts, tensor ordering, metrics, JSON."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qreplica import config
from qreplica.errors import CapacityError, ContractError, InputError
from qreplica.linalg import (
    Operator,
    StateVector,
    _state_with_amps,
    apply,
    basis_state,
    fidelity,
    identity,
    operator_from_json,
    operator_to_json,
    phase_invariant_distance,
    random_state,
    random_unitary,
    state_from_json,
    state_to_json,
    tensor_state,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def kron(a: Operator, b: Operator) -> Operator:
    """The operator tensor product, with a on the slow index as in tensor_state."""
    return Operator(np.kron(a.entries, b.entries))


class TestStateVector:
    def test_basis_state(self):
        s = basis_state(4, 2)
        np.testing.assert_array_equal(s.amps, [0, 0, 1, 0])
        assert s.dim == 4

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError, match="norm"):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError, match="finite"):
            StateVector(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize(
        "bad", [np.inf, -np.inf, complex(np.inf, np.nan), complex(0.0, -np.inf)]
    )
    def test_rejects_each_non_finite_kind(self, bad):
        with pytest.raises(ContractError, match="^state amplitudes must be finite$"):
            StateVector(np.array([bad, 0.0]))

    def test_overflowing_norm_of_finite_amplitudes(self):
        # Every amplitude is finite but the squared norm overflows: the check
        # reports an infinite norm, and numpy's overflow warning stays silent.
        message = "state norm inf deviates from 1 beyond NORM_TOL"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match=f"^{message}$"):
                StateVector(np.array([1e200, 0.0]))

    def test_overflow_guard_leaves_the_callers_error_state(self):
        before = np.geterr()
        with pytest.raises(ContractError, match="^state norm inf"):
            StateVector(np.array([1e200, 0.0]))
        assert np.geterr() == before
        # The norm's own guard holds inside a caller's stricter one.
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(ContractError, match="^state norm inf"):
                StateVector(np.array([1e200, 0.0]))
            assert np.geterr()["over"] == "raise"
        assert np.geterr() == before

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            StateVector(np.array([], dtype=complex))

    def test_normalized_constructor(self):
        s = StateVector.normalized([1, 1j])
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-15

    def test_normalized_rejects_zero(self):
        with pytest.raises(ContractError):
            StateVector.normalized([0.0, 0.0])

    def test_amps_frozen(self):
        s = basis_state(2, 0)
        with pytest.raises(ValueError):
            s.amps[0] = 0.0

    def test_owned_amplitudes_are_frozen_not_copied(self):
        amps = np.array([INV_SQRT2, 1j * INV_SQRT2])
        s = _state_with_amps(amps)
        assert s.amps is amps and not amps.flags.writeable


def reference_state_check(amps) -> np.ndarray:
    """Test-only copy of the earlier two-scan StateVector check."""
    arr = np.array(amps, dtype=complex)
    if arr.ndim != 1 or arr.size < 1:
        raise ContractError("state amplitudes must form a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ContractError("state amplitudes must be finite")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > config.NORM_TOL:
        raise ContractError(f"state norm {norm!r} deviates from 1 beyond NORM_TOL")
    return arr


NON_FINITE = [np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(np.nan, 0.0), complex(0.0, -np.inf)]
# Amplitude parts with signed zeros, whose signs a product must keep.
PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1.0, 1.0)
AMPLITUDES = st.tuples(PARTS, PARTS).map(lambda p: complex(*p))
NORM_SCALES = [
    0.0,
    1.0,
    1.0 - 0.5 * config.NORM_TOL,
    1.0 + 0.5 * config.NORM_TOL,
    1.0 - 2.0 * config.NORM_TOL,
    1.0 + 2.0 * config.NORM_TOL,
    1e200,
]


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 64),
    scale=st.sampled_from(NORM_SCALES),
    # (position as a fraction of dim, non-finite value) pairs to write in.
    injected=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(NON_FINITE)), max_size=3),
)
def test_state_check_matches_the_two_scan_form(seed, dim, scale, injected):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps = z / np.linalg.norm(z) * scale
    for where, value in injected:
        amps[int(where * dim)] = value
    result, caught = _outcome(StateVector, amps)
    # The reference's np.linalg.norm warns when the norm overflows; StateVector never warns.
    assert caught == []
    assert result == _outcome(reference_state_check, amps)[0]
    # A state built on an array the caller owns runs the same check.
    assert _outcome(_state_with_amps, amps.copy()) == (result, [])


@given(
    parts=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=32),
    scale=st.floats(0.5, 2.0),
)
def test_norm_error_reports_the_numpy_root(parts, scale):
    """The reported norm has the bits of numpy's root of the squared norm."""
    z = np.array([complex(*p) for p in parts])
    length = np.linalg.norm(z)
    assume(length > 1e-100)
    amps = z / length * scale
    re, im = amps.real, amps.imag
    norm = float(np.sqrt(re.dot(re) + im.dot(im)))
    assume(0.5 <= norm <= 2.0 and abs(norm - 1.0) > 1e-6)
    with pytest.raises(ContractError) as excinfo:
        StateVector(amps)
    assert str(excinfo.value) == f"state norm {norm!r} deviates from 1 beyond NORM_TOL"


def _outcome(check, amps):
    """What a check does with amps: its exception or accepted bytes, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = check(amps)
        except ContractError as exc:
            result = (type(exc), str(exc))
        else:
            result = np.asarray(getattr(result, "amps", result)).tobytes()
    return result, [(w.category, str(w.message)) for w in caught]


class TestOperator:
    def test_unitarity_certificate(self):
        assert identity(3).is_unitary
        assert not Operator(np.array([[1.0, 0.0], [0.0, 2.0]])).is_unitary

    def test_rejects_non_square(self):
        with pytest.raises(ContractError):
            Operator(np.ones((2, 3)))

    def test_residual_value(self):
        op = Operator(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-3]]))
        assert op.unitary_residual == pytest.approx((1 + 1e-3) ** 2 - 1, rel=1e-6)


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: basis_state(0, 0),
        lambda rng: identity(0),
        lambda rng: random_unitary(0, rng),
        lambda rng: random_state(0, rng),
    ],
    ids=["basis_state", "identity", "random_unitary", "random_state"],
)
def test_constructions_refuse_dimension_zero(build, rng):
    with pytest.raises(ContractError, match="^dimension must be positive, got 0$"):
        build(rng)


class TestTensorOrdering:
    """The first factor occupies the slow (most significant) index."""

    def test_basis_pair(self):
        out = tensor_state(basis_state(2, 0), basis_state(2, 1))
        np.testing.assert_array_equal(out.amps, [0, 1, 0, 0])

    def test_bilinearity(self):
        plus = StateVector.normalized([1, 1])
        out = tensor_state(plus, basis_state(2, 0))
        np.testing.assert_allclose(out.amps, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-15)

    def test_index_arithmetic(self):
        out = tensor_state(basis_state(3, 2), basis_state(3, 1))
        assert out.dim == 9
        assert np.argmax(np.abs(out.amps)) == 2 * 3 + 1

    def test_kron_of_identities_fixes_product_states(self, rng):
        x, y = random_state(2, rng), random_state(3, rng)
        out = apply(kron(identity(2), identity(3)), tensor_state(x, y))
        np.testing.assert_array_equal(out.amps, tensor_state(x, y).amps)

    def test_x_tensor_i_on_00(self):
        x = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
        joint = kron(x, identity(2))
        out = apply(joint, tensor_state(basis_state(2, 0), basis_state(2, 0)))
        np.testing.assert_allclose(out.amps, basis_state(4, 2).amps, atol=1e-15)

    def test_mixed_product_random(self, rng):
        """(A⊗B)(x⊗y) = (Ax)⊗(By), computed densely on both sides."""
        a, b = random_unitary(3, rng), random_unitary(3, rng)
        x, y = random_state(3, rng), random_state(3, rng)
        left = apply(kron(a, b), tensor_state(x, y))
        right = tensor_state(apply(a, x), apply(b, y))
        np.testing.assert_allclose(left.amps, right.amps, atol=1e-12)

    def test_mixed_product_law_across_dims(self, rng):
        for _ in range(25):
            da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            a, b = random_unitary(da, rng), random_unitary(db, rng)
            x, y = random_state(da, rng), random_state(db, rng)
            left = apply(kron(a, b), tensor_state(x, y))
            right = tensor_state(apply(a, x), apply(b, y))
            np.testing.assert_allclose(left.amps, right.amps, atol=1e-12)

    @given(a=st.lists(AMPLITUDES, min_size=1, max_size=32), b=st.lists(AMPLITUDES, min_size=1, max_size=32))
    def test_matches_kron_byte_for_byte(self, a, b):
        assume(np.linalg.norm(a) > 1e-150 and np.linalg.norm(b) > 1e-150)
        x, y = StateVector.normalized(a), StateVector.normalized(b)
        assert tensor_state(x, y).amps.tobytes() == np.kron(x.amps, y.amps).tobytes()

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setenv(config.ENV_MAX_DIM, "16")
        with pytest.raises(CapacityError):
            tensor_state(random_state(5, np.random.default_rng(0)), basis_state(5, 0))

    def test_basis_state_checks_capacity_before_allocating(self, monkeypatch):
        monkeypatch.setenv(config.ENV_MAX_DIM, "16")
        with pytest.raises(CapacityError, match="basis state needs 17 amplitudes, exceeding MAX_DIM=16"):
            basis_state(config.max_dim() + 1, 0)

    def test_bad_max_dim_env(self, monkeypatch):
        monkeypatch.setenv(config.ENV_MAX_DIM, "lots")
        with pytest.raises(InputError):
            config.max_dim()


class TestApply:
    def test_identity(self, rng):
        psi = random_state(4, rng)
        np.testing.assert_allclose(apply(identity(4), psi).amps, psi.amps)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            apply(identity(3), basis_state(2, 0))

    def test_unitary_preserves_norm(self, rng):
        """Norm preservation across >= 100 random (op, state) pairs per dim."""
        for dim in range(2, 9):
            for _ in range(100):
                out = apply(random_unitary(dim, rng), random_state(dim, rng))
                assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


class TestFidelity:
    def test_self(self, rng):
        psi = random_state(5, rng)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis(self):
        assert fidelity(basis_state(2, 0), basis_state(2, 1)) == 0.0

    def test_half_overlap(self):
        plus = StateVector.normalized([1, 1])
        assert fidelity(plus, basis_state(2, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_and_bounded(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            a, b = random_state(dim, rng), random_state(dim, rng)
            f = fidelity(a, b)
            assert f == pytest.approx(fidelity(b, a), abs=1e-15)
            assert 0.0 <= f <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            fidelity(basis_state(2, 0), basis_state(3, 0))


class TestPhaseInvariantDistance:
    def test_zero_on_self(self, rng):
        u = random_unitary(4, rng)
        assert phase_invariant_distance(u, u) == 0.0

    def test_global_phase_invisible(self, rng):
        """Phased copies sit at the metric's numerical zero (the sqrt noise floor)."""
        u = random_unitary(3, rng)
        for phi in (0.3, np.pi / 2, 2.0):
            v = Operator(np.exp(1j * phi) * u.entries)
            assert phase_invariant_distance(u, v) <= 1e-7

    def test_identity_vs_flip(self):
        x = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
        assert phase_invariant_distance(identity(2), x) == pytest.approx(1.0, abs=1e-15)

    def test_triangle_sanity(self, rng):
        """d(A,C) <= d(A,B) + d(B,C) with documented numerical slack."""
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            a, b, c = (random_unitary(dim, rng) for _ in range(3))
            assert phase_invariant_distance(a, c) <= (
                phase_invariant_distance(a, b) + phase_invariant_distance(b, c) + 1e-9
            )

    def test_rejects_non_unitary(self):
        bad = Operator(np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(ContractError, match="unitary"):
            phase_invariant_distance(bad, identity(2))

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ContractError, match="^operator dims differ: 2 vs 4$"):
            phase_invariant_distance(identity(2), identity(4))


class TestJson:
    def test_state_round_trip(self, rng):
        psi = random_state(6, rng)
        back = state_from_json(json.loads(json.dumps(state_to_json(psi))))
        np.testing.assert_allclose(back.amps, psi.amps, rtol=1e-15, atol=0.0)

    def test_operator_round_trip(self, rng):
        op = random_unitary(4, rng)
        back = operator_from_json(json.loads(json.dumps(operator_to_json(op))))
        np.testing.assert_allclose(back.entries, op.entries, rtol=1e-15, atol=0.0)

    def test_state_shape_errors(self):
        with pytest.raises(InputError):
            state_from_json({"dim": 2, "amps": [[1.0, 0.0]]})
        with pytest.raises(InputError):
            state_from_json({"dim": 2, "amps": [[1.0, 0.0], [0.0]]})
        with pytest.raises(InputError):
            state_from_json([1, 0])

    def test_operator_shape_errors(self):
        with pytest.raises(InputError):
            operator_from_json({"dim": 2, "rows": [[[1, 0], [0, 0]]]})
        with pytest.raises(InputError):
            operator_from_json({"rows": []})
