"""Dense complex linear algebra: states, operators, tensor products, metrics.

Conventions fixed here and used everywhere else:

- tensor products put the FIRST factor on the slow (most significant) index,
  so ``tensor_state(a, b)`` stores amplitude ``a[i] * b[j]`` at ``i*b.dim + j``;
- fidelity is the squared magnitude of the inner product of unit vectors;
- operator closeness is the phase-invariant trace metric
  ``d(A, B) = sqrt(max(0, 1 − |tr(A†B)|/dim))``, which is zero exactly when
  the operators differ only by a global phase.

All types are immutable after construction (backing arrays are frozen) and
safe to share across concurrent readers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import CapacityError, ContractError, InputError


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector over a computational basis."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amps, dtype=complex)
        _check_amplitudes(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @property
    def dim(self) -> int:
        return int(self.amps.shape[0])

    @classmethod
    def normalized(cls, amps) -> "StateVector":
        """Build a state from arbitrary nonzero amplitudes, rescaled to unit norm."""
        arr = np.asarray(amps, dtype=complex)
        norm = float(np.linalg.norm(arr))
        if not np.isfinite(norm) or norm == 0.0:
            raise ContractError("cannot normalize a zero or non-finite amplitude vector")
        return cls(arr / norm)


@dataclass(frozen=True, eq=False)
class Operator:
    """Complex square matrix carrying a unitarity certificate.

    ``unitary_residual`` is the max-entry magnitude of ``A†A − I``, computed
    once at construction; the operator counts as unitary when the residual is
    at most UNITARY_TOL.
    """

    entries: np.ndarray
    unitary_residual: float = field(init=False)

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ContractError("operator entries must form a non-empty square matrix")
        if not np.all(np.isfinite(arr)):
            raise ContractError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "unitary_residual", float(_unitary_residuals(arr)))

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    @property
    def is_unitary(self) -> bool:
        return self.unitary_residual <= config.UNITARY_TOL


# Entries near the float limit overflow A†A to a residual no tolerance accepts.
@np.errstate(over="ignore", invalid="ignore")
def _unitary_residuals(a: np.ndarray):
    """max|A†A − I| of each square matrix A on the last two axes of ``a``: one
    value for a matrix, one per member for a (k, d, d) stack. A stack's product
    makes the same BLAS call per member as a single matrix's, so the same bits."""
    return np.max(np.abs(a.conj().swapaxes(-1, -2) @ a - np.eye(a.shape[-1])), axis=(-2, -1))


def _check_amplitudes(arr: np.ndarray) -> None:
    """Raise ContractError unless ``arr`` holds a state's amplitudes: 1-d,
    non-empty, finite and of unit norm."""
    if arr.ndim != 1 or arr.size < 1:
        raise ContractError("state amplitudes must form a non-empty 1-d sequence")
    sqnorm = _squared_norm(arr)
    # A sum of non-negative terms is finite only if every term is, so only an
    # infinite sum needs a scan; if all amplitudes are finite, the norm overflowed.
    if not math.isfinite(sqnorm) and not np.all(np.isfinite(arr)):
        raise ContractError("state amplitudes must be finite")
    norm = math.sqrt(sqnorm)
    if abs(norm - 1.0) > config.NORM_TOL:
        raise ContractError(f"state norm {norm!r} deviates from 1 beyond NORM_TOL")


# Only amplitudes beyond ~1e154 overflow the sum; the caller's error state is
# restored on return, so a guard set by the caller never sees the overflow.
@np.errstate(over="ignore", invalid="ignore")
def _squared_norm(arr: np.ndarray) -> float:
    """Sum of |a|² over a complex vector: np.linalg.norm's own sum, so the norm has its bits."""
    re, im = arr.real, arr.imag
    return re.dot(re) + im.dot(im)


def _state_with_amps(amps: np.ndarray) -> StateVector:
    """State on a complex array the program has just built and owns: checked and
    frozen in place, not copied. No one else may hold a writable view of it."""
    _check_amplitudes(amps)
    return _frozen_state(amps)


def _frozen_state(amps: np.ndarray) -> StateVector:
    """``_state_with_amps`` for amplitudes the program has already checked:
    frozen in place, not copied, not checked again."""
    amps.setflags(write=False)
    state = object.__new__(StateVector)
    object.__setattr__(state, "amps", amps)
    return state


def _operator_with_residual(entries: np.ndarray, residual: float) -> Operator:
    """Operator from a finite complex square array the caller owns (frozen, not
    copied) and its max|A†A − I|, computed by the caller or derived from structure."""
    entries.setflags(write=False)
    op = object.__new__(Operator)
    object.__setattr__(op, "entries", entries)
    object.__setattr__(op, "unitary_residual", float(residual))
    return op


def basis_state(dim: int, index: int) -> StateVector:
    """The ``index``-th standard unit vector in ``dim`` dimensions, within the amplitude budget."""
    if dim < 1:
        raise ContractError(f"dimension must be positive, got {dim}")
    if not 0 <= index < dim:
        raise ContractError(f"basis index {index} out of range for dimension {dim}")
    _check_capacity(dim, "basis state")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return _state_with_amps(amps)


def identity(dim: int) -> Operator:
    if dim < 1:
        raise ContractError(f"dimension must be positive, got {dim}")
    return Operator(np.eye(dim, dtype=complex))


def _check_capacity(dim: int, what: str, limit: int | None = None) -> None:
    """Refuse ``dim`` amplitudes over the budget: ``limit`` if the caller has
    read it once for all its checks, else ``config.max_dim()``."""
    limit = config.max_dim() if limit is None else limit
    if dim > limit:
        raise CapacityError(f"{what} needs {dim} amplitudes, exceeding MAX_DIM={limit}")


def _check_unitary_family(ops, what: str, dim: int) -> None:
    """Every operator in ``ops`` has dimension ``dim`` and is unitary; else a
    ContractError naming the first ``what`` (gate, block) that is not."""
    for l, op in enumerate(ops):
        if op.dim != dim:
            raise ContractError(f"{what} {l} has dim {op.dim}, expected {dim}")
        if not op.is_unitary:
            raise ContractError(f"{what} {l} is not unitary (residual {op.unitary_residual:.3e})")


def tensor_state(a: StateVector, b: StateVector) -> StateVector:
    """Product state with ``a`` on the slow index: index = i*b.dim + j."""
    _check_capacity(a.dim * b.dim, "tensor product state")
    # np.kron's own ufunc call on 1-d operands, without its Python-level reshaping.
    return StateVector(np.multiply(a.amps[:, None], b.amps[None, :]).reshape(-1))


def apply(op: Operator, state: StateVector) -> StateVector:
    """Matrix-vector product; the result must again be a unit vector."""
    if op.dim != state.dim:
        raise ContractError(f"operator dim {op.dim} does not match state dim {state.dim}")
    return StateVector(op.entries @ state.amps)


def apply_sequence(matrices, symbols, x: np.ndarray) -> np.ndarray:
    """Apply ``matrices[c]`` for each symbol c in turn, the first symbol first.

    The gate array's one kernel: raw arrays of one dtype, no checks (callers
    validate the gates and wrap the result). x may be a vector or a matrix and
    is never written: the first step allocates a buffer in the product's dtype,
    then a spare of the same shape, and each later step writes one of the two
    buffers from the other. For one symbol or more the result is one of those
    buffers, owned by the caller; for none it is x itself.

    Each step is ``matrices[c].dot(x, out)``. On the contiguous complex arrays
    callers pass, ``.dot`` reaches the same BLAS routine as ``@`` (same bytes)
    but skips the matmul dispatch, which costs more than the product itself at
    small d. At d = 1 ``.dot`` multiplies as scalars and keeps a zero's sign
    that ``@`` drops, so 1×1 gates step with ``@``.
    """
    step = np.ndarray.dot if x.shape[0] > 1 else np.matmul
    symbols = iter(symbols)
    first = next(symbols, None)
    if first is None:
        return x
    x = step(matrices[first], x)
    spare = np.empty_like(x)
    for c in symbols:
        step(matrices[c], x, spare)
        x, spare = spare, x
    return x


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared magnitude of the inner product; 1 means equal up to phase."""
    if a.dim != b.dim:
        raise ContractError(f"state dims differ: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def phase_invariant_distance(a: Operator, b: Operator) -> float:
    """Trace-based distance, insensitive to a global phase on either operator.

    The square root amplifies rounding near zero, so values below ~1.5e-8
    (sqrt of double-precision eps) are numerically indistinguishable from 0.
    """
    if a.dim != b.dim:
        raise ContractError(f"operator dims differ: {a.dim} vs {b.dim}")
    if not a.is_unitary or not b.is_unitary:
        raise ContractError("phase_invariant_distance requires unitary operators")
    return _trace_distance(a.entries, b.entries)


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(max(0, 1 − |tr(a†b)|/dim)) on square arrays of equal size."""
    overlap = abs(np.trace(a.conj().T @ b)) / a.shape[0]
    return float(np.sqrt(max(0.0, 1.0 - overlap)))


def random_unitary(dim: int, rng: np.random.Generator) -> Operator:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R-factor's diagonal phases are normalized so the distribution does
    not depend on the QR implementation's sign conventions.
    """
    if dim < 1:
        raise ContractError(f"dimension must be positive, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    lam = np.diag(r)
    q = q * (lam / np.abs(lam))
    return Operator(q)


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    if dim < 1:
        raise ContractError(f"dimension must be positive, got {dim}")
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector.normalized(z)


# -- JSON wire format ---------------------------------------------------------
#
# A complex number is a two-element array [re, im]; a state is
# {"dim": n, "amps": [[re, im], ...]}; an operator is
# {"dim": n, "rows": [[[re, im], ...], ...]}.


def _integer(value, what: str) -> int:
    """An int or numpy integer as a plain int; bools and floats are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{where}: integer too large for a float") from None


def _complex_from_json(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputError(f"{where}: expected an [re, im] pair, got {value!r}")
    return complex(_require_number(value[0], where), _require_number(value[1], where))


def _pairs_array(nest: list, shape: tuple[int, ...]) -> np.ndarray | None:
    """A list nest of [re, im] pairs, ``shape`` deep, as a fresh complex array
    with the values float() gives; None unless every level above the pairs holds
    lists and every pair is a list or tuple of two ints or floats within float
    range. Callers then read the nest value by value, which names the first bad
    value, or reads what this refuses but the per-value reader accepts (such as
    subclasses of list or float), as before.

    The type scan comes first: np.array would turn True into 1.0 and "1.5" into 1.5.
    """
    for depth, allowed in enumerate([{list}] * (len(shape) - 1) + [{list, tuple}, {int, float}]):
        items = iter(nest)
        for _ in range(depth):
            items = itertools.chain.from_iterable(items)
        if not set(map(type, items)) <= allowed:
            return None
    try:
        values = np.array(nest, dtype=np.float64)
    except (ValueError, OverflowError):  # a ragged nest; an int beyond float range
        return None
    return values.view(np.complex128).reshape(shape) if values.shape == (*shape, 2) else None


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def state_to_json(state: StateVector) -> dict:
    return {"dim": state.dim, "amps": [_pair(z) for z in state.amps]}


def state_from_json(obj) -> StateVector:
    if not isinstance(obj, dict):
        raise InputError(f"state: expected a JSON object, got {type(obj).__name__}")
    if "dim" not in obj or "amps" not in obj:
        raise InputError("state: missing required keys 'dim' and 'amps'")
    dim = obj["dim"]
    amps = obj["amps"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"state.dim: expected a positive integer, got {dim!r}")
    if not isinstance(amps, list) or len(amps) != dim:
        raise InputError(f"state.amps: expected a list of {dim} amplitude pairs")
    values = _pairs_array(amps, (dim,))
    if values is None:
        values = np.array([_complex_from_json(v, f"state.amps[{i}]") for i, v in enumerate(amps)], dtype=complex)
    try:
        return _state_with_amps(values)
    except ContractError as exc:
        raise InputError(f"state: {exc}") from exc


def operator_to_json(op: Operator) -> dict:
    return {"dim": op.dim, "rows": [[_pair(z) for z in row] for row in op.entries]}


def operator_from_json(obj) -> Operator:
    if not isinstance(obj, dict):
        raise InputError(f"operator: expected a JSON object, got {type(obj).__name__}")
    if "dim" not in obj or "rows" not in obj:
        raise InputError("operator: missing required keys 'dim' and 'rows'")
    dim = obj["dim"]
    rows = obj["rows"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"operator.dim: expected a positive integer, got {dim!r}")
    if not isinstance(rows, list) or len(rows) != dim:
        raise InputError(f"operator.rows: expected {dim} rows")
    matrix = _pairs_array(rows, (dim, dim))
    if matrix is None:
        matrix = np.empty((dim, dim), dtype=complex)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise InputError(f"operator.rows[{i}]: expected {dim} entries")
            for j, value in enumerate(row):
                matrix[i, j] = _complex_from_json(value, f"operator.rows[{i}][{j}]")
    try:
        return Operator(matrix)
    except ContractError as exc:
        raise InputError(f"operator: {exc}") from exc


def _operators_from_json(objs: list) -> tuple[Operator, ...]:
    """operator_from_json on each document of a non-empty list. Documents of one
    dim are decoded as one (k, d, d) stack and certified by one batched residual;
    any other list, or one the stack decoder refuses or holding a non-finite
    value, is read member by member, so an error names the member and value it
    names there."""
    dim = objs[0].get("dim") if type(objs[0]) is dict else None
    if all(type(obj) is dict and type(obj.get("dim")) is int and obj["dim"] == dim for obj in objs):
        stack = _pairs_array([obj.get("rows") for obj in objs], (len(objs), dim, dim))
        if stack is not None and np.isfinite(stack).all():
            # Each member owns its entries, so no member keeps the family's stack alive.
            return tuple(_operator_with_residual(a.copy(), r) for a, r in zip(stack, _unitary_residuals(stack)))
    return tuple(operator_from_json(obj) for obj in objs)
