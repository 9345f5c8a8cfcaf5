"""Named operator constructions on a chosen basis.

``cyclic_shift`` and its powers permute basis vectors; the basis ``cloner``
copies exactly the basis states onto a blank register; ``conditional_dynamics``
generalizes it to arbitrary unitary blocks selected by the control index.
Controlled operators are stored and applied in block form, never densified
unless explicitly requested: the block form costs n·m² entries against (nm)²
for the dense matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import config
from .errors import ContractError, InputError
from .linalg import Operator, StateVector, _check_amplitudes, _check_capacity, _check_unitary_family, _integer
from .linalg import _frozen_state, _operator_with_residual, _operators_from_json, apply, basis_state, operator_to_json


@dataclass(frozen=True, eq=False)
class ControlledOperator:
    """Block unitary Σ_l |l⟩⟨l| ⊗ blocks[l] on a control ⊗ target space.

    The control register is the slow tensor index. The block count IS the
    control dimension, so an operator with more exactly-selectable programs
    than control dimensions cannot be constructed.
    """

    blocks: tuple[Operator, ...]
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        if not blocks:
            raise ContractError("a controlled operator needs at least one block")
        _check_unitary_family(blocks, "block", blocks[0].dim)
        stack = np.stack([block.entries for block in blocks])
        stack.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_stack", stack)

    @property
    def control_dim(self) -> int:
        return len(self.blocks)

    @property
    def target_dim(self) -> int:
        return self.blocks[0].dim

    @property
    def joint_dim(self) -> int:
        return self.control_dim * self.target_dim


def _check_alphabet(n: int) -> None:
    if n < 1:
        raise ContractError(f"basis size must be positive, got {n}")


def cyclic_shift(n: int) -> Operator:
    """Permutation matrix sending basis index k to (k + 1) mod n."""
    return shift_power(n, 1)


def shift_power(n: int, l: int) -> Operator:
    """Permutation matrix sending basis index k to (k + l) mod n; l reduced mod n."""
    _check_alphabet(n)
    matrix = np.zeros((n, n), dtype=complex)
    matrix[(np.arange(n) + l) % n, np.arange(n)] = 1.0
    return Operator(matrix)


@functools.lru_cache(maxsize=None, typed=True)
def cloner(n: int) -> ControlledOperator:
    """The basis-copying operator: block l is the l-th shift power.

    On |k⟩⊗|0⟩ it produces |k⟩⊗|k⟩ for every basis index k; on superposed
    control inputs linearity forces an entangled output instead of a copy.

    Cached, since the operator is immutable: the cache holds about 2·n³
    amplitudes (the blocks and their stack) per alphabet size n used.
    """
    _check_alphabet(n)
    return ControlledOperator(tuple(shift_power(n, l) for l in range(n)))


def conditional_dynamics(blocks: Sequence[Operator]) -> ControlledOperator:
    """Controlled operator with arbitrary unitary blocks: control index l selects blocks[l].

    Control and target dimensions need not coincide; the block count fixes the
    control dimension.
    """
    return ControlledOperator(tuple(blocks))


def _check_joint_dim(c: ControlledOperator, dim: int) -> None:
    if dim != c.joint_dim:
        raise ContractError(
            f"joint state dim {dim} does not match "
            f"control {c.control_dim} × target {c.target_dim}"
        )


def apply_controlled(c: ControlledOperator, joint: StateVector) -> StateVector:
    """Apply the block form to a joint state (control slow, target fast).

    Accepts arbitrary joint states, entangled control included: each target
    slice is multiplied by its control index's block.
    """
    _check_joint_dim(c, joint.dim)
    slices = joint.amps.reshape(c.control_dim, c.target_dim)
    out = np.einsum("lij,lj->li", c._stack, slices)
    return StateVector(out.reshape(-1))


def copy_onto_blank(states: Sequence[StateVector]) -> tuple[tuple[StateVector, ...], tuple[float, ...]]:
    """Run the basis cloner on psi ⊗ |0⟩ for each psi in ``states``, in one pass.

    Returns the outputs and each one's fidelity to psi ⊗ psi, in input order.
    The fidelity is 1 on basis states and falls short on superposed ones. The
    states must share one dimension n; the check itself is ``_copy_rows`` on
    their stacked amplitudes.
    """
    states = tuple(states)
    if not states:
        raise ContractError("copy_onto_blank needs at least one state")
    n = states[0].dim
    for psi in states:
        if psi.dim != n:
            raise ContractError(f"state dims differ: {n} vs {psi.dim}")
    rows, fidelities = _copy_rows(np.stack([psi.amps for psi in states]))
    # _copy_rows has checked each row.
    return tuple(_frozen_state(row) for row in rows), fidelities


def _copy_rows(amps: np.ndarray, limit: int | None = None) -> tuple[np.ndarray, tuple[float, ...]]:
    """The copy check on a (k, n) complex batch, one input state per row.

    Returns the cloner's (k, n²) outputs on each row ⊗ |0⟩, frozen, and each
    output row's fidelity to row ⊗ row. The blank's n amplitudes, the
    n²-amplitude joint input and then the cloner's 2·n³ amplitudes are
    checked against one read of the amplitude budget (``limit``, if the
    caller has read it), so an oversized register is refused before any
    cloner is built. Every output row passes the unit-norm check of a state,
    and each fidelity is |⟨out|psi ⊗ psi⟩|² of that row alone, bit for bit
    what a one-row batch gives.
    """
    k, n = amps.shape
    limit = config.max_dim() if limit is None else limit
    blank = basis_state(n, 0, limit=limit).amps
    _check_capacity(n * n, "tensor product state", limit)
    _check_capacity(2 * n**3, "basis cloner", limit)
    c = cloner(n)
    _check_joint_dim(c, n * n)
    # The same elementwise products tensor_state makes, one (n, n) slab per row.
    joint = np.multiply(amps[:, :, None], blank[None, None, :])
    rows = np.einsum("lij,klj->kli", c._stack, joint).reshape(k, n * n)
    perfect = np.multiply(amps[:, :, None], amps[:, None, :]).reshape(k, n * n)
    for row in rows:
        _check_amplitudes(row)
    rows.setflags(write=False)
    return rows, tuple(float(abs(np.vdot(row, want)) ** 2) for row, want in zip(rows, perfect))


def densify(c: ControlledOperator) -> Operator:
    """Materialize Σ_l |l⟩⟨l| ⊗ blocks[l] as a dense matrix (cross-check oracle).

    Its residual is the largest block residual: A†A is block diagonal with blocks B_l†B_l.
    """
    dim = c.joint_dim
    _check_capacity(dim, "dense controlled operator")
    m = c.target_dim
    matrix = np.zeros((dim, dim), dtype=complex)
    for l, block in enumerate(c.blocks):
        matrix[l * m : (l + 1) * m, l * m : (l + 1) * m] = block.entries
    return _operator_with_residual(matrix, max(block.unitary_residual for block in c.blocks))


def dense_deviation(c: ControlledOperator, joint: StateVector, structured: StateVector) -> float:
    """Largest entry of |densify(c)·joint − structured|, where ``structured`` is
    ``apply_controlled(c, joint)``: the block form checked against the dense oracle."""
    dense = apply(densify(c), joint)
    return float(np.max(np.abs(dense.amps - structured.amps)))


def controlled_to_json(c: ControlledOperator) -> dict:
    return {
        "control_dim": c.control_dim,
        "target_dim": c.target_dim,
        "blocks": [operator_to_json(block) for block in c.blocks],
    }


def controlled_from_json(obj) -> ControlledOperator:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise InputError("controlled operator: expected a JSON object with a 'blocks' key")
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or not blocks:
        raise InputError("controlled operator: 'blocks' must be a non-empty list")
    try:
        result = ControlledOperator(_operators_from_json(blocks))
        for key, expected in (("control_dim", result.control_dim), ("target_dim", result.target_dim)):
            value = _integer(obj.get(key, expected), key)
            if value != expected:
                raise InputError(f"controlled operator: {key}={value} inconsistent with blocks ({expected})")
    except ContractError as exc:
        raise InputError(f"controlled operator: {exc}") from exc
    return result
