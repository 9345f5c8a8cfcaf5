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

from .errors import ContractError
from .linalg import Operator, StateVector, _check_capacity, _operator_with_residual


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
        dim = blocks[0].dim
        for l, block in enumerate(blocks):
            if block.dim != dim:
                raise ContractError(
                    f"block {l} has dim {block.dim}, expected {dim} (all blocks must match)"
                )
            if not block.is_unitary:
                raise ContractError(
                    f"block {l} is not unitary (residual {block.unitary_residual:.3e})"
                )
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


def apply_controlled(c: ControlledOperator, joint: StateVector) -> StateVector:
    """Apply the block form to a joint state (control slow, target fast).

    Accepts arbitrary joint states, entangled control included: each target
    slice is multiplied by its control index's block.
    """
    if joint.dim != c.joint_dim:
        raise ContractError(
            f"joint state dim {joint.dim} does not match "
            f"control {c.control_dim} × target {c.target_dim}"
        )
    slices = joint.amps.reshape(c.control_dim, c.target_dim)
    out = np.einsum("lij,lj->li", c._stack, slices)
    return StateVector(out.reshape(-1))


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


def controlled_to_json(c: ControlledOperator) -> dict:
    from .linalg import operator_to_json

    return {
        "control_dim": c.control_dim,
        "target_dim": c.target_dim,
        "blocks": [operator_to_json(block) for block in c.blocks],
    }


def controlled_from_json(obj) -> ControlledOperator:
    from .errors import InputError
    from .linalg import operator_from_json
    from .tape import _integer

    if not isinstance(obj, dict) or "blocks" not in obj:
        raise InputError("controlled operator: expected a JSON object with a 'blocks' key")
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or not blocks:
        raise InputError("controlled operator: 'blocks' must be a non-empty list")
    result = ControlledOperator(tuple(operator_from_json(b) for b in blocks))
    for key, expected in (("control_dim", result.control_dim), ("target_dim", result.target_dim)):
        try:
            value = _integer(obj.get(key, expected), key)
        except ContractError as exc:
            raise InputError(f"controlled operator: {exc}") from exc
        if value != expected:
            raise InputError(f"controlled operator: {key}={value} inconsistent with blocks ({expected})")
    return result
