"""The cyclic program tape: symbol sequences as orthogonal basis states.

Cell numbering follows the positional-numeral convention: a tape's ``cells``
tuple is written most-significant-first, so ``cells[-1]`` is cell 1, the cell
read first and the least significant digit of the tape's basis index. A tape
of s cells over an alphabet of n symbols is one of n^s pairwise-orthogonal
product basis states.

The head is a 0-based cell counter: head h means cell h+1 is read next. One
shift advances the head cyclically, and s shifts restore the tape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import config
from .basis_ops import apply_controlled, cloner
from .errors import ContractError, InputError, ReplicationIntegrityError
from .linalg import StateVector, _check_capacity, apply_sequence, basis_state, fidelity, tensor_state


@dataclass(frozen=True)
class Tape:
    """Finite cyclic tape of symbols in {0, …, alphabet_size−1} plus a head."""

    alphabet_size: int
    cells: tuple[int, ...]
    head: int = 0

    def __post_init__(self) -> None:
        n = _integer(self.alphabet_size, "alphabet size")
        if n < 1:
            raise ContractError(f"alphabet size must be positive, got {n}")
        cells = []
        for i, c in enumerate(self.cells):
            if type(c) is not int:
                c = _integer(c, f"cell {i}")
            if not 0 <= c < n:
                raise ContractError(f"cell {i} holds symbol {c}, outside alphabet of size {n}")
            cells.append(c)
        if not cells:
            raise ContractError("a tape needs at least one cell")
        head = _integer(self.head, "head")
        if not 0 <= head < len(cells):
            raise ContractError(f"head {head} out of range for {len(cells)} cells")
        object.__setattr__(self, "alphabet_size", n)
        object.__setattr__(self, "cells", tuple(cells))
        object.__setattr__(self, "head", head)

    @property
    def length(self) -> int:
        return len(self.cells)


def _integer(value, what: str) -> int:
    """An int or numpy integer as a plain int; bools and floats are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{what} must be an integer, got {value!r}")
    return int(value)


def tape_index(t: Tape) -> int:
    """Basis index of the tape state: cells read as a base-n numeral, cell 1 last."""
    index = 0
    for c in t.cells:
        index = index * t.alphabet_size + c
    return index


def tape_to_state(t: Tape) -> StateVector:
    """The computational basis vector encoding the tape's cells.

    Distinct tapes map to orthogonal states; the head is classical bookkeeping
    and does not enter the state.
    """
    dim = t.alphabet_size**t.length
    _check_capacity(dim, "tape state")
    return basis_state(dim, tape_index(t))


def read_symbol(t: Tape) -> int:
    """Symbol under the head (cell number head+1)."""
    return t.cells[t.length - 1 - t.head]


def shift_tape(t: Tape) -> Tape:
    """Advance the head one cell cyclically; contents unchanged."""
    return Tape(t.alphabet_size, t.cells, (t.head + 1) % t.length)


def _check_gates(t: Tape, gates, payload_dim: int) -> None:
    if len(gates) != t.alphabet_size:
        raise ContractError(
            f"need one gate per symbol: got {len(gates)} gates for alphabet {t.alphabet_size}"
        )
    for l, gate in enumerate(gates):
        if gate.dim != payload_dim:
            raise ContractError(f"gate {l} has dim {gate.dim}, payload has dim {payload_dim}")
        if not gate.is_unitary:
            raise ContractError(f"gate {l} is not unitary (residual {gate.unitary_residual:.3e})")


def run_tape(t: Tape, gates, payload: StateVector) -> StateVector:
    """Apply the gate selected by each cell in cell order, cell 1 first.

    Returns the transformed payload; the tape itself is unchanged (the head
    cycles through all cells and returns to its starting position).
    """
    _check_gates(t, gates, payload.dim)
    if t.head != 0:
        raise ContractError(f"run_tape starts at cell 1, got head {t.head}")
    matrices = [gate.entries for gate in gates]
    return StateVector(apply_sequence(matrices, reversed(t.cells), payload.amps))


def joint_tape_evolution(t: Tape, gates, payload: StateVector) -> StateVector:
    """Literal joint evolution on the full tape ⊗ payload space.

    Each of the s steps applies the gate conditioned on cell 1 (the interaction
    site), then rotates the tape register one cell as a permutation unitary,
    written as the output layout: (n^(s-1), n) → (n, n^(s-1)). After s steps
    the tape factor is back in its initial basis state and the payload has
    absorbed the cell-ordered gate product.
    """
    _check_gates(t, gates, payload.dim)
    if t.head != 0:
        raise ContractError(f"joint evolution starts at cell 1, got head {t.head}")
    n, s, m = t.alphabet_size, t.length, payload.dim
    _check_capacity(n**s * m, "joint space")
    stack = np.stack([gate.entries for gate in gates])
    joint = np.kron(tape_to_state(t).amps, payload.amps)
    for _ in range(s):
        slices = joint.reshape(n ** (s - 1), n, m)
        rotated = np.empty((n, n ** (s - 1), m), dtype=complex)
        # einsum, not matmul: BLAS and numpy's complex multiply use FMA and change the bits.
        for l in range(n):
            np.einsum("ij,rj->ri", stack[l], slices[:, l, :], out=rotated[l])
        joint = rotated.reshape(-1)
    return StateVector(joint)


def replicate_tape(t: Tape) -> tuple[Tape, Tape]:
    """Copy a tape cell by cell onto blank cells, certifying each distinct symbol.

    A symbol is copied by applying the basis cloner to (symbol, blank) and
    checking the result against the perfect copy; the child's symbol is then
    read back out of the certified output rather than taken on trust. The
    cloner is deterministic, so each symbol is certified once, at its first
    occurrence in head-read order, and later cells holding it reuse that
    result. Raises ReplicationIntegrityError, naming that first cell, if a
    copy fidelity falls below 1 − REPLICATION_TOL.
    """
    n, s = t.alphabet_size, t.length
    copier = cloner(n)
    blank = basis_state(n, 0)
    copies: dict[int, int] = {}
    child = [0] * s
    # Cells in the order the head reads them, starting under the head.
    for k in range(s):
        pos = s - 1 - (t.head + k) % s
        symbol = t.cells[pos]
        if symbol not in copies:
            out = apply_controlled(copier, tensor_state(basis_state(n, symbol), blank))
            ideal = tensor_state(basis_state(n, symbol), basis_state(n, symbol))
            achieved = fidelity(out, ideal)
            if achieved < 1.0 - config.REPLICATION_TOL:
                raise ReplicationIntegrityError(
                    f"cell {pos} copy fidelity {achieved!r} below 1 - REPLICATION_TOL; "
                    "cloner wiring is broken"
                )
            copies[symbol] = int(np.argmax(np.abs(out.amps))) % n
        child[pos] = copies[symbol]
    return t, Tape(n, tuple(child), t.head)


# -- text and JSON forms ------------------------------------------------------

_TAPE_RE = re.compile(r"^n=(\d+);cells=([0-9]+(?:,[0-9]+)*);head=(\d+)$")


def format_tape(t: Tape) -> str:
    return f"n={t.alphabet_size};cells={','.join(str(c) for c in t.cells)};head={t.head}"


def parse_tape(text: str) -> Tape:
    match = _TAPE_RE.match(text.strip())
    if match is None:
        raise InputError(
            f"tape text {text!r} does not match 'n=<int>;cells=<int,int,...>;head=<int>'"
        )
    n, cells, head = match.groups()
    try:
        return Tape(int(n), tuple(int(c) for c in cells.split(",")), int(head))
    except ContractError as exc:
        raise InputError(f"tape text {text!r}: {exc}") from exc


def tape_to_json(t: Tape) -> dict:
    return {"n": t.alphabet_size, "cells": list(t.cells), "head": t.head}


def tape_from_json(obj) -> Tape:
    if not isinstance(obj, dict):
        raise InputError(f"tape: expected a JSON object, got {type(obj).__name__}")
    for key in ("n", "cells"):
        if key not in obj:
            raise InputError(f"tape: missing required key {key!r}")
    cells = obj["cells"]
    if not isinstance(cells, list):
        raise InputError("tape.cells: expected a list of symbols")
    try:
        return Tape(obj["n"], tuple(cells), obj.get("head", 0))
    except (ContractError, TypeError, ValueError) as exc:
        raise InputError(f"tape: {exc}") from exc


__all__ = [
    "Tape",
    "tape_index",
    "tape_to_state",
    "read_symbol",
    "shift_tape",
    "run_tape",
    "joint_tape_evolution",
    "replicate_tape",
    "format_tape",
    "parse_tape",
    "tape_to_json",
    "tape_from_json",
]
