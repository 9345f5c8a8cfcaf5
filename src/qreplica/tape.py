"""The cyclic program tape: symbol sequences as orthogonal basis states.

Cell numbering follows the positional-numeral convention: a tape's ``cells``
tuple is written most-significant-first, so ``cells[-1]`` is cell 1, the cell
read first and the least significant digit of the tape's basis index. A tape
of s cells over an alphabet of n symbols is one of n^s pairwise-orthogonal
product basis states.

The head is a 0-based cell counter: head h means cell h+1 is read next. The
head moves cyclically, so a pass over all s cells ends where it began.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import config
from .basis_ops import _copy_rows
from .errors import ContractError, InputError, ReplicationIntegrityError
from .linalg import StateVector, _check_capacity, _check_unitary_family, _integer, _state_with_amps
from .linalg import apply_sequence, basis_state


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
        cells = tuple(_cell(c, i, n) for i, c in enumerate(self.cells))
        if not cells:
            raise ContractError("a tape needs at least one cell")
        head = _integer(self.head, "head")
        if not 0 <= head < len(cells):
            raise ContractError(f"head {head} out of range for {len(cells)} cells")
        object.__setattr__(self, "alphabet_size", n)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "head", head)

    @property
    def length(self) -> int:
        return len(self.cells)


def _cell(c, i: int, n: int) -> int:
    """Cell i's symbol as a plain int, or the ContractError that refuses it."""
    if type(c) is not int:
        c = _integer(c, f"cell {i}")
    if not 0 <= c < n:
        raise ContractError(f"cell {i} holds symbol {c}, outside alphabet of size {n}")
    return c


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


def _check_gates(t: Tape, gates, payload_dim: int) -> None:
    if len(gates) != t.alphabet_size:
        raise ContractError(
            f"need one gate per symbol: got {len(gates)} gates for alphabet {t.alphabet_size}"
        )
    _check_unitary_family(gates, "gate", payload_dim)


def run_tape(t: Tape, gates, payload: StateVector) -> StateVector:
    """Apply the gate selected by each cell in cell order, cell 1 first.

    Returns the transformed payload; the tape itself is unchanged (the head
    cycles through all cells and returns to its starting position).
    """
    _check_gates(t, gates, payload.dim)
    if t.head != 0:
        raise ContractError(f"run_tape starts at cell 1, got head {t.head}")
    matrices = [gate.entries for gate in gates]
    # A tape has at least one cell, so the kernel returns its own new buffer.
    return _state_with_amps(apply_sequence(matrices, reversed(t.cells), payload.amps))


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
    # The tape's basis state ⊗ payload: the payload in the tape's row of m.
    joint = np.zeros(n**s * m, dtype=complex)
    row = tape_index(t) * m
    joint[row : row + m] = payload.amps
    # Each step writes into the other of two buffers.
    spare = np.empty_like(joint)
    for _ in range(s):
        slices = joint.reshape(n ** (s - 1), n, m)
        rotated = spare.reshape(n, n ** (s - 1), m)
        # einsum, not matmul: BLAS and numpy's complex multiply use FMA and change the bits.
        for l in range(n):
            np.einsum("ij,rj->ri", stack[l], slices[:, l, :], out=rotated[l])
        joint, spare = spare, joint
    return _state_with_amps(joint)


def joint_check(t: Tape, gates, payload: StateVector, expected: StateVector) -> tuple[float, float]:
    """Check the joint evolution against ``expected``, the product-form result.

    Returns (leak, deviation): the largest amplitude left on any tape state
    other than t's own, and the largest entry of |payload rows under t's
    state − expected|. The tape theorem says leak is exactly 0.
    """
    joint = joint_tape_evolution(t, gates, payload)
    rows = joint.amps.reshape(t.alphabet_size**t.length, payload.dim)
    index = tape_index(t)
    others = np.delete(rows, index, axis=0)
    leak = float(np.max(np.abs(others))) if others.size else 0.0
    return leak, float(np.max(np.abs(rows[index] - expected.amps)))


def replicate_tape(t: Tape) -> Tape:
    """The child tape: t copied cell by cell onto blank cells, each distinct symbol certified.

    A symbol is copied by applying the basis cloner to (symbol, blank) and
    checking the result against the perfect copy; the child's symbol is then
    read back out of the certified output rather than taken on trust. The
    cloner is deterministic, so one copy check per generation certifies every
    distinct symbol: the distinct symbols, taken in head-read order, are the
    rows of one identity batch, and one argmax over the output rows reads
    every copy back. Each cell is filled from its symbol's certified copy;
    when every distinct symbol reads back as itself, that child equals the
    parent, and the (immutable) parent tape is returned as the child. Raises
    ReplicationIntegrityError if a copy fidelity falls below
    1 − REPLICATION_TOL, for the first such symbol in head-read order, naming
    the first cell the head reads it in.
    """
    n, s, head = t.alphabet_size, t.length, t.head
    # Cells in the order the head reads them, starting under the head: cell
    # s − 1 − head down to cell 0, then from cell s − 1 round to s − head.
    read = t.cells[s - head - 1 :: -1] + t.cells[: s - head - 1 : -1]
    symbols = tuple(dict.fromkeys(read))
    # Row k is the basis state |symbols[k]⟩; as basis_state does, refuse an n over budget before allocating,
    # with the one read of the budget that the copy check's own checks use too.
    limit = config.max_dim()
    _check_capacity(n, "basis state", limit)
    batch = np.zeros((len(symbols), n), dtype=complex)
    batch[range(len(symbols)), symbols] = 1.0
    rows, fidelities = _copy_rows(batch, limit=limit)
    for symbol, achieved in zip(symbols, fidelities):
        if achieved < 1.0 - config.REPLICATION_TOL:
            pos = s - 1 - (head + read.index(symbol)) % s
            raise ReplicationIntegrityError(
                f"cell {pos} copy fidelity {achieved!r} below 1 - REPLICATION_TOL; "
                "cloner wiring is broken"
            )
    # A certified output peaks at index symbol·n + copy: the copy register is the fast index.
    copied = tuple((np.abs(rows).argmax(axis=1) % n).tolist())
    if copied == symbols:
        return t
    copies = dict(zip(symbols, copied))
    return Tape(n, tuple(map(copies.__getitem__, t.cells)), head)


# -- text and JSON forms ------------------------------------------------------

_TAPE_RE = re.compile(r"^n=([0-9]+);cells=([0-9]+(?:,[0-9]+)*);head=([0-9]+)$")
# Error lines carry at most this many characters of the tape text, and of the
# reason it was refused (which may echo a number from it).
_ECHO_LIMIT = 160


def _clipped(text: str) -> str:
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "..."


def format_tape(t: Tape) -> str:
    return f"n={t.alphabet_size};cells={','.join(str(c) for c in t.cells)};head={t.head}"


def parse_tape(text: str) -> Tape:
    match = _TAPE_RE.match(text.strip())
    if match is None:
        raise InputError(
            f"tape text {_clipped(text)!r} does not match 'n=<int>;cells=<int,int,...>;head=<int>'"
        )
    n, cells, head = match.groups()
    try:
        return Tape(int(n), tuple(int(c) for c in cells.split(",")), int(head))
    except (ContractError, ValueError) as exc:
        raise InputError(f"tape text {_clipped(text)!r}: {_clipped(str(exc))}") from exc


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
    "run_tape",
    "joint_tape_evolution",
    "joint_check",
    "replicate_tape",
    "format_tape",
    "parse_tape",
    "tape_to_json",
    "tape_from_json",
]
