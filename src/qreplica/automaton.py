"""Self-replicating units: a program tape plus its translated payload.

An automaton's full state is (tape state) ⊗ (payload state). Tapes live in
the orthogonal basis family, so any two automata with different tapes have
exactly zero overlap no matter how their payloads compare; that is what lets
the replication cycle copy tapes without violating the no-copying bound for
general states.

The replication cycle has two steps: (1) copy the tape cell by cell with the
basis cloner, certifying each distinct symbol's copy once; (2) rebuild the
payload by running the child's tape through the parent's gate set on a blank
register. The child's own registry is then decoded from its tape and must
match the parent's, so heredity is a checked outcome rather than an
implementation shortcut.

Program segments are laid out on the tape as symbol runs over {1, …, n−1},
each terminated by one separator cell (symbol 0), making the layout
self-delimiting. Program states are the basis states of those segments; the
ambient rule that reads a program state and applies the operator it encodes
is the simulator itself (``scattering_apply``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import config
from .approx import GateSet, gate_set_from_json, gate_set_to_json
from .basis_ops import cloner, conditional_dynamics, densify, shift_power
from .errors import (
    ContractError,
    CorruptedHeredityError,
    InputError,
    UndecodableProgramError,
)
from .linalg import Operator, StateVector, apply_sequence, basis_state, fidelity, identity
from .tape import Tape, _integer, format_tape, parse_tape, replicate_tape, tape_to_state

SEPARATOR = 0


@dataclass(frozen=True, eq=False)
class ProgramRegistry:
    """Named tape segments plus the gate set that gives them meaning.

    Segment symbols are restricted to {1, …, n−1}: symbol 0 is reserved as
    the on-tape segment terminator.
    """

    gate_set: GateSet
    segments: tuple[tuple[str, tuple[int, ...]], ...]

    def __init__(self, gate_set: GateSet, segments: Mapping[str, Sequence[int]]):
        object.__setattr__(self, "gate_set", gate_set)
        normalized = tuple(
            (
                str(name),
                tuple(
                    c if type(c) is int else _integer(c, f"segment {name!r} symbol")
                    for c in cells
                ),
            )
            for name, cells in dict(segments).items()
        )
        names = [name for name, _ in normalized]
        if len(set(names)) != len(names):
            raise ContractError("segment names must be unique")
        for name, cells in normalized:
            for c in cells:
                if not 1 <= c < gate_set.n:
                    raise ContractError(
                        f"segment {name!r} holds symbol {c}; symbols must lie in "
                        f"[1, {gate_set.n - 1}] (0 is the separator)"
                    )
        object.__setattr__(self, "segments", normalized)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.segments)

    def segment(self, name: str) -> tuple[int, ...]:
        for seg_name, cells in self.segments:
            if seg_name == name:
                return cells
        raise ContractError(f"no segment named {name!r}")


def encode_tape(registry: ProgramRegistry, head: int = 0) -> Tape:
    """Lay the registry's segments onto one tape, each followed by a separator."""
    cells: list[int] = []
    for _, segment in registry.segments:
        cells.extend(segment)
        cells.append(SEPARATOR)
    if not cells:
        raise ContractError("cannot encode an empty registry onto a tape")
    return Tape(registry.gate_set.n, tuple(cells), head)


def split_segments(t: Tape) -> tuple[tuple[int, ...], ...]:
    """Split tape cells into separator-terminated segments.

    Raises UndecodableProgramError when the final segment is unterminated.
    """
    segments: list[tuple[int, ...]] = []
    current: list[int] = []
    for c in t.cells:
        if c == SEPARATOR:
            segments.append(tuple(current))
            current = []
        else:
            current.append(c)
    if current:
        raise UndecodableProgramError(
            "tape does not end on a separator; trailing segment is unterminated"
        )
    return tuple(segments)


def registry_from_tape(t: Tape, parent: ProgramRegistry) -> ProgramRegistry:
    """Decode a registry from a tape, naming segments in the parent's order."""
    if t.alphabet_size != parent.gate_set.n:
        raise UndecodableProgramError(
            f"tape alphabet {t.alphabet_size} does not match gate set size {parent.gate_set.n}"
        )
    segments = split_segments(t)
    names = parent.names
    if len(segments) != len(names):
        raise UndecodableProgramError(
            f"tape decodes into {len(segments)} segments, registry names {len(names)}"
        )
    return ProgramRegistry(parent.gate_set, dict(zip(names, segments)))


def program_state(registry: ProgramRegistry, name: str) -> StateVector:
    """The basis state encoding one registered segment.

    The empty segment lives in a one-dimensional program space and encodes
    the identity.
    """
    segment = registry.segment(name)
    if not segment:
        return StateVector(np.array([1.0], dtype=complex))
    return tape_to_state(Tape(registry.gate_set.n, segment))


def translate(t: Tape, registry: ProgramRegistry) -> StateVector:
    """Run the whole tape on a blank register: the tape's translation.

    Distinct tapes may translate to the same payload (translations are not
    pairwise orthogonal the way tape states are); nothing is asserted about
    payload overlaps here.
    """
    if t.alphabet_size != registry.gate_set.n:
        raise UndecodableProgramError(
            f"tape alphabet {t.alphabet_size} does not match gate set size {registry.gate_set.n}"
        )
    matrices = [gate.entries for gate in registry.gate_set.gates]
    blank = basis_state(registry.gate_set.dim, 0)
    return StateVector(apply_sequence(matrices, reversed(t.cells), blank.amps))


def scattering_apply(
    program: StateVector, psi: StateVector, registry: ProgramRegistry
) -> StateVector:
    """Apply the operator a program state encodes to a data state.

    The program factor must be, within PROGRAM_DECODE_TOL, one exact basis
    state of a tape register over the registry's alphabet; its digits select
    the gate sequence (least significant digit applied first). The program
    factor itself is untouched, block-diagonal style, so the caller keeps it.

    Superposed program states are refused: the rule is only defined on the
    orthogonal program family.
    """
    n = registry.gate_set.n
    dim = program.dim
    length = 0
    probe = 1
    # Powers of a 1-symbol alphabet never grow: only the 1-dim program decodes.
    while probe < dim and n > 1:
        probe *= n
        length += 1
    if probe != dim:
        raise UndecodableProgramError(
            f"program dim {dim} is not a power of the alphabet size {n}"
        )
    top = int(np.argmax(np.abs(program.amps)))
    if abs(program.amps[top]) ** 2 < 1.0 - config.PROGRAM_DECODE_TOL:
        raise UndecodableProgramError(
            "program state is not a basis tape state (superposed beyond PROGRAM_DECODE_TOL)"
        )
    if psi.dim != registry.gate_set.dim:
        raise ContractError(
            f"data state dim {psi.dim} does not match gate dim {registry.gate_set.dim}"
        )
    matrices = [gate.entries for gate in registry.gate_set.gates]
    digits = [top // n**k % n for k in range(length)]
    return StateVector(apply_sequence(matrices, digits, psi.amps))


@dataclass(frozen=True, eq=False)
class Automaton:
    """A tape, its translated payload, the registry decoded from the tape."""

    tape: Tape
    payload: StateVector
    registry: ProgramRegistry
    generation: int = 0

    def __post_init__(self) -> None:
        generation = _integer(self.generation, "generation")
        if generation < 0:
            raise ContractError(f"generation must be non-negative, got {generation}")
        object.__setattr__(self, "generation", generation)
        if self.tape.alphabet_size != self.registry.gate_set.n:
            raise ContractError(
                f"tape alphabet {self.tape.alphabet_size} does not match "
                f"gate set size {self.registry.gate_set.n}"
            )
        if self.payload.dim != self.registry.gate_set.dim:
            raise ContractError(
                f"payload dim {self.payload.dim} does not match "
                f"gate dim {self.registry.gate_set.dim}"
            )
        achieved = fidelity(self.payload, translate(self.tape, self.registry))
        if achieved < 1.0 - config.TRANSLATED_TOL:
            raise ContractError(
                f"payload has fidelity {achieved!r} to the tape's translation, "
                "below 1 - TRANSLATED_TOL"
            )

    @classmethod
    def from_registry(cls, registry: ProgramRegistry, generation: int = 0) -> "Automaton":
        t = encode_tape(registry)
        return cls(t, translate(t, registry), registry, generation)


def replicate(parent: Automaton) -> tuple[Automaton, Automaton]:
    """One full replication cycle; returns (parent, child).

    Step 1 copies the tape cell by cell, certifying each distinct symbol once;
    step 2 translates the child tape with the PARENT's gate set, then decodes
    the child's own registry from its tape and demands it match the parent's.
    """
    _, child_tape = replicate_tape(parent.tape)
    child_payload = translate(child_tape, parent.registry)
    child_registry = registry_from_tape(child_tape, parent.registry)
    if child_registry.segments != parent.registry.segments:
        raise CorruptedHeredityError(
            "child registry decoded from its tape does not match the parent registry"
        )
    child = Automaton(child_tape, child_payload, child_registry, parent.generation + 1)
    return parent, child


def automaton_overlap(a: Automaton, b: Automaton) -> complex:
    """Inner product of full automaton states: ⟨T_a|T_b⟩ · ⟨payload_a|payload_b⟩.

    Zero whenever the tapes differ, regardless of the payloads, because tape
    states are exact basis vectors.
    """
    if (
        a.tape.alphabet_size != b.tape.alphabet_size
        or a.tape.length != b.tape.length
        or a.payload.dim != b.payload.dim
    ):
        raise ContractError("automaton overlap requires matching tape and payload spaces")
    tape_ip = 1.0 if a.tape.cells == b.tape.cells else 0.0
    return complex(tape_ip * np.vdot(a.payload.amps, b.payload.amps))


def demo_registry(n: int = 2) -> ProgramRegistry:
    """A small working registry over the n² joint space.

    Gate 0 is the do-nothing separator gate; gate 1 copies basis states of
    the control onto the target; gate 2 is a conditional-dynamics unitary
    with Fourier-rotated blocks; gate 3 composes the two. Segments "C", "D"
    and a composite "G" are registered.
    """
    if n < 2:
        raise ContractError(f"demo registry needs a basis of at least 2, got {n}")
    copy_gate = densify(cloner(n))
    cond_gate = densify(conditional_dynamics(demo_conditional_blocks(n)))
    mix_gate = Operator(cond_gate.entries @ copy_gate.entries)
    gates = GateSet(
        (identity(n * n), copy_gate, cond_gate, mix_gate),
        ("nop", "clone", "cond", "mix"),
    )
    return ProgramRegistry(gates, {"C": (1,), "D": (2,), "G": (3, 1)})


def demo_automaton(n: int = 2) -> Automaton:
    return Automaton.from_registry(demo_registry(n))


def demo_conditional_blocks(n: int) -> tuple[Operator, ...]:
    """The block family used by the demo registry's conditional-dynamics gate."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    fourier = np.exp(2j * np.pi * j * k / n) / np.sqrt(n)
    return tuple(Operator(fourier @ shift_power(n, l).entries) for l in range(n))


# -- JSON wire format ---------------------------------------------------------


def registry_to_json(registry: ProgramRegistry) -> dict:
    return {
        "gate_set": gate_set_to_json(registry.gate_set),
        "segments": {name: list(cells) for name, cells in registry.segments},
    }


def registry_from_json(obj) -> ProgramRegistry:
    if not isinstance(obj, dict) or "gate_set" not in obj or "segments" not in obj:
        raise InputError("registry: expected a JSON object with 'gate_set' and 'segments'")
    segments = obj["segments"]
    if not isinstance(segments, dict):
        raise InputError("registry.segments: expected an object mapping names to symbol lists")
    for name, cells in segments.items():
        if not isinstance(cells, list):
            raise InputError(f"registry.segments[{name!r}]: expected a list of integers")
    try:
        return ProgramRegistry(gate_set_from_json(obj["gate_set"]), segments)
    except ContractError as exc:
        raise InputError(f"registry: {exc}") from exc


def automaton_to_json(a: Automaton) -> dict:
    return {
        "tape": format_tape(a.tape),
        "registry": registry_to_json(a.registry),
        "generation": a.generation,
    }


def automaton_from_json(obj) -> Automaton:
    if not isinstance(obj, dict) or "tape" not in obj or "registry" not in obj:
        raise InputError("automaton: expected a JSON object with 'tape' and 'registry'")
    generation = obj.get("generation", 0)
    if not isinstance(generation, int) or isinstance(generation, bool) or generation < 0:
        raise InputError(f"automaton.generation: expected a non-negative integer, got {generation!r}")
    registry = registry_from_json(obj["registry"])
    t = parse_tape(obj["tape"]) if isinstance(obj["tape"], str) else None
    if t is None:
        raise InputError("automaton.tape: expected a tape text string")
    try:
        payload = translate(t, registry)
        return Automaton(t, payload, registry, generation)
    except (ContractError, UndecodableProgramError) as exc:
        raise InputError(f"automaton: {exc}") from exc
