"""Self-replicating units: a program tape plus its translated payload.

An automaton's full state is (tape state) ⊗ (payload state). Tapes live in
the orthogonal basis family, so any two automata with different tapes have
exactly zero overlap no matter how their payloads compare; that is what lets
the replication cycle copy tapes without violating the no-copying bound for
general states.

The replication cycle has two steps: (1) copy the tape cell by cell with the
basis cloner, certifying every distinct symbol's copy in one batch; (2)
rebuild the payload by running the child's tape through the parent's gate
set on a blank register. The child's tape is then checked against the
parent's registry, so heredity is a checked outcome rather than an
implementation shortcut: its cells must equal the registry's layout (each
segment followed by one separator, built once per registry), and a tape
that does not is refused, its last cell and its separator count saying
whether it is undecodable or encodes other segments. Only then does the
child carry the parent's registry, which that check has shown equal to the
one its tape encodes.

Program segments are laid out on the tape as symbol runs over {1, …, n−1},
each terminated by one separator cell (symbol 0), making the layout
self-delimiting. Program states are the basis states of those segments; the
ambient rule that reads a program state and applies the operator it encodes
is the simulator itself (``scattering_apply``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
from .linalg import Operator, StateVector, _integer, _state_with_amps, apply_sequence, basis_state
from .linalg import fidelity, identity
from .tape import Tape, format_tape, parse_tape, replicate_tape, tape_to_state

SEPARATOR = 0


@dataclass(frozen=True, eq=False)
class ProgramRegistry:
    """Named tape segments plus the gate set that gives them meaning.

    Segment symbols are restricted to {1, …, n−1}: symbol 0 is reserved as
    the on-tape segment terminator.
    """

    gate_set: GateSet
    segments: tuple[tuple[str, tuple[int, ...]], ...]
    _layout: tuple[int, ...] = field(init=False, repr=False)

    def __init__(self, gate_set: GateSet, segments: Mapping[str, Sequence[int]]):
        object.__setattr__(self, "gate_set", gate_set)
        n = gate_set.n
        normalized = tuple(
            (str(name), tuple(c if type(c) is int else _integer(c, f"segment {str(name)!r} symbol") for c in cells))
            for name, cells in dict(segments).items()
        )
        names = [name for name, _ in normalized]
        if len(set(names)) != len(names):
            raise ContractError("segment names must be unique")
        for name, cells in normalized:
            for c in cells:
                if not 1 <= c < n:
                    raise ContractError(
                        f"segment {name!r} holds symbol {c}; symbols must lie in "
                        f"[1, {n - 1}] (0 is the separator)"
                    )
        object.__setattr__(self, "segments", normalized)
        # The cells encode_tape lays out: each segment followed by one separator.
        layout = tuple(itertools.chain.from_iterable((*cells, SEPARATOR) for _, cells in normalized))
        object.__setattr__(self, "_layout", layout)

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
    if not registry._layout:
        raise ContractError("cannot encode an empty registry onto a tape")
    return Tape(registry.gate_set.n, registry._layout, head)


def _encodes(t: Tape, registry: ProgramRegistry) -> bool:
    """Whether the tape decodes into exactly the registry's segments.

    With matching alphabets, it does exactly when its cells are the
    registry's layout: segments hold no separator and each ends in one, so no
    other cells decode into them. Any other tape is refused without being
    decoded: UndecodableProgramError when the alphabets differ, the last cell
    is not a separator (the trailing segment is unterminated) or the tape
    holds a different number of separators than the registry has segments,
    and False otherwise.
    """
    if t.alphabet_size != registry.gate_set.n:
        raise UndecodableProgramError(
            f"tape alphabet {t.alphabet_size} does not match gate set size {registry.gate_set.n}"
        )
    if t.cells == registry._layout:
        return True
    if t.cells[-1] != SEPARATOR:
        raise UndecodableProgramError(
            "tape does not end on a separator; trailing segment is unterminated"
        )
    count = t.cells.count(SEPARATOR)
    if count != len(registry.segments):
        raise UndecodableProgramError(
            f"tape decodes into {count} segments, registry names {len(registry.segments)}"
        )
    return False


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
    # A tape has at least one cell, so the kernel returns its own new buffer.
    return _state_with_amps(apply_sequence(matrices, reversed(t.cells), blank.amps))


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
    """A tape, its translated payload, the registry its tape encodes."""

    tape: Tape
    payload: StateVector
    registry: ProgramRegistry
    generation: int = 0

    def __post_init__(self) -> None:
        generation = _integer(self.generation, "generation")
        if generation < 0:
            raise ContractError(f"generation must be non-negative, got {generation}")
        object.__setattr__(self, "generation", generation)
        translation = translate(self.tape, self.registry)
        if self.payload.dim != self.registry.gate_set.dim:
            raise ContractError(
                f"payload dim {self.payload.dim} does not match "
                f"gate dim {self.registry.gate_set.dim}"
            )
        achieved = fidelity(self.payload, translation)
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
    step 2 translates the child tape with the PARENT's gate set, then demands
    that the child's tape encode the parent's segments (``_encodes``). The
    child then carries the parent's registry (immutable, and by that check
    equal to the one its tape encodes) rather than a rebuilt copy.
    """
    child_tape = replicate_tape(parent.tape)
    child_payload = translate(child_tape, parent.registry)
    if not _encodes(child_tape, parent.registry):
        raise CorruptedHeredityError(
            "child registry decoded from its tape does not match the parent registry"
        )
    child = Automaton(child_tape, child_payload, parent.registry, parent.generation + 1)
    return parent, child


def automaton_overlap(a: Automaton, b: Automaton) -> complex:
    """Inner product of full automaton states: ⟨T_a|T_b⟩ · ⟨payload_a|payload_b⟩.

    Zero whenever the tapes differ, regardless of the payloads, because tape
    states are exact basis vectors.
    """
    return tape_payload_overlap(a.tape, a.payload, b.tape, b.payload)


def tape_payload_overlap(ta: Tape, pa: StateVector, tb: Tape, pb: StateVector) -> complex:
    """``automaton_overlap`` of the tape ⊗ payload states (ta, pa) and (tb, pb),
    which need not be automata: a payload is not checked against its tape."""
    if ta.alphabet_size != tb.alphabet_size or ta.length != tb.length or pa.dim != pb.dim:
        raise ContractError("automaton overlap requires matching tape and payload spaces")
    tape_ip = 1.0 if ta.cells == tb.cells else 0.0
    return complex(tape_ip * np.vdot(pa.amps, pb.amps))


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
    registry = registry_from_json(obj["registry"])
    t = parse_tape(obj["tape"]) if isinstance(obj["tape"], str) else None
    if t is None:
        raise InputError("automaton.tape: expected a tape text string")
    try:
        payload = translate(t, registry)
        if not _encodes(t, registry):
            raise InputError("automaton: registry segments differ from the ones its tape encodes")
        return Automaton(t, payload, registry, obj.get("generation", 0))
    except ContractError as exc:
        raise InputError(f"automaton: {exc}") from exc
