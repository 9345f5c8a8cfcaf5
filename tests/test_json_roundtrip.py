"""JSON round trips are exact.

Every object written by a ``*_to_json`` writer, serialised to text and read
back by the matching ``*_from_json`` reader, comes back with bit-equal arrays,
equal labels, cells and segments, and (for automata) a bit-equal payload.
Python writes each float as the shortest text that reads back to the same
double, so nothing may be lost on the way.
"""

import dataclasses
import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qreplica.approx import GateSet, gate_set_from_json, gate_set_to_json
from qreplica.automaton import (
    Automaton,
    ProgramRegistry,
    automaton_from_json,
    automaton_to_json,
    registry_from_json,
    registry_to_json,
)
from qreplica.linalg import (
    StateVector,
    operator_from_json,
    operator_to_json,
    random_state,
    random_unitary,
    state_from_json,
    state_to_json,
)
from qreplica.tape import Tape, format_tape, parse_tape, tape_from_json, tape_to_json

SEEDS = st.integers(0, 2**32 - 1)


def through_text(doc):
    return json.loads(json.dumps(doc))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_gate_sets(a: GateSet, b: GateSet) -> bool:
    return a.labels == b.labels and all(same_bits(x.entries, y.entries) for x, y in zip(a.gates, b.gates, strict=True))


@st.composite
def gate_sets(draw, min_gates=1):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(min_gates, 4))
    rng = np.random.default_rng(draw(SEEDS))
    labels = draw(st.lists(st.text(max_size=6), min_size=n, max_size=n, unique=True) | st.just([]))
    return GateSet(tuple(random_unitary(dim, rng) for _ in range(n)), tuple(labels))


@st.composite
def tapes(draw):
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    return Tape(n, tuple(cells), draw(st.integers(0, len(cells) - 1)))


@st.composite
def registries(draw, min_segments=0):
    gates = draw(gate_sets(min_gates=2))
    names = draw(st.lists(st.text(max_size=4), min_size=min_segments, max_size=4, unique=True))
    symbols = st.lists(st.integers(1, gates.n - 1), max_size=5)
    return ProgramRegistry(gates, {name: draw(symbols) for name in names})


@given(dim=st.integers(1, 16), seed=SEEDS, basis=st.booleans())
def test_state_round_trip(dim, seed, basis):
    rng = np.random.default_rng(seed)
    state = random_state(dim, rng)
    if basis:
        # Exact zeros, a negative zero and a unit entry.
        k = int(rng.integers(dim))
        amps = np.zeros(dim, dtype=complex)
        amps[k] = -1.0
        if dim > 1:
            amps[(k + 1) % dim] = complex(-0.0, -0.0)
        state = StateVector(amps)
    back = state_from_json(through_text(state_to_json(state)))
    assert same_bits(back.amps, state.amps)


@given(dim=st.integers(1, 8), seed=SEEDS)
def test_operator_round_trip(dim, seed):
    op = random_unitary(dim, np.random.default_rng(seed))
    assert same_bits(operator_from_json(through_text(operator_to_json(op))).entries, op.entries)


@given(gates=gate_sets())
def test_gate_set_round_trip(gates):
    assert same_gate_sets(gate_set_from_json(through_text(gate_set_to_json(gates))), gates)


@given(tape=tapes())
def test_tape_round_trip(tape):
    for back in (tape_from_json(through_text(tape_to_json(tape))), parse_tape(format_tape(tape))):
        assert (back.alphabet_size, back.cells, back.head) == (tape.alphabet_size, tape.cells, tape.head)


@given(registry=registries())
def test_registry_round_trip(registry):
    back = registry_from_json(through_text(registry_to_json(registry)))
    assert back.segments == registry.segments
    assert same_gate_sets(back.gate_set, registry.gate_set)


@given(registry=registries(min_segments=1), generation=st.integers(0, 2**63))
def test_automaton_round_trip(registry, generation):
    automaton = dataclasses.replace(Automaton.from_registry(registry), generation=generation)
    back = automaton_from_json(through_text(automaton_to_json(automaton)))
    assert back.tape == automaton.tape
    assert back.generation == automaton.generation
    assert back.registry.segments == automaton.registry.segments
    assert same_gate_sets(back.registry.gate_set, automaton.registry.gate_set)
    assert same_bits(back.payload.amps, automaton.payload.amps)
