"""External inputs: any JSON value is parsed into a valid object or refused as InputError.

Each reader gets arbitrary JSON values and valid documents with one field
replaced or dropped. The replacements include integers beyond float range,
NaN and the infinities, which ``json.loads`` accepts. Whatever the value, a
reader returns an object of its type, whose constructor has checked it, or
raises InputError. It raises nothing else, and numpy warns of nothing.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qreplica.approx import GateSet, gate_set_from_json, gate_set_to_json
from qreplica.automaton import (
    Automaton,
    ProgramRegistry,
    automaton_from_json,
    automaton_to_json,
    demo_automaton,
    registry_from_json,
    registry_to_json,
)
from qreplica.basis_ops import ControlledOperator, cloner, controlled_from_json, controlled_to_json
from qreplica.errors import InputError
from qreplica.linalg import (
    Operator,
    StateVector,
    operator_from_json,
    operator_to_json,
    random_state,
    random_unitary,
    state_from_json,
    state_to_json,
)
from qreplica.tape import Tape, parse_tape, tape_from_json, tape_to_json

_rng = np.random.default_rng(3)
_GATES = GateSet((random_unitary(2, _rng), random_unitary(2, _rng), random_unitary(2, _rng)), ("a", "b", "c"))

# reader, the type it returns, a valid document it accepts
READERS = [
    (state_from_json, StateVector, state_to_json(random_state(2, _rng))),
    (operator_from_json, Operator, operator_to_json(_GATES.gates[0])),
    (controlled_from_json, ControlledOperator, controlled_to_json(cloner(2))),
    (gate_set_from_json, GateSet, gate_set_to_json(_GATES)),
    (tape_from_json, Tape, tape_to_json(Tape(3, (1, 0, 2), head=1))),
    (registry_from_json, ProgramRegistry, registry_to_json(ProgramRegistry(_GATES, {"A": [1, 2], "B": []}))),
    (automaton_from_json, Automaton, automaton_to_json(demo_automaton(2))),
]

HUGE = 10**400
SPECIAL = st.sampled_from(
    [HUGE, -HUGE, 1e200, float("nan"), float("inf"), float("-inf"), 0, -1, 1, 2, 1.5, True, None, "", [], {}, [HUGE, 0]]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-HUGE, HUGE)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
    | SPECIAL
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    """Every path to a node below the root, as a tuple of keys and indices."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """A copy of doc with one node replaced by any JSON value, or one object key dropped."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(SPECIAL | JSON_VALUES)
    return doc


def _reads_or_refuses(reader, kind, value):
    try:
        result = reader(value)
    except InputError:
        return
    assert isinstance(result, kind)


BY_READER = pytest.mark.parametrize("reader, kind, doc", READERS, ids=[r[0].__name__ for r in READERS])


@BY_READER
@given(data=st.data())
def test_a_mutated_document_is_read_or_refused(reader, kind, doc, data):
    _reads_or_refuses(reader, kind, data.draw(mutated(doc)))


@given(reader=st.sampled_from(READERS), value=JSON_VALUES)
def test_any_json_value_is_read_or_refused(reader, value):
    # Almost every such value fails a reader's first type check, so one
    # example budget is shared by all readers.
    _reads_or_refuses(*reader[:2], value)


@BY_READER
def test_the_valid_document_is_read(reader, kind, doc):
    assert isinstance(reader(doc), kind)


TAPE_PIECES = st.sampled_from(["n=", "cells=", "head=", ";", ",", "0", "1", "3", str(HUGE), "9" * 5000, "-", " ", "x"])


@given(text=st.lists(TAPE_PIECES, max_size=12).map("".join) | st.text(max_size=30))
def test_any_tape_text_is_read_or_refused(text):
    _reads_or_refuses(parse_tape, Tape, text)


def test_tape_text_with_numbers_past_the_int_digit_limit_is_refused():
    # int() may refuse decimal strings of more than 4,300 digits with a ValueError;
    # either way this cell is no symbol of a 3-letter alphabet.
    with pytest.raises(InputError):
        parse_tape(f"n=3;cells={'1' * 5000};head=0")
