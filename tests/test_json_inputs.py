"""External inputs: any JSON value is parsed into a valid object or refused as InputError.

Each reader gets arbitrary JSON values and valid documents with one field
replaced or dropped. The replacements include integers beyond float range,
NaN and the infinities, which ``json.loads`` accepts. Whatever the value, a
reader returns an object of its type, whose constructor has checked it, or
raises InputError. It raises nothing else, and numpy warns of nothing.

The readers of [re, im] pairs must also agree with a copy of the per-value
reader they replaced: the same entries bit for bit, or the same error text.
A family of operators decoded as one stack must certify each member as that
member's own Operator does, and refuse a bad family naming the same member.
"""

import copy
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qreplica import approx, basis_ops, linalg
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
from qreplica.errors import ContractError, InputError
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
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, (list, tuple)) else ()
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


# -- the array decoder against the per-value reader -----------------------------
#
# The readers decode a nest of [re, im] pairs with one np.array call. The oracle
# is a copy of the per-value reader they replaced: every value checked and
# converted with float() on its own. On any input, a reader must return what
# the oracle returns, bit for bit, or raise the oracle's exact InputError.


def _oracle_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{where}: integer too large for a float") from None


def _oracle_complex(value, where):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputError(f"{where}: expected an [re, im] pair, got {value!r}")
    return complex(_oracle_number(value[0], where), _oracle_number(value[1], where))


def oracle_state(obj):
    if not isinstance(obj, dict):
        raise InputError(f"state: expected a JSON object, got {type(obj).__name__}")
    if "dim" not in obj or "amps" not in obj:
        raise InputError("state: missing required keys 'dim' and 'amps'")
    dim, amps = obj["dim"], obj["amps"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"state.dim: expected a positive integer, got {dim!r}")
    if not isinstance(amps, list) or len(amps) != dim:
        raise InputError(f"state.amps: expected a list of {dim} amplitude pairs")
    values = [_oracle_complex(v, f"state.amps[{i}]") for i, v in enumerate(amps)]
    try:
        return StateVector(np.array(values, dtype=complex))
    except ContractError as exc:
        raise InputError(f"state: {exc}") from exc


def oracle_operator(obj):
    if not isinstance(obj, dict):
        raise InputError(f"operator: expected a JSON object, got {type(obj).__name__}")
    if "dim" not in obj or "rows" not in obj:
        raise InputError("operator: missing required keys 'dim' and 'rows'")
    dim, rows = obj["dim"], obj["rows"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"operator.dim: expected a positive integer, got {dim!r}")
    if not isinstance(rows, list) or len(rows) != dim:
        raise InputError(f"operator.rows: expected {dim} rows")
    matrix = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"operator.rows[{i}]: expected {dim} entries")
        for j, value in enumerate(row):
            matrix[i, j] = _oracle_complex(value, f"operator.rows[{i}][{j}]")
    try:
        return Operator(matrix)
    except ContractError as exc:
        raise InputError(f"operator: {exc}") from exc


def _with_oracle_members(module, reader):
    """``reader`` with its family members read one by one by ``oracle_operator``."""

    def read(obj):
        with mock.patch.object(module, "_operators_from_json", lambda objs: tuple(map(oracle_operator, objs))):
            return reader(obj)

    return read


def _arrays(result):
    """Every complex array a reader's result holds, with its residual if it has one."""
    if isinstance(result, StateVector):
        return [(result.amps, None)]
    if isinstance(result, Operator):
        return [(result.entries, result.unitary_residual)]
    members = result.blocks if isinstance(result, ControlledOperator) else result.gates
    return [(op.entries, op.unitary_residual) for op in members]


def _outcome(reader, doc):
    try:
        return "read", _arrays(reader(doc))
    except InputError as exc:
        return "refused", str(exc)


def assert_matches_oracle(reader, oracle, doc):
    got, want = _outcome(reader, doc), _outcome(oracle, copy.deepcopy(doc))
    assert got[0] == want[0], (got, want)
    if got[0] == "refused":
        assert got[1] == want[1]
        return
    assert len(got[1]) == len(want[1])
    for (a, ra), (b, rb) in zip(got[1], want[1]):
        assert a.shape == b.shape and a.dtype == b.dtype == np.complex128
        # Compared as integers, so -0.0 and 0.0 differ.
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert ra == rb


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.integers(-(10**310), 10**310),
    st.sampled_from([0, 1, -1, -0.0, 2**53 + 1, 2**63, 2**63 + 1, 2**64 + 1, -(2**63) - 1, HUGE, -HUGE]),
)
NOT_NUMBERS = st.sampled_from([True, False, None, "1.5", "0", "nan", [], {}])


def _set(nest, path, value):
    parent = nest
    for i in path[:-1]:
        parent = parent[i]
    if isinstance(parent, tuple):  # rebuild the tuple one level up
        _set(nest, path[:-1], parent[: path[-1]] + (value,) + parent[path[-1] + 1 :])
    else:
        parent[path[-1]] = value


def _get(nest, path):
    for i in path:
        nest = nest[i]
    return nest


@st.composite
def edited(draw, nest):
    """``nest`` with up to three edits: a value replaced by a number or a non-number,
    a node made a tuple, wrapped in a list, shortened, lengthened or dropped."""
    nest = copy.deepcopy(nest)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(nest))
        if not paths:
            break
        # Depth first, so that rows and pairs are edited as often as values.
        depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        node = _get(nest, path)
        edit = draw(st.sampled_from(["number", "number", "not a number", "tuple", "wrap", "shorten", "lengthen", "drop"]))
        if edit == "number":
            _set(nest, path, draw(NUMBERS))
        elif edit == "not a number":
            _set(nest, path, copy.deepcopy(draw(NOT_NUMBERS)))  # later edits may change it
        elif edit == "tuple" and isinstance(node, list):
            _set(nest, path, tuple(node))
        elif edit == "wrap":
            _set(nest, path, [node])
        elif edit == "shorten" and isinstance(node, list) and node:
            node.pop()
        elif edit == "lengthen" and isinstance(node, list):
            node.append(copy.deepcopy(node[0]) if node and isinstance(node[0], list) else draw(NUMBERS))
        elif edit == "drop":
            parent = _get(nest, path[:-1])
            if isinstance(parent, list) and len(parent) > 1:
                del parent[path[-1]]
    return nest


@st.composite
def int_matrices(draw, dim):
    """A permutation written with JSON ints: unitary, so families accept it."""
    perm = draw(st.permutations(range(dim)))
    return [[[1 if perm[i] == j else 0, 0] for j in range(dim)] for i in range(dim)]


@st.composite
def operator_rows(draw, dim):
    if draw(st.booleans()):
        return draw(int_matrices(dim))
    return [_pairs(row) for row in random_unitary(dim, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))).entries]


@given(data=st.data(), dim=st.integers(1, 6))
def test_state_reader_matches_the_per_value_reader(data, dim):
    if data.draw(st.booleans()):
        amps = [[1, 0] if i == 0 else [0, 0] for i in range(dim)]
    else:
        amps = _pairs(random_state(dim, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))).amps)
    amps = data.draw(edited(amps))
    assert_matches_oracle(state_from_json, oracle_state, {"dim": dim, "amps": amps})


@given(data=st.data(), dim=st.integers(1, 5))
def test_operator_reader_matches_the_per_value_reader(data, dim):
    # Any finite square matrix is read, unitary or not, so edited numbers of every
    # size reach the returned entries.
    rows = data.draw(edited(data.draw(operator_rows(dim))))
    assert_matches_oracle(operator_from_json, oracle_operator, {"dim": dim, "rows": rows})


FAMILY_READERS = [
    (controlled_from_json, _with_oracle_members(basis_ops, controlled_from_json), "blocks"),
    (gate_set_from_json, _with_oracle_members(approx, gate_set_from_json), "gates"),
]


@pytest.mark.parametrize("reader, oracle, key", FAMILY_READERS, ids=["controlled", "gate_set"])
@given(data=st.data(), dim=st.integers(1, 4), size=st.integers(1, 4))
def test_family_readers_match_the_per_value_reader(reader, oracle, key, data, dim, size):
    members = [{"dim": dim, "rows": data.draw(operator_rows(dim))} for _ in range(size)]
    if data.draw(st.booleans()):
        # A member of another dim, or of this dim written as no int is: 1.0, True, "1".
        other = data.draw(st.integers(1, 4))
        bad_dim = data.draw(st.sampled_from([other, float(dim), dim == 1, str(dim)]))
        rows = data.draw(operator_rows(other if bad_dim == other else dim))
        members[data.draw(st.integers(0, size - 1))] = {"dim": bad_dim, "rows": rows}
    rows = data.draw(edited([m["rows"] for m in members]))
    doc = {key: [{"dim": m["dim"], "rows": r} for m, r in zip(members, rows)]}
    assert_matches_oracle(reader, oracle, doc)


# -- family certificates -------------------------------------------------------


@pytest.mark.parametrize("size", [1, 3, 256])
@pytest.mark.parametrize("dim", range(1, 9))
def test_a_decoded_family_member_has_the_residual_its_own_operator_computes(dim, size):
    rng = np.random.default_rng(dim * 1000 + size)
    matrices = [random_unitary(dim, rng).entries for _ in range(size)]
    matrices[size // 2] = matrices[size // 2] * (1 + 1e-6)  # off unitarity beyond UNITARY_TOL
    docs = json.loads(json.dumps([operator_to_json(Operator(m)) for m in matrices]))
    # The family is read as one stack, not member by member.
    with mock.patch.object(linalg, "operator_from_json", side_effect=AssertionError("read member by member")):
        ops = linalg._operators_from_json(docs)
    assert not ops[size // 2].is_unitary
    for op, m in zip(ops, matrices):
        assert np.array_equal(op.entries.view(np.uint64), m.view(np.uint64))
        assert not op.entries.flags.writeable
        assert op.unitary_residual == Operator(op.entries).unitary_residual


def _family_doc(key, members):
    return {key: [{"dim": m.shape[0], "rows": [_pairs(row) for row in m]} for m in members]}


_U = [random_unitary(3, np.random.default_rng(s)).entries for s in range(4)]
_NAN = _U[2].copy()
_NAN[1, 1] = np.nan
BAD_FAMILIES = {
    "wrong dim": [_U[0], random_unitary(2, _rng).entries, _U[1] * 2, _U[3]],
    # A member its own reader refuses is named before an earlier non-unitary one.
    "non-finite": [_U[0], _U[1] * 1.01, _NAN, _U[3]],
    "non-unitary": [_U[0], _U[1] * 1.01, _U[2], _U[3] * 2],
}


@pytest.mark.parametrize("reader, oracle, key", FAMILY_READERS, ids=["controlled", "gate_set"])
@pytest.mark.parametrize("case", list(BAD_FAMILIES))
def test_a_bad_family_is_refused_naming_the_first_bad_member(reader, oracle, key, case):
    doc = json.loads(json.dumps(_family_doc(key, BAD_FAMILIES[case])))
    with pytest.raises(InputError) as got:
        reader(doc)
    with pytest.raises(InputError) as want:
        oracle(doc)
    assert str(got.value) == str(want.value)
    member = "block" if key == "blocks" else "gate"
    if case != "non-finite":  # the member's own reader refuses it, unnamed, as before
        assert f"{member} 1 " in str(got.value)
