"""Registry encoding, tape translation, program scattering, replication cycles."""

import dataclasses
import itertools
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qreplica.automaton
from qreplica import config
from qreplica.approx import GateSet, default_gate_set
from qreplica.automaton import (
    Automaton,
    ProgramRegistry,
    automaton_from_json,
    automaton_overlap,
    automaton_to_json,
    demo_automaton,
    demo_conditional_blocks,
    demo_registry,
    encode_tape,
    program_state,
    replicate,
    scattering_apply,
    translate,
)
from qreplica.basis_ops import apply_controlled, cloner, conditional_dynamics
from qreplica.errors import (
    ContractError,
    CorruptedHeredityError,
    InputError,
    QReplicaError,
    UndecodableProgramError,
)
from qreplica.linalg import (
    Operator,
    StateVector,
    basis_state,
    fidelity,
    random_state,
    random_unitary,
)
from qreplica.tape import Tape, format_tape, run_tape, tape_to_state

from gate_products import gate_product


def registry_from_tape(t, parent):
    """Decode a registry from a tape, naming segments in the parent's order.

    The independent decoding oracle: it cuts the cells at each separator by
    itself and raises the package's UndecodableProgramError messages.
    """
    if t.alphabet_size != parent.gate_set.n:
        raise UndecodableProgramError(
            f"tape alphabet {t.alphabet_size} does not match gate set size {parent.gate_set.n}"
        )
    if t.cells[-1] != 0:
        raise UndecodableProgramError("tape does not end on a separator; trailing segment is unterminated")
    segments, current = [], []
    for c in t.cells:
        if c == 0:
            segments.append(current)
            current = []
        else:
            current.append(c)
    if len(segments) != len(parent.segments):
        raise UndecodableProgramError(
            f"tape decodes into {len(segments)} segments, registry names {len(parent.segments)}"
        )
    return ProgramRegistry(parent.gate_set, dict(zip(parent.names, segments)))


def _outcome(fn, *args):
    """fn's result, or the type and message of the package error it raised."""
    try:
        return fn(*args)
    except QReplicaError as exc:
        return type(exc), str(exc)


def diagonal_gate_set():
    """Two commuting diagonal phase gates (alphabet 2, payload dim 2)."""
    a = Operator(np.diag([1.0, np.exp(0.7j)]))
    b = Operator(np.diag([np.exp(0.3j), 1.0]))
    return GateSet((a, b))


class TestProgramRegistry:
    def test_segment_lookup(self):
        reg = demo_registry(2)
        assert reg.segment("C") == (1,)
        assert reg.segment("G") == (3, 1)
        assert reg.names == ("C", "D", "G")

    def test_separator_symbol_rejected_in_segments(self):
        g = demo_registry(2).gate_set
        with pytest.raises(ContractError, match="separator"):
            ProgramRegistry(g, {"bad": (0, 1)})

    def test_symbol_out_of_alphabet_rejected(self):
        g = demo_registry(2).gate_set
        for cells in ((4,), (1.9,), (True,), (2.0,)):
            with pytest.raises(ContractError):
                ProgramRegistry(g, {"bad": cells})

    def test_errors_name_a_segment_by_its_normalized_name(self):
        g = demo_registry(2).gate_set
        with pytest.raises(ContractError, match="^segment '1' symbol must be an integer"):
            ProgramRegistry(g, {1: [True]})
        with pytest.raises(ContractError, match="^segment '1' holds symbol 9;"):
            ProgramRegistry(g, {1: [9]})

    def test_empty_segment_allowed(self):
        g = demo_registry(2).gate_set
        reg = ProgramRegistry(g, {"noop": ()})
        assert reg.segment("noop") == ()

    def test_missing_segment(self):
        with pytest.raises(ContractError, match="no segment"):
            demo_registry(2).segment("missing")


def reference_segments(n, segments):
    """Registry validation one symbol at a time: the segments, or the error message."""
    normalized = []
    for name, cells in segments.items():
        symbols = []
        for c in cells:
            if type(c) is not int:
                if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                    return f"segment {str(name)!r} symbol must be an integer, got {c!r}"
                c = int(c)
            symbols.append(c)
        normalized.append((str(name), tuple(symbols)))
    names = [name for name, _ in normalized]
    if len(set(names)) != len(names):
        return "segment names must be unique"
    for name, cells in normalized:
        for c in cells:
            if not 1 <= c < n:
                return f"segment {name!r} holds symbol {c}; symbols must lie in [1, {n - 1}] (0 is the separator)"
    return tuple(normalized)


@given(
    segments=st.dictionaries(
        st.sampled_from(["a", "b", 1, "1"]),
        st.lists(
            st.one_of(st.integers(-1, 5), st.booleans(), st.integers(-1, 5).map(np.int64), st.just(2.0)),
            max_size=5,
        ),
        max_size=3,
    )
)
def test_segment_validation_matches_the_per_symbol_check(segments):
    gate_set = demo_registry(2).gate_set
    try:
        outcome = ProgramRegistry(gate_set, segments).segments
    except ContractError as exc:
        outcome = str(exc)
    assert outcome == reference_segments(gate_set.n, segments)
    if isinstance(outcome, tuple):
        assert all(type(c) is int for _, cells in outcome for c in cells)


class TestTapeLayout:
    def test_encode_appends_separators(self):
        t = encode_tape(demo_registry(2))
        assert t.cells == (1, 0, 2, 0, 3, 1, 0)
        assert t.head == 0

    def test_unterminated_tape_is_undecodable(self):
        with pytest.raises(UndecodableProgramError, match="separator"):
            qreplica.automaton._encodes(Tape(4, (1, 0, 2)), demo_registry(2))

    def test_decode_matches_names_in_order(self):
        reg = demo_registry(2)
        assert qreplica.automaton._encodes(encode_tape(reg), reg)
        # The same three segments with the first two swapped name other cells.
        assert not qreplica.automaton._encodes(Tape(4, (2, 0, 1, 0, 3, 1, 0)), reg)

    def test_decode_segment_count_mismatch(self):
        reg = demo_registry(2)
        with pytest.raises(UndecodableProgramError, match="^tape decodes into 1 segments, registry names 3$"):
            qreplica.automaton._encodes(Tape(4, (1, 0)), reg)


class TestTranslate:
    def test_separator_only_tape_is_blank(self):
        reg = demo_registry(2)
        out = translate(Tape(4, (0, 0)), reg)
        np.testing.assert_allclose(out.amps, basis_state(4, 0).amps, atol=1e-15)

    def test_single_symbol_tape(self):
        reg = demo_registry(2)
        for l in range(1, 4):
            out = translate(Tape(4, (l,)), reg)
            expected = reg.gate_set.gates[l].entries @ basis_state(4, 0).amps
            np.testing.assert_allclose(out.amps, expected, atol=1e-13)

    def test_commuting_gates_collapse_distinct_tapes(self):
        """Orthogonal tapes may share one translation: payloads are not
        pairwise orthogonal the way tape states are."""
        reg = ProgramRegistry(diagonal_gate_set(), {})
        t1, t2 = Tape(2, (0, 1)), Tape(2, (1, 0))
        phi1, phi2 = translate(t1, reg), translate(t2, reg)
        assert fidelity(phi1, phi2) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(tape_to_state(t1), tape_to_state(t2)) == 0.0

    def test_alphabet_mismatch_is_undecodable(self):
        with pytest.raises(UndecodableProgramError, match="alphabet"):
            translate(Tape(3, (1,)), demo_registry(2))


class TestScattering:
    def test_empty_program_is_identity(self, rng):
        reg = ProgramRegistry(demo_registry(2).gate_set, {"noop": ()})
        psi = random_state(4, rng)
        out = scattering_apply(program_state(reg, "noop"), psi, reg)
        np.testing.assert_allclose(out.amps, psi.amps, atol=1e-15)

    def test_single_symbol_program(self, rng):
        reg = demo_registry(2)
        psi = random_state(4, rng)
        for l in range(1, 4):
            program = tape_to_state(Tape(4, (l,)))
            out = scattering_apply(program, psi, reg)
            np.testing.assert_allclose(out.amps, reg.gate_set.gates[l].entries @ psi.amps, atol=1e-13)

    def test_registered_copy_program_matches_block_operator(self):
        """The tape-encoded copy program acts exactly like the built one."""
        for n in (2, 3):
            reg = demo_registry(n)
            psi_c = program_state(reg, "C")
            copier = cloner(n)
            for index in range(n * n):
                data = basis_state(n * n, index)
                out = scattering_apply(psi_c, data, reg)
                ref = apply_controlled(copier, data)
                np.testing.assert_allclose(out.amps, ref.amps, atol=1e-9)

    def test_registered_conditional_program_matches_block_operator(self):
        for n in (2, 3):
            reg = demo_registry(n)
            psi_d = program_state(reg, "D")
            cond = conditional_dynamics(demo_conditional_blocks(n))
            for index in range(n * n):
                data = basis_state(n * n, index)
                out = scattering_apply(psi_d, data, reg)
                ref = apply_controlled(cond, data)
                np.testing.assert_allclose(out.amps, ref.amps, atol=1e-9)

    def test_multi_symbol_program_matches_the_gate_product(self, rng):
        """Digits apply least significant first, as tape cells do."""
        reg = demo_registry(2)
        g = reg.gate_set
        program = tape_to_state(Tape(4, (3, 1, 2)))
        psi = random_state(4, rng)
        out = scattering_apply(program, psi, reg)
        ref = gate_product((2, 1, 3), g).entries @ psi.amps
        np.testing.assert_allclose(out.amps, ref, atol=1e-12)

    def test_superposed_program_refused(self, rng):
        reg = demo_registry(2)
        superposed = StateVector.normalized(np.ones(4))
        with pytest.raises(UndecodableProgramError, match="superposed"):
            scattering_apply(superposed, random_state(4, rng), reg)

    def test_non_power_dim_refused(self, rng):
        reg = demo_registry(2)
        with pytest.raises(UndecodableProgramError, match="power"):
            scattering_apply(basis_state(6, 0), random_state(4, rng), reg)
        # One gate: only the 1-dim program decodes; no larger dim is a power of 1.
        single = ProgramRegistry(GateSet((random_unitary(2, rng),)), {})
        with pytest.raises(UndecodableProgramError, match="power"):
            scattering_apply(basis_state(2, 0), random_state(2, rng), single)
        psi = random_state(2, rng)
        assert scattering_apply(basis_state(1, 0), psi, single).amps.tobytes() == psi.amps.tobytes()

    def test_data_dim_mismatch(self):
        reg = demo_registry(2)
        with pytest.raises(ContractError, match="data state"):
            scattering_apply(program_state(reg, "C"), basis_state(3, 0), reg)


class TestAutomaton:
    def test_from_registry_is_translated(self):
        a = demo_automaton(2)
        assert a.generation == 0
        assert fidelity(a.payload, translate(a.tape, a.registry)) == pytest.approx(1.0, abs=1e-12)

    def test_translated_phase_rejects_foreign_payload(self):
        a = demo_automaton(2)
        with pytest.raises(ContractError, match="translation"):
            Automaton(a.tape, basis_state(4, 3), a.registry)

    def test_alphabet_mismatch_is_undecodable(self):
        """The alphabet check is translate's: the same error type and text."""
        reg = demo_registry(2)
        t = Tape(3, (1, 0))
        with pytest.raises(UndecodableProgramError) as excinfo:
            Automaton(t, basis_state(4, 0), reg)
        assert str(excinfo.value) == "tape alphabet 3 does not match gate set size 4"

    def test_bad_generation(self):
        a = demo_automaton(2)
        for generation in (-1, 1.5, True, 1.0):
            with pytest.raises(ContractError, match="generation"):
                Automaton(a.tape, a.payload, a.registry, generation)


class TestReplicate:
    def test_five_generations_breed_true(self):
        current = demo_automaton(2)
        original = current.tape.cells
        for k in range(1, 6):
            parent, child = replicate(current)
            assert parent is current
            assert child.generation == k
            assert child.tape.cells == original
            assert fidelity(child.payload, current.payload) >= 1.0 - 1e-8
            assert child.registry.segments == current.registry.segments
            current = child

    def test_a_generation_builds_no_tape_and_no_registry(self, monkeypatch):
        """Tape and registry validation are setup costs: the child carries
        the parent's own tape and registry objects."""
        data = Path(__file__).parent / "data" / "replicate_240_head17_automaton.json"
        parent = automaton_from_json(json.loads(data.read_text()))
        built = []

        def counting(name, original):
            def wrapper(self, *args):
                built.append(name)
                return original(self, *args)

            return wrapper

        monkeypatch.setattr(Tape, "__post_init__", counting("Tape", Tape.__post_init__))
        monkeypatch.setattr(ProgramRegistry, "__init__", counting("ProgramRegistry", ProgramRegistry.__init__))
        _, child = replicate(parent)
        assert built == []
        assert child.tape is parent.tape
        assert child.registry is parent.registry
        assert child.generation == parent.generation + 1
        # The spies do see a construction.
        Tape(2, (0,))
        ProgramRegistry(parent.registry.gate_set, {})
        assert built == ["Tape", "ProgramRegistry"]

    def test_a_generation_reads_the_amplitude_budget_three_times(self):
        """Once for the copy check with its input batch, and once for the blank
        of each of the two translations."""
        data = Path(__file__).parent / "data" / "replicate_240_head17_automaton.json"
        parent = automaton_from_json(json.loads(data.read_text()))
        with mock.patch.object(config, "max_dim", wraps=config.max_dim) as reads:
            replicate(parent)
        assert reads.call_count == 3

    def test_grandchild_tape_matches_parent(self):
        a = demo_automaton(3)
        _, child = replicate(a)
        _, grandchild = replicate(child)
        assert grandchild.tape.cells == a.tape.cells

    def test_symbol_corruption_is_heredity_error(self, monkeypatch):
        """A decodable but different child tape must be caught by decode-compare."""
        a = demo_automaton(2)

        def corrupting(t):
            cells = list(t.cells)
            cells[0] = 3 if cells[0] != 3 else 2  # stays decodable, wrong contents
            return Tape(t.alphabet_size, tuple(cells), t.head)

        monkeypatch.setattr(qreplica.automaton, "replicate_tape", corrupting)
        with pytest.raises(CorruptedHeredityError) as excinfo:
            replicate(a)
        assert str(excinfo.value) == "child registry decoded from its tape does not match the parent registry"

    def test_structure_corruption_is_undecodable(self, monkeypatch):
        """Losing a separator changes the segment count and fails the decode."""
        a = demo_automaton(2)

        def corrupting(t):
            cells = list(t.cells)
            cells[1] = 1  # overwrite the first separator
            return Tape(t.alphabet_size, tuple(cells), t.head)

        monkeypatch.setattr(qreplica.automaton, "replicate_tape", corrupting)
        with pytest.raises(UndecodableProgramError) as excinfo:
            replicate(a)
        assert str(excinfo.value) == "tape decodes into 2 segments, registry names 3"

    def test_unterminated_corruption_is_undecodable(self, monkeypatch):
        """Overwriting the last separator leaves the last segment unterminated."""
        a = demo_automaton(2)

        def corrupting(t):
            return Tape(t.alphabet_size, t.cells[:-1] + (1,), t.head)

        monkeypatch.setattr(qreplica.automaton, "replicate_tape", corrupting)
        with pytest.raises(UndecodableProgramError) as excinfo:
            replicate(a)
        assert str(excinfo.value) == "tape does not end on a separator; trailing segment is unterminated"


@st.composite
def registries_and_heads(draw):
    """A random gate set, random segments over {1, ..., n-1} and a head on the encoded tape."""
    n = draw(st.integers(2, 4))
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = GateSet(tuple(random_unitary(dim, rng) for _ in range(n)))
    cells = st.lists(st.integers(1, n - 1), max_size=5)
    segments = draw(st.lists(cells, min_size=1, max_size=4))
    registry = ProgramRegistry(gates, {f"s{k}": seg for k, seg in enumerate(segments)})
    length = sum(len(seg) + 1 for seg in segments)
    return registry, draw(st.integers(0, length - 1))


@given(registries_and_heads(), st.integers(0, 5))
def test_replication_preserves_heredity(registry_and_head, generation):
    registry, head = registry_and_head
    start = Automaton.from_registry(registry, generation)
    start = dataclasses.replace(start, tape=encode_tape(registry, head))
    parent, child = replicate(start)
    assert parent is start
    assert child.tape == parent.tape
    # The child carries the parent's registry, which its own tape encodes.
    assert child.registry is parent.registry
    assert child.registry.segments == registry_from_tape(child.tape, parent.registry).segments
    assert child.generation == parent.generation + 1
    assert child.payload.amps.tobytes() == parent.payload.amps.tobytes()


@st.composite
def tapes_near_the_layout(draw):
    """A registry and its encoded tape, or that tape with one cell changed, a
    separator added or removed, its tail cut off, or its alphabet enlarged."""
    registry, head = draw(registries_and_heads())
    n = registry.gate_set.n
    cells = list(encode_tape(registry).cells)
    kind = draw(st.sampled_from(["encoded", "changed", "separator added", "separator removed", "truncated", "alphabet"]))
    pos = draw(st.integers(0, len(cells) - 1))
    if kind == "changed":
        cells[pos] = (cells[pos] + draw(st.integers(1, n - 1))) % n
    elif kind == "separator added":
        cells.insert(pos, 0)
    elif kind == "separator removed" and len(cells) > 1:
        del cells[draw(st.sampled_from([k for k, c in enumerate(cells) if c == 0]))]
    elif kind == "truncated" and len(cells) > 1:
        cells = cells[: max(pos, 1)]
    return registry, Tape(n + (kind == "alphabet"), tuple(cells), head % len(cells))


@given(tapes_near_the_layout())
def test_layout_comparison_agrees_with_the_full_decoder(case):
    """The same bool, or the same error type and message, as decoding the tape in full."""
    registry, t = case
    decoded = _outcome(lambda: registry_from_tape(t, registry).segments == registry.segments)
    assert _outcome(qreplica.automaton._encodes, t, registry) == decoded


@given(registries_and_heads(), st.integers(0, 2**32 - 1))
def test_scattering_a_program_state_runs_its_segment(registry_and_head, seed):
    registry, _ = registry_and_head
    g = registry.gate_set
    psi = random_state(g.dim, np.random.default_rng(seed))
    for name, segment in registry.segments:
        out = scattering_apply(program_state(registry, name), psi, registry)
        expected = run_tape(Tape(g.n, segment), g.gates, psi) if segment else psi
        assert out.amps.tobytes() == expected.amps.tobytes()


class TestOverlap:
    def test_self_overlap_is_one(self):
        a = demo_automaton(2)
        assert automaton_overlap(a, a) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_differing_tapes_give_zero(self):
        """Zero overlap whatever the payloads; cross-checked against the
        literal tape-state inner product."""
        reg = ProgramRegistry(diagonal_gate_set(), {})
        t1, t2 = Tape(2, (0, 1)), Tape(2, (1, 0))
        a = Automaton(t1, translate(t1, reg), reg)
        b = Automaton(t2, translate(t2, reg), reg)
        assert automaton_overlap(a, b) == 0.0
        # payloads coincide here, so only tape orthogonality forces zero
        assert fidelity(a.payload, b.payload) == pytest.approx(1.0, abs=1e-12)
        literal = np.vdot(tape_to_state(t1).amps, tape_to_state(t2).amps)
        assert literal == 0.0

    def test_identical_tapes_expose_payload_inner_product(self, rng):
        """The same tape under a second gate set of equal size and dim."""
        a = demo_automaton(2)
        gates = GateSet(tuple(random_unitary(4, rng) for _ in range(4)))
        other = ProgramRegistry(gates, dict(a.registry.segments))
        b = Automaton(a.tape, translate(a.tape, other), other)
        expected = complex(np.vdot(a.payload.amps, b.payload.amps))
        assert abs(expected) < 1.0 - 1e-3
        assert automaton_overlap(a, b) == pytest.approx(expected, abs=1e-12)

    def test_exhaustive_small_tapes(self):
        """Every differing pair over 3-or-fewer-cell binary tapes: exactly zero."""
        reg = ProgramRegistry(default_gate_set(), {})
        for s in range(1, 4):
            automata = []
            for cells in itertools.product(range(2), repeat=s):
                t = Tape(2, cells)
                automata.append(Automaton(t, translate(t, reg), reg))
            for a, b in itertools.combinations(automata, 2):
                assert automaton_overlap(a, b) == 0.0

    def test_mismatched_spaces_rejected(self):
        a = demo_automaton(2)
        b = demo_automaton(3)
        with pytest.raises(ContractError, match="matching"):
            automaton_overlap(a, b)


class TestAutomatonJson:
    def test_round_trip(self):
        a = demo_automaton(2)
        data = json.loads(json.dumps(automaton_to_json(a)))
        back = automaton_from_json(data)
        assert back.tape == a.tape
        assert back.generation == a.generation
        assert back.registry.segments == a.registry.segments
        assert fidelity(back.payload, a.payload) == pytest.approx(1.0, abs=1e-12)

    def test_tape_text_embedded(self):
        a = demo_automaton(2)
        assert automaton_to_json(a)["tape"] == format_tape(a.tape)

    def test_malformed_inputs(self):
        a = demo_automaton(2)
        data = automaton_to_json(a)
        for broken in (
            {**data, "tape": 7},
            {**data, "generation": -1},
            {**data, "generation": 1.5},
            {**data, "generation": True},
            {**data, "registry": {**data["registry"], "segments": {"C": [1.9]}}},
            {k: v for k, v in data.items() if k != "registry"},
        ):
            with pytest.raises(InputError):
                automaton_from_json(broken)

    def test_registry_must_be_the_one_its_tape_encodes(self):
        """Else replicating it would report corrupted heredity for a bad document."""
        data = automaton_to_json(demo_automaton(2))
        data["registry"]["segments"]["D"] = [1]
        with pytest.raises(InputError) as excinfo:
            automaton_from_json(data)
        assert str(excinfo.value) == "automaton: registry segments differ from the ones its tape encodes"

    def test_identity_alias_unused_gate_set_dim(self):
        """Registry JSON keeps gate dims; a reloaded automaton translates alike."""
        a = demo_automaton(3)
        back = automaton_from_json(automaton_to_json(a))
        assert back.registry.gate_set.dim == 9
        assert fidelity(back.payload, a.payload) == pytest.approx(1.0, abs=1e-12)
