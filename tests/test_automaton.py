"""Registry encoding, tape translation, program scattering, replication cycles."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qreplica.automaton
from qreplica.approx import GateSet, default_gate_set, sequence_unitary
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
    registry_from_tape,
    replicate,
    scattering_apply,
    split_segments,
    translate,
)
from qreplica.basis_ops import apply_controlled, cloner, conditional_dynamics
from qreplica.errors import (
    ContractError,
    CorruptedHeredityError,
    InputError,
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
from qreplica.tape import Tape, format_tape, tape_to_state


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

    def test_empty_segment_allowed(self):
        g = demo_registry(2).gate_set
        reg = ProgramRegistry(g, {"noop": ()})
        assert reg.segment("noop") == ()

    def test_missing_segment(self):
        with pytest.raises(ContractError, match="no segment"):
            demo_registry(2).segment("missing")


class TestTapeLayout:
    def test_encode_appends_separators(self):
        t = encode_tape(demo_registry(2))
        assert t.cells == (1, 0, 2, 0, 3, 1, 0)
        assert t.head == 0

    def test_split_round_trips(self):
        reg = demo_registry(2)
        t = encode_tape(reg)
        assert split_segments(t) == ((1,), (2,), (3, 1))

    def test_unterminated_tape_is_undecodable(self):
        with pytest.raises(UndecodableProgramError, match="separator"):
            split_segments(Tape(4, (1, 0, 2)))

    def test_decode_matches_names_in_order(self):
        reg = demo_registry(2)
        decoded = registry_from_tape(encode_tape(reg), reg)
        assert decoded.segments == reg.segments

    def test_decode_segment_count_mismatch(self):
        reg = demo_registry(2)
        with pytest.raises(UndecodableProgramError, match="segments"):
            registry_from_tape(Tape(4, (1, 0)), reg)


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

    def test_multi_symbol_program_matches_sequence_unitary(self, rng):
        reg = demo_registry(2)
        g = reg.gate_set
        program = tape_to_state(Tape(4, (3, 1, 2)))
        psi = random_state(4, rng)
        out = scattering_apply(program, psi, reg)
        ref = sequence_unitary(Tape(4, (3, 1, 2)), g).entries @ psi.amps
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
            return t, Tape(t.alphabet_size, tuple(cells), t.head)

        monkeypatch.setattr(qreplica.automaton, "replicate_tape", corrupting)
        with pytest.raises(CorruptedHeredityError):
            replicate(a)

    def test_structure_corruption_is_undecodable(self, monkeypatch):
        """Losing a separator changes the segment count and fails the decode."""
        a = demo_automaton(2)

        def corrupting(t):
            cells = list(t.cells)
            cells[1] = 1  # overwrite the first separator
            return t, Tape(t.alphabet_size, tuple(cells), t.head)

        monkeypatch.setattr(qreplica.automaton, "replicate_tape", corrupting)
        with pytest.raises(UndecodableProgramError):
            replicate(a)


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
    assert child.registry.segments == parent.registry.segments
    assert child.generation == parent.generation + 1
    assert child.payload.amps.tobytes() == parent.payload.amps.tobytes()


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
            {**data, "registry": {**data["registry"], "segments": {"C": [1.9]}}},
            {k: v for k, v in data.items() if k != "registry"},
        ):
            with pytest.raises(InputError):
                automaton_from_json(broken)

    def test_identity_alias_unused_gate_set_dim(self):
        """Registry JSON keeps gate dims; a reloaded automaton translates alike."""
        a = demo_automaton(3)
        back = automaton_from_json(automaton_to_json(a))
        assert back.registry.gate_set.dim == 9
        assert fidelity(back.payload, a.payload) == pytest.approx(1.0, abs=1e-12)
