"""Runnable check suite: every advertised property verified at its stated tolerance.

Each criterion is a standalone function returning a structured result, and
``run_all`` executes them in a fixed order with independent seeded random
streams, so a given seed always produces the identical report.

Every bound a criterion asserts is either a ``config`` tolerance, read when
the criterion runs, or an exact value where the property holds by
construction: basis copies of fidelity 1, zero overlap between basis tape
states, zero tape leak. The tolerance snapshot a report embeds is therefore
the set of bounds its verdicts used, and ``--set-tolerance`` moves them.
Criterion 6's strict improvement (``> 0``) is a claim about the search, not
a tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import config
from .approx import GateSet, best_approximation, default_gate_set
from .automaton import (
    Automaton,
    ProgramRegistry,
    automaton_overlap,
    demo_automaton,
    demo_conditional_blocks,
    demo_registry,
    program_state,
    replicate,
    scattering_apply,
    translate,
)
from .basis_ops import apply_controlled, cloner, conditional_dynamics, copy_onto_blank, dense_deviation
from .errors import ContractError
from .linalg import _trace_distance, apply_sequence, basis_state, fidelity, random_state, random_unitary
from .tape import Tape, joint_check, run_tape, tape_to_state


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict


def criterion_basis_cloning() -> CriterionResult:
    """Every basis state of every small basis is copied with fidelity 1."""
    worst = 1.0
    for n in range(2, 9):
        _, fidelities = copy_onto_blank([basis_state(n, k) for k in range(n)])
        worst = min(worst, *fidelities)
    return CriterionResult(
        number=1,
        name="perfect basis cloning",
        passed=worst == 1.0,
        details={"dims": "2..8", "worst_fidelity": worst},
    )


def criterion_superposition_boundary(rng: np.random.Generator) -> CriterionResult:
    """Genuinely superposed inputs always miss the perfect-copy target."""
    worst_fidelity = 0.0
    worst_deviation = 0.0
    for n in range(2, 6):
        states = []
        while len(states) < 200:
            psi = random_state(n, rng)
            if float(np.max(np.abs(psi.amps) ** 2)) <= 0.999:
                states.append(psi)
        outs, fidelities = copy_onto_blank(states)
        worst_fidelity = max(worst_fidelity, *fidelities)
        for psi, out in zip(states, outs):
            analytic = np.zeros(n * n, dtype=complex)
            analytic[np.arange(n) * n + np.arange(n)] = psi.amps
            worst_deviation = max(worst_deviation, float(np.max(np.abs(out.amps - analytic))))
    return CriterionResult(
        number=2,
        name="superposition cloning boundary",
        passed=worst_fidelity <= 1.0 - config.NO_CLONE_GAP and worst_deviation <= config.STRUCT_DENSE_TOL,
        details={
            "dims": "2..5",
            "states_per_dim": 200,
            "max_fidelity_to_perfect_copy": worst_fidelity,
            "max_deviation_from_diagonal_form": worst_deviation,
        },
    )


def criterion_structured_dense(rng: np.random.Generator) -> CriterionResult:
    """Block application equals dense materialization plus matrix-vector."""
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        if trial % 2 == 0:
            while m == n:
                m = int(rng.integers(2, 9))
        blocks = tuple(random_unitary(m, rng) for _ in range(n))
        cd = conditional_dynamics(blocks)
        joint = random_state(n * m, rng)
        worst = max(worst, dense_deviation(cd, joint, apply_controlled(cd, joint)))
    return CriterionResult(
        number=3,
        name="structured vs dense conditional dynamics",
        passed=worst <= config.STRUCT_DENSE_TOL,
        details={"instances": 100, "max_deviation": worst},
    )


def criterion_tape_theorem(rng: np.random.Generator) -> CriterionResult:
    """Joint evolution restores the tape exactly and yields the ordered product."""
    worst_payload = 0.0
    worst_leak = 0.0
    for _ in range(50):
        while True:
            n = int(rng.integers(2, 4))
            m = int(rng.integers(2, 5))
            s = int(rng.integers(1, 6))
            if n**s * m <= config.JOINT_CHECK_LIMIT:
                break
        gates = tuple(random_unitary(m, rng) for _ in range(n))
        cells = tuple(int(rng.integers(0, n)) for _ in range(s))
        t = Tape(n, cells)
        payload = basis_state(m, 0)
        leak, deviation = joint_check(t, gates, payload, run_tape(t, gates, payload))
        worst_leak = max(worst_leak, leak)
        worst_payload = max(worst_payload, deviation)
    return CriterionResult(
        number=4,
        name="tape product theorem on the joint space",
        passed=worst_leak == 0.0 and worst_payload <= config.STRUCT_DENSE_TOL,
        details={
            "instances": 50,
            "max_tape_leak": worst_leak,
            "max_payload_deviation": worst_payload,
        },
    )


def criterion_tape_orthogonality() -> CriterionResult:
    """All tape states of each family with at most 256 states are orthonormal."""
    worst_off = 0.0
    worst_diag = 0.0
    families = 0
    for n in range(2, 17):
        s = 1
        while n**s <= 256:
            families += 1
            tapes = [
                Tape(n, cells) for cells in itertools.product(range(n), repeat=s)
            ]
            stack = np.stack([tape_to_state(t).amps for t in tapes])
            gram = np.abs(stack.conj() @ stack.T) ** 2
            worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(gram) - 1.0))))
            np.fill_diagonal(gram, 0.0)
            worst_off = max(worst_off, float(np.max(gram)))
            s += 1
    return CriterionResult(
        number=5,
        name="tape state orthogonality",
        passed=worst_off == 0.0 and worst_diag == 0.0,
        details={
            "families": families,
            "max_cross_fidelity": worst_off,
            "max_norm_defect": worst_diag,
        },
    )


def _exhaustive_best_distances(targets, g: GateSet, max_len: int) -> list[list[float]]:
    """Plain enumeration of every product up to max_len, no pruning.

    Each product is built once and scored against every target: entry [k][L]
    is target k's best distance over every product of length ≤ L.
    """
    matrices = [gate.entries for gate in g.gates]
    identity = np.eye(g.dim, dtype=complex)
    levels = [
        [apply_sequence(matrices, symbols, identity) for symbols in itertools.product(range(g.n), repeat=length)]
        for length in range(max_len + 1)
    ]
    bests = []
    for target in targets:
        best: list[float] = []
        for level in levels:
            best.append(min(best[-1:] + [_trace_distance(product, target.entries) for product in level]))
        bests.append(best)
    return bests


def criterion_approximation(rng: np.random.Generator) -> CriterionResult:
    """Longer sequences strictly improve, and pruning never misses the optimum.

    One length-12 search per target gives its best distance at every length
    (``ApproxResult.profile``): lengths 4 and 12 for the improvement, and
    lengths 1–6 against one exhaustive enumeration of all targets for the
    oracle gap.
    """
    g = default_gate_set()
    targets = [random_unitary(2, rng) for _ in range(20)]
    min_improvement = float("inf")
    max_oracle_gap = 0.0
    for target, exhaustive in zip(targets, _exhaustive_best_distances(targets, g, 6)):
        profile = best_approximation(target, g, 12).profile
        # A search stops at a level that keeps nothing; its last entry is its best at every longer length.
        profile += profile[-1:] * (13 - len(profile))
        min_improvement = min(min_improvement, profile[4] - profile[12])
        for pruned, enumerated in zip(profile[1:7], exhaustive[1:]):
            max_oracle_gap = max(max_oracle_gap, abs(pruned - enumerated))
    return CriterionResult(
        number=6,
        name="approximation improvement and oracle agreement",
        passed=min_improvement > 0.0 and max_oracle_gap <= config.STRUCT_DENSE_TOL,
        details={
            "targets": len(targets),
            "min_improvement_4_to_12": min_improvement,
            "max_gap_to_exhaustive": max_oracle_gap,
        },
    )


def criterion_replication() -> CriterionResult:
    """Five generations breed true; differing tapes give exactly zero overlap."""
    current = demo_automaton(2)
    original_cells = current.tape.cells
    min_fidelity = 1.0
    tapes_identical = True
    for _ in range(5):
        _, child = replicate(current)
        tapes_identical = tapes_identical and child.tape.cells == original_cells
        min_fidelity = min(min_fidelity, fidelity(child.payload, current.payload))
        current = child

    gate_pair = default_gate_set()
    empty_registry = ProgramRegistry(gate_pair, {})
    max_overlap = 0.0
    pairs = 0
    for s in range(1, 5):
        automata = []
        for cells in itertools.product(range(2), repeat=s):
            t = Tape(2, cells)
            automata.append(
                Automaton(t, translate(t, empty_registry), empty_registry)
            )
        for a, b in itertools.combinations(automata, 2):
            pairs += 1
            max_overlap = max(max_overlap, abs(automaton_overlap(a, b)))
    return CriterionResult(
        number=7,
        name="replication heredity and automaton orthogonality",
        passed=(
            tapes_identical
            and min_fidelity >= 1.0 - config.REPLICATION_TOL
            and current.generation == 5
            and max_overlap == 0.0
        ),
        details={
            "generations": 5,
            "tapes_identical": tapes_identical,
            "min_child_payload_fidelity": min_fidelity,
            "distinct_tape_pairs": pairs,
            "max_overlap_between_differing_tapes": max_overlap,
        },
    )


def criterion_closed_loop() -> CriterionResult:
    """Tape-encoded copy and conditional programs act like the built operators."""
    worst = 0.0
    for n in (2, 3):
        registry = demo_registry(n)
        copier = cloner(n)
        cond = conditional_dynamics(demo_conditional_blocks(n))
        psi_c = program_state(registry, "C")
        psi_d = program_state(registry, "D")
        for index in range(n * n):
            data = basis_state(n * n, index)
            via_program = scattering_apply(psi_c, data, registry)
            via_operator = apply_controlled(copier, data)
            worst = max(worst, float(np.max(np.abs(via_program.amps - via_operator.amps))))
            via_program = scattering_apply(psi_d, data, registry)
            via_operator = apply_controlled(cond, data)
            worst = max(worst, float(np.max(np.abs(via_program.amps - via_operator.amps))))
    return CriterionResult(
        number=8,
        name="tape-encoded programs close the loop",
        passed=worst <= config.STRUCT_DENSE_TOL,
        details={"dims": "2..3", "max_deviation": worst},
    )


def run_all(seed: int) -> list[CriterionResult]:
    """Run criteria 1-8 with independent seeded streams; fixed order, fixed output."""
    if seed < 0:
        raise ContractError(f"seed must be non-negative, got {seed}")
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(8)]
    return [
        criterion_basis_cloning(),
        criterion_superposition_boundary(streams[1]),
        criterion_structured_dense(streams[2]),
        criterion_tape_theorem(streams[3]),
        criterion_tape_orthogonality(),
        criterion_approximation(streams[5]),
        criterion_replication(),
        criterion_closed_loop(),
    ]


def render_table(results: list[CriterionResult]) -> str:
    lines = [f"{'criterion':<10}{'status':<8}name"]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"{result.number:<10}{status:<8}{result.name}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines)
