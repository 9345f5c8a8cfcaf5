"""Acceptance gate: every advertised property at its stated tolerance.

Criteria 1-8 run once (module-scoped) through the same functions the
``verify`` subcommand uses; each test prints its own pass/fail table.
Criterion 9 runs the CLI twice and demands byte-identical output; the golden
test compares that output with the report checked in under ``data/``.
"""

from pathlib import Path

import pytest

import qreplica.cli as cli
from qreplica import verify

ACCEPTANCE_SEED = 7


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in verify.run_all(ACCEPTANCE_SEED)}


def check(results, number):
    result = results[number]
    print(verify.render_table([result]))
    assert result.passed, f"criterion {number} failed: {result.details}"
    return result


def test_criterion_1_perfect_basis_cloning(results):
    result = check(results, 1)
    assert result.details["worst_fidelity"] >= 1.0 - 1e-12


def test_criterion_2_no_cloning_boundary(results):
    result = check(results, 2)
    assert result.details["max_fidelity_to_perfect_copy"] <= 1.0 - 1e-6
    assert result.details["max_deviation_from_diagonal_form"] <= 1e-10
    assert result.details["states_per_dim"] == 200


def test_criterion_3_conditional_dynamics(results):
    result = check(results, 3)
    assert result.details["instances"] == 100
    assert result.details["max_deviation"] <= 1e-12


def test_criterion_4_tape_theorem(results):
    result = check(results, 4)
    assert result.details["instances"] == 50
    assert result.details["max_tape_leak"] == 0.0
    assert result.details["max_payload_deviation"] <= 1e-10


def test_criterion_5_tape_orthogonality(results):
    result = check(results, 5)
    assert result.details["max_cross_fidelity"] <= 1e-12


def test_criterion_6_approximation(results):
    result = check(results, 6)
    assert result.details["targets"] == 20
    assert result.details["min_improvement_4_to_12"] > 0.0
    assert result.details["max_gap_to_exhaustive"] <= 1e-9


def test_criterion_7_replication(results):
    result = check(results, 7)
    assert result.details["tapes_identical"] is True
    assert result.details["min_child_payload_fidelity"] >= 1.0 - 1e-8
    assert result.details["max_overlap_between_differing_tapes"] <= 1e-12


def test_criterion_8_closed_loop(results):
    result = check(results, 8)
    assert result.details["max_deviation"] <= 1e-9


def test_criterion_9_verify_reproducibility(capsys):
    """Two CLI verify runs with one seed must agree byte for byte."""
    code1 = cli.main(["verify", "--seed", str(ACCEPTANCE_SEED), "--json"])
    first = capsys.readouterr().out
    code2 = cli.main(["verify", "--seed", str(ACCEPTANCE_SEED), "--json"])
    second = capsys.readouterr().out
    print("criterion 9: PASS  verify reproducibility" if first == second else "criterion 9: FAIL")
    assert code1 == 0 and code2 == 0
    assert first == second
    assert len(first.strip().splitlines()) == 9  # header + 8 criteria


def test_verify_json_matches_golden_bytes(tmp_path, monkeypatch):
    """``verify --seed 7 --json`` reproduces the checked-in report byte for byte."""
    monkeypatch.delenv("QREPLICA_MAX_DIM", raising=False)
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--seed", "7", "--json", "--output", str(out)]) == 0
    golden = Path(__file__).parent / "data" / "verify_seed7.json"
    assert out.read_bytes() == golden.read_bytes()


def test_verify_refuses_a_negative_seed(capsys):
    """numpy's seed sequence takes no negative seed; the run says so in one error line."""
    assert cli.main(["verify", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
