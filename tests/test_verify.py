"""Verify's bounds are the tolerances its report prints: each verdict moves with
the name it reads, and no override changes what a criterion measures."""

import json

import numpy as np
import pytest

import qreplica.cli as cli
from qreplica import config, verify

SEED = 7


def _stream(k):
    """Stream k of ``run_all(SEED)``, fresh."""
    return np.random.default_rng(np.random.SeedSequence(SEED).spawn(8)[k])


CRITERIA = {
    2: lambda: verify.criterion_superposition_boundary(_stream(1)),
    3: lambda: verify.criterion_structured_dense(_stream(2)),
    4: lambda: verify.criterion_tape_theorem(_stream(3)),
    6: lambda: verify.criterion_approximation(_stream(5)),
    7: verify.criterion_replication,
    8: verify.criterion_closed_loop,
}


def _below_ceiling(detail):
    """A tolerance t that ``detail <= t`` just fails."""
    return np.nextafter(detail, -np.inf)


def _below_floor(detail):
    """A tolerance t that ``detail >= 1 - t`` just fails."""
    return 1.0 - np.nextafter(detail, np.inf)


def _below_cap(detail):
    """A tolerance t that ``detail <= 1 - t`` just fails."""
    return 1.0 - np.nextafter(detail, -np.inf)


@pytest.mark.parametrize(
    "number, name, detail, tightest",
    [
        (2, "NO_CLONE_GAP", "max_fidelity_to_perfect_copy", _below_cap),
        (2, "STRUCT_DENSE_TOL", "max_deviation_from_diagonal_form", _below_ceiling),
        (3, "STRUCT_DENSE_TOL", "max_deviation", _below_ceiling),
        (4, "STRUCT_DENSE_TOL", "max_payload_deviation", _below_ceiling),
        (6, "STRUCT_DENSE_TOL", "max_gap_to_exhaustive", _below_ceiling),
        (7, "REPLICATION_TOL", "min_child_payload_fidelity", _below_floor),
        (8, "STRUCT_DENSE_TOL", "max_deviation", _below_ceiling),
    ],
)
def test_a_tolerance_just_below_the_measured_detail_fails_the_criterion(number, name, detail, tightest):
    at_defaults = CRITERIA[number]()
    assert at_defaults.passed, at_defaults.details
    with config.overridden([(name, tightest(at_defaults.details[detail]))]):
        tightened = CRITERIA[number]()
    assert not tightened.passed
    assert tightened.details == at_defaults.details


def test_an_override_moves_the_verdict_its_snapshot_prints(capsys):
    """A copy-fidelity bound of 0.5 fails criterion 2 alone, and the report says 0.5."""
    code = cli.main(["verify", "--seed", str(SEED), "--json", "--set-tolerance", "NO_CLONE_GAP=0.5"])
    header, *criteria = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 1
    assert header["tolerances"]["NO_CLONE_GAP"] == 0.5
    assert [r["criterion"] for r in criteria if not r["passed"]] == [2]
