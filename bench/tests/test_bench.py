"""Tests of the benchmark itself; outside the tier-1 suite.

    python3 -m pytest bench/tests -q

Each workload runs one short pass in process (about 20 s in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import qreplica.approx  # noqa: E402
import qreplica.cli  # noqa: E402
from bench import run  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(capsys, workload, trace=0, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


def _assert_metrics(result, printed, specs):
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in printed), m["name"]


CRITERION_6_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="program defect: criterion 6 asserts that length 12 strictly beats length 4 for all 20 targets; "
    "for one target of seed 3 no product of length <= 12 does, so verify exits 1",
)


@pytest.mark.parametrize(
    "workload, seed",
    [(w, 1) for w in sorted(WORKLOADS)] + [pytest.param("verify", 3, marks=CRITERION_6_DEFECT)],
)
def test_short_pass_runs_clean(capsys, workload, seed):
    code, result, printed = _run(capsys, workload, seed=seed)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    _assert_metrics(result, printed, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    for name in ("wall_s", "op_ms_p50", "op_ms_tail", "failed_frac"):
        assert any(line.split()[:1] == [name] for line in printed), name


def test_listed_workloads_are_runnable_with_the_recorded_rationale():
    for listed in SPEC["workloads"]:
        assert WORKLOADS[listed["name"]].why == listed["why"]


def test_traced_run_reports_every_layer_metric_and_restores_the_program(capsys):
    code, result, printed = _run(capsys, "lineage", trace=1)
    assert code == 0 and result["correct"] is True
    _assert_metrics(result, printed, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["automaton.translate_per_replicate"] == 2
    assert metrics["tape.cells_copied"] == 240
    assert qreplica.cli.best_approximation is qreplica.approx.best_approximation
    assert not hasattr(qreplica.cli.main, "__wrapped__")


def test_corrupted_output_counts_as_failed(capsys, monkeypatch):
    honest = qreplica.cli.approx_result_to_json

    def flipped(result, gates):
        report = honest(result, gates)
        report["symbols"] = [1 - s for s in report["symbols"]]
        return report

    monkeypatch.setattr(qreplica.cli, "approx_result_to_json", flipped)
    code, result, printed = _run(capsys, "approx_deep")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert any("failed_frac 1" in line for line in printed)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
