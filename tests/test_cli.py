"""CLI behavior: reports, exit codes, input validation, reproducibility."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qreplica
import qreplica.cli as cli
from qreplica import approx, basis_ops, config
from qreplica.approx import GateSet, default_gate_set, gate_set_to_json
from qreplica.automaton import automaton_to_json, demo_automaton
from qreplica.errors import ReplicationIntegrityError
from qreplica.linalg import Operator, identity, operator_to_json, random_unitary


@pytest.fixture
def x_target_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(operator_to_json(Operator(np.array([[0, 1], [1, 0]])))))
    return str(path)


@pytest.fixture
def golden_gates_file(tmp_path):
    path = tmp_path / "gates.json"
    path.write_text(json.dumps(gate_set_to_json(default_gate_set())))
    return str(path)


@pytest.fixture
def automaton_file(tmp_path):
    path = tmp_path / "automaton.json"
    path.write_text(json.dumps(automaton_to_json(demo_automaton(2))))
    return str(path)


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_json_lines(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.strip().splitlines()]


def one_error_line(capsys, argv):
    """Run argv, which must exit 2 with no report and one ``error:`` line; return that line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert (code, captured.out) == (2, "")
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


class TestCloneDemo:
    def test_basis_index_clones(self, capsys):
        code, report = run_json(capsys, ["clone-demo", "--n", "2", "--basis-index", "1"])
        assert code == 0
        assert report["verdict"] == "cloned"
        assert report["fidelity_to_perfect_copy"] == pytest.approx(1.0, abs=1e-12)
        assert report["tolerances"]["NO_CLONE_GAP"] == 1e-6

    def test_superposition_entangles(self, capsys):
        amp = 1.0 / np.sqrt(2.0)
        state = json.dumps({"dim": 2, "amps": [[amp, 0.0], [amp, 0.0]]})
        code, report = run_json(capsys, ["clone-demo", "--n", "2", "--state", state])
        assert code == 0
        assert report["verdict"] == "entangled"
        assert report["fidelity_to_perfect_copy"] == pytest.approx(0.5, abs=1e-12)

    def test_explicit_amplitudes_match_basis_index(self, capsys):
        code1, by_index = run_json(capsys, ["clone-demo", "--n", "2", "--basis-index", "0"])
        state = json.dumps({"dim": 2, "amps": [[1.0, 0.0], [0.0, 0.0]]})
        code2, by_amps = run_json(capsys, ["clone-demo", "--n", "2", "--state", state])
        assert code1 == code2 == 0
        assert by_index["output"] == by_amps["output"]
        assert by_index["verdict"] == by_amps["verdict"]

    def test_malformed_json_reports_position(self, capsys):
        code = cli.main(["clone-demo", "--n", "2", "--state", '{"dim": 2, "amps": [[1,0],'])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_register_whose_cloner_exceeds_the_budget_is_refused_before_it_is_built(self, capsys, monkeypatch):
        """n² amplitudes fit MAX_DIM, but the cloner's 2·n³ do not."""

        def unbuilt(n):
            raise AssertionError(f"cloner({n}) was built")

        monkeypatch.setattr(basis_ops, "cloner", unbuilt)
        line = one_error_line(capsys, ["clone-demo", "--n", "256", "--basis-index", "3"])
        assert line == f"error: basis cloner needs {2 * 256**3} amplitudes, exceeding MAX_DIM={config.max_dim()}"

    def test_requires_exactly_one_input(self, capsys):
        assert cli.main(["clone-demo", "--n", "2"]) == 2
        assert (
            cli.main(["clone-demo", "--n", "2", "--basis-index", "0", "--state", "{}"]) == 2
        )

    def test_tolerance_override_changes_verdict(self, capsys):
        amp = 1.0 / np.sqrt(2.0)
        state = json.dumps({"dim": 2, "amps": [[amp, 0.0], [amp, 0.0]]})
        code, report = run_json(
            capsys,
            ["clone-demo", "--n", "2", "--state", state, "--set-tolerance", "NO_CLONE_GAP=0.6"],
        )
        assert code == 0
        assert report["verdict"] == "cloned"
        assert report["tolerances"]["NO_CLONE_GAP"] == 0.6

    def test_tolerance_override_lasts_one_call(self, capsys):
        """An override, also one on a call that fails, is gone by the next call."""
        amp = 1.0 / np.sqrt(2.0)
        state = json.dumps({"dim": 2, "amps": [[amp, 0.0], [amp, 0.0]]})
        argv = ["clone-demo", "--n", "2", "--state", state]
        defaults = config.snapshot()
        assert run_json(capsys, [*argv, "--set-tolerance", "NO_CLONE_GAP=0.6"])[1]["verdict"] == "cloned"
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["verdict"] == "entangled"
        assert report["tolerances"] == defaults
        failing = ["--set-tolerance", "NO_CLONE_GAP=0.6", "--set-tolerance", "NOPE=1"]
        assert cli.main([*argv, *failing]) == 2
        assert cli.main(["clone-demo", "--n", "1", "--basis-index", "0", "--set-tolerance", "NORM_TOL=0.5"]) == 2
        assert config.snapshot() == defaults

    def test_unknown_tolerance_name(self, capsys):
        assert cli.main(["clone-demo", "--n", "2", "--basis-index", "0", "--set-tolerance", "NOPE=1"]) == 2

    @pytest.mark.parametrize("override", ["NORM_TOL=nan", "UNITARY_TOL=inf", "NO_CLONE_GAP=-1"])
    def test_tolerance_override_must_be_finite_and_non_negative(self, capsys, override):
        argv = ["clone-demo", "--n", "2", "--basis-index", "0", "--set-tolerance", override]
        line = one_error_line(capsys, argv)
        assert line == f"error: tolerance override {override!r} must be a finite, non-negative number"

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_the_amplitude_budget_must_be_positive(self, capsys, monkeypatch, limit):
        monkeypatch.setenv(config.ENV_MAX_DIM, limit)
        line = one_error_line(capsys, ["clone-demo", "--n", "2", "--basis-index", "0"])
        assert line == f"error: QREPLICA_MAX_DIM must be a positive integer, got {limit!r}"


class TestCondDyn:
    def test_control_selects_block(self, capsys, tmp_path):
        x = operator_to_json(Operator(np.array([[0, 1], [1, 0]])))
        i = operator_to_json(Operator(np.eye(2)))
        blocks = tmp_path / "blocks.json"
        blocks.write_text(json.dumps([i, x]))
        code, report = run_json(capsys, ["cond-dyn", "--blocks", str(blocks), "--control", "1"])
        assert code == 0
        assert report["dense_check"]["performed"] is True
        assert report["dense_check"]["max_deviation"] <= 1e-12
        amps = [complex(re, im) for re, im in report["output"]["amps"]]
        assert abs(amps[3]) == pytest.approx(1.0, abs=1e-12)  # |1>|0> -> |1>|1>

    def test_dense_check_skipped_when_large(self, capsys, tmp_path):
        blocks = tmp_path / "blocks.json"
        blocks.write_text(json.dumps([operator_to_json(Operator(np.eye(32)))] * 33))
        code, report = run_json(capsys, ["cond-dyn", "--blocks", str(blocks), "--control", "0"])
        assert code == 0
        assert report["dense_check"] == {
            "performed": False,
            "note": "joint space exceeds 2^10 amplitudes; block-form result only",
        }

    def test_declared_dimensions_must_match_the_blocks(self, capsys):
        x = operator_to_json(Operator(np.array([[0, 1], [1, 0]])))
        i = operator_to_json(Operator(np.eye(2)))
        blocks = json.dumps({"control_dim": 5, "target_dim": 7, "blocks": [i, x]})
        line = one_error_line(capsys, ["cond-dyn", "--blocks", blocks, "--control", "1"])
        assert line == "error: controlled operator: control_dim=5 inconsistent with blocks (2)"

    def test_requires_an_input_or_a_control(self, capsys):
        blocks = json.dumps([operator_to_json(Operator(np.eye(2)))])
        assert one_error_line(capsys, ["cond-dyn", "--blocks", blocks]) == "error: provide --input or --control"

    @pytest.mark.parametrize(
        "extra",
        [["--control", "1"], ["--target-state", "{}"], ["--control", "0", "--target-state", "{}"]],
        ids=["control", "target-state", "both"],
    )
    def test_an_input_state_excludes_a_control_and_a_target_state(self, capsys, extra):
        x = operator_to_json(Operator(np.array([[0, 1], [1, 0]])))
        joint = json.dumps({"dim": 4, "amps": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
        line = one_error_line(capsys, ["cond-dyn", "--blocks", json.dumps([x, x]), "--input", joint, *extra])
        assert line == "error: --input is the whole joint state: give it without --control or --target-state"

    def test_a_dense_check_over_the_budget_ends_in_exit_2(self, capsys, monkeypatch):
        """The dense check's 4 × 4 matrix holds 16 amplitudes, more than a budget
        of 15 that the 4-amplitude joint state fits."""
        monkeypatch.setenv(config.ENV_MAX_DIM, "15")
        x = operator_to_json(Operator(np.array([[0, 1], [1, 0]])))
        line = one_error_line(capsys, ["cond-dyn", "--blocks", json.dumps([x, x]), "--control", "1"])
        assert line == "error: dense controlled operator needs 16 amplitudes, exceeding MAX_DIM=15"


class TestTapeRun:
    def test_joint_check_small(self, capsys, golden_gates_file):
        code, report = run_json(
            capsys,
            ["tape-run", "--tape", "n=2;cells=1,0;head=0", "--gates", golden_gates_file],
        )
        assert code == 0
        assert report["joint_check"]["performed"] is True
        assert report["joint_check"]["tape_restored_exactly"] is True
        assert report["joint_check"]["max_payload_deviation"] <= 1e-10

    def test_joint_check_skipped_when_large(self, capsys, golden_gates_file):
        cells = ",".join("1" for _ in range(11))  # 2^11 * 2 amplitudes > 2^10
        code, report = run_json(
            capsys,
            ["tape-run", "--tape", f"n=2;cells={cells};head=0", "--gates", golden_gates_file],
        )
        assert code == 0
        assert report["joint_check"]["performed"] is False
        assert report["joint_check"]["note"] == (
            "joint space exceeds 2^10 amplitudes; product-form verification only"
        )

    @pytest.mark.parametrize("dim", ["2.0", "true", "3"])
    def test_bad_gate_set_dim(self, capsys, tmp_path, dim):
        path = tmp_path / "gates.json"
        path.write_text(json.dumps({**gate_set_to_json(default_gate_set()), "dim": json.loads(dim)}))
        assert cli.main(["tape-run", "--tape", "n=2;cells=1,0;head=0", "--gates", str(path)]) == 2
        assert "dim" in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["0", "1"])
    def test_a_payload_excludes_a_payload_index(self, capsys, golden_gates_file, index):
        payload = json.dumps({"dim": 2, "amps": [[1.0, 0.0], [0.0, 0.0]]})
        argv = ["tape-run", "--tape", "n=2;cells=1,0;head=0", "--gates", golden_gates_file]
        line = one_error_line(capsys, [*argv, "--payload", payload, "--payload-index", index])
        assert line == "error: provide at most one of --payload or --payload-index"

    def test_bad_tape_text(self, capsys, golden_gates_file):
        assert cli.main(["tape-run", "--tape", "n=2;cells=", "--gates", golden_gates_file]) == 2

    @pytest.mark.parametrize("tape", ['{"n":2,"cells":[1.9,true]}', '{"n":2.0,"cells":[1,0]}'])
    def test_non_integer_tape_json(self, capsys, golden_gates_file, tape):
        assert cli.main(["tape-run", "--tape", tape, "--gates", golden_gates_file]) == 2
        assert "integer" in capsys.readouterr().err


class TestApprox:
    def test_found(self, capsys, x_target_file):
        code, report = run_json(
            capsys,
            ["approx", "--target", x_target_file, "--epsilon", "0.2", "--max-len", "8"],
        )
        assert code == 0
        assert report["found"] is True
        assert report["result"]["achieved_distance"] <= 0.2
        assert report["result"]["length"] == len(report["result"]["symbols"])
        assert report["result"]["tape"].startswith("n=2;cells=")

    def test_not_found_still_reports_best(self, capsys, x_target_file):
        code, report = run_json(
            capsys,
            ["approx", "--target", x_target_file, "--epsilon", "1e-06", "--max-len", "4"],
        )
        assert code == 0
        assert report["found"] is False
        assert report["result"]["achieved_distance"] > 1e-6

    def test_explicit_gates_file(self, capsys, x_target_file, golden_gates_file):
        code, report = run_json(
            capsys,
            [
                "approx",
                "--target",
                x_target_file,
                "--gates",
                golden_gates_file,
                "--epsilon",
                "0.2",
                "--max-len",
                "8",
            ],
        )
        assert code == 0
        assert report["result"]["labels"][0] in ("rz", "rx")

    def test_an_over_deep_search_ends_in_exit_2(self, capsys, monkeypatch):
        """A search that cannot meet epsilon grows each level until the next
        one would exceed MAX_DIM; it ends in one error line, not a traceback."""
        monkeypatch.setenv(config.ENV_MAX_DIM, "4096")
        target = json.dumps(operator_to_json(random_unitary(2, np.random.default_rng(5))))
        line = one_error_line(capsys, ["approx", "--target", target, "--epsilon", "1e-12", "--max-len", "40"])
        assert line.startswith("error: approximation level needs ")
        assert line.endswith(" amplitudes, exceeding MAX_DIM=4096")

    def test_a_tolerance_override_applies_to_its_call_only(self, capsys, tmp_path):
        """Each call builds and checks the default gate set under the
        UNITARY_TOL that call sets, and the override does not outlive its call.
        The target's residual A†A − I is about 1e-12 on every BLAS kernel, so
        UNITARY_TOL=1e-13 refuses it where the default accepts it."""
        s = 1.0 + 5e-13
        target = tmp_path / "scaled_x.json"
        target.write_text(json.dumps(operator_to_json(Operator(np.array([[0, s], [s, 0]])))))
        argv = ["approx", "--target", str(target), "--epsilon", "0.1", "--max-len", "4"]
        with mock.patch.object(approx, "_check_unitary_family", wraps=approx._check_unitary_family) as spy:
            assert cli.main(argv) == 0
            capsys.readouterr()
            line = one_error_line(capsys, [*argv, "--set-tolerance", "UNITARY_TOL=1e-13"])
            assert cli.main(argv) == 0
        assert line == "error: approximation target must be unitary"
        assert spy.call_count == 3

    def test_bad_epsilon(self, capsys, x_target_file):
        assert cli.main(["approx", "--target", x_target_file, "--epsilon", "0", "--max-len", "4"]) == 2

    def test_a_tolerance_override_needs_a_name_and_a_value(self, capsys, x_target_file):
        argv = ["approx", "--target", x_target_file, "--epsilon", "0.2", "--max-len", "4"]
        line = one_error_line(capsys, [*argv, "--set-tolerance", "UNITARY_TOL"])
        assert line == "error: tolerance override 'UNITARY_TOL' must have the form NAME=VALUE"

    def test_a_gate_set_needs_one_label_per_gate(self, capsys, x_target_file):
        gates = gate_set_to_json(default_gate_set())
        gates["labels"] = ["rz"]
        argv = ["approx", "--target", x_target_file, "--gates", json.dumps(gates), "--epsilon", "0.2", "--max-len", "4"]
        assert one_error_line(capsys, argv) == "error: gate set: got 1 labels for 2 gates"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--epsilon", "0.2", "--set-tolerance", "DEFAULT_NET_RADIUS=nan"],
            ["--epsilon", "0.2", "--set-tolerance", "DEFAULT_NET_RADIUS=inf"],
            ["--epsilon", "inf"],
            ["--epsilon", "nan"],
        ],
    )
    def test_non_finite_search_inputs(self, capsys, x_target_file, extra):
        code = cli.main(["approx", "--target", x_target_file, "--max-len", "4", *extra])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_the_merge_radius_is_set_as_a_tolerance_and_reported_as_in_force(self, capsys, x_target_file):
        """--net-radius is refused; --set-tolerance DEFAULT_NET_RADIUS=R searches
        at R, as the library's net_radius=R does, and the report's net_radius is
        its snapshot's."""
        argv = ["approx", "--target", x_target_file, "--epsilon", "1e-3", "--max-len", "10"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--net-radius", "0.05"])
        assert exc.value.code == 2
        capsys.readouterr()
        x, gates = Operator(np.array([[0, 1], [1, 0]])), default_gate_set()
        for radius in (None, 1e-3, 0.05, 0.2):
            extra = [] if radius is None else ["--set-tolerance", f"DEFAULT_NET_RADIUS={radius}"]
            code, report = run_json(capsys, [*argv, *extra])
            assert code == 0
            assert report["net_radius"] == report["tolerances"]["DEFAULT_NET_RADIUS"]
            assert report["net_radius"] == (config.DEFAULT_NET_RADIUS if radius is None else radius)
            expected = approx.best_approximation(x, gates, 10, epsilon=1e-3, net_radius=radius)
            assert report["result"] == json.loads(json.dumps(approx.approx_result_to_json(expected, gates)))

    def test_parallel_option_is_gone_and_reports_are_deterministic(
        self, capsys, x_target_file, automaton_file
    ):
        """Searches run one way only: --parallel is refused, and every report says so."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["approx", "--target", x_target_file, "--epsilon", "0.2", "--max-len", "8", "--parallel"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, report = run_json(
            capsys, ["approx", "--target", x_target_file, "--epsilon", "0.2", "--max-len", "8"]
        )
        assert code == 0
        assert report["deterministic"] is True
        assert report["found"] is True
        assert report["result"]["achieved_distance"] <= 0.2
        code, clone = run_json(capsys, ["clone-demo", "--n", "2", "--basis-index", "1"])
        assert code == 0 and clone["deterministic"] is True
        code, lines = run_json_lines(
            capsys, ["replicate", "--automaton", automaton_file, "--generations", "1"]
        )
        assert code == 0 and lines[0]["deterministic"] is True


class TestReplicate:
    def test_generations_report(self, capsys, automaton_file):
        code, lines = run_json_lines(
            capsys, ["replicate", "--automaton", automaton_file, "--generations", "3"]
        )
        assert code == 0
        header, *rows = lines
        assert header["command"] == "replicate"
        assert "tolerances" in header
        assert [row["generation"] for row in rows] == [1, 2, 3]
        for row in rows:
            assert row["tape_identical"] is True
            assert row["payload_fidelity"] >= 1.0 - 1e-8
            assert row["overlap_with_one_cell_variant"] == [0.0, 0.0]

    @pytest.mark.parametrize(
        "n, tape, segments, variant",
        [(1, "n=1;cells=0;head=0", {"a": []}, None), (2, "n=2;cells=1,0;head=0", {"a": [1]}, [0.0, 0.0])],
    )
    def test_one_cell_variant_exists_only_beyond_one_symbol(self, tmp_path, capsys, n, tape, segments, variant):
        """A one-symbol alphabet has no tape differing in a cell, so the field is null there."""
        gates = GateSet(tuple(identity(2) for _ in range(n)))
        automaton = {"tape": tape, "registry": {"gate_set": gate_set_to_json(gates), "segments": segments}}
        path = tmp_path / "automaton.json"
        path.write_text(json.dumps(automaton))
        code, lines = run_json_lines(capsys, ["replicate", "--automaton", str(path), "--generations", "2"])
        assert code == 0
        assert [row["overlap_with_one_cell_variant"] for row in lines[1:]] == [variant, variant]

    @pytest.mark.parametrize(
        "golden, n, tape, segments",
        [
            ("replicate_240_head17", None, None, None),
            ("replicate_n1", 1, "n=1;cells=0;head=0", {"a": []}),
            ("replicate_n2", 2, "n=2;cells=1,0;head=0", {"a": [1]}),
        ],
    )
    def test_report_matches_golden_bytes(self, tmp_path, monkeypatch, golden, n, tape, segments):
        """Three generations write the checked-in report byte for byte: a 240-cell,
        head-17 tape over demo_registry(3)'s gates, and the n = 1 and n = 2 variant cases."""
        monkeypatch.delenv(config.ENV_MAX_DIM, raising=False)
        data = Path(__file__).parent / "data"
        if tape is None:
            path = data / f"{golden}_automaton.json"
        else:
            gates = GateSet(tuple(identity(2) for _ in range(n)))
            path = tmp_path / "automaton.json"
            path.write_text(json.dumps({"tape": tape, "registry": {"gate_set": gate_set_to_json(gates), "segments": segments}}))
        out = tmp_path / "report.jsonl"
        assert cli.main(["replicate", "--automaton", str(path), "--generations", "3", "--output", str(out)]) == 0
        assert out.read_bytes() == (data / f"{golden}.jsonl").read_bytes()

    def test_the_one_cell_variant_is_translated_once(self, tmp_path, monkeypatch):
        """Five generations of the 240-cell golden automaton: loading it
        translates its tape twice, and each generation translates the child
        twice and its one-cell variant once, without building a variant
        automaton."""
        calls = []
        translate = qreplica.automaton.translate

        def spy(t, registry):
            calls.append(t.length)
            return translate(t, registry)

        monkeypatch.setattr(qreplica.automaton, "translate", spy)
        monkeypatch.setattr(cli, "translate", spy)
        path = Path(__file__).parent / "data" / "replicate_240_head17_automaton.json"
        out = tmp_path / "report.jsonl"
        assert cli.main(["replicate", "--automaton", str(path), "--generations", "5", "--output", str(out)]) == 0
        assert calls == [240] * 17

    def test_report_file(self, tmp_path, capsys, automaton_file):
        out = tmp_path / "report.jsonl"
        code = cli.main(
            ["replicate", "--automaton", automaton_file, "--generations", "2", "--output", str(out)]
        )
        assert code == 0
        lines = [json.loads(line) for line in out.read_text().strip().splitlines()]
        assert len(lines) == 3  # header + 2 generations

    def test_report_option_is_gone(self, tmp_path, capsys, automaton_file):
        """The global --output is the one option that names the report file."""
        out = tmp_path / "report.jsonl"
        with pytest.raises(SystemExit) as exc:
            cli.main(["replicate", "--automaton", automaton_file, "--generations", "2", "--report", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_integrity_failure_maps_to_exit_3(self, capsys, automaton_file, monkeypatch):
        def broken(parent):
            raise ReplicationIntegrityError("certificate failed")

        monkeypatch.setattr(cli, "replicate", broken)
        assert cli.main(["replicate", "--automaton", automaton_file, "--generations", "1"]) == 3

    def test_registry_segments_must_be_an_object(self, capsys):
        automaton = automaton_to_json(demo_automaton(2))
        automaton["registry"]["segments"] = [[1], [2], [3, 1]]
        line = one_error_line(capsys, ["replicate", "--automaton", json.dumps(automaton), "--generations", "1"])
        assert line == "error: registry.segments: expected an object mapping names to symbol lists"


class TestOutputPlumbing:
    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["clone-demo", "--n", "3", "--basis-index", "2", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "cloned"

    def test_unwritable_output_path(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        line = one_error_line(capsys, ["clone-demo", "--n", "2", "--basis-index", "1", "--output", str(out)])
        assert line == f"error: cannot write report to {str(out)!r}: No such file or directory"

    def test_closed_stdout_exits_without_traceback(self):
        """A reader that goes away before the report is written ends the run quietly."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(Path(qreplica.__file__).resolve().parents[1])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qreplica", "clone-demo", "--n", "2", "--basis-index", "1"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr.decode()
        assert proc.returncode == cli.CLOSED_STDOUT_EXIT != 0

    def test_successive_calls_reach_each_subcommand_and_a_rebound_handler(self, capsys, monkeypatch, x_target_file):
        calls = []

        def spy(args):
            calls.append(args.max_len)
            return 0

        monkeypatch.setattr(cli, "cmd_approx", spy)
        code, report = run_json(capsys, ["clone-demo", "--n", "2", "--basis-index", "1"])
        assert (code, report["command"]) == (0, "clone-demo")
        assert cli.main(["approx", "--target", x_target_file, "--epsilon", "0.1", "--max-len", "3"]) == 0
        assert calls == [3]
        code, report = run_json(capsys, ["clone-demo", "--n", "3", "--basis-index", "2"])
        assert (code, report["n"]) == (0, 3)

    @pytest.mark.parametrize(
        "raised, line",
        [
            (MemoryError("Unable to allocate 596. GiB for an array"), "error: Unable to allocate 596. GiB for an array"),
            (MemoryError(), "error: out of memory"),
        ],
        ids=["with-message", "without-message"],
    )
    def test_an_allocation_the_host_cannot_make_ends_in_exit_2(self, capsys, monkeypatch, raised, line):
        """The budget checks passed, but the host refused the memory: one error
        line and exit 2, not a traceback and not verification's exit 1."""

        def short_of_memory(args):
            raise raised

        monkeypatch.setattr(cli, "cmd_clone_demo", short_of_memory)
        assert one_error_line(capsys, ["clone-demo", "--n", "2", "--basis-index", "1"]) == line

    def test_reports_are_byte_stable(self, capsys):
        code1 = cli.main(["clone-demo", "--n", "2", "--basis-index", "1"])
        first = capsys.readouterr().out
        code2 = cli.main(["clone-demo", "--n", "2", "--basis-index", "1"])
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second


class TestJsonArguments:
    """A JSON argument names a file to read, or else is the JSON text itself."""

    def test_long_inline_json_reads_like_the_same_file(self, capsys, tmp_path):
        text = json.dumps(gate_set_to_json(GateSet((identity(2),) * 4, ("a", "b", "c", "d"))))
        # Longer than NAME_MAX (255 bytes), so no file can have this name.
        assert len(text.encode()) == 349
        path = tmp_path / "gates.json"
        path.write_text(text)
        reports = []
        for gates in (text, str(path)):
            assert cli.main(["tape-run", "--tape", "n=4;cells=3,1;head=0", "--gates", gates]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_short_inline_json_reads_like_the_same_file(self, capsys, tmp_path):
        text = json.dumps(gate_set_to_json(GateSet((identity(2),), ("a",))))
        # Short enough to be a file name, but no such file exists.
        assert len(text.encode()) < 255 and not (tmp_path / text).exists()
        path = tmp_path / "gates.json"
        path.write_text(text)
        reports = []
        for gates in (text, str(path)):
            assert cli.main(["tape-run", "--tape", "n=1;cells=0;head=0", "--gates", gates]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "gates.json"
        path.write_bytes(b'{"gates": "\xff"}')
        line = one_error_line(capsys, ["tape-run", "--tape", "n=2;cells=1;head=0", "--gates", str(path)])
        assert "not UTF-8" in line

    @pytest.mark.parametrize("text", ["", " ", "\n"])
    def test_empty_text_is_malformed_json_not_a_directory(self, capsys, text):
        line = one_error_line(capsys, ["clone-demo", "--n", "2", "--state", text])
        assert line.startswith("error: state: malformed JSON at line ")

    def test_directory(self, capsys, tmp_path):
        line = one_error_line(capsys, ["tape-run", "--tape", "n=2;cells=1;head=0", "--gates", str(tmp_path)])
        assert line == f"error: gate set: {str(tmp_path)!r} is a directory, not a JSON file"

    @pytest.mark.parametrize(
        "payload",
        [
            '{"dim":1,"amps":[[1' + "0" * 400 + ',0]]}',
            '{"dim":2,"amps":[[1e200,0],[0,0]]}',
            '{"dim":2,"amps":[[NaN,0],[0,0]]}',
            '{"dim":2,"amps":[[Infinity,0],[0,0]]}',
            '{"dim":2,"amps":[[0.6,0],[0,0.6]]}',
            '{"dim":1,"amps":[[1' + "0" * 5000 + ',0]]}',
            "[" * 100000,
        ],
        ids=["400-digit", "overflowing-norm", "nan", "infinity", "non-unit", "5000-digit", "deep-nesting"],
    )
    def test_malformed_payload(self, capsys, golden_gates_file, payload):
        argv = ["tape-run", "--tape", "n=2;cells=1;head=0", "--gates", golden_gates_file, "--payload", payload]
        one_error_line(capsys, argv)
