"""Command-line surface: demos and verification runs as reproducible JSON reports.

Every report embeds the tolerance values in force. Exit codes: 0 success,
1 failed verification, 2 contract/input errors, 3 integrity errors, and 141
when stdout was closed before the report was written out (128 + SIGPIPE, the
status a shell gives a writer that SIGPIPE ends); nothing is printed then.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import config, verify
from .approx import (
    approx_result_to_json,
    best_approximation,
    default_gate_set,
    gate_set_from_json,
)
from .automaton import automaton_from_json, automaton_overlap, replicate, tape_payload_overlap, translate, Automaton
from .basis_ops import apply_controlled, controlled_from_json, copy_onto_blank, dense_deviation
from .errors import ContractError, InputError, QReplicaError
from .linalg import basis_state, fidelity, operator_from_json, state_from_json, state_to_json, tensor_state
from .tape import Tape, format_tape, joint_check, parse_tape, run_tape, tape_from_json

CLOSED_STDOUT_EXIT = 141

_OVER_JOINT_LIMIT = f"joint space exceeds 2^{config.JOINT_CHECK_LIMIT.bit_length() - 1} amplitudes"


def _parse_override(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep:
        raise InputError(f"tolerance override {text!r} must have the form NAME=VALUE")
    try:
        number = float(value)
    except ValueError:
        raise InputError(f"tolerance override {text!r} has a non-numeric value") from None
    if not math.isfinite(number) or number < 0.0:
        raise InputError(f"tolerance override {text!r} must be a finite, non-negative number")
    return name, number


def _load_json(text: str, what: str):
    """Parse the file ``text`` names, or else ``text`` itself; errors carry line/position."""
    try:
        # Path("") names the current directory: empty or blank text is inline JSON.
        source = Path(text).read_text(encoding="utf-8") if text.strip() else text
    except UnicodeDecodeError as exc:
        raise InputError(f"{what}: file {text!r} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except IsADirectoryError as exc:
        raise InputError(f"{what}: {text!r} is a directory, not a JSON file") from exc
    except (OSError, ValueError):  # ValueError: no path holds a NUL byte
        source = text
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what}: unreadable JSON: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            Path(output).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write report to {output!r}: {exc.strerror or exc}") from exc


def _emit_report(report: dict, output: str | None) -> None:
    _emit(json.dumps(report, indent=2, sort_keys=True), output)


def _base_report(command: str, args) -> dict:
    return {
        "command": command,
        "seed": args.seed,
        "deterministic": True,
        "tolerances": config.snapshot(),
    }


def _load_tape(text: str) -> Tape:
    if text.lstrip().startswith("n="):
        return parse_tape(text)
    return tape_from_json(_load_json(text, "tape"))


def cmd_clone_demo(args) -> int:
    if args.n < 2:
        raise ContractError(f"clone demo needs a basis of at least 2, got {args.n}")
    if (args.basis_index is None) == (args.state is None):
        raise InputError("provide exactly one of --basis-index or --state")
    if args.basis_index is not None:
        psi = basis_state(args.n, args.basis_index)
        input_kind = "basis-index"
    else:
        psi = state_from_json(_load_json(args.state, "state"))
        input_kind = "amplitudes"
        if psi.dim != args.n:
            raise ContractError(f"input state dim {psi.dim} does not match --n {args.n}")
    (out,), (achieved,) = copy_onto_blank([psi])
    report = _base_report("clone-demo", args)
    report.update(
        {
            "n": args.n,
            "input_kind": input_kind,
            "input": state_to_json(psi),
            "output": state_to_json(out),
            "fidelity_to_perfect_copy": achieved,
            "verdict": "cloned" if achieved >= 1.0 - config.NO_CLONE_GAP else "entangled",
        }
    )
    _emit_report(report, args.output)
    return 0


def cmd_cond_dyn(args) -> int:
    obj = _load_json(args.blocks, "blocks")
    cd = controlled_from_json({"blocks": obj} if isinstance(obj, list) else obj)
    if args.input is not None:
        joint_in = state_from_json(_load_json(args.input, "input state"))
    else:
        if args.control is None:
            raise InputError("provide --input or --control")
        control = basis_state(cd.control_dim, args.control)
        if args.target_state is not None:
            target = state_from_json(_load_json(args.target_state, "target state"))
        else:
            target = basis_state(cd.target_dim, 0)
        joint_in = tensor_state(control, target)
    out = apply_controlled(cd, joint_in)
    report = _base_report("cond-dyn", args)
    report.update(
        {
            "control_dim": cd.control_dim,
            "target_dim": cd.target_dim,
            "input": state_to_json(joint_in),
            "output": state_to_json(out),
        }
    )
    if cd.joint_dim <= config.JOINT_CHECK_LIMIT:
        report["dense_check"] = {"performed": True, "max_deviation": dense_deviation(cd, joint_in, out)}
    else:
        report["dense_check"] = {
            "performed": False,
            "note": f"{_OVER_JOINT_LIMIT}; block-form result only",
        }
    _emit_report(report, args.output)
    return 0


def cmd_tape_run(args) -> int:
    t = _load_tape(args.tape)
    gates = gate_set_from_json(_load_json(args.gates, "gate set"))
    if args.payload is not None:
        payload = state_from_json(_load_json(args.payload, "payload"))
    else:
        payload = basis_state(gates.dim, args.payload_index)
    final = run_tape(t, gates.gates, payload)
    report = _base_report("tape-run", args)
    report.update(
        {
            "tape": format_tape(t),
            "payload_in": state_to_json(payload),
            "payload_out": state_to_json(final),
        }
    )
    joint_dim = t.alphabet_size**t.length * payload.dim
    if joint_dim <= config.JOINT_CHECK_LIMIT:
        leak, deviation = joint_check(t, gates.gates, payload, final)
        report["joint_check"] = {
            "performed": True,
            "tape_restored_exactly": leak == 0.0,
            "max_payload_deviation": deviation,
        }
    else:
        report["joint_check"] = {
            "performed": False,
            "note": f"{_OVER_JOINT_LIMIT}; product-form verification only",
        }
    _emit_report(report, args.output)
    return 0


def cmd_approx(args) -> int:
    target = operator_from_json(_load_json(args.target, "target"))
    gates = default_gate_set() if args.gates is None else gate_set_from_json(_load_json(args.gates, "gate set"))
    result = best_approximation(
        target, gates, args.max_len, epsilon=args.epsilon, net_radius=args.net_radius
    )
    report = _base_report("approx", args)
    report.update(
        {
            "epsilon": args.epsilon,
            "max_len": args.max_len,
            "net_radius": config.DEFAULT_NET_RADIUS if args.net_radius is None else args.net_radius,
            "found": result.achieved_distance <= args.epsilon,
            "result": approx_result_to_json(result, gates),
        }
    )
    _emit_report(report, args.output)
    return 0


def _variant_overlap(a: Automaton) -> list[float] | None:
    """[re, im] of a's overlap with the automaton of the same registry whose
    tape differs in cell 0: the orthogonality witness. None on a one-symbol
    alphabet, where no differing tape exists."""
    n = a.tape.alphabet_size
    if n == 1:
        return None
    cells = list(a.tape.cells)
    cells[0] = (cells[0] + 1) % n
    t = Tape(n, tuple(cells), a.tape.head)
    # The variant's translation, not a whole automaton, which would translate it again.
    overlap = tape_payload_overlap(a.tape, a.payload, t, translate(t, a.registry))
    return [overlap.real, overlap.imag]


def cmd_replicate(args) -> int:
    current = automaton_from_json(_load_json(args.automaton, "automaton"))
    if args.generations < 1:
        raise ContractError(f"generations must be at least 1, got {args.generations}")
    header = _base_report("replicate", args)
    header.update(
        {
            "tape": format_tape(current.tape),
            "gate_labels": list(current.registry.gate_set.labels),
            "segments": {name: list(cells) for name, cells in current.registry.segments},
            "generations": args.generations,
        }
    )
    lines = [json.dumps(header, sort_keys=True)]
    for _ in range(args.generations):
        parent, child = replicate(current)
        parent_overlap = automaton_overlap(child, parent)
        lines.append(
            json.dumps(
                {
                    "generation": child.generation,
                    "tape": format_tape(child.tape),
                    "tape_identical": child.tape.cells == parent.tape.cells,
                    "payload_fidelity": fidelity(child.payload, parent.payload),
                    "overlap_with_parent": [parent_overlap.real, parent_overlap.imag],
                    "overlap_with_one_cell_variant": _variant_overlap(child),
                },
                sort_keys=True,
            )
        )
        current = child
    _emit("\n".join(lines), args.output)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(args.seed)
    if args.json:
        lines = [json.dumps({"seed": args.seed, "tolerances": config.snapshot()}, sort_keys=True)]
        for r in results:
            lines.append(
                json.dumps(
                    {"criterion": r.number, "name": r.name, "passed": r.passed, "details": r.details},
                    sort_keys=True,
                )
            )
        _emit("\n".join(lines), args.output)
    else:
        _emit(verify.render_table(results), args.output)
    return 0 if all(r.passed for r in results) else 1


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; it names each subcommand, not its handler."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=7, help="random seed for sampled checks")
    common.add_argument("--output", default=None, help="write the report here instead of stdout")
    common.add_argument(
        "--set-tolerance",
        action="append",
        metavar="NAME=VALUE",
        help="override a named tolerance for this run (repeatable)",
    )

    parser = argparse.ArgumentParser(
        prog="qreplica",
        description="Basis cloning, conditional dynamics, programmable gate tapes, "
        "and self-replicating automata on dense state vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clone-demo", parents=[common], help="copy a basis state, or fail to copy a superposition")
    p.add_argument("--n", type=int, required=True, help="basis size of the register being copied")
    p.add_argument("--basis-index", type=int, default=None, help="copy this basis state")
    p.add_argument("--state", default=None, help="state JSON (inline or path) to feed the copier")

    p = sub.add_parser("cond-dyn", parents=[common], help="apply control-selected unitary blocks")
    p.add_argument("--blocks", required=True, help="JSON list of operators (inline or path)")
    p.add_argument("--input", default=None, help="joint input state JSON (inline or path)")
    p.add_argument("--control", type=int, default=None, help="control basis index")
    p.add_argument("--target-state", default=None, help="target register state JSON (default: blank)")

    p = sub.add_parser("tape-run", parents=[common], help="run a symbol tape's gate sequence on a payload")
    p.add_argument("--tape", required=True, help="tape text 'n=..;cells=..;head=..' or JSON")
    p.add_argument("--gates", required=True, help="gate set JSON (inline or path)")
    p.add_argument("--payload", default=None, help="payload state JSON (default: blank basis state)")
    p.add_argument("--payload-index", type=int, default=0, help="payload basis index if no --payload")

    p = sub.add_parser("approx", parents=[common], help="search gate products approximating a target")
    p.add_argument("--target", required=True, help="target operator JSON (inline or path)")
    p.add_argument("--gates", default=None, help="gate set JSON (default: built-in irrational rotations)")
    p.add_argument("--epsilon", type=float, required=True, help="acceptable distance to the target")
    p.add_argument("--max-len", type=int, required=True, help="longest sequence to consider")
    p.add_argument("--net-radius", type=float, default=None, help="merge radius for visited products")

    p = sub.add_parser("replicate", parents=[common], help="run replication cycles, reporting each generation")
    p.add_argument("--automaton", required=True, help="automaton JSON (inline or path)")
    p.add_argument("--generations", type=int, required=True, help="number of replication cycles")

    p = sub.add_parser("verify", parents=[common], help="run the full property suite and print a table")
    p.add_argument("--json", action="store_true", help="emit JSON lines instead of the table")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up per call, so a handler rebound on this module takes effect.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        overrides = [_parse_override(t) for t in args.set_tolerance or []]
        with config.overridden(overrides):
            code = handler(args)
        sys.stdout.flush()
        return code
    except QReplicaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The reader closed stdout. Point stdout at devnull so that the
        # interpreter's final flush of what is still buffered cannot raise too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT_EXIT


if __name__ == "__main__":
    sys.exit(main())
