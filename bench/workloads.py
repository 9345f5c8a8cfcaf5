"""The four workloads: seeded inputs, the timed operation and its output checks.

Inputs are generated here with numpy from the run's seed, written in the
CLI's JSON and text formats, and loaded back through the program's public
``*_from_json`` and ``parse_tape`` during set-up, so the program receives only
the generated inputs. Each workload is a closed loop with one client: the next
operation starts when the previous one returns.

The checks recompute what they can with plain numpy instead of trusting the
program's own verification, and return a list of problems (empty when the
output is correct).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qreplica import approx, automaton, basis_ops, cli, linalg, tape

APPROX_MAX_LEN = 14
# Far below any distance a length-14 product reaches, so no level stops early.
APPROX_EPSILON = "1e-9"
DISTANCE_TOL = 1e-12
FIDELITY_FLOOR = 1.0 - 1e-8
PAYLOAD_TOL = 1e-10
STRUCT_DENSE_TOL = 1e-12

LINEAGE_CELLS = 240  # separators included; fixed so per-generation counts repeat across seeds
LINEAGE_SEGMENTS = 24
LINEAGE_GENERATIONS_PER_PASS = 10

# 4 symbols, 9 cells, 4-dim payload: 4**9 * 4 = 2**20 amplitudes (16 MB), the
# default MAX_DIM. The dense cross-check runs at the CLI's 2**10 limit.
JOINT_ALPHABET, JOINT_CELLS, JOINT_PAYLOAD = 4, 9, 4
DENSE_CONTROL, DENSE_TARGET = 256, 4
JOINT_INPUTS_PER_PASS = 4


# -- seeded generators and the CLI's file formats ------------------------------


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_amplitudes(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def operator_json(matrix: np.ndarray) -> dict:
    return {"dim": int(matrix.shape[0]), "rows": [_pairs(row) for row in matrix]}


def state_json(amps: np.ndarray) -> dict:
    return {"dim": int(amps.shape[0]), "amps": _pairs(amps)}


def gate_set_json(matrices, labels) -> dict:
    return {"dim": int(matrices[0].shape[0]), "labels": list(labels), "gates": [operator_json(m) for m in matrices]}


def tape_text(n: int, cells) -> str:
    return f"n={n};cells={','.join(str(c) for c in cells)};head=0"


def tape_index(n: int, cells) -> int:
    """Base-n numeral, most significant cell first; kept apart from the program's own."""
    index = 0
    for c in cells:
        index = index * n + c
    return index


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"input round trip failed: {what}")


# -- workloads -----------------------------------------------------------------


class Workload:
    """One seeded input set and the operation the benchmark times on it."""

    name = ""
    why = ""
    operation = ""
    ops_per_pass = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        """Generate inputs, write them, load them back and warm up."""
        raise NotImplementedError

    def op(self, i: int):
        """The timed call into the program; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, i: int, output) -> list[str]:
        raise NotImplementedError


class Verify(Workload):
    name = "verify"
    why = "The certification run users wait on: every construction at small size plus 160 short approx searches."
    operation = "qreplica verify --seed <seed> --json through cli.main, in process, to a file"

    def setup(self) -> None:
        self.out = self.workdir / "verify.jsonl"
        self.first: bytes | None = None
        target = self.workdir / "warm-target.json"
        _write_json(target, operator_json(haar_unitary(2, self.rng)))
        warm = str(self.workdir / "warm.json")
        cli.main(["clone-demo", "--n", "3", "--basis-index", "2", "--output", warm])
        cli.main(["approx", "--target", str(target), "--epsilon", APPROX_EPSILON, "--max-len", "6", "--output", warm])

    def op(self, i: int):
        return cli.main(["verify", "--seed", str(self.seed), "--json", "--output", str(self.out)])

    def check(self, i: int, output) -> list[str]:
        problems = [] if output == 0 else [f"exit code {output}"]
        data = self.out.read_bytes()
        lines = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        passed = {line["criterion"]: line["passed"] for line in lines[1:]}
        if sorted(passed) != list(range(1, 9)):
            problems.append(f"criteria reported: {sorted(passed)}")
        problems += [f"criterion {n} failed" for n, ok in sorted(passed.items()) if ok is not True]
        if self.first is None:
            self.first = data
        elif data != self.first:
            problems.append("output bytes differ from the first pass")
        return problems


class ApproxDeep(Workload):
    name = "approx_deep"
    why = "One deep approx search (~32k products), where the linear visited-net scan dominates."
    operation = f"qreplica approx --max-len {APPROX_MAX_LEN} --epsilon {APPROX_EPSILON} on a seeded Haar 2x2 target"

    def setup(self) -> None:
        self.target = haar_unitary(2, self.rng)
        self.target_path = self.workdir / "target.json"
        _write_json(self.target_path, operator_json(self.target))
        loaded = linalg.operator_from_json(_read_json(self.target_path))
        _require(np.array_equal(loaded.entries, self.target), "approx target")
        self.gates = [g.entries.copy() for g in approx.default_gate_set().gates]
        self.out = self.workdir / "approx.json"
        self.expansions: int | None = None
        cli.main(["approx", "--target", str(self.target_path), "--epsilon", APPROX_EPSILON, "--max-len", "8",
                  "--output", str(self.out)])

    def op(self, i: int):
        return cli.main(["approx", "--target", str(self.target_path), "--epsilon", APPROX_EPSILON,
                         "--max-len", str(APPROX_MAX_LEN), "--seed", str(self.seed), "--output", str(self.out)])

    def check(self, i: int, output) -> list[str]:
        problems = [] if output == 0 else [f"exit code {output}"]
        result = _read_json(self.out)["result"]
        product = np.eye(2, dtype=complex)
        for symbol in result["symbols"]:
            product = self.gates[symbol] @ product
        overlap = abs(np.trace(product.conj().T @ self.target)) / 2.0
        distance = float(np.sqrt(max(0.0, 1.0 - overlap)))
        if abs(distance - result["achieved_distance"]) > DISTANCE_TOL:
            problems.append(f"reported distance {result['achieved_distance']!r}, recomputed {distance!r}")
        if result["length"] != len(result["symbols"]):
            problems.append("length does not match the symbols")
        if self.expansions is None:
            self.expansions = result["expansions"]
        elif result["expansions"] != self.expansions:
            problems.append(f"expansions {result['expansions']} differ from the first pass ({self.expansions})")
        return problems


class Lineage(Workload):
    name = "lineage"
    why = "Replication generations on a 240-cell tape: the small-object path through automaton, tape, basis_ops, linalg."
    operation = "one automaton.replicate generation of a seeded registry over demo_registry(3)'s dim-9 gates"
    ops_per_pass = LINEAGE_GENERATIONS_PER_PASS

    def setup(self) -> None:
        gate_set = automaton.demo_registry(3).gate_set
        n = gate_set.n
        symbols = LINEAGE_CELLS - LINEAGE_SEGMENTS
        lengths = 1 + self.rng.multinomial(symbols - LINEAGE_SEGMENTS, [1.0 / LINEAGE_SEGMENTS] * LINEAGE_SEGMENTS)
        segments = {f"p{k:02d}": [int(c) for c in self.rng.integers(1, n, int(length))] for k, length in enumerate(lengths)}
        cells = [c for segment in segments.values() for c in (*segment, 0)]
        path = self.workdir / "automaton.json"
        registry = {"gate_set": gate_set_json([g.entries for g in gate_set.gates], gate_set.labels), "segments": segments}
        _write_json(path, {"tape": tape_text(n, cells), "registry": registry, "generation": 0})
        loaded = automaton.automaton_from_json(_read_json(path))
        self.cells = tuple(cells)
        self.segments = tuple((name, tuple(segment)) for name, segment in segments.items())
        _require(loaded.tape.cells == self.cells, "automaton tape")
        _require(loaded.registry.segments == self.segments, "automaton registry")
        automaton.replicate(loaded)
        self.current = loaded

    def op(self, i: int):
        parent = self.current
        _, child = automaton.replicate(parent)
        self.current = child
        return parent, child

    def check(self, i: int, output) -> list[str]:
        parent, child = output
        problems = []
        if child.tape.cells != self.cells:
            problems.append("child tape differs from the original")
        if child.registry.segments != self.segments:
            problems.append("decoded child registry differs from the parent's")
        if child.generation != parent.generation + 1:
            problems.append(f"generation {child.generation} after {parent.generation}")
        fidelity = abs(np.vdot(parent.payload.amps, child.payload.amps)) ** 2
        if not fidelity >= FIDELITY_FLOOR:
            problems.append(f"payload fidelity {fidelity!r}")
        return problems


@dataclass(frozen=True)
class _JointInput:
    cells: tuple[int, ...]
    gate_matrices: tuple[np.ndarray, ...]
    payload_amps: np.ndarray
    tape: object
    gates: object
    payload: object
    controlled: object
    joint_in: object


class JointSpace(Workload):
    name = "joint_space"
    why = "Literal tape-payload evolution on 2^20 amplitudes (16 MB arrays): the same tape and linalg layers in bulk."
    operation = (
        "one joint_tape_evolution at 4^9 x 4 amplitudes checked against run_tape, plus one "
        "conditional_dynamics application checked against densify at 2^10"
    )
    ops_per_pass = JOINT_INPUTS_PER_PASS

    def setup(self) -> None:
        self.inputs = [self._make_input(k) for k in range(JOINT_INPUTS_PER_PASS)]
        self.check(0, self.op(0))

    def _make_input(self, k: int) -> _JointInput:
        rng = self.rng
        n, m = JOINT_ALPHABET, JOINT_PAYLOAD
        gates = tuple(haar_unitary(m, rng) for _ in range(n))
        cells = tuple(int(c) for c in rng.integers(0, n, JOINT_CELLS))
        payload = random_amplitudes(m, rng)
        blocks = [haar_unitary(DENSE_TARGET, rng) for _ in range(DENSE_CONTROL)]
        joint_in = random_amplitudes(DENSE_CONTROL * DENSE_TARGET, rng)
        files = {
            "tape": tape_text(n, cells),
            "gates": gate_set_json(gates, [f"u{l}" for l in range(n)]),
            "payload": state_json(payload),
            "blocks": {"control_dim": DENSE_CONTROL, "target_dim": DENSE_TARGET,
                       "blocks": [operator_json(b) for b in blocks]},
            "joint": state_json(joint_in),
        }
        for key, obj in files.items():
            path = self.workdir / f"joint{k}-{key}.txt"
            path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")

        def read(key: str) -> str:
            return (self.workdir / f"joint{k}-{key}.txt").read_text(encoding="utf-8")

        loaded = _JointInput(
            cells=cells,
            gate_matrices=gates,
            payload_amps=payload,
            tape=tape.parse_tape(read("tape")),
            gates=approx.gate_set_from_json(json.loads(read("gates"))),
            payload=linalg.state_from_json(json.loads(read("payload"))),
            controlled=basis_ops.controlled_from_json(json.loads(read("blocks"))),
            joint_in=linalg.state_from_json(json.loads(read("joint"))),
        )
        _require(loaded.tape.cells == cells, "joint tape")
        _require(all(np.array_equal(g.entries, h) for g, h in zip(loaded.gates.gates, gates)), "joint gates")
        _require(np.array_equal(loaded.payload.amps, payload), "joint payload")
        _require(all(np.array_equal(b.entries, h) for b, h in zip(loaded.controlled.blocks, blocks)), "blocks")
        _require(np.array_equal(loaded.joint_in.amps, joint_in), "dense input state")
        return loaded

    def op(self, i: int):
        inp = self.inputs[i % len(self.inputs)]
        joint = tape.joint_tape_evolution(inp.tape, inp.gates.gates, inp.payload)
        product = tape.run_tape(inp.tape, inp.gates.gates, inp.payload)
        structured = basis_ops.apply_controlled(inp.controlled, inp.joint_in)
        dense = linalg.apply(basis_ops.densify(inp.controlled), inp.joint_in)
        return inp, joint, product, structured, dense

    def check(self, i: int, output) -> list[str]:
        inp, joint, product, structured, dense = output
        problems = []
        rows = joint.amps.reshape(JOINT_ALPHABET**JOINT_CELLS, JOINT_PAYLOAD)
        index = tape_index(JOINT_ALPHABET, inp.cells)
        leak = max(float(np.max(np.abs(rows[:index]), initial=0.0)), float(np.max(np.abs(rows[index + 1 :]), initial=0.0)))
        if leak != 0.0:
            problems.append(f"tape leak {leak!r}")
        deviation = float(np.max(np.abs(rows[index] - product.amps)))
        if not deviation <= PAYLOAD_TOL:
            problems.append(f"joint payload deviates from run_tape by {deviation!r}")
        expected = inp.payload_amps
        for c in reversed(inp.cells):  # cell 1 (the last listed) acts first
            expected = inp.gate_matrices[c] @ expected
        deviation = float(np.max(np.abs(product.amps - expected)))
        if not deviation <= PAYLOAD_TOL:
            problems.append(f"run_tape deviates from the numpy product by {deviation!r}")
        deviation = float(np.max(np.abs(structured.amps - dense.amps)))
        if not deviation <= STRUCT_DENSE_TOL:
            problems.append(f"structured vs dense deviation {deviation!r}")
        return problems


WORKLOADS = {w.name: w for w in (Verify, ApproxDeep, Lineage, JointSpace)}
