"""qreplica benchmark: one workload per run, closed loop, outputs checked.

    python3 bench/run.py --workload {verify,approx_deep,lineage,joint_space} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` measures for S seconds untraced and reports the end-to-end
metrics gated in ``BENCHMARK.json`` (``setup_s``, ``op_ms_min``,
``peak_rss_mb``), printing ``wall_s``, ``op_ms_p50``, ``op_ms_tail`` and
``failed_frac`` beside them. ``--trace 1`` measures S/2 seconds untraced, then S/2 seconds with
every public call of the program wrapped (``bench/tracer.py``), and reports the
per-layer metrics plus the tracing overhead (traced minus untraced ``wall_s``).

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A
results file with the run environment, samples, failures and (traced) spans is
written under ``bench/out/``. The exit code is 0 when every check passed, 1 when
one failed, 2 when the program cannot be found or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MAX_FAILURES_KEPT = 20

# Which end-to-end metric, on which workload, each per-layer group should move.
# verify is runnable but not listed in BENCHMARK.json (see bench/README.md).
LAYER_MAP = {
    "approx.*": ["op_ms_* on approx_deep", "wall_s on verify"],
    "verify.criterion_*_s": ["wall_s on verify"],
    "cli.*": ["op_ms_* on approx_deep", "wall_s on verify"],
    "automaton.*, tape small-object, basis_ops.cloner_calls, linalg.state_*, linalg.apply_*": [
        "op_ms_* on lineage",
        "wall_s on verify",
    ],
    "tape.joint_*, basis_ops.apply_controlled_*, basis_ops.densify_*, linalg.operator_*": [
        "op_ms_* on joint_space",
        "peak_rss_mb on joint_space",
    ],
}


@dataclass
class Phase:
    """What one closed-loop measuring phase observed."""

    latencies: list[float] = field(default_factory=list)
    passes: list[float] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wall_s(self) -> float:
        return statistics.median(self.passes)


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="qreplica benchmark")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure(workload, seconds: float, tracer=None) -> Phase:
    """Run whole passes, one operation at a time, until ``seconds`` have elapsed.

    Only the program call is timed; checks run between operations. A failed
    check or an exception fails that operation and the loop goes on.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while True:
        pass_s = 0.0
        for _ in range(workload.ops_per_pass):
            i = phase.attempted
            if tracer is not None:
                tracer.op_id = i
            start = time.perf_counter()
            try:
                output = workload.op(i)
                problems = None
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op_id = -1
            phase.latencies.append(elapsed)
            pass_s += elapsed
            if problems is None:
                try:
                    problems = workload.check(i, output)
                except Exception:
                    problems = [traceback.format_exc(limit=3)]
                del output  # so the next operation's peak memory is its own
            if problems:
                phase.failed += 1
                if len(phase.failures) < MAX_FAILURES_KEPT:
                    phase.failures.append({"op": i, "problems": problems})
        phase.passes.append(pass_s)
        if time.perf_counter() >= deadline:
            return phase


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile that has TAIL_BEYOND samples beyond it, and which one.

    With fewer than 2 * TAIL_BEYOND samples that percentile would lie at or
    below the median, so the maximum (p100) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the program, numpy included.

    One in-process import is a single noisy sample, so set-up time counts the
    median of several child imports instead.
    """
    code = "import time; t = time.perf_counter(); import qreplica.cli; print(time.perf_counter() - t)"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(child.stdout))
    return statistics.median(times)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qreplica").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _openblas_threads() -> int | None:
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def environment(nproc: int) -> dict:
    import importlib.metadata
    import platform

    import numpy

    from qreplica import config

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "nproc": nproc,
        "l3_bytes": _l3_bytes(),
        "max_dim": config.max_dim(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    if not (SRC / "qreplica" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'qreplica'}; run from a full checkout", file=sys.stderr)
        return 2
    # BLAS threads must be capped before numpy loads OpenBLAS.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qreplica
    import qreplica.cli  # noqa: F401  (loads every layer)

    if Path(qreplica.__file__).resolve().parent != (SRC / "qreplica").resolve():
        print(f"error: imported qreplica from {qreplica.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from bench import tracer as tracing
    from bench.workloads import WORKLOADS

    args = _parse_args(argv, sorted(WORKLOADS))
    spec = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        import_s = import_seconds()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workload = spec(args.seed, workdir)
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        tracer = None
        if args.trace:
            timed = measure(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            with tracer:
                traced = measure(workload, args.seconds / 2, tracer)
            phases = [timed, traced]
            overhead = traced.wall_s - timed.wall_s
            metrics = tracing.layer_metrics(tracer, traced.attempted)
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_frac"] = (overhead / timed.wall_s, "ratio")
        else:
            timed = measure(workload, args.seconds)
            phases = [timed]
        tail_s, tail_pct = tail(timed.latencies)
        latency = {
            "wall_s": (timed.wall_s, "s"),
            # The gated latency: neighbouring load on a shared host slows whole
            # stretches of a run by up to 2x, which moves every percentile with
            # the share of the run it covers; the fastest operation tracks the
            # program's own cost.
            "op_ms_min": (1e3 * min(timed.latencies), "ms"),
            "op_ms_p50": (1e3 * statistics.median(timed.latencies), "ms"),
            "op_ms_tail": (1e3 * tail_s, "ms"),
        }
        if not args.trace:
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_ms_min": latency["op_ms_min"],
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failed_frac = failed / attempted
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": {"name": spec.name, "why": spec.why, "operation": spec.operation, "ops_per_pass": spec.ops_per_pass},
        "args": vars(args),
        "environment": environment(nproc),
        "setup_times_s": setup_times,
        "import_s": import_s,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "latency": {name: {"value": value, "unit": unit} for name, (value, unit) in latency.items()},
        "failed_frac": failed_frac,
        "op_ms_tail_percentile": tail_pct,
        "latencies_s": timed.latencies,
        "passes_s": timed.passes,
        "failures": [f for p in phases for f in p.failures],
        "layer_map": LAYER_MAP,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
        record["trace"]["spans_file"] = f"{stem}.spans.jsonl"
        tracer.write_spans(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {spec.name} seed {args.seed} trace {args.trace}: {spec.operation}")
    print(f"  ops {attempted}, failed {failed}, failed_frac {failed_frac:.6g}, passes {len(timed.passes)}")
    print(f"  op_ms_tail is p{tail_pct:.4g} of {timed.attempted} untraced ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    print("  also reported, not gated (untraced phase):")
    for name, (value, unit) in latency.items():
        if name not in metrics:
            print(f"  {name:<42} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':<42} {failed_frac:>16.6g} ratio")
    for failure in record["failures"][:3]:
        print(f"  FAILED op {failure['op']}: {failure['problems'][0].strip().splitlines()[-1]}")
    print(f"  results: {OUT.relative_to(ROOT) / (stem + '.json')}")
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
