"""Tracing qreplica from outside: spans and counters around its public calls.

``Tracer.install`` wraps every public function and every class constructor of
the traced layers, and rebinds each name that an importing module bound to the
original (``cli.best_approximation``, ``automaton.translate``,
``tape.apply_controlled``, ...), so calls between layers are seen too. No
source file of the program changes; ``uninstall`` restores every binding.

Every wrapped call adds to per-name call counts, total time and self time
(duration minus the part its child spans cover). Spans (name, start, end,
parent, operation id) are kept for the first SPAN_OPS operations only: one
``lineage`` generation alone makes ~6,000 of them, so keeping all would cost
hundreds of MB. Counters and sums cover every call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "verify", "approx", "automaton", "tape", "basis_ops", "linalg")
SPAN_OPS = 1

# Bytes one joint evolution touches, from array sizes (16 B per complex128
# amplitude): the initial kron writes the joint vector once; each of the s
# steps reads and writes it in the einsum and again in the rotation scatter.
_JOINT_PASSES_PER_STEP = 4
_AMPLITUDE_BYTES = 16


def _observe_search(tracer, args, result):
    _, gates, max_len = args[:3]
    tracer.counters["approx.expansions"] += result.expansions
    tracer.counters["approx.full_tree"] += sum(gates.n**k for k in range(max_len + 1))


def _observe_replicate_tape(tracer, args, result):
    tracer.counters["tape.cells_copied"] += args[0].length


def _observe_joint(tracer, args, result):
    t, _, payload = args[:3]
    amplitudes = t.alphabet_size**t.length * payload.dim
    passes = 1 + _JOINT_PASSES_PER_STEP * t.length
    tracer.counters["tape.joint_bytes"] += passes * amplitudes * _AMPLITUDE_BYTES


# Counters recorded at a layer boundary, keyed by span name. Each observer gets
# the call's arguments bound in signature order and its result.
_OBSERVERS = {
    "approx.best_approximation": _observe_search,
    "tape.replicate_tape": _observe_replicate_tape,
    "tape.joint_tape_evolution": _observe_joint,
}

# Calls counted when made inside a replication cycle, per generation.
_IN_REPLICATE = {
    "automaton.translate": "automaton.translate_in_replicate",
    "tape.Tape": "tape.tape_in_replicate",
}


class Tracer:
    """In-memory spans, call statistics and counters for one traced phase."""

    def __init__(self):
        self.op_id = -1
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counters: defaultdict = defaultdict(float)
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def active(self, name: str) -> bool:
        return self._depth[name] > 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"qreplica.{layer}") for layer in LAYERS]
        loaded = [m for n, m in list(sys.modules.items()) if n == "qreplica" or n.startswith("qreplica.")]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for other in loaded:
                        for bound_name, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, bound_name, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException) and "__init__" in vars(obj):
                    self._patch(obj, "__init__", self._wrap(f"{layer}.{attr}", vars(obj)["__init__"]))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, target, name: str, value) -> None:
        self._patches.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        in_replicate = _IN_REPLICATE.get(name)
        criterion = name.startswith("verify.criterion_")
        signature = inspect.signature(fn) if observe else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = -1
            if 0 <= tracer.op_id < SPAN_OPS:
                span = len(tracer.spans)
                parent = stack[-1][1] if stack else -1
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.op_id])
            frame = [0.0, span]
            stack.append(frame)
            tracer._depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._depth[name] -= 1
                duration = end - start
                tracer.calls[name] += 1
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span >= 0:
                    tracer.spans[span][1] = start
                    tracer.spans[span][2] = end
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                observe(tracer, tuple(bound.arguments.values()), result)
            if in_replicate is not None and tracer.active("automaton.replicate"):
                tracer.counters[in_replicate] += 1
            if criterion:
                tracer.counters[f"verify.criterion_{result.number}_s"] += duration
            return result

        return traced

    # -- output -------------------------------------------------------------

    def module_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for name, t in self.self_time.items() if name.startswith(prefix))

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus raw counters."""
        return {
            "spans": {
                name: {"calls": self.calls[name], "total_s": self.total[name], "self_s": self.self_time[name]}
                for name in sorted(self.calls)
            },
            "counters": dict(sorted(self.counters.items())),
        }

    def write_spans(self, path) -> None:
        """JSON lines, one span each; times in seconds from the first span's start."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start - origin, "end": end - origin, "parent": parent, "op": op}
                out.write(json.dumps(record) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase of ``ops`` operations.

    Counts and seconds are per workload operation, so runs that complete
    different numbers of operations compare directly. A layer the workload
    does not reach reads 0; the verify criteria are left out instead. Ratios
    are per their stated base.
    """
    def per_op(value: float) -> float:
        return _ratio(value, ops)

    c = tr.counters
    searches = tr.calls["approx.best_approximation"]
    search_s = tr.total["approx.best_approximation"]
    replicates = tr.calls["automaton.replicate"]
    joint_s = tr.total["tape.joint_tape_evolution"]
    metrics = {
        "approx.searches": (per_op(searches), "count"),
        "approx.search_s": (per_op(search_s), "s"),
        "approx.expansions": (_ratio(c["approx.expansions"], searches), "count"),
        "approx.expansions_per_s": (_ratio(c["approx.expansions"], search_s), "1/s"),
        "approx.prune_ratio": (1.0 - _ratio(c["approx.expansions"], c["approx.full_tree"]) if searches else 0.0, "ratio"),
    }
    # Only the verify workload reaches the criteria, and it is not listed in
    # BENCHMARK.json, so the criterion times are reported only when reached.
    criteria = [f"verify.criterion_{number}_s" for number in range(1, 9)]
    if any(c[name] for name in criteria):
        metrics.update({name: (per_op(c[name]), "s") for name in criteria})
    metrics.update(
        {
            "cli.calls": (per_op(tr.calls["cli.main"]), "count"),
            "cli.self_s": (per_op(tr.module_self_time("cli")), "s"),
            "automaton.replicate_calls": (per_op(replicates), "count"),
            "automaton.replicate_self_s": (per_op(tr.self_time["automaton.replicate"]), "s"),
            "automaton.translate_calls": (per_op(tr.calls["automaton.translate"]), "count"),
            "automaton.translate_s": (per_op(tr.total["automaton.translate"]), "s"),
            "automaton.translate_per_replicate": (_ratio(c["automaton.translate_in_replicate"], replicates), "count"),
            "tape.tape_constructions": (per_op(tr.calls["tape.Tape"]), "count"),
            "tape.tape_construct_s": (per_op(tr.total["tape.Tape"]), "s"),
            "tape.tape_constructions_per_generation": (_ratio(c["tape.tape_in_replicate"], replicates), "count"),
            "tape.run_tape_calls": (per_op(tr.calls["tape.run_tape"]), "count"),
            "tape.run_tape_s": (per_op(tr.total["tape.run_tape"]), "s"),
            "tape.replicate_tape_s": (per_op(tr.total["tape.replicate_tape"]), "s"),
            "tape.cells_copied": (per_op(c["tape.cells_copied"]), "count"),
            "basis_ops.cloner_calls": (per_op(tr.calls["basis_ops.cloner"]), "count"),
            "linalg.state_constructions": (per_op(tr.calls["linalg.StateVector"]), "count"),
            "linalg.state_construct_s": (per_op(tr.total["linalg.StateVector"]), "s"),
            "linalg.apply_calls": (per_op(tr.calls["linalg.apply"]), "count"),
            "linalg.apply_s": (per_op(tr.total["linalg.apply"]), "s"),
            "tape.joint_evolution_calls": (per_op(tr.calls["tape.joint_tape_evolution"]), "count"),
            "tape.joint_evolution_s": (per_op(joint_s), "s"),
            "tape.joint_bytes_computed": (per_op(c["tape.joint_bytes"]), "B"),
            "tape.joint_gbps_computed": (_ratio(c["tape.joint_bytes"], joint_s) / 1e9, "GB/s"),
            "basis_ops.apply_controlled_calls": (per_op(tr.calls["basis_ops.apply_controlled"]), "count"),
            "basis_ops.apply_controlled_s": (per_op(tr.total["basis_ops.apply_controlled"]), "s"),
            "basis_ops.densify_calls": (per_op(tr.calls["basis_ops.densify"]), "count"),
            "basis_ops.densify_s": (per_op(tr.total["basis_ops.densify"]), "s"),
            "linalg.operator_constructions": (per_op(tr.calls["linalg.Operator"]), "count"),
            "linalg.operator_construct_s": (per_op(tr.total["linalg.Operator"]), "s"),
        }
    )
    return metrics
