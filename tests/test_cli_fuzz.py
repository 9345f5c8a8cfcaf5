"""Fuzzed CLI runs: every subcommand ends in exit 0 or 2, never in a traceback.

Arguments are drawn well-typed for argparse (its own usage errors are not the
program's). Each argument and document is mostly valid and sometimes broken:
a near miss, arbitrary JSON, or text that may not parse. A run that exits 2
prints exactly one ``error:`` line and no report; an uncaught exception fails
the test.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qreplica.cli as cli
from qreplica import config

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# Any number a JSON document can hold, NaN and the infinities included.
NUMBERS = st.one_of(st.integers(-3, 3), st.floats(), st.sampled_from([1e308, 2**64]))
# A valid clone-demo builds cloner(n), 2·n³ amplitudes that stay cached for the
# process: up to 16 MB each for n from 33 to 80, so fuzzed sizes leave those out.
# Up to 32 the cache holds under 10 MB for all sizes together. From 81 on the
# run is refused before any cloner is built: 2·n³ exceeds MAX_DIM, and from
# 1025 on so does the n²-amplitude joint state.
REFUSED_FROM = 81
SIZES = st.integers(-1, 32) | st.integers(REFUSED_FROM, 1024) | st.integers(min_value=1025)


def sometimes(draw, valid, broken):
    """Mostly a draw from ``valid``; one time in ten from ``broken``."""
    return draw(broken) if draw(st.integers(0, 9)) == 9 else draw(valid)


def index(draw, size):
    return sometimes(draw, st.integers(0, max(size - 1, 0)), st.integers())


def document(draw, valid):
    """JSON text of a draw from ``valid``, or else arbitrary JSON or text."""
    value = sometimes(draw, valid, JSON_VALUES | st.text(max_size=20))
    return value if isinstance(value, str) else json.dumps(value)


def _unit(phase: float) -> list:
    return [math.cos(phase), math.sin(phase)]


@st.composite
def states(draw, dim=None):
    """A basis state times a phase, or arbitrary amplitudes (rarely unit norm)."""
    d = draw(st.integers(1, 4)) if dim is None else dim
    k = draw(st.integers(0, d - 1))
    amps = [_unit(draw(st.floats(0, 7))) if i == k else [0.0, 0.0] for i in range(d)]
    pair = st.lists(NUMBERS, min_size=2, max_size=2)
    amps = sometimes(draw, st.just(amps), st.lists(pair, min_size=d, max_size=d))
    return {"dim": sometimes(draw, st.just(d), st.sampled_from([d + 1, 0, "2", None])), "amps": amps}


@st.composite
def operators(draw, dim=None):
    """A permutation matrix with unit phases, or arbitrary entries."""
    d = draw(st.integers(1, 3)) if dim is None else dim
    perm = draw(st.permutations(range(d)))
    phases = draw(st.lists(st.floats(0, 7), min_size=d, max_size=d))
    rows = [[_unit(phases[i]) if perm[i] == j else [0.0, 0.0] for j in range(d)] for i in range(d)]
    entry = st.lists(NUMBERS, min_size=2, max_size=2)
    arbitrary = st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
    return {"dim": d, "rows": sometimes(draw, st.just(rows), arbitrary)}


@st.composite
def gate_sets(draw, max_gates=4):
    d = draw(st.integers(1, 3))
    gate = sometimes(draw, st.just(operators(dim=d)), st.just(operators()))
    gates = draw(st.lists(gate, min_size=sometimes(draw, st.just(1), st.just(0)), max_size=max_gates))
    doc = {"gates": gates}
    if draw(st.booleans()):
        labels = [f"g{k}" for k in range(len(gates))]
        doc["labels"] = sometimes(draw, st.just(labels), st.lists(st.text(max_size=3), max_size=4))
    if draw(st.booleans()):
        doc["dim"] = sometimes(draw, st.just(d), st.sampled_from([0, 5, 2.0, True]))
    return doc


def gate_dim(gate_set) -> int:
    return gate_set["gates"][0]["dim"] if gate_set["gates"] else 1


def tape_text(n, cells, head) -> str:
    return f"n={n};cells={','.join(map(str, cells))};head={head}"


@st.composite
def tapes(draw, alphabet):
    cells = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=6))
    valid = st.just(tape_text(alphabet, cells, 0))
    broken = st.builds(tape_text, st.integers(0, 5), st.lists(st.integers(0, 5), max_size=6), st.integers(0, 6))
    return sometimes(draw, valid, broken)


TOLERANCE_OVERRIDES = st.lists(
    st.builds(
        "{}={}".format,
        st.sampled_from(config._TOLERANCE_NAMES + ("NOPE",)),
        st.one_of(st.floats().map(repr), st.text(max_size=4)),
    ),
    min_size=1,
    max_size=2,
)


@pytest.fixture(scope="module")
def output_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


def common_options(draw, output_dir):
    argv = [f"--seed={index(draw, 10)}"]
    argv += [f"--set-tolerance={t}" for t in sometimes(draw, st.just([]), TOLERANCE_OVERRIDES)]
    output = sometimes(draw, st.sampled_from([None, "report.json"]), st.sampled_from(["missing/report.json", "."]))
    if output is not None:
        argv.append(f"--output={output_dir / output}")
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check(argv, allowed=(0, 2)):
    code, out, err = run(argv)
    assert code in allowed, (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        assert out == ""
    else:
        assert err == ""


@settings(max_examples=100)
@given(data=st.data())
def test_clone_demo(data, output_dir):
    draw = data.draw
    n = draw(SIZES)
    by_index = [f"--basis-index={index(draw, n)}"]
    by_state = [f"--state={document(draw, states(dim=n) if 1 <= n <= 32 else states())}"]
    inputs = sometimes(draw, st.sampled_from([by_index, by_state]), st.sampled_from([[], by_index + by_state]))
    allowed = (2,) if n >= REFUSED_FROM else (0, 2)
    check(["clone-demo", f"--n={n}", *inputs, *common_options(draw, output_dir)], allowed)


@settings(max_examples=100)
@given(data=st.data())
def test_cond_dyn(data, output_dir):
    draw = data.draw
    blocks = draw(gate_sets()).pop("gates")
    control, target = len(blocks), blocks[0]["dim"] if blocks else 1
    if draw(st.booleans()):
        blocks = {"blocks": blocks}
        if blocks["blocks"] and draw(st.booleans()):
            dims = {"control_dim": control, "target_dim": target}
            blocks.update(sometimes(draw, st.just(dims), st.fixed_dictionaries({"control_dim": NUMBERS})))
    argv = ["cond-dyn", f"--blocks={document(draw, st.just(blocks))}"]
    if draw(st.booleans()):
        argv.append(f"--input={document(draw, states(dim=max(control * target, 1)))}")
    else:
        argv.append(f"--control={index(draw, control)}")
        if draw(st.booleans()):
            argv.append(f"--target-state={document(draw, states(dim=target))}")
    check(argv + common_options(draw, output_dir))


@settings(max_examples=100)
@given(data=st.data())
def test_tape_run(data, output_dir):
    draw = data.draw
    gates = draw(gate_sets())
    dim = gate_dim(gates)
    tape_json = st.builds(lambda n, cells, head: {"n": n, "cells": cells, "head": head},
                          NUMBERS, st.lists(NUMBERS, max_size=4), NUMBERS)
    tape = sometimes(draw, tapes(max(len(gates["gates"]), 1)), tape_json.map(json.dumps))
    argv = ["tape-run", f"--tape={tape}", f"--gates={document(draw, st.just(gates))}"]
    if draw(st.booleans()):
        argv.append(f"--payload={document(draw, states(dim=dim))}")
    else:
        argv.append(f"--payload-index={index(draw, dim)}")
    check(argv + common_options(draw, output_dir))


@settings(max_examples=100)
@given(data=st.data())
def test_approx(data, output_dir):
    draw = data.draw
    argv = ["approx"]
    if draw(st.booleans()):
        gates = draw(gate_sets(max_gates=3))
        argv.append(f"--gates={document(draw, st.just(gates))}")
        dim = gate_dim(gates)
    else:
        dim = 2
    argv.append(f"--target={document(draw, operators(dim=dim))}")
    argv.append(f"--epsilon={sometimes(draw, st.floats(0.01, 1.0), st.floats())!r}")
    argv.append(f"--max-len={sometimes(draw, st.integers(1, 8), st.integers(-1, 0))}")
    if draw(st.booleans()):
        argv.append(f"--set-tolerance=DEFAULT_NET_RADIUS={sometimes(draw, st.floats(1e-6, 0.5), st.floats())!r}")
    check(argv + common_options(draw, output_dir))


@st.composite
def automata(draw):
    """A registry over the gate set's alphabet on the tape that encodes it, or
    on the tape of another registry, or on some other tape."""
    gate_set = draw(gate_sets())
    n = len(gate_set["gates"])
    low, high = sometimes(draw, st.just((1, max(n - 1, 1))), st.just((-1, n + 1)))
    symbols = st.lists(st.integers(low, high), max_size=3)
    registries = st.dictionaries(st.text(max_size=2), symbols, min_size=1, max_size=3)
    segments = draw(registries)
    encoded = [c for cells in draw(st.just(segments) | registries).values() for c in (*cells, 0)]
    head = draw(st.integers(0, len(encoded) - 1))
    tape = sometimes(draw, st.just(tape_text(n, encoded, head)), tapes(max(n, 1)))
    doc = {"tape": tape, "registry": {"gate_set": gate_set, "segments": segments}}
    if draw(st.booleans()):
        doc["generation"] = sometimes(draw, st.integers(0, 5), NUMBERS)
    return doc


@settings(max_examples=100)
@given(data=st.data())
def test_replicate(data, output_dir):
    draw = data.draw
    argv = ["replicate", f"--automaton={document(draw, automata())}"]
    argv.append(f"--generations={sometimes(draw, st.integers(1, 3), st.integers(-1, 0))}")
    check(argv + common_options(draw, output_dir))


# Each valid verify run takes about a second, so few examples are drawn. Exit 1
# is verify's verdict that a criterion failed (a tolerance override can make
# one fail), not an error.
@settings(max_examples=6)
@given(data=st.data())
def test_verify(data, output_dir):
    draw = data.draw
    argv = ["verify"] + (["--json"] if draw(st.booleans()) else [])
    check(argv + common_options(draw, output_dir), allowed=(0, 1, 2))
