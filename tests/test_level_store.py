"""The levels searches share: a warm search returns what a cold one returns.

What a level keeps depends on the gates and the net radius alone, so every
search on one gate set evaluates its target against the same stored levels.
A search from a store that earlier searches filled must give the symbols, the
distance, the expansion count and the profile of the same search from an
empty store, bit for bit, however the searches before it were ordered; a
capacity refusal, a failed build, another gate set and other threads must
leave no trace in what later searches return.
"""

import gc
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest

from qreplica import approx, config
from qreplica.approx import (
    GateSet,
    _Levels,
    _VisitedNet,
    best_approximation,
    default_gate_set,
    rotation_x,
    rotation_z,
)
from qreplica.errors import CapacityError
from qreplica.linalg import Operator, random_unitary

from gate_products import rotation_y

X = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
H = Operator(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))


def outcome(result):
    return (
        result.symbols,
        result.achieved_distance.hex(),
        result.expansions,
        tuple(d.hex() for d in result.profile),
    )


def cold(g, target, max_len, **kwargs):
    approx._forget_levels()
    return outcome(best_approximation(target, g, max_len, **kwargs))


def counting_builds():
    return mock.patch.object(_Levels, "extend", autospec=True, side_effect=_Levels.extend)


def haar(dim, seeds):
    return [random_unitary(dim, np.random.default_rng(seed)) for seed in seeds]


def golden_rotations():
    theta = 2.0 * np.pi * (np.sqrt(5.0) - 1.0) / 2.0
    return GateSet((rotation_z(theta), rotation_x(theta), rotation_y(theta)))


def phases():
    return GateSet((Operator(np.array([[1j]])), Operator(np.array([[np.exp(0.3j)]]))))


def coarse_3x3():
    return GateSet(tuple(haar(3, (100, 101))))


# Each scenario runs its searches, in order, on one gate set and radius.
SCENARIOS = {
    "other targets": (default_gate_set, 1e-3, [(t, 12, {}) for t in haar(2, range(5))]),
    "deep then shallow": (default_gate_set, 1e-3, [(t, L, {}) for t, L in zip(haar(2, range(4)), (14, 4, 9, 1))]),
    "shallow then deep": (default_gate_set, 1e-3, [(t, L, {}) for t, L in zip(haar(2, range(4)), (1, 4, 9, 14))]),
    "epsilon stops": (
        default_gate_set,
        1e-3,
        [(X, 20, {"epsilon": 0.05}), (H, 12, {"epsilon": 0.1}), (X, 6, {"epsilon": 0.3}), (H, 14, {"epsilon": 0.02})],
    ),
    "radius 0.05": (default_gate_set, 0.05, [(t, L, {}) for t, L in zip(haar(2, range(4)), (12, 6, 14, 10))]),
    "radius 0.05 with epsilon": (
        default_gate_set,
        0.05,
        [(t, 12, {"epsilon": 0.08}) for t in haar(2, range(4))],
    ),
    "three gates": (golden_rotations, 1e-3, [(t, L, {}) for t, L in zip(haar(2, range(4)), (8, 3, 6, 9))]),
    "dim 1": (phases, 1e-3, [(Operator(np.array([[p]])), L, {}) for p, L in ((-1.0, 5), (1j, 2), (np.exp(1j), 8))]),
    "dim 3 at radius 0.05": (coarse_3x3, 0.05, [(t, L, {}) for t, L in zip(haar(3, range(3)), (6, 9, 4))]),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_warm_search_returns_the_cold_result(name):
    make, radius, searches = SCENARIOS[name]
    g = make()
    colds, cold_builds = [], []
    with config.overridden([("DEFAULT_NET_RADIUS", radius)]):
        for target, max_len, kwargs in searches:
            with counting_builds() as builds:
                colds.append(cold(g, target, max_len, **kwargs))
            cold_builds.append(builds.call_count)
        approx._forget_levels()
        with counting_builds() as builds:
            warms = [outcome(best_approximation(target, g, max_len, **kwargs)) for target, max_len, kwargs in searches]
    assert warms == colds
    # Each level is built once, by the first search that expands it.
    assert builds.call_count == max(cold_builds) < sum(cold_builds)


def test_searches_on_two_gate_sets_in_turn_return_the_cold_results():
    plain, rotations = default_gate_set(), golden_rotations()
    targets = haar(2, range(3))
    searches = [(g, t, L) for t in targets for g, L in ((plain, 12), (rotations, 7))]
    colds = [cold(g, t, L) for g, t, L in searches]
    approx._forget_levels()
    assert [outcome(best_approximation(t, g, L)) for g, t, L in searches] == colds


def test_searching_another_gate_set_releases_the_levels_of_the_first():
    best_approximation(X, default_gate_set(), 12)
    first = weakref.ref(approx._levels)
    net = weakref.ref(approx._levels.net)
    best_approximation(X, golden_rotations(), 4)
    gc.collect()
    assert first() is None and net() is None
    # Another radius is another entry too.
    held = weakref.ref(approx._levels)
    with config.overridden([("DEFAULT_NET_RADIUS", 0.05)]):
        best_approximation(X, golden_rotations(), 4)
    gc.collect()
    assert held() is None


def test_a_warm_store_refuses_an_expanded_level_beyond_max_dim(monkeypatch):
    """Levels of 2, 4, 8 and 16 products of 4 amplitudes fit 64; the fifth,
    stored by an earlier search, still needs 128 and is refused."""
    g = default_gate_set()
    want = cold(g, X, 12)
    approx._forget_levels()
    best_approximation(H, g, 12)
    monkeypatch.setenv(config.ENV_MAX_DIM, "64")
    with pytest.raises(CapacityError, match=r"^approximation level needs 128 amplitudes, exceeding MAX_DIM=64$"):
        best_approximation(X, g, 6)
    assert approx._levels is None
    assert len(best_approximation(X, g, 5).symbols) == 4
    monkeypatch.delenv(config.ENV_MAX_DIM)
    assert outcome(best_approximation(X, g, 12)) == want


def test_a_search_keeps_no_more_amplitudes_stored_than_max_dim(monkeypatch):
    """A length-12 search expands at most 1,022 × 2 products of 4 amplitudes
    (8,176), within a budget of 10,000, but stores 4,085 kept products
    (16,340 amplitudes): it returns the cold result and leaves nothing
    stored. A store that a lowered budget no longer holds goes with the next
    search that expands a level."""
    g = default_gate_set()
    want = cold(g, X, 12)
    assert approx._levels.net._count == 4_085
    approx._forget_levels()
    monkeypatch.setenv(config.ENV_MAX_DIM, "10000")
    assert outcome(best_approximation(X, g, 12)) == want
    assert approx._levels is None
    monkeypatch.delenv(config.ENV_MAX_DIM)
    best_approximation(X, g, 12)
    assert approx._levels is not None
    monkeypatch.setenv(config.ENV_MAX_DIM, "10000")
    best_approximation(H, g, 3)
    assert approx._levels is None


def test_a_build_that_raises_leaves_no_levels_stored():
    g = default_gate_set()
    want = cold(g, X, 10)
    approx._forget_levels()
    best_approximation(X, g, 6)
    admit = _VisitedNet.admit

    def failing_admit(net, flats):
        # Part of the level is already in the net's buffer.
        admit(net, flats[: len(flats) // 2])
        raise RuntimeError("admit failed")

    with mock.patch.object(_VisitedNet, "admit", failing_admit):
        with pytest.raises(RuntimeError, match="admit failed"):
            best_approximation(X, g, 10)
    assert approx._levels is None
    assert outcome(best_approximation(X, g, 10)) == want


def test_threads_searching_in_turn_get_the_cold_results():
    """Four threads, more than the cores, with a short switch interval, each
    alternating between two gate sets: every switch replaces the stored
    levels, so the threads keep missing the same levels at once. Without the
    lock, most rounds returned a wrong result or raised."""
    gate_sets = [default_gate_set(), golden_rotations()]
    work = [[(gate_sets[j % 2], t, (12, 8)[j % 2]) for j, t in enumerate(haar(2, range(10 * i, 10 * i + 6)))] for i in range(4)]
    colds = [[cold(g, t, L) for g, t, L in searches] for searches in work]
    for _ in range(3):
        approx._forget_levels()
        results, errors = [[] for _ in work], []
        start = threading.Barrier(len(work), timeout=60)

        def run(i):
            start.wait()
            try:
                for g, t, L in work[i]:
                    results[i].append(outcome(best_approximation(t, g, L)))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == colds


def test_a_level_is_built_from_its_parents_where_staging_moved_them():
    """When staging a level moves the net's buffer, the parents are read from
    the new one, so the old buffer is freed before the level is admitted."""
    g = default_gate_set()
    levels = _Levels(None, np.stack([gate.entries for gate in g.gates]), 1e-3)
    admit = levels.net.admit
    moves = []

    def spy(products):
        held = old()
        assert held is None or held is levels.net._buf
        moves.append(held is None)
        return admit(products)

    with mock.patch.object(levels.net, "admit", spy):
        for _ in range(10):
            old = weakref.ref(levels.net._buf)
            levels.extend()
    assert any(moves)
