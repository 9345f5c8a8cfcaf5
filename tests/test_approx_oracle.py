"""The indexed, level-batched search against an unindexed linear scan.

``linear_scan_search`` is a test-only reference: every product is compared
against every kept product with one matrix-vector product, and each level is
expanded pair by pair. Both searches must return the same symbols, the same
expansion count, a bit-equal distance and a bit-equal profile.

Coarse net radii are where merges with the kept net and between products of
one level actually happen; the Clifford+T gate sets produce exact duplicates
and overlaps exactly at the merge threshold.

A search is also checked against itself in another basis and under a
relabelling of the gates, and against every default-gate product to length
12. These hold up to rounding, or to the miss bound, on any host, whatever
bits its BLAS kernel gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreplica import config
from qreplica.approx import (
    GateSet,
    _forget_levels,
    _VisitedNet,
    best_approximation,
    default_gate_set,
    rotation_x,
    rotation_z,
)
from qreplica.linalg import Operator, random_unitary

from gate_products import gate_product, rotation_y


def linear_scan_search(target, g, max_len, *, epsilon=None, net_radius=None):
    """Return (symbols, achieved_distance, expansions, profile) of the best product."""
    radius = config.DEFAULT_NET_RADIUS if net_radius is None else float(net_radius)
    dim = g.dim
    gate_mats = [gate.entries for gate in g.gates]
    target_flat = target.entries.reshape(-1)
    threshold = dim * (1.0 - radius * radius)

    def distance_of(flat):
        overlap = abs(np.vdot(flat, target_flat)) / dim
        return float(np.sqrt(max(0.0, 1.0 - overlap)))

    root = np.eye(dim, dtype=complex)
    net = [root.reshape(-1)]
    best_seq = ()
    best_dist = distance_of(root.reshape(-1))
    expansions = 1
    profile = [best_dist]
    frontier = [(root, ())]
    for _ in range(max_len):
        if epsilon is not None and best_dist <= epsilon:
            break
        if not frontier:
            break
        next_frontier = []
        for matrix, seq in frontier:
            for l, gate in enumerate(gate_mats):
                product = gate @ matrix
                flat = product.reshape(-1)
                dist = distance_of(flat)
                expansions += 1
                if (dist, len(seq) + 1, seq + (l,)) < (best_dist, len(best_seq), best_seq):
                    best_dist, best_seq = dist, seq + (l,)
                if np.abs(np.array(net) @ flat.conj()).max() < threshold:
                    net.append(flat)
                    next_frontier.append((product, seq + (l,)))
        frontier = next_frontier
        profile.append(best_dist)
    return best_seq, best_dist, expansions, profile


X = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
Y = Operator(np.array([[0, -1j], [1j, 0]]))
Z = Operator(np.diag([1.0, -1.0]))
H = Operator(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))
S = Operator(np.diag([1.0, 1j]))
T = Operator(np.diag([1.0, np.exp(0.25j * np.pi)]))

# Longest search per (dim, gate count) that keeps the linear scan quick.
MAX_LEN = {(2, 2): 9, (2, 3): 6, (3, 2): 7, (3, 3): 5, (4, 2): 7, (4, 3): 5}


def assert_same_search(target, g, max_len, **kwargs):
    symbols, distance, expansions, profile = linear_scan_search(target, g, max_len, **kwargs)
    result = best_approximation(target, g, max_len, **kwargs)
    assert result.symbols == symbols
    assert result.expansions == expansions
    assert result.achieved_distance.hex() == distance.hex()
    assert [d.hex() for d in result.profile] == [d.hex() for d in profile]


@settings(max_examples=40)
@given(
    dim=st.sampled_from([2, 3, 4]),
    n_gates=st.sampled_from([2, 3]),
    radius=st.sampled_from([1e-3, 0.05, 0.2]),
    epsilon=st.sampled_from([None, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_linear_scan_on_random_gates(dim, n_gates, radius, epsilon, seed):
    rng = np.random.default_rng(seed)
    g = GateSet(tuple(random_unitary(dim, rng) for _ in range(n_gates)))
    target = random_unitary(dim, rng)
    assert_same_search(target, g, MAX_LEN[dim, n_gates], epsilon=epsilon, net_radius=radius)


@settings(max_examples=10)
@given(radius=st.sampled_from([1e-3, 0.05, 0.2]), seed=st.integers(0, 2**32 - 1))
def test_matches_linear_scan_on_default_gates(radius, seed):
    target = random_unitary(2, np.random.default_rng(seed))
    assert_same_search(target, default_gate_set(), 10, net_radius=radius)


@pytest.mark.parametrize(
    "gates, radius",
    [
        ((H, S), float(np.sqrt(1.0 - 1.0 / np.sqrt(2.0)))),
        ((H, S, T), float(np.sqrt(1.0 - 1.0 / np.sqrt(2.0)))),
        ((H, S, T), 1e-9),
        ((H, T), 0.05),
    ],
)
@pytest.mark.parametrize("target", [X, H, T])
def test_matches_linear_scan_on_clifford_t(gates, radius, target):
    assert_same_search(target, GateSet(gates), 9 if len(gates) == 2 else 6, net_radius=radius)


def test_level_best_is_chosen_by_exact_distance():
    """Two gates one ulp apart often tie in exact distance while their batched
    overlaps rank them the other way round; the first gate must still win.

    X and Y are trace-orthogonal to Z, so every overlap of the first level
    with Z is 0: the whole level lies within the margin of its best, the
    screen's floor is below 0, and every product is decided exactly."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        first = random_unitary(2, rng).entries
        second = first.copy()
        second[0, 0] = np.nextafter(first[0, 0].real, 2.0) + 1j * first[0, 0].imag
        target = random_unitary(2, rng)
        assert_same_search(target, GateSet((Operator(first), Operator(second))), 1)
    for max_len in (1, 3):
        assert_same_search(Z, GateSet((X, Y)), max_len)


@pytest.mark.parametrize("gates", [(H, S, T), (X, H), (rotation_z(0.4), rotation_x(1.3))])
@pytest.mark.parametrize("target", [X, H, T, rotation_y(0.7)])
def test_matches_linear_scan_at_length_1(gates, target):
    assert_same_search(target, GateSet(gates), 1)


def test_matches_linear_scan_with_one_screened_candidate():
    """A target equal to one gate and far from the other leaves one product
    within the margin of the level's best: its overlap is taken from two rows."""
    g = GateSet((rotation_z(0.4), rotation_x(1.3)))
    assert_same_search(g.gates[1], g, 1)
    assert best_approximation(g.gates[1], g, 1).symbols == (1,)
    assert_same_search(g.gates[1], g, 6)


@pytest.mark.parametrize("radius", [1e-3, 0.5])
@pytest.mark.parametrize("phases", [(0.3,), (0.3, 1.1), (0.0, 2.0, 4.0)])
def test_matches_linear_scan_on_1x1_gates(phases, radius):
    """Every 1×1 product is the identity up to phase, so the root covers the
    whole first level and the search ends with an empty frontier."""
    g = GateSet(tuple(Operator(np.array([[np.exp(1j * p)]])) for p in phases))
    for target in (Operator(np.array([[1.0 + 0j]])), Operator(np.array([[np.exp(2.5j)]]))):
        assert_same_search(target, g, 4, net_radius=radius)


def first_length_that_improves(target, g, lengths):
    """The first length at which the best product has exactly that length."""
    for length in lengths:
        result = best_approximation(target, g, length)
        if len(result.symbols) == length:
            return length, result.achieved_distance
    raise AssertionError("no length improved")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_linear_scan_with_epsilon_met_exactly_at_an_intermediate_level(seed):
    g = default_gate_set()
    target = random_unitary(2, np.random.default_rng(seed))
    length, distance = first_length_that_improves(target, g, range(3, 9))
    assert_same_search(target, g, 10, epsilon=distance)
    result = best_approximation(target, g, 10, epsilon=distance)
    assert (len(result.symbols), result.achieved_distance) == (length, distance)


def spy_on_admit(patch):
    """Each batch ``_VisitedNet.admit`` is given and the indices it keeps, in call order.

    A batch is copied before it is admitted: staged rows are the net's own, and
    admitting them moves the kept ones together in place.
    """
    calls = []
    admit = _VisitedNet.admit

    def spy(self, flats):
        given = flats.copy()
        kept = admit(self, flats)
        calls.append((given, kept))
        return kept

    patch.setattr(_VisitedNet, "admit", spy)
    return calls


@pytest.fixture
def admitted(monkeypatch):
    return spy_on_admit(monkeypatch)


@pytest.mark.parametrize("max_len", [1, 2, 7])
def test_only_levels_that_are_expanded_are_admitted(admitted, max_len):
    """The root and each level but the last are admitted: max_len calls. The
    final level is evaluated, which counts its products, but never admitted."""
    g = default_gate_set()
    result = best_approximation(H, g, max_len)
    sizes = [(len(flats), len(kept)) for flats, kept in admitted]
    assert len(sizes) == max_len
    assert sizes[0] == (1, 1)
    for (_, kept), (given_next, _) in zip(sizes, sizes[1:]):
        assert given_next == kept * g.n
    final_level = sizes[-1][1] * g.n
    assert result.expansions == sum(size for size, _ in sizes) + final_level


def test_a_level_that_meets_epsilon_is_not_admitted(admitted):
    g = default_gate_set()
    target = random_unitary(2, np.random.default_rng(0))
    length, distance = first_length_that_improves(target, g, range(3, 9))
    # The warm-up stored levels the search would otherwise not build.
    _forget_levels()
    admitted.clear()
    best_approximation(target, g, 10, epsilon=distance)
    # The root and the levels of length 1, ..., length − 1.
    assert len(admitted) == length


def clifford_t_gates(dim, picks):
    """Gates with a block of X, H, S or T on rows and columns k, k + 1 and 1
    elsewhere, or for dim 1 the phases 1, i, e^{iπ/4} and −1: exact zeros,
    and a repeated pick is an exact duplicate."""
    if dim == 1:
        phases = (1.0, 1j, np.exp(0.25j * np.pi), -1.0)
        return [np.array([[phases[block]]], dtype=complex) for block, _ in picks]
    gates = []
    for block, k in picks:
        gate = np.eye(dim, dtype=complex)
        k %= dim - 1
        gate[k : k + 2, k : k + 2] = (X, H, S, T)[block].entries
        gates.append(gate)
    return gates


@settings(max_examples=60)
@given(
    dim=st.integers(1, 6),
    n_gates=st.integers(1, 5),
    clifford_t=st.booleans(),
    radius=st.sampled_from([1e-3, 0.05, 0.2]),
    data=st.data(),
)
def test_each_level_is_built_with_the_per_product_bits(dim, n_gates, clifford_t, radius, data):
    """Every admitted level holds gate l times kept product i of the level
    before, at row i·n + l, with the bits of that one 2-D product."""
    if clifford_t:
        picks = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), min_size=n_gates, max_size=n_gates))
        gates = clifford_t_gates(dim, picks)
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        gates = [random_unitary(dim, rng).entries for _ in range(n_gates)]
    g = GateSet(tuple(Operator(gate) for gate in gates))
    target = random_unitary(dim, np.random.default_rng(0))
    # The last level built holds at most about 800 products.
    max_len = 12 if n_gates == 1 else 1 + int(np.log(800) / np.log(n_gates))
    # Each example starts cold: a replayed one would find its levels stored.
    _forget_levels()
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_on_admit(patch)
        best_approximation(target, g, max_len, net_radius=radius)
    # The root and every level but the last, unless a level kept nothing.
    assert len(calls) == max_len or not len(calls[-1][1])
    for (flats, kept), (level, _) in zip(calls, calls[1:]):
        expected = [gate @ parent.reshape(dim, dim) for parent in flats[kept] for gate in gates]
        assert level.tobytes() == np.stack(expected).tobytes()


def distances_to(products, target):
    """sqrt(max(0, 1 − |tr(A†T)|/2)) of each 2×2 product A."""
    overlaps = np.abs(np.einsum("kij,ij->k", products.conj(), target.entries)) / 2.0
    return np.sqrt(np.maximum(0.0, 1.0 - overlaps))


# A search and the same search in another basis give profiles this close:
# each entry is √(1 − |tr|/dim) of products of up to 12 gates, rounded
# differently in each basis. The largest gap over 200 seeds at length 12 was
# 1.4e-13.
TURNED_TOL = 1e-12


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_search_in_a_turned_basis_reproduces_the_profile(seed):
    """Searching V·T·V† with the gates V·G·V† asks the same question in another
    basis: every overlap |tr(A†B)| the search compares is the same number, so
    up to rounding it keeps the same products and finds the same profile. The
    symbols may differ only at a near tie: the turned search's sequence, as a
    product of the plain gates, is then as close to T as the plain result,
    within the tolerance."""
    rng = np.random.default_rng(seed)
    v = random_unitary(2, rng).entries

    def turned(matrix):
        return Operator(v @ matrix @ v.conj().T)

    target, g = random_unitary(2, rng), default_gate_set()
    plain = best_approximation(target, g, 12)
    turned_gates = GateSet(tuple(turned(gate.entries) for gate in g.gates), g.labels)
    other = best_approximation(turned(target.entries), turned_gates, 12)
    assert len(other.profile) == len(plain.profile)
    assert np.max(np.abs(np.subtract(other.profile, plain.profile))) <= TURNED_TOL
    if other.symbols != plain.symbols:
        reached = distances_to(gate_product(other.symbols, g).entries[None], target)[0]
        assert abs(reached - plain.achieved_distance) <= TURNED_TOL


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_len=st.integers(1, 8),
    radius=st.sampled_from([0.02, 0.05, 0.1, 0.2]),
)
def test_no_product_beats_the_result_by_more_than_the_merges_allow(seed, max_len, radius):
    """What a miss certifies: every product of length ℓ ≤ L, where L is the
    last length the search evaluated, lies within (ℓ − 1)·r of one it
    evaluated, so no product of length ≤ L is closer to the target than the
    achieved distance minus (L − 1)·r. Checked against all of them."""
    target, g = random_unitary(2, np.random.default_rng(seed)), default_gate_set()
    result = best_approximation(target, g, max_len, net_radius=radius)
    evaluated = len(result.profile) - 1
    gates = np.stack([gate.entries for gate in g.gates])
    level = np.eye(2, dtype=complex)[None]
    closest = 1.0
    for _ in range(evaluated):
        level = np.matmul(gates[None], level[:, None]).reshape(-1, 2, 2)
        closest = min(closest, float(distances_to(level, target).min()))
    assert closest >= result.achieved_distance - (evaluated - 1) * radius - 1e-12


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_gates=st.sampled_from([2, 3]),
    max_len=st.integers(1, 10),
    data=st.data(),
)
def test_permuting_the_gates_permutes_the_result(seed, n_gates, max_len, data):
    """Relabelling the gates by π asks the same question. Stacked gate rows
    change place under π, so results are compared by tolerance, not bits.

    At a radius where nothing merges, both searches evaluate every product:
    their profiles agree up to rounding, and each result's symbols are π of
    the other's unless the best is a tie, whose other sequence then reaches
    the same distance. At the default radius each profile entry at length ℓ
    lies within (ℓ − 1)·r above the unpruned best, so the profiles agree to
    that bound."""
    rng = np.random.default_rng(seed)
    g = GateSet(tuple(random_unitary(2, rng) for _ in range(n_gates)))
    target = random_unitary(2, rng)
    perm = data.draw(st.permutations(range(n_gates)))
    permuted = GateSet(tuple(g.gates[p] for p in perm))

    plain = best_approximation(target, g, max_len, net_radius=1e-9)
    other = best_approximation(target, permuted, max_len, net_radius=1e-9)
    assert plain.expansions == other.expansions == sum(n_gates**k for k in range(max_len + 1))
    assert np.max(np.abs(np.subtract(other.profile, plain.profile))) <= TURNED_TOL
    mapped = tuple(perm[s] for s in other.symbols)
    if mapped != plain.symbols:
        reached = distances_to(gate_product(mapped, g).entries[None], target)[0]
        assert abs(reached - plain.achieved_distance) <= TURNED_TOL

    radius = config.DEFAULT_NET_RADIUS
    plain = best_approximation(target, g, max_len)
    other = best_approximation(target, permuted, max_len)
    assert len(other.profile) == len(plain.profile) == max_len + 1
    for length, (a, b) in enumerate(zip(plain.profile, other.profile)):
        assert abs(a - b) <= max(length - 1, 0) * radius + TURNED_TOL


# Fixed before the test first ran: a target that misses is recorded, not redrawn.
EXHAUSTIVE_SEED = 2026


def test_profile_matches_every_default_gate_product_to_length_12():
    """All 8,191 default-gate products of length ≤ 12, built level by level
    as G_l @ parent: at every length the search's profile is the best of
    them within 1e-9, for 20 Haar targets."""
    g = default_gate_set()
    gates = np.stack([gate.entries for gate in g.gates])
    levels = [np.eye(2, dtype=complex)[None]]
    for _ in range(12):
        levels.append(np.matmul(gates[None], levels[-1][:, None]).reshape(-1, 2, 2))
    assert sum(len(level) for level in levels) == 8191
    rng = np.random.default_rng(EXHAUSTIVE_SEED)
    for index in range(20):
        target = random_unitary(2, rng)
        brute = np.minimum.accumulate([distances_to(level, target).min() for level in levels])
        profile = best_approximation(target, g, 12).profile
        gaps = np.abs(np.subtract(profile, brute))
        assert gaps[1:].max() <= 1e-9, (index, gaps.tolist())


PINNED_AT_LENGTH_14 = {
    "flip_x": (X, (1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1), 32559, "0x1.a6b8a1ace12d5p-6"),
    "hadamard": (H, (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0), 32559, "0x1.61b43194784a3p-5"),
    "euler": (
        Operator(rotation_z(0.3).entries @ rotation_y(1.1).entries @ rotation_x(2.5).entries),
        (0, 0, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0),
        32559,
        "0x1.66f572a2d23d9p-6",
    ),
}


def assert_pinned(target, max_len, symbols, expansions, distance):
    result = best_approximation(target, default_gate_set(), max_len)
    assert (result.symbols, result.expansions, result.achieved_distance.hex()) == (
        symbols,
        expansions,
        distance,
    )


@pytest.mark.parametrize("name", sorted(PINNED_AT_LENGTH_14))
def test_length_14_results_are_pinned(name):
    """Recorded with the unindexed search at the default net radius."""
    target, symbols, expansions, distance = PINNED_AT_LENGTH_14[name]
    assert_pinned(target, 14, symbols, expansions, distance)


# Recorded before the net's grid took its third coordinate: indexing must not
# change any result at depth either.
PINNED_DEEPER = {
    ("flip_x", 16): ((1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1), 129559, "0x1.a6b8a1ace12d5p-6"),
    ("hadamard", 16): ((1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1), 129559, "0x1.d62b94e458f8cp-7"),
    ("euler", 16): ((1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0), 129559, "0x1.a94e6e24a4870p-7"),
    ("euler", 18): (
        (0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0),
        514807,
        "0x1.988f6959fce5dp-7",
    ),
}


@pytest.mark.parametrize("name, max_len", sorted(PINNED_DEEPER))
def test_deeper_results_are_pinned(name, max_len):
    assert_pinned(PINNED_AT_LENGTH_14[name][0], max_len, *PINNED_DEEPER[name, max_len])
