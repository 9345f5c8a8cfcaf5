"""Completeness of the indexed visited net.

If B lies within the merge radius of an admitted product A, ``admit`` must
cover B, whether A was admitted at an earlier level or earlier in the same
level. The net's grid finds B only if a merge moves each grid coordinate by
at most half a cell side and the two cells probed per axis hold every
partner, so A is placed with its coordinates at or next to cell boundaries
and at half-cell offsets, where the probed cells change, and B is pushed up
to the merge radius in a random direction.

The net must also decide a pair at the threshold as an unindexed scan does,
and the runs it drops before expanding pairs must hold no pair. A level built
in the net's own buffer rows must leave the net as a level given apart does,
its keys must be exact in 4 bytes or, where they do not fit, in 8, and a deep
search must hold each kept product about once. At a coarse radius, where
nearly every pair of products is a candidate, the pairs compared at once must
not outweigh the kept products by much.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qreplica import approx
from qreplica.approx import _EXACT_MARGIN, GateSet, _VisitedNet, best_approximation, default_gate_set
from qreplica.linalg import random_unitary


def _snapped(value, lo, hi, step, offset):
    """``value`` moved to the nearest multiple of ``step`` plus ``offset``, if that stays in [lo, hi]."""
    snapped = round(value / step) * step + offset
    return snapped if lo <= snapped <= hi else value


def unitary_with_coordinates(dim, rng, step, offset):
    """A unitary whose grid coordinates sit at multiples of ``step`` plus ``offset``.

    The coordinates (|A₀₀|², Re A₀₀·conj(A₁₀), Re A₀₀·conj(A₀₁)) depend on the
    top-left 2×2 block alone, which is [[c·e^{iα}, −s·e^{iβ}], [s·e^{iγ},
    c·e^{i(β+γ−α)}]]; unitaries on the remaining rows and on the remaining
    columns leave them unchanged.
    """
    x = _snapped(rng.uniform(0.02, 0.98), 0.01, 0.99, step, offset)
    c, s = np.sqrt(x), np.sqrt(1.0 - x)
    bound = c * s
    # The other two coordinates are stored shifted by 1, so their cell
    # boundaries sit at multiples of ``step`` minus 1.
    y = _snapped(rng.uniform(-bound, bound) + 1.0, 1.0 - bound, 1.0 + bound, step, offset) - 1.0
    z = _snapped(rng.uniform(-bound, bound) + 1.0, 1.0 - bound, 1.0 + bound, step, offset) - 1.0
    alpha = rng.uniform(0.0, 2.0 * np.pi)
    gamma = alpha - np.arccos(np.clip(y / bound, -1.0, 1.0))
    beta = alpha - np.arccos(np.clip(-z / bound, -1.0, 1.0))
    a = np.eye(dim, dtype=complex)
    a[:2, :2] = [
        [c * np.exp(1j * alpha), -s * np.exp(1j * beta)],
        [s * np.exp(1j * gamma), c * np.exp(1j * (beta + gamma - alpha))],
    ]
    if dim > 2:
        left, right = np.eye(dim, dtype=complex), np.eye(dim, dtype=complex)
        left[2:, 2:] = random_unitary(dim - 2, rng).entries
        right[2:, 2:] = random_unitary(dim - 2, rng).entries
        a = left @ a @ right
    return a * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


def partner(a, rng, target, rotate):
    """e^{iφ}·A·V with V = exp(i·t·H), at distance ≈ ``target`` from A.

    H is a random Hermitian matrix, or with ``rotate`` one that turns column 0
    of A toward column 1, which moves the first grid coordinate of a product
    whose |A₀₀|² is near ½ close to the most that the distance allows.
    d(A, A·V)² = 1 − |Σ e^{i·t·λ}|/dim over the eigenvalues λ of H.
    """
    dim = len(a)
    if rotate:
        h = np.zeros((dim, dim), dtype=complex)
        h[1, 0] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    else:
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    eigenvalues, basis = np.linalg.eigh(h + h.conj().T)
    eigenvalues /= np.abs(eigenvalues).max()

    def distance(t):
        return np.sqrt(np.maximum(0.0, 1.0 - np.abs(np.exp(1j * np.multiply.outer(t, eigenvalues)).sum(-1)) / dim))

    steps = np.linspace(0.0, np.pi, 2001)
    reached = distance(steps)
    beyond = np.flatnonzero(reached >= target)
    if len(beyond):
        lo, hi = steps[beyond[0] - 1], steps[beyond[0]]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if distance(mid) < target else (lo, mid)
        t = lo
    else:
        t = steps[int(np.argmax(reached))]
    v = (basis * np.exp(1j * t * eigenvalues)) @ basis.conj().T
    return a @ v * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


@settings(max_examples=300)
@given(
    dim=st.sampled_from([2, 3, 4]),
    # From 0.6 on the grid is a single cell; 1.0 caps the side at 4 for dim 4.
    radius=st.sampled_from([1e-6, 1e-3, 0.05, 0.3, 0.6, 1.0]),
    fraction=st.sampled_from([0.0, 0.5, 0.9, 0.999, 1.0 - 1e-6]),
    half_cells=st.booleans(),
    rotate=st.booleans(),
    offset=st.sampled_from([-1e-9, 0.0, 1e-9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_product_within_the_radius_of_an_admitted_one_is_covered(
    dim, radius, fraction, half_cells, rotate, offset, seed
):
    rng = np.random.default_rng(seed)
    net = _VisitedNet(dim, radius)
    # Boundaries of cells, and of the cells probed from a base cell, lie at
    # multiples of half the side.
    side = net._side
    step = side / 2.0 if half_cells else side
    a = unitary_with_coordinates(dim, rng, step, offset * side)
    b = partner(a, rng, fraction * radius, rotate)
    # Only pairs the exact test merges without a near-threshold recompute.
    assume(abs(np.vdot(a, b)) >= dim * (1.0 - radius * radius) + _EXACT_MARGIN)

    assert list(net.admit(a.reshape(1, -1))) == [0]
    assert len(net.admit(b.reshape(1, -1))) == 0

    same_level = _VisitedNet(dim, radius)
    assert list(same_level.admit(np.stack([a.reshape(-1), b.reshape(-1)]))) == [0]


def _restrict(perm, mask):
    """The masked elements' indices among themselves, in ``perm``'s order."""
    return (np.cumsum(mask) - 1)[perm[mask[perm]]]


class TwoPassNet(_VisitedNet):
    """Reference admit: each level probes the stored products' index, then an
    index of its own uncovered products, and the kept ones are inserted after.

    This is the net's earlier, independent design: two probes per product, one
    per index, with ``np.insert`` upkeep. Its overlaps come from the same
    einsum rows and two-row recompute, so its decisions must be the same.
    """

    def admit(self, flats):
        cells, bases = self._keys(flats)
        by_cell, by_base = np.argsort(cells), np.argsort(bases)
        covered = np.zeros(len(flats), dtype=bool)
        covering, _ = self._pairs(flats, bases, by_base, self._buf, self._sorted, self._order)
        covered[covering] = True
        fresh = np.flatnonzero(~covered)
        fresh_flats, fresh_cells = flats[fresh], cells[fresh]
        by_cell, by_base = _restrict(by_cell, ~covered), _restrict(by_base, ~covered)
        later, earlier = self._pairs(
            fresh_flats, bases[fresh], by_base, fresh_flats, fresh_cells[by_cell], by_cell, earlier_only=True
        )
        kept = np.ones(len(fresh), dtype=bool)
        by_later = np.lexsort((earlier, later))
        for j, k in zip(later[by_later].tolist(), earlier[by_later].tolist()):
            if kept[k]:
                kept[j] = False
        self._add(fresh_flats[kept], fresh_cells[kept], _restrict(by_cell, kept))
        return fresh[kept]

    def _add(self, flats, cells, order):
        end = self._count + len(flats)
        if end > len(self._buf):
            grown = np.empty((max(end, 2 * len(self._buf)), self._buf.shape[1]), dtype=complex)
            grown[: self._count] = self._buf[: self._count]
            self._buf = grown
        self._buf[self._count : end] = flats
        new_sorted = cells[order]
        at = np.searchsorted(self._sorted, new_sorted)
        self._sorted = np.insert(self._sorted, at, new_sorted)
        self._order = np.insert(self._order, at, order + self._count)
        self._count = end

    def _pairs(self, queries, bases, by_base, store, sorted_keys, order, *, earlier_only=False):
        """Pairs (query q, stored e) with |tr(store[e]†queries[q])| >= threshold."""
        if not len(sorted_keys):
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        runs = (self._runs[:, None] + bases[by_base]).ravel()
        lo = np.searchsorted(sorted_keys, runs)
        counts = np.searchsorted(sorted_keys, runs + 2) - lo
        slot = np.repeat(np.arange(len(runs)), counts)
        skip = np.arange(counts.sum()) - (np.cumsum(counts) - counts)[slot]
        e = order[lo[slot] + skip]
        q = by_base[slot % len(bases)]
        if earlier_only:
            q, e = q[e < q], e[e < q]
        conj = queries[q].conj()
        overlaps = np.abs(np.einsum("ij,ij->i", store[e], conj))
        for i in np.flatnonzero(np.abs(overlaps - self._threshold) <= _EXACT_MARGIN):
            overlaps[i] = np.abs(store[[e[i], e[i]]] @ conj[i])[0]
        hit = overlaps >= self._threshold
        return q[hit], e[hit]


X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
S = np.diag([1.0, 1j])
T = np.diag([1.0, np.exp(0.25j * np.pi)])


def levels(gates, nets, max_len=12, pairs=50_000):
    """Admit the root and then each level grown from the kept products, as
    ``best_approximation`` does, to every net in ``nets``; yield each level's
    products and the kept indices each net returns.

    At coarse radii nearly every pair of products is a candidate, so the
    levels also stop before one could pair more than ``pairs`` times.
    """
    dim = gates.shape[1]
    frontier, held = np.eye(dim, dtype=complex)[None], 0
    for _ in range(max_len + 1):
        if not len(frontier) or len(frontier) * (held + len(frontier)) > pairs:
            break
        flats = frontier.reshape(len(frontier), -1)
        kept = [net.admit(flats) for net in nets]
        yield flats, kept
        held += len(kept[0])
        frontier = np.matmul(gates[None], frontier[kept[0]][:, None]).reshape(-1, dim, dim)


gate_sets = st.one_of(
    st.builds(
        lambda dim, n, rng: np.stack([random_unitary(dim, rng).entries for _ in range(n)]),
        st.integers(1, 4),
        st.integers(2, 3),
        st.integers(0, 2**32 - 1).map(np.random.default_rng),
    ),
    # Exact duplicates and overlaps exactly at the merge threshold.
    st.sampled_from([np.stack([H, T]), np.stack([H, S, T]), np.stack([X, H, S])]),
)


@settings(max_examples=60)
@given(gates=gate_sets, radius=st.sampled_from([1e-3, 0.05, 0.2]))
def test_admit_keeps_what_the_two_pass_admit_keeps(gates, radius):
    dim = gates.shape[1]
    for _, (kept, reference) in levels(gates, [_VisitedNet(dim, radius), TwoPassNet(dim, radius)]):
        assert np.array_equal(kept, reference)


@settings(max_examples=40)
@given(gates=gate_sets, radius=st.sampled_from([1e-3, 0.05, 0.2]))
def test_the_net_holds_exactly_its_kept_products(gates, radius):
    """After every admit the buffer holds the kept rows in admission order, and
    the index is their cell keys, sorted, each pointing at its row."""
    dim = gates.shape[1]
    net = _VisitedNet(dim, radius)
    rows = []
    for flats, (kept,) in levels(gates, [net]):
        rows.append(flats[kept])
        held = np.concatenate(rows)
        cells, _ = net._keys(held)
        assert net._count == len(held)
        assert np.array_equal(net._buf[: net._count], held)
        assert np.array_equal(net._sorted, np.sort(cells))
        assert np.array_equal(np.sort(net._order), np.arange(len(held)))
        assert np.array_equal(cells[net._order], net._sorted)


def straddling_pair(dim, rng):
    """Unitaries A, B and a radius whose threshold lies between the batched
    (einsum) and the matrix-vector overlap of A and B."""
    for _ in range(1000):
        a = random_unitary(dim, rng).entries.reshape(-1)
        b = partner(a.reshape(dim, dim), rng, 0.01, rotate=False).reshape(-1)
        batched = np.abs(np.einsum("ij,ij->i", a[None], b.conj()[None]))[0]
        scanned = np.abs(np.stack([a, a]) @ b.conj())[0]
        low, high = sorted([batched, scanned])
        radius = np.sqrt(1.0 - high / dim)
        for _ in range(8):
            threshold = dim * (1.0 - radius * radius)
            if low < threshold <= high:
                return a, b, radius
            radius = np.nextafter(radius, 0.0 if threshold <= low else 1.0)
    raise AssertionError("no straddling pair found")


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("same_level", [False, True])
def test_a_pair_at_the_threshold_merges_as_the_linear_scan_decides(dim, same_level):
    """The batched overlap and the scan's overlap of one pair fall on either
    side of the threshold: the recompute makes the net decide as the scan."""
    a, b, radius = straddling_pair(dim, np.random.default_rng(dim))
    net = _VisitedNet(dim, radius)
    root = np.eye(dim, dtype=complex).reshape(-1)
    net.admit(root[None])
    if same_level:
        kept = net.admit(np.stack([a, b]))
        assert list(kept[:1]) == [0]
        b_kept = len(kept) == 2
    else:
        assert list(net.admit(a[None])) == [0]
        b_kept = len(net.admit(b[None])) == 1
    # linear_scan_search's test: one matrix-vector product of the net with B.
    assert b_kept == (np.abs(np.stack([root, a]) @ b.conj()).max() < net._threshold)


class UnfilteredProbeNet(_VisitedNet):
    """Checks every ``_merges`` against a probe that pairs each product with
    every key of its 4 runs, and counts what the probed indexes held."""

    def __init__(self, dim, radius):
        super().__init__(dim, radius)
        self.seen = {"duplicate keys": 0, "multi-key runs": 0, "most blocks": 0}

    def _merges(self, flats, bases, start):
        # One np.repeat per block of pairs.
        with mock.patch.object(np, "repeat", wraps=np.repeat) as blocks:
            q, e = super()._merges(flats, bases, start)
        self.seen["most blocks"] = max(self.seen["most blocks"], blocks.call_count)
        runs = (self._runs[:, None] + bases).ravel()
        lo = np.searchsorted(self._sorted, runs)
        counts = np.searchsorted(self._sorted, runs + 2) - lo
        slot = np.repeat(np.arange(len(runs)), counts)
        want_e = self._order[lo[slot] + np.arange(counts.sum()) - (np.cumsum(counts) - counts)[slot]]
        want_q = slot % len(bases)
        earlier = want_e < start + want_q
        want_q, want_e = want_q[earlier], want_e[earlier]
        conj = flats[want_q].conj()
        overlaps = np.abs(np.einsum("ij,ij->i", self._buf[want_e], conj))
        for i in np.flatnonzero(np.abs(overlaps - self._threshold) <= _EXACT_MARGIN):
            overlaps[i] = np.abs(self._buf[[want_e[i], want_e[i]]] @ conj[i])[0]
        hit = overlaps >= self._threshold
        got, want = np.stack([q, e]), np.stack([want_q[hit], want_e[hit]])
        assert np.array_equal(got[:, np.lexsort(got)], want[:, np.lexsort(want)])
        self.seen["duplicate keys"] += bool(np.any(np.diff(self._sorted) == 0))
        self.seen["multi-key runs"] += bool(np.any(counts > 1))
        return q, e


@settings(max_examples=40)
@given(gates=gate_sets, radius=st.sampled_from([1e-3, 0.05]), block=st.sampled_from([1, 7, 64]))
def test_merges_pairs_what_an_unfiltered_probe_pairs(gates, radius, block):
    """Dropping a run that holds only the query's own key, or a later product
    of its level, loses no pair, however the pairs are split into blocks."""
    net = UnfilteredProbeNet(gates.shape[1], radius)
    with mock.patch.object(approx, "_ROW_BLOCK", block):
        for _ in levels(gates, [net], max_len=10):
            pass


@pytest.mark.parametrize("radius", [1e-3, 0.05])
def test_the_unfiltered_probe_covers_duplicate_keys_and_multi_key_runs(radius):
    net = UnfilteredProbeNet(2, radius)
    with mock.patch.object(approx, "_ROW_BLOCK", 7):
        for _ in levels(np.stack([H, S, T]), [net], max_len=10):
            pass
    assert net.seen["duplicate keys"] and net.seen["multi-key runs"] and net.seen["most blocks"] > 1


def test_a_deep_search_expands_few_pairs_per_admitted_product():
    """At the default radius almost every probed run holds only the query's
    own key; such runs are dropped before their pairs are expanded."""
    admitted = []
    admit = _VisitedNet.admit

    def counting_admit(net, flats):
        admitted.append(len(flats))
        return admit(net, flats)

    target = random_unitary(2, np.random.default_rng(3))
    with mock.patch.object(_VisitedNet, "admit", counting_admit), mock.patch.object(
        np, "repeat", wraps=np.repeat
    ) as repeats:
        best_approximation(target, default_gate_set(), 14)
    expanded = sum(int(np.sum(call.args[1])) for call in repeats.call_args_list)
    assert sum(admitted) > 16_000
    assert expanded < 0.1 * sum(admitted)
    # Each level's pairs fit one block: one np.repeat per admit at most.
    assert repeats.call_count <= len(admitted)


@settings(max_examples=40)
# At 1e-5 the grid needs 8-byte keys; at the other radii 4 bytes hold them.
@given(gates=gate_sets, radius=st.sampled_from([1e-5, 1e-3, 0.05, 0.2]), block=st.sampled_from([1, 3, approx._ROW_BLOCK]))
def test_staged_rows_and_a_given_array_leave_the_same_net(gates, radius, block):
    """A level built in the rows ``stage`` hands out, as the search builds it,
    and the same level given as an array of its own keep what the two-pass
    admit keeps, and leave the same buffer and index, however the rows are
    probed and moved in blocks; the kept rows follow the earlier ones."""
    dim = gates.shape[1]
    given_net, staged_net = _VisitedNet(dim, radius), _VisitedNet(dim, radius)
    with mock.patch.object(approx, "_ROW_BLOCK", block):
        for flats, (kept, reference) in levels(gates, [given_net, TwoPassNet(dim, radius)]):
            start = staged_net._count
            rows = staged_net.stage(len(flats))
            assert rows.base is staged_net._buf
            rows[:] = flats
            assert np.array_equal(staged_net.admit(rows), kept)
            assert np.array_equal(kept, reference)
            held = given_net._count
            assert staged_net._count == held
            assert staged_net._buf[:held].tobytes() == given_net._buf[:held].tobytes()
            assert np.array_equal(staged_net._sorted, given_net._sorted)
            assert np.array_equal(staged_net._order, given_net._order)
            cells, _ = staged_net._keys(staged_net._buf[:held])
            assert np.array_equal(staged_net._sorted, np.sort(cells))
            assert np.array_equal(cells[staged_net._order], staged_net._sorted)
            for net in given_net, staged_net:
                assert net._buf[start : net._count].tobytes() == flats[kept].tobytes()


def test_a_buffer_that_grows_makes_room_for_the_next_level():
    """The reserve a growing stage is given stays free for the next level, so
    staging that level moves nothing."""
    rng = np.random.default_rng(4)
    net = _VisitedNet(2, 1e-3)
    net.admit(np.eye(2, dtype=complex).reshape(1, -1))
    rows = net.stage(1000, 2000)
    assert len(net._buf) == 1 + 1000 + 2000
    rows[:] = [random_unitary(2, rng).entries.reshape(-1) for _ in range(1000)]
    assert len(net.admit(rows)) == 1000
    grown = net._buf
    net.stage(2000)
    assert net._buf is grown


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_an_empty_level_keeps_nothing_and_leaves_the_net_as_it_was(dim):
    """A level of no products probes nothing, keeps nothing, and leaves the
    count and the index as they were."""
    rng = np.random.default_rng(5)
    net = _VisitedNet(dim, 1e-3)
    net.admit(np.stack([random_unitary(dim, rng).entries.reshape(-1) for _ in range(20)]))
    count, sorted_keys, order = net._count, net._sorted.copy(), net._order.copy()
    assert len(net.admit(np.empty((0, dim * dim), dtype=complex))) == 0
    assert net._count == count
    assert np.array_equal(net._sorted, sorted_keys)
    assert np.array_equal(net._order, order)


@pytest.mark.parametrize(
    "dim, radius, itemsize",
    [(1, 1e-3, 4), (2, 1e-3, 4), (4, 1e-3, 4), (2, 3e-4, 8), (2, 1e-5, 8), (4, 1e-6, 8)],
)
def test_grid_keys_take_4_bytes_where_every_probe_run_end_fits(dim, radius, itemsize):
    """Keys and probe runs take 4 bytes when the largest run end fits in them,
    and keys are the exact integers at the coordinates' extremes."""
    net = _VisitedNet(dim, radius)
    assert net._sorted.dtype.itemsize == net._runs.dtype.itemsize == itemsize
    # Each shifted coordinate lies in [0, 1.5], so no cell or base index exceeds top.
    top = int(1.5 / net._side) + 1
    largest = (top * net._span + top) * net._span + top + int(net._runs[-1]) + 2
    assert largest <= np.iinfo(net._sorted.dtype).max
    if itemsize == 8:
        assert largest > np.iinfo(np.int32).max
    # Coordinates (1, 1, 1), (½, 3/2, 3/2), (½, ½, ½) and (0, 1, 1).
    extremes = [np.eye(dim, dtype=complex) for _ in range(4)]
    if dim > 1:
        for a, block in zip(extremes[1:], [H, np.array([[1, -1], [-1, -1]]) / np.sqrt(2.0), X]):
            a[:2, :2] = block
    flats = np.stack(extremes).reshape(len(extremes), -1)
    cells, bases = net._keys(flats)
    for flat, cell, base in zip(flats, cells, bases):
        a, b, c = (flat[0], flat[1], flat[dim]) if dim > 1 else (flat[0], 0.0, 0.0)
        want_cell = want_base = 0
        for u in (abs(a) ** 2, (a * np.conj(c)).real + 1.0, (a * np.conj(b)).real + 1.0):
            want_cell = want_cell * net._span + int(np.floor(u / net._side)) + 1
            want_base = want_base * net._span + int(np.floor(u / net._side - 0.5)) + 1
        assert (int(cell), int(base)) == (want_cell, want_base)


def traced_peak_and_kept_bytes(search):
    """The traced peak of ``search()`` and the bytes of the products its net kept."""
    kept_bytes = []
    admit = _VisitedNet.admit

    def counting_admit(net, flats):
        kept = admit(net, flats)
        kept_bytes.append(len(kept) * flats.shape[1] * np.dtype(complex).itemsize)
        return kept

    with mock.patch.object(_VisitedNet, "admit", counting_admit):
        tracemalloc.start()
        try:
            search()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak, sum(kept_bytes)


def test_a_deep_search_holds_each_kept_product_about_once():
    """A length-16 search's traced peak stays under 1.8 times the bytes of the
    products its net keeps (1.46 measured). Its buffer holds each kept row
    once, each level is built in it, and a growing buffer makes room for the
    next level too; keys take 4 bytes, and the screen's, the keys', the
    probe's and the compaction's scratch come in blocks of rows. Screening
    and keying a whole level at once, with 8-byte keys, peaked at 2.02 times;
    building each level apart from the net, and probing a whole level at
    once, at 3.8 times."""
    target = random_unitary(2, np.random.default_rng(3))
    peak, kept = traced_peak_and_kept_bytes(lambda: best_approximation(target, default_gate_set(), 16))
    assert kept > 60_000 * 4 * np.dtype(complex).itemsize
    assert peak < 1.8 * kept


def test_a_coarse_search_compares_pairs_a_row_block_at_a_time():
    """At d = 4 and r = 0.05 a length-10 search pairs nearly every product with
    every kept one; gathering at most a row block of pairs at once keeps its
    traced peak under 8 times the kept products' bytes (5.2 measured). Blocks
    of 32,768 pairs peaked at 57 times."""
    g = GateSet(tuple(random_unitary(4, np.random.default_rng(seed)) for seed in (100, 101)))
    target = random_unitary(4, np.random.default_rng(5))
    peak, kept = traced_peak_and_kept_bytes(lambda: best_approximation(target, g, 10, net_radius=0.05))
    assert kept > 1_000 * 16 * np.dtype(complex).itemsize
    assert peak < 8 * kept
