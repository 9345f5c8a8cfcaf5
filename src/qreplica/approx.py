"""Approximating a target unitary by products drawn from a finite gate set.

The search enumerates gate products breadth first, one length (level) at a
time, with a visited-net prune: two partial products within ``net_radius`` of
each other (phase-invariant distance) are merged, keeping the one found first,
which is always the shorter or lexicographically earlier one. The net's grid
index (see ``_VisitedNet``) only proposes merge candidates, and every merge is
confirmed with the exact test |tr(A†B)| >= d(1 − r²), so indexing never
changes which products merge or what the search returns.

The net radius r is therefore the documented completeness resolution: a
negative answer certifies that nothing in the visited net beat the requested
precision, not that no sequence exists. It bounds by how much one can: a merge
swaps a product for a kept one within r, and multiplying both by a gate keeps
their distance, so every product of length ℓ ≤ L, where L is the last length
the search evaluated, lies within (ℓ − 1)·r of one it evaluated. No product of
length ≤ L is closer to the target than the achieved distance minus (L − 1)·r.

Ties between equally good sequences are broken toward shorter length, then
lexicographically smaller symbols (in application order), so every search is
fully deterministic.

What a level keeps depends only on the gates and the net radius, never on the
target, so expanded levels are stored between searches, keyed by the gate
matrices and the radius. A search builds only the levels no earlier search
expanded, and returns what a search from nothing returns, bit for bit. The
process keeps one gate set's levels: a search that leaves more than MAX_DIM
amplitudes stored drops them when it returns, as does a search that raises,
and searching another gate set or radius releases them. Searches hold a lock
while they read or extend the store, so those in separate threads run one at
a time, on any gate set.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import ContractError, InputError
from .linalg import Operator, _check_capacity, _check_unitary_family, _integer, _operators_from_json, operator_to_json
from .tape import Tape, format_tape


@dataclass(frozen=True, eq=False)
class GateSet:
    """A finite family of same-dimension unitary gates, one per tape symbol."""

    gates: tuple[Operator, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        gates = tuple(self.gates)
        if not gates:
            raise ContractError("a gate set needs at least one gate")
        _check_unitary_family(gates, "gate", gates[0].dim)
        labels = tuple(self.labels) or tuple(f"g{l}" for l in range(len(gates)))
        if len(labels) != len(gates):
            raise ContractError(f"got {len(labels)} labels for {len(gates)} gates")
        if len(set(labels)) != len(labels):
            raise ContractError("gate labels must be unique")
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.gates)

    @property
    def dim(self) -> int:
        return self.gates[0].dim


@dataclass(frozen=True, eq=False)
class ApproxResult:
    """Best product found by a search.

    ``symbols`` is in application order: symbols[0] selects the gate applied
    first. The equivalent tape lists cells most-significant-first, i.e.
    reversed. An empty ``symbols`` denotes the identity (empty product).

    ``profile[L]`` is the best distance over lengths ≤ L, for every length L
    the search evaluated: ``profile[0]`` is the identity's distance and
    ``profile[-1]`` is ``achieved_distance``. It is never increasing, and
    ``profile[L]`` equals the ``achieved_distance`` of the same search with
    ``max_len=L``, since a search evaluates a level before it decides whether
    to expand it.
    """

    symbols: tuple[int, ...]
    achieved_distance: float
    target: Operator
    expansions: int
    profile: tuple[float, ...]

    def tape(self, alphabet_size: int) -> Tape:
        if not self.symbols:
            raise ContractError("the empty sequence has no tape form (a tape needs >= 1 cell)")
        return Tape(alphabet_size, tuple(reversed(self.symbols)))


def rotation_z(theta: float) -> Operator:
    return Operator(np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]))


def rotation_x(theta: float) -> Operator:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return Operator(np.array([[c, -1j * s], [-1j * s, c]]))


GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


def default_gate_set() -> GateSet:
    """Two single-qubit rotations by an irrational multiple of 2π.

    Irrational rotation angles about two orthogonal axes generate a dense
    subgroup of the single-qubit unitaries, so products of these two gates
    can come arbitrarily close to any target given enough length.
    """
    theta = 2.0 * np.pi * GOLDEN_RATIO
    return GateSet((rotation_z(theta), rotation_x(theta)), ("rz", "rx"))


# Batched overlaps this close to a merge threshold or to a level's best are
# recomputed one product at a time, with the expression that defines the
# decision, before they decide.
_EXACT_MARGIN = 1e-12
# The search screens, and the net keys, probes, compares and compacts, at most
# this many rows or candidate pairs at once (unless one probed run of one
# product alone has more pairs), which bounds the scratch a deep level needs.
_ROW_BLOCK = 1 << 11


def _compact(arrays, keep: np.ndarray, first: int) -> int:
    """Move each array's rows where ``keep`` holds to its front, in order and in
    place, and return how many there are. Rows before ``first`` are all kept.

    A block is gathered before it is written, and is written no later than it
    was read, so no row is overwritten before it is read.
    """
    write = first
    for read in range(first, len(keep), _ROW_BLOCK):
        block = keep[read : read + _ROW_BLOCK]
        for a in arrays:
            moved = a[read : read + _ROW_BLOCK][block]
            a[write : write + len(moved)] = moved
        write += int(np.count_nonzero(block))
    return write


class _VisitedNet:
    """Partial products kept so far; anything within the radius of one is merged.

    Kept products are indexed by a grid on three phase-invariant coordinates,
    p(A) = (|A₀₀|², Re A₀₀·conj(A₁₀), Re A₀₀·conj(A₀₁)): entries of the
    projectors xx† onto x = column 0 of A and onto column 0 of A†.

    Each coordinate moves by at most reach = √dim·r across a merge. A merge
    means |tr W| ≥ dim·(1 − r²) for W = A†B. For unit vectors x, x′ with
    c = |⟨x, x′⟩|, xx† − x′x′† has eigenvalues ±√(1 − c²), which bound each of
    its entries. For column 0, c = |W₀₀|. Deleting row 0 and column 0 of W
    leaves a block whose singular values are 1 but one, which is c, so
    |tr W| ≤ dim − 2 + 2c, and 1 − c² ≤ 2(1 − c) ≤ dim − |tr W| ≤ dim·r². The
    same holds for column 0 of A†, with W = AB†.

    The cell side is at least 2·reach, so a merge partner's coordinate lies
    within half a side of the query's u, in cell floor(u/side − ½) or the one
    after it. Two cells per axis are 8 cells, which are 4 runs of 2
    consecutive keys. Each coordinate lies in an interval of length 1, so no
    partner is more than 1 away: a side of 2 already covers every radius, and
    the side is capped at 4, where the grid is a single cell.

    Kept products' rows sit in one buffer, in the order they were kept, and
    the index holds their cell keys, sorted, each with its row. ``stage``
    hands out the buffer rows behind the kept ones for a level to be built
    in place, and ``admit`` keeps the level's products that no earlier one
    covers, so the net again holds exactly its kept products.
    """

    def __init__(self, dim: int, radius: float):
        # d(A,B) <= r  <=>  |tr(A†B)| >= dim·(1 − r²)
        self._threshold = dim * (1.0 - radius * radius)
        self._dim = dim
        # 1e-12 in r² and 1e-6 in the side absorb rounding in the overlaps and
        # in p.
        reach = np.sqrt(dim * (radius * radius + 1e-12))
        self._side = min(2.0 * reach * (1.0 + 1e-6), 4.0)
        # Shifted coordinates lie in [0, 1.5], so every cell and probe index
        # lies in [0, span), and every key and probe run end below
        # (span + 1)³ < 2⁶³ (the side is at least 2e-6).
        span = int(1.5 / self._side) + 4
        self._span = span
        self._key = np.int32 if (span + 1) ** 3 <= np.iinfo(np.int32).max else np.int64
        # The 8 cells from a base cell are 4 runs of 2 keys along the last axis.
        self._runs = np.array([0, 1, span, span + 1], dtype=self._key) * span
        self._buf = np.empty((256, dim * dim), dtype=complex)
        self._count = 0
        self._staged: np.ndarray | None = None
        self._order = np.empty(0, dtype=np.intp)
        self._sorted = np.empty(0, dtype=self._key)

    def stage(self, count: int, reserve: int = 0) -> np.ndarray:
        """The buffer rows for the next ``count`` products, behind the kept ones.

        A buffer too small for them grows to hold ``reserve`` rows more, the
        most the next level may need, and at least doubles. It moves to grow,
        which leaves earlier views of it stale. Fill the rows, then ``admit``
        them.
        """
        start, end = self._count, self._count + count
        if end > len(self._buf):
            grown = np.empty((max(end + reserve, 2 * len(self._buf)), self._buf.shape[1]), dtype=complex)
            grown[:start] = self._buf[:start]
            self._buf = grown
        self._staged = self._buf[start:end]
        return self._staged

    def _keys(self, flats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each product's cell key and the key its probe runs start from,
        computed a row block at a time."""
        cells, bases = np.empty(len(flats), dtype=self._key), np.empty(len(flats), dtype=self._key)
        for begin in range(0, len(flats), _ROW_BLOCK):
            rows = slice(begin, begin + _ROW_BLOCK)
            a = flats[rows, 0]
            # A 1×1 product has no off-diagonal entries: its projectors' are 0.
            b, c = (flats[rows, 1], flats[rows, self._dim]) if self._dim > 1 else (0.0 * a, 0.0 * a)
            coords = (
                a.real * a.real + a.imag * a.imag,
                a.real * c.real + a.imag * c.imag + 1.0,
                a.real * b.real + a.imag * b.imag + 1.0,
            )
            cell = base = 0
            for u in coords:
                scaled = u / self._side
                cell = cell * self._span + np.floor(scaled).astype(self._key) + 1
                base = base * self._span + np.floor(scaled - 0.5).astype(self._key) + 1
            cells[rows], bases[rows] = cell, base
        return cells, bases

    def admit(self, flats: np.ndarray) -> np.ndarray:
        """Keep each product no earlier one covers; return the kept indices.

        ``flats`` is the rows ``stage`` handed out, or an array of its own,
        which is copied into the buffer. Products are taken in order, so of
        two that cover each other only the first is kept, exactly as if they
        were added one at a time.
        """
        if flats is not self._staged:
            self.stage(len(flats))[:] = flats
        flats, self._staged = self._staged, None
        start = self._count
        cells, bases = self._keys(flats)
        # One merge: the level's keys go before equal stored keys, as
        # searchsorted places them, and the stored keys fill the other slots.
        by_cell = np.argsort(cells)
        cells = cells[by_cell]
        at = np.searchsorted(self._sorted, cells)
        at += np.arange(len(flats))
        stored = np.ones(len(self._sorted) + len(flats), dtype=bool)
        stored[at] = False
        # Each old index array goes as soon as its merged one is made, and
        # what the probe does not need goes before its scratch comes on top.
        merged = np.empty(len(stored), dtype=self._key)
        merged[at], merged[stored] = cells, self._sorted
        self._sorted = merged
        del cells
        by_cell += start
        order = np.empty(len(stored), dtype=np.intp)
        order[at], order[stored] = by_cell, self._order
        self._order = order
        del by_cell, at, stored

        q, e = self._merges(flats, bases, start)
        within = e >= start
        kept = np.ones(len(flats), dtype=bool)
        kept[q[~within]] = False
        # Pairs within the level, resolved in the order of the later product.
        later, earlier = q[within], e[within] - start
        by_later = np.lexsort((earlier, later))
        for j, k in zip(later[by_later].tolist(), earlier[by_later].tolist()):
            if kept[k]:
                kept[j] = False
        fresh = np.flatnonzero(kept)
        if len(fresh) < len(flats):
            _compact([flats], kept, int(np.argmin(kept)))
            # The level's index entries are those of rows from start on, found
            # a block at a time: the kept ones get their new rows, and the
            # others go.
            renumbered = np.cumsum(kept) + (start - 1)
            held = np.ones(len(self._order), dtype=bool)
            for begin in range(0, len(held), _ROW_BLOCK):
                rows = self._order[begin : begin + _ROW_BLOCK]
                mine = np.flatnonzero(rows >= start)
                level_rows = rows[mine] - start
                held[begin + mine] = kept[level_rows]
                rows[mine] = renumbered[level_rows]
            size = _compact([self._sorted, self._order], held, int(np.argmin(held)))
            self._sorted, self._order = self._sorted[:size], self._order[:size]
        self._count = start + len(fresh)
        return fresh

    def _merges(self, flats: np.ndarray, bases: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Pairs (product q of the level, indexed product e) that merge.

        The level's rows ``flats`` are ``start`` on in the buffer; e is a
        stored product (e < start) or one earlier in the level
        (e − start < q), and |tr(buf[e]†·flats[q])| >= threshold.

        An overlap near the threshold is recomputed the way one matrix-vector
        product of the whole net with the query computes it, so a decision at
        the threshold is the one an unindexed scan of the net makes.
        """
        if not len(bases):
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        lo, counts, slot_queries = self._probe(bases, start)
        order, store = self._order, self._buf
        totals = np.cumsum(counts)
        found_q, found_e = [], []
        begin = 0
        while begin < len(lo):
            done = totals[begin - 1] if begin else 0
            stop = int(np.searchsorted(totals, done + _ROW_BLOCK, "right"))
            stop = max(stop, begin + 1)
            block = counts[begin:stop]
            slot = np.repeat(np.arange(stop - begin), block)
            skip = np.arange(int(totals[stop - 1] - done)) - (np.cumsum(block) - block)[slot]
            e = order[lo[begin:stop][slot] + skip]
            q = slot_queries[begin:stop][slot]
            # Stored products, and products earlier in the level.
            earlier = e < start + q
            q, e = q[earlier], e[earlier]
            query = flats[q]
            np.conjugate(query, out=query)
            overlaps = np.abs(np.einsum("ij,ij->i", store[e], query))
            # Two rows, because numpy hands a one-row product to a dot
            # kernel that rounds differently.
            for i in np.flatnonzero(np.abs(overlaps - self._threshold) <= _EXACT_MARGIN):
                overlaps[i] = np.abs(store[[e[i], e[i]]] @ query[i])[0]
            hit = overlaps >= self._threshold
            found_q.append(q[hit])
            found_e.append(e[hit])
            begin = stop
        if not found_q:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        return np.concatenate(found_q), np.concatenate(found_e)

    def _probe(self, bases: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each probed run that may pair its query: the index of its first key,
        its key count and its query, for the level starting at row ``start``.

        Queries are visited in base key order, so each run's needles are
        sorted, and probed a block at a time, whose scratch is freed before
        the pairs are expanded.
        """
        sorted_keys, order = self._sorted, self._order
        by_base = np.argsort(bases)
        parts = []
        for begin in range(0, len(bases), _ROW_BLOCK):
            queries = by_base[begin : begin + _ROW_BLOCK]
            runs = (self._runs[:, None] + bases[queries]).ravel()
            lo = np.searchsorted(sorted_keys, runs)
            # The key at lo is the run's first key if it is 0 or 1 past the
            # run's start; past the end, take clips to the last key, which
            # lies before the start. Most runs are empty: look for a run's end
            # only if its first key is in it.
            first = sorted_keys.take(lo, mode="clip")
            first -= runs
            slots = np.flatnonzero((first >= 0) & (first < 2))
            lo, ends = lo[slots], runs[slots]
            ends += 2
            # A run holds one key unless its second key is in it too: only then
            # look for its end. Past the end, the second key is the first one,
            # and the search finds the run's one key.
            counts = np.ones(len(slots), dtype=np.intp)
            multi = np.flatnonzero(sorted_keys.take(lo + 1, mode="clip") < ends)
            counts[multi] = np.searchsorted(sorted_keys, ends[multi]) - lo[multi]
            slot_queries = queries[slots % len(queries)]
            # A run of one key whose product is the query or a later product of
            # its level has no pair: drop it before expanding.
            useful = (counts > 1) | (order[lo] < start + slot_queries)
            parts.append((lo[useful], counts[useful], slot_queries[useful]))
        return tuple(np.concatenate(part) for part in zip(*parts))


class _Levels:
    """The expanded levels that every search on one gate set and radius shares.

    Level k's kept products are the net's buffer rows ``bounds[k]`` to
    ``bounds[k + 1]``, and ``kept[k − 1]`` holds each one's index c = i·n + l
    in level k: parent i among level k − 1's kept products, symbol l.
    """

    def __init__(self, key, gate_mats: np.ndarray, radius: float):
        self.key = key
        n, dim, _ = gate_mats.shape
        # Rows l·dim to (l + 1)·dim are gate l, so gate_rows @ F is F's n
        # products in symbol order, from one BLAS call with dim columns.
        self.gate_rows = gate_mats.reshape(n * dim, dim)
        self.net = _VisitedNet(dim, radius)
        self.net.admit(np.eye(dim, dtype=complex).reshape(1, -1))
        self.bounds = [0, self.net._count]
        self.kept: list[np.ndarray] = []

    def __getitem__(self, k: int) -> np.ndarray:
        return self.net._buf[self.bounds[k] : self.bounds[k + 1]]

    def extend(self, reserve: int) -> None:
        """Build the level after the last stored one in the net's buffer rows,
        with one BLAS call per parent, admit it, and store what it keeps."""
        net, dim, last = self.net, self.net._dim, len(self.bounds) - 2
        products = net.stage(len(self[last]) * (len(self.gate_rows) // dim), reserve)
        # Staging may have moved the buffer: read the parents where they are now.
        parents = self[last].reshape(-1, dim, dim)
        np.matmul(self.gate_rows, parents, out=products.reshape(len(parents), -1, dim))
        self.kept.append(net.admit(products).astype(np.int32))
        self.bounds.append(net._count)


# The levels of the last gate set and radius searched: one entry per process,
# read and extended only under the lock.
_levels: _Levels | None = None
_levels_lock = threading.Lock()


def _forget_levels() -> None:
    """Drop the stored levels, so the next search builds its own."""
    global _levels
    _levels = None


def _levels_for(gate_mats: np.ndarray, radius: float) -> _Levels:
    """The stored levels of these gates and radius, begun afresh if another
    gate set's are stored. Call with ``_levels_lock`` held."""
    global _levels
    key = (gate_mats.shape, gate_mats.tobytes(), radius)
    if _levels is None or _levels.key != key:
        # Let the other gate set's levels go before the new net is built.
        _levels = None
        _levels = _Levels(key, gate_mats, radius)
    return _levels


def _require_positive_finite(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise ContractError(f"{name} must be positive and finite, got {value}")


def best_approximation(
    target: Operator,
    g: GateSet,
    max_len: int,
    *,
    epsilon: float | None = None,
    net_radius: float | None = None,
) -> ApproxResult:
    """Best product of length ≤ max_len, by level-by-level enumeration.

    Each level is evaluated from its parents, and the best distance so far
    joins the result's ``profile``. A level is expanded (built in full and
    admitted to the visited net) only if another level follows, and each of
    its products has the bits of ``gate @ parent`` alone. An expanded level
    of more than MAX_DIM amplitudes is refused with ``CapacityError``; the
    budget is read once, at the first level the search expands.

    Expanded levels are shared with earlier searches on the same gate
    matrices and radius (see the module docstring). ``expansions`` counts the
    products the search evaluated, whether they were built in this call or
    before.

    With ``epsilon`` set, the search stops after the first level at which the
    best distance so far reaches epsilon (finishing that level, so the result
    is the shortest such sequence). A result still above epsilon certifies
    failure only up to the net's resolution: no product of length ≤ L, the
    last length evaluated, is closer than its distance minus (L − 1)·r.
    """
    if not target.is_unitary:
        raise ContractError("approximation target must be unitary")
    if target.dim != g.dim:
        raise ContractError(f"target dim {target.dim} does not match gate dim {g.dim}")
    if max_len < 1:
        raise ContractError(f"max_len must be at least 1, got {max_len}")
    if epsilon is not None:
        _require_positive_finite("epsilon", epsilon)
    radius = config.DEFAULT_NET_RADIUS if net_radius is None else float(net_radius)
    _require_positive_finite("net radius", radius)

    dim, n = g.dim, g.n
    gate_mats = np.stack([gate.entries for gate in g.gates])
    target_flat = target.entries.reshape(-1)
    # Column l is conj(G_l†T): a parent F times it is conj(tr((G_l F)†T)).
    lifted = (gate_mats.conj().transpose(0, 2, 1) @ target.entries).reshape(n, -1).conj().T

    def distance_of(flat: np.ndarray) -> float:
        overlap = abs(np.vdot(flat, target_flat)) / dim
        return float(np.sqrt(max(0.0, 1.0 - overlap)))

    with _levels_lock:
        levels = _levels_for(gate_mats, radius)
        best_dist = distance_of(levels[0][0])
        profile = [best_dist]
        best_at: tuple[int, int] | None = None
        expansions = 1
        limit: int | None = None

        try:
            for level in range(max_len):
                frontier = levels[level]
                if (epsilon is not None and best_dist <= epsilon) or not len(frontier):
                    break
                # Evaluate. Product c = i·n + l is gate l applied after kept
                # product i: the level stays in lexicographic order of symbol
                # sequences.
                expansions += len(frontier) * n
                # Parents are screened a block at a time. Screened and built
                # overlaps differ by far less than the margin, so this keeps
                # the best and all near it, built with the expanded level's
                # bits.
                screened = np.empty((len(frontier), n))
                for begin in range(0, len(frontier), _ROW_BLOCK):
                    np.abs(frontier[begin : begin + _ROW_BLOCK] @ lifted, out=screened[begin : begin + _ROW_BLOCK])
                screened = screened.reshape(-1)
                picks = np.flatnonzero(screened >= screened.max() - _EXACT_MARGIN)
                del screened
                parent_mats = frontier.reshape(-1, dim, dim)[picks // n]
                flats = np.matmul(gate_mats[picks % n], parent_mats).reshape(len(picks), -1)
                # Same length throughout the level, so the first best one wins
                # it, and it replaces a shorter best only by being strictly
                # better.
                for c, flat in zip(picks.tolist(), flats):
                    dist = distance_of(flat)
                    if dist < best_dist:
                        best_dist, best_at = dist, (level, c)
                profile.append(best_dist)
                # Expand: only a level that another grows from, and build it
                # only if no earlier search did.
                if level == max_len - 1 or (epsilon is not None and best_dist <= epsilon):
                    break
                if limit is None:
                    limit = config.max_dim()
                _check_capacity(len(frontier) * n * dim * dim, "approximation level", limit)
                if len(levels.kept) == level:
                    # A buffer that grows makes room for the next level too, if
                    # one is expanded and the capacity check would let it be
                    # built.
                    reserve = min(len(frontier) * n * n, limit // (dim * dim)) if level + 2 < max_len else 0
                    # Let a buffer that staging moves go.
                    del frontier
                    levels.extend(reserve)
        except BaseException:
            # A level admitted in part would mislead every later search, so
            # whatever raised, the store goes.
            _forget_levels()
            raise
        # The store keeps no more amplitudes than one expanded level may hold:
        # a deeper search's levels go when it returns.
        if limit is not None and levels.net._buf.size > limit:
            _forget_levels()

    # Stored kept indices never change, so they are read outside the lock.
    best_seq: list[int] = []
    if best_at is not None:
        level, c = best_at
        best_seq.append(c % n)
        for kept in reversed(levels.kept[:level]):
            c = int(kept[c // n])
            best_seq.append(c % n)
    return ApproxResult(
        symbols=tuple(reversed(best_seq)),
        achieved_distance=best_dist,
        target=target,
        expansions=expansions,
        profile=tuple(profile),
    )


# -- JSON wire format ---------------------------------------------------------


def gate_set_to_json(g: GateSet) -> dict:
    return {
        "dim": g.dim,
        "labels": list(g.labels),
        "gates": [operator_to_json(gate) for gate in g.gates],
    }


def gate_set_from_json(obj) -> GateSet:
    if not isinstance(obj, dict) or "gates" not in obj:
        raise InputError("gate set: expected a JSON object with a 'gates' key")
    gates = obj["gates"]
    if not isinstance(gates, list) or not gates:
        raise InputError("gate set: 'gates' must be a non-empty list")
    labels = obj.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise InputError("gate set: 'labels' must be a list of strings")
    try:
        result = GateSet(_operators_from_json(gates), tuple(labels))
        dim = _integer(obj.get("dim", result.dim), "dim")
    except ContractError as exc:
        raise InputError(f"gate set: {exc}") from exc
    if dim != result.dim:
        raise InputError(f"gate set: dim={dim} inconsistent with gates ({result.dim})")
    return result


def approx_result_to_json(result: ApproxResult, g: GateSet) -> dict:
    return {
        "symbols": list(result.symbols),
        "labels": [g.labels[c] for c in result.symbols],
        "tape": format_tape(result.tape(g.n)) if result.symbols else None,
        "achieved_distance": result.achieved_distance,
        "length": len(result.symbols),
        "expansions": result.expansions,
    }
