"""Approximating a target unitary by products drawn from a finite gate set.

The search is breadth-first enumeration of gate products, one length (level)
at a time, with a visited-net prune: two partial products within
``net_radius`` of each other (phase-invariant distance) are merged, keeping the
one found first, which is always the shorter or lexicographically earlier one.
The net radius is therefore the documented completeness resolution: a negative
answer certifies that nothing in the visited net beat the requested precision,
not that no sequence exists.

Each level is built with one stacked matrix product. The net is indexed by a
grid on a phase-invariant projection of each product (see ``_VisitedNet``);
the grid only proposes merge candidates, and every merge is confirmed with the
exact test |tr(A†B)| >= d(1 − r²). Overlaps within 1e-12 of that threshold
are recomputed as a matrix-vector product of the net with the new product
before they decide, so indexing changes which pairs are compared, never which
products merge or what the search returns.

Ties between equally good sequences are broken toward shorter length, then
lexicographically smaller symbols (in application order), so every search is
fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import ContractError
from .linalg import Operator, apply_sequence, phase_invariant_distance
from .tape import Tape, _integer


@dataclass(frozen=True, eq=False)
class GateSet:
    """A finite family of same-dimension unitary gates, one per tape symbol."""

    gates: tuple[Operator, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        gates = tuple(self.gates)
        if not gates:
            raise ContractError("a gate set needs at least one gate")
        dim = gates[0].dim
        for l, gate in enumerate(gates):
            if gate.dim != dim:
                raise ContractError(f"gate {l} has dim {gate.dim}, expected {dim}")
            if not gate.is_unitary:
                raise ContractError(f"gate {l} is not unitary (residual {gate.unitary_residual:.3e})")
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
    """

    symbols: tuple[int, ...]
    achieved_distance: float
    target: Operator
    expansions: int

    def tape(self, alphabet_size: int) -> Tape:
        if not self.symbols:
            raise ContractError("the empty sequence has no tape form (a tape needs >= 1 cell)")
        return Tape(alphabet_size, tuple(reversed(self.symbols)))


def rotation_z(theta: float) -> Operator:
    return Operator(np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]))


def rotation_x(theta: float) -> Operator:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return Operator(np.array([[c, -1j * s], [-1j * s, c]]))


def rotation_y(theta: float) -> Operator:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return Operator(np.array([[c, -s], [s, c]]))


GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


def default_gate_set() -> GateSet:
    """Two single-qubit rotations by an irrational multiple of 2π.

    Irrational rotation angles about two orthogonal axes generate a dense
    subgroup of the single-qubit unitaries, so products of these two gates
    can come arbitrarily close to any target given enough length.
    """
    theta = 2.0 * np.pi * GOLDEN_RATIO
    return GateSet((rotation_z(theta), rotation_x(theta)), ("rz", "rx"))


def sequence_unitary(t: Tape, g: GateSet) -> Operator:
    """Ordered product selected by the tape: cell 1's gate acts first."""
    if t.alphabet_size != g.n:
        raise ContractError(
            f"tape alphabet {t.alphabet_size} does not match gate set size {g.n}"
        )
    product = product_operator(reversed(t.cells), g)
    if not product.unitary_residual <= max(config.UNITARY_TOL, t.length * 1e-13):
        raise ContractError(
            f"product of {t.length} gates drifted from unitarity "
            f"(residual {product.unitary_residual:.3e})"
        )
    return product


def product_operator(symbols, g: GateSet) -> Operator:
    """Product of gates in application order; the empty product is the identity."""
    matrices = [gate.entries for gate in g.gates]
    return Operator(apply_sequence(matrices, symbols, np.eye(g.dim, dtype=complex)))


def recomputed_distance(result: ApproxResult, g: GateSet) -> float:
    """Independently recompute the result's distance from its symbols."""
    return phase_invariant_distance(product_operator(result.symbols, g), result.target)


# Batched overlaps this close to a merge threshold or to a level's best are
# recomputed one product at a time, with the expression that defines the
# decision, before they decide.
_EXACT_MARGIN = 1e-12
# Net lookups gather at most this many candidate pairs at once (unless one
# product alone has more), which bounds the search's working memory.
_PAIR_BLOCK = 1 << 15


class _VisitedNet:
    """Partial products kept so far; anything within the radius of one is merged.

    Kept products are indexed by a grid on p(A) = (|A₀₀|², Re A₀₀·conj(A₁₀)).
    A merge means min_θ‖e^{iθ}A − B‖_F ≤ √(2·dim)·r, and each coordinate of p
    is 2-Lipschitz in that distance, so every merge partner of a product lies
    in its own grid cell or one of the eight around it.
    """

    def __init__(self, dim: int, radius: float):
        # d(A,B) <= r  <=>  |tr(A†B)| >= dim·(1 − r²)
        self._threshold = dim * (1.0 - radius * radius)
        self._dim = dim
        # 1e-12 in r² and 1e-6 in the side absorb rounding in the overlaps and
        # in p; p lies in a unit square, so a wider cell gains nothing.
        reach = np.sqrt(2.0 * dim * (radius * radius + 1e-12))
        self._side = min(2.0 * reach * (1.0 + 1e-6), 4.0)
        span = int(3.0 / self._side) + 4
        self._span = span
        # The nine cells around a cell are three runs of consecutive keys.
        self._runs = np.arange(-1, 2) * span - 1
        self._buf = np.empty((256, dim * dim), dtype=complex)
        self._keys = np.empty(256, dtype=np.int64)
        self._count = 0
        self._order = np.empty(0, dtype=np.intp)
        self._sorted = np.empty(0, dtype=np.int64)

    def _cell_keys(self, flats: np.ndarray) -> np.ndarray:
        a, c = flats[:, 0], flats[:, self._dim]
        x = a.real * a.real + a.imag * a.imag
        y = (a * c.conj()).real
        ix = np.floor(x / self._side).astype(np.int64) + 1
        iy = np.floor((y + 1.0) / self._side).astype(np.int64) + 1
        return ix * self._span + iy

    def admit(self, flats: np.ndarray) -> np.ndarray:
        """Keep each product no earlier one covers; return the kept indices.

        Products are taken in order, so of two that cover each other only the
        first is kept, exactly as if they were added one at a time.
        """
        keys = self._cell_keys(flats)
        covered = np.zeros(len(flats), dtype=bool)
        covering, _ = self._merges(flats, keys, self._buf, self._sorted, self._order)
        covered[covering] = True
        fresh = np.flatnonzero(~covered)
        fresh_flats, fresh_keys = flats[fresh], keys[fresh]
        order = np.argsort(fresh_keys)
        later, earlier = self._merges(
            fresh_flats, fresh_keys, fresh_flats, fresh_keys[order], order, earlier_only=True
        )
        kept = np.ones(len(fresh), dtype=bool)
        by_later = np.lexsort((earlier, later))
        for j, k in zip(later[by_later].tolist(), earlier[by_later].tolist()):
            if kept[k]:
                kept[j] = False
        admitted = fresh[kept]
        self._add(flats[admitted], keys[admitted])
        return admitted

    def _add(self, flats: np.ndarray, keys: np.ndarray) -> None:
        end = self._count + len(flats)
        if end > len(self._keys):
            size = len(self._keys)
            while size < end:
                size *= 2
            grown = np.empty((size, self._buf.shape[1]), dtype=complex)
            grown[: self._count] = self._buf[: self._count]
            self._buf = grown
            grown_keys = np.empty(size, dtype=np.int64)
            grown_keys[: self._count] = self._keys[: self._count]
            self._keys = grown_keys
        self._buf[self._count : end] = flats
        self._keys[self._count : end] = keys
        self._count = end
        self._order = np.argsort(self._keys[:end])
        self._sorted = self._keys[:end][self._order]

    def _merges(self, queries, keys, store, sorted_keys, order, *, earlier_only=False):
        """Pairs (query q, stored e) with |tr(store[e]†queries[q])| >= threshold.

        ``sorted_keys``/``order`` index the stored products by grid cell. With
        ``earlier_only`` the store is the query set and only e < q is paired.

        An overlap near the threshold is recomputed the way one matrix-vector
        product of the whole net with the query computes it, so a decision at
        the threshold is the one an unindexed scan of the net makes.
        """
        found_q, found_e = [], []
        conj = queries.conj()
        # Queries are visited in cell order, so each row of needles is sorted.
        by_cell = np.argsort(keys)
        runs = self._runs[:, None] + keys[by_cell]
        lo = np.searchsorted(sorted_keys, runs)
        counts = (np.searchsorted(sorted_keys, runs + 3) - lo).T
        lo = lo.T
        totals = np.cumsum(counts.sum(axis=1))
        start = 0
        while start < len(queries):
            base = totals[start - 1] if start else 0
            stop = int(np.searchsorted(totals, base + _PAIR_BLOCK, "right"))
            stop = min(max(stop, start + 1), len(queries))
            block_counts = counts[start:stop].ravel()
            pairs = int(block_counts.sum())
            if pairs:
                slot = np.repeat(np.arange(block_counts.size), block_counts)
                skip = np.arange(pairs) - (np.cumsum(block_counts) - block_counts)[slot]
                e = order[lo[start:stop].ravel()[slot] + skip]
                q = by_cell[start + slot // len(self._runs)]
                if earlier_only:
                    q, e = q[e < q], e[e < q]
                overlaps = np.abs(np.einsum("ij,ij->i", store[e], conj[q]))
                # Two rows, because numpy hands a one-row product to a dot
                # kernel that rounds differently.
                for i in np.flatnonzero(np.abs(overlaps - self._threshold) <= _EXACT_MARGIN):
                    overlaps[i] = np.abs(store[[e[i], e[i]]] @ conj[q[i]])[0]
                hit = overlaps >= self._threshold
                found_q.append(q[hit])
                found_e.append(e[hit])
            start = stop
        if not found_q:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        return np.concatenate(found_q), np.concatenate(found_e)


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

    With ``epsilon`` set, the search stops after the first level at which the
    best distance so far reaches epsilon (finishing that level, so the result
    is the shortest such sequence).
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

    def distance_of(flat: np.ndarray) -> float:
        overlap = abs(np.vdot(flat, target_flat)) / dim
        return float(np.sqrt(max(0.0, 1.0 - overlap)))

    frontier = np.eye(dim, dtype=complex)[None]
    net = _VisitedNet(dim, radius)
    net.admit(frontier.reshape(1, -1))
    best_dist = distance_of(frontier[0].reshape(-1))
    best_at: tuple[int, int] | None = None
    expansions = 1
    # Per level: for each kept product, its parent's index in the previous
    # level's kept products and the symbol applied to that parent.
    parents: list[np.ndarray] = []
    last_symbols: list[np.ndarray] = []

    for level in range(max_len):
        if epsilon is not None and best_dist <= epsilon:
            break
        if not len(frontier):
            break
        # Product i·n + l is gate l applied after kept product i: the level
        # stays in lexicographic order of symbol sequences.
        products = np.matmul(gate_mats[None], frontier[:, None]).reshape(-1, dim, dim)
        flats = products.reshape(len(products), -1)
        expansions += len(flats)
        # Same length throughout the level, so the first best one wins it, and
        # it replaces a shorter best only by being strictly better.
        overlaps = np.abs(flats @ target_flat.conj())
        for i in np.flatnonzero(overlaps >= overlaps.max() - _EXACT_MARGIN):
            dist = distance_of(flats[i])
            if dist < best_dist:
                best_dist, best_at = dist, (level, int(i))
        kept = net.admit(flats)
        parents.append(kept // n)
        last_symbols.append(kept % n)
        frontier = products[kept]

    best_seq: list[int] = []
    if best_at is not None:
        level, i = best_at
        best_seq.append(i % n)
        i //= n
        for k in range(level - 1, -1, -1):
            best_seq.append(int(last_symbols[k][i]))
            i = parents[k][i]
    return ApproxResult(
        symbols=tuple(reversed(best_seq)),
        achieved_distance=best_dist,
        target=target,
        expansions=expansions,
    )


def approximate(
    target: Operator,
    g: GateSet,
    epsilon: float,
    max_len: int,
    *,
    net_radius: float | None = None,
) -> ApproxResult | None:
    """Shortest-first search for a product within epsilon of the target.

    Returns None when nothing in the visited net reached epsilon by max_len;
    that certifies failure only up to the net's resolution.
    """
    result = best_approximation(target, g, max_len, epsilon=epsilon, net_radius=net_radius)
    if result.achieved_distance <= epsilon:
        return result
    return None


# -- JSON wire format ---------------------------------------------------------


def gate_set_to_json(g: GateSet) -> dict:
    from .linalg import operator_to_json

    return {
        "dim": g.dim,
        "labels": list(g.labels),
        "gates": [operator_to_json(gate) for gate in g.gates],
    }


def gate_set_from_json(obj) -> GateSet:
    from .errors import InputError
    from .linalg import operator_from_json

    if not isinstance(obj, dict) or "gates" not in obj:
        raise InputError("gate set: expected a JSON object with a 'gates' key")
    gates = obj["gates"]
    if not isinstance(gates, list) or not gates:
        raise InputError("gate set: 'gates' must be a non-empty list")
    labels = obj.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise InputError("gate set: 'labels' must be a list of strings")
    try:
        result = GateSet(tuple(operator_from_json(g) for g in gates), tuple(labels))
        dim = _integer(obj.get("dim", result.dim), "dim")
    except ContractError as exc:
        raise InputError(f"gate set: {exc}") from exc
    if dim != result.dim:
        raise InputError(f"gate set: dim={dim} inconsistent with gates ({result.dim})")
    return result


def approx_result_to_json(result: ApproxResult, g: GateSet) -> dict:
    from .tape import format_tape

    return {
        "symbols": list(result.symbols),
        "labels": [g.labels[c] for c in result.symbols],
        "tape": format_tape(result.tape(g.n)) if result.symbols else None,
        "achieved_distance": result.achieved_distance,
        "length": len(result.symbols),
        "expansions": result.expansions,
    }
