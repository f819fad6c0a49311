"""Exact entanglement measures and the flow-wire upper bound.

Structural entanglement minimizes, over qubit orderings, the worst
prefix-cut rank; entanglement width minimizes, over subcubic trees with
one leaf per qubit, the worst displayed-cut rank.  Both are computed
exactly by subset dynamic programming, which enumerates the same search
spaces as ordering/tree enumeration without the factorial blowup.  The
flow-wire bound ``1 + 2*crossings + surplus`` upper-bounds structural
entanglement for any graph with flow.

Every DP runs as numpy kernels over all 2^n vertex masks at once:

- the cut-rank table is one batched GF(2) elimination over the
  adjacency rows of every mask, a column at a time from the highest,
  each mask pivoting on its largest row: about n·2^n·n word operations,
  halved because rank(S) = rank(~S);
- the ordering DP ``best(S) = max(f(S), min_v best(S - v))`` runs one
  popcount layer at a time with one gather per layer (n·2^n reads).  It
  gives structural entanglement with f the cut rank, and the best order
  of up to ``WIRE_ORDER_EXHAUSTIVE_LIMIT`` wires with f the number of
  edges that leave a set of wires;
- the width DP builds each layer's splits (S, T) as an array, T holding
  the lowest vertex of S, and takes ``min max(cost[T], cost[S^T])``
  along it: 3^n/2 pairs in all.

Each call builds its own tables; nothing derived from a graph is kept
between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .flow import GFlow, WireReport, flow_wires
from .graph import OpenGraph

#: Default vertex limits of the two exact measures, the largest sizes
#: that stay within a 1 s target.  On a 2-CPU Xeon VM (Python 3.11, numpy
#: 2.4, median of 5 random graphs at edge density 1/2, under a 2 GiB
#: RLIMIT_AS) structural_entanglement_exact took 0.15 / 0.37 / 0.85 /
#: 1.67 s at n = 18 / 19 / 20 / 21, and entanglement_width_exact took
#: 0.12 / 0.31 / 1.19 s at n = 15 / 16 / 17.  Peak RSS at the defaults:
#: 154 MB (n = 20) and 67 MB (n = 16).
DEFAULT_ORDERING_BUDGET = 20
DEFAULT_TREE_BUDGET = 16
#: Largest wire count whose order the ordering DP optimizes; more wires
#: keep the identity order.  flow_entanglement_bound has no flag, so the
#: target is 0.1 s: the DP took 0.04 / 0.07 / 0.18 s at 16 / 17 / 18 wires
#: (same machine, median of 5 random crossing matrices).
WIRE_ORDER_EXHAUSTIVE_LIMIT = 17


def structural_entanglement_exact(
    graph: OpenGraph, max_vertices: int = DEFAULT_ORDERING_BUDGET
) -> int:
    """Min over qubit orderings of the max prefix-cut rank, computed exactly.

    An ordering is a maximal chain of subsets, so the minimum is found by
    a subset DP: best(S) = max(rank(S), min over v of best(S - v)).
    """
    if graph.n > max_vertices:
        raise BudgetExceededError(
            f"{graph.n} vertices exceed --budget-estruc {max_vertices}"
        )
    return int(_ordering_table(_cut_rank_table(graph))[-1])


def entanglement_width_exact(
    graph: OpenGraph, max_vertices: int = DEFAULT_TREE_BUDGET
) -> int:
    """Min over subcubic leaf-trees of the max displayed-cut rank.

    Rooting any subcubic tree at an edge turns it into a binary merge
    tree whose displayed cuts are the leaf sets of its subtrees, so the
    minimum is a DP over subsets: cost(S) = max(rank(S), min over splits
    of max(cost(T), cost(S-T))).  The full set has rank 0, so its cost is
    the answer.
    """
    if graph.n > max_vertices:
        raise BudgetExceededError(
            f"{graph.n} vertices exceed --budget-width {max_vertices}"
        )
    n = graph.n
    cost = _cut_rank_table(graph)  # singletons keep their rank
    masks, starts = _popcount_layers(n)
    one = masks.dtype.type(1)
    for size in range(2, n + 1):
        sets = masks[starts[size] : starts[size + 1]]
        members = np.nonzero((sets[:, None] >> np.arange(n, dtype=masks.dtype)) & one)[1]
        bits = one << members.reshape(-1, size).astype(masks.dtype)
        # Column j of halves is the lowest member plus the members that
        # the bits of j pick from the rest (a bit deposit of j); the last
        # column, S itself, is dropped.
        halves = bits[:, :1]
        for i in range(1, size):
            halves = np.concatenate((halves, halves | bits[:, i : i + 1]), axis=1)
        halves = halves[:, :-1]
        split = np.maximum(cost[halves], cost[sets[:, None] ^ halves]).min(axis=1)
        cost[sets] = np.maximum(cost[sets], split)
    return int(cost[-1])


def _popcount_layers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^n masks sorted by popcount, and the index where each popcount starts.

    Masks take the smallest unsigned dtype that holds n bits.
    """
    masks = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    counts = np.bitwise_count(masks)
    starts = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(counts, minlength=n + 1), out=starts[1:])
    return masks[np.argsort(counts, kind="stable")], starts


def _cut_rank_table(graph: OpenGraph) -> np.ndarray:
    """``mask_cut_rank(graph, S)`` for every mask S, as an int8 array.

    The masks without the top vertex are eliminated together.  Row v of
    mask S holds v's neighbours outside S if v is in S, else zero.  The
    columns are eliminated from the highest down, so when column c comes
    every row is below 2^(c+1): the largest row is a pivot if any row
    has bit c, and each row that has it is XORed with it (the pivot row
    itself becomes zero).  The other half of the table mirrors this one,
    since rank(S) = rank(~S).
    """
    n = graph.n
    if n < 2:
        return np.zeros(1 << n, dtype=np.int8)
    dtype = np.min_scalar_type((1 << n) - 1)
    sides = np.arange(1 << (n - 1), dtype=dtype)
    vertices = np.arange(n - 1, dtype=dtype)[:, None]
    adjacency = np.array(graph.adjacency_masks[: n - 1], dtype=dtype)[:, None]
    rows = np.where((sides >> vertices) & dtype.type(1), adjacency & ~sides, dtype.type(0))
    rank = np.zeros(len(sides), dtype=np.int8)
    for column in reversed(range(n)):
        top = dtype.type(1 << column)
        pivot = rows.max(axis=0)
        np.bitwise_xor(rows, pivot, out=rows, where=rows >= top)
        rank += pivot >= top
    return np.concatenate((rank, rank[::-1]))


def _ordering_table(values: np.ndarray) -> np.ndarray:
    """``best(S) = max(f(S), min over v in S of best(S - v))`` for every mask S.

    ``values`` holds f for every mask.  While a popcount layer is filled,
    the next layer still holds the dtype's maximum, so one gather of
    ``S ^ (1 << v)`` over all v, in S or not, takes the min over the
    members alone.
    """
    n = len(values).bit_length() - 1
    masks, starts = _popcount_layers(n)
    best = np.full_like(values, np.iinfo(values.dtype).max)
    best[0] = values[0]
    flips = masks.dtype.type(1) << np.arange(n, dtype=masks.dtype)
    for size in range(1, n + 1):
        sets = masks[starts[size] : starts[size + 1]]
        best[sets] = np.maximum(values[sets], best[sets[:, None] ^ flips].min(axis=1))
    return best


@dataclass(frozen=True)
class FlowEntanglementBound:
    """The ``1 + 2*crossings + surplus`` bound, its wires, cut order and uncovered vertices."""

    wires: tuple[tuple[int, ...], ...]
    wire_order: tuple[int, ...]
    uncovered: frozenset[int]
    wire_crossing_max: int
    surplus: int
    bound: int

    def to_json_dict(self) -> dict:
        return {
            "c_f": self.wire_crossing_max,
            "delta": self.surplus,
            "flow_bound": self.bound,
            "wires": [list(w) for w in self.wires],
            "wire_order": list(self.wire_order),
            "uncovered": sorted(self.uncovered),
        }


def _crossing_pairs(graph: OpenGraph, wires: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Wire indices (a, b), a < b, of every edge between two wires: shape (m, 2)."""
    wire_of = {v: idx for idx, wire in enumerate(wires) for v in wire}
    pairs = [
        sorted((wire_of[u], wire_of[v]))
        for u, v in graph.edges
        if u in wire_of and v in wire_of and wire_of[u] != wire_of[v]
    ]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _prefix_crossings(crossings: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Edges between each row's wire set and the other wires.

    ``crossings[a, b]`` counts the edges between wires a and b, and row p
    of ``inside`` is 1 on the wires of set p and 0 elsewhere.
    """
    inside = inside.astype(float)  # exact: the sums stay far below 2^53
    return ((inside @ crossings) * (1 - inside)).sum(axis=1).astype(np.int64)


def _best_wire_order(k: int, pairs: np.ndarray) -> tuple[tuple[int, ...], int]:
    """The lexicographically first order of k wires of least max prefix crossing.

    ``pairs`` lists the wires (a, b), a < b, of each crossing edge.  Up to
    ``WIRE_ORDER_EXHAUSTIVE_LIMIT`` wires the order comes from the
    ordering DP over wire sets.  A set crosses as many edges as its
    complement, so ``best[~S]`` is the least worst cut over the ways to
    place the wires outside S after S.  The order is rebuilt by taking,
    at each step, the lowest wire that keeps this at the optimum.  More
    wires keep the identity order, whose cut after p wires is crossed by
    the pairs with a < p <= b; that count needs no k x k matrix.
    """
    if k <= 1:
        return tuple(range(k)), 0
    if k > WIRE_ORDER_EXHAUSTIVE_LIMIT:
        starts = np.bincount(pairs[:, 0] + 1, minlength=k + 1)
        ends = np.bincount(pairs[:, 1] + 1, minlength=k + 1)
        return tuple(range(k)), int(np.cumsum(starts - ends)[1:k].max())
    crossings = np.zeros((k, k), dtype=np.int64)
    np.add.at(crossings, (pairs[:, 0], pairs[:, 1]), 1)
    crossings += crossings.T
    full = (1 << k) - 1
    sets = np.arange(full + 1)
    best = _ordering_table(_prefix_crossings(crossings, (sets[:, None] >> np.arange(k)) & 1))
    optimum = best[full]
    order: list[int] = []
    placed = 0
    for _ in range(k):
        wire = next(
            w
            for w in range(k)
            if not (placed >> w) & 1 and best[full ^ placed ^ (1 << w)] <= optimum
        )
        order.append(wire)
        placed |= 1 << wire
    return tuple(order), int(optimum)


def flow_entanglement_bound(
    graph: OpenGraph,
    gflow: GFlow,
    wires: WireReport | None = None,
) -> FlowEntanglementBound:
    """Upper bound on structural entanglement from the flow wires.

    Crossing edges are counted between prefix unions of wires, in the
    order of :func:`_best_wire_order`.  Surplus outputs and non-output
    vertices missed by the wires each contribute one unit.
    """
    if wires is None:
        wires = flow_wires(graph, gflow)
    best_order, best_value = _best_wire_order(
        len(wires.wires), _crossing_pairs(graph, wires.wires)
    )
    surplus = (len(graph.outputs) - len(graph.inputs)) + len(
        wires.uncovered_non_outputs
    )
    return FlowEntanglementBound(
        wires=wires.wires,
        wire_order=best_order,
        uncovered=wires.uncovered_non_outputs,
        wire_crossing_max=best_value,
        surplus=surplus,
        bound=1 + 2 * best_value + surplus,
    )
