"""Exact entanglement measures and the flow-wire upper bound.

Structural entanglement minimizes, over qubit orderings, the worst
prefix-cut rank; entanglement width minimizes, over subcubic trees with
one leaf per qubit, the worst displayed-cut rank.  Both are computed
exactly by subset dynamic programming, which enumerates the same search
spaces as ordering/tree enumeration without the factorial blowup.  The
flow-wire bound ``1 + 2*crossings + surplus`` upper-bounds structural
entanglement for any graph with flow.

Every DP runs as numpy kernels over all 2^n vertex masks:

- the cut-rank table is a batched GF(2) elimination over the adjacency
  rows of the masks, a block of ``_GATHER_BLOCK`` masks at a time and a
  column at a time from the highest, each mask pivoting on its largest
  row: about n·2^n·n word operations, halved because rank(S) = rank(~S).
  The blocks keep its temporaries small, so at n = 21 a call peaks at
  88 MB, the first call and a repeat alike;
- the ordering DP ``best(S) = max(f(S), min_v best(S - v))`` runs one
  popcount layer at a time with one gather per layer (n·2^n reads).  It
  gives structural entanglement with f the cut rank, and the best order
  of up to ``WIRE_ORDER_EXHAUSTIVE_LIMIT`` wires with f the number of
  edges that leave a set of wires;
- the width DP reads each layer's splits (S, T) from an array, T holding
  the lowest vertex of S, and takes ``min max(cost[T], cost[S^T])``
  along it: 3^n/2 pairs in all.

The popcount layers and the split arrays depend on n alone, so they are
kept between calls, as ``pauli._hash_table`` is: each is one read-only
table, for the largest n asked for so far, that a smaller n slices.
Building them took about half of a width call at n = 10.  They hold 61
KB at n = 10, and 43 MB at the width budget of 16 vertices (the layers
alone hold 4 MB at the ordering budget of 20).  Above the width budget
the splits are built per call and not kept.  The cut ranks, and
everything else derived from a graph, are computed per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DEFAULT_ORDERING_BUDGET, DEFAULT_TREE_BUDGET, _over_budget
from .flow import GFlow, WireReport, flow_wires
from .graph import OpenGraph

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
        raise _over_budget(graph.n, "vertices", "estruc", max_vertices)
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
        raise _over_budget(graph.n, "vertices", "width", max_vertices)
    cost = _cut_rank_table(graph)  # singletons keep their rank
    for sets, halves in _split_layers(graph.n):
        # take casts the compact masks to intp indices a few times faster than [] does.
        split = np.maximum(cost.take(halves), cost.take(sets[:, None] ^ halves)).min(axis=1)
        cost[sets] = np.maximum(cost[sets], split)
    return int(cost[-1])


#: The popcount layers of the masks, and the width DP's halves of each,
#: for the largest vertex count asked for so far (see _popcount_layers
#: and _split_layers).  They are arrays of masks: nothing of a graph.
_LAYERS: tuple[np.ndarray, ...] = ()
_HALVES: tuple[np.ndarray, ...] = ()

#: Entries a kernel takes at a time: the width DP's halves, the ordering
#: DP's gathered entries and the cut-rank table's masks.  The intp index
#: array that ``take`` makes of a block stays near 64 KiB.
_GATHER_BLOCK = 1 << 13


def _popcount_layers(n: int) -> list[np.ndarray]:
    """The masks below 2^n by popcount: layer s holds those of s bits, in increasing order.

    The arrays are read-only.  Only the table of the largest n asked for
    is built and kept: the masks below 2^n of popcount s are the first
    C(n, s) of its layer s, so a smaller n slices it.  The masks take the
    smallest unsigned dtype that holds the bits of that largest n.
    """
    global _LAYERS
    layers = _LAYERS
    if len(layers) <= n:
        masks = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
        counts = np.bitwise_count(masks)
        order = np.argsort(counts, kind="stable")
        layers = tuple(np.split(masks[order], np.cumsum(np.bincount(counts))[:-1]))
        for layer in layers:
            layer.flags.writeable = False
        _LAYERS = layers
    return [layer[: math.comb(n, size)] for size, layer in enumerate(layers[: n + 1])]


def _split_layers(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks ``(sets, halves)`` of each popcount layer from 2 to n, for the width DP.

    Row i of ``halves`` lists the subsets T of ``sets[i]`` that hold its
    lowest vertex, all but ``sets[i]`` itself.  A block holds about
    ``_GATHER_BLOCK`` halves, so the index arrays the gathers make stay
    small.  As with the popcount layers, the halves of the largest n asked
    for are kept, read-only, and a smaller n reads the first rows of each
    layer.  Above ``DEFAULT_TREE_BUDGET`` the halves of each block are
    built when it is reached and not kept, so the memory kept stays that
    of the default budget and no call holds more than one block's halves.
    """
    global _HALVES
    layers = _popcount_layers(n)[2:]
    kept, built = _HALVES, n > DEFAULT_TREE_BUDGET
    if not built and len(kept) < len(layers):
        kept = tuple(_halves(sets, n) for sets in layers)
        for halves in kept:
            halves.flags.writeable = False
        _HALVES = kept
    for size, sets in enumerate(layers, 2):
        step = max(1, _GATHER_BLOCK // ((1 << (size - 1)) - 1))
        for start in range(0, len(sets), step):
            block = sets[start : start + step]
            yield block, _halves(block, n) if built else kept[size - 2][start : start + len(block)]


def _halves(sets: np.ndarray, n: int) -> np.ndarray:
    """The halves of one popcount layer's sets (see :func:`_split_layers`).

    Column j is the lowest member plus the members that the bits of j
    pick from the rest (a bit deposit of j), filled by doubling; the last
    column, S itself, is dropped.  The masks take the smallest unsigned
    dtype that holds n bits.
    """
    dtype = np.min_scalar_type((1 << n) - 1)
    size = int(np.bitwise_count(sets[0]))
    members = np.nonzero((sets[:, None] >> np.arange(n, dtype=sets.dtype)) & sets.dtype.type(1))[1]
    bits = dtype.type(1) << members.reshape(-1, size).astype(dtype)
    halves = np.empty((len(sets), 1 << (size - 1)), dtype=dtype)
    halves[:, 0] = bits[:, 0]
    for i in range(1, size):
        width = 1 << (i - 1)
        np.bitwise_or(halves[:, :width], bits[:, i : i + 1], out=halves[:, width : 2 * width])
    return halves[:, :-1]


def _cut_rank_table(graph: OpenGraph) -> np.ndarray:
    """``mask_cut_rank(graph, S)`` for every mask S, as an int8 array.

    The masks without the top vertex are eliminated together, in blocks
    of ``_GATHER_BLOCK`` masks.  Row v of mask S holds v's neighbours
    outside S if v is in S, else zero.  The columns are eliminated from
    the highest down, so when column c comes every row is below 2^(c+1):
    the largest row is a pivot if any row has bit c, and each row that
    has it is XORed with it (the pivot row itself becomes zero).  The
    other half of the table mirrors this one, since rank(S) = rank(~S).
    """
    n = graph.n
    if n < 2:
        return np.zeros(1 << n, dtype=np.int8)
    dtype = np.min_scalar_type((1 << n) - 1)
    vertices = np.arange(n - 1, dtype=dtype)[:, None]
    adjacency = np.array(graph.adjacency_masks[: n - 1], dtype=dtype)[:, None]
    rank = np.zeros(1 << (n - 1), dtype=np.int8)
    for start in range(0, len(rank), _GATHER_BLOCK):
        block = rank[start : start + _GATHER_BLOCK]
        sides = np.arange(start, start + len(block), dtype=dtype)
        rows = np.where((sides >> vertices) & dtype.type(1), adjacency & ~sides, dtype.type(0))
        for column in reversed(range(n)):
            top = dtype.type(1 << column)
            pivot = rows.max(axis=0)
            np.bitwise_xor(rows, pivot, out=rows, where=rows >= top)
            block += pivot >= top
    return np.concatenate((rank, rank[::-1]))


def _ordering_table(values: np.ndarray) -> np.ndarray:
    """``best(S) = max(f(S), min over v in S of best(S - v))`` for every mask S.

    ``values`` holds f for every mask.  While a popcount layer is filled,
    the next layer still holds the dtype's maximum, so one gather of
    ``S ^ (1 << v)`` over all v, in S or not, takes the min over the
    members alone.  It is gathered in blocks of ``_GATHER_BLOCK`` entries.
    """
    layers = _popcount_layers(len(values).bit_length() - 1)
    best = np.full_like(values, np.iinfo(values.dtype).max)
    best[0] = values[0]
    flips = layers[0].dtype.type(1) << np.arange(len(layers) - 1, dtype=layers[0].dtype)
    step = _GATHER_BLOCK // len(layers)
    for layer in layers[1:]:
        for start in range(0, len(layer), step):
            sets = layer[start : start + step]
            below = best.take(flips[:, None] ^ sets).min(axis=0)
            best[sets] = np.maximum(values.take(sets), below)
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
    wire_of = [-1] * graph.n  # -1: on no wire
    for idx, wire in enumerate(wires):
        for v in wire:
            wire_of[v] = idx
    pairs = []
    for u, v in graph.edges:
        a, b = wire_of[u], wire_of[v]
        if a != b and a >= 0 and b >= 0:
            pairs.append((min(a, b), max(a, b)))
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
