"""Exact entanglement measures at small size and the flow-wire upper bound.

Structural entanglement minimizes, over qubit orderings, the worst
prefix-cut rank; entanglement width minimizes, over subcubic trees with
one leaf per qubit, the worst displayed-cut rank.  Both are computed
exactly by subset dynamic programming, which enumerates the same search
spaces as ordering/tree enumeration without the factorial blowup.  The
flow-wire bound ``1 + 2*crossings + surplus`` upper-bounds structural
entanglement for any graph with flow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceededError
from .flow import GFlow, WireReport, flow_wires
from .graph import OpenGraph, mask_cut_rank

DEFAULT_ORDERING_BUDGET = 8
DEFAULT_TREE_BUDGET = 6
WIRE_ORDER_EXHAUSTIVE_LIMIT = 8


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
    if graph.n == 0:
        return 0
    full = (1 << graph.n) - 1
    best = [0] * (full + 1)
    for mask in range(1, full + 1):
        rank = mask_cut_rank(graph, mask)
        prev = min(
            best[mask & ~(1 << v)] for v in range(graph.n) if (mask >> v) & 1
        )
        best[mask] = max(rank, prev)
    return best[full]


def entanglement_width_exact(
    graph: OpenGraph, max_vertices: int = DEFAULT_TREE_BUDGET
) -> int:
    """Min over subcubic leaf-trees of the max displayed-cut rank.

    Rooting any subcubic tree at an edge turns it into a binary merge
    tree whose displayed cuts are the leaf sets of its subtrees, so the
    minimum is a DP over subsets: cost(S) = max(rank(S), min over splits
    of max(cost(T), cost(S-T))).
    """
    if graph.n > max_vertices:
        raise BudgetExceededError(
            f"{graph.n} vertices exceed --budget-width {max_vertices}"
        )
    if graph.n <= 1:
        return 0
    full = (1 << graph.n) - 1
    cost = [0] * (full + 1)
    ranks = [0] * (full + 1)
    for mask in range(1, full + 1):
        ranks[mask] = mask_cut_rank(graph, mask)
        if mask & (mask - 1) == 0:
            cost[mask] = ranks[mask]
            continue
        low = mask & -mask
        best_split = None
        sub = (mask - 1) & mask
        while sub:
            if sub & low:  # fix the lowest vertex to one side (split symmetry)
                value = max(cost[sub], cost[mask & ~sub])
                if best_split is None or value < best_split:
                    best_split = value
            sub = (sub - 1) & mask
        cost[mask] = max(ranks[mask], best_split)
    best = None
    sub = (full - 1) & full
    while sub:
        if sub & 1:  # vertex 0 on one fixed side of the root edge
            value = max(cost[sub], cost[full & ~sub])
            if best is None or value < best:
                best = value
        sub = (sub - 1) & full
    return best


@dataclass(frozen=True)
class WireDecomposition:
    """Flow wires in the cut order chosen for the entanglement bound."""

    wires: tuple[tuple[int, ...], ...]
    wire_order: tuple[int, ...]
    uncovered: frozenset[int]


@dataclass(frozen=True)
class FlowEntanglementBound:
    """The ``1 + 2*crossings + surplus`` bound and its ingredients."""

    decomposition: WireDecomposition
    wire_crossing_max: int
    surplus: int
    bound: int

    def to_json_dict(self) -> dict:
        return {
            "c_f": self.wire_crossing_max,
            "delta": self.surplus,
            "flow_bound": self.bound,
            "wires": [list(w) for w in self.decomposition.wires],
            "wire_order": list(self.decomposition.wire_order),
            "uncovered": sorted(self.decomposition.uncovered),
        }


def _pairwise_crossings(graph: OpenGraph, wires: tuple[tuple[int, ...], ...]):
    wire_of = {}
    for idx, wire in enumerate(wires):
        for v in wire:
            wire_of[v] = idx
    k = len(wires)
    crossings = [[0] * k for _ in range(k)]
    for u, v in graph.edges:
        if u in wire_of and v in wire_of and wire_of[u] != wire_of[v]:
            a, b = wire_of[u], wire_of[v]
            crossings[a][b] += 1
            crossings[b][a] += 1
    return crossings


def _max_prefix_crossing(crossings, order) -> int:
    worst = 0
    for cut in range(1, len(order)):
        ahead = order[:cut]
        behind = order[cut:]
        worst = max(
            worst, sum(crossings[a][b] for a in ahead for b in behind)
        )
    return worst


def flow_entanglement_bound(
    graph: OpenGraph,
    gflow: GFlow,
    wires: WireReport | None = None,
) -> FlowEntanglementBound:
    """Upper bound on structural entanglement from the flow wires.

    Crossing edges are counted between prefix unions of wires; the wire
    order is chosen exhaustively (up to ``WIRE_ORDER_EXHAUSTIVE_LIMIT``
    wires) to minimize the worst cut.  Surplus outputs and non-output
    vertices missed by the wires each contribute one unit.
    """
    if wires is None:
        wires = flow_wires(graph, gflow)
    k = len(wires.wires)
    crossings = _pairwise_crossings(graph, wires.wires)
    identity = tuple(range(k))
    if k <= 1:
        best_order, best_value = identity, 0
    elif k <= WIRE_ORDER_EXHAUSTIVE_LIMIT:
        best_order, best_value = None, None
        for order in itertools.permutations(range(k)):
            value = _max_prefix_crossing(crossings, order)
            if best_value is None or value < best_value:
                best_order, best_value = tuple(order), value
    else:
        best_order, best_value = identity, _max_prefix_crossing(crossings, identity)
    surplus = (len(graph.outputs) - len(graph.inputs)) + len(
        wires.uncovered_non_outputs
    )
    return FlowEntanglementBound(
        decomposition=WireDecomposition(
            wires=wires.wires,
            wire_order=best_order,
            uncovered=wires.uncovered_non_outputs,
        ),
        wire_crossing_max=best_value,
        surplus=surplus,
        bound=1 + 2 * best_value + surplus,
    )
