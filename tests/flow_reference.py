"""The flow layer's bitmask hot paths as they were before their rewrite.

``_peel`` with ``_find`` (which builds its result through
``GFlow.__init__``), ``verify_gflow``, ``correction_dependencies`` and
``_max_flow_successors`` are kept verbatim, so the differential tests in
``tests/test_flow.py`` can require the library to give the same
violation lists, parity tuples, gFlows and successor maps.  The helpers
they call are unchanged and are imported from the library.
"""

from __future__ import annotations

import operator
from itertools import accumulate

from mbqcflow.errors import FlowConsistencyError
from mbqcflow.flow import (
    _PLANE_RULES,
    CorrectionReport,
    GFlow,
    Violation,
    check_analysis_preconditions,
    correction_masks,
)
from mbqcflow.gf2 import gf2_basis, gf2_express
from mbqcflow.graph import OpenGraph, _mask_to_set, _set_to_mask


def _peel(graph: OpenGraph, singleton: bool):
    """Backward layer peeling; returns construction passes or None.

    Each pass collects every unprocessed vertex u admitting a correcting
    set K of already-processed non-inputs with Odd(K) meeting the
    unprocessed region in exactly {u}.  Passes are built from the output
    side, so the first pass holds the vertices measured last.  A pass
    restricts each corrector's neighbourhood to the unprocessed region
    (its column) and eliminates only the nonzero columns, once.  The
    region only shrinks, so a corrector whose column is zero is dropped
    for good; a zero column adds no basis entry, so dropping it only
    relabels the columns that the masks name.  Only a pivot of the basis
    can be expressed alone, so only the pivots are asked, in ascending
    order, for their minimal correcting sets.
    """
    adjacency = graph.adjacency_masks
    region = _set_to_mask(graph.measured)
    correctors = sorted(v for v in graph.outputs if v not in graph.input_set)
    passes: list[dict[int, frozenset[int]]] = []

    while region:
        live = [(w, col) for w in correctors if (col := adjacency[w] & region)]
        correctors = [w for w, _ in live]
        found: dict[int, frozenset[int]] = {}
        if singleton:
            for w, col in live:
                u = col.bit_length() - 1
                if col == 1 << u and u not in found:
                    found[u] = frozenset((w,))
        else:
            basis = gf2_basis([col for _, col in live])
            for u in sorted(basis):
                mask = gf2_express(basis, 1 << u)
                if mask is not None:
                    found[u] = frozenset(correctors[c] for c in _mask_to_set(mask))
        if not found:
            return None
        passes.append(found)
        region &= ~_set_to_mask(found)
        correctors = sorted(correctors + [v for v in found if v not in graph.input_set])
    return passes


def _find(graph: OpenGraph, singleton: bool) -> GFlow | None:
    check_analysis_preconditions(graph)
    passes = _peel(graph, singleton)
    if passes is None:
        return None
    corrections: dict[int, frozenset[int]] = {}
    for p in passes:
        corrections.update(p)
    layers = [frozenset(p) for p in reversed(passes)]
    layers.append(graph.output_set)
    return GFlow(corrections=corrections, layers=layers)


def verify_gflow(graph: OpenGraph, gflow: GFlow) -> list[Violation]:
    """Check every gFlow condition; an empty list means the gFlow is valid.

    Structural malformations (layers that do not partition the vertex set
    or end in a layer other than the outputs, correcting sets reaching
    inputs or leaving the vertex range) raise ValueError; per-vertex rule
    violations are returned as a list.
    """
    layer_of = gflow.layer_of
    if set(layer_of) != set(range(graph.n)):
        raise ValueError("layers must partition the vertex set")
    if gflow.layers and gflow.layers[-1] != graph.output_set:
        raise ValueError("final layer must hold exactly the outputs")
    for i, corr in gflow.corrections.items():
        if corr & graph.input_set:
            raise ValueError(f"correcting set of {i} contains input vertices")

    # not_later[k]: the vertices of layers 0..k.
    not_later = list(accumulate(map(_set_to_mask, gflow.layers), operator.or_))
    violations: list[Violation] = []
    for i in sorted(gflow.corrections):
        x_mask, z_mask = correction_masks(graph, gflow, i)
        early = not_later[layer_of[i]] & ~(1 << i)
        for j in sorted(_mask_to_set(x_mask & early)):
            violations.append(Violation(i, "g1", f"corrector {j} not after {i}"))
        # Strict form: everything the correction touches must come
        # strictly later.  Merely banning strictly-earlier vertices
        # would admit same-round corrections that overwrite each
        # other and break determinism.
        for j in sorted(_mask_to_set(z_mask & early)):
            violations.append(Violation(i, "g2", f"correction touches non-later vertex {j}"))
        needs, rule, detail = _PLANE_RULES[gflow.planes[i]]
        if ((x_mask >> i) & 1, (z_mask >> i) & 1) != needs:
            violations.append(Violation(i, rule, detail))
    return violations


def correction_dependencies(graph: OpenGraph, gflow: GFlow) -> CorrectionReport:
    """Per-vertex X/Z parity sets and the total classical processing cost."""
    x_parity: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    z_parity: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    for i in sorted(gflow.corrections):
        x_mask, z_mask = correction_masks(graph, gflow, i)
        for j in _mask_to_set(x_mask):
            x_parity[j].append(i)
        for j in _mask_to_set(z_mask & ~(1 << i)):
            z_parity[j].append(i)
    total = sum(len(s) for s in x_parity.values()) + sum(
        len(s) for s in z_parity.values()
    )
    return CorrectionReport(
        x_parity={v: tuple(s) for v, s in x_parity.items()},
        z_parity={v: tuple(s) for v, s in z_parity.items()},
        total_cost=total,
        depth=gflow.depth,
    )


def _max_flow_successors(graph: OpenGraph) -> dict[int, int]:
    """Successor map of vertex-disjoint input/output paths, by BFS augmentation.

    The network splits vertex v into v_in = 2v and v_out = 2v + 1 joined
    by a unit arc, with a unit arc u_out -> v_in for each edge in each
    direction and v_out -> sink for each output.  Arc a and its residual
    reverse are the pair (a, a ^ 1).  Each input, in ``graph.inputs``
    order, starts one breadth-first search for a shortest augmenting path
    from its own v_in, which stands in for the unit source arc (Edmonds
    and Karp, JACM 19, 1972).  An input that finds no path never finds
    one later, so the number of augmented inputs is the maximum flow.
    Each saturated edge arc u_out -> v_in makes v the successor of u.
    """
    sink = 2 * graph.n
    head: list[int] = []
    residual: list[int] = []
    arcs: list[list[int]] = [[] for _ in range(sink + 1)]

    def add_arc(tail: int, to: int) -> None:
        arcs[tail].append(len(head))
        arcs[to].append(len(head) + 1)
        head.extend((to, tail))
        residual.extend((1, 0))

    for v in range(graph.n):
        add_arc(2 * v, 2 * v + 1)
    for v in graph.outputs:
        add_arc(2 * v + 1, sink)
    first_edge_arc = len(head)
    # Reversed canonical edges list every v_out's neighbours in descending order.
    for u, v in reversed(graph.edges):
        add_arc(2 * u + 1, 2 * v)
        add_arc(2 * v + 1, 2 * u)
    value = 0
    for start in graph.inputs:
        via = {2 * start: -1}
        queue = [2 * start]
        for node in queue:
            for a in arcs[node]:
                if residual[a] and head[a] not in via:
                    via[head[a]] = a
                    queue.append(head[a])
            if sink in via:
                break
        if sink not in via:
            continue
        value += 1
        node = sink
        while via[node] >= 0:
            a = via[node]
            residual[a] -= 1
            residual[a ^ 1] += 1
            node = head[a ^ 1]
    if value < len(graph.inputs):
        raise FlowConsistencyError(
            f"only {value} vertex-disjoint paths exist for {len(graph.inputs)} inputs"
        )
    return {
        head[a + 1] // 2: head[a] // 2
        for a in range(first_edge_arc, len(head), 2)
        if not residual[a]
    }
