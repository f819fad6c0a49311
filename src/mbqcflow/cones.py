"""Forward cones: where a vertex's measurement outcome propagates.

The measurement of a vertex i triggers X corrections on its correcting
set and Z corrections on that set's odd neighbourhood
(``flow.correction_masks``); the vertices other than i that these touch
are i's influence successors.  The forward cone of a vertex is the
closure of this relation and bounds both the correction cascade and the
term growth of the symbolic simulation.

A gFlow corrects only vertices measured later, so ``cone_masks`` gets
every cone from one pass in reverse measurement order: cone(v) is v plus
the cones of v's successors.  A successor whose cone is still unknown is
not measured later, which no valid gFlow allows, so the pass raises.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from .flow import GFlow, correction_masks
from .graph import OpenGraph, _mask_to_set


def influence_successors(graph: OpenGraph, gflow: GFlow, vertex: int) -> frozenset[int]:
    """Vertices receiving an X or Z correction from ``vertex``'s measurement.

    Equals ``g(vertex) | (Odd(g(vertex)) - {vertex})``; empty for outputs.
    """
    vertex = graph._check_vertex(vertex)
    if vertex not in gflow.corrections:
        return frozenset()
    x_mask, z_mask = correction_masks(graph, gflow, vertex)
    return _mask_to_set(x_mask | (z_mask & ~(1 << vertex)))


def cone_masks(graph: OpenGraph, gflow: GFlow) -> list[int]:
    """Forward-cone bitmask of every vertex, from one pass in reverse measurement order.

    Raises ValueError when a measured vertex is not one of the graph's,
    or a correction reaches a vertex that is not measured later.
    """
    return _cone_pass(graph, gflow, partial(correction_masks, graph, gflow))


def _cone_pass(graph: OpenGraph, gflow: GFlow, masks: Callable[[int], tuple]) -> list[int]:
    """:func:`cone_masks`, reading each measured vertex v's ``correction_masks`` as ``masks(v)``."""
    cones = [0 if v in gflow.corrections else 1 << v for v in range(graph.n)]  # 0: not yet known
    for v in reversed(gflow.measurement_order):
        if not 0 <= v < graph.n:  # compared here, in the hot loop, before the call that raises
            graph._check_vertex(v)
        x_mask, z_mask = masks(v)
        cone = 1 << v
        pending = (x_mask | z_mask) & ~cone
        while pending:
            w = (pending & -pending).bit_length() - 1
            if not cones[w]:
                raise ValueError(f"correction of {v} reaches {w}, which is not measured later")
            cone |= cones[w]
            pending &= ~cone
        cones[v] = cone
    return cones


def forward_cone(graph: OpenGraph, gflow: GFlow, vertex: int) -> frozenset[int]:
    """Transitive closure of :func:`influence_successors` from ``vertex``."""
    vertex = graph._check_vertex(vertex)
    return _mask_to_set(cone_masks(graph, gflow)[vertex])


def max_forward_cone(graph: OpenGraph, gflow: GFlow) -> tuple[int, int]:
    """Input with the largest forward cone; ties favour the lowest index.

    Returns ``(vertex, cone_size)``; the size drives the simulation cost
    bound (term counts stay within ``2**cone_size``).
    """
    if not graph.inputs:
        raise ValueError("graph has no inputs")
    cones = cone_masks(graph, gflow)
    best = max(sorted(graph.inputs), key=lambda v: cones[v].bit_count())
    return best, cones[best].bit_count()


def influence_region(graph: OpenGraph, gflow: GFlow, vertex: int) -> frozenset[int]:
    """Closure of influence successors seeded with the vertex's neighbours.

    The initial logical operators of an input carry Z factors on all of
    its graph neighbours, so the support actually touched during symbolic
    simulation can spill into regions reachable from those neighbours even
    when they lie outside the forward cone.  This closure is the provable
    envelope of that support: the union of the seeds' forward cones.
    """
    neighbors = graph.neighbors(vertex)  # ValueError for a vertex outside 0..n-1
    cones = cone_masks(graph, gflow)
    region = cones[vertex]
    for w in neighbors:
        region |= cones[w]
    return _mask_to_set(region)
