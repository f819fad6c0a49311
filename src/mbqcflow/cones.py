"""Forward cones: where a vertex's measurement outcome propagates.

The measurement of a vertex i triggers corrections on its correcting set
and Z corrections on that set's odd neighbourhood; those vertices are i's
influence successors.  The forward cone of a vertex is the closure of
this relation and bounds both the correction cascade and the term growth
of the symbolic simulation.
"""

from __future__ import annotations

from collections import deque

from .flow import GFlow
from .graph import OpenGraph, odd_neighborhood


def influence_successors(graph: OpenGraph, gflow: GFlow, vertex: int) -> frozenset[int]:
    """Vertices receiving an X or Z correction from ``vertex``'s measurement.

    Equals ``g(vertex) | (Odd(g(vertex)) - {vertex})``; empty for outputs.
    """
    if vertex not in gflow.corrections:
        if not 0 <= vertex < graph.n:
            raise ValueError(f"vertex {vertex} out of range")
        return frozenset()
    corr = gflow.corrections[vertex]
    return frozenset(corr | (odd_neighborhood(graph, corr) - {vertex}))


def forward_cone(graph: OpenGraph, gflow: GFlow, vertex: int) -> frozenset[int]:
    """Transitive closure of :func:`influence_successors` from ``vertex``."""
    cone = {vertex}
    queue = deque([vertex])
    while queue:
        v = queue.popleft()
        for w in influence_successors(graph, gflow, v):
            if w not in cone:
                cone.add(w)
                queue.append(w)
    return frozenset(cone)


def max_forward_cone(graph: OpenGraph, gflow: GFlow) -> tuple[int, int]:
    """Input with the largest forward cone; ties favour the lowest index.

    Returns ``(vertex, cone_size)``; the size drives the simulation cost
    bound (term counts stay within ``2**cone_size``).
    """
    if not graph.inputs:
        raise ValueError("graph has no inputs")
    best_vertex, best_size = -1, -1
    for v in sorted(graph.inputs):
        size = len(forward_cone(graph, gflow, v))
        if size > best_size:
            best_vertex, best_size = v, size
    return best_vertex, best_size


def influence_region(graph: OpenGraph, gflow: GFlow, vertex: int) -> frozenset[int]:
    """Closure of influence successors seeded with the vertex's neighbours.

    The initial logical operators of an input carry Z factors on all of
    its graph neighbours, so the support actually touched during symbolic
    simulation can spill into regions reachable from those neighbours even
    when they lie outside the forward cone.  This closure is the provable
    envelope of that support.
    """
    region = {vertex} | set(graph.neighbors(vertex))
    queue = deque(region)
    while queue:
        v = queue.popleft()
        for w in influence_successors(graph, gflow, v):
            if w not in region:
                region.add(w)
                queue.append(w)
    return frozenset(region)
