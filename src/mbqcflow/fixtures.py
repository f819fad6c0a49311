"""Named example graphs with their flows.

Two catalog entries are pinned by search rather than by hand.  ``fig4``
(an eight-vertex zigzag with four inputs) is determined uniquely by
requiring that both its singleton flow ``i -> i+4`` and the wide
depth-one gFlow be valid.  ``fig3b`` (six vertices, gFlow but no causal
flow) is the lexicographically smallest graph on which the three-round
gFlow with correcting sets {3}, {4}, {3,4,5} is valid while no causal
flow exists.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from .flow import GFlow, find_causal_flow
from .graph import OpenGraph, check_vertex_count


def path_graph(n: int = 5) -> OpenGraph:
    """Chain 0-1-...-(n-1) with the first vertex as input, last as output."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    check_vertex_count(n)
    return OpenGraph(
        n=n,
        edges=[(i, i + 1) for i in range(n - 1)],
        inputs=(0,),
        outputs=(n - 1,),
    )


def path_flow(n: int) -> GFlow:
    """The forced chain flow i -> i+1 with one vertex per round."""
    flow = find_causal_flow(path_graph(n))
    assert flow is not None
    return flow


def cluster_graph(rows: int = 2, cols: int = 3) -> OpenGraph:
    """rows x cols grid; first column inputs, last column outputs."""
    if rows < 1 or cols < 1:
        raise ValueError("cluster needs positive dimensions")
    check_vertex_count(rows * cols)

    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return OpenGraph(
        n=rows * cols,
        edges=edges,
        inputs=tuple(vid(r, 0) for r in range(rows)),
        outputs=tuple(vid(r, cols - 1) for r in range(rows)),
    )


def cluster_row_flow(rows: int, cols: int) -> GFlow:
    """Rightward flow along each row, one column per round."""
    corrections = {}
    layers = []
    for c in range(cols - 1):
        layers.append({r * cols + c for r in range(rows)})
        for r in range(rows):
            corrections[r * cols + c] = {r * cols + c + 1}
    layers.append({r * cols + (cols - 1) for r in range(rows)})
    return GFlow(corrections=corrections, layers=layers)


def bottleneck_graph() -> OpenGraph:
    """Two inputs squeezed through one middle vertex onto two outputs.

    The single separating vertex caps every input/output cut at rank one,
    so no gFlow exists and the entanglement capacity check fails.
    """
    return OpenGraph(
        n=5,
        edges=[(0, 2), (1, 2), (2, 3), (2, 4)],
        inputs=(0, 1),
        outputs=(3, 4),
    )


def fig3b_graph() -> OpenGraph:
    """Six vertices admitting a gFlow but no causal flow."""
    return OpenGraph(
        n=6,
        edges=[(0, 3), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5)],
        inputs=(0, 1, 2),
        outputs=(3, 4, 5),
    )


def fig3b_gflow() -> GFlow:
    """Three sequential rounds with correcting sets {3}, {4}, {3,4,5}."""
    return GFlow(
        corrections={0: {3}, 1: {4}, 2: {3, 4, 5}},
        layers=[{0}, {1}, {2}, {3, 4, 5}],
    )


def fig4_graph() -> OpenGraph:
    """Eight-vertex zigzag whose depth can be traded against corrections."""
    return OpenGraph(
        n=8,
        edges=[(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7)],
        inputs=(0, 1, 2, 3),
        outputs=(4, 5, 6, 7),
    )


def fig4_flow() -> GFlow:
    """Singleton corrections i -> i+4; forces one round per input."""
    return GFlow(
        corrections={0: {4}, 1: {5}, 2: {6}, 3: {7}},
        layers=[{0}, {1}, {2}, {3}, {4, 5, 6, 7}],
    )


def fig4_depth_one_gflow() -> GFlow:
    """Nested correcting sets measuring all four inputs in a single round."""
    return GFlow(
        corrections={0: {4, 5, 6, 7}, 1: {5, 6, 7}, 2: {6, 7}, 3: {7}},
        layers=[{0, 1, 2, 3}, {4, 5, 6, 7}],
    )


@dataclass(frozen=True)
class FixtureSpec:
    """Catalog entry: a named example graph's builder, and its hand-made gFlow if any.

    The builder's signature is the entry's interface: its parameter names
    are the ``graph gen`` options the fixture takes, and its defaults are
    what ``graph gen`` builds without them.
    """

    name: str
    description: str
    build: Callable[..., OpenGraph]
    gflow: Callable[[], GFlow] | None = None

    @property
    def parameters(self) -> tuple[str, ...]:
        return tuple(inspect.signature(self.build).parameters)


CATALOG: dict[str, FixtureSpec] = {
    spec.name: spec
    for spec in (
        FixtureSpec("path", "chain with input at one end, output at the other", path_graph),
        FixtureSpec("cluster", "2D grid, first column inputs, last column outputs", cluster_graph),
        FixtureSpec("bottleneck", "two inputs through one cut vertex; no gFlow", bottleneck_graph),
        FixtureSpec(
            "fig3b", "six vertices with gFlow but no causal flow", fig3b_graph, fig3b_gflow
        ),
        FixtureSpec("fig4", "eight-vertex zigzag with a depth/corrections tradeoff", fig4_graph),
    )
}
