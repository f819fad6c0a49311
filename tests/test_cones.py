from collections import deque

import numpy as np
import pytest

from mbqcflow import (
    GFlow,
    MeasurementPattern,
    OpenGraph,
    Plane,
    forward_cone,
    influence_region,
    influence_successors,
    max_forward_cone,
    odd_neighborhood,
    rotated_stabilizer,
    simulate_pattern,
)
from mbqcflow import cones as cones_module
from mbqcflow import simulate as simulate_module
from mbqcflow.cones import cone_masks
from mbqcflow.fixtures import (
    cluster_graph,
    cluster_row_flow,
    fig4_depth_one_gflow,
    fig4_graph,
    path_flow,
    path_graph,
)

from conftest import sample_graphs_with_gflow


class TestInfluenceSuccessors:
    def test_path_first_vertex(self):
        g, fl = path_graph(4), path_flow(4)
        # g(0) = {1}, Odd({1}) = {0, 2}.
        assert influence_successors(g, fl, 0) == {1, 2}

    def test_output_vertex_is_empty(self):
        g, fl = path_graph(4), path_flow(4)
        assert influence_successors(g, fl, 3) == frozenset()

    def test_out_of_range_rejected(self):
        g, fl = path_graph(4), path_flow(4)
        with pytest.raises(ValueError):
            influence_successors(g, fl, 9)

    def test_fig4_wide_last_input(self):
        g, gf = fig4_graph(), fig4_depth_one_gflow()
        # g(3) = {7}; Odd({7}) = {3}, so only the corrector remains.
        assert influence_successors(g, gf, 3) == {7}


class TestForwardCone:
    def test_path_cone_is_whole_chain(self):
        for n in (3, 5, 7):
            g, fl = path_graph(n), path_flow(n)
            assert forward_cone(g, fl, 0) == set(range(n))

    def test_output_cone_is_singleton(self):
        g, fl = path_graph(5), path_flow(5)
        assert forward_cone(g, fl, 4) == {4}

    def test_contains_vertex_and_closed(self, rng):
        for graph, gflow in sample_graphs_with_gflow(20, seed=21, n_max=8):
            for v in range(graph.n):
                cone = forward_cone(graph, gflow, v)
                assert v in cone
                for w in cone:
                    assert influence_successors(graph, gflow, w) <= cone

    def test_monotonicity(self, rng):
        for graph, gflow in sample_graphs_with_gflow(15, seed=22, n_max=8):
            for v in range(graph.n):
                cone = forward_cone(graph, gflow, v)
                for w in cone:
                    assert forward_cone(graph, gflow, w) <= cone

    def test_cluster_wedge(self):
        # Central input of a 4-row cluster: the cone widens one row per
        # column until it fills, the shape behind the size formula.
        g, fl = cluster_graph(4, 4), cluster_row_flow(4, 4)
        cone = forward_cone(g, fl, 1 * 4 + 0)
        by_col = {c: sorted(r for r in range(4) if r * 4 + c in cone) for c in range(4)}
        assert by_col == {0: [1], 1: [0, 1, 2], 2: [0, 1, 2, 3], 3: [0, 1, 2, 3]}


class TestMaxForwardCone:
    @pytest.mark.parametrize(
        "rows,cols",
        [(2, 4), (2, 6), (4, 4), (4, 6)],
    )
    def test_cluster_formula(self, rows, cols):
        g, fl = cluster_graph(rows, cols), cluster_row_flow(rows, cols)
        _, size = max_forward_cone(g, fl)
        assert size == rows * cols - rows * rows // 4

    def test_path(self):
        g, fl = path_graph(6), path_flow(6)
        assert max_forward_cone(g, fl) == (0, 6)

    def test_tie_breaks_to_lowest_vertex(self):
        g, fl = cluster_graph(4, 4), cluster_row_flow(4, 4)
        vertex, size = max_forward_cone(g, fl)
        # Rows 1 and 2 tie at the maximum; row 1 has the lower index.
        assert vertex == 1 * 4 + 0
        assert size == 12

    def test_no_inputs_rejected(self):
        from mbqcflow import GFlow, OpenGraph

        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(), outputs=(0, 1))
        gf = GFlow(corrections={}, layers=[{0, 1}])
        with pytest.raises(ValueError):
            max_forward_cone(g, gf)


class TestInfluenceRegion:
    def test_region_contains_cone_and_neighbors(self, rng):
        for graph, gflow in sample_graphs_with_gflow(15, seed=23, n_max=8):
            for v in graph.inputs:
                region = influence_region(graph, gflow, v)
                assert forward_cone(graph, gflow, v) <= region
                assert graph.neighbors(v) <= region


def reference_successors(graph, gflow, v):
    if v not in gflow.corrections:
        return set()
    corr = gflow.corrections[v]
    return corr | (odd_neighborhood(graph, corr) - {v})


def reference_cone(graph, gflow, seeds):
    """Breadth-first closure of the influence successors from ``seeds``."""
    cone = set(seeds)
    queue = deque(cone)
    while queue:
        for w in reference_successors(graph, gflow, queue.popleft()):
            if w not in cone:
                cone.add(w)
                queue.append(w)
    return cone


def _plane_cases():
    edge = OpenGraph(n=2, edges=[(0, 1)], inputs=(), outputs=(1,))
    triangle = OpenGraph(n=3, edges=[(0, 1), (0, 2), (1, 2)], inputs=(0,), outputs=(2,))
    path = OpenGraph(n=3, edges=[(0, 1), (1, 2)], inputs=(), outputs=(2,))
    return [
        (edge, GFlow({0: {0, 1}}, [{0}, {1}], {0: Plane.XZ})),
        (edge, GFlow({0: {0}}, [{0}, {1}], {0: Plane.YZ})),
        (triangle, GFlow({0: {1}, 1: {1, 2}}, [{0}, {1}, {2}], {1: Plane.XZ})),
        (path, GFlow({0: {0}, 1: {2}}, [{0}, {1}, {2}], {0: Plane.YZ})),
    ]


class TestConePass:
    CORPUS = sample_graphs_with_gflow(80, seed=24, n_max=10) + _plane_cases()

    def test_cones_match_breadth_first_reference(self):
        for graph, gflow in self.CORPUS:
            masks = cone_masks(graph, gflow)
            for v in range(graph.n):
                assert influence_successors(graph, gflow, v) == reference_successors(
                    graph, gflow, v
                )
                cone = reference_cone(graph, gflow, {v})
                assert forward_cone(graph, gflow, v) == cone
                assert masks[v] == sum(1 << w for w in cone)
                region = reference_cone(graph, gflow, {v} | graph.neighbors(v))
                assert influence_region(graph, gflow, v) == region

    def test_max_forward_cone_matches_reference(self):
        for graph, gflow in self.CORPUS:
            if graph.inputs:
                sizes = {v: len(reference_cone(graph, gflow, {v})) for v in graph.inputs}
                best = max(sorted(sizes), key=sizes.get)
                assert max_forward_cone(graph, gflow) == (best, sizes[best])

    def test_backward_correction_raises(self):
        # 0 corrects 1 but is measured after it; a breadth-first closure
        # would return {0, 1, 2} here.
        g = path_graph(3)
        gf = GFlow(corrections={0: {1}, 1: {2}}, layers=[{1}, {0}, {2}])
        with pytest.raises(ValueError, match="not measured later"):
            cone_masks(g, gf)

    def test_corrected_vertex_outside_the_layers_raises(self):
        # The gFlow cannot be built, so no cone pass meets such a vertex.
        with pytest.raises(ValueError, match=r"rounds differ on vertices \[0\]$"):
            GFlow(corrections={0: {1}, 1: {2}}, layers=[{1}, {2}])

    @pytest.mark.parametrize("stray", [-3, 3, 99])
    def test_out_of_range_measured_vertex_raises(self, stray):
        # No correction reaches the stray vertex, but the pass names it
        # rather than skip it; a list index would wrap -3 onto vertex 0.
        g = path_graph(3)
        gf = GFlow(corrections={0: {1}, 1: {2}, stray: {2}}, layers=[{0}, {stray}, {1}, {2}])
        for v in range(3):
            with pytest.raises(ValueError, match=f"^vertex {stray} out of range$"):
                forward_cone(g, gf, v)
        with pytest.raises(ValueError, match=f"^vertex {stray} out of range$"):
            cone_masks(g, gf)

    @pytest.mark.parametrize("vertex", [-1, 4])
    @pytest.mark.parametrize(
        "function", [influence_successors, forward_cone, influence_region]
    )
    def test_vertex_out_of_range_rejected(self, function, vertex):
        with pytest.raises(ValueError, match="out of range"):
            function(path_graph(4), path_flow(4), vertex)

    @pytest.mark.parametrize(
        "entry",
        ["neighbors", "influence_successors", "forward_cone", "influence_region", "rotated_stabilizer"],
    )
    def test_numpy_vertex_is_coerced(self, entry):
        # Vertex 70 sits past bit 63, where a numpy integer overflows a shift.
        g, fl = path_graph(100), path_flow(100)
        calls = {
            "neighbors": g.neighbors,
            "influence_successors": lambda v: influence_successors(g, fl, v),
            "forward_cone": lambda v: forward_cone(g, fl, v),
            "influence_region": lambda v: influence_region(g, fl, v),
            "rotated_stabilizer": lambda v: dict(rotated_stabilizer(g, v, 0.3).terms()),
        }
        assert calls[entry](np.int64(70)) == calls[entry](70)

    def test_one_pass_per_call(self, monkeypatch):
        calls = []

        # Every cone pass, public or the simulation's, is one _cone_pass call.
        cone_pass = cones_module._cone_pass

        def counting(graph, gflow, masks):
            calls.append(graph.n)
            return cone_pass(graph, gflow, masks)

        g, fl = cluster_graph(3, 4), cluster_row_flow(3, 4)
        monkeypatch.setattr(cones_module, "_cone_pass", counting)
        monkeypatch.setattr(simulate_module, "_cone_pass", counting)
        max_forward_cone(g, fl)
        assert calls == [12]
        calls.clear()
        pattern = MeasurementPattern({0: 0.1, 1: 0.2, 2: 0.3})
        simulate_pattern(path_graph(4), path_flow(4), pattern)
        assert calls == [4]
