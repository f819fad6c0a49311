import itertools

import pytest

from mbqcflow import (
    BudgetExceededError,
    OpenGraph,
    cut_rank,
    entanglement_width_exact,
    find_causal_flow,
    flow_entanglement_bound,
    structural_entanglement_exact,
)
from mbqcflow.fixtures import (
    cluster_graph,
    cluster_row_flow,
    path_flow,
    path_graph,
)

from conftest import random_open_graph, sample_graphs_with_flow, sample_graphs_with_gflow


def structural_entanglement_by_permutations(graph: OpenGraph) -> int:
    """Reference implementation straight from the definition."""
    best = None
    for order in itertools.permutations(range(graph.n)):
        worst = 0
        for k in range(1, graph.n):
            worst = max(worst, cut_rank(graph, order[:k]))
        if best is None or worst < best:
            best = worst
    return best or 0


class TestStructuralEntanglement:
    def test_path_is_one(self):
        for n in (2, 4, 6, 8):
            assert structural_entanglement_exact(path_graph(n)) == 1

    def test_edgeless_is_zero(self):
        assert structural_entanglement_exact(OpenGraph(n=5, edges=[])) == 0

    def test_complete_graph_is_one(self):
        k4 = OpenGraph(n=4, edges=list(itertools.combinations(range(4), 2)))
        assert structural_entanglement_exact(k4) == 1

    def test_matches_permutation_reference(self, rng):
        for _ in range(25):
            g = random_open_graph(rng, n_min=2, n_max=6, with_io=False)
            assert structural_entanglement_exact(
                g
            ) == structural_entanglement_by_permutations(g)

    def test_isomorphism_invariance(self, rng):
        for _ in range(10):
            g = random_open_graph(rng, n_min=3, n_max=7, with_io=False)
            perm = list(rng.permutation(g.n))
            relabeled = OpenGraph(
                n=g.n, edges=[(perm[u], perm[v]) for u, v in g.edges]
            )
            assert structural_entanglement_exact(
                g
            ) == structural_entanglement_exact(relabeled)

    def test_budget(self):
        with pytest.raises(BudgetExceededError, match=r"^9 vertices exceed --budget-estruc 8$"):
            structural_entanglement_exact(OpenGraph(n=9, edges=[]), max_vertices=8)

    def test_cluster_2xm(self):
        for cols in (3, 4):
            assert structural_entanglement_exact(cluster_graph(2, cols)) == 2


class TestEntanglementWidth:
    def test_path_is_one(self):
        for n in (2, 4, 6):
            assert entanglement_width_exact(path_graph(n)) == 1

    def test_edgeless_is_zero(self):
        assert entanglement_width_exact(OpenGraph(n=4, edges=[])) == 0

    def test_single_vertex_is_zero(self):
        assert entanglement_width_exact(OpenGraph(n=1, edges=[])) == 0

    def test_never_exceeds_structural(self, rng):
        for _ in range(40):
            g = random_open_graph(rng, n_min=2, n_max=6, with_io=False)
            assert entanglement_width_exact(g) <= structural_entanglement_exact(g)

    def test_budget(self):
        with pytest.raises(BudgetExceededError, match=r"^7 vertices exceed --budget-width 6$"):
            entanglement_width_exact(OpenGraph(n=7, edges=[]), max_vertices=6)


class TestFlowBound:
    def test_path_bound_is_tight(self):
        for n in (2, 4, 6):
            g, fl = path_graph(n), path_flow(n)
            report = flow_entanglement_bound(g, fl)
            assert report.wire_crossing_max == 0
            assert report.surplus == 0
            assert report.bound == 1
            assert structural_entanglement_exact(g) == 1

    @pytest.mark.parametrize("cols", [2, 3, 4])
    def test_two_row_cluster(self, cols):
        g, fl = cluster_graph(2, cols), cluster_row_flow(2, cols)
        report = flow_entanglement_bound(g, fl)
        assert report.wire_crossing_max == cols
        assert report.surplus == 0
        assert report.bound == 1 + 2 * cols
        assert structural_entanglement_exact(g) <= report.bound

    def test_edgeless_identity_wires(self):
        g = OpenGraph(n=3, edges=[], inputs=(0, 1, 2), outputs=(0, 1, 2))
        flow = find_causal_flow(g)
        report = flow_entanglement_bound(g, flow)
        assert report.bound == 1
        assert report.wire_crossing_max == 0

    def test_uncovered_vertices_feed_surplus(self):
        g = OpenGraph(n=4, edges=[(0, 2), (1, 3)], inputs=(0,), outputs=(2, 3))
        flow = find_causal_flow(g)
        report = flow_entanglement_bound(g, flow)
        # One surplus output plus one uncovered non-output.
        assert report.surplus == 2
        assert structural_entanglement_exact(g) <= report.bound

    def test_wire_order_minimized(self):
        # Three parallel wires where the middle one crosses both others:
        # orders placing it in the middle see both crossing sets at once.
        g = OpenGraph(
            n=6,
            edges=[(0, 3), (1, 4), (2, 5), (0, 1), (1, 2)],
            inputs=(0, 1, 2),
            outputs=(3, 4, 5),
        )
        flow = find_causal_flow(g)
        assert flow is not None
        report = flow_entanglement_bound(g, flow)
        # Best orders keep wire 1 at an end; each prefix cut then crosses
        # at most its two incident edges once.
        assert report.wire_crossing_max == 1

    def test_bound_holds_on_random_flow_graphs(self):
        for graph, flow in sample_graphs_with_flow(40, seed=41, n_max=8):
            report = flow_entanglement_bound(graph, flow)
            assert structural_entanglement_exact(graph) <= report.bound

    def test_bound_holds_on_random_gflow_graphs(self):
        # Non-causal gFlows take their wires from max-flow augmentation.
        checked = 0
        for graph, gflow in sample_graphs_with_gflow(600, seed=11, n_max=10):
            if gflow.is_flow or graph.n > 8:
                continue
            checked += 1
            report = flow_entanglement_bound(graph, gflow)
            assert structural_entanglement_exact(graph) <= report.bound
        assert checked == 198
