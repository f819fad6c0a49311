import pytest

from mbqcflow import (
    GFlow,
    OpenGraph,
    find_causal_flow,
    find_gflow,
    verify_gflow,
)
from mbqcflow.fixtures import (
    CATALOG,
    bottleneck_graph,
    cluster_graph,
    cluster_row_flow,
    fig3b_gflow,
    fig3b_graph,
    fig4_depth_one_gflow,
    fig4_flow,
    fig4_graph,
    path_flow,
    path_graph,
)


def catalog_instances():
    for spec in CATALOG.values():
        yield spec.name, spec.build()


class TestCatalog:
    def test_names(self):
        assert set(CATALOG) == {"path", "cluster", "bottleneck", "fig3b", "fig4"}

    def test_parameters_are_the_builder_signature(self):
        assert {name: spec.parameters for name, spec in CATALOG.items()} == {
            "path": ("n",),
            "cluster": ("rows", "cols"),
            "bottleneck": (),
            "fig3b": (),
            "fig4": (),
        }
        assert CATALOG["path"].build() == path_graph(5)
        assert CATALOG["cluster"].build() == cluster_graph(2, 3)

    @pytest.mark.parametrize("name,graph", list(catalog_instances()))
    def test_graph_json_round_trip_is_identical(self, name, graph):
        text = graph.to_json()
        again = OpenGraph.from_json(text)
        assert again == graph
        assert again.to_json() == text

    def test_declared_gflows_verify(self):
        cases = [
            (path_graph(5), path_flow(5)),
            (cluster_graph(2, 3), cluster_row_flow(2, 3)),
            (cluster_graph(3, 4), cluster_row_flow(3, 4)),
            (fig3b_graph(), fig3b_gflow()),
            (fig4_graph(), fig4_flow()),
            (fig4_graph(), fig4_depth_one_gflow()),
        ]
        for graph, gflow in cases:
            assert verify_gflow(graph, gflow) == []

    def test_gflow_json_round_trip_is_identical(self):
        for gflow in (fig3b_gflow(), fig4_depth_one_gflow(), fig4_flow()):
            text = gflow.to_json()
            again = GFlow.from_json(text)
            assert again == gflow
            assert again.to_json() == text

    def test_fixture_gflow_variants(self):
        # fig4 ships no gFlow: the causal flow graph gen falls back to is fig4_flow.
        assert find_causal_flow(fig4_graph()) == fig4_flow()
        assert find_gflow(fig4_graph()) == fig4_depth_one_gflow()
        assert [name for name, spec in CATALOG.items() if spec.gflow] == ["fig3b"]
        assert CATALOG["fig3b"].gflow() == fig3b_gflow()
        assert CATALOG["fig3b"].gflow().depth == 3


class TestReconstructions:
    def test_fig3b_defining_properties(self):
        g = fig3b_graph()
        assert find_causal_flow(g) is None
        assert find_gflow(g) is not None
        assert verify_gflow(g, fig3b_gflow()) == []
        # The announced correction sets, in our canonical labels.
        assert fig3b_gflow().corrections == {
            0: frozenset({3}),
            1: frozenset({4}),
            2: frozenset({3, 4, 5}),
        }

    def test_fig4_is_a_zigzag_path(self):
        g = fig4_graph()
        degrees = [len(g.neighbors(v)) for v in range(g.n)]
        assert sorted(degrees) == [1, 1, 2, 2, 2, 2, 2, 2]

    def test_fig4_depth_tradeoff(self):
        assert fig4_flow().depth == 4
        assert fig4_depth_one_gflow().depth == 1

    def test_bottleneck_counterexample(self):
        g = bottleneck_graph()
        assert find_gflow(g) is None
        assert len(g.inputs) == 2 and len(g.outputs) == 2
