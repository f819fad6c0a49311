import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcflow import (
    BudgetExceededError,
    GFlow,
    MeasurementPattern,
    OpenGraph,
    build_open_graph_state,
    cut_edges,
    cut_rank,
    has_entanglement_capacity,
    find_gflow,
    odd_neighborhood,
    schmidt_rank_log2,
)
from mbqcflow.fixtures import bottleneck_graph, path_graph
from mbqcflow.graph import VERTEX_CAP

from conftest import random_open_graph


def path3():
    return OpenGraph(n=3, edges=[(0, 1), (1, 2)], inputs=(0,), outputs=(2,))


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            OpenGraph(n=2, edges=[(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            OpenGraph(n=2, edges=[(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            OpenGraph(n=2, edges=[(0, 2)])
        with pytest.raises(ValueError, match="out of range"):
            OpenGraph(n=2, edges=[], inputs=(5,))

    def test_edges_canonicalized(self):
        g = OpenGraph(n=3, edges=[(2, 1), (1, 0)])
        assert g.edges == ((0, 1), (1, 2))

    def test_json_round_trip(self):
        g = path3()
        assert OpenGraph.from_json(g.to_json()) == g
        parsed = OpenGraph.from_json(
            '{"n":3,"edges":[[0,1],[1,2]],"inputs":[0],"outputs":[2]}'
        )
        assert parsed == g

    def test_from_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            OpenGraph.from_json('{"n": 3}')
        with pytest.raises(ValueError):
            OpenGraph.from_json('{"n":2,"edges":[[0,0]],"inputs":[],"outputs":[]}')

    @pytest.mark.parametrize("kind", [OpenGraph, GFlow, MeasurementPattern])
    def test_from_json_rejects_deep_nesting(self, kind):
        # json.loads raises RecursionError long before this depth.
        with pytest.raises(ValueError, match="JSON nested too deeply"):
            kind.from_json("[" * 200_000 + "]" * 200_000)

    def test_from_json_reads_only_canonical_vertex_keys(self):
        # int() reads "00" as 0, so one of the two correcting sets was dropped.
        with pytest.raises(ValueError, match="g key '00'"):
            GFlow.from_json('{"g": {"0": [1], "00": [2]}, "layers": [[0], [1, 2]]}')
        with pytest.raises(ValueError, match="angles key '1_0'"):
            MeasurementPattern.from_json('{"angles": {"1_0": 0.5, "\\u0661\\u0660": 0.25}}')
        # A canonical negative key parses; verify_gflow rejects its vertex.
        assert GFlow.from_json('{"g": {"-1": [0]}, "layers": [[-1], [0]]}').corrections == {
            -1: frozenset({0})
        }

    def test_json_vertex_cap(self):
        at_cap = OpenGraph.from_json_dict({"n": VERTEX_CAP, "edges": []})
        assert at_cap.n == VERTEX_CAP
        over = {"n": VERTEX_CAP + 1, "edges": [], "inputs": [], "outputs": []}
        tracemalloc.start()
        try:
            with pytest.raises(
                BudgetExceededError,
                match=rf"^{VERTEX_CAP + 1} vertices exceed the vertex cap of {VERTEX_CAP}$",
            ):
                OpenGraph.from_json_dict(over)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_dot_conventions(self):
        dot = path3().to_dot()
        assert dot.startswith("digraph")
        assert "0 [shape=box]" in dot
        assert "2 [style=solid]" in dot
        assert "0 -> 1 [dir=none]" in dot

    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_neighbors_rejects_out_of_range_vertex(self, vertex):
        # A plain list index would wrap -1 round to the last vertex.
        with pytest.raises(ValueError, match="out of range"):
            path3().neighbors(vertex)


class TestNumpyLabels:
    """numpy integer labels are coerced at construction, so wide masks do not wrap."""

    def test_wide_numpy_edge_keeps_its_mask(self):
        g = OpenGraph(n=70, edges=[(np.int64(0), np.int64(65))])
        assert g.adjacency_masks[0] == 1 << 65
        assert odd_neighborhood(g, [0]) == {65}
        assert cut_rank(g, [np.int64(65)]) == 1

    def test_random_wide_graphs_match_python_labels(self, rng):
        for _ in range(5):
            base = random_open_graph(rng, n_min=65, n_max=100)
            perm = rng.permutation(base.n)
            relabel = lambda vs, f: [f(perm[v]) for v in vs]
            numpy_graph = OpenGraph(
                n=np.int64(base.n),
                edges=[relabel(e, np.int64) for e in base.edges],
                inputs=relabel(base.inputs, np.int64),
                outputs=relabel(base.outputs, np.int64),
            )
            python_graph = OpenGraph(
                n=base.n,
                edges=[relabel(e, int) for e in base.edges],
                inputs=relabel(base.inputs, int),
                outputs=relabel(base.outputs, int),
            )
            labels = [numpy_graph.n, *numpy_graph.inputs, *numpy_graph.outputs]
            labels += [v for e in numpy_graph.edges for v in e]
            assert all(type(v) is int for v in labels)
            assert numpy_graph.adjacency_masks == python_graph.adjacency_masks
            for v in perm[:10]:
                assert odd_neighborhood(numpy_graph, [v]) == python_graph.neighbors(int(v))

    def test_wide_numpy_path_finds_the_same_gflow(self, rng):
        perm = rng.permutation(70)
        edges = [(perm[i], perm[i + 1]) for i in range(69)]
        numpy_graph = OpenGraph(n=70, edges=edges, inputs=[perm[0]], outputs=[perm[69]])
        python_graph = OpenGraph(
            n=70,
            edges=[(int(u), int(v)) for u, v in edges],
            inputs=[int(perm[0])],
            outputs=[int(perm[69])],
        )
        assert find_gflow(numpy_graph).to_json() == find_gflow(python_graph).to_json()

    def test_gflow_labels_are_coerced(self):
        gf = GFlow(
            {np.int64(0): [np.int64(65)]},
            [[np.int64(0)], [np.int64(65)]],
            {np.int64(0): "XZ"},
        )
        assert [type(v) for v in gf.corrections] == [int]
        assert all(type(v) is int for s in gf.corrections.values() for v in s)
        assert all(type(v) is int for layer in gf.layers for v in layer)
        assert gf.planes == {0: "XZ"}


class TestOddNeighborhood:
    def test_singleton_is_neighborhood(self):
        assert odd_neighborhood(path3(), {1}) == {0, 2}

    def test_middle_vertex_cancels(self):
        # Vertex 1 has two neighbours in {0, 2}.
        assert odd_neighborhood(path3(), {0, 2}) == set()

    def test_empty_set(self):
        assert odd_neighborhood(path3(), set()) == set()

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            odd_neighborhood(path3(), {7})

    @settings(max_examples=50)
    @given(st.data())
    def test_symmetric_difference_linearity(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = random_open_graph(rng, n_min=2, n_max=8, with_io=False)
        k1 = {v for v in range(g.n) if rng.random() < 0.5}
        k2 = {v for v in range(g.n) if rng.random() < 0.5}
        assert odd_neighborhood(g, k1 ^ k2) == odd_neighborhood(
            g, k1
        ) ^ odd_neighborhood(g, k2)


class TestCuts:
    def test_cut_edges_examples(self):
        g = path3()
        assert cut_edges(g, {0}) == 1
        assert cut_edges(g, {1}) == 2
        assert cut_edges(g, set()) == 0

    def test_cut_rank_examples(self):
        assert cut_rank(path3(), {0}) == 1
        assert cut_rank(OpenGraph(n=3, edges=[]), {1}) == 0
        triangle = OpenGraph(n=3, edges=[(0, 1), (0, 2), (1, 2)])
        assert cut_rank(triangle, {0}) == 1

    def test_cut_rank_le_cut_edges_random(self, rng):
        for _ in range(60):
            g = random_open_graph(rng, n_min=2, n_max=9, with_io=False)
            side = {v for v in range(g.n) if rng.random() < 0.5}
            r, c = cut_rank(g, side), cut_edges(g, side)
            assert r <= c
            assert r <= min(len(side), g.n - len(side))

    def test_cut_rank_matches_schmidt_rank_small(self, rng):
        # Statevector oracle cross-check at n <= 4, all cuts.
        for _ in range(12):
            g = random_open_graph(rng, n_min=2, n_max=4, with_io=False)
            state = build_open_graph_state(g)
            for mask in range(1 << g.n):
                side = {v for v in range(g.n) if (mask >> v) & 1}
                assert cut_rank(g, side) == schmidt_rank_log2(state, g.n, side)


class TestEntanglementCapacity:
    def test_bottleneck_fails_with_witness(self):
        ok, witness = has_entanglement_capacity(bottleneck_graph())
        assert not ok
        assert witness == {0, 1, 2}

    def test_path_passes(self):
        ok, witness = has_entanglement_capacity(path_graph(3))
        assert ok and witness is None

    def test_no_io_trivially_passes(self):
        g = OpenGraph(n=3, edges=[(0, 1)], inputs=(), outputs=())
        assert has_entanglement_capacity(g) == (True, None)

    def test_overlapping_io_is_vacuous(self):
        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(0,), outputs=(0, 1))
        assert has_entanglement_capacity(g) == (True, None)

    def test_budget(self):
        g = OpenGraph(n=8, edges=[(0, 1)], inputs=(0,), outputs=(1,))
        with pytest.raises(BudgetExceededError):
            has_entanglement_capacity(g, cut_budget=4)
