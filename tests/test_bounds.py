import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from mbqcflow import (
    BudgetExceededError,
    OpenGraph,
    cut_rank,
    entanglement_width_exact,
    find_causal_flow,
    find_gflow,
    flow_entanglement_bound,
    flow_wires,
    structural_entanglement_exact,
)
from mbqcflow import bounds
from mbqcflow.graph import mask_cut_rank
from mbqcflow.fixtures import (
    cluster_graph,
    cluster_row_flow,
    path_flow,
    path_graph,
)

from conftest import (
    flow_scan_graphs,
    local_complement,
    random_open_graph,
    sample_graphs_with_flow,
    sample_graphs_with_gflow,
)


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


def reference_ordering_table(values) -> list[int]:
    """best(S) = max(f(S), min over v in S of best(S - v)), one mask at a time."""
    n = len(values).bit_length() - 1
    best = [int(values[0])]
    for mask in range(1, len(values)):
        below = min(best[mask & ~(1 << v)] for v in range(n) if (mask >> v) & 1)
        best.append(max(int(values[mask]), below))
    return best


def reference_structural(graph: OpenGraph) -> int:
    """Subset DP over the masks one at a time, each cut rank from scratch."""
    ranks = [mask_cut_rank(graph, mask) for mask in range(1 << graph.n)]
    return reference_ordering_table(ranks)[-1]


def reference_width(graph: OpenGraph) -> int:
    """Split DP over the masks one at a time, walking every submask."""
    if graph.n <= 1:
        return 0
    full = (1 << graph.n) - 1
    cost = [0] * (full + 1)
    for mask in range(1, full + 1):
        rank = mask_cut_rank(graph, mask)
        if mask & (mask - 1) == 0:
            cost[mask] = rank
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
        cost[mask] = max(rank, best_split)
    best = None
    sub = (full - 1) & full
    while sub:
        if sub & 1:  # vertex 0 on one fixed side of the root edge
            value = max(cost[sub], cost[full & ~sub])
            if best is None or value < best:
                best = value
        sub = (sub - 1) & full
    return best


def prefix_crossing(crossings, order) -> int:
    """Worst count of crossing edges over the cuts of ``order``."""
    worst = 0
    for cut in range(1, len(order)):
        ahead, behind = order[:cut], order[cut:]
        worst = max(worst, sum(crossings[a][b] for a in ahead for b in behind))
    return worst


def reference_wire_order(crossings) -> tuple[tuple[int, ...], int]:
    """The first order of least worst cut, in itertools.permutations order."""
    k = len(crossings)
    if k <= 1:
        return tuple(range(k)), 0
    best_order, best_value = None, None
    for order in itertools.permutations(range(k)):
        value = prefix_crossing(crossings, order)
        if best_value is None or value < best_value:
            best_order, best_value = order, value
    return best_order, best_value


def crossing_matrix(k: int, pairs: np.ndarray) -> list[list[int]]:
    crossings = [[0] * k for _ in range(k)]
    for a, b in pairs:
        crossings[a][b] += 1
        crossings[b][a] += 1
    return crossings


def random_pairs(rng, k: int) -> np.ndarray:
    """Crossing edges between random wire pairs, some pairs repeated."""
    count = int(rng.integers(0, 2 * k + 1))
    pairs = [sorted(rng.choice(k, size=2, replace=False)) for _ in range(count)] if k >= 2 else []
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def flow_scan_gflows(seed: int):
    """The gFlows of the benchmark's flow-scan pool for ``seed``."""
    for graph in flow_scan_graphs(seed):
        gflow = find_gflow(graph)
        if gflow is not None:
            yield graph, gflow


def seeded_graphs(count: int, seed: int, n_max: int):
    """``count`` random graphs with n = 0 .. n_max in turn."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = i % (n_max + 1)
        p = float(rng.uniform(0.2, 0.8))
        yield OpenGraph(
            n=n, edges=[(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )


class TestKernelsAgainstReferences:
    def test_cut_rank_table_is_mask_cut_rank(self):
        for graph in seeded_graphs(60, seed=3, n_max=10):
            table = bounds._cut_rank_table(graph)
            assert table.tolist() == [
                mask_cut_rank(graph, mask) for mask in range(1 << graph.n)
            ]

    def test_cut_rank_table_across_blocks(self):
        # At n = 15 the 2^14 masks without the top vertex are eliminated
        # in two blocks of bounds._GATHER_BLOCK.
        (graph,) = (g for g in seeded_graphs(16, seed=15, n_max=15) if g.n == 15)
        assert (1 << (graph.n - 1)) // bounds._GATHER_BLOCK == 2
        table = bounds._cut_rank_table(graph)
        assert table.dtype == np.int8
        assert table.tolist() == [mask_cut_rank(graph, mask) for mask in range(1 << graph.n)]

    def test_ordering_table_matches_the_mask_dp(self):
        # At n = 14 a popcount layer is gathered in several blocks.
        for graph in seeded_graphs(15, seed=14, n_max=14):
            table = bounds._cut_rank_table(graph)
            assert bounds._ordering_table(table).tolist() == reference_ordering_table(table)
        values = np.random.default_rng(14).integers(0, 40, size=1 << 14)
        assert bounds._ordering_table(values).tolist() == reference_ordering_table(values)

    def test_exact_measures_match_references(self):
        for graph in seeded_graphs(320, seed=5, n_max=9):
            assert structural_entanglement_exact(graph) == reference_structural(graph)
            assert entanglement_width_exact(graph) == reference_width(graph)

    def test_measures_are_python_ints(self):
        graph = path_graph(5)
        assert type(structural_entanglement_exact(graph)) is int
        assert type(entanglement_width_exact(graph)) is int

    def test_wire_order_matches_permutations(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            k = trial % 7 if trial < 290 else 7
            pairs = random_pairs(rng, k)
            got = bounds._best_wire_order(k, pairs)
            assert got == reference_wire_order(crossing_matrix(k, pairs))
            assert isinstance(got[1], int)

    def test_wire_order_on_flow_scan_pools(self):
        checked = 0
        for seed in (1, 2, 3):
            for graph, gflow in flow_scan_gflows(seed):
                wires = flow_wires(graph, gflow).wires
                pairs = bounds._crossing_pairs(graph, wires)
                expected = reference_wire_order(crossing_matrix(len(wires), pairs))
                assert bounds._best_wire_order(len(wires), pairs) == expected
                checked += 1
        assert checked == 47

    def test_identity_order_above_the_limit(self):
        rng = np.random.default_rng(9)
        k = bounds.WIRE_ORDER_EXHAUSTIVE_LIMIT + 1
        worst_last = np.array([(a, k - 1) for a in range(k - 1)])
        worst_first = np.array([(0, b) for b in range(1, k)])
        for pairs in [worst_last, worst_first] + [random_pairs(rng, k) for _ in range(5)]:
            identity = tuple(range(k))
            assert bounds._best_wire_order(k, pairs) == (
                identity,
                prefix_crossing(crossing_matrix(k, pairs), identity),
            )


class TestLocalComplementation:
    """Local complementation keeps every cut rank, so both exact measures too.

    No oracle is needed, so the check reaches n = 16, past the cut-rank
    table's first block boundary (n = 15).  The table is compared after
    complementing at every vertex.  The measures read nothing of a graph
    but its table, so they are compared at one seeded vertex per graph:
    at every vertex the width alone would add about 5 s.
    """

    def test_tables_and_measures_are_kept(self):
        rng = np.random.default_rng(23)
        for n in [8 + i % 7 for i in range(40)] + [15, 16]:
            graph = random_open_graph(rng, n_min=n, n_max=n, with_io=False)
            table = bounds._cut_rank_table(graph).tolist()
            for v in range(graph.n):
                complemented = local_complement(graph, v)
                assert bounds._cut_rank_table(complemented).tolist() == table, (graph.n, v)
            complemented = local_complement(graph, int(rng.integers(graph.n)))
            for measure in (structural_entanglement_exact, entanglement_width_exact):
                assert measure(complemented) == measure(graph), (graph.n, measure.__name__)


def drop_held_tables(monkeypatch):
    """Start from empty n-only tables; the held ones come back after the test."""
    monkeypatch.setattr(bounds, "_LAYERS", ())
    monkeypatch.setattr(bounds, "_HALVES", ())


class TestHeldTables:
    """The popcount layers and the width DP's halves are kept between calls."""

    SIZES = (11, 4, 8, 2, 10, 6, 11, 9)

    def graphs(self, seed: int):
        rng = np.random.default_rng(seed)
        for n in self.SIZES:
            p = float(rng.uniform(0.2, 0.8))
            yield OpenGraph(
                n=n, edges=[(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )

    def measures(self, graph):
        return entanglement_width_exact(graph), structural_entanglement_exact(graph)

    def test_sizes_out_of_order_match_references(self, monkeypatch):
        drop_held_tables(monkeypatch)
        for graph in self.graphs(seed=21):
            held = self.measures(graph)
            assert held == (reference_width(graph), reference_structural(graph))
            drop_held_tables(monkeypatch)
            assert self.measures(graph) == held
            # The next, possibly smaller, size reads this size's tables.

    def test_one_table_for_the_largest_size(self, monkeypatch):
        drop_held_tables(monkeypatch)
        for graph in self.graphs(seed=22):
            self.measures(graph)
        largest = max(self.SIZES)
        assert len(bounds._LAYERS) == largest + 1
        assert len(bounds._HALVES) == largest - 1
        for size, layer in enumerate(bounds._LAYERS):
            assert len(layer) == math.comb(largest, size)

    def test_above_the_tree_budget_nothing_more_is_kept(self, monkeypatch):
        drop_held_tables(monkeypatch)
        monkeypatch.setattr(bounds, "DEFAULT_TREE_BUDGET", 6)
        for graph in self.graphs(seed=23):
            assert entanglement_width_exact(graph, max_vertices=11) == reference_width(graph)
            assert len(bounds._HALVES) <= 6 - 1

    def test_held_arrays_are_read_only(self, monkeypatch):
        drop_held_tables(monkeypatch)
        entanglement_width_exact(path_graph(7))
        for array in bounds._LAYERS + bounds._HALVES:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        sets, halves = next(bounds._split_layers(7))
        with pytest.raises(ValueError, match="read-only"):
            halves[0] = 0

    def test_no_graph_is_kept(self):
        graph = cluster_graph(3, 3)
        kept = weakref.ref(graph)
        self.measures(graph)
        flow_entanglement_bound(graph, cluster_row_flow(3, 3))
        del graph
        gc.collect()
        assert kept() is None
        for array in bounds._LAYERS + bounds._HALVES:
            assert array.dtype.kind == "u"


def gflow_graph(rng, n: int):
    """A random open graph on n vertices that has a gFlow."""
    while True:
        graph = random_open_graph(rng, n_min=n, n_max=n, equal_io=True)
        gflow = find_gflow(graph)
        if gflow is not None:
            return graph, gflow


class TestPaperChain:
    """width <= e_struc <= flow bound, the paper's chain of bounds."""

    def test_chain_on_gflow_graphs_up_to_the_budgets(self):
        rng = np.random.default_rng(13)
        for n in list(range(2, bounds.DEFAULT_TREE_BUDGET + 1)) * 2:
            graph, gflow = gflow_graph(rng, n)
            width = entanglement_width_exact(graph)
            e_struc = structural_entanglement_exact(graph)
            assert width <= e_struc <= flow_entanglement_bound(graph, gflow).bound

    def test_flow_bound_at_the_ordering_budget(self):
        rng = np.random.default_rng(17)
        graph, gflow = gflow_graph(rng, bounds.DEFAULT_ORDERING_BUDGET)
        bound = flow_entanglement_bound(graph, gflow).bound
        assert structural_entanglement_exact(graph) <= bound


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
        for n in range(2, 17):
            assert entanglement_width_exact(path_graph(n)) == 1

    @pytest.mark.parametrize("d", [3, 4])
    def test_square_grid_is_its_side_minus_one(self, d):
        # A d x d grid has rank-width d - 1 (Jelinek, DAM 158, 2010), and the
        # width of a graph state is the rank-width of its graph (Van den
        # Nest et al., PRA 75, 012337, 2007).
        assert entanglement_width_exact(cluster_graph(d, d)) == d - 1

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
