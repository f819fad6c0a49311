import collections
import functools
import json
import re

import numpy as np
import pytest

from mbqcflow import (
    FlowConsistencyError,
    GFlow,
    OpenGraph,
    Plane,
    correction_dependencies,
    find_causal_flow,
    find_gflow,
    flow_entanglement_bound,
    flow_wires,
    has_entanglement_capacity,
    odd_neighborhood,
    verify_gflow,
)
from mbqcflow.flow import _find, _max_flow_successors, correction_masks
from mbqcflow.gf2 import gf2_basis, gf2_express
from mbqcflow.fixtures import (
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

import flow_reference
from conftest import flow_scan_graphs, random_open_graph, relabel, sample_graphs_with_gflow


def exhaustive_gflow_exists(graph: OpenGraph) -> bool:
    """Independent completeness oracle: enumerate layered orders directly.

    For every ordered partition of the measured vertices into rounds,
    check each vertex independently for a correcting set among the
    strictly-later non-inputs by brute-force subset enumeration (the
    XY-plane conditions decouple across vertices once the layering is
    fixed).
    """
    measured = [v for v in range(graph.n) if v not in graph.output_set]
    non_inputs = [v for v in range(graph.n) if v not in graph.input_set]

    def ordered_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in ordered_partitions(rest):
            for k in range(len(sub)):
                yield sub[:k] + [[first] + sub[k]] + sub[k + 1 :]
            for k in range(len(sub) + 1):
                yield sub[:k] + [[first]] + sub[k:]

    def vertex_ok(i, layer_of, n_layers):
        later = [
            j
            for j in non_inputs
            if j != i and layer_of.get(j, n_layers) > layer_of[i]
        ]
        for mask in range(1, 1 << len(later)):
            corr = {later[b] for b in range(len(later)) if (mask >> b) & 1}
            odd = odd_neighborhood(graph, corr)
            if i not in odd:
                continue
            if any(
                j != i and layer_of.get(j, n_layers) <= layer_of[i]
                for j in odd
            ):
                continue
            return True
        return False

    if not measured:
        return True
    for layering in ordered_partitions(measured):
        layer_of = {v: k for k, layer in enumerate(layering) for v in layer}
        if all(vertex_ok(i, layer_of, len(layering)) for i in measured):
            return True
    return False


class TestFindCausalFlow:
    def test_path_flow_structure(self):
        for n in (2, 3, 5):
            flow = find_causal_flow(path_graph(n))
            assert flow is not None
            assert flow.corrections == {i: frozenset({i + 1}) for i in range(n - 1)}
            assert [sorted(l) for l in flow.layers] == [[i] for i in range(n)]

    def test_bottleneck_has_no_flow(self):
        assert find_causal_flow(bottleneck_graph()) is None

    def test_nothing_measured_gives_empty_flow(self):
        g = OpenGraph(n=3, edges=[(0, 1), (1, 2)], inputs=(0, 1, 2), outputs=(0, 1, 2))
        flow = find_causal_flow(g)
        assert flow is not None
        assert flow.corrections == {}
        assert flow.layers == (frozenset({0, 1, 2}),)
        assert flow.depth == 0

    def test_cluster_flow_is_row_flow(self):
        for rows, cols in [(2, 3), (3, 3), (2, 4)]:
            found = find_causal_flow(cluster_graph(rows, cols))
            expected = cluster_row_flow(rows, cols)
            assert found is not None
            assert found.corrections == expected.corrections
            assert found.layers == expected.layers

    def test_io_size_precondition(self):
        g = OpenGraph(n=3, edges=[(0, 1), (1, 2)], inputs=(0, 1), outputs=(2,))
        with pytest.raises(ValueError, match="inputs"):
            find_causal_flow(g)

    def test_found_flows_verify(self, rng):
        for _ in range(40):
            g = random_open_graph(rng, n_max=8, equal_io=True)
            flow = find_causal_flow(g)
            if flow is not None:
                assert flow.is_flow
                assert verify_gflow(g, flow) == []


class TestFindGflow:
    def test_flow_implies_gflow(self, rng):
        for _ in range(40):
            g = random_open_graph(rng, n_max=8, equal_io=True)
            if find_causal_flow(g) is not None:
                assert find_gflow(g) is not None

    def test_bottleneck_has_no_gflow(self):
        assert find_gflow(bottleneck_graph()) is None

    def test_found_gflows_verify(self, rng):
        for _ in range(40):
            g = random_open_graph(rng, n_max=9, equal_io=True)
            gflow = find_gflow(g)
            if gflow is not None:
                assert verify_gflow(g, gflow) == []

    def test_fig3b_quoted_gflow_is_valid(self):
        assert verify_gflow(fig3b_graph(), fig3b_gflow()) == []

    def test_fig3b_has_gflow_but_no_flow(self):
        g = fig3b_graph()
        assert find_causal_flow(g) is None
        assert find_gflow(g) is not None

    def test_fig4_wide_gflow_found(self):
        found = find_gflow(fig4_graph())
        assert found is not None
        assert found.corrections == fig4_depth_one_gflow().corrections
        assert found.depth == 1

    def test_matches_exhaustive_search_small(self, rng):
        # Smoke-sized version of the completeness criterion.
        for _ in range(60):
            g = random_open_graph(rng, n_min=2, n_max=5)
            if len(g.inputs) > len(g.outputs):
                continue
            assert (find_gflow(g) is not None) == exhaustive_gflow_exists(g)

    def test_maximally_delayed_depth_is_minimal(self, rng):
        # No valid gFlow found by exhaustive layering search is shallower.
        for graph, gflow in sample_graphs_with_gflow(15, seed=99, n_max=6):
            measured = [v for v in range(graph.n) if v not in graph.output_set]
            found_depth = gflow.depth
            best = None
            seen = set()

            def layerings(items):
                if not items:
                    yield []
                    return
                first, rest = items[0], items[1:]
                for sub in layerings(rest):
                    for k in range(len(sub)):
                        yield sub[:k] + [[first] + sub[k]] + sub[k + 1 :]
                    for k in range(len(sub) + 1):
                        yield sub[:k] + [[first]] + sub[k:]

            for layering in layerings(measured):
                depth = len(layering)
                if best is not None and depth >= best:
                    continue
                candidate_layers = [set(l) for l in layering] + [set(graph.outputs)]
                layer_of = {
                    v: k for k, layer in enumerate(candidate_layers) for v in layer
                }
                ok = True
                for i in measured:
                    later = [
                        j
                        for j in range(graph.n)
                        if j not in graph.input_set
                        and j != i
                        and layer_of[j] > layer_of[i]
                    ]
                    good = False
                    for mask in range(1, 1 << len(later)):
                        corr = {
                            later[b] for b in range(len(later)) if (mask >> b) & 1
                        }
                        odd = odd_neighborhood(graph, corr)
                        if i not in odd:
                            continue
                        if any(
                            j != i and layer_of[j] <= layer_of[i] for j in odd
                        ):
                            continue
                        good = True
                        break
                    if not good:
                        ok = False
                        break
                if ok:
                    best = depth
            assert best is not None
            assert found_depth <= best


class TestRelabelling:
    """Both finders commute with relabelling the vertices.

    Each maximally delayed layer is the set of vertices that the layers
    after it can correct (Mhalla and Perdrix, ICALP 2008), so the layers
    found on pi(G) are pi of those found on G.  The correcting sets may
    differ, because the smallest solution mask depends on the labels.
    """

    @pytest.mark.parametrize("finder", [find_gflow, find_causal_flow])
    def test_layers_on_flow_scan_pools(self, finder):
        rng = np.random.default_rng(31)
        found = missing = 0
        for seed in (1, 2, 3):
            for graph in flow_scan_graphs(seed):
                mapping = dict(enumerate(map(int, rng.permutation(graph.n))))
                relabelled, expected = relabel(graph, finder(graph), mapping, graph.n)
                got = finder(relabelled)
                assert (got is None) == (expected is None)
                if got is None:
                    missing += 1
                else:
                    assert got.layers == expected.layers
                    found += 1
        assert (found, missing) == (47, 49)


def reference_peeling(graph: OpenGraph, singleton: bool) -> str | None:
    """gFlow JSON from brute-force backward peeling, without any GF(2) solver.

    Each pass gives every unprocessed vertex u the smallest-integer subset
    K of the current correctors (bit c standing for the c-th smallest) with
    Odd(K) meeting the unprocessed region in exactly {u}; with
    ``singleton`` only one-element subsets count.
    """
    neighbours = {v: set() for v in range(graph.n)}
    for a, b in graph.edges:
        neighbours[a].add(int(b))
        neighbours[b].add(int(a))
    inputs, outputs = {int(v) for v in graph.inputs}, {int(v) for v in graph.outputs}
    unprocessed = set(range(graph.n)) - outputs
    correctors = sorted(outputs - inputs)
    corrections: dict[int, list[int]] = {}
    passes = []
    while unprocessed:
        found = {}
        count = len(correctors)
        subsets = (1 << c for c in range(count)) if singleton else range(1 << count)
        for mask in subsets:
            k = [w for c, w in enumerate(correctors) if (mask >> c) & 1]
            odd = set()
            for w in k:
                odd ^= neighbours[w]
            hit = odd & unprocessed
            if len(hit) == 1:
                found.setdefault(hit.pop(), k)
        if not found:
            return None
        passes.append(sorted(found))
        corrections.update(found)
        unprocessed -= set(found)
        correctors = sorted(set(correctors) | (set(found) - inputs))
    gflow = {
        "g": {str(v): k for v, k in corrections.items()},
        "layers": passes[::-1] + [sorted(outputs)],
        "planes": {str(v): "XY" for v in corrections},
    }
    return json.dumps(gflow, sort_keys=True)


class TestPeelingMatchesBruteForce:
    """Exact gFlow and causal-flow JSON against an independent peeling."""

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(2024)
        graphs = [random_open_graph(rng, n_min=1, n_max=9) for _ in range(200)]
        # Plain ints, so that the found gFlows serialise.
        return [
            OpenGraph(g.n, g.edges, [int(v) for v in g.inputs], [int(v) for v in g.outputs])
            for g in graphs
        ]

    def test_corpus_covers_the_cases(self, corpus):
        assert sum(len(g.outputs) > len(g.inputs) for g in corpus) >= 50
        assert sum(reference_peeling(g, False) is None for g in corpus) >= 50
        assert sum(
            reference_peeling(g, False) is not None and reference_peeling(g, True) is None
            for g in corpus
        ) >= 5

    @pytest.mark.parametrize("singleton", [False, True], ids=["gflow", "causal"])
    def test_json_is_identical(self, corpus, singleton):
        find = find_causal_flow if singleton else find_gflow
        for g in corpus:
            found = find(g)
            assert (found.to_json() if found else None) == reference_peeling(g, singleton), g


def reference_full_basis_peeling(graph: OpenGraph, singleton: bool):
    """Backward layer peeling that redoes each pass in full; passes or None.

    Each pass rebuilds the region from the unprocessed vertices, eliminates
    a column for every corrector, zero or not, and asks the basis for
    every unprocessed vertex.  ``_peel`` must give the same passes, with
    the same keys in the same order.
    """
    adjacency = graph.adjacency_masks
    unprocessed = [v for v in range(graph.n) if v not in graph.output_set]
    correctors = sorted(v for v in graph.outputs if v not in graph.input_set)
    passes: list[dict[int, frozenset[int]]] = []

    while unprocessed:
        region = sum(1 << v for v in unprocessed)
        columns = [adjacency[w] & region for w in correctors]
        found: dict[int, frozenset[int]] = {}
        if singleton:
            for w, col in zip(correctors, columns):
                u = col.bit_length() - 1
                if col and col == 1 << u and u not in found:
                    found[u] = frozenset((w,))
        else:
            basis = gf2_basis(columns)
            for u in unprocessed:
                mask = gf2_express(basis, 1 << u)
                if mask is not None:
                    found[u] = frozenset(
                        w for c, w in enumerate(correctors) if (mask >> c) & 1
                    )
        if not found:
            return None
        passes.append(found)
        unprocessed = [v for v in unprocessed if v not in found]
        correctors = sorted(
            set(correctors) | {v for v in found if v not in graph.input_set}
        )
    return passes


class TestPeelingMatchesFullBasis:
    """Found flows against full-basis peeling at the benchmark's grid sizes."""

    @pytest.fixture(scope="class")
    def graphs(self):
        # Plain grids, grids with gFlow-keeping edges, and grids broken
        # mid-way and late, of n = 80-144.  Then the random stream that
        # sample_graphs_with_gflow filters, unfiltered, so that the finder
        # under test does not choose its own inputs.
        grids = [g for seed in (1, 2, 3) for g in flow_scan_graphs(seed)]
        rng = np.random.default_rng(21)
        return grids, [random_open_graph(rng, n_max=10, equal_io=True) for _ in range(1000)]

    def test_graphs_cover_the_cases(self, graphs):
        grids, small = graphs
        assert min(g.n for g in grids) == 80 and max(g.n for g in grids) == 144
        assert 40 <= sum(reference_full_basis_peeling(g, False) is not None for g in grids) <= 56
        gflow = [reference_full_basis_peeling(g, False) is not None for g in small]
        causal = [reference_full_basis_peeling(g, True) is not None for g in small]
        assert sum(gflow) >= 100
        assert sum(a and not b for a, b in zip(gflow, causal)) >= 15

    @pytest.mark.parametrize("singleton", [False, True], ids=["gflow", "causal"])
    def test_same_json_and_order(self, graphs, singleton):
        find = find_causal_flow if singleton else find_gflow
        for g in [*graphs[0], *graphs[1]]:
            found = find(g)
            passes = reference_full_basis_peeling(g, singleton)
            if passes is None:
                assert found is None, g
                continue
            corrections = {v: s for p in passes for v, s in p.items()}
            layers = [*reversed(passes), g.output_set]
            expected = GFlow(corrections=corrections, layers=layers)
            assert found.to_json() == expected.to_json(), g
            assert list(found.corrections) == list(corrections), g


class TestVerifyGflow:
    def test_path_flow_ok(self):
        g = path_graph(3)
        assert verify_gflow(g, path_flow(3)) == []

    def test_g3_violation(self):
        g = path_graph(3)
        bad = GFlow(corrections={0: {2}, 1: {2}}, layers=[{0}, {1}, {2}])
        rules = {(v.vertex, v.rule) for v in verify_gflow(g, bad)}
        assert (0, "g3") in rules

    def test_g1_violation(self):
        g = path_graph(3)
        bad = GFlow(corrections={0: {1}, 1: {2}}, layers=[{1}, {0}, {2}])
        rules = {(v.vertex, v.rule) for v in verify_gflow(g, bad)}
        assert (0, "g1") in rules

    def test_g2_violation(self):
        # Vertex 0's correction puts a Z on vertex 1, measured earlier.
        g = OpenGraph(n=4, edges=[(0, 2), (1, 2), (1, 3)], inputs=(), outputs=(2, 3))
        bad = GFlow(corrections={0: {2}, 1: {3}}, layers=[{1}, {0}, {2, 3}])
        rules = {(v.vertex, v.rule) for v in verify_gflow(g, bad)}
        assert (0, "g2") in rules

    def test_g2_rejects_same_round_interference(self):
        # Corrections of the two round-one vertices write Z onto each
        # other; banning only strictly-earlier leakage would accept this
        # layering even though no serialization of the round can realize
        # the corrections (and the peeling algorithm rightly finds no
        # gFlow on this graph at all).
        g = OpenGraph(
            n=5,
            edges=[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)],
            inputs=(1,),
            outputs=(4,),
        )
        degenerate = GFlow(
            corrections={0: {4}, 1: {0}, 2: {0}, 3: {4}},
            layers=[{1, 2}, {0, 3}, {4}],
        )
        rules = {(v.vertex, v.rule) for v in verify_gflow(g, degenerate)}
        assert (1, "g2") in rules and (2, "g2") in rules
        assert find_gflow(g) is None

    def test_yz_plane_rule(self):
        g = path_graph(3)
        bad = GFlow(
            corrections={0: {1}, 1: {2}},
            layers=[{0}, {1}, {2}],
            planes={0: Plane.YZ, 1: Plane.XY},
        )
        rules = {(v.vertex, v.rule) for v in verify_gflow(g, bad)}
        assert (0, "g5") in rules

    def test_xz_plane_rule_accepts_hand_example(self):
        # Single vertex measured in XZ: g(0) = {0} needs odd self-loop,
        # impossible, so use a two-vertex graph with g(0) = {0, 1}.
        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(), outputs=(1,))
        gf = GFlow(
            corrections={0: {0, 1}},
            layers=[{0}, {1}],
            planes={0: Plane.XZ},
        )
        assert verify_gflow(g, gf) == []

    def test_malformed_domain_raises(self):
        # The constructor rejects correcting sets for other vertices than
        # those of the measurement rounds, so verify_gflow never sees them.
        message = "correcting sets and measurement rounds differ on vertices [1, 2]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GFlow(corrections={0: {1}, 2: {1}}, layers=[{0}, {1}, {2}])

    def test_correcting_set_reaching_inputs_raises(self):
        g = OpenGraph(n=3, edges=[(0, 1), (1, 2)], inputs=(0, 1), outputs=(1, 2))
        with pytest.raises(ValueError, match="input"):
            verify_gflow(g, GFlow(corrections={0: {1}}, layers=[{0}, {1, 2}]))


    @pytest.mark.parametrize(
        "corrections, layers, message",
        [
            ({0: {1}}, [{0}, {1}, {2}], "correcting sets and measurement rounds differ on vertices [1]"),
            ({0: {1}}, [{0}, {2}], "layers must partition the vertex set"),
            ({0: {1}, 1: {2}}, [{0}, {1}, {1, 2}], "vertex 1 appears in two layers"),
            ({0: {1}, 2: {1}}, [{0}, {2}, {1}], "final layer must hold exactly the outputs"),
            ({0: {1}, 1: {0, 2}}, [{0}, {1}, {2}], "correcting set of 1 contains input vertices"),
            ({0: {1}, 1: {5}}, [{0}, {1}, {2}], "correcting set of 1 contains out-of-range vertex 5"),
            ({0: {1}, 1: {2}}, [{0}, set(), {1}, {2}], "measurement round 1 is empty"),
        ],
    )
    def test_structural_errors_raise(self, corrections, layers, message):
        # The first, third and last rows break the shape GFlow's
        # constructor enforces; the others need the graph, and
        # verify_gflow raises.  Only the final, output layer may be empty.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_gflow(path_graph(3), GFlow(corrections, layers))

    def test_planes_are_defined_exactly_on_the_corrected_vertices(self):
        # Missing keys become XY and extra keys are refused, so verify_gflow
        # needs no check of the planes' domain.
        gf = GFlow({0: {1}, 1: {2}}, [{0}, {1}, {2}], planes={0: Plane.YZ})
        assert gf.planes == {0: Plane.YZ, 1: Plane.XY}
        with pytest.raises(ValueError, match=r"^gflow gives planes to unmeasured vertices \[2, 7]$"):
            GFlow({0: {1}, 1: {2}}, [{0}, {1}, {2}], planes={0: "XY", 2: "XZ", 7: "YZ"})


class TestRoundsAndDependencies:
    def test_path_depth(self):
        gflow = path_flow(5)
        assert gflow.depth == 4
        assert [sorted(r) for r in gflow.layers[:-1]] == [[0], [1], [2], [3]]

    def test_fig4_depths(self):
        assert fig4_flow().depth == 4
        assert fig4_depth_one_gflow().depth == 1

    def test_fig4_wide_parities(self):
        report = correction_dependencies(fig4_graph(), fig4_depth_one_gflow())
        assert report.x_parity[7] == (0, 1, 2, 3)
        assert report.depth == 1

    def test_path_parities(self):
        n = 6
        report = correction_dependencies(path_graph(n), path_flow(n))
        for j in range(1, n):
            assert report.x_parity[j] == (j - 1,)
        for j in range(2, n):
            assert report.z_parity[j] == (j - 2,)

    def test_empty_measured_set(self):
        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(0, 1), outputs=(0, 1))
        gf = GFlow(corrections={}, layers=[{0, 1}])
        report = correction_dependencies(g, gf)
        assert report.total_cost == 0
        assert report.depth == 0


def reference_verify(graph: OpenGraph, gflow: GFlow) -> list[tuple]:
    """Per-vertex rule violations read off Python sets (checks structure first)."""
    verify_gflow(graph, gflow)
    layer_of = gflow.layer_of
    found = []
    for i in sorted(gflow.corrections):
        corr = gflow.corrections[i]
        odd = odd_neighborhood(graph, corr)
        for j in sorted(corr):
            if j != i and not layer_of[i] < layer_of[j]:
                found.append((i, "g1", f"corrector {j} not after {i}"))
        for j in sorted(odd):
            if j != i and not layer_of[i] < layer_of[j]:
                found.append((i, "g2", f"correction touches non-later vertex {j}"))
        plane = gflow.planes[i]
        if plane is Plane.XY and (i in corr or i not in odd):
            found.append((i, "g3", "XY needs i outside g(i) and inside Odd(g(i))"))
        elif plane is Plane.XZ and (i not in corr or i not in odd):
            found.append((i, "g4", "XZ needs i inside g(i) and inside Odd(g(i))"))
        elif plane is Plane.YZ and (i not in corr or i in odd):
            found.append((i, "g5", "YZ needs i inside g(i) and outside Odd(g(i))"))
    return found


def reference_dependencies(graph: OpenGraph, gflow: GFlow) -> dict:
    """X/Z parity sets read off Python sets, as ``CorrectionReport.to_json_dict``."""
    x_parity = {v: [] for v in range(graph.n)}
    z_parity = {v: [] for v in range(graph.n)}
    for i in sorted(gflow.corrections):
        corr = gflow.corrections[i]
        for j in corr:
            x_parity[j].append(i)
        for j in odd_neighborhood(graph, corr) - {i}:
            z_parity[j].append(i)
    return {
        "x_parity": {str(v): s for v, s in x_parity.items()},
        "z_parity": {str(v): s for v, s in z_parity.items()},
        "total_cost": sum(map(len, x_parity.values())) + sum(map(len, z_parity.values())),
        "depth": len(gflow.layers) - 1,
    }


def random_broken_gflows(count: int, seed: int) -> list[tuple[OpenGraph, GFlow]]:
    """Valid gFlows with random correcting sets, layers and planes swapped in."""
    rng = np.random.default_rng(seed)
    planes = list(Plane)
    cases = []
    for graph, gflow in sample_graphs_with_gflow(count, seed=seed, n_max=9):
        non_inputs = [v for v in range(graph.n) if v not in graph.input_set]
        corrections = {
            v: {int(w) for w in non_inputs if rng.random() < 0.3}
            if rng.random() < 0.5
            else set(gflow.corrections[v]) ^ {int(rng.choice(non_inputs))}
            for v in graph.measured
        }
        order = [int(v) for v in rng.permutation(graph.measured)]
        cuts = sorted({int(c) for c in rng.integers(1, len(order) + 1, size=len(order) // 2)})
        layers = [order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)]) if a < b]
        assigned = {v: planes[int(rng.integers(3))] for v in graph.measured}
        cases.append((graph, GFlow(corrections, layers + [graph.outputs], assigned)))
    return cases


class TestMasksMatchSetReference:
    BROKEN = random_broken_gflows(150, seed=41)

    def test_correction_masks_path(self):
        # g(1) = {2}; Odd({2}) = {1, 3}.
        assert correction_masks(path_graph(4), path_flow(4), 1) == (0b0100, 0b1010)

    def test_correction_masks_reject_out_of_range_corrector(self):
        g = path_graph(3)
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="out-of-range"):
                correction_masks(g, GFlow({0: {bad}, 1: {2}}, [{0}, {1}, {2}]), 0)

    def test_broken_corpus_covers_every_rule_and_plane(self):
        rules = {v.rule for graph, gflow in self.BROKEN for v in verify_gflow(graph, gflow)}
        assert rules == {"g1", "g2", "g3", "g4", "g5"}
        planes = {p for _, gflow in self.BROKEN for p in gflow.planes.values()}
        assert planes == set(Plane)

    def test_verify_matches_reference(self):
        for graph, gflow in self.BROKEN + sample_graphs_with_gflow(60, seed=42):
            assert [tuple(v) for v in verify_gflow(graph, gflow)] == reference_verify(
                graph, gflow
            )

    def test_dependencies_match_reference(self):
        for graph, gflow in self.BROKEN + sample_graphs_with_gflow(60, seed=42):
            report = correction_dependencies(graph, gflow).to_json_dict()
            assert json.dumps(report) == json.dumps(reference_dependencies(graph, gflow))


class TestFlowWires:
    def test_path_single_wire(self):
        report = flow_wires(path_graph(4), path_flow(4))
        assert report.wires == ((0, 1, 2, 3),)
        assert report.uncovered_non_outputs == frozenset()

    def test_cluster_row_wires(self):
        rows, cols = 3, 4
        report = flow_wires(cluster_graph(rows, cols), cluster_row_flow(rows, cols))
        assert len(report.wires) == rows
        for r, wire in enumerate(report.wires):
            assert wire == tuple(r * cols + c for c in range(cols))
        assert report.uncovered_non_outputs == frozenset()

    def test_flow_wires_cover_all_when_io_balanced(self, rng):
        from conftest import sample_graphs_with_flow

        for graph, flow in sample_graphs_with_flow(25, seed=5, n_max=8):
            report = flow_wires(graph, flow)
            assert report.uncovered_non_outputs == frozenset()
            seen = set()
            for wire in report.wires:
                assert not (seen & set(wire))
                seen.update(wire)
            assert seen == set(range(graph.n)) - (
                graph.output_set - {w[-1] for w in report.wires}
            )

    def test_unbalanced_flow_reports_uncovered(self):
        # Valid flow with one input and two outputs; vertex 1 sits on a
        # chain not rooted at an input.
        g = OpenGraph(n=4, edges=[(0, 2), (1, 3)], inputs=(0,), outputs=(2, 3))
        flow = find_causal_flow(g)
        assert flow is not None
        report = flow_wires(g, flow)
        assert report.wires == ((0, 2),)
        assert report.uncovered_non_outputs == frozenset({1})

    def test_menger_failure_raises(self):
        fake = GFlow(
            corrections={0: {2, 3}, 1: {2, 4}, 2: {3, 4}},
            layers=[{0, 1}, {2}, {3, 4}],
        )
        with pytest.raises(FlowConsistencyError, match="disjoint"):
            flow_wires(bottleneck_graph(), fake)

    def test_successor_cycle_raises(self):
        # Unverified causal-shaped gFlows: the walk checks what verify_gflow would.
        g = {0: {1}, 1: {0}}
        gflow = GFlow(corrections=g, layers=[{0}, {1}, {2}])
        with pytest.raises(FlowConsistencyError, match="^flow successor cycle through 0$"):
            flow_wires(path_graph(3), gflow)

    @pytest.mark.parametrize("report", [flow_wires, flow_entanglement_bound])
    def test_chain_that_stops_short_raises(self, report):
        # Vertex 1 is neither an output nor corrected: the chain from 0 ends there.
        gflow = GFlow(corrections={0: {1}}, layers=[[0], [1, 2]])
        message = "^flow wire from 0 stops at 1, which is not an output$"
        with pytest.raises(FlowConsistencyError, match=message):
            report(path_graph(3), gflow)

    def test_wires_that_meet_raise(self):
        graph = OpenGraph(n=4, edges=[(0, 2), (1, 2), (1, 3)], inputs=(0, 1), outputs=(2, 3))
        gflow = GFlow(corrections={0: {2}, 1: {2}}, layers=[{0, 1}, {2, 3}])
        with pytest.raises(FlowConsistencyError, match="^flow wires are not vertex-disjoint$"):
            flow_wires(graph, gflow)

    def test_gflow_route_uses_max_flow(self):
        g = fig3b_graph()
        gflow = find_gflow(g)
        report = flow_wires(g, gflow)
        assert len(report.wires) == 3
        seen = set()
        for wire in report.wires:
            assert wire[0] in g.input_set and wire[-1] in g.output_set
            assert not (seen & set(wire))
            seen.update(wire)

    def test_input_equals_output_wire(self):
        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(0,), outputs=(0, 1))
        flow = find_causal_flow(g)
        report = flow_wires(g, flow)
        assert report.wires == ((0,),)


def disjoint_path_count(graph: OpenGraph) -> int:
    """Most vertex-disjoint input-to-output paths, by exhaustive search.

    Inputs are taken in order; each either starts no path or starts a
    simple path that avoids every vertex already used and stops at the
    first output it reaches (a longer one only uses more vertices).
    """
    inputs = graph.inputs

    @functools.cache
    def best(i: int, used: int) -> int:
        if i == len(inputs):
            return 0
        result = best(i + 1, used)
        start = inputs[i]
        if used >> start & 1:
            return result
        stack = [(start, used | 1 << start)]
        while stack:
            v, taken = stack.pop()
            if v in graph.output_set:
                result = max(result, 1 + best(i + 1, taken))
                continue
            for w in graph.neighbors(v):
                if not taken >> w & 1:
                    stack.append((w, taken | 1 << w))
        return result

    return best(0, 0)


def random_terminal_graph(rng: np.random.Generator, n_max: int) -> OpenGraph:
    """Random graph whose inputs and outputs are independent draws (they may overlap)."""
    n = int(rng.integers(1, n_max + 1))
    p = float(rng.uniform(0.2, 0.7))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    k_in = int(rng.integers(0, n // 2 + 2))
    k_out = int(rng.integers(1, n // 2 + 2))
    inputs = [int(v) for v in rng.permutation(n)[: min(k_in, n)]]
    outputs = [int(v) for v in rng.permutation(n)[: min(k_out, n)]]
    return OpenGraph(n=n, edges=edges, inputs=inputs, outputs=outputs)


#: ``flow_wires`` reads only ``is_flow`` of its gFlow.  An empty correcting
#: set makes this stand-in take the max-flow route on any graph.
NOT_A_CAUSAL_FLOW = GFlow(corrections={0: ()}, layers=[{0}, ()])


class TestMaxFlowWires:
    def test_matches_exhaustive_path_count(self):
        assert not NOT_A_CAUSAL_FLOW.is_flow
        rng = np.random.default_rng(2024)
        feasible = infeasible = 0
        for _ in range(400):
            graph = random_terminal_graph(rng, n_max=8)
            expected = disjoint_path_count(graph)
            m = len(graph.inputs)
            if expected < m:
                infeasible += 1
                message = f"^only {expected} vertex-disjoint paths exist for {m} inputs$"
                with pytest.raises(FlowConsistencyError, match=message):
                    flow_wires(graph, NOT_A_CAUSAL_FLOW)
                continue
            feasible += m > 0
            report = flow_wires(graph, NOT_A_CAUSAL_FLOW)
            assert tuple(w[0] for w in report.wires) == graph.inputs
            seen: set[int] = set()
            for wire in report.wires:
                assert wire[-1] in graph.output_set
                for u, v in zip(wire, wire[1:]):
                    assert v in graph.neighbors(u)
                assert len(set(wire)) == len(wire)
                assert not seen & set(wire)
                seen.update(wire)
            assert report.uncovered_non_outputs == frozenset(
                v for v in range(graph.n) if v not in seen and v not in graph.output_set
            )
        assert feasible >= 100 and infeasible >= 100

    def test_fig3b_wires_and_bound_pinned(self):
        # Descending neighbour order: input 0 takes its neighbour 5 first.
        g = fig3b_graph()
        for gflow in (fig3b_gflow(), find_gflow(g)):
            report = flow_wires(g, gflow)
            assert report.wires == ((0, 5), (1, 4), (2, 3))
            assert flow_entanglement_bound(g, gflow, report).bound == 5


def _wires_from_flow(graph: OpenGraph, gflow: GFlow) -> list[list[int]]:
    wires = []
    seen: set[int] = set()
    for start in graph.inputs:
        wire = [start]
        current = start
        while current not in graph.output_set:
            (current,) = gflow.corrections[current]
            if current in wire:
                raise FlowConsistencyError(f"flow successor cycle through {current}")
            wire.append(current)
        if seen & set(wire):
            raise FlowConsistencyError("flow wires are not vertex-disjoint")
        seen.update(wire)
        wires.append(wire)
    return wires


def _wires_from_max_flow(graph: OpenGraph) -> list[list[int]]:
    """Vertex-disjoint input/output paths by unit-capacity BFS augmentation.

    The network splits vertex v into v_in = 2v and v_out = 2v + 1 joined
    by a unit arc, with a unit arc u_out -> v_in for each edge in each
    direction and v_out -> sink for each output.  Arc a and its residual
    reverse are the pair (a, a ^ 1).  Each input, in ``graph.inputs``
    order, starts one breadth-first search for a shortest augmenting path
    from its own v_in, which stands in for the unit source arc (Edmonds
    and Karp, JACM 19, 1972).  An input that finds no path never finds
    one later, so the number of augmented inputs is the maximum flow.
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
    wires = []
    for start in graph.inputs:
        wire = [start]
        while True:
            # The one forward arc out of v_out that carries flow.
            target = next(
                head[a] for a in arcs[2 * wire[-1] + 1] if a % 2 == 0 and not residual[a]
            )
            if target == sink:
                break
            wire.append(target // 2)
        wires.append(wire)
    return wires


def reference_wires(graph: OpenGraph, gflow: GFlow):
    """``flow_wires`` with one walk per kind of wire, as it was before the successor map.

    Returns the wires and the uncovered non-outputs, or the type of the
    exception raised.  ``_wires_from_flow`` and ``_wires_from_max_flow``
    are kept verbatim from that version.
    """
    try:
        wires = _wires_from_flow(graph, gflow) if gflow.is_flow else _wires_from_max_flow(graph)
    except Exception as exc:
        return type(exc)
    covered = {v for wire in wires for v in wire}
    uncovered = frozenset(
        v for v in range(graph.n) if v not in covered and v not in graph.output_set
    )
    return tuple(tuple(w) for w in wires), uncovered


def successor_walk_wires(graph: OpenGraph, gflow: GFlow):
    """``flow_wires`` in the shape of :func:`reference_wires`."""
    try:
        report = flow_wires(graph, gflow)
    except Exception as exc:
        return type(exc)
    return report.wires, report.uncovered_non_outputs


def unverified_causal_gflow(rng: np.random.Generator, graph: OpenGraph) -> GFlow:
    """Singleton correcting sets drawn at random, for most non-outputs.

    They need not be a flow, or even follow an edge, so the wire walk
    meets cycles, wires that meet and vertices with no correcting set.
    """
    measured = [v for v in range(graph.n) if v not in graph.output_set and rng.random() < 0.9]
    corrections = {v: {int(rng.integers(graph.n))} for v in measured}
    layers = [measured, graph.outputs] if measured else [graph.outputs]
    return GFlow(corrections=corrections, layers=layers)


class TestWiresMatchPerKindWalks:
    """The successor-map walk gives the wires, uncovered sets and errors of the per-kind walks."""

    @pytest.fixture(scope="class")
    def cases(self):
        # (kind, graph, gFlow): found causal flows and gFlows, unverified
        # singleton correcting sets, and the max-flow route taken by
        # NOT_A_CAUSAL_FLOW; then the found gFlows of the benchmark's
        # flow-scan pools, whose kind is prefixed "scan".
        rng = np.random.default_rng(22)
        cases = []
        for _ in range(1200):
            graph = random_open_graph(rng, n_min=1, n_max=9)
            for gflow in (find_causal_flow(graph), find_gflow(graph)):
                if gflow is not None:
                    cases.append(("found", graph, gflow))
            cases.append(("unverified", graph, unverified_causal_gflow(rng, graph)))
            cases.append(("max-flow", graph, NOT_A_CAUSAL_FLOW))
            cases.append(("max-flow", random_terminal_graph(rng, n_max=8), NOT_A_CAUSAL_FLOW))
        for seed in (1, 2, 3):
            for graph in flow_scan_graphs(seed):
                gflow = find_gflow(graph)
                if gflow is not None:
                    cases.append(("scan", graph, gflow))
                cases.append(("scan max-flow", graph, NOT_A_CAUSAL_FLOW))
        return [(kind, g, f, reference_wires(g, f)) for kind, g, f in cases]

    def test_cases_cover_both_walks_and_every_error(self, cases):
        count = collections.Counter(
            (kind, f.is_flow, e if isinstance(e, type) else "wires") for kind, _, f, e in cases
        )
        assert count["found", True, "wires"] >= 500 and count["found", False, "wires"] >= 90
        assert count["unverified", True, FlowConsistencyError] >= 200
        assert count["unverified", True, KeyError] >= 100
        assert count["max-flow", False, "wires"] >= 1000
        assert count["max-flow", False, FlowConsistencyError] >= 500
        assert count["scan", True, "wires"] >= 20 and count["scan", False, "wires"] >= 20

    def test_same_wires_uncovered_sets_and_errors(self, cases):
        for _, graph, gflow, expected in cases:
            # A chain that stops short of an output raised a bare KeyError
            # in the per-kind walk; the successor walk names it.
            expected = FlowConsistencyError if expected is KeyError else expected
            assert successor_walk_wires(graph, gflow) == expected, (graph, gflow)


def moved_and_widened(rng: np.random.Generator, graph: OpenGraph, gflow: GFlow) -> list[GFlow]:
    """``gflow`` broken in two ways, where the graph allows them.

    One moves a measured corrector j of some g(i) into a round no later
    than i's (rule g1); the other adds to some g(i) a non-input vertex
    that is neither i nor a neighbour of i.  A round left empty by the
    move is dropped, so the constructor accepts both.
    """
    broken = []
    moves = [(i, j) for i in sorted(gflow.corrections) for j in sorted(gflow.corrections[i])
             if j in gflow.corrections]
    if moves:
        i, j = moves[int(rng.integers(len(moves)))]
        target = int(rng.integers(gflow.layer_of[i] + 1))
        layers = [set(layer) - {j} for layer in gflow.layers]
        layers[target].add(j)
        broken.append(GFlow(gflow.corrections, [*filter(None, layers[:-1]), layers[-1]]))
    widen = [(i, w) for i in sorted(gflow.corrections) for w in range(graph.n)
             if w != i and w not in graph.input_set and w not in gflow.corrections[i]
             and not graph.adjacency_masks[i] >> w & 1]
    if widen:
        i, w = widen[int(rng.integers(len(widen)))]
        corrections = {**gflow.corrections, i: gflow.corrections[i] | {w}}
        broken.append(GFlow(corrections, gflow.layers))
    return broken


class TestFlowLayerMatchesReference:
    """Peeling, verification, parities and the max-flow against their earlier versions.

    ``tests/flow_reference.py`` keeps those versions verbatim; the inputs
    are the benchmark's flow-scan pools of seeds 1-3, 300 small graphs
    with a gFlow, those graphs' gFlows broken by ``moved_and_widened``,
    and 400 graphs with independently drawn inputs and outputs.
    """

    @pytest.fixture(scope="class")
    def graphs(self):
        scan = [g for seed in (1, 2, 3) for g in flow_scan_graphs(seed)]
        return scan + [g for g, _ in sample_graphs_with_gflow(300, seed=11)]

    @pytest.fixture(scope="class")
    def gflows(self, graphs):
        rng = np.random.default_rng(27)
        found = [(g, f) for g in graphs for f in (find_gflow(g), find_causal_flow(g)) if f]
        broken = [(g, b) for g, f in found for b in moved_and_widened(rng, g, f)]
        return found, broken

    def test_cases_cover_every_route(self, graphs, gflows):
        found, broken = gflows
        assert sum(not f.is_flow for _, f in found) >= 120
        assert sum(f.is_flow for _, f in found) >= 400
        rules = collections.Counter(v.rule for g, f in broken for v in verify_gflow(g, f))
        assert rules["g1"] >= 250 and rules["g2"] >= 500

    @pytest.mark.parametrize("singleton", [False, True], ids=["gflow", "causal"])
    def test_found_flows_are_identical(self, graphs, singleton):
        for g in graphs:
            found, expected = _find(g, singleton), flow_reference._find(g, singleton)
            if expected is None:
                assert found is None, g
                continue
            assert found == expected and found.to_json() == expected.to_json(), g
            assert list(found.corrections) == list(expected.corrections), g
            # The unchecked constructor yields only what __init__ accepts.
            assert GFlow(found.corrections, found.layers) == found, g

    def test_verify_and_parities_are_identical(self, gflows):
        found, broken = gflows
        for g, f in found + broken:
            assert verify_gflow(g, f) == flow_reference.verify_gflow(g, f), (g, f)
            assert correction_dependencies(g, f) == flow_reference.correction_dependencies(g, f)

    def test_max_flow_successors_are_identical(self, graphs):
        rng = np.random.default_rng(28)
        terminal = [random_terminal_graph(rng, n_max=9) for _ in range(400)]
        # Input 5 first takes 5-4-8.  Input 2's augmenting path enters it
        # at 8, walks it backwards through 4 (the reverse split arc of a
        # used vertex) to 5, and leaves 5 for 1-9-7.  Random graphs this
        # small rarely need that arc.
        terminal.append(OpenGraph(
            11,
            [(0, 5), (0, 6), (0, 8), (1, 5), (1, 9), (1, 10), (2, 6), (2, 8),
             (3, 5), (3, 8), (3, 10), (4, 5), (4, 8), (6, 8), (7, 8), (7, 9)],
            inputs=(5, 2),
            outputs=(7, 8),
        ))
        failures = 0
        for g in graphs + terminal:
            try:
                expected = flow_reference._max_flow_successors(g)
            except FlowConsistencyError as exc:
                failures += 1
                with pytest.raises(FlowConsistencyError, match=f"^{re.escape(str(exc))}$"):
                    _max_flow_successors(g)
            else:
                assert _max_flow_successors(g) == expected, g
        assert failures >= 100


class TestGflowImpliesCapacity:
    def test_gflow_graphs_pass_capacity_check(self):
        for graph, _ in sample_graphs_with_gflow(30, seed=11, n_max=8):
            ok, witness = has_entanglement_capacity(graph)
            assert ok, f"capacity violated on {graph} with witness {witness}"


class TestSerialization:
    def test_gflow_json_round_trip(self):
        gf = fig4_depth_one_gflow()
        assert GFlow.from_json(gf.to_json()) == gf

    def test_flow_json_via_gflow(self):
        gf = path_flow(4)
        again = GFlow.from_json(gf.to_json())
        assert again.corrections == gf.corrections
        assert again.layers == gf.layers
        assert again.is_flow
