import functools
import json

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
from mbqcflow.flow import correction_masks
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

from conftest import random_open_graph, sample_graphs_with_gflow


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
        g = path_graph(3)
        with pytest.raises(ValueError, match="non-output"):
            verify_gflow(g, GFlow(corrections={0: {1}}, layers=[{0}, {1}, {2}]))

    def test_correcting_set_reaching_inputs_raises(self):
        g = OpenGraph(n=3, edges=[(0, 1), (1, 2)], inputs=(0, 1), outputs=(1, 2))
        with pytest.raises(ValueError, match="input"):
            verify_gflow(g, GFlow(corrections={0: {1}}, layers=[{0}, {1, 2}]))


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
NOT_A_CAUSAL_FLOW = GFlow(corrections={0: ()}, layers=[{0}])


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
