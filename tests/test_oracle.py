import re

import numpy as np
import pytest

from mbqcflow import (
    BudgetExceededError,
    DeterminismError,
    DeterminismReport,
    GFlow,
    MeasurementPattern,
    OpenGraph,
    Plane,
    build_open_graph_state,
    check_determinism,
    entanglement_width_exact,
    oracle_unitary,
    run_branch,
    schmidt_rank_log2,
    structural_entanglement_exact,
    verify_gflow,
)
from mbqcflow import oracle as oracle_mod
from mbqcflow.errors import DEFAULT_DENSE_LIMIT
from mbqcflow.oracle import apply_word_masks, canonical_unitary, measurement_basis, normalize_phase
from mbqcflow.fixtures import cluster_graph, cluster_row_flow, path_flow, path_graph

import oracle_reference
from conftest import bench_pool, local_complement, max_deviation_up_to_phase, random_open_graph
from conftest import relabel, sample_graphs_with_gflow

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def observable(plane, angle):
    """cos(angle) A + sin(angle) B for the plane's axes (A, B)."""
    a, b = plane.value
    return np.cos(angle) * PAULI[a] + np.sin(angle) * PAULI[b]


def full_branch_bits(gflow, value=0):
    return {v: value for layer in gflow.layers[:-1] for v in layer}


class TestGraphStateConstruction:
    def test_single_plus(self):
        g = OpenGraph(n=1, edges=[])
        state = build_open_graph_state(g)
        assert np.allclose(state, [1 / np.sqrt(2)] * 2)

    def test_two_vertex_graph_state(self):
        g = OpenGraph(n=2, edges=[(0, 1)])
        state = build_open_graph_state(g)
        # (|0+> + |1->)/sqrt(2) with qubit 0 in the low bit.
        expected = np.array([1, 1, 1, -1], dtype=complex) / 2
        assert np.allclose(state, expected)

    def test_stabilizer_eigen_relations(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = OpenGraph(n=n, edges=edges)
            state = build_open_graph_state(g)
            for i in range(n):
                moved = apply_word_masks(state, 1 << i, g.adjacency_masks[i])
                assert np.max(np.abs(moved - state)) < 1e-12

    def test_open_graph_state_with_input(self):
        g = OpenGraph(n=3, edges=[(0, 1), (1, 2)], inputs=(0,), outputs=(2,))
        psi = np.array([1.0, 0.0], dtype=complex)  # |0>
        state = build_open_graph_state(g, psi)
        # CZ12 CZ01 |0++>: qubit 0 is |0>, so both CZs act trivially on
        # the 0-branch of qubit 0 but CZ12 still correlates 1 and 2.
        idx = np.arange(8)
        manual = np.where((idx & 1) == 0, 0.5, 0.0).astype(complex)
        signs = np.where(((idx >> 1) & (idx >> 2) & 1) == 1, -1.0, 1.0)
        manual = manual * signs
        assert np.allclose(state, manual)

    def test_non_input_stabilizers_hold_for_any_input(self, rng):
        g = OpenGraph(n=3, edges=[(0, 1), (1, 2)], inputs=(0,), outputs=(2,))
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = build_open_graph_state(g, psi)
        for i in (1, 2):
            moved = apply_word_masks(state, 1 << i, g.adjacency_masks[i])
            assert np.max(np.abs(moved - state)) < 1e-12

    def test_budget(self):
        g = OpenGraph(n=4, edges=[])
        with pytest.raises(BudgetExceededError, match=r"^4 qubits exceed --budget-dense 3$"):
            build_open_graph_state(g, dense_limit=3)

    def test_matches_the_per_edge_sign_loop(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            graph = random_open_graph(rng, n_min=1, n_max=11)
            k = len(graph.inputs)
            for psi in (None, rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)):
                assert np.array_equal(
                    build_open_graph_state(graph, psi), state_by_edges(graph, psi)
                )

    @pytest.mark.parametrize(
        "psi,message",
        [
            (np.zeros(2), "input state has zero norm"),
            (np.ones(4), "input state dimension does not match the input count"),
            # One input at a time: a batch of inputs is refused, not measured in part.
            (np.ones((3, 2)), "input state dimension does not match the input count"),
        ],
        ids=["zero", "wrong-length", "batch"],
    )
    def test_bad_input_state_rejected(self, psi, message):
        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(0,), outputs=(1,))
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_open_graph_state(g, psi)


def state_by_edges(graph, input_state=None):
    """The open graph state with the CZ sign taken one edge at a time."""
    k = len(graph.inputs)
    dim = 1 << graph.n
    idx = np.arange(dim)
    if input_state is None:
        amp = np.full(dim, 2.0 ** (-graph.n / 2), dtype=complex)
    else:
        input_state = np.asarray(input_state, dtype=complex)
        input_state = input_state / np.linalg.norm(input_state, axis=-1, keepdims=True)
        key = np.zeros(dim, dtype=np.int64)
        for pos, vertex in enumerate(graph.inputs):
            key |= ((idx >> vertex) & 1) << pos
        amp = input_state[..., key] * 2.0 ** (-(graph.n - k) / 2)
    odd = np.zeros(dim, dtype=bool)
    for u, v in graph.edges:
        odd ^= ((idx >> u) & (idx >> v) & 1).astype(bool)
    amp[..., odd] *= -1
    return amp


class TestMeasurementBasis:
    @pytest.mark.parametrize("plane", list(Plane))
    def test_orthonormal_and_flipped_by_sigma(self, plane):
        sigma = {"XY": "Z", "XZ": "Y", "YZ": "X"}[plane.value]
        mats = {
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        for angle in (0.0, 0.3, np.pi / 2, 2.0):
            plus, minus = measurement_basis(plane, angle)
            assert abs(np.vdot(plus, plus) - 1) < 1e-12
            assert abs(np.vdot(plus, minus)) < 1e-12
            flipped = mats[sigma] @ minus
            assert abs(abs(np.vdot(plus, flipped)) - 1) < 1e-12

    def test_xy_basis_matches_closed_form(self):
        theta = 0.7
        plus, minus = measurement_basis(Plane.XY, theta)
        expected_plus = np.array([1, np.exp(1j * theta)]) / np.sqrt(2)
        assert max_deviation_up_to_phase(expected_plus, plus) < 1e-12
        expected_minus = np.array([1, -np.exp(1j * theta)]) / np.sqrt(2)
        assert max_deviation_up_to_phase(expected_minus, minus) < 1e-12

    @pytest.mark.parametrize("plane", list(Plane))
    def test_rows_match_the_numpy_closed_form(self, plane):
        # The basis is built from Python scalars; numpy arrays gave the same rows.
        for angle in np.linspace(-2 * np.pi, 2 * np.pi, 73):
            if plane is Plane.XY:
                phase = np.exp(1j * angle)
                expected = np.array([[1.0, phase], [1.0, -phase]]) / np.sqrt(2)
            else:
                half = np.pi / 4 - angle / 2
                c, s = np.cos(half), np.sin(half)
                p = 1.0 if plane is Plane.XZ else 1j
                expected = np.array([[c, p * s], [s, -p * c]])
            basis = measurement_basis(plane, angle)
            assert basis.shape == (2, 2) and basis.dtype == complex
            assert np.max(np.abs(basis - expected)) <= 1e-15, angle


class TestMeasurementBasisEigenvalues:
    @pytest.mark.parametrize("plane", list(Plane))
    def test_plus_is_plus_one_and_minus_is_minus_one(self, plane):
        angles = np.concatenate(
            [np.linspace(-2 * np.pi, 2 * np.pi, 73), np.arange(8) * np.pi / 4, [1e-9]]
        )
        for angle in angles:
            plus, minus = measurement_basis(plane, angle)
            o = observable(plane, angle)
            assert np.max(np.abs(o @ plus - plus)) < 1e-12, angle
            assert np.max(np.abs(o @ minus + minus)) < 1e-12, angle
            assert abs(np.linalg.norm(plus) - 1) < 1e-12
            assert abs(np.linalg.norm(minus) - 1) < 1e-12


def on_qubits(n, factors):
    """Kronecker product with ``factors[q]`` on qubit q (bit q) and I elsewhere."""
    out = np.eye(1, dtype=complex)
    for q in range(n - 1, -1, -1):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def reference_branch(graph, gflow, pattern, bits, psi):
    """One branch by explicit projectors and Pauli products on the full register.

    Returns the step probabilities (a step below 1e-12 records 0.0 and
    ends the branch) and the output state in output order, or None.
    """
    n = graph.n
    psi = psi / np.linalg.norm(psi)
    state = np.zeros(1 << n, dtype=complex)
    for idx in range(1 << n):
        key = sum(((idx >> v) & 1) << k for k, v in enumerate(graph.inputs))
        state[idx] = psi[key] * 2.0 ** (-(n - len(graph.inputs)) / 2)
    one = np.diag([0.0, 1.0])
    for u, v in graph.edges:
        state = (np.eye(1 << n) - 2 * on_qubits(n, {u: one, v: one})) @ state
    order = [v for layer in gflow.layers[:-1] for v in sorted(layer)]
    steps = []
    for t, v in enumerate(order):
        sign = -1 if bits[v] else 1
        projector = (np.eye(2) + sign * observable(pattern.planes[v], pattern.angles[v])) / 2
        state = on_qubits(n, {v: projector}) @ state
        prob = float(np.vdot(state, state).real)
        if prob < 1e-12:
            return steps + [0.0], None
        steps.append(prob)
        state = state / np.sqrt(prob)
        if bits[v]:
            later = order[t + 1 :] + list(graph.outputs)
            corr = gflow.corrections[v]
            factors = {}
            for q in later:
                x = PAULI["X"] if q in corr else np.eye(2)
                odd = len(graph.neighbors(q) & corr) % 2
                factors[q] = x @ (PAULI["Z"] if odd else np.eye(2))
            state = on_qubits(n, factors) @ state
    # Measured qubits now sit in product states: the amplitude tensor is
    # rank one between them and the outputs, so any nonzero row is the
    # output state up to phase.
    tensor = state.reshape([2] * n)
    axes = [n - 1 - q for q in order] + [n - 1 - q for q in reversed(graph.outputs)]
    matrix = np.transpose(tensor, axes).reshape(1 << len(order), -1)
    row = matrix[int(np.argmax(np.linalg.norm(matrix, axis=1)))]
    return steps, row / np.linalg.norm(row)


def _reference_cases():
    cases = []
    for i, (graph, gflow) in enumerate(sample_graphs_with_gflow(10, seed=11, n_max=6)):
        rng = np.random.default_rng(100 + i)
        angles = {v: float(rng.uniform(0, 2 * np.pi)) for v in graph.measured}
        cases.append(pytest.param(graph, gflow, MeasurementPattern(angles), id=f"random{i}"))
    edge = OpenGraph(n=2, edges=[(0, 1)], inputs=(), outputs=(1,))
    cases.append(pytest.param(
        edge, GFlow({0: {0, 1}}, [{0}, {1}], {0: Plane.XZ}),
        MeasurementPattern({0: 1.1}, {0: Plane.XZ}), id="xz",
    ))
    cases.append(pytest.param(
        edge, GFlow({0: {0}}, [{0}, {1}], {0: Plane.YZ}),
        MeasurementPattern({0: 1.9}, {0: Plane.YZ}), id="yz",
    ))
    triangle = OpenGraph(n=3, edges=[(0, 1), (0, 2), (1, 2)], inputs=(0,), outputs=(2,))
    cases.append(pytest.param(
        triangle, GFlow({0: {1}, 1: {1, 2}}, [{0}, {1}, {2}], {1: Plane.XZ}),
        MeasurementPattern({0: 0.7, 1: 2.3}, {1: Plane.XZ}), id="triangle-xz",
    ))
    path = OpenGraph(n=3, edges=[(0, 1), (1, 2)], inputs=(), outputs=(2,))
    cases.append(pytest.param(
        path, GFlow({0: {0}, 1: {2}}, [{0}, {1}, {2}], {0: Plane.YZ}),
        MeasurementPattern({0: 0.4, 1: 5.0}, {0: Plane.YZ}), id="path-yz",
    ))
    # An edgeless measured vertex holds |+>, so one outcome of each of
    # these never occurs: plus at XY angle pi, minus at XZ angle 0.
    isolated = OpenGraph(n=2, edges=[], inputs=(0,), outputs=(0,))
    cases.append(pytest.param(
        isolated, GFlow({1: {1}}, [{1}, {0}]), MeasurementPattern({1: np.pi}), id="zero-xy",
    ))
    cases.append(pytest.param(
        isolated, GFlow({1: {1}}, [{1}, {0}], {1: Plane.XZ}),
        MeasurementPattern({1: 0.0}, {1: Plane.XZ}), id="zero-xz",
    ))
    return cases


REFERENCE_CASES = _reference_cases()

#: The catalogue plus a gflow whose corrections cannot undo the -1 branch.
DIFFERENTIAL_CASES = REFERENCE_CASES + [
    pytest.param(
        path_graph(3),
        GFlow(corrections={0: {2}, 1: {2}}, layers=[{0}, {1}, {2}]),
        MeasurementPattern(angles={0: 0.9, 1: 1.7}),
        id="corrupted",
    ),
    # Outputs on two qubits, so the worst fidelity depends on which
    # surviving branch is the reference.
    pytest.param(
        cluster_graph(2, 3),
        GFlow({0: {2, 4}, 1: {1, 4}, 3: {2, 4}, 4: {2, 4}}, [{0, 3}, {1, 4}, {2, 5}]),
        MeasurementPattern(angles={0: 6.0, 1: 4.8, 3: 3.7, 4: 5.9}),
        id="corrupted-cluster",
    ),
]


def _unitary_cases():
    """Graphs whose unitary rows are laid out in more ways than the catalogue's.

    Inputs that are also outputs and so are never measured, measured
    inputs in the XZ and YZ planes, and k = 0.  XZ and YZ at angle 0
    measure X and Y, as XY at angles 0 and pi/2 do, so on an XY gFlow the
    map stays unitary; at a random angle it need not.  Two cases sit at
    the zero-probability rule: near XZ angle pi/2 the second input's bra
    reads 1e-7 on bit 1, a step probability of 1e-14, first on input 2,
    and a |+> qubit measured near XY angle pi has step probability
    1.5e-12 on every input, which is not 0.
    """
    rng = np.random.default_rng(24)
    cases = []
    sampled = [
        (graph, gflow)
        for graph, gflow in sample_graphs_with_gflow(40, seed=24, n_max=10)
        if graph.n > 2 * len(graph.inputs)  # some vertex is neither input nor output
    ][:6]
    for i, (graph, gflow) in enumerate(sampled):
        # An input that is an output is in no correcting set and is never
        # measured, so any edges to it keep the gFlow valid.
        w = graph.n
        edges = [*graph.edges, *((v, w) for v in range(w) if rng.random() < 0.5)]
        grown = OpenGraph(w + 1, edges, inputs=(*graph.inputs, w), outputs=(w, *graph.outputs))
        layers = [*gflow.layers[:-1], gflow.layers[-1] | {w}]
        angles = {v: float(rng.uniform(0, 2 * np.pi)) for v in graph.measured}
        cases.append(pytest.param(
            grown, GFlow(gflow.corrections, layers), MeasurementPattern(angles), id=f"io-overlap{i}",
        ))
    for i, (graph, gflow) in enumerate(sampled[:2]):
        v = graph.inputs[-1]
        for plane in (Plane.XZ, Plane.YZ):
            for angle, label in ((0.0, "zero"), (float(rng.uniform(0, 2 * np.pi)), "random")):
                angles = {u: float(rng.uniform(0, 2 * np.pi)) for u in graph.measured}
                angles[v] = angle
                cases.append(pytest.param(
                    graph, GFlow(gflow.corrections, gflow.layers, {v: plane}),
                    MeasurementPattern(angles, {v: plane}), id=f"{plane.value.lower()}-input-{label}{i}",
                ))
    pair = OpenGraph(n=4, edges=[(0, 2), (1, 3), (2, 3)], inputs=(0, 1), outputs=(2, 3))
    cases.append(pytest.param(
        pair, GFlow({0: {2}, 1: {3}}, [{0, 1}, {2, 3}], {1: Plane.XZ}),
        MeasurementPattern({0: 0.8, 1: np.pi / 2 - 2e-7}, {1: Plane.XZ}), id="xz-input-vanishes",
    ))
    isolated = OpenGraph(n=2, edges=[], inputs=(0,), outputs=(0,))
    cases.append(pytest.param(
        isolated, GFlow({1: {1}}, [{1}, {0}]),
        MeasurementPattern({1: np.pi - 2 * np.sqrt(1.5e-12)}), id="near-zero-xy",
    ))
    triangle = OpenGraph(n=3, edges=[(0, 1), (0, 2), (1, 2)], inputs=(0, 1, 2), outputs=(2, 0, 1))
    cases.append(pytest.param(
        triangle, GFlow({}, [{0, 1, 2}]), MeasurementPattern({}), id="all-inputs-are-outputs",
    ))
    closed = OpenGraph(n=3, edges=[(0, 1), (1, 2)])
    cases.append(pytest.param(
        closed, GFlow({0: {1}, 1: {2}, 2: {2}}, [{0}, {1}, {2}, set()], {2: Plane.YZ}),
        MeasurementPattern({0: 0.3, 1: 4.1, 2: 2.2}, {2: Plane.YZ}), id="k0",
    ))
    cases.append(pytest.param(
        OpenGraph(n=1, edges=[]), GFlow({0: {0}}, [{0}, set()]),
        MeasurementPattern({0: np.pi}), id="k0-zero",
    ))
    return cases


UNITARY_CASES = _unitary_cases()


def determinism_from_branches(graph, gflow, pattern, seed):
    """The determinism report rebuilt from run_branch over all 2^m branches."""
    measured = sorted(gflow.measurement_order)
    rng = np.random.default_rng(seed)
    k = len(graph.inputs)
    psi = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    psi /= np.linalg.norm(psi)
    reference = None
    worst, max_dev, total, ok = 1.0, 0.0, 0.0, True
    for mask in range(1 << len(measured)):
        bits = {v: (mask >> pos) & 1 for pos, v in enumerate(measured)}
        record = run_branch(graph, gflow, pattern, bits, psi)
        total += record.probability
        if record.output_state is None:
            continue
        max_dev = max([max_dev, *(abs(p - 0.5) for p in record.step_probabilities)])
        if reference is None:
            reference = record.output_state
            continue
        fidelity = float(abs(np.vdot(reference, record.output_state)) ** 2)
        worst = min(worst, fidelity)
        ok = ok and fidelity >= 1 - 1e-9
    return DeterminismReport(ok, worst, max_dev, total, 1 << len(measured))


def unitary_from_columns(graph, gflow, pattern):
    """The all-+1 branch run by run_branch on each basis input, one column each.

    The columns are checked for unitarity as ``oracle_unitary`` checks them.
    """
    k = len(graph.inputs)
    if k != len(graph.outputs):
        raise ValueError("unitary extraction needs equally many inputs and outputs")
    bits = dict.fromkeys(gflow.measurement_order, 0)
    columns = np.zeros((1 << k, 1 << k), dtype=complex)
    for b in range(1 << k):
        record = run_branch(graph, gflow, pattern, bits, np.eye(1 << k)[b])
        if record.output_state is None:
            raise DeterminismError(f"branch 0 has zero probability on input {b}")
        columns[:, b] = record.output_state * np.sqrt(record.probability)
    return canonical_unitary(columns / np.linalg.norm(columns[:, 0]), "assembled")


#: Each case small enough for the Kronecker reference: permuted outputs,
#: inputs that are outputs, XZ and YZ inputs, k = 0 and corrupted gFlows.
SMALL_CASES = [c for c in DIFFERENTIAL_CASES + UNITARY_CASES if c.values[0].n <= 7]


class TestRunBranchAgainstReference:
    @pytest.mark.parametrize("graph,gflow,pattern", SMALL_CASES)
    def test_every_branch_matches(self, graph, gflow, pattern, request):
        # near-zero-xy renormalises by its 1.5e-12 step probability, which
        # scales the two sides' rounding to about 7e-12 on the output state.
        bound = 1e-11 if request.node.callspec.id == "near-zero-xy" else 1e-12
        rng = np.random.default_rng(graph.n)
        k = len(graph.inputs)
        psi = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
        order = [v for layer in gflow.layers[:-1] for v in sorted(layer)]
        for mask in range(1 << len(order)):
            bits = {v: (mask >> pos) & 1 for pos, v in enumerate(order)}
            record = run_branch(graph, gflow, pattern, bits, psi)
            steps, expected = reference_branch(graph, gflow, pattern, bits, psi)
            assert len(record.step_probabilities) == len(steps)
            assert np.max(np.abs(np.subtract(record.step_probabilities, steps)), initial=0.0) < 1e-12
            if expected is None:
                assert record.output_state is None and record.probability == 0.0
            else:
                assert max_deviation_up_to_phase(expected, record.output_state) < bound

    @pytest.mark.parametrize("graph,gflow,pattern", DIFFERENTIAL_CASES)
    def test_walk_matches_branch_runs(self, graph, gflow, pattern):
        for seed in (0, 5):
            report = check_determinism(graph, gflow, pattern, seed=seed)
            expected = determinism_from_branches(graph, gflow, pattern, seed)
            assert (report.ok, report.branch_count) == (expected.ok, expected.branch_count)
            # The walk's worst fidelity is per step, the branches' over final
            # outputs: both read 1 where the pattern is deterministic.
            fields = ["max_probability_deviation", "total_probability"]
            if report.ok:
                fields.append("worst_fidelity")
            for field in fields:
                assert abs(getattr(report, field) - getattr(expected, field)) < 1e-12

    @pytest.mark.parametrize("graph,gflow,pattern", DIFFERENTIAL_CASES + UNITARY_CASES)
    def test_batched_unitary_matches_column_runs(self, graph, gflow, pattern):
        try:
            expected = unitary_from_columns(graph, gflow, pattern)
        except (ValueError, DeterminismError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                oracle_unitary(graph, gflow, pattern)
            return
        assert np.max(np.abs(oracle_unitary(graph, gflow, pattern) - expected)) < 1e-12

    def test_unitary_cases_cover_the_row_layout(self):
        cases = {c.id: c.values for c in UNITARY_CASES}
        outcomes = {}
        for name, (graph, gflow, pattern) in cases.items():
            if name.startswith("io-overlap"):
                assert verify_gflow(graph, gflow) == []
                assert graph.input_set & graph.output_set
                assert graph.input_set - graph.output_set
            try:
                unitary_from_columns(graph, gflow, pattern)
                outcomes[name] = "unitary"
            except DeterminismError as exc:
                outcomes[name] = str(exc)
        assert {outcomes[f"{p}-input-zero{i}"] for p in ("xz", "yz") for i in (0, 1)} == {"unitary"}
        assert any(outcomes[f"{p}-input-random{i}"] != "unitary" for p in ("xz", "yz") for i in (0, 1))
        assert outcomes["xz-input-vanishes"] == "branch 0 has zero probability on input 2"
        assert outcomes["all-inputs-are-outputs"] == outcomes["k0"] == "unitary"
        assert outcomes["near-zero-xy"] == "unitary"
        assert outcomes["k0-zero"] == "branch 0 has zero probability on input 0"
        assert len(cases["k0"][0].inputs) == 0

    def test_differential_cases_include_failures(self):
        cases = {c.id: c.values for c in DIFFERENTIAL_CASES}
        assert not determinism_from_branches(*cases["corrupted"], seed=5).ok
        assert not determinism_from_branches(*cases["corrupted-cluster"], seed=0).ok
        with pytest.raises(DeterminismError, match="zero probability"):
            unitary_from_columns(*cases["zero-xy"])

    def test_cases_cover_planes_and_zero_branches(self):
        planes = {p for c in REFERENCE_CASES for p in c.values[1].planes.values()}
        assert planes == set(Plane)
        assert max(c.values[0].n for c in REFERENCE_CASES) <= 6
        for c in REFERENCE_CASES:
            graph, gflow, pattern = c.values
            if c.id.startswith("zero"):
                psi = np.ones(1 << len(graph.inputs))
                branches = [reference_branch(graph, gflow, pattern, {1: b}, psi) for b in (0, 1)]
                assert [state is None for _, state in branches].count(True) == 1
            else:
                assert verify_gflow(graph, gflow) == []


def _corrupted_gflows():
    """Seeded gFlows with one non-input toggled in one correcting set, at random angles."""
    rng = np.random.default_rng(31)
    sources = [(inst.graph, inst.gflow) for inst in bench_pool("exact-small", 1)]
    sources += sample_graphs_with_gflow(40, seed=31, n_max=8)
    cases = []
    for graph, gflow in sources:
        if not gflow.corrections:
            continue
        v = int(rng.choice(sorted(gflow.corrections)))
        w = int(rng.choice(sorted(set(range(graph.n)) - graph.input_set)))
        corrections = {**gflow.corrections, v: gflow.corrections[v] ^ {w}}
        angles = {u: float(rng.uniform(0, 2 * np.pi)) for u in graph.measured}
        cases.append((
            graph, GFlow(corrections, gflow.layers, gflow.planes), MeasurementPattern(angles, gflow.planes),
        ))
    return cases


class TestWalkAgainstBatch:
    """The walk gives the verdict of the branch batch it replaced (``tests/oracle_reference.py``)."""

    @staticmethod
    def same_verdict(graph, gflow, pattern, seed=0):
        walk = check_determinism(graph, gflow, pattern, seed=seed)
        batch = oracle_reference.check_determinism(graph, gflow, pattern, seed=seed)
        assert (walk.ok, walk.branch_count) == (batch.ok, batch.branch_count)
        if walk.ok:
            for field in ("max_probability_deviation", "total_probability"):
                assert abs(getattr(walk, field) - getattr(batch, field)) < 1e-12
        return walk.ok

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_exact_small_pools(self, seed):
        for inst in bench_pool("exact-small", seed):
            assert self.same_verdict(inst.graph, inst.gflow, inst.pattern)

    @pytest.mark.parametrize("graph,gflow,pattern", DIFFERENTIAL_CASES)
    def test_oracle_cases(self, graph, gflow, pattern):
        for seed in (0, 5):
            self.same_verdict(graph, gflow, pattern, seed)

    def test_seeded_corrupted_gflows(self):
        verdicts = [self.same_verdict(*case, seed=3) for case in _corrupted_gflows()]
        assert verdicts.count(False) > len(verdicts) // 2

    def test_walk_is_stricter_than_final_outputs(self):
        # g(0) is empty, so after a -1 outcome at 0 the state keeps Z on 1, and
        # the walk rejects step 0.  YZ at pi/2 measures Z, which turns that Z
        # into a sign, so every branch still ends in the same output.
        graph = OpenGraph(n=3, edges=[(0, 1), (1, 2)], inputs=(0,), outputs=(2,))
        gflow = GFlow({0: set(), 1: {1, 2}}, [{0}, {1}, {2}], {1: Plane.YZ})
        pattern = MeasurementPattern({0: np.pi / 2, 1: np.pi / 2}, {1: Plane.YZ})
        assert oracle_reference.check_determinism(graph, gflow, pattern).ok
        assert not check_determinism(graph, gflow, pattern).ok


def relabelled(graph, gflow, pattern, rng, keep_rounds=False):
    """The instance under a seeded renaming of its vertices that keeps the input and output order.

    With ``keep_rounds`` each round keeps its order of measurement too.
    """
    mapping = dict(enumerate(rng.permutation(graph.n).tolist()))
    if keep_rounds:
        for layer in gflow.layers[:-1]:
            mapping.update(zip(sorted(layer), sorted(mapping[v] for v in layer)))
    graph, gflow = relabel(graph, gflow, mapping, graph.n)
    pattern = MeasurementPattern(
        angles={mapping[v]: a for v, a in pattern.angles.items()},
        planes={mapping[v]: p for v, p in pattern.planes.items()},
    )
    return graph, gflow, pattern


class TestRelabelling:
    """Renaming the vertices, with the input and output order kept, changes no exact result."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_exact_small_pools(self, seed):
        rng = np.random.default_rng(seed)
        for inst in bench_pool("exact-small", seed):
            graph, gflow, pattern = relabelled(inst.graph, inst.gflow, inst.pattern, rng)
            want = oracle_unitary(inst.graph, inst.gflow, inst.pattern)
            assert np.max(np.abs(oracle_unitary(graph, gflow, pattern) - want)) <= 1e-12
            want = check_determinism(inst.graph, inst.gflow, inst.pattern)
            got = check_determinism(graph, gflow, pattern)
            assert (got.ok, got.branch_count) == (want.ok, want.branch_count)
            for exact in (entanglement_width_exact, structural_entanglement_exact):
                assert exact(graph) == exact(inst.graph)

    def test_corrupted_gflows(self):
        # A round is measured in label order.  A corrupted correction can
        # reach a vertex of its own round, and then the verdict depends on
        # that order, so the renaming keeps it.
        rng = np.random.default_rng(37)
        for case in _corrupted_gflows():
            relabelled_case = relabelled(*case, rng, keep_rounds=True)
            assert check_determinism(*relabelled_case).ok == check_determinism(*case).ok


class TestRunBranch:
    def test_path2_positive_branch_is_hadamard_rotation(self, rng):
        g, fl = path_graph(2), path_flow(2)
        theta = 1.1
        pat = MeasurementPattern(angles={0: theta})
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        record = run_branch(g, fl, pat, {0: 0}, psi)
        expected = H @ np.diag([1, np.exp(-1j * theta)]) @ psi
        assert max_deviation_up_to_phase(expected, record.output_state) < 1e-9
        assert abs(record.probability - 0.5) < 1e-12

    def test_both_branches_agree_after_correction(self, rng):
        g, fl = path_graph(2), path_flow(2)
        pat = MeasurementPattern(angles={0: 0.4})
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        rec0 = run_branch(g, fl, pat, {0: 0}, psi)
        rec1 = run_branch(g, fl, pat, {0: 1}, psi)
        assert max_deviation_up_to_phase(rec0.output_state, rec1.output_state) < 1e-9

    def test_zero_probability_branch_reported(self):
        # An edgeless non-input vertex holds |+>; the XY basis at angle pi
        # has |-> as its plus state, so the plus outcome never occurs, and
        # the branch ends there: vertex 2 is never measured.  (The gflow
        # is never consulted on this branch; only the projection
        # semantics is under test.)
        g = OpenGraph(n=3, edges=[], inputs=(0,), outputs=(0,))
        gf = GFlow(corrections={1: {1}, 2: {2}}, layers=[{1}, {2}, {0}])
        pat = MeasurementPattern(angles={1: np.pi, 2: 0.3})
        record = run_branch(g, gf, pat, {1: 0, 2: 0})
        assert record.probability == 0.0
        assert record.output_state is None
        assert record.step_probabilities == (0.0,)
        assert record.outcomes == {1: 0}

    def test_missing_bits_rejected(self):
        g, fl = path_graph(3), path_flow(3)
        pat = MeasurementPattern(angles={0: 0.1, 1: 0.2})
        with pytest.raises(ValueError, match="branch bits"):
            run_branch(g, fl, pat, {0: 0})

    @pytest.mark.parametrize("entry", ["run_branch", "check_determinism", "oracle_unitary"])
    def test_layers_missing_a_measured_vertex_are_named(self, entry):
        # Vertex 1 is measured but sits in no layer of the gflow.
        inputs = (0,) if entry == "oracle_unitary" else ()
        g = OpenGraph(n=3, edges=[(0, 1), (1, 2)], inputs=inputs, outputs=(2,))
        gf = GFlow({0: {1}}, [{0}, {2}])
        pat = MeasurementPattern(angles={0: 0.3, 1: 0.7})
        calls = {
            "run_branch": lambda: run_branch(g, gf, pat, {0: 0}),
            "check_determinism": lambda: check_determinism(g, gf, pat),
            "oracle_unitary": lambda: oracle_unitary(g, gf, pat),
        }
        with pytest.raises(ValueError, match="^layers must partition the vertex set$"):
            calls[entry]()

    @pytest.mark.parametrize(
        "entry", ["verify_gflow", "run_branch", "check_determinism", "oracle_unitary"]
    )
    def test_every_entry_point_gives_one_layer_shape_message(self, entry):
        # Measured vertex 2 sits in the output layer of path 4.
        g, gf = path_graph(4), GFlow({0: {1}, 1: {2}}, [[0], [1], [2, 3]])
        pat = MeasurementPattern(angles={0: 0.3, 1: 0.7})
        calls = {
            "verify_gflow": lambda: verify_gflow(g, gf),
            "run_branch": lambda: run_branch(g, gf, pat, {0: 0, 1: 0}),
            "check_determinism": lambda: check_determinism(g, gf, pat),
            "oracle_unitary": lambda: oracle_unitary(g, gf, pat),
        }
        with pytest.raises(ValueError, match="^final layer must hold exactly the outputs$"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["run_branch", "check_determinism", "oracle_unitary"])
    def test_every_path_checks_dense_limit_and_pattern(self, entry):
        calls = {
            "run_branch": lambda g, f, p: run_branch(g, f, p, dict.fromkeys(f.measurement_order, 0)),
            "check_determinism": check_determinism,
            "oracle_unitary": oracle_unitary,
        }
        g, fl = path_graph(15), path_flow(15)
        with pytest.raises(BudgetExceededError, match="15 qubits exceed --budget-dense 14"):
            calls[entry](g, fl, MeasurementPattern(angles=dict.fromkeys(range(14), 0.3)))
        g, fl = path_graph(2), path_flow(2)
        with pytest.raises(ValueError, match="conflicts"):
            calls[entry](g, fl, MeasurementPattern(angles={0: 0.3}, planes={0: Plane.XZ}))

    @pytest.mark.parametrize("entry", ["run_branch", "check_determinism", "oracle_unitary"])
    def test_pattern_is_checked_before_the_state_is_built(self, entry, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the state was built before the pattern was checked")

        monkeypatch.setattr(oracle_mod, "build_open_graph_state", refuse)
        calls = {
            "run_branch": lambda g, f, p: run_branch(g, f, p, dict.fromkeys(f.measurement_order, 0)),
            "check_determinism": check_determinism,
            "oracle_unitary": oracle_unitary,
        }
        g, fl = path_graph(28), path_flow(28)
        with pytest.raises(ValueError, match=r"^pattern missing angles for vertices \[0, 1, .* 26\]$"):
            calls[entry](g, fl, MeasurementPattern(angles={}))

    def test_branch_probabilities_sum_to_one(self, rng):
        g, fl = cluster_graph(2, 2), cluster_row_flow(2, 2)
        pat = MeasurementPattern(
            angles={v: float(rng.uniform(0, 2 * np.pi)) for v in g.measured}
        )
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        total = 0.0
        for mask in range(4):
            bits = {0: mask & 1, 2: (mask >> 1) & 1}
            total += run_branch(g, fl, pat, bits, psi).probability
        assert abs(total - 1.0) < 1e-9


class TestCheckDeterminism:
    @pytest.mark.parametrize("angle", [0.3, 1.1, 2.7])
    def test_xz_plane_corrections_restore_determinism(self, angle):
        # g(0) = {0, 1} satisfies the XZ conditions (0 in its own set and
        # in the odd neighbourhood); the correction is the plane's Y flip
        # times both stabilizers.
        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(), outputs=(1,))
        gf = GFlow(corrections={0: {0, 1}}, layers=[{0}, {1}], planes={0: Plane.XZ})
        pat = MeasurementPattern(angles={0: angle}, planes={0: Plane.XZ})
        report = check_determinism(g, gf, pat, seed=7)
        assert report.ok
        assert report.max_probability_deviation < 1e-9

    @pytest.mark.parametrize("angle", [0.2, 1.9])
    def test_yz_plane_corrections_restore_determinism(self, angle):
        # g(0) = {0} satisfies the YZ conditions (0 in its own set, not
        # in the odd neighbourhood); the correction reduces to Z on the
        # output neighbour.
        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(), outputs=(1,))
        gf = GFlow(corrections={0: {0}}, layers=[{0}, {1}], planes={0: Plane.YZ})
        pat = MeasurementPattern(angles={0: angle}, planes={0: Plane.YZ})
        report = check_determinism(g, gf, pat, seed=7)
        assert report.ok

    def test_plane_mismatch_rejected(self):
        g, fl = path_graph(2), path_flow(2)
        pat = MeasurementPattern(angles={0: 0.3}, planes={0: Plane.XZ})
        with pytest.raises(ValueError, match="conflicts"):
            run_branch(g, fl, pat, {0: 0})

    def test_valid_gflow_is_deterministic(self, rng):
        g, fl = cluster_graph(2, 2), cluster_row_flow(2, 2)
        pat = MeasurementPattern(
            angles={v: float(rng.uniform(0, 2 * np.pi)) for v in g.measured}
        )
        report = check_determinism(g, fl, pat, seed=4)
        assert report.ok
        assert report.worst_fidelity >= 1 - 1e-9
        assert report.max_probability_deviation < 1e-9
        assert abs(report.total_probability - 1.0) < 1e-9

    def test_corrupted_corrections_break_determinism(self):
        g = path_graph(3)
        # g(0) = {2} is not oddly connected to 0, so its correction
        # cannot undo the minus branch.
        corrupted = GFlow(corrections={0: {2}, 1: {2}}, layers=[{0}, {1}, {2}])
        pat = MeasurementPattern(angles={0: 0.9, 1: 1.7})
        report = check_determinism(g, corrupted, pat, seed=5)
        assert not report.ok

    @pytest.mark.parametrize(
        "graph,gflow",
        [(path_graph(5), path_flow(5)), (cluster_graph(2, 4), cluster_row_flow(2, 4))],
        ids=["path-5", "cluster-2x4"],
    )
    @pytest.mark.parametrize("entry", ["walk", "branch", "unitary"])
    def test_one_contraction_per_step_on_a_halving_row(self, graph, gflow, entry, monkeypatch):
        # Every step contracts the top bit of what is left of each row: shape
        # (rows, 2, half), half halving from one step to the next.  The walk
        # holds one row and contracts it once per step against both bras; it
        # never measures a batch of branches.
        shapes = []

        class CountingBras(np.ndarray):
            def __matmul__(self, other):
                shapes.append(other.shape)
                return np.asarray(self) @ other

        prepare = oracle_mod._prepare

        def counting(*args):
            state, steps = prepare(*args)
            return state, [s._replace(bras=s.bras.view(CountingBras)) for s in steps]

        monkeypatch.setattr(oracle_mod, "_prepare", counting)
        pat = MeasurementPattern(angles={v: 0.4 + v for v in graph.measured})
        m, k = len(graph.measured), len(graph.inputs)
        if entry == "walk":
            monkeypatch.setattr(oracle_mod, "_measure", None)
            assert check_determinism(graph, gflow, pat, seed=1).ok
            assert shapes == [(2, 1 << (graph.n - 1 - t)) for t in range(m)]
        elif entry == "branch":
            run_branch(graph, gflow, pat, full_branch_bits(gflow, 1))
            assert shapes == [(1, 2, 1 << (graph.n - 1 - t)) for t in range(m)]
        else:
            oracle_unitary(graph, gflow, pat)
            steps = len(set(graph.measured) - graph.input_set)
            assert shapes == [(1 << k, 2, 1 << (graph.n - k - 1 - t)) for t in range(steps)]

    def test_dense_limit_cluster(self):
        # cluster 2x7 holds the most qubits the default dense limit allows.
        graph, gflow = cluster_graph(2, 7), cluster_row_flow(2, 7)
        assert (graph.n, len(graph.measured)) == (DEFAULT_DENSE_LIMIT, 12)
        rng = np.random.default_rng(14)
        pattern = MeasurementPattern({v: float(rng.uniform(0, 2 * np.pi)) for v in graph.measured})
        report = check_determinism(graph, gflow, pattern, seed=1)
        assert report.ok and report.branch_count == 1 << 12
        assert abs(report.total_probability - 1.0) < 1e-9
        # g(0) = {2} is not oddly connected to 0, so it cannot undo step 0.
        corrupted = GFlow({**gflow.corrections, 0: {2}}, gflow.layers)
        assert [v.vertex for v in verify_gflow(graph, corrupted)] == [0]
        assert not check_determinism(graph, corrupted, pattern, seed=1).ok

    def test_measured_vertex_without_a_correcting_set_is_rejected(self):
        # Every step of the oracle has a correction, because a gFlow that
        # lacks one for a measured vertex cannot be built.
        with pytest.raises(ValueError, match=r"rounds differ on vertices \[1\]$"):
            GFlow(corrections={}, layers=[{1}, {0}])

    def test_nothing_measured_is_vacuously_deterministic(self):
        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(0, 1), outputs=(0, 1))
        gf = GFlow(corrections={}, layers=[{0, 1}])
        report = check_determinism(g, gf, MeasurementPattern(angles={}))
        assert report.ok
        assert report.branch_count == 1

    def test_branch_budget_is_accepted_and_ignored(self):
        g, fl = path_graph(5), path_flow(5)
        pat = MeasurementPattern(angles={v: 0.1 for v in range(4)})
        assert check_determinism(g, fl, pat, branch_budget=1) == check_determinism(g, fl, pat)


class TestOracleUnitary:
    def test_path2_theta_zero_is_hadamard(self):
        g, fl = path_graph(2), path_flow(2)
        u = oracle_unitary(g, fl, MeasurementPattern(angles={0: 0.0}))
        assert max_deviation_up_to_phase(u, H) < 1e-9

    def test_path3_composes_single_qubit_maps(self):
        alpha, beta = 0.3, 1.2
        g, fl = path_graph(3), path_flow(3)
        u = oracle_unitary(g, fl, MeasurementPattern(angles={0: alpha, 1: beta}))
        j = lambda t: H @ np.diag([1, np.exp(-1j * t)])
        assert max_deviation_up_to_phase(u, j(beta) @ j(alpha)) < 1e-9

    def test_string_planes_are_coerced(self):
        g, fl = path_graph(3), path_flow(3)
        by_name = MeasurementPattern(angles={0: 0.1, 1: 0.2}, planes={0: "XY", 1: "XY"})
        by_enum = MeasurementPattern(angles={0: 0.1, 1: 0.2}, planes={0: Plane.XY, 1: Plane.XY})
        assert by_name == by_enum
        assert np.array_equal(oracle_unitary(g, fl, by_name), oracle_unitary(g, fl, by_enum))
        with pytest.raises(ValueError, match="'QQ' is not a valid Plane"):
            MeasurementPattern(angles={0: 0.1}, planes={0: "QQ"})

    def test_identity_pattern(self):
        g = OpenGraph(n=2, edges=[], inputs=(0, 1), outputs=(0, 1))
        gf = GFlow(corrections={}, layers=[{0, 1}])
        u = oracle_unitary(g, gf, MeasurementPattern(angles={}))
        assert max_deviation_up_to_phase(u, np.eye(4)) < 1e-9

    def test_no_measurements_keep_edge_entangler(self):
        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(0, 1), outputs=(0, 1))
        gf = GFlow(corrections={}, layers=[{0, 1}])
        u = oracle_unitary(g, gf, MeasurementPattern(angles={}))
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        assert max_deviation_up_to_phase(u, cz) < 1e-9

    def test_io_size_mismatch_rejected(self):
        g = OpenGraph(n=3, edges=[(0, 1), (1, 2)], inputs=(0,), outputs=(1, 2))
        gf = GFlow(corrections={0: {1}}, layers=[{0}, {1, 2}])
        with pytest.raises(ValueError):
            oracle_unitary(g, gf, MeasurementPattern(angles={0: 0.0}))

    def test_dense_limit_comes_before_the_column_matrix(self):
        # The 2^20 x 2^20 column matrix would need 16 TiB.
        g = OpenGraph(
            n=40, edges=[(i, i + 20) for i in range(20)], inputs=range(20), outputs=range(20, 40)
        )
        gf = GFlow({i: {i + 20} for i in range(20)}, [set(range(20)), set(range(20, 40))])
        with pytest.raises(BudgetExceededError, match="^40 qubits exceed --budget-dense 14$"):
            oracle_unitary(g, gf, MeasurementPattern(dict.fromkeys(range(20), 0.1)))

    @pytest.mark.parametrize(
        "graph,gflow,pattern",
        [c for c in UNITARY_CASES if c.id.startswith("io-overlap")] + [
            pytest.param(
                path_graph(5), path_flow(5), MeasurementPattern(dict.fromkeys(range(4), 0.4)),
                id="path-5",
            ),
            pytest.param(
                cluster_graph(2, 4), cluster_row_flow(2, 4),
                MeasurementPattern({v: 0.4 + v for v in cluster_graph(2, 4).measured}),
                id="cluster-2x4",
            ),
        ],
    )
    def test_one_contraction_per_measured_non_input(self, graph, gflow, pattern, monkeypatch):
        # All basis inputs share one batch, cut from the one built state.
        sizes = []
        measure = oracle_mod._measure

        def counting(state, step, outcome):
            sizes.append(state.size)
            return measure(state, step, outcome)

        monkeypatch.setattr(oracle_mod, "_measure", counting)
        oracle_unitary(graph, gflow, pattern)
        assert len(sizes) == len(set(graph.measured) - graph.input_set)
        assert sizes[0] == 1 << graph.n
        assert max(sizes) <= 1 << graph.n

    def test_unitary_counts_as_twice_its_qubits(self):
        # A k-qubit unitary holds 4^k amplitudes, as many as a 2k-qubit state.
        g = OpenGraph(n=12, edges=[(i, i + 1) for i in range(11)], inputs=range(12), outputs=range(12))
        gf, pattern = GFlow({}, [set(range(12))]), MeasurementPattern({})
        with pytest.raises(
            BudgetExceededError,
            match=r"^24 qubits exceed --budget-dense 14 \(a 12-qubit unitary holds 4\^12 amplitudes\)$",
        ):
            oracle_unitary(g, gf, pattern)
        g = OpenGraph(n=4, edges=[(0, 1), (1, 2), (2, 3)], inputs=range(4), outputs=range(4))
        gf = GFlow({}, [set(range(4))])
        with pytest.raises(BudgetExceededError, match=r"^8 qubits exceed --budget-dense 7 "):
            oracle_unitary(g, gf, pattern, dense_limit=7)
        assert oracle_unitary(g, gf, pattern, dense_limit=8).shape == (16, 16)

    def test_non_deterministic_pattern_raises(self):
        from mbqcflow import DeterminismError

        # Measuring one of two disconnected vertices loses the input:
        # the branch-0 columns assemble into a singular map.
        g = OpenGraph(n=2, edges=[], inputs=(0,), outputs=(1,))
        gf = GFlow(corrections={0: {1}}, layers=[{0}, {1}])
        with pytest.raises(DeterminismError):
            oracle_unitary(g, gf, MeasurementPattern(angles={0: 0.4}))


    def test_invalid_gflow_assembles_a_map_that_is_not_unitary(self):
        # Found by a seeded search over small graphs measured in one round:
        # on the triangle the all-+1 columns are not orthonormal.
        g = OpenGraph(n=3, edges=[(0, 1), (0, 2), (1, 2)], inputs=(0,), outputs=(2,))
        gf = GFlow(corrections={0: {2}, 1: {2}}, layers=[{0, 1}, {2}])
        assert verify_gflow(g, gf)
        pattern = MeasurementPattern(angles={0: np.pi, 1: 3 * np.pi / 4})
        with pytest.raises(
            DeterminismError, match=r"^assembled map deviates from unitarity by 7\.07e-01$"
        ):
            oracle_unitary(g, gf, pattern)


class TestSchmidtRank:
    def test_product_state(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        assert schmidt_rank_log2(state, 2, {0}) == 0
        assert schmidt_rank_log2(np.zeros(4, dtype=complex), 2, {0}) == 0

    def test_rank_three_is_not_a_power_of_two(self):
        # (|00,00> + |01,01> + |10,10>)/sqrt(3) across qubits {0, 1} | {2, 3}.
        state = np.zeros(16, dtype=complex)
        state[[0b0000, 0b0101, 0b1010]] = 1 / np.sqrt(3)
        with pytest.raises(ValueError, match="^Schmidt rank 3 is not a power of two$"):
            schmidt_rank_log2(state, 4, {0, 1})

    def test_bell_state(self):
        state = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert schmidt_rank_log2(state, 2, {0}) == 1

    def test_local_complementation_keeps_every_cut(self):
        # Local complementation maps a graph state by a local Clifford (Van
        # den Nest, Dehaene and De Moor, PRA 69, 022316, 2004), so no Schmidt
        # rank of the built state changes.  Each cut is one side without the
        # last vertex; each graph is complemented at a seeded vertex with
        # two neighbours or more, so its edges change.
        rng = np.random.default_rng(38)
        for n in [6 + i % 5 for i in range(10)]:
            graph = random_open_graph(rng, n_min=n, n_max=n, with_io=False)
            v = int(rng.choice([u for u in range(n) if len(graph.neighbors(u)) > 1]))
            complemented = local_complement(graph, v)
            assert complemented.edges != graph.edges
            sides = [[q for q in range(n) if mask >> q & 1] for mask in range(1, 1 << (n - 1))]
            states = [build_open_graph_state(g) for g in (graph, complemented)]
            ranks = [[schmidt_rank_log2(state, n, side) for side in sides] for state in states]
            assert ranks[0] == ranks[1], (n, v)
            assert max(ranks[0]) > 1

    def test_normalize_phase(self):
        vec = np.array([0.0, -1j, 1.0])
        fixed = normalize_phase(vec)
        assert fixed[1].real > 0 and abs(fixed[1].imag) < 1e-12
        zero = np.zeros(3, dtype=complex)
        assert np.array_equal(normalize_phase(zero), zero)
