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
    oracle_unitary,
    run_branch,
    schmidt_rank_log2,
    verify_gflow,
)
from mbqcflow import oracle as oracle_mod
from mbqcflow.oracle import apply_word_masks, measurement_basis, normalize_phase
from mbqcflow.fixtures import cluster_graph, cluster_row_flow, path_flow, path_graph

from conftest import max_deviation_up_to_phase, sample_graphs_with_gflow

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
        projector = (np.eye(2) + sign * observable(pattern.plane(v), pattern.angle(v))) / 2
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
    """The all-+1 branch run by run_branch on each basis input, one column each."""
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
    return normalize_phase(columns / np.linalg.norm(columns[:, 0]))


class TestRunBranchAgainstReference:
    @pytest.mark.parametrize("graph,gflow,pattern", REFERENCE_CASES)
    def test_every_branch_matches(self, graph, gflow, pattern):
        rng = np.random.default_rng(graph.n)
        k = len(graph.inputs)
        psi = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
        order = [v for layer in gflow.layers[:-1] for v in sorted(layer)]
        for mask in range(1 << len(order)):
            bits = {v: (mask >> pos) & 1 for pos, v in enumerate(order)}
            record = run_branch(graph, gflow, pattern, bits, psi)
            steps, expected = reference_branch(graph, gflow, pattern, bits, psi)
            assert len(record.step_probabilities) == len(steps)
            assert np.max(np.abs(np.subtract(record.step_probabilities, steps))) < 1e-12
            if expected is None:
                assert record.output_state is None and record.probability == 0.0
            else:
                assert max_deviation_up_to_phase(expected, record.output_state) < 1e-12

    @pytest.mark.parametrize("graph,gflow,pattern", DIFFERENTIAL_CASES)
    def test_walk_matches_branch_runs(self, graph, gflow, pattern):
        for seed in (0, 5):
            report = check_determinism(graph, gflow, pattern, seed=seed)
            expected = determinism_from_branches(graph, gflow, pattern, seed)
            assert (report.ok, report.branch_count) == (expected.ok, expected.branch_count)
            for field in ("worst_fidelity", "max_probability_deviation", "total_probability"):
                assert abs(getattr(report, field) - getattr(expected, field)) < 1e-12

    @pytest.mark.parametrize("graph,gflow,pattern", DIFFERENTIAL_CASES)
    def test_batched_unitary_matches_column_runs(self, graph, gflow, pattern, monkeypatch):
        try:
            expected = unitary_from_columns(graph, gflow, pattern)
        except (ValueError, DeterminismError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                oracle_unitary(graph, gflow, pattern)
            return
        assert np.max(np.abs(oracle_unitary(graph, gflow, pattern) - expected)) < 1e-12
        # Batches of one input and of two give the same columns.
        for columns in (1, 2):
            monkeypatch.setattr(oracle_mod, "_BATCH_AMPLITUDES", columns << graph.n)
            assert np.max(np.abs(oracle_unitary(graph, gflow, pattern) - expected)) < 1e-12

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
        # has |-> as its plus state, so the plus outcome never occurs.
        # (The gflow is never consulted on this branch; only the
        # projection semantics is under test.)
        g = OpenGraph(n=2, edges=[], inputs=(0,), outputs=(0,))
        gf = GFlow(corrections={1: {1}}, layers=[{1}, {0}])
        pat = MeasurementPattern(angles={1: np.pi})
        record = run_branch(g, gf, pat, {1: 0})
        assert record.probability == 0.0
        assert record.output_state is None

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
        with pytest.raises(
            ValueError,
            match=r"gflow layers measure \[0\] but the non-output vertices are \[0, 1\]",
        ):
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
    def test_one_batched_contraction_per_step_and_outcome(self, graph, gflow, monkeypatch):
        # Each step measures every surviving prefix with both outcomes, one
        # call per outcome, and the batch never outgrows the built state.
        sizes = []
        measure = oracle_mod._measure

        def counting(state, step, outcome):
            sizes.append(state.size)
            return measure(state, step, outcome)

        monkeypatch.setattr(oracle_mod, "_measure", counting)
        pat = MeasurementPattern(angles={v: 0.4 + v for v in graph.measured})
        assert check_determinism(graph, gflow, pat, seed=1).ok
        assert len(sizes) == 2 * len(graph.measured)
        assert max(sizes) <= 1 << graph.n

    def test_missing_correcting_set_matters_only_on_a_live_minus_branch(self):
        # Vertex 1 holds |+> and has no correcting set.  At angle 0 its -1
        # outcome has probability 0, so nothing needs correcting; at pi
        # the -1 outcome is certain.
        g = OpenGraph(n=2, edges=[], inputs=(0,), outputs=(0,))
        gf = GFlow(corrections={}, layers=[{1}, {0}])
        plus = MeasurementPattern(angles={1: 0.0})
        assert check_determinism(g, gf, plus).ok
        assert run_branch(g, gf, plus, {1: 1}).probability == 0.0
        minus = MeasurementPattern(angles={1: np.pi})
        with pytest.raises(ValueError, match="no correcting set for vertex 1$"):
            check_determinism(g, gf, minus)
        with pytest.raises(ValueError, match="no correcting set for vertex 1$"):
            run_branch(g, gf, minus, {1: 1})

    def test_nothing_measured_is_vacuously_deterministic(self):
        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(0, 1), outputs=(0, 1))
        gf = GFlow(corrections={}, layers=[{0, 1}])
        report = check_determinism(g, gf, MeasurementPattern(angles={}))
        assert report.ok
        assert report.branch_count == 1

    def test_budget(self):
        g, fl = path_graph(5), path_flow(5)
        pat = MeasurementPattern(angles={v: 0.1 for v in range(4)})
        with pytest.raises(BudgetExceededError, match=r"^2\^4 branches exceed --budget-branches 8$"):
            check_determinism(g, fl, pat, branch_budget=8)


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

    def test_non_deterministic_pattern_raises(self):
        from mbqcflow import DeterminismError

        # Measuring one of two disconnected vertices loses the input:
        # the branch-0 columns assemble into a singular map.
        g = OpenGraph(n=2, edges=[], inputs=(0,), outputs=(1,))
        gf = GFlow(corrections={0: {1}}, layers=[{0}, {1}])
        with pytest.raises(DeterminismError):
            oracle_unitary(g, gf, MeasurementPattern(angles={0: 0.4}))


class TestSchmidtRank:
    def test_product_state(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        assert schmidt_rank_log2(state, 2, {0}) == 0

    def test_bell_state(self):
        state = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert schmidt_rank_log2(state, 2, {0}) == 1

    def test_normalize_phase(self):
        vec = np.array([0.0, -1j, 1.0])
        fixed = normalize_phase(vec)
        assert fixed[1].real > 0 and abs(fixed[1].imag) < 1e-12
