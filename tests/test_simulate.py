import collections
import dataclasses
import hashlib

import numpy as np
import pytest

from mbqcflow import (
    BudgetExceededError,
    DeterminismError,
    GFlow,
    MeasurementPattern,
    OpenGraph,
    SimulationInvariantError,
    check_determinism,
    extract_unitary,
    finalize_outputs,
    find_causal_flow,
    find_gflow,
    forward_cone,
    influence_region,
    initialize_simulation,
    oracle_unitary,
    propagate_all,
    propagate_round,
    rotated_stabilizer,
    run_branch,
    simulate_pattern,
)
from mbqcflow.fixtures import (
    cluster_graph,
    cluster_row_flow,
    fig4_depth_one_gflow,
    fig4_graph,
    path_flow,
    path_graph,
)
from mbqcflow.errors import DEFAULT_DENSE_LIMIT
from mbqcflow.oracle import TOLERANCE, build_open_graph_state, canonical_unitary
from mbqcflow.pauli import LogicalOperator, PauliTable
from mbqcflow.pauli import _UNITS, _clifford_tableau, _gather, _word_actions

from conftest import (
    assert_rounds_match_reference,
    bench_pool,
    completion_generators,
    count_product_merges,
    max_deviation_up_to_phase,
    pack_operators,
    relabel,
    sample_graphs_with_flow,
    sample_graphs_with_gflow,
)
from pauli_reference import project_terms, reference_round, reference_start
from pauli_reference import to_matrices as old_to_matrices
from simulate_reference import (
    reference_dense_extract_unitary,
    reference_finalize_outputs,
    reference_initial,
    reference_rotated_stabilizer,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def reference_extract_unitary(
    logicals: PauliTable, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> np.ndarray:
    """Factor the unitary out of the finalized logicals (see :func:`finalize_outputs`).

    The k inputs give ``2 k`` labelled sums on the ``logicals.n`` outputs.
    The logicals are images ``U P U^dag`` of the input Paulis, so the
    product of ``(1 + Lz_i)/2`` is the image of |0..0><0..0|; its
    principal eigenvector seeds the columns, which the X images then
    generate: the columns with bit i set are ``Lx_i`` times those below
    ``2**i``.  The X and Z images are the even and the odd sums of
    ``logicals``, made dense in one scatter.  A transfer map that is not
    rank-one/unitary within ``TOLERANCE`` means the pattern does not
    implement a unitary and raises :class:`DeterminismError`.

    A k-qubit operator holds 4^k amplitudes, as many as a 2k-qubit state,
    so k with 2k above ``dense_limit`` raises
    :class:`BudgetExceededError` before anything dense is built.
    """
    k = len(logicals.labels) // 2
    if k != logicals.n:
        raise ValueError("unitary extraction needs equally many inputs and outputs")
    if 2 * k > dense_limit:
        raise BudgetExceededError(
            f"{2 * k} qubits exceed --budget-dense {dense_limit} "
            f"(a {k}-qubit unitary holds 4^{k} amplitudes)"
        )
    dim = 1 << k
    mats = logicals.to_matrices()
    lx, lz = mats[0::2], mats[1::2]
    projector = np.eye(dim, dtype=complex)
    for mat in lz:
        projector = projector @ (np.eye(dim) + mat) / 2.0
    eigvals, eigvecs = np.linalg.eigh((projector + projector.conj().T) / 2.0)
    if max(abs(eigvals[-1] - 1.0), np.abs(eigvals[:-1]).max(initial=0.0)) > TOLERANCE:
        raise DeterminismError(
            "transfer of |0><0| is not a rank-one projector; pattern is not unitary"
        )
    unitary = np.empty((dim, dim), dtype=complex)
    unitary[:, 0] = eigvecs[:, -1]
    for i in range(k):
        half = 1 << i
        # A stack of matrix-vector products rounds as a column-by-column
        # loop does; one matrix product would round differently.
        unitary[:, half : 2 * half] = np.matmul(lx[i], unitary[:, :half].T[:, :, None])[..., 0].T
    return canonical_unitary(unitary, "extracted")


def finalized_tables(name, seed):
    """The finalized logicals of every instance of a bench pool, in pool order."""
    return [
        finalize_outputs(
            propagate_all(initialize_simulation(inst.graph, inst.gflow, inst.pattern))
        )
        for inst in bench_pool(name, seed)
    ]


def perturbed(table, rng):
    """A seeded corruption of ``table`` and its kind.

    One row's coefficient is scaled, one row is dropped, or two rows swap
    their words (each keeps its coefficient and its sum).
    """
    rows, coeffs, owner = table.rows.copy(), table.coeffs.copy(), table.owner.copy()
    a, b = rng.integers(len(rows), size=2)
    kind = ("scale", "drop", "swap")[rng.integers(3)]
    if kind == "scale":
        coeffs[a] *= (-1, 1j, 0.5, 1.5)[rng.integers(4)]
    elif kind == "drop":
        rows, coeffs, owner = (np.delete(array, a, axis=0) for array in (rows, coeffs, owner))
    else:
        rows[[a, b]] = rows[[b, a]]
    return kind, PauliTable(table.n, table.labels, rows, coeffs, owner)


def rotation_diagonal(graph, pattern):
    """Product of exp(i theta/2 Z) over the measured vertices, as a diagonal."""
    dim = 1 << graph.n
    idx = np.arange(dim)
    phases = np.zeros(dim)
    for v, theta in pattern.angles.items():
        phases = phases + theta / 2.0 * (1.0 - 2.0 * ((idx >> v) & 1))
    return np.exp(1j * phases)


def expectation(op, state):
    return np.vdot(state, op.to_matrix() @ state)


def support_mask(op):
    """Mask of the qubits on which some term of ``op`` acts."""
    mask = 0
    for (x, z), _ in op.terms():
        mask |= x | z
    return mask


def z_free(op, mask):
    """True when no term of ``op`` has Z on a qubit of ``mask``."""
    return not any(z & mask for (_, z), _ in op.terms())


def random_pattern(graph, rng, clifford=False):
    if clifford:
        return MeasurementPattern(
            angles={v: float(rng.integers(4)) * np.pi / 2 for v in graph.measured}
        )
    return MeasurementPattern(
        angles={v: float(rng.uniform(0, 2 * np.pi)) for v in graph.measured}
    )


def mixed(inst):
    """A bench instance with one angle moved 0.3 off its multiple of pi/2.

    The angle is that of the first measured vertex that a correcting set
    or an input's X logical rotates, so its rotated word has two words.
    """
    rotated = set().union(*inst.gflow.corrections.values()) | set(inst.graph.inputs)
    vertex = min(v for v in inst.graph.measured if v in rotated)
    angles = dict(inst.pattern.angles)
    angles[vertex] += 0.3
    return dataclasses.replace(inst, pattern=MeasurementPattern(angles=angles))


class TestRotatedStabilizer:
    def test_angle_zero_is_plain_stabilizer(self):
        g = path_graph(3)
        op = rotated_stabilizer(g, 1, 0.0)
        assert op.num_terms == 1
        expected = LogicalOperator(3, {(0b010, 0b101): 1}).to_matrix()
        assert np.allclose(op.to_matrix(), expected)

    def test_right_angle_single_term(self):
        g = path_graph(3)
        op = rotated_stabilizer(g, 1, np.pi / 2)
        assert op.num_terms == 1

    @pytest.mark.parametrize("angle", [0.0, np.pi / 4, np.pi / 2, 1.234, np.pi])
    def test_matches_dense_conjugation(self, angle):
        # Independent check: conjugate the plain stabilizer by the dense
        # Z rotation matrix.
        g = OpenGraph(n=3, edges=[(0, 1), (0, 2), (1, 2)], inputs=(), outputs=(0, 1, 2))
        vertex = 1
        plain = LogicalOperator(3, {(1 << vertex, g.adjacency_masks[vertex]): 1}).to_matrix()
        idx = np.arange(8)
        rot = np.exp(1j * angle / 2.0 * (1.0 - 2.0 * ((idx >> vertex) & 1)))
        expected = (rot[:, None] * plain) * rot.conj()[None, :]
        assert np.allclose(rotated_stabilizer(g, vertex, angle).to_matrix(), expected)

    def test_input_vertex_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="stabilizer"):
            rotated_stabilizer(g, 0, 0.3)
        with pytest.raises(ValueError, match="^vertex 5 out of range$"):
            rotated_stabilizer(g, 5, 0.1)

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle_rejected(self, angle):
        # Both words of a NaN angle would be pruned into the zero operator.
        with pytest.raises(ValueError, match="^angle for vertex 1 is not finite$"):
            rotated_stabilizer(path_graph(3), 1, angle)


#: Angles whose rotated words sit on the pruning rule's edges: one word
#: with a unit coefficient, or a sin word of 1e-13 that is dropped.
SPECIAL_ANGLES = (0.0, np.pi / 2, -np.pi / 2, np.pi, 3 * np.pi / 2, 1e-13)


def angle_mixes(inst, rng):
    """The instance's pattern, its angles drawn from ``SPECIAL_ANGLES``, and a mix with random ones."""
    measured = list(inst.pattern.angles)
    special = {v: float(rng.choice(SPECIAL_ANGLES)) for v in measured}
    some = {v: float(rng.uniform(-7, 7)) if rng.random() < 0.3 else a for v, a in special.items()}
    return [inst.pattern, MeasurementPattern(angles=special), MeasurementPattern(angles=some)]


def operator_bytes(op):
    return op.n, repr(op.words)


def table_bytes(table):
    arrays = (table.rows, table.coeffs, table.owner, table.peaks)
    return (table.n, table.labels, table.rows.shape) + tuple(array.tobytes() for array in arrays)


class TestAgainstTheRotatedWordReference:
    """One builder and one packer against the four helpers they replaced (tests/simulate_reference.py)."""

    def test_bench_pools_and_angle_mixes(self):
        rng = np.random.default_rng(40)
        paths = collections.Counter()
        for name in ("sim-terms", "sim-clifford"):
            for seed in (1, 2, 3):
                for inst in bench_pool(name, seed):
                    for pattern in angle_mixes(inst, rng):
                        state = initialize_simulation(inst.graph, inst.gflow, pattern)
                        on_words, products, logicals = reference_initial(
                            inst.graph, inst.gflow, pattern
                        )
                        assert (state.words is None) is not on_words
                        paths[on_words] += 1
                        if on_words:
                            assert state.products == products and state.words == logicals
                            continue
                        assert state.products == {v: op.words for v, op in products.items()}
                        stabilizers = state.stabilizers
                        assert products.keys() == stabilizers.keys()
                        for vertex, op in products.items():
                            assert operator_bytes(stabilizers[vertex]) == operator_bytes(op)
                        want = pack_operators(inst.graph.n, logicals)
                        assert table_bytes(state.table) == table_bytes(want)
        assert paths[True] >= 100 and paths[False] >= 100

    def test_rotated_stabilizer_on_finite_angles(self):
        rng = np.random.default_rng(41)
        angles = list(SPECIAL_ANGLES) + [-0.0, -1e-13, 2 * np.pi, 1e300, -5.5]
        angles += rng.uniform(-10, 10, 20).tolist()
        for graph in (path_graph(3), cluster_graph(3, 4), path_graph(70), path_graph(140)):
            for vertex in sorted(set(range(graph.n)) - graph.input_set):
                for angle in angles:
                    want = reference_rotated_stabilizer(graph, vertex, angle)
                    got = rotated_stabilizer(graph, vertex, angle)
                    assert operator_bytes(got) == operator_bytes(want)


class TestInitialize:
    @pytest.mark.parametrize("clifford", [False, True], ids=["table-path", "word-path"])
    def test_editing_the_read_stabilizers_changes_nothing(self, clifford):
        # The table path handed out its own products: replacing one in the
        # returned dict replaced the product that propagation multiplies by.
        g, fl = cluster_graph(2, 3), cluster_row_flow(2, 3)
        angles = {v: np.pi / 2 * v if clifford else 0.3 + 0.1 * v for v in g.measured}
        pattern = MeasurementPattern(angles=angles)
        want = simulate_pattern(g, fl, pattern).unitary
        state = initialize_simulation(g, fl, pattern)
        assert (state.words is not None) == clifford
        stabilizers = state.stabilizers
        stabilizers[min(stabilizers)] = LogicalOperator(g.n, {(0, 0): 1.0})
        assert np.array_equal(extract_unitary(finalize_outputs(propagate_all(state))), want)

    def test_the_simulation_builds_no_logical_operator(self, monkeypatch):
        # Operators are for readers and tests; every one is built by __init__.
        def refuse(*args, **kwargs):
            raise AssertionError("the simulation built or multiplied a LogicalOperator")

        for name in ("__init__", "__mul__"):
            monkeypatch.setattr(LogicalOperator, name, refuse)
        for name in ("sim-terms", "sim-clifford"):
            for inst in bench_pool(name, 1):
                simulate_pattern(inst.graph, inst.gflow, inst.pattern)

    def test_path2_forms(self):
        g, fl = path_graph(2), path_flow(2)
        theta = 0.9
        state = initialize_simulation(g, fl, MeasurementPattern(angles={0: theta}))
        ops = state.logicals.operators()
        lz = ops[("Z", 0)]
        assert dict(lz.terms()) == {(0, 0b01): 1.0}
        lx = dict(ops[("X", 0)].terms())
        assert len(lx) == 2
        assert abs(lx.get((0b01, 0b10), 0) - np.cos(theta)) < 1e-12
        assert abs(lx.get((0b01, 0b11), 0) - (-1j * np.sin(theta))) < 1e-12
        # S_0 = K_1 unrotated: the output vertex is never rotated.
        s0 = dict(state.stabilizers[0].terms())
        assert len(s0) == 1
        assert abs(s0.get((0b10, 0b01), 0) - 1.0) < 1e-12

    def test_unmeasured_input_logical_is_unrotated(self):
        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(0, 1), outputs=(0, 1))
        gf = GFlow(corrections={}, layers=[{0, 1}])
        state = initialize_simulation(g, gf, MeasurementPattern(angles={}))
        assert dict(state.logicals.operators()[("X", 0)].terms()) == {(0b01, 0b10): 1.0}
        # Every vertex is an input, so there is nothing to complete.
        assert completion_generators(state) == []

    def test_surplus_output_adds_completion_generator(self):
        g = OpenGraph(n=2, edges=[(0, 1)], inputs=(0,), outputs=(0, 1))
        gf = GFlow(corrections={}, layers=[{0, 1}])
        state = initialize_simulation(g, gf, MeasurementPattern(angles={}))
        completions = completion_generators(state)
        assert len(completions) == 1
        assert dict(completions[0].terms()) == {(0b10, 0b01): 1.0}

    def test_completion_generators_commute_with_measured_x(self, rng):
        for graph, flow in sample_graphs_with_flow(10, seed=31, n_max=7):
            pattern = random_pattern(graph, rng)
            state = initialize_simulation(graph, flow, pattern)
            completions = completion_generators(state)
            assert len(state.stabilizers) + len(completions) == graph.n - len(
                graph.inputs
            )
            measured = sum(1 << v for v in graph.measured)
            assert all(z_free(gen, measured) for gen in completions)

    def test_invalid_gflow_rejected(self):
        g = path_graph(3)
        bad = GFlow(corrections={0: {2}, 1: {2}}, layers=[{0}, {1}, {2}])
        with pytest.raises(ValueError, match="invalid"):
            initialize_simulation(g, bad, MeasurementPattern(angles={0: 0.1, 1: 0.2}))

    def test_missing_angles_rejected(self):
        g, fl = path_graph(3), path_flow(3)
        with pytest.raises(ValueError, match="missing angles"):
            initialize_simulation(g, fl, MeasurementPattern(angles={0: 0.1}))

    def test_more_inputs_than_outputs_rejected_as_flow_analysis_does(self):
        g = OpenGraph(n=3, edges=[(0, 2), (1, 2)], inputs=(0, 1), outputs=(2,))
        gf = GFlow(corrections={0: {2}, 1: {2}}, layers=[{0, 1}, {2}])
        message = r"^flow analysis requires \|inputs\| <= \|outputs\|$"
        with pytest.raises(ValueError, match=message):
            simulate_pattern(g, gf, MeasurementPattern(angles={0: 0.1, 1: 0.2}))
        with pytest.raises(ValueError, match=message):
            find_causal_flow(g)

    @pytest.mark.parametrize(
        "entry", ["simulate_pattern", "run_branch", "check_determinism", "oracle_unitary"]
    )
    def test_angle_on_an_unmeasured_vertex_rejected(self, entry):
        # The simulation rotates every corrector, outputs among them, by
        # its angle, and the oracle reads angles only on measured vertices:
        # an angle on output 2 would make their unitaries differ.
        calls = {
            "simulate_pattern": simulate_pattern,
            "run_branch": lambda g, f, p: run_branch(g, f, p, {0: 0, 1: 0}),
            "check_determinism": check_determinism,
            "oracle_unitary": oracle_unitary,
        }
        pattern = MeasurementPattern(angles={0: 0.3, 1: 0.5, 2: 0.7})
        with pytest.raises(
            ValueError, match=r"^pattern gives angles to unmeasured vertices \[2\]$"
        ):
            calls[entry](path_graph(3), path_flow(3), pattern)


class TestPropagation:
    def test_path2_hand_computed_round(self):
        g, fl = path_graph(2), path_flow(2)
        theta = 0.6
        state = initialize_simulation(g, fl, MeasurementPattern(angles={0: theta}))
        propagate_round(state)
        # L_Z = Z0 anticommutes with X0 and picks up S_0 = Z0 X1 -> X1.
        ops = state.logicals.operators()
        assert dict(ops[("Z", 0)].terms()) == {(0b10, 0): 1.0}
        # L_X: the cos term X0 Z1 commutes; the sin term X0 Y0-ish gains X1.
        lx = dict(ops[("X", 0)].terms())
        assert len(lx) == 2
        assert abs(lx.get((0b01, 0b10), 0) - np.cos(theta)) < 1e-12
        assert abs(lx.get((0b11, 0b10), 0) - 1j * np.sin(theta)) < 1e-12

    def test_round_matches_split_multiply_add_reference(self, rng, monkeypatch):
        # Random and Clifford angles, so both the table path, with its
        # merging step, and the word path run; widest > 1 gives correcting
        # products, and some product corrections merge rows while others
        # do not.
        merges = count_product_merges(monkeypatch)
        widest = touched = untouched = 0
        for index, (graph, gflow) in enumerate(sample_graphs_with_gflow(60, seed=47, n_max=7)):
            widest = max(widest, *(len(c) for c in gflow.corrections.values()))
            clifford = index % 3 == 0
            counts = assert_rounds_match_reference(graph, gflow, random_pattern(graph, rng, clifford))
            touched, untouched = touched + counts[0], untouched + counts[1]
        assert touched and untouched and widest > 1
        assert merges[True] and merges[False]

    def test_round_matches_reference_across_word_boundaries(self, rng):
        # Seeded gFlow graphs relabelled into 140 qubits, measured vertices
        # on bits 62-65 and 126-129, so masks span three 64-bit words.
        # Random angles multiply Pauli sums on the table path; Clifford
        # angles keep one word per logical and take the word path, whose
        # words are packed into three-word rows whenever they are read.
        slots = [63, 64, 127, 128, 62, 65, 126, 129]
        spare = [v for v in range(140) if v not in slots]
        touched = collections.Counter()
        for graph, gflow in sample_graphs_with_gflow(12, seed=48, n_max=8):
            order = list(graph.measured) + list(graph.outputs)
            targets = slots[: len(graph.measured)] + list(
                rng.choice(spare, size=len(graph.outputs), replace=False)
            )
            big, big_flow = relabel(graph, gflow, dict(zip(order, map(int, targets))), 140)
            for clifford in (False, True):
                pattern = random_pattern(big, rng, clifford)
                state = initialize_simulation(big, big_flow, pattern)
                assert (state.words is not None) == clifford
                touched[clifford] += assert_rounds_match_reference(big, big_flow, pattern)[0]
        # Rounds changed logicals on both paths (44 and 36 times).
        assert touched[False] >= 30 and touched[True] >= 30

    def test_one_angle_off_the_right_angles_takes_the_table_path(self):
        # Every sim-clifford instance of seed 1 with one rotated word of two
        # words: each round, the high water and the unitary equal the dict
        # reference's.
        for inst in map(mixed, bench_pool("sim-clifford", 1)):
            graph, gflow, pattern = inst.graph, inst.gflow, inst.pattern
            assert initialize_simulation(graph, gflow, pattern).words is None
            assert_rounds_match_reference(graph, gflow, pattern)
            stabilizers, logicals = reference_start(graph, gflow, pattern)
            high_water = {label: len(terms) for label, terms in logicals.items()}
            for layer in gflow.layers[:-1]:
                logicals = reference_round(logicals, stabilizers, layer, high_water)
            k = len(graph.outputs)
            finalized = project_terms(logicals, list(graph.outputs))
            ops = {label: LogicalOperator(k, terms) for label, terms in finalized.items()}
            want = extract_unitary(pack_operators(k, ops))
            result = simulate_pattern(graph, gflow, pattern)
            assert result.high_water == high_water and max(high_water.values()) > 1
            assert np.abs(result.unitary - want).max() <= 1e-12

    def test_round_matches_reference_when_hashes_collide(self, rng, monkeypatch):
        # A constant row hash lets every correction that multiplies pass the
        # screen, so each is grouped exactly, by the lexicographic sort.  The
        # tables carry their hashes, so the constant must reach them too.
        monkeypatch.setattr(
            "mbqcflow.pauli._row_hash", lambda rows: np.zeros(len(rows), dtype=np.uint64)
        )
        lexsorts, fell_back = [0], []
        lexsort, correct = np.lexsort, PauliTable.correct

        def spied_lexsort(keys):
            lexsorts[0] += 1
            return lexsort(keys)

        def spied_correct(self, *args):
            before = lexsorts[0]
            hit = correct(self, *args)
            fell_back.append(lexsorts[0] > before)
            return hit

        monkeypatch.setattr(np, "lexsort", spied_lexsort)
        monkeypatch.setattr(PauliTable, "correct", spied_correct)
        graphs = sample_graphs_with_gflow(15, seed=49, n_max=7)
        graphs.append((cluster_graph(2, 5), cluster_row_flow(2, 5)))
        for graph, gflow in graphs:
            assert_rounds_match_reference(graph, gflow, random_pattern(graph, rng))
        assert sum(fell_back) >= 10

    def test_a_constant_hash_changes_no_bench_output(self, monkeypatch):
        # The hash only screens: grouping a correction that merges nothing
        # leaves what skipping the grouping leaves.  The sim-terms pool of
        # seed 1 reaches tables of 13,687 rows; sim-clifford instance 14
        # has 72 qubits, two words per mask, and with one angle off the
        # right angles it takes the table path.
        import mbqcflow.simulate as simulate_mod

        pool = bench_pool("sim-terms", 1) + [mixed(bench_pool("sim-clifford", 1)[14])]
        tables, finalize = [], simulate_mod.finalize_outputs

        def spied_finalize(state):
            table = finalize(state)
            tables.append(table)
            return table

        def outputs():
            tables.clear()
            results = [simulate_pattern(i.graph, i.gflow, i.pattern) for i in pool]
            return [
                (
                    None if result.unitary is None else result.unitary.tobytes(),
                    result.high_water,
                    [getattr(table, name).tobytes() for name in ("rows", "coeffs", "owner")],
                )
                for result, table in zip(results, tables, strict=True)
            ]

        monkeypatch.setattr(simulate_mod, "finalize_outputs", spied_finalize)
        hashed = outputs()
        monkeypatch.setattr(
            "mbqcflow.pauli._row_hash", lambda rows: np.zeros(len(rows), dtype=np.uint64)
        )
        assert outputs() == hashed
        assert pool[-1].graph.n > 64

    def test_the_screen_groups_only_corrections_that_merge(self, monkeypatch):
        # A correction reaches the grouping step only when two of its row
        # hashes are equal.  On the sim-terms pools of seeds 1-2 each of the
        # 23 that reach it finds two equal rows: no hash collision sends a
        # correction there without cause.
        import mbqcflow.pauli as pauli_mod

        merged, within, group, correct = [], [False], pauli_mod._group, PauliTable.correct

        def spied_group(lines):
            run, first = group(lines)
            if within[0]:
                merged.append(len(first) < len(run))
            return run, first

        def spied_correct(self, *args):
            within[0] = True
            try:
                return correct(self, *args)
            finally:
                within[0] = False

        monkeypatch.setattr(pauli_mod, "_group", spied_group)
        monkeypatch.setattr(PauliTable, "correct", spied_correct)
        for inst in bench_pool("sim-terms", 1) + bench_pool("sim-terms", 2):
            simulate_pattern(inst.graph, inst.gflow, inst.pattern)
        assert len(merged) >= 20 and all(merged)

    def test_rounds_must_be_ordered(self):
        g, fl = path_graph(3), path_flow(3)
        state = initialize_simulation(
            g, fl, MeasurementPattern(angles={0: 0.1, 1: 0.2})
        )
        propagate_all(state)
        with pytest.raises(ValueError, match="already propagated"):
            propagate_round(state)

    def test_commutation_postcondition(self, rng):
        for graph, flow in sample_graphs_with_flow(8, seed=32, n_max=7):
            pattern = random_pattern(graph, rng)
            state = initialize_simulation(graph, flow, pattern)
            done = 0
            for r in range(len(state.rounds)):
                propagate_round(state)
                done |= sum(1 << v for v in state.rounds[r])
                for op in state.logicals.operators().values():
                    assert z_free(op, done)

    def test_expectation_preserved_through_rounds(self, rng):
        # Logical expectations on the rotated, round-projected positive
        # branch stay equal to their initial values: 50+ seeded runs over
        # random flow graphs and the named fixtures.
        graphs = sample_graphs_with_flow(6, seed=33, n_max=7)
        graphs += [
            (path_graph(5), path_flow(5)),
            (cluster_graph(2, 3), cluster_row_flow(2, 3)),
        ]
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        runs = 0
        for repeat in range(7):
            for graph, flow in graphs:
                pattern = random_pattern(graph, rng)
                k = len(graph.inputs)
                psi = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
                psi /= np.linalg.norm(psi)
                rotated = rotation_diagonal(graph, pattern) * build_open_graph_state(
                    graph, psi
                )
                state = initialize_simulation(graph, flow, pattern)
                initial = {
                    label: expectation(op, rotated)
                    for label, op in state.logicals.operators().items()
                }
                vec = rotated
                for r in range(len(state.rounds)):
                    propagate_round(state)
                    for v in sorted(state.rounds[r]):
                        # Project onto the +1 X outcome (the |+> state).
                        dim = vec.shape[0]
                        idx = np.arange(dim)
                        bit = (idx >> v) & 1
                        partial = np.zeros(dim, dtype=complex)
                        np.add.at(
                            partial, idx & ~(1 << v), plus[bit].conj() * vec
                        )
                        vec = plus[bit] * partial[idx & ~(1 << v)]
                        vec = vec / np.linalg.norm(vec)
                    for label, op in state.logicals.operators().items():
                        assert abs(expectation(op, vec) - initial[label]) < 1e-9
                runs += 1
        assert runs >= 50

    def test_stabilizers_act_as_logical_identity(self, rng):
        # Left-multiplying any logical by a stabilizer or completion
        # generator never changes its expectation on the rotated state.
        g, fl = cluster_graph(2, 3), cluster_row_flow(2, 3)
        pattern = random_pattern(g, rng)
        state = initialize_simulation(g, fl, pattern)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rotated = rotation_diagonal(g, pattern) * build_open_graph_state(g, psi)
        multipliers = list(state.stabilizers.values()) + completion_generators(state)
        for op in state.logicals.operators().values():
            base = expectation(op, rotated)
            for s in multipliers:
                assert abs(expectation(s * op, rotated) - base) < 1e-9

    def test_logicals_stay_hermitian(self, rng):
        def deviation(op):
            mat = op.to_matrix()
            return np.max(np.abs(mat - mat.conj().T))

        for graph, flow in sample_graphs_with_flow(5, seed=35, n_max=6):
            pattern = random_pattern(graph, rng)
            state = initialize_simulation(graph, flow, pattern)
            propagate_all(state)
            for op in state.logicals.operators().values():
                assert deviation(op) < 1e-12
            for op in finalize_outputs(state).operators().values():
                assert deviation(op) < 1e-12


class TestFinalizeAndExtract:
    def test_path2_finalized_forms(self):
        g, fl = path_graph(2), path_flow(2)
        theta = 0.8
        state = propagate_all(
            initialize_simulation(g, fl, MeasurementPattern(angles={0: theta}))
        )
        logicals = finalize_outputs(state).operators()
        lz = logicals[("Z", 0)]
        assert dict(lz.terms()) == {(0b1, 0): 1.0}  # X on the output
        lx = dict(logicals[("X", 0)].terms())
        # cos Z + sin Y on the output (Y = i X Z gives the -i on X Z).
        assert abs(lx.get((0, 1), 0) - np.cos(theta)) < 1e-12
        assert abs(lx.get((1, 1), 0) - 1j * np.sin(theta)) < 1e-12

    def test_finalize_requires_full_propagation(self):
        g, fl = path_graph(3), path_flow(3)
        state = initialize_simulation(
            g, fl, MeasurementPattern(angles={0: 0.1, 1: 0.2})
        )
        with pytest.raises(ValueError, match="propagated"):
            finalize_outputs(state)

    def test_residual_z_support_raises(self):
        from mbqcflow import SimulationInvariantError
        from mbqcflow.pauli import LogicalOperator, PauliTable

        g, fl = path_graph(3), path_flow(3)
        state = propagate_all(
            initialize_simulation(g, fl, MeasurementPattern(angles={0: 0.1, 1: 0.2}))
        )
        # Corrupt a logical with a Z on a measured vertex (the pattern takes
        # the table path).
        ops = state.logicals.operators()
        ops[("Z", 0)] = LogicalOperator(3, {(0, 0b001): 1.0})
        state.table = pack_operators(3, ops)
        with pytest.raises(SimulationInvariantError, match="residual"):
            finalize_outputs(state)
        # The same on the word path, which packs its words before the check.
        pattern = MeasurementPattern(angles={0: np.pi / 2, 1: np.pi})
        state = propagate_all(initialize_simulation(g, fl, pattern))
        state.words[("Z", 0)] = (0, 0b001, 0)
        with pytest.raises(SimulationInvariantError, match="residual"):
            finalize_outputs(state)

    def test_non_conjugation_logicals_raise_determinism_error(self):
        from mbqcflow import DeterminismError, extract_unitary
        from mbqcflow.pauli import LogicalOperator, PauliTable

        # Lz mapped to a non-involution: (1 + Lz)/2 is no projector.
        broken = pack_operators(1, {
            ("X", 0): LogicalOperator(1, {(1, 0): 1.0}),
            ("Z", 0): LogicalOperator(1, {(0, 1): 0.5}),
        })
        with pytest.raises(DeterminismError, match="rank-one"):
            extract_unitary(broken)

    def test_non_unitary_transfer_raises_determinism_error(self):
        from mbqcflow import DeterminismError, extract_unitary
        from mbqcflow.pauli import PauliTable

        # Lz = Z fixes the first column |0>; Lx = X/2 halves the second.
        broken = pack_operators(1, {
            ("X", 0): LogicalOperator(1, {(1, 0): 0.5}),
            ("Z", 0): LogicalOperator(1, {(0, 1): 1.0}),
        })
        with pytest.raises(
            DeterminismError, match=r"^extracted map deviates from unitarity by 7\.50e-01$"
        ):
            extract_unitary(broken)

    def test_identity_z_images_raise_determinism_error(self):
        # Every (1 + Lz_i)/2 is the identity, so the first column is e_0
        # and Lz_i u0 = u0 holds; only Lz_i U = U Z_i on the other
        # columns rejects the table, as the eigenvalues of P did.
        table = pack_operators(2, {
            ("X", 0): LogicalOperator(2, {(0b01, 0): 1.0}),
            ("Z", 0): LogicalOperator(2, {(0, 0): 1.0}),
            ("X", 1): LogicalOperator(2, {(0b10, 0): 1.0}),
            ("Z", 1): LogicalOperator(2, {(0, 0): 1.0}),
        })
        with pytest.raises(DeterminismError, match="rank-one"):
            extract_unitary(table)

    def test_minus_identity_z_image_raises_without_dividing_by_zero(self):
        # (1 - I)/2 = 0 projects every e_j to the zero vector.
        table = pack_operators(1, {
            ("X", 0): LogicalOperator(1, {(1, 0): 1.0}),
            ("Z", 0): LogicalOperator(1, {(0, 0): -1.0}),
        })
        with np.errstate(all="raise"), pytest.raises(DeterminismError, match="rank-one"):
            extract_unitary(table)

    def test_no_inputs_give_the_one_by_one_unitary(self):
        assert np.array_equal(extract_unitary(pack_operators(0, {})), [[1.0]])

    def test_first_column_skips_a_projection_too_small_to_normalise(self):
        # U = [[c, s], [s, -c]] with c = 1e-6: P e_0 = c u0 is a difference
        # of numbers near 1, and normalising it would scale its rounding
        # error by 1/c; P e_1 = s u0 keeps full precision.
        c = 1e-6
        s = np.sqrt(1 - c * c)
        table = pack_operators(1, {
            ("X", 0): LogicalOperator(1, {(0, 1): 2 * c * s, (1, 0): s * s - c * c}),
            ("Z", 0): LogicalOperator(1, {(0, 1): c * c - s * s, (1, 0): 2 * c * s}),
        })
        expected = np.array([[c, s], [s, -c]])
        assert max_deviation_up_to_phase(extract_unitary(table), expected) < 1e-12

    def test_first_column_from_a_later_basis_vector(self):
        # Seed-1 sim-clifford, cluster 6x10: P e_0 ... P e_7 fall below
        # 2^-6 / 2, so the column search stops at e_8.
        table = finalized_tables("sim-clifford", 1)[12]
        unitary = extract_unitary(table)
        assert unitary.shape == (64, 64)
        weights = np.abs(unitary[:, 0]) ** 2
        assert (weights[:8] < 0.5 / 64).all() and weights[8] >= 0.5 / 64
        assert np.abs(unitary - reference_extract_unitary(table)).max() <= 1e-12

    def test_extract_needs_equally_many_inputs_and_outputs(self):
        from mbqcflow import extract_unitary
        from mbqcflow.pauli import PauliTable

        # One input's X and Z images on two output qubits.
        table = pack_operators(2, {
            ("X", 0): LogicalOperator(2, {(1, 0): 1.0}),
            ("Z", 0): LogicalOperator(2, {(0, 1): 1.0}),
        })
        with pytest.raises(
            ValueError, match="^unitary extraction needs equally many inputs and outputs$"
        ):
            extract_unitary(table)

    def test_extract_refuses_a_unitary_beyond_the_dense_limit(self):
        from mbqcflow import BudgetExceededError, extract_unitary

        g, fl = path_graph(2), path_flow(2)
        pattern = MeasurementPattern(angles={0: 0.3})
        finalized = finalize_outputs(propagate_all(initialize_simulation(g, fl, pattern)))
        assert extract_unitary(finalized, dense_limit=2).shape == (2, 2)
        with pytest.raises(BudgetExceededError, match="2 qubits exceed --budget-dense 1"):
            extract_unitary(finalized, dense_limit=1)

    def test_extract_matches_hand_unitary(self):
        g, fl = path_graph(2), path_flow(2)
        theta = 1.3
        res = simulate_pattern(g, fl, MeasurementPattern(angles={0: theta}))
        expected = H @ np.diag([1, np.exp(-1j * theta)])
        assert max_deviation_up_to_phase(res.unitary, expected) < 1e-9

    def test_extract_theta_zero_is_hadamard(self):
        g, fl = path_graph(2), path_flow(2)
        res = simulate_pattern(g, fl, MeasurementPattern(angles={0: 0.0}))
        assert max_deviation_up_to_phase(res.unitary, H) < 1e-9

    def test_identity_pattern_keeps_logicals(self):
        g = OpenGraph(n=2, edges=[], inputs=(0, 1), outputs=(0, 1))
        gf = GFlow(corrections={}, layers=[{0, 1}])
        res = simulate_pattern(g, gf, MeasurementPattern(angles={}))
        assert max_deviation_up_to_phase(res.unitary, np.eye(4)) < 1e-12

    def test_orientation_calibration_against_oracle(self):
        # Pins the Heisenberg orientation: finalized logicals are images
        # U P U^dag, checked on the two-vertex chain at angle pi/2.
        g, fl = path_graph(2), path_flow(2)
        pat = MeasurementPattern(angles={0: np.pi / 2})
        sym = simulate_pattern(g, fl, pat).unitary
        orc = oracle_unitary(g, fl, pat)
        assert max_deviation_up_to_phase(sym, orc) < 1e-9


#: The perturbed tables of the seed-1 pools that only the Z check rejects.
#: Each swaps the words of two X images or of two Z images of a Clifford
#: table: the product of the (1 + Lz_i)/2 stays rank one, but the unitary
#: that the X images build maps Z_i to another input's Z image.
STRICTER = [("sim-clifford", index, "swap") for index in (0, 2, 5, 5, 7, 8, 14, 15, 17, 17)]


def assert_same_table(got, want):
    """Equal registers and labels, and rows, coefficients, owners, counts and peaks byte for byte."""
    assert (got.n, got.labels) == (want.n, want.labels)
    for name in ("rows", "coeffs", "owner", "counts", "peaks"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


class TestFinalizeOnWords:
    """The word path's finalize against the old route: pack on all n qubits, then project."""

    @staticmethod
    def finalized(graph, angles):
        gflow = find_gflow(graph)
        pattern = MeasurementPattern(angles={v: angles[v] for v in gflow.measurement_order})
        state = propagate_all(initialize_simulation(graph, gflow, pattern))
        assert state.words is not None
        table = finalize_outputs(state)
        assert_same_table(table, reference_finalize_outputs(state))
        return table

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_clifford_pools(self, seed):
        for inst in bench_pool("sim-clifford", seed):
            state = propagate_all(initialize_simulation(inst.graph, inst.gflow, inst.pattern))
            assert state.words is not None
            assert_same_table(finalize_outputs(state), reference_finalize_outputs(state))

    def test_no_inputs(self):
        graph = OpenGraph(4, [(0, 1), (1, 2), (2, 3)], inputs=(), outputs=(3,))
        table = self.finalized(graph, [np.pi / 2, np.pi, 0.0])
        assert table.labels == [] and table.rows.shape == (0, 2)

    def test_inputs_that_are_outputs(self):
        # Input 3 is never measured; the outputs are not in vertex order.
        graph = OpenGraph(4, [(0, 1), (1, 2), (2, 3)], inputs=(0, 3), outputs=(3, 2))
        table = self.finalized(graph, [np.pi / 2, -np.pi / 2])
        assert table.labels == [("X", 0), ("Z", 0), ("X", 3), ("Z", 3)]
        assert table.rows.any()

    def test_more_than_64_outputs(self):
        # 69 outputs in reverse vertex order: each input's logicals reach
        # output qubits 2 - i and 68 - i, in both words of the register.
        edges = [(i, 3 + i) for i in range(3)] + [(i, 69 + i) for i in range(3)]
        graph = OpenGraph(72, edges, inputs=range(3), outputs=range(71, 2, -1))
        table = self.finalized(graph, [np.pi / 2, np.pi, 0.0])
        assert table.n == 69 and table.rows.shape == (6, 4)
        assert table.rows[:, [0, 2]].any() and table.rows[:, [1, 3]].any()

    def test_residual_z_raises_on_both_routes(self):
        graph = cluster_graph(2, 3)
        gflow = cluster_row_flow(2, 3)
        pattern = MeasurementPattern(angles={v: np.pi / 2 for v in gflow.measurement_order})
        state = propagate_all(initialize_simulation(graph, gflow, pattern))
        # Only the last logical carries Z on a measured vertex.
        label = list(state.words)[-1]
        x, z, p = state.words[label]
        state.words[label] = (x, z | 1 << max(graph.measured), p)
        for finalize in (finalize_outputs, reference_finalize_outputs):
            with pytest.raises(SimulationInvariantError, match="^residual anticommutation"):
                finalize(state)


def extraction(extract, table):
    """The unitary ``extract`` gives for ``table``, or None when it raises DeterminismError."""
    try:
        return extract(table)
    except DeterminismError:
        return None


def table_digest(tables):
    """SHA-256 of the integer parts of ``tables``: labels, rows, owner and peaks.

    Coefficients are left out, so the digest does not depend on the
    platform's cos, sin or BLAS.
    """
    digest = hashlib.sha256()
    for table in tables:
        digest.update(repr((table.labels, table.rows.shape)).encode())
        for array in (table.rows, table.owner, table.peaks):
            digest.update(np.ascontiguousarray(array, dtype="<u8").tobytes())
    return digest.hexdigest()


#: ``table_digest`` of the finalized tables of each sim pool, by workload and seed.
TABLE_DIGESTS = {
    ("sim-terms", 1): "e3cc2f123f8ca501539df82324169cc7b2084ff99dc3f50cb31d7650187d2f0d",
    ("sim-terms", 2): "c0ba62dcd141af781f036b6391b7c0225067382fdf43c4385cd1478ceed67e1a",
    ("sim-terms", 3): "6f8d65cacf3e1e95fb38f4e4a4f0373a48df0e81c43128bbfdfd1cfe72e4a7f5",
    ("sim-terms", 4): "e58ba7ee7054f84c545c68ded8ae66e3319aef2708c3ef65ff855c3d58429f6e",
    ("sim-terms", 5): "84fb6b9940d4861b058c93294fabaed3b623714655427f35e98544e2c6c0f80a",
    ("sim-clifford", 1): "79f094a9226425f1774024d1fac566e8594c05d8729e171f0272944b6f2345a0",
    ("sim-clifford", 2): "0219bbe1e6036615b212c2264f9790644c84dd7e7a1a5c5dde43e2b136409fef",
    ("sim-clifford", 3): "8f36d322a80636ce6ec8aced353fff60fd8b6626c8023366f9d1320f38ef9b23",
    ("sim-clifford", 4): "0af5ace8aecc8d7e41b7cae123cfc34eb3e64603da124035c995e30a7b10e095",
    ("sim-clifford", 5): "28b75fe39cf872ea938fd3ee522aba4e4fe9d3c15d81259415b5acf851a9aabe",
}


@pytest.mark.parametrize("name", ["sim-terms", "sim-clifford"])
def test_finalized_tables_keep_their_digests(name):
    # The corpus digests cover the high water, the cone sizes and bound_ok;
    # these pin the finalized rows of both paths as well.
    got = {seed: table_digest(finalized_tables(name, seed)) for seed in range(1, 6)}
    assert got == {seed: TABLE_DIGESTS[name, seed] for seed in range(1, 6)}


class TestExtractAgainstTheEigenvectorReference:
    """The projected column against the principal eigenvector of the projector."""

    @pytest.mark.parametrize("name", ["sim-terms", "sim-clifford"])
    def test_bench_pools(self, name):
        for seed in (1, 2, 3):
            for table in finalized_tables(name, seed):
                reference = reference_extract_unitary(table)
                assert np.abs(extract_unitary(table) - reference).max() <= 1e-12

    def test_perturbed_tables(self):
        # The Z check is stronger than the eigenvalues of P: a table whose
        # Z images are no unitary's, given its X images, may now raise.
        rng = np.random.default_rng(0)
        outcomes, stricter = collections.Counter(), []
        for name in ("sim-terms", "sim-clifford"):
            for index, table in enumerate(finalized_tables(name, 1)):
                for _ in range(4):
                    kind, broken = perturbed(table, rng)
                    old = extraction(reference_extract_unitary, broken)
                    new = extraction(extract_unitary, broken)
                    outcomes[old is not None, new is not None] += 1
                    if new is not None:
                        assert old is not None and np.abs(new - old).max() <= 1e-12
                    elif old is not None:
                        stricter.append((name, index, kind))
                        lz = broken.to_matrices()[1::2]
                        signs = 1 - 2 * ((np.arange(len(old)) >> np.arange(len(lz))[:, None]) & 1)
                        assert max(
                            np.abs(mat @ old - old * sign).max() for mat, sign in zip(lz, signs)
                        ) > 0.1
        assert outcomes[True, True] >= 10 and outcomes[False, False] >= 100
        assert stricter == STRICTER


def outcome(extract, table):
    """The unitary ``extract`` gives for ``table``, or the message of its DeterminismError."""
    try:
        return extract(table)
    except DeterminismError as exc:
        return str(exc)


def mutated(table, rng):
    """``table`` with one X bit or one Z bit flipped, or one coefficient times -1 or i."""
    rows, coeffs = table.rows.copy(), table.coeffs.copy()
    row, qubit = rng.integers(len(rows)), rng.integers(table.n)
    kind = rng.integers(4)
    if kind < 2:
        rows[row, kind * table.words] ^= np.uint64(1 << qubit)
    else:
        coeffs[row] *= (-1, 1j)[kind - 2]
    return PauliTable(table.n, table.labels, rows, coeffs, table.owner.copy())


def is_tableau(mats):
    """Whether the dense images are Hermitian, ``Lx_i`` and ``Lz_i`` anticommute, others commute."""
    if any(np.abs(mat - mat.conj().T).max() > 1e-12 for mat in mats):
        return False
    for a in range(len(mats)):
        for b in range(a):
            sign = -1 if a ^ b == 1 else 1
            if np.abs(mats[a] @ mats[b] - sign * mats[b] @ mats[a]).max() > 1e-12:
                return False
    return True


class TestCliffordTableau:
    """The certified route against the dense one it replaces for Clifford tables."""

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_bench_pools_against_the_dense_reference(self, seed):
        for table in finalized_tables("sim-clifford", seed):
            assert _clifford_tableau(table) is not None
            reference = reference_dense_extract_unitary(table)
            assert np.abs(extract_unitary(table) - reference).max() <= 1e-12
        for table in finalized_tables("sim-terms", seed):
            assert _clifford_tableau(table) is None
            assert np.array_equal(extract_unitary(table), reference_dense_extract_unitary(table))

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_certified_unitaries_are_unitary(self, seed):
        # The certified route skips the unitarity check that its relations
        # make redundant; every unitary it gives is unitary all the same.
        for table in finalized_tables("sim-clifford", seed):
            unitary = extract_unitary(table)
            assert np.abs(unitary.conj().T @ unitary - np.eye(len(unitary))).max() <= 1e-12

    def test_mutants_have_the_dense_outcome(self):
        rng = np.random.default_rng(41)
        certified, kinds = collections.Counter(), collections.Counter()
        for table in finalized_tables("sim-clifford", 1):
            for _ in range(6):
                broken = mutated(table, rng)
                old = outcome(reference_dense_extract_unitary, broken)
                new = outcome(extract_unitary, broken)
                assert type(old) is type(new)
                if isinstance(old, str):
                    assert new == old
                else:
                    assert np.abs(new - old).max() <= 1e-12
                holds = is_tableau(broken.to_matrices())
                assert (_clifford_tableau(broken) is not None) == holds
                certified[holds] += 1
                kinds[isinstance(old, str)] += 1
        # Both verdicts and both outcomes occur.
        assert min(certified.values()) >= 10 and min(kinds.values()) >= 10

    def test_refuses_what_is_no_tableau(self):
        one = LogicalOperator(1, {(1, 0): 1.0})
        z, y = LogicalOperator(1, {(0, 1): 1.0}), LogicalOperator(1, {(1, 1): 1j})
        assert _clifford_tableau(pack_operators(1, {"X": one, "Z": z})) == [(1, 0, 0), (0, 1, 0)]
        assert _clifford_tableau(pack_operators(1, {"X": y, "Z": z})) == [(1, 1, 1), (0, 1, 0)]
        for x_image, z_image in [
            (one, one),  # commute
            (LogicalOperator(1, {(1, 1): 1.0}), z),  # XZ = -iY is not Hermitian
            (LogicalOperator(1, {(1, 0): 0.5}), z),  # not a unit
            (LogicalOperator(1, {(1, 0): 1.0, (0, 1): 1.0}), z),  # two words
            (LogicalOperator(1), z),  # no word
        ]:
            assert _clifford_tableau(pack_operators(1, {"X": x_image, "Z": z_image})) is None

    def test_words_act_as_their_matrices(self):
        # The signs are built in float: a uint8 parity would wrap 1 - 2 to 255.
        rng = np.random.default_rng(7)
        for k in range(5):
            dim = 1 << k
            words = [(*rng.integers(dim, size=2).tolist(), int(rng.integers(4))) for _ in range(8)]
            sums = {w: ((x, z, _UNITS[p]),) for w, (x, z, p) in enumerate(words)}
            actions = _word_actions(words, dim)
            vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
            for mat, word in zip(PauliTable.pack(k, sums).to_matrices(), actions):
                gathered = np.zeros((dim, dim), dtype=complex)
                gathered[np.arange(dim), word[0]] = word[1]
                assert np.array_equal(gathered, mat)
                assert np.abs(_gather(word, vector) - mat @ vector).max() <= 1e-12
                assert np.abs(_gather(word, block) - mat @ block).max() <= 1e-12


def random_tableau(rng, n, k):
    """A valid tableau of k pairs on ``n`` qubits, one pivot the top qubit, the others spread.

    ``Lz_i`` is ``Z`` on pivot ``q_i``, and ``Lx_i`` is ``+-X`` or ``+-Y`` on
    ``q_i`` times ``Z`` on some qubits that are no pivot: each word is
    Hermitian, and only ``Lx_i`` and ``Lz_i`` meet on a pivot.
    """
    pivots = rng.permutation([n - 1] + rng.choice(n - 1, size=k - 1, replace=False).tolist())
    pivots = pivots.tolist()
    others = [q for q in range(n) if q not in pivots]
    words = []
    for q in pivots:
        z = sum(1 << int(v) for v in rng.choice(others, size=int(rng.integers(0, 4))))
        y = int(rng.integers(2))  # Y = i X Z
        words += [(1 << q, z | y << q, y + 2 * int(rng.integers(2))), (0, 1 << q, 0)]
    return words


class TestWideReadBack:
    """The tableau read-back reads whole masks, on registers of any width."""

    def test_one_pair_above_the_first_word(self):
        table = PauliTable.pack(70, {"X": ((1 << 66, 0, 1 + 0j),), "Z": ((0, 1 << 66, 1 + 0j),)})
        want = [(1 << 66, 0, 0), (0, 1 << 66, 0)]
        assert table.as_words() == want and _clifford_tableau(table) == want

    @pytest.mark.parametrize("n", [65, 70, 128, 129, 140])
    def test_random_tableaux(self, rng, n):
        high = 0
        for k in (1, 2, 4, 7):
            words = random_tableau(rng, n, k)
            sums = {label: ((x, z, _UNITS[p]),) for label, (x, z, p) in enumerate(words)}
            table = PauliTable.pack(n, sums)
            assert table.as_words() == words and _clifford_tableau(table) == words
            high += any((x | z) >> 64 for x, z, _ in words)
            # The same sums with their rows in reverse label order read back alike.
            order = np.arange(len(words))[::-1].copy()
            rows, coeffs = table.rows.take(order, axis=0), table.coeffs.take(order)
            assert PauliTable(n, table.labels, rows, coeffs, order).as_words() == words
            # Lz_0 moved off its pivot commutes with Lx_0.
            broken, pivot = dict(sums), words[1][1].bit_length() - 1
            broken[1] = ((0, 1 << (pivot + 1) % n, 1 + 0j),)
            assert _clifford_tableau(PauliTable.pack(n, broken)) is None
        assert high

    def test_what_is_no_unit_word_reads_as_none(self):
        one = ((1 << 100, 0, 1 + 0j),)
        for other in [((0, 1 << 100, 0.5 + 0j),), ((0, 1, 1 + 0j), (0, 2, 1 + 0j)), ()]:
            assert PauliTable.pack(101, {"X": one, "Z": other}).as_words() is None
        assert PauliTable.pack(101, {}).as_words() == []


class TestDenseKernel:
    """``to_matrices`` scatters the words' signed permutations; the old scatter is the reference."""

    @staticmethod
    def assert_same(table):
        got, want = table.to_matrices(), old_to_matrices(table)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_finalized_tables_of_both_pools(self, seed):
        for name in ("sim-clifford", "sim-terms"):
            for table in finalized_tables(name, seed):
                self.assert_same(table)

    def test_rows_that_meet_on_one_entry(self, rng):
        # Several rows per sum whose X parts repeat, so that np.add.at adds
        # into entries that already hold a term, with coefficients that
        # cancel, signed zeros among them.
        coefficients = [1 + 0j, -1 + 0j, 1j, -0.0 + 0j, complex(0.0, -0.0), 0.25 - 2j]
        accumulated = 0
        for _ in range(150):
            n, labels = int(rng.integers(0, 5)), int(rng.integers(1, 5))
            x_parts = rng.integers(1 << n, size=2).tolist()
            sums = {}
            for label in range(labels):
                terms = []
                for _ in range(int(rng.integers(0, 7))):
                    x, z = x_parts[rng.integers(2)], int(rng.integers(1 << n))
                    coeff = coefficients[rng.integers(len(coefficients))]
                    if rng.random() < 0.5:
                        coeff = complex(*rng.normal(size=2))
                    terms.append((x, z, coeff))
                sums[label] = tuple(terms)
                accumulated += len(terms) > len({x for x, _, _ in terms})
            self.assert_same(PauliTable.pack(n, sums))
        assert accumulated >= 100


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_flow_graphs_match_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for graph, flow in sample_graphs_with_flow(3, seed=2000 + seed, n_max=7):
            pattern = random_pattern(graph, rng)
            res = simulate_pattern(graph, flow, pattern)
            orc = oracle_unitary(graph, flow, pattern)
            assert max_deviation_up_to_phase(res.unitary, orc) < 1e-9

    def test_fig4_wide_gflow_matches_oracle(self, rng):
        g, gf = fig4_graph(), fig4_depth_one_gflow()
        pattern = random_pattern(g, rng)
        res = simulate_pattern(g, gf, pattern)
        orc = oracle_unitary(g, gf, pattern)
        assert max_deviation_up_to_phase(res.unitary, orc) < 1e-9
        assert res.high_water and max(res.high_water.values()) >= 1

    def test_permuted_registers(self):
        # Input and output orders fix the register mapping: with reversed
        # input order the implemented unitary is the swap.
        g = OpenGraph(n=2, edges=[], inputs=(1, 0), outputs=(0, 1))
        gf = GFlow(corrections={}, layers=[{0, 1}])
        pattern = MeasurementPattern(angles={})
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert max_deviation_up_to_phase(
            simulate_pattern(g, gf, pattern).unitary, swap
        ) < 1e-12
        assert max_deviation_up_to_phase(oracle_unitary(g, gf, pattern), swap) < 1e-12

    def test_empty_graph_gives_the_one_by_one_unitary(self):
        # No inputs, outputs or rounds: the logicals' table is empty and k = 0.
        from mbqcflow import find_gflow

        g = OpenGraph(n=0, edges=[])
        gf = find_gflow(g)
        pattern = MeasurementPattern(angles={})
        unitary = simulate_pattern(g, gf, pattern).unitary
        assert unitary.shape == (1, 1)
        assert np.array_equal(unitary, oracle_unitary(g, gf, pattern))

    def test_unitary_is_gflow_independent(self, rng):
        # Two different valid gflows realize the same pattern, so the
        # extracted unitary must agree (and match the oracle).
        from mbqcflow.fixtures import fig3b_gflow, fig3b_graph
        from mbqcflow import find_gflow

        g = fig3b_graph()
        pattern = random_pattern(g, rng)
        via_quoted = simulate_pattern(g, fig3b_gflow(), pattern).unitary
        via_found = simulate_pattern(g, find_gflow(g), pattern).unitary
        assert max_deviation_up_to_phase(via_quoted, via_found) < 1e-9
        orc = oracle_unitary(g, fig3b_gflow(), pattern)
        assert max_deviation_up_to_phase(via_quoted, orc) < 1e-9


class TestRelabelling:
    """Renaming the vertices, with the input and output order kept, changes no output.

    The sim-clifford pools reach the two-word rows of n = 65-72, where no
    oracle runs.
    """

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", ["sim-terms", "sim-clifford"])
    def test_bench_pools(self, monkeypatch, name, seed):
        import mbqcflow.simulate as simulate_mod

        finalized = []
        finalize = simulate_mod.finalize_outputs

        def spied_finalize(state):
            finalized.append(finalize(state))
            return finalized[-1]

        monkeypatch.setattr(simulate_mod, "finalize_outputs", spied_finalize)
        rng = np.random.default_rng(seed)
        for inst in bench_pool(name, seed):
            mapping = dict(enumerate(rng.permutation(inst.graph.n).tolist()))
            graph, gflow = relabel(inst.graph, inst.gflow, mapping, inst.graph.n)
            pattern = MeasurementPattern(
                angles={mapping[v]: a for v, a in inst.pattern.angles.items()},
                planes={mapping[v]: p for v, p in inst.pattern.planes.items()},
            )
            want = simulate_pattern(inst.graph, inst.gflow, inst.pattern)
            got = simulate_pattern(graph, gflow, pattern)
            # high_water is not compared: a round corrects its vertices in
            # label order, so the peaks between two corrections may differ.
            assert got.cone_sizes == {mapping[i]: c for i, c in want.cone_sizes.items()}
            assert np.max(np.abs(got.unitary - want.unitary)) <= 1e-12
            want_ops, got_ops = (table.operators() for table in finalized[-2:])
            assert list(got_ops) == [(kind, mapping[i]) for kind, i in want_ops]
            for (kind, i), op in want_ops.items():
                terms, relabelled = dict(op.terms()), dict(got_ops[kind, mapping[i]].terms())
                assert relabelled.keys() == terms.keys()
                assert all(abs(relabelled[key] - c) <= 1e-12 for key, c in terms.items())


class TestCostAccounting:
    @pytest.mark.parametrize("name,on_words", [("sim-clifford", True), ("sim-terms", False)])
    def test_a_simulation_computes_each_correcting_sets_masks_once(
        self, monkeypatch, name, on_words
    ):
        # The gFlow check computes the masks and the cone pass reads them.
        import mbqcflow.cones as cones_mod
        import mbqcflow.flow as flow_mod

        calls, masks = collections.Counter(), flow_mod.correction_masks

        def counted(graph, gflow, vertex):
            calls[vertex] += 1
            return masks(graph, gflow, vertex)

        for inst in bench_pool(name, 1):
            state = initialize_simulation(inst.graph, inst.gflow, inst.pattern)
            assert (state.words is not None) == on_words
            with monkeypatch.context() as patch:
                patch.setattr(flow_mod, "correction_masks", counted)
                patch.setattr(cones_mod, "correction_masks", counted)
                calls.clear()
                simulate_pattern(inst.graph, inst.gflow, inst.pattern)
            assert calls == collections.Counter(inst.gflow.measurement_order)

    def test_clifford_angles_never_split(self, rng):
        g, fl = cluster_graph(2, 3), cluster_row_flow(2, 3)
        clifford = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
        pattern = MeasurementPattern(
            angles={v: float(rng.choice(clifford)) for v in g.measured}
        )
        res = simulate_pattern(g, fl, pattern)
        assert all(count == 1 for count in res.high_water.values())

    def test_term_bound_on_fixture_families(self, rng):
        for graph, flow in [
            (path_graph(5), path_flow(5)),
            (cluster_graph(2, 3), cluster_row_flow(2, 3)),
            (cluster_graph(3, 3), cluster_row_flow(3, 3)),
        ]:
            pattern = random_pattern(graph, rng)
            res = simulate_pattern(graph, flow, pattern)
            assert all(res.bound_ok.values())

    def test_support_stays_inside_influence_region(self, rng):
        # The support ever touched by an input's logicals is contained in
        # the influence region (forward cone seeded with the input's
        # neighbours); the bare cone can be escaped through corrections
        # triggered by the initial neighbour Zs.
        for graph, flow in sample_graphs_with_flow(10, seed=34, n_max=7):
            pattern = random_pattern(graph, rng)
            state = initialize_simulation(graph, flow, pattern)
            touched = {
                label: support_mask(op)
                for label, op in state.logicals.operators().items()
            }
            for r in range(len(state.rounds)):
                propagate_round(state)
                for label, op in state.logicals.operators().items():
                    touched[label] |= support_mask(op)
            for (kind, vertex), mask in touched.items():
                region = influence_region(graph, flow, vertex)
                support = {v for v in range(graph.n) if (mask >> v) & 1}
                assert support <= region

    def test_term_budget_stops_growth(self, rng):
        from mbqcflow import BudgetExceededError

        g, fl = cluster_graph(2, 6), cluster_row_flow(2, 6)
        pattern = random_pattern(g, rng)
        assert max(simulate_pattern(g, fl, pattern).high_water.values()) > 20
        with pytest.raises(BudgetExceededError, match=r"^\d+ terms exceed --budget-terms 20$"):
            simulate_pattern(g, fl, pattern, term_budget=20)

    def test_term_budget_holds_when_every_logical_has_one_term(self):
        from mbqcflow import BudgetExceededError

        # Right angles keep one term per logical, so the pattern takes the
        # word path, with 6 words throughout.
        g, fl = cluster_graph(3, 4), cluster_row_flow(3, 4)
        pattern = MeasurementPattern(angles=dict.fromkeys(g.measured, np.pi / 2))
        with pytest.raises(BudgetExceededError, match="^6 terms exceed --budget-terms 5$"):
            simulate_pattern(g, fl, pattern, term_budget=5)
        assert set(simulate_pattern(g, fl, pattern, term_budget=6).high_water.values()) == {1}

    def test_unitary_over_budget_is_refused_before_the_first_round(self, monkeypatch):
        # The 8x7 cluster's 8-qubit unitary counts as 16 qubits, so no round
        # runs; at random angles its logicals would reach millions of terms.
        import mbqcflow.simulate as simulate_mod

        def refuse(state):
            raise AssertionError("a round ran before the unitary's size was checked")

        monkeypatch.setattr(simulate_mod, "propagate_round", refuse)
        g, fl = cluster_graph(8, 7), cluster_row_flow(8, 7)
        pattern = random_pattern(g, np.random.default_rng(3))
        with pytest.raises(
            BudgetExceededError,
            match=r"^16 qubits exceed --budget-dense 14 \(a 8-qubit unitary holds 4\^8 amplitudes",
        ):
            simulate_pattern(g, fl, pattern)
        with pytest.raises(AssertionError, match="^a round ran"):
            simulate_pattern(g, fl, pattern, dense_limit=16)

    def test_cone_bound_can_fail_outside_fixture_families(self):
        # Known sharp edge: an input whose neighbours lie outside its
        # forward cone can overshoot 2**|cone| through their correction
        # cascades.  This pins the behaviour (bound_ok reports False
        # instead of raising).
        g = OpenGraph(
            n=8,
            edges=[(0, 5), (0, 1), (0, 2), (1, 3), (3, 6), (2, 4), (4, 7)],
            inputs=(0,),
            outputs=(5, 6, 7),
        )
        flow = find_causal_flow(g)
        assert flow is not None
        rng = np.random.default_rng(8)
        pattern = random_pattern(g, rng)
        res = simulate_pattern(g, flow, pattern)
        cone = forward_cone(g, flow, 0)
        assert cone == {0, 5}
        assert res.high_water[("X", 0)] > 2 ** len(cone)
        assert res.bound_ok[0] is False


class TestDeterminismCrossCheck:
    def test_oracle_confirms_simulated_fixtures(self, rng):
        g, fl = cluster_graph(2, 3), cluster_row_flow(2, 3)
        pattern = random_pattern(g, rng)
        report = check_determinism(g, fl, pattern, seed=6)
        assert report.ok
