"""Symbolic simulation of XY-plane measurement patterns with gFlow.

The computation is tracked in the logical Heisenberg picture after a
per-qubit Z rotation turns every measurement into a Pauli X measurement.
Each input contributes two logical operators (for its initial X and Z),
expanded as complex-weighted sums of Pauli words.  Propagation multiplies
the terms that anticommute with a measured X by that vertex's correcting
stabilizer product; output extraction then strips the measured X factors,
leaving operators on the outputs that encode the implemented unitary.

All logicals live in one :class:`~mbqcflow.pauli.PauliTable` of
bit-packed rows, so each measured vertex costs one
:meth:`~mbqcflow.pauli.PauliTable.correct` call for all of them: a mask
test when no row is hit, otherwise a product, a merge and a prune on
arrays (see :mod:`mbqcflow.pauli` for the cost).  The rows of that table
are capped by a term budget, and the dense unitary by the dense limit.

Cost accounting: the number of terms per logical is recorded at every
step, to be compared against ``2**|forward cone|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import cone_masks
from .errors import BudgetExceededError, DeterminismError, SimulationInvariantError
from .flow import GFlow, check_pattern, verify_gflow
from .graph import OpenGraph
from .oracle import DEFAULT_DENSE_LIMIT, normalize_phase
from .pattern import MeasurementPattern, Plane
from .pauli import PRUNE_TOLERANCE, LogicalOperator, PauliTable, pack_rows

UNITARITY_TOLERANCE = 1e-9

#: Most rows the table of logicals may reach (``--budget-terms``), from a
#: 1 GiB target.  On a 2-CPU Xeon VM (Python 3.11, numpy 2.4), runs stopped
#: by this budget peaked at 660 MB RSS with one-word rows (cluster 3x14,
#: about 150 bytes per row) and at 950-1040 MB with two-word rows (cluster
#: 3x22 and 5x14, about 240 bytes per row).  The sim-terms and sim-clifford
#: benchmark pools of seeds 1-5 reach at most 13,687 rows.
DEFAULT_TERM_BUDGET = 2**22


def rotated_stabilizer(graph: OpenGraph, vertex: int, angle: float) -> LogicalOperator:
    """Graph stabilizer of ``vertex`` conjugated by its measurement rotation.

    ``exp(i a/2 Z) (X (x) Z_neighbours) exp(-i a/2 Z)``, expanded into at
    most two Pauli words.  Only non-input vertices carry a stabilizer.
    """
    if not 0 <= vertex < graph.n:
        raise ValueError(f"vertex {vertex} out of range")
    if vertex in graph.input_set:
        raise ValueError(f"input vertex {vertex} carries no stabilizer")
    return _rotated_x_words(graph, [vertex], [angle])[0]


def _rotated_x_words(
    graph: OpenGraph, vertices: list[int], angles: list[float]
) -> list[LogicalOperator]:
    """``X_v (x) Z_neighbours`` conjugated by the rotation of v, for every v at once.

    Each is ``cos(a) X_v Z_N(v) - i sin(a) X_v Z_v Z_N(v)``, pruned.
    """
    x_bits = [1 << v for v in vertices]
    neighbours = [graph.adjacency_masks[v] for v in vertices]
    rows = np.stack(
        (
            pack_rows(graph.n, x_bits, neighbours),
            pack_rows(graph.n, x_bits, [nb | x for nb, x in zip(neighbours, x_bits)]),
        ),
        axis=1,
    )
    angles = np.array(angles, dtype=float)
    coeffs = np.stack((np.cos(angles) + 0j, -1j * np.sin(angles)), axis=1)
    ops = []
    for i, (cos_live, sin_live) in enumerate((np.abs(coeffs) > PRUNE_TOLERANCE).tolist()):
        # The live words are a slice: both, the cos word or the sin word.
        words_live = slice(0 if cos_live else 1, 2 if sin_live else 1)
        ops.append(LogicalOperator.from_rows(graph.n, rows[i, words_live], coeffs[i, words_live]))
    return ops


@dataclass
class SimulationState:
    """Mutable carrier of stabilizers and logicals through the rounds."""

    graph: OpenGraph
    gflow: GFlow
    pattern: MeasurementPattern
    stabilizers: dict[int, LogicalOperator]
    logicals: PauliTable
    round_cursor: int = 0
    high_water: dict[tuple[str, int], int] = field(default_factory=dict)
    term_budget: int | None = DEFAULT_TERM_BUDGET

    @property
    def rounds(self) -> tuple[frozenset[int], ...]:
        return self.gflow.layers[:-1]

    def record_high_water(self, marks: np.ndarray | None = None) -> None:
        """Raise each label's mark to ``marks`` (default: its current term count)."""
        marks = self.logicals.counts if marks is None else marks
        for label, mark in zip(self.logicals.labels, marks.tolist()):
            if mark > self.high_water.get(label, 0):
                self.high_water[label] = mark


def _stabilizer_angle(pattern: MeasurementPattern, vertex: int) -> float:
    # Unmeasured (output) vertices are never rotated.
    return pattern.angles.get(vertex, 0.0)


def _correcting_operator(
    gflow: GFlow, rotated: dict[int, LogicalOperator], vertex: int
) -> LogicalOperator:
    """Product of rotated stabilizers over the correcting set of ``vertex``."""
    result: LogicalOperator | None = None
    for j in sorted(gflow.corrections[vertex]):
        factor = rotated[j]
        result = factor if result is None else result * factor
    if result is None:
        raise SimulationInvariantError(f"empty correcting set for vertex {vertex}")
    return result


def initialize_simulation(
    graph: OpenGraph,
    gflow: GFlow,
    pattern: MeasurementPattern,
    term_budget: int | None = DEFAULT_TERM_BUDGET,
) -> SimulationState:
    """Rotated stabilizers and initial logical operators for the pattern.

    Inputs that are measured contribute a rotated ``X (x) Z_neighbours``
    logical; unmeasured inputs keep it unrotated.  The input's Z logical
    commutes with the rotation and stays a bare Z.  Each rotated
    stabilizer is built once, however many correcting sets hold it.
    """
    if len(graph.inputs) > len(graph.outputs):
        raise ValueError("simulation requires |inputs| <= |outputs|")
    violations = verify_gflow(graph, gflow)
    if violations:
        raise ValueError(f"gflow is invalid: {violations[:3]}")
    for v, plane in gflow.planes.items():
        if plane is not Plane.XY:
            raise ValueError("symbolic simulation supports XY-plane patterns only")
    check_pattern(gflow, pattern)

    corrector_vertices = sorted(set().union(*gflow.corrections.values()))
    inputs = list(graph.inputs)
    # Unmeasured inputs keep their X logical unrotated (angle 0).
    words = _rotated_x_words(
        graph,
        corrector_vertices + inputs,
        [_stabilizer_angle(pattern, v) for v in corrector_vertices + inputs],
    )
    rotated = dict(zip(corrector_vertices, words))
    stabilizers = {
        i: _correcting_operator(gflow, rotated, i) for i in sorted(gflow.corrections)
    }
    z_rows = pack_rows(graph.n, [0] * len(inputs), [1 << i for i in inputs])
    logicals: dict[tuple[str, int], LogicalOperator] = {}
    for index, i in enumerate(inputs):
        logicals[("X", i)] = words[len(corrector_vertices) + index]
        logicals[("Z", i)] = LogicalOperator.from_rows(
            graph.n, z_rows[index : index + 1], np.ones(1, dtype=complex)
        )

    state = SimulationState(
        graph=graph,
        gflow=gflow,
        pattern=pattern,
        stabilizers=stabilizers,
        logicals=PauliTable.stack(graph.n, logicals),
        term_budget=term_budget,
    )
    state.record_high_water()
    return state


def propagate_round(state: SimulationState, round_index: int) -> SimulationState:
    """Push every logical through one measurement round.

    For each vertex of the round (ascending) every row of the logicals'
    table that anticommutes with the measured X is multiplied by that
    vertex's correcting stabilizer product, and the rows merge and prune
    as in :meth:`LogicalOperator.corrected`: one
    :meth:`~mbqcflow.pauli.PauliTable.correct` call for all logicals.
    Rounds must be applied in ascending order.

    Raises :class:`BudgetExceededError` before a vertex would take the
    table past ``state.term_budget`` rows.
    """
    if round_index != state.round_cursor:
        raise ValueError(
            f"round {round_index} applied out of order (expected {state.round_cursor})"
        )
    if round_index >= len(state.rounds):
        raise ValueError(f"round {round_index} out of range")
    table = state.logicals
    marks = table.counts.copy()
    for mu in sorted(state.rounds[round_index]):
        if table.correct(mu, state.stabilizers[mu], state.term_budget):
            np.maximum(marks, table.counts, out=marks)
    state.record_high_water(marks)
    state.round_cursor += 1
    return state


def propagate_all(state: SimulationState) -> SimulationState:
    while state.round_cursor < len(state.rounds):
        propagate_round(state, state.round_cursor)
    return state


@dataclass(frozen=True)
class FinalizedLogicals:
    """Logical operators reduced to the output register (output order)."""

    input_vertices: tuple[int, ...]
    output_vertices: tuple[int, ...]
    x_logicals: tuple[LogicalOperator, ...]
    z_logicals: tuple[LogicalOperator, ...]

    @property
    def qubit_count(self) -> int:
        return len(self.output_vertices)


def finalize_outputs(state: SimulationState) -> FinalizedLogicals:
    """Strip measured X factors and reindex the logicals onto the outputs.

    After full propagation every term is free of Z on measured vertices;
    multiplying residual X factors away (they are stabilizers of the
    post-measurement state) leaves operators supported on the outputs
    only.  All logicals are projected as one table
    (:meth:`~mbqcflow.pauli.PauliTable.project`).  Residual Z support on a
    measured vertex violates the gflow guarantee and raises
    :class:`SimulationInvariantError`.
    """
    if state.round_cursor != len(state.rounds):
        raise ValueError("all rounds must be propagated before finalizing")
    graph = state.graph
    inputs = tuple(graph.inputs)
    x_ops: tuple[LogicalOperator, ...] = ()
    z_ops: tuple[LogicalOperator, ...] = ()
    if inputs:
        measured = sum(1 << v for v in graph.measured)
        if state.logicals.z_support() & measured:
            raise SimulationInvariantError(
                "residual anticommutation with a measured X survived propagation"
            )
        projected = state.logicals.project(list(graph.outputs)).operators()
        x_ops = tuple(projected[("X", i)] for i in inputs)
        z_ops = tuple(projected[("Z", i)] for i in inputs)
    return FinalizedLogicals(
        input_vertices=inputs,
        output_vertices=tuple(graph.outputs),
        x_logicals=x_ops,
        z_logicals=z_ops,
    )


def extract_unitary(
    finalized: FinalizedLogicals, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> np.ndarray:
    """Factor the unitary out of the finalized logical operators.

    The logicals are images ``U P U^dag`` of the input Paulis, so the
    product of ``(1 + Lz_i)/2`` is the image of |0..0><0..0|; its
    principal eigenvector seeds the columns, which the X images then
    generate: the columns with bit i set are ``Lx_i`` times those below
    ``2**i``.  A transfer map that is not rank-one/unitary within
    ``UNITARITY_TOLERANCE`` means the pattern does not implement a
    unitary and raises :class:`DeterminismError`.

    A k-qubit operator holds 4^k amplitudes, as many as a 2k-qubit state,
    so k with 2k above ``dense_limit`` raises
    :class:`BudgetExceededError` before anything dense is built.
    """
    k = len(finalized.input_vertices)
    if k != finalized.qubit_count:
        raise ValueError("unitary extraction needs equally many inputs and outputs")
    if 2 * k > dense_limit:
        raise BudgetExceededError(
            f"{2 * k} qubits exceed --budget-dense {dense_limit} "
            f"(a {k}-qubit unitary holds 4^{k} amplitudes)"
        )
    dim = 1 << k
    logicals = finalized.x_logicals + finalized.z_logicals
    mats = PauliTable.stack(k, dict(enumerate(logicals))).to_matrices()
    lx, lz = mats[:k], mats[k:]
    projector = np.eye(dim, dtype=complex)
    for mat in lz:
        projector = projector @ (np.eye(dim) + mat) / 2.0
    eigvals, eigvecs = np.linalg.eigh((projector + projector.conj().T) / 2.0)
    if max(abs(eigvals[-1] - 1.0), *np.abs(eigvals[:-1])) > UNITARITY_TOLERANCE:
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
    deviation = np.max(np.abs(unitary.conj().T @ unitary - np.eye(dim)))
    if deviation > UNITARITY_TOLERANCE:
        raise DeterminismError(
            f"extracted map deviates from unitarity by {deviation:.2e}"
        )
    return normalize_phase(unitary)


def complex_pairs(values: np.ndarray) -> list:
    """Nested ``[re, im]`` lists of a complex array, for JSON output."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


@dataclass(frozen=True)
class SimulationResult:
    """Full pipeline output with cost accounting."""

    unitary: np.ndarray | None
    high_water: dict[tuple[str, int], int]
    cone_sizes: dict[int, int]
    bound_ok: dict[int, bool]

    def to_json_dict(self) -> dict:
        payload: dict = {
            "term_counts": {
                f"{kind}{vertex}": count
                for (kind, vertex), count in sorted(self.high_water.items())
            },
            "cone_sizes": {str(v): s for v, s in sorted(self.cone_sizes.items())},
            "cone_bound_ok": {str(v): ok for v, ok in sorted(self.bound_ok.items())},
        }
        payload["unitary"] = None if self.unitary is None else complex_pairs(self.unitary)
        return payload


def simulate_pattern(
    graph: OpenGraph,
    gflow: GFlow,
    pattern: MeasurementPattern,
    term_budget: int | None = DEFAULT_TERM_BUDGET,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> SimulationResult:
    """Initialize, propagate all rounds, finalize, and account the cost.

    The per-input term-count high-water marks are compared against
    ``2**|forward cone|``; the unitary is extracted when the input and
    output registers have equal size.  ``term_budget`` caps the rows of
    the stacked logicals and ``dense_limit`` the unitary (see
    :func:`propagate_round` and :func:`extract_unitary`).
    """
    state = initialize_simulation(graph, gflow, pattern, term_budget)
    propagate_all(state)
    finalized = finalize_outputs(state)
    unitary = None
    if len(graph.inputs) == len(graph.outputs):
        unitary = extract_unitary(finalized, dense_limit)
    cones = cone_masks(graph, gflow)
    cone_sizes = {i: cones[i].bit_count() for i in graph.inputs}
    bound_ok = {}
    for i in graph.inputs:
        limit = 2 ** cone_sizes[i]
        bound_ok[i] = (
            state.high_water[("X", i)] <= limit
            and state.high_water[("Z", i)] <= limit
        )
    return SimulationResult(
        unitary=unitary,
        high_water=dict(state.high_water),
        cone_sizes=cone_sizes,
        bound_ok=bound_ok,
    )
