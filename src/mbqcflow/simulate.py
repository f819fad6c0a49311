"""Symbolic simulation of XY-plane measurement patterns with gFlow.

The computation is tracked in the logical Heisenberg picture after a
per-qubit Z rotation turns every measurement into a Pauli X measurement.
Each input contributes two logical operators (for its initial X and Z),
expanded as complex-weighted sums of Pauli words.  Propagation multiplies
the terms that anticommute with a measured X by that vertex's correcting
stabilizer product; output extraction then strips the measured X factors,
leaving operators on the outputs that encode the implemented unitary.

All logicals live in one :class:`~mbqcflow.pauli.PauliTable` of
bit-packed rows, so each measurement round is one
:meth:`~mbqcflow.pauli.PauliTable.correct_round` call for all of them.
While every logical is one word and so is every correction of the round,
as in a Clifford pattern, that is one kernel call for the whole round.
Otherwise each vertex of the round costs a mask test when no row is hit,
and a product, a merge and a prune on arrays when some row is (see
:mod:`mbqcflow.pauli` for the cost).  The rows of that table are capped
by a term budget, and the dense unitary by the dense limit.

Cost accounting: the table records the most terms each logical has
had (:attr:`~mbqcflow.pauli.PauliTable.peaks`), to be compared against
``2**|forward cone|``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cones import cone_masks
from .errors import DEFAULT_DENSE_LIMIT, DEFAULT_TERM_BUDGET, BudgetExceededError
from .errors import DeterminismError, SimulationInvariantError
from .flow import GFlow, check_analysis_preconditions, check_pattern, verify_gflow
from .graph import OpenGraph
from .oracle import TOLERANCE, canonical_unitary, complex_pairs
from .pattern import MeasurementPattern, Plane
from .pauli import PRUNE_TOLERANCE, LogicalOperator, PauliTable, pack_rows


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
    term_budget: int = DEFAULT_TERM_BUDGET

    @property
    def rounds(self) -> tuple[frozenset[int], ...]:
        return self.gflow.layers[:-1]

    @property
    def high_water(self) -> dict[tuple[str, int], int]:
        """The most terms each logical has had, in table order."""
        return dict(zip(self.logicals.labels, self.logicals.peaks.tolist()))


def initialize_simulation(
    graph: OpenGraph,
    gflow: GFlow,
    pattern: MeasurementPattern,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> SimulationState:
    """Rotated stabilizers and initial logical operators for the pattern.

    Inputs that are measured contribute a rotated ``X (x) Z_neighbours``
    logical; unmeasured inputs keep it unrotated.  The input's Z logical
    commutes with the rotation and stays a bare Z.  Each rotated
    stabilizer is built once, however many correcting sets hold it.  No
    correcting set is empty: the XY rule of a valid gFlow needs i in Odd(g(i)).
    """
    check_analysis_preconditions(graph)
    violations = verify_gflow(graph, gflow)
    if violations:
        raise ValueError(f"gflow is invalid: {violations[:3]}")
    if any(plane is not Plane.XY for plane in gflow.planes.values()):
        raise ValueError("symbolic simulation supports XY-plane patterns only")
    check_pattern(gflow, pattern)

    corrector_vertices = sorted(set().union(*gflow.corrections.values()))
    inputs = list(graph.inputs)
    # Unmeasured vertices, outputs and inputs alike, are never rotated (angle 0).
    vertices = corrector_vertices + inputs
    words = _rotated_x_words(graph, vertices, [pattern.angles.get(v, 0.0) for v in vertices])
    rotated = dict(zip(corrector_vertices, words))
    stabilizers = {
        i: reduce(operator.mul, [rotated[j] for j in sorted(gflow.corrections[i])])
        for i in sorted(gflow.corrections)
    }
    z_rows = pack_rows(graph.n, [0] * len(inputs), [1 << i for i in inputs])
    logicals: dict[tuple[str, int], LogicalOperator] = {}
    for index, i in enumerate(inputs):
        logicals[("X", i)] = words[len(corrector_vertices) + index]
        logicals[("Z", i)] = LogicalOperator.from_rows(
            graph.n, z_rows[index : index + 1], np.ones(1, dtype=complex)
        )

    return SimulationState(
        graph=graph,
        gflow=gflow,
        pattern=pattern,
        stabilizers=stabilizers,
        logicals=PauliTable.stack(graph.n, logicals),
        term_budget=term_budget,
    )


def propagate_round(state: SimulationState) -> SimulationState:
    """Push every logical through the next measurement round, ``state.round_cursor``.

    For each vertex of the round (ascending) every row of the logicals'
    table that anticommutes with the measured X is multiplied by that
    vertex's correcting stabilizer product, and the rows merge and prune:
    one :meth:`~mbqcflow.pauli.PauliTable.correct_round` call for all
    logicals.  When every logical and every correction of the round is one
    word, that is one kernel call for the round, not one per vertex: the
    strict layers of a valid gFlow keep each correction's Z off the other
    vertices of its round.

    Raises :class:`BudgetExceededError` before a vertex would take the
    table past ``state.term_budget`` rows, and ``ValueError`` when every
    round is already propagated.
    """
    if state.round_cursor >= len(state.rounds):
        raise ValueError(f"all {len(state.rounds)} rounds are already propagated")
    vertices = sorted(state.rounds[state.round_cursor])
    state.logicals.correct_round(
        vertices, [state.stabilizers[mu] for mu in vertices], state.term_budget
    )
    state.round_cursor += 1
    return state


def propagate_all(state: SimulationState) -> SimulationState:
    while state.round_cursor < len(state.rounds):
        propagate_round(state)
    return state


def finalize_outputs(state: SimulationState) -> PauliTable:
    """The logicals stripped of measured X factors, as a table on the output register.

    After full propagation every term is free of Z on measured vertices;
    multiplying residual X factors away (they are stabilizers of the
    post-measurement state) leaves operators supported on the outputs
    only.  The returned table (:meth:`~mbqcflow.pauli.PauliTable.project`)
    has output ``graph.outputs[p]`` as qubit p and holds the sums
    ``("X", i)`` and ``("Z", i)`` for each input i in turn; with no inputs
    it is empty.  Residual Z support on a measured vertex violates the
    gflow guarantee and raises :class:`SimulationInvariantError`.
    """
    if state.round_cursor != len(state.rounds):
        raise ValueError("all rounds must be propagated before finalizing")
    measured = sum(1 << v for v in state.graph.measured)
    if state.logicals.z_support() & measured:
        raise SimulationInvariantError(
            "residual anticommutation with a measured X survived propagation"
        )
    return state.logicals.project(list(state.graph.outputs))


def extract_unitary(logicals: PauliTable, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Factor the unitary out of the finalized logicals (see :func:`finalize_outputs`).

    The k inputs give ``2 k`` labelled sums on the ``logicals.n`` outputs.
    The logicals are images ``U P U^dag`` of the input Paulis, so the
    product P of the ``(1 + Lz_i)/2`` is the image |u0><u0| of
    |0..0><0..0|, and ``P e_j = conj(u0_j) u0``.  The first column u0 is
    ``P e_j`` normalised, for the first j whose squared norm is at least
    ``2**-k / 2`` (the squared norms sum to 1, so one is at least ``2**-k``);
    P is applied as k matrix-vector products and never formed.  The X
    images generate the other columns: those with bit i set are ``Lx_i``
    times those below ``2**i``.  Then every Z image is checked against
    the columns, ``Lz_i U = U Z_i``.  The X and Z images are the even and
    the odd sums of ``logicals``, made dense in one scatter.  A transfer
    map that fails the column search, the Z check or unitarity within
    ``TOLERANCE`` means the pattern does not implement a unitary and
    raises :class:`DeterminismError`.

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
    not_rank_one = "transfer of |0><0| is not a rank-one projector; pattern is not unitary"
    for j in range(dim):
        column = np.zeros(dim, dtype=complex)
        column[j] = 1.0
        for mat in lz:
            column = (column + mat @ column) / 2.0
        norm2 = np.vdot(column, column).real
        if norm2 >= 0.5 / dim:
            break
    else:
        raise DeterminismError(not_rank_one)
    unitary = np.empty((dim, dim), dtype=complex)
    unitary[:, 0] = column / np.sqrt(norm2)
    for i in range(k):
        half = 1 << i
        unitary[:, half : 2 * half] = lx[i] @ unitary[:, :half]
    signs = 1 - 2 * ((np.arange(dim) >> np.arange(k)[:, None]) & 1)
    for mat, sign in zip(lz, signs):
        if np.abs(mat @ unitary - unitary * sign).max() > TOLERANCE:
            raise DeterminismError(not_rank_one)
    return canonical_unitary(unitary, "extracted")


@dataclass(frozen=True)
class SimulationResult:
    """Full pipeline output with cost accounting."""

    unitary: np.ndarray | None
    high_water: dict[tuple[str, int], int]
    cone_sizes: dict[int, int]
    bound_ok: dict[int, bool]

    def to_json_dict(self) -> dict:
        return {
            "term_counts": {
                f"{kind}{vertex}": count
                for (kind, vertex), count in sorted(self.high_water.items())
            },
            "cone_sizes": {str(v): s for v, s in sorted(self.cone_sizes.items())},
            "cone_bound_ok": {str(v): ok for v, ok in sorted(self.bound_ok.items())},
            "unitary": None if self.unitary is None else complex_pairs(self.unitary),
        }


def simulate_pattern(
    graph: OpenGraph,
    gflow: GFlow,
    pattern: MeasurementPattern,
    term_budget: int = DEFAULT_TERM_BUDGET,
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
    logicals = finalize_outputs(state)
    unitary = None
    if len(graph.inputs) == len(graph.outputs):
        unitary = extract_unitary(logicals, dense_limit)
    cones = cone_masks(graph, gflow)
    cone_sizes = {i: cones[i].bit_count() for i in graph.inputs}
    high_water = state.high_water
    bound_ok = {
        i: max(high_water[("X", i)], high_water[("Z", i)]) <= 2 ** cone_sizes[i]
        for i in graph.inputs
    }
    return SimulationResult(
        unitary=unitary,
        high_water=high_water,
        cone_sizes=cone_sizes,
        bound_ok=bound_ok,
    )
