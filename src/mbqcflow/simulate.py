"""Symbolic simulation of XY-plane measurement patterns with gFlow.

The computation is tracked in the logical Heisenberg picture after a
per-qubit Z rotation turns every measurement into a Pauli X measurement.
Each input contributes two logical operators (for its initial X and Z),
expanded as complex-weighted sums of Pauli words.  Propagation multiplies
the terms that anticommute with a measured X by that vertex's correcting
stabilizer product; output extraction then strips the measured X factors,
leaving operators on the outputs that encode the implemented unitary.

This module is the pipeline: the rotated words, the rounds, finalize, the
unitary and the cost accounting.  Every Pauli word, sum and table format,
and every kernel on them, is :mod:`mbqcflow.pauli`'s.  Of the two paths,
:func:`initialize_simulation` picks one from the live words ``(x, z,
coefficient)`` that :func:`_rotated_words` derives for each rotated
stabilizer.  When each one that a correcting set or an input's X logical
uses is one word with a unit coefficient, as when every angle is a multiple
of pi/2, every logical and correcting product stays one word ``(x, z, p)``,
and a round is one :func:`~mbqcflow.pauli._correct_round` pass.  Otherwise
the correcting products are :func:`~mbqcflow.pauli._sum_product` folds, the
logicals are packed once into a :class:`~mbqcflow.pauli.PauliTable`, and each
vertex of a round is one :meth:`~mbqcflow.pauli.PauliTable.correct` call with
that vertex's product as a :class:`~mbqcflow.pauli.Run`.  Both paths finalize
to a table on the outputs.  A term budget caps its rows (on the word path,
the logicals), and the dense limit caps the unitary.

Cost accounting: the table records the most terms each logical has
had (:attr:`~mbqcflow.pauli.PauliTable.peaks`; 1 on the word path), to
be compared against ``2**|forward cone|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .cones import _cone_pass
from .errors import DEFAULT_DENSE_LIMIT, DEFAULT_TERM_BUDGET
from .errors import DeterminismError, SimulationInvariantError
from .flow import GFlow, _check_gflow_valid, check_analysis_preconditions, check_pattern
from .graph import OpenGraph
from .oracle import TOLERANCE, _check_unitary, canonical_unitary, complex_pairs, normalize_phase
from .pattern import MeasurementPattern, Plane
from .pauli import PRUNE_TOLERANCE, LogicalOperator, PauliTable, Run, Term, Word
from .pauli import _clifford_tableau, _correct_round, _gather, _project_words, _sum_product
from .pauli import _unit_words, _word_actions, _word_product, _word_table


def rotated_stabilizer(graph: OpenGraph, vertex: int, angle: float) -> LogicalOperator:
    """Graph stabilizer of ``vertex`` conjugated by its measurement rotation.

    ``exp(i a/2 Z) (X (x) Z_neighbours) exp(-i a/2 Z)``, expanded into at most two
    Pauli words.  Only non-input vertices carry one, and ``a`` must be finite.
    """
    vertex = graph._check_vertex(vertex)
    if vertex in graph.input_set:
        raise ValueError(f"input vertex {vertex} carries no stabilizer")
    if not math.isfinite(angle):
        raise ValueError(f"angle for vertex {vertex} is not finite")
    (words,) = _rotated_words(graph, [vertex], [angle])
    return LogicalOperator(graph.n, {(x, z): c for x, z, c in words})


def _rotated_words(
    graph: OpenGraph, vertices: list[int], angles: list[float]
) -> list[tuple[Term, ...]]:
    """Each v's rotated ``X_v (x) Z_neighbours`` as its live words ``(x, z, coefficient)``.

    It is ``cos(a) X_v Z_N(v) - i sin(a) X_v Z_v Z_N(v)`` for ``v = vertices[j]`` and
    ``a = angles[j]``, without a word whose coefficient is at most ``PRUNE_TOLERANCE``.
    """
    angles, neighbours, live = np.array(angles, dtype=float), graph.adjacency_masks, []
    for v, cos, sin in zip(vertices, np.cos(angles).tolist(), np.sin(angles).tolist()):
        x, z = 1 << v, neighbours[v]  # the sin word has Z on v too
        if abs(sin) <= PRUNE_TOLERANCE:
            live.append(((x, z, cos + 0j),))
        elif abs(cos) <= PRUNE_TOLERANCE:
            live.append(((x, z | x, complex(0.0, -sin)),))
        else:
            live.append(((x, z, cos + 0j), (x, z | x, complex(0.0, -sin))))
    return live


@dataclass
class SimulationState:
    """Mutable carrier of the logicals through the rounds, on one of two paths.

    ``products`` maps each corrected vertex to its correcting product, a
    Python sum: a word ``(x, z, p)`` on the word path, a tuple of terms ``(x,
    z, coefficient)`` on the table path.  On the word path ``words`` maps each
    logical's label to its word and ``table`` is None.  On the table path
    ``table`` holds the logicals, and ``_runs`` each product as the
    :class:`~mbqcflow.pauli.Run` that every correction takes, packed and hashed
    once at set-up.  :attr:`logicals` and :attr:`stabilizers` read the current
    values on either path, the stabilizers as new operators.  ``_runs`` and
    ``masks`` (the gFlow check's :func:`~mbqcflow.flow.correction_masks`, for
    the cone pass) live only in this state.
    """

    graph: OpenGraph
    gflow: GFlow
    pattern: MeasurementPattern
    products: dict[int, Word] | dict[int, tuple[Term, ...]]
    table: PauliTable | None = None
    words: dict[tuple[str, int], Word] | None = None
    round_cursor: int = 0
    term_budget: int = DEFAULT_TERM_BUDGET
    _runs: dict[int, Run] = field(init=False, repr=False, compare=False, default_factory=dict)
    masks: dict[int, tuple] = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def rounds(self) -> tuple[frozenset[int], ...]:
        return self.gflow.layers[:-1]

    @property
    def logicals(self) -> PauliTable:
        """The logicals as a table; on the word path, packed from the words when read."""
        return self.table if self.words is None else _word_table(self.graph.n, self.words)

    @property
    def stabilizers(self) -> dict[int, LogicalOperator]:
        """Each corrected vertex's correcting product as a new operator, read from a table."""
        pack = PauliTable.pack if self.words is None else _word_table
        return pack(self.graph.n, self.products).operators()

    @property
    def high_water(self) -> dict[tuple[str, int], int]:
        """The most terms each logical has had (1 on the word path), in table order."""
        if self.words is not None:
            return dict.fromkeys(self.words, 1)
        return dict(zip(self.table.labels, self.table.peaks.tolist()))


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
    An invalid gFlow raises the ValueError of :func:`~mbqcflow.flow._check_gflow_valid`.

    Both paths start from :func:`_rotated_words`, and each Z logical is the
    word ``(0, 1 << i, 1)``.  The pattern takes the word path (see the
    module docstring) when every such sum is one word with a unit
    coefficient; otherwise the logicals and the products are packed once.
    """
    check_analysis_preconditions(graph)
    masks = _check_gflow_valid(graph, gflow)
    if any(plane is not Plane.XY for plane in gflow.planes.values()):
        raise ValueError("symbolic simulation supports XY-plane patterns only")
    check_pattern(gflow, pattern)

    corrector_vertices = sorted(set().union(*gflow.corrections.values()))
    inputs = list(graph.inputs)
    # Unmeasured vertices, outputs and inputs alike, are never rotated (angle 0).
    vertices = corrector_vertices + inputs
    live = _rotated_words(graph, vertices, [pattern.angles.get(v, 0.0) for v in vertices])
    live += [((0, 1 << i, 1 + 0j),) for i in inputs]
    try:
        sums, product = _unit_words(live), _word_product
    except ValueError:
        sums, product = live, _sum_product
    rotated = dict(zip(corrector_vertices, sums))
    products = {
        i: reduce(product, [rotated[j] for j in sorted(gflow.corrections[i])])
        for i in sorted(gflow.corrections)
    }
    logicals = {}
    for i, x_sum, z_sum in zip(inputs, sums[len(corrector_vertices) :], sums[len(vertices) :]):
        logicals[("X", i)], logicals[("Z", i)] = x_sum, z_sum
    state = SimulationState(graph, gflow, pattern, products, term_budget=term_budget)
    if product is _word_product:
        state.words = logicals
    else:
        state.table = PauliTable.pack(graph.n, logicals)
        state._runs = PauliTable.pack(graph.n, products).runs()
    state.masks = masks
    return state


def propagate_round(state: SimulationState) -> SimulationState:
    """Push every logical through the next measurement round, ``state.round_cursor``.

    For each vertex of the round (ascending) every logical term that
    anticommutes with the measured X is multiplied by that vertex's
    correcting product: on the table path one
    :meth:`~mbqcflow.pauli.PauliTable.correct` call per vertex, with the
    product's run; on the word path one :func:`~mbqcflow.pauli._correct_round`
    pass over the logicals for the whole round.

    Raises :class:`BudgetExceededError` before a vertex would take the table
    past ``state.term_budget`` rows (on the word path, when the round hits a
    logical and there are more logicals than that), and ``ValueError`` when
    every round is already propagated.
    """
    if state.round_cursor >= len(state.rounds):
        raise ValueError(f"all {len(state.rounds)} rounds are already propagated")
    vertices = state.rounds[state.round_cursor]
    if state.words is None:
        for mu in sorted(vertices):
            state.table.correct(mu, state._runs[mu], state.term_budget)
    else:
        mask = sum(1 << mu for mu in vertices)
        _correct_round(state.words, mask, state.products, state.term_budget)
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
    only.  The table is :meth:`~mbqcflow.pauli.PauliTable.project`'s, or on the
    word path :func:`~mbqcflow.pauli._project_words`', the same byte for byte.
    Output ``graph.outputs[p]`` is qubit p, and the sums are ``("X", i)``
    and ``("Z", i)`` for each input i in turn; with no inputs it is empty.
    Residual Z on a measured vertex raises :class:`SimulationInvariantError`.
    """
    if state.round_cursor != len(state.rounds):
        raise ValueError("all rounds must be propagated before finalizing")
    measured, words = sum(1 << v for v in state.graph.measured), state.words
    z_masks = [state.table.z_support()] if words is None else [z for _, z, _ in words.values()]
    if any(z & measured for z in z_masks):
        raise SimulationInvariantError(
            "residual anticommutation with a measured X survived propagation"
        )
    outputs = list(state.graph.outputs)
    return state.table.project(outputs) if words is None else _project_words(words, outputs)


def extract_unitary(logicals: PauliTable, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Factor the unitary out of the finalized logicals (see :func:`finalize_outputs`).

    The k inputs give ``2 k`` labelled sums on the ``logicals.n`` outputs,
    the X image ``Lx_i`` and the Z image ``Lz_i`` of each input in turn.
    The logicals are images ``U P U^dag`` of the input Paulis, so the
    product P of the ``(1 + Lz_i)/2`` is the image |u0><u0| of
    |0..0><0..0|, and ``P e_j = conj(u0_j) u0``.  The first column u0 is
    ``P e_j`` normalised, for the first j whose squared norm is at least
    ``2**-k / 2`` (the squared norms sum to 1, so one is at least ``2**-k``);
    P is applied as k operator-vector products and never formed.  The X
    images generate the other columns: those with bit i set are ``Lx_i``
    times those below ``2**i``.  A transfer map that fails the column
    search, the Z check below or unitarity within ``TOLERANCE`` (both on the
    dense form only) means the pattern does not implement a unitary and
    raises :class:`DeterminismError`.

    The images act in one of two forms.  When
    :func:`~mbqcflow.pauli._clifford_tableau` certifies the table, as it does
    for every table of a Clifford pattern, each image is one signed word and
    acts as a signed permutation, a gather (:func:`~mbqcflow.pauli._gather`).
    The relations make the 2k words a symplectic basis, so the ``Lz_i``, which
    commute and square to I, stabilize exactly one state, u0.  Each column is
    ``U e_x = Lx^x u0``, so ``Lz_i U e_x = (-1)^{x_i} U e_x`` holds exactly and
    the Z check is skipped.  So is the unitarity check: the columns are unit
    vectors with distinct ``Lz`` eigenvalue patterns, hence orthonormal; only
    the phase is normalised.  Every other table is made dense in one scatter
    (:meth:`~mbqcflow.pauli.PauliTable.to_matrices`), and every Z image is
    checked against the columns, ``Lz_i U = U Z_i``.

    Before anything dense is built, :func:`~mbqcflow.oracle._check_unitary`
    checks the registers and counts the k-qubit unitary as 2k qubits.
    """
    k = len(logicals.labels) // 2
    _check_unitary(k, logicals.n, dense_limit)
    dim = 1 << k
    words = _clifford_tableau(logicals)
    if words is None:
        images, apply = logicals.to_matrices(), np.matmul
    else:
        images, apply = _word_actions(words, dim), _gather
    lx, lz = images[0::2], images[1::2]
    not_rank_one = "transfer of |0><0| is not a rank-one projector; pattern is not unitary"
    for j in range(dim):
        column = np.zeros(dim, dtype=complex)
        column[j] = 1.0
        for image in lz:
            column = (column + apply(image, column)) / 2.0
        norm2 = np.vdot(column, column).real
        if norm2 >= 0.5 / dim:
            break
    else:
        raise DeterminismError(not_rank_one)
    unitary = np.empty((dim, dim), dtype=complex)
    unitary[:, 0] = column / np.sqrt(norm2)
    for i in range(k):
        half = 1 << i
        unitary[:, half : 2 * half] = apply(lx[i], unitary[:, :half])
    if words is not None:
        return normalize_phase(unitary)
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
    :func:`propagate_round` and :func:`extract_unitary`); a unitary over
    ``dense_limit`` is refused before the first round.
    """
    state = initialize_simulation(graph, gflow, pattern, term_budget)
    square = len(graph.inputs) == len(graph.outputs)
    if square:
        _check_unitary(len(graph.inputs), len(graph.outputs), dense_limit)
    propagate_all(state)
    logicals = finalize_outputs(state)
    unitary = extract_unitary(logicals, dense_limit) if square else None
    cones = _cone_pass(graph, gflow, state.masks.__getitem__)
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
