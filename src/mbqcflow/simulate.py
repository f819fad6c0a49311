"""Symbolic simulation of XY-plane measurement patterns with gFlow.

The computation is tracked in the logical Heisenberg picture after a
per-qubit Z rotation turns every measurement into a Pauli X measurement.
Each input contributes two logical operators (for its initial X and Z),
expanded as complex-weighted sums of Pauli words.  Propagation multiplies
the terms that anticommute with a measured X by that vertex's correcting
stabilizer product; output extraction then strips the measured X factors,
leaving operators on the outputs that encode the implemented unitary.

:func:`initialize_simulation` picks one of two paths.  When every
rotated word that a correcting set or an input's X logical uses is one
Pauli word with coefficient 1, i, -1 or -i, as when every angle is a
multiple of pi/2, every logical and correcting product stays one word
``i^p X^x Z^z`` (Gottesman, quant-ph/9807006).  On this word path each
is a triple ``(x, z, p)`` of Python ints.  Every other pattern takes the
table path: all logicals live in one :class:`~mbqcflow.pauli.PauliTable`
of bit-packed rows, and each vertex of a round is one
:meth:`~mbqcflow.pauli.PauliTable.correct` call for all of them (see
:mod:`mbqcflow.pauli` for its cost).  Both paths finalize through such a
table.  A term budget caps its rows (on the word path, the logicals),
and the dense limit caps the unitary.

Cost accounting: the table records the most terms each logical has
had (:attr:`~mbqcflow.pauli.PauliTable.peaks`; 1 on the word path), to
be compared against ``2**|forward cone|``.
"""

from __future__ import annotations

import operator
from collections.abc import Hashable, Mapping
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cones import cone_masks
from .errors import DEFAULT_DENSE_LIMIT, DEFAULT_TERM_BUDGET, _over_budget
from .errors import DeterminismError, SimulationInvariantError
from .flow import GFlow, _check_gflow_valid, check_analysis_preconditions, check_pattern
from .graph import OpenGraph
from .oracle import TOLERANCE, _check_unitary, canonical_unitary, complex_pairs
from .pattern import MeasurementPattern, Plane
from .pauli import PRUNE_TOLERANCE, LogicalOperator, PauliTable, pack_rows


def rotated_stabilizer(graph: OpenGraph, vertex: int, angle: float) -> LogicalOperator:
    """Graph stabilizer of ``vertex`` conjugated by its measurement rotation.

    ``exp(i a/2 Z) (X (x) Z_neighbours) exp(-i a/2 Z)``, expanded into at
    most two Pauli words.  Only non-input vertices carry a stabilizer.
    """
    graph._check_vertex(vertex)
    if vertex in graph.input_set:
        raise ValueError(f"input vertex {vertex} carries no stabilizer")
    return _rotated_x_words(graph, [vertex], _rotation_coefficients([angle]))[0]


#: A Pauli word ``i^p X^x Z^z`` as ``(x, z, p)``, with p in 0..3.
Word = tuple[int, int, int]

#: The coefficient ``i^p`` of a word, indexed by p.
_UNITS = (1 + 0j, 1j, -1 + 0j, -1j)


def _rotation_coefficients(angles: list[float]) -> np.ndarray:
    """Row j: ``cos(a)`` and ``-i sin(a)`` for ``a = angles[j]``, the weights of the two words."""
    angles = np.array(angles, dtype=float)
    return np.stack((np.cos(angles) + 0j, -1j * np.sin(angles)), axis=1)


def _rotated_x_words(
    graph: OpenGraph, vertices: list[int], coeffs: np.ndarray
) -> list[LogicalOperator]:
    """``X_v (x) Z_neighbours`` conjugated by the rotation of v, for every v at once.

    Each is ``cos(a) X_v Z_N(v) - i sin(a) X_v Z_v Z_N(v)``, pruned, with
    the weights ``coeffs`` of :func:`_rotation_coefficients`.
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
    ops = []
    for i, (cos_live, sin_live) in enumerate((np.abs(coeffs) > PRUNE_TOLERANCE).tolist()):
        # The live words are a slice: both, the cos word or the sin word.
        words_live = slice(0 if cos_live else 1, 2 if sin_live else 1)
        ops.append(LogicalOperator.from_rows(graph.n, rows[i, words_live], coeffs[i, words_live]))
    return ops


def _unit_words(graph: OpenGraph, vertices: list[int], coeffs: np.ndarray) -> list[Word] | None:
    """The operators of :func:`_rotated_x_words` as words, or None.

    None as soon as one operator has two live words, or its live word has a
    coefficient other than exactly 1, i, -1 or -i.
    """
    words = []
    for v, (cos, sin) in zip(vertices, coeffs.tolist()):
        on_sin = abs(cos) <= PRUNE_TOLERANCE
        coeff = sin if on_sin else cos
        if not (on_sin or abs(sin) <= PRUNE_TOLERANCE) or coeff not in _UNITS:
            return None
        # The sin word X_v Z_v Z_N(v) has Z on v too.
        words.append((1 << v, graph.adjacency_masks[v] | on_sin << v, _UNITS.index(coeff)))
    return words


def _word_product(left: Word, right: Word) -> Word:
    """``left * right``; the sign moves the left word's Z past the right word's X."""
    (x1, z1, p1), (x2, z2, p2) = left, right
    return x1 ^ x2, z1 ^ z2, (p1 + p2 + 2 * (z1 & x2).bit_count()) & 3


def _word_table(n: int, words: Mapping[Hashable, Word]) -> PauliTable:
    """One table of the labelled words, one row each, in label order."""
    xs, zs, ps = ([word[k] for word in words.values()] for k in range(3))
    coeffs = np.array([_UNITS[p] for p in ps], dtype=complex)
    return PauliTable(n, list(words), pack_rows(n, xs, zs), coeffs, np.arange(len(ps)))


def _correct_words(words: dict[Hashable, Word], vertex: int, correction: Word, budget: int) -> None:
    """:meth:`~mbqcflow.pauli.PauliTable.correct` on one-word sums, in place.

    Each word with Z on ``vertex`` becomes ``correction`` times it.  Nothing
    merges or prunes, so the table would keep one row per word: a hit raises
    :class:`BudgetExceededError` when there are more words than ``budget``.
    """
    bit = 1 << vertex
    hit = [label for label, (_, z, _) in words.items() if z & bit]
    if hit and len(words) > budget:
        raise _over_budget(len(words), "terms", "terms", budget)
    for label in hit:
        words[label] = _word_product(correction, words[label])


@dataclass
class SimulationState:
    """Mutable carrier of the logicals through the rounds, on one of two paths.

    On the table path ``table`` holds the logicals and ``products`` maps
    each corrected vertex to its correcting product as an operator.  On
    the word path (see the module docstring) ``words`` maps each logical's
    label to its word, ``products`` holds words too, and ``table`` is None.
    :attr:`logicals` and :attr:`stabilizers` give the current values on
    either path.
    """

    graph: OpenGraph
    gflow: GFlow
    pattern: MeasurementPattern
    products: dict[int, LogicalOperator] | dict[int, Word]
    table: PauliTable | None = None
    words: dict[tuple[str, int], Word] | None = None
    round_cursor: int = 0
    term_budget: int = DEFAULT_TERM_BUDGET

    @property
    def rounds(self) -> tuple[frozenset[int], ...]:
        return self.gflow.layers[:-1]

    @property
    def logicals(self) -> PauliTable:
        """The logicals as a table; on the word path, packed from the words when read."""
        return self.table if self.words is None else _word_table(self.graph.n, self.words)

    @property
    def stabilizers(self) -> dict[int, LogicalOperator]:
        """Each corrected vertex's correcting product; on the word path, packed when read."""
        if self.words is None:
            return self.products
        return _word_table(self.graph.n, self.products).operators()

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

    The pattern takes the word path (see the module docstring) when every
    rotated word is one word with coefficient 1, i, -1 or -i, and the
    table path otherwise.  The rotated coefficients are computed once, by
    the same cos and sin on either path.
    """
    check_analysis_preconditions(graph)
    _check_gflow_valid(graph, gflow)
    if any(plane is not Plane.XY for plane in gflow.planes.values()):
        raise ValueError("symbolic simulation supports XY-plane patterns only")
    check_pattern(gflow, pattern)

    corrector_vertices = sorted(set().union(*gflow.corrections.values()))
    inputs = list(graph.inputs)
    # Unmeasured vertices, outputs and inputs alike, are never rotated (angle 0).
    vertices = corrector_vertices + inputs
    coeffs = _rotation_coefficients([pattern.angles.get(v, 0.0) for v in vertices])
    words = _unit_words(graph, vertices, coeffs)
    on_words = words is not None
    z_bits = [1 << i for i in inputs]
    if on_words:
        product, z_words = _word_product, [(0, z, 0) for z in z_bits]
    else:
        words, product = _rotated_x_words(graph, vertices, coeffs), operator.mul
        z_rows, one = pack_rows(graph.n, [0] * len(inputs), z_bits), np.ones(1, dtype=complex)
        z_words = [LogicalOperator.from_rows(graph.n, row[None], one) for row in z_rows]
    rotated = dict(zip(corrector_vertices, words))
    products = {
        i: reduce(product, [rotated[j] for j in sorted(gflow.corrections[i])])
        for i in sorted(gflow.corrections)
    }
    logicals = {}
    for i, x_word, z_word in zip(inputs, words[len(corrector_vertices) :], z_words):
        logicals[("X", i)], logicals[("Z", i)] = x_word, z_word
    table, words = (None, logicals) if on_words else (PauliTable.stack(graph.n, logicals), None)
    return SimulationState(graph, gflow, pattern, products, table, words, term_budget=term_budget)


def propagate_round(state: SimulationState) -> SimulationState:
    """Push every logical through the next measurement round, ``state.round_cursor``.

    For each vertex of the round (ascending) every logical term that
    anticommutes with the measured X is multiplied by that vertex's
    correcting product.  On the table path that is one
    :meth:`~mbqcflow.pauli.PauliTable.correct` call per vertex for all
    logicals, which merges and prunes the rows; on the word path each
    logical with Z on the vertex takes the product in place.

    Raises :class:`BudgetExceededError` before a vertex would take the
    table past ``state.term_budget`` rows (on the word path, when it hits
    a logical and there are more logicals than that), and ``ValueError``
    when every round is already propagated.
    """
    if state.round_cursor >= len(state.rounds):
        raise ValueError(f"all {len(state.rounds)} rounds are already propagated")
    for mu in sorted(state.rounds[state.round_cursor]):
        if state.words is None:
            state.table.correct(mu, state.products[mu], state.term_budget)
        else:
            _correct_words(state.words, mu, state.products[mu], state.term_budget)
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
    only.  On the word path the words are packed into a table once, here.
    The returned table (:meth:`~mbqcflow.pauli.PauliTable.project`)
    has output ``graph.outputs[p]`` as qubit p and holds the sums
    ``("X", i)`` and ``("Z", i)`` for each input i in turn; with no inputs
    it is empty.  Residual Z support on a measured vertex violates the
    gflow guarantee and raises :class:`SimulationInvariantError`.
    """
    if state.round_cursor != len(state.rounds):
        raise ValueError("all rounds must be propagated before finalizing")
    measured = sum(1 << v for v in state.graph.measured)
    logicals = state.logicals
    if logicals.z_support() & measured:
        raise SimulationInvariantError(
            "residual anticommutation with a measured X survived propagation"
        )
    return logicals.project(list(state.graph.outputs))


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

    Before anything dense is built, :func:`~mbqcflow.oracle._check_unitary`
    checks the registers and counts the k-qubit unitary as 2k qubits.
    """
    k = len(logicals.labels) // 2
    _check_unitary(k, logicals.n, dense_limit)
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
