"""Symbolic simulation of XY-plane measurement patterns with gFlow.

The computation is tracked in the logical Heisenberg picture after a
per-qubit Z rotation turns every measurement into a Pauli X measurement.
Each input contributes two logical operators (for its initial X and Z),
expanded as complex-weighted sums of Pauli words.  Propagation multiplies
the terms that anticommute with a measured X by that vertex's correcting
stabilizer product; output extraction then strips the measured X factors,
leaving operators on the outputs that encode the implemented unitary.

:func:`initialize_simulation` picks one of two paths.  Both start from
the live words ``(x, z, coefficient)`` of Python ints that
:func:`_rotated_words` derives for each rotated stabilizer, and pack
words only through :meth:`~mbqcflow.pauli.PauliTable.pack`.  When every
rotated word that a correcting set or an input's X logical uses is one
word with coefficient 1, i, -1 or -i, as when every angle is a multiple
of pi/2, every logical and correcting product stays one word ``i^p X^x
Z^z`` (Gottesman, quant-ph/9807006), a triple ``(x, z, p)`` of Python
ints; a round is one pass over the words, and only their output bits are
packed.  Every other pattern takes the table path: its correcting products
are :func:`~mbqcflow.pauli._sum_product` folds, they and the logicals are
packed once into two :class:`~mbqcflow.pauli.PauliTable` objects, the
products' rows are hashed once, and each vertex of a round is one
:meth:`~mbqcflow.pauli.PauliTable.correct` call for all logicals, with that
vertex's product as a :class:`~mbqcflow.pauli.Run` (see :mod:`mbqcflow.pauli`
for its cost).  Both paths finalize to such a table.  A term budget caps its
rows (on the word path, the logicals), and the dense limit caps the unitary.

Cost accounting: the table records the most terms each logical has
had (:attr:`~mbqcflow.pauli.PauliTable.peaks`; 1 on the word path), to
be compared against ``2**|forward cone|``.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .cones import _cone_pass
from .errors import DEFAULT_DENSE_LIMIT, DEFAULT_TERM_BUDGET, _over_budget
from .errors import DeterminismError, SimulationInvariantError
from .flow import GFlow, _check_gflow_valid, check_analysis_preconditions, check_pattern
from .graph import OpenGraph
from .oracle import TOLERANCE, _check_unitary, canonical_unitary, complex_pairs, normalize_phase
from .pattern import MeasurementPattern, Plane
from .pauli import PRUNE_TOLERANCE, LogicalOperator, PauliTable, Run, Term, _sum_product


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


#: A Pauli word ``i^p X^x Z^z`` as ``(x, z, p)``, with p in 0..3.
Word = tuple[int, int, int]

#: The coefficient ``i^p`` of a word, indexed by p.
_UNITS = (1 + 0j, 1j, -1 + 0j, -1j)


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


def _word_product(left: Word, right: Word) -> Word:
    """``left * right``; the sign moves the left word's Z past the right word's X."""
    (x1, z1, p1), (x2, z2, p2) = left, right
    return x1 ^ x2, z1 ^ z2, (p1 + p2 + 2 * (z1 & x2).bit_count()) & 3


def _correct_round(words: dict[Hashable, Word], mask: int, products: dict, budget: int) -> None:
    """:meth:`~mbqcflow.pauli.PauliTable.correct` on one-word sums, in place, for a round.

    A word with Z on the vertices v1 < v2 < ... of ``mask`` becomes ``products[vk] ...
    products[v1]`` times it (a gFlow's g2 rule keeps each product's Z off its round-mates).
    With more words than ``budget``, the first hit raises BudgetExceededError, changing none.
    """
    for label, word in words.items():
        if (hits := word[1] & mask) and len(words) > budget:
            raise _over_budget(len(words), "terms", "terms", budget)
        while hits:
            low = hits & -hits
            word = _word_product(products[low.bit_length() - 1], word)
            hits ^= low
        words[label] = word


@dataclass
class SimulationState:
    """Mutable carrier of the logicals through the rounds, on one of two paths.

    On the table path ``table`` holds the logicals and ``products`` the
    correcting products, packed in vertex order.  Set-up reads each product
    as a :class:`~mbqcflow.pauli.Run` of rows, coefficients and row hashes
    (:meth:`~mbqcflow.pauli.PauliTable.runs`, which hashes the products
    once), and every correction takes its run from there; the hashes live
    only in this state.  On the word path (see the module docstring)
    ``words`` maps each logical's label to its word, ``products`` holds
    words too, and ``table`` is None.
    :attr:`logicals` and :attr:`stabilizers` read the current values on
    either path, the stabilizers as new operators.  ``masks`` holds the gFlow check's
    :func:`~mbqcflow.flow.correction_masks` for the cone pass, only in this state.
    """

    graph: OpenGraph
    gflow: GFlow
    pattern: MeasurementPattern
    products: PauliTable | dict[int, Word]
    table: PauliTable | None = None
    words: dict[tuple[str, int], Word] | None = None
    round_cursor: int = 0
    term_budget: int = DEFAULT_TERM_BUDGET
    _runs: dict[int, Run] = field(init=False, repr=False, compare=False, default_factory=dict)
    masks: dict[int, tuple] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.words is None:
            self._runs = self.products.runs()

    @property
    def rounds(self) -> tuple[frozenset[int], ...]:
        return self.gflow.layers[:-1]

    @property
    def logicals(self) -> PauliTable:
        """The logicals as a table; on the word path, packed from the words when read."""
        if self.words is None:
            return self.table
        words = {label: ((x, z, _UNITS[p]),) for label, (x, z, p) in self.words.items()}
        return PauliTable.pack(self.graph.n, words)

    @property
    def stabilizers(self) -> dict[int, LogicalOperator]:
        """Each corrected vertex's correcting product as a new operator, read from a table."""
        if self.words is None:
            return self.products.operators()
        words = {vertex: ((x, z, _UNITS[p]),) for vertex, (x, z, p) in self.products.items()}
        return PauliTable.pack(self.graph.n, words).operators()

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
    try:  # two live words fail the unpacking, and a coefficient that is no unit the index
        sums, product = [(x, z, _UNITS.index(c)) for ((x, z, c),) in live], _word_product
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
    on_words = product is _word_product
    table, words = (None, logicals) if on_words else (PauliTable.pack(graph.n, logicals), None)
    products = products if on_words else PauliTable.pack(graph.n, products)
    state = SimulationState(graph, gflow, pattern, products, table, words, term_budget=term_budget)
    state.masks = masks
    return state


def propagate_round(state: SimulationState) -> SimulationState:
    """Push every logical through the next measurement round, ``state.round_cursor``.

    For each vertex of the round (ascending) every logical term that
    anticommutes with the measured X is multiplied by that vertex's
    correcting product.  On the table path that is one
    :meth:`~mbqcflow.pauli.PauliTable.correct` call per vertex for all
    logicals, with the product's run (its packed rows, coefficients and
    row hashes), which merges and prunes the rows; on the word path it is
    one pass over the logicals for the whole round (:func:`_correct_round`).

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
    only.  The table is :meth:`~mbqcflow.pauli.PauliTable.project`'s; the
    word path packs its words' output bits, the same table byte for byte.
    Output ``graph.outputs[p]`` is qubit p, and the sums are ``("X", i)``
    and ``("Z", i)`` for each input i in turn; with no inputs it is empty.
    Residual Z on a measured vertex raises :class:`SimulationInvariantError`.
    """
    if state.round_cursor != len(state.rounds):
        raise ValueError("all rounds must be propagated before finalizing")
    measured, words = sum(1 << v for v in state.graph.measured), state.words
    z_masks = [state.table.z_support()] if words is None else [w[1] for w in words.values()]
    if any(z & measured for z in z_masks):
        raise SimulationInvariantError(
            "residual anticommutation with a measured X survived propagation"
        )
    if words is None:
        return state.table.project(list(state.graph.outputs))
    bits, sums = [(v, 1 << p) for p, v in enumerate(state.graph.outputs)], {}
    for label, (x, z, p) in words.items():
        x_out = sum([bit for v, bit in bits if x >> v & 1])
        z_out = sum([bit for v, bit in bits if z >> v & 1])
        sums[label] = ((x_out, z_out, _UNITS[p]),)
    return PauliTable.pack(len(bits), sums)


def _clifford_tableau(logicals: PauliTable) -> list[Word] | None:
    """The 2k words ``(x, z, p)`` of the sums in label order if they are a tableau, else None.

    They are when the table has one row per sum, 2k rows in all, whose
    coefficients are each exactly 1, i, -1 or -i; every word is Hermitian
    (``p + popcount(x & z)`` is even); sums 2i and 2i + 1 (``Lx_i`` and
    ``Lz_i``) anticommute; and every other pair commutes (Aaronson and
    Gottesman, PRA 70, 052328, 2004).  That is O(k^2) popcounts on Python ints.
    """
    k = len(logicals.labels) // 2
    if len(logicals.rows) != 2 * k or (logicals.counts != 1).any():
        return None
    if not k:
        return []  # projected onto no qubits, the rows have no words to read
    order = np.argsort(logicals.owner)
    try:
        phases = [_UNITS.index(c) for c in logicals.coeffs.take(order).tolist()]
    except ValueError:
        return None
    rows = logicals.rows.take(order, axis=0)
    words = list(zip(rows[:, 0].tolist(), rows[:, logicals.words].tolist(), phases))
    for a, (xa, za, pa) in enumerate(words):
        if (pa + (xa & za).bit_count()) & 1:
            return None
        for b, (xb, zb, _) in enumerate(words[:a]):
            # Only a = b + 1 with b even, that is a ^ b == 1, pairs Lx_i with Lz_i.
            if ((xa & zb).bit_count() + (za & xb).bit_count()) & 1 != (a ^ b == 1):
                return None
    return words


def _signed_permutations(words: list[Word], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row w: the index and sign vectors of ``words[w]``, ``(W v)[j] = sign[j] v[index[j]]``.

    That is ``index[j] = j ^ x`` and ``sign[j] = i^p (-1)^popcount(z & index[j])``, the
    convention of :meth:`~mbqcflow.pauli.PauliTable.to_matrices`.  The signs are built in
    float, as there: the uint8 parity would wrap ``1 - 2`` to 255.
    """
    xs, zs, ps = np.array(words, dtype=np.intp).reshape(-1, 3).T
    index = np.arange(dim) ^ xs[:, None]
    parity = np.bitwise_count(index & zs[:, None]) & 1
    return index, np.array(_UNITS)[ps, None] * (1.0 - 2.0 * parity)


def _gather(word: tuple[np.ndarray, np.ndarray], block: np.ndarray) -> np.ndarray:
    """``W block`` for the word ``(index, sign)`` and a vector or a matrix of columns."""
    index, sign = word
    return (sign * block.T[..., index]).T


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

    The images act in one of two forms.  When :func:`_clifford_tableau`
    certifies the table, as it does for every table of a Clifford pattern,
    each image is one signed word and acts as a signed permutation, a
    gather (:func:`_signed_permutations`).  Its relations make the 2k words
    a symplectic basis, so they are independent, and the ``Lz_i``, which
    commute and square to I, stabilize exactly one state, u0.  Each column
    is ``U e_x = Lx^x u0``, so the relations give ``Lz_i U e_x = (-1)^{x_i}
    U e_x`` exactly, and a check of ``Lz_i U = U Z_i`` could only pass; it
    is skipped.  So is the unitarity check: the columns ``Lx^x u0`` are unit
    vectors with distinct ``Lz`` eigenvalue patterns, hence orthonormal, and
    the unitary only has its phase normalised.  Every other table, with a
    sum of several words, a coefficient that is not exactly a unit, or
    words that break a relation, is made dense in one scatter
    (:meth:`~mbqcflow.pauli.PauliTable.to_matrices`), and after the columns
    every Z image is checked against them, ``Lz_i U = U Z_i``.

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
        images, apply = list(zip(*_signed_permutations(words, dim))), _gather
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
