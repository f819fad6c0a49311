"""Simulation code as it was before a faster or shorter version replaced it.

``_rotation_coefficients``, ``_rotated_x_words``, ``_unit_words`` and
``_word_table`` are kept verbatim, with the part of
``initialize_simulation`` and ``rotated_stabilizer`` that called them, so
the differential tests in ``tests/test_simulate.py`` can require the
library to take the same path and build the same words, byte for byte.
``reference_dense_extract_unitary`` is ``extract_unitary`` as it was
before Clifford tableaux skipped the dense matrices; every table is dense
there, and every Z image is checked.  ``_correct_words`` is the word
path's correction as it was before one pass treated a whole round: it
takes one vertex at a time.  ``reference_finalize_outputs`` is
``finalize_outputs`` as it was before the word path packed only its
output bits: it packs the words on all n qubits and projects the table.
The helpers they call are unchanged and are imported from the library,
except ``LogicalOperator.from_rows``, which is gone: :func:`from_rows`
stands in for it.
"""

from __future__ import annotations

import operator
from collections.abc import Hashable, Mapping
from functools import reduce

import numpy as np

from mbqcflow.errors import DEFAULT_DENSE_LIMIT, DeterminismError, SimulationInvariantError
from mbqcflow.errors import _over_budget
from mbqcflow.graph import OpenGraph
from mbqcflow.oracle import TOLERANCE, _check_unitary, canonical_unitary
from mbqcflow.pauli import PRUNE_TOLERANCE, LogicalOperator, PauliTable, pack_rows
from mbqcflow.pauli import Word, _word_product

#: The coefficient ``i^p`` of a word, indexed by p.
_UNITS = (1 + 0j, 1j, -1 + 0j, -1j)


def from_rows(n: int, rows: np.ndarray, coeffs: np.ndarray) -> LogicalOperator:
    """The operator of the ``(T, 2W)`` word rows and their coefficients, read through a table."""
    return PauliTable(n, [0], rows, coeffs, np.zeros(len(rows), dtype=np.intp)).operators()[0]


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
        ops.append(from_rows(graph.n, rows[i, words_live], coeffs[i, words_live]))
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


def reference_finalize_outputs(state) -> PauliTable:
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


def reference_rotated_stabilizer(graph: OpenGraph, vertex: int, angle: float) -> LogicalOperator:
    """``rotated_stabilizer`` on a vertex that carries a stabilizer."""
    return _rotated_x_words(graph, [vertex], _rotation_coefficients([angle]))[0]


def reference_initial(graph, gflow, pattern):
    """Correcting products and initial logicals, and whether the pattern takes the word path.

    The body of ``initialize_simulation`` after its checks.  Returns
    ``(on_words, products, logicals)``: on the word path both map to
    words, otherwise to operators.
    """
    corrector_vertices = sorted(set().union(*gflow.corrections.values()))
    inputs = list(graph.inputs)
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
        z_words = [from_rows(graph.n, row[None], one) for row in z_rows]
    rotated = dict(zip(corrector_vertices, words))
    products = {
        i: reduce(product, [rotated[j] for j in sorted(gflow.corrections[i])])
        for i in sorted(gflow.corrections)
    }
    logicals = {}
    for i, x_word, z_word in zip(inputs, words[len(corrector_vertices) :], z_words):
        logicals[("X", i)], logicals[("Z", i)] = x_word, z_word
    return on_words, products, logicals


def reference_dense_extract_unitary(
    logicals: PauliTable, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> np.ndarray:
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
