"""The simulation's rotated-word helpers as they were before one builder replaced them.

``_rotation_coefficients``, ``_rotated_x_words``, ``_unit_words`` and
``_word_table`` are kept verbatim, with the part of
``initialize_simulation`` and ``rotated_stabilizer`` that called them, so
the differential tests in ``tests/test_simulate.py`` can require the
library to take the same path and build the same words, byte for byte.
The helpers they call are unchanged and are imported from the library.
"""

from __future__ import annotations

import operator
from collections.abc import Hashable, Mapping
from functools import reduce

import numpy as np

from mbqcflow.graph import OpenGraph
from mbqcflow.pauli import PRUNE_TOLERANCE, LogicalOperator, PauliTable, pack_rows
from mbqcflow.simulate import Word, _word_product

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


def _word_table(n: int, words: Mapping[Hashable, Word]) -> PauliTable:
    """One table of the labelled words, one row each, in label order."""
    xs, zs, ps = ([word[k] for word in words.values()] for k in range(3))
    coeffs = np.array([_UNITS[p] for p in ps], dtype=complex)
    return PauliTable(n, list(words), pack_rows(n, xs, zs), coeffs, np.arange(len(ps)))


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
        z_words = [LogicalOperator.from_rows(graph.n, row[None], one) for row in z_rows]
    rotated = dict(zip(corrector_vertices, words))
    products = {
        i: reduce(product, [rotated[j] for j in sorted(gflow.corrections[i])])
        for i in sorted(gflow.corrections)
    }
    logicals = {}
    for i, x_word, z_word in zip(inputs, words[len(corrector_vertices) :], z_words):
        logicals[("X", i)], logicals[("Z", i)] = x_word, z_word
    return on_words, products, logicals
