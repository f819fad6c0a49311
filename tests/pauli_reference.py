"""Term-by-term reference for the Pauli-sum algebra, on Python dicts.

A sum is a ``{(x, z): coefficient}`` dict of Python-int bitmasks, as the
library held it before its sums became arrays.  Nothing here but
:func:`array_sum_product` and :func:`project` calls ``mbqcflow.pauli``:
the differential tests compare the library against these loops, key
order included.  :func:`array_sum_product` is the array product that
``LogicalOperator`` used before a single sum became Python-int terms,
built from the array helpers the library keeps for its tables.
:func:`project` is ``PauliTable.project`` as it was before it packed
each row into one narrow key, and :func:`to_matrices` is
``PauliTable.to_matrices`` as it was before it scattered the index and
sign vectors of ``pauli._signed_permutations``.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from mbqcflow.pauli import PauliTable, _product_rows, pack_rows

#: The library's pruning threshold, restated so the reference stands alone.
PRUNE_TOLERANCE = 1e-12

Terms = dict[tuple[int, int], complex]


def word_product(x1: int, z1: int, x2: int, z2: int) -> tuple[int, int, int]:
    """``X^x1 Z^z1 * X^x2 Z^z2`` as ``(x, z, sign)``; the sign moves Z1 past X2."""
    sign = -1 if (z1 & x2).bit_count() & 1 else 1
    return x1 ^ x2, z1 ^ z2, sign


def product_terms(left: Terms, right: Terms) -> Terms:
    """Merged, unpruned terms of ``left * right``, left outer."""
    out: Terms = {}
    for (x1, z1), c1 in left.items():
        for (x2, z2), c2 in right.items():
            x, z, sign = word_product(x1, z1, x2, z2)
            out[(x, z)] = out.get((x, z), 0.0) + sign * c1 * c2
    return out


def prune(terms: Terms) -> Terms:
    return {key: c for key, c in terms.items() if abs(c) > PRUNE_TOLERANCE}


def corrected_terms(terms: Terms, qubit: int, correction: Terms) -> Terms | None:
    """``commuting + prune(correction * anticommuting)``, pruned; None if nothing anticommutes."""
    bit = 1 << qubit
    flipped = {key: c for key, c in terms.items() if key[1] & bit}
    if not flipped:
        return None
    merged = {key: c for key, c in terms.items() if not key[1] & bit}
    for key, c in prune(product_terms(correction, flipped)).items():
        merged[key] = merged.get(key, 0.0) + c
    return prune(merged)


def project_terms(sums: dict[Hashable, Terms], qubits: list[int]) -> dict[Hashable, Terms]:
    """Each sum on the register of ``qubits``, ``qubits[p]`` becoming qubit p.

    Bits on other qubits are dropped.  Words made equal add in order of
    first appearance, each sum starting from zero, and every sum is pruned.
    """

    def project(mask: int) -> int:
        return sum((mask >> q & 1) << p for p, q in enumerate(qubits))

    projected = {}
    for label, terms in sums.items():
        merged: Terms = {}
        for (x, z), c in terms.items():
            key = (project(x), project(z))
            merged[key] = merged.get(key, 0.0) + c
        projected[label] = prune(merged)
    return projected


def rotated_x_word(adjacency: int, vertex: int, angle: float) -> Terms:
    """``cos(a) X_v Z_N(v) - i sin(a) X_v Z_v Z_N(v)``, pruned."""
    bit = 1 << vertex
    return prune(
        {
            (bit, adjacency): complex(np.cos(angle)),
            (bit, adjacency | bit): -1j * complex(np.sin(angle)),
        }
    )


def reference_start(graph, gflow, pattern) -> tuple[dict, dict]:
    """Correcting products (pruned after every factor) and initial logicals."""
    masks = graph.adjacency_masks
    stabilizers = {}
    for i, corr in sorted(gflow.corrections.items()):
        product = None
        for j in sorted(corr):
            factor = rotated_x_word(masks[j], j, pattern.angles.get(j, 0.0))
            product = factor if product is None else prune(product_terms(product, factor))
        stabilizers[i] = product
    logicals = {}
    for i in graph.inputs:
        logicals[("X", i)] = rotated_x_word(masks[i], i, pattern.angles.get(i, 0.0))
        logicals[("Z", i)] = {(0, 1 << i): 1.0}
    return stabilizers, logicals


def reference_round(
    logicals: dict[Hashable, Terms],
    stabilizers: dict[int, Terms],
    vertices,
    high_water: dict[Hashable, int],
) -> dict[Hashable, Terms]:
    """One round, vertex by vertex in ascending order; updates ``high_water``."""
    logicals = dict(logicals)
    for mu in sorted(vertices):
        for label, terms in logicals.items():
            out = corrected_terms(terms, mu, stabilizers[mu])
            if out is not None:
                logicals[label] = out
            high_water[label] = max(high_water.get(label, 0), len(logicals[label]))
    return logicals


def _read_rows(rows: np.ndarray) -> list[int]:
    """The Python-int bitmask of each row of 64-bit words, lowest word first."""
    return [int.from_bytes(row.astype("<u8").tobytes(), "little") for row in rows]


def array_sum_product(left, right) -> tuple[tuple[int, int, complex], ...]:
    """``left * right`` on terms ``(x, z, coefficient)``, as ``LogicalOperator.__mul__`` was.

    Both sums are packed into rows, multiplied by ``_product_rows``, merged
    by ``_merge_rows`` when both have several terms, pruned and read back.
    """
    n = max(((x | z).bit_length() for x, z, _ in (*left, *right)), default=0)

    def packed(terms):
        xs, zs, coeffs = [t[0] for t in terms], [t[1] for t in terms], [t[2] for t in terms]
        return pack_rows(n, xs, zs), np.array(coeffs, dtype=complex).reshape(-1)

    rows, coeffs = _product_rows(*packed(left), *packed(right))
    if min(len(left), len(right)) > 1:
        rows, coeffs = _merge_rows(rows, coeffs)
    keep = np.abs(coeffs) > PRUNE_TOLERANCE
    rows, coeffs = rows[keep], coeffs[keep]
    words = rows.shape[1] // 2
    return tuple(zip(_read_rows(rows[:, :words]), _read_rows(rows[:, words:]), coeffs.tolist()))


# -- The projection that grouped full-width uint64 keys --------------------
#
# ``_group``, ``_merge_rows`` and ``project`` (a method of ``PauliTable``,
# here a function of the table) are kept verbatim from the version before
# ``PauliTable.project`` packed each row into one narrow key.


def _group(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run of every row and first row of every run, runs in order of first appearance.

    One lexicographic sort orders the rows, and sorted neighbours are
    compared one word at a time, so equal rows, and only they, share a
    run.  ``first`` is increasing.
    """
    lines = np.ascontiguousarray(rows.T)
    order = np.lexsort(lines[::-1])
    start = np.zeros(len(rows), dtype=bool)
    start[:1] = True
    for line in lines:
        line = line.take(order)
        start[1:] |= line[1:] != line[:-1]
    run = np.cumsum(start) - 1
    first_equal = np.empty(len(rows), dtype=np.intp)
    first_equal[order] = np.minimum.reduceat(order, start.nonzero()[0])[run]
    leads = first_equal == np.arange(len(rows))
    return (np.cumsum(leads) - 1)[first_equal], leads.nonzero()[0]


def _merge_rows(rows: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows merged in order of first appearance, coefficients added in row order."""
    run, first = _group(rows)
    sums = np.zeros(len(first), dtype=complex)
    np.add.at(sums, run, coeffs)
    return rows.take(first, axis=0), sums


def project(self, qubits: list[int]) -> PauliTable:
    """The sums on the register of ``qubits``, ``qubits[p]`` becoming qubit p.

    Only an empty table may take an empty register.  Bits on other
    qubits are dropped; words made equal merge in row order, and the
    sums are pruned.
    """
    count = len(qubits)
    if not count and len(self.rows):
        raise ValueError("only an empty table may take an empty register")
    # Qubit p takes bit p % 64 of word p // 64 of each new mask: its bits are one line
    # along the rows, shifted in place and ORed into its word, and dropped before the merge.
    columns = [v >> 6 for v in qubits] + [self.words + (v >> 6) for v in qubits]
    shifts = np.array([v & 63 for v in qubits] * 2, dtype=np.uint64)[:, None]
    places = np.array([p & 63 for p in range(count)] * 2, dtype=np.uint64)[:, None]
    lines = self.rows.T.take(columns, axis=0)
    lines >>= shifts
    lines &= np.uint64(1)
    lines <<= places
    halves, starts = (lines[:count], lines[count:]), range(0, count, 64)
    packed = [np.bitwise_or.reduce(half[s : s + 64], axis=0) for half in halves for s in starts]
    keys = np.stack(packed + [self.owner.astype(np.uint64)], axis=1)
    del lines, halves, packed
    rows, coeffs, owner = keys[:, :-1], self.coeffs.copy(), self.owner.copy()
    if self.counts.max(initial=0) > 1:
        # With one row per sum no two keys are equal.
        keys, coeffs = _merge_rows(keys, coeffs)
        live = (np.abs(coeffs) > PRUNE_TOLERANCE).nonzero()[0]
        keys, coeffs = keys.take(live, axis=0), coeffs.take(live)
        rows, owner = keys[:, :-1], keys[:, -1].astype(np.intp)
    return PauliTable(count, self.labels, rows, coeffs, owner)


# -- The dense kernel that built its own signs ------------------------------
#
# ``to_matrices`` (a method of ``PauliTable``, here a function of the table)
# is kept verbatim from the version before it scattered the index and sign
# vectors that ``pauli._signed_permutations`` also gives the certified
# unitary route.


def to_matrices(self) -> np.ndarray:
    """Dense ``(len(labels), 2**n, 2**n)`` matrices of the sums, in one scatter.

    Each entry sums its terms in row order.  The register must fit in
    one word.
    """
    dim = 1 << self.n
    cols = np.arange(dim)
    x = self.rows[:, :1].astype(np.intp)
    z = self.rows[:, 1:2].astype(np.intp)
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
    places = (self.owner[:, None] * dim + (cols ^ x)) * dim + cols
    mats = np.zeros(len(self.labels) * dim * dim, dtype=complex)
    np.add.at(mats, places.reshape(-1), (self.coeffs[:, None] * signs).reshape(-1))
    return mats.reshape(-1, dim, dim)
