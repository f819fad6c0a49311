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
sign vectors of ``pauli._signed_permutations``.  :class:`StripReference`
is ``PauliTable.correct`` as it was before each correction stripped its
vertex's X, followed by the strip; :func:`strip_terms` is the strip on a
dict, and ``reference_round`` takes it with ``strip=True``.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from mbqcflow.errors import DEFAULT_TERM_BUDGET, _over_budget
from mbqcflow.pauli import PauliTable, Run, _product_rows, _row_hash, pack_rows
from mbqcflow.pauli import _group as _group_lines

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


def strip_terms(terms: Terms, qubit: int) -> Terms:
    """``terms`` with X on ``qubit`` dropped, pruned; ``terms`` itself if none has it.

    Words made equal merge in order of first appearance: each keeps its
    first coefficient and adds the later ones in order.
    """
    bit = 1 << qubit
    if not any(x & bit for x, _ in terms):
        return terms
    out: Terms = {}
    for (x, z), c in terms.items():
        key = (x & ~bit, z)
        out[key] = out[key] + c if key in out else c
    return prune(out)


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
    strip: bool = False,
) -> dict[Hashable, Terms]:
    """One round, vertex by vertex in ascending order; updates ``high_water``.

    With ``strip``, each vertex's X is dropped once it is corrected (:func:`strip_terms`),
    and the high water is read after that.
    """
    logicals = dict(logicals)
    for mu in sorted(vertices):
        for label, terms in logicals.items():
            out = corrected_terms(terms, mu, stabilizers[mu])
            if out is not None:
                logicals[label] = out
            if strip:
                logicals[label] = strip_terms(logicals[label], mu)
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


# -- The correction that kept X on corrected vertices ------------------------
#
# ``StripReference._set_rows`` and ``StripReference.correct`` are kept verbatim
# from the version of ``PauliTable`` before each correction stripped its
# vertex's X, but for the name ``_group_lines`` (this module's ``_group`` is
# older); ``StripReference`` holds only the state they read and write, and
# ``strip`` follows the old kernel as the library's correction now does.


class StripReference:
    """A copy of a :class:`PauliTable`'s rows, owners, counts and peaks; no carried hash."""

    def __init__(self, table: PauliTable):
        self.n, self.words, self.labels, self._hashes = table.n, table.words, table.labels, None
        for name in ("rows", "coeffs", "owner", "counts", "peaks"):
            setattr(self, name, getattr(table, name).copy())

    def _set_rows(
        self,
        rows: np.ndarray,
        coeffs: np.ndarray,
        owner: np.ndarray,
        hashes: np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ) -> None:
        self.rows, self.coeffs, self.owner, self._hashes = rows, coeffs, owner, hashes
        self.counts = np.bincount(owner, minlength=len(self.labels)) if counts is None else counts
        np.maximum(self.peaks, self.counts, out=self.peaks)

    def correct(self, qubit: int, factor: Run, budget: int = DEFAULT_TERM_BUDGET) -> bool:
        """Multiply the rows with Z on ``qubit`` by ``factor``, a pruned sum of a table.

        The other rows are kept in place.  The products are summed and
        pruned, then added into the kept rows of their sum, which are
        pruned again, or appended after them.  The hashes only screen:
        when no two of the kept rows and products have equal hashes,
        nothing can merge, and the pruned products are appended in order
        with no grouping step; otherwise the rows are grouped exactly, and if
        that finds no equal rows the result is the same, byte for byte.  A
        product's hash is its hit row's hash XOR its factor word's, which only
        the run carries (:meth:`runs`): nothing else is hashed here.  Returns
        whether any row had Z on ``qubit``.  Raises :class:`BudgetExceededError`
        before the products are built when the kept rows plus the products
        would exceed ``budget``.
        """
        rows, coeffs, owner = self.rows, self.coeffs, self.owner
        hits = (rows[:, self.words + (qubit >> 6)] & np.uint64(1 << (qubit & 63))) != 0
        hit, kept = hits.nonzero()[0], (~hits).nonzero()[0]
        if not len(hit):
            return False
        factor_rows, factor_coeffs, factor_hashes = factor
        terms = len(factor_coeffs)
        size = len(rows) + (terms - 1) * len(hit)
        if size > budget:
            raise _over_budget(size, "terms", "terms", budget)
        new_rows, new_coeffs = _product_rows(
            factor_rows, factor_coeffs, rows.take(hit, axis=0), coeffs.take(hit)
        )
        k, new_owner = len(kept), np.concatenate([owner.take(hit)] * terms)
        if self._hashes is None:
            # Each row's hash with its owner as one more word, kept from now on.
            keyed = np.concatenate((rows, owner[:, None].astype(np.uint64)), axis=1)
            self._hashes = _row_hash(keyed)
        carried = self._hashes
        new_hashes = (factor_hashes[:, None] ^ carried.take(hit)).reshape(-1)
        hashes = np.concatenate((carried.take(kept), new_hashes))
        counts = self.counts - np.bincount(new_owner[: len(hit)], minlength=len(self.labels))
        ordered = np.sort(hashes)
        if (ordered[1:] == ordered[:-1]).any():
            keys = np.concatenate((owner.take(kept), new_owner))
            table = np.concatenate((rows.take(kept, axis=0), new_rows))
            # The kept rows are distinct and come first, so run r < k is kept row r.
            run, first = _group_lines(np.concatenate((table.T, keys[None].astype(np.uint64))))
            sums = np.zeros(len(first), dtype=complex)
            np.add.at(sums, run[k:], new_coeffs)
            # Products are pruned before they are added in, then the whole table.
            live = np.abs(sums) > PRUNE_TOLERANCE
            coeffs = coeffs.take(kept)
            np.add(coeffs, sums[:k], out=coeffs, where=live[:k])
            stay = np.abs(coeffs) > PRUNE_TOLERANCE
            kept = stay.nonzero()[0]
            counts -= np.bincount(keys[:k][~stay], minlength=len(self.labels))
            # Row r takes its run's sum, so that one index picks from every array.
            picks = first[live[k:].nonzero()[0] + k]
            rows, owner, carried = table, keys, hashes
            new_rows, new_coeffs, new_owner, new_hashes = table, sums[run], keys, hashes
        else:
            # All keys differ, so nothing merges, and the kept rows need no pruning
            # (see the class).  Each sum starts from zero, turning a -0.0 part into 0.0.
            picks = (np.abs(new_coeffs) > PRUNE_TOLERANCE).nonzero()[0]
            new_coeffs += 0.0
        olds, news = (rows, coeffs, owner, carried), (new_rows, new_coeffs, new_owner, new_hashes)
        joined = [np.empty((len(kept) + len(picks),) + old.shape[1:], old.dtype) for old in olds]
        for old, new, out in zip(olds, news, joined):
            # Each entry is copied once; the indices are in range, and "clip"
            # lets take write into out without a buffer.
            old.take(kept, axis=0, out=out[: len(kept)], mode="clip")
            new.take(picks, axis=0, out=out[len(kept) :], mode="clip")
        new_counts = np.bincount(new_owner.take(picks), minlength=len(self.labels))
        self._set_rows(*joined, counts + new_counts)
        return True

    def strip(self, qubit: int) -> None:
        """X on ``qubit`` cleared in every row, then rows made equal merged, on Python values.

        Each run of equal rows (with their owner) takes its first row's place
        and coefficient and adds the later ones in row order; merged sums
        are pruned.
        """
        rows = self.rows.copy()
        rows[:, qubit >> 6] &= ~np.uint64(1 << (qubit & 63))
        merged: dict[tuple[int, bytes], list] = {}
        for t, (owner, coeff) in enumerate(zip(self.owner.tolist(), self.coeffs.tolist())):
            key = (owner, rows[t].tobytes())
            if key in merged:
                merged[key][1] += coeff
            else:
                merged[key] = [t, coeff]
        picks = [t for t, coeff in merged.values() if abs(coeff) > PRUNE_TOLERANCE]
        coeffs = [coeff for _, coeff in merged.values() if abs(coeff) > PRUNE_TOLERANCE]
        picks = np.array(picks, dtype=np.intp)
        self.rows, self.owner = rows.take(picks, axis=0), self.owner.take(picks)
        self.coeffs = np.array(coeffs, dtype=complex).reshape(-1)
        self.counts = np.bincount(self.owner, minlength=len(self.labels))
        np.maximum(self.peaks, self.counts, out=self.peaks)

    def correct_and_strip(
        self, qubit: int, factor: Run, budget: int = DEFAULT_TERM_BUDGET
    ) -> bool:
        """:meth:`correct`, then :meth:`strip`, the high water read only after the strip."""
        peaks = self.peaks.copy()
        hit = self.correct(qubit, factor, budget)
        self.peaks = peaks
        self.strip(qubit)
        return hit
