"""Complex-weighted sums of phase-free Pauli words, stored as arrays.

A word ``X^x Z^z`` is the pair of qubit bitmasks ``(x, z)``: qubit q
carries X iff bit q of ``x`` is set, Z iff bit q of ``z`` is set, and
``X Z`` (that is, ``-i Y``) iff both.  Every phase lives in the complex
coefficient of a word, so equal words merge by adding coefficients.

A sum of T words on n qubits is one ``(T, 2W)`` uint64 array of rows
``[x words | z words]``, with W = ceil(n / 64) and qubit q in bit q % 64
of word q // 64, and one ``(T,)`` complex128 array of coefficients.  This
is the bit-packed layout of Aaronson and Gottesman, "Improved simulation
of stabilizer circuits" (PRA 70, 052328, 2004) and of Stim (Gidney,
Quantum 5, 497, 2021).  A :class:`PauliTable` stacks labelled sums into
one such table, with the label's index as one more key per row.  A
:class:`LogicalOperator` is one sum: it multiplies, adds and prunes, and
every other operation goes through a table, which holds the one
correction step (:meth:`PauliTable.correct`) and the one dense kernel
(:meth:`PauliTable.to_matrices`).  A Clifford pattern's logicals never
come here before they are finalized: :mod:`mbqcflow.simulate` keeps each
as one word of Python ints and packs them with :func:`pack_rows` once.

Rows keep the order a dictionary keyed by word would give them: words
already present first, new words in the order they first appear.  Equal
words add in row order, starting from zero, so every coefficient is the
one a term-by-term loop computes, bit for bit.  Equal rows are found by
one lexicographic sort of the rows and a comparison of sorted
neighbours, word by word: grouping is exact and has one path.  A 64-bit
hash of each row only screens a correction: if all of its rows' hashes
differ, no rows are equal, and the grouping is skipped.  The hash XORs
the row's words, each mixed by two rounds of xorshifts, so it is
XOR-linear: the hash of the product of two words is the XOR of their
hashes.  So a table keeps the hash of each row, keyed by its sum, once
it has needed it, and a correction hashes only its own words.

Rows move as whole elements, by ``take`` along axis 0, and elementwise
work runs per word over lines of length T, never along the short 2W axis,
where numpy takes its slow general path.  A correction treats one
measured vertex for every sum of a table at once.  With T rows of which F
have Z on the vertex and a correction of C words, it costs one mask test
over T rows when F = 0; otherwise about 80 numpy calls on T - F + C F
rows or on the C words, among them one sort of as many hashes.  Only if
two are equal do the rows go through the grouping step (one
lexicographic sort and about 25 more calls).  A sim-terms instance of
seed 1 makes 15.45 such calls, 4.55 on tables of over 1,000 rows.  Over
the sim-terms pools of seeds 1-3, 890 of the 927 that multiply found no
two hashes equal, on tables of up to 13,687 rows; the other 37, of at
most 93 rows, all merged.
"""

from __future__ import annotations

import functools
from collections.abc import Hashable, Mapping
from typing import Iterator

import numpy as np

from .errors import DEFAULT_TERM_BUDGET, _over_budget

#: Coefficients no larger than this are dropped when pruning sums.
PRUNE_TOLERANCE = 1e-12


def _word_count(n: int) -> int:
    """Words W per mask on ``n`` qubits (at least one)."""
    return max(1, -(-n // 64))


def _pack_words(masks: list[int], words: int) -> np.ndarray:
    """``(len(masks), words)`` uint64 array of Python-int bitmasks."""
    if words == 1:
        return np.array(masks, dtype=np.uint64).reshape(-1, 1)
    data = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(len(masks), words)


def pack_rows(n: int, xs: list[int], zs: list[int]) -> np.ndarray:
    """``(T, 2W)`` rows of the words ``X^xs[t] Z^zs[t]`` on ``n`` qubits."""
    words = _word_count(n)
    return np.concatenate((_pack_words(xs, words), _pack_words(zs, words)), axis=1)


def _unpack_words(row: np.ndarray) -> int:
    """The Python int whose 64-bit words, lowest first, are ``row``."""
    return int.from_bytes(row.astype("<u8").tobytes(), "little")


#: Word j of a row is mixed by two rounds of the xorshift ``v ^= v << a;
#: v ^= v >> b; v ^= v << c`` (Marsaglia, "Xorshift RNGs", J. Stat. Softw.
#: 8(14), 2003), with the shifts ``_SHIFTS[round, step, j % 63]``.  With the
#: steps and offsets below, found by a seeded search, two rows of up to 32
#: words that differ in one to four bits never hash alike.  It holds 3 KiB.
_SHIFTS = np.array(
    [
        [1 + (offset + step * j) % 63 for j in range(63)]
        for step, offset in zip([5, 59, 59, 1, 62, 17], [52, 24, 56, 0, 39, 18])
    ],
    dtype=np.uint64,
).reshape(2, 3, 63, 1)


def _row_hash(rows: np.ndarray) -> np.ndarray:
    """64-bit hash of every row: the XOR of its words, each mixed by its own xorshifts.

    Each mix is an invertible GF(2)-linear map, so the hash is XOR-linear:
    the hash of ``a ^ b`` is the hash of ``a`` XOR the hash of ``b``.  A
    zero word adds nothing, so the hash of a row without its last words
    is that of the row with those words 0.
    """
    lines = rows.T.copy()
    for left, right, last in _SHIFTS.take(np.arange(rows.shape[1]), axis=2, mode="wrap"):
        lines ^= lines << left
        lines ^= lines >> right
        lines ^= lines << last
    return np.bitwise_xor.reduce(lines, axis=0)


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


def _product_rows(
    left_rows: np.ndarray,
    left_coeffs: np.ndarray,
    right_rows: np.ndarray,
    right_coeffs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every left word times every right word, left outer, before merging.

    The sign comes from moving the left word's Z part past the right
    word's X part.
    """
    words = left_rows.shape[1] // 2
    # Each left row repeated once per right row, then XORed with all of them.
    rows = left_rows.repeat(len(right_rows), axis=0).reshape((len(left_rows),) + right_rows.shape)
    rows ^= right_rows
    # One (left x right) line per word; the parity of a XOR is that of the popcounts.
    pairs = zip(left_rows.T[words:], right_rows.T)
    odd = functools.reduce(np.bitwise_xor, (z[:, None] & x for z, x in pairs))
    coeffs = left_coeffs[:, None] * right_coeffs[None]
    np.negative(coeffs, out=coeffs, where=(np.bitwise_count(odd) & 1).astype(bool))
    return rows.reshape(-1, 2 * words), coeffs.reshape(-1)


class PauliTable:
    """Labelled sums on one register, stacked into one table keyed by (label, word).

    Row t holds the word ``rows[t]`` of the sum labelled
    ``labels[owner[t]]``, with coefficient ``coeffs[t]``; ``counts[s]``
    is the number of rows of sum s and ``peaks[s]`` the most it has had.
    The rows of each sum keep their order through every correction, and
    :meth:`operators` reads the sums back.  The table owns the arrays it
    is given.  Every coefficient it holds is above :data:`PRUNE_TOLERANCE`:
    its sums are pruned, as every operator is, and so is whatever a
    correction or a projection makes.  From its first correction that multiplies, it also
    keeps the hash of every row with its owner, and carries it through
    later corrections.
    """

    def __init__(
        self,
        n: int,
        labels: list[Hashable],
        rows: np.ndarray,
        coeffs: np.ndarray,
        owner: np.ndarray,
    ):
        self.n = n
        self.words = _word_count(n)
        self.labels = list(labels)
        self.peaks = np.zeros(len(self.labels), dtype=np.intp)
        self._set_rows(rows, coeffs, owner)

    @classmethod
    def stack(cls, n: int, sums: Mapping[Hashable, LogicalOperator]) -> PauliTable:
        """One table of copies of ``sums``, labels and rows in their order."""
        ops = list(sums.values())
        words = _word_count(n)
        return cls(
            n,
            list(sums),
            np.concatenate([op._rows for op in ops] + [np.zeros((0, 2 * words), np.uint64)]),
            np.concatenate([op._coeffs for op in ops] + [np.zeros(0, complex)]),
            np.repeat(np.arange(len(ops)), [op.num_terms for op in ops]),
        )

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

    def operators(self) -> dict[Hashable, LogicalOperator]:
        """Every label's sum as a new operator, its rows in table order."""
        order = np.argsort(self.owner, kind="stable")
        rows, coeffs = self.rows.take(order, axis=0), self.coeffs.take(order)
        ends = np.cumsum(self.counts).tolist()
        return {
            label: LogicalOperator.from_rows(self.n, rows[start:end], coeffs[start:end])
            for label, start, end in zip(self.labels, [0] + ends[:-1], ends)
        }

    def z_support(self) -> int:
        """Mask of the qubits on which some row has Z."""
        z_lines = np.ascontiguousarray(self.rows.T[self.words :])
        return _unpack_words(np.bitwise_or.reduce(z_lines, axis=1, initial=np.uint64(0)))

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

    def correct(
        self, qubit: int, correction: LogicalOperator, budget: int = DEFAULT_TERM_BUDGET
    ) -> bool:
        """Multiply the rows with Z on ``qubit`` by ``correction``, merge and prune.

        The other rows are kept in place.  The products are summed and
        pruned, then added into the kept rows of their sum, which are
        pruned again, or appended after them.  The hashes only screen:
        when no two of the kept rows and products have equal hashes,
        nothing can merge, and the pruned products are appended in order
        with no grouping step.  Otherwise the rows are grouped exactly; if
        that finds no equal rows, the result is the same, byte for byte.
        A product's hash is its hit row's hash XOR its correction word's
        hash, so no product is hashed.  Returns whether any row had Z on
        ``qubit``.  Raises :class:`BudgetExceededError` before the products
        are built when the kept rows plus the products would exceed
        ``budget``.
        """
        rows, coeffs, owner = self.rows, self.coeffs, self.owner
        hits = (rows[:, self.words + (qubit >> 6)] & np.uint64(1 << (qubit & 63))) != 0
        hit, kept = hits.nonzero()[0], (~hits).nonzero()[0]
        if not len(hit):
            return False
        terms = correction.num_terms
        size = len(rows) + (terms - 1) * len(hit)
        if size > budget:
            raise _over_budget(size, "terms", "terms", budget)
        new_rows, new_coeffs = _product_rows(
            correction._rows, correction._coeffs, rows.take(hit, axis=0), coeffs.take(hit)
        )
        k, new_owner = len(kept), np.concatenate([owner.take(hit)] * terms)
        if self._hashes is None:
            # Each row's hash with its owner as one more word, kept from now on.
            keyed = np.concatenate((rows, owner[:, None].astype(np.uint64)), axis=1)
            self._hashes = _row_hash(keyed)
        carried = self._hashes
        new_hashes = (_row_hash(correction._rows)[:, None] ^ carried.take(hit)).reshape(-1)
        hashes = np.concatenate((carried.take(kept), new_hashes))
        counts = self.counts - np.bincount(new_owner[: len(hit)], minlength=len(self.labels))
        ordered = np.sort(hashes)
        if (ordered[1:] == ordered[:-1]).any():
            keys = np.concatenate((owner.take(kept), new_owner))
            table = np.concatenate((rows.take(kept, axis=0), new_rows))
            # The kept rows are distinct and come first, so run r < k is kept row r.
            run, first = _group(np.concatenate((table, keys[:, None].astype(np.uint64)), axis=1))
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


class LogicalOperator:
    """Complex-weighted sum of phase-free Pauli words on a fixed register.

    Built from a ``{(x_bits, z_bits): coefficient}`` mapping and pruned, as
    every operation is; held as word rows and coefficients (see the module
    docstring).  A word with a bit outside the ``n`` qubits, or a negative
    mask, raises ``ValueError``.
    """

    __slots__ = ("n", "_rows", "_coeffs")

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        terms = terms or {}
        for x, z in terms:
            if x < 0 or z < 0 or (x | z) >> n:
                raise ValueError(f"word {(x, z)} has bits outside the {n}-qubit register")
        self.n = n
        self._rows = pack_rows(n, [x for x, _ in terms], [z for _, z in terms])
        self._coeffs = np.array(list(terms.values()), dtype=complex).reshape(-1)
        self.prune()

    @classmethod
    def from_rows(cls, n: int, rows: np.ndarray, coeffs: np.ndarray) -> LogicalOperator:
        """Wrap ``(T, 2W)`` word rows and their coefficients without copying."""
        op = cls.__new__(cls)
        op.n = n
        op._rows = rows
        op._coeffs = coeffs
        return op

    def terms(self) -> Iterator[tuple[tuple[int, int], complex]]:
        words = _word_count(self.n)
        for row, coeff in zip(self._rows, self._coeffs.tolist()):
            yield (_unpack_words(row[:words]), _unpack_words(row[words:])), coeff

    @property
    def num_terms(self) -> int:
        return len(self._coeffs)

    def __add__(self, other: LogicalOperator) -> LogicalOperator:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        rows, coeffs = _merge_rows(
            np.concatenate((self._rows, other._rows)),
            np.concatenate((self._coeffs, other._coeffs)),
        )
        return LogicalOperator.from_rows(self.n, rows, coeffs).prune()

    def __mul__(self, other: LogicalOperator) -> LogicalOperator:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        rows, coeffs = _product_rows(self._rows, self._coeffs, other._rows, other._coeffs)
        if min(self.num_terms, other.num_terms) > 1:
            # With a one-word factor the products are distinct already.
            rows, coeffs = _merge_rows(rows, coeffs)
        return LogicalOperator.from_rows(self.n, rows, coeffs).prune()

    def prune(self) -> LogicalOperator:
        keep = np.abs(self._coeffs) > PRUNE_TOLERANCE
        self._rows = self._rows[keep]
        self._coeffs = self._coeffs[keep]
        return self

    def to_matrix(self) -> np.ndarray:
        """Dense matrix, every entry summed over the terms in row order."""
        return PauliTable.stack(self.n, {0: self}).to_matrices()[0]
