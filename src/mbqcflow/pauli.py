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
every other operation goes through a table, which holds the correction
steps (:meth:`PauliTable.correct` for one qubit and
:meth:`PauliTable.correct_round` for a round of them) and the one dense
kernel (:meth:`PauliTable.to_matrices`).

Rows keep the order a dictionary keyed by word would give them: words
already present first, new words in the order they first appear.  Equal
words add in row order, starting from zero, so every coefficient is the
one a term-by-term loop computes, bit for bit.  Equal rows are found by
sorting a 64-bit hash of each row and comparing neighbours in full; if
two different rows share a hash, a lexicographic sort of the rows
decides instead.  The hash is XOR-linear: the hash of the product of
two words is the XOR of their hashes.  So a table keeps the hash of
each row, keyed by its sum, once it has needed it, and a correction
hashes only its own words.

Cost of a correction, which treats measured vertices for every sum of a
table at once.  When no sum has two rows and every correction of a round
of m vertices is one word, no merge is possible, and
:meth:`PauliTable.correct_round` corrects the whole round in one kernel
call: one mask test over T rows x m vertices when no row is hit,
otherwise about 30 numpy calls on arrays of T m entries and two more per
vertex.  On the sim-clifford benchmark pool of seed 1 that is 10.8 calls
per instance, where one call per vertex would be 47.1.  Any other round
costs one :meth:`PauliTable.correct` call per vertex: with T rows of
which F have Z on the vertex and a correction of C words, one mask test
over T rows when F = 0; otherwise about 60 numpy calls on T - F + C F
rows, among them one sort of as many hashes.  Only when two of those
hashes are equal do the rows also go through the grouping step (one
argsort and the row comparisons, about 35 more calls).  Over the
sim-terms benchmark pools of seeds 1-3, 890 of the 927 corrections that
multiply found no two hashes equal, on tables of up to 13,687 rows; the
other 37 held 1,145 rows in all.
"""

from __future__ import annotations

import functools
from collections.abc import Hashable, Mapping
from typing import Iterator

import numpy as np

from .errors import DEFAULT_TERM_BUDGET, _over_budget

#: Coefficients no larger than this are dropped when pruning sums.
PRUNE_TOLERANCE = 1e-12

#: Sign of a product, indexed by the parity of the anticommuting pairs.
_SIGNS = np.array([1.0, -1.0], dtype=complex)


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


#: Table entries read at a time when hashing rows: each temporary of a
#: block stays near 64 KiB, below glibc's default mmap threshold.
_HASH_BLOCK = 1 << 13


@functools.lru_cache(maxsize=16)
def _hash_table(columns: int) -> np.ndarray:
    """Lookup table of :func:`_row_hash` on rows of ``columns`` words.

    Bit q of a row has the key ``splitmix64(q + 1)``, which is never 0.
    Entry ``256 p + b`` is the XOR of the keys of the bits set in byte
    value b at byte p of a row.
    """
    keys = np.arange(1, 64 * columns + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    keys ^= keys >> 30
    keys *= 0xBF58476D1CE4E5B9
    keys ^= keys >> 27
    keys *= 0x94D049BB133111EB
    keys ^= keys >> 31
    keys = keys.reshape(-1, 8)
    values = np.arange(256)
    table = np.zeros((len(keys), 256), dtype=np.uint64)
    for bit in range(8):
        table[:, (values >> bit) & 1 == 1] ^= keys[:, bit : bit + 1]
    return table.reshape(-1)


def _row_hash(rows: np.ndarray) -> np.ndarray:
    """64-bit hash of every row: the XOR of the keys of its set bits.

    The hash is XOR-linear: the hash of ``a ^ b`` is the hash of ``a``
    XOR the hash of ``b``.  A zero word adds nothing, so the hash of a
    row without its last words is that of the row with those words 0.
    """
    table = _hash_table(rows.shape[1])
    # A byte that is zero in every row adds nothing, so only the others are read.
    either = np.bitwise_or.reduce(rows, axis=0, initial=np.uint64(0), keepdims=True)
    places = either.view(np.uint8)[0].nonzero()[0]
    step = max(1, _HASH_BLOCK // max(1, len(places)))
    hashes = np.empty(len(rows), dtype=np.uint64)
    for start in range(0, len(rows), step):
        block = np.ascontiguousarray(rows[start : start + step]).view(np.uint8)
        hashes[start : start + step] = np.bitwise_xor.reduce(
            table[block[:, places] + places * 256], axis=1
        )
    return hashes


def _group(rows: np.ndarray, hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run of every row and first row of every run, runs in order of first appearance.

    ``hashes`` holds the :func:`_row_hash` of every row.  Equal rows share
    a run, and ``first`` is increasing.
    """
    order = np.argsort(hashes)
    hashes = hashes[order]
    # Equal rows have equal hashes; check the rows of every such pair.
    pairs = (hashes[1:] == hashes[:-1]).nonzero()[0]
    equal = (rows[order[pairs]] == rows[order[pairs + 1]]).all(axis=1)
    start = np.ones(len(rows), dtype=bool)
    start[pairs[equal] + 1] = False
    if not equal.all():
        # Two different rows share a hash: order by the rows themselves.
        order = np.lexsort(rows.T[::-1])
        ordered = rows[order]
        start[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    run = np.cumsum(start) - 1
    first_equal = np.empty(len(rows), dtype=np.intp)
    first_equal[order] = np.minimum.reduceat(order, start.nonzero()[0])[run]
    leads = first_equal == np.arange(len(rows))
    return (np.cumsum(leads) - 1)[first_equal], leads.nonzero()[0]


def _merge_rows(rows: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows merged in order of first appearance, coefficients added in row order."""
    run, first = _group(rows, _row_hash(rows))
    sums = np.zeros(len(first), dtype=complex)
    np.add.at(sums, run, coeffs)
    return rows[first], sums


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
    rows = left_rows[:, None] ^ right_rows[None]
    odd = np.bitwise_count(left_rows[:, None, words:] & right_rows[None, :, :words])
    coeffs = left_coeffs[:, None] * right_coeffs[None]
    np.negative(coeffs, out=coeffs, where=(np.add.reduce(odd, axis=2) & 1).astype(bool))
    return rows.reshape(-1, 2 * words), coeffs.reshape(-1)


class PauliTable:
    """Labelled sums on one register, stacked into one table keyed by (label, word).

    Row t holds the word ``rows[t]`` of the sum labelled
    ``labels[owner[t]]``, with coefficient ``coeffs[t]``; ``counts[s]``
    is the number of rows of sum s, ``peaks[s]`` the most it has had,
    and ``single`` says that no sum has two rows, so that no two rows
    can merge.  The rows of each sum keep their order through every
    correction, and :meth:`operators` reads the sums back.  The table
    owns the arrays it is given: a correction may change them in place.
    From its first correction that multiplies, it also keeps the hash of
    every row with its owner, and carries it through later corrections.
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
    ) -> None:
        self.rows, self.coeffs, self.owner, self._hashes = rows, coeffs, owner, hashes
        self.counts = np.bincount(owner, minlength=len(self.labels))
        np.maximum(self.peaks, self.counts, out=self.peaks)
        self.single = bool(self.counts.max(initial=0) <= 1)

    def operators(self) -> dict[Hashable, LogicalOperator]:
        """Every label's sum as a new operator, its rows in table order."""
        order = np.argsort(self.owner, kind="stable")
        rows, coeffs = self.rows[order], self.coeffs[order]
        ends = np.cumsum(self.counts).tolist()
        return {
            label: LogicalOperator.from_rows(self.n, rows[start:end], coeffs[start:end])
            for label, start, end in zip(self.labels, [0] + ends[:-1], ends)
        }

    def z_support(self) -> int:
        """Mask of the qubits on which some row has Z."""
        either = np.bitwise_or.reduce(self.rows[:, self.words :], axis=0, initial=np.uint64(0))
        return _unpack_words(either)

    def project(self, qubits: list[int]) -> PauliTable:
        """The sums on the register of ``qubits``, ``qubits[p]`` becoming qubit p.

        Only an empty table may take an empty register.  Bits on other
        qubits are dropped; words made equal merge in row order, and the
        sums are pruned.
        """
        count = len(qubits)
        if not count and len(self.rows):
            raise ValueError("only an empty table may take an empty register")
        # Qubit p takes bit p % 64 of word p // 64 of each new mask.
        columns = [v >> 6 for v in qubits] + [self.words + (v >> 6) for v in qubits]
        shifts = np.array([v & 63 for v in qubits] * 2, dtype=np.uint64)
        places = np.array([p & 63 for p in range(count)] * 2, dtype=np.uint64)
        # The (rows x 2 count) bits are shifted in place and dropped before
        # the merge, so that no second copy of them is alive.
        rows = self.rows[:, columns]
        rows >>= shifts
        rows &= np.uint64(1)
        rows <<= places
        starts = list(range(0, count, 64))
        rows = np.add.reduceat(rows, starts + [count + s for s in starts], axis=1)
        coeffs, owner = self.coeffs.copy(), self.owner.copy()
        if not self.single:
            keys, coeffs = _merge_rows(
                np.concatenate((rows, owner[:, None].astype(np.uint64)), axis=1), coeffs
            )
            live = np.abs(coeffs) > PRUNE_TOLERANCE
            keys, coeffs = keys[live], coeffs[live]
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

        The other rows are kept in place.  A one-word correction of a table
        in which no sum has two rows goes to the one-word kernel of
        :meth:`correct_round`, as a round of one qubit.  Otherwise the
        products are summed and pruned, then added into the kept rows of
        their sum or appended after them, and the table is pruned again.
        When no two of the kept rows and products have equal hashes,
        nothing can merge: the pruned products are appended in order, with
        no grouping step.  A product's hash is its hit row's hash XOR its
        correction word's hash, so no product is hashed.  Returns whether
        any row had Z on ``qubit``.  Raises :class:`BudgetExceededError`
        before the products are built when the kept rows plus the products
        would exceed ``budget``.
        """
        if correction.num_terms == 1 and self.single:
            return self._one_word_round([qubit], [correction], budget)
        rows, coeffs = self.rows, self.coeffs
        hit = (rows[:, self.words + (qubit >> 6)] & np.uint64(1 << (qubit & 63))).nonzero()[0]
        if not len(hit):
            return False
        terms = correction.num_terms
        size = len(rows) + (terms - 1) * len(hit)
        if size > budget:
            raise _over_budget(size, "terms", "terms", budget)
        new_rows, new_coeffs = _product_rows(
            correction._rows, correction._coeffs, rows[hit], coeffs[hit]
        )
        kept = np.ones(len(rows), dtype=bool)
        kept[hit] = False
        kept_rows, kept_coeffs = rows[kept], coeffs[kept]
        k = len(kept_rows)
        keys = np.concatenate([self.owner[kept]] + [self.owner[hit]] * terms)
        if self._hashes is None:
            # Each row's hash with its owner as one more word, kept from now on.
            keyed = np.concatenate((rows, self.owner[:, None].astype(np.uint64)), axis=1)
            self._hashes = _row_hash(keyed)
        carried = self._hashes
        hashes = np.concatenate(
            (carried[kept], (_row_hash(correction._rows)[:, None] ^ carried[hit]).reshape(-1))
        )
        ordered = np.sort(hashes)
        if (ordered[1:] == ordered[:-1]).any():
            table = np.concatenate((kept_rows, new_rows))
            # The kept rows are distinct and come first, so run r < k is kept row r.
            run, first = _group(
                np.concatenate((table, keys[:, None].astype(np.uint64)), axis=1), hashes
            )
            sums = np.zeros(len(first), dtype=complex)
            np.add.at(sums, run[k:], new_coeffs)
            # Products are pruned before they are added in, then the whole table.
            live = np.abs(sums) > PRUNE_TOLERANCE
            np.add(kept_coeffs, sums[:k], out=kept_coeffs, where=live[:k])
            fresh = live[k:].nonzero()[0] + k
            picks, new_rows, new_coeffs = first[fresh], table[first[fresh]], sums[fresh]
        else:
            # All keys differ, so nothing merges.  Each sum still starts
            # from zero, which turns a -0.0 part into 0.0.
            picks = (np.abs(new_coeffs) > PRUNE_TOLERANCE).nonzero()[0]
            new_rows, new_coeffs = new_rows[picks], new_coeffs[picks] + 0.0
            picks += k
        stay = np.abs(kept_coeffs) > PRUNE_TOLERANCE
        self._set_rows(
            np.concatenate((kept_rows[stay], new_rows)),
            np.concatenate((kept_coeffs[stay], new_coeffs)),
            np.concatenate((keys[:k][stay], keys[picks])),
            np.concatenate((hashes[:k][stay], hashes[picks])),
        )
        return True

    def correct_round(
        self,
        qubits: list[int],
        corrections: list[LogicalOperator],
        budget: int = DEFAULT_TERM_BUDGET,
    ) -> None:
        """:meth:`correct` for each of ``qubits`` in turn, in one step when it can.

        ``corrections[j]`` is the correction of ``qubits[j]``.

        When no sum has two rows and every correction is one word, the
        whole round is one kernel call; it leaves the table as the calls
        vertex by vertex would, byte for byte.  No correction may then
        have Z on another qubit of the round, which a valid gFlow's
        strict layers guarantee for the qubits of one layer; the kernel
        raises ``ValueError`` otherwise.  Any other round is corrected
        qubit by qubit.
        """
        if self.single and all(correction.num_terms == 1 for correction in corrections):
            self._one_word_round(qubits, corrections, budget)
            return
        for qubit, correction in zip(qubits, corrections):
            self.correct(qubit, correction, budget)

    def _one_word_round(
        self, qubits: list[int], corrections: list[LogicalOperator], budget: int
    ) -> bool:
        """The one-word kernel: correct for every qubit of a round, in order.

        No sum has two rows and each correction is one word, so every row
        maps to one row where it stands and nothing merges.  No correction
        has Z on another qubit of the round, so the rows with Z on each
        qubit are read once, before any step, and a row's bits become the
        XOR of the corrections that hit it.  The sign of step j is the
        parity of the row's X bits, as the earlier steps left them, against
        correction j's Z bits.  The coefficients are multiplied step by
        step, as ``signed[parity] * coeff``, as one qubit at a time would
        multiply them.  A row whose coefficient falls to the prune
        tolerance after any of its steps is dropped at the end.  Returns
        whether any row was hit.
        """
        words, rows, coeffs = self.words, self.rows, self.coeffs
        count, m = len(rows), len(qubits)
        columns = [words + (q >> 6) for q in qubits]
        bits = np.array([1 << (q & 63) for q in qubits], dtype=np.uint64)
        # Whether each row, then each correction, has Z on each qubit of the round.
        table = np.concatenate([rows] + [c._rows for c in corrections])
        marks = (table[:, columns] & bits) != 0
        hits = marks[:count]
        if not np.count_nonzero(hits):
            return False
        if count > budget:
            raise _over_budget(count, "terms", "terms", budget)
        # A correction may have Z on its own qubit, but on no other of the round.
        crossed = marks[count:]
        crossed.flat[:: m + 1] = False
        if np.count_nonzero(crossed):
            raise ValueError("a correction has Z on another qubit of its round")
        word_rows = table[count:]
        # Each row before each step and after the last: the row, then the
        # words of the steps that hit it, XORed up in step order.
        states = np.empty((count, m + 1, 2 * words), dtype=np.uint64)
        states[:, 0] = rows
        np.multiply(word_rows, hits[:, :, None], out=states[:, 1:])
        np.bitwise_xor.accumulate(states, axis=1, out=states)
        x_z = states[:, :m, :words] & word_rows[:, words:]
        odd = np.bitwise_count(np.bitwise_xor.reduce(x_z, axis=2)) & 1
        signed = np.concatenate([c._coeffs for c in corrections])[:, None] * _SIGNS
        factors = np.where(odd, signed[:, 1], signed[:, 0]).T
        rows[:] = states[:, m]
        hits = hits.T
        products = np.empty((m, count), dtype=complex)
        product = coeffs
        for step in range(m):
            product = products[step] = np.where(hits[step], factors[step] * product, product)
        coeffs[:] = product
        self._hashes = None
        magnitudes = np.abs(products)
        if magnitudes.min() <= PRUNE_TOLERANCE:
            dead = ((magnitudes <= PRUNE_TOLERANCE) & hits).any(axis=0)
            if np.count_nonzero(dead):
                self._set_rows(rows[~dead], coeffs[~dead], self.owner[~dead])
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
