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
one such table, with the label's index as one more key per row.

Rows keep the order a dictionary keyed by word would give them: words
already present first, new words in the order they first appear.  Equal
words add in row order, starting from zero, so every coefficient is the
one a term-by-term loop computes, bit for bit.  Equal rows are found by
sorting a 64-bit hash of each row and comparing neighbours in full; if
two different rows share a hash, a lexicographic sort of the rows
decides instead.

Cost of :meth:`PauliTable.correct`, which treats one measured vertex for
every sum of a table at once: with T rows of which F have Z on the vertex
and a correction of C words, one mask test over T rows when F = 0; about
20 numpy calls on F rows when C = 1 and no sum has two rows (no merge is
possible); otherwise about 60 numpy calls on T - F + C F rows, among them
one sort of as many hashes.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError

#: Coefficients no larger than this are dropped when pruning sums.
PRUNE_TOLERANCE = 1e-12

#: Sign of a product, indexed by the parity of the anticommuting pairs.
_SIGNS = np.array([1.0, -1.0])


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


def word_matrix(n: int, x: int, z: int) -> np.ndarray:
    """Dense matrix of the phase-free word ``X^x Z^z``."""
    dim = 1 << n
    cols = np.arange(dim)
    rows = cols ^ x
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows, cols] = signs
    return mat


def _row_hash(rows: np.ndarray) -> np.ndarray:
    """64-bit hash of every row: a salted splitmix64 finalizer per word, summed."""
    v = rows + np.arange(rows.shape[1], dtype=np.uint64) * 0x9E3779B97F4A7C15
    v ^= v >> 30
    v *= 0xBF58476D1CE4E5B9
    v ^= v >> 27
    v *= 0x94D049BB133111EB
    v ^= v >> 31
    return v.sum(axis=1, dtype=np.uint64)


def _group(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run of every row and first row of every run, runs in order of first appearance.

    Equal rows share a run, and ``first`` is increasing.
    """
    hashes = _row_hash(rows)
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
    run, first = _group(rows)
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
    is the number of rows of sum s, and ``single`` says that no sum has
    two rows, so that no two rows can merge.  The rows of each sum keep
    their order through every correction, and :meth:`operators` reads
    the sums back.  The table owns the arrays it is given: a correction
    may change them in place.
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

    def _set_rows(self, rows: np.ndarray, coeffs: np.ndarray, owner: np.ndarray) -> None:
        self.rows, self.coeffs, self.owner = rows, coeffs, owner
        self.counts = np.bincount(owner, minlength=len(self.labels))
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
        """The sums on the register of ``qubits`` (at least one), ``qubits[p]`` becoming qubit p.

        Bits on other qubits are dropped.  Words that become equal merge in
        row order and the sums are pruned.
        """
        count = len(qubits)
        # Qubit p takes bit p % 64 of word p // 64 of each new mask.
        columns = [v >> 6 for v in qubits] + [self.words + (v >> 6) for v in qubits]
        shifts = np.array([v & 63 for v in qubits] * 2, dtype=np.uint64)
        places = np.array([p & 63 for p in range(count)] * 2, dtype=np.uint64)
        bits = ((self.rows[:, columns] >> shifts) & 1) << places
        starts = list(range(0, count, 64))
        rows = np.add.reduceat(bits, starts + [count + s for s in starts], axis=1)
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
        self, qubit: int, correction: LogicalOperator, budget: int | None = None
    ) -> bool:
        """Multiply the rows with Z on ``qubit`` by ``correction``, merge and prune.

        The other rows are kept in place.  The products are summed and
        pruned, then added into the kept rows of their sum or appended
        after them, and the table is pruned again.  Returns whether any
        row had Z on ``qubit``.  Raises :class:`BudgetExceededError`
        before the products are built when the kept rows plus the
        products would exceed ``budget``.
        """
        rows, coeffs = self.rows, self.coeffs
        hit = (rows[:, self.words + (qubit >> 6)] & np.uint64(1 << (qubit & 63))).nonzero()[0]
        if not len(hit):
            return False
        terms = correction.num_terms
        if terms == 1 and self.single:
            # No sum has two rows and one word maps rows one to one, so
            # nothing merges: each hit row is replaced where it stands.
            flipped = rows[hit]
            odd = np.bitwise_count(flipped[:, : self.words] & correction._rows[0, self.words :])
            signed = correction._coeffs[0] * _SIGNS
            new_coeffs = signed[np.add.reduce(odd, axis=1) & 1] * coeffs[hit]
            rows[hit] = flipped ^ correction._rows[0]
            coeffs[hit] = new_coeffs
            dead = np.abs(new_coeffs) <= PRUNE_TOLERANCE
            if dead.any():
                stay = np.ones(len(rows), dtype=bool)
                stay[hit[dead]] = False
                self._set_rows(rows[stay], coeffs[stay], self.owner[stay])
            return True
        size = len(rows) + (terms - 1) * len(hit)
        if budget is not None and size > budget:
            raise BudgetExceededError(f"{size} terms exceed --budget-terms {budget}")
        new_rows, new_coeffs = _product_rows(
            correction._rows, correction._coeffs, rows[hit], coeffs[hit]
        )
        kept = np.ones(len(rows), dtype=bool)
        kept[hit] = False
        kept_rows = rows[kept]
        k = len(kept_rows)
        keys = np.concatenate([self.owner[kept]] + [self.owner[hit]] * terms)
        table = np.concatenate((kept_rows, new_rows))
        # The kept rows are distinct and come first, so run r < k is kept row r.
        run, first = _group(np.concatenate((table, keys[:, None].astype(np.uint64)), axis=1))
        sums = np.zeros(len(first), dtype=complex)
        np.add.at(sums, run[k:], new_coeffs)
        # Products are pruned before they are added in, then the whole table.
        live = np.abs(sums) > PRUNE_TOLERANCE
        kept_coeffs = coeffs[kept]
        np.add(kept_coeffs, sums[:k], out=kept_coeffs, where=live[:k])
        stay = np.abs(kept_coeffs) > PRUNE_TOLERANCE
        fresh = live[k:].nonzero()[0] + k
        self._set_rows(
            np.concatenate((kept_rows[stay], table[first[fresh]])),
            np.concatenate((kept_coeffs[stay], sums[fresh])),
            np.concatenate((keys[:k][stay], keys[first[fresh]])),
        )
        return True


class LogicalOperator:
    """Complex-weighted sum of phase-free Pauli words on a fixed register.

    Built from a ``{(x_bits, z_bits): coefficient}`` mapping; held as word
    rows and coefficients (see the module docstring).
    """

    __slots__ = ("n", "_rows", "_coeffs")

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        terms = terms or {}
        self.n = n
        self._rows = pack_rows(n, [x for x, _ in terms], [z for _, z in terms])
        self._coeffs = np.array(list(terms.values()), dtype=complex).reshape(-1)

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

    def coefficient(self, x: int, z: int) -> complex:
        key = pack_rows(self.n, [x], [z])
        match = np.flatnonzero((self._rows == key).all(axis=1))
        return complex(self._coeffs[match[0]]) if len(match) else 0.0

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

    def corrected(self, qubit: int, correction: LogicalOperator) -> LogicalOperator:
        """The terms with Z on ``qubit`` multiplied by ``correction``, in one pass.

        This equals ``commuting + correction * anticommuting`` term for
        term (:meth:`PauliTable.correct`).  An operator with no such term is
        returned as it is, and nothing is built for it.
        """
        table = PauliTable.stack(self.n, {0: self})
        return table.operators()[0] if table.correct(qubit, correction) else self

    def prune(self) -> LogicalOperator:
        keep = np.abs(self._coeffs) > PRUNE_TOLERANCE
        self._rows = self._rows[keep]
        self._coeffs = self._coeffs[keep]
        return self

    @property
    def support_mask(self) -> int:
        words = _word_count(self.n)
        either = np.bitwise_or.reduce(self._rows, axis=0, initial=np.uint64(0))
        return _unpack_words(either[:words] | either[words:])

    def commutes_with_x(self, qubit: int) -> bool:
        """True when every term commutes with X on ``qubit``."""
        column = self._rows[:, _word_count(self.n) + (qubit >> 6)]
        return not np.any(column & np.uint64(1 << (qubit & 63)))

    def to_matrix(self) -> np.ndarray:
        """Dense matrix, every entry summed over the terms in row order."""
        return PauliTable.stack(self.n, {0: self}).to_matrices()[0]

    def expectation(self, state: np.ndarray) -> complex:
        """``<state| self |state>`` without building the dense matrix."""
        if state.shape != (1 << self.n,):
            raise ValueError("state dimension does not match qubit count")
        idx = np.arange(1 << self.n)
        total = 0.0 + 0.0j
        for (x, z), coeff in self.terms():
            signs = 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)
            total += coeff * np.vdot(state, (signs * state)[idx ^ x])
        return total
