"""Pauli words and complex-weighted sums of them: one sum in Python ints, many in arrays.

A word ``X^x Z^z`` is the pair of qubit bitmasks ``(x, z)``: qubit q
carries X iff bit q of ``x`` is set, Z iff bit q of ``z`` is set, and
``X Z`` (that is, ``-i Y``) iff both.  One sum is a tuple of terms ``(x, z,
coefficient)``, Python ints and a Python complex, every phase in the
coefficient, so equal words merge by adding coefficients; :func:`_sum_product`
multiplies two, and a :class:`LogicalOperator` holds one.  A sum of a
Clifford pattern stays one word ``i^p X^x Z^z`` (Gottesman, quant-ph/9807006),
the :data:`Word` ``(x, z, p)``, with its own kernels here: the product
(:func:`_word_product`), a round of corrections (:func:`_correct_round`), the
projection (:func:`_project_words`), the packer (:func:`_word_table`), the
read-back (:meth:`PauliTable.as_words`) and the tableau certificate
(:func:`_clifford_tableau`).  A word acts densely as a signed permutation,
whose index and sign one kernel builds (:func:`_signed_permutations`):
:meth:`PauliTable.to_matrices` scatters them and :func:`_gather` applies them.

Labelled sums are arrays, in a :class:`PauliTable`: T words on n qubits are
a ``(T, 2W)`` uint64 array of rows ``[x words | z words]``, with W = ceil(n /
64) and qubit q in bit q % 64 of word q // 64, a ``(T,)`` complex128 array of
coefficients and the label's index as one more key per row.  This is the
bit-packed layout of Aaronson and Gottesman, "Improved simulation of
stabilizer circuits" (PRA 70, 052328, 2004) and of Stim (Gidney, Quantum 5,
497, 2021).  A table holds the one correction step (:meth:`PauliTable.correct`);
:meth:`PauliTable.pack` is the one packer and :meth:`PauliTable.operators`
reads the sums back.

Rows keep the order a dictionary keyed by word would give them: words
already present first, new words in the order they first appear, and equal
words add in row order, so every coefficient is the one a term-by-term loop
computes, bit for bit.  Equal rows are found from an XOR-linear 64-bit hash
of each row (:func:`_row_hash`), whose equal values are checked row by row,
or by one exact grouping (:func:`_group`, one lexicographic sort of keys
held as lines).  A correction's factor is a :class:`Run`, which carries its
words' hashes from the table that made it (:meth:`PauliTable.runs`).  Rows
move as whole elements, by ``take`` along axis 0, and elementwise work runs
per word over lines of length T, never along the short 2W axis, where
numpy takes its slow path.

A correction treats one measured vertex v for every sum of a table: it
multiplies the rows with Z on v by v's correcting product, then strips X
on v and merges the rows made equal.  v's product has Z on v, so its signs
read X on v; after it, the gFlow rules (Browne, Kashefi, Mhalla and
Perdrix, NJP 9, 250, 2007) keep every product off v, and X on v stabilizes
the measured |+>.  So the rows end on the outputs, and the projection is a
gather.  A correction costs one mask test when no row has X or Z on v, else
about 45 numpy calls on the T - F + C F rows that F hit rows and C factor
words make, one hash sort among them, and 35 more if pairs merge.  Over the
sim-terms pools of seeds 1-3, 477 of 927 corrections merged only pairs that
the strip made equal, 413 merged nothing, and 37 were grouped exactly; the
largest table, 630 rows of 8 labels, projects onto 4 outputs in 29 us
(2-CPU VM, numpy 2.4.6).
"""

from __future__ import annotations

import functools
from collections.abc import Hashable, Mapping, Sequence
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DEFAULT_TERM_BUDGET, _over_budget

#: Coefficients no larger than this are dropped when pruning sums.
PRUNE_TOLERANCE = 1e-12

#: A term ``coefficient X^x Z^z`` of one sum as ``(x, z, coefficient)``.
Term = tuple[int, int, complex]

#: A word ``i^p X^x Z^z`` as ``(x, z, p)``, with p in 0..3.
Word = tuple[int, int, int]

#: The coefficient ``i^p`` of a word, indexed by p.
_UNITS = (1 + 0j, 1j, -1 + 0j, -1j)


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


def _unpack_masks(block: np.ndarray) -> list[int]:
    """The Python-int bitmask of each ``(T, W)`` uint64 row of ``block``, lowest word first."""
    if block.shape[1] == 1:
        return block[:, 0].tolist()
    return [int.from_bytes(row.tobytes(), "little") for row in block.astype("<u8")]


def _merged(terms: Sequence[Term]) -> dict[tuple[int, int], complex]:
    """Equal words merged in order of first appearance, each coefficient summed from 0j."""
    sums: dict[tuple[int, int], complex] = {}
    for x, z, coeff in terms:
        sums[x, z] = sums.get((x, z), 0j) + coeff
    return sums


def _sum_product(left: Sequence[Term], right: Sequence[Term]) -> tuple[Term, ...]:
    """``left * right``, left outer, merged and pruned; the sign moves left Z past right X.

    Words merge only when both factors have several terms: with a one-term
    factor the products are distinct already and keep their signed zeros.
    """
    terms = [
        (x1 ^ x2, z1 ^ z2, -(c1 * c2) if (z1 & x2).bit_count() & 1 else c1 * c2)
        for x1, z1, c1 in left
        for x2, z2, c2 in right
    ]
    if len(left) > 1 and len(right) > 1:
        terms = [(x, z, coeff) for (x, z), coeff in _merged(terms).items()]
    return tuple(term for term in terms if abs(term[2]) > PRUNE_TOLERANCE)


def _unit_words(sums: Sequence[Sequence[Term]]) -> list[Word]:
    """Each sum as its one word ``(x, z, p)``; ValueError unless each is one unit-weight term."""
    return [(x, z, _UNITS.index(coeff)) for ((x, z, coeff),) in sums]


def _word_product(left: Word, right: Word) -> Word:
    """``left * right``; the sign moves the left word's Z past the right word's X."""
    (x1, z1, p1), (x2, z2, p2) = left, right
    return x1 ^ x2, z1 ^ z2, (p1 + p2 + 2 * (z1 & x2).bit_count()) & 3


def _correct_round(words: dict[Hashable, Word], mask: int, products: dict, budget: int) -> None:
    """:meth:`PauliTable.correct` on one-word sums, in place, for a round.

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


def _group(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run of every key and first key of every run, runs in order of first appearance.

    Key t is column t of the ``(L, T)`` array ``lines``, of any unsigned
    dtype.  One lexicographic sort orders the keys (numpy sorts by radix a
    line of 16 bits or fewer), and sorted neighbours are compared one line
    at a time, so equal keys, and only they, share a run.  ``first`` is
    increasing.
    """
    order = np.lexsort(lines)
    start = np.zeros(lines.shape[1], dtype=bool)
    start[:1] = True
    for line in lines:
        line = line.take(order)
        start[1:] |= line[1:] != line[:-1]
    bounds = start.nonzero()[0]
    # Each sorted run's first row, and the runs ranked by it.
    firsts = np.minimum.reduceat(order, bounds)
    by_first = np.argsort(firsts)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    run = np.empty_like(order)
    run[order] = rank.repeat(np.diff(bounds, append=len(order)))
    return run, firsts.take(by_first)


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


class Run(NamedTuple):
    """One sum of a table: its rows, their coefficients and their hashes, in table order.

    :meth:`PauliTable.runs` makes runs and hashes their rows itself, so
    ``hashes`` is ``_row_hash(rows)``; :meth:`PauliTable.correct` takes a
    run as its factor and trusts no other hash.
    """

    rows: np.ndarray
    coeffs: np.ndarray
    hashes: np.ndarray


class PauliTable:
    """Labelled sums on one register, stacked into one table keyed by (label, word).

    Row t holds the word ``rows[t]`` of the sum labelled
    ``labels[owner[t]]``, with coefficient ``coeffs[t]``; ``counts[s]``
    is the number of rows of sum s and ``peaks[s]`` the most it has had.
    The rows of each sum keep their order through every correction, and
    :meth:`operators` reads the sums back.  The table owns the arrays it
    is given.  Every coefficient it holds is above :data:`PRUNE_TOLERANCE`:
    its sums are pruned, as every operator is, and so is whatever a
    correction or a projection makes.  From its first correction that
    touches a row, it also keeps the hash of every row with its owner, and
    each qubit's strip delta, and carries them through later corrections.
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
    def pack(cls, n: int, sums: Mapping[Hashable, Sequence[Term]]) -> PauliTable:
        """One table of labelled sums of terms ``(x, z, coefficient)``, labels and rows in order.

        The masks are Python ints.  The words are packed as given, so the sums must be pruned.
        """
        terms = [term for words in sums.values() for term in words]
        xs, zs, coeffs = zip(*terms) if terms else ((), (), ())
        owner = np.repeat(np.arange(len(sums)), list(map(len, sums.values())))
        return cls(n, list(sums), pack_rows(n, xs, zs), np.array(coeffs, dtype=complex), owner)

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

    def operators(self) -> dict[Hashable, LogicalOperator]:
        """Every label's sum as a new operator, its terms in table order."""
        w, sums = self.words, [{} for _ in self.labels]
        words = zip(_unpack_masks(self.rows[:, :w]), _unpack_masks(self.rows[:, w:]))
        for owner, word, coeff in zip(self.owner.tolist(), words, self.coeffs.tolist()):
            sums[owner][word] = coeff
        return {label: LogicalOperator(self.n, terms) for label, terms in zip(self.labels, sums)}

    def as_words(self) -> list[Word] | None:
        """Each sum's word ``(x, z, p)`` in label order, or None unless it is one i^p row."""
        if (self.counts != 1).any():
            return None
        order = np.argsort(self.owner)
        try:
            phases = [_UNITS.index(c) for c in self.coeffs.take(order).tolist()]
        except ValueError:
            return None
        rows, w = self.rows.take(order, axis=0), self.words
        return list(zip(_unpack_masks(rows[:, :w]), _unpack_masks(rows[:, w:]), phases))

    def runs(self) -> dict[Hashable, Run]:
        """Every label's sum as a :class:`Run`, its rows in table order, hashed once here."""
        order, ends = np.argsort(self.owner, kind="stable"), np.cumsum(self.counts).tolist()
        parts = (self.rows, self.coeffs, _row_hash(self.rows))
        rows, coeffs, hashes = (part.take(order, axis=0) for part in parts)
        bounds = zip(self.labels, [0] + ends, ends)
        return {label: Run(rows[a:b], coeffs[a:b], hashes[a:b]) for label, a, b in bounds}

    def support(self) -> tuple[int, int]:
        """Masks of the qubits on which some row has X, and on which some row has Z."""
        lines = np.ascontiguousarray(self.rows.T)
        masks = np.bitwise_or.reduce(lines, axis=1, initial=np.uint64(0))
        return tuple(_unpack_masks(masks.reshape(2, -1)))

    def project(self, qubits: list[int]) -> PauliTable:
        """The sums on the register of ``qubits``, ``qubits[p]`` becoming qubit p, by one gather.

        Only an empty table may take an empty register.  Bits on other qubits
        are dropped and nothing merges, so no two rows of a sum may agree on
        ``qubits``; none do once :meth:`correct` has stripped every other one.
        """
        count, words = len(qubits), _word_count(len(qubits))
        if not count and len(self.rows):
            raise ValueError("only an empty table may take an empty register")
        # Qubit p takes bit p % 64 of word p // 64: its X and Z bits are each one
        # line along the rows, shifted in place and ORed into their word.
        columns = [v >> 6 for v in qubits] + [self.words + (v >> 6) for v in qubits]
        lines = self.rows.T.take(columns, axis=0)
        lines >>= np.array([v & 63 for v in qubits] * 2, dtype=np.uint64)[:, None]
        lines &= np.uint64(1)
        lines <<= np.array([p & 63 for p in range(count)] * 2, dtype=np.uint64)[:, None]
        rows = np.empty((len(self.rows), 2 * words), dtype=np.uint64)
        for j in range(2 * words):
            low = j // words * count + 64 * (j % words)
            high = min(low + 64, (j // words + 1) * count)
            np.bitwise_or.reduce(lines[low:high], axis=0, out=rows[:, j])
        return PauliTable(count, self.labels, rows, self.coeffs.copy(), self.owner.copy())

    def to_matrices(self) -> np.ndarray:
        """Dense ``(len(labels), 2**n, 2**n)`` matrices of the sums, in one scatter.

        Row t puts ``coeffs[t]`` times its word's signed permutation
        (:func:`_signed_permutations`) into its sum's matrix.  Each entry sums
        its terms in row order.  The register must fit in one word.
        """
        dim = 1 << self.n
        index, signs = _signed_permutations(*self.rows.T.astype(np.intp), dim)
        places = (self.owner[:, None] * dim + np.arange(dim)) * dim + index
        mats = np.zeros(len(self.labels) * dim * dim, dtype=complex)
        np.add.at(mats, places.reshape(-1), (self.coeffs[:, None] * signs).reshape(-1))
        return mats.reshape(-1, dim, dim)

    def correct(self, qubit: int, factor: Run, budget: int = DEFAULT_TERM_BUDGET) -> bool:
        """Multiply the rows with Z on ``qubit`` by ``factor``, a pruned sum of a table; strip X.

        The products are summed and pruned, then added into the kept rows of
        their sum, which are pruned again, or appended after them.  Then X on
        ``qubit`` is cleared in every row, and each run of rows made equal
        keeps its first row's place and coefficient, adds the others' in row
        order and is pruned.  The hashes only screen (a row's is that of its
        row with its owner, a product's its hit row's XOR its factor word's):
        with no two stripped hashes equal nothing merges, runs of two rows
        that differ in X on ``qubit`` merge as they are, and anything else is
        grouped exactly, before and after the strip.  Returns whether any row
        had Z on ``qubit``.  Raises :class:`BudgetExceededError` before the
        products are built when the kept rows plus the products would exceed
        ``budget``.
        """
        rows, coeffs, owner, x_col = self.rows, self.coeffs, self.owner, qubit >> 6
        bit = np.uint64(1 << (qubit & 63))
        x_line, hits = rows[:, x_col] & bit, rows[:, self.words + x_col] & bit
        if not (x_line | hits).any():
            return False
        if self._hashes is None:
            # Each row's hash with its owner as one more word, and that of each
            # qubit's X alone, which the strip XORs in (see _row_hash).
            alone = pack_rows(self.n, [1 << q for q in range(self.n)], [0] * self.n)
            keyed = np.concatenate((rows, owner[:, None].astype(np.uint64)), axis=1)
            hashed = _row_hash(np.concatenate((keyed, np.pad(alone, ((0, 0), (0, 1))))))
            self._hashes, self._deltas = hashed[: len(rows)], hashed[len(rows) :]
        hashes, hit = self._hashes, hits.nonzero()[0]
        k = len(rows) - len(hit)
        if len(hit):
            terms = len(factor.coeffs)
            if (size := len(rows) + (terms - 1) * len(hit)) > budget:
                raise _over_budget(size, "terms", "terms", budget)
            new_rows, new_coeffs = _product_rows(*factor[:2], rows.take(hit, 0), coeffs.take(hit))
            # Each product sum starts from zero, turning a -0.0 part into 0.0.
            new_coeffs += 0.0
            new_hashes = (factor.hashes[:, None] ^ hashes.take(hit)).reshape(-1)
            news = (new_rows, new_coeffs, np.concatenate([owner.take(hit)] * terms), new_hashes)
            kept = (hits == 0).nonzero()[0]
            rows, coeffs, owner, hashes = (
                np.concatenate((old.take(kept, axis=0), new))
                for old, new in zip((rows, coeffs, owner, hashes), news)
            )
            x_line = rows[:, x_col] & bit
        else:
            rows, coeffs = rows.copy(), coeffs.copy()
        stripped = hashes ^ (x_line != 0) * self._deltas[qubit]
        order = stripped.argsort()
        ordered = stripped.take(order)
        equal = ordered[1:] == ordered[:-1]
        live = np.abs(coeffs[k:]) > PRUNE_TOLERANCE
        if equal.any() or not live.all():
            pairs = equal.nonzero()[0]
            one, other = order.take(pairs), order.take(pairs + 1)
            differ = rows.take(one, axis=0) ^ rows.take(other, axis=0)
            differ[:, x_col] ^= bit
            if (
                live.all()
                and not (equal[1:] & equal[:-1]).any()
                and not differ.any()
                and (owner.take(one) == owner.take(other)).all()
            ):
                # Runs of two rows of one owner that differ in X on the qubit alone.
                target, rest = np.minimum(one, other), np.maximum(one, other)
            else:
                if len(hit):
                    rows, coeffs, owner, hashes = _merge_products(rows, coeffs, owner, hashes, k)
                    x_line = rows[:, x_col] & bit
                    stripped = hashes ^ (x_line != 0) * self._deltas[qubit]
                rows[:, x_col] ^= x_line
                run, first = _group(np.concatenate((rows.T, owner[None].astype(np.uint64))))
                lead = first.take(run)
                rest = (lead != np.arange(len(lead))).nonzero()[0]
                target = lead.take(rest)
            np.add.at(coeffs, target, coeffs.take(rest))
            keep = np.ones(len(coeffs), dtype=bool)
            keep[rest] = False
            keep[target] = np.abs(coeffs.take(target)) > PRUNE_TOLERANCE
            picks = keep.nonzero()[0]
            rows, coeffs, owner, stripped = (
                part.take(picks, axis=0) for part in (rows, coeffs, owner, stripped)
            )
        rows[:, x_col] &= ~bit
        self._set_rows(rows, coeffs, owner, stripped)
        return len(hit) > 0


def _merge_products(rows, coeffs, owner, hashes, k):
    """Kept rows ``[:k]``, then products, which add from zero and are pruned, then merged in.

    A product sum is added into its kept row, pruned again, or appended in
    order of first appearance; each array comes back picked alike.
    """
    run, first = _group(np.concatenate((rows.T, owner[None].astype(np.uint64))))
    sums = np.zeros(len(first), dtype=complex)
    np.add.at(sums, run[k:], coeffs[k:])
    live = np.abs(sums) > PRUNE_TOLERANCE
    # The kept rows are distinct and come first, so run r < k is kept row r.
    sums[:k] = np.where(live[:k], coeffs[:k] + sums[:k], coeffs[:k])
    live[:k] = np.abs(sums[:k]) > PRUNE_TOLERANCE
    runs = live.nonzero()[0]
    picks = first.take(runs)
    return rows.take(picks, axis=0), sums.take(runs), owner.take(picks), hashes.take(picks)


def _word_table(n: int, words: Mapping[Hashable, Word]) -> PauliTable:
    """The sums ``label: (x, z, p)`` on ``n`` qubits, packed by :meth:`PauliTable.pack`."""
    return PauliTable.pack(n, {label: ((x, z, _UNITS[p]),) for label, (x, z, p) in words.items()})


def _project_words(words: Mapping[Hashable, Word], qubits: list[int]) -> PauliTable:
    """:meth:`PauliTable.project` of one-word sums, the same table byte for byte.

    One-word sums merge nothing, so only their bits on ``qubits`` are gathered and packed.
    """
    bits, projected = [(v, 1 << p) for p, v in enumerate(qubits)], {}
    for label, (x, z, p) in words.items():
        x_out = sum([bit for v, bit in bits if x >> v & 1])
        z_out = sum([bit for v, bit in bits if z >> v & 1])
        projected[label] = (x_out, z_out, p)
    return _word_table(len(qubits), projected)


def _clifford_tableau(table: PauliTable) -> list[Word] | None:
    """The 2k words ``(x, z, p)`` of the sums in label order if they are a tableau, else None.

    They are when :meth:`PauliTable.as_words` reads 2k words, each Hermitian (``p +
    popcount(x & z)`` even), words 2i and 2i + 1 (``Lx_i`` and ``Lz_i``) anticommute,
    and every other pair commutes (Aaronson and Gottesman, PRA 70, 052328, 2004):
    O(k^2) popcounts on Python ints, on a register of any width.
    """
    words = table.as_words()
    if words is None or len(words) % 2:
        return None
    for a, (xa, za, pa) in enumerate(words):
        if (pa + (xa & za).bit_count()) & 1:
            return None
        for b, (xb, zb, _) in enumerate(words[:a]):
            # Only a = b + 1 with b even, that is a ^ b == 1, pairs Lx_i with Lz_i.
            if ((xa & zb).bit_count() + (za & xb).bit_count()) & 1 != (a ^ b == 1):
                return None
    return words


def _signed_permutations(xs: np.ndarray, zs: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """Row w: the index and sign of ``W = X^xs[w] Z^zs[w]``, ``(W v)[j] = sign[j] v[index[j]]``.

    That is ``index[j] = j ^ x`` and ``sign[j] = (-1)^popcount(z & index[j])``.  The signs
    are built in float: the uint8 parity would wrap ``1 - 2`` to 255.
    """
    index = np.arange(dim) ^ xs[:, None]
    return index, 1.0 - 2.0 * (np.bitwise_count(index & zs[:, None]) & 1)


def _word_actions(words: list[Word], dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each word ``i^p X^x Z^z`` as its index and sign vectors, the phase ``i^p`` in the sign."""
    xs, zs, ps = np.array(words, dtype=np.intp).reshape(-1, 3).T
    index, signs = _signed_permutations(xs, zs, dim)
    return list(zip(index, np.array(_UNITS)[ps, None] * signs))


def _gather(word: tuple[np.ndarray, np.ndarray], block: np.ndarray) -> np.ndarray:
    """``W block`` for the word ``(index, sign)`` and a vector or a matrix of columns."""
    return (word[1] * block.T[..., word[0]]).T


class LogicalOperator:
    """Complex-weighted sum of phase-free Pauli words on a fixed register.

    Built from a ``{(x_bits, z_bits): coefficient}`` mapping and pruned, as
    every operation is; held as the tuple ``words`` of terms ``(x, z,
    coefficient)`` (see the module docstring).  A word with a bit outside
    the ``n`` qubits, or a negative mask, raises ``ValueError``.
    """

    __slots__ = ("n", "words")

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        terms = terms or {}
        for x, z in terms:
            if x < 0 or z < 0 or (x | z) >> n:
                raise ValueError(f"word {(x, z)} has bits outside the {n}-qubit register")
        self.n = n
        self.words = tuple((x, z, complex(coeff)) for (x, z), coeff in terms.items())
        self.prune()

    def terms(self) -> Iterator[tuple[tuple[int, int], complex]]:
        return (((x, z), coeff) for x, z, coeff in self.words)

    @property
    def num_terms(self) -> int:
        return len(self.words)

    def __add__(self, other: LogicalOperator) -> LogicalOperator:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        return LogicalOperator(self.n, _merged(self.words + other.words))

    def __mul__(self, other: LogicalOperator) -> LogicalOperator:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        product = _sum_product(self.words, other.words)
        return LogicalOperator(self.n, {(x, z): coeff for x, z, coeff in product})

    def prune(self) -> LogicalOperator:
        self.words = tuple(term for term in self.words if abs(term[2]) > PRUNE_TOLERANCE)
        return self

    def to_matrix(self) -> np.ndarray:
        """Dense matrix, every entry summed over the terms in row order."""
        return PauliTable.pack(self.n, {0: self.words}).to_matrices()[0]
