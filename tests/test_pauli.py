import collections
import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcflow import pauli, simulate_pattern
from mbqcflow.errors import DEFAULT_TERM_BUDGET, BudgetExceededError
from mbqcflow.pauli import PRUNE_TOLERANCE, LogicalOperator, PauliTable, _product_rows

from conftest import bench_pool, count_product_merges
from pauli_reference import corrected_terms, product_terms, project_terms, prune

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_all(letters):
    # Qubit 0 is the least significant index bit, so it sits rightmost.
    out = np.array([[1.0 + 0j]])
    for letter in reversed(letters):
        out = np.kron(out, MATS[letter])
    return out


def single(n, qubit, letter):
    """One-qubit X, Y or Z on ``qubit`` as a one-term operator (Y = i X Z)."""
    bit = 1 << qubit
    key, coeff = {"X": ((bit, 0), 1.0), "Z": ((0, bit), 1.0), "Y": ((bit, bit), 1j)}[letter]
    return LogicalOperator(n, {key: coeff})


def word(n, letters):
    prod = LogicalOperator(n, {(0, 0): 1.0})
    for q, letter in enumerate(letters):
        if letter != "I":
            prod = prod * single(n, q, letter)
    return prod


def terms(op):
    return dict(op.terms())


words_1q = st.sampled_from(["I", "X", "Y", "Z"])


class TestWordAlgebra:
    def test_single_qubit_matrices(self):
        for letter, mat in MATS.items():
            if letter == "I":
                continue
            assert np.allclose(single(1, 0, letter).to_matrix(), mat)

    def test_z_times_x_is_plus_i_y(self):
        prod = single(1, 0, "Z") * single(1, 0, "X")
        assert terms(prod) == {(1, 1): -1.0}  # i Y = i (i X Z) = -X Z
        assert np.allclose(prod.to_matrix(), 1j * Y)

    @given(words_1q, words_1q)
    def test_all_1q_products_match_matrices(self, a, b):
        pa, pb = word(1, a), word(1, b)
        assert np.allclose((pa * pb).to_matrix(), pa.to_matrix() @ pb.to_matrix())

    def test_two_qubit_example(self):
        # (X (x) Z) * (Z (x) Z) has XZ = -iY on the first qubit.
        a, b = word(2, "XZ"), word(2, "ZZ")
        assert np.allclose((a * b).to_matrix(), a.to_matrix() @ b.to_matrix())
        assert np.allclose((a * b).to_matrix(), np.kron(I2, -1j * Y))

    @settings(max_examples=60)
    @given(st.lists(words_1q, min_size=1, max_size=3), st.data())
    def test_random_products_and_commutation(self, letters, data):
        n = len(letters)
        other = data.draw(st.lists(words_1q, min_size=n, max_size=n))
        pa, pb = word(n, "".join(letters)), word(n, "".join(other))
        ma, mb = pa.to_matrix(), pb.to_matrix()
        assert np.allclose((pa * pb).to_matrix(), ma @ mb)
        commutator_zero = np.allclose(ma @ mb, mb @ ma)
        assert (terms(pa * pb) == terms(pb * pa)) == commutator_zero

    @given(words_1q, words_1q, words_1q)
    def test_associativity(self, a, b, c):
        pa, pb, pc = (word(1, l) for l in (a, b, c))
        assert terms((pa * pb) * pc) == terms(pa * (pb * pc))

    def test_square_is_identity_word(self):
        for letter in "XYZ":
            p = single(2, 1, letter)
            assert terms(p * p) == {(0, 0): 1.0}

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            single(1, 0, "X") * single(2, 0, "X")
        with pytest.raises(ValueError):
            single(1, 0, "X") + single(2, 0, "X")


class TestLogicalOperator:
    def test_from_word_and_dense(self):
        op = LogicalOperator(2, {(0b01, 0b10): 0.5})  # 0.5 * X0 Z1
        assert np.allclose(op.to_matrix(), 0.5 * kron_all("XZ"))

    def test_addition_merges_and_prunes(self):
        a = LogicalOperator(1, {(1, 0): 1.0})
        b = LogicalOperator(1, {(1, 0): -1.0})
        assert (a + b).num_terms == 0

    def test_product_matches_dense(self, rng):
        for _ in range(20):
            n = 2
            terms1 = {(int(rng.integers(4)), int(rng.integers(4))): complex(rng.normal(), rng.normal()) for _ in range(3)}
            terms2 = {(int(rng.integers(4)), int(rng.integers(4))): complex(rng.normal(), rng.normal()) for _ in range(3)}
            a, b = LogicalOperator(n, terms1), LogicalOperator(n, terms2)
            assert np.allclose((a * b).to_matrix(), a.to_matrix() @ b.to_matrix())

    def test_corrected_leaves_commuting_operator_alone(self):
        # Nothing has Z on qubit 0, so the correction neither builds nor moves a row.
        sums = {"a": {(0b01, 0b00): 1.0, (0b00, 0b10): 1.0}, "b": {(0b11, 0b10): 2j}}
        table = PauliTable.stack(2, {label: LogicalOperator(2, t) for label, t in sums.items()})
        rows, coeffs, owner = table.rows, table.coeffs, table.owner
        before = rows.copy(), coeffs.copy(), owner.copy()
        assert not table.correct(0, LogicalOperator(2, {(0b01, 0b10): 1.0}))
        assert table.rows is rows and table.coeffs is coeffs and table.owner is owner
        for got, want in zip((rows, coeffs, owner), before):
            assert np.array_equal(got, want)
        assert table.correct(1, LogicalOperator(2, {(0b01, 0b10): 1.0}))

    def test_one_word_correction_prunes_and_the_peak_stays(self):
        # 1e-7 times 1e-7 falls under the prune tolerance, so the row goes.
        table = PauliTable.stack(1, {0: LogicalOperator(1, {(0, 1): 1e-7})})
        assert table.correct(0, LogicalOperator(1, {(1, 0): 1e-7}))
        assert len(table.rows) == 0
        assert table.counts.tolist() == [0]
        assert table.peaks.tolist() == [1]

    def test_constructor_prunes_as_every_operation_does(self):
        # The constructor kept a coefficient at or below the tolerance, and
        # a table stacked from it counted that row until a correction hit it.
        op = LogicalOperator(1, {(0, 0): 1e-13, (1, 0): 1.0, (0, 1): PRUNE_TOLERANCE})
        assert op.num_terms == 1
        assert list(op.terms()) == [((1, 0), 1.0)]
        table = PauliTable.stack(1, {0: op})
        assert table.counts.tolist() == table.peaks.tolist() == [1]

    def test_word_matrix_identity(self):
        assert np.allclose(LogicalOperator(2, {(0, 0): 1}).to_matrix(), np.eye(4))

    def test_words_outside_the_register_are_rejected(self):
        # A stray bit on qubit 2 of a 2-qubit register made to_matrix fail
        # with IndexError, and in a stack it landed in the next label's
        # block: label b read 2 I instead of I.  A negative mask raised
        # OverflowError.
        for word in [(0b100, 0), (0, 0b100), (0, -1), (-2, 0)]:
            message = rf"^word \({word[0]}, {word[1]}\) has bits outside the 2-qubit register$"
            with pytest.raises(ValueError, match=message):
                LogicalOperator(2, {(0b01, 0): 1.0, word: 1.0})
        message = r"^word \(0, 1\) has bits outside the 0-qubit register$"
        with pytest.raises(ValueError, match=message):
            LogicalOperator(0, {(0, 1): 1.0})
        # The largest words of each register are kept, across word boundaries.
        for n in (2, 64, 70):
            top = (1 << n) - 1
            assert list(LogicalOperator(n, {(top, top): 1.0}).terms()) == [((top, top), 1.0)]
        stacked = PauliTable.stack(
            2, {"a": LogicalOperator(2, {(0b11, 0): 1.0}), "b": LogicalOperator(2, {(0, 0): 1.0})}
        )
        assert np.array_equal(stacked.to_matrices()[1], np.eye(4))


def random_terms(rng, bits, count):
    """``count`` random words over the qubits ``bits``, random coefficients."""
    def mask():
        return sum(1 << b for b in bits if rng.random() < 0.5)

    return {(mask(), mask()): complex(rng.normal(), rng.normal()) for _ in range(count)}


class TestAgainstDictReference:
    # Qubits on both sides of the 64-bit word boundaries of a 140-qubit register.
    BITS = (0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 139)

    def assert_same(self, op, terms):
        got = list(op.terms())
        assert [key for key, _ in got] == list(terms)
        assert all(abs(c - terms[key]) <= 1e-15 for key, c in got)

    def test_products_and_sums(self, rng):
        for _ in range(40):
            a = random_terms(rng, self.BITS, int(rng.integers(1, 9)))
            b = random_terms(rng, self.BITS, int(rng.integers(1, 9)))
            left, right = LogicalOperator(140, a), LogicalOperator(140, b)
            self.assert_same(left * right, prune(product_terms(a, b)))
            summed = dict(a)
            for key, c in b.items():
                summed[key] = summed.get(key, 0.0) + c
            self.assert_same(left + right, prune(summed))

    def test_corrected(self, rng):
        for _ in range(60):
            qubit = int(rng.choice(self.BITS))
            terms = random_terms(rng, self.BITS, int(rng.integers(1, 40)))
            correction = random_terms(rng, self.BITS, int(rng.integers(1, 5)))
            table = PauliTable.stack(140, {0: LogicalOperator(140, terms)})
            want = corrected_terms(terms, qubit, correction)
            hit = table.correct(qubit, LogicalOperator(140, correction))
            assert hit == (want is not None)
            self.assert_same(table.operators()[0], terms if want is None else want)

    def test_products_cancel_to_nothing(self):
        # X0 (1 + Z0) times (1 - Z0): the cross terms cancel exactly.
        a = LogicalOperator(70, {(1, 0): 1.0, (1, 1): 1.0})
        b = LogicalOperator(70, {(0, 0): 1.0, (0, 1): -1.0})
        assert (a * b).num_terms == 0


class TestPauliTable:
    # Two-word rows at n = 70; bits on both sides of the word boundary.
    @pytest.mark.parametrize(
        "n,bits",
        [(3, (0, 1, 2)), (70, (0, 1, 62, 63, 64, 65, 69))],
        ids=["one-word", "two-words"],
    )
    def test_operators_give_back_the_stacked_sums(self, rng, n, bits):
        sums = {
            ("Z", 2): random_terms(rng, bits, 5),
            "empty": {},
            ("X", 0): random_terms(rng, bits, 1),
            7: random_terms(rng, bits, 9),
        }
        table = PauliTable.stack(n, {label: LogicalOperator(n, t) for label, t in sums.items()})
        ops = table.operators()
        assert list(ops) == list(sums)
        assert ops["empty"].num_terms == 0
        for label, terms in sums.items():
            assert ops[label].n == n
            assert list(ops[label].terms()) == list(terms.items())

    def test_only_an_empty_table_takes_an_empty_register(self, rng):
        empty = PauliTable.stack(3, {("X", 0): LogicalOperator(3, {})}).project([])
        assert empty.n == 0 and len(empty.rows) == 0 and empty.counts.tolist() == [0]
        table = PauliTable.stack(3, {("X", 0): LogicalOperator(3, random_terms(rng, (0, 1, 2), 1))})
        with pytest.raises(ValueError, match="^only an empty table may take an empty register$"):
            table.project([])

    @pytest.mark.parametrize(
        "n,count", [(3, 3), (70, 3), (70, 70), (140, 3), (140, 70), (140, 100)]
    )
    def test_project_matches_the_dict_reference(self, rng, n, count):
        # Above 64 projected qubits the packed words cross a word boundary:
        # one kept qubit lands below bit 64 and one above it.
        seen = collections.Counter()
        for _ in range(80):
            qubits = [int(q) for q in rng.choice(n, size=count, replace=False)]
            places = rng.choice(count, size=2, replace=False).tolist()
            if count > 64:
                places = [int(rng.integers(0, 64)), int(rng.integers(64, count))]
            dropped = sorted(set(range(n)) - set(qubits))
            bits = [qubits[p] for p in places] + [
                int(q) for q in rng.choice(dropped, size=min(2, len(dropped)), replace=False)
            ]
            # Few qubits, so that projected words repeat and units cancel;
            # sometimes one word per sum, so that nothing can merge.
            single = rng.random() < 0.2
            sums = {
                label: prune(merging_terms(rng, bits, 1 if single else int(rng.integers(0, 10))))
                for label in range(int(rng.integers(1, 5)))
            }
            table = PauliTable.stack(n, {label: LogicalOperator(n, t) for label, t in sums.items()})
            want = project_terms(sums, qubits)
            got = table.project(qubits)
            assert got.n == count and got.labels == list(sums)
            ops = got.operators()
            for label, terms in want.items():
                rows = list(ops[label].terms())
                assert [key for key, _ in rows] == list(terms)
                assert all(abs(c - terms[key]) <= 1e-15 for key, c in rows)
            # Unit weights never cancel, so they count the distinct projected words.
            ones = {label: dict.fromkeys(terms, 1.0) for label, terms in sums.items()}
            words = project_terms(ones, qubits)
            seen["merged"] += sum(map(len, sums.values())) - sum(map(len, words.values()))
            seen["cancelled"] += sum(map(len, words.values())) - sum(map(len, want.values()))
            seen["crossed"] += any(x >> 64 or z >> 64 for t in want.values() for x, z in t)
        if n > count:
            assert seen["merged"] >= 80 and seen["cancelled"] >= 8
        if count > 64:
            assert seen["crossed"] >= 40


# -- The correction kernel that hashed every row on every call ---------------
#
# ``_SIGNS``, ``_row_hash``, ``_group``, ``ReferenceTable._set_rows`` and
# ``ReferenceTable.correct`` are kept verbatim from the version before tables
# carried their row hashes and one-word rounds were corrected in one step;
# ``ReferenceTable`` holds only the state those methods read and write.

#: Sign of a product, indexed by the parity of the anticommuting pairs.
_SIGNS = np.array([1.0, -1.0])


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


class ReferenceTable:
    """A copy of a :class:`PauliTable`'s state, corrected by the old kernel."""

    def __init__(self, table: PauliTable):
        self.words, self.labels, self.single = table.words, table.labels, table.single
        for name in ("rows", "coeffs", "owner", "counts", "peaks"):
            setattr(self, name, getattr(table, name).copy())

    def _set_rows(self, rows: np.ndarray, coeffs: np.ndarray, owner: np.ndarray) -> None:
        self.rows, self.coeffs, self.owner = rows, coeffs, owner
        self.counts = np.bincount(owner, minlength=len(self.labels))
        np.maximum(self.peaks, self.counts, out=self.peaks)
        self.single = bool(self.counts.max(initial=0) <= 1)

    def correct(
        self, qubit: int, correction: LogicalOperator, budget: int = DEFAULT_TERM_BUDGET
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
        size = len(rows) + (terms - 1) * len(hit)
        if size > budget:
            raise BudgetExceededError(f"{size} terms exceed --budget-terms {budget}")
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


def outcome(correct, *args):
    """What ``correct(*args)`` returned, or the type and message of what it raised."""
    try:
        return correct(*args)
    except BudgetExceededError as exc:
        return BudgetExceededError, str(exc)


def assert_same_state(table, reference):
    for name in ("rows", "coeffs", "owner", "counts", "peaks"):
        got, want = (getattr(t, name) for t in (table, reference))
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


def checked_correct(correct, raised):
    """``correct``, also run by the old kernel on a copy of the table; both must agree.

    After every call the two tables must hold the same rows,
    coefficients, owners, counts and peaks, byte for byte, and the two
    calls must return the same value or raise the same budget error,
    which is then raised again and counted in ``raised``.
    """

    def checked(self, qubit, correction, budget=DEFAULT_TERM_BUDGET):
        reference = ReferenceTable(self)
        want = outcome(reference.correct, qubit, correction, budget)
        got = outcome(correct, self, qubit, correction, budget)
        assert got == want
        assert_same_state(self, reference)
        if isinstance(got, tuple):
            raised.append(got[1])
            raise BudgetExceededError(got[1])
        return got

    return checked


def reference_correct_round(reference, qubits, corrections, budget):
    """The old kernel's :meth:`ReferenceTable.correct` for each qubit of a round in turn."""
    for qubit, correction in zip(qubits, corrections):
        reference.correct(qubit, correction, budget)


def checked_correct_round(correct_round, raised, rounds):
    """``correct_round``, also run vertex by vertex by the old kernel on a copy; both must agree.

    After every round the two tables must hold the same rows,
    coefficients, owners, counts and peaks, byte for byte, and both must
    raise the same budget error or none, which is then raised again and
    counted in ``raised``.  ``rounds`` counts the rounds of more than one
    qubit that found the table one-word, so that they took the round kernel.
    """

    def checked(self, qubits, corrections, budget=DEFAULT_TERM_BUDGET):
        if len(qubits) > 1 and self.single and all(c.num_terms == 1 for c in corrections):
            rounds.append(len(qubits))
        reference = ReferenceTable(self)
        want = outcome(reference_correct_round, reference, qubits, corrections, budget)
        got = outcome(correct_round, self, qubits, corrections, budget)
        assert got == want
        assert_same_state(self, reference)
        if isinstance(got, tuple):
            raised.append(got[1])
            raise BudgetExceededError(got[1])

    return checked


def merging_terms(rng, bits, count):
    """``count`` random words over the few qubits ``bits``, so that words repeat.

    Coefficients are units or 1e-7, so that sums cancel exactly and
    products of two small ones fall under the prune tolerance.
    """
    coeffs = (1.0, -1.0, 1j, -1j, 1e-7)

    def mask():
        return sum(1 << int(b) for b in bits if rng.random() < 0.5)

    return {(mask(), mask()): coeffs[rng.integers(len(coeffs))] for _ in range(count)}


class TestCorrectMatchesTheOldKernel:
    """Carried hashes change no table: every correction against the old kernel."""

    @pytest.fixture
    def checked(self, monkeypatch):
        raised, rounds = [], []
        monkeypatch.setattr(PauliTable, "correct", checked_correct(PauliTable.correct, raised))
        monkeypatch.setattr(
            PauliTable,
            "correct_round",
            checked_correct_round(PauliTable.correct_round, raised, rounds),
        )
        return raised, count_product_merges(monkeypatch), rounds

    @pytest.mark.parametrize("name,budget", [("sim-terms", 40), ("sim-clifford", 8)])
    def test_bench_pools_call_by_call(self, checked, name, budget):
        # Every correct call, and every round, against the old kernel.
        raised, merges, rounds = checked
        for seed in (1, 2, 3):
            for inst in bench_pool(name, seed):
                simulate_pattern(inst.graph, inst.gflow, inst.pattern)
        if name == "sim-terms":
            # Tables of up to 13,687 rows, most products merging nothing.
            assert merges[True] >= 30 and merges[False] >= 800
        else:
            # Every sim-clifford round replaces its rows in place, in one
            # kernel call: rounds of 3 to 6 qubits.
            assert not merges
            assert len(rounds) >= 300 and max(rounds) >= 6
        # A term budget stops some seed-1 simulations, at the same call.
        for inst in bench_pool(name, 1):
            with contextlib.suppress(BudgetExceededError):
                simulate_pattern(inst.graph, inst.gflow, inst.pattern, term_budget=budget)
        assert raised

    @pytest.mark.parametrize(
        "n,bits",
        [(3, (0, 1, 2)), (70, (0, 1, 62, 63, 64, 65, 69)), (140, TestAgainstDictReference.BITS)],
        ids=["one-word", "two-words", "three-words"],
    )
    def test_random_tables_built_to_merge(self, rng, checked, n, bits):
        raised, merges, _ = checked
        for _ in range(60):
            # Three qubits per table, so that products meet kept rows and each other.
            few = rng.choice(bits, size=3, replace=False)
            sums = {
                label: LogicalOperator(n, merging_terms(rng, few, int(rng.integers(0, 10))))
                for label in range(int(rng.integers(1, 5)))
            }
            table = PauliTable.stack(n, sums)
            for _ in range(6):
                correction = LogicalOperator(n, merging_terms(rng, few, int(rng.integers(1, 4))))
                budget = len(table.rows) + int(rng.integers(0, 40))
                with contextlib.suppress(BudgetExceededError):
                    table.correct(int(rng.choice(few)), correction, budget)
        assert merges[True] >= 50 and merges[False] >= 50 and len(raised) >= 20


def random_one_word_round(rng, n, bits, m):
    """``m`` qubits of ``bits`` and a one-word correction for each.

    A correction has X anywhere on ``bits``, Z on its own qubit most of the
    time and anywhere off the round, and a unit, small, large or generic
    coefficient, so that a product can fall under the prune tolerance and
    a later step of the round could lift it back above.
    """
    qubits = sorted(int(q) for q in rng.choice(bits, size=min(m, len(bits)), replace=False))
    others = [b for b in bits if b not in qubits]
    scales = (1.0, -1.0, 1j, -1j, 1e-7, 1e5)
    corrections = []
    for qubit in qubits:
        x = sum(1 << int(b) for b in bits if rng.random() < 0.5)
        z = sum(1 << int(b) for b in others if rng.random() < 0.5)
        z |= (1 << qubit) if rng.random() < 0.8 else 0
        coeff = complex(*rng.normal(size=2))
        if rng.random() < 0.6:
            coeff = scales[rng.integers(len(scales))]
        corrections.append(LogicalOperator(n, {(x, z): coeff}))
    return qubits, corrections


def round_hits(table, qubits, corrections):
    """Rows a round hits at several qubits, and hit pairs whose two sign conventions differ.

    The sign of a step reads the row's X against the correction's Z; read
    the other way round, Z against X, it differs on the counted pairs.
    """
    words = [next(c.terms())[0] for c in corrections]
    counts = collections.Counter()
    for op in table.operators().values():
        for (x, z), _ in op.terms():
            hits = [j for j, qubit in enumerate(qubits) if z >> qubit & 1]
            counts["several"] += len(hits) > 1
            counts["signs differ"] += sum(
                ((x & words[j][1]).bit_count() ^ (z & words[j][0]).bit_count()) & 1 for j in hits
            )
    return counts


class TestRoundKernel:
    """One-word rounds in one kernel call, against the old kernel vertex by vertex."""

    @pytest.mark.parametrize(
        "n,bits",
        [(3, (0, 1, 2)), (70, (0, 1, 62, 63, 64, 65, 69)), (140, TestAgainstDictReference.BITS)],
        ids=["one-word", "two-words", "three-words"],
    )
    def test_random_rounds_match_vertex_by_vertex(self, rng, n, bits):
        seen = collections.Counter()
        for _ in range(150):
            sums = {}
            for label in range(int(rng.integers(1, 7))):
                # At most one row per sum, so that the table is one-word.
                terms = merging_terms(rng, bits, 1) if rng.random() < 0.85 else {}
                if rng.random() < 0.4:
                    terms = {key: complex(*rng.normal(size=2)) for key in terms}
                sums[label] = LogicalOperator(n, terms)
            table = PauliTable.stack(n, sums)
            for _ in range(4):
                qubits, corrections = random_one_word_round(rng, n, bits, int(rng.integers(1, 6)))
                budget = DEFAULT_TERM_BUDGET
                if rng.random() < 0.2:
                    budget = len(table.rows) - int(rng.integers(1, 3))
                seen.update(round_hits(table, qubits, corrections))
                count = len(table.rows)
                reference = ReferenceTable(table)
                want = outcome(reference_correct_round, reference, qubits, corrections, budget)
                got = outcome(table.correct_round, qubits, corrections, budget)
                assert got == want
                assert_same_state(table, reference)
                seen["raised"] += isinstance(got, tuple)
                seen["pruned"] += len(table.rows) < count
        assert seen["several"] >= 100 and seen["signs differ"] >= 200
        assert seen["raised"] >= 30 and seen["pruned"] >= 5

    def test_a_correction_with_z_on_another_qubit_of_its_round_is_refused(self):
        # The row has Z on qubit 0 only.  Qubit 0's correction puts Z on
        # qubit 1, so qubit 1 would hit the row only after qubit 0's step,
        # and hits read once at the start of the round would miss it.
        table = PauliTable.stack(3, {"a": LogicalOperator(3, {(0b000, 0b001): 1.0})})
        rows, coeffs = table.rows.copy(), table.coeffs.copy()
        corrections = [
            LogicalOperator(3, {(0b100, 0b011): 1.0}),
            LogicalOperator(3, {(0b000, 0b010): 1.0}),
        ]
        message = "^a correction has Z on another qubit of its round$"
        with pytest.raises(ValueError, match=message):
            table.correct_round([0, 1], corrections)
        assert table.rows.tobytes() == rows.tobytes()
        assert table.coeffs.tobytes() == coeffs.tobytes()


def test_row_hash_is_xor_linear(rng):
    # Carried hashes rest on this: a product's hash is the XOR of its
    # factors' hashes, and a row padded with zero words hashes alike.
    for columns in (1, 2, 3, 7):
        a, b = (rng.integers(0, 2**63, size=(40, columns), dtype=np.uint64) for _ in range(2))
        assert np.array_equal(pauli._row_hash(a ^ b), pauli._row_hash(a) ^ pauli._row_hash(b))
        padded = np.concatenate((a, np.zeros((40, 2), dtype=np.uint64)), axis=1)
        assert np.array_equal(pauli._row_hash(padded), pauli._row_hash(a))
    # Each bit has its own nonzero key, so no two one-bit rows collide.
    bits = np.zeros((3 * 64, 3), dtype=np.uint64)
    for q in range(3 * 64):
        bits[q, q // 64] = np.uint64(1 << (q % 64))
    assert len(set(pauli._row_hash(bits).tolist()) - {0}) == 3 * 64


def reference_group(rows: np.ndarray) -> tuple[list[int], list[int]]:
    """Run of every row and first row of every run, from a dict in insertion order."""
    runs: dict[bytes, int] = {}
    run = [runs.setdefault(row.tobytes(), len(runs)) for row in rows]
    first = [run.index(r) for r in range(len(runs))]
    return run, first


@pytest.mark.parametrize("words", [1, 2, 3])
def test_group_matches_a_first_appearance_dict(rng, words):
    # Keyed rows: 2W words and an owner column.  Each row of the pool has
    # variants that differ from it only in the owner, or only above bit 63,
    # and the rows drawn from the pool repeat many times.
    columns = 2 * words + 1
    base = rng.integers(0, 2**64, size=(6, columns), dtype=np.uint64)
    base[:, -1] %= np.uint64(3)
    owned, high = base.copy(), base.copy()
    owned[:, -1] += np.uint64(1)
    high[:, 1:-1] ^= np.uint64(1 << 63)
    pool = np.concatenate((base, owned, high))
    for count in (0, 1, 2, 40, 400):
        rows = pool.take(rng.integers(0, len(pool), size=count), axis=0)
        run, first = pauli._group(rows)
        want_run, want_first = reference_group(rows)
        assert run.tolist() == want_run and first.tolist() == want_first
