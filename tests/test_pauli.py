import collections
import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcflow import initialize_simulation, pauli, propagate_round, simulate_pattern
from mbqcflow.errors import DEFAULT_TERM_BUDGET, BudgetExceededError
from mbqcflow.pauli import PRUNE_TOLERANCE, LogicalOperator, PauliTable, Run, _product_rows
from mbqcflow.pauli import _correct_round

from conftest import (
    assert_rounds_match_reference,
    bench_pool,
    count_product_merges,
    pack_operators,
    packed,
)
from pauli_reference import (
    array_sum_product,
    corrected_terms,
    product_terms,
    project_terms,
    prune,
)
from pauli_reference import project as old_project
from simulate_reference import _correct_words

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
        table = pack_operators(2, {label: LogicalOperator(2, t) for label, t in sums.items()})
        rows, coeffs, owner = table.rows, table.coeffs, table.owner
        before = rows.copy(), coeffs.copy(), owner.copy()
        assert not table.correct(0, packed(LogicalOperator(2, {(0b01, 0b10): 1.0})))
        assert table.rows is rows and table.coeffs is coeffs and table.owner is owner
        for got, want in zip((rows, coeffs, owner), before):
            assert np.array_equal(got, want)
        assert table.correct(1, packed(LogicalOperator(2, {(0b01, 0b10): 1.0})))

    def test_one_word_correction_prunes_and_the_peak_stays(self):
        # 1e-7 times 1e-7 falls under the prune tolerance, so the row goes.
        table = pack_operators(1, {0: LogicalOperator(1, {(0, 1): 1e-7})})
        assert table.correct(0, packed(LogicalOperator(1, {(1, 0): 1e-7})))
        assert len(table.rows) == 0
        assert table.counts.tolist() == [0]
        assert table.peaks.tolist() == [1]

    def test_constructor_prunes_as_every_operation_does(self):
        # The constructor kept a coefficient at or below the tolerance, and
        # a table stacked from it counted that row until a correction hit it.
        op = LogicalOperator(1, {(0, 0): 1e-13, (1, 0): 1.0, (0, 1): PRUNE_TOLERANCE})
        assert op.num_terms == 1
        assert list(op.terms()) == [((1, 0), 1.0)]
        table = pack_operators(1, {0: op})
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
        stacked = pack_operators(
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
        assert list(op.terms()) == list(terms.items())

    def assert_close(self, op, terms):
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
            table = pack_operators(140, {0: LogicalOperator(140, terms)})
            want = corrected_terms(terms, qubit, correction)
            hit = table.correct(qubit, packed(LogicalOperator(140, correction)))
            assert hit == (want is not None)
            self.assert_close(table.operators()[0], terms if want is None else want)

    def test_products_cancel_to_nothing(self):
        # X0 (1 + Z0) times (1 - Z0): the cross terms cancel exactly.
        a = LogicalOperator(70, {(1, 0): 1.0, (1, 1): 1.0})
        b = LogicalOperator(70, {(0, 0): 1.0, (0, 1): -1.0})
        assert (a * b).num_terms == 0


class TestAgainstTheArrayProduct:
    """The product of Python-int terms against the array product it replaced."""

    def test_random_sums(self, rng):
        # Few qubits per pair, so that products merge; general complex
        # coefficients, whose products numpy may round differently.  The
        # words and their order are the same, and each coefficient is within
        # 1e-15 of the reference relative to its weight, the sum of the
        # moduli of the products that meet on its word: a few units in the
        # last place of a sum of at most 36 products.
        merged = 0
        for _ in range(1000):
            n = int(rng.integers(1, 141))
            size = min(n, int(rng.integers(1, 6)))
            bits = [int(q) for q in rng.choice(n, size=size, replace=False)]
            a, b = (random_terms(rng, bits, int(rng.integers(1, 7))) for _ in range(2))
            left, right = LogicalOperator(n, a), LogicalOperator(n, b)
            got = (left * right).words
            want = array_sum_product(left.words, right.words)
            assert [term[:2] for term in got] == [term[:2] for term in want]
            weight = collections.Counter()
            for (x1, z1), c1 in a.items():
                for (x2, z2), c2 in b.items():
                    weight[x1 ^ x2, z1 ^ z2] += abs(c1 * c2)
            assert all(abs(g[2] - w[2]) <= 1e-15 * weight[g[:2]] for g, w in zip(got, want))
            assert list((left * right).terms()) == list(prune(product_terms(a, b)).items())
            merged += len(got) < left.num_terms * right.num_terms
        assert merged >= 300

    def test_sim_terms_pools_are_byte_identical(self, monkeypatch):
        # Products, finalized tables, high water and unitaries of seeds 1-5,
        # with the correcting products folded by each product in turn.  All
        # 100 instances take the table path; the sim-clifford pools take the
        # word path and multiply no sums.
        import mbqcflow.simulate as simulate_mod

        def run(inst):
            state = initialize_simulation(inst.graph, inst.gflow, inst.pattern)
            products = repr({v: op.words for v, op in state.stabilizers.items()})
            table = simulate_mod.finalize_outputs(simulate_mod.propagate_all(state))
            arrays = (table.rows, table.coeffs, table.owner, table.peaks)
            unitary = None
            if len(inst.graph.inputs) == len(inst.graph.outputs):
                unitary = simulate_mod.extract_unitary(table).tobytes()
            return products, [a.tobytes() for a in arrays], state.high_water, unitary

        pools = [inst for seed in range(1, 6) for inst in bench_pool("sim-terms", seed)]
        got = [run(inst) for inst in pools]
        monkeypatch.setattr(simulate_mod, "_sum_product", array_sum_product)
        assert [run(inst) for inst in pools] == got
        assert all(initialize_simulation(i.graph, i.gflow, i.pattern).words is None for i in pools)


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
        table = pack_operators(n, {label: LogicalOperator(n, t) for label, t in sums.items()})
        ops = table.operators()
        assert list(ops) == list(sums)
        assert ops["empty"].num_terms == 0
        for label, terms in sums.items():
            assert ops[label].n == n
            assert list(ops[label].terms()) == list(terms.items())

    def test_only_an_empty_table_takes_an_empty_register(self, rng):
        empty = pack_operators(3, {("X", 0): LogicalOperator(3, {})}).project([])
        assert empty.n == 0 and len(empty.rows) == 0 and empty.counts.tolist() == [0]
        table = pack_operators(3, {("X", 0): LogicalOperator(3, random_terms(rng, (0, 1, 2), 1))})
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
            table = pack_operators(n, {label: LogicalOperator(n, t) for label, t in sums.items()})
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


class TestProjectMatchesTheOldProjection:
    """The narrow-key projection against the full-width one it replaced, byte for byte."""

    # (n, count, labels): keys of owner_bits + 2 count bits on both sides of
    # 8, 16, 32, 64 and 128 bits, and label counts of 2^j and 2^j + 1.
    CASES = [
        (3, 3, 1), (8, 2, 4), (8, 3, 4), (8, 3, 5), (12, 5, 2), (12, 5, 3), (12, 5, 8),
        (12, 5, 9), (12, 6, 16), (12, 6, 17), (40, 14, 16), (40, 14, 17), (70, 32, 1),
        (70, 31, 4), (70, 31, 5), (140, 64, 1), (140, 64, 2), (140, 100, 8),
    ]  # fmt: skip

    @pytest.mark.parametrize("n,count,labels", CASES)
    def test_random_tables(self, rng, monkeypatch, n, count, labels):
        # The keys come in the fewest lines of the narrowest dtype that holds them.
        key_bits = (labels - 1).bit_length() + 2 * count
        fewest = next(((w, 1) for w in (8, 16, 32, 64) if key_bits <= w), (64, -(-key_bits // 64)))
        keys, group = [], pauli._group

        def spied_group(lines):
            keys.append((8 * lines.itemsize, len(lines)))
            return group(lines)

        monkeypatch.setattr(pauli, "_group", spied_group)
        seen = collections.Counter()
        for _ in range(30):
            qubits = [int(q) for q in rng.choice(n, size=count, replace=False)]
            places = rng.choice(count, size=2, replace=False).tolist()
            if count > 64:
                places = [int(rng.integers(0, 64)), int(rng.integers(64, count))]
            dropped = sorted(set(range(n)) - set(qubits))
            bits = [qubits[p] for p in places] + [
                int(q) for q in rng.choice(dropped, size=min(2, len(dropped)), replace=False)
            ]
            # Sometimes one word per sum, where nothing is grouped.
            single = rng.random() < 0.2
            sizes = [1 if single else int(rng.integers(10)) for _ in range(labels)]
            sums = {
                label: LogicalOperator(n, merging_terms(rng, bits, size))
                for label, size in enumerate(sizes)
            }
            table = pack_operators(n, sums)
            if not single:
                # A correction leaves the owners out of order.
                correction = LogicalOperator(n, merging_terms(rng, bits, 2))
                table.correct(bits[0], packed(correction))
            keys.clear()
            got, want = table.project(qubits), old_project(table, qubits)
            assert (got.n, got.labels) == (want.n, want.labels)
            assert_same_state(got, want)
            assert keys == ([fewest] if table.counts.max(initial=0) > 1 else [])
            seen["single"] += table.counts.max(initial=0) <= 1
            seen["merged"] += len(want.rows) < len(table.rows)
        assert seen["single"] >= 2 and (seen["merged"] >= 10 or n == count)

    def test_the_empty_register(self, rng):
        # Only an empty table takes it; its rows hold the W = 1 words of a
        # packed empty table, where the old projection gave them no column.
        for labels in (1, 2, 3):
            table = pack_operators(3, {label: LogicalOperator(3) for label in range(labels)})
            got, want = table.project([]), old_project(table, [])
            assert (got.n, got.labels) == (0, want.labels)
            assert (got.rows.shape, want.rows.shape) == ((0, 2), (0, 0))
            for name in ("rows", "coeffs", "owner", "counts", "peaks"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            table = pack_operators(3, {0: LogicalOperator(3, random_terms(rng, (0, 1, 2), 1))})
            message = "^only an empty table may take an empty register$"
            for project in (PauliTable.project, old_project):
                with pytest.raises(ValueError, match=message):
                    project(table, [])


# -- The correction kernel that hashed every row on every call ---------------
#
# ``_row_hash``, ``_group``, ``ReferenceTable._set_rows`` and
# ``ReferenceTable.correct`` are kept verbatim from the version before tables
# carried their row hashes, less the in-place branch of ``correct`` for a
# one-word correction of a table with one row per sum, which
# ``PauliTable.correct`` no longer has; ``ReferenceTable`` holds only the
# state those methods read and write.


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
        self.words, self.labels = table.words, table.labels
        for name in ("rows", "coeffs", "owner", "counts", "peaks"):
            setattr(self, name, getattr(table, name).copy())

    def _set_rows(self, rows: np.ndarray, coeffs: np.ndarray, owner: np.ndarray) -> None:
        self.rows, self.coeffs, self.owner = rows, coeffs, owner
        self.counts = np.bincount(owner, minlength=len(self.labels))
        np.maximum(self.peaks, self.counts, out=self.peaks)

    def correct(
        self, qubit: int, factor: tuple[np.ndarray, np.ndarray], budget: int = DEFAULT_TERM_BUDGET
    ) -> bool:
        """Multiply the rows with Z on ``qubit`` by ``factor``, merge and prune.

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
        factor_rows, factor_coeffs = factor
        terms = len(factor_coeffs)
        size = len(rows) + (terms - 1) * len(hit)
        if size > budget:
            raise BudgetExceededError(f"{size} terms exceed --budget-terms {budget}")
        new_rows, new_coeffs = _product_rows(
            factor_rows, factor_coeffs, rows[hit], coeffs[hit]
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

    The factor must be a run whose hashes are its rows' hashes; the old
    kernel takes its rows and coefficients.  After every call the two
    tables must hold the same rows, coefficients, owners, counts and
    peaks, byte for byte, and the two calls must return the same value or
    raise the same budget error, which is then raised again and counted
    in ``raised``.
    """

    def checked(self, qubit, factor, budget=DEFAULT_TERM_BUDGET):
        assert isinstance(factor, Run)
        assert np.array_equal(factor.hashes, pauli._row_hash(factor.rows))
        reference = ReferenceTable(self)
        want = outcome(reference.correct, qubit, factor[:2], budget)
        got = outcome(correct, self, qubit, factor, budget)
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
        reference.correct(qubit, packed(correction)[:2], budget)


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
        raised = []
        monkeypatch.setattr(PauliTable, "correct", checked_correct(PauliTable.correct, raised))
        return raised, count_product_merges(monkeypatch)

    @pytest.mark.parametrize("name,budget", [("sim-terms", 40)])
    def test_bench_pools_call_by_call(self, checked, name, budget):
        # Every correct call against the old kernel.
        raised, merges = checked
        for seed in (1, 2, 3):
            for inst in bench_pool(name, seed):
                simulate_pattern(inst.graph, inst.gflow, inst.pattern)
        # Tables of up to 13,687 rows, most products merging nothing.
        assert merges[True] >= 30 and merges[False] >= 800
        # A term budget stops some seed-1 simulations, at the same call.
        for inst in bench_pool(name, 1):
            with contextlib.suppress(BudgetExceededError):
                simulate_pattern(inst.graph, inst.gflow, inst.pattern, term_budget=budget)
        assert raised

    def test_clifford_pools_take_the_word_path(self):
        # Every sim-clifford instance keeps one word per logical: each round
        # matches the dict reference, and a term budget of 8 stops the same
        # instances at the same round, with the same message, as the old
        # kernel does vertex by vertex.
        stopped = collections.Counter()
        for seed in (1, 2, 3):
            for inst in bench_pool("sim-clifford", seed):
                graph, gflow, pattern = inst.graph, inst.gflow, inst.pattern
                assert_rounds_match_reference(graph, gflow, pattern)
                state = initialize_simulation(graph, gflow, pattern, term_budget=8)
                assert state.words is not None
                reference, stabilizers = ReferenceTable(state.logicals), state.stabilizers
                for r, layer in enumerate(state.rounds):
                    vertices = sorted(layer)
                    corrections = [stabilizers[mu] for mu in vertices]
                    want = outcome(reference_correct_round, reference, vertices, corrections, 8)
                    got = outcome(propagate_round, state)
                    if want is not None:
                        assert got == want
                        stopped[r] += 1
                        break
                    assert got is state
        # The budget stops the 24 of the 54 instances that have more than 4
        # inputs, at their first round, which hits an input's Z logical.
        assert stopped == {0: 24}

    @pytest.mark.parametrize(
        "n,bits",
        [(3, (0, 1, 2)), (70, (0, 1, 62, 63, 64, 65, 69)), (140, TestAgainstDictReference.BITS)],
        ids=["one-word", "two-words", "three-words"],
    )
    def test_random_tables_built_to_merge(self, rng, checked, n, bits):
        raised, merges = checked
        for _ in range(60):
            # Three qubits per table, so that products meet kept rows and each other.
            few = rng.choice(bits, size=3, replace=False)
            sums = {
                label: LogicalOperator(n, merging_terms(rng, few, int(rng.integers(0, 10))))
                for label in range(int(rng.integers(1, 5)))
            }
            table = pack_operators(n, sums)
            for _ in range(6):
                correction = LogicalOperator(n, merging_terms(rng, few, int(rng.integers(1, 4))))
                budget = len(table.rows) + int(rng.integers(0, 40))
                with contextlib.suppress(BudgetExceededError):
                    table.correct(int(rng.choice(few)), packed(correction), budget)
        assert merges[True] >= 50 and merges[False] >= 50 and len(raised) >= 20


#: The coefficient i^p of a word (x, z, p), indexed by p.
UNITS = (1.0, 1j, -1.0, -1j)


def word_table(n, words):
    """The word path's one-word sums ``(x, z, p)`` as a table, one row each, in label order."""
    return PauliTable.pack(n, {label: ((x, z, UNITS[p]),) for label, (x, z, p) in words.items()})


def random_word_round(rng, bits, m):
    """``m`` qubits of ``bits`` and a word ``(x, z, p)`` correcting each.

    A correction has X anywhere on ``bits``, Z on its own qubit most of the
    time and anywhere on ``bits`` outside the round, and any unit
    coefficient: as the g2 rule of a gFlow has it, no correction has Z on
    another qubit of its round.
    """
    qubits = sorted(int(q) for q in rng.choice(bits, size=min(m, len(bits)), replace=False))
    corrections = []
    for qubit in qubits:
        x = sum(1 << int(b) for b in bits if rng.random() < 0.5)
        z = sum(1 << int(b) for b in bits if b not in qubits and rng.random() < 0.5)
        z |= (1 << qubit) if rng.random() < 0.8 else 0
        corrections.append((x, z, int(rng.integers(4))))
    return qubits, corrections


def round_hits(words, qubits, corrections):
    """Words a round hits at several qubits, and hit pairs whose two sign conventions differ.

    The sign of a step reads the correction's Z against the word's X; read
    the other way round, X against Z, it differs on the counted pairs.
    Both count the words as the round finds them.
    """
    counts = collections.Counter()
    for x, z, _ in words.values():
        hits = [j for j, qubit in enumerate(qubits) if z >> qubit & 1]
        counts["several"] += len(hits) > 1
        counts["signs differ"] += sum(
            ((x & corrections[j][1]).bit_count() ^ (z & corrections[j][0]).bit_count()) & 1
            for j in hits
        )
    return counts


class TestWordCorrection:
    """The word path's round pass against the old kernels, a whole round at a time."""

    @pytest.mark.parametrize(
        "n,bits",
        [(3, (0, 1, 2)), (70, (0, 1, 62, 63, 64, 65, 69)), (140, TestAgainstDictReference.BITS)],
        ids=["one-word", "two-words", "three-words"],
    )
    def test_random_rounds_match_vertex_by_vertex(self, rng, n, bits):
        # The old word kernel and the old table kernel take the round's
        # qubits one at a time; the pass takes them all at once.
        def vertex_by_vertex(words, qubits, corrections, budget):
            for qubit, correction in zip(qubits, corrections):
                _correct_words(words, qubit, correction, budget)

        seen = collections.Counter()
        for _ in range(150):
            words = {}
            for label in range(int(rng.integers(1, 7))):
                ((x, z),) = merging_terms(rng, bits, 1)
                words[label] = (x, z, int(rng.integers(4)))
            old_words, reference = dict(words), ReferenceTable(word_table(n, words))
            for _ in range(4):
                qubits, corrections = random_word_round(rng, bits, int(rng.integers(1, 6)))
                budget = DEFAULT_TERM_BUDGET
                if rng.random() < 0.2:
                    budget = len(words) - int(rng.integers(1, 3))
                seen.update(round_hits(words, qubits, corrections))
                seen["qubits", len(qubits)] += 1
                operators = [LogicalOperator(n, {(x, z): UNITS[p]}) for x, z, p in corrections]
                before = dict(words)
                want = outcome(reference_correct_round, reference, qubits, operators, budget)
                old = outcome(vertex_by_vertex, old_words, qubits, corrections, budget)
                mask, products = sum(1 << q for q in qubits), dict(zip(qubits, corrections))
                got = outcome(_correct_round, words, mask, products, budget)
                assert got == old == want
                assert words == old_words
                if isinstance(got, tuple):
                    assert words == before
                    seen["raised"] += 1
                    break
                arrays = (reference.rows, reference.coeffs, reference.owner)
                want_ops = PauliTable(n, reference.labels, *arrays).operators()
                for label, op in word_table(n, words).operators().items():
                    assert dict(op.terms()) == dict(want_ops[label].terms())
        assert seen["several"] >= 100 and seen["signs differ"] >= 200 and seen["raised"] >= 30
        assert all(seen["qubits", m] for m in range(1, min(5, len(bits)) + 1))


def test_row_hash_is_xor_linear(rng):
    # Carried hashes rest on this: a product's hash is the XOR of its
    # factors' hashes, and a row padded with zero words hashes alike.
    for columns in (1, 2, 3, 7):
        a, b = (rng.integers(0, 2**63, size=(40, columns), dtype=np.uint64) for _ in range(2))
        assert np.array_equal(pauli._row_hash(a ^ b), pauli._row_hash(a) ^ pauli._row_hash(b))
        padded = np.concatenate((a, np.zeros((40, 2), dtype=np.uint64)), axis=1)
        assert np.array_equal(pauli._row_hash(padded), pauli._row_hash(a))
    # Each bit has its own nonzero key, so no two one-bit rows collide.  By
    # linearity, rows that differ in a set of bits hash alike exactly when
    # the XOR of those bits' hashes is 0; for sets of two to four bits, no
    # XOR of two bit hashes is 0, equals a third bit's hash, or equals the
    # XOR of another two.
    bits = np.zeros((7 * 64, 7), dtype=np.uint64)
    for q in range(7 * 64):
        bits[q, q // 64] = np.uint64(1 << (q % 64))
    single = pauli._row_hash(bits)
    assert len(set(single.tolist()) - {0}) == 7 * 64
    first, second = np.triu_indices(len(single), 1)
    pairs = np.sort(single[first] ^ single[second])
    assert pairs[0] != 0 and not np.isin(pairs, single).any()
    assert not (pairs[1:] == pairs[:-1]).any()


def test_a_simulation_hashes_its_products_once(monkeypatch):
    # The correcting products are hashed once, when the state is set up, and
    # the logicals on their first correction that multiplies; every other
    # correction XORs the hashes it carries, however many multiply.
    calls, row_hash = [], pauli._row_hash
    multiplied, correct = [], PauliTable.correct

    def spied_row_hash(rows):
        calls.append(len(rows))
        return row_hash(rows)

    def spied_correct(self, *args):
        hit = correct(self, *args)
        multiplied.append(hit)
        return hit

    monkeypatch.setattr(pauli, "_row_hash", spied_row_hash)
    monkeypatch.setattr(PauliTable, "correct", spied_correct)
    per_simulation = collections.Counter()
    for inst in bench_pool("sim-terms", 1):
        calls.clear()
        multiplied.clear()
        simulate_pattern(inst.graph, inst.gflow, inst.pattern)
        assert len(calls) == 1 + any(multiplied)
        per_simulation[len(calls)] += 1
        per_simulation["multiplied"] += sum(multiplied)
    # 20 simulations make about 15 corrections that multiply each.
    assert per_simulation[2] == 20 and per_simulation["multiplied"] >= 200


@pytest.mark.parametrize("seed", [1, 2])
def test_product_runs_carry_their_rows_hashes(seed):
    for inst in bench_pool("sim-terms", seed):
        state = initialize_simulation(inst.graph, inst.gflow, inst.pattern)
        assert list(state._runs) == sorted(inst.gflow.corrections)
        for vertex, run in state._runs.items():
            want = PauliTable.pack(inst.graph.n, {vertex: state.stabilizers[vertex].words})
            assert np.array_equal(run.rows, want.rows) and np.array_equal(run.coeffs, want.coeffs)
            assert np.array_equal(run.hashes, pauli._row_hash(run.rows))


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
        run, first = pauli._group(rows.T)
        want_run, want_first = reference_group(rows)
        assert run.tolist() == want_run and first.tolist() == want_first
