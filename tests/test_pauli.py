import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcflow.pauli import LogicalOperator, PauliTable, word_matrix

from pauli_reference import corrected_terms, product_terms, prune

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
        op = LogicalOperator(2, {(0b01, 0b00): 1.0, (0b00, 0b10): 1.0})
        correction = LogicalOperator(2, {(0b01, 0b10): 1.0})
        assert op.corrected(0, correction) is op
        assert op.corrected(1, correction) is not op

    def test_expectation_matches_dense(self, rng):
        n = 3
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        terms = {
            (int(rng.integers(8)), int(rng.integers(8))): complex(rng.normal(), rng.normal())
            for _ in range(4)
        }
        op = LogicalOperator(n, terms)
        dense = np.vdot(state, op.to_matrix() @ state)
        assert abs(op.expectation(state) - dense) < 1e-12

    def test_commutes_with_x(self):
        op = LogicalOperator(2, {(0b01, 0b00): 1.0, (0b00, 0b10): 1.0})
        assert op.commutes_with_x(0)
        assert not op.commutes_with_x(1)

    def test_word_matrix_identity(self):
        assert np.allclose(word_matrix(2, 0, 0), np.eye(4))


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
            op = LogicalOperator(140, terms)
            want = corrected_terms(terms, qubit, correction)
            got = op.corrected(qubit, LogicalOperator(140, correction))
            if want is None:
                assert got is op
            else:
                self.assert_same(got, want)

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
