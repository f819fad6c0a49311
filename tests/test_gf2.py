import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mbqcflow.gf2 import gf2_basis, gf2_express, gf2_rank, gf2_solve_min


def numpy_rank_mod2(rows, cols):
    if not rows:
        return 0
    mat = np.array(
        [[(r >> c) & 1 for c in range(cols)] for r in rows], dtype=np.int64
    )
    # Row echelon over GF(2) by hand as independent reference.
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if mat[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        for r in range(len(rows)):
            if r != rank and mat[r, col]:
                mat[r] = (mat[r] + mat[rank]) % 2
        rank += 1
    return rank


def test_rank_simple_cases():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b101, 0b101]) == 1
    assert gf2_rank([0b101, 0b011, 0b110]) == 2  # third row is the xor
    assert gf2_rank([0b001, 0b010, 0b100]) == 3


def rank_by_sorted_basis(rows):
    """The elimination loop ``gf2_rank`` ran before it counted ``gf2_basis``."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def test_rank_matches_the_sorted_basis_loop_on_seeded_matrices():
    rng = np.random.default_rng(14)
    for density in (0.05, 0.2, 0.5):
        for _ in range(300):
            bits = rng.random((12, 20)) < density
            rows = [int(sum(1 << c for c in np.flatnonzero(row))) for row in bits]
            rows.append(rows[0] ^ rows[1])  # one row that is always dependent
            assert gf2_rank(rows) == rank_by_sorted_basis(rows)


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=12)
)
def test_rank_matches_reference(rows):
    assert gf2_rank(rows) == numpy_rank_mod2(rows, 10)


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), max_size=10)
)
def test_rank_idempotent_under_self_append(rows):
    # Appending rows already in the span never changes the rank.
    r = gf2_rank(rows)
    assert gf2_rank(rows + rows) == r


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 6) - 1), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=(1 << 6) - 1),
)
def test_solve_solution_satisfies_system(rows, x_true):
    rhs = [(r & x_true).bit_count() & 1 for r in rows]
    sol = gf2_solve_min(rows, rhs)
    assert sol is not None
    for r, b in zip(rows, rhs):
        assert (r & sol).bit_count() & 1 == b


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 5) - 1), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=(1 << 5) - 1),
)
def test_solve_returns_minimum_mask(rows, x_true):
    rhs = [(r & x_true).bit_count() & 1 for r in rows]
    sol = gf2_solve_min(rows, rhs)
    brute = min(
        x
        for x in range(1 << 5)
        if all((r & x).bit_count() & 1 == b for r, b in zip(rows, rhs))
    )
    assert sol == brute


def test_solve_detects_inconsistency():
    # x0 = 0 and x0 = 1 simultaneously.
    assert gf2_solve_min([0b1, 0b1], [0, 1]) is None


@st.composite
def column_lists(draw):
    """Up to 8 six-bit columns, mixing fresh, zero, repeated and dependent ones."""
    columns = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "sum"]))
        if kind == "zero":
            columns.append(0)
        elif kind == "fresh" or not columns:
            columns.append(draw(st.integers(min_value=0, max_value=(1 << 6) - 1)))
        elif kind == "repeat":
            columns.append(draw(st.sampled_from(columns)))
        else:
            columns.append(draw(st.sampled_from(columns)) ^ draw(st.sampled_from(columns)))
    return columns


@given(column_lists())
def test_express_returns_minimal_mask_or_none(columns):
    smallest: dict[int, int] = {}
    for mask in range(1 << len(columns)):
        total = 0
        for c, col in enumerate(columns):
            if (mask >> c) & 1:
                total ^= col
        smallest.setdefault(total, mask)
    basis = gf2_basis(columns)
    for target in range(1 << 6):
        assert gf2_express(basis, target) == smallest.get(target)


def test_express_skips_zero_repeated_and_dependent_columns():
    # Columns 0 (zero), 2 (repeat of 1) and 4 (sum of 1 and 3) add no entry.
    basis = gf2_basis([0b00, 0b11, 0b11, 0b01, 0b10])
    assert len(basis) == 2
    # 0b10 is column 4 alone (mask 16) or columns 1 and 3 (mask 10).
    assert gf2_express(basis, 0b10) == 0b01010
    assert gf2_express(basis, 0b100) is None
    assert gf2_express(basis, 0) == 0
