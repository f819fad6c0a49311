"""GF(2) linear algebra on bit-packed rows.

Rows are Python ints used as bitsets: bit ``c`` of a row is the entry in
column ``c``.  This is the carrier for adjacency submatrices and for the
linear systems solved during gflow finding.
"""

from __future__ import annotations


def gf2_rank(rows: list[int]) -> int:
    """Rank of a bit-packed matrix via Gaussian elimination."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def gf2_solve_min(rows: list[int], rhs: list[int]) -> int | None:
    """Solve ``A x = b`` over GF(2); return the minimal solution mask.

    ``rows[i]`` is the i-th equation's coefficient mask and ``rhs[i]`` its
    right-hand bit.  Among all solutions the one with the smallest integer
    value is returned (ties in the affine solution space are broken by
    greedily clearing high bits), or None if the system is inconsistent.
    """
    if len(rows) != len(rhs):
        raise ValueError("coefficient and right-hand sides differ in length")
    n_cols = max((r.bit_length() for r in rows), default=0)
    # Eliminate on augmented rows; the rhs bit is carried just above the columns.
    aug = [r | (b << n_cols) for r, b in zip(rows, rhs)]
    pivots: dict[int, int] = {}  # column -> reduced row owning that pivot
    for row in aug:
        for col, prow in pivots.items():
            if (row >> col) & 1:
                row ^= prow
        if not row:
            continue
        col = _lowest_bit(row)
        if col == n_cols:
            return None  # reduced to 0 = 1
        # Back-reduce so every pivot row touches only its own pivot column.
        for pcol in pivots:
            if (pivots[pcol] >> col) & 1:
                pivots[pcol] ^= row
        pivots[col] = row
    # Particular solution: free variables zero, pivot variables from rhs bits.
    solution = 0
    for col, prow in pivots.items():
        if (prow >> n_cols) & 1:
            solution |= 1 << col
    # Nullspace basis: one vector per free column.
    pivot_cols = set(pivots)
    null_basis = []
    for col in range(n_cols):
        if col in pivot_cols:
            continue
        vec = 1 << col
        for pcol, prow in pivots.items():
            if (prow >> col) & 1:
                vec |= 1 << pcol
        null_basis.append(vec)
    return _minimize_mask(solution, null_basis)


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def _minimize_mask(x: int, basis: list[int]) -> int:
    """Smallest integer in the coset ``x + span(basis)``."""
    reduced: list[int] = []
    for vec in basis:
        for r in reduced:
            vec = min(vec, vec ^ r)
        if vec:
            reduced.append(vec)
            reduced.sort(reverse=True)
    for vec in reduced:
        x = min(x, x ^ vec)
    return x

