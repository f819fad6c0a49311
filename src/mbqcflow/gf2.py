"""GF(2) linear algebra on bit-packed vectors.

Vectors are Python ints used as bitsets.  ``gf2_basis`` is the one
elimination kernel: it eliminates them once into an echelon basis,
``gf2_rank`` counts that basis, and ``gf2_express`` answers each
right-hand side against it in O(rank).  gFlow peeling builds one
such basis per pass from its live correctors' columns and asks it only
at its pivots, the one kind of vertex it can express alone.
"""

from __future__ import annotations

#: Echelon basis: top bit -> (vector, mask of the columns XORed into it).
Gf2Basis = dict[int, tuple[int, int]]


def gf2_rank(rows: list[int]) -> int:
    """Rank of a bit-packed matrix: the size of the echelon basis of its rows."""
    return len(gf2_basis(rows))


def gf2_basis(columns: list[int]) -> Gf2Basis:
    """Echelon basis of ``span(columns)`` that records how it was built.

    Columns are inserted in order.  A column that reduces to zero is
    spanned by earlier ones and adds no entry, so the masks name only the
    columns that are independent of the ones before them.
    """
    basis: Gf2Basis = {}
    for c, vec in enumerate(columns):
        mask = 1 << c
        while vec:
            top = vec.bit_length() - 1
            entry = basis.get(top)
            if entry is None:
                basis[top] = (vec, mask)
                break
            vec ^= entry[0]
            mask ^= entry[1]
    return basis


def gf2_express(basis: Gf2Basis, target: int) -> int | None:
    """Smallest column mask whose columns XOR to ``target``, or None.

    The mask that reduction returns is the smallest solution: a solution
    using a column spanned by earlier columns can swap it for them, which
    clears its bit and changes only lower bits.  So the smallest solution
    uses only the basis columns, and in those it is unique.
    """
    mask = 0
    while target:
        entry = basis.get(target.bit_length() - 1)
        if entry is None:
            return None
        target ^= entry[0]
        mask ^= entry[1]
    return mask


def gf2_solve_min(rows: list[int], rhs: list[int]) -> int | None:
    """Solve ``A x = b`` over GF(2); return the minimal solution mask.

    ``rows[i]`` is the i-th equation's coefficient mask and ``rhs[i]`` its
    right-hand bit.  Among all solutions the one with the smallest integer
    value is returned, or None if the system is inconsistent.
    """
    if len(rows) != len(rhs):
        raise ValueError("coefficient and right-hand sides differ in length")
    n_cols = max((r.bit_length() for r in rows), default=0)
    columns = [
        sum(1 << i for i, r in enumerate(rows) if (r >> c) & 1) for c in range(n_cols)
    ]
    target = sum(1 << i for i, b in enumerate(rhs) if b)
    return gf2_express(gf2_basis(columns), target)
