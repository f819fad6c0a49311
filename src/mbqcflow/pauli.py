"""Complex-weighted sums of phase-free Pauli words.

A word ``X^x Z^z`` is the pair of qubit bitmasks ``(x, z)``: qubit q
carries X iff bit q of ``x`` is set, Z iff bit q of ``z`` is set, and
``X Z`` (that is, ``-i Y``) iff both.  Every phase lives in the complex
coefficient of a word, so equal words always merge with a plain
dictionary update.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator

import numpy as np

#: Coefficients no larger than this are dropped when pruning sums.
PRUNE_TOLERANCE = 1e-12

Terms = dict[tuple[int, int], complex]


def word_product(x1: int, z1: int, x2: int, z2: int) -> tuple[int, int, int]:
    """Multiply the phase-free words ``X^x1 Z^z1`` and ``X^x2 Z^z2``.

    Returns ``(x, z, sign)`` with sign in {1, -1} from commuting the left
    word's Z part past the right word's X part.
    """
    sign = -1 if (z1 & x2).bit_count() & 1 else 1
    return x1 ^ x2, z1 ^ z2, sign


def word_matrix(n: int, x: int, z: int) -> np.ndarray:
    """Dense matrix of the phase-free word ``X^x Z^z``."""
    dim = 1 << n
    cols = np.arange(dim)
    rows = cols ^ x
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows, cols] = signs
    return mat


def _product_terms(
    left: Iterable[tuple[tuple[int, int], complex]],
    right: Collection[tuple[tuple[int, int], complex]],
) -> Terms:
    """Merged terms of ``left * right``; ``right`` is walked once per left term."""
    out: Terms = {}
    for (x1, z1), c1 in left:
        for (x2, z2), c2 in right:
            x, z, sign = word_product(x1, z1, x2, z2)
            key = (x, z)
            out[key] = out.get(key, 0.0) + sign * c1 * c2
    return out


class LogicalOperator:
    """Complex-weighted sum of phase-free Pauli words on a fixed register.

    Terms are keyed by the word ``(x_bits, z_bits)``.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Terms | None = None):
        self.n = n
        self._terms: Terms = dict(terms or {})

    def terms(self) -> Iterator[tuple[tuple[int, int], complex]]:
        return iter(self._terms.items())

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def coefficient(self, x: int, z: int) -> complex:
        return self._terms.get((x, z), 0.0)

    def __add__(self, other: LogicalOperator) -> LogicalOperator:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, 0.0) + coeff
        return LogicalOperator(self.n, merged).prune()

    def __mul__(self, other: LogicalOperator) -> LogicalOperator:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        return LogicalOperator(
            self.n, _product_terms(self._terms.items(), other._terms.items())
        ).prune()

    def corrected(self, qubit: int, correction: LogicalOperator) -> LogicalOperator:
        """The terms with Z on ``qubit`` multiplied by ``correction``, in one pass.

        The terms that commute with X on ``qubit`` are kept, the product is
        merged into them and the sum is pruned.  This equals ``commuting +
        correction * anticommuting`` term for term.  An operator with no
        such term is returned as it is, and nothing is built for it.
        """
        bit = 1 << qubit
        if not any(z & bit for _, z in self._terms):
            return self
        merged: Terms = {}
        flipped = []
        for key, coeff in self._terms.items():
            if key[1] & bit:
                flipped.append((key, coeff))
            else:
                merged[key] = coeff
        for key, coeff in _product_terms(correction._terms.items(), flipped).items():
            # Pruned before the merge, as ``correction * anticommuting`` is.
            if abs(coeff) > PRUNE_TOLERANCE:
                merged[key] = merged.get(key, 0.0) + coeff
        return LogicalOperator(self.n, merged).prune()

    def prune(self) -> LogicalOperator:
        self._terms = {
            key: coeff
            for key, coeff in self._terms.items()
            if abs(coeff) > PRUNE_TOLERANCE
        }
        return self

    @property
    def support_mask(self) -> int:
        mask = 0
        for x, z in self._terms:
            mask |= x | z
        return mask

    def commutes_with_x(self, qubit: int) -> bool:
        """True when every term commutes with X on ``qubit``."""
        return all(not (z >> qubit) & 1 for _, z in self._terms)

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.n
        mat = np.zeros((dim, dim), dtype=complex)
        for (x, z), coeff in self._terms.items():
            mat += coeff * word_matrix(self.n, x, z)
        return mat

    def expectation(self, state: np.ndarray) -> complex:
        """``<state| self |state>`` without building the dense matrix."""
        if state.shape != (1 << self.n,):
            raise ValueError("state dimension does not match qubit count")
        idx = np.arange(1 << self.n)
        total = 0.0 + 0.0j
        for (x, z), coeff in self._terms.items():
            signs = 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)
            total += coeff * np.vdot(state, (signs * state)[idx ^ x])
        return total
