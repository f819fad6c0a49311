"""Phased Pauli words and complex-weighted sums of them.

A word is stored in symplectic form ``i^k * X^x Z^z`` where ``x`` and
``z`` are qubit bitmasks (qubit q carries X iff bit q of ``x`` is set, Z
iff bit q of ``z`` is set, Y iff both) and ``k`` counts quarter turns of
phase.  Sums of words keep the phase folded into the complex coefficient
of the phase-free word ``X^x Z^z``, which makes merging terms a plain
dictionary update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Coefficients smaller than this are dropped when pruning sums.
PRUNE_TOLERANCE = 1e-12

_PHASES = (1, 1j, -1, -1j)
_PHASE_LABEL = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


def word_product(x1: int, z1: int, x2: int, z2: int) -> tuple[int, int, int]:
    """Multiply the phase-free words ``X^x1 Z^z1`` and ``X^x2 Z^z2``.

    Returns ``(x, z, sign)`` with sign in {1, -1} from commuting the left
    word's Z part past the right word's X part.
    """
    sign = -1 if (z1 & x2).bit_count() & 1 else 1
    return x1 ^ x2, z1 ^ z2, sign


def words_commute(x1: int, z1: int, x2: int, z2: int) -> bool:
    """Symplectic inner product test."""
    return ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 0


@dataclass(frozen=True)
class PauliProduct:
    """Phased n-qubit Pauli word ``i^phase_power * X^x_bits Z^z_bits``."""

    n: int
    x_bits: int
    z_bits: int
    phase_power: int = 0

    def __post_init__(self) -> None:
        if self.x_bits >> self.n or self.z_bits >> self.n:
            raise ValueError("Pauli word has support outside the qubit range")
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    @classmethod
    def identity(cls, n: int) -> PauliProduct:
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, axis: str) -> PauliProduct:
        """One-qubit X, Y or Z embedded in an n-qubit word (Y = i X Z)."""
        bit = 1 << qubit
        if axis == "X":
            return cls(n, bit, 0, 0)
        if axis == "Z":
            return cls(n, 0, bit, 0)
        if axis == "Y":
            return cls(n, bit, bit, 1)
        raise ValueError(f"unknown axis {axis!r}")

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_power]

    def __mul__(self, other: PauliProduct) -> PauliProduct:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        x, z, sign = word_product(self.x_bits, self.z_bits, other.x_bits, other.z_bits)
        k = self.phase_power + other.phase_power + (0 if sign == 1 else 2)
        return PauliProduct(self.n, x, z, k)

    def commutes_with(self, other: PauliProduct) -> bool:
        return words_commute(self.x_bits, self.z_bits, other.x_bits, other.z_bits)

    def adjoint(self) -> PauliProduct:
        sign = -1 if (self.x_bits & self.z_bits).bit_count() & 1 else 1
        k = -self.phase_power + (0 if sign == 1 else 2)
        return PauliProduct(self.n, self.x_bits, self.z_bits, k)

    @property
    def support(self) -> int:
        return self.x_bits | self.z_bits

    def to_matrix(self) -> np.ndarray:
        return self.phase * word_matrix(self.n, self.x_bits, self.z_bits)

    def __str__(self) -> str:
        y_count = (self.x_bits & self.z_bits).bit_count()
        display_phase = (self.phase_power - y_count) % 4
        letters = "".join(
            _LETTERS[((self.x_bits >> q) & 1, (self.z_bits >> q) & 1)]
            for q in range(self.n)
        )
        return f"{_PHASE_LABEL[display_phase]}{letters}"


def word_matrix(n: int, x: int, z: int) -> np.ndarray:
    """Dense matrix of the phase-free word ``X^x Z^z``."""
    dim = 1 << n
    cols = np.arange(dim)
    rows = cols ^ x
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows, cols] = signs
    return mat


class LogicalOperator:
    """Complex-weighted sum of Pauli words on a fixed qubit register.

    Terms are keyed by the phase-free word ``(x_bits, z_bits)``; phases are
    folded into the coefficients, so equal words always merge.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        self.n = n
        self._terms: dict[tuple[int, int], complex] = dict(terms or {})

    @classmethod
    def zero(cls, n: int) -> LogicalOperator:
        return cls(n)

    @classmethod
    def from_word(cls, word: PauliProduct, coeff: complex = 1.0) -> LogicalOperator:
        return cls(word.n, {(word.x_bits, word.z_bits): coeff * word.phase})

    def terms(self) -> Iterator[tuple[tuple[int, int], complex]]:
        return iter(self._terms.items())

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def coefficient(self, x: int, z: int) -> complex:
        return self._terms.get((x, z), 0.0)

    def copy(self) -> LogicalOperator:
        return LogicalOperator(self.n, self._terms)

    def __add__(self, other: LogicalOperator) -> LogicalOperator:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, 0.0) + coeff
        return LogicalOperator(self.n, merged).prune()

    def scale(self, factor: complex) -> LogicalOperator:
        return LogicalOperator(
            self.n, {key: factor * coeff for key, coeff in self._terms.items()}
        )

    def left_multiply_word(self, word: PauliProduct, coeff: complex = 1.0) -> LogicalOperator:
        """``word * self`` with the word's phase folded in."""
        out: dict[tuple[int, int], complex] = {}
        wc = coeff * word.phase
        for (x, z), c in self._terms.items():
            nx, nz, sign = word_product(word.x_bits, word.z_bits, x, z)
            key = (nx, nz)
            out[key] = out.get(key, 0.0) + wc * sign * c
        return LogicalOperator(self.n, out).prune()

    def __mul__(self, other: LogicalOperator) -> LogicalOperator:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        out: dict[tuple[int, int], complex] = {}
        for (x1, z1), c1 in self._terms.items():
            for (x2, z2), c2 in other._terms.items():
                x, z, sign = word_product(x1, z1, x2, z2)
                key = (x, z)
                out[key] = out.get(key, 0.0) + sign * c1 * c2
        return LogicalOperator(self.n, out).prune()

    def adjoint(self) -> LogicalOperator:
        out = {}
        for (x, z), c in self._terms.items():
            sign = -1 if (x & z).bit_count() & 1 else 1
            out[(x, z)] = sign * c.conjugate()
        return LogicalOperator(self.n, out)

    def prune(self, tolerance: float = PRUNE_TOLERANCE) -> LogicalOperator:
        self._terms = {
            key: coeff for key, coeff in self._terms.items() if abs(coeff) > tolerance
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

    def __repr__(self) -> str:
        parts = [
            f"({coeff:.3g})*{PauliProduct(self.n, x, z, 0)}"
            for (x, z), coeff in sorted(self._terms.items())
        ]
        return " + ".join(parts) if parts else "0"
