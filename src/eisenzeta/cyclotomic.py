"""Exact arithmetic in the cyclotomic field Q(zeta_ell), ell prime.

Elements are stored in the power basis 1, z, ..., z^(ell-2), so
coordinates are always canonical.

Products and inverses read `exact.multiplication_matrix` for the ell-th
cyclotomic polynomial 1 + t + ... + t^(ell-1): a product is that matrix
times the other factor's coordinates, and `CycloElement.inverse` solves
its system with `exact.mat_solve`.  The primality test is
`exact._is_prime`; the one univariate remainder is `numberfield._poly_rem`.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .exact import _is_prime, mat_solve, mat_vec, multiplication_matrix


class MismatchedField(ValueError):
    pass


class CycloElement:
    """Element of Q(zeta_ell) with canonical power-basis coordinates."""

    __slots__ = ("ell", "coords")

    def __init__(self, ell: int, coords: Sequence):
        if not _is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        if len(coords) != ell - 1:
            raise ValueError("need ell-1 coordinates")
        self.ell = ell
        self.coords = tuple(Fraction(c) for c in coords)

    @classmethod
    def zero(cls, ell: int) -> "CycloElement":
        return cls(ell, (0,) * (ell - 1))

    @classmethod
    def one(cls, ell: int) -> "CycloElement":
        return cls(ell, (1,) + (0,) * (ell - 2))

    @classmethod
    def rational(cls, ell: int, c) -> "CycloElement":
        return cls(ell, (Fraction(c),) + (0,) * (ell - 2))

    @classmethod
    def zeta_pow(cls, ell: int, k: int) -> "CycloElement":
        """zeta^k, any integer k."""
        k %= ell
        coords = [Fraction(0)] * (ell - 1)
        if k < ell - 1:
            coords[k] = Fraction(1)
        else:  # zeta^(ell-1) = -1 - zeta - ... - zeta^(ell-2)
            coords = [Fraction(-1)] * (ell - 1)
        return cls(ell, coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other: "CycloElement") -> None:
        if self.ell != other.ell:
            raise MismatchedField(f"ell mismatch: {self.ell} vs {other.ell}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, CycloElement) and self.ell == other.ell
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.ell, self.coords))

    def __add__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        return CycloElement(self.ell, [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "CycloElement":
        return CycloElement(self.ell, [-a for a in self.coords])

    def __sub__(self, other: "CycloElement") -> "CycloElement":
        return self + (-other)

    def __mul__(self, other) -> "CycloElement":
        if not isinstance(other, CycloElement):
            return CycloElement(self.ell, [a * Fraction(other) for a in self.coords])
        self._check(other)
        m = multiplication_matrix((1,) * self.ell, self.coords, Fraction(0))
        return CycloElement(self.ell, mat_vec(m, other.coords))

    __rmul__ = __mul__

    def galois(self, k: int) -> "CycloElement":
        """Image under zeta -> zeta^k, gcd(k, ell) = 1."""
        if k % self.ell == 0:
            raise ValueError("k must be prime to ell")
        out = CycloElement.zero(self.ell)
        for i, c in enumerate(self.coords):
            if c:
                out = out + c * CycloElement.zeta_pow(self.ell, i * k)
        return out

    def inverse(self) -> "CycloElement":
        """Multiplicative inverse, by solving the (ell-1) x (ell-1) linear
        system M x = e_0 for multiplication by self."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        m = multiplication_matrix((1,) * self.ell, self.coords, Fraction(0))
        e0 = ((1,),) + ((0,),) * (self.ell - 2)
        return CycloElement(self.ell, [row[0] for row in mat_solve(m, e0)])

    def trace(self) -> Fraction:
        """Trace to Q: (ell-1)*c_0 - sum of the other coordinates."""
        return (self.ell - 1) * self.coords[0] - sum(self.coords[1:])

    def __repr__(self):
        terms = [f"{c}*z^{i}" for i, c in enumerate(self.coords) if c]
        return " + ".join(terms) if terms else "0"
