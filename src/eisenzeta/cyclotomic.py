"""Exact arithmetic in the cyclotomic field Q(zeta_ell), ell prime.

Elements are stored in the power basis 1, z, ..., z^(ell-2); reduction by
the ell-th cyclotomic polynomial happens on every write, so coordinates
are always canonical.

Each concept has one implementation: `CycloElement.inverse` solves its
multiplication system with `exact.mat_solve`, and `_is_prime` is the
primality test of the whole package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import mat_solve


class MismatchedField(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
        ell = self.ell
        # convolve mod (zeta^ell - 1), then fold zeta^(ell-1) into the basis
        raw = [Fraction(0)] * ell
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        raw[(i + j) % ell] += a * b
        top = raw[ell - 1]
        return CycloElement(ell, [raw[i] - top for i in range(ell - 1)])

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
        system for multiplication by self."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        ell = self.ell
        n = ell - 1
        cols = [(self * CycloElement.zeta_pow(ell, j)).coords for j in range(n)]
        # solve M x = e_0 where column j of M is self * zeta^j
        m = tuple(tuple(col[i] for col in cols) for i in range(n))
        e0 = ((1,),) + ((0,),) * (n - 1)
        return CycloElement(ell, [row[0] for row in mat_solve(m, e0)])

    def trace(self) -> Fraction:
        """Trace to Q: (ell-1)*c_0 - sum of the other coordinates."""
        return (self.ell - 1) * self.coords[0] - sum(self.coords[1:])

    def __repr__(self):
        terms = [f"{c}*z^{i}" for i, c in enumerate(self.coords) if c]
        return " + ".join(terms) if terms else "0"
