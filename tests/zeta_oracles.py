"""Closed-form zeta values of real quadratic fields, independent of the
cocycle, shared by the zeta and acceptance tests."""

from fractions import Fraction
from math import isqrt


def sigma1(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def zagier_zeta_minus1(D):
    """Siegel/Zagier closed form for zeta_F(-1) of the real quadratic field
    of discriminant D (independent oracle)."""
    total = 0
    for b in range(-isqrt(D), isqrt(D) + 1):
        if b * b < D and (D - b * b) % 4 == 0:
            total += sigma1((D - b * b) // 4)
    return Fraction(total, 60)
