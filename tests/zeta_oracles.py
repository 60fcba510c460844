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


def zagier_cycles(D):
    """The cycles of reduced forms (a, b, c) of discriminant D, D not a
    square, each with its digits and zeta(B, 0) of its narrow class B.

    Zagier's reduced forms have a, c > 0 and b > a + c, so b <= D.  The
    root w = (b + sqrt D)/(2a) > 1 of a w^2 - b w + c has its conjugate in
    (0, 1); its minus continued fraction w = n - 1/w' steps the form to
    (a n^2 - b n + c, 2 a n - b, a) with digit n = ceil(w), and
    zeta(B, 0) = sum(n - 3)/12 over a cycle (Zagier, 1977).  Integers
    only; cycles are listed from their least form.
    """
    r = isqrt(D)
    reduced = set()
    for b in range(r + 1, D + 1):
        if (b * b - D) % 4 == 0:
            ac = (b * b - D) // 4
            reduced |= {(a, b, ac // a) for a in range(1, ac + 1)
                        if ac % a == 0 and a + ac // a < b}
    cycles = []
    while reduced:
        form = start = min(reduced)
        forms, digits = [], []
        while form in reduced:
            reduced.remove(form)
            a, b, c = form
            n = (b + r) // (2 * a) + 1
            forms.append(form)
            digits.append(n)
            form = (a * n * n - b * n + c, 2 * a * n - b, a)
        assert form == start
        cycles.append((tuple(forms), tuple(digits),
                       Fraction(sum(digits) - 3 * len(digits), 12)))
    return cycles
