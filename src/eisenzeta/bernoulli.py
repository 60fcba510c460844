"""Bernoulli polynomials, periodic Bernoulli functions, and the
sign-corrected Bernoulli products that evaluate Dedekind sums.

The periodic functions have one integer evaluator: b_k's coefficients are
scaled to integers once per k, and a homogenised Horner pass gives the
numerators of a row of values over one common denominator
(`periodic_B_row`, unmemoized: `dedekind._factor_row` keeps rows); a
single value (`periodic_B`, memoized per (k, x)) is the one entry of the
ell = 1 row, so no call does Fraction arithmetic beyond its result.

The sign correction (`B_e_Q`, in integers up to its one Fraction) takes
only the sign data of the tuple of linear forms, not the forms themselves;
extracting exact signs is the caller's job.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod

from .exact import MultiPoly

_BERN_NUMS: list[Fraction] = [Fraction(1)]  # B_0 = 1
_BERN_COEFFS: list[list[Fraction]] = []


def _bern_coeffs(k: int) -> list[Fraction]:
    """Ascending coefficients of b_k, the C(k, i) B_(k-i), with the
    Bernoulli numbers from sum_{j<=m} C(m+1, j) B_j = 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    while len(_BERN_COEFFS) <= k:
        d = len(_BERN_COEFFS)
        if d == len(_BERN_NUMS):
            _BERN_NUMS.append(-sum(comb(d + 1, j) * b for j, b
                                   in enumerate(_BERN_NUMS)) / (d + 1))
        _BERN_COEFFS.append([comb(d, i) * _BERN_NUMS[d - i]
                             for i in range(d + 1)])
    return _BERN_COEFFS[k]


def bernoulli_poly(k: int) -> MultiPoly:
    """The Bernoulli polynomial b_k as a univariate polynomial."""
    return MultiPoly(1, {(i,): c for i, c in enumerate(_bern_coeffs(k))})


@lru_cache(maxsize=None)
def _bern_ints(k: int) -> tuple[int, tuple[int, ...]]:
    """b_k over a common denominator: c and the integers c C(k, i) B_(k-i)."""
    coeffs = _bern_coeffs(k)
    c = lcm(*(a.denominator for a in coeffs))
    return c, tuple(int(a * c) for a in coeffs)


# The Dedekind sums of one run ask for the same few (weight, value) pairs at
# every weight, form tuple and k, so single values keep a bounded memo.
@lru_cache(maxsize=256)
def periodic_B(k: int, x) -> Fraction:
    """B_k(x) = b_k({x}) for k != 1; B_1 vanishes on the integers.  The
    one entry of the ell = 1 row."""
    den, (num,) = periodic_B_row(k, x, 1)
    return Fraction(num, den)


def periodic_B_row(k: int, x, ell: int) -> tuple[int, tuple[int, ...]]:
    """A common denominator d and the integers N_y with
    N_y / d = B_k((x + y) / ell) for y = 0, ..., ell - 1."""
    x = Fraction(x)
    c, ints = _bern_ints(k)
    den = x.denominator * ell
    # homogenised Horner: d * b_k(u / den) = sum_i (c a_i) u^i den^(k-i)
    scaled = [a * den ** (k - i) for i, a in enumerate(ints)]
    row = []
    for y in range(ell):
        u = (x.numerator + y * x.denominator) % den
        if k == 1 and u == 0:
            row.append(0)
            continue
        acc = 0
        for a in reversed(scaled):
            acc = acc * u + a
        row.append(acc)
    return c * den ** k, tuple(row)


def B_e(e: Sequence[int], x: Sequence) -> Fraction:
    if len(e) != len(x):
        raise ValueError("length mismatch")
    total = Fraction(1)
    for ej, xj in zip(e, x):
        total *= periodic_B(ej, xj)
        if total == 0:
            return total
    return total


def _validate_signs(s: Sequence[Sequence[int]], n: int) -> None:
    for row in s:
        if len(row) != n or any(v not in (1, -1) for v in row):
            raise ValueError("sign matrix must be +-1 with n columns")


def defect_set(e: Sequence[int], v: Sequence) -> tuple[int, ...]:
    """J = indices j with e_j = 1 and v_j integral."""
    return tuple(j for j, (ej, vj) in enumerate(zip(e, v))
                 if ej == 1 and Fraction(vj).denominator == 1)


def B_e_Q(e: Sequence[int], v: Sequence, s: Sequence[Sequence[int]]) -> Fraction:
    """Bernoulli product corrected at integral coordinates by half the
    signs of the linear forms, averaged over the m forms; one Fraction of
    the integer numerators and denominators multiplied."""
    n = len(e)
    if any(ej < 1 for ej in e):
        raise ValueError("exponents must be positive")
    _validate_signs(s, n)
    J = defect_set(e, v)
    num = den = 1
    for j in range(n):
        if j not in J:
            b = periodic_B(e[j], v[j])
            num *= b.numerator
            den *= b.denominator
    if not J or not num:
        return Fraction(num, den)
    signed = sum(prod(row[j] for j in J) for row in s)
    return Fraction(signed * num, den * 2 ** len(J) * len(s))


def B_e_Q_plus(e: Sequence[int], v: Sequence, s: Sequence[Sequence[int]]) -> Fraction:
    """Projection onto the even part in the signs: equals B_e_Q when the
    defect set has even size and 0 otherwise."""
    J = defect_set(e, v)
    if len(J) % 2:
        _validate_signs(s, len(e))
        return Fraction(0)
    return B_e_Q(e, v, s)
