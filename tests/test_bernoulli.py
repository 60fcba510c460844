import random
from fractions import Fraction
from math import floor

import pytest

from eisenzeta import bernoulli
from eisenzeta.bernoulli import (B_e, B_e_Q, B_e_Q_plus, bernoulli_poly,
                                 defect_set, periodic_B, periodic_B_row)
from eisenzeta.exact import MultiPoly, poly_eval

rng = random.Random(99)


def taylor_division_oracle(kmax):
    """Coefficients of b_k from t e^{xt} / (e^t - 1) by exact power-series
    division, independent of the recurrence used in the implementation."""
    # numerator: t * e^{xt} has t^m coefficient x^(m-1)/(m-1)!
    # denominator: e^t - 1 has t^m coefficient 1/m!
    # work with polynomial coefficients in x up to degree kmax
    from math import factorial
    N = kmax + 2
    num = []  # num[m] is a dict degree -> Fraction
    for m in range(N):
        num.append({} if m == 0 else {m - 1: Fraction(1, factorial(m - 1))})
    den = [Fraction(0) if m == 0 else Fraction(1, factorial(m)) for m in range(N)]
    # series quotient q with num = den * q, den[1] = 1 leading
    q = []
    for m in range(N - 1):
        acc = dict(num[m + 1])
        for i in range(m):
            for d, c in q[i].items():
                acc[d] = acc.get(d, Fraction(0)) - c * den[m + 1 - i]
        q.append({d: c / den[1] for d, c in acc.items()})
    out = []
    from math import factorial as fact
    for k in range(kmax + 1):
        out.append({d: c * fact(k) for d, c in q[k].items() if c})
    return out


def test_bernoulli_poly_low_degrees():
    x = MultiPoly.variable(1, 0)
    one = MultiPoly.constant(1, 1)
    assert bernoulli_poly(0) == one
    assert bernoulli_poly(1) == x - MultiPoly.constant(1, Fraction(1, 2))
    assert bernoulli_poly(2) == x * x - x + MultiPoly.constant(1, Fraction(1, 6))


def test_bernoulli_poly_against_taylor_oracle():
    oracle = taylor_division_oracle(8)
    for k in range(9):
        got = bernoulli_poly(k)
        assert got.coeffs == {(d,): c for d, c in oracle[k].items()}


def test_bernoulli_poly_derivative_and_integral():
    for k in range(2, 10):
        bk = bernoulli_poly(k).coeffs
        bk1 = bernoulli_poly(k - 1)
        deriv = {}
        for (d,), c in bk.items():
            if d:
                deriv[(d - 1,)] = c * d
        assert deriv == (k * bk1).coeffs
        integral = sum(c / (d + 1) for (d,), c in bk.items())
        assert integral == 0


def test_bernoulli_leading_terms():
    for k in range(2, 8):
        coeffs = bernoulli_poly(k).coeffs
        assert coeffs[(k,)] == 1
        assert coeffs[(k - 1,)] == -Fraction(k, 2)


def test_periodic_B_one():
    assert periodic_B(1, 0) == 0
    assert periodic_B(1, 5) == 0
    assert periodic_B(1, Fraction(1, 3)) == Fraction(-1, 6)
    assert periodic_B(2, Fraction(7, 2)) == Fraction(-1, 12)


def test_periodic_B_periodicity():
    for _ in range(30):
        k = rng.randint(0, 5)
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        assert periodic_B(k, x + 1) == periodic_B(k, x)


def horner_periodic_B(k, x):
    """The Fraction-Horner form of B_k(x): b_k at the fractional part of x
    from its Fraction coefficients, and B_1 = 0 on the integers."""
    x = Fraction(x)
    frac = x - floor(x)
    if k == 1 and frac == 0:
        return Fraction(0)
    return poly_eval(bernoulli._bern_coeffs(k), frac)


def test_integer_evaluator_matches_fraction_horner():
    # periodic_B reads the one entry of the integer row at ell = 1, and both
    # give exactly the Fraction-Horner values, at integers and at random
    # rationals, for every weight up to 15
    points = [(k, x) for k in range(16) for x in range(-4, 5)]
    points += [(rng.randint(0, 15), Fraction(rng.randint(-10 ** 4, 10 ** 4),
                                             rng.randint(1, 10 ** 3)))
               for _ in range(3000)]
    for k, x in points:
        got = periodic_B(k, x)
        assert type(got) is Fraction and got == horner_periodic_B(k, x)
    for k, x in points[::10]:
        ell = rng.choice([1, 2, 3, 5, 7, 11])
        d, row = periodic_B_row(k, x, ell)
        assert [Fraction(num, d) for num in row] == \
            [horner_periodic_B(k, Fraction(x + y) / ell) for y in range(ell)]


def test_negative_weight_rejected(monkeypatch):
    # every entry point reaches the k >= 0 check of the coefficient table,
    # whether the table is empty or already holds b_0, ..., b_6
    monkeypatch.setattr(bernoulli, "_BERN_NUMS", [Fraction(1)])
    monkeypatch.setattr(bernoulli, "_BERN_COEFFS", [])
    for fill in (None, 6):
        if fill is not None:
            bernoulli_poly(fill)
        for call in (lambda: periodic_B(-1, Fraction(1, 3)),
                     lambda: periodic_B_row(-1, 0, 5),
                     lambda: bernoulli_poly(-1)):
            with pytest.raises(ValueError, match="k must be >= 0"):
                call()
    assert len(bernoulli._BERN_COEFFS) == 7


def test_B_e_products():
    assert B_e((1, 1), (Fraction(1, 3), Fraction(1, 3))) == Fraction(1, 36)
    assert B_e((1, 2), (0, Fraction(1, 5))) == 0  # B_1 vanishes on Z
    assert B_e((2,), (0,)) == Fraction(1, 6)


def test_B_e_distribution_relation():
    for N in (2, 3, 5):
        for _ in range(8):
            n = rng.choice([1, 2])
            e = tuple(rng.randint(1, 3) for _ in range(n))
            x = tuple(Fraction(rng.randint(-10, 10), rng.randint(1, 7))
                      for _ in range(n))
            ebar = sum(e)
            total = Fraction(0)
            grid = [()]
            for _ in range(n):
                grid = [g + (y,) for g in grid for y in range(N)]
            for y in grid:
                total += B_e(e, [(xj + yj) / N for xj, yj in zip(x, y)])
            assert B_e(e, x) == Fraction(N) ** (ebar - n) * total


def test_B_e_Q_defect_cases():
    # J empty: independent of the sign data
    e, v = (2, 1), (0, Fraction(1, 3))
    s1 = ((1, 1),)
    s2 = ((-1, -1), (1, -1))
    assert B_e_Q(e, v, s1) == B_e_Q(e, v, s2) == B_e(e, v)
    # the spec's worked cases
    assert B_e_Q((1, 1), (0, 0), ((1, 1),)) == Fraction(1, 4)
    assert B_e_Q((1, 1), (0, Fraction(1, 3)), ((1, 1), (-1, 1))) == 0
    assert B_e_Q_plus((1, 1), (0, 0), ((1, -1),)) == Fraction(-1, 4)


def test_B_e_Q_plus_parity_and_negation():
    # odd defect set -> 0; also invariance under global sign flip
    assert B_e_Q_plus((1, 2), (0, Fraction(1, 4)), ((1, 1),)) == 0
    for _ in range(20):
        n = rng.choice([2, 3])
        e = tuple(rng.choice([1, 1, 2]) for _ in range(n))
        v = tuple(rng.choice([Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 5)])
                  for _ in range(n))
        m = rng.choice([1, 2])
        s = tuple(tuple(rng.choice([1, -1]) for _ in range(n)) for _ in range(m))
        smin = tuple(tuple(-x for x in row) for row in s)
        assert B_e_Q_plus(e, v, s) == B_e_Q_plus(e, v, smin)
        avg = (B_e_Q(e, v, s) + B_e_Q(e, v, smin)) / 2
        assert B_e_Q_plus(e, v, s) == avg
        if len(defect_set(e, v)) % 2 == 1:
            assert B_e_Q_plus(e, v, s) == 0


def test_B_e_Q_distribution_relation():
    for N in (2, 3):
        for _ in range(10):
            n = 2
            e = tuple(rng.choice([1, 2]) for _ in range(n))
            x = tuple(Fraction(rng.randint(0, 6), rng.choice([1, 2, 3]))
                      for _ in range(n))
            s = tuple(tuple(rng.choice([1, -1]) for _ in range(n))
                      for _ in range(rng.choice([1, 2])))
            ebar = sum(e)
            for B in (B_e_Q, B_e_Q_plus):
                total = Fraction(0)
                for y0 in range(N):
                    for y1 in range(N):
                        total += B(e, ((x[0] + y0) / N, (x[1] + y1) / N), s)
                assert B(e, x, s) == Fraction(N) ** (ebar - n) * total
