import math
import random
import re
from fractions import Fraction
from math import isqrt

import pytest

from eisenzeta.exact import mat_det
from eisenzeta.numberfield import (DependentUnits, Ideal, IndexDivisor,
                                   NoDegreeOnePrime, NotIrreducible, NotMonic,
                                   NotTotallyReal, NumberField, UnitsRequired,
                                   adapted_basis, dual_basis,
                                   fundamental_unit_quadratic, ln_interval,
                                   prime_over, real_root_count,
                                   regulator_det_sign,
                                   totally_positive_generator,
                                   totally_positive_unit, unit_basis,
                                   validate_units)

rng = random.Random(555)


def sqrt5():
    return NumberField([-5, 0, 1])


def sqrt2():
    return NumberField([-2, 0, 1])


def test_field_new_quadratic():
    F = sqrt5()
    assert F.n == 2
    lo0, hi0 = F.root_interval(0)
    lo1, hi1 = F.root_interval(1)
    assert hi0 <= lo1  # ordered ascending, disjoint half-open intervals
    assert lo0 < 0 and hi1 > 0


def test_field_new_rejections():
    with pytest.raises(NotTotallyReal):
        NumberField([1, 0, 1])  # t^2 + 1
    with pytest.raises(NotMonic):
        NumberField([1, 0, 2])
    with pytest.raises(NotTotallyReal):
        NumberField([1, 0, 2, 0, 1])  # (t^2 + 1)^2: no real root to test


@pytest.mark.parametrize("poly, root", [
    ([5, -5, -1, 1], 1),        # (t - 1)(t^2 - 5)
    ([-3, 7, -5, 1], 1),        # (t - 1)^2 (t - 3), a double root
    ([-2, 1, -2, 1], 2),        # (t - 2)(t^2 + 1), one real root
    ([4, 0, -5, 0, 1], -2),     # (t^2 - 1)(t^2 - 4)
    ([0, -7, 0, 1], 0),         # t (t^2 - 7)
    ([-4, 0, 1], -2),           # (t - 2)(t + 2)
    ([1, 2, 1], -1),            # (t + 1)^2
])
def test_field_rejects_integer_root(poly, root):
    # a monic f with an integer root is reducible, and the least such root
    # is named; every isolating interval is narrower than 1
    with pytest.raises(NotIrreducible,
                       match=rf"it has the integer root {root}$"):
        NumberField(poly)
    F = NumberField([-1, -3, 0, 1])
    assert all(hi - lo < 1 for lo, hi in map(F.root_interval, range(3)))


@pytest.mark.parametrize("poly, factor", [
    ([6, 0, -5, 0, 1], "t^2 - 3"),          # (t^2 - 2)(t^2 - 3)
    ([4, 0, -4, 0, 1], "t^2 - 2"),          # (t^2 - 2)^2: no simple root
    ([-3, 0, -2, 0, 1], "t^2 - 3"),         # (t^2 - 3)(t^2 + 1)
    ([-1, 2, 4, -4, -1, 1], "t^2 - t - 1"),  # (t^2 - t - 1)(t^3 - 3t + 1)
    ([1, 0, -6, 0, 11, 0, -6, 0, 1],        # (t^2 - t - 1)^2 (t^2 + t - 1)^2
     "t^2 + t - 1"),
])
def test_field_rejects_real_factor(poly, factor):
    # without a rational root the factor is found as the product over a set
    # of real roots, whose coefficient intervals refine to a lone integer
    with pytest.raises(NotIrreducible,
                       match=rf"it has the factor {re.escape(factor)}$"):
        NumberField(poly)


def test_field_new_cubic():
    F = NumberField([-1, -3, 0, 1])  # t^3 - 3t - 1, discriminant 81
    assert F.n == 3
    assert real_root_count(F.f) == 3
    ivs = [F.root_interval(i) for i in range(3)]
    assert ivs[0][1] <= ivs[1][0] and ivs[1][1] <= ivs[2][0]


def test_sturm_oracle_on_quadratics():
    # root counts match the discriminant sign
    for (f, count) in ([(-5, 0, 1), 2], [(1, 0, 1), 0], [(3, -4, 1), 2],
                       [(5, 1, 1), 0]):
        assert real_root_count(list(f)) == count


def test_sign_at():
    F = sqrt5()
    theta = F.theta()
    assert F.sign_at(F.zero(), 0) == 0
    assert F.sign_at(theta, 1) == 1  # +sqrt(5) > 0
    assert F.sign_at(theta, 0) == -1  # -sqrt(5) < 0
    x = F.from_rational(3) - theta * theta  # 3 - 5 = -2 at every embedding
    assert F.sign_at(x, 0) == -1 and F.sign_at(x, 1) == -1
    # tight case: 9 - 4 theta at embedding 1 (9 - 8.944... > 0)
    y = F.from_rational(9) - 4 * theta
    assert F.sign_at(y, 1) == 1


def test_element_ops():
    F = sqrt5()
    phi = F.element((Fraction(1, 2), Fraction(1, 2)))  # (1 + sqrt 5)/2
    assert F.one().trace() == 2
    assert phi.trace() == 1
    assert phi.norm() == -1
    assert F.theta().norm() == -5  # (-1)^n f(0) = -(-5)
    assert phi * phi == phi + F.one()  # golden ratio identity
    assert (phi * phi.inverse()) == F.one()
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()


def test_element_hash_is_cached(monkeypatch):
    # the sign memos key rows by their elements: an element hashed once
    # keeps its hash, so its Fraction coordinates are not hashed again
    F = NumberField([-1, -3, 0, 1])
    x = F.element((Fraction(1, 3), -2, Fraction(5, 7)))
    h = hash(x)
    assert hash(F.element(x.coords)) == h

    def refuse(self):
        raise AssertionError("a Fraction coordinate was hashed again")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    assert hash(x) == h
    assert {x: 1}[x] == 1


def test_norm_trace_homomorphisms():
    F = NumberField([-1, -3, 0, 1])
    for _ in range(10):
        a = F.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(3)])
        b = F.element([rng.randint(-3, 3) for _ in range(3)])
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a + b).trace() == a.trace() + b.trace()


def test_sign_multiplicativity():
    F = sqrt2()
    for _ in range(20):
        a = F.element([rng.randint(-5, 5), rng.randint(-5, 5)])
        b = F.element([rng.randint(-5, 5), rng.randint(-5, 5)])
        for i in range(2):
            assert F.sign_at(a * b, i) == F.sign_at(a, i) * F.sign_at(b, i)


def test_dual_basis_sqrt5():
    F = sqrt5()
    phi = F.element((Fraction(1, 2), Fraction(1, 2)))
    w = [F.one(), phi]
    gram = tuple(tuple((wi * wj).trace() for wj in w) for wi in w)
    assert gram == ((2, 1), (1, 3))
    ws = dual_basis(w)
    for i in range(2):
        for j in range(2):
            assert (w[i] * ws[j]).trace() == (1 if i == j else 0)
    assert dual_basis(ws) == w  # dual of dual


def test_maximal_order_detection():
    F5, F2 = sqrt5(), sqrt2()
    assert F5.order_index == 2
    assert F2.order_index == 1
    phi = F5.element((Fraction(1, 2), Fraction(1, 2)))
    assert Ideal.unit_ideal(F5).contains(phi)
    assert not Ideal.unit_ideal(F2).contains(
        F2.element((Fraction(1, 2), Fraction(1, 2))))


def test_integral_basis_must_be_a_ring():
    # Z + Z (1 + sqrt5)/3 holds Z[sqrt5] but not ((1 + sqrt5)/3)^2
    q = Fraction
    with pytest.raises(ValueError) as err:
        NumberField([-5, 0, 1], integral_basis=[[1, 0], [q(1, 3), q(1, 3)]])
    assert str(err.value) == (
        "integral basis is not a ring: the product of its elements 2 and 2, "
        "(2/3, 2/9) on the power basis, is not in its span")
    # the maximal order, given in any basis of it, is a ring
    F = NumberField([-5, 0, 1], integral_basis=[[0, 1], [q(1, 2), q(1, 2)]])
    assert F.order_basis == sqrt5().order_basis and F.order_index == 2


def test_ideal_group_laws():
    F = sqrt5()
    one = Ideal.unit_ideal(F)
    assert one.norm() == 1
    two = Ideal.from_generators(F, [F.from_rational(2)])
    assert two.norm() == 4  # N((2)) = 4
    assert two * two.inverse() == one
    assert (two * two).norm() == 16
    p11 = prime_over(F, 11)
    assert p11.norm() == 11
    assert (two * p11).norm() == 44
    assert p11 * p11.inverse() == one
    assert p11.is_integral() and not p11.inverse().is_integral()
    assert p11.is_coprime(two)


def test_ideal_norm_multiplicative_random():
    F = sqrt2()
    for _ in range(8):
        a = F.element([rng.randint(-4, 4), rng.randint(-4, 4)])
        b = F.element([rng.randint(-4, 4), rng.randint(-4, 4)])
        if a.is_zero() or b.is_zero():
            continue
        Ia = Ideal.from_generators(F, [a])
        Ib = Ideal.from_generators(F, [b])
        assert (Ia * Ib).norm() == Ia.norm() * Ib.norm()
        assert Ia.norm() == abs(a.norm())


def test_prime_over():
    F = sqrt5()
    p11 = prime_over(F, 11)
    assert p11.norm() == 11
    # theta - 4 is in the ideal: theta = 4 mod p11
    assert p11.contains(F.theta() - F.from_rational(4))
    with pytest.raises(NoDegreeOnePrime):
        prime_over(F, 3)  # 5 is not a square mod 3
    with pytest.raises(IndexDivisor):
        prime_over(F, 2)  # 2 divides the index of Z[theta]
    p7 = prime_over(sqrt2(), 7)
    assert p7.norm() == 7


def test_adapted_basis_sqrt5():
    F = sqrt5()
    one = Ideal.unit_ideal(F)
    c = prime_over(F, 11)
    ws = adapted_basis(one, one, c, 11)
    # w_1/11 lands in c^-1, i.e. w_1 lies in 11 c^-1 (the conjugate ideal)
    cinv = c.inverse()
    assert cinv.contains(ws[0] * Fraction(1, 11))
    assert cinv.scale(11).contains(ws[0])
    l1 = Ideal.from_columns(F, [w.coords for w in ws])
    assert l1 == one
    half = [tuple(x / 11 for x in ws[0].coords)] + [w.coords for w in ws[1:]]
    l2 = Ideal.from_columns(F, half)
    assert l2 == cinv
    assert l2.norm() == Fraction(1, 11)  # index-11 inclusion


def test_adapted_basis_nontrivial_a_f():
    F = sqrt2()
    a = Ideal.from_generators(F, [F.from_rational(3)])
    fid = Ideal.from_generators(F, [F.theta()])  # (sqrt 2), norm 2
    c = prime_over(F, 7)
    ws = adapted_basis(a, fid, c, 7)
    l1 = a.inverse() * fid
    l2 = a.inverse() * c.inverse() * fid
    assert Ideal.from_columns(F, [w.coords for w in ws]) == l1
    half = [tuple(x / 7 for x in ws[0].coords)] + [w.coords for w in ws[1:]]
    assert Ideal.from_columns(F, half) == l2


def pell_brute_force_unit(d0):
    """Fundamental unit of the order of discriminant d0 by ascending search
    over x^2 - d0 y^2 = +-4 (independent of the continued fraction)."""
    y = 1
    while True:
        sols = []
        for sgn in (4, -4):
            t2 = d0 * y * y + sgn
            if t2 > 0:
                x = isqrt(t2)
                if x * x == t2:
                    sols.append(x)
        if sols:
            return Fraction(min(sols), 2), Fraction(y, 2)
        y += 1


def test_fundamental_unit_cf_vs_pell():
    for f, d0 in (([-5, 0, 1], 5), ([-2, 0, 1], 8), ([-13, 0, 1], 13),
                  ([-7, 0, 1], 28), ([-3, -1, 1], 13), ([-1, -1, 1], 5)):
        F = NumberField(f)
        u = fundamental_unit_quadratic(F)
        x, y = pell_brute_force_unit(d0)
        # u = (x + y sqrt(d0))/1 with (x, y) possibly half-integers
        b = F.f[1]
        m = isqrt((b * b - 4 * F.f[0]) // d0)
        sqrt_d0 = F.element((Fraction(b, m), Fraction(2, m)))
        expected = F.from_rational(x) + Fraction(y) * sqrt_d0
        assert u == expected or u == -expected or u.inverse() in (expected, -expected)


def test_fundamental_unit_is_a_unit_above_one():
    # every monic t^2 + bt + c, |b| <= 3, -40 <= c <= -1, of non-square
    # discriminant: the continued fraction's unit has norm +-1, lies in the
    # maximal order and exceeds 1 at the larger root, with no sign or
    # inverse taken afterwards
    fields = [[c, b, 1] for b in range(-3, 4) for c in range(-40, 0)
              if isqrt(b * b - 4 * c) ** 2 != b * b - 4 * c]
    assert len(fields) == 244
    for f in fields:
        F = NumberField(f)
        u = fundamental_unit_quadratic(F)
        assert abs(u.norm()) == 1
        assert Ideal.unit_ideal(F).contains(u)
        assert F.sign_at(u - F.one(), F.n - 1) > 0


def test_totally_positive_unit_values():
    F5 = sqrt5()
    one5 = Ideal.unit_ideal(F5)
    eps = totally_positive_unit(F5, one5)
    assert eps == F5.element((Fraction(3, 2), Fraction(1, 2)))  # (3 + sqrt5)/2
    F2 = sqrt2()
    eps2 = totally_positive_unit(F2, Ideal.unit_ideal(F2))
    assert eps2 == F2.element((3, 2))  # 3 + 2 sqrt2
    # with a congruence condition: eps = 1 mod (2) in Q(sqrt2)
    two = Ideal.from_generators(F2, [F2.from_rational(2)])
    eps_c = totally_positive_unit(F2, two)
    assert two.contains(eps_c - F2.one())
    assert eps_c.is_totally_positive()


def test_unit_basis_supplied_validation():
    F = NumberField([-1, -3, 0, 1])
    one = Ideal.unit_ideal(F)
    with pytest.raises(UnitsRequired):
        unit_basis(F, one)
    # dependent pair (eps, eps^2) must be rejected
    # first find one totally positive unit of the cubic field by brute force
    theta = F.theta()
    u = theta * theta - F.from_rational(2)  # theta^2 - 2: check unit
    assert abs(u.norm()) == 1
    e = u * u  # totally positive square
    with pytest.raises(DependentUnits):
        validate_units(F, one, [e, e * e])


def test_regulator_sign_quadratic():
    F = sqrt5()
    eps = totally_positive_unit(F, Ideal.unit_ideal(F))
    # tau_1(eps) = (3 - sqrt5)/2 < 1, so log is negative
    assert regulator_det_sign(F, [eps]) == -1


def _quartic():
    """Criterion 13's field t^4 - 14t^2 + 9 with its index-48 integral
    basis and units (see test_acceptance.py)."""
    q = Fraction
    F = NumberField([9, 0, -14, 0, 1], integral_basis=[
        [1, 0, 0, 0], [0, q(-11, 6), 0, q(1, 6)],
        [q(1, 2), q(17, 12), 0, q(-1, 12)],
        [q(-7, 4), q(-11, 12), q(1, 4), q(1, 12)]])
    units = [F.element(u) for u in (
        [q(27, 2), q(-173, 12), -1, q(13, 12)],
        [q(3, 2), q(17, 12), 0, q(-1, 12)], [-2, 0, 3, 0])]
    return F, units


def _test_unit_sets():
    """(field, units, the regulator sign the exact-Fraction series gave)
    for every field and unit set the tests build zeta data from."""
    sets = []
    for poly in ([-5, 0, 1], [-2, 0, 1], [-3, 0, 1]):
        F = NumberField(poly)
        sets.append((F, unit_basis(F, Ideal.unit_ideal(F)), -1))
    C = NumberField([-1, -3, 0, 1])
    e1, e2 = C.element([0, 0, 1]), C.element([1, 2, 1])
    sets += [(C, [e1, e2], -1), (C, [e2, e1], 1)]
    F, units = _quartic()
    sets += [(F, units, -1),
             (F, [units[0] * units[1] * units[2], units[1], units[2]], -1)]
    return sets


@pytest.mark.parametrize("case", range(7), ids=[
    "sqrt5", "sqrt2", "sqrt3", "cubic", "cubic-swapped", "quartic",
    "quartic-unreduced"])
def test_regulator_sign_on_every_test_field(case):
    # the fixed-point logs certify the sign the Fraction series did, and
    # the float regulator agrees
    F, units, sign = _test_unit_sets()[case]
    assert regulator_det_sign(F, units) == sign
    n1 = len(units)
    logs = []
    for i in range(n1):
        while F.root_interval(i)[1] - F.root_interval(i)[0] > 1e-12:
            F.refine_root(i)
        t = float(F.root_interval(i)[0])
        logs.append([math.log(abs(sum(float(c) * t ** k
                                      for k, c in enumerate(u.coords))))
                     for u in units])
    assert (_float_det(logs) > 0) == (sign > 0)


def _float_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * x * _float_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]))


def test_nearly_dependent_units_certify():
    # the log vectors of eps1^34 eps2^55 and eps1^55 eps2^89 are 8e-5 rad
    # from parallel, and the exponent determinant is 34 * 89 - 55^2 = 1:
    # independent, with the sign of (eps1, eps2); (eps1, eps1^2) stays
    # dependent
    C = NumberField([-1, -3, 0, 1])
    e1, e2 = C.element([0, 0, 1]), C.element([1, 2, 1])
    near = [e1 ** 34 * e2 ** 55, e1 ** 55 * e2 ** 89]
    assert regulator_det_sign(C, near) == regulator_det_sign(C, [e1, e2]) == -1
    with pytest.raises(DependentUnits):
        regulator_det_sign(C, [e1, e1 * e1])


@pytest.mark.parametrize("ell, e, pi", [(11, 2, (13, 4)), (13, 1, (4, -1)),
                                        (23, 2, (26, -7))])
def test_totally_positive_generator_default_bounds(ell, e, pi):
    # Q(sqrt3) has narrow class number 2: the prime above 13 is narrowly
    # principal, those above 11 and 23 are not, so their search exhausts
    # every exponent-1 candidate up to the default coefficient bound
    F = NumberField([-3, 0, 1])
    one = Ideal.unit_ideal(F)
    assert totally_positive_generator(prime_over(F, ell), one) == \
        (e, F.element(pi))


def test_totally_positive_generator_11():
    F = sqrt5()
    one = Ideal.unit_ideal(F)
    I = prime_over(F, 11)
    e, pi = totally_positive_generator(I, one)
    assert e == 1
    assert pi.is_totally_positive()
    assert abs(pi.norm()) == 11
    assert Ideal.from_generators(F, [pi]) == I
    # the generator is determined up to totally positive units: 4 - sqrt5
    # times a power of (3 + sqrt5)/2
    base = F.element((4, -1))
    eps = F.element((Fraction(3, 2), Fraction(1, 2)))
    cur = base
    assert any((cur := base * eps ** j) == pi for j in range(0, 4))


def test_totally_positive_generator_principal():
    F = sqrt2()
    one = Ideal.unit_ideal(F)
    alpha = F.element((3, 1))  # 3 + sqrt2, norm 7, totally positive
    I = Ideal.from_generators(F, [alpha])
    e, pi = totally_positive_generator(I, one)
    assert e == 1
    assert Ideal.from_generators(F, [pi]) == I
    assert pi.is_totally_positive()


def test_ln_interval():
    lo, hi = ln_interval(Fraction(2))
    assert lo < hi
    assert Fraction(693146, 10 ** 6) < lo and hi < Fraction(693148, 10 ** 6)
    lo, hi = ln_interval(Fraction(1, 2))
    assert Fraction(-693148, 10 ** 6) < lo and hi < Fraction(-693146, 10 ** 6)
    lo, hi = ln_interval(Fraction(10))
    assert Fraction(2302585092, 10 ** 9) < lo <= hi < Fraction(2302585094, 10 ** 9)


def test_log_embed_interval():
    F = sqrt5()
    eps = F.element((Fraction(3, 2), Fraction(1, 2)))
    lo, hi = F.log_embed_interval(eps, 1, width=Fraction(1, 10 ** 6))
    # log((3+sqrt5)/2) = 0.9624...
    assert lo < Fraction(9625, 10000) and hi > Fraction(9623, 10000)
    assert hi - lo < Fraction(1, 10 ** 6)


def test_log_embed_interval_sums_one_series_pair(monkeypatch):
    # the root is refined until the log interval can be narrow enough
    # before any series is summed: every call that returns took exactly
    # one ln_interval series for each end, also at the finest width the
    # regulator tries on a dependent pair
    import eisenzeta.numberfield as nf
    from eisenzeta.zeta import build_zeta_data
    series, per_call = [0], []
    atanh, log_embed = nf._atanh_bounds, NumberField.log_embed_interval

    def counted(*args):
        series[0] += 1
        return atanh(*args)

    def recorded(self, *args, **kwargs):
        before = series[0]
        out = log_embed(self, *args, **kwargs)
        per_call.append(series[0] - before)
        return out

    monkeypatch.setattr(nf, "_atanh_bounds", counted)
    monkeypatch.setattr(NumberField, "log_embed_interval", recorded)
    C = NumberField([-1, -3, 0, 1])
    one = Ideal.unit_ideal(C)
    e1, e2 = C.element([0, 0, 1]), C.element([1, 2, 1])
    build_zeta_data(C, one, one, prime_over(C, 17), 17, units=[e1, e2])
    with pytest.raises(DependentUnits):
        validate_units(C, one, [e1, e1 * e1])
    F = sqrt5()
    one = Ideal.unit_ideal(F)
    build_zeta_data(F, one, one, prime_over(F, 11), 11)
    # the cubic separates at the first of the five widths, the dependent
    # pair tries all five, Q(sqrt 5) separates at the first
    assert len(per_call) == 4 + 4 * 5 + 1 and set(per_call) == {2}


def test_dual_basis_singular_gram():
    from eisenzeta.numberfield import SingularGram
    F = sqrt5()
    with pytest.raises(SingularGram):
        dual_basis([F.one(), F.from_rational(2)])  # dependent over Q


def test_zero_ideal_rejected():
    from eisenzeta.numberfield import ZeroIdeal
    F = sqrt5()
    with pytest.raises(ZeroIdeal):
        Ideal.from_generators(F, [F.zero()])
    with pytest.raises(ZeroIdeal):
        Ideal.unit_ideal(F).scale(0)


def test_adapted_basis_index_not_prime():
    from eisenzeta.numberfield import IndexNotPrime
    F = sqrt5()
    one = Ideal.unit_ideal(F)
    c9 = Ideal.from_generators(F, [F.from_rational(3)])  # inert, norm 9
    with pytest.raises(IndexNotPrime):
        adapted_basis(one, one, c9, 3)


def test_unit_validation_errors():
    from eisenzeta.numberfield import NotCongruentOne, NotTotallyPositive
    F = sqrt5()
    one = Ideal.unit_ideal(F)
    phi = F.element((Fraction(1, 2), Fraction(1, 2)))  # norm -1, not TP
    with pytest.raises(NotTotallyPositive):
        validate_units(F, one, [phi])
    eps = F.element((Fraction(3, 2), Fraction(1, 2)))
    two = Ideal.from_generators(F, [F.from_rational(2)])
    with pytest.raises(NotCongruentOne):
        validate_units(F, two, [eps])  # (3+sqrt5)/2 - 1 is not in (2)


def test_unit_outside_the_order_is_named():
    # criterion 13's units need the index-48 integral basis of
    # t^4 - 14t^2 + 9; without it the field works in Z[theta], which holds
    # the first of them only with denominators, and every unit of O is = 1
    # mod f = O, so the error names the order and not the congruence
    from eisenzeta.zeta import build_zeta_data
    F = NumberField([9, 0, -14, 0, 1])
    one = Ideal.unit_ideal(F)
    q = Fraction
    units = [F.element(u) for u in (
        [q(27, 2), q(-173, 12), -1, q(13, 12)],
        [q(3, 2), q(17, 12), 0, q(-1, 12)], [-2, 0, 3, 0])]
    with pytest.raises(ValueError) as err:
        build_zeta_data(F, one, one, prime_over(F, 31), 31, units=units)
    assert str(err.value) == ("unit is not in the working order "
                              "(is an integral basis missing?)")


def test_totally_positive_generator_bound():
    from eisenzeta.numberfield import NotFoundWithinBound
    F = sqrt5()
    one = Ideal.unit_ideal(F)
    I = prime_over(F, 11)
    with pytest.raises(NotFoundWithinBound):
        totally_positive_generator(I, one, bound=1, coeff_bound=0)
