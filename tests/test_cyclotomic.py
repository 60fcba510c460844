import random
from fractions import Fraction

import pytest

from eisenzeta.cyclotomic import CycloElement, MismatchedField

rng = random.Random(7)


def rand_elt(ell):
    return CycloElement(ell, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(ell - 1)])


def test_root_of_unity_relations():
    for ell in (3, 5, 7):
        z = CycloElement.zeta_pow(ell, 1)
        assert z * CycloElement.zeta_pow(ell, ell - 1) == CycloElement.one(ell)
        prod = CycloElement.one(ell)
        for _ in range(ell):
            prod = prod * z
        assert prod == CycloElement.one(ell)


def test_mul_identity():
    a = rand_elt(5)
    assert a * CycloElement.one(5) == a


def test_product_of_zeta_minus_one_is_ell():
    # prod_{k=1}^{ell-1} (zeta^k - 1) = Phi_ell(1) * (-1)^(ell-1) = ell
    for ell in (3, 5, 7):
        prod = CycloElement.one(ell)
        for k in range(1, ell):
            prod = prod * (CycloElement.zeta_pow(ell, k) - CycloElement.one(ell))
        assert prod == CycloElement.rational(ell, ell)


def test_mismatched_field():
    with pytest.raises(MismatchedField):
        CycloElement.one(3) * CycloElement.one(5)


def test_inverse_exact():
    assert CycloElement.one(5).inverse() == CycloElement.one(5)
    z = CycloElement.zeta_pow(7, 1)
    assert z.inverse() == CycloElement.zeta_pow(7, 6)
    # (zeta - 1)^-1 = (-2 - zeta)/3 for ell = 3
    got = (CycloElement.zeta_pow(3, 1) - CycloElement.one(3)).inverse()
    assert got == CycloElement(3, [Fraction(-2, 3), Fraction(-1, 3)])
    for ell in (3, 5, 7):
        for _ in range(10):
            a = rand_elt(ell)
            if a.is_zero():
                continue
            assert a * a.inverse() == CycloElement.one(ell)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        CycloElement.zero(5).inverse()


def test_trace_values():
    for ell in (3, 5, 7, 11):
        assert CycloElement.one(ell).trace() == ell - 1
        assert CycloElement.zeta_pow(ell, 1).trace() == -1
    a = CycloElement.zeta_pow(5, 1) + CycloElement.zeta_pow(5, 2)
    assert a.trace() == -2


def test_trace_linear_and_galois_invariant():
    for ell in (5, 7):
        a, b = rand_elt(ell), rand_elt(ell)
        assert (a + b).trace() == a.trace() + b.trace()
        assert (Fraction(3, 2) * a).trace() == Fraction(3, 2) * a.trace()
        for k in range(1, ell):
            assert a.galois(k).trace() == a.trace()


def test_trace_against_conjugate_sum_oracle():
    # independent oracle: sum the images of a under all Galois maps; the
    # result is rational and equals the closed-form trace
    for ell in (3, 5, 7):
        for _ in range(5):
            a = rand_elt(ell)
            total = CycloElement.zero(ell)
            for k in range(1, ell):
                total = total + a.galois(k)
            assert total == CycloElement.rational(ell, a.trace())
