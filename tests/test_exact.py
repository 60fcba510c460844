import random
from fractions import Fraction

import pytest

from eisenzeta.exact import (DegreeError, MultiPoly, SingularMatrix, _intval,
                             _is_prime, adjugate, coset_reps, forward_extend,
                             hnf, identity, lattice_hnf,
                             mat_det, mat_inv, mat_mul, mat_vec, poly_det,
                             reduce_mod_lattice, resultant_norm, snf)

rng = random.Random(20240817)


def rand_mat(n, lo=-6, hi=6):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))


def test_adjugate_is_det_times_inverse():
    # adj(m) m = m adj(m) = det(m) I, in integers, on nonsingular matrices
    # of sizes 2 to 4
    for n in (2, 3, 4):
        done = 0
        while done < 25:
            m = rand_mat(n)
            det = mat_det(m)
            if det == 0:
                continue
            adj = adjugate(m)
            scaled = tuple(tuple(det * x for x in row) for row in identity(n))
            assert all(type(x) is int for row in adj for x in row)
            assert mat_mul(adj, m) == mat_mul(m, adj) == scaled
            done += 1


def test_hnf_identity_fixed_point():
    h, u = hnf(identity(3))
    assert h == identity(3)
    assert u == identity(3)


def test_hnf_diagonal_already_reduced():
    d = ((2, 0), (0, 3))
    h, u = hnf(d)
    assert h == d
    assert u == identity(2)


def test_hnf_transform_and_det():
    m = ((2, 1), (0, 1))
    h, u = hnf(m)
    assert mat_mul(m, u) == h
    assert abs(mat_det(u)) == 1
    assert abs(mat_det(h)) == abs(mat_det(m)) == 2


def test_hnf_random_properties():
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        m = rand_mat(n)
        h, u = hnf(m)
        assert mat_mul(m, u) == h
        assert abs(mat_det(u)) == 1
        for i in range(n):
            for j in range(i + 1, n):
                assert h[i][j] == 0
            if h[i][i]:
                for j in range(i):
                    assert 0 <= h[i][j] < h[i][i]
    # idempotence on an already-reduced form
    m = ((4, 0, 0), (1, 3, 0), (2, 1, 5))
    h, u = hnf(m)
    assert h == m and u == identity(3)


def brute_cosets(m, n):
    """Enumerate Z^2 / m Z^2 greedily over a box: two vectors are
    equivalent iff their difference is a lattice vector."""
    assert n == 2
    det = abs(int(mat_det(m)))
    # difference vectors have entries <= 2*det; solving coefficients are
    # bounded by 4 * max|entry| * 2 * det / det with entries <= 4
    span = 40
    lattice = set()
    cols = [tuple(m[i][j] for i in range(n)) for j in range(n)]
    for a in range(-span, span + 1):
        for b in range(-span, span + 1):
            lattice.add((a * cols[0][0] + b * cols[1][0],
                         a * cols[0][1] + b * cols[1][1]))
    reps = []
    for x in range(-det, det + 1):
        for y in range(-det, det + 1):
            if not any((x - rx, y - ry) in lattice for rx, ry in reps):
                reps.append((x, y))
    return reps


def test_coset_reps_identity():
    assert coset_reps(identity(3)) == [(0, 0, 0)]


def test_coset_reps_diag():
    reps = coset_reps(((2, 0), (0, 1)))
    assert set(reps) == {(0, 0), (1, 0)}


def test_coset_reps_count_and_incongruence():
    for _ in range(25):
        m = rand_mat(2, -4, 4)
        det = abs(int(mat_det(m)))
        if det == 0 or det > 12:
            continue
        reps = coset_reps(m)
        assert len(reps) == det
        brute = brute_cosets(m, 2)
        assert len(brute) == det
        # pairwise incongruent: differences never in the lattice
        inv = mat_inv(m)
        for i, r in enumerate(reps):
            for s in reps[i + 1:]:
                diff = mat_vec(inv, [a - b for a, b in zip(r, s)])
                assert not all(Fraction(t).denominator == 1 for t in diff)


def test_coset_reps_singular_rejected():
    with pytest.raises(SingularMatrix):
        coset_reps(((1, 2), (2, 4)))


def test_reduce_mod_lattice_canonical():
    m = ((3, 0), (1, 2))
    h, _ = hnf(m)
    for _ in range(50):
        v = (rng.randint(-20, 20), rng.randint(-20, 20))
        r = reduce_mod_lattice(v, h)
        assert 0 <= r[0] < h[0][0] and 0 <= r[1] < h[1][1]
        diff = mat_vec(mat_inv(h), [a - b for a, b in zip(v, r)])
        assert all(Fraction(t).denominator == 1 for t in diff)


def test_snf_random():
    for _ in range(30):
        n = rng.choice([2, 3])
        m = rand_mat(n)
        d, u, v = snf(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(mat_det(u)) == 1 and abs(mat_det(v)) == 1
        diag = [d[i][i] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0


def test_lattice_hnf_overdetermined():
    cols = [(2, 0), (0, 2), (1, 1)]
    h = lattice_hnf(cols)
    assert abs(Fraction(mat_det(h))) == 2
    assert h == ((1, 0), (1, 2))


def test_lattice_hnf_rank_deficient():
    # fewer than n columns, a zero column, dependent columns: no full rank
    for cols in ([(1, 0)], [(1, 0), (0, 0)], [(1, 2), (2, 4), (3, 6)]):
        with pytest.raises(SingularMatrix):
            lattice_hnf(cols)


# --- MultiPoly ----------------------------------------------------------------

def test_multipoly_ring_axioms():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert p.evaluate((Fraction(3), Fraction(2))) == 5


def test_multipoly_homogeneous_components():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = x * y + x + MultiPoly.constant(2, 7)
    comps = p.homogeneous_components()
    assert set(comps) == {0, 1, 2}
    assert comps[2] == x * y


def test_multipoly_compose_matrix():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = x * y
    # X -> 2X + Y, Y -> X - Y
    q = p.compose_matrix(((2, 1), (1, -1)))
    assert q == 2 * x * x - x * y - y * y


def test_multipoly_divexact():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    a = (x + y) * (x - 2 * y) * (x + 3 * y)
    q = a.divexact(x - 2 * y)
    assert q == (x + y) * (x + 3 * y)
    with pytest.raises(ValueError):
        (x * x + y).divexact(x + y)


def test_poly_det_matches_numeric():
    x = MultiPoly.variable(1, 0)
    c = lambda v: MultiPoly.constant(1, v)
    mat = [[x + c(1), c(2), c(0)],
           [c(3), x, c(1)],
           [c(1), c(1), x - c(2)]]
    det = poly_det(mat)
    for t in (Fraction(0), Fraction(1), Fraction(-3), Fraction(5, 2)):
        numeric = mat_det(tuple(tuple(e.evaluate((t,)) for e in row) for row in mat))
        assert det.evaluate((t,)) == numeric


# --- resultant norm forms ------------------------------------------------------

def xvar(n, i):
    return MultiPoly.variable(n, i)


def test_resultant_norm_sqrt5():
    # f = t^2 - 5, g = X1 + t X2 -> X1^2 - 5 X2^2
    g = [xvar(2, 0), xvar(2, 1)]
    p = resultant_norm([-5, 0, 1], g)
    x1, x2 = xvar(2, 0), xvar(2, 1)
    assert p == x1 * x1 - 5 * x2 * x2


def test_resultant_norm_degree_one():
    c = MultiPoly.constant(1, Fraction(7, 3))
    assert resultant_norm([-1, 1], [c]) == c


def test_resultant_norm_shifted_sqrt2():
    # f = t^2 - 2, g = X1 + (1 + t) X2 -> X1^2 + 2 X1 X2 - X2^2
    x1, x2 = xvar(2, 0), xvar(2, 1)
    g = [x1 + x2, x2]
    p = resultant_norm([-2, 0, 1], g)
    assert p == x1 * x1 + 2 * x1 * x2 - x2 * x2


def test_resultant_norm_homogeneous_degree_n():
    x1, x2 = xvar(2, 0), xvar(2, 1)
    for f in ([-5, 0, 1], [-2, -1, 1], [3, -4, 1]):
        p = resultant_norm(f, [x1 + 2 * x2, x2 - x1])
        assert p.is_homogeneous() and p.degree() == 2


def test_resultant_norm_cubic_matches_eval():
    # f = t^3 - 3t - 1 (totally real cubic); compare against root-free
    # evaluation: resultant at numeric X equals product over companion
    # eigenvalues, checked via the characteristic identity Res = det g(C_f)
    x1, x2, x3 = (xvar(3, i) for i in range(3))
    f = [-1, -3, 0, 1]
    g = [x1, x2, x3]  # x1 + t x2 + t^2 x3
    p = resultant_norm(f, g)
    assert p.is_homogeneous() and p.degree() == 3
    # companion-matrix oracle at specific points
    comp = ((0, 0, 1), (1, 0, 3), (0, 1, 0))
    for pt in [(1, 0, 0), (0, 1, 0), (2, -1, 3), (5, 2, 1)]:
        m = tuple(tuple(pt[0] * identity(3)[i][j] + pt[1] * comp[i][j]
                        + pt[2] * mat_mul(comp, comp)[i][j] for j in range(3))
                  for i in range(3))
        assert p.evaluate([Fraction(t) for t in pt]) == mat_det(m)


def test_resultant_norm_preconditions():
    x1 = xvar(1, 0)
    with pytest.raises(DegreeError):
        resultant_norm([0, 2], [x1])  # not monic
    with pytest.raises(DegreeError):
        resultant_norm([-1, 1], [x1, x1])  # deg_t too large


def test_intval_and_is_prime():
    assert [_intval(n, 3) for n in (1, -3, 18, 3 ** 7 * 5)] == [0, 1, 2, 7]
    # p < 2 has no valuation: at p = 1 stripping p would never end
    for n, p in ((5, 1), (5, 0), (5, -3), (0, 3)):
        with pytest.raises(ValueError):
            _intval(n, p)
    assert [n for n in range(-3, 30) if _is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("degree", [0, 1, 2, 5])
def test_forward_extend_steps_a_polynomial(degree):
    # from its values at 0..d, a polynomial of degree d is stepped through
    # count values or more, each congruent to the direct evaluation, at
    # counts below, at and above d + 1; the iterator is lazy
    mod = 3 ** 7
    coeffs = [rng.randint(-50, 50) for _ in range(degree + 1)]

    def f(x):
        return sum(c * x ** i for i, c in enumerate(coeffs))

    for count in (1, degree + 1, 40):
        got = forward_extend([f(x) for x in range(degree + 1)], count, mod)
        assert iter(got) is got
        got = list(got)
        assert len(got) >= count
        assert [g % mod for g in got] == [f(x) % mod for x in range(len(got))]
