import random
from fractions import Fraction

import pytest

import eisenzeta.cocycle as cocycle
from eisenzeta.cocycle import (CocycleArgs, CocycleChain, GammaEllMatrix,
                               bar_tuple, first_column_matrix, module_action,
                               pr_coefficients, psi_ell, psi_ell_chain,
                               symmetrized_chain)
from eisenzeta.dedekind import LinearForms, ShapeError, chain_term, d_ell
from eisenzeta.exact import (MultiPoly, NotHomogeneous, identity, mat_det,
                             mat_mul)

rng = random.Random(4242)


def rand_gamma(n, ell, entry=4):
    while True:
        rows = []
        for i in range(n):
            row = [rng.randint(-entry, entry) for _ in range(n)]
            if i > 0:
                row[0] *= ell
            rows.append(row)
        try:
            return GammaEllMatrix(rows, ell)
        except ValueError:
            continue


def sample_args(n, tuples, m=1, numer=6):
    """Forms and v valid for every sigma arising from the given tuples."""
    sigmas = [first_column_matrix(t) for t in tuples]
    while True:
        q = LinearForms([[Fraction(rng.randint(-numer, numer), rng.randint(1, 4))
                          for _ in range(n)] for _ in range(m)])
        try:
            q.sign_matrix()
            for s in sigmas:
                if mat_det(s) != 0:
                    q.sign_matrix(s)
        except ValueError:
            continue
        v = tuple(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
                  for _ in range(n))
        return q, v


def test_pr_coefficients_trivial():
    one = MultiPoly.constant(2, 1)
    assert pr_coefficients(one, identity(2)) == {(0, 0): Fraction(1)}
    x1 = MultiPoly.variable(2, 0)
    assert pr_coefficients(x1, identity(2)) == {(1, 0): Fraction(1)}


def test_pr_coefficients_expansion():
    # P = X1 X2: P(X sigma^t) = (aX1 + bX2)(cX1 + dX2) with sigma = ((a,b),(c,d)),
    # so P_(2,0) = 2ac, P_(1,1) = ad + bc, P_(0,2) = 2bd
    a, b, c, d = 2, 3, 5, 7
    P = MultiPoly.variable(2, 0) * MultiPoly.variable(2, 1)
    got = pr_coefficients(P, ((a, b), (c, d)))
    assert got == {(2, 0): 2 * a * c, (1, 1): a * d + b * c, (0, 2): 2 * b * d}


def test_pr_coefficients_reconstruction():
    # P(X sigma^t) = sum_r P_r(sigma) X^r / r!, checked against direct
    # symbolic expansion for random P and sigma
    from math import factorial
    for _ in range(10):
        n = rng.choice([2, 3])
        sigma = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        deg = rng.choice([1, 2, 3])
        P = MultiPoly(n, {tuple(rng.randint(0, deg) for _ in range(n)): rng.randint(-3, 3)
                          for _ in range(3)})
        P = MultiPoly(n, {m: c for m, c in P.coeffs.items() if sum(m) == deg})
        if P.is_zero():
            continue
        prs = pr_coefficients(P, sigma)
        expanded = P.compose_matrix(sigma)
        rebuilt = MultiPoly(n)
        for r, pr in prs.items():
            rfact = 1
            for e in r:
                rfact *= factorial(e)
            rebuilt = rebuilt + MultiPoly(n, {r: pr / rfact})
        assert rebuilt == expanded


def test_pr_requires_homogeneous():
    P = MultiPoly.variable(2, 0) + MultiPoly.constant(2, 1)
    with pytest.raises(NotHomogeneous):
        pr_coefficients(P, identity(2))


def test_gamma_matrix_validation():
    with pytest.raises(ValueError):
        GammaEllMatrix(((1, 0), (1, 1)), 5)  # first column not 0 mod 5 below row 1
    with pytest.raises(ValueError):
        GammaEllMatrix(((5, 1), (5, 5)), 5)  # det divisible by 5
    g = GammaEllMatrix(((Fraction(1, 2), 1), (Fraction(5, 2), 3)), 5)
    assert g.mat == ((1, 2), (5, 6))  # scaled to a primitive integer matrix


def test_chain_linearity():
    n, ell = 2, 5
    g = rand_gamma(n, ell)
    t = bar_tuple([g])
    q, v = sample_args(n, [t])
    args = CocycleArgs(MultiPoly.constant(n, 1), q, v)
    base = psi_ell(t, args, ell)
    assert psi_ell_chain(CocycleChain([]), args, ell) == 0
    assert psi_ell_chain(CocycleChain([(1, t), (-1, t)]), args, ell) == 0
    assert psi_ell_chain(CocycleChain([(2, t)]), args, ell) == 2 * base


def test_degenerate_sigma_is_zero():
    ell = 5
    g = rand_gamma(2, ell)
    q, v = sample_args(2, [])
    args = CocycleArgs(MultiPoly.constant(2, 1), q, v)
    assert psi_ell((g, g), args, ell) == 0  # repeated entry: parallel columns


@pytest.mark.parametrize("sigma", [((1, 1), (1, 3)), ((1, 1), (1, 1)),
                                   ((3, 1), (3, 3)), ((3, 3), (3, 3))],
                         ids=["row2", "row2-singular", "row1",
                              "row1-singular"])
def test_shape_error_singular_or_not(sigma):
    # sigma is not of the Gamma_3 shape (row 2 not divisible by 3, or row 1
    # not prime to 3): psi_ell and d_ell raise alike, whatever det sigma is
    q, v = LinearForms([[1, Fraction(1, 2)]]), (Fraction(1, 3), 0)
    tup = tuple(((sigma[0][j], 0), (sigma[1][j], 1)) for j in range(2))
    assert first_column_matrix(tup) == sigma
    with pytest.raises(ShapeError):
        psi_ell(tup, CocycleArgs(MultiPoly.constant(2, 1), q, v), 3)
    with pytest.raises(ShapeError):
        d_ell(sigma, (1, 1), q, v, 3)


def test_cocycle_relation_n2():
    ell = 5
    P = MultiPoly.constant(2, 1)
    checked = 0
    while checked < 12:
        g = [rand_gamma(2, ell) for _ in range(3)]
        pairs = [(g[1], g[2]), (g[0], g[2]), (g[0], g[1])]
        if any(mat_det(first_column_matrix(t)) == 0 for t in pairs):
            continue
        q, v = sample_args(2, pairs, m=1)
        args = CocycleArgs(P, q, v)
        total = psi_ell(pairs[0], args, ell) - psi_ell(pairs[1], args, ell) \
            + psi_ell(pairs[2], args, ell)
        assert total == 0
        checked += 1


def test_cocycle_relation_n2_nontrivial_P():
    ell = 3
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    P = x1 * x1 + 2 * x1 * x2
    checked = 0
    while checked < 6:
        g = [rand_gamma(2, ell) for _ in range(3)]
        pairs = [(g[1], g[2]), (g[0], g[2]), (g[0], g[1])]
        if any(mat_det(first_column_matrix(t)) == 0 for t in pairs):
            continue
        q, v = sample_args(2, pairs, m=2)
        args = CocycleArgs(P, q, v)
        total = psi_ell(pairs[0], args, ell) - psi_ell(pairs[1], args, ell) \
            + psi_ell(pairs[2], args, ell)
        assert total == 0
        # and for the symmetrized variant
        totalp = sum(s * psi_ell(t, args, ell, plus=True)
                     for s, t in zip((1, -1, 1), pairs))
        assert totalp == 0
        checked += 1


def test_cocycle_relation_n3():
    ell = 5
    P = MultiPoly.constant(3, 1)
    checked = 0
    while checked < 4:
        g = [rand_gamma(3, ell, entry=3) for _ in range(4)]
        triples = [tuple(g[j] for j in range(4) if j != i) for i in range(4)]
        if any(mat_det(first_column_matrix(t)) == 0 for t in triples):
            continue
        q, v = sample_args(3, triples, m=1)
        args = CocycleArgs(P, q, v)
        total = Fraction(0)
        for i, t in enumerate(triples):
            total += (-1) ** i * psi_ell(t, args, ell)
        assert total == 0
        checked += 1


def test_equivariance():
    ell = 5
    checked = 0
    while checked < 6:
        n = 2
        gamma = rand_gamma(n, ell, entry=3)
        a = tuple(rand_gamma(n, ell) for _ in range(n))
        ga = tuple(gamma @ ai for ai in a)
        if mat_det(first_column_matrix(a)) == 0 or \
                mat_det(first_column_matrix(ga)) == 0:
            continue
        q, v = sample_args(n, [a, ga])
        x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        P = rng.choice([MultiPoly.constant(2, 1), x1 * x2, x1 + x2])
        args = CocycleArgs(P, q, v)
        try:
            lhs = psi_ell(ga, args, ell)
            rhs = module_action(gamma.mat,
                                lambda ar: psi_ell(a, ar, ell), args)
        except ValueError:
            continue  # a transformed form degenerated; resample
        assert lhs == rhs
        checked += 1


def test_module_action_identity():
    n, ell = 2, 5
    g = rand_gamma(n, ell)
    t = bar_tuple([g])
    q, v = sample_args(n, [t])
    args = CocycleArgs(MultiPoly.constant(n, 1), q, v)
    val = psi_ell(t, args, ell)
    assert module_action(identity(n), lambda ar: psi_ell(t, ar, ell), args) == val


def test_distribution_relation_scalar_matrix():
    # gamma = lambda * identity reproduces the distribution relation
    n, ell = 2, 5
    lam = 2
    checked = 0
    while checked < 4:
        g = tuple(rand_gamma(n, ell) for _ in range(n))
        if mat_det(first_column_matrix(g)) == 0:
            continue
        q, v = sample_args(n, [g])
        P = MultiPoly.variable(2, 0) * MultiPoly.variable(2, 1)
        args = CocycleArgs(P, q, v)
        lhs = psi_ell(g, args, ell)
        scal = tuple(tuple(lam * int(i == j) for j in range(n)) for i in range(n))
        rhs = module_action(scal, lambda ar: psi_ell(g, ar, ell), args)
        assert lhs == rhs
        checked += 1


def test_positive_scaling_of_forms():
    n, ell = 2, 7
    g = tuple(rand_gamma(n, ell) for _ in range(n))
    q, v = sample_args(n, [g], m=2)
    P = MultiPoly.constant(n, 1)
    base = psi_ell(g, CocycleArgs(P, q, v), ell)
    scaled = q.scale_row(0, Fraction(7, 3)).scale_row(1, 5)
    assert psi_ell(g, CocycleArgs(P, scaled, v), ell) == base


def test_plus_invariance_under_negation():
    n, ell = 2, 5
    g = tuple(rand_gamma(n, ell) for _ in range(n))
    q, v = sample_args(n, [g], m=2)
    P = MultiPoly.constant(n, 1)
    assert psi_ell(g, CocycleArgs(P, q, v), ell, plus=True) == \
        psi_ell(g, CocycleArgs(P, q.negate(), v), ell, plus=True)
    # and psi_plus is the average of psi at Q and -Q
    avg = (psi_ell(g, CocycleArgs(P, q, v), ell)
           + psi_ell(g, CocycleArgs(P, q.negate(), v), ell)) / 2
    assert psi_ell(g, CocycleArgs(P, q, v), ell, plus=True) == avg


def test_q_linearity_in_P():
    n, ell = 2, 5
    g = tuple(rand_gamma(n, ell) for _ in range(n))
    q, v = sample_args(n, [g])
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    P1, P2 = x1 * x1, x1 * x2 + 3 * x2 * x2
    v1 = psi_ell(g, CocycleArgs(P1, q, v), ell)
    v2 = psi_ell(g, CocycleArgs(P2, q, v), ell)
    comb = psi_ell(g, CocycleArgs(2 * P1 + P2, q, v), ell)
    assert comb == 2 * v1 + v2


def test_term_memos_keep_ell_and_P_apart():
    # the matrices lie in Gamma_3 and in Gamma_5; each (P, ell) read in
    # either order after the others equals its value on empty memos, which a
    # weight table kept for another ell or P would not give
    mats = ([[1, 2], [15, 31]], [[2, 1], [15, 8]])
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    q, v = LinearForms([[1, Fraction(1, 2)]]), (Fraction(1, 3), 0)
    cases = [(P, ell) for P in (x1 * x1 + 3 * x2 * x2, x1 * x2)
             for ell in (3, 5)]

    def value(P, ell):
        tup = tuple(GammaEllMatrix(m, ell) for m in mats)
        return psi_ell(tup, CocycleArgs(P, q, v), ell)

    want = []
    for P, ell in cases:
        cocycle._weights.cache_clear()
        chain_term.cache_clear()
        want.append(value(P, ell))
    assert len(set(want)) == len(want)
    for order in (1, -1):
        assert [value(P, ell) for P, ell in cases[::order]] == want[::order]


def test_integrality_sweep_small():
    # denominators of psi(A, 1, Q, v) with a single form divide a power of ell
    for _ in range(20):
        ell = rng.choice([3, 5, 7, 11])
        n = rng.choice([2, 3])
        g = tuple(rand_gamma(n, ell, entry=3) for _ in range(n))
        if mat_det(first_column_matrix(g)) == 0:
            continue
        q, v = sample_args(n, [g], m=1)
        val = psi_ell(g, CocycleArgs(MultiPoly.constant(n, 1), q, v), ell)
        den = val.denominator
        while den % ell == 0:
            den //= ell
        assert den == 1


def test_symmetrized_chain_shape():
    ell = 5
    a1 = rand_gamma(3, ell)
    a2 = rand_gamma(3, ell)
    ch = symmetrized_chain([a1, a2])
    assert len(ch) == 2
    coeffs = sorted(c for c, _ in ch.terms)
    assert coeffs == [-1, 1]
    for _, t in ch.terms:
        assert t[0].mat == identity(3)
        assert len(t) == 3


def test_bar_tuple_products():
    ell = 5
    a1, a2 = rand_gamma(3, ell), rand_gamma(3, ell)
    t = bar_tuple([a1, a2])
    assert t[1].mat == a1.mat
    assert t[2].mat == mat_mul(a1.mat, a2.mat)


def test_integrality_multi_form():
    # with an m-tuple of forms the denominator divides m * ell^t
    for _ in range(8):
        ell = rng.choice([3, 5, 7])
        m = 2
        g = tuple(rand_gamma(2, ell) for _ in range(2))
        if mat_det(first_column_matrix(g)) == 0:
            continue
        q, v = sample_args(2, [g], m=m)
        val = psi_ell(g, CocycleArgs(MultiPoly.constant(2, 1), q, v), ell)
        den = (m * val).denominator
        while den % ell == 0:
            den //= ell
        assert den == 1
