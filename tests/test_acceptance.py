"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here: exact equality for rational values,
and for the p-adic criteria a fixed epsilon cap stated in each test.
"""

import random
import time
from fractions import Fraction

from eisenzeta.cocycle import (CocycleArgs, GammaEllMatrix,
                               first_column_matrix, module_action, psi_ell)
from eisenzeta.cyclotomic import CycloElement
from eisenzeta.dedekind import (LinearFormModL, LinearForms, b1_L_z_fast,
                                b_L_z, b_L_z_direct)
from eisenzeta.exact import MultiPoly, mat_det, mat_inv, mat_vec
from eisenzeta.numberfield import Ideal, NumberField, prime_over
from eisenzeta.padic import (MeasureHandle, PadicInt, agreement_precision,
                             integrate_cells, oov_integrals,
                             _poly_residue_evaluator, padic_zetas,
                             region_oov, region_units)
from eisenzeta.zeta import (build_zeta_data, combine_smoothing, zeta_minus_k,
                            zeta_star_minus_k)
from eisenzeta.cocycle import psi_ell_chain

from test_zeta import _walked_cosets, sqrt5_data
from zeta_oracles import zagier_zeta_minus1

rng = random.Random(0xE15E)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_exact_zeta_real_quadratic():
    t0 = time.time()
    F5, one5, z5 = sqrt5_data(11)
    assert zagier_zeta_minus1(5) == Fraction(1, 30)
    assert zeta_minus_k(z5, 1) == -4
    t5 = time.time() - t0
    assert t5 < 10
    t0 = time.time()
    F2 = NumberField([-2, 0, 1])
    one2 = Ideal.unit_ideal(F2)
    z2 = build_zeta_data(F2, one2, one2, prime_over(F2, 7), 7)
    assert zagier_zeta_minus1(8) == Fraction(1, 12)
    assert zeta_minus_k(z2, 1) == -4
    t2 = time.time() - t0
    assert t2 < 10
    report(1, f"zeta(-1) = -4 for Q(sqrt5)/c11 ({t5:.1f}s) and "
              f"Q(sqrt2)/c7 ({t2:.1f}s), Siegel/Zagier oracle confirmed")


def _rand_gamma(n, ell, entry=3):
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


def _admissible_forms(n, sigmas, m=1):
    while True:
        q = LinearForms([[Fraction(rng.randint(-7, 7), rng.randint(1, 4))
                          for _ in range(n)] for _ in range(m)])
        try:
            q.sign_matrix()
            for s in sigmas:
                q.sign_matrix(s)
            return q
        except ValueError:
            continue


def test_criterion_2_integrality_sweep():
    t0 = time.time()
    count = 0
    termwise = 0
    one_poly = {2: MultiPoly.constant(2, 1), 3: MultiPoly.constant(3, 1)}
    while count < 200:
        ell = rng.choice([3, 5, 7, 11])
        n = rng.choice([2, 3])
        tup = tuple(_rand_gamma(n, ell, entry=2 if n == 3 else 3)
                    for _ in range(n))
        sigma = first_column_matrix(tup)
        if mat_det(sigma) == 0:
            continue
        q = _admissible_forms(n, [sigma])
        v = tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, ell]))
                  for _ in range(n))
        val = psi_ell(tup, CocycleArgs(one_poly[n], q, v), ell)
        den = val.denominator
        while den % ell == 0:
            den //= ell
        assert den == 1, f"denominator {val.denominator} not an ell-power"
        count += 1
        if ell > n + 1 and termwise < 40:
            # termwise integrality of the level-set pieces (single form)
            from eisenzeta.dedekind import sigma_ell
            from eisenzeta.exact import coset_reps
            sl = sigma_ell(sigma, ell)
            L = LinearFormModL(ell, [int(x) for x in sigma[0]])
            signs = q.sign_matrix(sigma)
            inv = mat_inv(sl)
            pv = (v[0] * ell,) + tuple(v[1:])
            for x in coset_reps(sl)[:4]:
                y = mat_vec(inv, [xi + vi for xi, vi in zip(x, pv)])
                piece = b1_L_z_fast(L, y, signs)[(-x[0]) % ell]
                assert piece.denominator == 1
                termwise += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    report(2, f"200 randomized instances have ell-power denominators; "
              f"{termwise} termwise values integral for ell > n+1 "
              f"({elapsed:.0f}s)")


def test_criterion_3_cocycle_relation_and_equivariance():
    t0 = time.time()
    done = 0
    ell = 5
    while done < 50:
        g = [_rand_gamma(2, ell) for _ in range(3)]
        pairs = [(g[1], g[2]), (g[0], g[2]), (g[0], g[1])]
        sigmas = [first_column_matrix(t) for t in pairs]
        if any(mat_det(s) == 0 for s in sigmas):
            continue
        q = _admissible_forms(2, sigmas)
        v = (Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])),
             Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])))
        args = CocycleArgs(MultiPoly.constant(2, 1), q, v)
        total = psi_ell(pairs[0], args, ell) - psi_ell(pairs[1], args, ell) \
            + psi_ell(pairs[2], args, ell)
        assert total == 0
        done += 1
    done3 = 0
    while done3 < 20:
        g = [_rand_gamma(3, ell, entry=2) for _ in range(4)]
        triples = [tuple(g[j] for j in range(4) if j != i) for i in range(4)]
        sigmas = [first_column_matrix(t) for t in triples]
        if any(mat_det(s) == 0 for s in sigmas):
            continue
        q = _admissible_forms(3, sigmas)
        v = tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                  for _ in range(3))
        args = CocycleArgs(MultiPoly.constant(3, 1), q, v)
        total = Fraction(0)
        for i, t in enumerate(triples):
            total += (-1) ** i * psi_ell(t, args, ell)
        assert total == 0
        done3 += 1
    equi = 0
    while equi < 10:
        gamma = _rand_gamma(2, ell, entry=2)
        a = tuple(_rand_gamma(2, ell) for _ in range(2))
        ga = tuple(gamma @ ai for ai in a)
        s1, s2 = first_column_matrix(a), first_column_matrix(ga)
        if mat_det(s1) == 0 or mat_det(s2) == 0:
            continue
        try:
            q = _admissible_forms(2, [s1, s2])
            v = (Fraction(1, 3), Fraction(rng.randint(-3, 3), 2))
            args = CocycleArgs(MultiPoly.constant(2, 1), q, v)
            lhs = psi_ell(ga, args, ell)
            rhs = module_action(gamma.mat, lambda ar: psi_ell(a, ar, ell), args)
        except ValueError:
            continue
        assert lhs == rhs
        equi += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    report(3, f"50 cocycle triples (n=2), 20 quadruples (n=3), and "
              f"{equi} equivariance instances hold exactly ({elapsed:.0f}s)")


def test_criterion_4_cyclotomic_fast_path():
    from eisenzeta.bernoulli import periodic_B
    from eisenzeta.dedekind import _factor_row
    t0 = time.time()
    checked = 0
    for ell in (3, 5, 7):
        for n in (2, 3):
            for _ in range(17):
                L = LinearFormModL(ell, [rng.randint(1, ell - 1)
                                         for _ in range(n)])
                z = rng.randint(0, ell - 1)
                x = tuple(rng.choice([
                    Fraction(rng.randint(-8, 8)),
                    Fraction(rng.randint(-20, 20), rng.randint(2, 9)),
                    Fraction(rng.randint(1, 12), ell)]) for _ in range(n))
                s = tuple(tuple(rng.choice([1, -1]) for _ in range(n))
                          for _ in range(rng.choice([1, 2])))
                assert b1_L_z_fast(L, x, s)[z] == \
                    b_L_z_direct((1,) * n, L, z, x, s)
                checked += 1
    assert checked >= 100
    # timing at ell = 7, n = 3, cold caches for the fast path: the one-z
    # read, so that the ratio measures one value against the direct sum
    inputs = []
    for _ in range(40):
        L = LinearFormModL(7, [rng.randint(1, 6) for _ in range(3)])
        z = rng.randint(0, 6)
        x = tuple(Fraction(rng.randint(-15, 15), rng.randint(2, 9))
                  for _ in range(3))
        s = ((rng.choice([1, -1]),) * 3,)
        inputs.append((L, z, x, s))
    # the memos the convolution reads start empty for the timed pass: the
    # permuted factor rows and the single values of the lead
    _factor_row.cache_clear()
    periodic_B.cache_clear()
    t1 = time.perf_counter()
    fast = [b_L_z((1, 1, 1), L, z, x, s) for L, z, x, s in inputs]
    t_fast = time.perf_counter() - t1
    t1 = time.perf_counter()
    direct = [b_L_z_direct((1, 1, 1), L, z, x, s) for L, z, x, s in inputs]
    t_direct = time.perf_counter() - t1
    assert fast == direct
    ratio = t_direct / t_fast
    assert ratio >= 10, f"speedup only {ratio:.1f}x"
    report(4, f"fast path == direct on {checked} inputs; speedup "
              f"{ratio:.0f}x at ell=7, n=3 ({time.time()-t0:.0f}s)")


def test_criterion_5_measure_integral_consistency():
    # epsilon cap pinned at 2; observed deficit is 0 for this data
    t0 = time.time()
    F, one, z = sqrt5_data(11)
    h = MeasureHandle(z, 3)
    x1 = MultiPoly.variable(2, 0)
    x2 = MultiPoly.variable(2, 1)
    polys = [z.P, z.P * z.P, x1 * x2, x1 * x1 + 3 * x2,
             MultiPoly(2, {(1, 3): Fraction(2), (0, 1): Fraction(1, 2)})]
    exact = [psi_ell_chain(z.chain, CocycleArgs(P, z.Qsingle[0], z.v), z.ell)
             for P in polys]
    deficits = []
    for M in range(3, 8):
        work = M + 4
        evs = [_poly_residue_evaluator(h, P, work) for P in polys]
        residues = integrate_cells(h, None, evs, M, work)
        for res, ex in zip(residues, exact):
            got = PadicInt(3, work, res)
            target = PadicInt.from_fraction(ex, 3, work)
            deficits.append(M - agreement_precision(got, target))
    eps = max(0, max(deficits))
    assert eps <= 2, f"single epsilon exceeds cap: {eps}"
    elapsed = time.time() - t0
    assert elapsed < 600
    report(5, f"Riemann sums at M=3..7 agree with the exact cocycle to "
              f"3^(M-eps) with eps = {eps} across {len(deficits)} "
              f"(P, M) pairs ({elapsed:.0f}s)")


def test_criterion_6_interpolation():
    # epsilon cap pinned at 1; observed deficit is 0
    t0 = time.time()
    F, one, z = sqrt5_data(11)
    h = MeasureHandle(z, 3)
    region = region_units(h, one)
    divisors = [(0, 1, z), (1, 9, z)]
    M = 6
    deficits = []
    ks = list(range(5))
    for k, val in zip(ks, padic_zetas(h, region, ks, M)):
        star = zeta_star_minus_k(z, k, divisors)
        target = PadicInt.from_fraction(star, 3, val.prec)
        deficits.append(M - agreement_precision(val, target))
    eps = max(0, max(deficits))
    assert eps <= 1, f"interpolation deficit {eps} exceeds cap"
    elapsed = time.time() - t0
    assert elapsed < 900
    report(6, f"padic zeta at M=6 matches exact zeta* for k=0..4 mod "
              f"3^(6-eps), eps = {eps} ({elapsed:.0f}s)")


def test_criterion_7_order_of_vanishing():
    # epsilon cap pinned at 1 for the k < r vanishing; k = r reported only
    t0 = time.time()
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c19 = prime_over(F, 19)
    z19 = build_zeta_data(F, one, one, c19, 19)
    h = MeasureHandle(z19, 11)
    pi1 = F.element((4, -1))   # generates (11, theta - 4)
    pi2 = F.element((4, 1))    # generates (11, theta + 4)
    region = region_oov(h, one, [pi1, pi2])
    assert region.cell_count() == 100
    k2_values = {}
    eps_cap = 1
    for M in (2, 3):
        v0, v1, v2 = oov_integrals(h, region, [0, 1, 2], M)
        assert v0.valuation() >= M - eps_cap
        assert v1.valuation() >= M - eps_cap
        k2_values[M] = v2
    agree = agreement_precision(k2_values[2], k2_values[3])
    elapsed = time.time() - t0
    assert elapsed < 1800
    report(7, f"k=0,1 integrals vanish to 11^(M'-eps) for M'=2,3 (eps cap "
              f"{eps_cap}); k=2 reported: residue {k2_values[3].res} with "
              f"valuation {k2_values[3].valuation()} (no vanishing asserted), "
              f"levels agree to 11^{agree} ({elapsed:.0f}s)")


def test_criterion_8_invariance_suite():
    t0 = time.time()
    configs = [([-5, 0, 1], 11), ([-2, 0, 1], 7)]
    for poly, ell in configs:
        F = NumberField(poly)
        one = Ideal.unit_ideal(F)
        c = prime_over(F, ell)
        z = build_zeta_data(F, one, one, c, ell)
        base = [zeta_minus_k(z, k) for k in range(3)]
        # class representative: totally positive principal multiple
        alpha = None
        for cand in ([Fraction(5, 2), Fraction(1, 2)], [3, 1], [5, 2], [4, 1]):
            el = F.element([Fraction(t) for t in cand])
            if el.is_totally_positive() and \
                    Ideal.from_generators(F, [el]).is_coprime(c):
                alpha = el
                break
        a2 = Ideal.from_generators(F, [alpha])
        z_class = build_zeta_data(F, one, a2, c, ell)
        assert [zeta_minus_k(z_class, k) for k in range(3)] == base
        # adapted basis change (unimodular, adaptation-preserving)
        w1, w2 = z.w
        z_basis = build_zeta_data(F, one, one, c, ell, ws=[w1 + ell * w2, w2])
        z_basis2 = build_zeta_data(F, one, one, c, ell, ws=[-w1, w1 + w2])
        assert [zeta_minus_k(z_basis, k) for k in range(3)] == base
        assert [zeta_minus_k(z_basis2, k) for k in range(3)] == base
        # unit orientation
        z_unit = build_zeta_data(F, one, one, c, ell,
                                 units=[z.units[0].inverse()])
        assert [zeta_minus_k(z_unit, k) for k in range(3)] == base
        # embedding order neutrality of the orientation sign
        from eisenzeta.numberfield import _interval_det
        n = F.n
        det = None
        for _ in range(100):
            entries = [[F.embed_interval(z.w[j], n - 1 - i) for j in range(n)]
                       for i in range(n)]
            det = _interval_det(entries)
            if det[0] > 0 or det[1] < 0:
                break
            for i in range(n):
                F.refine_root(i)
        w_swapped = 1 if det[0] > 0 else -1
        lo, hi = F.log_embed_interval(z.units[0], 1)
        r_swapped = 1 if lo > 0 else -1
        assert (-1) ** (n - 1) * w_swapped * r_swapped == z.rho
        # single-form choice (also exercised by the built-in crosscheck)
        from eisenzeta.cocycle import psi_ell_chain as chain_eval
        for k in range(2):
            P = z.P ** k if k else MultiPoly.constant(2, 1)
            vals = {chain_eval(z.chain, CocycleArgs(P, q, z.v), ell)
                    for q in z.Qsingle}
            assert len(vals) == 1 and vals == {base[k]}
    elapsed = time.time() - t0
    assert elapsed < 600
    report(8, f"class, basis, unit-orientation, embedding-order, and "
              f"single-form invariance all exact on both fields "
              f"({elapsed:.0f}s)")


def test_criterion_9_twice_smoothed():
    t0 = time.time()
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    b = prime_over(F, 11)
    c = prime_over(F, 19)
    val = combine_smoothing(F, one, one, b, c, 1)
    assert val == 1440
    assert val == (1 - 11 ** 2) * (1 - 19 ** 2) * zagier_zeta_minus1(5)
    assert val.denominator == 1
    report(9, f"twice-smoothed value over (11, 19) at k=1 is 1440, an "
              f"integer matching the oracle ({time.time()-t0:.0f}s)")


def _B2(x):
    return x * x - x + Fraction(1, 6)


def cyclic_cubic_9_zeta_minus1():
    """Independent oracle for zeta_F(-1), F = Q(t), t^3 - 3t - 1, the cyclic
    cubic field of conductor 9: zeta(-1) L(-1, chi) L(-1, chi-bar), with
    L(-1, chi) = -B_{2,chi}/2 and B_{2,chi} = 9 sum_{a<=9} chi(a) B_2(a/9)
    evaluated exactly in Q(zeta_3)."""
    # chi(2^i mod 9) = zeta_3^i: an even character of order 3 mod 9
    log2 = {pow(2, i, 9): i for i in range(6)}
    chi = {a: i % 3 for a, i in log2.items()}
    assert all(chi[a * b % 9] == (chi[a] + chi[b]) % 3
               for a in chi for b in chi)
    assert chi[9 - 1] == 0

    def L_minus1(sign):
        B = CycloElement.zero(3)
        for a, i in chi.items():
            B = B + 9 * _B2(Fraction(a, 9)) * CycloElement.zeta_pow(3, sign * i)
        return Fraction(-1, 2) * B

    product = L_minus1(1) * L_minus1(-1)
    assert product.coords[1] == 0  # L(-1, chi-bar) is the conjugate
    zeta_q = -_B2(Fraction(0)) / 2
    return zeta_q * product.coords[0]


def test_criterion_10_cubic_zeta_oracle():
    t0 = time.time()
    zF = cyclic_cubic_9_zeta_minus1()
    assert zF == Fraction(-1, 9)
    F = NumberField([-1, -3, 0, 1])
    one = Ideal.unit_ideal(F)
    units = [F.element(u) for u in ([0, 0, 1], [1, 2, 1])]
    for ell, expected in ((17, 32), (19, 40)):
        z = build_zeta_data(F, one, one, prime_over(F, ell), ell, units=units)
        # the supplied basis (theta^2, (1 + theta)^2) walks 8 cosets; the
        # chain is built from a det +1 change of it that walks 5
        assert _walked_cosets(z) <= 5
        val = zeta_minus_k(z, 1)
        assert val == (1 - ell ** 2) * zF == expected
    report(10, f"cubic t^3-3t-1: smoothed zeta(-1) = 32 (ell=17) and 40 "
               f"(ell=19), matching (1-ell^2) * (-1/9) from L(-1, chi) L(-1, "
               f"chi-bar) in Q(zeta_3) ({time.time()-t0:.1f}s)")


def test_criterion_13_quartic_zeta_oracle():
    # F = Q(t), t^4 - 14t^2 + 9: t = sqrt2 + sqrt5 generates Q(sqrt2, sqrt5),
    # whose minimal polynomial is reducible mod every prime; the exact
    # irreducibility test admits it as it stands
    t0 = time.time()
    zQ = Fraction(-1, 12)
    zF = (zagier_zeta_minus1(8) * zagier_zeta_minus1(5)
          * zagier_zeta_minus1(40) / zQ ** 2)  # L(-1, chi) over chi_8, 5, 40
    assert zF == Fraction(7, 15)
    q = Fraction
    F = NumberField([9, 0, -14, 0, 1], integral_basis=[
        [1, 0, 0, 0], [0, q(-11, 6), 0, q(1, 6)],
        [q(1, 2), q(17, 12), 0, q(-1, 12)],
        [q(-7, 4), q(-11, 12), q(1, 4), q(1, 12)]])
    assert F.order_index == 48
    one = Ideal.unit_ideal(F)
    # eta / (eps5^2 eps10^2), eps5^2 and eps10^2, where eps2 = 1 + sqrt2,
    # eps5 = (1 + sqrt5) / 2, eps10 = 3 + sqrt10 and eta = eps2 eps5 eps10
    # is totally positive; their index in the unit group is not certified
    units = [F.element(u) for u in (
        [q(27, 2), q(-173, 12), -1, q(13, 12)],
        [q(3, 2), q(17, 12), 0, q(-1, 12)], [-2, 0, 3, 0])]
    ell = 31
    z = build_zeta_data(F, one, one, prime_over(F, ell), ell, units=units)
    val = zeta_minus_k(z, 1, crosscheck=False)
    assert val == (1 - ell ** 2) * zF == -448
    elapsed = time.time() - t0
    assert elapsed < 60
    # the unreduced basis (eta, eps5^2, eps10^2) walks 2,388 cosets as it
    # stands; the library reduces it to at most the 144 of the basis above
    unreduced = [units[0] * units[1] * units[2], units[1], units[2]]
    walked = _walked_cosets(build_zeta_data(F, one, one, prime_over(F, ell),
                                            ell, units=unreduced))
    assert walked <= 144
    report(13, f"biquadratic t^4-14t^2+9: smoothed zeta(-1) = -448 "
               f"(ell=31), matching (1-ell^2) * 7/15 from the three "
               f"quadratic subfields ({elapsed:.1f}s); the unreduced unit "
               f"basis walks {walked} cosets")
