import random
from fractions import Fraction

import pytest

import eisenzeta
from eisenzeta.cocycle import CocycleArgs, GammaEllMatrix, psi_ell
from eisenzeta.exact import MultiPoly, mat_inv
from eisenzeta.numberfield import Ideal, NumberField, prime_over
from eisenzeta.padic import (L_assemble, MeasureHandle, PadicInt,
                             PrecisionExhausted, Region, _intval,
                             _poly_residue_evaluator, _series_loss,
                             agreement_precision, frac_valuation,
                             integrate_cells, integrate_poly, iwasawa_log,
                             oov_integral, oov_integrals, padic_exp,
                             padic_zeta, padic_zeta_weight, padic_zetas,
                             region_b_units, region_box, region_oov,
                             region_units, teichmuller, unit_power_character)
from eisenzeta.zeta import build_zeta_data, zeta_minus_k, zeta_star_minus_k

rng = random.Random(31415)


def sqrt5_setup(ell=11, p=3, a=None, f=1):
    """Q(sqrt 5) data with c above ell; a is the prime above the given
    rational prime (O when None) and f the ideal (f)."""
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c = prime_over(F, ell)
    fi = one if f == 1 else Ideal.from_generators(F, [F.from_rational(f)])
    ai = one if a is None else prime_over(F, a)
    z = build_zeta_data(F, fi, ai, c, ell)
    return F, fi, z, MeasureHandle(z, p)


# --- PadicInt -------------------------------------------------------------------

def test_padic_int_ring_ops():
    a = PadicInt(5, 6, 7)
    b = PadicInt(5, 6, 11)
    assert (a + b).res == 18
    assert (a * b).res == 77
    assert (a - b).valuation() == 0
    assert (a * b.inverse() * b) == a


def test_padic_precision_tracking():
    a = PadicInt(5, 4, 7)
    b = PadicInt(5, 6, 11)
    assert (a + b).prec == 4
    # worst case: min(prec_a + v(b), prec_b + v(a)) = min(4+0, 6+2) = 4
    c = PadicInt(5, 4, 50)
    assert (c * b).prec == 4
    assert (c * b).res % 5 ** 4 == (50 * 11) % 5 ** 4
    # the divisible factor does raise the precision of the other error term
    d = PadicInt(5, 6, 50)
    assert (d * a).prec == 6  # min(6 + v(7)=0 -> 6, 4 + v(50)=2 -> 6)


def test_padic_exact_zero_and_zeroth_power():
    x = PadicInt(3, 5, 7)
    zero = x * 0
    assert zero.res == 0 and zero.prec == x.prec
    one = x ** 0
    assert one.res == 1 and one.prec == x.prec
    assert x ** 3 == PadicInt(3, 5, 7 ** 3)
    with pytest.raises(ValueError):
        x ** -1


def test_padic_from_fraction_and_valuation():
    x = PadicInt.from_fraction(Fraction(7, 3), 5, 4)
    assert (x * PadicInt(5, 4, 3)).res == 7
    assert frac_valuation(Fraction(50, 7), 5) == 2
    assert frac_valuation(Fraction(7, 50), 5) == -2
    with pytest.raises(ValueError):
        PadicInt.from_fraction(Fraction(1, 5), 5, 4)


def test_teichmuller():
    for p in (3, 5, 7):
        for a in range(1, p):
            w = teichmuller(a, p, 8)
            assert pow(w, p - 1, p ** 8) == 1
            assert w % p == a % p
    assert teichmuller(5, 2, 6) == 1       # 5 = 1 mod 4
    assert teichmuller(3, 2, 6) == 2 ** 6 - 1  # 3 = -1 mod 4


def test_iwasawa_log_basics():
    p = 5
    one = PadicInt(p, 8, 1)
    assert iwasawa_log(one).res == 0
    # log kills Teichmuller lifts
    t = PadicInt(p, 8, teichmuller(2, p, 8))
    assert iwasawa_log(t).res == 0
    # homomorphism: log((1+p)^2) = 2 log(1+p)
    x = PadicInt(p, 8, 1 + p)
    x2 = x * x
    lhs = iwasawa_log(x2)
    rhs = iwasawa_log(x)
    assert (lhs - (rhs + rhs)).valuation() >= min(lhs.prec, rhs.prec) - 1
    # Iwasawa branch: log(p * u) = log(u)
    u = PadicInt(p, 8, 1 + p)
    pu = PadicInt(p, 8, p * (1 + p))
    assert (iwasawa_log(pu) - iwasawa_log(u)).valuation() >= 6


def test_iwasawa_log_p2():
    x = PadicInt(2, 10, 5)  # 5 = 1 + 4
    lg = iwasawa_log(x)
    assert lg.valuation() >= 2
    y = PadicInt(2, 10, 25)
    assert (iwasawa_log(y) - (lg + lg)).valuation() >= 8


def test_log_exhausted():
    with pytest.raises(PrecisionExhausted):
        iwasawa_log(PadicInt(5, 4, 0))


def test_exp_log_inverse():
    p = 7
    x = PadicInt(p, 9, 1 + 2 * p)
    lg = iwasawa_log(x)
    back = padic_exp(lg)
    assert (back - x).valuation() >= 8


def test_unit_power_character():
    p = 5
    x = PadicInt(p, 8, 1 + p)
    sq = unit_power_character(x, 2)
    assert (sq - x * x).valuation() >= 7
    # negative exponents through p-adic s
    inv = unit_power_character(x, -1)
    assert (inv * x - PadicInt(p, 8, 1)).valuation() >= 7


# --- measure ---------------------------------------------------------------------

def _box_by_two_sums(h, a, r):
    """The box value from the two-sum smoothing d_ell_direct, which shares
    no code with the coset decomposition behind measure_box."""
    from eisenzeta.cocycle import first_column_matrix
    from eisenzeta.dedekind import d_ell_direct
    from eisenzeta.exact import mat_det
    w = [(Fraction(vi) + ai) / h.p ** r for vi, ai in zip(h.z.v, a)]
    total = Fraction(0)
    for coeff, tup in h.z.chain.terms:
        sigma = first_column_matrix(tup)
        det = mat_det(sigma)
        if det:
            sign = (-1) ** h.n * (1 if det > 0 else -1)
            total += coeff * sign * d_ell_direct(sigma, (1,) * h.n, h.Q, w,
                                                 h.ell)
    return total


def test_measure_box_matches_oracle_and_kernel():
    F, one, z, h = sqrt5_setup()
    k1 = h.cell_numerators(1)
    for j0 in range(3):
        row = k1.row((j0,))
        for j1 in range(3):
            exact = h.measure_box((j0, j1), 1)
            assert exact == _box_by_two_sums(h, (j0, j1), 1)
            assert exact == Fraction(row[j1], h.mu_den)


def test_measure_additivity_and_total_mass():
    F, one, z, h = sqrt5_setup()
    assert h.total_mass() == zeta_minus_k(z, 0)
    for a in ((0, 0), (1, 2), (2, 2)):
        parent = h.measure_box(a, 1)
        children = sum(h.measure_box((a[0] + 3 * d0, a[1] + 3 * d1), 2)
                       for d0 in range(3) for d1 in range(3))
        assert parent == children


def test_measure_representative_independence():
    F, one, z, h = sqrt5_setup()
    assert h.measure_box((1, 2), 1) == h.measure_box((1 + 3, 2 - 6), 1)


def test_zero_measure_for_degenerate_chain():
    # a chain whose first columns are parallel gives the zero measure
    F, one, z, h = sqrt5_setup()
    from eisenzeta.cocycle import CocycleChain
    from eisenzeta.zeta import ZetaData
    g = z.chain.terms[0][1][1]
    bad_chain = CocycleChain([(1, (g, g))])
    z2 = ZetaData(z.field, z.f, z.a, z.c, z.ell, z.w, z.wstar, z.P, z.Qfull,
                  z.Qsingle, z.v, z.units, z.rho, bad_chain)
    h2 = MeasureHandle(z2, 3)
    assert h2.total_mass() == 0
    assert h2.measure_box((1, 1), 1) == 0


def test_integrate_poly_convergence():
    F, one, z, h = sqrt5_setup()
    exact = zeta_minus_k(z, 1)
    deficits = []
    for M in (2, 3, 4):
        val = integrate_poly(h, z.P, M)
        target = PadicInt.from_fraction(exact, 3, val.prec)
        deficits.append(M - agreement_precision(val, target))
    assert max(deficits) <= 0  # epsilon = 0 observed for this data
    assert deficits[-1] <= deficits[0]  # not growing with M


def test_integrate_constant_is_total_mass():
    F, one, z, h = sqrt5_setup()
    one_poly = MultiPoly.constant(2, 1)
    val = integrate_poly(h, one_poly, 3)
    target = PadicInt.from_fraction(h.total_mass(), 3, val.prec)
    assert agreement_precision(val, target) >= val.prec


def test_sublattice_integral_matches_transformed_cocycle():
    # integral over v + a + M(X) against the measure equals the cocycle at
    # the M-transformed arguments, p-adically to the Riemann level
    F, one, z, h = sqrt5_setup()
    p = 3
    Mmat = ((p, 0), (0, 1))
    a = (1, 2)
    minv = mat_inv(Mmat)
    tup = tuple(GammaEllMatrix(
        tuple(tuple(Fraction(mi[r][s]) for s in range(2)) for r in range(2)),
        z.ell) for mi in [  # M^-1 A_i, scaled to integrality internally
            tuple(tuple(sum(minv[r][t] * Fraction(g.mat[t][s]) for t in range(2))
                        for s in range(2)) for r in range(2))
            for g in z.chain.terms[0][1]])
    newP = z.P.compose_matrix(Mmat)
    newQ = z.Qsingle[0].transform(minv)
    newv = tuple(sum(minv[r][t] * (z.v[t] + a[t]) for t in range(2))
                 for r in range(2))
    rho = z.chain.terms[0][0]
    exact = rho * psi_ell(tup, CocycleArgs(newP, newQ, newv), z.ell)
    # Riemann side: sum over cells congruent to a mod M(Z^2)
    for level in (2, 3):
        pl = p ** level
        mask = frozenset((x % p, y % p) for x in range(a[0] % p, p, p)
                         for y in range(p))
        region = Region(p, 1, mask, "box")
        from eisenzeta.padic import integrate_cells, _poly_residue_evaluator
        evP = _poly_residue_evaluator(h, z.P, level + 6)
        res = integrate_cells(h, region, [evP], level, level + 6)[0]
        got = PadicInt(p, level + 6, res)
        target = PadicInt.from_fraction(exact, p, level + 6)
        assert agreement_precision(got, target) >= level - 1


# --- regions ---------------------------------------------------------------------

# class representatives a prime to p: the regions are the same sets of
# local units for every a, although x = w . (v + j) then carries
# denominators prime to p
@pytest.mark.parametrize("a, f, ell, p, units", [
    (None, 1, 11, 3, 8),   # F_9 units among 9 residues
    (19, 1, 11, 3, 8),
    (29, 1, 11, 3, 8),
    (11, 3, 19, 7, 48),    # F_49 units among 49 residues
    (19, 3, 11, 7, 48),
], ids=["O", "a19", "a29", "f3-a11-c19", "f3-a19-c11"])
def test_region_units_inert(a, f, ell, p, units):
    F, fi, z, h = sqrt5_setup(ell, p, a, f)
    r = region_units(h, fi)
    assert r.t == 1
    assert r.cell_count() == units


@pytest.mark.parametrize("a", [None, 19, 29], ids=["O", "a19", "a29"])
def test_region_masks_partition(a):
    # units + (v=1 shell) + (v>=2 core) tile everything at level 2
    F, one, z, h = sqrt5_setup(a=a)
    b3 = Ideal.from_generators(F, [F.from_rational(3)])
    ru = region_units(h, one)
    rb = region_b_units(h, one, b3, [b3])
    lift_units = {(j0, j1) for j0 in range(9) for j1 in range(9)
                  if (j0 % 3, j1 % 3) in ru.mask}
    assert len(lift_units) == 72
    assert lift_units.isdisjoint(rb.mask)
    assert len(rb.mask) == 8
    rest = {(j0, j1) for j0 in range(9) for j1 in range(9)} \
        - lift_units - set(rb.mask)
    assert len(rest) == 1  # the v >= 2 core


@pytest.mark.parametrize("a", [None, 29], ids=["O", "a29"])
def test_region_oov_split_11(a):
    F, one, z19, h11 = sqrt5_setup(19, 11, a)
    pi1 = F.element((4, -1))
    pi2 = F.element((4, 1))
    r = region_oov(h11, one, [(pi1, 1), (pi2, 1)])
    assert r.t == 1
    assert r.cell_count() == 100  # (11 - 1)^2 unit pairs


def test_region_box():
    F, one, z, h = sqrt5_setup()
    r = region_box(h, (1, 2), 1)
    assert r.contains((1, 2)) and r.contains((4, 5))
    assert not r.contains((0, 2))


# --- p-adic zeta -----------------------------------------------------------------

def test_padic_zeta_interpolation_small():
    F, one, z, h = sqrt5_setup()
    ru = region_units(h, one)
    divisors = [(0, 1, z), (1, 9, z)]
    for k in range(3):
        star = zeta_star_minus_k(z, k, divisors)
        val = padic_zeta(h, ru, k, 4)
        target = PadicInt.from_fraction(star, 3, val.prec)
        assert agreement_precision(val, target) >= 4


@pytest.mark.parametrize("a", [19, 29], ids=["a19", "a29"])
def test_padic_zetas_interpolate_class(a):
    # criterion 6 for a class representative a != O: the Riemann sums over
    # the units region interpolate the exact prime-to-3 values
    F, one, z, h = sqrt5_setup(a=a)
    divisors = [(0, 1, z), (1, 9, z)]  # b = (3) is principal
    M = 3
    for k, val in enumerate(padic_zetas(h, region_units(h, one),
                                        [0, 1, 2, 3], M)):
        star = zeta_star_minus_k(z, k, divisors)
        target = PadicInt.from_fraction(star, 3, val.prec)
        assert agreement_precision(val, target) >= M - 1


def test_padic_zeta_euler_stripped_consistency():
    # the b-region integral computes zeta at the class a b^-1 (trivial class
    # group collapses it onto the same exact value)
    F, one, z, h = sqrt5_setup()
    b3 = Ideal.from_generators(F, [F.from_rational(3)])
    rb = region_b_units(h, one, b3, [b3])
    divisors = [(0, 1, z), (1, 9, z)]
    for k in (1, 2):
        # integral over the v=1 shell of (Nx unit part)^k, scaled by (Nac)^k,
        # equals Nb^(-k)-shifted interpolation: zeta*(a b^-1) = zeta*(a) here
        val = padic_zeta(h, rb, k, 4)
        star = zeta_star_minus_k(z, k, divisors)
        target = PadicInt.from_fraction(star, 3, val.prec)
        assert agreement_precision(val, target) >= 4 - 1


def _padic_zeta_one_sweep(h, region, k, M):
    """Reference: one sweep with a single integrand that evaluates the
    norm residue itself, as before the k values shared a sweep."""
    work_prec = M + 8
    p, guard = h.p, 2 * work_prec
    mod = p ** guard
    nx = _poly_residue_evaluator(h, h.norm_poly, guard)

    def ev(prefix, xs):
        out = []
        for r in nx(prefix, xs):
            assert r != 0
            out.append(pow(r // p ** _intval(r, p), k, mod))
        return out

    res = integrate_cells(h, region, [ev], M, guard)[0]
    scale = Fraction(h.nac) ** k
    scale = scale.numerator * pow(scale.denominator, -1, mod)
    return PadicInt(p, work_prec, res * scale)


@pytest.mark.parametrize("tag", ["units", "b-units"])
def test_padic_zetas_one_sweep_equals_per_k(tag):
    F, one, z, h = sqrt5_setup()
    if tag == "units":
        region = region_units(h, one)
    else:
        b3 = Ideal.from_generators(F, [F.from_rational(3)])
        region = region_b_units(h, one, b3, [b3])
    M = 3
    ks = [0, 1, 2, 3, 4]
    fused = padic_zetas(h, region, ks, M)
    assert len(fused) == len(ks)
    for k, val in zip(ks, fused):
        for other in (padic_zeta(h, region, k, M),
                      _padic_zeta_one_sweep(h, region, k, M)):
            assert (val.res, val.prec) == (other.res, other.prec)
    # the result follows the order of ks, not the order of k
    unordered = padic_zetas(h, region, [3, 1], M)
    assert [(v.res, v.prec) for v in unordered] == \
        [(fused[3].res, fused[3].prec), (fused[1].res, fused[1].prec)]


def test_padic_zeta_weight_matches_integer_point():
    # at k = 0 mod (p-1) the Teichmuller twist is trivial and the weight
    # route reproduces the integer route
    F, one, z, h = sqrt5_setup()
    ru = region_units(h, one)
    k = 2  # p - 1 = 2
    a_int = padic_zeta(h, ru, k, 4)
    a_wt = padic_zeta_weight(h, ru, -k, 4)
    assert agreement_precision(a_int, a_wt) >= 4


def test_L_assemble_trivial_character():
    F, one, z, h = sqrt5_setup()
    ru = region_units(h, one)
    single = padic_zeta_weight(h, ru, 0, 3)
    left = L_assemble([(1, h, ru)], 0, 3)
    assert agreement_precision(left, single) >= single.prec - 1
    both = L_assemble([(1, h, ru), (1, h, ru)], 0, 3)
    assert agreement_precision(both, single + single) >= single.prec - 1


# --- order of vanishing ------------------------------------------------------------

def test_oov_low_levels():
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c19 = prime_over(F, 19)
    z19 = build_zeta_data(F, one, one, c19, 19)
    h11 = MeasureHandle(z19, 11)
    pi1 = F.element((4, -1))
    pi2 = F.element((4, 1))
    ro = region_oov(h11, one, [(pi1, 1), (pi2, 1)])
    vals = {}
    for M in (1, 2):
        v0, v1, v2 = oov_integrals(h11, ro, [0, 1, 2], M)
        vals[M] = (v0, v1, v2)
        assert v0.valuation() >= M      # mass of the region vanishes
        assert v1.valuation() >= M      # first log moment vanishes
    # k = 2: reported, not asserted zero; successive levels agree
    assert agreement_precision(vals[1][2], vals[2][2]) >= 1


def test_oov_precision_drops_by_deepest_stratum():
    # with only pi1 excluded, cells divisible by pi2 stay in the region: the
    # reported precision loses the deepest norm valuation among the cells
    # of nonzero measure, taken here from the exact box measures
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    z19 = build_zeta_data(F, one, one, prime_over(F, 19), 19)
    h11 = MeasureHandle(z19, 11)
    ro = region_oov(h11, one, [(F.element((4, -1)), 1)])
    M, work_prec = 1, 7
    stratum = max(
        frac_valuation(h11.norm_poly.evaluate(
            [Fraction(vi) + ji for vi, ji in zip(z19.v, j)]), 11)
        for j in sorted(ro.mask) if h11.measure_box(j, M) != 0)
    assert stratum >= 1
    v0, v1 = oov_integrals(h11, ro, [0, 1], M, work_prec)
    assert v0.prec == work_prec - stratum
    assert v1.prec == work_prec - _series_loss(11, work_prec) - stratum


def test_oov_matches_exact_region_mass():
    # k = 0 integral is the exact measure of the region, computable directly
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c19 = prime_over(F, 19)
    z19 = build_zeta_data(F, one, one, c19, 19)
    h11 = MeasureHandle(z19, 11)
    pi1 = F.element((4, -1))
    pi2 = F.element((4, 1))
    ro = region_oov(h11, one, [(pi1, 1), (pi2, 1)])
    mass = Fraction(0)
    for cell in sorted(ro.mask):
        mass += h11.measure_box(cell, 1)
    v0 = oov_integral(h11, ro, 0, 1)
    target = PadicInt.from_fraction(mass, 11, v0.prec)
    assert agreement_precision(v0, target) >= v0.prec
    assert mass == 0  # it vanishes exactly for this data


def test_L_assemble_errors():
    from eisenzeta.padic import MissingClassData, ResidueFieldMismatch
    F, one, z, h = sqrt5_setup()
    ru = region_units(h, one)
    with pytest.raises(MissingClassData):
        L_assemble([], 0, 3)
    with pytest.raises(eisenzeta.MissingClassData):
        L_assemble([], 0, 1)
    with pytest.raises(ResidueFieldMismatch):
        L_assemble([(PadicInt(5, 6, 1), h, ru)], 0, 3)


def test_L_derivative_taylor_tie():
    # the Taylor expansion of L(<.>^s) at s = 0 through order 2 is built
    # from the log-moment integrals; the assembled L value matches it to
    # full working precision, tying the two computations together
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c19 = prime_over(F, 19)
    z19 = build_zeta_data(F, one, one, c19, 19)
    h = MeasureHandle(z19, 11)
    pi1 = F.element((4, -1))
    pi2 = F.element((4, 1))
    ro = region_oov(h, one, [(pi1, 1), (pi2, 1)])
    p = 11
    for M in (1, 2):
        W = M + 6
        i0, i1, i2 = oov_integrals(h, ro, [0, 1, 2], M, work_prec=W)
        lognac = iwasawa_log(PadicInt.from_fraction(Fraction(19), p, W))
        j0 = i0
        j1 = lognac * i0 + i1
        j2 = lognac * lognac * i0 + PadicInt(p, W, 2) * lognac * i1 + i2
        half = PadicInt.from_fraction(Fraction(1, 2), p, W)
        for s0 in (11, 121):
            l_s = L_assemble([(1, h, ro)], s0, M)
            s = PadicInt(p, W, s0)
            taylor = j0 - s * j1 + half * s * s * j2
            assert agreement_precision(l_s, taylor) >= l_s.prec
    # L(0) is the region mass: zero for this data
    l0 = L_assemble([(1, h, ro)], 0, 1)
    assert l0.valuation() >= l0.prec


def test_log_unit_residue_p2():
    from eisenzeta.padic import _log_tables, _log_unit_residues
    table = _log_tables(2, 10)
    rs = [5, 7, 9, 11]  # both Teichmuller branches mod 4
    for r, fast in zip(rs, _log_unit_residues(rs, 2, 10, table)):
        direct = iwasawa_log(PadicInt(2, 10, r))
        assert (PadicInt(2, direct.prec, fast) - direct).valuation() \
            >= direct.prec


def test_multi_coset_kernel_agrees():
    # an unreduced basis gives many coset maps; the fused multi-map branch
    # must produce the same Riemann sums as the single-map reduced kernel
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c = prime_over(F, 11)
    z_red = build_zeta_data(F, one, one, c, 11)
    z_raw = build_zeta_data(F, one, one, c, 11, reduce_basis=False)
    h_red = MeasureHandle(z_red, 3)
    h_raw = MeasureHandle(z_raw, 3)
    assert len(h_raw.cell_numerators(1).maps) > 1
    for M in (1, 2):
        a = integrate_poly(h_red, z_red.P, M)
        b = integrate_poly(h_raw, z_raw.P, M)
        # same exact cocycle value underneath: the sums agree p-adically
        # to the Riemann level (the box measures themselves are basis
        # dependent, the integrals are not beyond truncation)
        assert agreement_precision(a, b) >= M
    # and on the raw handle the row kernel gives the exact single boxes
    kernel = h_raw.cell_numerators(1)
    for cell in ((0, 0), (1, 2)):
        assert kernel.row(cell[:1])[cell[1]] \
            == h_raw.mu_den * h_raw.measure_box(cell, 1)


def test_precision_soundness_recomputation():
    # the same exact rationals pushed through at two working precisions
    # agree on the overlap: reported precision is a lower bound
    from fractions import Fraction as Fr
    qs = [Fr(7, 3), Fr(-22, 5), Fr(49, 9), Fr(11, 13)]
    p = 7
    for lo, hi in ((4, 9), (5, 12)):
        a_lo = [PadicInt.from_fraction(q, p, lo) for q in qs]
        a_hi = [PadicInt.from_fraction(q, p, hi) for q in qs]
        combo_lo = a_lo[0] * a_lo[1] + a_lo[2] * a_lo[3].inverse()
        combo_hi = a_hi[0] * a_hi[1] + a_hi[2] * a_hi[3].inverse()
        assert agreement_precision(combo_lo, combo_hi) >= combo_lo.prec
        lg_lo = iwasawa_log(PadicInt(p, lo, 1 + p))
        lg_hi = iwasawa_log(PadicInt(p, hi, 1 + p))
        assert agreement_precision(lg_lo, lg_hi) >= lg_lo.prec


def test_successive_difference_slope():
    # v_p(S_{M+1} - S_M) grows with slope >= 1 once past the (observed 0)
    # epsilon, for a degree-4 integrand
    F, one, z, h = sqrt5_setup()
    P = z.P * z.P
    sums = {M: integrate_poly(h, P, M, work_prec=9) for M in (2, 3, 4, 5)}
    vals = [agreement_precision(sums[M], sums[M + 1]) for M in (2, 3, 4)]
    assert all(v >= M for v, M in zip(vals, (2, 3, 4)))
    assert vals[1] >= vals[0] and vals[2] >= vals[1]


# --- the row kernel and fused moments ------------------------------------------

def _row_kernel_handle(case):
    """(handle, level, number of maps) for the row-kernel comparisons."""
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    if case == "sqrt5-p3":
        return sqrt5_setup()[3], 2, 1
    if case == "unreduced":  # the handle of test_multi_coset_kernel_agrees
        z = build_zeta_data(F, one, one, prime_over(F, 11), 11,
                            reduce_basis=False)
        return MeasureHandle(z, 3), 2, 41
    if case == "oov":
        z = build_zeta_data(F, one, one, prime_over(F, 19), 19)
        return MeasureHandle(z, 11), 1, 19
    if case == "a19":
        return sqrt5_setup(a=19)[3], 1, 179
    C = NumberField([-1, -3, 0, 1])  # t^3 - 3t - 1
    o = Ideal.unit_ideal(C)
    z = build_zeta_data(C, o, o, prime_over(C, 17), 17,
                        units=[C.element([0, 0, 1]), C.element([1, 2, 1])])
    return MeasureHandle(z, 5), 1, 8


@pytest.mark.parametrize("case", ["sqrt5-p3", "unreduced", "oov", "a19",
                                  "cubic-p5"])
def test_row_equals_cell_numerator(case):
    # the step-function row is mu_den times the exact box value (the
    # cocycle) at every cell, sign-defect cells included; with keep, the
    # kept cells still are
    from itertools import product
    h, level, maps = _row_kernel_handle(case)
    kernel = h.cell_numerators(level)
    assert len(kernel.maps) == maps
    pl = h.p ** level
    keep = [x % 2 == 0 for x in range(pl)]
    defects = 0
    for prefix in product(range(pl), repeat=h.n - 1):
        row = kernel.row(prefix)
        kept = kernel.row(prefix, keep)
        assert len(row) == pl
        for x in range(pl):
            j = prefix + (x,)
            num = h.mu_den * h.measure_box(j, level)
            assert row[x] == num
            if keep[x]:
                assert kept[x] == num
            defects += any(
                (b + sum(c * jk for c, jk in zip(mrow, j))) % mp["den"] == 0
                for mp in kernel.maps
                for b, mrow in zip(mp["base"], mp["mat"]))
    assert defects >= 1


def _evaluator_handle(case):
    """(handle, f, level) for the row-evaluator comparisons."""
    if case == "sqrt5-f4":  # v = (1/2, -3/4)
        F, f, z, h = sqrt5_setup(f=4)
        return h, f, 2
    if case == "sqrt5-a11":  # a coefficient of N(x) has denominator 11
        F, f, z, h = sqrt5_setup(a=11)
        return h, f, 2
    h = _row_kernel_handle("cubic-p5")[0]
    return h, Ideal.unit_ideal(h.z.field), 1


@pytest.mark.parametrize("case", ["sqrt5-f4", "sqrt5-a11", "cubic-p5"])
def test_poly_residue_evaluator_rows(case):
    # the row evaluator is P(v + j) in exact fractions, mod p^work, at every
    # cell of every row, also on the non-consecutive cells a region keeps
    from itertools import product
    h, f, level = _evaluator_handle(case)
    n, p = h.n, h.p
    pl = p ** level
    region = region_units(h, f)
    pt = p ** region.t
    X = [MultiPoly.variable(n, i) for i in range(n)]
    polys = [h.norm_poly, h.z.P, h.z.P * h.z.P, MultiPoly.constant(n, 3),
             MultiPoly(n, {}),
             X[0] * Fraction(2, 7) + X[-1] * X[-1] * X[0]
             - MultiPoly.constant(n, Fraction(1, 4)),
             X[0] ** 3 * X[-1] ** 4 + X[-2] * X[-2] * 5]
    if case == "sqrt5-f4":
        assert any(Fraction(vi).denominator > 1 for vi in h.z.v)
    gaps = 0
    for P, work in product(polys, (3, 9)):
        mod = p ** work
        ev = _poly_residue_evaluator(h, P, work)
        for prefix in product(range(pl), repeat=n - 1):
            kept = [x for x in range(pl) if region.contains(prefix + (x,))]
            gaps += kept != list(range(len(kept)))
            for xs in (list(range(pl)), kept, [pl - 1]):
                if not xs:
                    continue
                got = ev(prefix, xs)
                assert len(got) == len(xs)
                for x, r in zip(xs, got):
                    q = P.evaluate([Fraction(vi) + ji for vi, ji
                                    in zip(h.z.v, prefix + (x,))])
                    assert 0 <= r < mod
                    assert r == q.numerator * pow(q.denominator, -1, mod) % mod
    assert gaps


def _per_cell(f, k, mod):
    """The row integrand of pow(f(cell), k, mod)."""
    return lambda prefix, xs: [pow(y, k, mod) for y in f(prefix, xs)]


def test_integrate_cells_powers_are_moments():
    # powers=ks returns sum g^k dmu for each g and k, giving each g every
    # region cell of nonzero measure once, one call per row in increasing
    # order, and never calling g when every power is 0
    F, one, z, h = sqrt5_setup()
    region = region_units(h, one)
    M, work = 3, 9
    mod = 3 ** work
    ev = _poly_residue_evaluator(h, z.P, work)
    calls, rows = [], []

    def g(prefix, xs):
        rows.append(prefix)
        assert xs == sorted(set(xs)) and xs
        calls.extend(prefix + (x,) for x in xs)
        return ev(prefix, xs)

    def minus(prefix, xs):
        return [-y for y in ev(prefix, xs)]

    ks = [2, 0, 1, 4]
    fused = integrate_cells(h, region, [g, minus], M, work, powers=ks)
    cells = [(r0 + 3 * a, r1 + 3 * b) for r0, r1 in region.mask
             for a in range(9) for b in range(9)]  # region level 1, M = 3
    live = [j for j in cells if h.measure_box(j, M) != 0]
    assert sorted(calls) == sorted(live) and len(set(calls)) == len(calls)
    assert len(set(rows)) == len(rows)
    for gi, f in enumerate((g, minus)):
        for ki, k in enumerate(ks):
            single = integrate_cells(h, region, [_per_cell(f, k, mod)], M,
                                     work)
            assert fused[gi * len(ks) + ki] == single[0]
    calls.clear()
    zeroth = integrate_cells(h, region, [g], M, work, powers=[0, 0])
    assert calls == []
    mass = integrate_cells(h, region, [_per_cell(ev, 0, mod)], M, work)[0]
    assert zeroth == [mass, mass]
    # a large power takes the running products, a negative one the
    # modular-power path
    for ks in ([9], [-1, 2]):
        for k, val in zip(ks, integrate_cells(h, region, [ev], M, work,
                                              powers=ks)):
            single = integrate_cells(h, region, [_per_cell(ev, k, mod)], M,
                                     work)
            assert val == single[0]


def test_oov_zeroth_moment_skips_log(monkeypatch):
    # k = 0 needs no log: the log is never taken, so neither the series
    # loss nor the valuation stratum lowers its precision
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    z19 = build_zeta_data(F, one, one, prime_over(F, 19), 19)
    h11 = MeasureHandle(z19, 11)
    ro = region_oov(h11, one, [(F.element((4, -1)), 1)])  # stratum >= 1
    M, work_prec = 1, 7
    expected = oov_integrals(h11, ro, [0, 1], M, work_prec)[0]

    logs = []
    log_series = eisenzeta.padic._log_series

    def counting(*args):
        logs.append(args)
        return log_series(*args)

    monkeypatch.setattr(eisenzeta.padic, "_log_series", counting)
    again = oov_integrals(h11, ro, [0, 1], M, work_prec)[0]
    assert (again.res, again.prec) == (expected.res, expected.prec)
    assert logs  # the patch sees the row log of every k >= 1

    def no_log(*args):
        raise AssertionError("log evaluated for k = 0")

    monkeypatch.setattr(eisenzeta.padic, "_log_series", no_log)
    v0 = oov_integrals(h11, ro, [0], M, work_prec)[0]
    assert v0.prec == work_prec > expected.prec
    assert v0.res == expected.res


def test_padic_zetas_zeroth_moment_checks_norm(monkeypatch):
    # unlike the log of oov_integrals, the unit part of the norm is taken at
    # every cell of nonzero measure even when k = 0 is the only moment, so
    # a vanishing norm residue raises for every nonempty ks
    F, one, z, h = sqrt5_setup()
    region = region_units(h, one)
    M = 2
    mass = integrate_cells(h, region, [lambda prefix, xs: [1] * len(xs)],
                           M, 2 * (M + 8))[0]
    assert padic_zetas(h, region, [0], M)[0].res == mass % 3 ** (M + 8)
    monkeypatch.setattr(eisenzeta.padic, "_poly_residue_evaluator",
                        lambda *args: lambda prefix, xs: [0] * len(xs))
    for ks in ([0], [0, 0], [0, 2], [-1]):
        with pytest.raises(PrecisionExhausted, match="norm residue vanished"):
            padic_zetas(h, region, ks, M)
    assert padic_zetas(h, region, [], M) == []


def _log_series_formula(y, p, prec, vy=1):
    """The log series with one modular inverse per term, the formula the
    cached inverse table replaces."""
    mod = p ** prec
    total = loss = 0
    term = 1
    k = 1
    while k * vy <= prec + loss:
        term = term * y % mod
        contrib, kk = term, k
        if k % p == 0:
            vk = _intval(k, p)
            if term % p ** vk:
                raise PrecisionExhausted("series division by p underflows")
            loss = max(loss, vk)
            contrib //= p ** vk
            kk //= p ** vk
        contrib = contrib * pow(kk, -1, mod)
        total += contrib if k & 1 else -contrib
        k += 1
    return total % mod, loss


@pytest.mark.parametrize("p,prec", [(2, 12), (3, 10), (11, 14)])
def test_log_series_inverse_table(p, prec):
    # prec >= p + 1, so terms with p | k are summed and divided; the row
    # log gives every element the value of the one-element formula
    from eisenzeta.padic import _log_series, _log_tables, _log_unit_residues
    mod = p ** prec
    table = _log_tables(p, prec)
    rs = [r for r in range(1, 400) if r % p][:120]
    ys = [(r * pow(teichmuller(r, p, prec), -1, mod) - 1) % mod for r in rs]
    want = [_log_series_formula(y, p, prec) for y in ys]
    assert _log_unit_residues(rs, p, prec, table) == [w for w, _ in want]
    assert _log_series(ys, p, prec) == ([w for w, _ in want], want[0][1])
    assert len({wl for _, wl in want}) == 1
    assert _log_series([], p, prec)[0] == []
    divided = 0
    for r, y in zip(rs, ys):
        if y:
            vy = _intval(y, p)
            w, wl = _log_series_formula(y, p, prec, vy)
            assert _log_series([y], p, prec, vy) == ([w], wl)
            direct = iwasawa_log(PadicInt(p, prec, r))
            assert (direct.res, direct.prec) == \
                (w % p ** (prec - wl), prec - wl)
            divided = max(divided, wl)
    # rows that share a valuation bound vy share one series
    for vy in range(1, 4):
        row = [y for y in ys if y and _intval(y, p) >= vy]
        if row:
            got, loss = _log_series(row, p, prec, vy)
            formula = [_log_series_formula(y, p, prec, vy) for y in row]
            assert got == [w for w, _ in formula]
            assert {loss} == {wl for _, wl in formula}
    assert divided >= 1
