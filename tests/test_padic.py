import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import comb, lcm

import pytest

import eisenzeta
from eisenzeta.cocycle import CocycleArgs, GammaEllMatrix, psi_ell
from eisenzeta.exact import MultiPoly, mat_inv, mat_vec
from eisenzeta.numberfield import Ideal, NumberField, adapted_basis, prime_over
from eisenzeta.padic import (L_assemble, MeasureHandle, PadicInt,
                             PrecisionExhausted, Region, _intval,
                             _kernel_run, _lagrange_tables, _node_values,
                             _poly_residue_evaluator, _series_loss,
                             _stabilized_lattice,
                             agreement_precision, frac_valuation,
                             integrate_cells, integrate_poly, iwasawa_log,
                             oov_integrals, padic_zeta,
                             padic_zeta_weight, padic_zetas, region_b_units,
                             region_box, region_oov, region_units,
                             teichmuller)
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


def test_measure_handle_needs_p_prime_to_f():
    # f = (4) gives the shift v = (1/2, -3/4): p = 2 is rejected by name,
    # before any residue mod 2^M is attempted; p = 3 is fine
    with pytest.raises(ValueError, match=r"^p must be prime to f: p = 2 "
                       r"divides a denominator of the shift v = "
                       r"\(1/2, -3/4\)$"):
        sqrt5_setup(f=4, p=2)
    F, f, z, h = sqrt5_setup(f=4)
    assert z.v == (Fraction(1, 2), Fraction(-3, 4)) and h.p == 3


@pytest.mark.parametrize("ell, p, nac", [(19, 11, 209), (11, 5, 55)])
def test_measure_handle_needs_p_prime_to_nac(ell, p, nac):
    # a above p: the norm N(x) = N(ac)^-1 P has p in its denominators, so
    # the handle is rejected by name, not by pow's "base is not invertible"
    with pytest.raises(ValueError, match=rf"^p must be prime to N\(a c\): "
                       rf"p = {p} divides N\(a c\) = {nac}$"):
        sqrt5_setup(ell=ell, p=p, a=p)


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


def _square_and_multiply(x, k):
    # the oracle loop, written out: multiply in each set bit from the
    # lowest, and square only while a bit is left
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


def test_padic_power_matches_the_square_and_multiply_loop():
    # the residue and the worst-case precision of x ** k, bit for bit, at
    # every valuation of x, also where x is 0 to its precision
    sample = random.Random(2505)
    for p in (2, 3, 5, 7):
        for prec in range(7):
            mod = p ** prec
            residues = {p ** v * u % mod for v in range(prec + 1)
                        for u in (1, 2, p - 1, p + 1)}
            residues |= set(range(min(mod, 30)))
            residues |= {sample.randrange(mod) for _ in range(10)}
            for res in residues:
                x = PadicInt(p, prec, res)
                for k in range(1, 10):
                    want = _square_and_multiply(x, k)
                    got = x ** k
                    assert (got.res, got.prec) == (want.res, want.prec)


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


# --- measure ---------------------------------------------------------------------

def _oracle_terms(h):
    """(coeff * (-1)^n sgn det sigma, sigma) for each nonsingular chain term
    of h, the sign worked out here from det sigma, apart from the handle."""
    from eisenzeta.cocycle import first_column_matrix
    from eisenzeta.exact import mat_det
    for coeff, tup in h.z.chain.terms:
        sigma = first_column_matrix(tup)
        det = mat_det(sigma)
        if det:
            yield coeff * (-1) ** h.n * (1 if det > 0 else -1), sigma


def _box_by_two_sums(h, a, r):
    """The box value from the two-sum smoothing d_ell_direct, which shares
    no code with the coset decomposition behind measure_box."""
    from eisenzeta.dedekind import d_ell_direct
    w = [(Fraction(vi) + ai) / h.p ** r for vi, ai in zip(h.z.v, a)]
    return sum((sign * d_ell_direct(sigma, (1,) * h.n, h.Q, w, h.ell)
                for sign, sigma in _oracle_terms(h)), Fraction(0))


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
    r = region_oov(h11, one, [pi1, pi2])
    assert r.t == 1
    assert r.cell_count() == 100  # (11 - 1)^2 unit pairs


def test_region_box():
    F, one, z, h = sqrt5_setup()
    r = region_box(h, (1, 2), 1)
    assert r.contains((1, 2)) and r.contains((4, 5))
    assert not r.contains((0, 2))


def _oracle_member(h, f, inside=(), avoid=(), unit_norm=False):
    """The per-cell test `_region` made before its integer congruences, in
    Fractions: x = w . (v + j) in each stabilised lattice in the completion
    at p, the prime-to-p part d of x's denominators being a unit there."""
    p, field = h.p, h.z.field
    n = field.n
    flat, *lats = [_stabilized_lattice(I, p)[1] for I in [f, *inside, *avoid]]
    ins, avs = lats[:len(inside)], lats[len(inside):]
    wmat = tuple(tuple(h.z.w[j].coords[i] for j in range(n)) for i in range(n))

    def in_completion(lattice, x):
        d = lcm(*(c.denominator for c in x.coords))
        while d % p == 0:
            d //= p
        return lattice.contains(x * d)

    def member(j):
        vj = [Fraction(vi) + ji for vi, ji in zip(h.z.v, j)]
        if unit_norm:
            nx = h.norm_poly.evaluate(vj)
            if nx == 0 or frac_valuation(nx, p) != 0:
                return False
        x = field.element(mat_vec(wmat, vj))
        if not all(in_completion(q, x) for q in ins) \
                or any(in_completion(q, x) for q in avs):
            return False
        return in_completion(flat, x - field.one())

    return member


def _region_and_oracle(h, tag, f, b=None, pis=(), other=()):
    """The region of `tag` and the oracle member with the same ideals."""
    if tag == "units":
        return region_units(h, f), _oracle_member(h, f, unit_norm=True)
    if tag == "b-units":
        return (region_b_units(h, f, b, [b]),
                _oracle_member(h, f, inside=[b], avoid=[b * b]))
    avoid = [Ideal.from_generators(h.z.field, [pi]) for pi in pis]
    return (region_oov(h, f, pis, other),
            _oracle_member(h, f, avoid=avoid + list(other)))


REGION_CASES = ["sqrt5-units", "sqrt5-a19-units-f3", "sqrt5-a19-p2-units-f4",
                "sqrt5-a29-b-units", "sqrt5-oov", "sqrt5-a29-oov-f",
                "sqrt10-units-f", "sqrt10-a13-b-units", "sqrt10-a13-oov-f",
                "cubic-units", "cubic-units-f5", "cubic-a19-b-units",
                "cubic-a19-oov"]


@lru_cache(maxsize=None)
def region_case(case):
    """(region, oracle member) on Q(sqrt 5), Q(sqrt 10) and, at p = 5, the
    cubic t^3 - 3t - 1; -aN puts a above N, and -fN or -f passes the region
    an ideal f that p divides (-p2: p = 2, where O is not Z[theta] at p)."""
    if case.startswith("sqrt5"):
        a = 19 if "-a19" in case else 29 if "-a29" in case else None
        if "oov" in case:  # p = 11 splits into (4 - t)(4 + t)
            F, one, z, h = sqrt5_setup(19, 11, a)
            lo, hi = F.element((4, -1)), F.element((4, 1))
            if case.endswith("-f"):
                return _region_and_oracle(h, "oov", Ideal.from_generators(
                    F, [hi]), pis=[lo])
            return _region_and_oracle(h, "oov", one, pis=[lo, hi])
        F, one, z, h = sqrt5_setup(p=2 if "-p2" in case else 3, a=a)
        three = Ideal.from_generators(F, [F.from_rational(3)])
        if case.endswith("-b-units"):
            return _region_and_oracle(h, "b-units", one, b=three)
        m = int(case.rsplit("-f", 1)[1]) if "-f" in case else 1
        return _region_and_oracle(h, "units", Ideal.from_generators(
            F, [F.from_rational(m)]))
    if case.startswith("sqrt10"):  # 3 splits into two non-principal primes
        F = NumberField([-10, 0, 1])
        one = Ideal.unit_ideal(F)
        a = prime_over(F, 13) if "-a13" in case else one
        h = MeasureHandle(build_zeta_data(F, one, a, prime_over(F, 31), 31), 3)
        q1, q2 = (Ideal.from_generators(F, [F.from_rational(3),
                                            F.element((-r, 1))])
                  for r in (1, 2))
        if case.endswith("-units-f"):
            return _region_and_oracle(h, "units", q1)
        if case.endswith("-b-units"):
            return _region_and_oracle(h, "b-units", one, b=q1)
        return _region_and_oracle(h, "oov", q1, pis=[F.from_rational(3)],
                                  other=[q2])
    h = _row_kernel_handle("cubic-p5")[0]  # 5 is inert
    C = h.z.field
    o = Ideal.unit_ideal(C)
    five = Ideal.from_generators(C, [C.from_rational(5)])
    if "-a19" in case:
        z = build_zeta_data(C, o, prime_over(C, 19), prime_over(C, 17), 17,
                            units=h.z.units)
        h = MeasureHandle(z, 5)
    if case.endswith("-b-units"):
        return _region_and_oracle(h, "b-units", o, b=five)
    if case.endswith("-oov"):
        return _region_and_oracle(h, "oov", o, pis=[C.from_rational(5)])
    return _region_and_oracle(h, "units", five if case.endswith("-f5") else o)


@pytest.mark.parametrize("case", REGION_CASES)
def test_region_matches_fraction_oracle(case):
    # the integer congruences keep exactly the cells of the per-cell
    # Fraction test, for a != O, for an f that p divides and at p = 2
    region, member = region_case(case)
    assert region.mask
    pt = region.p ** region.t
    cells = set(product(range(pt), repeat=len(next(iter(region.mask)))))
    assert region.mask == {j for j in cells if member(j)}
    assert len(region.mask) < len(cells)


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


@pytest.mark.parametrize("M, work", [(4, 5), (3, 3), (4, 4)])
def test_padic_zetas_report_only_digits_they_have(M, work):
    # over the whole lattice the norms meet p^6 at (M, work) = (4, 5): a
    # unit part taken mod p^(2 work) keeps 2 work - 6 = 4 digits there, and
    # every reported digit agrees with a run at work + 20
    F, one, z, h = sqrt5_setup()
    region = region_box(h, (0, 0), 0)
    ks = [0, 1, 2]
    low = padic_zetas(h, region, ks, M, work_prec=work)
    high = padic_zetas(h, region, ks, M, work_prec=work + 20)
    assert low[0].prec == work and min(v.prec for v in low[1:]) < work
    for lo, hi in zip(low, high):
        assert lo.prec <= hi.prec and agreement_precision(lo, hi) >= lo.prec
    if (M, work) == (4, 5):
        assert [v.prec for v in low] == [5, 4, 4]


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


def _live_cells(h, region, M):
    """[(exact box measure, N(ac) N(v + j))] over the region's level-M
    cells of nonzero measure, the norm from the norm polynomial in
    Fractions; no cell kernel, no Riemann loop."""
    level = max(M, region.t)
    cells = []
    for j in product(range(h.p ** level), repeat=h.n):
        mu = h.measure_box(j, level) if region.contains(j) else 0
        if mu != 0:
            cells.append((mu, h.nac * h.norm_poly.evaluate(
                [Fraction(vi) + ji for vi, ji in zip(h.z.v, j)])))
    return cells


def _weight_cell_sum(cells, p, s, work_prec):
    """Oracle: the sum of mu * <N(ac) Nx>^(-s) mod p^work over the cells,
    with the Teichmuller lift of u taken as u^(p^(work-1)) (or +-1 for
    p = 2) and the integer exponent -s unreduced."""
    mod = p ** work_prec
    e = -(s if isinstance(s, int) else s.res)
    total = 0
    for mu, norm in cells:
        u = norm.numerator * pow(norm.denominator, -1, mod) % mod
        if u % p == 0:
            raise PrecisionExhausted("weight character needs unit norms")
        omega = pow(u, p ** (work_prec - 1), mod) if p > 2 \
            else (1 if u % 4 == 1 else -1)
        principal = u * pow(omega, -1, mod) % mod
        total += mu.numerator * pow(mu.denominator, -1, mod) \
            * pow(principal, e, mod)
    return total % mod


def test_padic_zeta_weight_matches_cell_sum(monkeypatch):
    # the weight character, read from a Taylor table per residue disc,
    # against the cell sum with exact box measures and one modular power
    # per cell, to all work digits of the Riemann sum (not only the
    # reported ones), over units and order-of-vanishing regions, class
    # representatives a = O and a above 19; s = 0, -1, -2 give e = 0, 1, 2
    # (Taylor terms C(e, j) = 0 for j > e), s = 1 and -10^6 large e
    real = eisenzeta.padic.integrate_cells
    sums = []

    def recording(*args):
        sums.append(real(*args)[0])
        return sums[-1:]

    monkeypatch.setattr(eisenzeta.padic, "integrate_cells", recording)
    cases = []
    for p, a, M in [(2, None, 2), (3, 19, 2), (7, None, 1)]:
        F, one, z, h = sqrt5_setup(11, p, a)
        cases.append((h, region_units(h, one), M))
    F, one, z, h11 = sqrt5_setup(19, 11, 19)
    pi1, pi2 = F.element((4, -1)), F.element((4, 1))
    oov = region_oov(h11, one, [pi1, pi2])
    cases.append((h11, oov, 1))
    for h, region, M in cases:
        p = h.p
        cells = _live_cells(h, region, M)
        for work_prec in (M + 6, M + 4):
            for s in (0, 1, -1, -2, p, -10 ** 6,
                      PadicInt(p, work_prec, 2 * p + 3),
                      PadicInt(p, work_prec, p ** work_prec - 1)):
                got = padic_zeta_weight(h, region, s, M, work_prec)
                assert got.prec == work_prec - _series_loss(p, work_prec) - 1
                want = _weight_cell_sum(cells, p, s, work_prec)
                assert sums[-1] == want
                assert got.res == want % p ** got.prec
    # L assembly is linear in the character values
    chi = PadicInt(11, 7, 5)
    single = padic_zeta_weight(h11, oov, 3, 1)
    twisted = L_assemble([(chi, h11, oov)], 3, 1)
    assert (twisted.res, twisted.prec) == ((chi * single).res, single.prec)
    # an order-of-vanishing region that keeps the cells divisible by pi2
    # has non-unit norms at live cells
    partial = region_oov(h11, one, [pi1])
    with pytest.raises(PrecisionExhausted,
                       match="weight character needs unit norms"):
        padic_zeta_weight(h11, partial, 1, 1)
    with pytest.raises(PrecisionExhausted,
                       match="weight character needs unit norms"):
        _weight_cell_sum(_live_cells(h11, partial, 1), 11, 1, 7)


# --- order of vanishing ------------------------------------------------------------

def test_oov_low_levels():
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c19 = prime_over(F, 19)
    z19 = build_zeta_data(F, one, one, c19, 19)
    h11 = MeasureHandle(z19, 11)
    pi1 = F.element((4, -1))
    pi2 = F.element((4, 1))
    ro = region_oov(h11, one, [pi1, pi2])
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
    ro = region_oov(h11, one, [F.element((4, -1))])
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
    ro = region_oov(h11, one, [pi1, pi2])
    mass = Fraction(0)
    for cell in sorted(ro.mask):
        mass += h11.measure_box(cell, 1)
    v0, = oov_integrals(h11, ro, [0], 1)
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
    ro = region_oov(h, one, [pi1, pi2])
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
    # an unreduced basis gives many coset maps, walked as one run; the row
    # kernel must produce the same Riemann sums as the single-map kernel
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c = prime_over(F, 11)
    z_red = build_zeta_data(F, one, one, c, 11)
    z_raw = build_zeta_data(F, one, one, c, 11,
                            ws=adapted_basis(one, one, c, 11))
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


@pytest.mark.parametrize("case, ms, counts", [
    ("sqrt5", [(0,), (-1,), (1,)], [41, 191, 1]),
    ("sqrt5-a19", [(0,), (-1,), (1,)], [179, 2089, 359]),
    ("cubic-p5", [(0, 0), (2, 0), (-5, -1), (1, 0)], [2335, 85, 5, 555]),
], ids=["sqrt5", "sqrt5-a19", "cubic-p5"])
def test_coset_count_is_norm(case, ms, counts):
    # the kernel walks K |N(w_1)| / (ell N(a^-1 f)) cosets with K fixed by
    # the units, so on the bases w_1 + ell sum m_j w_j of the start basis
    # (m = 0, listed first) the map count is proportional to |N(w_1)|
    if case == "cubic-p5":
        F = NumberField([-1, -3, 0, 1])  # t^3 - 3t - 1
        units, ell, p = [F.element([0, 0, 1]), F.element([1, 2, 1])], 17, 5
    else:
        F = NumberField([-5, 0, 1])
        units, ell, p = None, 11, 3
    one = Ideal.unit_ideal(F)
    a = prime_over(F, 19) if case == "sqrt5-a19" else one
    c = prime_over(F, ell)
    start = adapted_basis(a, one, c, ell)
    got, norms = [], []
    for m in ms:
        w1 = start[0]
        for mj, wj in zip(m, start[1:]):
            w1 = w1 + (ell * mj) * wj
        z = build_zeta_data(F, one, a, c, ell, units, ws=[w1] + start[1:])
        got.append(len(MeasureHandle(z, p).cell_numerators(1).maps))
        norms.append(abs(w1.norm()))
    assert got == counts
    for count, norm in zip(got, norms):
        assert count * norms[0] == got[0] * norm


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
        c = prime_over(F, 11)
        z = build_zeta_data(F, one, one, c, 11,
                            ws=adapted_basis(one, one, c, 11))
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
    return MeasureHandle(z, 5), 1, 5


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


@pytest.mark.parametrize("case, runs", [("oov", 1), ("unreduced", 1),
                                        ("a19", 1), ("cubic-p5", 3)])
def test_kernel_runs(case, runs):
    # a term's cosets that differ only in the last coordinate, which
    # pi_ell scales by 1, are one run; of the cubic's 5 cosets, one term's
    # 3 differ only there and are one run, and the other term's 2 differ
    # in the second coordinate, so each is a run of its own
    h, level, maps = _row_kernel_handle(case)
    kernel = h.cell_numerators(level)
    assert len(kernel.maps) == maps and len(kernel.runs) == runs
    assert sum(run[3] for run in kernel.runs) == maps


@pytest.mark.parametrize("case", ["sqrt5-p3", "unreduced", "oov", "a19",
                                  "cubic-p5"])
def test_term_signs_match_the_oracle(case):
    # the handle's terms take their signs from dedekind.chain_term; each is
    # the sign the two-sum oracle works out from det sigma by itself
    h = _row_kernel_handle(case)[0]
    assert [t["sign"] for t in h.terms] == [s for s, _ in _oracle_terms(h)]


@pytest.mark.parametrize("last", [None, (0, -1), (0, 0), (3, 0)])
def test_run_is_the_sum_of_its_cosets(last):
    # the fold is algebra: a run of W cosets gives the row of W one-coset
    # runs shifted by w p^M along the last coordinate, for any affine data;
    # with the last column replaced, steps are sparse or absent, so several
    # window starts in a row carry the value without a step between them
    # (both built by the constructor the kernel uses, which gives each
    # run its per-coordinate constants)
    h, level, _ = _row_kernel_handle("oov")
    kernel = h.cell_numerators(level)
    pl = h.p ** level
    (base, mat, den, width, t0, term, _), = kernel.runs
    if last is not None:
        mat = [mrow[:-1] + [s] for mrow, s in zip(mat, last)]
    ones = [_kernel_run([b + mrow[-1] * pl * w for b, mrow in zip(base, mat)],
                        mat, den, 1, t0, term) for w in range(width)]
    keep = [x % 3 == 0 for x in range(pl)]
    for prefix in [(0,), (4,), (pl - 1,)]:
        rows = []
        for runs in ([_kernel_run(base, mat, den, width, t0, term)], ones):
            kernel.runs = runs
            rows.append((kernel.row(prefix), kernel.row(prefix, keep)))
        (row, kept), (want, want_kept) = rows
        assert row == want
        assert [r for r, k in zip(kept, keep) if k] \
            == [r for r, k in zip(want_kept, keep) if k]


@pytest.mark.parametrize("root, maps, defects", [(4, 3759, 0), (7, 2289, 7)])
def test_row_on_a_long_run(root, maps, defects):
    # f = (3), a = (11, theta - root), c above 19, p = 7: every coset is in
    # one run of maps * 7 cells, folded onto a row of 7.  The row is the
    # exact box at a few cells, with and without keep; only the a of
    # 2,289 cosets has sign-defect cells, and two of them are checked
    F = NumberField([-5, 0, 1])
    a = Ideal.from_generators(F, [F.from_rational(11),
                                  F.theta() - F.from_rational(root)])
    f = Ideal.from_generators(F, [F.from_rational(3)])
    h = MeasureHandle(build_zeta_data(F, f, a, prime_over(F, 19), 19), 7)
    kernel = h.cell_numerators(1)
    assert len(kernel.maps) == maps and len(kernel.runs) == 1
    cells = [j for j in product(range(7), repeat=2) if any(
        (b + sum(c * jk for c, jk in zip(mrow, j))) % mp["den"] == 0
        for mp in kernel.maps for b, mrow in zip(mp["base"], mp["mat"]))]
    assert len(cells) == defects
    for j in [(0, 0), (3, 6), (6, 1), *cells[:2]]:
        num = h.mu_den * h.measure_box(j, 1)
        keep = [x == j[1] for x in range(7)]
        assert kernel.row(j[:1])[j[1]] == num
        assert kernel.row(j[:1], keep)[j[1]] == num


@pytest.mark.parametrize("case", ["sqrt5-p3", "oov", "cubic-p5"])
def test_defect_tables(case):
    # the table of a set J is sign * mu_den * the b1_L_z_fast row, read at
    # the z that gives level t, at any argument whose integral coordinates
    # are J; every J, the empty set and the set of all coordinates
    # included.  The direct level-set sum is the independent oracle: at
    # every t for n = 2, at one t per (term, J) for n = 3, where it walks
    # ell^2 points
    from eisenzeta.dedekind import b1_L_z_fast, b_L_z_direct
    h = _row_kernel_handle(case)[0]
    for term in h.terms:
        for J in range(2 ** h.n):
            table = h.table(term, J)
            assert len(table) == h.ell and h.table(term, J) is table
            direct = range(h.ell) if h.n == 2 else [rng.randrange(h.ell)]
            for t in range(h.ell):
                x = [rng.randrange(-9, 9) + (0 if J >> i & 1 else Fraction(
                    rng.randrange(1, d), d)) for i, d in enumerate(
                    rng.choice([2, 3, 10]) for _ in range(h.n))]
                z = -t - sum(ai * (xi // 1) for ai, xi
                             in zip(term["L"].a, x))
                args = (term["L"], z, x, term["signs"])
                val = Fraction(table[t], term["sign"] * h.mu_den)
                assert b1_L_z_fast(term["L"], x, term["signs"])[
                    z % h.ell] == val
                if t in direct:
                    assert b_L_z_direct((1,) * h.n, *args) == val


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
    ro = region_oov(h11, one, [F.element((4, -1))])  # stratum >= 1
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


def test_empty_sweeps_build_no_kernel(monkeypatch):
    # with no integrand, no polynomial or no power there is nothing to sum:
    # no kernel is built and no row is walked
    F, one, z, h = sqrt5_setup()
    region = region_units(h, one)
    ev = _poly_residue_evaluator(h, z.P, 13)

    def no_kernel(self, M):
        raise AssertionError("kernel built for an empty sweep")

    monkeypatch.setattr(MeasureHandle, "cell_numerators", no_kernel)
    assert padic_zetas(h, region, [], 5) == []
    assert oov_integrals(h, region, [], 5) == []
    assert integrate_cells(h, region, [], 5, 13, powers=[0, 1]) == []
    assert integrate_cells(h, region, [ev], 5, 13, powers=[]) == []
    assert integrate_cells(h, None, [], 5, 13, powers=[], polys=[z.P]) == []


def _closed_form_handle(case):
    """(handle, levels, regions) for the closed-form comparisons."""
    if case == "sqrt10":
        F = NumberField([-10, 0, 1])
        one = Ideal.unit_ideal(F)
        h = MeasureHandle(build_zeta_data(F, one, one, prime_over(F, 31), 31),
                          3)
        return h, [1, 2], [None, region_units(h, one),
                           region_case("sqrt10-units-f")[0]]
    h = _row_kernel_handle(case)[0]
    one = Ideal.unit_ideal(h.z.field)
    if case == "cubic-p5":
        return h, [2], [None, region_units(h, one)]
    return h, [1, 2, 3, 4], [None, region_units(h, one),
                             region_box(h, (1, 2), 2)]


@pytest.mark.parametrize("case", ["sqrt5-p3", "sqrt10", "cubic-p5"])
def test_closed_form_matches_per_cell(case, monkeypatch):
    # a polynomial summed in closed form from the rows' difference arrays
    # gives the per-cell residues of its row evaluator bit for bit, with
    # sign-defect cells in the sweep, on Q(sqrt 10) at ell = 31 and in the
    # cubic's dense floor-step branch (a floor rising at most cells)
    h, levels, regions = _closed_form_handle(case)
    n, p = h.n, h.p
    X = [MultiPoly.variable(n, i) for i in range(n)]
    polys = [h.norm_poly, h.z.P, MultiPoly.constant(n, Fraction(5, 7)),
             X[0] ** 3 - X[-1] * X[-1] * Fraction(1, 2) + X[-1]]
    ks = [0, 1, 2, 3, 0]
    dense = []
    floor_steps = eisenzeta.padic._floor_steps

    def watched(c, s, den, length, dt):
        dense.append((c + s * (length - 1)) // den - c // den >= length)
        return floor_steps(c, s, den, length, dt)

    monkeypatch.setattr(eisenzeta.padic, "_floor_steps", watched)
    defects = 0
    for M in levels:
        kernel = h.cell_numerators(M)
        defects += sum(
            (b + sum(c * jk for c, jk in zip(mrow, j))) % mp["den"] == 0
            for j in product(range(p ** M), repeat=n) for mp in kernel.maps
            for b, mrow in zip(mp["base"], mp["mat"]))
        for region, work in product(regions, (11,) if n == 3 else (4, 11)):
            evs = [_poly_residue_evaluator(h, P, work) for P in polys]
            got = integrate_cells(h, region, [], M, work, ks, polys)
            assert got == integrate_cells(h, region, evs, M, work, ks)
        assert [integrate_poly(h, P, M, work).res for P in polys[:2]] \
            == integrate_cells(h, None, evs[:2], M, work)
    assert defects and (case != "cubic-p5" or any(dense))
    with pytest.raises(ValueError, match="powers k >= 0"):
        integrate_cells(h, None, [], 1, 4, [1, -1], polys[:1])


def _lagrange_sums_per_pattern(keep, pl, D):
    """[T_y for y <= D] built for one keep pattern, its basis with it: the
    per-pattern tables that the per-sweep basis replaced, kept as the
    oracle."""
    cs = [(D + 1) * comb(x, D + 1) for x in range(pl)]
    cols = [[0 if keep is not None and not keep[x] else int(x == y) if x <= D
             else (-1) ** (D - y) * comb(D, y) * cs[x] // (x - y)
             for x in range(pl)] for y in range(D + 1)]
    return [list(accumulate(reversed(col), initial=0))[::-1] for col in cols]


@pytest.mark.parametrize("pl, D", [(1, 0), (3, 2), (9, 0), (9, 4), (27, 8),
                                   (243, 8)])
def test_lagrange_tables_per_sweep(pl, D):
    # one basis serves every keep pattern of a sweep, in any order: masking
    # it for one pattern leaves it whole for the next
    tables = _lagrange_tables(pl, D)
    coin = random.Random(pl + D)
    keeps = [None, [x % 3 == 1 for x in range(pl)], [True] * pl,
             [coin.random() < 0.5 for _ in range(pl)], [False] * pl, None]
    for keep in keeps:
        assert tables(keep) == _lagrange_sums_per_pattern(keep, pl, D)


@pytest.mark.parametrize("case", ["sqrt5-p3", "cubic-p5"])
def test_node_values_step_rows(case):
    # stepped from row to row by forward differences, the node values are
    # the row evaluator's at every prefix of the sweep: across the heads
    # prefix[:-1] of the cubic, and for a degree above the row count
    h = _row_kernel_handle(case)[0]
    n = h.n
    X = [MultiPoly.variable(n, i) for i in range(n)]
    polys = [h.norm_poly, h.z.P * h.z.P, MultiPoly.constant(n, Fraction(5, 7)),
             X[0] ** 3 - X[-1] * X[-2] * Fraction(1, 2) + X[-2],
             X[-2] ** 11 + X[0] * Fraction(3, 2)]
    for M, P, work in product((1, 2), polys, (3, 11)):
        pl = h.p ** M
        nodes = list(range(min(8, pl - 1) + 1))
        ev = _poly_residue_evaluator(h, P, work)
        got = list(_node_values(h, P, work, nodes, pl))
        assert got == [ev(prefix, nodes)
                       for prefix in product(range(pl), repeat=n - 1)]


def test_closed_form_steps_skipped_rows():
    # the sweep steps the node values on every row, the rows it skips for
    # want of a kept cell too: the cubic's units region at M = 2 without
    # the rows whose last prefix coordinate is 2 mod 5, so that rows are
    # skipped inside each head's run, and with only x = 0 mod 5 kept in the
    # first row, so that the first keep pattern is not the others'; the
    # patterns share one basis
    h = _row_kernel_handle("cubic-p5")[0]
    units = region_units(h, Ideal.unit_ideal(h.z.field))
    region = Region(5, 1, frozenset(j for j in units.mask if j[-2] != 2
                                    and j[:2] != (0, 0) or j == (0, 0, 0)),
                    "units")
    M, work, ks = 2, 11, [0, 1, 2, 3]
    patterns = [tuple(region.contains(prefix + (x,)) for x in range(5))
                for prefix in product(range(25), repeat=2)]
    assert patterns.count((False,) * 5) == 125
    assert patterns[0] == (True,) + (False,) * 4 and len(set(patterns)) >= 3
    for P in (h.norm_poly, h.z.P):
        ev = _poly_residue_evaluator(h, P, work)
        assert integrate_cells(h, region, [], M, work, ks, [P]) \
            == integrate_cells(h, region, [ev], M, work, ks)


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


def test_log_series_disc_table_matches_formula():
    # the polynomial part of the log series is read from three Taylor terms
    # per residue disc y mod p^ceil(W/3), one table per (p, W, vy) kept
    # across calls: every residue is the one-element formula's, a second
    # call reads the kept table and adds nothing to it, W values mix at
    # the same p, and a table never holds more than p^(ceil(W/3) - 1)
    # residues
    from eisenzeta.padic import _log_series, _log_terms
    rng = random.Random(2718)
    for p in (2, 3, 5, 7, 11, 13):
        cases = [(W, vy) for W in range(1, 17) for vy in (1, 2, 3)]
        rng.shuffle(cases)
        for W, vy in cases:
            ys = [rng.randrange(p ** (W + 1)) * p ** vy for _ in range(10)]
            ys += [ys[0] + p ** (W + vy), -ys[1]]  # same disc; negative
            want = [_log_series_formula(y, p, W, vy) for y in ys]
            table = _log_terms(p, W, vy)[0]
            sizes = []
            for _ in range(2):
                assert _log_series(ys, p, W, vy) == \
                    ([w for w, _ in want], want[0][1])
                sizes.append(len(table))
            assert sizes[0] == sizes[1]
            assert 1 <= len(table) <= p ** (-(-W // 3) - 1)


def test_padic_zeta_weight_digits_of_s():
    # changing s by p^c multiplies <u>^(-s) by a factor = 1 mod p^(c + 1)
    # (mod 2^(c + 2) for p = 2), so an s known mod p^c gives c + 1 digits
    # (c + 2), on which all its lifts agree; the lifts 5 and 14 of s = 5
    # mod 9 differ at 3^5
    from eisenzeta.padic import ResidueFieldMismatch
    F, one, z, h = sqrt5_setup()
    ru = region_units(h, one)
    coarse = padic_zeta_weight(h, ru, PadicInt(3, 2, 5), 3)
    lifts = [padic_zeta_weight(h, ru, s, 3) for s in (5, 14, 23)]
    assert coarse.prec == 3 and {v.prec for v in lifts} == {6}
    assert all(agreement_precision(coarse, v) >= 3 for v in lifts)
    assert agreement_precision(lifts[0], lifts[1]) == 5
    assert (coarse.res, lifts[1].res) == (0, 189)
    F, one, z, h2 = sqrt5_setup(11, 2)
    ru2 = region_units(h2, one)
    coarse = padic_zeta_weight(h2, ru2, PadicInt(2, 1, 1), 2)
    lifts = [padic_zeta_weight(h2, ru2, s, 2) for s in (1, 3, 5)]
    assert coarse.prec == 3 and {v.prec for v in lifts} == {4}
    assert all(agreement_precision(coarse, v) >= 3 for v in lifts)
    # precision W does not bind
    assert padic_zeta_weight(h, ru, PadicInt(3, 9, 5), 3).prec == 6
    for run in (lambda: padic_zeta_weight(h, ru, PadicInt(7, 8, 5), 3),
                lambda: L_assemble([(1, h, ru)], PadicInt(7, 8, 5), 3)):
        with pytest.raises(ResidueFieldMismatch, match="not at p = 3"):
            run()
    with pytest.raises(ValueError, match="^p must be prime$"):
        MeasureHandle(z, 4)  # the library's own check, under the CLI's
