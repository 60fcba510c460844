from fractions import Fraction
from math import isqrt, prod

import pytest

from eisenzeta.cocycle import first_column_matrix
from eisenzeta.dedekind import LinearForms, sigma_ell
from eisenzeta.exact import Matrix, coset_reps, identity, mat_det, mat_mul
from eisenzeta.numberfield import (DependentUnits, Ideal, NotTotallyPositive,
                                   NumberField, adapted_basis, prime_over,
                                   totally_positive_generator,
                                   totally_positive_unit, unit_basis)
from eisenzeta.zeta import (CrossCheckFailure, MissingClassData, ZetaData,
                            _change_costs, _reduce_adapted, _unit_changes,
                            _unit_matrices, build_zeta_data,
                            combine_smoothing, norm_form, zeta_minus_k,
                            zeta_star_minus_k)

from zeta_oracles import zagier_cycles, zagier_zeta_minus1


def sigma3(n):
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


def siegel_zeta_minus3(D):
    total = 0
    for b in range(-isqrt(D), isqrt(D) + 1):
        if b * b < D and (D - b * b) % 4 == 0:
            total += sigma3((D - b * b) // 4)
    return Fraction(total, 120)


def test_zagier_oracle_values():
    assert zagier_zeta_minus1(5) == Fraction(1, 30)
    assert zagier_zeta_minus1(8) == Fraction(1, 12)
    assert siegel_zeta_minus3(8) == Fraction(11, 120)
    assert siegel_zeta_minus3(5) == Fraction(1, 60)


def sqrt5_data(ell=11, a=None):
    """Q(sqrt 5), its unit ideal and the zeta data of f = O and c above
    ell; the acceptance tests share it."""
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c = prime_over(F, ell)
    return F, one, build_zeta_data(F, one, a or one, c, ell)


def test_smoothed_zeta_sqrt5_exact():
    # narrow class number one: zeta_{f,c}(a, -k) = (1 - ell^(1+k)) zeta_F(-k)
    F, one, z = sqrt5_data(11)
    assert zeta_minus_k(z, 0) == 0
    assert zeta_minus_k(z, 1) == (1 - 11 ** 2) * zagier_zeta_minus1(5)
    assert zeta_minus_k(z, 1) == -4
    assert zeta_minus_k(z, 3, crosscheck=True) == \
        (1 - 11 ** 4) * siegel_zeta_minus3(5)


def test_norm_powers_in_any_order():
    # ZetaData.power steps P^k from the last power when k follows it, and
    # takes P ** k otherwise, or after P is replaced
    F, one, z = sqrt5_data(11)
    for k in (0, 1, 2, 5, 4, 5, 6, 0, 3):
        assert z.power(k) == z.P ** k
    z.P = 2 * z.P
    assert z.power(4) == z.P ** 4 and z.power(5) == z.P ** 5


def test_smoothed_zeta_sqrt2_exact():
    F = NumberField([-2, 0, 1])
    one = Ideal.unit_ideal(F)
    c = prime_over(F, 7)
    z = build_zeta_data(F, one, one, c, 7)
    assert zeta_minus_k(z, 1) == (1 - 7 ** 2) * zagier_zeta_minus1(8)
    assert zeta_minus_k(z, 1) == -4
    assert zeta_minus_k(z, 0) == 0
    assert zeta_minus_k(z, 3, crosscheck=True) == \
        (1 - 7 ** 4) * siegel_zeta_minus3(8)


def test_other_smoothing_prime():
    F, one, z19 = sqrt5_data(19)
    assert zeta_minus_k(z19, 1) == (1 - 19 ** 2) * zagier_zeta_minus1(5)


def test_values_in_z_one_over_ell():
    F, one, z = sqrt5_data(11)
    for k in range(4):
        den = zeta_minus_k(z, k, crosscheck=False).denominator
        while den % 11 == 0:
            den //= 11
        assert den == 1


def test_zagier_cycles_sqrt3():
    # D = 12: two narrow classes, as the fundamental unit 2 + sqrt3 has
    # norm +1; the cycle with a = 1 is the class of O
    assert zagier_cycles(12) == [
        (((1, 4, 1),), (4,), Fraction(1, 12)),
        (((2, 6, 3), (3, 6, 2)), (3, 2), Fraction(-1, 12))]


@pytest.mark.parametrize("ell", [11, 13, 23])
def test_narrow_class_number_two_per_class(ell):
    # zeta_{O,c}(A, 0) = zeta(A [c], 0) - ell zeta(A, 0) for both narrow
    # classes A of Q(sqrt3), against Zagier's reduced cycles; c is narrowly
    # principal (e = 1) at 13, and in the class of (sqrt3) at 11 and 23
    F = NumberField([-3, 0, 1])
    one = Ideal.unit_ideal(F)
    root3 = Ideal.from_generators(F, [F.element((0, 1))])
    zeta0 = [value for _, _, value in zagier_cycles(12)]  # O, (sqrt3)
    c = prime_over(F, ell)
    e, _ = totally_positive_generator(c, one, bound=2, coeff_bound=30)
    assert e == (1 if ell == 13 else 2)
    for cls, A in enumerate((one, root3)):
        assert zeta_minus_k(build_zeta_data(F, one, A, c, ell), 0) == \
            zeta0[(cls + e - 1) % 2] - ell * zeta0[cls]


def test_class_invariance():
    # replacing a by a totally positive principal multiple leaves the value
    # unchanged (narrow ray class invariance)
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c = prime_over(F, 11)
    alpha = F.element((Fraction(5, 2), Fraction(1, 2)))  # (5 + sqrt5)/2, norm 5
    assert alpha.is_totally_positive()
    a2 = Ideal.from_generators(F, [alpha])
    z1 = build_zeta_data(F, one, one, c, 11)
    z2 = build_zeta_data(F, one, a2, c, 11)
    for k in range(3):
        assert zeta_minus_k(z1, k) == zeta_minus_k(z2, k)


def test_adapted_basis_invariance():
    # a different valid adapted basis gives identical values
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c = prime_over(F, 11)
    z1 = build_zeta_data(F, one, one, c, 11)
    w1, w2 = z1.w
    ws2 = [w1 + 11 * w2, w2]          # keeps the adapted property
    ws3 = [-w1, w1 + w2]              # sign flip and shear
    z2 = build_zeta_data(F, one, one, c, 11, ws=ws2)
    z3 = build_zeta_data(F, one, one, c, 11, ws=ws3)
    for k in range(3):
        ref = zeta_minus_k(z1, k)
        assert zeta_minus_k(z2, k) == ref
        assert zeta_minus_k(z3, k) == ref


def test_unit_orientation_invariance():
    # the inverse unit generates the same group; rho compensates
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c = prime_over(F, 11)
    eps = totally_positive_unit(F, one)
    z1 = build_zeta_data(F, one, one, c, 11, units=[eps])
    z2 = build_zeta_data(F, one, one, c, 11, units=[eps.inverse()])
    assert z1.rho == -z2.rho
    for k in range(3):
        assert zeta_minus_k(z1, k) == zeta_minus_k(z2, k)


def test_embedding_order_neutrality_of_rho():
    # permuting the embeddings flips sign(det W) and sign(det R) together
    # (n = 2): the product rho is unchanged
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c = prime_over(F, 11)
    z = build_zeta_data(F, one, one, c, 11)
    from eisenzeta.numberfield import _interval_det
    # swapped-order W determinant
    n = F.n
    for _ in range(100):
        entries = [[F.embed_interval(z.w[j], n - 1 - i) for j in range(n)]
                   for i in range(n)]
        det = _interval_det(entries)
        if det[0] > 0 or det[1] < 0:
            break
        for i in range(n):
            F.refine_root(i)
    swapped_w_sign = 1 if det[0] > 0 else -1
    # swapped-order R sign: log tau_2(eps) = -log tau_1(eps) for norm-one eps
    lo, hi = F.log_embed_interval(z.units[0], 1)
    swapped_r_sign = 1 if lo > 0 else -1
    rho_swapped = (-1) ** (n - 1) * swapped_w_sign * swapped_r_sign
    assert rho_swapped == z.rho


@pytest.mark.parametrize("poly, units", [
    ([-1, -3, 0, 1], [[0, 0, 1], [1, 2, 1]]), ([-5, 0, 1], None),
    ([-5, 0, 1], [[Fraction(7, 2), Fraction(3, 2)]]),
], ids=["cubic-supplied", "sqrt5-computed", "sqrt5-supplied"])
def test_regulator_sign_certified_once(poly, units, monkeypatch):
    # validating supplied units certifies the regulator sign that rho uses;
    # build_zeta_data does not certify it a second time
    import eisenzeta.numberfield as nf
    import eisenzeta.zeta
    calls, sign = [], nf.regulator_det_sign

    def counted(field, eps):
        calls.append(sign(field, eps))
        return calls[-1]

    monkeypatch.setattr(nf, "regulator_det_sign", counted)
    monkeypatch.setattr(eisenzeta.zeta, "regulator_det_sign", counted,
                        raising=False)
    F = NumberField(poly)
    one = Ideal.unit_ideal(F)
    eps = units and [F.element(u) for u in units]
    z = build_zeta_data(F, one, one, prime_over(F, 11 if F.n == 2 else 17),
                        11 if F.n == 2 else 17, units=eps)
    assert len(calls) == 1
    assert z.rho == (-1) ** (F.n - 1) * calls[0] * (
        1 if mat_det(tuple(zip(*(w.coords for w in z.w)))) > 0 else -1)


def test_norm_form_matches_element_norms():
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    c = prime_over(F, 11)
    z = build_zeta_data(F, one, one, c, 11)
    nf = norm_form(F, z.w)
    for x in ((1, 0), (0, 1), (2, 3), (-1, 4)):
        elt = F.zero()
        for xi, wi in zip(x, z.w):
            elt = elt + xi * wi
        assert nf.evaluate([Fraction(t) for t in x]) == elt.norm()


def test_P_evaluates_to_ideal_norms():
    # P(v) = N(a c) N(1) since w . v = 1
    F, one, z = sqrt5_data(11)
    assert z.P.evaluate(z.v) == 11


def test_twice_smoothed_value():
    F = NumberField([-5, 0, 1])
    one = Ideal.unit_ideal(F)
    b = prime_over(F, 11)
    c = prime_over(F, 19)
    val = combine_smoothing(F, one, one, b, c, 1)
    assert val == (1 - 11 ** 2) * (1 - 19 ** 2) * zagier_zeta_minus1(5)
    assert val == 1440
    assert val.denominator == 1
    with pytest.raises(ValueError):
        combine_smoothing(F, one, one, b, b, 1)


def test_zeta_star_inert():
    # p = 3 inert in Q(sqrt5), f = (1): zeta* = zeta(a) - 9^k zeta(a (3)^-1),
    # and class triviality collapses both terms to the same data
    F, one, z = sqrt5_data(11)
    for k in range(3):
        star = zeta_star_minus_k(z, k, [(0, 1, z), (1, 9, z)])
        assert star == (1 - Fraction(9) ** k) * zeta_minus_k(z, k)
    with pytest.raises(MissingClassData):
        zeta_star_minus_k(z, 1, [(1, 9, z)])


def test_cross_check_failure_detectable():
    # tampering with the chain triggers the internal alarm
    F, one, z = sqrt5_data(11)
    bad = ZetaData(z.field, z.f, z.a, z.c, z.ell, z.w, z.wstar, z.P,
                   z.Qfull, z.Qsingle, (z.v[0] + Fraction(1, 3), z.v[1]),
                   z.units, z.rho, z.chain)
    with pytest.raises(CrossCheckFailure):
        zeta_minus_k(bad, 1, crosscheck=True)


def _chain_coset_cost(field, ws, eps, ell):
    """The cosets the kernel walks for the basis ws: the sum over the chain
    tuples (I, U_p1, U_p1 U_p2, ...), one per permutation p of the unit
    matrices U, of |det| of the tuple's first columns / ell^(n-1)."""
    from itertools import permutations
    n = field.n
    total = 0
    for perm in permutations(_unit_matrices(field, ws, eps)):
        p = identity(n)
        cols = [[row[0] for row in p]]
        for u in perm:
            p = mat_mul(p, u)
            cols.append([row[0] for row in p])
        total += abs(int(mat_det(cols))) // ell ** (n - 1)
    return total


def _walked_cosets(z):
    """The cosets d_ell walks for the chain of z: those of sigma_ell of
    each chain term's first-column matrix."""
    return sum(len(coset_reps(sigma_ell(first_column_matrix(tup), z.ell)))
               for _, tup in z.chain.terms)


def _reduce_by_rebuilding(field, ws, eps, ell, radius=8):
    """Oracle for _reduce_adapted: rebuild every candidate basis and its
    unit matrices from field arithmetic, and take the least coset count."""
    from itertools import product
    best, best_cost = list(ws), _chain_coset_cost(field, ws, eps, ell)
    for m in product(range(-radius, radius + 1), repeat=field.n - 1):
        if not any(m):
            continue
        w1 = ws[0]
        for mj, wj in zip(m, ws[1:]):
            w1 = w1 + (ell * mj) * wj
        cand = [w1] + list(ws[1:])
        cost = _chain_coset_cost(field, cand, eps, ell)
        if cost < best_cost:
            best, best_cost = cand, cost
    return best


def _degree_one_primes(F, ell):
    """Every prime (ell, theta - r) of norm ell, by ascending r; the first
    is the one `prime_over` picks."""
    return [Ideal.from_generators(F, [F.from_rational(ell),
                                      F.element([-r, 1] + [0] * (F.n - 2))])
            for r in range(ell)
            if sum(c * r ** i for i, c in enumerate(F.f)) % ell == 0]


CUBIC = ([-1, -3, 0, 1], [[0, 0, 1], [1, 2, 1]])
REDUCE_CASES = [(CUBIC, ell, i, None, None) for ell in (17, 19)
                for i in range(3)]
REDUCE_CASES += [(([-5, 0, 1], None), ell, i, None, None)
                 for ell in (11, 19, 29) for i in range(2)]
REDUCE_CASES += [(([-5, 0, 1], None), 19, i, 11, 3) for i in range(2)]


def _reduce_case(field, ell, index, a_over, f):
    """(F, f, a, c, units, adapted basis) of one of REDUCE_CASES."""
    poly, units = field
    F = NumberField(poly)
    one = Ideal.unit_ideal(F)
    fi = one if f is None else Ideal.from_generators(F, [F.from_rational(f)])
    a = one if a_over is None else prime_over(F, a_over)
    c = _degree_one_primes(F, ell)[index]
    eps = [F.element(u) for u in units] if units else unit_basis(F, fi)
    return F, fi, a, c, eps, adapted_basis(a, fi, c, ell)


REDUCE_IDS = [f"{'cubic' if fld is CUBIC else 'sqrt5'}-{ell}"
              + (f"-{i}" if i else "") + (f"-a{a_over}-f{f}" if f else "")
              for fld, ell, i, a_over, f in REDUCE_CASES]


@pytest.mark.parametrize("field, ell, index, a_over, f", REDUCE_CASES,
                         ids=REDUCE_IDS)
def test_reduce_adapted_matches_rebuilding(field, ell, index, a_over, f):
    # the norm search picks exactly the basis of least coset count at
    # every degree-one prime, also for a != O and f != O
    F, fi, a, c, eps, ws = _reduce_case(field, ell, index, a_over, f)
    got = _reduce_adapted(F, ws, ell)[0]
    assert got == _reduce_by_rebuilding(F, ws, eps, ell)
    if (field[0], ell, index) in ((CUBIC[0], 17, 0), ([-5, 0, 1], 11, 0)):
        assert got != ws  # the search moves the basis at these primes


@pytest.mark.parametrize("field, ell, index, a_over, f", REDUCE_CASES,
                         ids=REDUCE_IDS)
def test_one_norm_form_per_build(field, ell, index, a_over, f, monkeypatch):
    # the moved basis's norm form is the start basis's after an integer
    # substitution: one resultant per build_zeta_data, and P is N(ac) times
    # the norm form of the basis it returns, also for a supplied basis
    import eisenzeta.zeta as zeta
    F, fi, a, c, eps, ws = _reduce_case(field, ell, index, a_over, f)
    calls = []
    resultant = zeta.resultant_norm
    monkeypatch.setattr(zeta, "resultant_norm",
                        lambda *args: calls.append(args) or resultant(*args))
    z = build_zeta_data(F, fi, a, c, ell, units=eps)
    assert len(calls) == 1
    supplied = build_zeta_data(F, fi, a, c, ell, units=eps, ws=ws)
    assert len(calls) == 2
    nac = a.norm() * c.norm()
    for data in (z, supplied):
        assert data.P == nac * norm_form(F, data.w)
    assert supplied.w == ws


def test_sign_matrix_memo_per_sigma():
    # the memo keys on sigma: every sigma gets its own sign matrix, the one
    # computed with the memo empty, also when it is asked for a second time
    # or given as lists of Fractions; for the zeta tuples and rational forms
    from eisenzeta.dedekind import _row_signs
    F, one, z = sqrt5_data()
    sigmas = [None, ((1, 0), (0, 1)), ((-1, 0), (0, 1)), ((0, 1), (1, 0)),
              ((2, 1), (1, -1))]
    sigmas += [first_column_matrix(tup) for _, tup in z.chain.terms]
    rational = LinearForms([[1, Fraction(-2, 7)], [Fraction(-3, 2), 5]])
    for q in (z.Qfull, *z.Qsingle, rational):
        fresh = []
        for s in sigmas:
            _row_signs.cache_clear()
            fresh.append(q.sign_matrix(s))
        _row_signs.cache_clear()
        assert len(set(fresh)) > 1
        assert [q.sign_matrix(s) for s in sigmas] == fresh
        assert [q.sign_matrix(s) for s in reversed(sigmas)] == fresh[::-1]
        listed = [[Fraction(e) for e in row] for row in sigmas[2]]
        assert q.sign_matrix(listed) == fresh[2]


def test_full_tuple_reads_the_single_forms_signs(monkeypatch):
    # Qfull's row i is Qsingle[i]'s row: once the single forms have their
    # signs at sigma, the full tuple certifies no sign of its own
    from eisenzeta.dedekind import _row_signs
    F, one, z = sqrt5_data()
    calls = []
    sign_at = NumberField.sign_at
    monkeypatch.setattr(NumberField, "sign_at",
                        lambda *args: calls.append(args) or sign_at(*args))
    _row_signs.cache_clear()
    for _, tup in z.chain.terms:
        sigma = first_column_matrix(tup)
        singles = tuple(q.sign_matrix(sigma)[0] for q in z.Qsingle)
        assert calls
        calls.clear()
        assert z.Qfull.sign_matrix(sigma) == singles
        assert not calls


def test_equal_rows_at_two_embeddings_keep_their_signs():
    # the memo keys on the embedding: theta = sqrt 5 is negative at the
    # first root and positive at the second, with the same coefficients
    F = NumberField([-5, 0, 1])
    cs = (F.theta(), F.one())
    both = LinearForms([(0, cs), (1, cs)], F)
    assert both.sign_matrix() == ((-1, 1), (1, 1))
    assert LinearForms([(0, cs)], F).sign_matrix() == ((-1, 1),)
    assert LinearForms([(1, cs)], F).sign_matrix() == ((1, 1),)
    assert LinearForms([(0, cs)], F).sign_matrix() == ((-1, 1),)


@pytest.mark.parametrize("ell", [17, 19])
def test_change_costs_match_rebuilding(ell):
    # the units-only integer score of every det +1 change E equals the
    # coset cost of the basis E.eps rebuilt from field arithmetic, and the
    # least one is 5 where the supplied basis walks 8
    F = NumberField(CUBIC[0])
    eps = [F.element(u) for u in CUBIC[1]]
    one = Ideal.unit_ideal(F)
    ws = build_zeta_data(F, one, one, prime_over(F, ell), ell, units=eps).w
    costs = _change_costs(_unit_matrices(F, ws, eps), ell)
    assert list(costs) == list(_unit_changes(2))  # no singular tuple here
    for e, cost in costs.items():
        units = [prod((u ** k for u, k in zip(eps, row)), start=F.one())
                 for row in e]
        assert cost == _chain_coset_cost(F, ws, units, ell)
    assert costs[((1, 0), (0, 1))] == 8 and min(costs.values()) == 5



def test_change_memo_keys_on_the_units(monkeypatch):
    # each unit basis of one field gets the change of least cost on its
    # own adapted basis, scored here without the memo: a memo keyed on the
    # field alone would hand (eps1, eps1 eps2) the change ((1, -1), (0, 1))
    # of (eps1, eps2), not ((1, 0), (-2, 1)); a second build with the same
    # units, here at another ell, scores no change
    import eisenzeta.zeta as zeta
    F = NumberField(CUBIC[0])
    one = Ideal.unit_ideal(F)
    c = prime_over(F, 17)
    e1, e2 = (F.element(u) for u in CUBIC[1])
    bases = ([e1, e2], [e1, e1 * e2], [e2, e1])
    zeta._least_change.cache_clear()
    chosen = []
    for units in bases:
        z = build_zeta_data(F, one, one, c, 17, units=units)
        costs = _change_costs(_unit_matrices(F, z.w, units), 17)
        chosen.append(min(costs, key=costs.get))
        assert z.units == [prod((u ** k for u, k in zip(units, row)),
                                start=F.one()) for row in chosen[-1]]
    assert chosen[:2] == [((1, -1), (0, 1)), ((1, 0), (-2, 1))]
    assert zeta._least_change.cache_info().currsize == 3
    scored = []
    costs = zeta._change_costs
    monkeypatch.setattr(zeta, "_change_costs",
                        lambda *args: scored.append(args) or costs(*args))
    again = build_zeta_data(F, one, one, prime_over(F, 19), 19,
                            units=bases[1])
    assert not scored and again.units == build_zeta_data(
        F, one, one, c, 17, units=bases[1]).units


@pytest.mark.parametrize("units, error, message", [
    ([[0, 0, -1], [1, 2, 1]], NotTotallyPositive,
     "unit is not totally positive"),
    ([[0, 0, 1], [0, 1, 3]], DependentUnits,
     r"regulator sign undecided \(units may be dependent\)"),
    ([[0, 0, 1]], DependentUnits, "need exactly n - 1 units"),
    ([[0, 0, 1], [1, 2, 1], [0, 0, 1]], DependentUnits,
     "need exactly n - 1 units"),
], ids=["not-totally-positive", "dependent", "one-unit", "three-units"])
def test_bad_unit_bases_fail_before_the_search(units, error, message,
                                               monkeypatch):
    # validate_units refuses these with the class and message it always
    # had, before any change of basis is scored
    import eisenzeta.zeta as zeta

    def scorer(*args):
        raise AssertionError("a change of basis was scored")

    monkeypatch.setattr(zeta, "_change_costs", scorer)
    F = NumberField(CUBIC[0])
    one = Ideal.unit_ideal(F)
    with pytest.raises(error, match=f"^{message}$"):
        build_zeta_data(F, one, one, prime_over(F, 17), 17,
                        units=[F.element(u) for u in units])
