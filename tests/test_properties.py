"""Property tests: exact linear algebra (determinants against cofactor
expansion), integer polynomial substitution against a naive expansion,
norm forms of the multiplication matrix in Q[t]/(f) against Sylvester
determinants and its columns against reduction mod f, field and
cyclotomic products against the schoolbook product mod f, lattice membership,
the exact irreducibility test (a named factor of every product of
real-rooted polynomials, and biquadratic fields accepted though reducible
mod every prime), logarithm bounds (the fixed-point series against the
exact-Fraction one kept here as an oracle), the regulator sign under a
change of units, zeta(-1), rho and the coset count under a change of unit
basis, the Bernoulli distribution relation, the integer
Bernoulli rows and convolution behind the restricted distribution (one
level at a time and the whole row of levels), the
cocycle relation and equivariance at polynomials of degree 2 to 6, and the
box values of the p-adic measure against its distribution relation and its
row kernel, and the cells of the p-adic regions against the per-cell
Fraction membership test kept in test_padic.py.

Every test runs a fixed, derandomized example sequence and keeps no example
database, so the suite stays deterministic and writes nothing to the
working tree.
"""

import math
import re
import tempfile
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from eisenzeta.bernoulli import (B_e, B_e_Q, B_e_Q_plus, periodic_B,
                                 periodic_B_row)
from eisenzeta.cocycle import (CocycleArgs, GammaEllMatrix,
                               first_column_matrix, module_action, psi_ell)
from eisenzeta.cyclotomic import CycloElement
from eisenzeta.dedekind import (LinearFormModL, LinearForms, b1_L_z_fast,
                                b_L_z, b_L_z_direct)
from eisenzeta.exact import (MultiPoly, SingularMatrix, hnf, identity,
                             lattice_hnf, mat_det, mat_inv, mat_mul,
                             mat_solve, mat_vec, multiplication_matrix,
                             reduce_mod_lattice, resultant_norm)
from eisenzeta.numberfield import (DependentUnits, Ideal, NotIrreducible,
                                   NumberField, ln_interval, prime_over,
                                   real_root_count, regulator_det_sign)
from eisenzeta.padic import (MeasureHandle, _poly_residue_evaluator,
                             integrate_cells, region_box)
from eisenzeta.zeta import build_zeta_data, zeta_minus_k

from test_bernoulli import horner_periodic_B
from test_padic import REGION_CASES, _row_kernel_handle, region_case
from test_zeta import _chain_coset_cost, _walked_cosets

PROPS = settings(database=None, derandomize=True, deadline=None,
                 max_examples=60)

# hypothesis caches the constants of the code under test on disk even
# without an example database; keep that cache out of the working tree
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


def matrices(n, m):
    return st.lists(st.lists(rationals, min_size=m, max_size=m),
                    min_size=n, max_size=n).map(
        lambda rows: tuple(tuple(r) for r in rows))


@st.composite
def linear_systems(draw):
    n = draw(st.integers(1, 4))
    a = draw(matrices(n, n))
    assume(mat_det(a) != 0)
    return a, draw(matrices(n, draw(st.integers(1, 3))))


@PROPS
@given(linear_systems())
def test_mat_solve_and_inverse(system):
    a, b = system
    assert mat_mul(a, mat_solve(a, b)) == b
    assert mat_mul(mat_inv(a), a) == identity(len(a))


def _cofactor_det(a):
    """Determinant by cofactor expansion along the first row."""
    if not a:
        return Fraction(1)
    return sum((-1) ** j * a[0][j]
               * _cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


@st.composite
def square_matrices(draw):
    """Rational n x n matrices, n <= 4; about half are made singular by
    setting the last row to a rational combination of the others."""
    n = draw(st.integers(1, 4))
    rows = [list(r) for r in draw(matrices(n, n))]
    if draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                    for j in range(n)]
    return tuple(tuple(r) for r in rows)


@PROPS
@given(square_matrices())
def test_mat_det_matches_cofactor_expansion(a):
    det = mat_det(a)
    assert isinstance(det, Fraction) and det == _cofactor_det(a)
    ints = tuple(tuple(int(x * 60) for x in row) for row in a)
    assert mat_det(ints) == _cofactor_det(ints)


@st.composite
def monomials(draw, n, top):
    """An exponent tuple of total degree at most top."""
    left, exps = draw(st.integers(0, top)), []
    for _ in range(n - 1):
        exps.append(draw(st.integers(0, left)))
        left -= exps[-1]
    return (*exps, left)


@st.composite
def substitutions(draw):
    """A polynomial of degree <= 8 in 2 or 3 variables, homogeneous or
    not, and an integer or rational matrix with zero entries, about a
    third of them singular."""
    n = draw(st.integers(2, 3))
    P = MultiPoly(n, draw(st.dictionaries(monomials(n, 8), rationals,
                                          max_size=6)))
    if draw(st.booleans()):
        entry = st.sampled_from([0, 0, 1, -1, 2, -3, 5])
    else:
        entry = st.one_of(st.just(Fraction(0)), rationals)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.integers(0, 2)) == 0:
        rows[-1] = [2 * x for x in rows[0]]
    point = draw(st.lists(rationals, min_size=n, max_size=n))
    return P, tuple(map(tuple, rows)), point


def _naive_compose(P, rows):
    """Expand P(rows * X) one linear factor at a time, in Fractions."""
    n, out = P.nvars, {}
    for mono, c in P.coeffs.items():
        term = {(0,) * n: c}
        for i, e in enumerate(mono):
            for _ in range(e):
                nxt = {}
                for m, a in term.items():
                    for j in range(n):
                        m2 = tuple(t + (k == j) for k, t in enumerate(m))
                        nxt[m2] = nxt.get(m2, 0) + a * rows[i][j]
                term = nxt
        for m, a in term.items():
            out[m] = out.get(m, 0) + a
    return {m: Fraction(a) for m, a in out.items() if a != 0}


@PROPS
@given(substitutions())
def test_compose_matrix_matches_naive_expansion(case):
    P, rows, point = case
    composed = P.compose_matrix(rows)
    assert composed.nvars == P.nvars
    assert composed.coeffs == _naive_compose(P, rows)
    assert all(c != 0 and isinstance(c, Fraction)
               for c in composed.coeffs.values())
    assert composed.evaluate(point) == P.evaluate(mat_vec(rows, point))


@st.composite
def norm_forms(draw):
    """A monic integer f of degree 2 to 4, g of t-degree < n with integer
    polynomial coefficients in 2 variables (possibly none), integer points
    and a rational g of t-degree < n."""
    n = draw(st.integers(2, 4))
    f = [*draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)), 1]
    small = st.integers(-4, 4)
    g = [MultiPoly(2, draw(st.dictionaries(monomials(2, 2), small,
                                           max_size=3)))
         for _ in range(draw(st.integers(0, n)))]
    points = draw(st.lists(st.lists(st.integers(-5, 5), min_size=2,
                                    max_size=2), min_size=1, max_size=3))
    return f, g, points, draw(st.lists(rationals, max_size=n))


def _sylvester_resultant(f, g):
    """prod g(theta_i) over the roots of the monic integer f, for an
    integer g: the determinant of the Sylvester matrix of f and g."""
    g = list(g)
    while g and g[-1] == 0:
        g.pop()
    if not g:
        return 0
    n, d = len(f) - 1, len(g) - 1
    if d == 0:
        return g[0] ** n
    size = n + d
    rows = [[0] * i + f[::-1] + [0] * (size - n - 1 - i) for i in range(d)]
    rows += [[0] * i + g[::-1] + [0] * (size - d - 1 - i) for i in range(n)]
    return mat_det(rows)


def _poly_mod(f, g):
    """The coefficients of g mod the monic f by long division, n of them."""
    n, out = len(f) - 1, list(g)
    while len(out) > n:
        top = out.pop()
        for i in range(n):
            out[len(out) - n + i] -= top * f[i]
    return out + [0] * (n - len(out))


def _times_power_mod(f, g, j):
    """The coefficients of g t^j mod the monic f, n of them."""
    return _poly_mod(f, [0] * j + list(g))


@PROPS
@given(norm_forms())
def test_multiplication_matrix_norms_and_columns(case):
    f, g, points, h = case
    norm = resultant_norm(f, g)
    for x in points:
        gx = [int(c.evaluate(x)) for c in g]
        assert norm.evaluate(x) == _sylvester_resultant(f, gx)
    m = multiplication_matrix(f, h, 0)
    for j in range(len(f) - 1):
        assert [row[j] for row in m] == _times_power_mod(f, h, j)


@lru_cache(maxsize=None)
def _product_ring(f):
    """Elements of Q[t]/(f) from coordinates: a field, or Q(zeta_ell) when
    f is the ell-th cyclotomic polynomial 1 + t + ... + t^(ell-1)."""
    if set(f) == {1}:
        return lambda coords: CycloElement(len(f), coords)
    return NumberField(f).element


@pytest.mark.parametrize("f", [
    (-5, 0, 1), (-1, -3, 0, 1), (9, 0, -14, 0, 1),
    (1,) * 3, (1,) * 5, (1,) * 7,
], ids=["sqrt5", "cubic", "biquadratic", "ell3", "ell5", "ell7"])
@PROPS
@given(data=st.data())
def test_products_are_polynomial_products_mod_f(f, data):
    # field and cyclotomic products read exact.multiplication_matrix; here
    # the product is the schoolbook one, reduced mod f by long division
    n = len(f) - 1
    a, b = (data.draw(st.lists(rationals, min_size=n, max_size=n))
            for _ in range(2))
    raw = [sum(a[i] * b[k - i] for i in range(n) if 0 <= k - i < n)
           for k in range(2 * n - 1)]
    element = _product_ring(f)
    assert (element(a) * element(b)).coords == tuple(_poly_mod(f, raw))


def _integral_solution(h, x):
    """x lies in the column lattice of h iff h y = x has integral y."""
    y = mat_solve(h, tuple((t,) for t in x))
    return all(row[0].denominator == 1 for row in y)


@st.composite
def lattice_points(draw):
    n = draw(st.integers(1, 4))
    cols = draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                         min_size=n, max_size=n + 2))
    try:
        h = lattice_hnf(cols)
    except SingularMatrix:
        assume(False)
    k = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    d = draw(st.lists(st.builds(Fraction, st.integers(-4, 4),
                                st.sampled_from([1, 1, 2, 3])),
                      min_size=n, max_size=n))
    return h, k, d


@PROPS
@given(st.integers(1, 4).flatmap(lambda n: matrices(n, n)))
def test_hnf_matches_lattice_hnf(m):
    # H = M U from the columns [M_j; e_j] is the HNF of M's column lattice
    assume(mat_det(m) != 0)
    h, u = hnf(m)
    assert h == lattice_hnf(list(zip(*m)))
    assert mat_mul(m, u) == h and abs(mat_det(u)) == 1


@PROPS
@given(lattice_points())
def test_lattice_membership(point):
    # h*k plus a perturbation d is a member exactly when d is
    h, k, d = point
    x = [hk + dk for hk, dk in zip(mat_vec(h, k), d)]
    member = not any(reduce_mod_lattice(x, h))
    assert member == (not any(reduce_mod_lattice(d, h)))
    assert member == _integral_solution(h, x)


FIELDS = (NumberField([-5, 0, 1]), NumberField([-1, -3, 0, 1]))


@st.composite
def ideal_members(draw):
    field = draw(st.sampled_from(FIELDS))
    coords = st.lists(st.integers(-6, 6), min_size=field.n, max_size=field.n)
    gens = [field.element(c) for c in draw(st.lists(coords, min_size=1,
                                                    max_size=2))]
    assume(not all(g.is_zero() for g in gens))
    x = field.element(draw(st.lists(st.integers(-40, 40), min_size=field.n,
                                    max_size=field.n)))
    return Ideal.from_generators(field, gens), x


@PROPS
@given(ideal_members())
def test_ideal_contains_agrees_with_lattice(case):
    ideal, x = case
    assert ideal.contains(x) == _integral_solution(ideal.basis, x.coords)
    for b in ideal.basis_elements():
        assert ideal.contains(x * b)
        assert ideal.contains(x) == ideal.contains(x + b)


@st.composite
def real_rooted(draw, deg):
    """A monic integer polynomial of degree deg with deg distinct real
    roots."""
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg))
    assume(real_root_count(coeffs + [1]) == deg)
    return coeffs + [1]


@st.composite
def real_rooted_pairs(draw):
    return (draw(real_rooted(draw(st.integers(2, 3)))),
            draw(real_rooted(draw(st.integers(2, 3)))))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _named_factor(message):
    """The factor a NotIrreducible message names, ascending coefficients:
    t - r for "the integer root r", else the polynomial after "factor"."""
    root = re.search(r"integer root (-?\d+)$", message)
    if root:
        return [-int(root[1]), 1]
    coeffs = {}
    for term in message.split("factor ")[1].replace(" - ", " + -").split(" + "):
        c, t, k = re.fullmatch(r"(-?\d*)(t?)\^?(\d*)", term).groups()
        coeffs[int(k or len(t))] = int(c + "1" if c in ("", "-") else c)
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


@PROPS
@given(real_rooted_pairs())
@example(([-2, 0, 1], [-2, 0, 1]))  # (t^2 - 2)^2: no simple root
@example(([-1, -3, 0, 1], [-1, -3, 0, 1]))
def test_real_rooted_product_names_a_factor(pair):
    # f = g h has all its roots real, so the subset search finds a factor of
    # degree at most deg(f) / 2; the named one must divide f exactly
    f = _poly_mul(*pair)
    with pytest.raises(NotIrreducible) as info:
        NumberField(f)
    g = _named_factor(str(info.value))
    assert g[-1] == 1 and 2 * (len(g) - 1) <= len(f) - 1
    rem = list(f)
    for k in range(len(f) - len(g), -1, -1):
        q = rem[k + len(g) - 1]
        rem[k:k + len(g)] = [r - q * c for r, c in zip(rem[k:], g)]
    assert not any(rem)


@PROPS
@given(st.integers(2, 40), st.integers(2, 40))
@example(2, 5)
def test_biquadratic_fields_construct(a, b):
    # sqrt(a) + sqrt(b) has degree 4 when a, b and ab are not squares; its
    # minimal polynomial is reducible mod every prime, and is irreducible
    assume(all(math.isqrt(x) ** 2 != x for x in (a, b, a * b)))
    F = NumberField([(a - b) ** 2, 0, -2 * (a + b), 0, 1])
    assert F.n == 4


@PROPS
@given(st.builds(Fraction, st.integers(1, 10 ** 9), st.integers(1, 10 ** 6)))
def test_ln_interval_brackets_log(x):
    lo, hi = ln_interval(x)
    assert lo <= hi and hi - lo < Fraction(1, 10 ** 9)
    # more series terms must tighten the bounds, never cross them
    lo2, hi2 = ln_interval(x, terms=40)
    assert lo <= lo2 <= hi2 <= hi
    ref = math.log(x.numerator) - math.log(x.denominator)
    slack = 1e-12 * max(1.0, abs(ref))
    assert float(lo) - slack <= ref <= float(hi) + slack



def _fraction_atanh(y, terms):
    """2 atanh(y) for 0 <= y < 1 between the partial sum of its first
    terms and that sum plus the geometric tail bound, in exact Fractions."""
    s, ypow, y2 = Fraction(0), y, y * y
    for i in range(terms):
        s += ypow / (2 * i + 1)
        ypow *= y2
    return 2 * s, 2 * s + 2 * ypow / ((2 * terms + 1) * (1 - y2))


_FRACTION_LN2 = _fraction_atanh(Fraction(1, 3), 40)


def fraction_ln_interval(x, terms):
    """Oracle for `ln_interval`: the same series cut at the same terms,
    summed in exact Fractions, ln x = k ln 2 + 2 atanh((y - 1) / (y + 1))
    for x = 2^k y with y in [1, 2), and ln x = -ln(1 / x) below 1."""
    if x < 1:
        lo, hi = fraction_ln_interval(1 / x, terms)
        return -hi, -lo
    k = (x.numerator // x.denominator).bit_length() - 1
    y = x / 2 ** k
    lo, hi = _fraction_atanh((y - 1) / (y + 1), terms)
    return lo + k * _FRACTION_LN2[0], hi + k * _FRACTION_LN2[1]


@PROPS
@given(st.builds(Fraction, st.integers(1, 10 ** 12), st.integers(1, 10 ** 12)),
       st.sampled_from([1, 2, 8, 24, 40]))
@example(Fraction(1), 24)
@example(Fraction(2 ** 40), 24)
@example(Fraction(1, 3), 24)
@example(Fraction(3, 2) ** 5, 40)
def test_fixed_point_ln_brackets_the_fraction_series(x, terms):
    # each fixed-point bound is rounded outward from the exact series' one,
    # by less than 64 units of 2^-96 per series term and per factor 2
    lo, hi = ln_interval(x, terms)
    olo, ohi = fraction_ln_interval(x, terms)
    assert lo <= olo <= ohi <= hi
    k = abs(x.numerator.bit_length() - x.denominator.bit_length()) + 1
    assert (olo - lo) + (hi - ohi) < Fraction(64 * (terms + k + 1), 2 ** 96)
    ref = math.log(x.numerator) - math.log(x.denominator)
    slack = 1e-12 * max(1.0, abs(ref))
    assert float(lo) - slack <= ref <= float(hi) + slack

_CUBIC_UNITS = (FIELDS[1].element([0, 0, 1]), FIELDS[1].element([1, 2, 1]))


@PROPS
@given(st.tuples(*[st.integers(-2, 2)] * 4),
       st.sampled_from([Fraction(1, 10 ** 6), Fraction(1, 10 ** 12),
                        Fraction(1, 10 ** 18)]))
def test_regulator_sign_transforms_by_exponent_det(exps, width):
    # eps1 = theta^2, eps2 = (theta + 1)^2: the log matrix of
    # [eps1^a eps2^b, eps1^c eps2^d] is the units' one times [[a, c], [b, d]]
    F = FIELDS[1]
    a, b, c, d = exps
    e1, e2 = _CUBIC_UNITS
    units = [e1 ** a * e2 ** b, e1 ** c * e2 ** d]
    if a * d == b * c:
        with pytest.raises(DependentUnits):
            regulator_det_sign(F, units)
    else:
        assert regulator_det_sign(F, units) == \
            (1 if a * d > b * c else -1) * regulator_det_sign(F, _CUBIC_UNITS)
    for i in range(F.n):
        llo, lhi = F.log_embed_interval(units[0], i, width=width)
        assert lhi - llo < width
        while F.root_interval(i)[1] - F.root_interval(i)[0] > 1e-15:
            F.refine_root(i)
        t = float(F.root_interval(i)[0])
        ref = 2 * a * math.log(abs(t)) + 2 * b * math.log(abs(t + 1))
        slack = 1e-12 * max(1.0, abs(ref))
        assert float(llo) - slack <= ref <= float(lhi) + slack


_UNIT_CHANGES = [e for e in product(range(-2, 3), repeat=4)
                 if abs(e[0] * e[3] - e[1] * e[2]) == 1]


@lru_cache(maxsize=None)
def _cubic_zeta_data(units):
    F = FIELDS[1]
    return build_zeta_data(F, Ideal.unit_ideal(F), Ideal.unit_ideal(F),
                           prime_over(F, 17), 17, units=list(units))


@PROPS
@given(st.sampled_from(_UNIT_CHANGES))
def test_zeta_invariant_under_a_change_of_unit_basis(exps):
    # any basis E.eps of the cubic's units, det E = +-1, gives the same
    # zeta(-1) and rho times det E (the regulator sign moves by det E and
    # the library's own reduction by det +1 keeps it), and the chain built
    # walks no more cosets than that basis itself would
    a, b, c, d = exps
    e1, e2 = _CUBIC_UNITS
    units = (e1 ** a * e2 ** b, e1 ** c * e2 ** d)
    z = _cubic_zeta_data(units)
    assert zeta_minus_k(z, 1) == 32
    assert z.rho == (a * d - b * c) * _cubic_zeta_data(_CUBIC_UNITS).rho
    assert _walked_cosets(z) <= _chain_coset_cost(FIELDS[1], z.w, units, 17)


@st.composite
def distribution_args(draw):
    n = draw(st.integers(1, 3))
    e = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    x = tuple(draw(st.lists(st.builds(Fraction, st.integers(-6, 6),
                                      st.integers(1, 4)),
                            min_size=n, max_size=n)))
    s = tuple(tuple(row) for row in draw(st.lists(
        st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
        min_size=1, max_size=2)))
    return draw(st.integers(2, 3)), e, x, s


@PROPS
@given(distribution_args())
def test_bernoulli_distribution_relation(args):
    # B(x) = N^(|e| - n) * sum over y in [0, N)^n of B((x + y) / N), for the
    # plain product and for both sign-corrected ones
    N, e, x, s = args
    scale = Fraction(N) ** (sum(e) - len(e))
    for B in (lambda e, v: B_e(e, v), lambda e, v: B_e_Q(e, v, s),
              lambda e, v: B_e_Q_plus(e, v, s)):
        total = sum(B(e, [(xj + yj) / N for xj, yj in zip(x, y)])
                    for y in product(range(N), repeat=len(e)))
        assert B(e, x) == scale * total


@PROPS
@given(st.integers(0, 8), st.builds(Fraction, st.integers(-30, 30),
                                    st.integers(1, 6)),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_periodic_B_row(k, x, ell):
    # the row, and the single values (the same integer evaluator at
    # ell = 1), against the Fraction-Horner form
    d, row = periodic_B_row(k, x, ell)
    want = [horner_periodic_B(k, (x + y) / ell) for y in range(ell)]
    assert [Fraction(n, d) for n in row] == want
    assert [periodic_B(k, (x + y) / ell) for y in range(ell)] == want


@st.composite
def restricted_args(draw):
    n = draw(st.integers(2, 4))
    ell = draw(st.sampled_from([2, 3, 5, 7, 11]))
    L = LinearFormModL(ell, draw(st.lists(st.integers(1, ell - 1),
                                          min_size=n, max_size=n)))
    # the all-ones weight is drawn on its own, not left to a 5^-n chance
    e = draw(st.one_of(st.just((1,) * n), st.lists(
        st.integers(1, 5), min_size=n, max_size=n).map(tuple)))
    # integral coordinates make defect points at e_j = 1
    coord = st.one_of(st.integers(-12, 12).map(Fraction),
                      st.builds(Fraction, st.integers(-12, 12),
                                st.integers(2, 6)))
    x = tuple(draw(st.lists(coord, min_size=n, max_size=n)))
    # rows drawn from a pool of one or two, so duplicated rows are common
    row = st.lists(st.sampled_from([1, -1]), min_size=n,
                   max_size=n).map(tuple)
    pool = draw(st.lists(row, min_size=1, max_size=2))
    signs = tuple(draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=3)))
    return e, L, draw(st.integers(-ell, 2 * ell)), x, signs


@PROPS
@given(restricted_args())
# e = (1, 1, 1) with two defect coordinates and a repeated sign row
@example(((1, 1, 1), LinearFormModL(5, (1, 2, 3)), 4,
          (Fraction(0), Fraction(1, 2), Fraction(-3)),
          ((1, -1, 1), (-1, 1, 1), (1, -1, 1))))
def test_b_L_z_conv_equals_direct(args):
    assert b_L_z(*args) == b_L_z_direct(*args)


@st.composite
def restricted_rows(draw):
    n = draw(st.integers(2, 3))
    ell = draw(st.sampled_from([3, 5, 7, 11]))
    L = LinearFormModL(ell, draw(st.lists(st.integers(1, ell - 1),
                                          min_size=n, max_size=n)))
    # integral coordinates are the defect points of e = (1, ..., 1), and
    # half-integral ones the arguments of the tables' off-J coordinates
    coord = st.one_of(st.integers(-12, 12).map(Fraction),
                      st.integers(-12, 12).map(lambda k: Fraction(2 * k + 1,
                                                                  2)),
                      st.builds(Fraction, st.integers(-12, 12),
                                st.integers(3, 7)))
    x = tuple(draw(st.lists(coord, min_size=n, max_size=n)))
    row = st.lists(st.sampled_from([1, -1]), min_size=n,
                   max_size=n).map(tuple)
    return L, x, tuple(draw(st.lists(row, min_size=1, max_size=3)))


@PROPS
@given(restricted_rows())
# two defect coordinates and a repeated sign row
@example((LinearFormModL(5, (1, 2, 3)), (Fraction(0), Fraction(1, 2),
                                         Fraction(-3)),
          ((1, -1, 1), (-1, 1, 1), (1, -1, 1))))
def test_b1_row_equals_one_z_reads(args):
    # the row from one full convolution per sign group is the one-z read
    # at every level, and the direct level-set sum
    L, x, signs = args
    e = (1,) * len(x)
    row = b1_L_z_fast(L, x, signs)
    assert row == [b_L_z(e, L, z, x, signs) for z in range(L.ell)]
    assert row == [b_L_z_direct(e, L, z, x, signs) for z in range(L.ell)]


ELL = 5
COCYCLE = settings(PROPS, max_examples=25)


@st.composite
def gamma_ell(draw, entry):
    """((a, b), (ELL c, d)) with a, d nonzero and |a|, |b|, |c|, |d| <=
    entry < ELL, so that det = ad - ELL bc is prime to ELL."""
    unit = st.integers(1, entry).map(lambda x: x * draw(
        st.sampled_from([1, -1])))
    b, c = draw(st.integers(-entry, entry)), draw(st.integers(-entry, entry))
    return GammaEllMatrix(((draw(unit), b), (ELL * c, draw(unit))), ELL)


@st.composite
def homogeneous_polys(draw):
    g = draw(st.integers(2, 6))
    coeffs = draw(st.lists(rationals, min_size=g + 1, max_size=g + 1))
    P = MultiPoly(2, {(i, g - i): c for i, c in enumerate(coeffs)})
    assume(not P.is_zero())
    return P


def _forms_and_v(draw, m, sigmas):
    """m rational forms whose signs at every sigma are defined, and v."""
    nonzero = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))
    q = LinearForms([[draw(nonzero) * draw(st.sampled_from([1, -1]))
                      for _ in range(2)] for _ in range(m)])
    try:
        for s in sigmas:
            q.sign_matrix(s)
    except ValueError:
        assume(False)
    return q, tuple(draw(st.lists(rationals, min_size=2, max_size=2)))


@COCYCLE
@given(st.lists(gamma_ell(3), min_size=3, max_size=3), homogeneous_polys(),
       st.data())
def test_cocycle_relation_degree_2_to_6(g, P, data):
    # every weight of P shares one walk per pair; the alternating sum over
    # the three faces vanishes for psi and for its plus variant
    pairs = [(g[1], g[2]), (g[0], g[2]), (g[0], g[1])]
    sigmas = [first_column_matrix(t) for t in pairs]
    assume(all(mat_det(s) != 0 for s in sigmas))
    q, v = _forms_and_v(data.draw, 2, sigmas)
    args = CocycleArgs(P, q, v)
    for plus in (False, True):
        values = [psi_ell(t, args, ELL, plus=plus) for t in pairs]
        assert values[0] - values[1] + values[2] == 0


@COCYCLE
@given(gamma_ell(2), st.lists(gamma_ell(3), min_size=2, max_size=2),
       homogeneous_polys(), st.data())
def test_equivariance_degree_2_to_6(gamma, a, P, data):
    # psi(gamma a) = gamma acting on psi(a): each coset of gamma evaluates
    # psi(a) at gamma^t P, gamma^-1 Q and a v of its own
    a = tuple(a)
    ga = tuple(gamma @ ai for ai in a)
    sigma_a, sigma_ga = first_column_matrix(a), first_column_matrix(ga)
    assume(mat_det(sigma_a) != 0 and mat_det(sigma_ga) != 0)
    q, v = _forms_and_v(data.draw, 1, [sigma_ga])
    try:
        q.transform(mat_inv(gamma.mat)).sign_matrix(sigma_a)
    except ValueError:
        assume(False)
    args = CocycleArgs(P, q, v)
    assert psi_ell(ga, args, ELL) == module_action(
        gamma.mat, lambda ar: psi_ell(a, ar, ELL), args)


@lru_cache(maxsize=None)
def _measure_handle(case):
    """Q(sqrt 5) at ell = 11 with p = 3, or with a above 19 and p = 2; the
    cubic field t^3 - 3t - 1 at ell = 17 with p = 5."""
    if case == "cubic-p5":
        C = FIELDS[1]
        o = Ideal.unit_ideal(C)
        z = build_zeta_data(C, o, o, prime_over(C, 17), 17,
                            units=[C.element([0, 0, 1]), C.element([1, 2, 1])])
        return MeasureHandle(z, 5)
    F = FIELDS[0]
    one = Ideal.unit_ideal(F)
    a = one if case == "sqrt5-p3" else prime_over(F, 19)
    z = build_zeta_data(F, one, a, prime_over(F, 11), 11)
    return MeasureHandle(z, 3 if case == "sqrt5-p3" else 2)


@lru_cache(maxsize=None)
def _kernel(case, level):
    return _measure_handle(case).cell_numerators(level)


@PROPS
@given(st.sampled_from(["sqrt5-p3", "a19-p2", "cubic-p5"]), st.data())
def test_measure_box_relations(case, data):
    # a box value does not depend on the representative a, is the sum of
    # its p^n children (checked for n = 2), and the row kernel one level
    # down gives mu_den times each child's value
    h = _measure_handle(case)
    n, p = h.n, h.p
    r = data.draw(st.integers(0, 2 if n == 2 else 1))
    pr = p ** r
    a = data.draw(st.tuples(*[st.integers(0, pr - 1)] * n))
    m = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
    value = h.measure_box(a, r)
    assert h.measure_box([ai + pr * mi for ai, mi in zip(a, m)], r) == value
    if n == 2:
        digits = list(product(range(p), repeat=n))
    else:
        digits = [data.draw(st.tuples(*[st.integers(0, p - 1)] * n))]
    children = [tuple(ai + pr * di for ai, di in zip(a, d)) for d in digits]
    values = [h.measure_box(c, r + 1) for c in children]
    if n == 2:
        assert sum(values) == value
    kernel = _kernel(case, r + 1)
    for c, v in zip(children, values):
        assert kernel.row(c[:-1])[c[-1]] == h.mu_den * v


@PROPS
@given(st.sampled_from(REGION_CASES), st.data())
def test_region_cell_matches_fraction_oracle(case, data):
    # at any cell, also far outside 0 <= j < p^t, the region built from
    # integer congruences agrees with the per-cell Fraction test
    region, member = region_case(case)
    n = len(next(iter(region.mask)))
    j = data.draw(st.tuples(*[st.integers(-60, 60)] * n))
    assert region.contains(j) == member(j)


# handle -> (its region case, deepest level swept)
POLY_SWEEPS = {"sqrt5-p3": ("sqrt5-units", 3), "oov": ("sqrt5-oov", 2),
               "cubic-p5": ("cubic-units", 1)}


@st.composite
def poly_sweeps(draw):
    """(handle, P of degree <= 3, level, region, powers): Q(sqrt 5) at
    p = 3 and p = 11 and the cubic at p = 5, over the whole space, a units
    or oov region or a box."""
    case = draw(st.sampled_from(sorted(POLY_SWEEPS)))
    h = _row_kernel_handle(case)[0] if case == "oov" \
        else _measure_handle(case)
    tag, top = POLY_SWEEPS[case]
    monos = st.tuples(*[st.integers(0, 3)] * h.n).filter(
        lambda m: sum(m) <= 3)
    coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                       st.sampled_from([1, 2, 7]))
    P = MultiPoly(h.n, draw(st.dictionaries(monos, coeffs, min_size=1,
                                            max_size=6)))
    kind = draw(st.sampled_from(["all", "region", "box"]))
    if kind == "all":
        region = None
    elif kind == "region":
        region = region_case(tag)[0]
    else:
        r = draw(st.integers(1, top))
        region = region_box(h, draw(st.tuples(
            *[st.integers(0, h.p ** r - 1)] * h.n)), r)
    M = draw(st.integers(1, top))
    ks = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    return h, P, M, region, ks


@PROPS
@given(poly_sweeps(), st.integers(1, 12))
def test_closed_form_poly_sums_match_per_cell(sweep, work):
    # a polynomial summed in closed form from the rows' difference arrays
    # equals the per-cell sum of its row evaluator bit for bit, for powers
    # with 0 and repeats
    h, P, M, region, ks = sweep
    ev = _poly_residue_evaluator(h, P, work)
    assert integrate_cells(h, region, [], M, work, ks, [P]) \
        == integrate_cells(h, region, [ev], M, work, ks)
