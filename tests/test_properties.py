"""Property tests: exact linear algebra, lattice membership, mod-p division,
logarithm bounds, the Bernoulli distribution relation, and the integer
Bernoulli rows and convolution behind the restricted distribution.

Every test runs a fixed, derandomized example sequence and keeps no example
database, so the suite stays deterministic and writes nothing to the
working tree.
"""

import math
import tempfile
from fractions import Fraction
from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from eisenzeta.bernoulli import (B_e, B_e_Q, B_e_Q_plus, periodic_B,
                                 periodic_B_row)
from eisenzeta.dedekind import (LinearFormModL, b_L_z, b_L_z_conv,
                                b_L_z_direct)
from eisenzeta.exact import (SingularMatrix, identity, lattice_hnf, mat_det,
                             mat_inv, mat_mul, mat_solve, mat_vec,
                             reduce_mod_lattice)
from eisenzeta.numberfield import (Ideal, NumberField, _pmod_divmod,
                                   ln_interval)

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
def pmod_operands(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    a = draw(st.lists(st.integers(-50, 50), max_size=9))
    b = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
    assume(b[-1] % p)
    return a, b, p


@PROPS
@given(pmod_operands())
def test_pmod_divmod(operands):
    a, b, p = operands
    q, r = _pmod_divmod(a, b, p)
    assert len(r) < len(b) and (not r or r[-1] != 0)
    back = [0] * max(len(a), len(q) + len(b) - 1, len(r), 1)
    for i, qc in enumerate(q):
        for j, bc in enumerate(b):
            back[i + j] += qc * bc
    for i, rc in enumerate(r):
        back[i] += rc
    padded = list(a) + [0] * (len(back) - len(a))
    assert all((x - y) % p == 0 for x, y in zip(back, padded))


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
    d, row = periodic_B_row(k, x, ell)
    assert [Fraction(n, d) for n in row] == \
        [periodic_B(k, (x + y) / ell) for y in range(ell)]


@st.composite
def restricted_args(draw):
    n = draw(st.integers(2, 4))
    ell = draw(st.sampled_from([2, 3, 5, 7, 11]))
    L = LinearFormModL(ell, draw(st.lists(st.integers(1, ell - 1),
                                          min_size=n, max_size=n)))
    e = tuple(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
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
def test_b_L_z_conv_equals_direct(args):
    expected = b_L_z_direct(*args)
    assert b_L_z_conv(*args) == expected
    assert b_L_z(*args) == expected
