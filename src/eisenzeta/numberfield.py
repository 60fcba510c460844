"""Totally real number fields with exact arithmetic.

A field is Q[t]/(f) for a monic irreducible integer polynomial f with all
roots real.  Real embeddings are ordered by ascending root and carried as
isolating rational intervals, refined on demand; every sign decision is
certified, never floated.  Irreducibility is decided exactly from those
intervals (`NumberField._real_factor`): a monic integer factor of f is the
product of t - alpha_i over a set of its roots, and it or its cofactor has
degree at most n / 2.  A factor found among the real roots proves f
reducible, and with every root real the search is complete, repeated roots
included: the distinct repeated ones multiply to a factor of degree at
most n / 2.  Ideals are O-module lattices given by rational column bases
in Hermite normal form, where O is the maximal order for quadratic fields
and Z[theta] (or an integral basis the caller gives) above.

Each concept has one implementation: `sturm_count` counts real roots
(`real_root_count` over the Cauchy bound, and the root isolation on the
field's one Sturm sequence), `_fundamental_discriminant` splits off the
square part of a quadratic discriminant, `_atanh_bounds` is the only
logarithm series, `Ideal.contains` the only ideal-membership test (a zero
`exact.reduce_mod_lattice`; congruence mod f and integrality are calls of
it), `_check_adapted` the only adapted-basis check, `validate_units` the
only check of units (`build_zeta_data` calls it on given and computed
units alike), and `totally_positive_unit` the only unit-power search.
An element's products, norm, trace and inverse read
`FieldElement.mult_matrix`, which is `exact.multiplication_matrix` for f,
and `_poly_rem` is the one univariate remainder (Sturm and factor tests).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import ceil, isqrt

from .exact import (Matrix, SingularMatrix, identity, lattice_hnf, mat_det,
                    mat_inv, mat_mul, mat_solve, mat_vec,
                    multiplication_matrix, poly_eval, power,
                    reduce_mod_lattice, snf)


class NotMonic(ValueError):
    pass


class NotIrreducible(ValueError):
    pass


class NotTotallyReal(ValueError):
    pass


class SingularGram(ValueError):
    pass


class NoDegreeOnePrime(ValueError):
    pass


class IndexDivisor(ValueError):
    pass


class IndexNotPrime(ValueError):
    pass


class UnitsRequired(ValueError):
    pass


class NotTotallyPositive(ValueError):
    pass


class NotCongruentOne(ValueError):
    pass


class DependentUnits(ValueError):
    pass


class NotFoundWithinBound(ValueError):
    pass


class ZeroIdeal(ValueError):
    pass


class RefinementBudgetExceeded(ArithmeticError):
    pass


# --- dense univariate helpers (ascending coefficient lists) ------------------

def poly_deriv(coeffs: Sequence) -> list[Fraction]:
    return [Fraction(i * c) for i, c in enumerate(coeffs)][1:]


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while True:
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            return a
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()


def sturm_sequence(coeffs: Sequence) -> list[list[Fraction]]:
    seq = [[Fraction(c) for c in coeffs]]
    d = poly_deriv(seq[0])
    if d:
        seq.append(d)
    while len(seq[-1]) > 1:
        r = _poly_rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    return seq


def _poly_str(g: Sequence[int]) -> str:
    """A monic integer polynomial, highest power first: "t^2 - 3"."""
    return " ".join(("- " if c < 0 else "+ ")
                    + ("" if abs(c) == 1 and k else str(abs(c)))
                    + (f"t^{k}" if k > 1 else "t" * k)
                    for k, c in reversed(list(enumerate(g))) if c)[2:]


def _sign_changes(values: Sequence[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(seq, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]."""
    return (_sign_changes([poly_eval(p, lo) for p in seq])
            - _sign_changes([poly_eval(p, hi) for p in seq]))


def _cauchy_bound(coeffs: Sequence) -> Fraction:
    """1 + max |c_i / c_n|: every root lies strictly inside (-B, B)."""
    return 1 + max(abs(Fraction(c, coeffs[-1])) for c in coeffs[:-1])


def real_root_count(coeffs: Sequence) -> int:
    """Number of distinct real roots."""
    bound = _cauchy_bound(coeffs)
    return sturm_count(sturm_sequence(coeffs), -bound, bound)


# --- interval arithmetic ------------------------------------------------------

Interval = tuple[Fraction, Fraction]


def _iv_add(a: Interval, b: Interval) -> Interval:
    return (a[0] + b[0], a[1] + b[1])


def _iv_mul(a: Interval, b: Interval) -> Interval:
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(prods), max(prods))


def poly_eval_interval(coeffs: Sequence[Fraction], x: Interval) -> Interval:
    total: Interval = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        total = _iv_add(_iv_mul(total, x), (Fraction(c), Fraction(c)))
    return total


def ln_interval(x: Fraction, terms: int = 24) -> Interval:
    """Rational lower/upper bounds for ln(x), x > 0, via the atanh series."""
    if x <= 0:
        raise ValueError("ln of nonpositive value")
    if x < 1:
        lo, hi = ln_interval(1 / x, terms)
        return (-hi, -lo)
    # scale into [1, 2) by 2^-k; k ln 2 bounds folded in afterwards
    k = (x.numerator // x.denominator).bit_length() - 1
    x /= 2 ** k
    lo, hi = _atanh_bounds((x - 1) / (x + 1), terms)
    return (lo + k * _LN2[0], hi + k * _LN2[1])


def _atanh_bounds(y: Fraction, terms: int) -> Interval:
    """Bounds on 2 atanh(y) = ln((1 + y) / (1 - y)), 0 <= y < 1: the first
    terms of the series, and that sum plus a geometric tail bound."""
    s = Fraction(0)
    ypow = y
    y2 = y * y
    for i in range(terms):
        s += ypow / (2 * i + 1)
        ypow *= y2
    rem = 2 * ypow / ((2 * terms + 1) * (1 - y2))
    return (2 * s, 2 * s + rem)


_LN2 = _atanh_bounds(Fraction(1, 3), 40)  # ln 2 = 2 atanh(1/3)


# --- the field ----------------------------------------------------------------

def _fundamental_discriminant(disc: int) -> tuple[int, int]:
    """(D, m) with disc = m^2 D and D the discriminant of the maximal order
    of Q(sqrt(disc)), for a nonsquare discriminant disc = 0, 1 mod 4."""
    m, d0 = 1, disc
    k = 2
    while k * k <= abs(d0):
        while d0 % (k * k) == 0:
            d0 //= k * k
            m *= k
        k += 1
    if d0 % 4 != 1:
        d0, m = 4 * d0, m // 2
    return d0, m


class NumberField:
    """Totally real field presented by a monic irreducible integer
    polynomial, with isolated ordered real roots."""

    def __init__(self, f: Sequence[int], *,
                 integral_basis: Sequence[Sequence] | None = None):
        f = [int(c) for c in f]
        if len(f) < 3:
            raise ValueError("degree must be >= 2")
        if f[-1] != 1:
            raise NotMonic("defining polynomial must be monic")
        n = len(f) - 1
        self.f = tuple(f)
        self.n = n
        self._sturm = sturm_sequence(f)
        self._simple = len(self._sturm[-1]) == 1  # gcd(f, f') is constant
        self._roots = self._isolate_roots()
        g = self._real_factor()
        if g is not None:
            raise NotIrreducible("polynomial is not irreducible: it has " + (
                f"the integer root {-g[0]}" if len(g) == 2
                else f"the factor {_poly_str(g)}"))
        if len(self._roots) != n:
            raise NotTotallyReal("polynomial does not have n real roots")
        if integral_basis is not None:
            ob = tuple(tuple(Fraction(x) for x in col) for col in integral_basis)
            self.order_basis = lattice_hnf(ob)
            # a lattice that is not closed under products is no order
            for i, j in combinations_with_replacement(range(len(ob)), 2):
                w = mat_vec(multiplication_matrix(f, ob[i], Fraction(0)),
                            ob[j])
                if any(reduce_mod_lattice(w, self.order_basis)):
                    raise ValueError(
                        "integral basis is not a ring: the product of its "
                        f"elements {i + 1} and {j + 1}, "
                        f"({', '.join(map(str, w))}) on the power basis, is "
                        "not in its span")
        elif n == 2:
            self.order_basis = self._quadratic_maximal_order()
        else:
            self.order_basis = identity(n)
        self.order_index = Fraction(1) / abs(Fraction(mat_det(self.order_basis)))
        if self.order_index.denominator != 1:
            raise ValueError("integral basis must contain Z[theta]")
        self.order_index = int(self.order_index)

    def _quadratic_maximal_order(self) -> Matrix:
        b, c = self.f[1], self.f[0]
        d0, s = _fundamental_discriminant(b * b - 4 * c)
        # omega = (s*d0 + b + 2*theta) / (2s) spans the maximal order with 1
        omega = (Fraction(s * d0 + b, 2 * s), Fraction(2, 2 * s))
        return lattice_hnf([(Fraction(1), Fraction(0)), omega])

    def _isolate_roots(self) -> list[Interval]:
        """Ascending intervals (lo, hi), each narrower than 1 and holding
        one distinct real root; no endpoint is a root."""
        bound = _cauchy_bound(self.f)
        stack = [(-bound, bound, sturm_count(self._sturm, -bound, bound))]
        found: list[Interval] = []
        while stack:
            lo, hi, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1 and hi - lo < 1:
                found.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            while poly_eval(self.f, mid) == 0:  # a rational root of f
                mid = (lo + mid) / 2
            left = sturm_count(self._sturm, lo, mid)
            stack.append((lo, mid, left))
            stack.append((mid, hi, cnt - left))
        found.sort()
        return found

    def refine_root(self, i: int) -> Interval:
        """Halve the i-th isolating interval."""
        lo, hi = self._roots[i]
        mid = (lo + hi) / 2
        flo = poly_eval(self.f, lo)
        fmid = poly_eval(self.f, mid)
        if flo == 0 or fmid == 0:  # endpoints are never roots for deg >= 2
            raise RuntimeError("rational root encountered")
        # f keeps its sign across a root of even multiplicity, which only a
        # reducible f has: there Sturm's count picks the half
        if ((flo > 0) != (fmid > 0) if self._simple
                else sturm_count(self._sturm, lo, mid)):
            self._roots[i] = (lo, mid)
        else:
            self._roots[i] = (mid, hi)
        return self._roots[i]

    def _real_factor(self) -> list[int] | None:
        """A monic integer factor g of f (ascending coefficients) with
        1 <= deg g <= n / 2 and real roots, or None if f has none.

        A monic integer factor is prod_(i in S) (t - alpha_i) over a set S
        of roots of f (Cohen, A Course in Computational Algebraic Number
        Theory, 3.5).  For each set S of isolated real roots, they are
        refined until every coefficient interval of that product is
        narrower than 1; the one integer polynomial that can fit is then
        tried by exact division.  A factor of degree n / 2 or its cofactor
        holds root 0, so with n simple real roots only those sets are tried.
        """
        n, roots = self.n, self._roots
        m = len(roots)
        for d in range(1, n // 2 + 1):
            sets = (((0,) + s for s in combinations(range(1, m), d - 1))
                    if 2 * d == n == m else combinations(range(m), d))
            for s in sets:
                while True:
                    box = [(1, 1)]
                    for i in s:  # box *= t - alpha_i
                        lo, hi = roots[i]
                        box = [_iv_add(a, _iv_mul(b, (-hi, -lo)))
                               for a, b in zip([(0, 0)] + box, box + [(0, 0)])]
                    if all(hi - lo < 1 for lo, hi in box):
                        break
                    for i in s:
                        self.refine_root(i)
                g = [ceil(lo) for lo, _ in box]
                if any(c > hi for c, (_, hi) in zip(g, box)):
                    continue  # no integer polynomial fits
                # _sturm[0] is f in Fractions, as _poly_rem divides with /
                if not _poly_rem(self._sturm[0], g):
                    return g
        return None

    def root_interval(self, i: int) -> Interval:
        return self._roots[i]

    # -- elements --------------------------------------------------------------

    def element(self, coords: Sequence) -> "FieldElement":
        return FieldElement(self, coords)

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.n)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.n - 1))

    def theta(self) -> "FieldElement":
        return FieldElement(self, (0, 1) + (0,) * (self.n - 2))

    def from_rational(self, c) -> "FieldElement":
        return FieldElement(self, (Fraction(c),) + (0,) * (self.n - 1))

    def embed_interval(self, x: "FieldElement", i: int) -> Interval:
        return poly_eval_interval(x.coords, self.root_interval(i))

    def sign_at(self, x: "FieldElement", i: int) -> int:
        """Exact sign of the i-th real embedding of x, after at most 400
        refinements of the root."""
        if x.is_zero():
            return 0
        for _ in range(400):
            lo, hi = self.embed_interval(x, i)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.refine_root(i)
        raise RefinementBudgetExceeded("sign refinement did not separate from 0")

    def log_embed_interval(self, x: "FieldElement", i: int, *,
                           width: Fraction = Fraction(1, 10 ** 8)) -> Interval:
        """Certified rational bounds on log tau_i(x) > 0, narrower than
        width.  As ln hi - ln lo <= (hi - lo) / lo, the embedding interval
        [lo, hi] is refined to 2 (hi - lo) < width * lo before any series
        is summed, leaving half of width to the series tails: one pair of
        `ln_interval` series is then enough (else refinement goes on)."""
        if self.sign_at(x, i) <= 0:
            raise ValueError("log of a nonpositive embedding")
        for _ in range(400):
            lo, hi = self.embed_interval(x, i)
            if lo > 0 and 2 * (hi - lo) < width * lo:
                llo, lhi = ln_interval(lo)[0], ln_interval(hi)[1]
                if lhi - llo < width:
                    return (llo, lhi)
            self.refine_root(i)
        raise RefinementBudgetExceeded("log interval did not reach target width")


def embedding_matrix_det_sign(field: NumberField,
                              elements: Sequence["FieldElement"]) -> int:
    """Sign of det(tau_i(x_j)), exactly: that matrix is the Vandermonde
    matrix (theta_i^k) times the coordinate matrix of the x_j, and the
    Vandermonde determinant prod_(i<j) (theta_j - theta_i) is positive for
    ascending roots."""
    det = mat_det(tuple(zip(*(x.coords for x in elements))))
    return (det > 0) - (det < 0)


def _interval_det(entries: Sequence[Sequence[Interval]]) -> Interval:
    m = len(entries)
    if m == 1:
        return entries[0][0]
    total: Interval = (Fraction(0), Fraction(0))
    for j in range(m):
        minor = [[entries[i][k] for k in range(m) if k != j] for i in range(1, m)]
        term = _iv_mul(entries[0][j], _interval_det(minor))
        if j % 2:
            term = (-term[1], -term[0])
        total = _iv_add(total, term)
    return total


class FieldElement:
    """Element in the power basis 1, theta, ..., theta^(n-1)."""

    __slots__ = ("field", "coords", "_hash")

    def __init__(self, field: NumberField, coords: Sequence):
        if len(coords) != field.n:
            raise ValueError("coordinate length mismatch")
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement) and self.field is other.field
                and self.coords == other.coords)

    def __hash__(self):
        try:  # cached: memos rehash rows, and a Fraction hash takes an inverse
            return self._hash
        except AttributeError:
            self._hash = hash((id(self.field), self.coords))
            return self._hash

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, [-a for a in self.coords])

    def __mul__(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            c = Fraction(other)
            return FieldElement(self.field, [a * c for a in self.coords])
        return FieldElement(self.field, mat_vec(self.mult_matrix(), other.coords))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k) if k else self.field.one()

    def mult_matrix(self) -> Matrix:
        """Matrix of multiplication by self on the power basis (columns are
        images of basis vectors)."""
        return multiplication_matrix(self.field.f, self.coords, Fraction(0))

    def trace(self) -> Fraction:
        m = self.mult_matrix()
        return sum(m[i][i] for i in range(self.field.n))

    def norm(self) -> Fraction:
        return mat_det(self.mult_matrix())

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        e0 = ((1,),) + ((0,),) * (self.field.n - 1)
        return FieldElement(self.field,
                            [row[0] for row in mat_solve(self.mult_matrix(), e0)])

    def is_totally_positive(self) -> bool:
        return all(self.field.sign_at(self, i) > 0 for i in range(self.field.n))

    def __repr__(self):
        return f"FieldElement{self.coords}"


# --- ideals --------------------------------------------------------------------

class Ideal:
    """Fractional ideal as an O-module lattice; basis columns in HNF."""

    __slots__ = ("field", "basis")

    def __init__(self, field: NumberField, basis: Matrix, *, check: bool = True):
        self.field = field
        self.basis = basis
        if check and not self._is_module():
            raise ValueError("lattice is not stable under the order")

    @classmethod
    def from_columns(cls, field: NumberField, cols: Sequence[Sequence], *,
                     check: bool = True) -> "Ideal":
        return cls(field, lattice_hnf(cols), check=check)

    @classmethod
    def from_generators(cls, field: NumberField, gens: Sequence[FieldElement]) -> "Ideal":
        if all(g.is_zero() for g in gens):
            raise ZeroIdeal("zero ideal")
        omegas = cls.unit_ideal(field).basis_elements()
        cols = [(g * w).coords for g in gens for w in omegas]
        return cls.from_columns(field, cols, check=False)

    @classmethod
    def unit_ideal(cls, field: NumberField) -> "Ideal":
        return cls(field, field.order_basis, check=False)

    def _is_module(self) -> bool:
        omegas = Ideal.unit_ideal(self.field).basis_elements()
        return all(self.contains(b * w)
                   for b in self.basis_elements() for w in omegas)

    def contains(self, x: FieldElement) -> bool:
        return not any(reduce_mod_lattice(x.coords, self.basis))

    def norm(self) -> Fraction:
        return abs(Fraction(mat_det(self.basis)) / mat_det(self.field.order_basis))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Ideal) and self.field is other.field
                and self.basis == other.basis)

    def __hash__(self):
        return hash((id(self.field), self.basis))

    def __mul__(self, other: "Ideal") -> "Ideal":
        cols = [(b * c).coords for b in self.basis_elements()
                for c in other.basis_elements()]
        return Ideal.from_columns(self.field, cols, check=False)

    def inverse(self) -> "Ideal":
        """(O : I) = {x : x I contained in O}, computed as the dual of the
        lattice of multiplication constraints."""
        n = self.field.n
        order_inv = mat_inv(self.field.order_basis)
        # x = sum y_k omega_k lies in the inverse iff for every basis
        # element b_j of I the order coordinates of x*b_j are integral,
        # i.e. T_j y in Z^n with T_j[:, k] = coords_O(omega_k b_j).
        rows = []
        omegas = Ideal.unit_ideal(self.field).basis_elements()
        for b in self.basis_elements():
            prod_cols = [mat_vec(order_inv, (w * b).coords) for w in omegas]
            for i in range(n):
                rows.append([prod_cols[k][i] for k in range(n)])
        # {y : <r, y> in Z for all constraint rows r} = (S^t)^-1 Z^n where
        # the columns of S are an HNF basis of the lattice the rows span
        s = lattice_hnf(rows)
        st_inv = mat_inv(tuple(zip(*s)))
        cols = []
        for j in range(n):
            y = [st_inv[i][j] for i in range(n)]
            cols.append(mat_vec(self.field.order_basis, y))
        return Ideal.from_columns(self.field, cols, check=False)

    def is_integral(self) -> bool:
        one = Ideal.unit_ideal(self.field)
        return all(one.contains(b) for b in self.basis_elements())

    def is_coprime(self, other: "Ideal") -> bool:
        cols = [b.coords for b in self.basis_elements() + other.basis_elements()]
        return lattice_hnf(cols) == Ideal.unit_ideal(self.field).basis

    def scale(self, c) -> "Ideal":
        c = Fraction(c)
        if c == 0:
            raise ZeroIdeal("zero ideal")
        return Ideal(self.field,
                     lattice_hnf([(b * c).coords for b in self.basis_elements()]),
                     check=False)

    def basis_elements(self) -> list[FieldElement]:
        n = self.field.n
        return [self.field.element([self.basis[i][j] for i in range(n)])
                for j in range(n)]

    def __repr__(self):
        return f"Ideal(basis={self.basis})"


def dual_basis(ws: Sequence[FieldElement]) -> list[FieldElement]:
    """Trace-dual basis: Tr(w_i w*_j) = delta_ij."""
    n = ws[0].field.n
    gram = tuple(tuple((wi * wj).trace() for wj in ws) for wi in ws)
    try:
        ginv = mat_inv(gram)
    except SingularMatrix:
        raise SingularGram("elements are linearly dependent")
    return [sum((ginv[k][j] * ws[k] for k in range(n)), ws[0].field.zero())
            for j in range(n)]


def prime_over(field: NumberField, ell: int) -> Ideal:
    """Degree-one prime (ell, theta - c) above ell, requiring ell prime to
    the index of Z[theta] in the working order."""
    if field.order_index % ell == 0:
        raise IndexDivisor(f"{ell} divides the order index; supply the ideal")
    roots = [c for c in range(ell) if poly_eval(field.f, c) % ell == 0]
    if not roots:
        raise NoDegreeOnePrime(f"defining polynomial has no root mod {ell}")
    c = roots[0]
    gen = field.theta() - field.from_rational(c)
    ideal = Ideal.from_generators(field, [field.from_rational(ell), gen])
    if ideal.norm() != ell:
        raise IndexDivisor(f"(ell, theta - c) does not have norm {ell}")
    return ideal


def adapted_basis(a: Ideal, f: Ideal, c: Ideal, ell: int) -> list[FieldElement]:
    """Basis w of a^-1 f with (w_1/ell, w_2, ..., w_n) a basis of
    a^-1 c^-1 f, from the Smith form of the index-ell inclusion."""
    field = a.field
    n = field.n
    ainv = a.inverse()
    L1 = ainv * f
    L2 = ainv * c.inverse() * f
    rel = mat_solve(L2.basis, L1.basis)
    relz = tuple(tuple(int(x) if Fraction(x).denominator == 1 else None
                       for x in row) for row in rel)
    if any(x is None for row in relz for x in row):
        raise IndexNotPrime("lattices are not nested")
    d, u, v = snf(relz)
    if abs(d[n - 1][n - 1]) != ell or any(d[i][i] != 1 for i in range(n - 1)):
        raise IndexNotPrime("inclusion index is not ell")
    newb1 = mat_mul(L1.basis, v)
    cols = [[newb1[i][n - 1] for i in range(n)]] + \
           [[newb1[i][j] for i in range(n)] for j in range(n - 1)]
    ws = [field.element(col) for col in cols]
    _check_adapted(ws, L1, L2, ell)
    return ws


def _check_adapted(ws: Sequence[FieldElement], L1: Ideal, L2: Ideal,
                   ell: int) -> None:
    """Fail fast unless ws spans L1 = a^-1 f and (w_1/ell, w_2, ...) spans
    L2 = a^-1 c^-1 f."""
    if lattice_hnf([w.coords for w in ws]) != L1.basis:
        raise IndexNotPrime("basis does not span a^-1 f")
    half = [tuple(x / ell for x in ws[0].coords)] + [w.coords for w in ws[1:]]
    if lattice_hnf(half) != L2.basis:
        raise IndexNotPrime("w_1/ell does not complete a basis of a^-1 c^-1 f")


# --- units ----------------------------------------------------------------------

def fundamental_unit_quadratic(field: NumberField) -> FieldElement:
    """Fundamental unit (> 1 in the larger embedding) of a real quadratic
    field, from the continued fraction of the maximal-order generator."""
    b, cc = field.f[1], field.f[0]
    D, m = _fundamental_discriminant(b * b - 4 * cc)
    # continued fraction of (P0 + sqrt(D)) / Q0 with the integer recurrence;
    # Q | D - P^2 holds throughout, and Q > 0 as every complete quotient
    # alpha = (P + sqrt(D)) / Q has alpha > 0 > alpha'
    sqD = isqrt(D)
    state = (1, 2) if D % 4 == 1 else (0, 2)
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    while state not in seen:
        seen[state] = len(quotients)
        P, Q = state
        aq = (P + sqD) // Q
        quotients.append(aq)
        P2 = aq * Q - P
        state = (P2, (D - P2 * P2) // Q)
    start = seen[state]
    # Moebius matrix of the cycle fixes alpha = (P + sqrt(D)) / Q at the
    # cycle start; the unit is the denominator C*alpha + D0 of that action,
    # > 1 in the larger embedding as C >= 1, D0 >= 0 and alpha > 1 there
    A, B, C, D0_ = 1, 0, 0, 1
    for aq in quotients[start:]:
        A, B, C, D0_ = A * aq + B, A, C * aq + D0_, C
    P, Q = state
    # sqrt(disc) = 2*theta + b and sqrt(D) = sqrt(disc)/m with disc = m^2 D
    sqrtD = field.element((Fraction(b, m), Fraction(2, m)))
    alpha = (field.from_rational(P) + sqrtD) * Fraction(1, Q)
    unit = Fraction(C) * alpha + field.from_rational(D0_)
    assert abs(unit.norm()) == 1, "continued fraction did not produce a unit"
    assert Ideal.unit_ideal(field).contains(unit), "unit not in the order"
    return unit


def totally_positive_unit(field: NumberField, f: Ideal) -> FieldElement:
    """Smallest power of the fundamental unit that is totally positive and
    congruent to 1 modulo f (n = 2 only), among the first 4 N(f)^2 + 8."""
    if field.n != 2:
        raise UnitsRequired("units must be given for degree >= 3")
    u = fundamental_unit_quadratic(field)
    one = field.one()
    cur = u
    for _ in range(4 * int(f.norm()) ** 2 + 8):
        if cur.is_totally_positive() and f.contains(cur - one):
            return cur
        cur = cur * u
    raise NotFoundWithinBound("no totally positive unit = 1 mod f within bound")


def validate_units(field: NumberField, f: Ideal,
                   units: Sequence[FieldElement]) -> int:
    """Check the given units: in the working order, units, totally
    positive, = 1 mod f, independent; return the regulator sign that
    certified independence."""
    order, one = Ideal.unit_ideal(field), field.one()
    for eps in units:
        if not order.contains(eps):
            raise ValueError("unit is not in the working order "
                             "(is an integral basis missing?)")
        if abs(eps.norm()) != 1:
            raise ValueError("given element is not a unit")
        if not eps.is_totally_positive():
            raise NotTotallyPositive("unit is not totally positive")
        if not f.contains(eps - one):
            raise NotCongruentOne("unit is not congruent to 1 mod f")
    if len(units) != field.n - 1:
        raise DependentUnits("need exactly n - 1 units")
    return regulator_det_sign(field, units)  # DependentUnits if undecided


def regulator_det_sign(field: NumberField, units: Sequence[FieldElement]) -> int:
    """Sign of det(log tau_i(eps_j)) over the first n-1 embeddings,
    certified by interval refinement.

    The log entries (one pair of series each, see `log_embed_interval`)
    are taken at widths 10^-6, 10^-10, 10^-14, 10^-18 until the interval
    determinant separates from zero, which certifies independence; if it
    never does, or refinement runs out of budget, the units are reported
    dependent."""
    n1 = len(units)
    for width in (Fraction(1, 10 ** e) for e in (6, 10, 14, 18)):
        try:
            entries = [[field.log_embed_interval(units[j], i, width=width)
                        for j in range(n1)] for i in range(n1)]
        except RefinementBudgetExceeded:
            break
        det = _interval_det(entries)
        if det[0] > 0:
            return 1
        if det[1] < 0:
            return -1
    raise DependentUnits("regulator sign undecided (units may be dependent)")


def unit_basis(field: NumberField, f: Ideal) -> list[FieldElement]:
    """Basis of totally positive units congruent to 1 mod f of a real
    quadratic field; higher degrees need units given (UnitsRequired)."""
    return [totally_positive_unit(field, f)]


def totally_positive_generator(I: Ideal, f: Ideal, *, bound: int = 6,
                               coeff_bound: int = 60) -> tuple[int, FieldElement]:
    """Search (e, pi) with (pi) = I^e, pi totally positive and = 1 mod f.

    Enumerates small coordinate combinations of the ideal basis, up to sign.
    No unit power repairs a candidate: a totally positive unit u = 1 mod f
    changes no sign, and pi u^k - 1 = pi - 1 mod f for integral pi.
    """
    field = I.field
    one = field.one()
    power = Ideal.unit_ideal(field)
    for e in range(1, bound + 1):
        power = power * I
        target = power.norm()
        basis = power.basis_elements()
        for radius in range(1, coeff_bound + 1):
            for coeffs in _shell(field.n, radius):
                alpha = field.zero()
                for cf, b in zip(coeffs, basis):
                    if cf:
                        alpha = alpha + cf * b
                if alpha.is_zero() or abs(alpha.norm()) != target:
                    continue
                for cand in (alpha, -alpha):
                    if cand.is_totally_positive() and f.contains(cand - one):
                        return e, cand
    raise NotFoundWithinBound("no totally positive generator within bounds")


def _shell(n: int, radius: int):
    """Integer vectors with max-norm exactly radius."""
    def rec(prefix):
        if len(prefix) == n:
            if max(abs(c) for c in prefix) == radius:
                yield tuple(prefix)
            return
        for c in range(-radius, radius + 1):
            yield from rec(prefix + [c])
    yield from rec([])
