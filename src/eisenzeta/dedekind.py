"""Generalized Dedekind sums, their prime smoothings, and the restricted
Bernoulli distributions: one cyclic convolution over F_ell at every
weight, e = (1, ..., 1) included, with the direct level-set sum kept as
its oracle.  One factor build (`_level_factors`) serves both reads: one
per-coset evaluator in integers at one level z (`_level_value`), which
`b_L_z` makes a Fraction and `d_ell` sums over its cosets into one, and
`b1_L_z_fast` at every level from one full convolution per sign group, for
the p-adic measure's tables.  One class of form tuples, `LinearForms`,
rational or at real embeddings of a field, serves the cocycle, the zeta
data and the measure.  Bounded memos, each keyed by all it reads:
`chain_term` per (sigma, ell), `_sigma_walk` per (sigma_ell, ell, pi v),
`_factor_row` per (k, x, a, ell), `_key_tail` per (v, signs, ell, plus) and
`_row_signs` per (field, embedding, coefficients, sigma).  Between runs,
`DedekindCache` keeps the smoothed sums as records keyed by their exact
text (format v2), written with `os` alone.

Conventions: sigma is an integer n x n matrix of first columns; forms enter
only through the exact signs of the transformed matrix (sigma^-1 applied to
the tuple of forms); v is a rational column vector.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import floor, gcd, lcm
from operator import mul

from .bernoulli import B_e_Q, B_e_Q_plus, periodic_B_row
from .exact import Matrix, coset_reps, mat_det, mat_inv, mat_vec


class ShapeError(ValueError):
    pass


class LinearFormModL:
    """Linear form Z^n -> F_ell with all values on the standard basis
    nonzero mod ell."""

    __slots__ = ("ell", "a")

    def __init__(self, ell: int, a: Sequence[int]):
        a = tuple(int(x) % ell for x in a)
        if any(x == 0 for x in a):
            raise ValueError("form must be nonzero on every basis vector")
        self.ell = ell
        self.a = a


class LinearForms:
    """m x n tuple of linear forms with exact coefficients and an exact sign
    test per row: Fractions by their sign, or, with a field, rows (i, cs)
    for tau_i(c_1) X_1 + ... + tau_i(c_n) X_n by `NumberField.sign_at` at
    embedding i.  A sign asked for must be of a nonzero entry: a zero entry
    means the tuple is inadmissible for that matrix, and raises."""

    __slots__ = ("field", "rows")

    def __init__(self, rows: Sequence[Sequence], field=None):
        self.field = field
        self.rows = tuple((None, tuple(map(Fraction, r))) for r in rows) \
            if field is None else tuple((i, tuple(cs)) for i, cs in rows)

    def _with_rows(self, rows) -> "LinearForms":
        out = object.__new__(LinearForms)
        out.field, out.rows = self.field, tuple(rows)
        return out

    def transform(self, m: Matrix) -> "LinearForms":
        """The action of m on the tuple: matrix becomes Q * m^t."""
        return self._with_rows((i, _image(m, cs)) for i, cs in self.rows)

    def negate(self) -> "LinearForms":
        return self._with_rows((i, tuple(-x for x in cs))
                               for i, cs in self.rows)

    def scale_row(self, i: int, c) -> "LinearForms":
        c = Fraction(c)
        if c <= 0:
            raise ValueError("row scaling must be positive")
        rows = list(self.rows)
        rows[i] = rows[i][0], tuple(c * x for x in rows[i][1])
        return self._with_rows(rows)

    def sign_matrix(self, sigma: Matrix | None = None) -> tuple[tuple[int, ...], ...]:
        """Signs of sigma^-1 Q (of Q itself when sigma is None), each row's
        from the one memo `_row_signs`, shared by equal rows of two tuples."""
        key = None if sigma is None else tuple(map(tuple, sigma))
        return tuple(_row_signs(self.field, i, cs, key) for i, cs in self.rows)


def _image(m: Matrix, cs: tuple) -> tuple:
    """The coefficients of the form under m: sum over k of m[j][k] c_k."""
    zero = cs[0] * 0  # in the coefficients' ring: a Fraction or field element
    return tuple(sum((x * c for x, c in zip(mj, cs) if x), zero) for mj in m)


@lru_cache(maxsize=1024)
def _row_signs(field, i, cs: tuple, sigma) -> tuple[int, ...]:
    """Signs of the row (i, cs) of sigma^-1 Q, keyed by all they read.  A
    field sign costs certified root refinements, and a chain asks for the
    same few many times."""
    if sigma is not None:
        cs = _image(mat_inv(sigma), cs)
    signs = tuple((c > 0) - (c < 0) if field is None else field.sign_at(c, i)
                  for c in cs)
    if 0 in signs:
        raise ValueError("form vanishes on a lattice direction")
    return signs


# --- restricted distributions ----------------------------------------------

def _cyclic_conv(u: Sequence[int], v: Sequence[int], ell: int) -> list[int]:
    """(u * v)(k) = sum over i of u(i) v(k - i), indices mod ell."""
    rr = list(reversed(v)) * 2
    return [sum(map(mul, u, rr[ell - 1 - k:2 * ell - 1 - k]))
            for k in range(ell)]


def b_L_z_direct(e: Sequence[int], L: LinearFormModL, z: int, x: Sequence,
                 signs: Sequence[Sequence[int]]) -> Fraction:
    """Restricted distribution by direct summation over the level set
    {y in F_ell^n : L(y) = z}."""
    ell = L.ell
    n = len(e)
    z %= ell
    lead = B_e_Q(e, x, signs)
    ebar = sum(e)
    a1_inv = pow(L.a[0], -1, ell)
    total = Fraction(0)
    for free in product(range(ell), repeat=n - 1):
        y1 = (a1_inv * (z - sum(map(mul, L.a[1:], free)))) % ell
        total += B_e_Q(e, [Fraction(xj + yj, ell)
                           for xj, yj in zip(x, (y1, *free))], signs)
    return lead - Fraction(ell) ** (1 - n + ebar) * total


@lru_cache(maxsize=512)
def _factor_row(k: int, x: Fraction, a: int, ell: int) -> tuple:
    """d and the integers g(t), t in F_ell, with g(a y) / d =
    B_k((x + y) / ell): `periodic_B_row` permuted by the form value a."""
    d, row = periodic_B_row(k, x, ell)
    vec = [0] * ell
    for y, val in enumerate(row):
        vec[a * y % ell] = val
    return d, tuple(vec)


def _level_factors(e: Sequence[int], L: LinearFormModL, x: Sequence,
                   signs: Sequence[Sequence[int]]) -> tuple:
    """(lead, scale, den, groups): the restricted distribution at z is
    lead - scale * total(z) / den, where total sums count * (acc * last)(z)
    over the groups (count, acc, last), * the cyclic convolution over F_ell
    (last(z) alone when acc is None).  `_level_value` reads one z of it,
    and `b1_L_z_fast` every z.

    B_e_Q at (x + y)/ell is the average over the sign rows of a product of
    one-coordinate factors, so the level-set sum is, row by row, the value
    at z of the convolution of the factors g_j(t), t = a_j y_j.  A factor
    depends on the row only at a defect coordinate (e_j = 1, x_j integral),
    and there only at the one y_j that makes the coordinate integral, so
    rows are grouped by their entries on the defect coordinates.  Every
    factor is an integer vector over one denominator per coordinate.  Cost:
    n*ell Bernoulli values and (n-2)*ell^2 integer products per group, and
    then ell products to read one z or ell^2 for the row, against
    ell^(n-1) calls of B_e_Q per z.
    """
    ell = L.ell
    lead = B_e_Q(e, x, signs)
    free, defect, dpos, den = [], [], [], 1
    for j, (ej, aj) in enumerate(zip(e, L.a)):
        xj = Fraction(x[j])
        d, vec = _factor_row(ej, xj, aj, ell)
        den *= d
        if ej == 1 and xj.denominator == 1:
            # at the integral point the factor is row[j]/2, not B_1 = 0;
            # d is even there, as b_1 = x - 1/2
            defect.append((vec, aj * -xj.numerator % ell, d // 2))
            dpos.append(j)
        else:
            free.append(vec)
    groups = Counter(tuple(row[j] for j in dpos) for row in signs)
    # the free factors are shared by every group: convolve them once, all
    # but the last when no defect factor is left to close the sum
    base = None
    for vec in (free if defect else free[:-1]):
        base = vec if base is None else _cyclic_conv(base, vec, ell)
    out = []
    for pattern, count in groups.items():
        vecs = [free[-1]] if not defect else []
        for (vec, t0, half), s in zip(defect, pattern):
            vec = list(vec)
            vec[t0] = s * half
            vecs.append(vec)
        acc = base
        for vec in vecs[:-1]:
            acc = vec if acc is None else _cyclic_conv(acc, vec, ell)
        out.append((count, acc, vecs[-1]))
    return lead, ell ** (1 - len(e) + sum(e)), den * len(signs), out


def _level_value(e: Sequence[int], L: LinearFormModL, z: int, x: Sequence,
                 signs: Sequence[Sequence[int]]) -> tuple[int, int]:
    """The restricted distribution at the level z as the integers
    lead * den - scale * total(z) * lead_den and lead_den * den: the one
    per-coset evaluator, which `b_L_z` and `d_ell` read."""
    ell = L.ell
    z %= ell
    lead, scale, den, groups = _level_factors(e, L, x, signs)
    total = 0
    for count, acc, last in groups:
        total += count * (last[z] if acc is None else
                          sum(acc[t] * last[(z - t) % ell] for t in range(ell)))
    return (lead.numerator * den - scale * total * lead.denominator,
            lead.denominator * den)


def b_L_z(e: Sequence[int], L: LinearFormModL, z: int, x: Sequence,
          signs: Sequence[Sequence[int]]) -> Fraction:
    """Restricted distribution at any weight, e = (1, ..., 1) included, as
    a cyclic convolution over F_ell (`_level_factors`), read at the one
    level z; agrees exactly with b_L_z_direct."""
    return Fraction(*_level_value(e, L, z, x, signs))


def b1_L_z_fast(L: LinearFormModL, x: Sequence,
                signs: Sequence[Sequence[int]]) -> list[Fraction]:
    """[b_L_z((1, ..., 1), L, z, x, signs) for z < ell]: every level from
    one full cyclic convolution per sign group.  `MeasureHandle.table`
    builds each sign-defect table with one call, and `perfbench/tracer.py`
    wraps the name to count them."""
    ell = L.ell
    lead, scale, den, groups = _level_factors((1,) * len(L.a), L, x, signs)
    totals = [0] * ell
    for count, acc, last in groups:
        full = last if acc is None else _cyclic_conv(acc, last, ell)
        totals = [t + count * f for t, f in zip(totals, full)]
    return [lead - Fraction(scale * t, den) for t in totals]


# --- Dedekind sums -----------------------------------------------------------

def _coset_sum(sigma: Matrix, e: Sequence[int], v: Sequence,
               signs, plus: bool) -> Fraction:
    inv = mat_inv(sigma)
    B = B_e_Q_plus if plus else B_e_Q
    total = Fraction(0)
    for x in coset_reps(sigma):
        arg = mat_vec(inv, [xi + vi for xi, vi in zip(x, v)])
        total += B(e, arg, signs)
    return total


def d_plus(sigma: Matrix, e: Sequence[int], Q, v: Sequence, *,
           plus: bool = True) -> Fraction:
    """The Dedekind sum over Z^n / sigma Z^n; vanishes when sigma is
    singular by convention."""
    if mat_det(sigma) == 0:
        return Fraction(0)
    signs = Q.sign_matrix(sigma)
    return _coset_sum(sigma, e, v, signs, plus)


def sigma_ell(sigma: Matrix, ell: int) -> Matrix:
    """Divide rows 2..n of sigma by ell; ShapeError if not integral or the
    first row is not prime to ell."""
    if len(sigma) < 2:
        raise ShapeError("need n >= 2")
    if any(gcd(int(x), ell) != 1 for x in sigma[0]):
        raise ShapeError("first row must be prime to ell")
    if any(x % ell for row in sigma[1:] for x in row):
        raise ShapeError("rows 2..n must be divisible by ell")
    return (tuple(sigma[0]),
            *(tuple(x // ell for x in row) for row in sigma[1:]))


def _pi_ell_vec(v: Sequence, ell: int) -> tuple:
    return (Fraction(v[0]) * ell, *[Fraction(t) for t in v[1:]])


@lru_cache(maxsize=64)
def chain_term(sigma: Matrix, ell: int) -> tuple:
    """(sign, sigma_ell, det sigma_ell, L) of the chain term with first
    columns sigma, for the cocycle, `d_ell` and the p-adic measure: sign =
    (-1)^n sgn det sigma, 0 if singular, and L the form of row 1."""
    sl = sigma_ell(sigma, ell)  # raises for a singular sigma too
    det = int(mat_det(sl))
    sign = (-1) ** len(sl) * ((det > 0) - (det < 0))
    return sign, sl, det, LinearFormModL(ell, sl[0])


@lru_cache(maxsize=64)
def _sigma_walk(sl: Matrix, ell: int, pv: tuple) -> tuple:
    """Per coset x of sigma_ell, the level z = -x_1 mod ell and the argument
    sigma_ell^-1 (x + pi v): all that the smoothed sum reads of v."""
    inv = mat_inv(sl)
    return tuple(((-x[0]) % ell,
                  mat_vec(inv, [xi + vi for xi, vi in zip(x, pv)]))
                 for x in coset_reps(sl))


def d_ell(sigma: Matrix, e: Sequence[int], Q, v: Sequence, ell: int, *,
          plus: bool = False, cache: "DedekindCache | None" = None) -> Fraction:
    """ell-smoothed Dedekind sum.

    Equals D(sigma_ell, e, pi Q, pi v) - ell^(1-n+ebar) D(sigma, e, Q, v);
    evaluated through the level-set decomposition, one `_level_value` (a
    cyclic convolution at every weight) per coset of sigma_ell over the
    shared `_sigma_walk`, summed in integers over their denominators' lcm.
    """
    sign, sl, _, L = chain_term(tuple(map(tuple, sigma)), ell)
    if not sign:
        return Fraction(0)
    signs = Q.sign_matrix(sigma)
    key = None
    if cache is not None:
        key = cache.key(sigma, e, v, signs, ell, plus)
        got = cache.get(key)
        if got is not None:
            return got
    cosets = _sigma_walk(sl, ell, _pi_ell_vec(v, ell))
    # the level value averages over the sign rows, so the mean of the two
    # halves of the plus value is one call on the rows of both
    rows = signs + tuple(tuple(-s for s in row) for row in signs) \
        if plus else signs
    pairs = [_level_value(e, L, z, x, rows) for z, x in cosets]
    den = lcm(*(b for _, b in pairs))
    val = Fraction(sum(a * (den // b) for a, b in pairs), den)
    if cache is not None:
        cache.put(key, val)
    return val


def d_ell_direct(sigma: Matrix, e: Sequence[int], Q, v: Sequence, ell: int, *,
                 plus: bool = False) -> Fraction:
    """Two-sum form of the smoothing, kept as the independent oracle for
    the decomposition identity."""
    sl = sigma_ell(sigma, ell)
    if mat_det(sigma) == 0:
        return Fraction(0)
    signs = Q.sign_matrix(sigma)
    ebar = sum(e)
    n = len(sigma)
    first = _coset_sum(sl, e, _pi_ell_vec(v, ell), signs, plus)
    second = _coset_sum(sigma, e, v, signs, plus)
    return first - Fraction(ell) ** (1 - n + ebar) * second


@lru_cache(maxsize=64, typed=True)
def _key_tail(v: tuple, signs, ell: int, plus: bool) -> str:
    """The cache key's repr after e; v enters reduced mod Z, so the entries'
    types do not show, and plus and ell are keyed by type too."""
    vred = tuple(Fraction(t) - floor(t) for t in v)
    return f", {vred!r}, {signs!r}, {ell!r}, {plus!r})"


class DedekindCache:
    """Memo for smoothed Dedekind sums, persistable as versioned
    line-delimited records "key<TAB>num/den", keyed by their exact text
    (format v2), and written with `os` alone."""

    FORMAT = "eisenzeta-dedekind-cache-v2"

    def __init__(self, path: str | None = None):
        self.path = path
        self.data: dict[str, Fraction] = {}
        if path and os.path.exists(path):
            self.load(path)

    def key(self, sigma, e, v, signs, ell: int, plus: bool) -> str:
        """repr((sigma, e, v mod Z, signs, ell, plus)): exact and canonical,
        so the text itself is the key."""
        return f"({tuple(map(tuple, sigma))!r}, {tuple(e)!r}" \
            f"{_key_tail(tuple(v), signs, ell, plus)}"

    def get(self, key: str) -> Fraction | None:
        return self.data.get(key)

    def put(self, key: str, val: Fraction) -> None:
        self.data[key] = val

    def load(self, path: str) -> None:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != self.FORMAT:
                raise ValueError(f"{path}: cache header {header!r} is not "
                                 f"{self.FORMAT!r}; delete the file")
            for lineno, line in enumerate(fh, 2):
                k, _, frac = line.strip().partition("\t")
                num, _, den = frac.partition("/")
                try:
                    self.data[k] = Fraction(int(num), int(den or 1))
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: bad cache record {line.strip()!r}"
                    ) from exc

    def save(self, path: str | None = None) -> None:
        path = path or self.path
        if not path:
            raise ValueError("no cache path configured")
        # write a sibling file, then rename it over the cache, so that a
        # reader never sees a partly written cache
        tmp = f"{path}.{os.getpid()}.tmp"
        fh = open(tmp, "w", encoding="ascii")
        try:
            with fh:
                fh.write(self.FORMAT + "\n")
                for k, val in sorted(self.data.items()):
                    fh.write(f"{k}\t{val.numerator}/{val.denominator}\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
