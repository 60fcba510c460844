"""Exact integer/rational linear algebra and multivariate polynomials.

Everything here is pure and exact: scalars are `fractions.Fraction` (or int),
matrices are tuples of tuples, and no floating point ever enters.  Matrices
are small (n <= 8), so dense quadratic/cubic algorithms are used throughout.

Each concept has one implementation: `mat_solve` is the only Gauss-Jordan
elimination (`mat_inv` and the field-element inverses solve through it),
`adjugate` the only integer adjugate (the p-adic cell kernel's, the unit
search's and the ideal inverse's), `power` the only square-and-multiply
loop (the powers of `MultiPoly`, field elements and p-adic integers),
`_bareiss` the only elimination determinant (`mat_det` over the integers,
`poly_det` over the polynomial ring), `_hermite` the only Hermite
reduction (`hnf` carries U along in the columns [M_j; e_j], `lattice_hnf`
takes any spanning columns, and `coset_reps` reads the diagonal of
`lattice_hnf`), `reduce_mod_lattice` the only reduction modulo a lattice
in HNF (membership, as in `Ideal.contains`, is a zero reduction),
`poly_eval` the only Horner evaluation of a dense univariate polynomial
and `forward_extend` the only extension of one from its values at 0..d,
`multiplication_matrix` the only multiplication matrix and product in
Q[t]/(f) (field and cyclotomic products, norms, traces, inverses, and the
norm forms: `resultant_norm` is its `poly_det`; the one univariate
remainder is `numberfield._poly_rem`), `_is_prime` the only primality test
and `_intval` the only valuation.

Two cofactor expansions stay beside `_bareiss`: `numberfield._interval_det`,
since Bareiss divides and intervals cannot be divided exactly, and
`zeta._int_det`, since the unit search takes thousands of 2 x 2 and 3 x 3
determinants, where the expansion is the cheaper (with `_bareiss` in its
place, on a loaded 2-core machine, listing the 3,480 changes of three
units took 170 ms, not 80, and the quartic's scoring 0.27 s, not 0.22).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, repeat
from math import isqrt, lcm
from operator import floordiv


class SingularMatrix(ValueError):
    pass


class DegreeError(ValueError):
    pass


class NotHomogeneous(ValueError):
    pass


Matrix = tuple[tuple, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(a: Matrix, v: Sequence) -> tuple:
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def _bareiss(a: list[list], zero, one, div):
    """Determinant over an integral domain by Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968); the rows of a are consumed, and
    div(x, y) divides exactly, which every division made here is."""
    n = len(a)
    sign, prev = 1, one
    for c in range(n - 1):
        piv = next((r for r in range(c, n) if a[r][c] != zero), None)
        if piv is None:
            return zero
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        p, top = a[c][c], a[c]
        for r in range(c + 1, n):
            row, f = a[r], a[r][c]
            a[r] = row[:c + 1] + [div(row[j] * p - f * top[j], prev)
                                  for j in range(c + 1, n)]
        prev = p
    return sign * a[-1][-1] if a else one


def mat_det(a: Matrix) -> Fraction:
    """Exact determinant of a square matrix of ints or Fractions: the
    integer `_bareiss` determinant of the rows scaled by the lcm of their
    denominators, divided by those scales."""
    den, rows = 1, []
    for row in a:
        d = lcm(*(x.denominator for x in row))
        den *= d
        rows.append([x.numerator * (d // x.denominator) for x in row])
    return Fraction(_bareiss(rows, 0, 1, floordiv), den)


def mat_solve(a: Matrix, b: Matrix) -> Matrix:
    """The solution X of a * X = b over the rationals, by Gauss-Jordan on
    the augmented matrix [a | b]; a is square, b has any number of
    columns."""
    n = len(a)
    m = [[x if isinstance(x, Fraction) else Fraction(x) for x in (*row, *brow)]
         for row, brow in zip(a, b)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise SingularMatrix("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        # skip zero entries: eliminated columns and a unit-vector or
        # identity right-hand side leave most of each row zero
        m[c] = [x * inv if x else x for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y if y else x for x, y in zip(m[r], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def mat_inv(a: Matrix) -> Matrix:
    """Exact inverse over the rationals."""
    return mat_solve(a, identity(len(a)))


def adjugate(m: Matrix) -> Matrix:
    """det(m) m^-1 of an integer matrix: its cofactors, `_bareiss` minors."""
    return tuple(tuple((-1) ** (i + j) * _bareiss([list(r[:i] + r[i + 1:])
                 for r in m[:j] + m[j + 1:]], 0, 1, floordiv)
                 for j in range(len(m))) for i in range(len(m)))


def power(x, k: int):
    """x ** k for k >= 1 by repeated squaring from the low bit, with no
    squaring after the last one; any type with * serves."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


def _hermite(cols: list[list[int]], n: int) -> list[list[int]]:
    """Column Hermite reduction of integer columns on their first n
    coordinates, in place (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4.2): for each r < n, Euclid on row r across columns
    r.. leaves one pivot cols[r][r] >= 0 and zeros to its right, and a
    nonzero pivot reduces the row's entries left of it into [0, pivot).
    Coordinates past n ride along with their columns; a zero pivot (a
    singular first block) is left in place."""
    h, m = cols, len(cols)
    for r in range(min(n, m)):
        while True:
            nz = [j for j in range(r + 1, m) if h[j][r] != 0]
            if not nz:
                break
            if h[r][r] == 0:
                h[r], h[nz[0]] = h[nz[0]], h[r]
                continue
            for j in nz:
                q = h[j][r] // h[r][r]
                h[j] = [a - q * b for a, b in zip(h[j], h[r])]
                if h[j][r] != 0:
                    h[r], h[j] = h[j], h[r]
                    break
        if h[r][r] < 0:
            h[r] = [-a for a in h[r]]
        if h[r][r] != 0:
            for j in range(r):
                q = h[j][r] // h[r][r]
                if q:
                    h[j] = [a - q * b for a, b in zip(h[j], h[r])]
    return h


def hnf(mat: Matrix) -> tuple[Matrix, Matrix]:
    """Column Hermite normal form H = M*U with U unimodular.

    H is lower triangular with nonnegative diagonal; in every row the
    entries left of the diagonal are reduced into [0, H[i][i]).  Zero
    diagonal entries occur exactly when M is singular.  Works for integer
    or rational input (rational input is scaled to integers and back).
    U rides along as the lower half of the columns [M_j; e_j].
    """
    n = len(mat)
    den = lcm(*(x.denominator for row in mat for x in row))
    cols = _hermite([[int(mat[i][j] * den) for i in range(n)]
                     + [int(i == j) for i in range(n)] for j in range(n)], n)
    h = tuple(tuple(Fraction(c[i], den) if den != 1 else c[i] for c in cols)
              for i in range(n))
    return h, tuple(tuple(c[n + i] for c in cols) for i in range(n))


def lattice_hnf(cols: Sequence[Sequence]) -> Matrix:
    """HNF basis (n x n, lower triangular) of the full-rank lattice spanned
    by the given columns; accepts m >= n integer or rational columns."""
    if not cols:
        raise SingularMatrix("no generators")
    n = len(cols[0])
    den = lcm(*(x.denominator for col in cols for x in col))
    h = _hermite([[int(x * den) for x in col] for col in cols], n)
    if len(h) < n or any(h[r][r] == 0 for r in range(n)):
        raise SingularMatrix("generators do not span a full-rank lattice")
    return tuple(tuple(Fraction(h[j][i], den) if den != 1 else h[j][i]
                       for j in range(n)) for i in range(n))


def snf(mat: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form D = U*M*V over the integers, U, V unimodular."""
    n, m = len(mat), len(mat[0])
    d = [[int(x) for x in row] for row in mat]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def rowop(dst, src, q):
        for j in range(m):
            d[dst][j] -= q * d[src][j]
        for j in range(n):
            u[dst][j] -= q * u[src][j]

    def colop(dst, src, q):
        for i in range(n):
            d[i][dst] -= q * d[i][src]
        for i in range(m):
            v[i][dst] -= q * v[i][src]

    def rowswap(a, b):
        d[a], d[b] = d[b], d[a]
        u[a], u[b] = u[b], u[a]

    def colswap(a, b):
        for i in range(n):
            d[i][a], d[i][b] = d[i][b], d[i][a]
        for i in range(m):
            v[i][a], v[i][b] = v[i][b], v[i][a]

    k = 0
    while k < min(n, m):
        # move a nonzero pivot to (k, k)
        piv = next(((i, j) for j in range(k, m) for i in range(k, n) if d[i][j]), None)
        if piv is None:
            break
        rowswap(k, piv[0])
        colswap(k, piv[1])
        while True:
            done = True
            for i in range(k + 1, n):
                if d[i][k]:
                    q = d[i][k] // d[k][k]
                    rowop(i, k, q)
                    if d[i][k]:
                        rowswap(k, i)
                        done = False
            for j in range(k + 1, m):
                if d[k][j]:
                    q = d[k][j] // d[k][k]
                    colop(j, k, q)
                    if d[k][j]:
                        colswap(k, j)
                        done = False
            if done:
                break
        # enforce divisibility d_k | d[i][j] for the trailing block: fold the
        # offending row into row k so the gcd elimination shrinks the pivot
        bad = next(((i, j) for i in range(k + 1, n) for j in range(k + 1, m)
                    if d[i][j] % d[k][k]), None)
        if bad is not None:
            rowop(k, bad[0], -1)
            continue
        if d[k][k] < 0:
            for j in range(m):
                d[k][j] = -d[k][j]
            for j in range(n):
                u[k][j] = -u[k][j]
        k += 1
    return (tuple(tuple(r) for r in d), tuple(tuple(r) for r in u),
            tuple(tuple(r) for r in v))


def reduce_mod_lattice(w: Sequence, h: Matrix) -> tuple:
    """Canonical representative of w modulo the column lattice of the
    lower-triangular HNF matrix h: coordinates land in [0, h[i][i])."""
    n = len(h)
    x = list(w)
    for i in range(n):
        if h[i][i] == 0:
            raise SingularMatrix("lattice not full rank")
        q = x[i] // h[i][i]
        if q:
            for r in range(i, n):
                x[r] -= q * h[r][i]
    return tuple(x)


def coset_reps(mat: Matrix) -> list[tuple[int, ...]]:
    """Representatives of Z^n / M Z^n, one per class.

    Canonical rule: 0 <= x_i < H[i][i] where H is the column HNF of M.
    """
    n = len(mat)
    h = lattice_hnf(tuple(zip(*mat)))  # SingularMatrix when det M = 0
    reps: list[tuple[int, ...]] = [()]
    for i in range(n):
        reps = [r + (x,) for r in reps for x in range(int(h[i][i]))]
    return reps


def forward_extend(qs: Sequence[int], count: int, mod: int) -> Iterator[int]:
    """The values at 0, 1, .. (at least count of them) of the polynomial of
    degree < len(qs) that takes the values qs at 0, 1, ..: its forward
    differences at 0, reduced mod `mod`, then running sums, which an
    iterator takes one value at a time."""
    diffs = []
    while qs:
        diffs.append(qs[0] % mod)
        qs = [b - a for a, b in zip(qs, qs[1:])]
    row = repeat(diffs.pop(), count)
    while diffs:
        row = accumulate(row, initial=diffs.pop())
    return row


def poly_eval(coeffs: Sequence, x) -> Fraction:
    """The dense univariate polynomial with ascending `coeffs` at x."""
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


class MultiPoly:
    """Multivariate polynomial with Fraction coefficients, or int ones.

    Stored as {exponent tuple: coefficient}; zero coefficients are never
    kept, ints stay ints.  Instances are treated as immutable.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict | None = None):
        self.nvars = nvars
        clean = {}
        if coeffs:
            for mono, c in coeffs.items():
                c = c if type(c) is int else Fraction(c)
                if c:
                    assert len(mono) == nvars
                    clean[tuple(mono)] = c
        self.coeffs = clean

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max((sum(m) for m in self.coeffs), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.coeffs}
        return len(degs) <= 1

    def homogeneous_components(self) -> dict[int, "MultiPoly"]:
        parts: dict[int, dict] = {}
        for mono, c in self.coeffs.items():
            parts.setdefault(sum(mono), {})[mono] = c
        return {d: MultiPoly(self.nvars, cs) for d, cs in parts.items()}

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out[mono] + c if mono in out else c
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = other if type(other) is int else Fraction(other)
            return MultiPoly(self.nvars,
                             {m: c * other for m, c in self.coeffs.items()})
        out: dict[tuple, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                out[mono] = out[mono] + c1 * c2 if mono in out else c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        return power(self, k) if k else MultiPoly.constant(self.nvars, 1)

    def evaluate(self, point: Sequence) -> Fraction:
        total = Fraction(0)
        for mono, c in self.coeffs.items():
            term = c
            for x, e in zip(point, mono):
                if e:
                    term *= Fraction(x) ** e
            total += term
        return total

    def compose_matrix(self, rows: Matrix) -> "MultiPoly":
        """Substitute X_i -> sum_j rows[i][j] * X_j, in integers: with d
        and D the common denominators of the rows and of self, the result
        times D d^deg is an integer polynomial.  Each form's powers are
        built once, and the exponents e_j of a monomial are packed into the
        integer sum e_j b^j, b > deg, so multiplying monomials adds them."""
        n, b = self.nvars, self.degree() + 1
        rows = [[Fraction(x) for x in row] for row in rows]
        d = lcm(*(x.denominator for row in rows for x in row))
        den = lcm(*(c.denominator for c in self.coeffs.values()))
        powers = []
        for row in rows:
            form = {b ** j: int(x * d) for j, x in enumerate(row) if x}
            powers.append([{0: 1}])
            while len(powers[-1]) < b:
                powers[-1].append(_packed_mul(powers[-1][-1], form, {}))
        acc: dict[int, int] = {}
        for mono, c in self.coeffs.items():
            scale = (den // c.denominator) * d ** (b - 1 - sum(mono))
            term = {0: c.numerator * scale}
            for pw, e in zip(powers[:-1], mono):
                term = _packed_mul(term, pw[e], {})
            _packed_mul(term, powers[-1][mono[-1]], acc)
        den *= d ** (b - 1)
        return MultiPoly(n, {tuple(m // b ** j % b for j in range(n)):
                             Fraction(c, den) for m, c in acc.items()})

    def leading(self) -> tuple[tuple, Fraction]:
        mono = max(self.coeffs)  # lex order on exponent tuples
        return mono, self.coeffs[mono]

    def divexact(self, other: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ValueError if other does not divide self."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = self
        quot: dict[tuple, Fraction] = {}
        lm, lc = other.leading()
        while not rem.is_zero():
            rm, rc = rem.leading()
            qm = tuple(a - b for a, b in zip(rm, lm))
            if any(e < 0 for e in qm):
                raise ValueError("division is not exact")
            qc = (rc // lc if type(rc) is type(lc) is int and not rc % lc
                  else Fraction(rc) / lc)
            quot[qm] = quot[qm] + qc if qm in quot else qc
            rem = rem - MultiPoly(self.nvars, {qm: qc}) * other
        return MultiPoly(self.nvars, quot)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mono in sorted(self.coeffs, reverse=True):
            c = self.coeffs[mono]
            vars_ = "*".join(f"X{i+1}^{e}" if e > 1 else f"X{i+1}"
                             for i, e in enumerate(mono) if e)
            parts.append(f"{c}" + (f"*{vars_}" if vars_ else ""))
        return " + ".join(parts)


def _packed_mul(a: dict, b: dict, out: dict) -> dict:
    """Add the product of two polynomials on packed monomials into out."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return out


def poly_det(mat: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant over the polynomial ring by `_bareiss`; exactness of
    the interior divisions is a theorem."""
    nvars = mat[0][0].nvars
    return _bareiss([list(row) for row in mat], MultiPoly(nvars),
                    MultiPoly(nvars, {(0,) * nvars: 1}), MultiPoly.divexact)


def multiplication_matrix(f: Sequence[int], coeffs: Sequence, zero) -> Matrix:
    """The matrix of multiplication by g = sum coeffs[k] t^k in Q[t]/(f),
    that is sum coeffs[k] C^k with C the companion matrix of the monic f
    (ascending coefficients, degree n): column j holds the power-basis
    coordinates of g t^j mod f.  The coefficients are rationals or
    polynomials, `zero` the zero among them, and there are at most n."""
    n = len(f) - 1
    if n < 1 or f[-1] != 1 or len(coeffs) > n:
        raise DegreeError("f must be monic of degree n >= 1, g of degree < n")
    col = [*coeffs, *[zero] * (n - len(coeffs))]
    cols = [col]
    for _ in range(n - 1):  # t^n = -(f[0] + ... + f[n-1] t^(n-1))
        top, col = col[-1], [zero, *col[:-1]]
        if top != zero:
            col = [x - top * c if c else x for x, c in zip(col, f)]
        cols.append(col)
    return tuple(zip(*cols))


def resultant_norm(f: Sequence[int], g: Sequence[MultiPoly]) -> MultiPoly:
    """prod over the roots theta_i of f of g(theta_i; X): the determinant,
    over the polynomial ring, of the multiplication matrix of g in
    Q[t]/(f) (Cohen, A Course in Computational Algebraic Number Theory,
    4.3).

    f is a monic integer polynomial given by ascending coefficients
    (f[0] + f[1] t + ... + t^n); g is given by its ascending t-coefficients,
    at most n of them, each a MultiPoly in the auxiliary variables.
    """
    zero = MultiPoly(g[0].nvars if g else 1)
    return poly_det(multiplication_matrix(f, g, zero))


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _intval(n: int, p: int) -> int:
    """v_p(n), for n != 0 and p >= 2."""
    if n == 0 or p < 2:
        raise ValueError(f"no valuation of {n} at {p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
