"""Precision-tracked p-adic arithmetic and the p-adic side of the zeta
machinery: the measure attached to the cocycle, Riemann-sum integration
against it, p-adic zeta values, and order-of-vanishing integrals.

Measure values are exact rationals with denominator dividing m * ell^n, so
Riemann sums run in modular integer arithmetic at a chosen working
precision; every reported precision is a worst-case lower bound, and
claims derived from truncation are certified by two-level agreement rather
than by an a-priori epsilon.

Each concept has one implementation: `MeasureHandle.measure_box` is the one
exact box value, the cocycle at P = 1, and the fast `CellKernel.row` is
tested against it, both reading each chain term from `dedekind.chain_term`;
`_log_series` sums the logarithm of a list of arguments, one for
`iwasawa_log`, a row for the sweeps; `_series_loss` is the
worst-case digit loss of a per-cell log; `_disc_values` evaluates a
polynomial in y from its three Taylor terms at y mod p^ceil(work / 3), kept
once per residue disc: the log series' polynomial part and the weight
character <N(ac) Nx>^(-s) of `padic_zeta_weight`, the polynomial (1 + y)^e
in y = <N(ac) Nx> - 1, go through it, and there is no p-adic exp;
`teichmuller` is one modular power; `exact._intval` takes every valuation
and `_residue` every rational residue; `_norm_units` strips p from the
sweeps' norm residues; `integrate_cells` is the one Riemann loop,
`_poly_residue_evaluator` the one polynomial evaluator (the sweeps' norm
residues, and the norm mod p that `_unit_norm_cells` reads once on
(Z/p)^n); and `_region` builds every region, testing each lattice as one
integer congruence in the cell index.  That test works in the completion at
p, since for a class representative a != O the points x = w . (v + j) carry
denominators prime to p.

The loop runs row by row.  `CellKernel.diff` walks each chain term's
cosets that differ only in the last coordinate as one long affine row,
folded onto the difference array d of the row's measures, and reads
integer tables, one per set of integral coordinates, each one
`b1_L_z_fast` row of every level.  The values at s = -k are moments of
one measure, so `padic_zetas` and `oov_integrals` take every k from one
sweep (`powers`).  An integrand takes a row's live cells in one call.  A
polynomial P takes the nodes 0..D, D >= deg P^k: as P^k = sum_y P^k(y)
l_y, with l_y of degree D, 1 at y and 0 at the other nodes, a row sums to
sum_y P^k(y) sum_X d[X] T_y(X) over d's few nonzero X, T_y(X) summing l_y
over the kept x >= X.  That holds mod p^work too.  A sweep builds what its
rows share once: the basis l_y, masked and suffix-summed once per keep
pattern, and the node values P(v + prefix + (y,)), polynomials in the last
prefix coordinate, stepped from row to row by forward differences.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, product, repeat
from math import comb, gcd, lcm
from operator import mul

from .cocycle import CocycleArgs, first_column_matrix, psi_ell_chain
from .dedekind import b1_L_z_fast, chain_term
from .exact import (MultiPoly, _intval, _is_prime, adjugate, coset_reps,
                    forward_extend, lattice_hnf, mat_inv, mat_mul, mat_vec,
                    power)
from .numberfield import FieldElement, Ideal
from .zeta import MissingClassData, ZetaData


class PrecisionExhausted(ArithmeticError):
    pass


class LevelTooSmall(ValueError):
    pass


class TooManyCells(ValueError):
    pass


# Most cells a region may have at its level t, (p^t)^n, checked before any
# cell is tested: a cell costs about 5 us in the integer congruences, so
# 10^6 take 5 s.
MAX_REGION_CELLS = 10 ** 6


class ResidueFieldMismatch(ValueError):
    pass


class PadicInt:
    """Element of Z_p known modulo p^prec (worst-case tracking)."""

    __slots__ = ("p", "prec", "res")

    def __init__(self, p: int, prec: int, res: int):
        if prec < 0:
            prec = 0
        self.p = p
        self.prec = prec
        self.res = res % (p ** prec) if prec > 0 else 0

    @classmethod
    def from_fraction(cls, q, p: int, prec: int) -> "PadicInt":
        q = Fraction(q)
        if q.denominator % p == 0:
            raise ValueError("not a p-adic integer")
        return cls(p, prec, _residue(q, p ** prec))

    def _check(self, other: "PadicInt") -> None:
        if self.p != other.p:
            raise ValueError("prime mismatch")

    def __add__(self, other: "PadicInt") -> "PadicInt":
        self._check(other)
        m = min(self.prec, other.prec)
        return PadicInt(self.p, m, self.res + other.res)

    def __neg__(self) -> "PadicInt":
        return PadicInt(self.p, self.prec, -self.res)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        return self + (-other)

    def __mul__(self, other) -> "PadicInt":
        if isinstance(other, int):
            if other == 0:  # exactly 0, reported at this factor's precision
                return PadicInt(self.p, self.prec, 0)
            other = PadicInt(self.p, self.prec + _intval(other, self.p), other)
        self._check(other)
        m = min(self.prec + other.valuation(), other.prec + self.valuation(),
                self.prec + other.prec)
        return PadicInt(self.p, m, self.res * other.res)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PadicInt":
        if k < 0:
            raise ValueError("negative exponent")
        if k == 0:  # exactly 1, reported at this base's precision
            return PadicInt(self.p, self.prec, 1)
        return power(self, k)

    def valuation(self) -> int:
        """Largest v <= prec with p^v | residue (= prec when res = 0)."""
        if self.res == 0:
            return self.prec
        return _intval(self.res, self.p)

    def is_unit(self) -> bool:
        return self.prec > 0 and self.res % self.p != 0

    def inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise PrecisionExhausted("inverse of a non-unit")
        mod = self.p ** self.prec
        return PadicInt(self.p, self.prec, pow(self.res, -1, mod))

    def unit_part(self) -> tuple["PadicInt", int]:
        """(x / p^v, v); raises when the residue vanishes at this precision."""
        if self.res == 0:
            raise PrecisionExhausted("valuation exceeds working precision")
        v = _intval(self.res, self.p)
        return PadicInt(self.p, self.prec - v, self.res // self.p ** v), v

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicInt) or self.p != other.p:
            return NotImplemented
        m = self.p ** min(self.prec, other.prec)
        return (self.res - other.res) % m == 0

    def __repr__(self):
        return f"PadicInt({self.res} + O({self.p}^{self.prec}))"


def _residue(q, mod: int) -> int:
    """The rational q modulo mod; pow's ValueError when its denominator is
    not a unit."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, mod) % mod


def frac_valuation(q: Fraction, p: int) -> int:
    q = Fraction(q)
    return _intval(q.numerator, p) - _intval(q.denominator, p)


def teichmuller(a: int, p: int, prec: int) -> int:
    """The (p-1)-st (or {+-1} for p = 2) root of unity congruent to a."""
    if a % p == 0:
        raise ValueError("not a unit")
    mod = p ** prec
    if p == 2:
        return 1 if a % 4 == 1 else mod - 1
    return pow(a, p ** (prec - 1), mod)  # a^(p^k) = omega(a) mod p^(k+1)


def iwasawa_log(x: PadicInt) -> PadicInt:
    """Iwasawa-branch logarithm: log(p) = 0, Teichmuller part killed.

    Defined for any x with nonzero residue; the unit part's precision is
    what survives into the result, less the series division losses.
    """
    u, _v = x.unit_part()
    p, prec = u.p, u.prec
    mod = p ** prec
    om = teichmuller(u.res, p, prec)
    y = (u.res * pow(om, -1, mod) - 1) % mod
    if y == 0:
        return PadicInt(p, prec, 0)
    vy = _intval(y, p)
    if vy < (2 if p == 2 else 1):
        raise PrecisionExhausted("argument not in the log-convergent disc")
    (total,), loss = _log_series([y], p, prec, vy)
    return PadicInt(p, prec - loss, total)


def _disc_values(ys: Sequence[int], p: int, prec: int, table: dict,
                 taylor: Callable[[int], Sequence[int]]) -> list[int]:
    """[F(y) mod p^prec for y in ys], F a polynomial with p-integral
    coefficients, read from its Taylor terms at y's residue disc.

    With h = ceil(prec / 3), y1 = y mod p^h and d = y - y1, p^h divides d,
    so d^3 = 0 mod p^prec and F(y) = F0(y1) + d F1(y1) + d^2 F2(y1), where
    Fj = F^(j) / j! = sum_k C(k, j) f_k Y^(k - j).  `taylor(y1)` gives
    (F0, F1, F2)(y1) mod p^prec once per y1, kept in `table`, which holds
    at most p^(h - 1) entries when p divides every y.
    """
    mod = p ** prec
    ph = p ** -(-prec // 3)
    out = []
    for y in ys:
        y1 = y % ph
        f = table.get(y1)
        if f is None:
            f = table[y1] = taylor(y1)
        d = y - y1
        out.append((f[0] + d * (f[1] + d * f[2])) % mod)
    return out


def _log_series(ys: Sequence[int], p: int, prec: int,
                vy: int = 1) -> tuple[list[int], int]:
    """([log(1 + y) mod p^prec for y in ys], loss) for v_p(y) >= vy >= 1,
    where loss is the largest v_p(k) divided out of a term y^k / k.

    Term k has valuation >= k*vy - v_p(k) and vanishes mod p^prec once
    k*vy >= prec, so the sum runs while k*vy <= prec + loss; that bound does
    not depend on y.  The terms with p not dividing k are one polynomial in
    y, read from its Taylor table at y's residue disc (`_disc_values`), one
    table per (p, prec, vy) kept across calls.  A term with p | k is y^k mod
    p^prec divided by p^v_p(k), where the digits are lost, so it is taken
    as such at every y.
    """
    table, taylor, divided, loss = _log_terms(p, prec, vy)
    totals = _disc_values(ys, p, prec, table, taylor)
    if not divided:
        return totals, loss
    mod = p ** prec
    for k, pv, c in divided:
        terms = [pow(y, k, mod) for y in ys]
        if any(t % pv for t in terms):
            raise PrecisionExhausted("series division by p underflows")
        totals = [s + t // pv * c for s, t in zip(totals, terms)]
    return [s % mod for s in totals], loss


@lru_cache(maxsize=None)
def _log_terms(p: int, prec: int, vy: int) -> tuple:
    """(table, taylor, divided, loss) of `_log_series` at (p, prec, vy):
    the disc table of the polynomial sum_(p not | k) (-1)^(k+1) y^k / k and
    its Taylor terms at a residue y1, the terms (k, p^v_p(k), (-1)^(k+1) /
    (k / p^v_p(k))) with p | k, and the largest v_p(k) among them.  Every
    caller shares the table: its entries depend on (p, prec, vy, y1) only."""
    mod = p ** prec
    inverses = _series_inverses(p, prec)
    coeffs, divided = [0], []  # (-1)^(k+1) / k, by whether p | k
    loss = 0
    k = 1
    while k * vy <= prec + loss:
        vk, kinv = inverses[k]
        c = kinv if k & 1 else -kinv
        if vk:
            divided.append((k, p ** vk, c))
            loss = max(loss, vk)
        coeffs.append(0 if vk else c)
        k += 1
    derivs = [[comb(k, j) * c % mod for k, c in enumerate(coeffs)][j:]
              for j in range(3)]  # the coefficients of F0, F1, F2

    def taylor(y1):
        out = []
        for cs in derivs:
            s = 0
            for c in reversed(cs):
                s = (s * y1 + c) % mod
            out.append(s)
        return out

    return {}, taylor, divided, loss


@lru_cache(maxsize=None)
def _series_inverses(p: int, prec: int) -> list[tuple[int, int]]:
    """(v_p(k), (k / p^v_p(k))^-1 mod p^prec) at index k < 2 prec + 2,
    which bounds the terms of `_log_series`: k <= prec + log_p(k - 1)."""
    mod = p ** prec
    out = [(0, 0)]
    for k in range(1, 2 * prec + 2):
        vk = _intval(k, p)
        out.append((vk, pow(k // p ** vk, -1, mod)))
    return out


# --- the measure ----------------------------------------------------------------

class MeasureHandle:
    """The Z[1/ell]-valued measure attached to zeta data, with a modular
    fast path for bulk Riemann cells.

    Denominators of all box measures divide mu_den = m * ell^n, so a box
    value is carried as an integer numerator over that fixed denominator.
    """

    def __init__(self, z: ZetaData, p: int):
        if not _is_prime(p):
            raise ValueError("p must be prime")
        if p == z.ell:
            raise ValueError("p must differ from the smoothing prime")
        if any(x.denominator % p == 0 for x in z.v):
            raise ValueError(
                f"p must be prime to f: p = {p} divides a denominator of the "
                f"shift v = ({', '.join(map(str, z.v))})")
        nac = z.a.norm() * z.c.norm()
        if nac % p == 0:
            raise ValueError(f"p must be prime to N(a c): p = {p} divides "
                             f"N(a c) = {nac}")
        self.z = z
        self.p = p
        self.n = z.field.n
        self.ell = z.ell
        self.Q = z.Qsingle[0]
        self.mu_den = self.ell ** self.n  # m = 1 single form
        self.nac = Fraction(nac)
        self.norm_poly = z.P * (1 / self.nac)  # N(w.(v + X))
        self.terms = []
        for coeff, tup in z.chain.terms:
            sigma = first_column_matrix(tup)
            sign, sl, det, L = chain_term(sigma, self.ell)
            if sign:
                self.terms.append({
                    "sign": coeff * sign, "L": L, "det": det,
                    "adj": adjugate(sl), "cosets": coset_reps(sl),
                    "signs": self.Q.sign_matrix(sigma), "tables": {}})

    def table(self, term: dict, J: int) -> list[int]:
        """T[t] = sign * mu_den * the term's value at level t where the bit
        set J of coordinates is integral: at x_J = 0 on J and 1/2 off J all
        floors are 0, so T[t] is entry z = -t of one `b1_L_z_fast` row,
        scaled in integers and memoized on the term."""
        if J not in term["tables"]:
            x = [0 if J >> i & 1 else Fraction(1, 2) for i in range(self.n)]
            row = b1_L_z_fast(term["L"], x, term["signs"])
            scale = term["sign"] * self.mu_den
            if any(scale % val.denominator for val in row):
                raise AssertionError("measure denominator bound violated")
            term["tables"][J] = [scale * val.numerator // val.denominator
                                 for val in row[:1] + row[:0:-1]]
        return term["tables"][J]

    def measure_box(self, a: Sequence[int], r: int) -> Fraction:
        """Exact measure of the box (v + a + p^r X): the cocycle at P = 1
        and (v + a) / p^r, the value `CellKernel.row` is tested against."""
        w = tuple((Fraction(vi) + ai) / self.p ** r
                  for vi, ai in zip(self.z.v, a))
        args = CocycleArgs(MultiPoly.constant(self.n, 1), self.Q, w)
        return psi_ell_chain(self.z.chain, args, self.ell)

    def total_mass(self) -> Fraction:
        return self.measure_box((0,) * self.n, 0)

    def cell_numerators(self, M: int) -> "CellKernel":
        return CellKernel(self, M)


class CellKernel:
    """Integer-affine evaluation of all box measures at one level.

    For each chain term and each coset x, the argument of the restricted
    distribution is y(j) = sl^-1 (x + pi_ell (v + j)/p^M), an affine map
    with integer numerators over a fixed positive denominator (`maps`); a
    box value needs only the floors of y(j) and a table lookup.  As pi_ell
    scales the last coordinate by 1 and the level ignores it, coset
    (x', x_n) at cell j is (x', 0) at j + p^M x_n e_n: a term's cosets
    sharing x' are one run, an affine row of p^M cells per coset.  Each run
    is built once with what no row changes (`_kernel_run`): per coordinate
    the slope along the row and the step and inverse that place its
    sign-defect cells, so `diff` only substitutes the prefix.
    """

    def __init__(self, h: MeasureHandle, M: int):
        self.h = h
        self.M = M
        pM = h.p ** M
        dv = lcm(*(Fraction(vi).denominator for vi in h.z.v))
        vd = [int(Fraction(vi) * dv) for vi in h.z.v]
        scale = [h.ell] + [1] * (h.n - 1)  # pi_ell
        self.maps, self.runs = [], []
        for t in h.terms:
            den = t["det"] * pM * dv
            sg = 1 if den > 0 else -1  # keep the denominator positive
            mat = [[sg * a * sk * dv for a, sk in zip(arow, scale)]
                   for arow in t["adj"]]
            runs: dict[tuple, list] = {}  # x' -> bases of (x', 0), (x', 1)..
            for x in t["cosets"]:
                base = [sg * sum(a * (pM * dv * xk + sk * vk) for a, xk, sk, vk
                                 in zip(arow, x, scale, vd))
                        for arow in t["adj"]]
                self.maps.append({"base": base, "mat": mat, "den": abs(den)})
                run = runs.setdefault(x[:-1], [])
                if x[-1] != len(run):  # coset_reps: the box 0 <= x_i < H_ii
                    raise AssertionError("a run must be x_n = 0, 1, ...")
                run.append(base)
            self.runs += [_kernel_run(run[0], mat, abs(den), len(run),
                                      head[0] % h.ell, t)
                          for head, run in runs.items()]

    def row(self, prefix: Sequence[int],
            keep: Sequence[bool] | None = None) -> list[int]:
        """[mu_den * measure of box (v + prefix + (x,) + p^M X), x < p^M]."""
        return list(accumulate(self.diff(prefix, keep)))[:self.h.p ** self.M]

    def diff(self, prefix: Sequence[int],
             keep: Sequence[bool] | None) -> list[int]:
        """The p^M + 1 entries of `row`'s difference array.  On a run of W
        cosets y_i = c_i + s_i X for X < W p^M, and its table value changes
        where some floor(y_i / den) steps: a step at X goes to the array at
        X mod p^M, and each window start w p^M adds the value there to cell
        0.  A cell with some y_i = 0 mod den reads the table of its integral
        coordinates, except where `keep` is false: those cells are left
        unspecified."""
        h, ell = self.h, self.h.ell
        pl = h.p ** self.M
        diff = [0] * (pl + 1)
        for base, mat, den, width, t0, term, coords in self.runs:
            a = term["L"].a
            length = width * pl
            cs = [b + sum(m * jk for m, jk in zip(mrow, prefix))
                  for b, mrow in zip(base, mat)]
            t, steps, defects = t0, [], set()
            for ai, (s, g, step, inv), c in zip(a, coords, cs):
                t -= ai * (c // den)
                # with c2 = -c - 1 for s < 0, floor(y / den) is -1 minus
                # floor((c2 + |s| X) / den)
                dt, c2, s2 = (-ai, c, s) if s >= 0 else (ai, -c - 1, -s)
                steps += _floor_steps(c2, s2, den, length, dt)
                if c % g == 0:  # s X = -c mod den
                    defects.update(range(-c // g * inv % step, length, step))
            table = h.table(term, 0)
            val = table[t % ell]
            start = 0  # the next window start to add; every step has X > 0
            for X, dt in sorted(steps):
                while start < X:
                    diff[0] += val
                    start += pl
                t += dt
                new = table[t % ell]
                if X != start:
                    diff[X % pl] += new - val
                val = new
            diff[0] += val * ((length - start) // pl)
            for X in defects:
                if keep is None or keep[X % pl]:
                    qr = [divmod(c + co[0] * X, den)
                          for c, co in zip(cs, coords)]
                    J = sum(1 << i for i, (_, r) in enumerate(qr) if r == 0)
                    t = (t0 - sum(ai * q for ai, (q, _) in zip(a, qr))) % ell
                    fix = h.table(term, J)[t] - table[t]
                    diff[X % pl] += fix
                    diff[X % pl + 1] -= fix
        return diff


def _kernel_run(base, mat, den, width, t0, term) -> tuple:
    """A run as `CellKernel.diff` reads it, with what no row changes: per
    coordinate (s, g, den / g, (s / g)^-1 mod den / g), s = mat[i][-1] the
    slope along the row and g = gcd(s, den)."""
    gs = [(r[-1], gcd(r[-1], den)) for r in mat]
    return base, mat, den, width, t0, term, [
        (s, g, den // g, pow(s // g, -1, den // g)) for s, g in gs]


def _floor_steps(c: int, s: int, den: int, n: int,
                 dt: int) -> list[tuple[int, int]]:
    """[(x, dt * rise)] at each x < n where floor((c + s x) / den) rises,
    for s >= 0."""
    r0, r1 = c // den, (c + s * (n - 1)) // den
    if r1 - r0 < n:  # it reaches m at the first x >= (m den - c) / s
        return [(-((c - m * den) // s), dt) for m in range(r0 + 1, r1 + 1)]
    rs = [(c + s * x) // den for x in range(n)]  # it rises at most cells
    return [(x, dt * (rs[x] - rs[x - 1])) for x in range(1, n)
            if rs[x] != rs[x - 1]]


# --- regions ---------------------------------------------------------------------

class Region:
    """Compact open subset of the coordinate space defined by congruence
    conditions at level t: membership of a cell depends only on its index
    modulo p^t."""

    __slots__ = ("p", "t", "mask", "tag")

    def __init__(self, p: int, t: int, mask: frozenset, tag: str):
        self.p = p
        self.t = t
        self.mask = mask
        self.tag = tag

    def contains(self, j: Sequence[int]) -> bool:
        pt = self.p ** self.t
        return tuple(ji % pt for ji in j) in self.mask

    def cell_count(self) -> int:
        return len(self.mask)


def _sum_lattice(I: Ideal, c: int):
    field = I.field
    n = field.n
    cols = [[I.basis[i][j] for i in range(n)] for j in range(n)]
    cols += [[c * field.order_basis[i][j] for i in range(n)] for j in range(n)]
    return lattice_hnf(cols)


def _stabilized_lattice(I: Ideal, p: int):
    """Smallest t >= 1 with I + p^t O = I + p^(t+1) O, and that ideal; from
    level t on, membership mod p^t decides membership in I O_p."""
    t = 1
    prev = _sum_lattice(I, p ** t)
    for _ in range(200):
        nxt = _sum_lattice(I, p ** (t + 1))
        if nxt == prev:
            return t, Ideal(I.field, prev, check=False)
        t, prev = t + 1, nxt
    raise LevelTooSmall("lattice saturation did not stabilize")


def _region(h: MeasureHandle, tag: str, f: Ideal, *,
            inside: Sequence[Ideal] = (), avoid: Sequence[Ideal] = ()) -> Region:
    """The cells j whose x(j) = w . (v + j) lies in every ideal of `inside`
    and in none of `avoid`, and is congruent to 1 modulo f.  Each ideal is
    replaced by its stabilised lattice q, between p^t O and O, and tested
    in the completion at p; the region's level is the deepest stabilisation
    level.  A level with more than MAX_REGION_CELLS cells raises
    TooManyCells before any cell is tested.

    Each lattice test is one integer congruence in j, built once.  Let D be
    the prime-to-p part of the common denominator of wmat and wmat v, so
    that every D x(j) lies in O[1/p].  As D is a unit at p, x(j) - shift
    lies in q O_p exactly when D (x(j) - shift) does, and that is exactly
    when it lies in q: O / q is a p-group, and an element of O[1/p] outside
    O is outside O_p.  With H the basis of q, that is L D H^-1 (wmat (v + j)
    - shift) = 0 mod L, where L clears the denominators; the shift is 0, or
    1 for the test modulo f.
    """
    p = h.p
    field = h.z.field
    n = field.n
    stable = [_stabilized_lattice(I, p) for I in [f, *inside, *avoid]]
    t = max(1, *(tI for tI, _ in stable))
    if (p ** t) ** n > MAX_REGION_CELLS:
        raise TooManyCells(f"the region's level {t} has {(p ** t) ** n} "
                           f"cells, above the limit of {MAX_REGION_CELLS}")
    flat, *lats = [lat for _, lat in stable]
    wmat = tuple(tuple(h.z.w[j].coords[i] for j in range(n)) for i in range(n))
    wv = mat_vec(wmat, h.z.v)
    D = lcm(*(c.denominator for row in wmat for c in row),
            *(c.denominator for c in wv))
    D //= p ** _intval(D, p)

    def congruence(q: Ideal, shift: Sequence) -> tuple[int, list]:
        """(L, [(row of L D H^-1 wmat mod L, its constant)]), without the
        rows that hold at every j."""
        hinv = mat_inv(q.basis)
        a = mat_mul(hinv, wmat)
        b = mat_vec(hinv, [x - s for x, s in zip(wv, shift)])
        L = lcm(*((D * c).denominator for row in a for c in row),
                *((D * c).denominator for c in b))
        rows = [([int(c * D * L) % L for c in arow], int(bc * D * L) % L)
                for arow, bc in zip(a, b)]
        return L, [(arow, bc) for arow, bc in rows if any(arow) or bc]

    def holds(cong, j):
        L, rows = cong
        return all((sum(map(mul, arow, j)) + bc) % L == 0 for arow, bc in rows)

    zero = (0,) * n
    musts = [congruence(flat, field.one().coords)]
    musts += [congruence(q, zero) for q in lats[:len(inside)]]
    nots = [congruence(q, zero) for q in lats[len(inside):]]

    def member(j):
        return all(holds(c, j) for c in musts) \
            and not any(holds(c, j) for c in nots)

    mask = frozenset(j for j in product(range(p ** t), repeat=n) if member(j))
    return Region(p, t, mask, tag)


def region_units(h: MeasureHandle, f: Ideal) -> Region:
    """O*_{p,f}: units congruent to 1 modulo the p-part of f."""
    region = _region(h, "units", f)
    mask = frozenset(_unit_norm_cells(h, region.mask))
    return Region(h.p, region.t, mask, region.tag)


def _unit_norm_cells(h: MeasureHandle, cells: frozenset) -> list[tuple]:
    """The cells j of `cells` where N(x(j)), p-integral, is a p-unit: that
    depends on j mod p only, so its residues on (Z/p)^n are read once."""
    p, xs = h.p, list(range(h.p))
    nx = _poly_residue_evaluator(h, h.norm_poly, 1)
    units = {(*prefix, x) for prefix in product(xs, repeat=h.n - 1)
             for x, r in zip(xs, nx(prefix, xs)) if r}
    return [j for j in cells if tuple(ji % p for ji in j) in units]


def region_b_units(h: MeasureHandle, f: Ideal, b: Ideal,
                   b_primes: Sequence[Ideal]) -> Region:
    """O*_{p,b,f}: valuation exactly that of b at the primes dividing b,
    units congruent to 1 mod f elsewhere."""
    return _region(h, "b-units", f, inside=[b], avoid=[b * q for q in b_primes])


def region_oov(h: MeasureHandle, f: Ideal, pis: Sequence[FieldElement],
               other_primes: Sequence[Ideal] = ()) -> Region:
    """The order-of-vanishing region: the cells whose x avoids the ideal
    (pi_i) of each generator of `pis` and each ideal of `other_primes`, and
    is congruent to 1 mod f.  With (pi_i) = p_i^(e_i), avoiding (pi_i) is
    v_(p_i)(x) < e_i, so the generator fixes e_i."""
    field = h.z.field
    avoid = [Ideal.from_generators(field, [pi]) for pi in pis]
    return _region(h, "oov", f, avoid=avoid + list(other_primes))


def region_box(h: MeasureHandle, a: Sequence[int], r: int) -> Region:
    pt = h.p ** r
    mask = frozenset({tuple(ai % pt for ai in a)})
    return Region(h.p, r, mask, "box")


# --- Riemann sums ----------------------------------------------------------------

def integrate_cells(h: MeasureHandle, region: Region | None,
                    integrands: Sequence[Callable[..., int]],
                    M: int, work_prec: int,
                    powers: Sequence[int] = (1,),
                    polys: Sequence[MultiPoly] = ()) -> list[int]:
    """One pass over the level-M cells: for each integrand g, then each
    polynomial P, and each k in `powers`, the residue mod p^work of the sum
    over region cells of g(j)^k (or P(v + j)^k) * measure(box_j).

    g is called once per row as g(prefix, xs): prefix holds the first n - 1
    cell coordinates, xs the last coordinates of the row's live cells
    (region cells of nonzero measure) in increasing order, and g returns
    its values at those cells as a list.  Rows without a live cell get no
    call, and g is never called when every power is 0.  A polynomial, for
    k >= 0, is summed in closed form (see the module docstring).  What no
    row changes is built once per sweep: the Lagrange basis, masked and
    suffix-summed once per keep pattern, and each polynomial's node values,
    stepped from row to row (`_node_values`).
    """
    powers = list(powers)
    if not powers or not (integrands or polys):
        return []
    if polys and min(powers) < 0:
        raise ValueError("a polynomial integrand takes powers k >= 0")
    level = max(M, region.t if region is not None else 0)
    kernel = h.cell_numerators(level)
    p = h.p
    mod = p ** work_prec
    pl = p ** level
    call = any(powers)
    acc = [0] * ((len(integrands) + len(polys)) * len(powers))
    degree = max(powers) * max((P.degree() for P in polys), default=0)
    D = min(degree, pl - 1)
    lagrange = _lagrange_tables(pl, D) if polys else None
    mask = region.mask if region is not None and region.t > 0 else None
    pt = p ** region.t if mask is not None else 1
    rows_in: dict[tuple, list[bool]] = {}  # prefix mod p^t -> membership
    tables: dict = {}  # prefix mod p^t -> [T_y for y <= D]
    key = keep = None
    # every row steps the node values, a row without kept cells too
    for prefix, *node_vals in zip(
            product(range(pl), repeat=h.n - 1),
            *(_node_values(h, P, work_prec, range(D + 1), pl) for P in polys)):
        if mask is not None:
            key = tuple(ji % pt for ji in prefix)
            if key not in rows_in:
                rows_in[key] = [key + (x % pt,) in mask for x in range(pl)]
            keep = rows_in[key]
            if not any(keep):
                continue
        diff = kernel.diff(prefix, keep)
        sites = []  # (weights, values) of each integrand, then each poly
        if integrands:
            row = list(accumulate(diff))
            cells = range(pl) if keep is None else compress(range(pl), keep)
            xs = [x for x in cells if row[x]]
            ws = [row[x] for x in xs]
            sites += [(ws, g(prefix, xs) if xs and call else [])
                      for g in integrands]
        if polys:
            if key not in tables:
                tables[key] = lagrange(keep)
            steps = list(compress(range(pl + 1), diff))
            ds = [diff[X] for X in steps]
            ws = [sum(map(mul, ds, map(w.__getitem__, steps)))
                  for w in tables[key]]
            sites += [(ws, vals) for vals in node_vals]
        for si, (ws, vals) in enumerate(sites):
            if ws:
                sums = _moment_sums(ws, vals, powers, mod)
                for i, s in enumerate(sums, si * len(powers)):
                    acc[i] += s
    inv_den = pow(h.mu_den % mod, -1, mod)
    return [a * inv_den % mod for a in acc]


def _lagrange_tables(pl: int, D: int) -> Callable:
    """keep -> [T_y for y <= D], T_y[X] summing l_y(x) over the kept x in
    [X, pl), from one basis: l_y(x) = (-1)^(D-y) C(D, y) (D + 1) C(x, D + 1)
    / (x - y) for x > D."""
    cs = [(D + 1) * comb(x, D + 1) for x in range(pl)]
    basis = [[int(x == y) if x <= D
              else (-1) ** (D - y) * comb(D, y) * cs[x] // (x - y)
              for x in range(pl)] for y in range(D + 1)]
    return lambda keep: [list(accumulate(reversed([*map(
        mul, col, keep or repeat(1))]), initial=0))[::-1] for col in basis]


def _node_values(h: MeasureHandle, P: MultiPoly, work_prec: int,
                 nodes: Sequence[int], pl: int):
    """[P(v + prefix + (y,)) mod p^work for y in nodes] at each prefix of
    the sweep, in order: polynomials of degree <= deg P in the last prefix
    coordinate, so each head prefix[:-1] evaluates deg P + 1 rows and steps
    every node's column from row to row by forward differences."""
    mod = h.p ** work_prec
    ev = _poly_residue_evaluator(h, P, work_prec)
    for head in product(range(pl), repeat=h.n - 2):
        cols = [forward_extend(col, pl, mod) for col in zip(
            *(ev(head + (u,), nodes) for u in range(P.degree() + 1)))]
        for _ in range(pl):
            yield [next(col) % mod for col in cols]


def _moment_sums(nums: list[int], vals: list[int], powers: Sequence[int],
                 mod: int) -> list[int]:
    """[sum of num * val^k, for k in powers] modulo `mod`: sums of unreduced
    running products, or of modular powers when some k is negative."""
    if min(powers, default=0) < 0:
        return [sum(map(mul, nums, map(pow, vals, repeat(k), repeat(mod))))
                for k in powers]
    sums = [sum(nums)]
    pw = nums
    for _ in range(max(powers, default=0)):
        pw = list(map(mul, pw, vals))
        sums.append(sum(pw))
    return [sums[k] for k in powers]


def _poly_residue_evaluator(h: MeasureHandle, P: MultiPoly, work_prec: int):
    """Row integrand (prefix, xs) -> [residue of P(v + prefix + (x,)) mod
    p^work for x in xs], for xs increasing.

    Substituting the prefix leaves a polynomial q of degree d in the last
    coordinate, once per row, and its values at x = 0..d give q along the
    row (`exact.forward_extend`).
    """
    mod = h.p ** work_prec
    *vhead, vlast = [_residue(vi, mod) for vi in h.z.v]
    terms = [(_residue(c, mod), mono[:-1], mono[-1])
             for mono, c in P.coeffs.items()]
    deg = max((e for _, _, e in terms), default=0)

    def ev(prefix, xs):
        us = [vi + ji for vi, ji in zip(vhead, prefix)]
        coeffs = [0] * (deg + 1)  # of X^e in P(v + prefix, X)
        for c, head, e in terms:
            for u, ei in zip(us, head):
                c = c * pow(u, ei, mod)
            coeffs[e] += c
        row = list(forward_extend(
            [sum(c * (vlast + x) ** e for e, c in enumerate(coeffs))
             for x in range(deg + 1)], xs[-1] + 1, mod))
        return [row[x] % mod for x in xs]

    return ev


def integrate_poly(h: MeasureHandle, P: MultiPoly, M: int,
                   work_prec: int | None = None) -> PadicInt:
    """Level-M Riemann sum of P against the measure, as a p-adic residue.

    The sum converges p-adically to the exact cocycle value at P; the
    achieved rate is measured by the caller (two-level agreement or direct
    comparison with the exact value), not assumed.
    """
    if work_prec is None:
        work_prec = M + 8
    res = integrate_cells(h, None, [], M, work_prec, polys=[P])[0]
    return PadicInt(h.p, work_prec, res)


def _norm_units(h: MeasureHandle, work: int, message: str):
    """Row integrand (prefix, xs) -> [u] for the norm residues r mod
    p^work of the row, r = p^v u with u prime to p; it keeps the deepest v
    met as its `stratum`, and raises PrecisionExhausted(message) when some
    r is 0."""
    p, nx = h.p, _poly_residue_evaluator(h, h.norm_poly, work)

    def units(prefix, xs):
        rs = nx(prefix, xs)
        if all(map(p.__rmod__, rs)):
            return rs
        if 0 in rs:
            raise PrecisionExhausted(message)
        vs = [_intval(r, p) for r in rs]
        units.stratum = max(units.stratum, *vs)
        return [r // p ** v for r, v in zip(rs, vs)]

    units.stratum = 0
    return units


def padic_zetas(h: MeasureHandle, region: Region, ks: Sequence[int], M: int,
                work_prec: int | None = None) -> list[PadicInt]:
    """Values interpolating the prime-to-p smoothed zeta at s = -k for each
    k, sharing one pass: N(ac)^k * integral over the region of
    (unit part of Nx)^k d mu, the k-th moment of one measure.

    The norms are taken mod p^(2 work); a unit part that strips p^v keeps
    2 work - v digits, so a k != 0 is reported to min(work, 2 work - v)
    with v the deepest stratum met (0 in the closed form)."""
    if work_prec is None:
        work_prec = M + 8
    p = h.p
    guard = 2 * work_prec
    mod = p ** guard
    unit = _norm_units(h, guard, "norm residue vanished at working precision")
    # ks all 0 still takes the unit part at every cell (the extra moment),
    # so a vanishing norm residue raises for any ks; where every cell of a
    # region of level >= 1 has a p-unit norm, the unit part is the norm
    powers = [*ks, *([1] if ks and not any(ks) else [])]
    poly = region.t and min(ks, default=0) >= 0 \
        and len(_unit_norm_cells(h, region.mask)) == len(region.mask)
    res = integrate_cells(h, region, [] if poly else [unit], M, guard,
                          powers, [h.norm_poly] if poly else [])
    digits = min(work_prec, guard - unit.stratum)
    return [PadicInt(p, work_prec if k == 0 else digits,
                     r * _residue(h.nac ** k, mod)) for k, r in zip(ks, res)]


def padic_zeta(h: MeasureHandle, region: Region, k: int, M: int,
               work_prec: int | None = None) -> PadicInt:
    """The value at one k; see `padic_zetas`."""
    return padic_zetas(h, region, [k], M, work_prec)[0]


def _log_tables(p: int, work_prec: int):
    """Inverse Teichmuller lifts indexed by the residue that determines the
    torsion part: mod p for odd p, mod 4 for p = 2."""
    mod = p ** work_prec
    return [pow(teichmuller(a, p, work_prec), -1, mod) if a % p else 0
            for a in range(4 if p == 2 else p)]


def _log_unit_residues(rs: list[int], p: int, work_prec: int,
                       teich_inv) -> list[int]:
    """Iwasawa logs of the unit residues rs, each mod
    p^(work - _series_loss): y = r omega(r)^-1 - 1 in one pass, then the
    log series, whose polynomial part reads one kept table per residue
    disc of y mod p^ceil(work / 3)."""
    mod = p ** work_prec
    t = len(teich_inv)
    ys = [(r * teich_inv[r % t] - 1) % mod for r in rs]
    return _log_series(ys, p, work_prec)[0]


def _series_loss(p: int, work_prec: int) -> int:
    """Worst-case digits a per-cell log loses to the division by k: a bound
    on v_p(k) over the terms that survive mod p^work (k < work), taken as
    the largest v with p^v <= work_prec + 4."""
    loss = 0
    q = p
    while q <= work_prec + 4:
        loss += 1
        q *= p
    return loss


def oov_integrals(h: MeasureHandle, region: Region, ks: Sequence[int], M: int,
                  work_prec: int | None = None) -> list[PadicInt]:
    """Riemann sums of (log_p N x)^k over the region for each k, sharing
    one pass; log taken at cell centers on the Iwasawa branch.

    The reported precision subtracts the worst-case series loss and the
    deepest valuation stratum met; order-of-vanishing claims are certified
    by evaluating at successive levels.
    """
    if work_prec is None:
        work_prec = M + 6
    p = h.p
    units = _norm_units(h, work_prec,
                        "norm vanished at working precision; raise work_prec")
    teich_inv = _log_tables(p, work_prec)

    def row_log(prefix, xs):
        return _log_unit_residues(units(prefix, xs), p, work_prec, teich_inv)

    res = integrate_cells(h, region, [row_log], M, work_prec, powers=ks)
    loss = _series_loss(p, work_prec)
    return [PadicInt(p, work_prec - k * loss - units.stratum, r)
            for k, r in zip(ks, res)]


def padic_zeta_weight(h: MeasureHandle, region: Region, s, M: int,
                      work_prec: int | None = None) -> PadicInt:
    """Zeta value at the weight-space character <.>^(-s): the integral of
    <N(ac) Nx>^(-s) = <N(ac)>^(-s) <Nx>^(-s) over the region.

    The principal part <u> = u omega(u)^-1 of a unit u lies in 1 + pZ_p
    (1 + 4Z_2 for p = 2), which is cyclic of order dividing p^(work - 1)
    modulo p^work; so <u>^(-s) = (1 + y)^e with y = <u> - 1 and the
    exponent e = -s mod p^(work - 1), exact, at every cell.  That is a
    polynomial in y with Taylor terms C(e, j) (1 + y1)^(e - j), read once
    per residue disc y1 (`_disc_values`, one table per call).

    Changing s by p^c moves <u>^(-s) by a factor = 1 mod p^(c + 1) (mod
    2^(c + 2) for p = 2), so a PadicInt s caps the reported precision at
    s.prec + 1 (s.prec + 2); an s at another prime raises
    ResidueFieldMismatch."""
    if work_prec is None:
        work_prec = M + 6
    p = h.p
    mod = p ** work_prec
    # The sum is exact mod p^work, but the reported precision is the
    # per-cell log bound of `oov_integrals`: the order-2 Taylor expansion in
    # s from its log moments (test_L_derivative_taylor_tie) agrees to that
    # bound and not to p^work, so raising it is a change of its own.
    prec = work_prec - _series_loss(p, work_prec) - 1
    if not isinstance(s, int):
        if s.p != p:
            raise ResidueFieldMismatch(f"s is known at {s.p}, not at p = {p}")
        prec = min(prec, s.prec + (2 if p == 2 else 1))
        s = s.res
    e = -s % p ** (work_prec - 1)
    nx = _poly_residue_evaluator(h, h.norm_poly, work_prec)
    teich_inv = _log_tables(p, work_prec)
    nac_res = _residue(h.nac, mod)
    t = len(teich_inv)  # u = N(ac) r has <u> = r twist[r mod t]
    twist = [nac_res * teich_inv[nac_res * a % t] % mod for a in range(t)]
    table: dict = {}

    def taylor(y1):
        return [comb(e, j) * pow(1 + y1, e - j, mod) % mod if j <= e else 0
                for j in range(3)]

    def ev(prefix, xs):
        rs = nx(prefix, xs)
        if not all(map(p.__rmod__, rs)):  # some r is 0 or divisible by p
            raise PrecisionExhausted("weight character needs unit norms")
        ys = [(r * twist[r % t] - 1) % mod for r in rs]
        return _disc_values(ys, p, work_prec, table, taylor)

    res = integrate_cells(h, region, [ev], M, work_prec)[0]
    return PadicInt(p, prec, res)


def L_assemble(terms: Sequence[tuple], s, M: int,
               work_prec: int | None = None) -> PadicInt:
    """p-adic L-value: sum over class representatives of
    chi(a c) * zeta_p(a, <.>^s).

    Each term is (chi_value, handle, region) with chi_value a PadicInt (or
    int) embedding the character value at the working precision.
    """
    if not terms:
        raise MissingClassData("no class representatives given")
    p = terms[0][1].p
    if work_prec is None:
        work_prec = M + 6
    total = PadicInt(p, work_prec, 0)
    for chi, h, region in terms:
        if h.p != p:
            raise ResidueFieldMismatch("mixed primes in class data")
        if isinstance(chi, int):
            chi = PadicInt(p, work_prec, chi)
        elif chi.p != p:
            raise ResidueFieldMismatch("character value at the wrong prime")
        total = total + chi * padic_zeta_weight(h, region, s, M, work_prec)
    return total


def agreement_precision(x: PadicInt, y: PadicInt) -> int:
    """Valuation of x - y up to the shared precision: the certified
    precision of a two-level computation."""
    d = x - y
    return d.valuation()
