"""Precision-tracked p-adic arithmetic and the p-adic side of the zeta
machinery: the measure attached to the cocycle, Riemann-sum integration
against it, p-adic zeta values, and order-of-vanishing integrals.

Measure values are exact rationals with denominator dividing m * ell^n, so
Riemann sums run in modular integer arithmetic at a chosen working
precision; every reported precision is a worst-case lower bound, and
claims derived from truncation are certified by two-level agreement rather
than by an a-priori epsilon.

Each concept has one implementation: `MeasureHandle.measure_box` is the
one exact box value, the cocycle at P = 1, and the fast `CellKernel.row`
is tested against it; `_log_series` sums the logarithm of a list of
arguments, one for `iwasawa_log`, a row for the sweeps; `_series_loss` is
the worst-case digit loss of a per-cell log; `_intval` takes every
valuation and `_residue` every rational residue; `integrate_cells` is the
one Riemann loop, `_poly_residue_evaluator` the one polynomial evaluator;
and `_region` builds every region, with `_in_completion` its one
membership test.  That test works in the completion at p, since for a
class representative a != O the points x = w . (v + j) carry denominators
prime to p.

The loop runs row by row: on a row every kernel map is affine in the last
coordinate, so `CellKernel.row` reads the trace table once per step, and
each integrand takes a row's cells in one call.  The values at s = -k are
moments of one measure, so `padic_zetas` and `oov_integrals` take every k
from one sweep (`powers`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, product, repeat
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

from .cocycle import CocycleArgs, first_column_matrix, psi_ell_chain
from .cyclotomic import _is_prime
from .dedekind import LinearFormModL, b1_L_z_fast, sigma_ell
from .exact import (Matrix, MultiPoly, coset_reps, lattice_hnf, mat_det,
                    mat_inv, mat_vec)
from .numberfield import FieldElement, Ideal
from .zeta import MissingClassData, ZetaData


class PrecisionExhausted(ArithmeticError):
    pass


class LevelTooSmall(ValueError):
    pass


class TooManyCells(ValueError):
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
        out = None
        base = self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

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


def _intval(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


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
    x = a % mod
    for _ in range(prec + 1):
        nxt = pow(x, p, mod)
        if nxt == x:
            break
        x = nxt
    return x


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


def _log_series(ys: Sequence[int], p: int, prec: int,
                vy: int = 1) -> tuple[list[int], int]:
    """([log(1 + y) mod p^prec for y in ys], loss) for v_p(y) >= vy >= 1,
    where loss is the largest v_p(k) divided out of a term y^k / k.

    Term k has valuation >= k*vy - v_p(k) and vanishes mod p^prec once
    k*vy >= prec, so the sum runs while k*vy <= prec + loss; that bound does
    not depend on y.  The terms with p not dividing k are one polynomial in
    y, summed by Horner mod p^prec.  A term with p | k is y^k mod p^prec
    divided by p^v_p(k), where the digits are lost, so it is taken as such.
    """
    mod = p ** prec
    inverses = _series_inverses(p, prec)
    coeffs, divided = [], []  # (-1)^(k+1) / k, by whether p | k
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
    totals = [0] * len(ys)
    for c in reversed(coeffs):
        totals = [(s + c) * y % mod for s, y in zip(totals, ys)]
    for k, pv, c in divided:
        terms = [pow(y, k, mod) for y in ys]
        if any(t % pv for t in terms):
            raise PrecisionExhausted("series division by p underflows")
        totals = [s + t // pv * c for s, t in zip(totals, terms)]
    return [s % mod for s in totals], loss


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


def padic_exp(x: PadicInt) -> PadicInt:
    """exp on the convergent disc (val >= 1 for odd p, >= 2 for p = 2)."""
    p, prec = x.p, x.prec
    if x.res == 0:
        return PadicInt(p, prec, 1)
    vx = x.valuation()
    if vx < (2 if p == 2 else 1):
        raise PrecisionExhausted("argument not in the exp-convergent disc")
    mod = p ** (prec + 8)
    total = 1
    term = 1
    k = 1
    # term = x^k / k!, built incrementally, until the valuation bound
    # k*vx - (k-1)/(p-1) clears prec
    while k * vx - (k - 1) // (p - 1) <= prec:
        term = term * x.res
        vk = _intval(k, p)
        tv = _intval(term, p) if term % mod else prec + 8
        if tv < vk:
            raise PrecisionExhausted("exp series underflow")
        term = term // p ** vk * pow(k // p ** vk, -1, mod) % mod
        total = (total + term) % mod
        k += 1
    return PadicInt(p, prec, total)


def unit_power_character(x: PadicInt, s: PadicInt | int) -> PadicInt:
    """<x>^s = exp(s log <x>) for the principal-unit part of x."""
    lg = iwasawa_log(x)
    if isinstance(s, int):
        s = PadicInt(x.p, lg.prec + 8, s)
    return padic_exp(s * lg)


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
        self.z = z
        self.p = p
        self.n = z.field.n
        self.ell = z.ell
        self.Q = z.Qsingle[0]
        self.mu_den = self.ell ** self.n  # m = 1 single form
        self.nac = Fraction(z.a.norm() * z.c.norm())
        self.norm_poly = z.P * (1 / self.nac)  # N(w.(v + X))
        self.terms = []
        for coeff, tup in z.chain.terms:
            sigma = first_column_matrix(tup)
            det = int(mat_det(sigma))
            if det == 0:
                continue
            sl = sigma_ell(sigma, self.ell)
            sign = coeff * (-1) ** self.n * (1 if det > 0 else -1)
            signs = self.Q.sign_matrix(sigma)
            L = LinearFormModL(self.ell, [int(t) for t in sigma[0]])
            self.terms.append({
                "sign": sign, "L": L, "signs": signs,
                "cosets": coset_reps(sl), "adj": _adjugate(sl),
                "det": int(mat_det(sl)),
                "table": _trace_table(L, signs, self.mu_den),
            })

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


def _adjugate(m: Matrix) -> Matrix:
    det = mat_det(m)
    return tuple(tuple(int(e * det) for e in row) for row in mat_inv(m))


def _trace_table(L: LinearFormModL, signs, mu_den: int) -> list[int]:
    """T[t] = mu_den * value of the restricted distribution at shift t for
    nonintegral arguments (empty defect set): at x = (1/2, ..., 1/2) every
    floor is 0, so z = -t gives shift t."""
    half = (Fraction(1, 2),) * len(L.a)
    out = []
    for t in range(L.ell):
        val = b1_L_z_fast(L, -t, half, signs) * mu_den
        if val.denominator != 1:
            raise AssertionError("measure denominator bound violated")
        out.append(int(val))
    return out


class CellKernel:
    """Integer-affine evaluation of all box measures at one level.

    For each chain term and each coset x, the argument of the restricted
    distribution is y(j) = sl^-1 (x + pi_ell (v + j)/p^M), an affine map
    with integer numerators over a fixed positive denominator; a box value
    needs only the floors of y(j) and a trace-table lookup.
    """

    def __init__(self, h: MeasureHandle, M: int):
        self.h = h
        self.M = M
        pM = h.p ** M
        dv = lcm(*(Fraction(vi).denominator for vi in h.z.v))
        vd = [int(Fraction(vi) * dv) for vi in h.z.v]
        scale = [h.ell] + [1] * (h.n - 1)  # pi_ell
        self.maps = []
        for t in h.terms:
            den = t["det"] * pM * dv
            sg = 1 if den > 0 else -1  # keep the denominator positive
            mat = [[sg * a * sk * dv for a, sk in zip(arow, scale)]
                   for arow in t["adj"]]
            for x in t["cosets"]:
                base = [sg * sum(a * (pM * dv * xk + sk * vk) for a, xk, sk, vk
                                 in zip(arow, x, scale, vd))
                        for arow in t["adj"]]
                self.maps.append({
                    "base": base, "mat": mat, "den": abs(den),
                    "a": t["L"].a, "z": (-x[0]) % h.ell, "t0": x[0] % h.ell,
                    "sign": t["sign"], "table": t["table"], "L": t["L"],
                    "signs": t["signs"],
                })

    def row(self, prefix: Sequence[int],
            keep: Sequence[bool] | None = None) -> list[int]:
        """[mu_den * measure of box (v + prefix + (x,) + p^M X), for x in
        range(p^M)].

        Each y_i = c_i + s_i x, so a map's table value changes only where
        some floor(y_i / den) steps; those steps go into a difference
        array.  Cells with some y_i = 0 mod den take the sign-defect value,
        except where `keep[x]` is false: those cells are left unspecified.
        """
        ell = self.h.ell
        pl = self.h.p ** self.M
        diff = [0] * pl
        fixes = []
        for mp in self.maps:
            den, sign, table = mp["den"], mp["sign"], mp["table"]
            t = mp["t0"]
            cs = [b + sum(m * jk for m, jk in zip(mrow, prefix))
                  for b, mrow in zip(mp["base"], mp["mat"])]
            ss = [mrow[-1] for mrow in mp["mat"]]
            steps, defects = [], set()
            for ai, c, s in zip(mp["a"], cs, ss):
                t -= ai * (c // den)
                # with c2 = -c - 1 for s < 0, floor(y / den) is -1 minus
                # floor((c2 + |s| x) / den)
                dt, c2, s2 = (-ai, c, s) if s >= 0 else (ai, -c - 1, -s)
                steps += _floor_steps(c2, s2, den, pl, dt)
                g = gcd(s, den)  # s x = -c mod den
                if c % g == 0:
                    step = den // g
                    x0 = -c // g * pow(s // g, -1, step) % step
                    defects.update(range(x0, pl, step))
            val = sign * table[t % ell]
            diff[0] += val
            for x, dt in sorted(steps):
                t += dt
                new = sign * table[t % ell]
                diff[x] += new - val
                val = new
            fixes += [(x, mp, cs, ss) for x in defects
                      if keep is None or keep[x]]
        out = list(accumulate(diff))
        for x, mp, cs, ss in fixes:
            ys = [c + s * x for c, s in zip(cs, ss)]
            t = mp["t0"] - sum(ai * (y // mp["den"])
                               for ai, y in zip(mp["a"], ys))
            out[x] += self.defect_numerator(mp, ys) \
                - mp["sign"] * mp["table"][t % ell]
        return out

    def defect_numerator(self, mp: dict, ys: Sequence[int]) -> int:
        """Signed mu_den * box value of map mp at the argument ys / den
        when a coordinate is integral: the sign-defect path, exact
        fractions."""
        den = mp["den"]
        val = b1_L_z_fast(mp["L"], mp["z"], [Fraction(y, den) for y in ys],
                          mp["signs"]) * self.h.mu_den
        assert val.denominator == 1
        return mp["sign"] * int(val)


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


def _in_completion(lattice: Ideal, x: FieldElement, p: int) -> bool:
    """x in lattice O_p, for a lattice between p^t O and O.

    The prime-to-p part d of the denominators of x is a unit at p, and d x
    lies in O[1/p].  There the global test is the local one: O / lattice is
    a p-group, and an element of O[1/p] outside O is outside O_p."""
    d = lcm(*(c.denominator for c in x.coords))
    while d % p == 0:
        d //= p
    return lattice.contains(x * d)


def _region(h: MeasureHandle, tag: str, f: Ideal, *,
            inside: Sequence[Ideal] = (), avoid: Sequence[Ideal] = (),
            unit_norm: bool = False, max_cells: int | None = None) -> Region:
    """The cells j whose x = w . (v + j) lies in every ideal of `inside`
    and in none of `avoid`, is congruent to 1 modulo f and, with
    `unit_norm`, has a p-unit norm.  Each ideal is replaced by its
    stabilised lattice and tested in the completion at p; the region's
    level is the deepest stabilisation level.  A level with more than
    `max_cells` cells raises TooManyCells before any cell is tested."""
    p = h.p
    field = h.z.field
    n = field.n
    stable = [_stabilized_lattice(I, p) for I in [f, *inside, *avoid]]
    t = max(1, *(tI for tI, _ in stable))
    if max_cells is not None and (p ** t) ** n > max_cells:
        raise TooManyCells(f"the region's level {t} has {(p ** t) ** n} "
                           f"cells, above the limit of {max_cells}")
    flat, *lats = [lat for _, lat in stable]
    inside_lats, avoid_lats = lats[:len(inside)], lats[len(inside):]
    one = field.one()
    wmat = tuple(tuple(h.z.w[j].coords[i] for j in range(n)) for i in range(n))

    def member(j):
        vj = [Fraction(vi) + ji for vi, ji in zip(h.z.v, j)]
        if unit_norm:
            nx = h.norm_poly.evaluate(vj)
            if nx == 0 or frac_valuation(nx, p) != 0:
                return False
        x = field.element(mat_vec(wmat, vj))
        if not all(_in_completion(q, x, p) for q in inside_lats) \
                or any(_in_completion(q, x, p) for q in avoid_lats):
            return False
        return _in_completion(flat, x - one, p)

    mask = frozenset(j for j in product(range(p ** t), repeat=n) if member(j))
    return Region(p, t, mask, tag)


def region_units(h: MeasureHandle, f: Ideal, *,
                 max_cells: int | None = None) -> Region:
    """O*_{p,f}: units congruent to 1 modulo the p-part of f."""
    return _region(h, "units", f, unit_norm=True, max_cells=max_cells)


def region_b_units(h: MeasureHandle, f: Ideal, b: Ideal,
                   b_primes: Sequence[Ideal]) -> Region:
    """O*_{p,b,f}: valuation exactly that of b at the primes dividing b,
    units congruent to 1 mod f elsewhere."""
    return _region(h, "b-units", f, inside=[b], avoid=[b * q for q in b_primes])


def region_oov(h: MeasureHandle, f: Ideal,
               pi_data: Sequence[tuple], other_primes: Sequence[Ideal] = (),
               *, max_cells: int | None = None) -> Region:
    """The order-of-vanishing region: valuation < e_i at each supplied
    prime (pi_i generates p_i^{e_i}), unit and congruent to 1 mod f at the
    remaining primes above p."""
    field = h.z.field
    avoid = [Ideal.from_generators(field, [pi]) for pi, _ in pi_data]
    return _region(h, "oov", f, avoid=avoid + list(other_primes),
                   max_cells=max_cells)


def region_box(h: MeasureHandle, a: Sequence[int], r: int) -> Region:
    pt = h.p ** r
    mask = frozenset({tuple(ai % pt for ai in a)})
    return Region(h.p, r, mask, "box")


# --- Riemann sums ----------------------------------------------------------------

def integrate_cells(h: MeasureHandle, region: Region | None,
                    integrands: Sequence[Callable[..., int]],
                    M: int, work_prec: int,
                    powers: Sequence[int] = (1,)) -> list[int]:
    """One pass over the level-M cells: for each integrand g, then each k
    in `powers`, the residue mod p^work of the sum over region cells of
    g(j)^k * measure(box_j).

    g is called once per row as g(prefix, xs): prefix holds the first n - 1
    cell coordinates, xs the last coordinates of the row's live cells
    (region cells of nonzero measure) in increasing order, and g returns
    its values at those cells as a list.  Rows without a live cell get no
    call, and g is never called when every power is 0.
    """
    level = max(M, region.t if region is not None else 0)
    kernel = h.cell_numerators(level)
    p = h.p
    mod = p ** work_prec
    pl = p ** level
    powers = list(powers)
    call = any(powers)
    acc = [0] * (len(integrands) * len(powers))
    if region is not None and region.t > 0:
        pt = p ** region.t
        mask = region.mask
    else:
        pt, mask = 1, None
    rows_in: dict[tuple, list[bool]] = {}  # prefix mod p^t -> membership
    for prefix in product(range(pl), repeat=h.n - 1):
        keep = None
        if mask is not None:
            key = tuple(ji % pt for ji in prefix)
            if key not in rows_in:
                rows_in[key] = [key + (x % pt,) in mask for x in range(pl)]
            keep = rows_in[key]
            if not any(keep):
                continue
        row = kernel.row(prefix, keep)
        cells = range(pl) if keep is None else compress(range(pl), keep)
        xs = [x for x in cells if row[x]]
        if not xs:
            continue
        nums = [row[x] for x in xs]
        for gi, g in enumerate(integrands):
            vals = g(prefix, xs) if call else []
            sums = _moment_sums(nums, vals, powers, mod)
            for i, s in enumerate(sums, gi * len(powers)):
                acc[i] += s
    inv_den = pow(h.mu_den % mod, -1, mod)
    return [a * inv_den % mod for a in acc]


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
    coordinate, once per row.  Its values at x = 0..d give its forward
    differences at 0, and d running sums of those give q along the row.
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
        qs = [sum(c * (vlast + x) ** e for e, c in enumerate(coeffs))
              for x in range(deg + 1)]
        diffs = []  # diffs[i] = i-th forward difference of q at x = 0
        while qs:
            diffs.append(qs[0] % mod)
            qs = [b - a for a, b in zip(qs, qs[1:])]
        row = repeat(diffs.pop(), xs[-1] + 1)
        while diffs:
            row = accumulate(row, initial=diffs.pop())
        row = list(row)
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
    ev = _poly_residue_evaluator(h, P, work_prec)
    res = integrate_cells(h, None, [ev], M, work_prec)[0]
    return PadicInt(h.p, work_prec, res)


def _unit_parts(rs: list[int], p: int,
                message: str) -> tuple[list[int], int]:
    """([u], v) with each r = p^v(r) * u, u prime to p, and v the largest
    v(r); PrecisionExhausted(message) when some residue r is 0."""
    if all(map(p.__rmod__, rs)):
        return rs, 0
    if 0 in rs:
        raise PrecisionExhausted(message)
    vs = [_intval(r, p) for r in rs]
    return [r // p ** v for r, v in zip(rs, vs)], max(vs)


def padic_zetas(h: MeasureHandle, region: Region, ks: Sequence[int], M: int,
                work_prec: int | None = None) -> list[PadicInt]:
    """Values interpolating the prime-to-p smoothed zeta at s = -k for each
    k, sharing one pass: N(ac)^k * integral over the region of
    (unit part of Nx)^k d mu, the k-th moment of one measure."""
    if work_prec is None:
        work_prec = M + 8
    p = h.p
    guard = 2 * work_prec  # strata shift valuations; generous
    mod = p ** guard
    nx = _poly_residue_evaluator(h, h.norm_poly, guard)

    def unit(prefix, xs):
        return _unit_parts(nx(prefix, xs), p,
                           "norm residue vanished at working precision")[0]

    # ks all 0 still takes the unit part at every cell (the extra moment),
    # so a vanishing norm residue raises whatever moments are asked for
    check = [1] if ks and not any(ks) else []
    res = integrate_cells(h, region, [unit], M, guard, powers=[*ks, *check])
    return [PadicInt(p, work_prec, r * _residue(h.nac ** k, mod))
            for k, r in zip(ks, res)]


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
    p^(work - _series_loss)."""
    mod = p ** work_prec
    ys = [(r * teich_inv[r % len(teich_inv)] - 1) % mod for r in rs]
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
    nx = _poly_residue_evaluator(h, h.norm_poly, work_prec)
    teich_inv = _log_tables(p, work_prec)
    stratum = 0

    def row_log(prefix, xs):
        nonlocal stratum
        us, v = _unit_parts(
            nx(prefix, xs), p,
            "norm vanished at working precision; raise work_prec")
        stratum = max(stratum, v)
        return _log_unit_residues(us, p, work_prec, teich_inv)

    res = integrate_cells(h, region, [row_log], M, work_prec, powers=ks)
    loss = _series_loss(p, work_prec)
    return [PadicInt(p, work_prec - k * loss - stratum, r)
            for k, r in zip(ks, res)]


def oov_integral(h: MeasureHandle, region: Region, k: int, M: int,
                 work_prec: int | None = None) -> PadicInt:
    return oov_integrals(h, region, [k], M, work_prec)[0]


def padic_zeta_weight(h: MeasureHandle, region: Region, s, M: int,
                      work_prec: int | None = None) -> PadicInt:
    """Zeta value at the weight-space character <.>^(-s):
    <N(ac)>^(-s)-twisted integral of <Nx>^(-s) over the region."""
    if work_prec is None:
        work_prec = M + 6
    p = h.p
    mod = p ** work_prec
    s_res = (s if isinstance(s, int) else s.res) % mod
    nx = _poly_residue_evaluator(h, h.norm_poly, work_prec)
    teich_inv = _log_tables(p, work_prec)

    def chars(rs: list[int]) -> list[int]:
        # <r>^(-s) = exp(-s log <r>)
        return [padic_exp(PadicInt(p, work_prec, -s_res * lg % mod)).res % mod
                for lg in _log_unit_residues(rs, p, work_prec, teich_inv)]

    def ev(prefix, xs):
        rs = nx(prefix, xs)
        if not all(map(p.__rmod__, rs)):  # some r is 0 or divisible by p
            raise PrecisionExhausted("weight character needs unit norms")
        return chars(rs)

    res = integrate_cells(h, region, [ev], M, work_prec)[0]
    nac_res = _residue(h.nac, mod)
    if nac_res % p == 0:
        raise PrecisionExhausted("N(ac) is not a p-unit")
    (scale,) = chars([nac_res])
    loss = _series_loss(p, work_prec)
    return PadicInt(p, work_prec - loss - 1, res * scale)


class ResidueFieldMismatch(ValueError):
    pass


def L_assemble(terms: Sequence[tuple], s, M: int,
               work_prec: int | None = None) -> PadicInt:
    """p-adic L-value: sum over class representatives of
    chi(a c) * zeta_p(a, <.>^s).

    Each term is (chi_value, handle, region) with chi_value a PadicInt (or
    int) embedding the character value at the working precision.
    """
    if not terms:
        raise MissingClassData("no class representatives supplied")
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
