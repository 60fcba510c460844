"""Precision-tracked p-adic arithmetic and the p-adic side of the zeta
machinery: the measure attached to the cocycle, Riemann-sum integration
against it, p-adic zeta values, and order-of-vanishing integrals.

Measure values are exact rationals with denominator dividing m * ell^n, so
Riemann sums run in modular integer arithmetic at a chosen working
precision; every reported precision is a worst-case lower bound, and
claims derived from truncation are certified by two-level agreement rather
than by an a-priori epsilon.

Each concept has one implementation: `_log_series` sums the logarithm for
both `iwasawa_log` and the per-cell `_log_unit_residue`; `_series_loss` is
the worst-case digit loss of a per-cell log; `_intval` takes every
valuation; `CellKernel.defect_numerator` is the sign-defect fallback of
every Riemann loop; `_cell_memo` holds the per-cell value that several
integrands of one sweep share; and `_region` builds every region, with
`_in_completion` its one membership test.  That test works in the
completion at p, since for a class representative a != O the points
x = w . (v + j) carry denominators prime to p.

The values at s = -k for k = 0..K are moments of one measure over one
region, so `padic_zetas` takes them all from one `integrate_cells` sweep,
with one integrand per k sharing the cell's unit-part norm residue, as
`oov_integrals` shares the cell's log across its powers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Callable, Sequence

from .cocycle import CocycleArgs, first_column_matrix, psi_ell_chain
from .cyclotomic import _is_prime
from .dedekind import LinearFormModL, b1_L_z_fast
from .exact import Matrix, MultiPoly, lattice_hnf, mat_det, mat_inv, mat_vec
from .numberfield import FieldElement, Ideal
from .zeta import MissingClassData, ZetaData


class PrecisionExhausted(ArithmeticError):
    pass


class LevelTooSmall(ValueError):
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
        den = q.denominator
        if den % p == 0:
            raise ValueError("not a p-adic integer")
        mod = p ** prec
        return cls(p, prec, q.numerator * pow(den, -1, mod) % mod)

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
    total, loss = _log_series(y, p, prec, vy)
    return PadicInt(p, prec - loss, total)


def _log_series(y: int, p: int, prec: int, vy: int = 1) -> tuple[int, int]:
    """(log(1 + y) mod p^prec, loss) for v_p(y) >= vy >= 1, where loss is
    the largest v_p(k) divided out of a term y^k / k.

    Term k has valuation >= k*vy - v_p(k) and vanishes mod p^prec once
    k*vy >= prec, so the sum runs while k*vy <= prec + loss.
    """
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

    def __init__(self, z: ZetaData, p: int, *, form_index: int = 0):
        if not _is_prime(p):
            raise ValueError("p must be prime")
        if p == z.ell:
            raise ValueError("p must differ from the smoothing prime")
        self.z = z
        self.p = p
        self.n = z.field.n
        self.ell = z.ell
        self.Q = z.Qsingle[form_index]
        self.mu_den = self.ell ** self.n  # m = 1 single form
        self.nac = Fraction(z.a.norm() * z.c.norm())
        self.norm_poly = z.P * (1 / self.nac)  # N(w.(v + X))
        self.terms = []
        for coeff, tup in z.chain.terms:
            sigma = first_column_matrix(tup)
            det = int(mat_det(sigma))
            if det == 0:
                continue
            from .dedekind import sigma_ell
            sl = sigma_ell(sigma, self.ell)
            sign = coeff * (-1) ** self.n * (1 if det > 0 else -1)
            signs = self.Q.sign_matrix(sigma)
            L = LinearFormModL(self.ell, [int(t) for t in sigma[0]])
            from .exact import coset_reps
            cosets = coset_reps(sl)
            adj = _adjugate(sl)
            dsl = int(mat_det(sl))
            self.terms.append({
                "sign": sign, "sigma": sigma, "sl": sl, "L": L,
                "signs": signs, "cosets": cosets, "adj": adj, "det": dsl,
                "table": _trace_table(L, signs, self.mu_den),
            })

    # -- exact single boxes --------------------------------------------------

    def measure_box(self, a: Sequence[int], r: int) -> Fraction:
        """Exact measure of the box (v + a + p^r X), via the level-set
        decomposition with the cyclotomic fast path."""
        w = tuple((Fraction(vi) + ai) / self.p ** r
                  for vi, ai in zip(self.z.v, a))
        total = Fraction(0)
        for t in self.terms:
            inv = mat_inv(t["sl"])
            pw = (w[0] * self.ell,) + tuple(w[1:])
            sub = Fraction(0)
            for x in t["cosets"]:
                y = mat_vec(inv, [xi + wi for xi, wi in zip(x, pw)])
                sub += b1_L_z_fast(t["L"], (-x[0]) % self.ell, y, t["signs"])
            total += t["sign"] * sub
        return total

    def measure_box_oracle(self, a: Sequence[int], r: int) -> Fraction:
        """Same box through the generic cocycle evaluator (slow path)."""
        w = tuple((Fraction(vi) + ai) / self.p ** r
                  for vi, ai in zip(self.z.v, a))
        args = CocycleArgs(MultiPoly.constant(self.n, 1), self.Q, w)
        return psi_ell_chain(self.z.chain, args, self.ell)

    def total_mass(self) -> Fraction:
        return self.measure_box((0,) * self.n, 0)

    # -- bulk cells ------------------------------------------------------------

    def cell_numerators(self, M: int) -> "CellKernel":
        return CellKernel(self, M)


def _adjugate(m: Matrix) -> Matrix:
    n = len(m)
    det = mat_det(m)
    inv = mat_inv(m)
    adj = tuple(tuple(int(inv[i][j] * det) for j in range(n)) for i in range(n))
    return adj


def _trace_table(L: LinearFormModL, signs, mu_den: int) -> list[int]:
    """T[t] = mu_den * value of the restricted distribution at shift t for
    nonintegral arguments (empty defect set)."""
    from .dedekind import _beta_for, _trace_shift_int
    ell = L.ell
    beta = _beta_for(ell, L.a, (), None)
    scale = ell ** len(L.a)
    out = []
    for t in range(ell):
        val = Fraction(-_trace_shift_int(beta, t, ell) * mu_den, scale)
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
        n = h.n
        pM = h.p ** M
        dv = lcm(*(Fraction(vi).denominator for vi in h.z.v))
        self.maps = []
        for t in h.terms:
            den = t["det"] * pM * dv
            adj = t["adj"]
            for x in t["cosets"]:
                base = []
                mat = []
                for i in range(n):
                    b = 0
                    row = []
                    for k in range(n):
                        scale = h.ell if k == 0 else 1
                        vk = Fraction(h.z.v[k])
                        b += adj[i][k] * (pM * dv * x[k]
                                          + scale * int(vk * dv))
                        row.append(adj[i][k] * scale * dv)
                    base.append(b)
                    mat.append(row)
                if den < 0:
                    den_pos = -den
                    base = [-b for b in base]
                    mat = [[-c for c in row] for row in mat]
                else:
                    den_pos = den
                self.maps.append({
                    "base": base, "mat": mat, "den": den_pos,
                    "a": t["L"].a, "z": (-x[0]) % h.ell, "t0": x[0] % h.ell,
                    "sign": t["sign"], "table": t["table"], "L": t["L"],
                    "signs": t["signs"],
                })

    def numerator(self, j: Sequence[int]) -> int:
        """mu_den * measure of box (v + j + p^M X)."""
        ell = self.h.ell
        total = 0
        for mp in self.maps:
            den = mp["den"]
            ys = [b + sum(c * jk for c, jk in zip(row, j))
                  for b, row in zip(mp["base"], mp["mat"])]
            t = mp["t0"]  # accumulates x_1 - sum a_i floor(y_i)
            for ai, y in zip(mp["a"], ys):
                q, r = divmod(y, den)
                if r == 0:
                    total += self.defect_numerator(mp, ys)
                    break
                t -= ai * q
            else:
                total += mp["sign"] * mp["table"][t % ell]
        return total

    def defect_numerator(self, mp: dict, ys: Sequence[int]) -> int:
        """Signed mu_den * box value of map mp at the argument ys / den
        when a coordinate is integral: the sign-defect path, exact
        fractions."""
        den = mp["den"]
        val = b1_L_z_fast(mp["L"], mp["z"], [Fraction(y, den) for y in ys],
                          mp["signs"]) * self.h.mu_den
        assert val.denominator == 1
        return mp["sign"] * int(val)


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


def _stabilized_lattice(I: Ideal, p: int, tmin: int = 1):
    """Smallest t with I + p^t O = I + p^(t+1) O, and that ideal; from
    level t on, membership mod p^t decides membership in I O_p."""
    t = tmin
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
            unit_norm: bool = False) -> Region:
    """The cells j whose x = w . (v + j) lies in every ideal of `inside`
    and in none of `avoid`, is congruent to 1 modulo f and, with
    `unit_norm`, has a p-unit norm.  Each ideal is replaced by its
    stabilised lattice and tested in the completion at p; the region's
    level is the deepest stabilisation level."""
    p = h.p
    field = h.z.field
    n = field.n
    stable = [_stabilized_lattice(I, p) for I in [f, *inside, *avoid]]
    t = max(1, *(tI for tI, _ in stable))
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


def region_units(h: MeasureHandle, f: Ideal) -> Region:
    """O*_{p,f}: units congruent to 1 modulo the p-part of f."""
    return _region(h, "units", f, unit_norm=True)


def region_b_units(h: MeasureHandle, f: Ideal, b: Ideal,
                   b_primes: Sequence[Ideal]) -> Region:
    """O*_{p,b,f}: valuation exactly that of b at the primes dividing b,
    units congruent to 1 mod f elsewhere."""
    return _region(h, "b-units", f, inside=[b], avoid=[b * q for q in b_primes])


def region_oov(h: MeasureHandle, f: Ideal,
               pi_data: Sequence[tuple], other_primes: Sequence[Ideal] = ()) -> Region:
    """The order-of-vanishing region: valuation < e_i at each supplied
    prime (pi_i generates p_i^{e_i}), unit and congruent to 1 mod f at the
    remaining primes above p."""
    field = h.z.field
    avoid = [Ideal.from_generators(field, [pi]) for pi, _ in pi_data]
    return _region(h, "oov", f, avoid=avoid + list(other_primes))


def region_box(h: MeasureHandle, a: Sequence[int], r: int) -> Region:
    pt = h.p ** r
    mask = frozenset({tuple(ai % pt for ai in a)})
    return Region(h.p, r, mask, "box")


# --- Riemann sums ----------------------------------------------------------------

def integrate_cells(h: MeasureHandle, region: Region | None,
                    integrands: Sequence[Callable[..., int]],
                    M: int, work_prec: int) -> list[int]:
    """One pass over the level-M cells: accumulated residues mod p^work of
    sum over region cells of integrand(j) * measure(box_j), with the fixed
    measure denominator divided out at the end.

    Integrands are called with the cell index coordinates as separate
    arguments.  A fused two-variable loop handles the common n = 2 case.
    """
    level = max(M, region.t if region is not None else 0)
    kernel = h.cell_numerators(level)
    p = h.p
    mod = p ** work_prec
    n = h.n
    pl = p ** level
    if n == 2:
        acc = _integrate_fused_n2(h, kernel, region, integrands, pl, mod)
    else:
        acc = _integrate_generic(h, kernel, region, integrands, pl, mod, n)
    inv_den = pow(h.mu_den % mod, -1, mod)
    return [a * inv_den % mod for a in acc]


def _integrate_generic(h, kernel, region, integrands, pl, mod, n):
    acc = [0] * len(integrands)
    if region is not None and region.t > 0:
        pt = h.p ** region.t
        mask = region.mask
    else:
        pt, mask = 1, None
    for j in product(range(pl), repeat=n):
        if mask is not None and tuple(ji % pt for ji in j) not in mask:
            continue
        num = kernel.numerator(j)
        if num == 0:
            continue
        for i, f in enumerate(integrands):
            acc[i] = (acc[i] + f(*j) * num) % mod
    return acc


def _integrate_fused_n2(h, kernel, region, integrands, pl, mod):
    ell = h.ell
    acc = [0] * len(integrands)
    if region is not None and region.t > 0:
        pt = h.p ** region.t
        memb = [[(a, b) in region.mask for b in range(pt)] for a in range(pt)]
    else:
        pt, memb = 1, None
    maps = kernel.maps
    defect = kernel.defect_numerator
    nfn = len(integrands)
    for j0 in range(pl):
        mrow = memb[j0 % pt] if memb is not None else None
        if len(maps) == 1:
            mp = maps[0]
            (m00, m01), (m10, m11) = mp["mat"]
            den, (a0, a1), t0 = mp["den"], mp["a"], mp["t0"]
            sgn, table = mp["sign"], mp["table"]
            p0 = mp["base"][0] + m00 * j0
            p1 = mp["base"][1] + m10 * j0
            for j1 in range(pl):
                if mrow is not None and not mrow[j1 % pt]:
                    continue
                y0 = p0 + m01 * j1
                q0, r0 = divmod(y0, den)
                y1 = p1 + m11 * j1
                q1, r1 = divmod(y1, den)
                if r0 and r1:
                    num = sgn * table[(t0 - a0 * q0 - a1 * q1) % ell]
                else:
                    num = defect(mp, (y0, y1))
                if num == 0:
                    continue
                if nfn == 1:
                    acc[0] = (acc[0] + integrands[0](j0, j1) * num) % mod
                else:
                    for i in range(nfn):
                        acc[i] = (acc[i] + integrands[i](j0, j1) * num) % mod
        else:
            # per map: y at (j0, 0), then the data the j1 loop needs
            parts = [(mp["base"][0] + mp["mat"][0][0] * j0,
                      mp["base"][1] + mp["mat"][1][0] * j0,
                      mp["mat"][0][1], mp["mat"][1][1], mp["den"],
                      mp["a"][0], mp["a"][1], mp["t0"], mp["sign"],
                      mp["table"], mp) for mp in maps]
            for j1 in range(pl):
                if mrow is not None and not mrow[j1 % pt]:
                    continue
                num = 0
                for (p0, p1, m01, m11, den, a0, a1, t0, sgn, table,
                     mp) in parts:
                    y0 = p0 + m01 * j1
                    q0, r0 = divmod(y0, den)
                    y1 = p1 + m11 * j1
                    q1, r1 = divmod(y1, den)
                    if r0 and r1:
                        num += sgn * table[(t0 - a0 * q0 - a1 * q1) % ell]
                    else:
                        num += defect(mp, (y0, y1))
                if num == 0:
                    continue
                for i in range(nfn):
                    acc[i] = (acc[i] + integrands[i](j0, j1) * num) % mod
    return acc


def _poly_residue_evaluator(h: MeasureHandle, P: MultiPoly, work_prec: int,
                            level: int):
    """(j0, ..., j_{n-1}) -> residue of P(v + j) mod p^work; for n = 2 the
    evaluation is table-driven per axis."""
    p = h.p
    mod = p ** work_prec
    vres = []
    for vi in h.z.v:
        vi = Fraction(vi)
        vres.append(vi.numerator * pow(vi.denominator, -1, mod) % mod)
    terms = []
    for mono, c in P.coeffs.items():
        c = Fraction(c)
        terms.append((c.numerator * pow(c.denominator, -1, mod) % mod, mono))
    if h.n != 2:
        def ev(*j):
            total = 0
            for cres, mono in terms:
                t = cres
                for vi, ji, e in zip(vres, j, mono):
                    if e:
                        t = t * pow(vi + ji, e, mod) % mod
                total = (total + t) % mod
            return total
        return ev

    pl = p ** level
    deg0 = max((mono[0] for _, mono in terms), default=0)
    x0 = [(vres[0] + j0) % mod for j0 in range(pl)]
    x1 = [(vres[1] + j1) % mod for j1 in range(pl)]
    pow0 = [[1] * pl]
    for _ in range(deg0):
        prev = pow0[-1]
        pow0.append([prev[j] * x0[j] % mod for j in range(pl)])
    by_e0: dict[int, list[tuple[int, int]]] = {}
    for cres, mono in terms:
        by_e0.setdefault(mono[0], []).append((mono[1], cres))
    gtab = {}
    for e0, row in by_e0.items():
        deg1 = max(e1 for e1, _ in row)
        g = [0] * pl
        for j1 in range(pl):
            xpow = 1
            acc = 0
            want = dict(row)
            for e1 in range(deg1 + 1):
                c = want.get(e1)
                if c is not None:
                    acc += c * xpow
                xpow = xpow * x1[j1] % mod
            g[j1] = acc % mod
        gtab[e0] = g
    pairs = [(pow0[e0], g) for e0, g in gtab.items()]

    def ev2(j0, j1):
        total = 0
        for p0, g in pairs:
            total += p0[j0] * g[j1]
        return total % mod

    return ev2


def integrate_poly(h: MeasureHandle, P: MultiPoly, M: int,
                   work_prec: int | None = None) -> PadicInt:
    """Level-M Riemann sum of P against the measure, as a p-adic residue.

    The sum converges p-adically to the exact cocycle value at P; the
    achieved rate is measured by the caller (two-level agreement or direct
    comparison with the exact value), not assumed.
    """
    if work_prec is None:
        work_prec = M + 8
    ev = _poly_residue_evaluator(h, P, work_prec, M)
    res = integrate_cells(h, None, [ev], M, work_prec)[0]
    return PadicInt(h.p, work_prec, res)


def _cell_memo(fn: Callable[[tuple], int]) -> Callable[[tuple], int]:
    """j -> fn(j), evaluated once per cell: the integrands of one sweep are
    called in turn on the same cell index, so the last value is kept."""
    last_j, last = None, None

    def at(j):
        nonlocal last_j, last
        if j != last_j:
            last, last_j = fn(j), j
        return last

    return at


def _unit_part(r: int, p: int, message: str) -> tuple[int, int]:
    """(u, v) with r = p^v * u and u prime to p; PrecisionExhausted(message)
    when the residue r is 0."""
    if r == 0:
        raise PrecisionExhausted(message)
    if r % p:
        return r, 0
    v = _intval(r, p)
    return r // p ** v, v


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
    level = max(M, region.t)
    nx = _poly_residue_evaluator(h, h.norm_poly, guard, level)
    unit = _cell_memo(lambda j: _unit_part(
        nx(*j), p, "norm residue vanished at working precision")[0])

    def make_ev(k):
        return lambda *j: pow(unit(j), k, mod)

    res = integrate_cells(h, region, [make_ev(k) for k in ks], M, guard)
    nac = h.nac
    out = []
    for k, r in zip(ks, res):
        scale = pow(nac.numerator, k, mod) \
            * pow(pow(nac.denominator, k, mod), -1, mod) % mod
        out.append(PadicInt(p, work_prec, r * scale))
    return out


def padic_zeta(h: MeasureHandle, region: Region, k: int, M: int,
               work_prec: int | None = None) -> PadicInt:
    """The value at one k; see `padic_zetas`."""
    return padic_zetas(h, region, [k], M, work_prec)[0]


def _log_tables(p: int, work_prec: int):
    """Inverse Teichmuller lifts indexed by the residue that determines the
    torsion part: mod p for odd p, mod 4 for p = 2."""
    mod = p ** work_prec
    if p == 2:
        return [0, 1, 0, mod - 1]  # omega(1 mod 4) = 1, omega(3 mod 4) = -1
    teich_inv = [0] * p
    for a in range(1, p):
        teich_inv[a] = pow(teichmuller(a, p, work_prec), -1, mod)
    return teich_inv


def _log_unit_residue(r: int, p: int, work_prec: int, teich_inv) -> int:
    """Iwasawa log of the unit residue r, mod p^(work - _series_loss)."""
    mod = p ** work_prec
    y = (r * teich_inv[r % (4 if p == 2 else p)] - 1) % mod
    return _log_series(y, p, work_prec)[0]


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
    mod = p ** work_prec
    level = max(M, region.t)
    nx = _poly_residue_evaluator(h, h.norm_poly, work_prec, level)
    teich_inv = _log_tables(p, work_prec)
    stratum = 0

    def cell_log(j):
        nonlocal stratum
        r, v = _unit_part(nx(*j), p,
                          "norm vanished at working precision; raise work_prec")
        stratum = max(stratum, v)
        return _log_unit_residue(r, p, work_prec, teich_inv)

    logcell = _cell_memo(cell_log)

    def make_ev(k):
        if k == 0:
            return lambda *j: 1
        if k == 1:
            return lambda *j: logcell(j)
        return lambda *j: pow(logcell(j), k, mod)

    res = integrate_cells(h, region, [make_ev(k) for k in ks], M, work_prec)
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
    if isinstance(s, int):
        s_res = s % mod
    else:
        s_res = s.res % mod
    level = max(M, region.t)
    nx = _poly_residue_evaluator(h, h.norm_poly, work_prec, level)
    teich_inv = _log_tables(p, work_prec)

    def char(r: int) -> int:
        # <r>^(-s) = exp(-s log <r>)
        lg = _log_unit_residue(r, p, work_prec, teich_inv)
        z = (-s_res * lg) % mod
        x = PadicInt(p, work_prec, z)
        return padic_exp(x).res % mod

    def ev(*j):
        r = nx(*j)
        if r == 0 or r % p == 0:
            raise PrecisionExhausted("weight character needs unit norms")
        return char(r)

    res = integrate_cells(h, region, [ev], M, work_prec)[0]
    nac_res = h.nac.numerator * pow(h.nac.denominator, -1, mod) % mod
    if nac_res % p == 0:
        raise PrecisionExhausted("N(ac) is not a p-unit")
    scale = char(nac_res)
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
