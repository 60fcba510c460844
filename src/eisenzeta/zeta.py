"""Smoothed partial zeta values of totally real fields at nonpositive
integers, evaluated through the smoothed cocycle.

The construction follows the adapted-basis route: a basis w of a^-1 f whose
first element divided by ell completes a basis of a^-1 c^-1 f, the norm
polynomial scaled by N(a c), the dual-basis forms at the real embeddings,
and the symmetrized unit chain carrying an orientation sign.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cocycle import (CocycleArgs, GammaEllMatrix, first_column_matrix,
                      psi_ell_chain, symmetrized_chain)
from .dedekind import DedekindCache
from .exact import (Matrix, MultiPoly, identity, mat_det, mat_inv, mat_mul,
                    mat_vec, resultant_norm)
from .numberfield import (FieldElement, Ideal, NumberField, _check_adapted,
                          adapted_basis, dual_basis, embedding_matrix_det_sign,
                          regulator_det_sign, unit_basis)


class ChainDegenerate(ValueError):
    pass


class CrossCheckFailure(ArithmeticError):
    pass


class EmbeddedForms:
    """Tuple of linear forms tau_i(c_1) X_1 + ... + tau_i(c_n) X_n with
    exact field-element coefficients and a certified sign oracle.  Sign
    matrices are memoized per sigma: each one costs certified root
    refinements, and a chain asks for the same few many times."""

    __slots__ = ("field", "rows", "_signs")

    def __init__(self, field: NumberField,
                 rows: Sequence[tuple[int, Sequence[FieldElement]]]):
        self.field = field
        self.rows = tuple((i, tuple(cs)) for i, cs in rows)
        self._signs: dict = {}

    @property
    def m(self) -> int:
        return len(self.rows)

    def transform(self, m: Matrix) -> "EmbeddedForms":
        n = self.field.n
        out = []
        for i, cs in self.rows:
            new = []
            for j in range(n):
                acc = self.field.zero()
                for k in range(n):
                    if m[j][k]:
                        acc = acc + Fraction(m[j][k]) * cs[k]
                new.append(acc)
            out.append((i, new))
        return EmbeddedForms(self.field, out)

    def sign_matrix(self, sigma: Matrix | None = None):
        key = None if sigma is None else tuple(map(tuple, sigma))
        if key in self._signs:
            return self._signs[key]
        q = self if sigma is None else self.transform(mat_inv(sigma))
        out = []
        for i, cs in q.rows:
            srow = []
            for c in cs:
                s = self.field.sign_at(c, i)
                if s == 0:
                    raise ValueError("form vanishes on a lattice direction")
                srow.append(s)
            out.append(tuple(srow))
        self._signs[key] = out = tuple(out)
        return out


class ZetaData:
    """All data of the zeta specialization for one ideal class."""

    __slots__ = ("field", "f", "a", "c", "ell", "w", "wstar", "P", "Qfull",
                 "Qsingle", "v", "units", "rho", "chain")

    def __init__(self, field, f, a, c, ell, w, wstar, P, Qfull, Qsingle, v,
                 units, rho, chain):
        self.field = field
        self.f = f
        self.a = a
        self.c = c
        self.ell = ell
        self.w = w
        self.wstar = wstar
        self.P = P
        self.Qfull = Qfull
        self.Qsingle = Qsingle
        self.v = v
        self.units = units
        self.rho = rho
        self.chain = chain


def norm_form(field: NumberField, ws: Sequence[FieldElement]) -> MultiPoly:
    """N(w_1 X_1 + ... + w_n X_n) as a homogeneous degree-n polynomial."""
    n = field.n
    g = []
    for k in range(n):
        g.append(MultiPoly(n, {tuple(int(j == t) for t in range(n)): ws[j].coords[k]
                               for j in range(n) if ws[j].coords[k]}))
    return resultant_norm(list(field.f), g)


def _unit_matrices(field: NumberField, ws: Sequence[FieldElement],
                   eps: Sequence[FieldElement]):
    """Integer matrices of multiplication by the units on the basis ws,
    or None if some coordinate fails to be integral."""
    n = field.n
    wmat = tuple(tuple(ws[j].coords[i] for j in range(n)) for i in range(n))
    winv = mat_inv(wmat)
    mats = []
    for e in eps:
        cols = [mat_vec(winv, (e * wj).coords) for wj in ws]
        mat = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        if any(x.denominator != 1 for row in mat for x in row):
            return None
        mats.append(tuple(tuple(int(x) for x in row) for row in mat))
    return mats


def _chain_coset_cost(mats, ell: int) -> int:
    """Total number of residue classes the measure kernel must walk for
    a basis with integer unit matrices mats: sum of |det sigma| /
    ell^(n-1) over the chain tuples."""
    n = len(mats[0])
    from itertools import permutations
    total = 0
    for perm in permutations(range(n - 1)):
        tup = [identity(n)]
        for i in perm:
            tup.append(mat_mul(tup[-1], mats[i]))
        det = int(mat_det(first_column_matrix(tup)))
        if det == 0:
            return 1 << 60
        total += abs(det) // ell ** (n - 1)
    return total


def _reduce_adapted(field: NumberField, ws, eps, ell: int):
    """Shrink the cocycle coset count over the transforms
    w_1 -> w_1 + ell * (m_2 w_2 + ... + m_n w_n) with every |m_i| <= 8,
    which preserve the adapted property.

    Such a transform is the integer change of basis T = I + ell (0, m)^t
    e_1^t, so a candidate's unit matrices are T^-1 U T for the unit
    matrices U of ws, with T^-1 = I - ell (0, m)^t e_1^t; a non-integral
    U stays non-integral for every candidate.
    """
    from itertools import product
    n = field.n
    mats = _unit_matrices(field, ws, eps)
    if mats is None:
        return list(ws)
    best_m, best_cost = (0,) * (n - 1), _chain_coset_cost(mats, ell)
    for m in product(range(-8, 9), repeat=n - 1):
        if not any(m):
            continue
        t, tinv = [list(r) for r in identity(n)], [list(r) for r in identity(n)]
        for i, mi in enumerate(m, 1):
            t[i][0], tinv[i][0] = ell * mi, -ell * mi
        cost = _chain_coset_cost([mat_mul(mat_mul(tinv, u), t) for u in mats],
                                 ell)
        if cost < best_cost:
            best_m, best_cost = m, cost
    w1 = ws[0]
    for mj, wj in zip(best_m, ws[1:]):
        w1 = w1 + (ell * mj) * wj
    return [w1] + list(ws[1:])


def build_zeta_data(field: NumberField, f: Ideal, a: Ideal, c: Ideal,
                    ell: int, units: Sequence[FieldElement] | None = None,
                    ws: Sequence[FieldElement] | None = None,
                    reduce_basis: bool = True) -> ZetaData:
    """Assemble and fail-fast-verify the specialization data.

    A pre-adapted basis ws may be supplied (it is verified); by default one
    is derived from the Smith form of the index-ell inclusion and then
    reduced to shrink the coset systems the evaluator walks.
    """
    n = field.n
    if c.norm() != ell:
        raise ValueError("smoothing ideal must have norm ell")
    if not c.is_integral() or not a.is_integral() or not f.is_integral():
        raise ValueError("f, a, c must be integral")
    if not a.is_coprime(f):
        raise ValueError("a and f must be coprime")
    if not c.is_coprime(f):
        raise ValueError("c and f must be coprime")
    eps = unit_basis(field, f, supplied=units)
    if ws is None:
        ws = adapted_basis(a, f, c, ell)
        if reduce_basis:
            ws = _reduce_adapted(field, ws, eps, ell)
    else:
        ws = list(ws)
        _check_adapted(ws, a.inverse() * f, a.inverse() * c.inverse() * f, ell)
    wstar = dual_basis(ws)
    nac = a.norm() * c.norm()
    P = nac * norm_form(field, ws)
    for coeff in P.coeffs.values():
        den = coeff.denominator
        while den % ell == 0:
            den //= ell
        if den != 1:
            raise ValueError("norm polynomial has a denominator away from ell")
    v = tuple(w.trace() for w in wstar)
    acc = field.zero()
    for vi, wi in zip(v, ws):
        acc = acc + vi * wi
    if acc != field.one():
        raise ValueError("w . v != 1")
    # sample check of the integrality domain of P
    for probe in ((Fraction(1, ell), 0) + (0,) * (n - 2),
                  (Fraction(ell - 1, ell), 1) + (1,) * (n - 2)):
        val = P.evaluate([vi + pi for vi, pi in zip(v, probe)])
        den = val.denominator
        while den % ell == 0:
            den //= ell
        if den != 1:
            raise ValueError("P does not map v + (1/ell)Z + Z^(n-1) into Z[1/ell]")
    mats = _unit_matrices(field, ws, eps)
    if mats is None:
        raise ChainDegenerate("unit does not preserve the adapted lattice")
    amats = []
    for mat in mats:
        try:
            g = GammaEllMatrix(mat, ell)
        except ValueError as exc:
            raise ChainDegenerate(str(exc)) from exc
        if mat_det(g.mat) != 1:
            raise ChainDegenerate("unit matrix must have determinant +1")
        amats.append(g)
    rho = (-1) ** (n - 1) * embedding_matrix_det_sign(field, ws) \
        * regulator_det_sign(field, eps)
    chain = symmetrized_chain(amats).scale(rho)
    Qfull = EmbeddedForms(field, [(i, list(wstar)) for i in range(n)])
    Qsingle = [EmbeddedForms(field, [(i, list(wstar))]) for i in range(n)]
    return ZetaData(field, f, a, c, ell, ws, wstar, P, Qfull, Qsingle, v,
                    eps, rho, chain)


def zeta_minus_k(z: ZetaData, k: int, *, crosscheck: bool | None = None,
                 cache: DedekindCache | None = None) -> Fraction:
    """Exact smoothed partial zeta value at s = -k.

    With crosschecking on, the value is recomputed with every single form
    and with the symmetrized cocycle on the full form tuple; any mismatch
    raises CrossCheckFailure.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if crosscheck is None:
        crosscheck = k <= 2
    P = z.P ** k if k else MultiPoly.constant(z.field.n, 1)
    val = psi_ell_chain(z.chain, CocycleArgs(P, z.Qsingle[0], z.v), z.ell,
                        cache=cache)
    if crosscheck:
        for q in z.Qsingle[1:]:
            other = psi_ell_chain(z.chain, CocycleArgs(P, q, z.v), z.ell,
                                  cache=cache)
            if other != val:
                raise CrossCheckFailure(
                    f"single-form values disagree: {val} vs {other}")
        plus = psi_ell_chain(z.chain, CocycleArgs(P, z.Qfull, z.v), z.ell,
                             plus=True, cache=cache)
        if plus != val:
            raise CrossCheckFailure(
                f"full-tuple symmetrized value disagrees: {val} vs {plus}")
    return val


def combine_smoothing(field: NumberField, f: Ideal, a: Ideal, b: Ideal,
                      c: Ideal, k: int,
                      units: Sequence[FieldElement] | None = None,
                      cache: DedekindCache | None = None) -> Fraction:
    """Twice-smoothed zeta value at s = -k for prime-norm ideals b and c
    with coprime norms, via the combiner identity; the two assembly orders
    are cross-checked against each other."""
    nb, nc = b.norm(), c.norm()
    if nb.denominator != 1 or nc.denominator != 1:
        raise ValueError("b and c must be integral")
    from math import gcd
    if gcd(int(nb), int(nc)) != 1:
        raise ValueError("norms of b and c must be coprime")
    ellb, ellc = int(nb), int(nc)
    zb_ac = build_zeta_data(field, f, a * c, b, ellb, units)
    zb_a = build_zeta_data(field, f, a, b, ellb, units)
    first = zeta_minus_k(zb_ac, k, cache=cache) \
        - Fraction(ellc) ** (1 + k) * zeta_minus_k(zb_a, k, cache=cache)
    zc_ab = build_zeta_data(field, f, a * b, c, ellc, units)
    zc_a = build_zeta_data(field, f, a, c, ellc, units)
    second = zeta_minus_k(zc_ab, k, cache=cache) \
        - Fraction(ellb) ** (1 + k) * zeta_minus_k(zc_a, k, cache=cache)
    if first != second:
        raise CrossCheckFailure(
            f"twice-smoothed assemblies disagree: {first} vs {second}")
    return first


class MissingClassData(ValueError):
    pass


def zeta_star_minus_k(z: ZetaData, k: int,
                      divisors: Sequence[tuple[int, int, "ZetaData"]],
                      cache: DedekindCache | None = None, *,
                      crosscheck: bool | None = None) -> Fraction:
    """Prime-to-p restricted zeta value at s = -k.

    divisors lists one entry per divisor b of the product of primes above p
    away from the conductor: (number of prime factors of b, N(b), zeta data
    for the class of a b^-1).  The trivial divisor must be present.
    Divisors with the same zeta data share one `zeta_minus_k` call.
    """
    if not any(r == 0 and nb == 1 for r, nb, _ in divisors):
        raise MissingClassData("divisor list must include the trivial ideal")
    weights = {}  # id(zeta data) -> (data, sum of (-1)^r N(b)^k)
    for r, nb, zb in divisors:
        if zb is None:
            raise MissingClassData("missing zeta data for a divisor class")
        w = Fraction(-1) ** r * Fraction(nb) ** k
        weights[id(zb)] = zb, weights.get(id(zb), (zb, 0))[1] + w
    return sum((w * zeta_minus_k(zb, k, crosscheck=crosscheck, cache=cache)
                for zb, w in weights.values()), Fraction(0))
