"""Smoothed partial zeta values of totally real fields at nonpositive
integers, evaluated through the smoothed cocycle.

The construction follows the adapted-basis route: a basis w of a^-1 f whose
first element divided by ell completes a basis of a^-1 c^-1 f, the norm
polynomial scaled by N(a c), the dual-basis forms at the real embeddings,
and the symmetrized unit chain carrying an orientation sign.  The basis has
the least |N(w_1)| in the box of `_reduce_adapted`: the cocycle walks
|N(w_1)| cosets times a factor fixed by the units.  That factor depends on
the unit basis, not only on the group it generates, so the chain is built
from the det +1 change of the supplied basis that walks the fewest cosets
(`_change_costs`); a det +1 change keeps the regulator sign, so every
value and rho are those of the supplied basis.  The dual-basis forms are
`dedekind.LinearForms` rows: row i of the full tuple is the single form at
embedding i, so the cross-check certifies each sign once.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd, lcm, prod
from operator import add

from .cocycle import (CocycleArgs, GammaEllMatrix, psi_ell_chain,
                      symmetrized_chain)
from .dedekind import DedekindCache, LinearForms
from .exact import (Matrix, MultiPoly, _intval, _is_prime, adjugate,
                    mat_det, mat_solve, mat_vec, resultant_norm)
from .numberfield import (FieldElement, Ideal, NumberField, _check_adapted,
                          _common,
                          adapted_basis, dual_basis, embedding_matrix_det_sign,
                          unit_basis, validate_units)


class ChainDegenerate(ValueError):
    pass


class CrossCheckFailure(ArithmeticError):
    pass


# perfbench/tracer.py wraps the forms' sign_matrix under this name
EmbeddedForms = LinearForms


class ZetaData:
    """All data of the zeta specialization for one ideal class."""

    __slots__ = ("field", "f", "a", "c", "ell", "w", "wstar", "P", "Qfull",
                 "Qsingle", "v", "units", "rho", "chain", "_power")

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
        self._power = P, 0, P ** 0

    def power(self, k: int) -> MultiPoly:
        """P^k, one product from the last power asked for when k follows
        it; one entry, keyed by k and P (by identity: it is immutable)."""
        base, last, pk = self._power
        if base is not self.P or k != last:
            step = base is self.P and k == last + 1
            self._power = self.P, k, pk * self.P if step else self.P ** k
        return self._power[2]


def norm_form(field: NumberField, ws: Sequence[FieldElement]) -> MultiPoly:
    """N(w_1 X_1 + ... + w_n X_n) as a homogeneous degree-n polynomial: the
    resultant of the integer forms sum_j d w_j X_j, over d^n."""
    n = field.n
    cols, d = _common([w.coords for w in ws])
    g = [MultiPoly(n, {tuple(int(j == t) for t in range(n)): col[k]
                       for j, col in enumerate(cols)}) for k in range(n)]
    return MultiPoly(n, {mono: Fraction(c, d ** n) for mono, c in
                         resultant_norm(list(field.f), g).coeffs.items()})


def _unit_matrices(field: NumberField, ws: Sequence[FieldElement],
                   eps: Sequence[FieldElement]):
    """Integer matrices of multiplication by the units on the basis ws,
    or None if some coordinate fails to be integral."""
    wmat = tuple(zip(*(w.coords for w in ws)))
    mats = []
    for e in eps:
        mat = mat_solve(wmat, tuple(zip(*((e * w).coords for w in ws))))
        if any(x.denominator != 1 for row in mat for x in row):
            return None
        mats.append(tuple(tuple(int(x) for x in row) for row in mat))
    return mats


def _reduce_adapted(field: NumberField, ws, ell: int):
    """Shrink the cocycle coset count over the transforms
    w_1 -> w_1 + ell * (m_2 w_2 + ... + m_n w_n) with every |m_i| <= 8,
    which preserve the adapted property.  The least |N(w_1)| wins; a tie
    keeps ws (m = 0), or else the first m in `product` order.  Returns the
    basis and its norm form.

    The norm is the count up to a factor fixed by the units: the first
    columns of a chain term are the coordinates of eps w_1, so their
    determinant is N(w_1) det(tau_i(eps_j)) / det(tau_i(w_j)), and every
    candidate spans a^-1 f.  A candidate's N(w_1) is the norm form N_0 of
    ws at (1, ell m), evaluated in integers over N_0's common denominator.
    The winner's norm form is N_0 with X_j -> X_j + ell m_j X_1 (j >= 2),
    as (w_1 + ell sum m_j w_j) X_1 + sum w_j X_j = w_1 X_1 + sum w_j (X_j +
    ell m_j X_1): one integer substitution, not a second resultant.
    """
    n0 = norm_form(field, ws)
    den = lcm(*(c.denominator for c in n0.coeffs.values()))
    terms = [(int(c * den), mono[1:]) for mono, c in n0.coeffs.items()]

    def score(m):
        x = [ell * mj for mj in m]
        return abs(sum(c * prod(map(pow, x, es)) for c, es in terms)), any(m)

    best_m = min(product(range(-8, 9), repeat=field.n - 1), key=score)
    w1 = ws[0]
    rows = [[int(i == j) for j in range(field.n)] for i in range(field.n)]
    for j, (mj, wj) in enumerate(zip(best_m, ws[1:]), 1):
        w1 = w1 + (ell * mj) * wj
        rows[j][0] = ell * mj
    return [w1] + list(ws[1:]), n0.compose_matrix(rows)


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a small integer matrix, by expansion along row 1:
    the unit search takes thousands of 2 x 2 and 3 x 3 ones, where this
    costs less than `exact.mat_det`'s scaled Bareiss rows."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    return sum((-1) ** j * x * _int_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


@lru_cache(maxsize=None)
def _unit_changes(m: int) -> tuple:
    """The exponent changes E of a basis of m units that `_change_costs`
    scores: every m x m integer matrix with det E = +1 and entries in
    [-2, 2] for two units or [-1, 1] for three, nearest the identity first
    (by the sum of |E - 1|, then in `product` order), so that the least
    cost keeps as much of the supplied basis as it can.  Other counts get
    the identity alone (one unit has no other basis of det +1).
    """
    eye = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    radius = {2: 2, 3: 1}.get(m, 0)
    rows = list(product(range(-radius, radius + 1), repeat=m))
    return (eye,) + tuple(sorted(
        (e for e in product(rows, repeat=m) if _int_det(e) == 1 and e != eye),
        key=lambda e: sum(abs(x - y) for r, s in zip(e, eye)
                          for x, y in zip(r, s))))


def _change_costs(mats: Sequence[Matrix], ell: int) -> dict:
    """K(E) for each change E of `_unit_changes` whose chain has no
    singular tuple: the cosets the chain of the units E.eps walks, the
    sum over orderings p of |det| of the first columns of (1, V_p1,
    V_p1 V_p2, ...) over ell^(n-1), V_i = prod_j U_j^(E_ij).

    The unit matrices commute, so a tuple's columns are the first columns
    of U^a for the partial sums a of E's rows, memoized per a and stepped
    from a neighbour by one U_j or its inverse, adj U_j (det +1).  The
    first column of the tuple is e_1, so |det| is the minor of the others.
    """
    n, steps = len(mats[0]), [(u, adjugate(u)) for u in mats]
    cols = {(0,) * len(mats): (1,) + (0,) * (n - 1)}

    def col(a):
        if a not in cols:
            j = next(j for j, aj in enumerate(a) if aj)
            up, down = steps[j]
            back = a[:j] + (a[j] - 1 if a[j] > 0 else a[j] + 1,) + a[j + 1:]
            cols[a] = mat_vec(up if a[j] > 0 else down, col(back))
        return cols[a]

    costs = {}
    for e in _unit_changes(len(mats)):
        total = 0
        for perm in permutations(e):
            acc, minor = (0,) * len(e), []
            for row in perm:
                acc = tuple(map(add, acc, row))
                minor.append(col(acc)[1:])
            det = _int_det(minor)
            if det == 0:
                break
            total += abs(det)
        else:
            costs[e] = total // ell ** (n - 1)
    return costs


@lru_cache(maxsize=32)
def _least_change(field: NumberField, units: tuple) -> Matrix:
    """The change of least `_change_costs` on the order basis: on a basis w
    each K(E) is that times |N(w_1) det(order) / det(w)| / ell^(n-1), so
    the least change and its ties depend on the field and units alone."""
    costs = _change_costs(_unit_matrices(
        field, Ideal.unit_ideal(field).basis_elements(), units), 1)
    return min(costs, key=costs.get, default=_unit_changes(len(units))[0])


def build_zeta_data(field: NumberField, f: Ideal, a: Ideal, c: Ideal,
                    ell: int, units: Sequence[FieldElement] | None = None,
                    ws: Sequence[FieldElement] | None = None) -> ZetaData:
    """Assemble and fail-fast-verify the specialization data.

    A pre-adapted basis ws may be given (it is verified); by default one
    is derived from the Smith form of the index-ell inclusion, and its
    first element is moved to the least |N(w_1)| in the box of
    `_reduce_adapted`, which shrinks the coset systems the evaluator walks.
    Either way the norm form is computed once.  Once `validate_units` has
    certified the units, the chain is built from the units E.eps of the
    change E in `_unit_changes` of least `_change_costs`, the supplied basis
    kept on ties (`_least_change`); ZetaData.units are those units.  rho is
    computed from the supplied basis, which det E = +1 leaves unchanged.
    """
    if not _is_prime(ell):
        raise ValueError(f"the smoothing ideal's norm ell = {ell} is not prime")
    n = field.n
    if c.norm() != ell:
        raise ValueError("smoothing ideal must have norm ell")
    if not c.is_integral() or not a.is_integral() or not f.is_integral():
        raise ValueError("f, a, c must be integral")
    if not a.is_coprime(f):
        raise ValueError("a and f must be coprime")
    if not c.is_coprime(f):
        raise ValueError("c and f must be coprime")
    eps = unit_basis(field, f) if units is None else list(units)
    reg_sign = validate_units(field, f, eps)  # certifies the regulator sign
    if ws is None:
        ws, form = _reduce_adapted(field, adapted_basis(a, f, c, ell), ell)
    else:
        ws = list(ws)
        ainv = a.inverse()
        _check_adapted(ws, ainv * f, ainv * c.inverse() * f, ell)
        form = norm_form(field, ws)
    wstar = dual_basis(ws)
    nac = a.norm() * c.norm()
    P = nac * form
    for coeff in P.coeffs.values():
        den = coeff.denominator
        if den != ell ** _intval(den, ell):
            raise ValueError("norm polynomial has a denominator away from ell")
    v = tuple(w.trace() for w in wstar)
    if sum((vi * wi for vi, wi in zip(v, ws)), field.zero()) != field.one():
        raise ValueError("w . v != 1")
    # sample check of the integrality domain of P
    for probe in ((Fraction(1, ell), 0) + (0,) * (n - 2),
                  (Fraction(ell - 1, ell), 1) + (1,) * (n - 2)):
        den = P.evaluate([vi + pi for vi, pi in zip(v, probe)]).denominator
        if den != ell ** _intval(den, ell):
            raise ValueError("P does not map v + (1/ell)Z + Z^(n-1) into Z[1/ell]")
    change = _least_change(field, tuple(eps))
    if change != _unit_changes(len(eps))[0]:
        # E.eps generates the group eps does (det E = 1): its matrices are
        # integral, and in Gamma_ell exactly when those of eps are
        eps = [prod((u ** k for u, k in zip(eps, row)), start=field.one())
               for row in change]
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
    rho = (-1) ** (n - 1) * embedding_matrix_det_sign(field, ws) * reg_sign
    chain = symmetrized_chain(amats).scale(rho)
    Qfull = LinearForms([(i, wstar) for i in range(n)], field)
    Qsingle = [LinearForms([(i, wstar)], field) for i in range(n)]
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
    P = z.power(k)
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
