"""The smoothed Eisenstein cocycle on the congruence monoid Gamma_ell,
its chain-linear extension, and the distribution-module action used for
equivariance checks.

The cocycle value depends on a tuple of matrices only through the square
matrix sigma of their first columns; a tuple with det(sigma) = 0 evaluates
to 0, matching the zero-measure convention downstream.  A term's sign is
`dedekind.chain_term`'s; its d_ell weights are memoized per (P, sigma, ell).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd, lcm, prod

from .dedekind import chain_term, d_ell
from .exact import (Matrix, MultiPoly, NotHomogeneous, coset_reps, identity,
                    mat_det, mat_inv, mat_mul, mat_vec)


class GammaEllMatrix:
    """Integer matrix with nonzero determinant prime to ell whose first
    column is congruent mod ell to a vector supported in coordinate 1.

    Rational input with denominators prime to ell is accepted and scaled
    to a primitive integer matrix; positive scaling of a matrix does not
    change any cocycle value.
    """

    __slots__ = ("ell", "mat")

    def __init__(self, mat: Sequence[Sequence], ell: int):
        n = len(mat)
        rows = [[Fraction(x) for x in row] for row in mat]
        den = lcm(*(x.denominator for row in rows for x in row))
        ints = [[int(x * den) for x in row] for row in rows]
        content = gcd(*(x for row in ints for x in row))
        if content > 1:
            ints = [[x // content for x in row] for row in ints]
        det = int(mat_det(ints))
        if det == 0:
            raise ValueError("matrix must be nonsingular")
        if gcd(det, ell) != 1:
            raise ValueError("determinant must be prime to ell")
        for i in range(1, n):
            if ints[i][0] % ell:
                raise ValueError("first column must vanish mod ell below row 1")
        self.ell = ell
        self.mat = tuple(tuple(r) for r in ints)

    @property
    def n(self) -> int:
        return len(self.mat)

    def __matmul__(self, other: "GammaEllMatrix") -> "GammaEllMatrix":
        return GammaEllMatrix(mat_mul(self.mat, other.mat), self.ell)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GammaEllMatrix) and self.ell == other.ell
                and self.mat == other.mat)

    def __hash__(self):
        return hash((self.ell, self.mat))

    def __repr__(self):
        return f"GammaEllMatrix({self.mat}, ell={self.ell})"


class CocycleChain:
    """Formal Z-linear combination of n-tuples over Gamma_ell."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[tuple[int, tuple[GammaEllMatrix, ...]]] = ()):
        merged: dict[tuple, int] = {}
        for coeff, tup in terms:
            merged[tuple(tup)] = merged.get(tuple(tup), 0) + int(coeff)
        self.terms = tuple((c, t) for t, c in merged.items() if c)

    def scale(self, c: int) -> "CocycleChain":
        return CocycleChain([(c * k, t) for k, t in self.terms])

    def __len__(self):
        return len(self.terms)


def bar_tuple(mats: Sequence[GammaEllMatrix]) -> tuple[GammaEllMatrix, ...]:
    """[A_1 | ... | A_{n-1}] = (1, A_1, A_1 A_2, ..., A_1...A_{n-1})."""
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].n
    ell = mats[0].ell
    out = [GammaEllMatrix(identity(n), ell)]
    for m in mats:
        out.append(out[-1] @ m)
    return tuple(out)


def symmetrized_chain(mats: Sequence[GammaEllMatrix]) -> CocycleChain:
    """Alternating symmetrization over orderings of the generating tuple."""
    idx = range(len(mats))
    terms = []
    for perm in permutations(idx):
        sgn = _perm_sign(perm)
        terms.append((sgn, bar_tuple([mats[i] for i in perm])))
    return CocycleChain(terms)


def _perm_sign(perm: Sequence[int]) -> int:
    sgn = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sgn = -sgn
    return sgn


class CocycleArgs:
    """Argument triple (P, Q, v) of the distribution module."""

    __slots__ = ("P", "Q", "v")

    def __init__(self, P: MultiPoly, Q, v: Sequence):
        self.P = P
        self.Q = Q
        self.v = tuple(Fraction(t) for t in v)


def pr_coefficients(P: MultiPoly, sigma: Matrix) -> dict[tuple[int, ...], Fraction]:
    """Coefficients P_r(sigma) defined by P(X sigma^t) = sum_r P_r(sigma) X^r / r!.

    Keys run over the partitions r of deg(P) into nonnegative parts that
    actually occur.
    """
    if not P.is_homogeneous():
        raise NotHomogeneous("P must be homogeneous")
    return {mono: c * prod(map(factorial, mono))
            for mono, c in P.compose_matrix(sigma).coeffs.items()}


def first_column_matrix(tup: Sequence) -> Matrix:
    """sigma: column i is the first column of the i-th tuple entry."""
    mats = [t.mat if isinstance(t, GammaEllMatrix) else t for t in tup]
    n = len(mats[0])
    if len(mats) != n:
        raise ValueError("tuple length must equal the matrix dimension")
    return tuple(tuple(mats[j][i][0] for j in range(n)) for i in range(n))


@lru_cache(maxsize=128)
def _weights(P: MultiPoly, sigma: Matrix, ell: int) -> tuple:
    """(e, P_r(sigma) / (e! ell^|r|)), e = r + 1, for each nonzero P_r
    of each homogeneous part of P: psi_ell's terms, shared by every form
    tuple and plus half that evaluates P on sigma."""
    out = []
    for part in P.homogeneous_components().values():
        for r, pr in pr_coefficients(part, sigma).items():
            if pr:
                e = tuple(rj + 1 for rj in r)
                out.append((e, pr / (prod(map(factorial, e)) * ell ** sum(r))))
    return tuple(out)


def psi_ell(tup: Sequence, args: CocycleArgs, ell: int, *,
            plus: bool = False, cache=None) -> Fraction:
    """Evaluate the smoothed cocycle on an n-tuple at (P, Q, v).

    The plus variant averages the form tuple with its negative.
    """
    sigma = first_column_matrix(tup)
    sign = chain_term(sigma, ell)[0]
    terms = _weights(args.P, sigma, ell) if sign else ()
    return sign * sum((w * d_ell(sigma, e, args.Q, args.v, ell, plus=plus,
                                 cache=cache) for e, w in terms), Fraction(0))


def psi_ell_chain(chain: CocycleChain, args: CocycleArgs, ell: int, *,
                  plus: bool = False, cache=None) -> Fraction:
    total = Fraction(0)
    for coeff, tup in chain.terms:
        total += coeff * psi_ell(tup, args, ell, plus=plus, cache=cache)
    return total


def module_action(gamma: Matrix, evaluator, args: CocycleArgs) -> Fraction:
    """Action of an integral gamma on a distribution, evaluated at args:
    sgn(det) * sum over r in Z^n / gamma Z^n of
    evaluator(gamma^t P, gamma^-1 Q, gamma^-1 (r + v))."""
    g = gamma.mat if isinstance(gamma, GammaEllMatrix) else gamma
    if any(Fraction(x).denominator != 1 for row in g for x in row):
        raise ValueError("gamma must be integral")
    det = int(mat_det(g))
    if det == 0:
        raise ValueError("gamma must be nonsingular")
    inv = mat_inv(g)
    newP = args.P.compose_matrix(g)
    newQ = args.Q.transform(inv)
    total = Fraction(0)
    for r in coset_reps(g):
        w = mat_vec(inv, [ri + vi for ri, vi in zip(r, args.v)])
        total += evaluator(CocycleArgs(newP, newQ, w))
    return (1 if det > 0 else -1) * total
