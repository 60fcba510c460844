import hashlib
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import eisenzeta.bernoulli
import eisenzeta.dedekind
from eisenzeta.bernoulli import B_e_Q
from eisenzeta.cli import main
from eisenzeta.dedekind import (DedekindCache, LinearFormModL, LinearForms,
                                ShapeError, _sigma_walk, b1_L_z_fast, b_L_z,
                                b_L_z_direct, chain_term, d_ell, d_ell_direct,
                                d_plus, sigma_ell)
from eisenzeta.exact import mat_det

rng = random.Random(1234)


def rand_signs(m, n):
    return tuple(tuple(rng.choice([1, -1]) for _ in range(n)) for _ in range(m))


def rand_forms(m, n, sigma=None):
    """Random rational forms, resampled until all signs the sums need are
    defined (no zero entries after the sigma transform)."""
    while True:
        q = LinearForms([[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                          for _ in range(n)] for _ in range(m)])
        try:
            q.sign_matrix()
            if sigma is not None:
                q.sign_matrix(sigma)
            return q
        except ValueError:
            continue


def rand_gamma_sigma(n, ell, entry=9):
    """Random integer sigma with the congruence-monoid column shape."""
    while True:
        rows = [[rng.randint(-entry, entry) for _ in range(n)]]
        for _ in range(n - 1):
            rows.append([ell * rng.randint(-2, 2) for _ in range(n)])
        sigma = tuple(tuple(r) for r in rows)
        det = int(mat_det(sigma))
        if det != 0 and all(x % ell for x in sigma[0]):
            return sigma


# --- restricted distributions ---------------------------------------------------

def test_b1_fast_hand_values():
    # n = 2, ell = 3, L = (1,1): worked out by hand from the definitions
    L = LinearFormModL(3, (1, 1))
    s = ((1, 1),)
    assert b_L_z_direct((1, 1), L, 0, (Fraction(1, 2), Fraction(1, 2)), s) \
        == Fraction(-1, 3)
    assert b1_L_z_fast(L, (Fraction(1, 2), Fraction(1, 2)), s)[0] \
        == Fraction(-1, 3)
    assert b_L_z_direct((1, 1), L, 0, (Fraction(0), Fraction(1, 2)), s) \
        == Fraction(2, 3)
    assert b1_L_z_fast(L, (Fraction(0), Fraction(1, 2)), s)[0] == Fraction(2, 3)
    # an int coordinate is exact too, not divided in floating point
    assert b_L_z_direct((1, 1), L, 0, (0, Fraction(1, 2)), s) == Fraction(2, 3)


def test_fast_equals_direct_sweep():
    count = 0
    for ell in (3, 5, 7):
        for n in (2, 3):
            for _ in range(17):
                L = LinearFormModL(ell, [rng.randint(1, ell - 1) for _ in range(n)])
                z = rng.randint(0, ell - 1)
                x = tuple(rng.choice([Fraction(rng.randint(-6, 6)),
                                      Fraction(rng.randint(-20, 20), rng.randint(2, 7)),
                                      Fraction(rng.randint(1, 10), ell)])
                          for _ in range(n))
                s = rand_signs(rng.choice([1, 2]), n)
                assert b1_L_z_fast(L, x, s)[z] == b_L_z_direct((1,) * n, L, z, x, s)
                count += 1
    assert count >= 100


def test_b_L_z_depends_on_x_mod_ell():
    for ell in (3, 5):
        n = 2
        L = LinearFormModL(ell, [rng.randint(1, ell - 1) for _ in range(n)])
        x = (Fraction(1, 2), Fraction(3))
        s = rand_signs(1, n)
        shift = tuple(x_j + ell * rng.randint(-3, 3) for x_j in x)
        for e in ((1, 1), (2, 1)):
            assert b_L_z_direct(e, L, 1, x, s) == b_L_z_direct(e, L, 1, shift, s)
        assert b1_L_z_fast(L, x, s) == b1_L_z_fast(L, shift, s)


def test_restricted_distribution_relation():
    # b^{L,Nz}(x) = N^{ebar-n} sum over k in (ell Z / ell N Z)^n of
    # b^{L,z}((x+k)/N) for N prime to ell
    for ell, N in ((3, 2), (5, 2), (3, 4)):
        n = 2
        L = LinearFormModL(ell, [rng.randint(1, ell - 1) for _ in range(n)])
        z = rng.randint(0, ell - 1)
        s = rand_signs(1, n)
        for e in ((1, 1), (1, 2)):
            x = tuple(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
                      for _ in range(n))
            ebar = sum(e)
            total = Fraction(0)
            for k0 in range(N):
                for k1 in range(N):
                    k = (ell * k0, ell * k1)
                    total += b_L_z_direct(
                        e, L, z, [(xj + kj) / N for xj, kj in zip(x, k)], s)
            lhs = b_L_z_direct(e, L, (N * z) % ell, x, s)
            assert lhs == Fraction(N) ** (ebar - n) * total


def test_simplecase_integrality():
    # values lie in (1/m) Z[1/ell]; in (1/m) Z once ell > n + 1
    checked = 0
    for ell in (3, 5, 7, 11):
        for n in (2, 3):
            for _ in range(13):
                m = rng.choice([1, 2, 3])
                L = LinearFormModL(ell, [rng.randint(1, ell - 1) for _ in range(n)])
                z = rng.randint(0, ell - 1)
                x = tuple(rng.choice([Fraction(rng.randint(-4, 4)),
                                      Fraction(rng.randint(-9, 9), rng.randint(2, 5))])
                          for _ in range(n))
                s = rand_signs(m, n)
                val = b1_L_z_fast(L, x, s)[z] * m
                den = val.denominator
                while den % ell == 0:
                    den //= ell
                assert den == 1
                if ell > n + 1:
                    assert val.denominator == 1
                checked += 1
    assert checked >= 100


def test_crucial_congruence():
    # p^(M rbar) N(r+1)^-1 B_{1+r}(x/p^M) == B_1(x/p^M) N x^r mod p^(M-eps),
    # with eps stable when M grows by 2
    cases = 0
    for (ell, p) in ((3, 2), (5, 3), (7, 5)):
        for _ in range(6):
            n = 2
            L = LinearFormModL(ell, [rng.randint(1, ell - 1) for _ in range(n)])
            z = rng.randint(0, ell - 1)
            r = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(r) == 0:
                r = (1, 0)
            x = tuple(Fraction(rng.randint(-6, 6)) for _ in range(n))
            s = rand_signs(1, n)
            nr1 = 1
            for rj in r:
                nr1 *= rj + 1

            # per the statement: val_p(lhs - rhs) >= M - eps with N x^r the
            # plain monomial in the numerator tuple x (0^0 = 1)
            def valuation_gap(M):
                xp = tuple(xj / p ** M for xj in x)
                lhs = Fraction(p) ** (M * sum(r)) / nr1 \
                    * b_L_z_direct(tuple(1 + rj for rj in r), L, z, xp, s)
                nxr = Fraction(1)
                for xj, rj in zip(x, r):
                    if rj:
                        nxr *= Fraction(xj) ** rj
                rhs = b_L_z_direct((1,) * n, L, z, xp, s) * nxr
                diff = lhs - rhs
                if diff == 0:
                    return 10 ** 6
                num, den = diff.numerator, diff.denominator
                v = 0
                while num % p == 0:
                    num //= p
                    v += 1
                while den % p == 0:
                    den //= p
                    v -= 1
                return v

            m0 = 3
            eps0 = m0 - valuation_gap(m0)
            eps2 = (m0 + 2) - valuation_gap(m0 + 2)
            assert eps2 <= max(eps0, 0) + 1  # stable, not growing with M
            cases += 1
    assert cases >= 15


# --- smoothed sums ---------------------------------------------------------------

def test_d_plus_singular_is_zero():
    q = rand_forms(1, 2)
    assert d_plus(((1, 2), (2, 4)), (1, 1), q, (Fraction(1, 3), 0)) == 0


def test_d_plus_identity_single_coset():
    from eisenzeta.bernoulli import B_e_Q_plus
    sigma = ((1, 0), (0, 1))
    q = rand_forms(2, 2)
    v = (Fraction(1, 3), Fraction(2, 7))
    assert d_plus(sigma, (2, 1), q, v) == B_e_Q_plus((2, 1), v, q.sign_matrix())


def test_d_plus_brute_force_coset_sum():
    from eisenzeta.bernoulli import B_e_Q_plus
    from eisenzeta.exact import coset_reps, mat_inv, mat_vec
    sigma = ((2, 0), (0, 1))
    q = LinearForms([[Fraction(1), Fraction(3, 2)]])
    v = (Fraction(1, 3), Fraction(1, 3))
    expected = Fraction(0)
    inv = mat_inv(sigma)
    for x in coset_reps(sigma):
        arg = mat_vec(inv, [a + b for a, b in zip(x, v)])
        expected += B_e_Q_plus((2, 2), arg, q.sign_matrix(sigma))
    assert d_plus(sigma, (2, 2), q, v) == expected


def test_sigma_ell_shape_errors():
    with pytest.raises(ShapeError):
        sigma_ell(((1, 1), (1, 3)), 3)  # second row not divisible
    with pytest.raises(ShapeError):
        sigma_ell(((3, 1), (3, 3)), 3)  # first row not coprime
    assert sigma_ell(((1, 2), (3, 6)), 3) == ((1, 2), (1, 2))


def test_d_ell_of_a_singular_gamma_ell_shape_is_zero():
    # ((1, 2), (3, 6)) has the Gamma_3 shape and det 0: its record's sign is
    # 0, and d_ell is 0 before any form is asked for a sign at sigma
    sigma = ((1, 2), (3, 6))
    assert chain_term(sigma, 3)[0] == 0
    q, v = LinearForms([[1, Fraction(1, 2)]]), (Fraction(1, 3), 0)
    for plus, cache in product((False, True), (None, DedekindCache())):
        assert d_ell(sigma, (1, 1), q, v, 3, plus=plus, cache=cache) == 0


def test_decomposition_identity():
    # the decomposition of the smoothed sum over level sets agrees with the
    # literal two-sum definition, for e = 1 and e != 1
    for _ in range(10):
        ell = rng.choice([3, 5])
        n = rng.choice([2, 3])
        sigma = rand_gamma_sigma(n, ell)
        q = rand_forms(rng.choice([1, 2]), n, sigma)
        v = tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                  for _ in range(n))
        for e in ((1,) * n, tuple(rng.randint(1, 3) for _ in range(n))):
            assert d_ell(sigma, e, q, v, ell) == d_ell_direct(sigma, e, q, v, ell)
            assert d_ell(sigma, e, q, v, ell, plus=True) == \
                d_ell_direct(sigma, e, q, v, ell, plus=True)


@pytest.mark.parametrize("ell,n", [(5, 2), (7, 2), (5, 3), (7, 3)])
def test_shared_walk_every_weight_equals_direct(ell, n):
    # every weight with |e| <= n + 6, both plus settings and two form
    # tuples on one sigma are served by one walk per v, and each value is
    # still the two-sum oracle's; v = 0 puts defect points at e_j = 1.
    # |det sigma| <= 50 keeps the oracle's coset sums small
    while True:
        sigma = rand_gamma_sigma(n, ell, entry=4)
        if abs(mat_det(sigma)) <= 50:
            break
    forms = [rand_forms(1, n, sigma), rand_forms(2, n, sigma)]
    vs = [(0,) * n]
    if n == 2:  # a second, rational v; at n = 3 the oracle would take seconds
        vs.append(tuple(Fraction(rng.randint(-4, 4), rng.choice([2, 3]))
                        for _ in range(n)))
    weights = [e for e in product(range(1, 8), repeat=n) if sum(e) <= n + 6]
    assert len(weights) == {2: 28, 3: 84}[n]
    _sigma_walk.cache_clear()
    for e in weights:
        for q, v, plus in product(forms, vs, (False, True)):
            assert d_ell(sigma, e, q, v, ell, plus=plus) == \
                d_ell_direct(sigma, e, q, v, ell, plus=plus)
    assert _sigma_walk.cache_info().misses == len(vs)


# record count and sha256 of dedekind.tsv after `zeta --cache` on each golden
# config; keys and values must not depend on how the sums share their coset
# walks, factor rows and key parts.  The cubic config has n = 3 and defect
# rows
GOLDEN_CACHE = {
    "golden_config.json": (
        34, "3216aa6283807125b95dd42281b4749d1c6f966a853f1ee4d1be75231236e870"),
    "golden_config_cubic.json": (
        88, "8d2e63328fa26db4b2913798866e5213cd5994c07a945b08d7a6abda414815f3"),
}


@pytest.mark.parametrize("config", sorted(GOLDEN_CACHE))
def test_golden_cache_records_and_warm_rerun(config, tmp_path, capsys,
                                             monkeypatch):
    cfg = str(Path(__file__).parent / "data" / config)
    argv = ["zeta", "--config", cfg, "--cache", str(tmp_path / "cache")]
    walked = []
    real = eisenzeta.dedekind.coset_reps
    monkeypatch.setattr(eisenzeta.dedekind, "coset_reps",
                        lambda m: walked.append(m) or real(m))
    _sigma_walk.cache_clear()
    assert main(argv) == 0
    data = (tmp_path / "cache" / "dedekind.tsv").read_bytes()
    records, digest = GOLDEN_CACHE[config]
    assert data.count(b"\n") == 1 + records
    assert hashlib.sha256(data).hexdigest() == digest
    assert walked  # the patched name is the one d_ell walks through
    # on the warm cache every d_ell returns its record before any walk
    walked.clear()
    _sigma_walk.cache_clear()
    assert main(argv) == 0
    assert walked == []
    capsys.readouterr()


# sigma has the congruence shape at ell = 3 and at ell = 5, and v is
# integral where e_j = 1, so the level sums read the defect rows; at these
# v the sums differ between the two ell, the two sign tuples and plus
MEMO_CASES = {
    2: (((1, 2), (15, -15)), (1, 2), (0, Fraction(1, 2)),
        LinearForms([[1, Fraction(1, 2)]]), [(1, 2), (2, 1)]),
    3: (((1, 2, 4), (15, 0, 15), (0, 15, -15)), (1, 2, 1),
        (0, Fraction(1, 3), 0), LinearForms([[1, Fraction(1, 2), -3]]),
        [(1, 1, 2), (2, 1, 1)]),
}


def _with_negated(signs):
    return signs + tuple(tuple(-s for s in row) for row in signs)


@pytest.mark.parametrize("n", [2, 3])
def test_memos_keep_their_keys_apart(n):
    # d_ell at two ell, under the forms and their negation, plus on and
    # off; b_L_z at one (e, x) under two form coefficient vectors, at both
    # ell and under each sign tuple d_ell passes.  Every order, on empty
    # and on warm memos, with and without a cache, gives the oracle's values
    sigma, e, v, q, coeffs = MEMO_CASES[n]
    sums = [(ell, form, plus) for ell in (3, 5) for form in (q, q.negate())
            for plus in (False, True)]
    signs = q.sign_matrix(sigma)
    tuples = [signs, _with_negated(signs)[len(signs):], _with_negated(signs)]
    levels = [(LinearFormModL(ell, a), z, s) for ell in (3, 5)
              for a in coeffs for s in tuples for z in range(ell)]
    want_d = [d_ell_direct(sigma, e, form, v, ell, plus=plus)
              for ell, form, plus in sums]
    want_b = [b_L_z_direct(e, L, z, v, s) for L, z, s in levels]
    assert len(set(want_d)) == {2: 5, 3: 6}[n]
    # each sum is its walk's cosets read one by one with b_L_z
    for (ell, form, plus), want in zip(sums, want_d):
        s = form.sign_matrix(sigma)
        L = chain_term(sigma, ell)[3]
        cosets = _sigma_walk(sigma_ell(sigma, ell), ell,
                             eisenzeta.dedekind._pi_ell_vec(v, ell))
        assert sum(b_L_z(e, L, z, x, _with_negated(s) if plus else s)
                   for z, x in cosets) == want
    cache = DedekindCache()
    for clear, order in ((True, 1), (False, -1), (True, -1), (False, 1)):
        if clear:
            for memo in (chain_term, _sigma_walk,
                         eisenzeta.dedekind._factor_row,
                         eisenzeta.dedekind._key_tail,
                         eisenzeta.bernoulli.periodic_B):
                memo.cache_clear()
        for store in (None, cache):
            assert [d_ell(sigma, e, form, v, ell, plus=plus, cache=store)
                    for ell, form, plus in sums[::order]] == want_d[::order]
        assert [b_L_z(e, L, z, v, s) for L, z, s in levels[::order]] == \
            want_b[::order]
    assert len(cache.data) == len(sums)


def test_d_ell_plus_cubic_mixed_weights():
    # three forms (two with equal signs) on a cubic sigma; v = 0 puts
    # integral coordinates at e_j = 1, so the defect rows are exercised
    sigma = ((1, 2, -3), (5, -5, 0), (0, 5, 10))
    q = LinearForms([[1, Fraction(1, 2), -2], [-3, 1, Fraction(2, 3)],
                     [2, -1, 1]])
    for v in ((0, 0, 0), (Fraction(1, 2), 0, Fraction(2, 3))):
        for e in ((2, 1, 1), (1, 3, 2), (1, 1, 4)):
            assert d_ell(sigma, e, q, v, 5, plus=True) == \
                d_ell_direct(sigma, e, q, v, 5, plus=True)


def test_representative_independence():
    # shifting every coset representative by a lattice vector leaves the
    # smoothed sum unchanged (evaluated through shifted v as a proxy for
    # re-chosen representatives: v -> v + integer vector)
    for _ in range(6):
        ell = 5
        n = 2
        sigma = rand_gamma_sigma(n, ell)
        q = rand_forms(1, n, sigma)
        v = (Fraction(1, 3), Fraction(2, 5))
        shift = tuple(rng.randint(-3, 3) for _ in range(n))
        vs = tuple(a + b for a, b in zip(v, shift))
        assert d_ell(sigma, (1, 1), q, v, ell) == d_ell(sigma, (1, 1), q, vs, ell)
        assert d_plus(sigma, (2, 1), q, v) == d_plus(sigma, (2, 1), q, vs)


def test_d_ell_integrality_single_form():
    # termwise: with m = 1 and e = 1 the smoothed sum lies in Z[1/ell]
    for _ in range(10):
        ell = rng.choice([5, 7, 11])
        n = 2
        sigma = rand_gamma_sigma(n, ell)
        q = rand_forms(1, n, sigma)
        v = tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n))
        val = d_ell(sigma, (1, 1), q, v, ell)
        den = val.denominator
        while den % ell == 0:
            den //= ell
        assert den == 1


def test_cache_round_trip(tmp_path):
    ell, n = 5, 2
    sigma = rand_gamma_sigma(n, ell)
    q = rand_forms(1, n, sigma)
    v = (Fraction(1, 3), Fraction(0))
    cache = DedekindCache()
    a = d_ell(sigma, (1, 1), q, v, ell, cache=cache)
    b = d_ell(sigma, (1, 1), q, v, ell, cache=cache)
    assert a == b and len(cache.data) == 1
    path = tmp_path / "cache.tsv"
    cache.save(str(path))
    # the key is the record's exact text, not a digest of it
    key = cache.key(sigma, (1, 1), v, q.sign_matrix(sigma), ell, False)
    assert path.read_text().splitlines() == [
        DedekindCache.FORMAT, f"{key}\t{a.numerator}/{a.denominator}"]
    reloaded = DedekindCache(str(path))
    assert reloaded.data == cache.data
    assert d_ell(sigma, (1, 1), q, v, ell, cache=reloaded) == a


def test_cache_save_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = DedekindCache(str(path))
    cache.put("a" * 64, Fraction(3, 7))
    cache.save()
    before = path.read_text()

    class Unwritable:
        @property
        def numerator(self):
            raise RuntimeError("write interrupted")

    cache.put("0" * 64, Unwritable())  # written before the good record
    with pytest.raises(RuntimeError):
        cache.save()
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.tsv"]


def test_linear_form_rejects_zero_values():
    with pytest.raises(ValueError):
        LinearFormModL(5, (1, 5))  # 5 = 0 mod 5 on the second basis vector


def test_sigma_ell_rejects_dimension_one():
    with pytest.raises(ShapeError):
        sigma_ell(((3,),), 3)
