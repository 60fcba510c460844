"""Command-line front end: config parsing, orchestration, JSON reports.

Config files are JSON with every number carried as a string ("7", "-4/3")
so that values survive round trips without precision mangling.  Exit
codes: 0 success, 2 config error, 3 mathematical precondition violated,
4 internal cross-check alarm (a failed selftest check, or a padic-zeta
value certified below M - 1 while the cross-check is on).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction

from .cocycle import CocycleArgs, GammaEllMatrix, first_column_matrix, \
    module_action, psi_ell
from .dedekind import DedekindCache, LinearForms, chain_term
from .exact import MultiPoly, _intval, _is_prime, mat_det
from .numberfield import (DependentUnits, Ideal, NumberField, prime_over,
                          regulator_det_sign)
from .padic import (MeasureHandle, PadicInt, TooManyCells,
                    agreement_precision, oov_integrals, padic_zetas,
                    region_oov, region_units)
from .zeta import (CrossCheckFailure, ZetaData, build_zeta_data,
                   zeta_minus_k, zeta_star_minus_k)

SCHEMA = "eisenzeta/v1"

EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_CROSSCHECK = 4


# Most cells a command's Riemann sweeps may visit, checked before the work
# starts: the sum of (p^max(M, t))^n over its levels M (10^7 take about
# 35 s on the 19-coset oov kernel, and 0.5 s where padic-zeta sums the norm
# in closed form); `padic.MAX_REGION_CELLS` bounds the region itself.
MAX_SWEEP_CELLS = 10 ** 7
# Most cosets a unit chain may walk, the sum of |det sigma_ell| over its
# terms, checked after each `build_zeta_data`: 3,759 cosets take 0.9 s for
# the exact zeta(0) and zeta(-1) (2-core Xeon, Python 3.11), so 10^4 take
# about 2.4 s per two weights.
MAX_CHAIN_COSETS = 10 ** 4


class ConfigError(ValueError):
    pass


def _check_sweeps(h: MeasureHandle, region, levels: list[int]) -> None:
    cells = sum((h.p ** max(M, region.t)) ** h.n for M in levels)
    if cells > MAX_SWEEP_CELLS:
        raise ConfigError(f"the sweeps at levels {levels} visit {cells} "
                          f"cells, above the limit of {MAX_SWEEP_CELLS}")


def _check_chain(z: ZetaData) -> None:
    cosets = sum(abs(chain_term(first_column_matrix(t), z.ell)[2])
                 for _, t in z.chain.terms)
    if cosets > MAX_CHAIN_COSETS:
        raise ConfigError(f"the unit chain walks {cosets} cosets, above the "
                          f"limit of {MAX_CHAIN_COSETS}")


def _num(s, what="number") -> Fraction:
    # bool is an int subclass, but a JSON true is no number
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad {what}: {s!r}") from exc
    raise ConfigError(f"{what} must be a string, got {type(s).__name__}")


def _int(s, what="integer") -> int:
    v = _num(s, what)
    if v.denominator != 1:
        raise ConfigError(f"{what} must be an integer, got {s!r}")
    return int(v)


def _list(x, what) -> list:
    if not isinstance(x, list):
        raise ConfigError(f"{what} must be a list, got {type(x).__name__}")
    return x


def _obj(x, what) -> dict:
    if not isinstance(x, dict):
        raise ConfigError(f"{what} must be an object, got {type(x).__name__}")
    return x


def _vector(x, what, n: int) -> list[Fraction]:
    v = [_num(c, what) for c in _list(x, what)]
    if len(v) != n:
        raise ConfigError(f"{what} needs {n} entries, got {len(v)}")
    return v


def _columns(x, what, n: int) -> list[list[Fraction]]:
    cols = [_vector(col, f"{what} column", n) for col in _list(x, what)]
    if len(cols) != n:
        raise ConfigError(f"{what} needs {n} columns, got {len(cols)}")
    return cols


def _int_min(s, what, low: int) -> int:
    v = _int(s, what)
    if v < low:
        raise ConfigError(f"{what} must be >= {low}, got {v}")
    return v


def _prime(s, what) -> int:
    v = _int(s, what)
    if not _is_prime(v):
        raise ConfigError(f"{what} must be a prime, got {v}")
    return v


def _k_max(cfg, default: str) -> int:
    return _int_min(cfg.get("k_max", default), "k_max", 0)


def _fmt(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 \
        else str(q.numerator)


def parse_field(cfg) -> NumberField:
    if not isinstance(cfg, dict) or "poly" not in cfg:
        raise ConfigError("field must be an object with a 'poly' list")
    poly = [_int(c, "polynomial coefficient")
            for c in _list(cfg["poly"], "field.poly")]
    basis = None
    if "integral_basis" in cfg:
        basis = _columns(cfg["integral_basis"], "integral_basis",
                         len(poly) - 1)
    return NumberField(poly, integral_basis=basis)


def parse_ideal(field: NumberField, cfg) -> Ideal:
    if not isinstance(cfg, bool) and cfg in ("unit", "1", 1):
        return Ideal.unit_ideal(field)
    if not isinstance(cfg, dict):
        raise ConfigError("ideal must be 'unit' or an object")
    if "hnf" in cfg:
        return Ideal.from_columns(field, _columns(cfg["hnf"], "hnf", field.n))
    if "gens" in cfg:
        gens = [field.from_rational(_num(g, "generator"))
                if isinstance(g, (str, int))
                else field.element(_vector(g, "generator", field.n))
                for g in _list(cfg["gens"], "gens")]
        return Ideal.from_generators(field, gens)
    raise ConfigError("ideal needs 'hnf' or 'gens'")


def parse_units(field: NumberField, cfg):
    if cfg is None:
        return None
    units = _list(cfg, "units")
    if len(units) != field.n - 1:
        raise ConfigError(f"units needs n - 1 = {field.n - 1} entries, "
                          f"got {len(units)}")
    return [field.element(_vector(u, "unit", field.n)) for u in units]


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    return _obj(cfg, "config")


def build_common(cfg, override=None):
    field = parse_field(cfg.get("field"))
    f = parse_ideal(field, cfg.get("f", "unit"))
    a = parse_ideal(field, cfg.get("a", "unit"))
    # a subcommand section may name its own smoothing ideal, by c or ell
    src = override if override and ("c" in override or "ell" in override) \
        else cfg
    if "c" in src:
        c = parse_ideal(field, src["c"])
        norm = c.norm()
        if "ell" in src and _int(src["ell"], "ell") != norm:
            raise ConfigError(f"c of norm {norm} and ell = {src['ell']} "
                              "name different smoothing ideals")
        if norm.denominator != 1:
            raise ValueError(f"the smoothing ideal's norm N(c) = {norm} "
                             "is not an integer")
        ell = int(norm)
    elif "ell" in src:
        ell = _prime(src["ell"], "ell")
        c = prime_over(field, ell)
    else:
        raise ConfigError("config needs 'c' or 'ell'")
    units = parse_units(field, cfg.get("units"))
    z = build_zeta_data(field, f, a, c, ell, units=units)
    _check_chain(z)
    return field, f, a, c, ell, z


def cmd_zeta(cfg, args, cache) -> dict:
    field, f, a, c, ell, z = build_common(cfg)
    kmax = _k_max(cfg, "2")
    crosscheck = not args.no_crosscheck

    def one(k):
        val = zeta_minus_k(z, k, crosscheck=crosscheck and k <= 2, cache=cache)
        return {"k": str(k), "value": _fmt(val),
                "checks": {"crosscheck": "passed" if crosscheck and k <= 2
                           else "skipped"}}

    rows = [one(k) for k in range(kmax + 1)]
    return {"field": [str(cc) for cc in cfg["field"]["poly"]],
            "f": cfg.get("f", "unit"), "a": cfg.get("a", "unit"),
            "ell": str(ell), "rho": str(z.rho), "values": rows}


def cmd_padic_zeta(cfg, args, cache) -> dict:
    pcfg = _obj(cfg.get("padic", {}), "padic")
    p = _prime(pcfg.get("p", "3"), "p")
    field, f, a, c, ell, z = build_common(cfg, override=pcfg)
    M = _int_min(args.precision if args.precision is not None
                 else pcfg.get("precision", "4"), "precision", 1)
    kmax = _k_max(pcfg, "2")
    h = MeasureHandle(z, p)
    region = region_units(h, f)
    _check_sweeps(h, region, [M])
    divisors = [(0, 1, z)]  # the trivial divisor
    for i, d in enumerate(_list(pcfg.get("divisors", []), "padic.divisors")):
        if not isinstance(d, dict) or "factors" not in d or "norm" not in d:
            raise ConfigError("each divisor must be an object with "
                              "'factors' and 'norm'")
        what = f"padic.divisors[{i}]"
        factors = _int_min(d["factors"], f"{what}.factors", 1)
        norm = _int(d["norm"], f"{what}.norm")
        if norm <= 1 or norm != p ** _intval(norm, p):
            raise ConfigError(f"{what}.norm must be a power of p = {p} "
                              f"above 1, got {norm}")
        da = parse_ideal(field, d.get("a", "unit"))
        dz = z if da == a else build_zeta_data(
            field, f, da, c, ell, units=parse_units(field, cfg.get("units")))
        _check_chain(dz)
        divisors.append((factors, norm, dz))
    ks = list(range(kmax + 1))
    rows = []
    for k, val in zip(ks, padic_zetas(h, region, ks, M)):
        exact = zeta_star_minus_k(z, k, divisors, cache=cache, crosscheck=(
            False if args.no_crosscheck else None))  # None: k <= 2
        target = PadicInt.from_fraction(exact, p, val.prec)
        agree = agreement_precision(val, target)
        rows.append({
            "k": str(k),
            "exact": _fmt(exact),
            "value_residue": str(val.res),
            "precision": str(val.prec),
            "M_certified": str(min(val.prec, agree)),
            "valuation": str(val.valuation()),
        })
    # criterion 6's cap: every value interpolates its exact value to M - 1
    low = [row["k"] for row in rows if int(row["M_certified"]) < M - 1]
    if low and not args.no_crosscheck:
        raise CrossCheckFailure(f"M_certified below M - 1 = {M - 1} "
                                f"at k = {', '.join(low)}")
    return {"p": str(p), "M_requested": str(M),
            "region": {"tag": region.tag, "level": str(region.t),
                       "cells": str(region.cell_count())},
            "values": rows}


def cmd_oov(cfg, args, cache) -> dict:
    ocfg = _obj(cfg.get("oov", {}), "oov")
    if "p" not in ocfg or "pi" not in ocfg:
        raise ConfigError("oov needs 'p' and 'pi' (list of generators)")
    p = _prime(ocfg["p"], "p")
    field, f, a, c, ell, z = build_common(cfg, override=ocfg)
    pis = [field.element(_vector(g, "pi generator", field.n))
           for g in _list(ocfg["pi"], "pi")]
    other = [parse_ideal(field, q)
             for q in _list(ocfg.get("other_primes", []), "other_primes")]
    levels = [_int_min(m, "level", 1)
              for m in _list(ocfg.get("levels", ["1", "2"]), "levels")]
    if not levels:
        raise ConfigError("oov.levels must name at least one level")
    r = len(pis)
    kmax = _k_max(ocfg, str(r))
    h = MeasureHandle(z, p)
    region = region_oov(h, f, pis, other)
    _check_sweeps(h, region, levels)
    # after the budget, which counts the cells a repeated level sweeps again
    if len(set(levels)) != len(levels):
        raise ConfigError(f"oov.levels repeats a level: {levels}")
    rows = []
    for M in levels:
        vals = oov_integrals(h, region, list(range(kmax + 1)), M)
        for k, v in enumerate(vals):
            rows.append({
                "level": str(M), "k": str(k),
                "residue": str(v.res), "precision": str(v.prec),
                "valuation": str(v.valuation()),
                "note": ("vanishing expected" if k < r
                         else "no vanishing asserted"),
            })
    return {"p": str(p), "r": str(r),
            "region": {"tag": region.tag, "level": str(region.t),
                       "cells": str(region.cell_count())},
            "integrals": rows}


def cmd_cocycle_check(cfg, args, cache) -> dict:
    ccfg = _obj(cfg.get("cocycle_check", {}), "cocycle_check")
    ell = _prime(ccfg.get("ell", "5"), "ell")
    n = _int_min(ccfg.get("n", "2"), "n", 2)
    count = _int_min(ccfg.get("count", "10"), "count", 0)
    seed = _int(ccfg.get("seed", "20240817"), "seed")
    rng = random.Random(seed)

    def rand_gamma():
        while True:
            rows = []
            for i in range(n):
                row = [rng.randint(-4, 4) for _ in range(n)]
                if i > 0:
                    row[0] *= ell
                rows.append(row)
            try:
                return GammaEllMatrix(rows, ell)
            except ValueError:
                continue

    relation_pass = equivariance_pass = 0
    trials = 0
    while relation_pass < count and trials < 50 * count:
        trials += 1
        g = [rand_gamma() for _ in range(n + 1)]
        tuples = [tuple(g[j] for j in range(n + 1) if j != i)
                  for i in range(n + 1)]
        if any(mat_det(first_column_matrix(t)) == 0 for t in tuples):
            continue
        q = LinearForms([[Fraction(rng.randint(-7, 7), rng.randint(1, 4))
                          for _ in range(n)]])
        try:
            for t in tuples:
                q.sign_matrix(first_column_matrix(t))
        except ValueError:
            continue
        v = tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                  for _ in range(n))
        arglist = CocycleArgs(MultiPoly.constant(n, 1), q, v)
        total = Fraction(0)
        for i, t in enumerate(tuples):
            total += (-1) ** i * psi_ell(t, arglist, ell, cache=cache)
        if total != 0:
            raise CrossCheckFailure("cocycle relation violated")
        relation_pass += 1
        # equivariance on the first tuple
        gamma = g[0]
        try:
            lhs = psi_ell(tuple(gamma @ t for t in tuples[0]), arglist, ell)
            rhs = module_action(gamma.mat,
                                lambda ar: psi_ell(tuples[0], ar, ell),
                                arglist)
        except ValueError:
            continue
        if lhs != rhs:
            raise CrossCheckFailure("equivariance violated")
        equivariance_pass += 1
    return {"ell": str(ell), "n": str(n),
            "cocycle_relations_checked": str(relation_pass),
            "equivariance_checked": str(equivariance_pass)}


def cmd_selftest(cfg, args, cache) -> dict:
    """Fast invariant suite across the modules; one line per check."""
    results = []

    def check(name, fn):
        try:
            fn()
            results.append({"name": name, "status": "pass"})
            print(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - report, not crash
            results.append({"name": name, "status": f"fail: {exc}"})
            print(f"FAIL {name}: {exc}")

    def exact_core():
        from .exact import coset_reps, hnf, mat_mul
        h, u = hnf(((2, 1), (0, 1)))
        assert mat_mul(((2, 1), (0, 1)), u) == h
        assert len(coset_reps(((2, 0), (0, 3)))) == 6

    def bernoulli_dist():
        from .bernoulli import B_e
        lhs = B_e((2, 1), (Fraction(1, 3), Fraction(2, 5)))
        rhs = sum(B_e((2, 1), ((Fraction(1, 3) + y0) / 2,
                               (Fraction(2, 5) + y1) / 2))
                  for y0 in range(2) for y1 in range(2))
        assert lhs == Fraction(2) ** 1 * rhs

    def fast_path():
        from .dedekind import (LinearFormModL, b1_L_z_fast, b_L_z,
                               b_L_z_direct)
        L = LinearFormModL(5, (1, 3))
        s = ((1, -1),)
        x = (Fraction(1, 2), Fraction(3, 4))
        assert b1_L_z_fast(L, x, s) == [b_L_z_direct((1, 1), L, z, x, s)
                                        for z in range(5)]
        for z in range(5):
            # mixed weight with an integral (sign-defect) coordinate
            x = (Fraction(1, 3), Fraction(0))
            assert b_L_z((2, 1), L, z, x, s) == b_L_z_direct((2, 1), L, z, x, s)

    def zeta_value():
        F = NumberField([-5, 0, 1])
        one = Ideal.unit_ideal(F)
        c = prime_over(F, 11)
        z = build_zeta_data(F, one, one, c, 11)
        assert zeta_minus_k(z, 1, cache=cache) == -4

    def measure_additivity():
        F = NumberField([-5, 0, 1])
        one = Ideal.unit_ideal(F)
        c = prime_over(F, 11)
        z = build_zeta_data(F, one, one, c, 11)
        h = MeasureHandle(z, 3)
        parent = h.measure_box((1, 1), 1)
        kids = sum(h.measure_box((1 + 3 * d0, 1 + 3 * d1), 2)
                   for d0 in range(3) for d1 in range(3))
        assert parent == kids

    def units_regulator():
        F = NumberField([-1, -3, 0, 1])
        e1, e2 = F.element([0, 0, 1]), F.element([1, 2, 1])
        assert regulator_det_sign(F, [e2, e1]) == \
            -regulator_det_sign(F, [e1, e2])
        try:
            regulator_det_sign(F, [e1, e1 * e1])
        except DependentUnits:
            return
        raise AssertionError("dependent units were not rejected")

    check("exact-core", exact_core)
    check("bernoulli-distribution", bernoulli_dist)
    check("cyclotomic-fast-path", fast_path)
    check("zeta-sqrt5-minus1", zeta_value)
    check("measure-additivity", measure_additivity)
    check("units-regulator", units_regulator)
    ok = all(r["status"] == "pass" for r in results)
    return {"ok": ok, "checks": results}


COMMANDS = {
    "zeta": cmd_zeta,
    "padic-zeta": cmd_padic_zeta,
    "oov": cmd_oov,
    "cocycle-check": cmd_cocycle_check,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eisenzeta",
        description="Smoothed Eisenstein cocycle: exact zeta values and "
                    "p-adic integrals for totally real fields")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--cache", default=None, help="cache directory")
    parser.add_argument("--no-crosscheck", action="store_true")
    parser.add_argument("--precision", type=int, default=None,
                        help="padic-zeta only: the Riemann level M, "
                             "overriding padic.precision")
    parser.add_argument("--json-out", default=None)
    args = parser.parse_args(argv)
    if args.precision is not None and args.command != "padic-zeta":
        print(f"config error: --precision applies to padic-zeta only, "
              f"not {args.command}", file=sys.stderr)
        return EXIT_CONFIG

    cache = None
    if args.cache:
        try:
            os.makedirs(args.cache, exist_ok=True)
            cache = DedekindCache(os.path.join(args.cache, "dedekind.tsv"))
        except (OSError, ValueError) as exc:
            print(f"config error: unusable cache {args.cache}: {exc}",
                  file=sys.stderr)
            return EXIT_CONFIG

    cfg = {}
    if args.config:
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    elif args.command not in ("selftest", "cocycle-check"):
        print("config error: --config is required for this command",
              file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = COMMANDS[args.command](cfg, args, cache)
    except (ConfigError, TooManyCells) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CrossCheckFailure as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except (ValueError, ArithmeticError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    report = {
        "schema": SCHEMA,
        "command": args.command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "result": result,
    }
    out = json.dumps(report, indent=2, sort_keys=True)
    try:
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        print(out)
        if cache is not None:
            cache.save()
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "selftest" and not result.get("ok", True):
        return EXIT_CROSSCHECK
    return 0


if __name__ == "__main__":
    sys.exit(main())
