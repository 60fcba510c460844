import json
import subprocess
import sys
from pathlib import Path

import pytest

import eisenzeta.cli
import eisenzeta.dedekind
import eisenzeta.padic
import eisenzeta.zeta
from eisenzeta.cli import EXIT_CONFIG, EXIT_CROSSCHECK, EXIT_PRECONDITION, main
from eisenzeta.numberfield import NumberField
from eisenzeta.padic import PadicInt
from eisenzeta.dedekind import DedekindCache

SQRT5 = {
    "field": {"poly": ["-5", "0", "1"]},
    "f": "unit",
    "a": "unit",
    "ell": "11",
    "k_max": "2",
    "padic": {"p": "3", "precision": "3", "k_max": "1",
              "divisors": [{"factors": "1", "norm": "9", "a": "unit"}]},
    "oov": {"ell": "19", "p": "11", "pi": [["4", "-1"], ["4", "1"]],
            "e": ["1", "1"], "levels": ["1"], "k_max": "2"},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip().startswith("{") else None
    return code, payload


def test_zeta_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SQRT5)
    code, report = run(["zeta", "--config", cfg], capsys)
    assert code == 0
    assert report["schema"] == "eisenzeta/v1"
    values = {row["k"]: row["value"] for row in report["result"]["values"]}
    assert values == {"0": "0", "1": "-4", "2": "0"}
    assert all(row["checks"]["crosscheck"] == "passed"
               for row in report["result"]["values"])


def test_zeta_no_crosscheck_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SQRT5)
    code, report = run(["zeta", "--config", cfg, "--no-crosscheck"], capsys)
    assert code == 0
    assert all(row["checks"]["crosscheck"] == "skipped"
               for row in report["result"]["values"])


def test_deterministic_modulo_timestamp(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SQRT5)
    _, rep1 = run(["zeta", "--config", cfg], capsys)
    _, rep2 = run(["zeta", "--config", cfg], capsys)
    rep1.pop("timestamp")
    rep2.pop("timestamp")
    assert rep1 == rep2


def test_cache_on_off_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SQRT5)
    cache_dir = str(tmp_path / "cache")
    _, plain = run(["zeta", "--config", cfg], capsys)
    _, cached = run(["zeta", "--config", cfg, "--cache", cache_dir], capsys)
    _, rerun = run(["zeta", "--config", cfg, "--cache", cache_dir], capsys)
    assert plain["result"] == cached["result"] == rerun["result"]
    assert (tmp_path / "cache" / "dedekind.tsv").exists()


def test_cache_corrupt_is_config_error(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "dedekind.tsv").write_text(
        "eisenzeta-dedekind-cache-v2\n(((1, 0), (0, 1)),)\tnot-a-number\n")
    assert main(["selftest", "--cache", str(cache_dir)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "dedekind.tsv:2" in err


def test_cache_v1_is_config_error(tmp_path, capsys):
    # a v1 file keys its records by sha256 digests, which no run computes
    # now: it is refused, with the header found and the one expected
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "dedekind.tsv").write_text(
        "eisenzeta-dedekind-cache-v1\n" + "0" * 64 + "\t1/2\n")
    assert main(["selftest", "--cache", str(cache_dir)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: unusable cache {cache_dir}:")
    assert "'eisenzeta-dedekind-cache-v1'" in err
    assert "'eisenzeta-dedekind-cache-v2'" in err and "delete" in err


GOLDEN = Path(__file__).parent / "data"


GOLDEN_ARGV = {command: [command, "--config", "golden_config.json"]
               for command in ("zeta", "padic-zeta", "oov")}
# the cubic field runs what Q(sqrt 5) never does: the irreducibility
# certificate, validation of supplied units and the regulator sign
GOLDEN_ARGV["zeta-cubic"] = ["zeta", "--config", "golden_config_cubic.json",
                             "--no-crosscheck"]


@pytest.mark.parametrize("case", list(GOLDEN_ARGV))
def test_golden_report(case, capsys):
    # reports are pinned byte for byte, timestamp aside: a refactor must
    # leave every residue, precision and valuation unchanged
    argv = [str(GOLDEN / a) if a.endswith(".json") else a
            for a in GOLDEN_ARGV[case]]
    code, report = run(argv, capsys)
    assert code == 0
    report.pop("timestamp")
    expected = json.loads((GOLDEN / "golden_reports.json").read_text())
    assert report == expected[case]


# a CLI run in a fresh interpreter without site: which modules that no
# command executes are loaded when main returns
FOOTPRINT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from eisenzeta import cli
rc = cli.main(sys.argv[3:])
loaded = sorted({"hashlib", "_hashlib", "tempfile", "typing"}
                & set(sys.modules))
with open(sys.argv[2], "w") as fh:
    json.dump({"rc": rc, "loaded": loaded}, fh)
"""


@pytest.mark.parametrize("argv", [
    ["padic-zeta", "--config", "golden_config.json"],
    ["oov", "--config", "golden_config.json"],
    ["zeta", "--config", "golden_config_cubic.json", "--no-crosscheck",
     "--cache", "CACHE"],
    ["cocycle-check"],
], ids=["padic-zeta", "oov", "zeta-cache", "cocycle-check"])
def test_import_footprint(argv, tmp_path):
    # no run imports what it does not execute: the cache keys its records
    # by their text and writes them with os alone (no hashlib, OpenSSL or
    # tempfile), and annotations name collections.abc, not typing
    src = Path(eisenzeta.cli.__file__).parents[1]
    cache = tmp_path / "cache"
    argv = [str(GOLDEN / a) if a.endswith(".json")
            else str(cache) if a == "CACHE" else a for a in argv]
    out = tmp_path / "seen.json"
    subprocess.run([sys.executable, "-S", "-c", FOOTPRINT, str(src), str(out),
                    *argv], check=True, capture_output=True, timeout=120)
    assert json.loads(out.read_text()) == {"rc": 0, "loaded": []}
    assert (cache / "dedekind.tsv").exists() == ("--cache" in argv)


def test_json_out(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SQRT5)
    out = tmp_path / "report.json"
    code, _ = run(["zeta", "--config", cfg, "--json-out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["command"] == "zeta"


def test_padic_zeta_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SQRT5)
    code, report = run(["padic-zeta", "--config", cfg], capsys)
    assert code == 0
    rows = report["result"]["values"]
    assert rows[0]["exact"] == "0"
    assert rows[1]["exact"] == "32"
    assert report["result"]["region"]["tag"] == "units"
    for row in rows:
        assert int(row["M_certified"]) >= 3


def test_padic_zeta_sweeps_once(capsys, monkeypatch):
    # every k of a run is a moment of one measure: one pass over the cells
    sweeps = []
    sweep = eisenzeta.padic.integrate_cells

    def counting(h, region, integrands, M, work_prec, powers=(1,), polys=()):
        sweeps.append((len(integrands) + len(polys)) * len(powers))
        return sweep(h, region, integrands, M, work_prec, powers, polys)

    monkeypatch.setattr(eisenzeta.padic, "integrate_cells", counting)
    code, report = run(["padic-zeta", "--config",
                        str(GOLDEN / "golden_config.json")], capsys)
    assert code == 0
    assert sweeps == [len(report["result"]["values"])] == [3]


def test_padic_zeta_calls_no_cell_integrand(capsys, monkeypatch):
    # every cell of the units region has a p-unit norm, so the one sweep
    # sums the norm's moments in closed form and calls no row integrand
    sweeps, calls = [], []
    sweep = eisenzeta.padic.integrate_cells

    def counted(g):
        return lambda prefix, xs: calls.append(prefix) or g(prefix, xs)

    def counting(h, region, integrands, M, work_prec, powers=(1,), polys=()):
        sweeps.append(len(polys))
        return sweep(h, region, [counted(g) for g in integrands], M,
                     work_prec, powers, polys)

    monkeypatch.setattr(eisenzeta.padic, "integrate_cells", counting)
    code, report = run(["padic-zeta", "--config",
                        str(GOLDEN / "golden_config.json")], capsys)
    assert code == 0 and report["result"]["values"]
    assert sweeps == [1] and calls == []


@pytest.mark.parametrize("flags,checked", [([], True),
                                           (["--no-crosscheck"], False)],
                         ids=["checked", "no-crosscheck"])
def test_padic_zeta_exact_values_once(flags, checked, capsys, monkeypatch):
    # the divisor shares the run's class data: one exact value per k, and
    # --no-crosscheck turns the exact values' cross-check off
    calls = []
    exact = eisenzeta.zeta.zeta_minus_k

    def counting(z, k, *, crosscheck=None, cache=None):
        calls.append((k, crosscheck))
        return exact(z, k, crosscheck=crosscheck, cache=cache)

    monkeypatch.setattr(eisenzeta.zeta, "zeta_minus_k", counting)
    argv = ["padic-zeta", "--config", str(GOLDEN / "golden_config.json")]
    code, report = run(argv + flags, capsys)
    assert code == 0
    assert calls == [(k, None if checked else False) for k in range(3)]
    expected = json.loads((GOLDEN / "golden_reports.json").read_text())
    report.pop("timestamp")
    assert report == expected["padic-zeta"]


@pytest.mark.parametrize("command,section,key,value,limit", [
    ("oov", "oov", "levels", ["5"], "10000000"),  # 11^10 cells
    ("padic-zeta", "padic", "precision", "15", "10000000"),  # 3^30 cells
    # 6 * 11^6 cells, each level under the limit
    ("oov", "oov", "levels", ["3"] * 6, "10000000"),
    # a level-1 region of 10007^2 cells
    ("padic-zeta", "padic", "p", "10007", "1000000"),
], ids=["oov-level-5", "padic-zeta-M-15", "oov-repeated-level",
        "padic-zeta-large-p"])
def test_sweep_over_budget_is_config_error(command, section, key, value,
                                          limit, tmp_path, capsys):
    # refused before any region cell or sweep; the alarm ends work that was
    # not refused
    import signal
    import time

    def sweeping(signum, frame):
        raise TimeoutError("the over-budget sweep started")

    cfg = json.loads(json.dumps(SQRT5))
    cfg[section][key] = value
    previous = signal.signal(signal.SIGALRM, sweeping)
    signal.alarm(5)
    try:
        start = time.monotonic()
        code = main([command, "--config", write_cfg(tmp_path, cfg)])
        assert time.monotonic() - start < 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"limit of {limit}" in err


A19 = {"gens": ["19", ["-9", "1"]]}  # the prime (19, theta - 9)


def test_padic_zeta_class_representative(tmp_path, capsys):
    # a != O: the units region is still the 8 units of O/3, and every value
    # interpolates its exact value
    cfg = json.loads((GOLDEN / "golden_config.json").read_text())
    cfg["a"] = A19
    cfg["padic"]["divisors"][0]["a"] = A19
    code, report = run(["padic-zeta", "--config", write_cfg(tmp_path, cfg)],
                       capsys)
    assert code == 0
    assert report["result"]["region"]["cells"] == "8"
    assert [row["M_certified"] for row in report["result"]["values"]] == \
        ["11", "5", "3"]


def test_padic_zeta_divisor_by_another_representative(tmp_path, capsys,
                                                      monkeypatch):
    # a divisor whose a is not the config's gets zeta data of its own; Q(sqrt
    # 5) has narrow class number 1, so (19, theta - 9) names the class of O
    # and the report is the golden one
    built = []
    build = eisenzeta.cli.build_zeta_data
    monkeypatch.setattr(eisenzeta.cli, "build_zeta_data",
                        lambda *args, **kw: built.append(args[2])
                        or build(*args, **kw))
    cfg = json.loads((GOLDEN / "golden_config.json").read_text())
    cfg["padic"]["divisors"][0]["a"] = A19
    code, report = run(["padic-zeta", "--config", write_cfg(tmp_path, cfg)],
                       capsys)
    assert code == 0
    assert [a.norm() for a in built] == [1, 19]
    report.pop("timestamp")
    expected = json.loads((GOLDEN / "golden_reports.json").read_text())
    assert report == expected["padic-zeta"]


def eps_power(k):
    """The units entry naming eps^k, eps = (3 + sqrt5)/2."""
    eps = NumberField([-5, 0, 1]).element(["3/2", "1/2"])
    return [[str(c) for c in (eps ** k).coords]]


@pytest.mark.parametrize("command, changes, cosets, limit", [
    ("zeta", {"units": eps_power(100)},
     "280571172992510140037611932413038677189525", 10 ** 4),
    ("padic-zeta", {"padic__divisors": [
        {"factors": "1", "norm": "9", "a": A19}]}, "179", 100),
], ids=["zeta-eps100", "padic-zeta-divisor"])
def test_chain_over_budget_is_config_error(command, changes, cosets, limit,
                                           tmp_path, capsys, monkeypatch):
    # each chain is priced from its terms' |det sigma_ell| and refused
    # before any coset is walked: listing eps^100's cosets would exhaust
    # memory.  The divisor's chain (a above 19) walks 179 cosets, the
    # config's 1, so a limit between them refuses it in the divisor loop
    import time

    def walk(mat):
        raise AssertionError("a coset walk started")

    monkeypatch.setattr(eisenzeta.dedekind, "coset_reps", walk)
    monkeypatch.setattr(eisenzeta.cli, "MAX_CHAIN_COSETS", limit)
    path = write_cfg(tmp_path, _with(**changes))
    start = time.monotonic()
    assert main([command, "--config", path]) == EXIT_CONFIG
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err == (
        f"config error: the unit chain walks {cosets} cosets, above the "
        f"limit of {limit}\n")


def test_padic_zeta_below_cap_is_crosscheck_failure(capsys, monkeypatch):
    # a value certified below M - 1 is an alarm while the cross-check is on
    sweep = eisenzeta.cli.padic_zetas

    def off_by_p(h, region, ks, M):
        return [PadicInt(v.p, v.prec, v.res + v.p)
                for v in sweep(h, region, ks, M)]

    monkeypatch.setattr(eisenzeta.cli, "padic_zetas", off_by_p)
    argv = ["padic-zeta", "--config", str(GOLDEN / "golden_config.json")]
    assert main(argv) == EXIT_CROSSCHECK
    assert capsys.readouterr().err.startswith("cross-check failure:")
    code, report = run(argv + ["--no-crosscheck"], capsys)
    assert code == 0
    assert {row["M_certified"] for row in report["result"]["values"]} == {"1"}


def test_padic_zeta_cubic_baseline(tmp_path, capsys):
    # the n = 3 Riemann sweep: 5 is inert in Q(theta), theta^3 = 3 theta + 1
    cfg = json.loads((GOLDEN / "golden_config_cubic.json").read_text())
    cfg["padic"] = {"p": "5", "precision": "2", "k_max": "1",
                    "divisors": [{"factors": "1", "norm": "125",
                                  "a": "unit"}]}
    code, report = run(["padic-zeta", "--config", write_cfg(tmp_path, cfg),
                        "--no-crosscheck"], capsys)
    assert code == 0
    result = report["result"]
    assert result["region"]["cells"] == "124"
    assert result["values"][1]["exact"] == "-3968"
    assert result["values"][1]["M_certified"] == "2"


def test_oov_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SQRT5)
    code, report = run(["oov", "--config", cfg], capsys)
    assert code == 0
    rows = report["result"]["integrals"]
    notes = {row["k"]: row["note"] for row in rows}
    assert notes["2"] == "no vanishing asserted"
    for row in rows:
        if int(row["k"]) < 2:
            assert int(row["valuation"]) >= int(row["level"])
    # each generator fixes its own e, so an "e" key of any length or value
    # is ignored like every unread key
    for e in (["2", "3"], ["0"], None):
        cfg = _with(oov__e=e)
        if e is None:
            del cfg["oov"]["e"]
        code, again = run(["oov", "--config", write_cfg(tmp_path, cfg)],
                          capsys)
        assert code == 0 and again["result"] == report["result"]


def test_hnf_ideals_and_smoothing_ideal_c(tmp_path, capsys):
    # a above 19 and c = (11, theta - 4), the prime "ell": "11" selects,
    # written as generators and as HNF columns (power-basis coordinates):
    # every form gives the same values
    a_gens = {"gens": ["19", ["-9", "1"]]}
    a_hnf = {"hnf": [["1/2", "21/2"], ["0", "19"]]}
    c_gens = {"gens": ["11", ["-4", "1"]]}
    c_hnf = {"hnf": [["1/2", "19/2"], ["0", "11"]]}
    results = []
    for a, c in ((a_gens, None), (a_hnf, None), (a_gens, c_gens),
                 (a_hnf, c_hnf)):
        cfg = _with(a=a)
        if c is not None:
            cfg["c"] = c
            del cfg["ell"]
        code, report = run(["zeta", "--config", write_cfg(tmp_path, cfg)],
                           capsys)
        assert code == 0 and report["result"]["ell"] == "11"
        results.append((report["result"]["rho"], report["result"]["values"]))
    assert results[0][1][1]["value"] != "0"
    assert all(r == results[0] for r in results)


def test_cocycle_check_command(capsys):
    code, report = run(["cocycle-check"], capsys)
    assert code == 0
    assert int(report["result"]["cocycle_relations_checked"]) >= 10


def test_selftest_command(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 6 and "FAIL" not in out
    assert "PASS units-regulator" in out


def test_selftest_units_regulator_can_fail(capsys, monkeypatch):
    # a regulator sign that ignores the unit order fails the check
    monkeypatch.setattr(eisenzeta.cli, "regulator_det_sign", lambda *a: 1)
    assert main(["selftest"]) == EXIT_CROSSCHECK
    assert "FAIL units-regulator" in capsys.readouterr().out


def test_selftest_failure_is_crosscheck_failure(capsys, monkeypatch):
    monkeypatch.setattr(eisenzeta.cli, "zeta_minus_k", lambda *a, **kw: 0)
    assert main(["selftest"]) == EXIT_CROSSCHECK
    assert "FAIL zeta-sqrt5-minus1" in capsys.readouterr().out


def test_config_errors(tmp_path, capsys):
    bad = write_cfg(tmp_path, {"field": {"poly": ["x"]}}, "bad.json")
    assert main(["zeta", "--config", bad]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["zeta", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["zeta"]) == EXIT_CONFIG  # config required
    capsys.readouterr()


def test_config_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["zeta", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: config is not UTF-8 text: ")


@pytest.mark.parametrize("command, section",
                         [("zeta", None), ("padic-zeta", "padic"),
                          ("oov", "oov")], ids=["top", "padic", "oov"])
def test_c_and_ell_at_one_level(command, section, tmp_path, capsys):
    # c and ell named at one level must name one prime: a c whose norm is
    # not ell exits 2 naming both, and a c of norm ell runs as c alone
    def config(**smoothing):
        cfg = json.loads(json.dumps(SQRT5))
        level = cfg if section is None else cfg[section]
        level.pop("ell", None)
        level.update(smoothing)
        return write_cfg(tmp_path, cfg, f"{'-'.join(smoothing)}.json")

    c11, c19 = {"gens": ["11", ["-4", "1"]]}, {"gens": ["19", ["-9", "1"]]}
    code = main([command, "--config", config(c=c11, ell="19")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: c of norm 11 and "
                                       "ell = 19 name different smoothing "
                                       "ideals\n")
    code, both = run([command, "--config", config(c=c19, ell="19")], capsys)
    assert code == 0
    code, alone = run([command, "--config", config(c=c19)], capsys)
    assert code == 0 and both["result"] == alone["result"]


def test_precondition_error_exit(tmp_path, capsys):
    cfg = dict(SQRT5)
    cfg["ell"] = "3"  # 5 is not a square mod 3: no degree-one prime
    path = write_cfg(tmp_path, cfg, "nop.json")
    assert main(["zeta", "--config", path]) == EXIT_PRECONDITION
    capsys.readouterr()


def test_sign_refinement_budget_is_precondition_error(tmp_path, capsys):
    # the conjugate eps^-300 of eps^300 is too close to 0 for 400 root
    # refinements to give its sign: the units are refused, not a traceback
    path = write_cfg(tmp_path, _with(units=eps_power(300)))
    assert main(["zeta", "--config", path]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        "precondition error: sign refinement did not separate from 0\n")


@pytest.mark.parametrize("ell", ["0", "1", "12", "-11"])
def test_non_prime_ell_is_config_error(ell, tmp_path, capsys, monkeypatch):
    # refused before prime_over looks for a prime above it
    def prime_over(*args):
        raise AssertionError("prime_over called")

    monkeypatch.setattr(eisenzeta.cli, "prime_over", prime_over)
    cfg = dict(SQRT5, ell=ell)
    assert main(["zeta", "--config", write_cfg(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"config error: ell must be a prime, got {int(ell)}\n"


@pytest.mark.parametrize("c, message", [
    ({"gens": ["1"]}, "norm ell = 1 is not prime"),
    ({"gens": ["2"]}, "norm ell = 4 is not prime"),
    ({"gens": ["11"]}, "norm ell = 121 is not prime"),
    ({"gens": ["1/2"]}, "norm N(c) = 1/4 is not an integer"),
], ids=["norm-1", "norm-4", "norm-121", "fractional-norm"])
def test_smoothing_ideal_of_non_prime_norm(c, message, tmp_path, capsys):
    # c = O has norm 1; refused before any loop over powers of ell, which
    # never ended at ell = 1; the alarm ends work that was not refused.  A
    # fractional norm is named as it is, not truncated to an ell
    import signal
    import time

    def hanging(signum, frame):
        raise TimeoutError("the run did not refuse c")

    cfg = {"field": {"poly": ["-5", "0", "1"]}, "c": c}
    previous = signal.signal(signal.SIGALRM, hanging)
    signal.alarm(5)
    try:
        start = time.monotonic()
        code = main(["zeta", "--config", write_cfg(tmp_path, cfg)])
        assert time.monotonic() - start < 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == EXIT_PRECONDITION
    assert capsys.readouterr().err == \
        f"precondition error: the smoothing ideal's {message}\n"


@pytest.mark.parametrize("key, value, message", [
    ("n", "0", "n must be >= 2, got 0"),
    ("n", "-2", "n must be >= 2, got -2"),
    ("ell", "0", "ell must be a prime, got 0"),
    ("ell", "4", "ell must be a prime, got 4"),
    ("count", "-1", "count must be >= 0, got -1"),
])
def test_cocycle_check_config_errors(key, value, message, tmp_path, capsys):
    cfg = {"cocycle_check": {key: value}}
    code = main(["cocycle-check", "--config", write_cfg(tmp_path, cfg)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_p_dividing_f_is_precondition_error(tmp_path, capsys):
    # f = (4), p = 2: the shift v = (1/2, -3/4) has denominators divisible
    # by p, so there is no measure on the p-adic completion
    cfg = _with(f={"gens": ["4"]}, padic__p="2")
    path = write_cfg(tmp_path, cfg, "pf.json")
    assert main(["padic-zeta", "--config", path, "--no-crosscheck"]) == \
        EXIT_PRECONDITION
    assert capsys.readouterr().err.strip() == (
        "precondition error: p must be prime to f: p = 2 divides a "
        "denominator of the shift v = (1/2, -3/4)")


@pytest.mark.parametrize("command, changes, message", [
    ("oov", {"a": {"gens": [["4", "-1"]]}}, "p = 11 divides N(a c) = 209"),
    ("padic-zeta", {"a": {"gens": [["0", "1"]]}, "padic__p": "5"},
     "p = 5 divides N(a c) = 55"),
])
def test_p_dividing_nac_is_precondition_error(tmp_path, capsys, command,
                                              changes, message):
    # a above p (4 - sqrt5 above 11, sqrt5 above 5): N(a c) is not a
    # p-unit, named before any residue mod p^M is attempted
    path = write_cfg(tmp_path, _with(**changes), "pa.json")
    assert main([command, "--config", path, "--no-crosscheck"]) == \
        EXIT_PRECONDITION
    assert capsys.readouterr().err.strip() == (
        f"precondition error: p must be prime to N(a c): {message}")


def _with(**changes):
    cfg = json.loads(json.dumps(SQRT5))
    for key, value in changes.items():
        section, _, field = key.partition("__")
        if field:
            cfg[section][field] = value
        else:
            cfg[section] = value
    return cfg


@pytest.mark.parametrize("command, cfg", [
    ("zeta", []),
    ("zeta", _with(field={"poly": 5})),
    ("padic-zeta", _with(padic__divisors=["unit"])),
    ("padic-zeta", _with(padic__divisors=[{"norm": "9", "a": "unit"}])),
    ("zeta", None),  # --config names a directory
    ("zeta", _with(k_max="-1")),
    ("zeta", _with(field={"poly": ["-5", "0", "1"], "integral_basis": [[]]})),
    ("oov", _with(oov__levels=["-1"])),
    ("oov", _with(oov__levels=["1", "0"])),
    ("padic-zeta", _with(padic__precision="-2")),
    ("padic-zeta --precision 0", SQRT5),
    ("padic-zeta --precision -2", SQRT5),
    ("oov --precision 3", SQRT5),  # the flag sets padic-zeta's level only
    # a JSON boolean is an int to Python, but no number and no ideal
    ("zeta", _with(k_max=True)),
    ("zeta", _with(field={"poly": ["-5", False, True]})),
    ("zeta", _with(a=True)),
    # a vector or column list of the wrong length
    ("zeta", _with(a={"hnf": [["1", "0"]]})),
    ("zeta", _with(a={"hnf": [["1"], ["0", "1"]]})),
    ("zeta", _with(field={"poly": ["-5", "0", "1"],
                          "integral_basis": [["1", "0"]]})),
    ("zeta", _with(a={"gens": ["19", ["-9", "1", "0"]]})),
    ("zeta", _with(units=[["2"]])),
    ("oov", _with(oov__pi=[["4", "-1"], ["4"]])),
], ids=["top-level-list", "poly-not-list", "divisor-not-object",
        "divisor-without-factors", "config-is-directory", "negative-k_max",
        "integral-basis-column-length", "negative-level", "zero-level",
        "negative-precision", "zero-precision-flag",
        "negative-precision-flag", "precision-flag-outside-padic-zeta",
        "boolean-k_max", "boolean-poly-coefficient", "boolean-ideal",
        "hnf-one-column", "hnf-short-column", "integral-basis-one-column",
        "gens-long-vector", "units-short-vector", "oov-pi-short-vector"])
def test_config_shape_errors(command, cfg, tmp_path, capsys):
    # command is the subcommand, followed by any flags
    path = str(tmp_path) if cfg is None else write_cfg(tmp_path, cfg)
    assert main([*command.split(), "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("poly, units", [
    (["-1", "-3", "0", "1"], [["0", "0", "1"]]),
    (["-1", "-3", "0", "1"], [["0", "0", "1"], ["1", "2", "1"],
                              ["0", "0", "1"]]),
    (["-5", "0", "1"], [["7/2", "3/2"], ["7/2", "3/2"]]),
], ids=["cubic-1", "cubic-3", "sqrt5-2"])
def test_unit_count_is_config_error(poly, units, tmp_path, capsys):
    # a units list names a basis of n - 1 units; any other length is a
    # config error that names the key, refused before a unit is checked
    cfg = {"field": {"poly": poly}, "units": units, "ell": "19"}
    code = main(["zeta", "--config", write_cfg(tmp_path, cfg)])
    assert code == EXIT_CONFIG
    n = len(poly) - 1
    assert capsys.readouterr().err == (f"config error: units needs n - 1 = "
                                       f"{n - 1} entries, got {len(units)}\n")


@pytest.mark.parametrize("divisor, message", [
    ({"factors": "-1", "norm": "9"}, "factors must be >= 1, got -1"),
    ({"factors": "0", "norm": "1"}, "factors must be >= 1, got 0"),
    ({"factors": "1", "norm": "-9"}, "norm must be a power of p = 3 above 1, "
                                     "got -9"),
    ({"factors": "1", "norm": "6"}, "norm must be a power of p = 3 above 1, "
                                    "got 6"),
    ({"factors": "1", "norm": "1"}, "norm must be a power of p = 3 above 1, "
                                    "got 1"),
], ids=["negative-factors", "trivial-divisor", "negative-norm",
        "norm-not-a-power-of-p", "norm-one"])
def test_divisor_entry_is_config_error(divisor, message, tmp_path, capsys):
    # the CLI adds the trivial divisor itself, so an entry names a divisor
    # with at least one prime factor and a norm p^f, f >= 1; anything else
    # is refused by name, not summed into the cross-check
    cfg = _with(padic__divisors=[{"factors": "1", "norm": "9", "a": "unit"},
                                 dict(divisor, a="unit")])
    path = write_cfg(tmp_path, cfg)
    assert main(["padic-zeta", "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"config error: padic.divisors[1].{message}\n"


@pytest.mark.parametrize("levels, message", [
    ([], "oov.levels must name at least one level"),
    (["2", "2"], "oov.levels repeats a level: [2, 2]"),
], ids=["empty", "repeated"])
def test_oov_levels_is_config_error(levels, message, tmp_path, capsys):
    path = write_cfg(tmp_path, _with(oov__levels=levels))
    assert main(["oov", "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command, changes, p", [
    ("padic-zeta", {"padic__p": "4"}, 4),
    ("oov", {"oov__p": "9"}, 9),
], ids=["padic-zeta-4", "oov-9"])
def test_non_prime_p_is_config_error(command, changes, p, tmp_path, capsys,
                                     monkeypatch):
    # refused like a non-prime ell, before any zeta data is built
    def build_common(*args, **kwargs):
        raise AssertionError("build_common called")

    monkeypatch.setattr(eisenzeta.cli, "build_common", build_common)
    path = write_cfg(tmp_path, _with(**changes))
    assert main([command, "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"config error: p must be a prime, got {p}\n"


@pytest.mark.parametrize("trusted", [False, "false", True, 1],
                         ids=["json-false", "string-false", "json-true",
                              "integer-one"])
def test_trusted_is_a_json_boolean(trusted, tmp_path, capsys):
    # x^2 - 4 is reducible, and irreducibility is decided exactly: a
    # field.trusted key, of any type, is ignored like every unread key
    cfg = _with(field={"poly": ["-4", "0", "1"], "trusted": trusted})
    assert main(["zeta", "--config", write_cfg(tmp_path, cfg)]) \
        == EXIT_PRECONDITION
    assert capsys.readouterr().err == ("precondition error: polynomial is "
                                       "not irreducible: it has the integer "
                                       "root -2\n")


@pytest.mark.parametrize("trusted", [False, True])
def test_reducible_cubic_names_its_root(trusted, tmp_path, capsys):
    # t^3 - t^2 - 5t + 5 = (t - 1)(t^2 - 5), trusted or not
    cfg = _with(field={"poly": ["5", "-5", "-1", "1"], "trusted": trusted},
                units=[["0", "1", "0"], ["2", "1", "0"]])
    assert main(["zeta", "--config", write_cfg(tmp_path, cfg)]) \
        == EXIT_PRECONDITION
    assert capsys.readouterr().err == ("precondition error: polynomial is "
                                       "not irreducible: it has the integer "
                                       "root 1\n")


@pytest.mark.parametrize("c", [None, {"gens": ["11", ["-4", "1"]]}],
                         ids=["ell", "c"])
def test_integral_basis_not_a_ring(c, tmp_path, capsys):
    # Z + Z (1 + theta)/3 holds Z[theta] but not ((1 + theta)/3)^2: the
    # product is named, where the prime search or N(c) failed before
    cfg = {"field": {"poly": ["-5", "0", "1"],
                     "integral_basis": [["1", "0"], ["1/3", "1/3"]]},
           "ell": "11"}
    if c is not None:
        cfg["c"] = c
    assert main(["zeta", "--config", write_cfg(tmp_path, cfg)]) \
        == EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        "precondition error: integral basis is not a ring: the product of "
        "its elements 2 and 2, (2/3, 2/9) on the power basis, is not in its "
        "span\n")


def test_json_out_missing_directory(tmp_path, capsys):
    cfg = write_cfg(tmp_path, _with(k_max="0"))
    out = tmp_path / "missing" / "report.json"
    assert main(["zeta", "--config", cfg, "--json-out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_cache_save_failure_is_config_error(tmp_path, capsys, monkeypatch):
    def fail(self, path=None):
        raise OSError("disk full")

    monkeypatch.setattr(DedekindCache, "save", fail)
    cfg = write_cfg(tmp_path, _with(k_max="0"))
    code = main(["zeta", "--config", cfg, "--cache", str(tmp_path / "cache")])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert json.loads(captured.out)["command"] == "zeta"
    assert captured.err.startswith("config error:") and "disk full" in captured.err
