"""Checks of the benchmark itself.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` from the
repository root (or ``python3 perfbench/test_perfbench.py``).  Two tests
start the CLI in child processes on the padic workload's oov job (about a second each).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_arithmetic_on_synthetic_tree():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def leaf():  # aggregated, 0.5 s
        clock.advance(0.5)

    def middle():  # 1 s own + two leaves
        clock.advance(0.25)
        tr.call("b.leaf", "b", True, leaf, (), {})
        clock.advance(0.75)
        tr.call("b.leaf", "b", True, leaf, (), {})

    def root():  # 2 s own + middle (2 s)
        clock.advance(1.0)
        tr.call("a.middle", "a", False, middle, (), {})
        clock.advance(1.0)

    tr.call("c.root", "c", False, root, (), {})
    clock.advance(3.0)  # after the root: unattributed
    tr.call("c.root", "c", False, root, (), {})

    assert tr.module_self == {"c": 4.0, "a": 2.0, "b": 2.0}
    assert tr.stats["b.leaf"][:3] == [4, 2.0, 2.0]
    assert tr.stats["a.middle"][:3] == [2, 4.0, 2.0]
    assert tr.root_total == 8.0
    wall = clock.now
    unattributed = wall - tr.root_total
    assert sum(tr.module_self.values()) + unattributed == wall == 11.0
    # aggregated calls leave no span record
    assert [s[1] for s in tr.spans] == ["a.middle", "c.root"] * 2


def _correct_result(name):
    """A report whose every row matches the oracle."""
    if name == "zeta-exact-sqrt5":
        return {"values": [
            {"k": str(k), "checks": {"crosscheck": "passed" if k <= 2
                                     else "skipped"},
             "value": str((1 - Fraction(11) ** (1 + k))
                          * workloads.ZETA_F["sqrt5"].get(k, Fraction(0)))}
            for k in range(7)]}
    raise KeyError(name)


def test_wrong_oracle_value_fails_exactly_one_operation():
    result = _correct_result("zeta-exact-sqrt5")
    good = workloads.build("zeta-exact", 0).jobs[1]
    assert all(ok for _, ok, _ in good.check(result))
    wrong = {key: dict(vals) for key, vals in workloads.ZETA_F.items()}
    wrong["sqrt5"][3] = Fraction(1, 61)
    job = workloads.build("zeta-exact", 0, table=wrong).jobs[1]
    ops = job.check(result)
    assert len(ops) == 7
    assert [name for name, ok, _ in ops if not ok] == ["sqrt5 k=3"]
    # the run carries on and reports the failure
    rep = {"traced": False, "calib_s": [0.01, 0.01], "setup_s": 0.1,
           "job_s": 0.2, "wall_s": 0.3, "rss_mib": 20.0,
           "jobs": [{"label": "sqrt5", "traced": False, "error": None,
                     "ops": ops, "report": {"result": result}}]}
    spec = {"end_to_end": [{"name": "job_s", "unit": "s"}]}
    wl = workloads.build("zeta-exact", 0)
    os.makedirs(run.OUT, exist_ok=True)
    out = run.summarize(wl, 12345, 1, False, [rep, rep, rep], spec,
                        log=lambda *a: None)
    assert out["attempted"] == 21 and out["failed"] == 3
    assert out["correct"] is False
    os.remove(os.path.join(run.OUT, "zeta-exact-seed12345-trace0.json"))


def test_oov_level_one_vanishing_rows_can_fail():
    rows = [("1", "0", "7", "7", "0"), ("1", "1", "1", "6", "1221682"),
            ("1", "2", "2", "5", "82159"), ("2", "0", "8", "8", "0"),
            ("2", "1", "2", "7", "17135899"), ("2", "2", "3", "6", "1357620")]
    keys = ("level", "k", "valuation", "precision", "residue")
    result = {"integrals": [dict(zip(keys, row)) for row in rows]}
    check = workloads.build("padic", 0).jobs[1].check
    assert all(ok for _, ok, _ in check(result))
    result["integrals"][1]["residue"] = "1221683"  # not 0 mod 11
    assert [n for n, ok, _ in check(result) if not ok] == ["oov level=1 k=1"]


def test_root_span_check_rejects_a_bad_trace():
    def meas(spans, root_total, start=0.5, end=2.5):
        return {"start": start, "end": end,
                "trace": {"spans": spans, "root_total": root_total}}

    main = [1, "cli.main", 1.0, 2.0, -1]
    child = [0, "cli.build_common", 1.2, 1.4, 1]
    assert run.trace_covers_main(meas([child, main], 1.0))
    assert not run.trace_covers_main(meas([child, main], 1.2))  # counted twice
    assert not run.trace_covers_main(meas([child, main], 1.0, start=1.1))
    assert not run.trace_covers_main(meas([child[:4] + [-1]], 0.2))


def test_traced_and_untraced_reports_agree_and_wrappers_are_removed():
    job = workloads.build("padic", 0).jobs[1]
    assert job.label == "oov"
    os.makedirs(run.OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="test-", dir=run.OUT)
    try:
        plain = run.run_job(job, work, trace=False)
        traced = run.run_job(job, work, trace=True)
    finally:
        shutil.rmtree(work)
    assert plain["error"] is None and traced["error"] is None
    assert plain["report"] == traced["report"]  # timestamp already dropped
    assert traced["restored"] is True
    assert traced["trace_ok"] is True
    assert all(ok for _, ok, _ in plain["ops"] + traced["ops"])
    metrics = run.layer_metrics([traced])
    assert metrics["padic.cells_swept"] == 11 ** 2 + 11 ** 4
    assert metrics["padic.kernel_maps"] == 19
    spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    produced = set(metrics) | {"trace.overhead_s",
                               "padic.certified_prec.padic-zeta",
                               "padic.certified_prec.oov",
                               "cocycle.psi_ell_chain_s.deg0",
                               "cocycle.psi_ell_chain_s.deg2",
                               "cocycle.psi_ell_chain_s.deg3",
                               "cocycle.psi_ell_chain_s.deg4",
                               "cocycle.psi_ell_chain_s.deg6",
                               "cocycle.psi_ell_chain_s.deg8",
                               "cocycle.psi_ell_chain_s.deg10",
                               "cocycle.psi_ell_chain_s.deg12"}
    missing = {m["name"] for m in spec["per_layer"]} - produced
    assert not missing, missing


def test_uninstall_restores_every_binding():
    sys.path.insert(0, run.SRC)
    import eisenzeta.cli  # noqa: F401  (loads every module)

    mods = {n: m for n, m in sys.modules.items()
            if n == "eisenzeta" or n.startswith("eisenzeta.")}

    def snapshot():
        snap = {}
        for name, mod in mods.items():
            for attr, val in vars(mod).items():
                snap[(name, attr)] = val
                if isinstance(val, type) and val.__module__ == name:
                    for cattr, cval in vars(val).items():
                        snap[(name, attr, cattr)] = cval
        return snap

    before = snapshot()
    patches = tracer.install(tracer.Tracer())
    assert len(patches) >= len(tracer.WRAPS)
    during = snapshot()
    assert any(during[k] is not before[k] for k in before)
    assert tracer.uninstall(patches) is True
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_refuses_to_run_without_sources():
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "padic",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"PASS {name}")
