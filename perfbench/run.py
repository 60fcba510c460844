"""eisenzeta benchmark: oracle-checked CLI workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload zeta-exact|padic|all \
        [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: the benchmark runs one repetition at a time, and a
repetition runs each of the workload's jobs once, every job in a fresh
interpreter (the CLI refills process-global tables on every run) with
``--threads`` at its default of 1.  Repetitions start until ``--seconds``
would be exceeded; each is checked against the oracles in
``workloads.py``, and a calibration loop is timed before and after it so a
run taken during a slow phase of the machine shows in the results file.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json: times
as the minimum over the repetitions, memory as the median.  ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics of the traced repetition with the median wall time (see
``tracer.py`` and METRICS.md).  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` operations, and
``metrics``.  Full results, calibration times and spans are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
CLOCK = time.monotonic
CHILD_TIMEOUT_S = 120

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import MODULES  # noqa: E402


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (a drift diagnostic)."""
    start = CLOCK()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return CLOCK() - start


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "git": git_sha()}


def git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --- one job in a fresh interpreter -----------------------------------------

def run_job(job, work: str, trace: bool) -> dict:
    """Run one CLI job in a child process; times, memory, ops and report."""
    cfg_path = os.path.join(work, f"{job.label}.config.json")
    report_path = os.path.join(work, f"{job.label}.report.json")
    meas_path = os.path.join(work, f"{job.label}.measure.json")
    spec_path = os.path.join(work, f"{job.label}.spec.json")
    for path in (report_path, meas_path):
        if os.path.exists(path):
            os.remove(path)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(job.config, fh)
    argv = [job.command, "--config", cfg_path, "--json-out", report_path,
            *job.flags]
    cache_dir = None
    if job.cache:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work)
        argv += ["--cache", cache_dir]
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "argv": argv, "trace": trace, "out": meas_path,
                   "setup_boundary": job.setup_boundary}, fh)
    out = {"label": job.label, "traced": trace, "error": None}
    spawn = CLOCK()
    try:
        proc = subprocess.run([sys.executable, CHILD, spec_path], cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
        return _fail_ops(job, out)
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0 or not os.path.exists(meas_path):
        out["error"] = f"child exit {proc.returncode}: {proc.stderr[-400:]}"
        return _fail_ops(job, out)
    with open(meas_path, encoding="utf-8") as fh:
        meas = json.load(fh)
    if meas["rc"] != 0 or meas["setup_end"] is None \
            or not os.path.exists(report_path):
        out["error"] = f"eisenzeta exit {meas['rc']}: {proc.stderr[-400:]}"
        return _fail_ops(job, out)
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("timestamp", None)
    ops = job.check(report["result"])
    if len(ops) != job.ops:
        ops.append((f"{job.label} row count", False,
                    f"{len(ops)} rows, expected {job.ops}"))
    out.update(setup_s=meas["setup_end"] - spawn,
               job_s=meas["end"] - meas["setup_end"],
               wall_s=meas["end"] - spawn,
               rss_mib=meas["rss_kib"] / 1024, ops=ops, report=report)
    if job.certified is not None:
        out["certified"] = job.certified(report["result"])
    if trace:
        out["trace"] = meas["trace"]
        out["restored"] = meas["restored"]
        out["trace_ok"] = trace_covers_main(meas)
    return out


def trace_covers_main(meas: dict) -> bool:
    """True when the traced run's only root span is ``cli.main``, it lies
    inside the interval the child timed around ``main``, and it is all the
    time the tracer counted at the root.  Module self times add up to that
    root time by construction, so this ties them to the measured run."""
    tr = meas["trace"]
    roots = [s for s in tr["spans"] if s[4] == -1]
    if len(roots) != 1 or roots[0][1] != "cli.main":
        return False
    _, _, start, end, _ = roots[0]
    return meas["start"] <= start <= end <= meas["end"] \
        and tr["root_total"] == end - start


def _fail_ops(job, out: dict) -> dict:
    out["ops"] = [(f"{job.label} op {i}", False, out["error"])
                  for i in range(job.ops)]
    return out


def run_rep(wl, work: str, trace: bool) -> dict:
    before = calibrate()
    jobs = [run_job(job, work, trace) for job in wl.jobs]
    after = calibrate()
    rep = {"traced": trace, "jobs": jobs, "calib_s": [before, after]}
    if all(j["error"] is None for j in jobs):
        rep["setup_s"] = sum(j["setup_s"] for j in jobs)
        rep["job_s"] = sum(j["job_s"] for j in jobs)
        rep["wall_s"] = sum(j["wall_s"] for j in jobs)
        rep["rss_mib"] = max(j["rss_mib"] for j in jobs)
    return rep


# --- per-layer metrics from traced jobs --------------------------------------

def layer_metrics(jobs: list) -> dict:
    """Per-layer metrics of one traced repetition (its jobs summed)."""
    stats, self_by_mod, counters = {}, dict.fromkeys(MODULES, 0.0), {}
    wall = root = 0.0
    for job in jobs:
        tr = job["trace"]
        for name, (calls, total, own) in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for mod, own in tr["module_self"].items():
            self_by_mod[mod] += own
        for key, val in tr["counters"].items():
            if key == "padic.kernel_maps":
                counters[key] = max(counters.get(key, 0), val)
            else:
                counters[key] = counters.get(key, 0) + val
        wall += job["wall_s"]
        root += tr["root_total"]

    def calls(name):
        return stats.get(name, [0])[0]

    def total(name):
        return stats.get(name, [0, 0.0])[1]

    def count(key):
        return counters.get(key, 0)

    m = {f"{mod}.self_s": own for mod, own in self_by_mod.items()}
    m.update({
        "exact.coset_reps.calls": calls("exact.coset_reps"),
        "exact.cosets": count("exact.cosets"),
        "exact.coset_reps_s": total("exact.coset_reps"),
        "exact.compose_matrix_s": total("exact.MultiPoly.compose_matrix"),
        "exact.lattice_hnf_s": total("exact.lattice_hnf"),
        "cyclotomic.inverse.calls": calls("cyclotomic.CycloElement.inverse"),
        "cyclotomic.inverse_s": total("cyclotomic.CycloElement.inverse"),
        "bernoulli.B_e_Q.calls": calls("bernoulli.B_e_Q"),
        "bernoulli.B_e_Q_s": total("bernoulli.B_e_Q"),
        "dedekind.d_ell.calls": calls("dedekind.d_ell"),
        "dedekind.d_ell_s": total("dedekind.d_ell"),
        "dedekind.b_L_z_direct.calls": calls("dedekind.b_L_z_direct"),
        "dedekind.b_L_z_direct_s": total("dedekind.b_L_z_direct"),
        "dedekind.levelset_points": count("dedekind.levelset_points"),
        "dedekind.b1_L_z_fast.calls": calls("dedekind.b1_L_z_fast"),
        "dedekind.b1_L_z_fast_s": total("dedekind.b1_L_z_fast"),
        "dedekind.cache_hits": count("dedekind.cache_hits"),
        "dedekind.cache_misses": count("dedekind.cache_misses"),
        "dedekind.cache_entries": count("dedekind.cache_entries"),
        "dedekind.cache_save_s": total("dedekind.DedekindCache.save"),
        "cocycle.psi_ell_chain.calls": calls("cocycle.psi_ell_chain"),
        "cocycle.pr_coefficients_s": total("cocycle.pr_coefficients"),
        "cocycle.d_ell_terms": count("cocycle.d_ell_terms"),
        "numberfield.sign_at.calls": calls("numberfield.NumberField.sign_at"),
        "numberfield.sign_at_s": total("numberfield.NumberField.sign_at"),
        "numberfield.refine_root.calls":
            calls("numberfield.NumberField.refine_root"),
        "zeta.build_zeta_data_s": total("zeta.build_zeta_data"),
        "zeta.zeta_minus_k_s": total("zeta.zeta_minus_k"),
        "zeta.crosscheck_s": count("zeta.crosscheck_s"),
        "zeta.zeta_star_minus_k_s": total("zeta.zeta_star_minus_k"),
        "padic.measure_handle_s": total("padic.MeasureHandle.__init__"),
        "padic.region_s": total("padic.region_units")
        + total("padic.region_oov"),
        "padic.region_cells": count("padic.region_cells"),
        "padic.kernel_maps": count("padic.kernel_maps"),
        "padic.integrate_cells.calls": calls("padic.integrate_cells"),
        "padic.integrate_cells_s": total("padic.integrate_cells"),
        "padic.sweep_self_s": stats.get("padic.integrate_cells",
                                        [0, 0.0, 0.0])[2],
        "padic.integrand.calls": calls("padic.integrand"),
        "padic.integrand_s": total("padic.integrand"),
        "padic.cells_swept": count("padic.cells_swept"),
        "padic.cells_in_region": count("padic.cells_in_region"),
        "padic.fallback_cells": count("padic.fallback_cells"),
        "padic.padic_zeta_s": total("padic.padic_zeta"),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - root,
        "trace.spans": sum(len(j["trace"]["spans"]) for j in jobs),
    })
    lookups = count("dedekind.cache_hits") + count("dedekind.cache_misses")
    m["dedekind.cache_hit_ratio"] = \
        count("dedekind.cache_hits") / lookups if lookups else 0.0
    cells = count("padic.cells_in_region")
    m["padic.fallback_ratio"] = \
        count("padic.fallback_cells") / cells if cells else 0.0
    for key, val in counters.items():
        if key.startswith(("cocycle.psi_ell_chain_s.",
                           "padic.oov_integrals_s.")):
            m[key] = val
    return m


# --- one measured run -------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict,
            log=print) -> dict:
    wl = workloads.build(name, seed)
    log(f"# variant for seed {seed}: {wl.variant}")
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    reps = []
    need = 2 if trace else 3
    deadline = CLOCK() + seconds
    try:
        while True:
            traced = trace and len(reps) % 2 == 1
            started = CLOCK()
            reps.append(run_rep(wl, work, traced))
            took = CLOCK() - started
            if len(reps) >= need and CLOCK() + took > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(wl, seed, seconds, trace, reps, spec, log)


def summarize(wl, seed, seconds, trace, reps, spec, log) -> dict:
    attempted = failed = 0
    problems = []
    reference = {}
    first_ops = True
    for i, rep in enumerate(reps):
        for job in rep["jobs"]:
            ops = job["ops"]
            if "report" in job:
                ref = reference.setdefault(job["label"], job["report"])
                if job["report"] != ref:  # byte-for-byte, bar the timestamp
                    problems.append(f"rep {i} {job['label']}: report differs "
                                    f"from rep 0 (traced={job['traced']})")
                    ops = [(n, False, d + " report-differs")
                           for n, _, d in ops]
            if job.get("restored") is False:
                problems.append(f"rep {i} {job['label']}: wrappers left")
            if job.get("trace_ok") is False:
                problems.append(f"rep {i} {job['label']}: root span is not "
                                "cli.main inside the timed run")
            for op_name, ok, detail in ops:
                attempted += 1
                failed += not ok
                if first_ops or not ok:
                    log(f"op  {wl.name:<10} {op_name:<22} "
                        f"{'ok' if ok else 'FAILED'}  {detail}")
        first_ops = False

    good = [r for r in reps if "job_s" in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (trace and not traced):
        raise RuntimeError("no repetition completed: "
                           + "; ".join(j["error"] or "" for r in reps
                                       for j in r["jobs"])[-800:])
    for i, rep in enumerate(reps):
        if "job_s" in rep:
            log(f"rep {i:3d} {'traced ' if rep['traced'] else 'plain  '}"
                f"setup_s={rep['setup_s']:.4f} job_s={rep['job_s']:.4f} "
                f"rss={rep['rss_mib']:.1f}MiB calib_ms="
                f"{rep['calib_s'][0] * 1e3:.1f}/{rep['calib_s'][1] * 1e3:.1f}")

    # Times are min-of-N: the machine's slow phases change a run's median
    # far more than its minimum (METRICS.md).
    e2e = {"setup_s": min(r["setup_s"] for r in plain),
           "job_s": min(r["job_s"] for r in plain),
           "peak_rss_mib": statistics.median([r["rss_mib"] for r in plain])}
    layers = {}
    if trace:
        # one traced repetition, so its module self times and unattributed
        # time add up to its wall time as printed, and its spans are saved
        shown = sorted(traced, key=lambda r: r["wall_s"])[
            (len(traced) - 1) // 2]
        layers = layer_metrics(shown["jobs"])
        layers["trace.overhead_s"] = \
            min(r["job_s"] for r in traced) - e2e["job_s"]
        for label in ("padic-zeta", "oov"):  # digits the reports certify
            digits = [j["certified"] for r in good for j in r["jobs"]
                      if j["label"] == label]
            layers[f"padic.certified_prec.{label}"] = min(digits, default=0)
    for msg in problems:
        log(f"problem: {msg}")

    names = spec["per_layer"] if trace else spec["end_to_end"]
    values = layers if trace else e2e
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in names}
    calib = [c for r in reps for c in r["calib_s"]]
    log(f"calibration loop: median {statistics.median(calib) * 1e3:.1f} ms, "
        f"min {min(calib) * 1e3:.1f}, max {max(calib) * 1e3:.1f} "
        f"over {len(calib)} timings")
    for key, val in metrics.items():
        log(f"metric {wl.name} {key} = {val['value']:.6g} {val['unit']}")
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}

    tag = f"{wl.name}-seed{seed}-trace{int(trace)}"
    record = {"workload": wl.name, "seed": seed, "variant": wl.variant,
              "seconds": seconds, "machine": machine(), "result": result,
              "problems": problems, "reps": [
                  {k: v for k, v in r.items() if k != "jobs"}
                  | {"jobs": [{k: v for k, v in j.items()
                               if k not in ("trace", "report")}
                              for j in r["jobs"]]}
                  for r in reps]}
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        spans = {j["label"]: j["trace"]["spans"] for j in shown["jobs"]}
        with open(os.path.join(OUT, tag + ".spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(spans, fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eisenzeta", "cli.py")):
        print(f"error: eisenzeta sources not found under {SRC}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    names = workloads.NAMES if args.workload == "all" else [args.workload]
    info = machine()
    print(f"# eisenzeta benchmark seed={args.seed} trace={args.trace} "
          f"seconds={seconds:g}")
    print(f"# machine: cores={info['cores']} cpu={info['cpu']} "
          f"python={info['python']} git={info['git']}")
    results = {}
    for name in names:
        print(f"# workload {name}: {workloads.WHY[name]}")
        try:
            results[name] = measure(name, args.seed, seconds,
                                    bool(args.trace), spec)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{key}": val
                             for name, r in results.items()
                             for key, val in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
