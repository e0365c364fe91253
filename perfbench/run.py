"""Outside-in benchmark of `uadi solve`: time to tolerance per job.

    python3 perfbench/run.py --workload {bt-rlc,sylv-penzl,static-rlc,all}
                             --seed N --seconds S --trace 0|1

Run from the repository root.  The unit of work is one `uadi solve` job
(``uadi.cli.run`` on a ``RunConfig`` with an output directory), each in a
fresh process (job.py), one at a time, in a closed loop: the next job
starts when the previous one has ended, until ``--seconds`` of jobs have
run.  The BLAS thread count is fixed to one, for this process and each
job, before numpy is imported.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with
tracing off.  Their times are wall times divided by the host slowdown that
a fixed reference kernel (refkernel.py) measured around the same job, so
that they read as seconds at a fixed host speed; the undivided total and
the slowdown are printed beside them.  ``--trace 1`` alternates untraced
and traced jobs and reports the per-layer metrics, undivided: medians over
the traced jobs, plus the tracing overhead against the untraced ones.  Every job must converge on every
equation with two large solves per iteration; the first job of each run
also passes the correctness gate (gate.py).  The exact counts (iterations,
large solves, factorizations, basis widths) must repeat across the jobs of
a run and across runs of one workload and seed with the same program and benchmark
sources, or the run is flagged nondeterministic.

Output: a table of every metric by name with its unit, median, tail
percentile and sample count, the environment, and as the last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Raw
per-job results are written to perfbench/_work/.  The exit code is 0 only
when every job passed its correctness checks.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = Path.cwd()
WORK = HERE / "_work"
# A job starts at most --seconds into a run, so a 40 s run ends within
# 180 s even when its last job hangs.
JOB_TIMEOUT_S = 120
# One BLAS thread: the dense work here is at the size of the basis (k <= 90),
# where a second thread costs more in synchronization than it saves; on a
# 2-core machine two threads made bt-rlc 1.6x and sylv-penzl 1.9x slower.
BLAS_THREADS = 1
EXACT_COUNTS = ("iters", "large_solves", "lu_count", "k_v", "k_w")

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "iter_ms_p50": "ms",
    "iters": "count",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end table but not bounded in BENCHMARK.json: the
# tail iteration time swung by up to 32 % between runs within one hour on a
# shared host, beyond any bound the benchmark may set; eq_fail_frac is 0
# on every correct run (any failure already makes the run incorrect);
# wall_total_s is total_s before the host-speed division and host_slowdown
# the divisor (refkernel.py).
REPORTED_ONLY = {"iter_ms_tail": "ms", "eq_fail_frac": "frac",
                 "wall_total_s": "s", "host_slowdown": "x"}


def _layer(name, field):
    return lambda job: job["layers"].get(name, {}).get(field, 0)


def _count(name):
    return lambda job: job["counts"][name]


PER_LAYER = {
    "systems.build_s": ("s", _layer("systems.build", "total_s")),
    "uadi.init_s": ("s", _layer("uadi.init", "total_s")),
    "uadi.step_s": ("s", _layer("uadi.step", "total_s")),
    "uadi.step_self_s": ("s", _layer("uadi.step", "self_s")),
    "uadi.residual_calls": ("count", _layer("uadi.residual", "calls")),
    "uadi.residual_s": ("s", _layer("uadi.residual", "total_s")),
    "uadi.extract_calls": ("count", _layer("uadi.extract", "calls")),
    "uadi.extract_s": ("s", _layer("uadi.extract", "total_s")),
    "uadi.k_v": ("count", _count("k_v")),
    "uadi.k_w": ("count", _count("k_w")),
    "uadi.degraded": ("count", _count("degraded")),
    "linalg.lu_count": ("count", _count("lu_count")),
    "linalg.lu_s": ("s", _layer("linalg.lu", "total_s")),
    "linalg.lu_reuse_frac": ("frac", _count("lu_reuse_frac")),
    "linalg.solve_count": ("count", _layer("linalg.solve", "calls")),
    "linalg.solve_s": ("s", _layer("linalg.solve", "total_s")),
    "linalg.small_sylv_calls": ("count", _layer("linalg.small_sylv", "calls")),
    "linalg.small_sylv_s": ("s", _layer("linalg.small_sylv", "total_s")),
    "linalg.small_sylv_k_max": ("count", _layer("linalg.small_sylv", "size_max")),
    "linalg.small_lyap_calls": ("count", _layer("linalg.small_lyap", "calls")),
    "linalg.small_lyap_s": ("s", _layer("linalg.small_lyap", "total_s")),
    "linalg.gram_norm_calls": ("count", _layer("linalg.gram_norm", "calls")),
    "linalg.gram_norm_s": ("s", _layer("linalg.gram_norm", "total_s")),
    "shiftgen.next_calls": ("count", _layer("shiftgen.next", "calls")),
    "shiftgen.next_s": ("s", _layer("shiftgen.next", "total_s")),
    "shiftgen.observe_s": ("s", _layer("shiftgen.observe", "total_s")),
    "shiftgen.repeat_frac": ("frac", _count("repeat_frac")),
    "mor.bt_s": ("s", _layer("mor.bt", "total_s")),
    "mor.rom_s": ("s", _layer("mor.rom", "total_s")),
    "cli.report_s": ("s", lambda job: job["report_s"]),
    "cli.csv_bytes": ("bytes", lambda job: job["csv_bytes"]),
}
TRACE_OVERHEAD = ("trace.overhead_frac", "frac")
MODULES = ("systems", "uadi", "linalg", "shiftgen", "mor", "cli", "job")


def declared_metrics():
    """(end_to_end, per_layer) names from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def source_digest():
    """Short hash of the program and benchmark sources.  Exact counts are
    compared across runs only when this matches, so a change that properly
    alters them is not flagged."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        f for f in HERE.iterdir() if f.is_file())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def fix_blas_threads():
    """Set the BLAS thread count for this process and its jobs; numpy reads
    it once, when it is first imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def job_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_one(workload, seed, traced, out, env, check):
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", str(out),
           "--gate", str(int(check))]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced,
                "error": f"job timed out after {JOB_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "traced": traced,
                "error": f"job exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    result["traced"] = traced
    return result


def run_jobs(workload, seed, seconds, trace):
    """Closed loop of jobs until ``seconds`` have passed.  A new job starts
    only while the previous job's wall time still fits, once the minimum
    number of jobs per kind has run.  The reference kernel runs before the
    first job and after each job; a job's host slowdown is the mean of the
    two passes around it over ``refkernel.NOMINAL_S``."""
    import refkernel  # numpy: only after fix_blas_threads()

    out_root = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    env = job_env()
    kinds = [False, True] if trace else [False]
    need = 2 if trace else 3
    jobs, start, last = [], perf_counter(), 0.0
    refkernel.measure()  # warm-up: lazy imports and first-touch pages
    ref = refkernel.measure()
    while True:
        done = {k: sum(j["traced"] == k for j in jobs) for k in kinds}
        elapsed = perf_counter() - start
        if min(done.values()) >= need and elapsed + last > seconds:
            break
        traced = kinds[len(jobs) % len(kinds)]
        t = perf_counter()
        jobs.append(run_one(workload, seed, traced,
                            out_root / f"job{len(jobs)}", env, not jobs))
        last = perf_counter() - t
        ref, before = refkernel.measure(), ref
        jobs[-1]["host_slowdown"] = (before + ref) / 2 / refkernel.NOMINAL_S
        if not jobs[-1]["ok"] and "total_s" not in jobs[-1]:
            break  # a job that could not run at all will not run next time
    return jobs


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, percentile(values, pct)
    return None


def end_to_end(jobs):
    """Times are divided by each job's host slowdown (refkernel.py)."""
    iters = [x / j["host_slowdown"] for j in jobs for x in j["iter_ms"]]
    rows = {}
    for name in ("total_s", "setup_s", "solve_s"):
        vals = [j[name] / j["host_slowdown"] for j in jobs]
        rows[name] = (statistics.median(vals), tail(vals), len(vals))
    iter_tail = tail(iters)
    rows["iter_ms_p50"] = (statistics.median(iters), iter_tail, len(iters))
    # The slowest iteration stands in when too few were pooled for p75.
    rows["iter_ms_tail"] = (iter_tail[1] if iter_tail else max(iters),
                            iter_tail, len(iters))
    rows["iters"] = (jobs[0]["counts"]["iters"], None, len(jobs))
    vals = [j["peak_rss_mb"] for j in jobs]
    rows["peak_rss_mb"] = (statistics.median(vals), tail(vals), len(vals))
    rows["eq_fail_frac"] = (statistics.fmean(j["eq_fail_frac"] for j in jobs),
                            None, len(jobs))
    for name, key in (("wall_total_s", "total_s"), ("host_slowdown", "host_slowdown")):
        vals = [j[key] for j in jobs]
        rows[name] = (statistics.median(vals), tail(vals), len(vals))
    return rows


def per_layer(traced, untraced):
    rows = {}
    for name, (_, get) in PER_LAYER.items():
        vals = [get(j) for j in traced]
        rows[name] = (statistics.median(vals), tail(vals), len(vals))
    overhead = (statistics.median(j["total_s"] for j in traced)
                / statistics.median(j["total_s"] for j in untraced) - 1.0)
    rows[TRACE_OVERHEAD[0]] = (overhead, None, len(traced) + len(untraced))
    return rows


def module_split(traced):
    """Median self seconds per module over the traced jobs; the self times
    of all spans add up to the traced job's total_s."""
    split = {m: [] for m in MODULES}
    for j in traced:
        for m in MODULES:
            split[m].append(sum(a["self_s"] for n, a in j["layers"].items()
                                if n.split(".")[0] == m))
    return {m: statistics.median(v) for m, v in split.items()}


def fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def print_table(title, rows, units):
    print(f"== {title}")
    print(f"  {'metric':28s} {'unit':6s} {'median':>12s} {'tail':>18s} {'n':>5s}")
    for name, (med, tl, n) in rows.items():
        tl_s = f"p{tl[0]} {fmt(tl[1])}" if tl else "- (<10 beyond)"
        print(f"  {name:28s} {units[name]:6s} {fmt(med):>12s} {tl_s:>18s} {n:5d}")


def report_workload(workload, seed, seconds, trace):
    """Run one workload, print its table and return its result object."""
    jobs = run_jobs(workload, seed, seconds, trace)
    good = [j for j in jobs if j["ok"]]
    failed = [j for j in jobs if not j["ok"]]
    for j in failed:
        print(f"FAILED job ({workload}, seed {seed}): "
              f"{j.get('error') or ''}{j.get('eq_failures') or ''}"
              f"{j.get('problems') or ''}", file=sys.stderr)
    counts = {tuple(j["counts"][c] for c in EXACT_COUNTS) for j in good}
    seen = WORK / f"counts-{workload}-seed{seed}-{source_digest()}.json"
    if seen.exists():
        counts.add(tuple(json.loads(seen.read_text())))
    elif len(counts) == 1:
        WORK.mkdir(parents=True, exist_ok=True)
        seen.write_text(json.dumps(list(next(iter(counts)))))
    deterministic = len(counts) <= 1
    if not deterministic:
        print(f"NONDETERMINISTIC exact counts {EXACT_COUNTS}: {sorted(counts)}",
              file=sys.stderr)
    untraced = [j for j in good if not j["traced"]]
    traced = [j for j in good if j["traced"]]
    correct = not failed and deterministic
    metrics = {}
    if correct:
        env = untraced[0]["env"]
        print(f"== {workload} seed {seed}: {len(jobs)} jobs "
              f"({len(traced)} traced); numpy {env['numpy']}, scipy "
              f"{env['scipy']}, python {env['python']}, nproc {env['nproc']}, "
              f"BLAS threads {env['blas_threads']}")
        if trace:
            rows = per_layer(traced, untraced)
            units = {n: u for n, (u, _) in PER_LAYER.items()}
            units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
            print_table(f"{workload} per layer (traced jobs)", rows, units)
            split = module_split(traced)
            total = statistics.median(j["total_s"] for j in traced)
            print(f"  self time by module (median s; traced total_s {total:.4f}): "
                  + ", ".join(f"{m} {v:.4f}" for m, v in split.items())
                  + f"; sum {sum(split.values()):.4f}")
        else:
            rows = end_to_end(untraced)
            units = {**END_TO_END, **REPORTED_ONLY}
            print_table(f"{workload} end to end", rows, units)
        metrics = {n: {"value": med, "unit": units[n]}
                   for n, (med, _, _) in rows.items() if n not in REPORTED_ONLY}
    result = {"correct": correct, "attempted": len(jobs),
              "failed": len(failed), "metrics": metrics}
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"results-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump({"result": result, "jobs": jobs}, fh, indent=1)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the
    # running job before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    fix_blas_threads()
    # One CPU for this process and, inherited, every job: the reference
    # kernel gauges the speed of the CPU the jobs run on.  Neighbouring
    # tenants load the host's cores unevenly, so the two vCPUs differ.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "uadi" / "cli.py").is_file():
        print(f"no uadi sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    if declared_metrics() != (list(END_TO_END),
                              list(PER_LAYER) + [TRACE_OVERHEAD[0]]):
        print("BENCHMARK.json and run.py name different metrics", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [report_workload(w, args.seed, args.seconds, args.trace)
               for w in names]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}/{n}": v for w, r in zip(names, results)
                        for n, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
