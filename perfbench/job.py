"""Run one `uadi solve` job in this process and print its result as JSON.

    python3 perfbench/job.py --workload NAME --seed N --trace 0|1 --out DIR

The parent (run.py) starts one process per job, so the peak resident
memory read here belongs to this job alone, and it fixes the BLAS thread
count in the environment before this process imports numpy.

The job is ``uadi.cli.run`` on the workload's ``RunConfig`` with ``out=DIR``
(CSV and summary writing count), followed on bt-rlc by balanced truncation
and every ROM variant.  Two phase marks are always taken, because the
setup/solve split and the per-iteration times need them: the entry time of
each ``uadi_step`` and the moment the iteration loop ends, which is when
``run`` first assigns ``RunReport.iterations`` in its ``finally`` block.
With ``--trace 1`` the layer boundaries are also wrapped in spans
(spans.py), which are summarized and written to DIR/spans.json.

After the timed region: work counters read from the public engine state,
the equation statuses and, with ``--gate 1``, the correctness gate
(gate.py).  The last stdout line is the result.
"""

import argparse
import functools
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BT_ORDER = 10
REPEAT_RTOL = 1e-6


def repeat_frac(units):
    """Share of emitted shift units already used before, within a relative
    tolerance; a unit and its conjugate count as the same unit."""
    seen, repeats = [], 0
    for u in units:
        v = complex(u.value.real, abs(u.value.imag))
        if any(abs(v - w) <= REPEAT_RTOL * abs(w) for w in seen):
            repeats += 1
        seen.append(v)
    return repeats / len(units) if units else 0.0


def counters(report):
    st = report.state
    seqs = [st.alpha_units]
    if [u.value for u in st.beta_units] != [u.value for u in st.alpha_units]:
        seqs.append(st.beta_units)
    emitted = sum(len(s) for s in seqs)
    lu = st.cache1.factor_count + st.cache2.factor_count
    return {
        "iters": report.iterations,
        "large_solves": report.solve_count,
        "lu_count": lu,
        "k_v": st.V.shape[1],
        "k_w": st.W.shape[1],
        "degraded": len(st.degraded),
        "lu_reuse_frac": 1.0 - lu / report.solve_count if report.solve_count else 0.0,
        "repeat_frac": (sum(repeat_frac(s) * len(s) for s in seqs) / emitted
                        if emitted else 0.0),
    }


def run_job(name, seed, traced, out, check):
    import numpy
    import scipy

    from uadi import cli, mor, systems

    import gate
    from spans import Tracer

    spec = workloads.job_spec(name, seed)
    if spec["rlc_feedthrough"] is not None:
        # The CLI spec rlc:<segments> has no feedthrough field; bind the
        # seed's value into the generator name build_system looks up.
        cli.rlc_ladder = functools.partial(
            systems.rlc_ladder, feedthrough=spec["rlc_feedthrough"])
    config = cli.RunConfig(out=str(out), **spec["run"])

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()

    steps, marks = [], {}
    inner_step = cli.uadi_step

    def marked_step(state, alpha, beta):
        steps.append(perf_counter())
        return inner_step(state, alpha, beta)

    class MarkedReport(cli.RunReport):
        def __setattr__(self, attr, value):
            if attr == "iterations":
                marks["loop_end"] = perf_counter()
            super().__setattr__(attr, value)

    cli.uadi_step = marked_step
    cli.RunReport = MarkedReport
    run = tracer.wrap("cli.run", cli.run) if tracer else cli.run

    def job():
        report = run(config)
        marks["run_end"] = perf_counter()
        reduction = None
        if spec["reduce"]:
            rom, hankel = mor.bt_square_root(report.state, BT_ORDER)
            roms = [mor.build_rom(report.state, side, variant)
                    for side in (1, 2) for variant in mor.VARIANTS]
            reduction = (rom, hankel, roms)
        return report, reduction

    timed = tracer.wrap("job", job) if tracer else job
    env = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    result = {"ok": False, "error": None, "env": env}
    t0 = perf_counter()
    try:
        report, reduction = timed()
    except Exception:
        # A job that raises fails every selected equation.
        result["error"] = traceback.format_exc(limit=4)
        result["eq_fail_frac"] = 1.0
        return result
    t1 = perf_counter()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = steps[0] if steps else marks["loop_end"]
    result.update(
        total_s=t1 - t0,
        setup_s=first - t0,
        solve_s=marks["loop_end"] - first,
        report_s=marks["run_end"] - marks["loop_end"],
        iter_ms=[1e3 * (b - a) for a, b in zip(steps, steps[1:] + [marks["loop_end"]])],
        csv_bytes=sum(f.stat().st_size for f in Path(out).iterdir()),
        counts=counters(report),
    )
    if tracer:
        result["layers"] = tracer.summary()
        tracer.write(Path(out) / "spans.json")

    state = report.state
    failures = {tag: status for tag, status in report.statuses.items()
                if tag in state.enabled and status != "converged"}
    residuals = gate.check_residuals(state, config.tol) if check else {}
    for tag, (ok, true, tracked) in residuals.items():
        if not ok:
            failures[tag] = f"true residual {true:.3e}, tracked {tracked:.3e}"
    problems = []
    if report.solve_count != 2 * report.iterations:
        problems.append(f"{report.solve_count} large solves in "
                        f"{report.iterations} iterations")
    if check and reduction is not None:
        problems += gate.check_reduction(*reduction)
    result.update(
        residuals={t: [true, tracked] for t, (_, true, tracked) in residuals.items()},
        eq_failures=failures,
        eq_fail_frac=len(failures) / len(state.enabled),
        problems=problems,
        ok=not failures and not problems,
    )
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--gate", type=int, choices=(0, 1), default=1)
    args = ap.parse_args(argv)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    result = run_job(args.workload, args.seed, bool(args.trace), args.out,
                     bool(args.gate))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
