"""Command-line driver: scenario configuration, solver orchestration,
residual/shift logging, and the acceptance-experiment scenarios.

Subcommands: ``solve`` (general runs), ``table1`` (the four-configuration
Sylvester shift study on the embedded illustrative pair) and
``equivalence`` (extraction-vs-direct-solver comparison on random pairs).
The ``solve`` flags are the fields of ``RunConfig``, with its defaults.
Exit codes: 0 on convergence/pass, 2 when not every equation converged
(the iteration budget ran out, or an equation degraded), 1 on error (bad
input, or an ``--out`` that cannot be written).
The UADI_LOG environment variable ({error, info, debug}) sets verbosity.
"""

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import classic
from .errors import ParseError, UadiError, ZeroResidual
from .realify import ShiftUnit, expand_units
from .shiftgen import (
    DEFAULT_CAP,
    PetrovBtShiftOracle,
    ProjectionShiftOracle,
    StaticShiftOracle,
    SubspaceShiftOracle,
    SylvesterAlternatingOracle,
)
from .systems import (
    EquationParams,
    illustrative_pair,
    load_system,
    penzl_triple_peak,
    random_stable_system,
    rlc_ladder,
)
from .uadi import EquationSelection, uadi_init, uadi_step

logger = logging.getLogger("uadi")

TABLE1_REFERENCE = (
    ((100.0, 400.0), 3.51e4),
    ((400.0, 100.0), 12.2839),
    ((100.0, 100.0), 0.0412),
    ((400.0, 400.0), 0.0411),
)


@dataclass
class RunConfig:
    sys1: str = "illustrative"
    sys2: str = "illustrative"
    equations: str = "all"
    shifts: str = "subspace"
    max_iter: int = 50
    tol: float = 1e-8
    restart_cap: int = DEFAULT_CAP
    out: str = None
    gamma1: float = 2.0
    gamma2: float = 3.0
    strict: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise ParseError("tol must be positive")
        if self.max_iter < 1:
            raise ParseError("max_iter must be >= 1")
        if self.restart_cap < 0:
            raise ParseError("restart_cap must be >= 0")


@dataclass
class RunReport:
    records: list = field(default_factory=list)
    final_residuals: dict = field(default_factory=dict)
    statuses: dict = field(default_factory=dict)
    ranks: dict = field(default_factory=dict)
    solve_count: int = 0
    factorizations: int = 0
    iterations: int = 0
    converged: bool = False
    elapsed: float = 0.0
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    state: object = None   # the engine state, for post-run extraction

    def summary(self):
        return {
            "iterations": self.iterations,
            "large_solves": self.solve_count,
            "factorizations": self.factorizations,
            "converged": self.converged,
            "elapsed_seconds": self.elapsed,
            "final_residuals": self.final_residuals,
            "statuses": self.statuses,
            "ranks": self.ranks,
            "alphas": [[s.real, s.imag] for s in self.alphas],
            "betas": [[s.real, s.imag] for s in self.betas],
        }


def build_system(spec, slot=1):
    """Construct a system from a CLI source spec.

    ``illustrative`` picks side 1 or 2 of the embedded pair depending on the
    slot; ``penzl:n,w1,w2,w3`` and ``rlc:segments`` invoke the generators;
    anything else is a manifest path.
    """
    if spec == "illustrative":
        pair = illustrative_pair()
        return pair[0] if slot == 1 else pair[1]
    if spec.startswith(("penzl:", "rlc:")):
        make, kinds = ((penzl_triple_peak, (int, float, float, float))
                       if spec.startswith("penzl:") else (rlc_ladder, (int,)))
        parts = spec.partition(":")[2].split(",")
        try:
            args = [kind(x) for kind, x in zip(kinds, parts, strict=True)]
        except ValueError:
            raise ParseError(f"bad system spec {spec!r}; expected "
                             "penzl:n,w1,w2,w3 or rlc:segments") from None
        return make(*args)
    return load_system(spec)


def _read_static_file(path):
    alphas, betas = [], []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#")[0].strip()
                if not line:
                    continue
                vals = [float(t) for t in line.replace(",", " ").split()]
                if len(vals) != 4:
                    raise ValueError("lines must be: alpha_re alpha_im "
                                     "beta_re beta_im")
                alphas.append(complex(vals[0], vals[1]))
                betas.append(complex(vals[2], vals[3]))
    except (OSError, ValueError) as exc:
        raise ParseError(f"static shift file {path}: {exc}") from exc
    if not alphas:
        raise ParseError(f"static shift file {path} holds no shifts")
    return alphas, betas


class _ShiftDriver:
    """Bridges a shift strategy to the engine loop.  Each oracle runs on its
    engine side's own system (G1, or G2.dual() on the W side) and observes
    that side's basis and residual factor as the side holds them, by
    reference, on the side's row frame and against the side's system
    restricted to it.  ``sylv-alt`` with ``sylv`` enabled observes, for
    each side, a reader of that side's Sylvester half instead
    (``UadiState.factor``): only the half a ranking reads is formed for
    it, and the other stays stale until the run's schedule reads ``sylv``.
    ``oa`` emits the alpha units and ``ob`` the beta units; a two-sided
    oracle (``petrov-bt``, ``sylv-alt``) has no ``ob`` and its unit is both.
    ``recurring`` holds the alpha and beta values a static list cycles
    through, whose LUs are worth keeping; adaptive strategies repeat
    nothing."""

    def __init__(self, config, state):
        kind, cap = config.shifts, config.restart_cap
        v, w = state.v.sys, state.w.sys
        self.recurring = ((), ())
        self.ob = None
        self.sylv_halves = kind == "sylv-alt" and "sylv" in state.enabled
        if kind.startswith("static"):
            _, _, path = kind.partition(":")
            if not path:
                raise ParseError("static strategy needs static:<file>")
            alphas, betas = _read_static_file(path)
            self.oa = StaticShiftOracle(alphas)
            self.ob = StaticShiftOracle(betas)
            self.recurring = tuple([u.value for u in o.units]
                                   for o in (self.oa, self.ob))
        elif kind in ("proj1", "proj2"):
            variant = 1 if kind == "proj1" else 2
            self.oa = ProjectionShiftOracle(v, variant)
            self.ob = ProjectionShiftOracle(w, variant)
        elif kind == "subspace":
            self.oa = SubspaceShiftOracle(v, cap)
            self.ob = SubspaceShiftOracle(w, cap)
        elif kind == "petrov-bt":
            if not state.single_system:
                raise ParseError("petrov-bt shifts need G1 = G2")
            self.oa = PetrovBtShiftOracle(v, cap)
        elif kind == "sylv-alt":
            self.oa = SylvesterAlternatingOracle(v, w, cap)
        else:
            raise ParseError(f"unknown shift strategy {kind!r}")

    def next_pair(self):
        au = self.oa.next_unit()
        return au, au if self.ob is None else self.ob.next_unit()

    def after_step(self, state):
        v, w = state.v, state.w
        if self.sylv_halves:
            fv, fw = (partial(state.factor, "sylv", side) for side in (v, w))
        else:
            fv, fw = v.perp, w.perp
        if self.ob is None:
            self.oa.observe(v.X, w.X, fv, fw, (v.fsys, w.fsys))
        else:
            self.oa.observe(v.X, fv, sys=v.fsys)
            self.ob.observe(w.X, fw, sys=w.fsys)


def _status(state, tag, tol):
    """(residual, status) of an enabled equation: degraded with its reason,
    converged, diverged (worse than X = 0, or not finite) or active."""
    res = state.residual_norm(tag)
    if tag in state.degraded:
        return res, f"degraded: {state.degraded[tag]}"
    return res, ("converged" if res <= tol else
                 "active" if res <= 1.0 else "diverged")


def run(config):
    """Iterate the engine until every enabled equation has converged or
    degraded, or the iteration budget runs out; always writes report files
    when ``out`` is set, even on partial failure."""
    t0 = time.perf_counter()
    sys1 = build_system(config.sys1, 1)
    # one spec builds one system, but for the illustrative pair's two slots
    sys2 = (sys1 if config.sys2 == config.sys1 != "illustrative"
            else build_system(config.sys2, 2))
    params = EquationParams(gamma1=config.gamma1, gamma2=config.gamma2)
    selection = EquationSelection.parse(config.equations, strict=config.strict)
    state = uadi_init(sys1, sys2, params, selection)
    driver = _ShiftDriver(config, state)
    state.declare_recurring(*driver.recurring)
    report = RunReport()
    for tag, reason in state.skipped.items():
        report.statuses[tag] = f"skipped: {reason}"

    out_dir = Path(config.out) if config.out else None
    csv_fh = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_fh = open(out_dir / "residuals.csv", "w")
        csv_fh.write("iter,equation,residual,shift_re,shift_im\n")
        csv_fh.flush()
    last = {}   # tag -> (residual, status) as last read
    try:
        for it in range(1, config.max_iter + 1):
            try:
                au, bu = driver.next_pair()
            except ZeroResidual:
                logger.info("shift oracle reports zero residual; stopping")
                break
            uadi_step(state, au, bu)
            driver.after_step(state)
            # A stale tag (a factor or pair that a step leaves to its read)
            # comes last, in name order, and is read, and so formed, only at
            # iterations 1, 2, 4, 8, ..., once every other equation has
            # settled, or at the last iteration; between reads its row
            # repeats its last read value, and the run cannot stop.
            settled = True
            read_stale = it & (it - 1) == 0 or it == config.max_iter
            for tag in sorted(state.enabled, key=lambda t: (state.stale(t), t)):
                if settled or read_stale or not state.stale(tag):
                    last[tag] = _status(state, tag, config.tol)
                status = last[tag][1]
                settled = settled and status.startswith(("converged", "degraded"))
            for tag in sorted(state.enabled):
                res = last[tag][0]
                shift = bu.value if tag.endswith("_q") else au.value
                report.records.append(dict(iter=it, equation=tag, residual=res,
                                           shift_re=shift.real, shift_im=shift.imag))
                if csv_fh is not None:
                    csv_fh.write(f"{it},{tag},{res:.17g},{shift.real:.17g},"
                                 f"{shift.imag:.17g}\n")
            if csv_fh is not None:
                csv_fh.flush()
            if settled:
                break
    finally:
        report.iterations = state.iteration
        report.solve_count = state.large_solve_count
        report.factorizations = state.cache1.factor_count + state.cache2.factor_count
        report.elapsed = time.perf_counter() - t0
        report.alphas = expand_units(state.alpha_units)
        report.betas = expand_units(state.beta_units)
        for tag in sorted(state.enabled):
            report.final_residuals[tag], report.statuses[tag] = _status(
                state, tag, config.tol)
            report.ranks[tag] = state.rank(tag) if state.iteration else 0
        report.converged = bool(state.enabled) and all(
            report.statuses[tag] == "converged" for tag in state.enabled)
        if csv_fh is not None:
            csv_fh.close()
            with open(out_dir / "summary.json", "w") as fh:
                json.dump(report.summary(), fh, indent=2)
    report.state = state
    return report


def scenario_table1():
    """Run the four shift configurations of the illustrative Sylvester
    study and compare the measured normalized residuals with the reference
    values; returns a list of row dicts."""
    rows = []
    for (fa, fb), expected in TABLE1_REFERENCE:
        g1, g2 = illustrative_pair()
        state = uadi_init(g1, g2, None, EquationSelection.parse("sylv"))
        uadi_step(state, complex(-1.0, fa), complex(-1.0, fb))
        measured = state.residual_norm("sylv")
        rows.append({
            "alpha_freq": fa,
            "beta_freq": fb,
            "measured": measured,
            "expected": expected,
            "rel_dev": abs(measured - expected) / expected,
            "ok": abs(measured - expected) / expected <= 0.05,
        })
    return rows


def _random_shift_units(rng, count):
    """Seeded mix of real shifts and conjugate-pair leads."""
    units = []
    while len(units) < count:
        if rng.random() < 0.5:
            units.append(complex(-np.exp(rng.uniform(-1.5, 1.5)), 0.0))
        else:
            units.append(complex(-np.exp(rng.uniform(-1.5, 1.0)),
                                 np.exp(rng.uniform(-1, 2))))
    return units


def scenario_equivalence(seed=42, n=60, iters=8):
    """Random stable pair: the engine's extracted Sylvester/Riccati factors
    must match direct factored-ADI / Riccati-ADI runs with identical shifts."""
    rng = np.random.default_rng(seed)
    m = 2
    sys1 = random_stable_system(n, m, m, seed)
    sys2 = random_stable_system(max(n // 2, 6), m, m, seed + 1)
    alpha_units = _random_shift_units(rng, iters)
    beta_units = []
    for a in alpha_units:  # a pair faces a pair, a real shift a real one
        if a.imag == 0 and rng.random() < 0.5:
            beta_units.append(complex(-np.exp(rng.uniform(-1.5, 1.0)), 0.0))
        elif a.imag != 0:
            beta_units.append(complex(a.real * 1.5,
                                      abs(a.imag) * rng.uniform(0.5, 2.0)))
        else:
            beta_units.append(complex(-np.exp(rng.uniform(-1.0, 1.0)), 0.0))
    state = uadi_init(sys1, sys2, None,
                      EquationSelection.parse("sylv,ricc_p,ricc_q"))
    for a, b in zip(alpha_units, beta_units):
        uadi_step(state, a, b)
    alphas = expand_units([ShiftUnit(a) for a in alpha_units])
    betas = expand_units([ShiftUnit(b) for b in beta_units])

    def relerr(X, Y):
        return float(np.linalg.norm(X - Y) / max(np.linalg.norm(Y), 1e-300))

    out = {}
    if "sylv" in state.enabled and state.rank("sylv") == state.v.k:
        ref, _, _ = classic.fadi(sys1, sys2, alphas, betas)
        out["sylv"] = relerr(state.extract("sylv").product(), ref.product())
    refp, _, _ = classic.radi(sys1, alphas)
    out["ricc_p"] = relerr(state.extract("ricc_p").product(), refp.product())
    refq, _, _ = classic.radi(sys2.dual(), betas)
    out["ricc_q"] = relerr(state.extract("ricc_q").product(), refq.product())
    out["pass"] = all(v <= 1e-8 for k, v in out.items() if k != "pass")
    return out


def _setup_logging():
    level = os.environ.get("UADI_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None):
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="uadi",
        description="Low-rank ADI solver for families of Lyapunov, "
                    "Sylvester and Riccati equations with shared solves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the unified solver")
    helps = {
        "sys1": "manifest path | penzl:n,w1,w2,w3 | rlc:segments | illustrative",
        "equations": "comma-separated tags or 'all'",
        "shifts": "static:<file> | proj1 | proj2 | subspace | "
                  "petrov-bt (G1 = G2) | sylv-alt",
        "out": "report output directory",
        "strict": "error out on infeasible equation selections",
    }
    for f in fields(RunConfig):
        kind = {"action": "store_true"} if f.type is bool else {"type": f.type}
        ps.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                        help=helps.get(f.name), **kind)

    sub.add_parser("table1", help="reproduce the illustrative "
                                  "Sylvester shift study")

    pe = sub.add_parser("equivalence", help="extraction vs direct solvers")
    pe.add_argument("--seed", type=int, default=42)
    pe.add_argument("--n", type=int, default=60)
    pe.add_argument("--iters", type=int, default=8)

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            report = run(RunConfig(**{f.name: getattr(args, f.name)
                                      for f in fields(RunConfig)}))
            for tag in sorted(report.final_residuals):
                print(f"{tag:8s} residual {report.final_residuals[tag]:.3e}  "
                      f"[{report.statuses[tag]}]")
            print(f"iterations {report.iterations}, large solves "
                  f"{report.solve_count}, factorizations "
                  f"{report.factorizations}, converged {report.converged}")
            return 0 if report.converged else 2
        if args.command == "table1":
            rows = scenario_table1()
            print("alpha_freq  beta_freq      measured      expected   status")
            for r in rows:
                print(f"{r['alpha_freq']:10g} {r['beta_freq']:10g} "
                      f"{r['measured']:13.6g} {r['expected']:13.6g}   "
                      f"{'ok' if r['ok'] else 'MISMATCH'}")
            return 0 if all(r["ok"] for r in rows) else 1
        if args.command == "equivalence":
            out = scenario_equivalence(args.seed, args.n, args.iters)
            for key, val in out.items():
                if key != "pass":
                    print(f"{key:8s} max relative deviation {val:.3e}")
            print("pass" if out["pass"] else "FAIL")
            return 0 if out["pass"] else 1
    except (UadiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
