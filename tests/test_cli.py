import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uadi import cli
from uadi.cli import (
    RunConfig,
    build_system,
    main,
    run,
    scenario_equivalence,
    scenario_table1,
)
from uadi.systems import save_system, random_stable_system


def static_spec(tmp_path, units):
    """``static:<file>`` strategy whose file lists each unit as both the
    alpha and the beta of one line."""
    f = tmp_path / "shifts.txt"
    f.write_text("".join(f"{u.real!r} {u.imag!r} {u.real!r} {u.imag!r}\n"
                         for u in map(complex, units)))
    return f"static:{f}"


class TestBuildSystem:
    def test_sources(self, tmp_path):
        g1 = build_system("illustrative", 1)
        g2 = build_system("illustrative", 2)
        assert g1.n == 6 and g1.B[0, 0] == 0.5025
        assert g2.B[0, 0] == -0.0029
        p = build_system("penzl:20,1,2,3", 1)
        assert p.n == 20
        r = build_system("rlc:5", 1)
        assert r.n == 20
        sys_ = random_stable_system(7, 1, 1, 0)
        manifest = save_system(sys_, tmp_path)
        assert build_system(str(manifest), 1).n == 7

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            build_system("penzl:20,1,2", 1)


class TestRun:
    def test_static_pair_matches_reference_value(self, tmp_path):
        cfg = RunConfig(sys1="illustrative", sys2="illustrative",
                        equations="sylv",
                        shifts=static_spec(tmp_path, [-1 + 100j, -1 - 100j]),
                        max_iter=1, tol=1e-12, out=str(tmp_path))
        rep = run(cfg)
        assert rep.final_residuals["sylv"] == pytest.approx(0.0412, rel=0.05)
        assert rep.solve_count == 2 * rep.iterations
        csv = (tmp_path / "residuals.csv").read_text().splitlines()
        assert csv[0] == "iter,equation,residual,shift_re,shift_im"
        assert len(csv) == 1 + rep.iterations * len(rep.final_residuals)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["large_solves"] == rep.solve_count

    def test_static_cycle_reports_one_factorization_per_unit(self, tmp_path):
        """G1 = G2 with a 3-unit cyclic list: each LU is made once, kept
        for the whole run, and serves both sides."""
        units = [-0.5, -1 + 2j, -1 - 2j, -2.0]
        cfg = RunConfig(sys1="rlc:20", sys2="rlc:20", equations="lyap_p,lyap_q",
                        shifts=static_spec(tmp_path, units), max_iter=6,
                        tol=1e-300, out=str(tmp_path))
        rep = run(cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert rep.iterations == 6
        assert summary["factorizations"] == 3
        assert summary["large_solves"] == 12
        assert len(rep.state.cache1) == len(rep.state.cache2) == 3

    def test_one_spec_builds_one_system(self, tmp_path, monkeypatch):
        """sys2 named by sys1's spec is sys1's system, built once and one
        realization at once; the illustrative pair's two slots are two
        systems."""
        built, build = [], cli.build_system
        monkeypatch.setattr(cli, "build_system",
                            lambda spec, slot=1: built.append(spec) or build(spec, slot))
        rep = run(RunConfig(sys1="rlc:5", sys2="rlc:5", equations="lyap_p,lyap_q",
                            shifts=static_spec(tmp_path, [-0.5]), max_iter=2, tol=1e-300))
        assert built == ["rlc:5"]
        assert rep.state.sys1 is rep.state.sys2 and rep.state.single_system
        built.clear()
        rep = run(RunConfig(sys1="illustrative", sys2="illustrative", equations="sylv",
                            shifts=static_spec(tmp_path, [-1 + 100j, -1 - 100j]),
                            max_iter=1, tol=1e-300))
        assert built == ["illustrative"] * 2 and not rep.state.single_system

    @pytest.mark.parametrize("pair, shifts, lus_per_step", [
        (("penzl:60,1,2,3", "penzl:60,4,5,6"), "sylv-alt", 2),
        (("rlc:20", "rlc:20"), "petrov-bt", 1),
    ])
    def test_adaptive_run_holds_one_lu_per_cache(self, pair, shifts, lus_per_step):
        cfg = RunConfig(sys1=pair[0], sys2=pair[1], equations="lyap_p,lyap_q",
                        shifts=shifts, max_iter=8, tol=1e-300)
        rep = run(cfg)
        assert rep.iterations == 8
        assert len(rep.state.cache1) <= 1 and len(rep.state.cache2) <= 1
        assert rep.factorizations == lus_per_step * rep.iterations

    def test_huge_tolerance_stops_after_one_iteration(self, tmp_path):
        cfg = RunConfig(sys1="illustrative", sys2="illustrative",
                        equations="sylv",
                        shifts=static_spec(tmp_path, [-1 + 100j, -1 - 100j]),
                        max_iter=9, tol=1e300)
        rep = run(cfg)
        assert rep.iterations == 1
        assert rep.solve_count == 2
        assert rep.converged

    def test_reproducible_histories(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = RunConfig(sys1="penzl:60,1,2,3", sys2="penzl:60,4,5,6",
                            equations="lyap_p,lyap_q,sylv", shifts="sylv-alt",
                            max_iter=12, tol=1e-9, out=str(out))
            run(cfg)
        assert (out1 / "residuals.csv").read_bytes() == (out2 / "residuals.csv").read_bytes()

    def test_subspace_run_converges(self):
        cfg = RunConfig(sys1="penzl:200,1,2,3", sys2="penzl:200,4,5,6",
                        equations="lyap_p,lyap_q", shifts="subspace",
                        max_iter=40, tol=1e-8)
        rep = run(cfg)
        assert rep.converged
        assert rep.solve_count == 2 * rep.iterations

    def test_projection_strategies_run(self):
        for strat in ("proj1", "proj2"):
            cfg = RunConfig(sys1="penzl:60,1,2,3", sys2="penzl:60,4,5,6",
                            equations="lyap_p,lyap_q", shifts=strat,
                            max_iter=25, tol=1e-6)
            rep = run(cfg)
            assert rep.final_residuals["lyap_p"] < 1e-2

    def test_degraded_equation_does_not_hold_the_run(self, tmp_path):
        """A degraded equation no longer counts as pending: the run stops
        once the others converged, and the report still says degraded."""
        path = [str(save_system(random_stable_system(n, 2, 2, seed),
                                tmp_path / f"g{seed}"))
                for n, seed in ((60, 12), (70, 112))]
        rep = run(RunConfig(sys1=path[0], sys2=path[1],
                            equations="lyap_p,lyap_q,sylv", shifts="subspace",
                            max_iter=60, tol=1e-8))
        assert rep.statuses["sylv"].startswith("degraded")
        assert rep.statuses["lyap_p"] == rep.statuses["lyap_q"] == "converged"
        last = max(min(r["iter"] for r in rep.records
                       if r["equation"] == tag and r["residual"] <= 1e-8)
                   for tag in ("lyap_p", "lyap_q"))
        assert rep.iterations == last < 60
        assert not rep.converged

    def test_growing_residual_is_reported_diverged(self):
        """Mismatched subspace shifts on the scaled triple-peak pair: the
        Gramians converge while the Sylvester residual grows far past 1,
        i.e. worse than X = 0, so it is diverged, not active."""
        rep = run(RunConfig(sys1="penzl:2000,10,20,30",
                            sys2="penzl:2000,40,50,60",
                            equations="lyap_p,lyap_q,sylv", shifts="subspace",
                            max_iter=70, tol=1e-12))
        assert rep.final_residuals["sylv"] > 1.0
        assert rep.statuses["sylv"] == "diverged"
        assert rep.statuses["lyap_p"] == rep.statuses["lyap_q"] == "converged"
        assert rep.iterations == 70 and not rep.converged

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(tol=0.0)
        with pytest.raises(ValueError):
            RunConfig(max_iter=0)

    def test_static_file(self, tmp_path):
        f = tmp_path / "shifts.txt"
        f.write_text("-1 100 -1 100\n-1 -100 -1 -100\n")
        cfg = RunConfig(sys1="illustrative", sys2="illustrative",
                        equations="sylv", shifts=f"static:{f}",
                        max_iter=1, tol=1e-12)
        rep = run(cfg)
        assert rep.final_residuals["sylv"] == pytest.approx(0.0412, rel=0.05)


class TestShiftDuality:
    """The W side is the V side run on G2.dual(): swapping the pair
    (G1, G2) for (G2.dual(), G1.dual()) swaps the two sides, so every
    adaptive strategy must swap its alpha and beta sequences and the _p and
    _q residual histories."""

    @staticmethod
    def _histories(rep):
        out = {}
        for rec in rep.records:
            out.setdefault(rec["equation"], []).append(rec["residual"])
        return {tag: np.array(h) for tag, h in out.items()}

    @pytest.mark.parametrize("shifts", ["subspace", "proj1", "proj2"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_swapped_pair_swaps_sides(self, tmp_path, shifts, seed):
        g1 = random_stable_system(40, 1, 2, seed)
        g2 = random_stable_system(50, 2, 1, seed + 100)
        path = {name: str(save_system(g, tmp_path / name))
                for name, g in (("g1", g1), ("g2", g2),
                                ("g1d", g1.dual()), ("g2d", g2.dual()))}
        reps = [run(RunConfig(sys1=path[a], sys2=path[b],
                              equations="lyap_p,lyap_q,ricc_p,ricc_q",
                              shifts=shifts, max_iter=10, tol=1e-300))
                for a, b in (("g1", "g2"), ("g2d", "g1d"))]
        fwd, back = reps
        assert fwd.iterations == back.iterations == 10
        for x, y in ((fwd.alphas, back.betas), (fwd.betas, back.alphas)):
            assert len(x) == len(y)
            np.testing.assert_allclose(x, y, rtol=1e-12)
        hf, hb = self._histories(fwd), self._histories(back)
        for fam in ("lyap", "ricc"):
            np.testing.assert_allclose(hf[fam + "_p"], hb[fam + "_q"], rtol=1e-10)
            np.testing.assert_allclose(hf[fam + "_q"], hb[fam + "_p"], rtol=1e-10)


class TestOracleStorage:
    """A shift oracle ranks on a window of the iteration's own basis: each
    window holds one n-row array of its own, the column-major buffer of its
    orthonormal frame, at most cap + widest block wide whatever k is.  Every
    other n-row array it holds is a view of an engine basis buffer or a
    residual factor it observed."""

    @pytest.mark.parametrize("pair, shifts", [
        (("penzl:60,1,2,3", "penzl:60,4,5,6"), "sylv-alt"),
        (("rlc:15", "rlc:15"), "petrov-bt"),
    ])
    def test_oracle_holds_no_basis_copy(self, monkeypatch, pair, shifts):
        drivers = []

        class Recording(cli._ShiftDriver):
            def __init__(self, *args):
                super().__init__(*args)
                drivers.append(self)

        monkeypatch.setattr(cli, "_ShiftDriver", Recording)
        cap = 6
        rep = run(RunConfig(sys1=pair[0], sys2=pair[1],
                            equations="lyap_p,lyap_q,sylv", shifts=shifts,
                            max_iter=8, tol=1e-300, restart_cap=cap))
        st, oracle = rep.state, drivers[0].oa
        observed = (st.v.sylv, st.w.sylv) if shifts == "sylv-alt" else (st.v, st.w)
        factors = {id(h.perp) for h in observed}
        buffers = (st.v._X._buf, st.w._X._buf)
        systems = {id(st.v.sys), id(st.w.sys)}
        seen, arrays = set(), []

        def walk(obj):
            if id(obj) in seen or id(obj) in systems:
                return
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                if obj.ndim == 2 and obj.shape[0] == st.v.sys.n:
                    arrays.append(obj)
            elif isinstance(obj, (list, tuple)):
                for value in obj:
                    walk(value)
            elif hasattr(obj, "__dict__"):
                for value in vars(obj).values():
                    walk(value)

        walk(oracle)
        windows = (oracle.hist_v, oracle.hist_w)
        own = [a for a in arrays if id(a) not in factors
               and not any(np.shares_memory(a, buf) for buf in buffers)]
        assert len(own) == len(windows)
        assert {id(a) for a in own} == {id(h._buf) for h in windows}
        widest = max(np.diff(side.bounds).max() for side in (st.v, st.w))
        for a in own:
            assert a.flags.f_contiguous and a.shape[1] <= cap + widest, a.shape
        assert len(arrays) >= 4 + len(own)
        assert oracle.hist_v.start > 0 and oracle.hist_w.start > 0   # restarted


class TestCsvSchema:
    def test_parseable_at_any_iteration_boundary(self, tmp_path):
        cfg = RunConfig(sys1="penzl:40,1,2,3", sys2="penzl:40,4,5,6",
                        equations="lyap_p,lyap_q,sylv", shifts="sylv-alt",
                        max_iter=6, tol=1e-12, out=str(tmp_path))
        rep = run(cfg)
        lines = (tmp_path / "residuals.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["iter", "equation", "residual", "shift_re", "shift_im"]
        per_iter = len(rep.final_residuals)
        # truncating at any iteration boundary leaves a parseable table
        for boundary in range(1, rep.iterations):
            chunk = lines[1:1 + boundary * per_iter]
            for row in chunk:
                it, eq, res, sre, sim = row.split(",")
                assert int(it) <= boundary
                assert float(res) >= 0.0
                float(sre), float(sim)


class TestSpectralFactorReads:
    def test_stale_pair_read_only_when_it_can_decide(self, tmp_path, monkeypatch):
        """On criterion 10's run, cli.run reads, and so rebuilds, the
        spectral-factor pair only at iterations 1, 2, 4, 8, ..., once every
        other equation has settled, and at the last iteration.  The run stops
        where one that rebuilds and reads it every step stops, its sf rows at
        rebuilds and at the end are fresh, and between rebuilds they repeat
        the last rebuilt value."""
        import uadi.uadi as engine

        base = dict(sys1="rlc:400", sys2="rlc:400", equations="all",
                    shifts="petrov-bt", max_iter=50, tol=1e-6, restart_cap=10,
                    gamma1=2.0, gamma2=3.0)
        rebuilt = set()
        original = engine.UadiState._pair_outcomes

        def recording(state):
            rebuilt.add(len(state.alpha_units))   # the iteration in progress
            return original(state)

        with monkeypatch.context() as m:
            m.setattr(engine.UadiState, "_pair_outcomes", recording)
            lazy = run(RunConfig(out=str(tmp_path / "lazy"), **base))
        step = engine.UadiState.step

        def step_and_rebuild(state, alpha, beta):
            step(state, alpha, beta)
            state.residual_norm("sf_p")   # rebuilt after every step
            return state

        with monkeypatch.context() as m:
            m.setattr(engine.UadiState, "step", step_and_rebuild)
            eager = run(RunConfig(out=str(tmp_path / "eager"), **base))
        assert lazy.converged and lazy.iterations == eager.iterations
        assert lazy.statuses == eager.statuses
        assert lazy.iterations in rebuilt and len(rebuilt) < lazy.iterations
        assert {it for it in range(1, lazy.iterations + 1)
                if it & (it - 1) == 0} <= rebuilt
        assert len(lazy.records) == len(eager.records)
        last = {}
        for got, want in zip(lazy.records, eager.records):
            tag, it = got["equation"], got["iter"]
            assert (tag, it) == (want["equation"], want["iter"])
            if not tag.startswith("sf"):
                assert got == want
            elif it in rebuilt:
                assert got["residual"] == pytest.approx(want["residual"],
                                                        rel=1e-10, abs=0)
            else:
                assert got["residual"] == last[tag]
            last[tag] = got["residual"]
        summary = json.loads((tmp_path / "lazy" / "summary.json").read_text())
        for tag in ("sf_p", "sf_q"):
            assert not lazy.state.stale(tag)
            assert summary["final_residuals"][tag] == lazy.state.residual_norm(tag)
            assert summary["final_residuals"][tag] == pytest.approx(
                eager.final_residuals[tag], rel=1e-10, abs=0)


class TestRlcFileInterchange:
    def test_save_load_order_1600(self, tmp_path):
        from uadi.systems import load_system, rlc_ladder, save_system

        g = rlc_ladder(400)
        manifest = save_system(g, tmp_path, name="rlc")
        back = load_system(manifest)
        assert back.n == 1600 and back.m == 2 and back.p == 2
        assert (back.A != g.A).nnz == 0


class TestScenarios:
    def test_table1_rows(self):
        rows = scenario_table1()
        expected = [3.51e4, 12.2839, 0.0412, 0.0411]
        assert [r["expected"] for r in rows] == expected
        for r in rows:
            assert r["ok"], r

    def test_equivalence_real_shift_config(self):
        out = scenario_equivalence(seed=1, n=60, iters=8)
        assert out["pass"]
        for key in ("sylv", "ricc_p", "ricc_q"):
            assert out[key] <= 1e-8

    def test_equivalence_mixed_cases(self):
        out = scenario_equivalence(seed=3, n=80, iters=8)
        assert out["pass"]

    def test_zero_iterations_trivially_equal(self):
        from uadi.uadi import uadi_init
        s1 = random_stable_system(10, 2, 2, 0)
        st = uadi_init(s1, s1, None, "sylv")
        assert st.V.shape[1] == 0 and st.large_solve_count == 0


class TestMainEntry:
    def test_table1_exit_code(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_equivalence_exit_code(self, capsys):
        assert main(["equivalence", "--seed", "2", "--n", "30", "--iters", "5"]) == 0

    def test_solve_exit_codes(self, tmp_path, capsys):
        rc = main(["solve", "--sys1", "penzl:40,1,2,3", "--sys2", "penzl:40,4,5,6",
                   "--equations", "lyap_p,lyap_q", "--shifts", "subspace",
                   "--max-iter", "30", "--tol", "1e-8",
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        rc = main(["solve", "--sys1", "penzl:40,1,2,3", "--sys2", "penzl:40,4,5,6",
                   "--equations", "lyap_p,lyap_q", "--shifts", "subspace",
                   "--max-iter", "2", "--tol", "1e-14"])
        assert rc == 2
        rc = main(["solve", "--sys1", "nonexistent.manifest"])
        assert rc == 1

    @pytest.mark.parametrize("args", [
        ["--sys1", "penzl:100,1,2"],
        ["--sys2", "rlc:ten"],
        ["--sys1", "rlc:0"],
        ["--sys2", "rlc:-2"],
        ["--shifts", "newton"],
        ["--shifts", "static:"],
        ["--shifts", "static:{tmp}/missing.txt"],
        ["--shifts", "static:{tmp}/bad.txt"],
        ["--shifts", "static:{tmp}/empty.txt"],
        ["--equations", "lyap_p,lyap_x"],
        ["--tol", "0"],
        ["--max-iter", "0"],
        ["--gamma1", "0"],
        ["--restart-cap", "-1"],
        ["--out", "{tmp}/bad.txt"],
        ["--sys1", "penzl:60,1,2,3", "--sys2", "penzl:80,4,5,6",
         "--shifts", "petrov-bt"],
        ["--sys1", "penzl:60,1,2,3", "--sys2", "penzl:60,4,5,6",
         "--shifts", "petrov-bt"],
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, args):
        (tmp_path / "bad.txt").write_text("-1 0 -1\n")
        (tmp_path / "empty.txt").write_text("# no shifts\n")
        args = [a.format(tmp=tmp_path) for a in args]
        assert main(["solve", "--max-iter", "1", *args]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_console_script(self):
        # the child imports uadi from where this process did, installed or not
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-m", "uadi.cli", "table1"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0
        assert "ok" in proc.stdout
