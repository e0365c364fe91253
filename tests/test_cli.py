import json
import subprocess
import sys

import numpy as np
import pytest

from uadi.cli import (
    RunConfig,
    build_system,
    main,
    run,
    scenario_equivalence,
    scenario_table1,
)
from uadi.systems import save_system, random_stable_system


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
                        equations="sylv", shifts="static:unused",
                        static_alphas=[-1 + 100j, -1 - 100j],
                        static_betas=[-1 + 100j, -1 - 100j],
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
                        shifts="static:unused", static_alphas=units,
                        static_betas=units, max_iter=6, tol=1e-300,
                        out=str(tmp_path))
        rep = run(cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert rep.iterations == 6
        assert summary["factorizations"] == 3
        assert summary["large_solves"] == 12
        assert len(rep.state.cache1) == len(rep.state.cache2) == 3

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

    def test_huge_tolerance_stops_after_one_iteration(self):
        cfg = RunConfig(sys1="illustrative", sys2="illustrative",
                        equations="sylv", shifts="static:unused",
                        static_alphas=[-1 + 100j, -1 - 100j],
                        static_betas=[-1 + 100j, -1 - 100j],
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

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "uadi.cli", "table1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "ok" in proc.stdout
