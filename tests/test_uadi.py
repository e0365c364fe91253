import numpy as np
import pytest
import scipy.linalg as spla

from uadi import classic
from uadi.errors import DimensionMismatch, EquationSkipped, InfeasibleHard
from uadi.realify import ShiftUnit, expand_units, lyap_sl
from uadi.systems import (
    EquationParams,
    StateSpaceSystem,
    penzl_triple_peak,
    random_stable_system,
    rlc_ladder,
    illustrative_pair,
)
from uadi.uadi import (
    ALL_TAGS,
    EquationSelection,
    extract_solution,
    residual_norm,
    uadi_init,
    uadi_step,
)

from conftest import (
    assert_multiset_close,
    count_shifted,
    equation_residual,
    residual_product,
    whole_band_solve,
)


RLC_PARAMS = EquationParams(
    S1=np.array([[1.0, 1.0], [0.0, -1.0]]),
    S2=np.array([[1.0, 1.0], [1.0, -1.0]]),
    gamma1=2.0, gamma2=3.0,
)


def rlc_state(steps=((-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3.0)), segments=8):
    g = rlc_ladder(segments=segments)
    st = uadi_init(g, g, RLC_PARAMS, "all")
    for a, b in steps:
        uadi_step(st, a, b)
    return g, st


class TestFeasibility:
    def test_penzl_pair_auto_skips(self):
        g1 = penzl_triple_peak(20, 1, 2, 3)
        g2 = penzl_triple_peak(20, 4, 5, 6)
        st = uadi_init(g1, g2, None, "all")
        for tag in ("mp_p", "mp_q", "pr_p", "pr_q", "br_p", "br_q", "sf_p", "sf_q"):
            assert tag not in st.enabled and tag in st.skipped
        for tag in ("lyap_p", "lyap_q", "sylv", "ricc_p", "ricc_q", "inf_p", "inf_q"):
            assert tag in st.enabled

    def test_rlc_all_seventeen(self):
        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        assert st.enabled == set(ALL_TAGS)
        assert not st.skipped

    def test_width_mismatch_skips_sylvester(self):
        s1 = random_stable_system(8, 1, 1, 0)
        s2 = random_stable_system(8, 2, 2, 1)
        st = uadi_init(s1, s2, None, "all")
        assert "sylv" in st.skipped

    def test_strict_mode_raises(self):
        g1 = penzl_triple_peak(20, 1, 2, 3)
        with pytest.raises(InfeasibleHard):
            uadi_init(g1, g1, None, EquationSelection.parse("mp_p", strict=True))

    def test_ill_conditioned_placement_inverse_skips(self):
        """D + D^T positive definite with condition 1e13, D itself well
        conditioned: pr is skipped on both sides with the reciprocal
        condition in its reason, and strict mode raises; the families whose
        inverses are well conditioned stay enabled."""
        base = random_stable_system(12, 2, 2, 3)
        D = np.diag([0.5, 0.5e-13]) + np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.linalg.cond(D + D.T) == pytest.approx(1e13, rel=1e-3)
        g = StateSpaceSystem(base.E, base.A, base.B, base.C, D)
        st = uadi_init(g, g, None, "all")
        for tag in ("pr_p", "pr_q"):
            assert "D + D^T" in st.skipped[tag], tag
            assert "reciprocal condition 1.0e-13" in st.skipped[tag], tag
        assert {"mp_p", "mp_q", "sf_p", "sf_q"} <= st.enabled
        with pytest.raises(InfeasibleHard, match="reciprocal condition"):
            uadi_init(g, g, None, EquationSelection.parse("pr_p", strict=True))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            EquationSelection.parse("lyap_p,bogus")

    def test_extract_requires_progress(self):
        g = rlc_ladder(segments=4)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        with pytest.raises(EquationSkipped):
            extract_solution(st, "lyap_p")
        uadi_step(st, -1.0, -1.0)
        with pytest.raises(EquationSkipped):
            extract_solution(st, "lyap_p" if "lyap_p" not in st.enabled else "nonsense")

    def test_skipped_equation_raises(self):
        s1 = random_stable_system(8, 1, 1, 0)
        s2 = random_stable_system(8, 2, 2, 1)
        st = uadi_init(s1, s2, None, "all")
        uadi_step(st, -1.0, -1.0)
        with pytest.raises(EquationSkipped):
            residual_norm(st, "sylv")


class TestInitialSeeds:
    def test_weighted_residual_factor_seeds(self):
        g = rlc_ladder(segments=4)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        D = g.D
        Dp = D + D.T
        w, U = np.linalg.eigh(Dp)
        Dpis = (U / np.sqrt(w)) @ U.T
        np.testing.assert_allclose(st.v.eqs["pr"].perp, np.asarray(g.B) @ Dpis,
                                   atol=1e-14)
        Dbi = np.linalg.inv(np.eye(2) - D @ D.T)
        wb, Ub = np.linalg.eigh(np.eye(2) + D.T @ Dbi @ D)
        Bsc = (Ub * np.sqrt(wb)) @ Ub.T
        np.testing.assert_allclose(st.v.eqs["br"].perp, np.asarray(g.B) @ Bsc,
                                   atol=1e-14)
        Di = np.linalg.inv(D)
        np.testing.assert_allclose(st.v.eqs["mp"].perp, np.asarray(g.B) @ Di,
                                   atol=1e-14)
        np.testing.assert_allclose(st.w.eqs["mp"].perp, (Di @ np.asarray(g.C)).T,
                                   atol=1e-14)
        np.testing.assert_allclose(st.Bperp, np.asarray(g.B), atol=0)
        np.testing.assert_allclose(st.Cperp, np.asarray(g.C), atol=0)


    @pytest.mark.parametrize("pair", ["rlc", "random"])
    def test_every_residual_starts_at_one(self, pair):
        """One normalization for every tag: its own residual norm at X = 0."""
        if pair == "rlc":
            g = rlc_ladder(6)
            st = uadi_init(g, g, RLC_PARAMS, "all")
            assert st.enabled == set(ALL_TAGS)
        else:
            st = uadi_init(random_stable_system(12, 2, 3, 5),
                           random_stable_system(9, 1, 2, 6), None, "all")
            assert "sylv" in st.enabled
        for tag in st.enabled:
            assert residual_norm(st, tag) == 1.0, tag


class TestScalarCrossCheck:
    def test_unit_system_exact_values(self):
        sc = StateSpaceSystem(np.eye(1), -np.eye(1), np.ones((1, 1)), np.ones((1, 1)))
        st = uadi_init(sc, sc, None, "all")
        uadi_step(st, -1.0, -1.0)
        assert st.V[0, 0] == pytest.approx(-np.sqrt(2) / 2)
        assert extract_solution(st, "sylv").product()[0, 0] == pytest.approx(0.5)
        assert extract_solution(st, "ricc_p").product()[0, 0] == pytest.approx(0.4)
        assert residual_norm(st, "lyap_p") < 1e-14
        assert residual_norm(st, "sylv") < 1e-14

    def test_table_row_after_one_pair(self):
        g1, g2 = illustrative_pair()
        st = uadi_init(g1, g2, None, "sylv")
        uadi_step(st, -1 + 100j, -1 + 100j)
        assert residual_norm(st, "sylv") == pytest.approx(0.0412, rel=0.05)
        st2 = uadi_init(g1, g2, None, "sylv")
        uadi_step(st2, -1 + 400j, -1 + 100j)
        assert residual_norm(st2, "sylv") == pytest.approx(12.2839, rel=0.05)


class TestSolveBudget:
    def test_exactly_two_solves_per_step(self):
        g, st = rlc_state(steps=())
        assert st.large_solve_count == 0
        for k, (a, b) in enumerate(
            [(-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3 + 1j), (-0.9, -0.8)], 1
        ):
            uadi_step(st, a, b)
            assert st.large_solve_count == 2 * k
            assert st.iteration == k

    def test_count_measures_the_solves(self, monkeypatch):
        """The count is read off the caches, so a step that solves more
        than twice shows up in it."""
        import uadi.uadi as engine

        g, st = rlc_state(steps=((-0.5, -0.6),))
        original = engine._Side.expand

        def solving_twice(side, unit):
            side.cache.solve(unit.value, side.perp)
            return original(side, unit)

        monkeypatch.setattr(engine._Side, "expand", solving_twice)
        uadi_step(st, -1.0, -1.2)
        assert st.large_solve_count == 6

    @pytest.mark.parametrize("tags, count", [("lyap_p,lyap_q", 2),
                                             ("lyap_p,lyap_q,ricc_p,ricc_q", 4),
                                             ("all", 17)])
    def test_e_products_do_not_grow_with_equations(self, tags, count):
        """Past its large solve a side touches E twice per step, however
        many equations it carries: once for the new block and once for the
        one pass that forms every other record's residual factor."""
        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, tags)
        assert len(st.enabled) == count
        counts = {}

        class CountingE:
            def __init__(self, E, side):
                self.E, self.side = E, side

            def __matmul__(self, X):
                counts[self.side] += 1
                return self.E @ X

        for name, side in (("v", st.v), ("w", st.w)):
            side.sys.E = CountingE(side.sys.E, name)
        for a, b in ((-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3.0), (-0.8, -1.5)):
            counts.update(v=0, w=0)
            uadi_step(st, a, b)
            assert counts["v"] <= 2 and counts["w"] <= 2, counts
        assert not st.degraded


    @pytest.mark.parametrize("tags, weighted", [
        ("ricc_p,ricc_q", 1),
        ("ricc_p,ricc_q,inf_p,inf_q,pr_p,pr_q,br_p,br_q", 4),
        ("all", 4)])
    def test_one_small_lyapunov_per_side_and_step(self, monkeypatch, tags, weighted):
        """Every weighted family of a side gets its new middle block from one
        stacked small Lyapunov solve per step, however many are on."""
        import uadi.uadi as engine

        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, tags)
        stacks = []
        original = engine.solve_small_lyapunov

        def counting(F, Q):
            stacks.append(len(Q))
            return original(F, Q)

        monkeypatch.setattr(engine, "solve_small_lyapunov", counting)
        for a, b in ((-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3.0), (-0.8, -1.5)):
            stacks.clear()
            uadi_step(st, a, b)
            assert stacks == [weighted, weighted], stacks
        assert not st.degraded

    @pytest.mark.parametrize("tags", ["ricc_p,ricc_q", "all"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_one_shifted_factor_per_distinct_eigenvalue(self, monkeypatch, tags, m):
        """Every extraction of a side solves against the side's held Schur
        form in one kernel call, which forms one shifted triangular factor
        per distinct eigenvalue of the consumed block in a step, however
        many equations the side carries."""
        import uadi.uadi as engine

        counts, _ = count_shifted(monkeypatch, engine)
        g = rlc_ladder(segments=6) if m == 1 else random_stable_system(30, 2, 2, 7)
        st = uadi_init(g, g, RLC_PARAMS if m == 1 else None, tags)
        for unit, distinct in ((-0.5, 1), (-2 + 4j, 2), (-1.0, 1), (-1 + 1j, 2)):
            counts.clear()
            uadi_step(st, unit, unit)
            assert counts == [distinct, distinct]   # one call per side
        assert not st.degraded

    def test_one_schur_factorization_per_unit(self, monkeypatch):
        """With no spectral-factor read, a step's only Schur factorizations
        are one per side of its new unit's 1 x 1 or 2 x 2 block: the
        weighted families' middle blocks and the Sylvester coupling solve
        on the sides' held forms, also at the steps where a lagging
        Sylvester half fires."""
        import uadi.linalg as linalg

        orders, schur = [], linalg._schur

        def counted(a):
            orders.append(a.shape)
            return schur(a)

        monkeypatch.setattr(linalg, "_schur", counted)
        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        for a, b in ((-0.5, -1 + 2j), (-1.0, -0.8), (-2 + 1j, -1.5 + 0.5j), (-0.7, -0.9)):
            orders.clear()
            uadi_step(st, a, b)
            want = [(w, w) for w in (ShiftUnit(a).width_factor, ShiftUnit(b).width_factor)]
            assert sorted(orders) == sorted(want), orders
        assert len(st.v.sylv.T) == st.v.k and not st.degraded


SHIFT_PATTERNS = {
    "case1": ([-0.5, -1.2, -3.0], [-0.8, -2.0, -4.0]),
    "case2": ([-0.5 + 1j, -2 + 3j], [-0.8 + 2j, -1.5 + 0.5j]),
    "case3+4": ([-0.5, -1.2, -2 + 1j], [-0.8 + 2j, -1.0, -3.0]),
    "mixed": ([-0.5, -1 + 2j, -1.5, -2.2, -3 + 1j],
              [-0.7, -0.9 + 1j, -2.5, -1.1, -4.0]),
}

# Unit patterns of the Sylvester branch: matched shifts, the four
# realification cases, two patterns no case groups, and a repeated real shift
GROUP_PATTERNS = {
    "matched": ([-0.5, -1 + 2j, -2.0], [-0.5, -1 + 2j, -2.0]),
    "case1": ([-0.5, -1.2], [-0.8, -2.0]),
    "case2": ([-0.5 + 1j], [-0.8 + 2j]),
    "case3": ([-0.5, -1.2], [-0.8 + 2j, -1.0]),
    "case4": ([-0.5 + 1j, -1.0], [-0.8, -1.5]),
    "ungroupable": ([-0.5, -2 + 1j, -1.5], [-1 + 1j, -0.9, -2.5]),
    "ungroupable-rank": ([-0.5, -1 + 1j, -2.0], [-1 + 2j, -0.7, -1.5]),
    "repeated-real": ([-1.0, -1.0], [-0.7 + 1j, -0.4]),
}


class TestExtractionEquivalence:
    """The engine's extracted factors must reproduce the direct solvers
    run with identical shift sequences, for every grouping case."""

    @pytest.mark.parametrize("pattern", sorted(SHIFT_PATTERNS))
    def test_sylvester_and_riccati(self, pattern):
        aus, bus = SHIFT_PATTERNS[pattern]
        s1 = random_stable_system(30, 2, 2, 21)
        s2 = random_stable_system(26, 3, 2, 22)
        st = uadi_init(s1, s2, None, "sylv,ricc_p,ricc_q,inf_p,inf_q")
        for a, b in zip(aus, bus):
            uadi_step(st, a, b)
        alphas = expand_units([ShiftUnit(a) for a in aus])
        betas = expand_units([ShiftUnit(b) for b in bus])

        def rel(x, y):
            return np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300)

        if st.rank("sylv") == st.V.shape[1]:
            fs, (fb, fc), _ = classic.fadi(s1, s2, alphas, betas)
            assert rel(extract_solution(st, "sylv").product(), fs.product()) < 1e-10
            sb, sc = st.residual_factor("sylv")
            assert rel(sb.factor, fb.factor) < 1e-8
            assert rel(sc.factor, fc.factor) < 1e-8
        rp, rres, _ = classic.radi(s1, alphas)
        assert rel(extract_solution(st, "ricc_p").product(), rp.product()) < 1e-10
        assert rel(st.residual_factor("ricc_p").factor, rres.factor) < 1e-8
        rq, _, _ = classic.radi(s2.dual(), betas)
        assert rel(extract_solution(st, "ricc_q").product(), rq.product()) < 1e-10
        ip, _, _ = classic.radi(s1, alphas, quad_weight=1 - 2.0 ** -2)
        assert rel(extract_solution(st, "inf_p").product(), ip.product()) < 1e-10

    def test_modified_equation_families(self):
        """mp/pr/br extractions equal direct runs on the rewritten systems."""
        g, st = rlc_state()
        shifts = [-0.5, -2 + 4j, -2 - 4j, -1.0]
        D = g.D
        Di = np.linalg.inv(D)
        gmp = StateSpaceSystem(g.E, g.A - (g.B @ Di) @ g.C, g.B @ Di, Di @ g.C)
        mp_ref, _, _ = classic.cf_adi(gmp, shifts)
        got = extract_solution(st, "mp_p").product()
        assert np.linalg.norm(got - mp_ref.product()) < 1e-10 * np.linalg.norm(got)

        Dp = D + D.T
        Dpi = np.linalg.inv(Dp)
        w, U = np.linalg.eigh(Dp)
        Dpis = (U / np.sqrt(w)) @ U.T
        gpr = StateSpaceSystem(g.E, g.A - (g.B @ Dpi) @ g.C, g.B @ Dpis, Dpis @ g.C)
        pr_ref, _, _ = classic.radi(gpr, shifts, quad_weight=-1.0)
        got = extract_solution(st, "pr_p").product()
        assert np.linalg.norm(got - pr_ref.product()) < 1e-10 * np.linalg.norm(got)

        Dbi = np.linalg.inv(np.eye(2) - D @ D.T)
        wb, Ub = np.linalg.eigh(np.eye(2) + D.T @ Dbi @ D)
        Bsc = (Ub * np.sqrt(wb)) @ Ub.T
        wc, Uc = np.linalg.eigh(np.eye(2) - D @ D.T)
        Dbis = (Uc / np.sqrt(wc)) @ Uc.T
        gbr = StateSpaceSystem(g.E, g.A + (g.B @ (D.T @ Dbi)) @ g.C, g.B @ Bsc, Dbis @ g.C)
        br_ref, _, _ = classic.radi(gbr, shifts, quad_weight=-1.0)
        got = extract_solution(st, "br_p").product()
        assert np.linalg.norm(got - br_ref.product()) < 1e-10 * np.linalg.norm(got)

    def test_dual_side_uses_second_system_feedthrough(self):
        """mp/pr/br/bounded-gain duals must be driven by D2 and gamma2, not
        by the first system's data; distinct feedthroughs expose any mixup."""
        g1 = rlc_ladder(segments=6, feedthrough=0.2)
        g2 = rlc_ladder(segments=5, feedthrough=0.45)
        params = EquationParams(gamma1=2.0, gamma2=3.0)
        st = uadi_init(g1, g2, params, "mp_q,pr_q,br_q,inf_q")
        shifts = [-0.5, -2 + 4j, -1.0]
        for a in shifts:
            uadi_step(st, a, a)
        betas = expand_units([ShiftUnit(b) for b in shifts])
        D = g2.D
        gd = g2.dual()

        def rel(x, y):
            return np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300)

        Di = np.linalg.inv(D)
        gmpq = StateSpaceSystem(gd.E, (g2.A.toarray() - g2.B @ Di @ g2.C).T,
                                g2.C.T @ Di.T, (g2.B @ Di).T)
        ref, _, _ = classic.cf_adi(gmpq, betas)
        assert rel(extract_solution(st, "mp_q").product(), ref.product()) < 1e-10

        Dp = D + D.T
        Dpi = np.linalg.inv(Dp)
        w, U = np.linalg.eigh(Dp)
        Dpis = (U / np.sqrt(w)) @ U.T
        gprq = StateSpaceSystem(gd.E, (g2.A.toarray() - g2.B @ Dpi @ g2.C).T,
                                g2.C.T @ Dpis, (g2.B @ Dpis).T)
        ref, _, _ = classic.radi(gprq, betas, quad_weight=-1.0)
        assert rel(extract_solution(st, "pr_q").product(), ref.product()) < 1e-10

        Db2 = np.eye(g2.m) - D.T @ D
        Db2i = np.linalg.inv(Db2)
        wc, Uc = np.linalg.eigh(np.eye(g2.p) + D @ Db2i @ D.T)
        Csc = (Uc * np.sqrt(wc)) @ Uc.T
        wd, Ud = np.linalg.eigh(Db2)
        Db2is = (Ud / np.sqrt(wd)) @ Ud.T
        gbrq = StateSpaceSystem(gd.E, (g2.A.toarray() + g2.B @ Db2i @ D.T @ g2.C).T,
                                g2.C.T @ Csc, (g2.B @ Db2is).T)
        ref, _, _ = classic.radi(gbrq, betas, quad_weight=-1.0)
        assert rel(extract_solution(st, "br_q").product(), ref.product()) < 1e-10

        ref, _, _ = classic.radi(gd, betas, quad_weight=1 - 3.0 ** -2)
        assert rel(extract_solution(st, "inf_q").product(), ref.product()) < 1e-10

    def test_shared_basis_equals_classic_factor(self):
        """The engine's shared bases are the classic Lyapunov-ADI factors
        column for column, not merely up to span."""
        aus, bus = SHIFT_PATTERNS["mixed"]
        s1 = random_stable_system(24, 2, 2, 51)
        s2 = random_stable_system(20, 2, 2, 52)
        st = uadi_init(s1, s2, None, "lyap_p,lyap_q")
        for a, b in zip(aus, bus):
            uadi_step(st, a, b)
        zp, _, _ = classic.cf_adi(s1, expand_units([ShiftUnit(a) for a in aus]))
        np.testing.assert_allclose(st.V, zp.left, atol=1e-12)
        zq, _, _ = classic.cf_adi(s2.dual(),
                                  expand_units([ShiftUnit(b) for b in bus]))
        np.testing.assert_allclose(st.W, zq.left, atol=1e-12)

    def test_matched_shifts_need_no_extraction(self):
        """With alpha = beta the Sylvester product equals the plain product
        of the two shared bases."""
        s1 = random_stable_system(20, 2, 2, 31)
        s2 = random_stable_system(20, 2, 2, 32)
        st = uadi_init(s1, s2, None, "sylv")
        for a in (-0.5, -1 + 2j, -2.0):
            uadi_step(st, a, a)
        X = extract_solution(st, "sylv").product()
        assert np.linalg.norm(X - st.V @ st.W.T) < 1e-9 * np.linalg.norm(X)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("pattern", sorted(GROUP_PATTERNS))
    def test_sylvester_fires_at_common_boundary(self, pattern, m):
        """Any unit pattern groups: the branch consumes the basis up to the
        largest column count at which both sides end a unit, and its product
        is the Petrov-Galerkin one, V X^-1 W^T with the coupling X solving
        Sw^T X + X Sv = Lw^T Lv on that prefix."""
        aus, bus = GROUP_PATTERNS[pattern]
        s1 = random_stable_system(20, m, m, 61)
        s2 = random_stable_system(18, m, m, 62)
        st = uadi_init(s1, s2, None, "sylv")
        for a, b in zip(aus, bus):
            uadi_step(st, a, b)

        def ends(units):
            return set(np.cumsum([0] + [m * ShiftUnit(u).width_factor
                                        for u in units]))

        q = max(ends(aus) & ends(bus))
        assert st.rank("sylv") == q and "sylv" not in st.degraded
        v, w = st.v, st.w
        X = spla.solve_sylvester(w.S[:q, :q].T, v.S[:q, :q],
                                 w.L[:, :q].T @ v.L[:, :q])
        ref = st.V[:, :q] @ spla.solve(X, st.W[:, :q].T)
        got = extract_solution(st, "sylv").product()
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


        def consumed(units):  # shifts of the units that end by column q
            ends = np.cumsum([m * ShiftUnit(u).width_factor for u in units])
            return expand_units([ShiftUnit(u)
                                 for u, end in zip(units, ends) if end <= q])

        fs, _, _ = classic.fadi(s1, s2, consumed(aus), consumed(bus))
        ref = fs.product()  # the complex reference: no grouping at all
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        R = equation_residual("sylv", s1, s2, got)
        scale = np.linalg.norm(s1.B @ s2.C)
        assert np.linalg.norm(R - residual_product(st, "sylv")) < 1e-9 * scale

    def test_ungroupable_pattern_fires_at_common_boundary(self):
        s1 = random_stable_system(16, 1, 1, 35)
        s2 = random_stable_system(14, 1, 1, 36)
        st = uadi_init(s1, s2, None, "sylv")
        uadi_step(st, -0.5, -1 + 1j)       # real vs pair: waits
        uadi_step(st, -2 + 1j, -0.9)       # second alpha is a pair
        assert st.rank("sylv") == st.V.shape[1]
        assert "sylv" not in st.degraded
        uadi_step(st, -1.5, -2.5)
        # residual identity stays exact
        X = extract_solution(st, "sylv").product()
        R = equation_residual("sylv", s1, s2, X)
        scale = np.linalg.norm(s1.B @ s2.C)
        assert np.linalg.norm(R - residual_product(st, "sylv")) < 1e-9 * scale


class TestResidualFactorization:
    """Dense substitution of every extracted solution must equal the
    tracked low-rank residual product, at every iteration."""

    def test_all_equations_rlc(self):
        g = rlc_ladder(segments=8)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        scale = {t: st.const[t] for t in st.enabled}
        P1 = Q2 = None
        for a, b in [(-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3.0), (-0.7, -0.9)]:
            uadi_step(st, a, b)
            P1 = st.V @ st.V.T
            Q2 = st.W @ st.W.T
            for tag in sorted(st.enabled):
                sol = extract_solution(st, tag).product()
                R = equation_residual(tag, g, g, sol, RLC_PARAMS, (P1, Q2))
                got = residual_product(st, tag)
                assert np.linalg.norm(R - got) <= 1e-9 * scale[tag], tag

    def test_random_pair_subset(self):
        s1 = random_stable_system(40, 2, 2, 41)
        s2 = random_stable_system(36, 2, 2, 42)
        params = EquationParams(S1=np.array([[2.0, 0.5], [0.5, -1.0]]),
                                gamma1=2.0, gamma2=3.0)
        st = uadi_init(s1, s2, params, "sylv,ricc_p,ricc_q,inf_p,inf_q,ldl_p,ldl_q")
        for a, b in [(-0.4, -0.7), (-1 + 2j, -0.9 + 1j), (-1.5, -2.5)]:
            uadi_step(st, a, b)
            for tag in sorted(st.enabled):
                if tag == "sylv" and st.rank("sylv") == 0:
                    continue
                sol = extract_solution(st, tag).product()
                R = equation_residual(tag, s1, s2, sol, params)
                got = residual_product(st, tag)
                assert np.linalg.norm(R - got) <= 1e-9 * st.const[tag], tag


class TestProjectedInvariants:
    def test_identities_every_iteration(self):
        g, st = rlc_state(steps=())
        for a, b in [(-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3.0)]:
            uadi_step(st, a, b)
            kv = st.V.shape[1]
            # implicit-middle identity of the shared basis bookkeeping
            proj = -st.v.S.T + -st.v.S + st.v.L.T @ st.v.L
            assert np.abs(proj).max() <= 1e-12
            projw = -st.w.S.T + -st.w.S + st.w.L.T @ st.w.L
            assert np.abs(projw).max() <= 1e-12
            # projected Sylvester identity on the coupling bookkeeping
            q, hv, hw = st.rank("sylv"), st.v.sylv, st.w.sylv
            if q:
                Sv = spla.solve(hv.T, st.v.S[:q, :q] @ hv.T)
                Sw = spla.solve(hw.T, st.w.S[:q, :q] @ hw.T)
                Lv, Lw = st.v.L[:, :q], st.w.L[:, :q]
                Bh = hv.M @ Lw.T
                Ch = Lv @ hv.M
                A1h = Sv - Bh @ Lv
                A2h = Sw.T - Lw.T @ Ch
                resid = A1h @ hv.M + hv.M @ A2h + Bh @ Ch
                assert np.abs(resid).max() <= 1e-10 * max(np.abs(hv.M).max(), 1.0)
            # projected Riccati identity on the extracted small matrices
            eq = st.v.eqs["ricc"]
            Sricc = spla.solve(eq.T, st.v.S @ eq.T)
            Lricc = st.v.L @ eq.T
            Ch1 = st.v.G.T @ eq.T
            Bh1 = eq.M @ Lricc.T
            A1r = Sricc - Bh1 @ Lricc
            resid = (A1r @ eq.M + eq.M @ A1r.T + Bh1 @ Bh1.T
                     - eq.M @ Ch1.T @ Ch1 @ eq.M)
            assert np.abs(resid).max() <= 1e-10 * max(np.abs(eq.M).max(), 1.0)


class TestExtractionKernel:
    """The Lyapunov pair is the kernel's case with no feedback, no weight,
    the side's own L and an identity middle: the transform is the identity,
    and the residual factor a read forms for it is the one the step updates
    in place."""

    @pytest.mark.parametrize("pair", ["rlc", "random"])
    def test_lyapunov_case_is_the_identity(self, pair):
        import uadi.uadi as engine

        if pair == "rlc":
            g1 = g2 = rlc_ladder(segments=8)
        else:
            g1 = random_stable_system(40, 2, 2, 41)
            g2 = random_stable_system(36, 2, 2, 42)
        st = uadi_init(g1, g2, None, "lyap_p,lyap_q")
        for a, b in [(-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3.0)]:
            uadi_step(st, a, b)
        for side in (st.v, st.w):
            eq = engine._Eq(np.zeros((0, 0)), np.zeros((0, 0)),
                            np.zeros((0, side.sys.m)))
            for q in side.bounds[1:]:   # one unit block at a time
                [(eq.T, eq.M, eq.Y)] = engine._advance(side, [(eq, None)], q)
            assert np.abs(eq.T - np.eye(side.k)).max() <= 1e-12
            side.eqs["probe"] = eq   # a stale record, formed as a read forms it
            side.form()
            dev = np.linalg.norm(eq.perp - side.perp)
            assert dev <= 1e-12 * np.linalg.norm(side.perp)

    @pytest.mark.parametrize("m", [1, 2])
    def test_stacked_records_match_dense_solves(self, rng, m):
        """Every record of one stacked call solves its own
        S^T t + t s + U G^T t = H, checked against the dense Kronecker
        system, over real and pair units, with and without a U."""
        from uadi.linalg import solve_placed_sylvester

        g = random_stable_system(30, m, m, 40 + m)
        st = uadi_init(g, g, None, "lyap_p,lyap_q")
        for unit in (-0.5, -2 + 4j, -1.0, -0.3 + 1j):
            uadi_step(st, unit, unit)
        for side in (st.v, st.w):
            for kp, q in zip(side.bounds, side.bounds[1:]):
                S, s, G = side.S[:q, :q], side.S[kp:q, kp:q], side.G[:q]
                H = rng.standard_normal((3, q, q - kp))
                U = [None, rng.standard_normal((q, g.p)), rng.standard_normal((q, g.p))]
                t, failed = solve_placed_sylvester(side.schur, kp, q, H, U, G)
                assert not failed
                for Hi, Ui, ti in zip(H, U, t):
                    A = S.T if Ui is None else S.T + Ui @ G.T
                    K = np.kron(np.eye(q - kp), A) + np.kron(s.T, np.eye(q))
                    want = np.linalg.solve(K, Hi.ravel(order="F"))
                    want = want.reshape(Hi.shape, order="F")
                    assert np.linalg.norm(ti - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("tags", ["ricc_p,ricc_q",
                                      "ricc_p,ricc_q,inf_p,inf_q,mp_p,mp_q,pr_p,pr_q,br_p,br_q",
                                      "all"])
    def test_one_kernel_call_per_side_and_step(self, monkeypatch, tags):
        """However many families a side carries, and with its Sylvester
        half when that consumes the same columns, a step extracts them with
        one kernel call."""
        import uadi.uadi as engine

        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, tags)
        calls = {}
        original = engine.solve_placed_sylvester

        def counting(form, *args):
            calls["v" if form is st.v.schur else "w"] += 1
            return original(form, *args)

        monkeypatch.setattr(engine, "solve_placed_sylvester", counting)
        for a, b in ((-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3.0), (-0.8, -1.5)):
            calls.update(v=0, w=0)
            uadi_step(st, a, b)
            assert calls == {"v": 1, "w": 1}, calls
        if st.v.sylv is not None:
            assert len(st.v.sylv.T) == st.v.k
        assert not st.degraded

    def test_lagging_half_is_one_more_call(self, monkeypatch):
        """A Sylvester half that consumes other columns than its side's
        families (a real unit against a pair) goes through the same kernel
        in one more call, and only in the steps where it fires."""
        import uadi.uadi as engine

        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        calls = []
        original = engine.solve_placed_sylvester

        def recording(form, kp, q, H, *rest):
            calls.append((form is st.v.schur, kp, q, len(H)))
            return original(form, kp, q, H, *rest)

        monkeypatch.setattr(engine, "solve_placed_sylvester", recording)
        steps = ((-0.5, -1 + 2j), (-1.0, -0.8), (-2 + 1j, -1.5 + 0.5j), (-0.7, -0.9))
        # (V calls, W calls) per step: the half fires at steps 2 and 4
        want = [(1, 1), (2, 2), (1, 1), (2, 2)]
        for (a, b), (nv, nw) in zip(steps, want):
            calls.clear()
            uadi_step(st, a, b)
            assert sum(v for v, *_ in calls) == nv, calls
            assert sum(not v for v, *_ in calls) == nw, calls
        # the extra calls are batches of one over the shared boundary's columns
        m = g.m
        assert [c[1:] for c in calls if c[3] == 1] == [(2 * m, 5 * m, 1)] * 2
        assert len(st.v.sylv.T) == 5 * m and not st.degraded

    def test_degraded_family_leaves_the_batch(self, monkeypatch):
        """After one family degrades, the side's other families keep
        growing their rank with k, from a batch without it."""
        import uadi.uadi as engine

        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        uadi_step(st, -0.5, -0.6)
        original = engine.symmetric_inverse
        calls = {"n": 0}

        def flaky(a):
            calls["n"] += 1
            if calls["n"] == 1:   # ricc_p's middle block: the V side's first
                return None, 0.0   # as an exactly singular block reports
            return original(a)

        with monkeypatch.context() as m:
            m.setattr(engine, "symmetric_inverse", flaky)
            uadi_step(st, -1.0, -1.2)
        assert set(st.degraded) == {"ricc_p"}
        frozen = st.rank("ricc_p")
        batches = []   # (side, records) of each batch
        advance = engine._advance

        def recording(side, batch, q):
            batches.append((side, [eq for eq, _ in batch]))
            return advance(side, batch, q)

        monkeypatch.setattr(engine, "_advance", recording)
        for a, b in ((-2 + 1j, -0.8), (-1.5, -2.5), (-0.7, -0.9)):
            batches.clear()
            uadi_step(st, a, b)
            assert st.rank("ricc_p") == frozen < st.v.k
            for tag in ("inf_p", "mp_p", "pr_p", "br_p"):
                assert st.rank(tag) == st.v.k, tag
            for tag in ("ricc_q", "inf_q", "mp_q", "pr_q", "br_q"):
                assert st.rank(tag) == st.w.k, tag
            # exactly the families not degraded ran, ricc_p not among them
            for side, skip in ((st.v, {"ricc", "sf"}), (st.w, {"sf"})):
                ran = {id(eq) for s, eqs in batches if s is side for eq in eqs}
                fams = {f: id(eq) for f, eq in side.eqs.items()}
                assert ran & set(fams.values()) == {
                    i for f, i in fams.items() if f not in skip}
        assert set(st.degraded) == {"ricc_p"}

    def test_ill_conditioned_middle_block_degrades(self, monkeypatch):
        """A weighted family's new middle-matrix block whose reciprocal
        condition is below the bound degrades that family alone, with a
        reason that names it."""
        import uadi.uadi as engine

        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        uadi_step(st, -0.5, -0.6)
        original = engine.solve_small_lyapunov
        calls = {"n": 0}

        def near_singular(F, Q):
            x = original(F, Q)
            calls["n"] += 1
            if calls["n"] == 1:   # the V side's stack: squash ricc_p's block
                w, V = np.linalg.eigh(x[0])
                w[0] = 1e-14 * w[-1]
                x[0] = (V * w) @ V.T
                x[0] = 0.5 * (x[0] + x[0].T)
            return x

        monkeypatch.setattr(engine, "solve_small_lyapunov", near_singular)
        uadi_step(st, -1.0, -1.2)
        assert set(st.degraded) == {"ricc_p"}
        assert "reciprocal condition" in st.degraded["ricc_p"]
        for tag in st.enabled - {"ricc_p"}:
            assert np.isfinite(residual_norm(st, tag)), tag

    def test_ill_conditioned_sylvester_coupling_degrades(self, monkeypatch):
        """A Sylvester coupling d that is singular to working precision
        degrades sylv, with a reason that names the coupling, and leaves
        the other equations alone."""
        import uadi.uadi as engine

        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "lyap_p,lyap_q,ricc_p,ricc_q,sylv")
        uadi_step(st, -0.5, -0.5)
        original = engine.solve_small_sylvester

        def near_singular(F, G, H):   # only the coupling calls it here
            u, sv, vt = np.linalg.svd(original(F, G, H))
            sv[-1] = 1e-17 * sv[0]
            return (u * sv) @ vt

        monkeypatch.setattr(engine, "solve_small_sylvester", near_singular)
        uadi_step(st, -1.0, -1.0)
        assert set(st.degraded) == {"sylv"}
        assert "Sylvester coupling has reciprocal condition" in st.degraded["sylv"]
        for tag in st.enabled - {"sylv"}:
            assert np.isfinite(residual_norm(st, tag)), tag

    def test_norms_from_held_grams(self, monkeypatch):
        """Each tag's residual norm, read from the Grams its records hold,
        is gram_norm2 of its explicit residual factor: ldl with its weight,
        both Sylvester halves, a degraded record, and a stale spectral-factor
        pair that the read rebuilds."""
        import uadi.uadi as engine
        from uadi.linalg import gram_norm2

        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        original = engine.symmetric_inverse
        calls = {"n": 0, "fail": False}

        def flaky(a):
            calls["n"] += 1
            if calls["fail"] and calls["n"] == 1:   # ricc_p's middle block
                return None, 0.0
            return original(a)

        monkeypatch.setattr(engine, "symmetric_inverse", flaky)
        stale_reads = 0
        for it, (a, b) in enumerate(((-0.5, -0.6), (-2 + 4j, -1 + 2j),
                                     (-1.0, -3.0), (-0.8, -1.5))):
            calls.update(n=0, fail=it == 2)
            uadi_step(st, a, b)
            stale_reads += st.stale("sf_p")
            for tag in sorted(st.enabled):
                got = residual_norm(st, tag) * st.const[tag]
                f = st.residual_factor(tag)
                want = (gram_norm2(f[0].factor, None, f[1].factor.T) if tag == "sylv"
                        else gram_norm2(f.factor, f.weight))
                assert got == pytest.approx(want, rel=1e-13, abs=0), (it, tag)
        assert set(st.degraded) == {"ricc_p"} and stale_reads == 4

    def test_weighted_blocks_keep_the_input_channels_apart(self):
        """The RLC ladder's two channels never meet: basis column j belongs
        to channel j mod m, and every family's T, M and Y hold exact zeros
        where two channels would meet.  The weighted families' new middle
        blocks keep them because the small Lyapunov solve runs on the held
        Schur form's block, whose factors Z_1 (x) I_m and T_1 (x) I_m do not
        mix the channels; a Schur form of the pair block made by gees leaves
        roundoff there at these units, which seeds subnormal residual
        products."""
        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        for unit in (-1.87, -6.89 - 6.44j, -9.96 + 16.37j, -3.97 + 9.66j, -7.54 + 18.7j):
            uadi_step(st, unit, unit)
        checked = 0
        for side in (st.v, st.w):
            for f, eq in side.eqs.items():
                if f == "sf":
                    continue
                ch = np.arange(len(eq.T)) % g.m
                apart = ch[:, None] != ch
                assert not eq.T[apart].any(), f
                assert not eq.Y[ch[:, None] != np.arange(g.m)].any(), f
                assert eq.M is None or not eq.M[apart].any(), f
                checked += 1
        assert checked == 10 and not st.degraded

    def test_sylvester_coupling_keeps_the_input_channels_apart(self):
        """The Sylvester halves keep the zeros between the RLC ladder's
        channels too, over static-rlc's shift list: the coupling d is solved
        on the two sides' held Schur forms' blocks, which do not mix the
        channels."""
        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        for unit in (-1.8668729544418896, -6.086925121879991,
                     -6.885954263407086 - 6.441429934054144j, -1.1031187944147431,
                     -9.964416771252555 + 16.36917913042421j,
                     -2.9234796268520906 + 9.505648662720313j,
                     -7.542378401629469 + 18.704683785919258j,
                     -3.9737622842092906 + 9.659749203371321j):
            uadi_step(st, unit, unit)
        for side in (st.v, st.w):
            eq = side.sylv
            ch = np.arange(len(eq.T)) % g.m
            apart = ch[:, None] != ch
            assert not eq.T[apart].any() and not eq.M[apart].any()
            assert not eq.Y[ch[:, None] != np.arange(g.m)].any()
        assert len(st.v.sylv.T) == st.v.k and not st.degraded

    def test_s_depends_on_the_units_alone(self):
        """Two systems with m = 2 stepped with the same units (a real
        shift, a pair, the real shift again, another pair) hold the same S,
        L and Schur form bit for bit.  S is the matrix grown one unit block
        at a time, Z T Z^H is S, and neither Z nor T has an entry between
        two input channels."""
        units, m = (-0.5, -2 + 4j, -0.5, -0.3 + 1j), 2
        S, L = np.zeros((0, 0)), np.zeros((m, 0))
        for u in units:
            s, l = lyap_sl(ShiftUnit(u), m)
            S = np.block([[S, L.T @ l], [np.zeros((len(s), len(S))), s]])
            L = np.hstack([L, l])
        ch = np.arange(len(S)) % m
        apart = ch[:, None] != ch
        states = []
        for g in (rlc_ladder(30), random_stable_system(40, 2, 2, 3)):
            st = uadi_init(g, g, None, "lyap_p,lyap_q,ricc_p,ricc_q")
            for u in units:
                uadi_step(st, u, u)
            assert not st.degraded
            states.append(st)
        for a, b in ((states[0].v, states[1].v), (states[0].w, states[1].w)):
            for side in (a, b):
                np.testing.assert_array_equal(side.S, S)
                np.testing.assert_array_equal(side.L, L)
            np.testing.assert_array_equal(a.schur.T, b.schur.T)
            np.testing.assert_array_equal(a.schur.Z, b.schur.Z)
            form = a.schur
            assert spla.norm(form.Z @ form.T @ form.Z.conj().T - S) <= 1e-14 * spla.norm(S)
            assert not form.Z[apart].any() and not form.T[apart].any()

    def test_held_products_match_their_factors(self, monkeypatch):
        """Each record's Y, grown block by block, is T M L_c^T recomputed
        from its T, M and L_c, over real and pair units of both widths: the
        families, a degraded one, a lagging Sylvester half, and the rebuilt
        spectral-factor pair."""
        import uadi.uadi as engine

        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        original = engine.symmetric_inverse
        calls = {"n": 0, "fail": False}

        def flaky(a):
            calls["n"] += 1
            if calls["fail"] and calls["n"] == 2:   # inf_p's middle block
                return None, 0.0
            return original(a)

        monkeypatch.setattr(engine, "symmetric_inverse", flaky)
        steps = ((-0.5, -1 + 2j), (-1.0, -0.8), (-2 + 1j, -1.5 + 0.5j),
                 (-0.7, -0.9), (-0.3 + 1j, -1.1), (-1.3, -0.6 + 2j))
        for it, (a, b) in enumerate(steps):
            calls.update(n=0, fail=it == 2)
            uadi_step(st, a, b)
        residual_norm(st, "sf_p")
        assert set(st.degraded) == {"inf_p"}
        assert len(st.v.sylv.T) < st.v.k and len(st.v.eqs["inf"].T) < st.v.k
        checked = 0
        for side in (st.v, st.w):
            for eq in [*side.eqs.values(), side.sylv]:
                q = len(eq.T)
                Lc = (side if eq.partner is None else eq.partner).L[:, :q]
                want = eq.T @ (Lc.T if eq.M is None else eq.M @ Lc.T)
                assert eq.Y.shape == want.shape
                assert np.linalg.norm(eq.Y - want) <= 1e-12 * np.linalg.norm(want)
                checked += 1
        assert checked == 14


class TestPolePlacement:
    def test_table_rows(self):
        g, st = rlc_state()
        residual_norm(st, "sylv")   # forms every factor of both sides
        E, A = g.E.toarray(), g.A.toarray()
        D = g.D
        m = g.m
        conj_a = []
        for u in st.alpha_units:
            conj_a += [np.conj(s) for s in u.shifts()] * m
        betas = []
        for u in st.beta_units:
            betas += list(u.shifts()) * m

        # shared-basis rows: eig(-Sv^T) = conj(alpha), eig(-Sw) = conj(beta)
        assert_multiset_close(spla.eigvals(-st.v.S.T), conj_a, 1e-10)
        assert_multiset_close(spla.eigvals(-st.w.S), np.conj(betas), 1e-10)

        # Sylvester rows: coupling-extracted matrices place beta / alpha
        q, hv, hw = st.rank("sylv"), st.v.sylv, st.w.sylv
        Sv = spla.solve(hv.T, st.v.S[:q, :q] @ hv.T)
        Sw = spla.solve(hw.T, st.w.S[:q, :q] @ hw.T)
        Lv, Lw = st.v.L[:, :q], st.w.L[:, :q]
        A1h = Sv - (hv.M @ Lw.T) @ Lv
        assert_multiset_close(spla.eigvals(A1h), betas, 1e-8)
        A2h = Sw.T - Lw.T @ (Lv @ hv.M)
        assert_multiset_close(spla.eigvals(A2h), np.conj(conj_a), 1e-8)

        # Riccati-family rows, checked in each equation's own frame
        def frame_placed(tag, A_eq, Cw, sign):
            eq = st.v.eqs[tag[:-2]]
            Vf = st.V @ eq.T
            Af = spla.lstsq(E @ Vf, A_eq @ Vf + eq.perp @ st.v.L)[0]
            Cf = Cw @ Vf
            return spla.eigvals(Af + sign * eq.M @ Cf.T @ Cf)

        assert_multiset_close(frame_placed("ricc_p", A, g.C, -1.0), conj_a, 1e-7)
        assert_multiset_close(
            frame_placed("inf_p", A, np.sqrt(1 - 2.0 ** -2) * g.C, -1.0),
            conj_a, 1e-7)
        Dp = D + D.T
        Dpi = np.linalg.inv(Dp)
        w, U = np.linalg.eigh(Dp)
        Dpis = (U / np.sqrt(w)) @ U.T
        assert_multiset_close(
            frame_placed("pr_p", A - g.B @ Dpi @ g.C, Dpis @ g.C, +1.0),
            conj_a, 1e-7)
        Db = np.eye(2) - D @ D.T
        Dbi = np.linalg.inv(Db)
        wc, Uc = np.linalg.eigh(Db)
        Dbis = (Uc / np.sqrt(wc)) @ Uc.T
        assert_multiset_close(
            frame_placed("br_p", A + g.B @ (D.T @ Dbi) @ g.C, Dbis @ g.C, +1.0),
            conj_a, 1e-7)
        # minimum-phase frame has an identity middle: placed matrix directly
        eqm = st.v.eqs["mp"]
        Di = np.linalg.inv(D)
        Vf = st.V @ eqm.T
        Af = spla.lstsq(E @ Vf, (A - g.B @ Di @ g.C) @ Vf + eqm.perp @ st.v.L)[0]
        assert_multiset_close(spla.eigvals(Af), conj_a, 1e-7)
        # dual side spot check
        eqq = st.w.eqs["ricc"]
        Wf = st.W @ eqq.T
        Afq = spla.lstsq(E.T @ Wf, A.T @ Wf + eqq.perp @ st.w.L)[0]
        Bfq = g.B.T @ Wf
        assert_multiset_close(
            spla.eigvals(Afq - eqq.M @ Bfq.T @ Bfq), betas, 1e-7)


class TestSpectralFactor:
    def test_consistency_after_convergence(self):
        """Once the Gramian residuals are tiny the spectral-factor pair must
        satisfy its coupled equation to matching accuracy."""
        from uadi.shiftgen import PetrovBtShiftOracle

        g = rlc_ladder(segments=10)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        oracle = PetrovBtShiftOracle(g, cap=10)
        for _ in range(45):
            unit = oracle.next_unit()
            uadi_step(st, unit, ShiftUnit(unit.value))
            oracle.observe(st.V, st.W, st.v.perp, st.w.perp)
            if max(residual_norm(st, "lyap_p"), residual_norm(st, "lyap_q")) <= 1e-10:
                break
        assert residual_norm(st, "lyap_p") <= 1e-10
        assert residual_norm(st, "lyap_q") <= 1e-10
        P1 = st.V @ st.V.T
        Q2 = st.W @ st.W.T
        for tag in ("sf_p", "sf_q"):
            sol = extract_solution(st, tag).product()
            R = equation_residual(tag, g, g, sol, RLC_PARAMS, (P1, Q2))
            assert np.linalg.norm(R - residual_product(st, tag)) <= 1e-9 * st.const[tag]
            assert residual_norm(st, tag) <= 1e-6

    STEPS = ((-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3.0), (-0.8, -1.5),
             (-0.3 + 1j, -0.4 + 3j), (-1.5, -2.5), (-0.7, -0.9), (-2.0, -1.2),
             (-1 + 2j, -0.9 + 1j), (-0.4, -0.45), (-3.0, -2.2), (-0.6 + 0.5j, -1.1))

    def test_rebuilt_only_on_read(self, monkeypatch):
        """A step never rebuilds the pair; a read of a stale pair rebuilds
        each half once, and a second read rebuilds nothing."""
        import uadi.uadi as engine

        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        calls = {"v": 0, "w": 0}
        original = engine._sf_side

        def counting(side, other):
            calls["v" if side is st.v else "w"] += 1
            return original(side, other)

        monkeypatch.setattr(engine, "_sf_side", counting)
        for a, b in self.STEPS:
            uadi_step(st, a, b)
        assert calls == {"v": 0, "w": 0}
        assert st.stale("sf_p") and st.stale("sf_q")
        residual_norm(st, "sf_p")
        assert calls == {"v": 1, "w": 1}
        for tag in ("sf_q", "sf_p"):
            assert not st.stale(tag)
            residual_norm(st, tag)
        assert calls == {"v": 1, "w": 1} and not st.degraded

    @pytest.mark.parametrize("system", ["rlc", "random"])
    def test_coupled_output_map_without_cross_gram(self, system):
        """The rebuild's coupled output map (X_o G_o)^T X + D^T G^T gives
        the T, M and Y of the cross-Gram form G_o^T (X^T X_o)^T + D^T G^T.
        The two maps agree to roundoff (about 1e-16); the pair's small solves
        amplify that by their condition, so the random system is one whose
        pair is well conditioned (seed 2: cond of the Lyapunov solution
        about 60; at seed 7 it is 1e4 to 1e7, and M differs by 1e-6)."""
        import uadi.uadi as engine
        from uadi.linalg import solve_small_lyapunov, solve_small_sylvester

        if system == "rlc":
            g, params = rlc_ladder(segments=6), RLC_PARAMS
        else:
            base = random_stable_system(30, 2, 2, 2)
            D = np.array([[1.0, 0.3], [-0.2, 0.8]])
            g, params = StateSpaceSystem(base.E, base.A, base.B, base.C, D), None
        st = uadi_init(g, g, params, "sf_p,sf_q")
        for a, b in self.STEPS[:8]:
            uadi_step(st, a, b)

        def cross_gram(side, other):
            eq = side.eqs["sf"]
            Cm = other.G.T @ (side.X.T @ other.X).T + side.sys.D.T @ side.G.T
            F = -side.S.T - side.L.T @ eq.fb @ Cm
            T = solve_small_sylvester(F, side.S, side.L.T @ eq.rr @ side.L)
            Cs = eq.rr @ Cm @ T
            M = spla.inv(solve_small_lyapunov(-side.S, side.L.T @ side.L - Cs.T @ Cs))
            return T, M, T @ (M @ side.L.T)

        for side, other in ((st.v, st.w), (st.w, st.v)):
            for got, want in zip(engine._sf_side(side, other), cross_gram(side, other)):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_ill_conditioned_pair_degrades(self):
        """A pair whose Gramian X is ill conditioned (about 1e13 at seed 7
        with feedthrough) is degraded with a reason instead of passing an
        inaccurate M = inv(X)."""
        base = random_stable_system(30, 2, 2, 7)
        D = np.array([[1.0, 0.3], [-0.2, 0.8]])
        g = StateSpaceSystem(base.E, base.A, base.B, base.C, D)
        st = uadi_init(g, g, None, "sf_p,sf_q")
        for a, b in self.STEPS:
            uadi_step(st, a, b)
        residual_norm(st, "sf_p")
        assert set(st.degraded) == {"sf_p", "sf_q"}
        assert "reciprocal condition" in st.degraded["sf_p"]

    def test_lazy_pair_equals_eager(self):
        """A pair read only at the end equals one read, and so rebuilt,
        after every step."""
        g = rlc_ladder(segments=6)
        eager, lazy = (uadi_init(g, g, RLC_PARAMS, "all") for _ in range(2))
        for a, b in self.STEPS:
            for st in (eager, lazy):
                uadi_step(st, a, b)
            for tag in ("sf_p", "sf_q"):
                residual_norm(eager, tag)
        assert lazy.stale("sf_p") and lazy.stale("sf_q")

        def close(got, want):
            return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

        for tag in ("sf_p", "sf_q"):
            assert residual_norm(lazy, tag) == pytest.approx(
                residual_norm(eager, tag), rel=1e-12, abs=0)
            assert close(extract_solution(lazy, tag).product(),
                         extract_solution(eager, tag).product()), tag
        for le, ee in ((lazy.v.eqs["sf"], eager.v.eqs["sf"]),
                       (lazy.w.eqs["sf"], eager.w.eqs["sf"])):
            for name in ("T", "M", "perp"):
                assert close(getattr(le, name), getattr(ee, name)), name
        assert not lazy.degraded and not eager.degraded


class TestGammaEdgeCases:
    def test_gamma_one_reduces_to_lyapunov(self):
        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, EquationParams(gamma1=1.0, gamma2=1.0), "all")
        for a, b in [(-0.5, -0.8), (-1 + 2j, -2 + 1j)]:
            uadi_step(st, a, b)
        assert residual_norm(st, "inf_p") == pytest.approx(
            residual_norm(st, "lyap_p"), rel=1e-10)
        P = extract_solution(st, "inf_p").product()
        Pl = extract_solution(st, "lyap_p").product()
        assert np.linalg.norm(P - Pl) <= 1e-10 * np.linalg.norm(Pl)

    def test_gamma_below_one_accepted(self):
        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, EquationParams(gamma1=0.5, gamma2=0.5), "inf_p,inf_q")
        for a, b in [(-0.5, -0.8), (-1.5, -2.0)]:
            uadi_step(st, a, b)
        params = EquationParams(gamma1=0.5, gamma2=0.5)
        sol = extract_solution(st, "inf_p").product()
        R = equation_residual("inf_p", g, g, sol, params)
        assert np.linalg.norm(R - residual_product(st, "inf_p")) <= 1e-9 * st.const["inf_p"]


class TestDegradation:
    def test_small_solve_failure_degrades_single_equation(self, monkeypatch):
        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        uadi_step(st, -0.5, -0.6)
        import uadi.uadi as engine

        original = engine.symmetric_inverse
        calls = {"n": 0}

        def flaky(a):
            calls["n"] += 1
            if calls["n"] == 1:  # first middle-matrix block of the next step
                return None, 0.0   # as an exactly singular block reports
            return original(a)

        monkeypatch.setattr(engine, "symmetric_inverse", flaky)
        uadi_step(st, -1.0, -1.2)
        assert set(st.degraded) == {"ricc_p"}
        others = st.enabled - {"ricc_p"}
        # every other equation keeps progressing
        for tag in others:
            residual_norm(st, tag)
        assert st.large_solve_count == 4

    @pytest.mark.parametrize("tag, select, name, fail_at", [
        # the V side's first middle-matrix block reports itself singular
        pytest.param("ricc_p", "all", "symmetric_inverse", 1, id="ricc_p"),
        # the V-half solve succeeds, the W half's fails
        pytest.param("sylv", "lyap_p,lyap_q,sylv", "solve_placed_sylvester", 2,
                     id="sylv"),
    ])
    def test_degraded_equation_still_extracts(self, monkeypatch, tag, select,
                                              name, fail_at):
        """A failed small solve leaves the transforms, the middle matrix and
        the residual factors of the step before for the whole tag group,
        and the equation extracts on the basis prefix they cover."""
        import uadi.uadi as engine

        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, select)
        uadi_step(st, -0.5, -0.6)

        def factors():
            got = st.residual_factor(tag)
            return [f.factor.copy() for f in (got if tag == "sylv" else (got,))]

        before, q = factors(), st.rank(tag)
        original = getattr(engine, name)
        calls = {"n": 0}

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] == fail_at:
                if name == "symmetric_inverse":
                    return None, 0.0
                raise spla.LinAlgError("synthetic failure")
            return original(*args)

        monkeypatch.setattr(engine, name, flaky)
        uadi_step(st, -1.0, -1.2)
        assert set(st.degraded) == {tag} and calls["n"] >= fail_at
        for got, old in zip(factors(), before, strict=True):
            np.testing.assert_array_equal(got, old)
        uadi_step(st, -2 + 1j, -0.8)
        sol = extract_solution(st, tag)
        X = sol.product()
        assert X.shape == (g.n, g.n) and np.all(np.isfinite(X))
        assert st.rank(tag) == q == sol.left.shape[1] == sol.middle_matrix().shape[0]

    def test_degraded_spectral_factor_still_extracts(self, monkeypatch):
        """A failed spectral-factor recompute keeps the previous step's
        transform, which covers a prefix of the grown basis."""
        import uadi.uadi as engine

        def failing(F, Q):
            raise spla.LinAlgError("synthetic failure")

        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "sf_p,sf_q")
        uadi_step(st, -0.5, -0.6)
        before = st.residual_factor("sf_q").factor.copy()
        with monkeypatch.context() as m:
            m.setattr(engine, "solve_small_lyapunov", failing)
            uadi_step(st, -1.0, -1.2)
            residual_norm(st, "sf_p")   # the read rebuilds, and fails
        assert {"sf_p", "sf_q"} <= set(st.degraded)
        np.testing.assert_array_equal(st.residual_factor("sf_q").factor, before)
        for tag in ("sf_p", "sf_q"):
            sol = extract_solution(st, tag)
            assert np.all(np.isfinite(sol.product()))
            assert st.rank(tag) == sol.left.shape[1] < st.V.shape[1]


class TestFailurePropagation:
    """Numerical failures of the small solves degrade; bugs propagate."""

    def _state(self):
        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        uadi_step(st, -0.5, -0.6)
        return st

    @pytest.mark.parametrize("bug", [TypeError, DimensionMismatch])
    def test_programming_error_propagates(self, monkeypatch, bug):
        """A bug in the Sylvester coupling."""
        import uadi.uadi as engine

        def broken(F, G, H):
            raise bug("synthetic bug")

        st = self._state()
        monkeypatch.setattr(engine, "solve_small_sylvester", broken)
        with pytest.raises(bug):
            uadi_step(st, -1.0, -1.2)

    @pytest.mark.parametrize("bug", [TypeError, DimensionMismatch, ValueError])
    def test_extraction_bug_propagates(self, monkeypatch, bug):
        """A bug in the extraction kernel, which every equation calls."""
        import uadi.uadi as engine

        def broken(*args):
            raise bug("synthetic bug")

        st = self._state()
        monkeypatch.setattr(engine, "solve_placed_sylvester", broken)
        with pytest.raises(bug):
            uadi_step(st, -1.0, -1.2)

    def test_spectra_overlap_degrades(self, monkeypatch):
        import uadi.uadi as engine
        from uadi.errors import SpectraOverlap

        def overlapping(*args):
            raise SpectraOverlap("synthetic overlap")

        st = self._state()
        monkeypatch.setattr(engine, "solve_small_sylvester", overlapping)
        monkeypatch.setattr(engine, "solve_placed_sylvester", overlapping)
        uadi_step(st, -1.0, -1.2)
        residual_norm(st, "sf_q")   # the spectral-factor pair fails on a read
        assert {"ricc_p", "ricc_q", "sylv", "sf_p", "sf_q"} <= set(st.degraded)
        assert "lyap_p" not in st.degraded and st.large_solve_count == 4

    @pytest.mark.parametrize("exc", [spla.LinAlgError, TypeError])
    def test_failure_in_rebuild_on_read(self, monkeypatch, exc):
        """A read that rebuilds a stale pair degrades both halves on a
        numerical failure, keeping their last good T, M and perp; a bug
        propagates."""
        import uadi.uadi as engine

        def failing(F, Q):
            raise exc("synthetic failure")

        st = self._state()
        residual_norm(st, "sf_p")   # a good rebuild to keep
        for a, b in ((-1.0, -1.2), (-1.5, -2.5)):
            uadi_step(st, a, b)
        assert st.stale("sf_p") and not st.degraded
        before = [(eq.T.copy(), eq.M.copy(), eq.perp.copy())
                  for eq in (st.v.eqs["sf"], st.w.eqs["sf"])]
        monkeypatch.setattr(engine, "solve_small_lyapunov", failing)
        if exc is TypeError:
            with pytest.raises(TypeError):
                residual_norm(st, "sf_q")
            assert not st.degraded
            return
        residual_norm(st, "sf_q")
        assert set(st.degraded) == {"sf_p", "sf_q"} and not st.stale("sf_p")
        for eq, old in zip((st.v.eqs["sf"], st.w.eqs["sf"]), before):
            for got, want in zip((eq.T, eq.M, eq.perp), old):
                np.testing.assert_array_equal(got, want)


class TestRankAccessor:
    @pytest.mark.parametrize("steps", [
        ((-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3.0)),
        ((-0.5, -1 + 2j), (-1 + 1j, -0.7), (-2.0, -1.5)),  # no case groups it
    ])
    def test_rank_matches_extract(self, steps):
        g, st = rlc_state(steps)
        for tag in sorted(st.enabled):
            assert st.rank(tag) == extract_solution(st, tag).rank

    def test_rank_before_first_step(self):
        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        with pytest.raises(EquationSkipped):
            st.rank("lyap_p")


class TestSubnormalFlush:
    def test_basis_flushed_and_history_unchanged(self, monkeypatch):
        import uadi.uadi as engine

        g = rlc_ladder(segments=2000)
        tiny = np.finfo(float).tiny

        def run():
            st = uadi_init(g, g, None, "lyap_p,lyap_q,ricc_p,ricc_q")
            history = []
            for a in (-0.05, -0.3 + 2j, -1.0, -3 + 10j):
                uadi_step(st, a, a)
                history.append([residual_norm(st, t) for t in sorted(st.enabled)])
            return st, np.array(history)

        def subnormal(M):
            return np.any((M != 0) & (np.abs(M) < tiny))

        st, flushed = run()
        assert not subnormal(st.V) and not subnormal(st.W)
        monkeypatch.setattr(engine, "_flush_subnormals", lambda block: block)
        raw_st, raw = run()
        assert subnormal(raw_st.V) and subnormal(raw_st.W)
        assert np.all(np.abs(flushed - raw) <= 1e-14 * np.abs(raw))

    def test_bound_is_the_root_of_tiny(self):
        """Entries below sqrt(tiny) are zeroed, so that a product of two
        kept entries is never subnormal; one at twice the bound is kept."""
        from uadi.uadi import _flush_subnormals

        root = np.sqrt(np.finfo(float).tiny)
        block = np.array([[4.0 * np.finfo(float).tiny, 0.5 * root, 2.0 * root],
                          [-0.99 * root, -2.0 * root, 1.0]])
        out = _flush_subnormals(block)
        assert out is block
        assert np.array_equal(block, [[0.0, 0.0, 2.0 * root], [0.0, -2.0 * root, 1.0]])
        assert (2.0 * root) ** 2 >= np.finfo(float).tiny


class TestBasisStorage:
    """V and W grow in place; the public names are read-only views of the
    filled columns, and no other n-row array on a side is wider than the
    residual factors."""

    def test_bases_are_the_stacked_solve_blocks(self, monkeypatch):
        import uadi.uadi as engine

        blocks = []
        original = engine.realified_columns

        def recording(unit, v):
            block = original(unit, v)
            blocks.append(block)   # flushed in place afterwards, like V
            return block

        monkeypatch.setattr(engine, "realified_columns", recording)
        s1 = random_stable_system(30, 2, 2, 61)
        s2 = random_stable_system(26, 2, 2, 62)
        st = uadi_init(s1, s2, None, "lyap_p,lyap_q")
        for a, b in ((-0.5, -1 + 2j), (-1 + 3j, -0.7), (-2.0, -3.0),
                     (-0.3 + 1j, -0.4 + 5j), (-1.5, -2 + 1j)):
            uadi_step(st, a, b)
        V = np.hstack(blocks[0::2])
        W = np.hstack(blocks[1::2])
        np.testing.assert_array_equal(st.V, V)
        np.testing.assert_array_equal(st.W, W)
        for M in (st.V, st.W):
            assert not M.flags.writeable
            with pytest.raises(ValueError):
                M[0, 0] = 1.0

    def test_view_survives_reallocation(self):
        from uadi.uadi import _Columns

        rng = np.random.default_rng(5)
        cols = _Columns(7)
        blocks = [rng.standard_normal((7, 2)) for _ in range(6)]
        cols.append(blocks[0])
        buffers, views = {id(cols._buf)}, []
        for b in blocks[1:]:
            views.append((cols.view, np.hstack(blocks[: cols.k // 2])))
            cols.append(b)
            buffers.add(id(cols._buf))
        assert len(buffers) > 2   # the capacity doubled more than once
        for view, expected in views:
            np.testing.assert_array_equal(view, expected)
        np.testing.assert_array_equal(cols.view, np.hstack(blocks))
        assert cols.view.flags.f_contiguous

    def test_basis_is_the_only_wide_array(self):
        """Every residual factor is recomputed from the basis and the small
        matrices, so the basis buffer is the one n-row array per side that
        grows with the iteration."""
        g, st = rlc_state(steps=((-0.5, -0.6), (-2 + 4j, -1 + 2j),
                                 (-1.0, -3.0), (-0.8, -1.5)), segments=6)
        residual_norm(st, "sylv")   # forms every factor of both sides
        bases = {id(st.v._X._buf), id(st.w._X._buf)}
        width, seen, wide = max(g.m, g.p), set(), []

        def walk(obj, path):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                if (obj.ndim == 2 and obj.shape[0] == g.n
                        and obj.shape[1] > width and id(obj) not in bases):
                    wide.append((path, obj.shape))
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    walk(value, f"{path}[{key!r}]")
            elif isinstance(obj, (list, tuple)):
                for i, value in enumerate(obj):
                    walk(value, f"{path}[{i}]")
            elif hasattr(obj, "__dict__"):
                for key, value in vars(obj).items():
                    walk(value, f"{path}.{key}")

        walk(st.v, "v")
        walk(st.w, "w")
        assert bases <= seen and st.v.k > 2 * width
        assert {"ricc", "mp", "sf"} <= set(st.v.eqs) and len(st.v.frame) == g.n
        assert st.v.sylv.perp.shape[0] == g.n
        assert not wide, wide


    # static-rlc's first shifts, on a ladder long enough that the
    # solutions decay below tiny well inside both blocks
    LADDER_STEPS = (-1.8668729544418896, -6.885954263407086 - 6.441429934054144j,
                    -1.1031187944147431, -2.9234796268520906 + 9.505648662720313j)

    def test_lift_pads_zero_rows(self):
        """A ``_Columns`` buffer holds its frame's rows alone; lifted onto a
        grown frame it reads zero on the new rows and keeps every block on
        the old ones, whatever its capacity."""
        from uadi.linalg import RowFrame
        from uadi.uadi import _Columns

        rng = np.random.default_rng(8)
        frames = [RowFrame(12, np.array(r)) for r in
                  ([0, 1, 2], [0, 1, 2, 3, 6, 7], [0, 1, 2, 3, 4, 6, 7, 8, 9])]
        frames.append(RowFrame(12))
        cols, frame, want, capacities = _Columns(3), frames[0], [], set()
        for new in (frames[0], frames[1], frames[1], frames[2], frames[3]):
            cols.lift(new, frame)
            frame = new
            block = np.zeros((12, 2))
            block[frame.rows if not frame.full else slice(None)] = rng.standard_normal((len(frame), 2))
            cols.append(frame.gather(block))
            want.append(block)
            capacities.add(cols._buf.shape[1])
            np.testing.assert_array_equal(frame.scatter(cols.view), np.hstack(want))
        assert len(capacities) > 2   # reallocated more than once

    def test_frame_covers_every_block(self, monkeypatch):
        """On rlc_ladder(4000) every new basis block is on its side's row
        frame, the rows from each block's first to the end of the largest
        window its cache's split has used there, which stops short of both
        blocks' ends, and V and W are zero off the frame."""
        import uadi.uadi as engine

        g = rlc_ladder(4000)
        blocks, real = [], engine.realified_columns
        monkeypatch.setattr(engine, "realified_columns",
                            lambda unit, sol: blocks.append(real(unit, sol)) or blocks[-1])
        st = uadi_init(g, g, None, "lyap_p,lyap_q,ricc_p,ricc_q")

        def outside(side):
            mask = np.ones(g.n, dtype=bool)
            mask[side.frame.rows] = False
            return mask

        for unit in self.LADDER_STEPS:
            uadi_step(st, unit, unit)
            for side, block in zip((st.v, st.w), blocks[-2:]):
                assert len(block) == len(side.frame) == side.X.shape[0]
        for side, X in ((st.v, st.V), (st.w, st.W)):
            ends = sorted(side.cache._split.ends.items())
            assert [lo for lo, _ in ends] == [0, g.n // 2]
            assert all(end < hi for (_, end), hi in zip(ends, (g.n // 2, g.n)))
            np.testing.assert_array_equal(
                side.frame.rows, np.concatenate([np.arange(lo, end) for lo, end in ends]))
            assert X.shape == (g.n, side.k) and not X[outside(side)].any()

    @pytest.mark.parametrize("g", [penzl_triple_peak(200, 10, 20, 30),
                                   random_stable_system(30, 2, 2, 3)])
    def test_frame_is_all_rows_off_the_ladders(self, g):
        """A split pencil (penzl's decoupled states) or a non-tridiagonal
        one has the full frame: the side holds the system itself and
        state.V is the side's buffer, with no copy."""
        st = uadi_init(g, g, None, "lyap_p,lyap_q")
        for a in (-1.0, -2 + 1j):
            uadi_step(st, a, a)
        for side in (st.v, st.w):
            assert side.frame.full and side.fsys is side.sys
        assert np.shares_memory(st.V, st.v._X._buf)
        assert np.shares_memory(st.W, st.w._X._buf)


class TestFactorsOnRead:
    """One read rule for every tag: a step sets only a record's T, M and Y,
    and a read of a stale tag forms the factors it needs (``UadiState.entry``);
    only the Lyapunov records' factors, the next solves' right-hand sides,
    are updated by the step."""

    def test_reads_form_each_side_in_one_pass(self, monkeypatch):
        """A step forms no family or Sylvester-half factor.  The first read
        of a stale tag forms every stale record of each side it reads, in
        one pass per side, and a second read forms nothing.  On
        rlc_ladder(4000), whose reach stops short of every block's end, each
        formed factor is B rr - E (X Y) over all rows: the families, the
        Sylvester halves and the rebuilt spectral-factor pair."""
        import uadi.uadi as engine

        g = rlc_ladder(4000)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        passes, original = [], engine._Side.form

        def recording(side):
            stale = [eq for eq in (*side.eqs.values(), side.sylv) if eq.perp is None]
            if stale:
                passes.append((side, {id(eq) for eq in stale}))
            return original(side)

        def records(side, *fams):
            return {id(side.eqs[f]) if f != "sylv" else id(side.sylv) for f in fams}

        monkeypatch.setattr(engine._Side, "form", recording)
        for unit in TestBasisStorage.LADDER_STEPS:
            uadi_step(st, unit, unit)
        assert not passes
        lyapunov = {"lyap_p", "lyap_q", "ldl_p", "ldl_q"}
        assert {tag for tag in st.enabled if st.stale(tag)} == st.enabled - lyapunov
        fams = ("ricc", "inf", "mp", "pr", "br", "sylv")
        residual_norm(st, "ricc_p")     # the V side's records, not its pair's
        assert passes == [(st.v, records(st.v, *fams))]
        assert st.stale("sylv") and st.stale("sf_p") and not st.stale("mp_p")
        residual_norm(st, "ricc_p")
        residual_norm(st, "mp_p")
        residual_norm(st, "sylv")       # both halves: the W side is left
        assert passes[1:] == [(st.w, records(st.w, *fams))]
        residual_norm(st, "sf_q")       # the pair's rebuild, on both sides
        assert passes[2:] == [(st.v, records(st.v, "sf")), (st.w, records(st.w, "sf"))]
        for tag in st.enabled:
            residual_norm(st, tag)
            assert not st.stale(tag)
        assert len(passes) == 4
        checked = 0
        for side in (st.v, st.w):
            assert not side.frame.full
            for eq in [*side.eqs.values(), side.sylv]:
                rr = np.eye(g.m) if eq.rr is None else eq.rr
                y = np.vstack([eq.Y, np.zeros((side.k - len(eq.Y), eq.Y.shape[1]))])
                want = side.sys.B @ rr - side.sys.E @ (side.frame.scatter(side.X) @ y)
                got = side.frame.scatter(eq.perp)
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
                assert np.abs(eq.gram - want.T @ want).max() <= 1e-13 * np.abs(eq.gram).max()
                checked += 1
        assert checked == 14 and not st.degraded

    def test_one_record_read_alone(self, monkeypatch):
        """``factor`` forms the one record it reads, on the side it names
        (either Sylvester half), and leaves every other record of that side
        stale; a second read forms nothing.  The factor equals the one a
        read of the whole side forms."""
        import uadi.uadi as engine

        g = rlc_ladder(4000)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        for unit in TestBasisStorage.LADDER_STEPS:
            uadi_step(st, unit, unit)
        passes, original = [], engine._Side.form

        def recording(side, eqs=None):
            stale = [eq for eq in (eqs or (*side.eqs.values(), side.sylv))
                     if eq is not None and eq.perp is None]
            if stale:
                passes.append((side, {id(eq) for eq in stale}))
            return original(side, eqs)

        def record(state, tag, name):   # the record of tag on side v or w
            side = getattr(state, name)
            return side, side.sylv if tag == "sylv" else side.eqs[tag[:-2]]

        monkeypatch.setattr(engine._Side, "form", recording)
        reads = [("sylv", "w"), ("sylv", "v"), ("ricc_p", "v")]
        got = []
        for tag, name in reads:
            side, eq = record(st, tag, name)
            got.append(st.factor(tag, side).copy())
            assert passes[-1] == (side, {id(eq)}) and st.factor(tag, side) is eq.perp
        assert len(passes) == len(reads)
        assert st.stale("inf_p") and st.stale("ricc_q") and not st.stale("sylv")
        fresh = uadi_init(g, g, RLC_PARAMS, "all")
        for unit in TestBasisStorage.LADDER_STEPS:
            uadi_step(fresh, unit, unit)
        for (tag, name), factor in zip(reads, got):
            fresh.entry(tag)   # every stale record of the sides it reads
            _, eq = record(fresh, tag, name)
            assert np.abs(factor - eq.perp).max() <= 1e-15 * np.abs(eq.perp).max()

    def test_degraded_family_reports_its_last_good_factor(self, monkeypatch):
        """A family that degrades after a step whose update was never read
        reports, on read, the factor of that last good update, and is not
        stale afterwards."""
        import uadi.uadi as engine
        from uadi.linalg import gram_norm2

        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        original = engine.symmetric_inverse
        calls = {"n": 0, "fail": False}

        def flaky(a):
            calls["n"] += 1
            if calls["fail"] and calls["n"] == 1:   # ricc_p's middle block
                return None, 0.0
            return original(a)

        monkeypatch.setattr(engine, "symmetric_inverse", flaky)
        for a, b in ((-0.5, -0.6), (-2 + 4j, -1 + 2j)):
            uadi_step(st, a, b)
        eq = st.v.eqs["ricc"]
        good = eq.Y
        calls.update(n=0, fail=True)
        uadi_step(st, -1.0, -3.0)
        assert set(st.degraded) == {"ricc_p"} and st.stale("ricc_p")
        assert eq.Y is good and len(eq.T) == len(good) < st.v.k
        want = g.B @ eq.rr - g.E @ (st.V[:, :len(good)] @ good)
        factor = st.residual_factor("ricc_p").factor
        assert np.abs(factor - want).max() <= 1e-14 * np.abs(want).max()
        assert not st.stale("ricc_p")
        assert residual_norm(st, "ricc_p") * st.const["ricc_p"] == pytest.approx(
            gram_norm2(want), rel=1e-12, abs=0)

    def test_tag_not_enabled_is_never_stale(self):
        """``stale`` of a tag that is not enabled is False, even for the
        unselected half of a spectral-factor pair whose records exist."""
        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "sf_p,ricc_p")
        for a, b in TestSpectralFactor.STEPS[:3]:
            uadi_step(st, a, b)
        assert "sf" in st.w.eqs and "sf_q" not in st.enabled
        assert st.stale("sf_p") and st.stale("ricc_p")
        for tag in ("sf_q", "ricc_q", "sylv", "mp_p", "nonsense"):
            assert st.stale(tag) is False, tag
        residual_norm(st, "sf_p")
        assert not st.stale("sf_p") and st.stale("sf_q") is False


class TestSharedFactorization:
    """G1 = G2: the W side solves with the V side's LU, transposed."""

    def test_single_system_factors_once_per_step(self):
        g = random_stable_system(40, 2, 2, 71)
        units = (-0.5, -1 + 2j, -2.0, -0.3 + 4j, -1.1)
        st = uadi_init(g, g, None, "lyap_p,lyap_q,ricc_q")
        for a in units:
            uadi_step(st, a, a)
        assert st.single_system
        assert st.cache1.factor_count + st.cache2.factor_count == len(units)
        assert st.large_solve_count == 2 * len(units)
        zq, _, _ = classic.cf_adi(g.dual(),
                                  expand_units([ShiftUnit(a) for a in units]))
        assert np.linalg.norm(st.W - zq.left) <= 1e-12 * np.linalg.norm(zq.left)

    def test_two_systems_factor_twice_per_step(self):
        s1 = penzl_triple_peak(60, 1.0, 2.0, 3.0)
        s2 = penzl_triple_peak(60, 4.0, 5.0, 6.0)
        st = uadi_init(s1, s2, None, "lyap_p,lyap_q,sylv")
        for a, b in ((-0.5, -0.5), (-1 + 2j, -1 + 2j), (-2.0, -2.0)):
            uadi_step(st, a, b)
        assert not st.single_system
        assert st.cache1.factor_count == st.cache2.factor_count == 3


def _with_feedthrough(sys, D):
    return StateSpaceSystem(sys.E, sys.A, sys.B, sys.C, D, label=sys.label)


class TestDuality:
    """The W side of a run on (G1, G2) with shifts (alpha, beta) and params
    (S1, S2, gamma1, gamma2) is the V side of a run on (G2.dual(),
    G1.dual()) with shifts (beta, alpha) and params (S2, S1, gamma2,
    gamma1), and the other way round; the Sylvester solution transposes."""

    STEPS = ((-0.5, -0.7), (-1 + 2j, -0.9 + 1j), (-1.5, -2.5),
             (-0.3 + 1j, -0.4 + 3j), (-2.0, -1.2))

    @staticmethod
    def _mirror(tag):
        return {"p": tag[:-1] + "q", "q": tag[:-1] + "p"}.get(tag[-1], tag)

    def _check(self, g1, g2, S1, S2, gamma1, gamma2, expect):
        st = uadi_init(g1, g2, EquationParams(S1, S2, gamma1, gamma2), "all")
        du = uadi_init(g2.dual(), g1.dual(),
                       EquationParams(S2, S1, gamma2, gamma1), "all")
        for a, b in self.STEPS:
            uadi_step(st, a, b)
            uadi_step(du, b, a)
        assert expect <= st.enabled
        assert du.enabled == {self._mirror(t) for t in st.enabled}
        assert not st.degraded and not du.degraded
        for tag in sorted(st.enabled):
            twin = self._mirror(tag)
            assert residual_norm(du, twin) == pytest.approx(
                residual_norm(st, tag), rel=1e-13, abs=0), tag
            X = extract_solution(st, tag).product()
            Xd = extract_solution(du, twin).product()
            if tag == "sylv":
                Xd = Xd.T
            assert np.linalg.norm(X - Xd) <= 1e-13 * np.linalg.norm(X), tag

    def test_two_systems_with_feedthrough(self):
        D1 = np.array([[0.3, 0.05], [-0.02, 0.25]])
        D2 = np.array([[0.2, -0.04], [0.06, 0.35]])
        g1 = _with_feedthrough(random_stable_system(40, 2, 2, 81), D1)
        g2 = _with_feedthrough(random_stable_system(30, 2, 2, 82), D2)
        S1 = np.array([[2.0, 0.5], [0.5, -1.0]])
        S2 = np.array([[1.0, 0.3], [0.3, -0.5]])
        expect = {"sylv"} | {f + s for f in ("mp", "pr", "br") for s in ("_p", "_q")}
        self._check(g1, g2, S1, S2, 2.0, 3.0, expect)

    def test_single_system_spectral_factor(self):
        g = rlc_ladder(segments=6)
        self._check(g, g, RLC_PARAMS.S1, RLC_PARAMS.S2, RLC_PARAMS.gamma1,
                    RLC_PARAMS.gamma2, set(ALL_TAGS))


class TestTraceHooks:
    """The benchmark's span tracer times the engine's layers by replacing
    these names where the engine looks them up; a refactor that calls the
    small solves through another module's names would silently stop the
    traced counts."""

    def test_patched_names_are_called(self, monkeypatch):
        import uadi.uadi as engine

        calls = {}

        def counting(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            calls[name] = 0
            monkeypatch.setattr(owner, name, counted)

        for name in ("solve_small_sylvester", "solve_small_lyapunov", "gram_norm2"):
            counting(engine, name)
        for name in ("residual_norm", "extract"):
            counting(engine.UadiState, name)
        g = rlc_ladder(segments=6)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        for a, b in ((-0.5, -0.6), (-2 + 4j, -1 + 2j)):
            uadi_step(st, a, b)
        for tag in sorted(st.enabled):
            residual_norm(st, tag)
            extract_solution(st, tag)
        assert all(calls.values()), calls

    @pytest.mark.parametrize("shifts", ["subspace", "proj1", "proj2",
                                        "petrov-bt", "sylv-alt"])
    def test_oracle_trace_points_count(self, monkeypatch, shifts):
        # wrapped as the tracer wraps them: per iteration one call of each on
        # an alpha = beta oracle, one per side otherwise, and none nested
        from uadi import cli, shiftgen

        calls, stack, nested = {"next_unit": 0, "observe": 0}, [], []

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                if stack:
                    nested.append((stack[-1], name))
                stack.append(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    stack.pop()

            return counted

        for cls in (shiftgen.ProjectionShiftOracle,
                    shiftgen.SubspaceShiftOracle,
                    shiftgen.PetrovBtShiftOracle,
                    shiftgen.SylvesterAlternatingOracle):
            for name in calls:
                monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
        iters = 4
        rep = cli.run(cli.RunConfig(sys1="rlc:6", sys2="rlc:6",
                                    equations="lyap_p,lyap_q,sylv",
                                    shifts=shifts, max_iter=iters, tol=1e-300))
        per_side = 1 if shifts in ("petrov-bt", "sylv-alt") else 2
        assert rep.iterations == iters
        assert calls == {"next_unit": per_side * iters,
                         "observe": per_side * iters}
        assert not nested, nested

    def test_span_tracer_installs(self):
        """The benchmark's tracer patches every layer boundary it times on
        the real package; a renamed boundary fails here instead of crashing
        a traced benchmark run.  A child process keeps the patches out of
        this one."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import uadi

        script = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from spans import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "from uadi import cli\n"
            "cli.run(cli.RunConfig(sys1='rlc:6', sys2='rlc:6', shifts='petrov-bt',\n"
            "                      equations='lyap_p,lyap_q,sylv', max_iter=2,\n"
            "                      tol=1e-300))\n"
            "print(json.dumps(sorted(tracer.summary())))\n"
        )
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        path = [str(Path(uadi.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-c", script, str(bench)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0, proc.stderr
        names = set(json.loads(proc.stdout.splitlines()[-1]))
        assert {"systems.build", "uadi.init", "uadi.step", "uadi.residual",
                "linalg.lu", "linalg.solve", "linalg.small_sylv",
                "linalg.gram_norm", "shiftgen.next", "shiftgen.observe"} <= names

    def test_benchmark_job_phase_marks(self, tmp_path):
        """The benchmark job rebinds cli's uadi_step, RunReport and
        rlc_ladder and marks the loop's end at the first assignment of
        RunReport.iterations; a driver that moves these hooks fails here
        instead of silently skewing the job's phase times.  A child process
        keeps the rebinding out of this one."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import uadi

        job = Path(__file__).resolve().parents[1] / "perfbench" / "job.py"
        path = [str(Path(uadi.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, str(job), "--workload", "bt-rlc", "--seed", "0",
             "--trace", "0", "--gate", "0", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                 "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["ok"], result.get("error") or result.get("eq_failures")
        assert len(result["iter_ms"]) == result["counts"]["iters"]
        assert result["setup_s"] > 0 and result["solve_s"] > 0
        assert (result["setup_s"] + result["solve_s"] + result["report_s"]
                <= result["total_s"])


def _adi_defect(sys, X, side):
    """||A X + B L - E X S||_F / ||B||_F of one side, over all n rows."""
    R = sys.A @ X + sys.B @ side.L - sys.E @ (X @ side.S)
    return np.linalg.norm(R) / np.linalg.norm(sys.B)


class TestAdiRelation:
    """Every tracked residual equals the true one only as far as the basis
    satisfies A X + B L = E X S; checked per side through the public n-row
    V and W (the W side on G2.dual())."""

    @pytest.mark.parametrize("case", ["ladder", "penzl", "pair"])
    def test_relation_holds(self, case):
        if case == "ladder":   # near-axis shifts: the windows double, the frame grows
            g = rlc_ladder(4000)
            units = (-1.8668729544418896, -0.05, -0.01 + 0.3j, -0.002)
        elif case == "penzl":
            g = penzl_triple_peak(400, 10, 20, 30)
            units = (-1.0, -10 + 20j, -5.0, -1 + 30j)
        else:
            g = rlc_ladder(200)
            units = (-0.3 + 2j, -2 + 10j)
        st = uadi_init(g, g, None, "lyap_p,lyap_q,ricc_p,ricc_q")
        sizes = []
        for unit in units:
            uadi_step(st, unit, unit)
            sizes.append(len(st.v.frame))
        if case == "ladder":
            assert len(set(sizes)) > 1 and sizes[-1] < g.n   # grown mid-run, still short
        for sys, X, side in ((st.sys1, st.V, st.v), (st.sys2.dual(), st.W, st.w)):
            assert X.shape == (g.n, side.k)
            assert _adi_defect(sys, X, side) <= 1e-13


class TestRowFrame:
    """On the RLC ladders a side holds every n-row array on the rows its
    solves reach, its frame; the public outputs scatter to n rows and equal
    the full-n formulas."""

    STEPS = TestBasisStorage.LADDER_STEPS + (-0.01,)

    @staticmethod
    def _state():
        g = rlc_ladder(4000)
        st = uadi_init(g, g, RLC_PARAMS, "all")
        return g, st

    def test_outputs_equal_the_full_formulas(self):
        """V, W, Bperp, Cperp, every extract and every residual factor
        equal B rr - E (X Y) on all n rows, X = V or W, to 1e-15 of its
        terms (the Lyapunov factor is updated by one term per step)."""
        g, st = self._state()
        sizes = []
        for unit in self.STEPS:
            uadi_step(st, unit, unit)
            sizes.append(len(st.v.frame))
        assert len(set(sizes)) > 1 and sizes[-1] < g.n
        assert st.v.frame is st.w.frame   # one frame per split
        V, W = st.V, st.W
        for side, X in ((st.v, V), (st.w, W)):
            assert X.shape == (g.n, side.k)
            np.testing.assert_array_equal(side.frame.gather(X), side.X)
        for tag in sorted(st.enabled):
            got = st.residual_factor(tag)   # rebuilds a due pair first
            side, eq, _, right = st.table[tag]
            got = got[0] if right is not None else got
            X = V if side is st.v else W
            sys = side.sys
            rr = np.eye(sys.m) if eq.rr is None else eq.rr
            Y = side.L.T if eq.T is None else eq.Y
            Brr, EXY = sys.B @ rr, sys.E @ (X[:, :len(Y)] @ Y)
            scale = max(np.abs(Brr).max(), np.abs(EXY).max())
            assert np.abs(got.factor - (Brr - EXY)).max() <= 1e-15 * scale, tag
            sol = st.extract(tag)
            left = X if eq.T is None else X[:, :len(eq.T)] @ eq.T
            assert np.abs(sol.left - left).max() <= 1e-15 * np.abs(left).max(), tag
        for perp, side, X in ((st.Bperp, st.v, V), (st.Cperp.T, st.w, W)):
            EXY = side.sys.E @ (X @ side.L.T)
            scale = max(np.abs(side.sys.B).max(), np.abs(EXY).max())
            assert np.abs(perp - (side.sys.B - EXY)).max() <= 1e-15 * scale

    def test_frame_covers_every_solution(self, monkeypatch):
        """Every windowed solve of the engine agrees, scattered to n rows,
        with one whole-band gttrs of the same right-hand side after the
        subnormal flush: nothing it reaches lies off the frame."""
        from uadi.linalg import ShiftedFactorization
        from uadi.uadi import _flush_subnormals

        g, st = self._state()
        solves, solve = [], ShiftedFactorization.solve

        def recording(fac, rhs, trans="N", framed=False):
            rows = fac._split.frame.scatter(rhs) if len(rhs) != g.n else rhs
            x = solve(fac, rhs, trans, framed)
            solves.append((fac, rows, trans, fac._split.frame.scatter(x)))
            return x

        monkeypatch.setattr(ShiftedFactorization, "solve", recording)
        for unit in self.STEPS:
            uadi_step(st, unit, unit)
        assert len(solves) == 2 * len(self.STEPS)
        for fac, rhs, trans, x in solves:
            full = whole_band_solve(g.A, g.E, fac.shift, rhs, trans)
            gap = _flush_subnormals(x.copy()) - _flush_subnormals(full.copy())
            assert np.abs(gap).max() <= 1e-290

    def test_a_step_allocates_no_n_row_array(self):
        """After the steps, the sides and a petrov-bt oracle that observed
        them hold no 2-D array of n rows but the systems they were given,
        and the LUs the caches hold no array of n entries: their factors
        cover the frame's rows plus one per block (the split and the
        pencil they share are per system, not per LU)."""
        from uadi.shiftgen import PetrovBtShiftOracle

        g, st = self._state()
        st.declare_recurring(self.STEPS, self.STEPS)   # the caches hold every LU
        oracle = PetrovBtShiftOracle(st.v.sys, 4)
        for unit in self.STEPS:
            uadi_step(st, unit, unit)
            oracle.observe(st.v.X, st.w.X, st.v.perp, st.w.perp, (st.v.fsys, st.w.fsys))
            oracle.next_unit()
        for tag in st.enabled:
            residual_norm(st, tag)   # forms every factor
        skip = {id(st.sys1), id(st.sys2), id(st.v.sys), id(st.w.sys),
                id(st.v.cache), id(st.w.cache)}
        skip |= {id(getattr(c, name)) for c in (st.v.cache, st.w.cache)
                 for name in ("_split", "_A", "_E")}
        lus = [(f"{name}._store[{key!r}]", lu) for name, c in (("v", st.v.cache), ("w", st.w.cache))
               for key, lu in c._store.items()]
        seen, wide = set(), []

        def walk(obj, path, lu=False):
            if id(obj) in seen or id(obj) in skip:
                return
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                if obj.shape and obj.shape[0] == g.n and (lu or obj.ndim == 2):
                    wide.append((path, obj.shape))
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    walk(value, f"{path}[{key!r}]", lu)
            elif isinstance(obj, (list, tuple)):
                for i, value in enumerate(obj):
                    walk(value, f"{path}[{i}]", lu)
            elif hasattr(obj, "__dict__"):
                for key, value in vars(obj).items():
                    walk(value, f"{path}.{key}", lu)

        walk(st.v, "v")
        walk(st.w, "w")
        walk(oracle, "oracle")
        for path, lu in lus:
            walk(lu, path, lu=True)
        assert id(st.v._X._buf) in seen and id(oracle.hist_v._buf) in seen
        assert len(lus) == 2 * len(set(self.STEPS)) and all(lu._band._segs for _, lu in lus)
        assert len(st.v.frame) < g.n and not wide, wide

    def test_one_restriction_per_growth(self, monkeypatch):
        """On one system the W side's restricted realization is the dual of
        the system's: each frame restricts E and A once, for both sides,
        and the W side's matrices are those of G.dual() on the frame."""
        from collections import Counter

        from uadi.linalg import RowFrame

        g, st = self._state()
        calls, restrict = [], RowFrame._restrict
        monkeypatch.setattr(RowFrame, "_restrict",
                            lambda frame, band: calls.append(id(frame)) or restrict(frame, band))
        for unit in self.STEPS:
            uadi_step(st, unit, unit)
        assert len(calls) > 2 and set(Counter(calls).values()) == {2}
        frame, fsys, dual = st.w.frame, st.w.fsys, g.dual()
        assert fsys.frame is frame and st.v.fsys.frame is frame
        for got, want in ((fsys.E, dual.E), (fsys.A, dual.A)):
            want = want[frame.rows][:, frame.rows]
            want.sort_indices()
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        np.testing.assert_array_equal(fsys.B, frame.gather(dual.B))
        np.testing.assert_array_equal(fsys.C, frame.gather(dual.C.T).T)

    def test_petrov_shifts_match_the_full_rows(self):
        """The petrov-bt oracle on the frame emits the shifts of the same
        oracle fed the n-row bases and factors against the whole system,
        to 1e-8, while the frame grows."""
        from uadi.shiftgen import PetrovBtShiftOracle

        g, st = self._state()
        framed, full = PetrovBtShiftOracle(st.v.sys, 6), PetrovBtShiftOracle(g, 6)
        sizes, first = [], ShiftUnit(self.STEPS[0])   # a frame short of the near-axis reach
        for i in range(10):
            unit = framed.next_unit() if i else first
            if i:
                assert abs(full.next_unit().value - unit.value) <= 1e-8 * abs(unit.value)
            uadi_step(st, unit, unit)
            sizes.append(len(st.v.frame))
            framed.observe(st.v.X, st.w.X, st.v.perp, st.w.perp, (st.v.fsys, st.w.fsys))
            full.observe(st.V, st.W, st.Bperp, st.Cperp.T)
        assert len(set(sizes)) > 1 and sizes[-1] < g.n


class TestReadsWithoutFactors:
    def test_rank_and_extract_form_nothing(self, monkeypatch):
        """After a step no read has followed, rank and extract of ricc_p run
        no form pass and give what they give once the factors are formed."""
        import uadi.uadi as engine

        g, st = rlc_state(segments=40)
        passes, original = [], engine._Side.form
        monkeypatch.setattr(engine._Side, "form",
                            lambda side: passes.append(side) or original(side))
        assert st.stale("ricc_p")
        rank, sol = st.rank("ricc_p"), st.extract("ricc_p")
        assert not passes and st.stale("ricc_p")
        residual_norm(st, "ricc_p")
        assert passes and st.rank("ricc_p") == rank
        again = st.extract("ricc_p")
        np.testing.assert_array_equal(again.left, sol.left)
        np.testing.assert_array_equal(again.middle_matrix(), sol.middle_matrix())

    def test_lyapunov_pair_alone_holds_no_schur_form(self):
        """With lyap_p,lyap_q only, no side builds S's Schur form; S is the
        one a side with records holds, and the residual history repeats
        bit for bit."""
        g = rlc_ladder(30)
        histories, states = [], []
        for tags in ("lyap_p,lyap_q", "lyap_p,lyap_q,ricc_p,ricc_q"):
            st = uadi_init(g, g, None, tags)
            history = []
            for unit in (-0.5, -2 + 4j, -1.0, -0.3 + 1j):
                uadi_step(st, unit, unit)
                history.append([residual_norm(st, t) for t in ("lyap_p", "lyap_q")])
            histories.append(history)
            states.append(st)
        alone, with_records = states
        assert alone.v._schur is None and alone.w._schur is None
        assert with_records.v._schur is not None
        for a, b in ((alone.v, with_records.v), (alone.w, with_records.w)):
            np.testing.assert_array_equal(a.S, b.S)
        assert histories[0] == histories[1]
        # built on demand, it is the form the step would have grown
        np.testing.assert_array_equal(alone.v.schur.T, with_records.v.schur.T)
        np.testing.assert_array_equal(alone.v.schur.Z, with_records.v.schur.Z)
