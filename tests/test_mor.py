import numpy as np
import pytest
import scipy.linalg as spla

from uadi.errors import RankDeficient, VariantUnavailable
from uadi.mor import (
    ReducedModel,
    basis_well_conditioned,
    bt_from_factors,
    bt_square_root,
    build_rom,
    interpolation_check,
)
from uadi.systems import (
    EquationParams,
    StateSpaceSystem,
    random_stable_system,
    rlc_ladder,
    transfer_eval,
)
from uadi.uadi import uadi_init, uadi_step

from conftest import assert_multiset_close, dense_lyap_p, dense_lyap_q


PARAMS = EquationParams(gamma1=2.0, gamma2=3.0)
ALPHAS = [-0.5, -2 + 4j, -1.0]
BETAS = [-0.6, -1 + 2j, -3.0]


def engine_state(segments=8, alphas=ALPHAS, betas=BETAS):
    g = rlc_ladder(segments=segments)
    st = uadi_init(g, g, PARAMS, "all")
    for a, b in zip(alphas, betas):
        uadi_step(st, a, b)
    return g, st


def unit_multiset(units, width):
    out = []
    for u in units:
        out += list(u.shifts()) * width
    return out


class TestVariantPolePlacement:
    def test_lyap_variant(self):
        g, st = engine_state()
        rom = build_rom(st, 1, "lyap")
        want = np.conj(unit_multiset(st.alpha_units, g.m))
        assert_multiset_close(rom.poles(), want, 1e-10)
        rom2 = build_rom(st, 2, "lyap")
        # conjugate-closed unit multisets make this the beta multiset too
        assert_multiset_close(rom2.poles(), np.conj(unit_multiset(st.beta_units, g.p)), 1e-10)

    def test_sylv_pole_variant(self):
        g, st = engine_state()
        rom = build_rom(st, 1, "sylv-pole")
        assert_multiset_close(rom.poles(), unit_multiset(st.beta_units, g.m), 1e-8)
        rom2 = build_rom(st, 2, "sylv-pole")
        assert_multiset_close(rom2.poles(), unit_multiset(st.alpha_units, g.p), 1e-8)

    def test_ricc_observer_variant(self):
        g, st = engine_state()
        rom = build_rom(st, 1, "ricc-observer")
        eq = st.v.eqs["ricc"]
        Ptilde = eq.T @ eq.M @ eq.T.T
        closed = rom.A - Ptilde @ rom.C.T @ rom.C
        want = np.conj(unit_multiset(st.alpha_units, g.m))
        assert_multiset_close(spla.eigvals(closed), want, 1e-8)

    def test_mp_variant_zero_placement(self):
        sc = StateSpaceSystem(np.eye(1), -2 * np.eye(1), np.ones((1, 1)),
                              np.ones((1, 1)), 2 * np.eye(1))
        st = uadi_init(sc, sc, None, "all")
        uadi_step(st, -0.7, -0.7)
        uadi_step(st, -1.3, -1.3)
        rom = build_rom(st, 1, "mp")
        zeros = spla.eigvals(rom.A - rom.B @ np.linalg.inv(rom.D) @ rom.C)
        assert_multiset_close(zeros, [-0.7, -1.3], 1e-10)
        assert np.all(zeros.real < 0)   # minimum phase preserved

    def test_mp_variant_mimo_zeros_left_half_plane(self):
        g, st = engine_state()
        rom = build_rom(st, 1, "mp")
        zeros = spla.eigvals(rom.A - rom.B @ np.linalg.inv(rom.D) @ rom.C)
        assert np.all(zeros.real < 0)

    def test_pr_variant_passivity_informational(self):
        # informational only: report the passivity margin of the
        # positive-real-parameter model, no assertion on it
        g, st = engine_state()
        rom = build_rom(st, 1, "pr")
        margin = min(
            np.min(np.linalg.eigvalsh(rom.eval(1j * om) + rom.eval(1j * om).conj().T))
            for om in np.logspace(-2, 2, 25)
        )
        print(f"[info] pr-variant model passivity margin on the axis: {margin:.3e}")
        assert rom.order == st.V.shape[1]

    def test_unavailable_variant(self):
        s1 = random_stable_system(8, 1, 1, 0)
        s2 = random_stable_system(8, 2, 2, 1)
        st = uadi_init(s1, s2, None, "all")
        uadi_step(st, -1.0, -1.0)
        with pytest.raises(VariantUnavailable):
            build_rom(st, 1, "sylv-pole")
        with pytest.raises(VariantUnavailable):
            build_rom(st, 1, "pr")


class TestInterpolation:
    def test_mirrored_shift_points(self):
        g, st = engine_state()
        assert basis_well_conditioned(st.V)   # assertion mode applies
        for variant in ("lyap", "ricc-observer", "sylv-pole", "mp", "pr", "br",
                        "inf-filter"):
            rom = build_rom(st, 1, variant)
            pts = [-s for s in unit_multiset(st.alpha_units, 1)]
            dev = interpolation_check(g, rom, pts)
            assert dev <= 1e-8, variant

    def test_conditioning_guard_downgrades_to_warning(self):
        # nearly repeated shifts degenerate the basis; the guard must flag
        # it so interpolation assertions become warnings
        g = rlc_ladder(segments=8)
        st = uadi_init(g, g, PARAMS, "lyap_p,lyap_q")
        for a in (-1.0, -1.0, -1.0 - 1e-13, -1.0 + 1e-13, -1.0, -1.0):
            uadi_step(st, a, a)
        rom = build_rom(st, 1, "lyap")
        dev = interpolation_check(g, rom, [1.0])
        if basis_well_conditioned(st.V):
            assert dev <= 1e-8
        else:
            print(f"[warning] basis numerically rank-deficient; "
                  f"interpolation deviation {dev:.2e} not asserted")

    def test_side2_interpolates_at_mirrored_betas(self):
        g, st = engine_state()
        rom = build_rom(st, 2, "lyap")
        pts = [-s for s in unit_multiset(st.beta_units, 1)]
        assert interpolation_check(g, rom, pts) <= 1e-8

    def test_full_copy_is_exact_everywhere(self):
        sys = random_stable_system(12, 2, 2, 3)
        E, A = sys.E.toarray(), sys.A.toarray()
        Ei = spla.inv(E)
        rom = ReducedModel(Ei @ A, Ei @ sys.B, sys.C.copy(), sys.D.copy())
        assert interpolation_check(sys, rom, [0.5, 1 + 2j, 3.0]) <= 1e-12

    def test_off_points_deviate(self):
        g, st = engine_state()
        rom = build_rom(st, 1, "lyap")
        s = 17.0 + 5.0j
        dev = interpolation_check(g, rom, [s])
        dense = transfer_eval(g, s)
        direct = np.linalg.norm(dense - rom.eval(s), 2) / (1 + np.linalg.norm(dense, 2))
        assert dev == pytest.approx(direct, rel=1e-12)
        assert dev > 1e-8


class TestBalancedTruncation:
    def test_exact_gramian_factors_match_dense_balancing(self):
        sys = random_stable_system(10, 2, 2, 5)
        P = dense_lyap_p(sys)
        Q = dense_lyap_q(sys)
        Zp = spla.cholesky(P, lower=True)
        Zq = spla.cholesky(Q, lower=True)
        rom, hank = bt_from_factors(sys, Zp, Zq, 4)
        E = sys.E.toarray()
        hs = np.sqrt(np.maximum(spla.eigvals(P @ E.T @ Q @ E).real, 0.0))
        assert_multiset_close(hank, np.sort(hs)[::-1], 1e-8)
        assert rom.order == 4

    def test_zero_order_static_model(self):
        sys = random_stable_system(8, 2, 2, 6)
        rom, _ = bt_from_factors(sys, np.eye(8, 3), np.eye(8, 3), 0)
        assert rom.order == 0
        np.testing.assert_array_equal(rom.eval(1.0 + 1.0j), sys.D)

    def test_rank_deficient_request(self):
        sys = random_stable_system(8, 1, 1, 7)
        Z = np.eye(8)[:, :2]
        with pytest.raises(RankDeficient):
            bt_from_factors(sys, Z, Z, 5)

    def test_engine_state_path(self):
        g, st = engine_state()
        rom, hank = bt_square_root(st, 4)
        assert rom.order == 4
        assert np.all(np.diff(hank) <= 1e-12)
        # projected E is the identity by square-root construction
        Vr = None  # reconstructed implicitly; check response proximity instead
        for s in (0.2j, 1.0, 2 + 1j):
            G = transfer_eval(g, s)
            assert np.linalg.norm(G - rom.eval(s), 2) <= 0.1

    def test_needs_single_system_mode(self):
        s1 = random_stable_system(8, 2, 2, 8)
        s2 = random_stable_system(8, 2, 2, 9)
        st = uadi_init(s1, s2, None, "lyap_p,lyap_q")
        uadi_step(st, -1.0, -1.0)
        with pytest.raises(VariantUnavailable):
            bt_square_root(st, 1)
