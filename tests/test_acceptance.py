"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest
import scipy.linalg as spla

from uadi import classic
from uadi.cli import RunConfig, run, scenario_table1
from uadi.mor import bt_square_root, build_rom, interpolation_check
from uadi.realify import ShiftUnit, expand_units
from uadi.shiftgen import SubspaceShiftOracle
from uadi.systems import (
    EquationParams,
    StateSpaceSystem,
    random_stable_system,
    rlc_ladder,
)
from uadi.uadi import extract_solution, uadi_init, uadi_step

from conftest import (
    assert_multiset_close,
    dense_lyap_p,
    dense_riccati_p,
    equation_residual,
    residual_product,
)

RLC_PARAMS = EquationParams(
    S1=np.array([[1.0, 1.0], [0.0, -1.0]]),
    S2=np.array([[1.0, 1.0], [1.0, -1.0]]),
    gamma1=2.0, gamma2=3.0,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {name} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _real(rng):
    return complex(-np.exp(rng.uniform(-1.2, 1.2)), 0.0)


def _pair(rng):
    return complex(-np.exp(rng.uniform(-1.2, 1.2)), np.exp(rng.uniform(-1.0, 1.5)))


def _case_plan(rng, groups):
    """Balanced unit sequences covering grouping cases, one unit per side
    per engine call and equal expanded shift totals per side."""
    aus, bus, seen = [], [], set()
    for _ in range(groups):
        case = rng.choice(["1", "2", "34"])
        if case == "1":
            aus.append(_real(rng))
            bus.append(_real(rng))
        elif case == "2":
            aus.append(_pair(rng))
            bus.append(_pair(rng))
        else:  # one case-3 group followed by one case-4 group
            aus += [_real(rng), _real(rng), _pair(rng)]
            bus += [_pair(rng), _real(rng), _real(rng)]
        seen.add(case)
    return aus, bus, seen


def test_criterion_1_table_reproduction():
    t0 = time.time()
    rows = scenario_table1()
    elapsed = time.time() - t0
    ok = all(r["ok"] for r in rows) and elapsed < 5.0
    detail = ", ".join(f"{r['measured']:.4g}/{r['expected']:.4g}" for r in rows)
    _report(1, "illustrative shift-study reproduction", ok,
            f"({detail}; {elapsed:.2f}s)")


def test_criterion_2_extraction_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    case_seen = set()
    sylv_compared = 0
    for trial in range(50):
        n1 = int(rng.integers(20, 121))
        n2 = int(rng.integers(20, 121))
        m = int(rng.integers(1, 3))
        s1 = random_stable_system(n1, m, m, int(rng.integers(1 << 30)))
        s2 = random_stable_system(n2, m, m, int(rng.integers(1 << 30)))
        aus, bus, seen = _case_plan(rng, 3)
        case_seen |= seen
        st = uadi_init(s1, s2, None, "sylv,ricc_p,ricc_q")
        for a, b in zip(aus, bus):
            uadi_step(st, a, b)
        alphas = expand_units([ShiftUnit(a) for a in aus])
        betas = expand_units([ShiftUnit(b) for b in bus])

        def rel(x, y):
            return np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300)

        assert st.sylv.q == st.V.shape[1]
        fs, _, _ = classic.fadi(s1, s2, alphas, betas)
        worst = max(worst, rel(extract_solution(st, "sylv").product(),
                               fs.product()))
        sylv_compared += 1
        rp, _, _ = classic.radi(s1, alphas)
        worst = max(worst, rel(extract_solution(st, "ricc_p").product(),
                               rp.product()))
        rq, _, _ = classic.radi(s2.dual(), betas)
        worst = max(worst, rel(extract_solution(st, "ricc_q").product(),
                               rq.product()))
    elapsed = time.time() - t0
    # every grouping case must occur across the trials
    ok = worst <= 1e-8 and elapsed < 60.0 and case_seen == {"1", "2", "34"}
    _report(2, "extraction equals direct solvers on 50 random pairs", ok,
            f"(worst {worst:.2e}; {sylv_compared} Sylvester comparisons; "
            f"{elapsed:.1f}s)")


def test_criterion_3_residual_factorization():
    g = rlc_ladder(segments=12)   # n = 48, all seventeen equations enabled
    st = uadi_init(g, g, RLC_PARAMS, "all")
    worst = 0.0
    for a, b in [(-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3.0), (-0.8, -0.7)]:
        uadi_step(st, a, b)
        gramians = (st.V @ st.V.T, st.W @ st.W.T)
        for tag in sorted(st.enabled):
            sol = extract_solution(st, tag).product()
            R = equation_residual(tag, g, g, sol, RLC_PARAMS, gramians)
            dev = np.linalg.norm(R - residual_product(st, tag)) / st.const[tag]
            worst = max(worst, dev)
    s1 = random_stable_system(110, 2, 2, 77)
    s2 = random_stable_system(100, 2, 2, 78)
    st2 = uadi_init(s1, s2, RLC_PARAMS, "sylv,ricc_p,ricc_q,inf_p,inf_q,ldl_p,ldl_q")
    for a, b in [(-0.5, -0.9), (-1 + 2j, -2 + 1j), (-2.0, -1.4)]:
        uadi_step(st2, a, b)
        for tag in sorted(st2.enabled):
            if tag == "sylv" and st2.sylv.q == 0:
                continue
            sol = extract_solution(st2, tag).product()
            R = equation_residual(tag, s1, s2, sol, RLC_PARAMS)
            dev = np.linalg.norm(R - residual_product(st2, tag)) / st2.const[tag]
            worst = max(worst, dev)
    _report(3, "dense substitution equals tracked residual, all equations",
            worst <= 1e-9, f"(worst {worst:.2e})")


def test_criterion_4_projected_invariants():
    g = rlc_ladder(segments=10)
    st = uadi_init(g, g, RLC_PARAMS, "all")
    worst = 0.0
    for a, b in [(-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3.0), (-4.0, -0.9)]:
        uadi_step(st, a, b)
        dev = np.abs(-st.v.S.T - st.v.S + st.v.L.T @ st.v.L).max()
        worst = max(worst, dev / max(np.abs(st.v.S).max(), 1.0))
        dev = np.abs(-st.w.S.T - st.w.S + st.w.L.T @ st.w.L).max()
        worst = max(worst, dev / max(np.abs(st.w.S).max(), 1.0))
        sy = st.sylv
        if sy.q:
            Sv, Sw = st.v.sylv.S, st.w.sylv.S
            Lv, Lw = st.v.L[:, :sy.q], st.w.L[:, :sy.q]
            Bh = sy.D @ Lw.T
            Ch = Lv @ sy.D
            resid = (Sv - Bh @ Lv) @ sy.D + sy.D @ (Sw.T - Lw.T @ Ch) \
                + Bh @ Ch
            worst = max(worst, np.abs(resid).max() / max(np.abs(sy.D).max(), 1.0))
        eq = st.v.eqs["ricc"]
        Sr = spla.solve(eq.T, st.v.S @ eq.T)
        Lr = st.v.L @ eq.T
        Cr = st.v.G.T @ eq.T
        Br = eq.Phat @ Lr.T
        Ar = Sr - Br @ Lr
        resid = (Ar @ eq.Phat + eq.Phat @ Ar.T + Br @ Br.T
                 - eq.Phat @ Cr.T @ Cr @ eq.Phat)
        worst = max(worst, np.abs(resid).max() / max(np.abs(eq.Phat).max(), 1.0))
    _report(4, "projected Lyapunov/Sylvester/Riccati identities", worst <= 1e-10,
            f"(worst {worst:.2e})")


def _assert_placed(M, units, conjugate, tol):
    """Verify a placed projected matrix has the shift multiset as spectrum.

    A direct dense eigensolve of these non-normal block matrices cannot
    resolve eigenvalues to 1e-10, so the claim is checked in its
    well-conditioned form: the matrix is block upper-triangular to ``tol``
    with diagonal blocks whose exact eigenvalues are the shift units; a
    dense eigensolve cross-checks the whole multiset at a coarser
    tolerance.  (Every unit is conjugate-complete, so transposition does
    not change the expected multiset.)
    """
    scale = max(np.abs(M).max(), 1.0)
    pos, expected = 0, []
    for u in units:
        w = u.width_factor
        blk = M[pos:pos + w, pos:pos + w]
        lam = spla.eigvals(blk)
        want = np.conj(u.shifts()) if conjugate else np.array(u.shifts())
        assert_multiset_close(lam, want, tol)
        assert np.abs(M[pos + w:, pos:pos + w]).max(initial=0.0) <= tol * scale
        expected.extend(want)
        pos += w
    assert pos == M.shape[0]
    assert_multiset_close(spla.eigvals(M), expected, 1e-6)


def test_criterion_5_pole_placement():
    s1 = random_stable_system(160, 1, 1, 91)
    s2 = random_stable_system(150, 1, 1, 92)
    st = uadi_init(s1, s2, None, "sylv,ricc_p")
    units_a, units_b = [], []
    moduli = np.logspace(-0.3, 1.7, 34)
    k = 0
    while sum(u.width_factor for u in units_a) < 50:
        r = moduli[k]
        a = complex(-r, 0.0) if k % 2 == 0 else complex(-0.3 * r, r)
        b = complex(-1.1 * r, 0.0) if k % 2 == 0 else complex(-0.4 * r, 1.2 * r)
        ua, ub = ShiftUnit(a), ShiftUnit(b)
        uadi_step(st, ua, ub)
        units_a.append(ua)
        units_b.append(ub)
        k += 1
    alphas = expand_units(units_a)
    betas = expand_units(units_b)
    scale_v = max(np.abs(st.v.S).max(), 1.0)
    # free-parameter identity: S - L^T L equals the transposed-negated S
    assert np.abs((st.v.S - st.v.L.T @ st.v.L) - (-st.v.S.T)).max() <= 1e-10 * scale_v
    _assert_placed(-st.v.S, units_a, True, 1e-10)
    _assert_placed(-st.w.S, units_b, True, 1e-10)
    sy = st.sylv
    Sv, Sw = st.v.sylv.S, st.w.sylv.S
    Lv, Lw = st.v.L[:, :sy.q], st.w.L[:, :sy.q]
    A1h = Sv - (sy.D @ Lw.T) @ Lv
    # the coupling matrix conjugates the placed matrix onto -Sw^T, which
    # carries the beta units on its diagonal
    lhs = A1h @ sy.D
    rhs = -sy.D @ Sw.T
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(lhs).max(), 1.0)
    _assert_placed(-Sw, units_b, False, 1e-10)
    A2h = Sw.T - Lw.T @ (Lv @ sy.D)
    lhs = sy.D @ A2h
    rhs = -Sv @ sy.D
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(lhs).max(), 1.0)
    _assert_placed(-Sv, units_a, False, 1e-10)
    eq = st.v.eqs["ricc"]
    Sr = spla.solve(eq.T, st.v.S @ eq.T)
    Lr = st.v.L @ eq.T
    Cr = st.v.G.T @ eq.T
    Ar = Sr - (eq.Phat @ Lr.T) @ Lr
    placed = Ar - eq.Phat @ Cr.T @ Cr
    # similarity identity: placed @ Phat = Phat @ (-S_ricc^T)
    lhs = placed @ eq.Phat
    rhs = eq.Phat @ (-Sr.T)
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(lhs).max(), 1.0)
    _assert_placed(-Sr, units_a, True, 1e-10)
    _report(5, "pole placement over 50 shifts", True,
            f"({len(alphas)} alpha shifts, {len(betas)} beta shifts)")


def test_criterion_6_two_solve_budget():
    g = rlc_ladder(segments=8)
    st = uadi_init(g, g, RLC_PARAMS, "all")
    assert len(st.enabled) == 17
    ok = True
    for k, (a, b) in enumerate(
        [(-0.5, -0.6), (-2 + 4j, -1 + 2j), (-1.0, -3 + 1j), (-0.9, -0.8),
         (-1.7, -2.2)], 1,
    ):
        uadi_step(st, a, b)
        ok = ok and st.large_solve_count == 2 * k and st.iteration == k
    _report(6, "exactly two large solves per iteration, 17 equations on", ok,
            f"({st.large_solve_count} solves / {st.iteration} iterations)")


def test_criterion_7_scaled_triple_peak():
    t0 = time.time()
    cfg = RunConfig(sys1="penzl:2000,10,20,30", sys2="penzl:2000,40,50,60",
                    equations="lyap_p,lyap_q", shifts="subspace",
                    max_iter=70, tol=1e-6, restart_cap=20)
    rep = run(cfg)
    gramians_ok = (rep.final_residuals["lyap_p"] < 1e-6
                   and rep.final_residuals["lyap_q"] < 1e-6
                   and rep.iterations <= 70)
    targets = [complex(-1, w) for w in (10, 20, 30, 40, 50, 60)]
    emitted = rep.alphas + rep.betas
    hits = sum(min(abs(s - t) / abs(t) for s in emitted) <= 0.05 for t in targets)

    cfg_s = RunConfig(sys1="penzl:2000,10,20,30", sys2="penzl:2000,40,50,60",
                      equations="lyap_p,lyap_q,sylv", shifts="sylv-alt",
                      max_iter=70, tol=1e-6, restart_cap=20)
    rep_s = run(cfg_s)
    sylv_ok = rep_s.final_residuals["sylv"] < 1e-4

    cfg_m = RunConfig(sys1="penzl:2000,10,20,30", sys2="penzl:2000,40,50,60",
                      equations="lyap_p,lyap_q,sylv", shifts="subspace",
                      max_iter=70, tol=1e-12, restart_cap=20)
    rep_m = run(cfg_m)
    hist = [r["residual"] for r in rep_m.records if r["equation"] == "sylv"]
    mismatched_grows = hist[-1] > hist[0]

    elapsed = time.time() - t0
    ok = gramians_ok and hits >= 5 and sylv_ok and mismatched_grows and elapsed < 120
    _report(7, "scaled triple-peak experiment", ok,
            f"(res {rep.final_residuals['lyap_p']:.1e}/{rep.final_residuals['lyap_q']:.1e} "
            f"in {rep.iterations} its; {hits}/6 poles; sylv-alt "
            f"{rep_s.final_residuals['sylv']:.1e}; mismatched {hist[0]:.1e}->"
            f"{hist[-1]:.1e}; {elapsed:.0f}s)")


def test_criterion_8_interpolation():
    s1 = random_stable_system(200, 2, 2, 61)
    s2 = random_stable_system(180, 2, 2, 62)
    st = uadi_init(s1, s2, None, "sylv,ricc_p,ricc_q")
    units = [ShiftUnit(u) for u in (-0.5, -1 + 2j, -2.0, -4 + 1j, -0.8)]
    for u in units:
        uadi_step(st, u, ShiftUnit(u.value))
    worst = 0.0
    pts = [-s for s in expand_units(units)]
    for side, variant in ((1, "lyap"), (1, "ricc-observer"), (1, "sylv-pole"),
                          (2, "lyap")):
        rom = build_rom(st, side, variant)
        sysx = s1 if side == 1 else s2
        worst = max(worst, interpolation_check(sysx, rom, pts))
    _report(8, "reduced models interpolate at mirrored shifts", worst <= 1e-8,
            f"(worst deviation {worst:.2e})")


def test_criterion_9_dense_oracle_convergence():
    worst = 0.0
    for seed in (17, 29):
        sys = random_stable_system(60, 2, 2, seed)
        oracle = SubspaceShiftOracle(sys, cap=20)
        it = classic.CfAdi(sys)
        for _ in range(30):
            unit = oracle.next_unit()
            kv = it.Z.shape[1]
            it.step(unit)
            oracle.observe(it.Z[:, kv:], it.Bperp)
        P = dense_lyap_p(sys)
        worst = max(worst, np.linalg.norm(it.Z @ it.Z.T - P) / np.linalg.norm(P))
    for seed in (17, 41):
        base = random_stable_system(60, 2, 2, seed)
        sys = StateSpaceSystem(base.E, base.A, base.B, 0.1 * base.C)
        oracle = SubspaceShiftOracle(sys, cap=20)
        it = classic.Radi(sys)
        for _ in range(30):
            unit = oracle.next_unit()
            kv = it.V.shape[1]
            it.step(unit)
            oracle.observe(it.V[:, kv:], it.Bperp, feedback_gain=it.K)
        P = dense_riccati_p(sys)
        sol = it.solution().product()
        worst = max(worst, np.linalg.norm(sol - P) / np.linalg.norm(P))
    _report(9, "low-rank iterates reach dense solutions (30 auto shifts)",
            worst <= 1e-6, f"(worst {worst:.2e})")


def test_criterion_10_rlc_scenario():
    t0 = time.time()
    cfg = RunConfig(sys1="rlc:400", sys2="rlc:400", equations="all",
                    shifts="petrov-bt", max_iter=50, tol=1e-6, restart_cap=10,
                    gamma1=2.0, gamma2=3.0)
    rep = run(cfg)
    ok = rep.converged and rep.iterations <= 50 and len(rep.final_residuals) == 17
    ok = ok and all(v < 1e-6 for v in rep.final_residuals.values())
    # monotonic on average: later-half median below earlier-half median
    hist = {}
    for r in rep.records:
        hist.setdefault(r["equation"], []).append(r["residual"])
    for tag, h in hist.items():
        half = len(h) // 2
        ok = ok and (np.median(h[half:]) <= np.median(h[:half]))
    rom, hank = bt_square_root(rep.state, 10)
    g = rlc_ladder(400)
    E, A = g.E.toarray(), g.A.toarray()
    Ei = spla.inv(E)
    P = spla.solve_continuous_lyapunov(Ei @ A, -(Ei @ g.B) @ (Ei @ g.B).T)
    M = spla.solve_continuous_lyapunov((Ei @ A).T, -g.C.T @ g.C)
    Q = Ei.T @ M @ Ei
    hs = np.sort(np.sqrt(np.maximum(spla.eigvals(P @ E.T @ Q @ E).real, 0)))[::-1]
    hankel_dev = np.max(np.abs(hank[:10] - hs[:10]) / hs[:10])
    ok = ok and hankel_dev <= 1e-6
    elapsed = time.time() - t0
    _report(10, "regenerated RLC network: all 17 equations + balanced truncation",
            ok, f"(iters {rep.iterations}; hankel dev {hankel_dev:.1e}; {elapsed:.0f}s)")
