"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantity (run with ``pytest -v -s`` to see them).

Criteria pin tolerances and runtime budgets; oracle values are computed by
independent reference routines (grids, water-filling, finite differences)
inside the tests.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from secrecap import (
    BarrierObjective,
    ChannelPair,
    DualTarget,
    PerAntennaBudget,
    SaddleState,
    SolverConfig,
    classify_degraded,
    initial_point,
    minimax_objective,
    secrecy_rate,
    solve_degraded,
    solve_dual,
    solve_minimax,
    solve_per_antenna,
)
from secrecap.barrier_solver import purify
from secrecap.cli import _batch_channels, run_batch
from secrecap.kkt_newton import assemble, newton_solve, newton_step
from secrecap.matcalc import vec, vech

from conftest import (
    random_channel,
    random_feasible_k21,
    random_spd,
    rel_err_inf,
    value_ft,
)


def interior_point(rng, ch, power):
    r = random_spd(rng, ch.m, trace=power)
    k21 = random_feasible_k21(rng, ch.n1, ch.n2, max_norm=0.8)
    return r, k21


def water_filling_capacity(gains, power):
    g = np.sort(np.asarray(gains, dtype=float))[::-1]
    g = g[g > 1e-15]
    for k in range(g.size, 0, -1):
        level = (power + np.sum(1.0 / g[:k])) / k
        p = level - 1.0 / g[:k]
        if p[-1] >= 0:
            return 0.5 * float(np.sum(np.log1p(g[:k] * p)))
    return 0.0


def test_c01_difference_channel_eigenvalues(demo_channel):
    classify_degraded(demo_channel)  # warm up LAPACK path
    start = time.perf_counter()
    kind, eigs = classify_degraded(demo_channel)
    elapsed = time.perf_counter() - start
    np.testing.assert_allclose(sorted(eigs), [-3.293, 0.395], atol=5e-3)
    assert elapsed < 1e-3
    print(f"\nACCEPTANCE C01 PASS: eigenvalues {np.sort(eigs)} "
          f"within 5e-3 of [-3.293, 0.395] in {elapsed * 1e6:.0f} us")


def test_c02_newton_convergence_speed(demo_channel):
    obj = BarrierObjective(demo_channel, t=1e3, power=10.0)
    start = time.perf_counter()
    _, (rep,), (err,) = newton_solve(obj, initial_point(demo_channel, 10.0),
                                     eps=1e-10)
    elapsed = time.perf_counter() - start
    assert err is None
    assert rep.final_residual_norm <= 1e-10
    assert rep.iterations <= 25
    assert elapsed < 1.0
    print(f"ACCEPTANCE C02 PASS: residual {rep.final_residual_norm:.2e} "
          f"after {rep.iterations} Newton steps ({elapsed * 1e3:.0f} ms)")


def test_c03_monotone_residual_sweep():
    alpha = 0.3
    rng = np.random.default_rng(20260301)
    start = time.perf_counter()
    violations = 0
    checked = 0
    for _ in range(100):
        ch = random_channel(rng, 2, 2, 2)
        sol = solve_minimax(ch, 10.0)
        for _, rep in sol.stage_reports:
            norms, steps = rep.residual_norms, rep.step_sizes
            for k in range(len(steps)):
                checked += 1
                if norms[k + 1] > (1 - alpha * steps[k]) * norms[k]:
                    violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 30.0
    print(f"ACCEPTANCE C03 PASS: {checked} accepted steps across 100 channels, "
          f"0 violations of the residual decrease rule ({elapsed:.1f} s)")


def test_c04_derivative_correctness(demo_channel):
    rng = np.random.default_rng(20260402)
    channels = [demo_channel] + [random_channel(rng, 2, 2, 2) for _ in range(5)]
    start = time.perf_counter()
    worst_g, worst_h = 0.0, 0.0
    h_step = 1e-5
    for ch in channels:
        obj = BarrierObjective(ch, t=float(rng.uniform(10, 2000)), power=10.0)
        nx = obj.nx

        def ft(z):
            return value_ft(obj, SaddleState(x=z[:nx], y=z[nx:], lam=0.0))

        def grad(z):
            return obj.newton_gradient(SaddleState(x=z[:nx], y=z[nx:], lam=0.0))

        for _ in range(20):
            r, k21 = interior_point(rng, ch, 10.0)
            z0 = np.concatenate([vech(r), vec(k21)])
            g, hess = obj.newton_system(SaddleState(x=z0[:nx], y=z0[nx:], lam=0.0))
            gfd = np.zeros_like(z0)
            hfd = np.zeros_like(hess)
            for i in range(z0.size):
                zp, zm = z0.copy(), z0.copy()
                zp[i] += h_step
                zm[i] -= h_step
                gfd[i] = (ft(zp) - ft(zm)) / (2 * h_step)
                hfd[:, i] = (grad(zp) - grad(zm)) / (2 * h_step)
            worst_g = max(worst_g, rel_err_inf(gfd, g))
            worst_h = max(worst_h, rel_err_inf(hfd, hess))
    elapsed = time.perf_counter() - start
    assert worst_g <= 1e-5
    assert worst_h <= 1e-4
    assert elapsed < 10.0
    print(f"ACCEPTANCE C04 PASS: 120 points, gradient FD error {worst_g:.2e} "
          f"<= 1e-5, Hessian FD error {worst_h:.2e} <= 1e-4 ({elapsed:.1f} s)")


def test_c05_definiteness_and_kkt_factorization():
    rng = np.random.default_rng(20260503)
    failures = 0
    for i in range(200):
        m = int(rng.integers(1, 4))
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, 4))
        ch = random_channel(rng, m, n1, n2)
        obj = BarrierObjective(ch, t=float(rng.uniform(1.0, 1e5)), power=10.0)
        r, k21 = interior_point(rng, ch, 10.0)
        st = SaddleState(x=vech(r), y=vec(k21), lam=float(rng.standard_normal()))
        _, h = obj.newton_system(st)
        if np.linalg.eigvalsh(h[:obj.nx, :obj.nx]).max() > -1e-12:
            failures += 1
        if np.linalg.eigvalsh(h[obj.nx:, obj.nx:]).min() < 1e-12:
            failures += 1
        _, errors = newton_step(assemble(obj, st))
        if errors != [None]:
            failures += 1
    assert failures == 0
    print("ACCEPTANCE C05 PASS: 200 interior points, hess_xx < 0, hess_yy > 0, "
          "KKT factorization succeeded at all")


def test_c06_scalar_oracle():
    ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
    # 1-D grid oracle over r in [0, P]: full power is optimal since w1 > w2
    grid = np.linspace(0.0, 1.0, 100001)
    oracle = float(np.max(0.5 * (np.log1p(4.0 * grid) - np.log1p(grid))))
    assert oracle == pytest.approx(0.5 * np.log(2.5), abs=1e-9)
    start = time.perf_counter()
    sol = solve_minimax(ch, 1.0)
    elapsed = time.perf_counter() - start
    assert sol.capacity_achievable == pytest.approx(oracle, abs=1e-4)
    assert elapsed < 1.0
    print(f"ACCEPTANCE C06 PASS: scalar capacity {sol.capacity_achievable:.6f} "
          f"within 1e-4 of grid oracle {oracle:.6f} ({elapsed * 1e3:.0f} ms)")


def test_c07_miso_beamforming_oracle():
    h1 = np.array([1.0, 0.3])
    h2 = np.array([0.4, -0.2])
    power = 10.0
    start = time.perf_counter()
    theta = np.linspace(0.0, np.pi, 10**6, endpoint=False)
    v = np.stack([np.cos(theta), np.sin(theta)])
    a1 = (h1 @ v) ** 2
    a2 = (h2 @ v) ** 2
    oracle = float(np.max(0.5 * (np.log1p(power * a1) - np.log1p(power * a2))))
    ch = ChannelPair(h1.reshape(1, 2), h2.reshape(1, 2))
    sol = solve_minimax(ch, power, SolverConfig(t_max=1e7))
    elapsed = time.perf_counter() - start
    diff = abs(sol.capacity_achievable - oracle)
    assert diff <= 1e-5
    assert elapsed < 30.0
    print(f"ACCEPTANCE C07 PASS: MISO capacity {sol.capacity_achievable:.8f} vs "
          f"beamforming grid {oracle:.8f}, diff {diff:.2e} <= 1e-5 ({elapsed:.1f} s)")


def test_c08_degraded_cross_check():
    rng = np.random.default_rng(20260805)
    cfg = SolverConfig(t_max=1e7, eps_newton=1e-10)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        h2 = rng.standard_normal((2, 2))
        extra = rng.standard_normal((1, 2))
        ch = ChannelPair(np.vstack([h2, extra]), h2)  # W1 = W2 + L L'
        a = solve_degraded(ch, 10.0, cfg)
        b = solve_minimax(ch, 10.0, cfg)
        worst = max(worst, abs(a.capacity_achievable - b.capacity_achievable))
    assert worst <= 1e-5
    ch0 = ChannelPair(np.array([[1.0, 0.2], [0.1, 0.8]]), np.zeros((1, 2)))
    wf = water_filling_capacity(np.linalg.eigvalsh(ch0.W1), 10.0)
    sol0 = solve_degraded(ch0, 10.0, SolverConfig(t_max=1e8, eps_newton=1e-9))
    wf_diff = abs(sol0.capacity_achievable - wf)
    elapsed = time.perf_counter() - start
    assert wf_diff <= 1e-6
    assert elapsed < 60.0
    print(f"ACCEPTANCE C08 PASS: 10 degraded channels, solver agreement "
          f"{worst:.2e} <= 1e-5; water-filling diff {wf_diff:.2e} <= 1e-6 "
          f"({elapsed:.1f} s)")


def test_c09_gap_bound_validity():
    violations = []

    def check(label, sol, cs_oracle):
        bound = sol.gap_bound
        gap = abs(sol.capacity_upper - cs_oracle)
        if gap > bound:
            violations.append((label, gap, bound))
        # sandwich: achievable rate never exceeds the true capacity (up to
        # the oracle's own grid resolution)
        if sol.capacity_achievable > cs_oracle + 1e-6:
            violations.append((label + "-achievable", sol.capacity_achievable,
                               cs_oracle))
        return gap, bound

    # scalar channel: capacity in closed form
    ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
    check("scalar", solve_minimax(ch, 1.0), 0.5 * np.log(2.5))

    # MISO channel: beamforming grid
    h1 = np.array([1.0, 0.3])
    h2 = np.array([0.4, -0.2])
    theta = np.linspace(0.0, np.pi, 10**6, endpoint=False)
    v = np.stack([np.cos(theta), np.sin(theta)])
    oracle = float(
        np.max(0.5 * (np.log1p(10 * (h1 @ v) ** 2) - np.log1p(10 * (h2 @ v) ** 2)))
    )
    chm = ChannelPair(h1.reshape(1, 2), h2.reshape(1, 2))
    check("miso", solve_minimax(chm, 10.0), oracle)

    # no-eavesdropper channel: water-filling, checked for the degraded
    # solver (bound m/t on the achievable rate) and the minimax solver
    ch0 = ChannelPair(np.array([[1.0, 0.2], [0.1, 0.8]]), np.zeros((1, 2)))
    wf = water_filling_capacity(np.linalg.eigvalsh(ch0.W1), 10.0)
    sol_d = solve_degraded(ch0, 10.0)
    if abs(sol_d.capacity_achievable - wf) > sol_d.gap_bound:
        violations.append(("wf-degraded", abs(sol_d.capacity_achievable - wf),
                           sol_d.gap_bound))
    check("wf-minimax", solve_minimax(ch0, 10.0), wf)

    # parallel channel under total power: 2-D grid over the power simplex
    w1, w2 = np.array([4.0, 1.44]), np.array([0.49, 0.81])
    chp = ChannelPair(np.diag(np.sqrt(w1)), np.diag(np.sqrt(w2)))
    p = 4.0
    r1 = np.linspace(0.0, p, 2001)
    r2 = np.linspace(0.0, p, 2001)
    g1, g2 = np.meshgrid(r1, r2, indexing="ij")
    cgrid = 0.5 * (
        np.log1p(w1[0] * g1) - np.log1p(w2[0] * g1)
        + np.log1p(w1[1] * g2) - np.log1p(w2[1] * g2)
    )
    cgrid[g1 + g2 > p] = -np.inf
    check("parallel", solve_minimax(chp, p), float(np.max(cgrid)))

    assert violations == []
    print("ACCEPTANCE C09 PASS: |f(R*,K*) - Cs| <= max(m, n1+n2)/t on every "
          "oracle instance (scalar, MISO, water-filling, parallel), 0 violations")


def test_c10_saddle_property(demo_channel):
    rng = np.random.default_rng(20261006)
    cfg = SolverConfig(t_max=1e8, eps_newton=1e-9)
    start = time.perf_counter()
    for ch in (demo_channel, random_channel(rng, 2, 2, 2)):
        sol = solve_minimax(ch, 10.0, cfg)
        f_star = sol.capacity_upper
        worst_r = worst_k = 0.0
        for _ in range(100):
            r = random_spd(rng, ch.m, trace=10.0)
            worst_r = max(worst_r, minimax_objective(ch, r, sol.K21_star) - f_star)
        for _ in range(100):
            k21 = random_feasible_k21(rng, ch.n1, ch.n2, max_norm=0.95)
            worst_k = max(worst_k, f_star - minimax_objective(ch, sol.R_star.R, k21))
        assert worst_r <= 1e-6
        assert worst_k <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    print(f"ACCEPTANCE C10 PASS: saddle inequalities hold on 100+100 "
          f"perturbations per channel within 1e-6 ({elapsed:.1f} s)")


def test_c11_batch_step_statistics():
    start = time.perf_counter()
    cfg = SolverConfig(t0=100.0, mu=10.0, t_max=1e5, eps_newton=1e-10)
    summary = run_batch(m=4, n1=3, n2=3, count=100, seed=20261107,
                        power=10.0, cfg=cfg)
    elapsed = time.perf_counter() - start
    assert summary["failures"] == 0
    steps = [row["steps"] for row in summary["per_channel"]]
    within = sum(1 for s in steps if s <= 60)
    assert within >= 90
    # each stage starts from the central path's tangent prediction, and
    # every stage before the last stops on the Newton decrement
    assert summary["stats"]["median"] <= 11
    assert summary["stats"]["max"] <= 16
    assert elapsed < 300.0
    # each channel's f within the summed gap bounds of the benchmark bank's
    # reference for this protocol
    bank = Path(__file__).resolve().parent.parent / "perfbench" / "bank.json"
    with open(bank) as fh:
        refs = json.load(fh)["batch_c11"]
    sols = solve_minimax(_batch_channels(4, 3, 3, 100, 20261107), 10.0, cfg)
    worst = 0.0
    for sol, row, (f_ref, gap_ref) in zip(sols, summary["per_channel"], refs, strict=True):
        assert sol.newton_steps_total == row["steps"]
        assert abs(sol.capacity_upper - f_ref) <= sol.gap_bound + gap_ref
        worst = max(worst, abs(sol.capacity_upper - f_ref) / (sol.gap_bound + gap_ref))
    print(f"ACCEPTANCE C11 PASS: {within}/100 channels within 60 Newton steps "
          f"(median {summary['stats']['median']:.0f}, max {summary['stats']['max']}); "
          f"|f - f_ref| <= {worst:.1e} (gap + gap_ref) ({elapsed:.1f} s)")


def test_c12_dual_self_consistency(demo_channel):
    start = time.perf_counter()
    # the certified rate at P = 10: C of the purified minimax point
    sol = solve_minimax(demo_channel, 10.0)
    cs = secrecy_rate(demo_channel, purify(demo_channel, sol.R_star.R, sol.K21_star))
    p_star, _ = solve_dual(
        demo_channel, DualTarget(rate=cs, p_hi=40.0, tol_rate=1e-7)
    )
    elapsed = time.perf_counter() - start
    assert p_star == pytest.approx(10.0, rel=1e-6)
    assert elapsed < 30.0
    print(f"ACCEPTANCE C12 PASS: Cs(10) = {cs:.6f} nats inverts to "
          f"P* = {p_star:.8f} within 1e-6 relative ({elapsed:.1f} s)")


def test_c13_per_antenna_oracle():
    w1, w2 = np.array([4.0, 1.44]), np.array([0.49, 0.81])
    ch = ChannelPair(np.diag(np.sqrt(w1)), np.diag(np.sqrt(w2)))
    caps = np.array([3.0, 4.0])
    start = time.perf_counter()
    r1 = np.linspace(0.0, caps[0], 500)
    r2 = np.linspace(0.0, caps[1], 500)
    g1, g2 = np.meshgrid(r1, r2, indexing="ij")
    grid = float(np.max(
        0.5 * (np.log1p(w1[0] * g1) - np.log1p(w2[0] * g1)
               + np.log1p(w1[1] * g2) - np.log1p(w2[1] * g2))
    ))
    sol = solve_per_antenna(ch, PerAntennaBudget(caps=caps),
                            SolverConfig(t_max=1e7))
    elapsed = time.perf_counter() - start
    diff = abs(sol.capacity_achievable - grid)
    assert diff <= 1e-4
    assert np.all(np.diag(sol.R_star.R) <= caps)
    assert elapsed < 60.0
    print(f"ACCEPTANCE C13 PASS: per-antenna capacity {sol.capacity_achievable:.8f} "
          f"vs 500x500 grid {grid:.8f}, diff {diff:.2e} <= 1e-4, caps respected "
          f"({elapsed:.1f} s)")


def test_c14_upper_bound_property(demo_channel):
    rng = np.random.default_rng(20261408)
    worst = -np.inf
    for _ in range(1000):
        r, k21 = interior_point(rng, demo_channel, 10.0)
        c = secrecy_rate(demo_channel, r)
        f = minimax_objective(demo_channel, r, k21)
        worst = max(worst, c - f)
    assert worst <= 1e-10
    print(f"ACCEPTANCE C14 PASS: f(R,K) >= C(R) on 1000 random feasible pairs "
          f"(worst C - f = {worst:.2e})")
