import math

import numpy as np
import pytest
from scipy import linalg as sla
from scipy.optimize import brentq

import secrecap.variants as variants
from secrecap import (
    BracketError,
    ChannelPair,
    DualTarget,
    PerAntennaBudget,
    SolverConfig,
    solve_dual,
    solve_minimax,
    solve_per_antenna,
)
from secrecap.barrier_solver import purify
from secrecap.channel import Degradedness, classify_degraded
from secrecap.errors import SolverError
from secrecap.objective import minimax_objective, secrecy_rate

from conftest import DEMO_H1, DEMO_H2, random_channel


def parallel_channel(w1_diag, w2_diag):
    return ChannelPair(np.diag(np.sqrt(w1_diag)), np.diag(np.sqrt(w2_diag)))


def parallel_grid_oracle(w1_diag, w2_diag, caps, points=501):
    """Exhaustive search over diagonal covariances; independent signaling is
    optimal for parallel channels, so this is the true optimum."""
    axes = [np.linspace(0.0, c, points) for c in caps]
    r1, r2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    c = 0.5 * (
        np.log1p(w1_diag[0] * r1)
        - np.log1p(w2_diag[0] * r1)
        + np.log1p(w1_diag[1] * r2)
        - np.log1p(w2_diag[1] * r2)
    )
    return float(np.max(c))


class TestPerAntennaBudget:
    def test_vacuous_total_cap_dropped(self):
        b = PerAntennaBudget(caps=[1.0, 2.0], total=5.0)
        assert b.total is None

    def test_binding_total_cap_kept(self):
        b = PerAntennaBudget(caps=[1.0, 2.0], total=2.0)
        assert b.total == 2.0

    def test_rejects_bad_caps(self):
        with pytest.raises(ValueError):
            PerAntennaBudget(caps=[1.0, -2.0])
        with pytest.raises(ValueError):
            PerAntennaBudget(caps=[1.0, 2.0], total=0.0)


class TestSolvePerAntenna:
    def test_single_antenna_matches_total_power(self):
        # with one antenna r11 <= P and tr R <= P coincide
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        cfg = SolverConfig(t_max=1e7)
        pa = solve_per_antenna(ch, PerAntennaBudget(caps=[1.0]), cfg)
        tp = solve_minimax(ch, 1.0, cfg)
        assert pa.capacity_achievable == pytest.approx(
            tp.capacity_achievable, abs=1e-6
        )

    def test_parallel_channels_match_grid(self):
        w1, w2 = [4.0, 1.44], [0.49, 0.81]
        ch = parallel_channel(w1, w2)
        caps = [3.0, 4.0]
        sol = solve_per_antenna(ch, PerAntennaBudget(caps=caps),
                                SolverConfig(t_max=1e7))
        oracle = parallel_grid_oracle(w1, w2, caps, points=501)
        assert sol.capacity_achievable == pytest.approx(oracle, abs=1e-4)
        # independent signaling: off-diagonal entry vanishes
        assert abs(sol.R_star.R[0, 1]) <= 1e-6

    def test_caps_respected(self):
        ch = ChannelPair(DEMO_H1, DEMO_H2)
        caps = np.array([2.0, 3.0])
        sol = solve_per_antenna(ch, PerAntennaBudget(caps=caps))
        slack = caps - np.diag(sol.R_star.R)
        assert np.all(slack > 0)
        assert sol.lambda_star is None
        assert sol.gap_bound_heuristic

    def test_combined_total_cap_respected(self):
        ch = ChannelPair(DEMO_H1, DEMO_H2)
        budget = PerAntennaBudget(caps=[4.0, 4.0], total=5.0)
        sol = solve_per_antenna(ch, budget)
        r = sol.R_star.R
        assert np.trace(r) < 5.0
        assert np.all(np.diag(r) < 4.0)

    def test_start_point_strictly_feasible(self):
        from secrecap.barrier_solver import _per_antenna_start
        from secrecap.matcalc import unvech

        ch = ChannelPair(DEMO_H1, DEMO_H2)
        budget = PerAntennaBudget(caps=[2.0, 6.0], total=3.0)
        st = _per_antenna_start(ch, budget)
        r0 = unvech(st.x)
        assert np.all(np.diag(r0) < np.array([2.0, 6.0]))
        assert np.trace(r0) < 3.0

    def test_wrong_cap_count_rejected(self):
        ch = ChannelPair(DEMO_H1, DEMO_H2)
        with pytest.raises(ValueError):
            solve_per_antenna(ch, PerAntennaBudget(caps=[1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("shape", [(4, 3, 3), (2, 2, 2), (3, 1, 2)])
    def test_loose_caps_reproduce_total_power(self, shape):
        # per-antenna caps of 2P never bind beside the total cap P, so the
        # rows path solves the total-power problem: its f and the minimax f
        # at P agree within the sum of their gap bounds
        rng = np.random.default_rng([42, *shape])
        for ch in [random_channel(rng, *shape) for _ in range(2)]:
            for power in (1e-2, 1.0, 10.0, 100.0):
                pa = solve_per_antenna(
                    ch, PerAntennaBudget(caps=np.full(ch.m, 2.0 * power), total=power))
                mm = solve_minimax(ch, power)
                assert pa.gap_bound_heuristic and not mm.gap_bound_heuristic
                assert np.trace(pa.R_star.R) < power
                assert (abs(pa.capacity_upper - mm.capacity_upper)
                        <= pa.gap_bound + mm.gap_bound), (shape, power)


class TestSolveDual:
    def test_scalar_closed_form(self):
        # w1 = 4, w2 = 1: Cs(P) = 0.5 ln((1+4P)/(1+P)); at Rs = 0.5 ln(5/2)
        # the inverse is exactly P = 1
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        target = DualTarget(rate=0.5 * np.log(2.5), p_hi=4.0, tol_rate=1e-8)
        p_star, sol = solve_dual(ch, target)
        assert p_star == pytest.approx(1.0, rel=1e-12)
        assert sol.capacity_achievable == pytest.approx(target.rate, abs=1e-15)

    def test_round_trip_consistency(self, demo_channel):
        # the certified rate at P = 10 is C of the purified minimax point
        sol = solve_minimax(demo_channel, 10.0)
        rate = secrecy_rate(demo_channel, purify(demo_channel, sol.R_star.R, sol.K21_star))
        p_star, _ = solve_dual(
            demo_channel, DualTarget(rate=rate, p_hi=40.0, tol_rate=1e-7)
        )
        assert p_star == pytest.approx(10.0, rel=1e-6)

    def test_tiny_rate_needs_tiny_power(self, demo_channel, monkeypatch):
        # Cs is concave with slope lambda_max(W1 - W2)/2 at P = 0, so P* is at
        # least the tangent bound, and a beamformer reaches it to first order
        _, eigs = classify_degraded(demo_channel)
        tangent = 1e-5 / (0.5 * eigs.max())
        starts = _bordered_starts(monkeypatch)
        target = DualTarget(rate=1e-5, p_hi=10.0, tol_rate=1e-7)
        p_star, sol = solve_dual(demo_channel, target)
        assert tangent <= p_star <= tangent * (1 + 1e-4)
        assert abs(sol.capacity_achievable - target.rate) <= 1e-15
        # the gap m/t exceeds the rate, so the bordered point's own C is 0
        assert starts[0].capacity_achievable == 0.0

    def test_unattainable_rate_rejected(self):
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        # Cs(P) -> 0.5 ln 4 ~ 0.693 as P -> inf; 0.68 needs a huge bracket
        with pytest.raises(BracketError, match="unattainable"):
            solve_dual(ch, DualTarget(rate=0.68, p_hi=8.0, tol_rate=1e-6))

    def test_reversely_degraded_rejected(self):
        ch = ChannelPair(DEMO_H1, 2.0 * DEMO_H1)
        with pytest.raises(BracketError):
            solve_dual(ch, DualTarget(rate=0.1, p_hi=100.0))

    @pytest.mark.parametrize("w2_scale", [1.0, 1.0 + 1e-12])
    def test_no_positive_eigenvalue_rejected(self, w2_scale):
        # W1 - W2 exactly 0, or every eigenvalue in [-tol, 0): classified
        # degraded, yet Cs(P) <= P lambda_max(W1 - W2)/2 = 0 at any power
        ch = ChannelPair(DEMO_H1, math.sqrt(w2_scale) * DEMO_H1)
        kind, eigs = classify_degraded(ch)
        assert kind is Degradedness.DEGRADED and eigs.max() <= 0.0
        with pytest.raises(BracketError, match="zero secrecy capacity"):
            solve_dual(ch, DualTarget(rate=0.1, p_hi=10.0))

    def test_evaluated_capacity_map_monotone(self, demo_channel):
        # Cs is nondecreasing in P; verify it on a power sweep
        caps = [
            solve_minimax(demo_channel, p).capacity_achievable
            for p in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0)
        ]
        assert all(a <= b + 1e-8 for a, b in zip(caps, caps[1:]))

    @pytest.mark.parametrize("bordered", [True, False])
    @pytest.mark.parametrize("j, p_expected", [(2, 15.95), (3, 30.29), (5, 11.38)])
    def test_zero_capacity_at_p_hi_meets_the_rate(self, monkeypatch, j, p_expected,
                                                   bordered):
        # C(R*) of the minimax solve at P = 1e3 is 0 on these channels, so
        # C(R*) alone would call the rate unattainable; purified, both the
        # bordered point and the point at p_hi reach it
        ch = random_channel(np.random.default_rng([777, 2, 2, 2, j]), 2, 2, 2)
        ref = solve_minimax(ch, 1e3)
        assert ref.capacity_achievable == 0.0
        target = DualTarget(rate=0.95 * ref.capacity_upper, p_hi=1e3)
        if not bordered:
            monkeypatch.setattr(variants, "_bordered_start", lambda *args: (None, []))
        p_star, sol = solve_dual(ch, target)
        assert p_star == pytest.approx(p_expected, rel=1e-3)
        assert abs(sol.capacity_achievable - target.rate) <= 1e-14

    def test_target_validation(self):
        with pytest.raises(ValueError):
            DualTarget(rate=-0.1, p_hi=10.0)
        with pytest.raises(ValueError):
            DualTarget(rate=0.1, p_hi=10.0, tol_rate=0.0)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("rate", dict(rate=math.nan, p_hi=10.0)),
        ("rate", dict(rate=math.inf, p_hi=10.0)),
        ("tol_rate", dict(rate=0.1, p_hi=10.0, tol_rate=math.inf)),
        ("tol_rate", dict(rate=0.1, p_hi=10.0, tol_rate=math.nan)),
        ("p_hi", dict(rate=0.1, p_hi=-1.0)),
        ("p_hi", dict(rate=0.1, p_hi=0.0)),
        ("p_hi", dict(rate=0.1, p_hi=math.nan)),
        ("p_hi", dict(rate=0.1, p_hi=math.inf)),
        # the power bound is required: no bracket is searched without it
        ("p_hi", dict(rate=0.1, p_hi=None)),
    ],
)
def test_target_rejects_non_finite_fields(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
        DualTarget(**kwargs)


def _spy_solves(monkeypatch, fail_at=()):
    """Record every power ``solve_dual`` solves a minimax problem at; raise
    the paired error at the powers listed in ``fail_at`` as (power,
    exception type)."""
    powers = []
    real = variants.solve_minimax

    def spy(ch, power, cfg=None):
        powers.append(power)
        for p_fail, exc in fail_at:
            if power == pytest.approx(p_fail, rel=1e-12):
                raise exc("injected failure")
        return real(ch, power, cfg)

    monkeypatch.setattr(variants, "solve_minimax", spy)
    return powers


def miso_capacity(h1, h2, power):
    """Closed-form MISO secrecy capacity (Khisti & Wornell, IEEE T-IT 2010):
    0.5 ln of the largest generalized eigenvalue of the pencil
    (I + P h1'h1, I + P h2'h2)."""
    eye = np.eye(h1.size)
    a = eye + power * np.outer(h1, h1)
    b = eye + power * np.outer(h2, h2)
    return 0.5 * math.log(sla.eigh(a, b, eigvals_only=True)[-1])


@pytest.mark.parametrize("seed", range(5))
def test_miso_oracle(seed):
    rng = np.random.default_rng([20261018, seed])
    h1, h2 = rng.standard_normal(3), rng.standard_normal(3)
    ch = ChannelPair(h1[None, :], h2[None, :])
    p_hi = 10.0
    target = DualTarget(rate=rng.uniform(0.2, 0.8) * miso_capacity(h1, h2, p_hi),
                        p_hi=p_hi, tol_rate=1e-6)
    p_star, _ = solve_dual(ch, target)
    root = brentq(lambda p: miso_capacity(h1, h2, p) - target.rate, 0.0, p_hi,
                  xtol=1e-14)
    assert abs(p_star - root) <= 1e-9 * root


def _bordered_starts(monkeypatch):
    """Record what each ``solve_dual`` call's bordered solve returned: its
    solution, or None when both starts failed."""
    starts = []
    real = variants._bordered_start

    def spy(*args):
        sol, failed = real(*args)
        starts.append(sol)
        return sol, failed

    monkeypatch.setattr(variants, "_bordered_start", spy)
    return starts


def _bordered_case(name):
    """(channel, DualTarget) of a bordered-path case; targets set from
    Cs(10) are shares of it, with p_hi as the benchmark's or 100."""
    if name.startswith("demo"):
        return ChannelPair(DEMO_H1, DEMO_H2), DualTarget(
            rate=float(name[5:]), p_hi=10.0, tol_rate=1e-6)
    if name == "scalar":  # Cs(1) = 0.5 ln(5/2) exactly
        return (ChannelPair(np.array([[2.0]]), np.array([[1.0]])),
                DualTarget(rate=0.5 * np.log(2.5), p_hi=4.0, tol_rate=1e-8))
    if name.startswith("miso"):  # as in test_miso_oracle
        rng = np.random.default_rng([20261018, int(name[-1])])
        h1, h2 = rng.standard_normal(3), rng.standard_normal(3)
        rate = rng.uniform(0.2, 0.8) * miso_capacity(h1, h2, 10.0)
        return ChannelPair(h1[None, :], h2[None, :]), DualTarget(rate=rate, p_hi=10.0)
    if name.startswith("433"):
        _, seed, share = name.split("-", 2)
        ch = random_channel(np.random.default_rng([20261019, int(seed)]), 4, 3, 3)
        share, p_hi = float(share), 1e3
    elif name == "no_k_block":  # n2 = 0
        ch = ChannelPair(np.random.default_rng(3).standard_normal((2, 3)), np.zeros((0, 3)))
        share, p_hi = 0.5, 100.0
    else:  # degraded: W1 - W2 = 0.75 W1
        ch, share, p_hi = ChannelPair(DEMO_H1, 0.5 * DEMO_H1), 0.5, 100.0
    rate = share * solve_minimax(ch, 10.0).capacity_achievable
    return ch, DualTarget(rate=rate, p_hi=p_hi)


BORDERED_CASES = ["demo-0.30", "demo-0.20", "scalar",
                  *(f"miso-{seed}" for seed in range(5)),
                  *(f"433-{seed}-{share}" for seed in range(3)
                    for share in ("1e-3", "0.5", "1.0")),
                  "no_k_block", "degraded"]


def _failing_stages(monkeypatch, t_fail):
    """Make every bordered stage at t >= ``t_fail`` fail: its Hessian is NaN,
    so its first Newton step comes back with a SingularKktError."""
    from secrecap.objective import RateBarrierObjective

    class FailingStage(RateBarrierObjective):
        def newton_system(self, state):
            g, h = super().newton_system(state)
            if self.t >= t_fail:
                h = np.full_like(h, np.nan)
            return g, h

    monkeypatch.setattr(variants, "RateBarrierObjective", FailingStage)


class TestBorderedDual:
    @pytest.mark.parametrize("name", BORDERED_CASES)
    def test_agrees_with_the_search(self, monkeypatch, name):
        # one bordered solve and no minimax solve: R* is the purified
        # bordered covariance on its ray, at the power where brentq finds
        # C(P/P_b · R_pure) = rate
        ch, target = _bordered_case(name)
        starts = _bordered_starts(monkeypatch)
        powers = _spy_solves(monkeypatch)
        p_star, sol = solve_dual(ch, target)
        assert powers == []
        (sol_b,) = starts
        p_b = sol_b.R_star.power
        assert p_b <= target.p_hi
        r_pure = purify(ch, sol_b.R_star.R, sol_b.K21_star)

        def short(p):
            return target.rate - secrecy_rate(ch, (p / p_b) * r_pure)

        lo, hi = (0.0, p_b) if short(p_b) <= 0 else (p_b, target.p_hi)
        root = brentq(short, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert p_star == pytest.approx(root, rel=1e-12)
        assert type(p_star) is float and p_star == sol.R_star.power
        assert np.trace(sol.R_star.R) == pytest.approx(p_star, rel=1e-14)
        assert abs(sol.capacity_achievable - target.rate) <= 1e-14 * max(1.0, target.rate)
        # K21*, lambda* and the gap bound are the bordered point's, and
        # f(R*, K21*) is within the gap bound above C(R*)
        assert sol.K21_star is sol_b.K21_star and sol.lambda_star == sol_b.lambda_star
        assert sol.capacity_upper == minimax_objective(ch, sol.R_star.R, sol.K21_star)
        assert 0 <= sol.capacity_upper - sol.capacity_achievable <= sol.gap_bound

    @pytest.mark.parametrize("delta", [2e-6, 1e-5])
    def test_target_above_cs_p_hi_raises(self, demo_channel, monkeypatch, delta):
        # f(R*, K*) + gap bounds Cs(10) from above, so the rate is
        # unattainable: the ray of the bordered point, at P_b > p_hi, stops
        # short of it at p_hi, and so does the one minimax solve at p_hi
        ref = solve_minimax(demo_channel, 10.0)
        rate = ref.capacity_upper + ref.gap_bound + delta
        starts = _bordered_starts(monkeypatch)
        powers = _spy_solves(monkeypatch)
        with pytest.raises(BracketError, match="unattainable within the bracket"):
            solve_dual(demo_channel, DualTarget(rate=rate, p_hi=10.0))
        assert starts[0].R_star.power > 10.0
        assert powers == [10.0]

    def test_target_above_cs_p_hi_raises_beyond_p_hi(self, monkeypatch):
        # Cs(8) = 0.5 ln(33/9) < 0.68: P_b > p_hi, and the one minimax solve
        # at p_hi raises
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        starts = _bordered_starts(monkeypatch)
        powers = _spy_solves(monkeypatch)
        with pytest.raises(BracketError, match="unattainable within the bracket"):
            solve_dual(ch, DualTarget(rate=0.68, p_hi=8.0, tol_rate=1e-6))
        assert starts[0].R_star.power > 8.0
        assert powers == [8.0]

    @pytest.mark.parametrize("t_fail", [1e2, 1e3, 1e4, 1e5])
    @pytest.mark.parametrize("name", ["demo-0.30", "433-0-0.5"])
    def test_failed_bordered_solve_falls_back_to_the_search(self, monkeypatch,
                                                             t_fail, name):
        # a stage at t >= t_fail fails from both starts: the answer is the
        # upper end's, one minimax solve at p_hi purified and scaled down its
        # ray to the rate, bit for bit
        ch, target = _bordered_case(name)
        monkeypatch.setattr(variants, "_bordered_start", lambda *args: (None, []))
        p_ref, ref = solve_dual(ch, target)
        monkeypatch.undo()
        _failing_stages(monkeypatch, t_fail)
        starts = _bordered_starts(monkeypatch)
        powers = _spy_solves(monkeypatch)
        p_star, sol = solve_dual(ch, target)
        assert starts == [None]
        assert powers == [target.p_hi]
        assert p_star == p_ref
        assert sol.capacity_achievable == ref.capacity_achievable
        assert abs(sol.capacity_achievable - target.rate) <= 1e-14
        assert sol.lambda_star == ref.lambda_star
        np.testing.assert_array_equal(sol.R_star.R, ref.R_star.R)
        np.testing.assert_array_equal(sol.K21_star, ref.K21_star)
        assert sol.trace == ref.trace

    def test_failed_dual_carries_the_bordered_rows(self, demo_channel, monkeypatch):
        # both starts fail at t = 1e3 and every minimax solve fails: the
        # error leaves with the rows each start recorded at t = 100 first
        _failing_stages(monkeypatch, 1e3)
        _spy_solves(monkeypatch, fail_at=[(10.0, SolverError)])
        with pytest.raises(SolverError, match="injected failure") as info:
            solve_dual(demo_channel, DualTarget(rate=0.30, p_hi=10.0))
        rows = info.value.trace
        assert rows and all(row.t == 100.0 for row in rows)
        restarts = [i for i, row in enumerate(rows) if row.iteration == 1]
        assert len(restarts) == 2  # the tangent start, then p_hi
