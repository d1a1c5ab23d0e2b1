import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg as sla
from scipy.optimize import brentq

import secrecap.barrier_solver as barrier_solver
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
from secrecap.channel import classify_degraded
from secrecap.errors import SingularKktError, SolverError

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
        assert b.total_cap_vacuous

    def test_binding_total_cap_kept(self):
        b = PerAntennaBudget(caps=[1.0, 2.0], total=2.0)
        assert b.total == 2.0
        assert not b.total_cap_vacuous

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
        from secrecap.variants import _per_antenna_start
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


class TestSolveDual:
    def test_scalar_closed_form(self):
        # w1 = 4, w2 = 1: Cs(P) = 0.5 ln((1+4P)/(1+P)); at Rs = 0.5 ln(5/2)
        # the inverse is exactly P = 1
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        target = DualTarget(rate=0.5 * np.log(2.5), p_hi=4.0, tol_rate=1e-8)
        p_star, sol = solve_dual(ch, target)
        assert p_star == pytest.approx(1.0, abs=1e-4)
        assert sol.capacity_achievable == pytest.approx(target.rate, abs=1e-8)

    def test_round_trip_consistency(self, demo_channel):
        cs = solve_minimax(demo_channel, 10.0).capacity_achievable
        p_star, _ = solve_dual(
            demo_channel, DualTarget(rate=cs, p_hi=40.0, tol_rate=1e-7)
        )
        assert p_star == pytest.approx(10.0, rel=1e-3)

    def test_tiny_rate_needs_tiny_power(self, demo_channel):
        p_star, _ = solve_dual(
            demo_channel, DualTarget(rate=1e-5, p_hi=10.0, tol_rate=1e-7)
        )
        assert p_star < 0.01

    def test_automatic_bracket_growth(self):
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        # Cs(1) = 0.5 ln(5/2) ~ 0.458; ask for more so the bracket must grow
        target = DualTarget(rate=0.55, tol_rate=1e-6)
        p_star, sol = solve_dual(ch, target)
        assert sol.capacity_achievable == pytest.approx(0.55, abs=1e-6)
        assert p_star > 1.0

    def test_unattainable_rate_rejected(self):
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        # Cs(P) -> 0.5 ln 4 ~ 0.693 as P -> inf; 0.68 needs a huge bracket
        with pytest.raises(BracketError, match="unattainable"):
            solve_dual(ch, DualTarget(rate=0.68, p_hi=8.0, tol_rate=1e-6))

    def test_reversely_degraded_rejected(self):
        ch = ChannelPair(DEMO_H1, 2.0 * DEMO_H1)
        with pytest.raises(BracketError):
            solve_dual(ch, DualTarget(rate=0.1, p_hi=100.0))

    def test_evaluated_capacity_map_monotone(self, demo_channel):
        # the bisection relies on monotonicity; verify it on a power sweep
        caps = [
            solve_minimax(demo_channel, p).capacity_achievable
            for p in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0)
        ]
        assert all(a <= b + 1e-8 for a, b in zip(caps, caps[1:]))

    def test_target_validation(self):
        with pytest.raises(ValueError):
            DualTarget(rate=-0.1)
        with pytest.raises(ValueError):
            DualTarget(rate=0.1, tol_rate=0.0)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("rate", dict(rate=math.nan)),
        ("rate", dict(rate=math.inf)),
        ("tol_rate", dict(rate=0.1, tol_rate=math.inf)),
        ("tol_rate", dict(rate=0.1, tol_rate=math.nan)),
        ("p_hi", dict(rate=0.1, p_hi=-1.0)),
        ("p_hi", dict(rate=0.1, p_hi=0.0)),
        ("p_hi", dict(rate=0.1, p_hi=math.nan)),
        ("p_hi", dict(rate=0.1, p_hi=math.inf)),
    ],
)
def test_target_rejects_non_finite_fields(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
        DualTarget(**kwargs)


def _spy_solves(monkeypatch, fail_at=()):
    """Record every power ``solve_dual`` solves at; raise the paired error at
    the powers listed in ``fail_at`` as (power, exception type)."""
    powers = []
    real = variants.solve_minimax

    def spy(ch, power, cfg=None, **kwargs):
        powers.append(power)
        for p_fail, exc in fail_at:
            if power == pytest.approx(p_fail, rel=1e-12):
                raise exc("injected failure")
        return real(ch, power, cfg, **kwargs)

    monkeypatch.setattr(variants, "solve_minimax", spy)
    return powers


class TestNewtonSearch:
    @pytest.mark.parametrize("rate, tol_rate, max_solves", [
        (0.30, 1e-6, 10), (0.30, 1e-12, 10), (0.30, 1e-15, 12),
        # below the resolution of C: the search ends by collapsing the bracket
        (0.20, 1e-17, 12),
    ])
    def test_few_solves_from_below(self, demo_channel, monkeypatch,
                                   rate, tol_rate, max_solves):
        powers = _spy_solves(monkeypatch)
        target = DualTarget(rate=rate, p_hi=10.0, tol_rate=tol_rate)
        p_star, sol = solve_dual(demo_channel, target)
        assert type(p_star) is float
        assert len(powers) <= max_solves
        assert sol.capacity_achievable >= target.rate - tol_rate
        # after the p_hi solve every point comes from a tangent below the
        # rate, so none lies beyond P*
        assert powers[0] == 10.0
        assert all(p <= p_star for p in powers[1:])

    @pytest.mark.parametrize("exc", [SingularKktError, SolverError])
    def test_failed_newton_point_falls_back(self, demo_channel, monkeypatch, exc):
        _, eigs = classify_degraded(demo_channel)
        first_newton = 0.30 / (0.5 * eigs.max())
        powers = _spy_solves(monkeypatch, fail_at=[(first_newton, exc)])
        target = DualTarget(rate=0.30, p_hi=10.0, tol_rate=1e-6)
        p_star, sol = solve_dual(demo_channel, target)
        assert powers[1] == pytest.approx(first_newton, rel=1e-12)
        assert powers[2] == 5.0  # the bracket midpoint
        assert powers.count(powers[1]) == 1  # the failed tangent is dropped
        assert sol.capacity_achievable >= target.rate - target.tol_rate
        assert p_star == pytest.approx(4.920278, abs=1e-4)

    def test_overestimated_slope_does_not_crawl(self, monkeypatch):
        # Capacity sits just below the rate up to P* = 1 while every solve
        # reports a huge slope, so each Newton step is far too short.
        rate = 0.3
        powers = []

        def plateau(ch, power, cfg=None, **kwargs):
            powers.append(power)
            gap = 1e-6 if power >= 1.0 else -1e-6
            return SimpleNamespace(capacity_achievable=rate + gap, lambda_star=2e7)

        monkeypatch.setattr(variants, "solve_minimax", plateau)
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        p_star, _ = solve_dual(ch, DualTarget(rate=rate, p_hi=10.0, tol_rate=1e-9))
        assert 1.0 <= p_star <= 1.0 + 1e-11
        assert len(powers) <= 100

    def test_tiny_rate_solves_every_point(self, demo_channel, monkeypatch):
        # The first Newton point, P = 5.06e-5, has badly scaled KKT systems.
        # They solve, so the search needs no bisection down from p_hi (which
        # took 23 solves).
        failed = []
        powers = _spy_solves(monkeypatch)
        spy = variants.solve_minimax

        def record_failures(ch, power, cfg=None, **kwargs):
            try:
                return spy(ch, power, cfg, **kwargs)
            except SolverError as exc:
                failed.append((power, exc))
                raise

        monkeypatch.setattr(variants, "solve_minimax", record_failures)
        target = DualTarget(rate=1e-5, p_hi=10.0, tol_rate=1e-7)
        _, sol = solve_dual(demo_channel, target)
        assert failed == []
        assert len(powers) <= 10
        assert sol.capacity_achievable >= target.rate - target.tol_rate

    def test_failed_midpoint_propagates(self, demo_channel, monkeypatch):
        _, eigs = classify_degraded(demo_channel)
        first_newton = 0.30 / (0.5 * eigs.max())
        _spy_solves(monkeypatch, fail_at=[(first_newton, SingularKktError),
                                          (5.0, SingularKktError)])
        with pytest.raises(SingularKktError, match="injected"):
            solve_dual(demo_channel, DualTarget(rate=0.30, p_hi=10.0))


def _record_solves(monkeypatch, drop_warm=False, fail_warm=0):
    """Record (power, warm solution or None) of every solve ``solve_dual``
    makes; with ``drop_warm`` every solve runs cold, and the first
    ``fail_warm`` warm solves raise SolverError."""
    calls = []
    real = barrier_solver.solve_minimax

    def spy(ch, power, cfg=None, warm=None):
        calls.append((power, warm))
        if warm is not None and sum(w is not None for _, w in calls) <= fail_warm:
            raise SolverError("injected warm failure")
        return real(ch, power, cfg, warm=None if drop_warm else warm)

    monkeypatch.setattr(variants, "solve_minimax", spy)
    return calls


def _dual_case(name):
    if name.startswith("demo"):
        return ChannelPair(DEMO_H1, DEMO_H2), DualTarget(
            rate=0.30, p_hi=10.0, tol_rate=1e-6 if name == "demo" else 1e-12)
    ch = random_channel(np.random.default_rng([20261019, int(name[-1])]), 4, 3, 3)
    rate = 0.5 * solve_minimax(ch, 10.0).capacity_achievable
    return ch, DualTarget(rate=rate, p_hi=1e3)


class TestWarmNearAnswer:
    @pytest.mark.parametrize("name", ["demo", "demo_tight", "rng0", "rng1", "rng2"])
    def test_same_search_as_cold(self, monkeypatch, name):
        ch, target = _dual_case(name)
        cold_calls = _record_solves(monkeypatch, drop_warm=True)
        p_cold, _ = solve_dual(ch, target)
        calls = _record_solves(monkeypatch)
        p_star, sol = solve_dual(ch, target)
        # the same steps; a warm solve's C differs from the cold one's in
        # the last digits, which moves a tight tolerance's points by ~1e-12
        assert [p for p, _ in calls] == pytest.approx([p for p, _ in cold_calls],
                                                      rel=1e-10)
        assert p_star == pytest.approx(p_cold, rel=1e-12)
        assert sol.capacity_achievable >= target.rate - target.tol_rate
        assert any(w is not None for _, w in calls)
        # every earlier point lies outside the bracket, so the nearest solved
        # power is a bracket end: a point within 5% of it starts warm from it
        for i, (p, warm) in enumerate(calls):
            nearest = min((q for q, _ in calls[:i]), key=lambda q: abs(p - q),
                          default=None)
            if nearest is not None and abs(p - nearest) <= 0.05 * p:
                assert warm is not None and warm.R_star.power == nearest
            else:
                assert warm is None

    def test_failed_warm_solve_is_repeated_cold(self, monkeypatch):
        ch, target = _dual_case("demo")
        p_ref, _ = solve_dual(ch, target)
        calls = _record_solves(monkeypatch, fail_warm=1)
        p_star, sol = solve_dual(ch, target)
        i = next(i for i, (_, w) in enumerate(calls) if w is not None)
        assert calls[i + 1] == (calls[i][0], None)
        assert p_star == pytest.approx(p_ref, rel=1e-12)
        assert sol.capacity_achievable >= target.rate - target.tol_rate


def miso_capacity(h1, h2, power):
    """Closed-form MISO secrecy capacity (Khisti & Wornell, IEEE T-IT 2010):
    0.5 ln of the largest generalized eigenvalue of the pencil
    (I + P h1'h1, I + P h2'h2)."""
    eye = np.eye(h1.size)
    a = eye + power * np.outer(h1, h1)
    b = eye + power * np.outer(h2, h2)
    return 0.5 * math.log(sla.eigh(a, b, eigvals_only=True)[-1])


@pytest.mark.parametrize("seed", range(5))
def test_miso_oracle_lower_side(seed):
    rng = np.random.default_rng([20261018, seed])
    h1, h2 = rng.standard_normal(3), rng.standard_normal(3)
    ch = ChannelPair(h1[None, :], h2[None, :])
    p_hi = 10.0
    target = DualTarget(rate=rng.uniform(0.2, 0.8) * miso_capacity(h1, h2, p_hi),
                        p_hi=p_hi, tol_rate=1e-6)
    p_star, _ = solve_dual(ch, target)
    assert miso_capacity(h1, h2, p_star) >= target.rate - target.tol_rate
    # Cs is concave, so Cs(P*) >= rate - tol puts P* at most tol/slope below
    # the root
    root = brentq(lambda p: miso_capacity(h1, h2, p) - target.rate, 0.0, p_hi,
                  xtol=1e-14)
    h = 1e-6 * root
    slope = (miso_capacity(h1, h2, root + h) - miso_capacity(h1, h2, root - h)) / (2 * h)
    assert p_star >= root - target.tol_rate / slope
