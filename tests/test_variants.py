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


@pytest.fixture
def search_only(monkeypatch):
    """``solve_dual`` as its Newton search alone, from P = 0 after the p_hi
    solve: the bordered solve fails at both starts."""
    monkeypatch.setattr(variants, "_bordered_start", lambda *args: (None, []))


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


@pytest.mark.usefixtures("search_only")
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


@pytest.mark.usefixtures("search_only")
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
    if name.startswith("miso"):  # as in test_miso_oracle_lower_side
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
        ch, target = _bordered_case(name)
        starts = _bordered_starts(monkeypatch)
        calls = _record_solves(monkeypatch)
        p_star, sol = solve_dual(ch, target)
        # the bordered start solved, below p_hi, and p_hi was never solved
        p_b = starts[0].R_star.power
        assert p_b <= target.p_hi
        assert target.p_hi not in [p for p, _ in calls]
        # the answer is a warm-started minimax solve at P* that meets the rate
        assert calls[0] == (calls[0][0], starts[0])
        assert calls[-1][0] == p_star == sol.R_star.power
        assert sol.capacity_achievable >= target.rate - target.tol_rate
        assert abs(sol.capacity_achievable - target.rate) <= target.tol_rate
        # both answers lie within tol_rate of the rate on a slope of lambda*/2
        monkeypatch.setattr(variants, "_bordered_start", lambda *args: (None, []))
        p_search, _ = solve_dual(ch, target)
        band = 2 * target.tol_rate / (0.5 * sol.lambda_star)
        assert abs(p_star - p_search) <= band + 1e-12 * p_star

    def test_tiny_rate_leaves_the_warm_band(self, demo_channel, monkeypatch):
        # at rate 1e-5 the gap m/t exceeds the rate, so C(R_b) is 0 and the
        # first steps from P_b are too far for a warm start
        starts = _bordered_starts(monkeypatch)
        calls = _record_solves(monkeypatch)
        target = DualTarget(rate=1e-5, p_hi=10.0, tol_rate=1e-7)
        p_star, sol = solve_dual(demo_channel, target)
        assert starts[0].capacity_achievable == 0.0
        assert calls[0][1] is None
        assert sol.capacity_achievable >= target.rate - target.tol_rate
        assert starts[0].R_star.power < p_star < 0.01

    @pytest.mark.parametrize("delta", [2e-6, 1e-5])
    def test_target_above_cs_p_hi_raises(self, demo_channel, monkeypatch, delta):
        # P_b <= p_hi, since f exceeds C at t_max: the search needs p_hi when
        # its Newton point passes it, and only then solves it
        cs = solve_minimax(demo_channel, 10.0).capacity_achievable
        starts = _bordered_starts(monkeypatch)
        calls = _record_solves(monkeypatch)
        with pytest.raises(BracketError, match="unattainable within the bracket"):
            solve_dual(demo_channel, DualTarget(rate=cs + delta, p_hi=10.0))
        assert starts[0].R_star.power <= 10.0
        assert calls[-1][0] == 10.0

    def test_target_above_cs_p_hi_raises_beyond_p_hi(self, monkeypatch):
        # Cs(8) = 0.5 ln(33/9) < 0.68: P_b > p_hi, so the search runs as
        # before and raises after its p_hi solve
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        starts = _bordered_starts(monkeypatch)
        powers = _spy_solves(monkeypatch)
        with pytest.raises(BracketError, match="unattainable within the bracket"):
            solve_dual(ch, DualTarget(rate=0.68, p_hi=8.0, tol_rate=1e-6))
        assert starts[0].R_star.power > 8.0
        assert powers == [8.0]

    def test_grows_the_bracket_without_p_hi(self, monkeypatch):
        # Cs(P) = 0.5 ln((1 + 4P)/(1 + P)) reaches 0.55 at P* = 2.012
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        target = DualTarget(rate=0.55, tol_rate=1e-6)
        root = brentq(lambda p: 0.5 * math.log((1 + 4 * p) / (1 + p)) - 0.55, 0.1, 10)
        band = target.tol_rate / (0.5 * (4 / (1 + 4 * root) - 1 / (1 + root)))
        starts = _bordered_starts(monkeypatch)
        powers = []
        real = barrier_solver.solve_minimax

        def first_fails(ch, power, cfg=None, **kwargs):
            # the failed Newton point (warm, then cold) sends the search to a
            # midpoint, which needs the upper end: 1, 2, 4, ... grown past P_b
            powers.append(power)
            if power == powers[0]:
                raise SolverError("injected failure")
            return real(ch, power, cfg, **kwargs)

        monkeypatch.setattr(variants, "solve_minimax", first_fails)
        p_star, sol = solve_dual(ch, target)
        assert 2.0 < starts[0].R_star.power < 4.0
        assert powers[1:3] == [powers[0], 4.0]
        assert sol.capacity_achievable == pytest.approx(0.55, abs=1e-6)
        assert abs(p_star - root) <= band
        # the search alone grows the bracket from 1 up front
        monkeypatch.setattr(variants, "_bordered_start", lambda *args: (None, []))
        monkeypatch.setattr(variants, "solve_minimax", real)
        powers = _spy_solves(monkeypatch)
        p_search, _ = solve_dual(ch, target)
        assert powers[:3] == [1.0, 2.0, 4.0]
        assert abs(p_search - root) <= band

    def test_no_p_hi_needs_no_bracket(self, demo_channel, monkeypatch):
        # the finish's Newton points stay below P*, so without p_hi it
        # takes the same steps as with one and never grows a bracket
        powers = _spy_solves(monkeypatch)
        p_10, _ = solve_dual(demo_channel, DualTarget(rate=1e-5, p_hi=10.0, tol_rate=1e-7))
        with_p_hi = list(powers)
        powers.clear()
        target = DualTarget(rate=1e-5, tol_rate=1e-7)
        p_star, sol = solve_dual(demo_channel, target)
        assert len(powers) > 2
        assert powers == with_p_hi
        assert p_star == p_10
        assert abs(sol.capacity_achievable - target.rate) <= target.tol_rate

    @pytest.mark.parametrize("t_fail", [1e2, 1e3, 1e4, 1e5])
    @pytest.mark.parametrize("name", ["demo-0.30", "433-0-0.5"])
    def test_failed_bordered_solve_falls_back_to_the_search(self, monkeypatch,
                                                             t_fail, name):
        # a stage at t >= t_fail fails from both starts: the answer is the
        # search's, bit for bit
        ch, target = _bordered_case(name)
        monkeypatch.setattr(variants, "_bordered_start", lambda *args: (None, []))
        p_ref, ref = solve_dual(ch, target)
        monkeypatch.undo()
        _failing_stages(monkeypatch, t_fail)
        starts = _bordered_starts(monkeypatch)
        p_star, sol = solve_dual(ch, target)
        assert starts == [None]
        assert p_star == p_ref
        assert sol.capacity_achievable == ref.capacity_achievable
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
