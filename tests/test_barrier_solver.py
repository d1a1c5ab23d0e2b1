import numpy as np
import pytest

from secrecap import (
    BarrierObjective,
    ChannelPair,
    DegradedBarrierObjective,
    PerAntennaBarrierObjective,
    PerAntennaBudget,
    SaddleState,
    SingularKktError,
    SolverConfig,
    SolverError,
    gap_bound,
    initial_point,
    minimax_objective,
    secrecy_rate,
    solve,
    solve_degraded,
    solve_minimax,
    solve_per_antenna,
)
from secrecap import kkt_newton
from secrecap.barrier_solver import purify
from secrecap.kkt_newton import newton_solve
from secrecap.matcalc import sym, unvech, vec, vech

from conftest import DEMO_H1, DEMO_H2, c08_channels, random_channel, random_spd

TIGHT = SolverConfig(t_max=1e8, eps_newton=1e-9)


def water_filling_capacity(gains, power):
    """Classical water-filling over parallel channel gains; rate in nats."""
    g = np.sort(np.asarray(gains, dtype=float))[::-1]
    g = g[g > 1e-15]
    for k in range(g.size, 0, -1):
        level = (power + np.sum(1.0 / g[:k])) / k
        p = level - 1.0 / g[:k]
        if p[-1] >= 0:
            return 0.5 * float(np.sum(np.log1p(g[:k] * p)))
    return 0.0


def degraded_channel(rng, m, n2, rank):
    """Random channel with W1 = W2 + L L' by stacking extra receiver rows."""
    h2 = rng.standard_normal((n2, m))
    l = rng.standard_normal((rank, m))
    h1 = np.vstack([h2, l])
    return ChannelPair(h1, h2)


class TestGapBound:
    def test_formula_values(self):
        assert gap_bound(5, 10, 10, 1e5) == pytest.approx(2e-4)
        assert gap_bound(1, 1, 1, 1.0) == pytest.approx(2.0)
        assert gap_bound(3, 1, 1, 10.0) == pytest.approx(0.3)

    def test_degraded_uses_m_over_t(self):
        ch = ChannelPair(DEMO_H1, np.zeros((1, 2)))
        sol = solve_degraded(ch, 10.0, SolverConfig(t_max=100.0))
        assert sol.gap_bound == pytest.approx(2.0 / 100.0)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            gap_bound(2, 2, 2, 0.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_rejects_non_finite_t(self, t):
        # NaN gave a NaN bound and inf a bound of 0 before
        with pytest.raises(ValueError, match="^t must be finite and positive, got"):
            gap_bound(2, 2, 2, t)

    @pytest.mark.parametrize("total, power_terms", [(None, 2), (8.0, 3)])
    def test_per_antenna_counts_every_barrier_term(self, demo_channel, total,
                                                   power_terms):
        # (m + #power barriers + n1 + n2)/t: m = n1 = n2 = 2, caps sum to 10
        budget = PerAntennaBudget(caps=[4.0, 6.0], total=total)
        sol = solve_per_antenna(demo_channel, budget, SolverConfig(t_max=100.0))
        assert sol.gap_bound == (2 + power_terms + 2 + 2) / 100.0
        assert sol.gap_bound_heuristic


class TestSolverConfig:
    def test_defaults_match_reference_protocol(self):
        cfg = SolverConfig()
        assert (kkt_newton.ALPHA, kkt_newton.BETA) == (0.3, 0.5)
        assert (cfg.t0, cfg.mu, cfg.t_max) == (100.0, 10.0, 1e5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t0": -1.0},
            {"mu": 0.5},
            {"eps_newton": -1e-10},
            {"t0": 0.0},
            {"mu": 1.0},
            {"t_max": 1.0},
            {"eps_newton": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t0", np.inf),
            ("t0", np.nan),
            ("mu", np.inf),
            ("mu", np.nan),
            ("t_max", np.inf),
            ("t_max", np.nan),
            ("eps_newton", np.inf),
            ("eps_newton", np.nan),
            ("eps_gap", 0.0),
            ("eps_gap", -1e-3),
            ("eps_gap", np.nan),
            ("eps_gap", np.inf),
            ("max_newton_iter", 0),
            ("max_newton_iter", 2.5),
            ("max_newton_iter", 200.0),
            ("max_newton_iter", True),
        ],
    )
    def test_rejects_bad_value_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            SolverConfig(**{field: value})


class TestSolveMinimax:
    def test_scalar_closed_form(self):
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        sol = solve_minimax(ch, 1.0)
        assert sol.capacity_achievable == pytest.approx(0.5 * np.log(2.5), abs=1e-4)

    def test_identical_channels_zero_capacity(self):
        # W1 - W2 = 0 has no positive eigenvalue, so C(R) is zero for every
        # R: the exact zero solution, alone and as a row of a list. Solved,
        # the worst-case noise sits on the feasibility boundary (|K21| -> 1)
        # and the stage at t = 1e4 stagnates.
        rng = np.random.default_rng(60)
        h = rng.standard_normal((2, 2))
        other = ChannelPair(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
        alone = solve_minimax(ChannelPair(h, h), 10.0)
        rows = solve_minimax([other, ChannelPair(h, h)], 10.0)
        for sol in (alone, rows[1]):
            assert sol.mode == "zero"
            assert sol.capacity_achievable == sol.capacity_upper == 0.0
            assert sol.newton_steps_total == 0
        assert rows[0].mode == "minimax"

    def test_reversely_degraded_short_circuit(self):
        sol = solve_minimax(ChannelPair(DEMO_H1, 2.0 * DEMO_H1), 10.0)
        assert sol.mode == "zero"
        assert sol.capacity_achievable == 0.0
        assert sol.capacity_upper == 0.0
        assert sol.newton_steps_total == 0
        np.testing.assert_array_equal(sol.R_star.R, 0.0)

    @pytest.mark.parametrize("eps_gap, gap_met", [(None, None), (1e-3, True)])
    def test_reversely_degraded_gap_met_follows_eps_gap(self, eps_gap, gap_met):
        # like every other solve, no gap tolerance means no gap verdict
        sol = solve(ChannelPair(0.5 * DEMO_H1, DEMO_H1), 10.0,
                    SolverConfig(eps_gap=eps_gap))
        assert sol.mode == "zero"
        assert sol.gap_met is gap_met

    def test_demo_channel_full_run(self, demo_channel):
        sol = solve_minimax(demo_channel, 10.0)
        assert sol.t_final == 1e5
        assert sol.gap_bound == pytest.approx(4.0 / 1e5)
        assert np.trace(sol.R_star.R) == pytest.approx(10.0, abs=1e-9)
        assert sol.capacity_achievable <= sol.capacity_upper + 1e-9
        # dual variable of the power constraint is nonnegative at optimum
        assert sol.lambda_star >= -1e-10

    def test_rate_and_bound_approach_each_other(self, demo_channel):
        # the upper bound converges quickly; the achievable rate approaches
        # it as t grows, roughly one decade of agreement per decade of t
        sol5 = solve_minimax(demo_channel, 10.0, SolverConfig(t_max=1e5))
        sol6 = solve_minimax(demo_channel, 10.0, SolverConfig(t_max=1e6))
        d5 = abs(sol5.capacity_achievable - sol5.capacity_upper)
        d6 = abs(sol6.capacity_achievable - sol6.capacity_upper)
        assert d5 <= 2e-3
        assert d6 <= 0.2 * d5

    def test_eps_gap_stops_schedule_early(self, demo_channel):
        sol = solve_minimax(demo_channel, 10.0,
                            SolverConfig(eps_gap=1e-2, t_max=1e5))
        assert sol.t_final == 1000.0  # max(2, 4)/t <= 1e-2 first at t = 1e3
        assert sol.gap_met

    def test_trace_rows_complete(self, demo_channel):
        sol = solve_minimax(demo_channel, 10.0)
        assert len(sol.trace) == sol.newton_steps_total
        stage_ts = [t for t, _ in sol.stage_reports]
        assert stage_ts == [100.0, 1000.0, 10000.0, 100000.0]
        for t, rep in sol.stage_reports:
            rows = [r for r in sol.trace if r.t == t]
            assert [r.iteration for r in rows] == list(range(1, rep.iterations + 1))
            # residual strictly decreasing within the stage
            res = [r.residual for r in rows]
            assert all(b < a for a, b in zip(res, res[1:]))

    def test_capacity_monotone_in_power(self):
        # small budgets push the optimum toward rank deficiency where the
        # aggressive mu=10 schedule crawls; mu=5 handles every instance
        cfg = SolverConfig(mu=5.0)
        rng = np.random.default_rng(61)
        for _ in range(3):
            ch = random_channel(rng, 2, 2, 2)
            caps = [solve_minimax(ch, p, cfg).capacity_achievable
                    for p in (0.5, 2.0, 8.0, 32.0)]
            for lo, hi in zip(caps, caps[1:]):
                assert lo <= hi + 1e-8

    def test_saddle_inequalities(self, demo_channel):
        rng = np.random.default_rng(62)
        sol = solve_minimax(demo_channel, 10.0, TIGHT)
        f_star = sol.capacity_upper
        k_star = sol.K21_star
        r_star = sol.R_star.R
        for _ in range(30):
            r = random_spd(rng, 2, trace=10.0)
            assert minimax_objective(demo_channel, r, k_star) <= f_star + 1e-6
        for _ in range(30):
            b = rng.standard_normal((2, 2))
            k = b * (0.9 * rng.uniform(0.05, 1.0) / np.linalg.norm(b, 2))
            assert minimax_objective(demo_channel, r_star, k) >= f_star - 1e-6

    def test_rank_matches_positive_difference_directions(self, demo_channel):
        # one positive eigenvalue in W1 - W2: optimal covariance is rank one
        sol = solve_minimax(demo_channel, 10.0, TIGHT)
        eigs = np.linalg.eigvalsh(sol.R_star.R)
        significant = np.sum(eigs > 1e-6 * 10.0)
        positive = np.sum(np.linalg.eigvalsh(demo_channel.W1 - demo_channel.W2) > 0)
        assert significant <= positive

    def test_small_eigenvalue_truncation_preserves_rate(self, demo_channel):
        # rounding eigenvalues below 1e-9 P off to zero moves C by < 1e-7
        p = 10.0
        eps = 0.4e-9 * p
        w, v = np.linalg.eigh(sym(random_spd(np.random.default_rng(63), 2, trace=p)))
        w = np.array([eps, p - eps])
        r = (v * w) @ v.T
        r_trunc = (v * np.where(w < 1e-9 * p, 0.0, w)) @ v.T
        c1 = secrecy_rate(demo_channel, r)
        c2 = secrecy_rate(demo_channel, r_trunc)
        assert abs(c1 - c2) <= 1e-7

    def test_large_system_per_stage_step_counts(self):
        # m=5, n1=n2=10 at residual 1e-8: every stage should need few Newton
        # steps (at most 15 in at least 80% of all stages), all converging
        rng = np.random.default_rng(66)
        cfg = SolverConfig(eps_newton=1e-8)
        counts = []
        for _ in range(10):
            ch = random_channel(rng, 5, 10, 10)
            sol = solve_minimax(ch, 10.0, cfg)
            counts.extend(rep.iterations for _, rep in sol.stage_reports)
        counts = np.array(counts)
        assert np.mean(counts <= 15) >= 0.8

    def test_warm_start_cheaper_than_cold_large_t(self):
        # at the batch-experiment size the schedule needs fewer total steps
        # than a cold solve at the final t (median over random channels)
        rng = np.random.default_rng(64)
        sched, single = [], []
        for _ in range(20):
            ch = random_channel(rng, 4, 3, 3)
            sched.append(solve_minimax(ch, 10.0).newton_steps_total)
            obj = BarrierObjective(ch, 1e5, 10.0)
            _, (rep,), (err,) = newton_solve(obj, initial_point(ch, 10.0), eps=1e-10,
                                             max_iter=400)
            assert err is None
            single.append(rep.iterations if rep.converged else 400)
        assert np.median(sched) <= np.median(single)

    def test_singular_kkt_error_is_a_solver_error(self, demo_channel, monkeypatch):
        # a singular KKT system after three accepted steps: the solve raises
        # a SolverError of kind SingularKktError holding the three rows
        real_step, calls = kkt_newton.newton_step, []

        def failing_step(sys):
            calls.append(1)
            dw, errors = real_step(sys)
            if len(calls) > 3:
                errors = [SingularKktError("forced singular KKT matrix")]
            return dw, errors

        monkeypatch.setattr(kkt_newton, "newton_step", failing_step)
        with pytest.raises(SolverError) as info:
            solve_minimax(demo_channel, 10.0)
        assert type(info.value) is SingularKktError
        assert [r.iteration for r in info.value.trace] == [1, 2, 3]

    def test_rejects_nonpositive_power(self, demo_channel):
        with pytest.raises(ValueError):
            solve_minimax(demo_channel, -1.0)

    @pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["auto", "minimax", "degraded"])
    def test_rejects_non_finite_power(self, demo_channel, power, mode):
        # a NaN or infinite budget used to run into a SingularKktError
        with pytest.raises(ValueError, match="power must be finite and positive"):
            solve(demo_channel, power, mode=mode)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(caps=[np.nan, 1.0]), "caps"),
        (dict(caps=[1.0, np.inf]), "caps"),
        (dict(caps=[np.nan, np.nan]), "caps"),
        (dict(caps=[1.0, 1.0], total=np.nan), "total"),
        (dict(caps=[1.0, 1.0], total=np.inf), "total"),
    ])
    def test_budget_rejects_non_finite_fields(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
            PerAntennaBudget(**kwargs)


class TestTraceRows:
    def test_rates_evaluated_on_first_read(self, demo_channel, monkeypatch):
        # a solve evaluates the rates only for its solution; a row evaluates
        # its f and C when read, once each
        from secrecap import barrier_solver

        calls = {"minimax_objective": 0, "secrecy_rate": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(barrier_solver, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(barrier_solver, name, counted)
        sol = solve_minimax(demo_channel, 10.0)
        assert len(sol.trace) > 1
        assert calls == {"minimax_objective": 1, "secrecy_rate": 1}
        row = sol.trace[1]
        f = row.f
        assert calls == {"minimax_objective": 2, "secrecy_rate": 1}
        assert row.f is f and row.C is row.C
        assert calls == {"minimax_objective": 2, "secrecy_rate": 2}

    @pytest.mark.parametrize("solve", [
        lambda ch: solve_minimax(ch, 10.0),
        lambda ch: solve_per_antenna(ch, PerAntennaBudget(caps=[4.0, 6.0])),
        lambda ch: solve_per_antenna(ch, PerAntennaBudget(caps=[4.0, 6.0], total=8.0)),
        lambda ch: solve(ch, 10.0),
        lambda ch: solve(ch, PerAntennaBudget(caps=[4.0, 6.0]), mode="minimax"),
    ], ids=["minimax", "per_antenna", "per_antenna_total", "solve_auto", "solve_budget"])
    def test_rates_equal_objective_at_iterate(self, demo_channel, monkeypatch,
                                              solve):
        # rows come from the accepted point's factors; they must equal the
        # rate functions evaluated from scratch at that iterate, bit for bit
        from secrecap import barrier_solver

        ch = demo_channel
        iterates = []
        real_solve = barrier_solver.newton_solve

        def capturing_solve(obj, state, callback, **kwargs):
            def capture(k, st, rnorm, s):
                iterates.append(st)
                callback(k, st, rnorm, s)

            return real_solve(obj, state, callback=capture, **kwargs)

        monkeypatch.setattr(barrier_solver, "newton_solve", capturing_solve)
        sol = solve(ch)
        assert len(iterates) == len(sol.trace) == sol.newton_steps_total > 0
        for st, row in zip(iterates, sol.trace):
            rm = unvech(st.x)
            k21 = st.y.reshape((ch.n2, ch.n1), order="F")
            assert row.f == minimax_objective(ch, rm, k21)
            assert row.C == secrecy_rate(ch, rm)

    def test_degraded_rates_equal_secrecy_rate_at_iterate(self, monkeypatch):
        # without a K block the row's f is C, both the rate at the iterate
        from secrecap import barrier_solver

        ch = degraded_channel(np.random.default_rng(67), m=3, n2=2, rank=1)
        iterates = []
        real_solve = barrier_solver.newton_solve

        def capturing_solve(obj, state, callback, **kwargs):
            def capture(k, st, rnorm, s):
                iterates.append(st)
                callback(k, st, rnorm, s)

            return real_solve(obj, state, callback=capture, **kwargs)

        monkeypatch.setattr(barrier_solver, "newton_solve", capturing_solve)
        sol = solve_degraded(ch, 5.0)
        assert sol.mode == "degraded"
        assert len(iterates) == len(sol.trace) == sol.newton_steps_total > 0
        for st, row in zip(iterates, sol.trace):
            c = secrecy_rate(ch, unvech(st.x))
            assert row.f == row.C == c


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a.R_star.R, b.R_star.R)
    np.testing.assert_array_equal(a.K21_star, b.K21_star)
    for name in ("lambda_star", "capacity_upper", "capacity_achievable", "gap_bound",
                 "t_final", "gap_met", "newton_steps_total", "mode",
                 "gap_bound_heuristic", "trace"):
        assert getattr(a, name) == getattr(b, name), name
    assert a.R_star.power == b.R_star.power


class TestStageStarts:
    # each stage's report records how it started: the accepted step along
    # the central path's tangent, or None, and whether it was rerun

    def test_predictions_accepted(self, demo_channel):
        sol = solve_minimax(demo_channel, 10.0)
        starts = [(rep.predictor_step, rep.rerun) for _, rep in sol.stage_reports]
        assert starts == [(None, False)] + [(1.0, False)] * 3
        assert sol.newton_steps_total == sum(
            rep.iterations for _, rep in sol.stage_reports) == 19

    def test_predictions_rejected(self, demo_channel):
        # at caps of 1e-4 the central path bends too fast for the tangent,
        # so every stage starts from the previous central point
        sol = solve(demo_channel, PerAntennaBudget(caps=[1e-4, 1e-4]))
        starts = [(rep.predictor_step, rep.rerun) for _, rep in sol.stage_reports]
        assert starts == [(None, False)] * 4

    def test_prediction_failing_the_whole_step_starts_from_the_central_point(
            self, demo_channel):
        # with caps of 30 and a total of 48 the tangent step to t = 1e4 does
        # not decrease the residual enough at s = 1 (half of it would): the
        # stage starts from the central point of t = 1e3
        sol = solve(demo_channel, PerAntennaBudget(caps=[30.0, 30.0], total=48.0))
        starts = [(rep.predictor_step, rep.rerun) for _, rep in sol.stage_reports]
        assert starts == [(None, False), (1.0, False), (None, False), (1.0, False)]
        assert [rep.iterations for _, rep in sol.stage_reports] == [6, 6, 6, 3]

    def test_stage_rerun_from_the_central_point(self):
        # c08's first channel (|K21*| = 0.9996) stagnates from every
        # predicted start at t = 1e5; the stage solves once more from the
        # central point of t = 1e4, and the failed solve's rows stay in the
        # trace, so newton_steps_total counts every step taken
        ch = c08_channels(1)[0]
        sol = solve_minimax(ch, 10.0, SolverConfig(t_max=1e7))
        reports = dict(sol.stage_reports)
        assert [t for t, rep in sol.stage_reports if rep.rerun] == [1e5]
        assert reports[1e5].predictor_step is not None and reports[1e5].converged
        rows = [r.iteration for r in sol.trace if r.t == 1e5]
        tried = len(rows) - reports[1e5].iterations
        assert tried > 0
        assert rows == list(range(1, tried + 1)) + list(
            range(1, reports[1e5].iterations + 1))
        assert sol.newton_steps_total == len(sol.trace) == tried + sum(
            rep.iterations for _, rep in sol.stage_reports)
        assert np.linalg.norm(sol.K21_star, 2) > 0.999


class TestSolve:
    @pytest.mark.parametrize("case", ["degraded", "indefinite", "budget"])
    def test_same_bits_as_shorthand(self, demo_channel, case):
        cfg = SolverConfig(t_max=1e4)
        if case == "degraded":
            ch = degraded_channel(np.random.default_rng(66), m=3, n2=2, rank=1)
            a, b = solve(ch, 5.0, cfg), solve_degraded(ch, 5.0, cfg)
            assert a.mode == "degraded"
        elif case == "indefinite":
            a, b = solve(demo_channel, 5.0, cfg), solve_minimax(demo_channel, 5.0, cfg)
            assert a.mode == "minimax"
        else:
            budget = PerAntennaBudget(caps=[2.0, 3.0], total=4.0)
            a = solve(demo_channel, budget, cfg)
            b = solve_per_antenna(demo_channel, budget, cfg)
            assert a.mode == "per_antenna"
        assert a.newton_steps_total > 0
        assert_same_bits(a, b)

    def test_auto_on_reversely_degraded_channel_gives_zero(self):
        sol = solve(ChannelPair(DEMO_H1, 2.0 * DEMO_H1), 10.0)
        assert sol.mode == "zero"
        assert sol.capacity_achievable == sol.capacity_upper == 0.0

    @pytest.mark.parametrize("mode", ["fastest", "dual", "per_antenna"])
    def test_rejects_mode(self, demo_channel, mode):
        with pytest.raises(ValueError, match="mode"):
            solve(demo_channel, 10.0, mode=mode)


class TestSolveDegraded:
    def test_requires_degraded_channel(self, demo_channel):
        with pytest.raises(ValueError, match="degraded"):
            solve_degraded(demo_channel, 10.0)

    def test_no_eavesdropper_matches_water_filling(self):
        ch = ChannelPair(np.array([[1.0, 0.2], [0.1, 0.8]]), np.zeros((1, 2)))
        sol = solve_degraded(ch, 10.0, SolverConfig(t_max=1e8, eps_newton=1e-9))
        oracle = water_filling_capacity(np.linalg.eigvalsh(ch.W1), 10.0)
        assert sol.capacity_achievable == pytest.approx(oracle, abs=1e-6)
        np.testing.assert_array_equal(sol.K21_star, np.zeros((1, 2)))

    def test_agrees_with_minimax_solver(self):
        rng = np.random.default_rng(65)
        cfg = SolverConfig(t_max=1e7, eps_newton=1e-10)
        for _ in range(2):
            ch = degraded_channel(rng, m=2, n2=2, rank=1)
            a = solve_degraded(ch, 5.0, cfg)
            b = solve_minimax(ch, 5.0, cfg)
            assert a.capacity_achievable == pytest.approx(
                b.capacity_achievable, abs=1e-5
            )

    @pytest.mark.parametrize("power", [0.1, 1.0, 10.0])
    def test_minimax_solves_where_degraded_does(self, power):
        ch = degraded_channel(np.random.default_rng(66), m=2, n2=2, rank=1)
        a, b = solve(ch, power), solve_minimax(ch, power)
        assert a.mode == "degraded"
        if power == 1.0:
            assert a.capacity_achievable == pytest.approx(0.5349, abs=1e-4)
        assert b.capacity_achievable == pytest.approx(a.capacity_achievable,
                                                      abs=b.gap_bound)

    def test_equal_channels_give_uniform_covariance(self):
        ch = ChannelPair(DEMO_H1, DEMO_H1)
        sol = solve_degraded(ch, 10.0)
        assert sol.capacity_achievable <= 1e-9
        np.testing.assert_allclose(sol.R_star.R, 5.0 * np.eye(2), atol=1e-6)


def certified_solve(mode):
    """(solution, its stage objective at t_final) on a demo-channel case."""
    if mode == "degraded":
        ch = ChannelPair(DEMO_H1, 0.5 * DEMO_H1)
        sol = solve_degraded(ch, 10.0)
        return sol, DegradedBarrierObjective(ch, sol.t_final, 10.0)
    ch, caps = ChannelPair(DEMO_H1, DEMO_H2), [4.0, 6.0]
    sol = solve_per_antenna(ch, PerAntennaBudget(caps=caps))
    return sol, PerAntennaBarrierObjective(ch, sol.t_final, caps)


def stationarity(sol, obj):
    """(lambda*, 2-norms of the R and K blocks of ``kkt_newton.residual``) at
    (vech R*, vec K21*, -lambda*) of ``sol``; ``obj`` is the stage objective
    of the solve's mode at ``sol.t_final``, and a missing lambda* is 0."""
    lam = 0.0 if sol.lambda_star is None else float(sol.lambda_star)
    y = vec(sol.K21_star) if obj.ny else np.zeros(0)
    r = kkt_newton.residual(obj, SaddleState(x=vech(sol.R_star.R), y=y, lam=-lam))
    return lam, np.linalg.norm(r[:obj.nx]), np.linalg.norm(r[obj.nx:obj.nx + obj.ny])


class TestCertificate:
    # the minimax case is test_certificate_at_converged_solution below
    @pytest.mark.parametrize("mode", ["degraded", "per_antenna"])
    def test_certificate_on_other_modes(self, mode):
        sol, obj = certified_solve(mode)
        assert sol.mode == mode
        lam, res_r, res_k = stationarity(sol, obj)
        assert lam >= -1e-10
        assert res_r <= 1e-8 * (1 + lam)
        assert res_k <= 1e-8

    def test_certificate_at_converged_solution(self, demo_channel):
        sol = solve_minimax(demo_channel, 10.0)
        obj = BarrierObjective(demo_channel, sol.t_final, 10.0)
        lam, res_r, res_k = stationarity(sol, obj)
        assert lam >= -1e-10
        assert res_r <= 1e-8 * (1 + lam)
        assert res_k <= 1e-8


class TestPurify:
    def test_demo_channel_at_p10(self, demo_channel):
        # C(R*) of the barrier point falls 30 gap bounds short of the
        # capacity; the purified covariance lies within the gap bound of f
        sol = solve_minimax(demo_channel, 10.0)
        r = purify(demo_channel, sol.R_star.R, sol.K21_star)
        c = secrecy_rate(demo_channel, r)
        assert np.trace(r) == pytest.approx(10.0, rel=1e-14)
        assert np.linalg.eigvalsh(r).min() >= -1e-12
        assert c == pytest.approx(0.358884, abs=1e-6)
        assert c >= sol.capacity_achievable + 30 * sol.gap_bound
        assert abs(sol.capacity_upper - c) <= sol.gap_bound

    @pytest.mark.parametrize("seed", range(5))
    def test_certifies_random_channels(self, seed):
        # C(R_pure) <= Cs <= f + gap, and the width f - C(R_pure) stays
        # within the gap bound, which C(R*) misses
        ch = random_channel(np.random.default_rng([20261107, seed]), 4, 3, 3)
        sol = solve_minimax(ch, 10.0)
        c = secrecy_rate(ch, purify(ch, sol.R_star.R, sol.K21_star))
        assert c >= sol.capacity_achievable
        assert abs(sol.capacity_upper - c) <= sol.gap_bound

    def test_never_lowers_c(self):
        rng = np.random.default_rng(68)
        for _ in range(20):
            ch = random_channel(rng, 3, 2, 2)
            r = random_spd(rng, 3, trace=5.0)
            k21 = rng.uniform(-0.5, 0.5, (2, 2))
            pure = purify(ch, r, k21)
            assert np.trace(pure) == pytest.approx(5.0, rel=1e-14)
            assert secrecy_rate(ch, pure) >= secrecy_rate(ch, r)

    def test_rank_one_r_in_the_eavesdroppers_row_space(self):
        # every projection removes all of R but rounding noise, which must
        # not be rescaled into a candidate
        rng = np.random.default_rng(69)
        for _ in range(20):
            ch = random_channel(rng, 3, 2, 2)
            top = np.linalg.svd(ch.H2)[2][0]
            r = 5.0 * np.outer(top, top)
            pure = purify(ch, r, np.zeros((2, 2)))
            assert np.linalg.eigvalsh(pure).min() >= -1e-12
            assert np.trace(pure) == pytest.approx(5.0, rel=1e-14)

    def test_single_antenna_keeps_r(self):
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        r = np.array([[3.0]])
        np.testing.assert_array_equal(purify(ch, r, np.zeros((1, 1))), r)


UNIT_POWERS = (1e-6, 1e-4, 1e-2, 1.0, 1e2)


def unit_power_pair(kind, shape, j, power):
    """(solve at ``power``, solve of (sqrt(P) H, 1)) for the j-th seeded
    channel of a shape; per-antenna caps and total scale with the power."""
    m, n1, n2 = shape
    rng = np.random.default_rng([20261019, m, j])
    ch = random_channel(rng, m, n1, n2)
    if kind == "degraded":  # H2 = G H1 with |G|_2 = 0.7
        g = rng.standard_normal((n2, n1))
        ch = ChannelPair(ch.H1, (0.7 / np.linalg.norm(g, 2)) * g @ ch.H1)
    root = np.sqrt(power)
    unit = ChannelPair(root * ch.H1, root * ch.H2)
    if kind in ("minimax", "degraded"):
        return solve(ch, power, mode=kind), solve(unit, 1.0, mode=kind)
    caps = rng.uniform(0.5, 1.5, m) / m
    total = 0.8 * caps.sum() if kind == "per_antenna_total" else None
    raw = PerAntennaBudget(power * caps, None if total is None else power * total)
    return solve(ch, raw), solve(unit, PerAntennaBudget(caps, total))


class TestUnitsOfPower:
    # (H, P) and (sqrt(P) H, 1) are the same problem, so the answer must not
    # depend on the units of P.
    @pytest.mark.parametrize("power", UNIT_POWERS)
    @pytest.mark.parametrize("kind", ["minimax", "degraded", "per_antenna",
                                      "per_antenna_total"])
    def test_same_value_as_unit_power(self, kind, power):
        for shape in ((4, 3, 3), (2, 2, 2)):
            for j in range(4):
                raw, unit = unit_power_pair(kind, shape, j, power)
                assert abs(raw.capacity_upper - unit.capacity_upper) <= (
                    raw.gap_bound + unit.gap_bound)

    @pytest.mark.xfail(strict=True, raises=SolverError, reason=(
        "known: at P = 1e-8 the line search stagnates at |r| = 7.4e-10 at "
        "t = 100, a residual floor set by rounding (ROADMAP item 1c)"))
    def test_residual_floor_at_tiny_power(self, demo_channel):
        root = np.sqrt(1e-8)
        raw = solve_minimax(demo_channel, 1e-8)
        unit = solve_minimax(ChannelPair(root * DEMO_H1, root * DEMO_H2), 1.0)
        assert abs(raw.capacity_upper - unit.capacity_upper) <= (
            raw.gap_bound + unit.gap_bound)
