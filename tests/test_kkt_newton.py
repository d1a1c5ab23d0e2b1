import dataclasses

import numpy as np
import pytest

from secrecap import (
    BarrierObjective,
    ChannelPair,
    SaddleState,
    SingularKktError,
    initial_point,
)
from secrecap.kkt_newton import (
    KktSystem,
    NewtonReport,
    assemble,
    line_search,
    newton_solve,
    newton_step,
    residual,
)
from secrecap.matcalc import vec, vech

from conftest import random_channel, random_feasible_k21, random_spd


def random_interior_state(rng, ch, power):
    r = random_spd(rng, ch.m, trace=power)
    k21 = random_feasible_k21(rng, ch.n1, ch.n2, max_norm=0.8)
    return SaddleState(x=vech(r), y=vec(k21), lam=rng.standard_normal())


class QuadraticSaddle:
    """Pure quadratic concave-convex test objective with a known saddle:
    f(x, y) = -a (x - x*)^2 + b (y - y*)^2 + c (x - x*)(y - y*).
    One Newton step from anywhere lands exactly on the saddle."""

    def __init__(self, a=2.0, b=1.5, c=0.4, xs=1.0, ys=-2.0):
        # saddle condition: hessian [[−2a, c], [c, 2b]] nonsingular
        self.h = np.array([[-2 * a, c], [c, 2 * b]])
        self.zs = np.array([xs, ys])
        self.constraint = None
        self.nx, self.ny = 1, 1

    def newton_gradient(self, state):
        return self.h @ (state.z - self.zs)

    def newton_system(self, state):
        return self.newton_gradient(state), self.h


class TestAssemble:
    def test_equality_block_zero_at_initial_point(self, demo_channel):
        for t in (1.0, 100.0, 1e4):
            obj = BarrierObjective(demo_channel, t, 10.0)
            sys = assemble(obj, initial_point(demo_channel, 10.0))
            assert sys.residual[-1] == 0.0

    def test_constraint_row_picks_trace(self, demo_channel):
        rng = np.random.default_rng(50)
        obj = BarrierObjective(demo_channel, 10.0, 10.0)
        a, _ = obj.constraint
        for _ in range(10):
            r = random_spd(rng, 2)
            assert a[: obj.nx] @ vech(r) == pytest.approx(np.trace(r), rel=1e-15)

    def test_kkt_matrix_symmetric(self, demo_channel):
        rng = np.random.default_rng(51)
        obj = BarrierObjective(demo_channel, 100.0, 10.0)
        st = random_interior_state(rng, demo_channel, 10.0)
        sys = assemble(obj, st)
        assert np.max(np.abs(sys.kkt_matrix - sys.kkt_matrix.T)) <= 1e-12

    def test_nonsingular_at_random_interior_states(self, demo_channel):
        rng = np.random.default_rng(52)
        obj = BarrierObjective(demo_channel, 500.0, 10.0)
        n = obj.nx + obj.ny + 1
        for _ in range(50):
            st = random_interior_state(rng, demo_channel, 10.0)
            t = assemble(obj, st).kkt_matrix
            tinv = np.linalg.solve(t, np.eye(n))
            assert np.linalg.norm(t @ tinv - np.eye(n)) <= 1e-8


class TestRateRow:
    def test_rate_row_borders_the_kkt_matrix(self, demo_channel):
        # the column stays a, the last row is grad f, and the row's
        # residual is f - 2 rate: the matrix is not symmetric
        from secrecap.objective import RateBarrierObjective

        rng = np.random.default_rng(56)
        obj = RateBarrierObjective(demo_channel, 100.0, 0.3)
        st = random_interior_state(rng, demo_channel, 4.0)
        sys = assemble(obj, st)
        eq, grad = obj.border(st)
        a, _ = obj.constraint
        n = obj.nx + obj.ny
        np.testing.assert_array_equal(sys.kkt_matrix[:n, n], a)
        np.testing.assert_array_equal(sys.kkt_matrix[n, :n], grad)
        assert sys.kkt_matrix[n, n] == 0.0
        assert sys.residual[-1] == eq
        np.testing.assert_array_equal(residual(obj, st), sys.residual)
        assert np.max(np.abs(sys.kkt_matrix - sys.kkt_matrix.T)) > 1e-3

    def test_rate_row_solves_to_the_minimax_point(self, demo_channel):
        # a solution of the bordered system at fixed t is the minimax
        # barrier point at P = tr R whose f is the rate
        from secrecap.objective import RateBarrierObjective, minimax_objective

        obj = RateBarrierObjective(demo_channel, 100.0, 0.3)
        st, (report,), (err,) = newton_solve(obj, initial_point(demo_channel, 4.0))
        assert err is None and report.converged
        power = float(np.trace(obj.unpack(st)[0]))
        rm, k21 = obj.unpack(st)
        assert minimax_objective(demo_channel, rm, k21) == pytest.approx(0.3, abs=1e-10)
        fixed = BarrierObjective(demo_channel, 100.0, power)
        assert np.linalg.norm(residual(fixed, st)) <= 1e-9


class TestNewtonStep:
    def test_zero_residual_gives_zero_step(self, demo_channel):
        rng = np.random.default_rng(53)
        obj = BarrierObjective(demo_channel, 100.0, 10.0)
        st = random_interior_state(rng, demo_channel, 10.0)
        sys = assemble(obj, st)
        zero = KktSystem(residual=np.zeros_like(sys.residual),
                         kkt_matrix=sys.kkt_matrix)
        dw, errors = newton_step(zero)
        assert errors == [None]
        np.testing.assert_array_equal(dw, 0.0)

    def test_quadratic_saddle_solved_in_one_step(self):
        prob = QuadraticSaddle()
        st = SaddleState(x=np.array([5.0]), y=np.array([7.0]), lam=0.0)
        sys = assemble(prob, st)
        dw, errors = newton_step(sys)
        assert errors == [None]
        landed = st.stepped(dw, 0.0, 1.0)
        assert np.linalg.norm(residual(prob, landed)) <= 1e-10
        np.testing.assert_allclose(landed.z, prob.zs, atol=1e-12)

    def test_residual_directional_derivative(self, demo_channel):
        # |r(w + s dw)| ~ (1 - s)|r(w)| to first order
        rng = np.random.default_rng(54)
        obj = BarrierObjective(demo_channel, 200.0, 10.0)
        s = 1e-4
        for _ in range(10):
            st = random_interior_state(rng, demo_channel, 10.0)
            sys = assemble(obj, st)
            dw, errors = newton_step(sys)
            assert errors == [None]
            r0 = np.linalg.norm(sys.residual)
            trial = st.stepped(dw[:-1], dw[-1], s)
            r1 = np.linalg.norm(residual(obj, trial))
            assert r1 == pytest.approx((1 - s) * r0, rel=1e-2)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_matrix_rejected(self):
        bad = KktSystem(residual=np.ones(2), kkt_matrix=np.ones((2, 2)))
        from secrecap import SingularKktError

        _, (err,) = newton_step(bad)
        assert isinstance(err, SingularKktError)

    def test_zero_pivot_is_named(self):
        bad = KktSystem(residual=np.ones(2), kkt_matrix=np.ones((2, 2)))
        _, (err,) = newton_step(bad)
        assert isinstance(err, SingularKktError)
        assert "pivot 2 of 2 is zero" in str(err)

    def test_tiny_power_system_solves(self, demo_channel):
        # At P = 1e-6 the first system's one-norm condition estimate is near
        # 6e-22, set by the units of P, yet LU solves it to full accuracy.
        obj = BarrierObjective(demo_channel, 100.0, 1e-6)
        sys = assemble(obj, initial_point(demo_channel, 1e-6))
        dw, errors = newton_step(sys)
        t, r = sys.kkt_matrix, sys.residual
        assert errors == [None]
        assert np.all(np.isfinite(dw))
        back_err = np.linalg.norm(t @ dw + r) / (
            np.linalg.norm(t, 1) * np.linalg.norm(dw) + np.linalg.norm(r))
        assert back_err <= 1e-10

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("where", ["matrix", "residual"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, demo_channel, where, bad):
        sys = assemble(BarrierObjective(demo_channel, 100.0, 10.0),
                       initial_point(demo_channel, 10.0))
        t, r = sys.kkt_matrix.copy(), sys.residual.copy()
        (t[0] if where == "matrix" else r)[1] = bad
        _, (err,) = newton_step(KktSystem(residual=r, kkt_matrix=t))
        assert isinstance(err, SingularKktError)


class TestStackedNewtonStep:
    """Each row of a stacked step is bit for bit the one-system step."""

    @staticmethod
    def kkt_stack(count, singular=None):
        rng = np.random.default_rng(60 + count)
        systems = []
        for _ in range(count):
            ch = random_channel(rng, 3, 2, 2)
            systems.append(assemble(BarrierObjective(ch, 100.0, 10.0),
                                    random_interior_state(rng, ch, 10.0)))
        t = np.stack([s.kkt_matrix for s in systems])
        if singular is not None:
            t[singular] = 1.0
        return KktSystem(residual=np.stack([s.residual for s in systems]), kkt_matrix=t)

    @staticmethod
    def one(sys, i):
        return newton_step(KktSystem(residual=sys.residual[i],
                                     kkt_matrix=sys.kkt_matrix[i]))

    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_rows_equal_one_system_steps(self, count):
        sys = self.kkt_stack(count)
        t0, r0 = sys.kkt_matrix.copy(), sys.residual.copy()
        dw, errors = newton_step(sys)
        assert errors == [None] * count
        for i in range(count):
            one, (err,) = self.one(sys, i)
            assert err is None
            np.testing.assert_array_equal(dw[i], one)
        np.testing.assert_array_equal(sys.kkt_matrix, t0)
        np.testing.assert_array_equal(sys.residual, r0)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_row_gets_its_own_error(self):
        sys = self.kkt_stack(7, singular=3)
        t0 = sys.kkt_matrix.copy()
        dw, errors = newton_step(sys)
        assert isinstance(errors[3], SingularKktError)
        assert str(errors[3]) == str(self.one(sys, 3)[1][0])
        assert np.all(np.isnan(dw[3]))
        for i in (0, 1, 2, 4, 5, 6):
            assert errors[i] is None
            np.testing.assert_array_equal(dw[i], self.one(sys, i)[0])
        np.testing.assert_array_equal(sys.kkt_matrix, t0)


class TestLineSearch:
    def test_full_step_accepted_near_solution(self, demo_channel):
        obj = BarrierObjective(demo_channel, 1000.0, 10.0)
        st, (rep,), (err,) = newton_solve(obj, initial_point(demo_channel, 10.0),
                                          eps=1e-6)
        assert err is None and rep.converged
        sys = assemble(obj, st)
        dw, errors = newton_step(sys)
        assert errors == [None]
        (s,), _, (rnorm,), errors = line_search(obj, st, dw, alpha=0.3, beta=0.5)
        assert errors == [None]
        assert s == 1.0
        assert rnorm <= (1 - 0.3) * np.linalg.norm(sys.residual)

    def test_accepted_step_satisfies_armijo_bound(self, demo_channel):
        rng = np.random.default_rng(55)
        obj = BarrierObjective(demo_channel, 100.0, 10.0)
        for _ in range(20):
            st = random_interior_state(rng, demo_channel, 10.0)
            sys = assemble(obj, st)
            dw, errors = newton_step(sys)
            assert errors == [None]
            r0 = np.linalg.norm(sys.residual)
            (s,), _, (rnorm,), errors = line_search(obj, st, dw, alpha=0.3, beta=0.5)
            assert errors == [None]
            assert rnorm <= (1 - 0.3 * s) * r0

    def test_parameter_validation(self, demo_channel):
        obj = BarrierObjective(demo_channel, 100.0, 10.0)
        st = initial_point(demo_channel, 10.0)
        dw = np.zeros(obj.nx + obj.ny + 1)
        with pytest.raises(ValueError):
            line_search(obj, st, dw, alpha=0.7, beta=0.5)
        with pytest.raises(ValueError):
            line_search(obj, st, dw, alpha=0.3, beta=1.0)


class TestNewtonSolve:
    def test_demo_channel_fixed_t_converges_fast(self, demo_channel):
        obj = BarrierObjective(demo_channel, 1e3, 10.0)
        st, (rep,), (err,) = newton_solve(obj, initial_point(demo_channel, 10.0),
                                          eps=1e-10, alpha=0.3, beta=0.5)
        assert err is None and rep.converged
        assert rep.iterations <= 25
        assert rep.final_residual_norm <= 1e-10

    def test_zero_iterations_from_converged_state(self, demo_channel):
        obj = BarrierObjective(demo_channel, 1e3, 10.0)
        st, _, (err,) = newton_solve(obj, initial_point(demo_channel, 10.0), eps=1e-10)
        assert err is None
        st2, (rep2,), (err2,) = newton_solve(obj, st, eps=1e-10)
        assert err2 is None
        assert rep2.iterations == 0
        assert rep2.converged
        assert st2 is st

    def test_monotone_residual_history(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            ch = random_channel(rng, 2, 2, 2)
            obj = BarrierObjective(ch, 1e3, 10.0)
            _, (rep,), (err,) = newton_solve(obj, initial_point(ch, 10.0), eps=1e-10)
            assert err is None and rep.converged
            norms = rep.residual_norms
            steps = rep.step_sizes
            for k in range(len(steps)):
                assert norms[k + 1] <= (1 - 0.3 * steps[k]) * norms[k]

    def test_two_phase_quadratic_convergence(self, demo_channel):
        # in the quadratic phase |r_{k+1}| / |r_k|^2 stays bounded; pairs with
        # |r_k| below 1e-8 are skipped, there rounding dominates the quotient
        obj = BarrierObjective(demo_channel, 1e3, 10.0)
        _, (rep,), (err,) = newton_solve(obj, initial_point(demo_channel, 10.0),
                                         eps=1e-10)
        assert err is None
        norms = rep.residual_norms
        checked = 0
        for k in range(len(norms) - 1):
            if 1e-8 <= norms[k] <= 1e-2:
                assert norms[k + 1] / norms[k] ** 2 <= 1e4
                checked += 1
        assert checked >= 1

    def test_equality_residual_zero_after_full_step(self, demo_channel):
        # the power constraint is linear: one full Newton step zeroes its
        # residual block and damped steps scale it by (1 - s)
        rng = np.random.default_rng(57)
        obj = BarrierObjective(demo_channel, 100.0, 10.0)
        st = random_interior_state(rng, demo_channel, 10.0)
        sys = assemble(obj, st)
        dw, errors = newton_step(sys)
        assert errors == [None]
        full = st.stepped(dw[:-1], dw[-1], 1.0)
        assert abs(residual(obj, full)[-1]) <= 1e-12

    def test_max_iter_exhaustion_reports_failure(self, demo_channel):
        obj = BarrierObjective(demo_channel, 1e3, 10.0)
        _, (rep,), (err,) = newton_solve(obj, initial_point(demo_channel, 10.0),
                                         eps=1e-10, max_iter=2)
        assert err is None
        assert not rep.converged
        assert rep.failure is not None
        assert rep.iterations == 2

    def test_singular_kkt_error_is_the_report_failure(self, demo_channel):
        class NanHessian(BarrierObjective):
            def newton_system(self, state):
                g, h = super().newton_system(state)
                return g, np.full_like(h, np.nan)

        obj = NanHessian(demo_channel, 100.0, 10.0)
        _, (rep,), (err,) = newton_solve(obj, initial_point(demo_channel, 10.0))
        assert isinstance(err, SingularKktError)
        assert not rep.converged
        assert rep.failure == str(err)
        assert rep.iterations == 0

    @pytest.mark.parametrize("eps, max_iter, failure", [
        (1e-10, 200, None),
        (1e-30, 200, "line search stagnated"),
        (1e-10, 2, "not converged after 2 iterations"),
    ], ids=["converged", "stagnated", "iteration-limited"])
    def test_report_counts_follow_its_lists(self, demo_channel, eps, max_iter,
                                            failure):
        obj = BarrierObjective(demo_channel, 1e3, 10.0)
        _, (rep,), (err,) = newton_solve(obj, initial_point(demo_channel, 10.0),
                                         eps=eps, max_iter=max_iter)
        assert err is None
        assert [f.name for f in dataclasses.fields(NewtonReport)] == [
            "residual_norms", "step_sizes", "failure"]
        if failure is None:
            assert rep.failure is None
        else:
            assert failure in rep.failure
        assert rep.iterations == len(rep.step_sizes) > 0
        assert rep.final_residual_norm == rep.residual_norms[-1]
        assert rep.converged == (rep.failure is None)

    @pytest.mark.parametrize("t", [1e2, 1e3, 1e5])
    def test_one_factor_build_per_trial(self, demo_channel, monkeypatch, t):
        # assemble() and the callback reuse the accepted trial's factors, so
        # only the start point and each line-search trial build them
        from secrecap import kkt_newton, objective

        builds, trials = [], []

        class CountedFactors(objective._Factors):
            def __init__(self, *args):
                builds.append(1)
                super().__init__(*args)

        real_trial = kkt_newton._trial_norm

        def counted_trial(*args):
            trials.append(1)
            return real_trial(*args)

        monkeypatch.setattr(objective, "_Factors", CountedFactors)
        monkeypatch.setattr(kkt_newton, "_trial_norm", counted_trial)
        obj = BarrierObjective(demo_channel, t, 10.0)
        _, (rep,), (err,) = newton_solve(obj, initial_point(demo_channel, 10.0),
                                         eps=1e-10,
                                         callback=lambda k, st, rn, s: obj.factors(st))
        assert err is None and rep.converged and rep.iterations > 0
        assert len(builds) == 1 + len(trials)

    def test_gradient_is_kept_per_objective(self, demo_channel):
        # a state that holds the t = 100 objective's gradient gives the t = 1000
        # objective its own gradient, as a fresh state at the same point does
        rng = np.random.default_rng(58)
        st = random_interior_state(rng, demo_channel, 10.0)
        BarrierObjective(demo_channel, 100.0, 10.0).newton_gradient(st)
        obj = BarrierObjective(demo_channel, 1000.0, 10.0)
        g, h = obj.newton_system(st)
        g_ref, h_ref = obj.newton_system(SaddleState(st.x, st.y, st.lam))
        np.testing.assert_array_equal(g, g_ref)
        np.testing.assert_array_equal(h, h_ref)

    def test_stack_of_rows_keeps_only_one_objectives_gradient(self):
        # rows whose gradients two objectives computed join into a stack that
        # keeps neither, so each objective still gets its own
        rng = np.random.default_rng(60)
        channels = [random_channel(rng, 3, 2, 2) for _ in range(2)]
        st = SaddleState.stack([initial_point(ch, 10.0) for ch in channels])
        obj = BarrierObjective(channels, 100.0, 10.0)
        obj.newton_gradient(st)
        first, second = st.take([0]), st.take([1])
        BarrierObjective(channels, 1000.0, 10.0).newton_gradient(second)
        g, _ = obj.newton_system(SaddleState.concat([first, second]))
        g_ref, _ = obj.newton_system(SaddleState(st.x, st.y, st.lam))
        np.testing.assert_array_equal(g, g_ref)

    @pytest.mark.parametrize("stack", [False, True])
    def test_assemble_at_accepted_trial_builds_no_gradient(self, monkeypatch, stack):
        # the line search's accepted trial keeps its gradient, and assemble()
        # takes it from there, also for the rows of a stack
        rng = np.random.default_rng(59)
        channels = [random_channel(rng, 3, 2, 2) for _ in range(3 if stack else 1)]
        starts = [initial_point(ch, 10.0) for ch in channels]
        obj = BarrierObjective(channels if stack else channels[0], 100.0, 10.0)
        st = SaddleState.stack(starts) if stack else starts[0]
        for _ in range(3):
            dw, errors = newton_step(assemble(obj, st))
            assert errors.count(None) == len(errors)
            _, st, _, errors = line_search(obj, st, dw, alpha=0.3, beta=0.5)
            assert errors.count(None) == len(errors)
        builds = []
        real = BarrierObjective._gradient_from

        def counted(self, fac):
            builds.append(1)
            return real(self, fac)

        monkeypatch.setattr(BarrierObjective, "_gradient_from", counted)
        sys = assemble(obj, st)
        assert builds == []
        fresh = SaddleState(st.x, st.y, st.lam, st.rows)
        np.testing.assert_array_equal(sys.residual, assemble(obj, fresh).residual)
        assert builds == [1]

    def test_callback_sees_each_accepted_step(self, demo_channel):
        obj = BarrierObjective(demo_channel, 1e3, 10.0)
        seen = []
        _, (rep,), (err,) = newton_solve(
            obj, initial_point(demo_channel, 10.0), eps=1e-10,
            callback=lambda k, st, rn, s: seen.append((k, *rn, *s)))
        assert err is None
        assert len(seen) == rep.iterations
        assert [k for k, _, _ in seen] == list(range(1, rep.iterations + 1))
        assert [rn for _, rn, _ in seen] == rep.residual_norms[1:]
