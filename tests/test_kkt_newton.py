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


class TestNewtonStep:
    def test_zero_residual_gives_zero_step(self, demo_channel):
        rng = np.random.default_rng(53)
        obj = BarrierObjective(demo_channel, 100.0, 10.0)
        st = random_interior_state(rng, demo_channel, 10.0)
        sys = assemble(obj, st)
        zero = KktSystem(residual=np.zeros_like(sys.residual),
                         kkt_matrix=sys.kkt_matrix)
        np.testing.assert_array_equal(newton_step(zero), 0.0)

    def test_quadratic_saddle_solved_in_one_step(self):
        prob = QuadraticSaddle()
        st = SaddleState(x=np.array([5.0]), y=np.array([7.0]), lam=0.0)
        sys = assemble(prob, st)
        dw = newton_step(sys)
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
            dw = newton_step(sys)
            r0 = np.linalg.norm(sys.residual)
            trial = st.stepped(dw[:-1], dw[-1], s)
            r1 = np.linalg.norm(residual(obj, trial))
            assert r1 == pytest.approx((1 - s) * r0, rel=1e-2)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_matrix_rejected(self):
        bad = KktSystem(residual=np.ones(2), kkt_matrix=np.ones((2, 2)))
        from secrecap import SingularKktError

        with pytest.raises(SingularKktError):
            newton_step(bad)

    def test_zero_pivot_is_named(self):
        bad = KktSystem(residual=np.ones(2), kkt_matrix=np.ones((2, 2)))
        with pytest.raises(SingularKktError, match="pivot 2 of 2 is zero"):
            newton_step(bad)

    def test_tiny_power_system_solves(self, demo_channel):
        # At P = 1e-6 the first system's one-norm condition estimate is near
        # 6e-22, set by the units of P, yet LU solves it to full accuracy.
        obj = BarrierObjective(demo_channel, 100.0, 1e-6)
        sys = assemble(obj, initial_point(demo_channel, 1e-6))
        dw = newton_step(sys)
        t, r = sys.kkt_matrix, sys.residual
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
        with pytest.raises(SingularKktError):
            newton_step(KktSystem(residual=r, kkt_matrix=t))


class TestLineSearch:
    def test_full_step_accepted_near_solution(self, demo_channel):
        obj = BarrierObjective(demo_channel, 1000.0, 10.0)
        st, rep = newton_solve(obj, initial_point(demo_channel, 10.0), eps=1e-6)
        assert rep.converged
        sys = assemble(obj, st)
        dw = newton_step(sys)
        s, _, rnorm = line_search(obj, st, dw, alpha=0.3, beta=0.5)
        assert s == 1.0
        assert rnorm <= (1 - 0.3) * np.linalg.norm(sys.residual)

    def test_accepted_step_satisfies_armijo_bound(self, demo_channel):
        rng = np.random.default_rng(55)
        obj = BarrierObjective(demo_channel, 100.0, 10.0)
        for _ in range(20):
            st = random_interior_state(rng, demo_channel, 10.0)
            sys = assemble(obj, st)
            dw = newton_step(sys)
            r0 = np.linalg.norm(sys.residual)
            s, _, rnorm = line_search(obj, st, dw, alpha=0.3, beta=0.5)
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
        st, rep = newton_solve(obj, initial_point(demo_channel, 10.0),
                               eps=1e-10, alpha=0.3, beta=0.5)
        assert rep.converged
        assert rep.iterations <= 25
        assert rep.final_residual_norm <= 1e-10

    def test_zero_iterations_from_converged_state(self, demo_channel):
        obj = BarrierObjective(demo_channel, 1e3, 10.0)
        st, rep = newton_solve(obj, initial_point(demo_channel, 10.0), eps=1e-10)
        st2, rep2 = newton_solve(obj, st, eps=1e-10)
        assert rep2.iterations == 0
        assert rep2.converged
        assert st2 is st

    def test_monotone_residual_history(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            ch = random_channel(rng, 2, 2, 2)
            obj = BarrierObjective(ch, 1e3, 10.0)
            _, rep = newton_solve(obj, initial_point(ch, 10.0), eps=1e-10)
            assert rep.converged
            norms = rep.residual_norms
            steps = rep.step_sizes
            for k in range(len(steps)):
                assert norms[k + 1] <= (1 - 0.3 * steps[k]) * norms[k]

    def test_two_phase_quadratic_convergence(self, demo_channel):
        # in the quadratic phase |r_{k+1}| / |r_k|^2 stays bounded; pairs with
        # |r_k| below 1e-8 are skipped, there rounding dominates the quotient
        obj = BarrierObjective(demo_channel, 1e3, 10.0)
        _, rep = newton_solve(obj, initial_point(demo_channel, 10.0), eps=1e-10)
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
        dw = newton_step(sys)
        full = st.stepped(dw[:-1], dw[-1], 1.0)
        assert abs(residual(obj, full)[-1]) <= 1e-12

    def test_max_iter_exhaustion_reports_failure(self, demo_channel):
        obj = BarrierObjective(demo_channel, 1e3, 10.0)
        _, rep = newton_solve(obj, initial_point(demo_channel, 10.0),
                              eps=1e-10, max_iter=2)
        assert not rep.converged
        assert rep.failure is not None
        assert rep.iterations == 2

    @pytest.mark.parametrize("eps, max_iter, failure", [
        (1e-10, 200, None),
        (1e-30, 200, "line search stagnated"),
        (1e-10, 2, "not converged after 2 iterations"),
    ], ids=["converged", "stagnated", "iteration-limited"])
    def test_report_counts_follow_its_lists(self, demo_channel, eps, max_iter,
                                            failure):
        obj = BarrierObjective(demo_channel, 1e3, 10.0)
        _, rep = newton_solve(obj, initial_point(demo_channel, 10.0), eps=eps,
                              max_iter=max_iter)
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
        _, rep = newton_solve(obj, initial_point(demo_channel, 10.0), eps=1e-10,
                              callback=lambda k, st, rn, s: obj.factors(st))
        assert rep.converged and rep.iterations > 0
        assert len(builds) == 1 + len(trials)

    def test_callback_sees_each_accepted_step(self, demo_channel):
        obj = BarrierObjective(demo_channel, 1e3, 10.0)
        seen = []
        _, rep = newton_solve(obj, initial_point(demo_channel, 10.0), eps=1e-10,
                              callback=lambda k, st, rn, s: seen.append((k, rn, s)))
        assert len(seen) == rep.iterations
        assert [k for k, _, _ in seen] == list(range(1, rep.iterations + 1))
        assert [rn for _, rn, _ in seen] == rep.residual_norms[1:]
