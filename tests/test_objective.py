import numpy as np
import pytest

from secrecap import (
    BarrierObjective,
    ChannelPair,
    DomainError,
    NoiseCovariance,
    SaddleState,
    TraceRecord,
    minimax_objective,
    secrecy_rate,
    solve_minimax,
)
from secrecap.matcalc import sym, vec, vech
from secrecap.objective import (
    DegradedBarrierObjective,
    PerAntennaBarrierObjective,
    RateBarrierObjective,
)

from conftest import (
    DEMO_H1,
    DEMO_H2,
    duplication_matrix,
    random_channel,
    random_feasible_k21,
    random_spd,
    reduced_duplication_matrix,
    rel_err_inf,
    value_ft,
)

# Frozen from the cofactor-expansion determinant oracle below:
# f(5 I, K21 = 0) on the demo channel.
COFACTOR_F_DEMO_R5I = 0.5002176992599163
# Frozen from the scalar closed form at h1=2, h2=1, r=0.7, k=0.3, t=13:
# ln((1+4r)(1+r) - (k+2r)^2) - ln(1-k^2) - ln(1+r) + (ln r - ln(1-k^2))/t
SCALAR_FT_HAND = 0.8160661577031195


def cofactor_det(a):
    """Independent determinant by first-row cofactor expansion."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += ((-1.0) ** j) * a[0][j] * cofactor_det(minor)
    return total


def interior_point(rng, ch, power):
    r = random_spd(rng, ch.m, trace=power)
    k21 = random_feasible_k21(rng, ch.n1, ch.n2, max_norm=0.8)
    return r, k21


def point(r, k21):
    """The iterate (vech(R), vec(K21)) with multiplier 0."""
    return SaddleState(x=vech(r), y=vec(k21), lam=0.0)


def fd_gradient(fun, z0, h=1e-5):
    g = np.zeros_like(z0)
    for i in range(z0.size):
        zp = z0.copy()
        zm = z0.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (fun(zp) - fun(zm)) / (2 * h)
    return g


class TestSecrecyRate:
    def test_zero_covariance(self, demo_channel):
        assert secrecy_rate(demo_channel, np.zeros((2, 2))) == 0.0

    def test_scalar_value(self):
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        # w1 = 4, w2 = 1, r = 1: 0.5 ln(5/2)
        assert secrecy_rate(ch, np.array([[1.0]])) == pytest.approx(
            0.5 * np.log(2.5), abs=1e-14
        )

    def test_equal_channels_vanish(self):
        rng = np.random.default_rng(31)
        ch = ChannelPair(DEMO_H1, DEMO_H1)
        for _ in range(10):
            r = random_spd(rng, 2, trace=5.0)
            assert abs(secrecy_rate(ch, r)) < 1e-12


class TestMinimaxObjective:
    def test_zero_covariance(self, demo_channel):
        k21 = np.array([[0.3, 0.1], [0.0, 0.2]])
        assert minimax_objective(demo_channel, np.zeros((2, 2)), k21) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_identity_noise_closed_form(self, demo_channel):
        rng = np.random.default_rng(32)
        wsum = demo_channel.W1 + demo_channel.W2
        for _ in range(10):
            r = random_spd(rng, 2, trace=8.0)
            f = minimax_objective(demo_channel, r, np.zeros((2, 2)))
            s1 = np.linalg.slogdet(np.eye(2) + wsum @ r)[1]
            s2 = np.linalg.slogdet(np.eye(2) + demo_channel.W2 @ r)[1]
            assert f == pytest.approx(0.5 * (s1 - s2), abs=1e-12)
            assert f >= secrecy_rate(demo_channel, r) - 1e-10

    def test_cofactor_determinant_oracle(self, demo_channel):
        r = 5.0 * np.eye(2)
        h = demo_channel.Hstack
        kq = np.eye(4) + h @ r @ h.T
        m2 = np.eye(2) + DEMO_H2 @ r @ DEMO_H2.T
        oracle = 0.5 * (np.log(cofactor_det(kq.tolist())) - np.log(cofactor_det(m2.tolist())))
        assert oracle == pytest.approx(COFACTOR_F_DEMO_R5I, abs=1e-12)
        assert minimax_objective(demo_channel, r, np.zeros((2, 2))) == pytest.approx(
            COFACTOR_F_DEMO_R5I, abs=1e-12
        )

    def test_upper_bound_on_random_pairs(self, demo_channel):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            r, k21 = interior_point(rng, demo_channel, 10.0)
            f = minimax_objective(demo_channel, r, k21)
            c = secrecy_rate(demo_channel, r)
            assert f >= c - 1e-10

    def test_infeasible_noise_rejected(self, demo_channel):
        with pytest.raises(DomainError):
            minimax_objective(demo_channel, np.eye(2), 1.5 * np.eye(2))

    def test_accepts_noise_covariance_type(self, demo_channel):
        nc = NoiseCovariance(np.zeros((2, 2)))
        assert minimax_objective(demo_channel, np.eye(2), nc) == pytest.approx(
            minimax_objective(demo_channel, np.eye(2), np.zeros((2, 2)))
        )


class TestBarrierValue:
    def test_large_t_limit(self, demo_channel):
        rng = np.random.default_rng(34)
        r, k21 = interior_point(rng, demo_channel, 10.0)
        obj = BarrierObjective(demo_channel, t=1e12, power=10.0)
        internal_f = 2.0 * minimax_objective(demo_channel, r, k21)
        diff = abs(value_ft(obj, point(r, k21)) - internal_f)
        ld_r = abs(np.linalg.slogdet(r)[1])
        k = NoiseCovariance(k21).K
        ld_k = abs(np.linalg.slogdet(k)[1])
        assert diff <= 1e-9 * (ld_r + ld_k + 1.0)

    def test_identity_point_gives_f(self, demo_channel):
        obj = BarrierObjective(demo_channel, t=17.0, power=10.0)
        v = value_ft(obj, point(np.eye(2), np.zeros((2, 2))))
        assert v == pytest.approx(
            2.0 * minimax_objective(demo_channel, np.eye(2), np.zeros((2, 2))),
            abs=1e-13,
        )

    def test_scalar_hand_formula(self):
        ch = ChannelPair(np.array([[2.0]]), np.array([[1.0]]))
        obj = BarrierObjective(ch, t=13.0, power=1.0)
        v = value_ft(obj, point(np.array([[0.7]]), np.array([[0.3]])))
        assert v == pytest.approx(SCALAR_FT_HAND, abs=1e-12)

    def test_barrier_term_scales_inversely_in_t(self, demo_channel):
        rng = np.random.default_rng(35)
        r, k21 = interior_point(rng, demo_channel, 10.0)
        f = 2.0 * minimax_objective(demo_channel, r, k21)
        t = 53.0
        b1 = value_ft(BarrierObjective(demo_channel, t, 10.0), point(r, k21)) - f
        b2 = value_ft(BarrierObjective(demo_channel, 2 * t, 10.0), point(r, k21)) - f
        assert b1 == pytest.approx(2.0 * b2, rel=1e-9)

    def test_outside_domain_rejected(self, demo_channel):
        obj = BarrierObjective(demo_channel, t=10.0, power=10.0)
        with pytest.raises(DomainError):
            value_ft(obj, point(np.diag([1.0, 0.0]), np.zeros((2, 2))))
        with pytest.raises(DomainError):
            value_ft(obj, point(np.eye(2), np.eye(2)))


class TestDerivatives:
    def _channels(self):
        rng = np.random.default_rng(36)
        chans = [ChannelPair(DEMO_H1, DEMO_H2)]
        chans += [random_channel(rng, 2, 2, 2) for _ in range(2)]
        return chans, rng

    KINDS = ("minimax", "degraded", "per_antenna")

    @staticmethod
    def _objective(kind, ch, t, r):
        """An objective of each class; the per-antenna caps and total lie
        above r's diagonal and trace, so r is inside them."""
        if kind == "minimax":
            return BarrierObjective(ch, t=t, power=10.0)
        if kind == "degraded":
            return DegradedBarrierObjective(ch, t, 10.0)
        return PerAntennaBarrierObjective(ch, t, 1.5 * np.diag(r), 1.2 * np.trace(r))

    def test_gradient_matches_finite_differences(self):
        for kind in self.KINDS:
            chans, rng = self._channels()
            for ch in chans:
                t = rng.uniform(10, 1000)
                for _ in range(5):
                    r, k21 = interior_point(rng, ch, 10.0)
                    obj = self._objective(kind, ch, t, r)
                    z0 = np.concatenate([vech(r), vec(k21)])[: obj.nx + obj.ny]

                    def ft(z):
                        st = SaddleState(x=z[: obj.nx], y=z[obj.nx :], lam=0.0)
                        return value_ft(obj, st)

                    g, _ = obj.newton_system(point(r, k21))
                    assert rel_err_inf(fd_gradient(ft, z0), g) <= 1e-5, kind

    def test_hessian_matches_gradient_differences(self):
        for kind in self.KINDS:
            chans, rng = self._channels()
            for ch in chans:
                t = rng.uniform(10, 1000)
                r, k21 = interior_point(rng, ch, 10.0)
                obj = self._objective(kind, ch, t, r)
                z0 = np.concatenate([vech(r), vec(k21)])[: obj.nx + obj.ny]
                _, hess = obj.newton_system(point(r, k21))
                nx = obj.nx

                def grad(z):
                    st = SaddleState(x=z[:nx], y=z[nx:], lam=0.0)
                    return obj.newton_gradient(st)

                h = 1e-5
                fd = np.zeros_like(hess)
                for j in range(z0.size):
                    zp = z0.copy()
                    zm = z0.copy()
                    zp[j] += h
                    zm[j] -= h
                    fd[:, j] = (grad(zp) - grad(zm)) / (2 * h)
                assert rel_err_inf(fd, hess) <= 1e-4, kind

    def test_definiteness(self, demo_channel):
        rng = np.random.default_rng(37)
        for _ in range(50):
            obj = BarrierObjective(demo_channel, t=rng.uniform(1, 1e5), power=10.0)
            r, k21 = interior_point(rng, demo_channel, 10.0)
            _, h = obj.newton_system(point(r, k21))
            nx = obj.nx
            assert np.linalg.eigvalsh(h[:nx, :nx]).max() <= -1e-12
            assert np.linalg.eigvalsh(h[nx:, nx:]).min() >= 1e-12

    def test_hessian_blocks_symmetric(self, demo_channel):
        rng = np.random.default_rng(38)
        obj = BarrierObjective(demo_channel, t=100.0, power=10.0)
        r, k21 = interior_point(rng, demo_channel, 10.0)
        _, h = obj.newton_system(point(r, k21))
        nx = obj.nx
        hxx, hyy = h[:nx, :nx], h[nx:, nx:]
        assert np.max(np.abs(hxx - hxx.T)) <= 1e-12
        assert np.max(np.abs(hyy - hyy.T)) <= 1e-12
        assert h[:nx, nx:].shape == (obj.nx, obj.ny)

    def test_mixed_block_consistent_both_orders(self, demo_channel):
        # d/dy of grad_x must equal (d/dx of grad_y) transposed
        rng = np.random.default_rng(39)
        obj = BarrierObjective(demo_channel, t=80.0, power=10.0)
        r, k21 = interior_point(rng, demo_channel, 10.0)
        x0, y0 = vech(r), vec(k21)
        h = 1e-6
        hess_xy = obj.newton_system(point(r, k21))[1][: obj.nx, obj.nx :]

        def grad_x_at(y):
            st = SaddleState(x=x0, y=y, lam=0.0)
            return obj.newton_gradient(st)[: obj.nx]

        def grad_y_at(x):
            st = SaddleState(x=x, y=y0, lam=0.0)
            return obj.newton_gradient(st)[obj.nx :]

        fd_xy = np.zeros((obj.nx, obj.ny))
        for j in range(obj.ny):
            yp, ym = y0.copy(), y0.copy()
            yp[j] += h
            ym[j] -= h
            fd_xy[:, j] = (grad_x_at(yp) - grad_x_at(ym)) / (2 * h)
        fd_yx = np.zeros((obj.ny, obj.nx))
        for j in range(obj.nx):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            fd_yx[:, j] = (grad_y_at(xp) - grad_y_at(xm)) / (2 * h)
        assert rel_err_inf(fd_xy, hess_xy) <= 1e-4
        assert rel_err_inf(fd_yx.T, hess_xy) <= 1e-4

    def test_stationary_gradient_aligns_with_constraint_normal(self, demo_channel):
        # at a converged barrier solution the R-gradient equals lam * vech(I)
        sol = solve_minimax(demo_channel, 10.0)
        obj = BarrierObjective(demo_channel, sol.t_final, 10.0)
        g, _ = obj.newton_system(point(sol.R_star.R, sol.K21_star))
        a = vech(np.eye(2))
        lam = sol.lambda_star
        assert np.linalg.norm(g[: obj.nx] - lam * a) <= 1e-8 * (1 + abs(lam))
        assert np.linalg.norm(g[obj.nx :]) <= 1e-8

    def test_bundle_values_consistent(self, demo_channel):
        rng = np.random.default_rng(40)
        obj = BarrierObjective(demo_channel, t=200.0, power=10.0)
        r, k21 = interior_point(rng, demo_channel, 10.0)
        st = point(r, k21)
        fac = obj.factors(st)
        assert fac.value_f() == pytest.approx(
            2.0 * minimax_objective(demo_channel, r, k21), abs=1e-12
        )
        row = TraceRecord(obj.t, 1, 0.0, 1.0, demo_channel, st.z)
        assert (row.f, row.C) == (minimax_objective(demo_channel, r, k21),
                                  secrecy_rate(demo_channel, r))
        ld_r = np.linalg.slogdet(r)[1]
        ld_k = np.linalg.slogdet(NoiseCovariance(k21).K)[1]
        assert value_ft(obj, st) == pytest.approx(
            fac.value_f() + (ld_r - ld_k) / obj.t, abs=1e-12)


def oracle_minimax(fac, t, dm, dt):
    """Gradient and Hessian of the minimax barrier objective from its factors
    through the 0/1 duplication-matrix products D'vec, D'(A (x) A)D and the
    Dt counterparts."""
    tinv = 1.0 / t
    g = np.concatenate([dm.T @ vec(fac.Z1 - fac.Z2 + tinv * fac.Rinv),
                        dt.T @ vec(fac.G - (1.0 + tinv) * fac.Kinv)])
    hxx = -sym(dm.T @ (np.kron(fac.Z1, fac.Z1) - np.kron(fac.Z2, fac.Z2)
                       + tinv * np.kron(fac.Rinv, fac.Rinv)) @ dm)
    hyy = sym(dt.T @ ((1.0 + tinv) * np.kron(fac.Kinv, fac.Kinv)
                      - np.kron(fac.G, fac.G)) @ dt)
    hxy = -(dm.T @ np.kron(fac.B, fac.B) @ dt)
    return g, np.block([[hxx, hxy], [hxy.T, hyy]])


class TestBorderRows:
    """The equality row each objective gives the Newton system:
    ``border(state)`` = (row residual, row gradient)."""

    def test_power_row_is_linear(self, demo_channel):
        rng = np.random.default_rng(80)
        obj = BarrierObjective(demo_channel, 100.0, 10.0)
        a, b = obj.constraint
        for _ in range(5):
            r, k21 = interior_point(rng, demo_channel, 7.0)
            st = SaddleState(x=vech(r), y=vec(k21), lam=0.0)
            eq, row = obj.border(st)
            assert eq == float(a @ st.z - b)
            assert eq == pytest.approx(np.trace(r) - 10.0, abs=1e-13)
            assert row is a

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 1), (3, 2, 0), (2, 0, 2)])
    def test_rate_row_is_f_and_its_gradient(self, shape):
        # the row is f(R, K) - 2 rate in log-det units; its gradient is that
        # of f alone, with no barrier terms, so it does not depend on t
        rng = np.random.default_rng([81, *shape])
        ch = random_channel(rng, *shape)
        rate = 0.2
        for t in (10.0, 1e4):
            obj = RateBarrierObjective(ch, t, rate)
            assert obj.constraint[1] == 2 * rate
            for _ in range(3):
                r = random_spd(rng, ch.m, trace=5.0)
                k21 = (random_feasible_k21(rng, ch.n1, ch.n2, max_norm=0.8) if obj.ny
                       else np.zeros((ch.n2, ch.n1)))
                z0 = np.concatenate([vech(r), vec(k21)])[: obj.nx + obj.ny]

                def row(z):
                    return obj.border(SaddleState(x=z[: obj.nx], y=z[obj.nx:]))

                eq, grad = row(z0)
                f = minimax_objective(ch, r, k21) if obj.ny else secrecy_rate(ch, r)
                assert eq == pytest.approx(2 * (f - rate), abs=1e-12)
                assert grad.shape == z0.shape
                assert rel_err_inf(fd_gradient(lambda z: row(z)[0], z0), grad) <= 1e-6

    def test_rate_objective_keeps_the_minimax_stationarity(self, demo_channel):
        # the same gradient, Hessian and multiplier column as the minimax
        # objective at any power: only the row differs
        rng = np.random.default_rng(82)
        rate_obj = RateBarrierObjective(demo_channel, 300.0, 0.3)
        power_obj = BarrierObjective(demo_channel, 300.0, 4.0)
        r, k21 = interior_point(rng, demo_channel, 3.0)
        st = SaddleState(x=vech(r), y=vec(k21), lam=0.0)
        for a, b in zip(rate_obj.newton_system(st), power_obj.newton_system(st)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(rate_obj.constraint[0], power_obj.constraint[0])
        assert rate_obj.power is None


class TestIndexFormulas:
    """The objectives gather their derivatives from index arrays; the dense
    duplication-matrix sandwiches they replaced are the oracle."""

    @staticmethod
    def assert_matches(got, want):
        (g, h), (g_ref, h_ref) = got, want
        assert np.array_equal(g, g_ref)
        assert np.max(np.abs(h - h_ref)) <= 1e-14 * np.max(np.abs(h_ref))
        # the gathers add the same two products as the 0/1 sandwich
        assert np.array_equal(h, h_ref)

    @pytest.mark.parametrize("n1, n2", [(1, 1), (3, 3), (10, 10), (8, 8), (2, 5),
                                        (5, 2), (3, 7), (4, 4)])
    def test_all_objectives_match_duplication_oracle(self, n1, n2):
        rng = np.random.default_rng([61, n1, n2])
        for m in range(1, 9):
            ch = random_channel(rng, m, n1, n2)
            t = float(10.0 ** rng.uniform(0, 6))
            r, k21 = interior_point(rng, ch, 10.0)
            dm, dt = duplication_matrix(m), reduced_duplication_matrix(n1, n2)
            state = SaddleState(x=vech(r), y=vec(k21), lam=0.0)

            obj = BarrierObjective(ch, t, 10.0)
            want = oracle_minimax(obj.factors(state), t, dm, dt)
            self.assert_matches(obj.newton_system(state), want)
            assert np.array_equal(obj.newton_gradient(state), want[0])

            caps = np.diag(r) * rng.uniform(1.1, 2.0, m)
            total = float(np.trace(r)) * 1.05 if m % 2 else None
            pa = PerAntennaBarrierObjective(ch, t, caps, total)
            g_ref, h_ref = oracle_minimax(pa.factors(state), t, dm, dt)
            diag = np.flatnonzero(vech(np.eye(m)))
            slack = caps - np.diag(r)
            g_ref[diag] -= 1.0 / (t * slack)
            h_ref[diag, diag] -= 1.0 / (t * slack**2)
            if total is not None:
                a = np.concatenate([vech(np.eye(m)), np.zeros(n1 * n2)])
                g_ref -= a / (t * (total - np.trace(r)))
                h_ref -= np.outer(a, a) / (t * (total - np.trace(r)) ** 2)
            self.assert_matches(pa.newton_system(state), (g_ref, h_ref))

            deg = DegradedBarrierObjective(ch, t, 10.0)
            x_state = SaddleState(x=vech(r), y=np.zeros(0), lam=0.0)
            fac = deg.factors(x_state)
            rinv, z1, z2 = fac.Rinv, fac.Z1, fac.Z2
            g_ref = dm.T @ vec(z1 - z2 + (1.0 / t) * rinv)
            h_ref = -sym(dm.T @ (np.kron(z1, z1) - np.kron(z2, z2)
                                 + (1.0 / t) * np.kron(rinv, rinv)) @ dm)
            self.assert_matches(deg.newton_system(x_state), (g_ref, h_ref))
            assert np.array_equal(deg.newton_gradient(x_state), g_ref)


class TestConstruction:
    GOOD = dict(t=10.0, power=10.0, caps=[4.0, 6.0], total=8.0, rate=0.3)
    FIELDS = {BarrierObjective: ("t", "power"),
              DegradedBarrierObjective: ("t", "power"),
              PerAntennaBarrierObjective: ("t", "caps", "total"),
              RateBarrierObjective: ("t", "rate")}

    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_fields_not_finite_and_positive(self, demo_channel, cls, bad):
        for field in self.FIELDS[cls]:
            kwargs = {f: self.GOOD[f] for f in self.FIELDS[cls]}
            kwargs[field] = [4.0, bad] if field == "caps" else bad
            with pytest.raises(ValueError,
                               match=f"^{field} must be finite and positive, got"):
                cls(demo_channel, **kwargs)

    def test_subclasses_only_configure_the_base(self):
        # one implementation: the degraded, per-antenna and rate classes inherit
        # every evaluation from BarrierObjective
        for cls in (DegradedBarrierObjective, PerAntennaBarrierObjective,
                    RateBarrierObjective):
            assert issubclass(cls, BarrierObjective)
            assert not {"newton_gradient", "newton_system",
                        "factors"} & set(vars(cls)), cls
        # the per-antenna objective only states its power limits as rows
        methods = {name for name, value in vars(PerAntennaBarrierObjective).items()
                   if callable(value) or isinstance(value, (property, classmethod))}
        assert methods == {"__init__"}

    @pytest.mark.parametrize("cls, gap", [
        (BarrierObjective, max(2, 2 + 3) / 10.0),  # max(m, n1 + n2)/t
        (DegradedBarrierObjective, 2 / 10.0),      # m/t: no K block
        # m + (m caps + 1 total) + n1 + n2 barrier terms over t
        (PerAntennaBarrierObjective, (2 + 3 + 2 + 3) / 10.0),
    ], ids=["minimax", "degraded", "per_antenna"])
    def test_gap_from_own_block_sizes(self, cls, gap):
        ch = ChannelPair(DEMO_H1, np.vstack([DEMO_H2, DEMO_H2[:1]]))  # m 2, n1 2, n2 3
        kwargs = {f: self.GOOD[f] for f in self.FIELDS[cls] if f != "t"}
        obj = cls(ch, 10.0, **kwargs)
        assert obj.gap() == gap
        assert obj.gap_heuristic is (cls is PerAntennaBarrierObjective)
