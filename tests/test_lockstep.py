"""Channels solved together in lockstep (``solve_minimax`` of a list,
which ``cli.run_batch`` calls) give each channel exactly its serial solve:
the same step count, the same converged flag and the same capacity under
``==``, the same trace rows and stage reports, and a failing channel changes
no other row."""

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
    initial_point,
    solve,
    solve_minimax,
)
from secrecap.kkt_newton import KktSystem, assemble, newton_solve, newton_step
from secrecap.matcalc import vech

from conftest import DEMO_H1, DEMO_H2, c08_channels

# the CI problem that must fail: nearly identical channels (W1 - W2
# indefinite, eigenvalues of order 1e-6) and a deep schedule
NEAR_IDENTICAL = ChannelPair(
    DEMO_H1, DEMO_H1 + 1e-6 * np.random.default_rng(0).standard_normal((2, 2)))
DEEP = SolverConfig(t_max=1e7, eps_newton=1e-12)


def random_channels(shape, count, seed):
    rng = np.random.default_rng(seed)
    m, n1, n2 = shape
    return [ChannelPair(rng.standard_normal((n1, m)), rng.standard_normal((n2, m)))
            for _ in range(count)]


def serial(ch, power, cfg=None):
    try:
        return solve_minimax(ch, power, cfg)
    except SolverError as exc:
        return exc


def assert_same_row(row, ref):
    """A lockstep row against the serial solve of its channel."""
    assert type(row) is type(ref)
    # each trace row keeps its own (nx + ny)-float copy of its iterate, no
    # view into the stack of every channel
    assert all(r.z.base is None and r.z.shape == s.z.shape
               for r, s in zip(row.trace, ref.trace))
    if isinstance(ref, SolverError):
        assert str(row) == str(ref)
        assert row.trace == ref.trace
        return
    assert row.newton_steps_total == ref.newton_steps_total
    assert row.capacity_achievable == ref.capacity_achievable
    assert row.capacity_upper == ref.capacity_upper
    assert row.lambda_star == ref.lambda_star
    assert type(row.lambda_star) is type(ref.lambda_star) is float
    for name in ("gap_bound", "t_final", "gap_met", "mode", "gap_bound_heuristic"):
        assert getattr(row, name) == getattr(ref, name), name
    assert row.trace == ref.trace
    assert row.stage_reports == ref.stage_reports
    np.testing.assert_array_equal(row.R_star.R, ref.R_star.R)
    np.testing.assert_array_equal(row.K21_star, ref.K21_star)


@pytest.mark.parametrize("count", [1, 2, 7])
@pytest.mark.parametrize("power", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("shape", [(2, 2, 2), (4, 3, 3), (3, 2, 1), (5, 4, 4),
                                   (2, 2, 0), (2, 0, 2)])
def test_rows_equal_serial_solves(shape, power, count):
    # (2, 2, 0) iterates without a K block (Z1 from W1^{1/2}); (2, 0, 2) is
    # reversely degraded, so every row short-circuits
    channels = random_channels(shape, count, seed=sum(shape) + count)
    rows = solve_minimax(channels, power)
    assert len(rows) == count
    for ch, row in zip(channels, rows):
        assert_same_row(row, serial(ch, power))


@pytest.mark.parametrize("objective", [BarrierObjective, DegradedBarrierObjective])
def test_stack_of_one_matches_one_iterate(objective):
    # one iterate runs the one-matrix kernels and a stack of one the stacked
    # kernels, with a K block and without one: the same Newton solve, bit for
    # bit; on these non-degraded channels the degraded objective's line
    # search stagnates at P = 1 and 1e2, and that ends the same way too
    for ch in random_channels((4, 3, 3), 4, seed=0):
        for power in (1e-2, 1.0, 1e2):
            obj = objective(ch, 1e3, power)
            if objective is BarrierObjective:
                start = initial_point(ch, power)
            else:
                start = SaddleState(x=vech(np.eye(ch.m) * (power / ch.m)), y=np.zeros(0))
            one, (rep,), (err,) = newton_solve(obj, start)
            stack, (rep_s,), (err_s,) = newton_solve(obj, SaddleState.stack([start]))
            assert err is None and err_s is None
            assert rep_s.step_sizes == rep.step_sizes
            assert rep_s.residual_norms == rep.residual_norms
            assert rep_s.failure == rep.failure
            np.testing.assert_array_equal(stack.x[0], one.x)
            np.testing.assert_array_equal(stack.y[0], one.y)
            assert stack.lam[0] == one.lam


def test_failing_channel_moves_no_other_row():
    good = random_channels((2, 2, 2), 4, seed=21)
    with_failure = good[:2] + [NEAR_IDENTICAL] + good[2:]
    rows = solve_minimax(with_failure, 10.0, DEEP)
    failed = rows[2]
    assert isinstance(failed, SolverError)
    assert_same_row(failed, serial(NEAR_IDENTICAL, 10.0, DEEP))
    assert 0 < len(failed.trace)
    for row, ch in zip(rows[:2] + rows[3:], good):
        assert_same_row(row, serial(ch, 10.0, DEEP))
    for row, alone in zip(rows[:2] + rows[3:], solve_minimax(good, 10.0, DEEP)):
        assert_same_row(row, alone)


@pytest.mark.parametrize("picks", [[3, 11], [11, 3], [3, 11, 22], [3, 2, 11, 22]])
def test_rows_failing_at_successive_stages_equal_serial_solves(picks):
    # with four iterations per stage from t0 = 0.01, channels 3, 11 and 22
    # fail at t = 10, 1e2 and 1e3 of a schedule up to 1e7, each once from
    # its predicted start and once more from the previous central point,
    # and channel 2 converges: every row still equals its serial solve when
    # no row is left before the last stage
    cfg = SolverConfig(t0=0.01, max_newton_iter=4, t_max=1e7)
    pool = random_channels((2, 2, 2), 23, seed=21)
    channels = [pool[i] for i in picks]
    rows = solve_minimax(channels, 10.0, cfg)
    for i, ch, row in zip(picks, channels, rows):
        ref = serial(ch, 10.0, cfg)
        assert isinstance(ref, SolverError) is (i != 2)
        if i != 2:  # both solves of the failing stage are in the trace
            t_fail = {3: 10.0, 11: 100.0, 22: 1e3}[i]
            assert [r.iteration for r in ref.trace if r.t == t_fail] == [1, 2, 3, 4] * 2
        assert_same_row(row, ref)


def test_row_rerun_from_the_central_point_equals_serial_solve():
    # c08's first channel (|K21*| = 0.9996) stagnates from its predicted
    # start at t = 1e5 and solves once more from the central point of
    # t = 1e4; the failed solve's trace rows stay. In a stack with two
    # channels that take every prediction, each row is its serial solve.
    cfg = SolverConfig(t_max=1e7)
    channels = c08_channels(3)
    rows = solve_minimax(channels, 10.0, cfg)
    reruns = [[t for t, rep in row.stage_reports if rep.rerun] for row in rows]
    assert reruns == [[1e5], [], []]
    first = rows[0]
    assert first.newton_steps_total > sum(rep.iterations for _, rep in first.stage_reports)
    for ch, row in zip(channels, rows):
        assert_same_row(row, serial(ch, 10.0, cfg))


def test_row_with_a_rejected_prediction_equals_serial_solve():
    # at mu = 100 the tangent prediction of channel 1 to t = 1e4 fails the
    # residual-decrease test at every step size tried, so that row starts
    # from the central point of t = 1e2, while the other rows start from
    # their predictions
    cfg = SolverConfig(mu=100.0, t_max=1e8)
    channels = random_channels((2, 2, 2), 3, seed=21)
    rows = solve_minimax(channels, 10.0, cfg)
    starts = [[rep.predictor_step for _, rep in row.stage_reports] for row in rows]
    assert starts[1][:2] == [None, None]
    assert all(s is not None for s in starts[0][1:] + starts[2][1:])
    for ch, row in zip(channels, rows):
        assert_same_row(row, serial(ch, 10.0, cfg))


def test_reversely_degraded_channel_short_circuits_in_a_list():
    ch = random_channels((2, 2, 2), 1, seed=3)[0]
    reverse = ChannelPair(0.5 * DEMO_H2, DEMO_H2)
    rows = solve_minimax([ch, reverse], 1.0)
    assert rows[1].mode == "zero" and rows[1].newton_steps_total == 0
    assert_same_row(rows[0], serial(ch, 1.0))


def test_zero_row_keeps_its_index_with_a_gap_target():
    # a reversely degraded channel between two others: its zero row stays
    # at index 1, and the rows around it stop on the gap target as their
    # serial solves do
    a, b = random_channels((2, 2, 2), 2, seed=3)
    reverse = ChannelPair(0.5 * DEMO_H2, DEMO_H2)
    cfg = SolverConfig(eps_gap=1e-3)
    rows = solve_minimax([a, reverse, b], 1.0, cfg)
    assert rows[1].mode == "zero" and rows[1].newton_steps_total == 0
    assert rows[1].gap_met is True
    assert_same_row(rows[1], serial(reverse, 1.0, cfg))
    for ch, row in ((a, rows[0]), (b, rows[2])):
        ref = serial(ch, 1.0, cfg)
        assert ref.t_final < cfg.t_max and row.gap_met is ref.gap_met is True
        assert_same_row(row, ref)


@pytest.mark.parametrize("mode", ["auto", "degraded"])
def test_list_solves_in_minimax_mode_only(demo_channel, mode):
    with pytest.raises(ValueError, match="minimax mode"):
        solve([demo_channel, demo_channel], 1.0, mode=mode)


def test_list_needs_a_total_power(demo_channel):
    budget = PerAntennaBudget(caps=[1.0, 1.0])
    for mode in ("minimax", "per_antenna"):
        with pytest.raises(ValueError, match="total power"):
            solve([demo_channel, demo_channel], budget, mode=mode)


@pytest.mark.parametrize("make", [
    lambda chs: DegradedBarrierObjective(chs, 100.0, 1.0),
    lambda chs: PerAntennaBarrierObjective(chs, 100.0, [1.0, 1.0]),
], ids=["degraded", "per_antenna"])
def test_only_the_minimax_objective_takes_a_list(demo_channel, make):
    with pytest.raises(ValueError, match="takes one ChannelPair"):
        make([demo_channel, demo_channel])


def test_objective_rejects_mixed_shapes():
    a, = random_channels((2, 2, 2), 1, seed=1)
    b, = random_channels((2, 2, 1), 1, seed=1)
    with pytest.raises(ValueError, match="share one shape"):
        BarrierObjective([a, b], 100.0, 1.0)


def test_stacked_newton_step_reports_a_singular_row_alone(demo_channel):
    # one singular system in a stack: its row gets the error, the other row
    # is the single-system step bit for bit
    sys = assemble(BarrierObjective(demo_channel, 100.0, 10.0),
                   initial_point(demo_channel, 10.0))
    n = sys.residual.size
    stack = KktSystem(residual=np.stack([sys.residual, np.ones(n)]),
                      kkt_matrix=np.stack([sys.kkt_matrix, np.ones((n, n))]))
    dw, errors = newton_step(stack)
    assert errors[0] is None
    assert isinstance(errors[1], SingularKktError)
    assert "is zero" in str(errors[1])
    np.testing.assert_array_equal(dw[0], newton_step(sys)[0])
    assert np.all(np.isnan(dw[1]))


def test_batch_rows_equal_serial_solves():
    # the batch's rows come from one lockstep solve; each equals its
    # channel's serial solve under ==
    from secrecap.cli import _batch_channels, run_batch

    cfg = SolverConfig()
    summary = run_batch(3, 2, 1, 7, 5, 1.0, cfg)
    for row, ch in zip(summary["per_channel"], _batch_channels(3, 2, 1, 7, 5)):
        ref = serial(ch, 1.0, cfg)
        failed = isinstance(ref, SolverError)
        assert row["converged"] is not failed
        assert row["steps"] == (len(ref.trace) if failed else ref.newton_steps_total)
        assert row["capacity_nats"] == (None if failed else ref.capacity_achievable)
