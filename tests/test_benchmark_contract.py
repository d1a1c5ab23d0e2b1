"""The benchmark's layer trace wraps solver entry points by module and
attribute name (``perfbench/tracer.py``). A refactor that renames or stops
calling one of them makes its per-layer metrics vanish or read 0 without an
error, so these tests load the benchmark's tracer and metric table from the
checkout, unchanged, and check them against the package."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from secrecap import BracketError, ChannelPair, DualTarget, PerAntennaBudget, SolverConfig

from conftest import DEMO_H1, DEMO_H2

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("tracer"), _load("layers")


def test_every_benchmark_metric_resolves(bench):
    tracing, layers = bench
    tracer = tracing.Tracer()
    metrics, absent = layers.per_layer_metrics(tracer, 2)
    assert absent == []
    # a metric needs only one of its alternative spans, so check the spans
    # too; variants evaluates no rates itself (every solver builds its result
    # in barrier_solver), so its two rate spans may be absent
    assert set(tracer.absent) <= {"variants.minimax_objective", "variants.secrecy_rate"}
    with open(ROOT / "BENCHMARK.json") as fh:
        wanted = [m["name"] for m in json.load(fh)["per_layer"]]
    # the benchmark adds this one itself, from traced and plain run times
    wanted.remove("trace.overhead_share")
    assert [n for n in wanted if n not in metrics] == []


def test_traced_solves_feed_the_metrics(bench, capsys):
    # one solve through every traced entry point; the counts the benchmark
    # reports must see them, and the package must print nothing to stdout,
    # whose last line the benchmark reads as its result
    from secrecap import barrier_solver, cli, variants

    tracing, layers = bench
    demo = ChannelPair(DEMO_H1, DEMO_H2)
    degraded = ChannelPair(DEMO_H1, 0.5 * DEMO_H1)
    cfg = SolverConfig(t_max=1e3)
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        barrier_solver.solve_minimax(demo, 1.0, cfg)
        barrier_solver.solve_degraded(degraded, 1.0, cfg)
        variants.solve_per_antenna(demo, PerAntennaBudget(caps=[0.5, 0.5]), cfg)
        variants.solve_dual(demo, DualTarget(rate=0.05, p_hi=1.0, tol_rate=1e-3), cfg)
        # a dual answered by its bordered solve makes no minimax solve; one
        # whose rate lies above Cs(p_hi) makes one at p_hi, then raises
        with pytest.raises(BracketError):
            variants.solve_dual(demo, DualTarget(rate=0.3, p_hi=1.0), cfg)
        cli.run_batch(2, 1, 1, 2, 0, 1.0, cfg)
    finally:
        assert tracer.restore() == []
    assert capsys.readouterr().out == ""
    metrics, absent = layers.per_layer_metrics(tracer, 1)
    assert absent == []
    for name in ("barrier_solver.steps_per_solve", "barrier_solver.stages_per_solve",
                 "variants.solves_per_dual", "variants.inner_solve_ms",
                 "cli.busy_s", "kkt_newton.step_ms", "kkt_newton.trials_per_step",
                 "objective.BarrierObjective.gradient_us",
                 "objective.DegradedBarrierObjective.gradient_us",
                 "objective.PerAntennaBarrierObjective.system_us",
                 "matcalc.kron_calls_per_step", "channel.self_ms_per_step"):
        assert metrics[name]["value"] > 0, name


def test_traced_batch_feeds_the_metrics(bench):
    # the benchmark's batch workload passes jobs=2; every solve of the batch
    # must still run where the tracer records its spans
    from secrecap import cli

    tracing, layers = bench
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        cli.run_batch(2, 1, 1, 2, 0, 1.0, SolverConfig(t_max=1e3), jobs=2)
    finally:
        assert tracer.restore() == []
    metrics, _ = layers.per_layer_metrics(tracer, 2)
    for name in ("kkt_newton.step_ms", "cli.busy_s"):
        assert metrics[name]["value"] > 0, name
