"""Per-layer metrics computed from the tracer's spans.

"Per step" divides by accepted Newton steps, counted as ``line_search`` calls
that returned. A metric whose spans a refactor removed is reported absent;
a metric whose layer did not run on the workload reads 0.
"""

from __future__ import annotations

from collections import defaultdict

OBJECTIVE_CLASSES = ("BarrierObjective", "DegradedBarrierObjective",
                     "PerAntennaBarrierObjective")
GRADIENT = tuple(f"{c}.newton_gradient" for c in OBJECTIVE_CLASSES)
SYSTEM = tuple(f"{c}.newton_system" for c in OBJECTIVE_CLASSES)
SOLVES = ("barrier_solver.solve_minimax", "barrier_solver.solve_degraded",
          "variants.solve_per_antenna", "variants.solve_minimax", "cli.solve_minimax")
TRACE_RATES = ("barrier_solver.minimax_objective", "barrier_solver.secrecy_rate",
               "variants.minimax_objective", "variants.secrecy_rate")
SELF_LAYERS = ("channel", "matcalc", "objective", "kkt_newton", "barrier_solver",
               "variants")

LS = "kkt_newton.line_search"
NEWTON = "barrier_solver.newton_solve"


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _ns(spans) -> int:
    return sum(s.ns for s in spans)


def _cpu(spans) -> int:
    return sum(s.cpu or 0 for s in spans)


def _mean_us(spans) -> float:
    return _div(_ns(spans), 1e3 * len(spans))


def _metric_table(jobs: int):
    """(name, unit, required spans, function of the span view). Each
    requirement is a span name or a tuple of names of which one suffices."""
    table = [
        ("objective.evals_per_step", "count", (GRADIENT, SYSTEM, LS),
         lambda v: _div(len(v.outer(GRADIENT + SYSTEM)), v.steps)),
        ("objective.gradient_us", "us", (GRADIENT,), lambda v: _mean_us(v.outer(GRADIENT))),
        ("objective.system_us", "us", (SYSTEM,), lambda v: _mean_us(v.outer(SYSTEM))),
    ]
    for cls in OBJECTIVE_CLASSES:
        for meth, short in (("newton_gradient", "gradient_us"),
                            ("newton_system", "system_us")):
            name = f"{cls}.{meth}"
            table.append((f"objective.{cls}.{short}", "us", (name,),
                          lambda v, n=name: _mean_us(v.outer((n,)))))
    table += [
        ("matcalc.kron_calls_per_step", "count", ("objective.kron", LS),
         lambda v: _div(len(v.spans("objective.kron")), v.steps)),
        ("matcalc.kron_ms_per_step", "ms", ("objective.kron", LS),
         lambda v: _div(_ns(v.spans("objective.kron")), 1e6 * v.steps)),
        ("matcalc.psd_sqrt_calls_per_step", "count", ("objective.psd_sqrt", LS),
         lambda v: _div(len(v.spans("objective.psd_sqrt")), v.steps)),
        ("kkt_newton.step_ms", "ms", (NEWTON, LS),
         lambda v: _div(_ns(v.spans(NEWTON)), 1e6 * v.steps)),
        ("kkt_newton.assemble_ms_per_step", "ms", ("kkt_newton.assemble", LS),
         lambda v: _div(_ns(v.spans("kkt_newton.assemble")), 1e6 * v.steps)),
        ("kkt_newton.solve_ms_per_step", "ms", ("kkt_newton.newton_step", LS),
         lambda v: _div(_ns(v.spans("kkt_newton.newton_step")), 1e6 * v.steps)),
        ("kkt_newton.line_search_ms_per_step", "ms", (LS,),
         lambda v: _div(_ns(v.spans(LS)), 1e6 * v.steps)),
        ("kkt_newton.trials_per_step", "count", ("kkt_newton.residual", LS),
         lambda v: _div(len(v.trials), v.steps)),
        ("kkt_newton.accept_ratio", "ratio", ("kkt_newton.residual", LS),
         lambda v: _div(v.steps, len(v.trials))),
        ("kkt_newton.domain_rejections_per_solve", "count",
         ("kkt_newton.residual", LS, SOLVES),
         lambda v: _div(sum(1 for s in v.trials if s.exc == "DomainError"),
                        len(v.spans(*SOLVES)))),
        ("barrier_solver.steps_per_solve", "count", (SOLVES,),
         lambda v: _div(sum(x[0] for x in v.solutions), len(v.solutions))),
        ("barrier_solver.stages_per_solve", "count", (SOLVES,),
         lambda v: _div(sum(x[1] for x in v.solutions), len(v.solutions))),
        ("barrier_solver.trace_ms_per_step", "ms", (TRACE_RATES, NEWTON, LS),
         lambda v: _div(_ns(s for s in v.spans(*TRACE_RATES)
                            if v.parent_name(s) == NEWTON), 1e6 * v.steps)),
        ("variants.solves_per_dual", "count",
         ("variants.solve_minimax", "variants.solve_dual"),
         lambda v: _div(len(v.spans("variants.solve_minimax")),
                        len(v.spans("variants.solve_dual")))),
        ("variants.inner_solve_ms", "ms", ("variants.solve_minimax",),
         lambda v: _mean_us(v.spans("variants.solve_minimax")) / 1e3),
        # Busy is the worker threads' CPU time in per-channel solves; the rest
        # of those solves' wall time is waiting, mostly for the GIL.
        ("cli.busy_s", "s", ("cli.solve_minimax", "cli.run_batch"),
         lambda v: _div(_cpu(v.spans("cli.solve_minimax")),
                        1e9 * len(v.spans("cli.run_batch")))),
        ("cli.wait_s", "s", ("cli.solve_minimax", "cli.run_batch"),
         lambda v: _div(_ns(v.spans("cli.solve_minimax")) - _cpu(v.spans("cli.solve_minimax")),
                        1e9 * len(v.spans("cli.run_batch")))),
        ("cli.parallel_efficiency", "ratio", ("cli.solve_minimax", "cli.run_batch"),
         lambda v: _div(_cpu(v.spans("cli.solve_minimax")),
                        jobs * _ns(v.spans("cli.run_batch")))),
        ("channel.pair_us", "us", ("channel.ChannelPair",),
         lambda v: _mean_us(v.spans("channel.ChannelPair", setup=True))),
    ]
    for layer in SELF_LAYERS:
        table.append((f"{layer}.self_ms_per_step", "ms", (LS,),
                      lambda v, layer=layer: _div(v.self_ns[layer], 1e6 * v.steps)))
    return table


class SpanView:
    """Indexes of the spans recorded during traced operations (op >= 0);
    construction spans recorded while the inputs were built have op -1."""

    def __init__(self, tracer):
        self.layer = tracer.layer
        self.all = tracer.spans
        spans = [s for s in tracer.spans if s.op >= 0]
        self.name_of = {s.id: s.name for s in tracer.spans}
        self.by_name = defaultdict(list)
        child_ns = defaultdict(int)
        for s in spans:
            self.by_name[s.name].append(s)
            child_ns[s.parent] += s.ns
        self.self_ns = defaultdict(int)
        for s in spans:
            self.self_ns[self.layer[s.name]] += s.ns - child_ns[s.id]
        self.steps = sum(1 for s in self.by_name[LS] if s.exc is None)
        self.trials = [s for s in self.by_name["kkt_newton.residual"]
                       if self.parent_name(s) == LS]
        self.solutions = [s.extra for n in SOLVES for s in self.by_name[n]
                          if s.extra is not None]

    def parent_name(self, span):
        return self.name_of.get(span.parent)

    def spans(self, *names, setup=False):
        """Spans of ``names`` from traced operations, plus those recorded
        while building inputs when ``setup`` is set."""
        if setup:
            return [s for s in self.all if s.name in names]
        return [s for n in names for s in self.by_name[n]]

    def outer(self, names):
        """Spans of ``names`` not nested in another objective-method span
        (the per-antenna objective delegates to the minimax one)."""
        nested = set(GRADIENT + SYSTEM)
        return [s for s in self.spans(*names) if self.parent_name(s) not in nested]


def per_layer_metrics(tracer, jobs: int):
    """({name: {"value", "unit"}}, [absent metric names])."""
    view = SpanView(tracer)
    metrics, absent = {}, []
    for name, unit, needs, fn in _metric_table(jobs):
        if all(any(tracer.found(n) for n in (need if isinstance(need, tuple) else (need,)))
               for need in needs):
            metrics[name] = {"value": float(fn(view)), "unit": unit}
        else:
            absent.append(name)
    return metrics, absent
