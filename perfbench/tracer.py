"""Outside-in tracer: wraps public entry points of the ``secrecap`` modules at
the place the caller looks them up, records one span per call, and restores
every patch afterwards.

Parents come from a thread-local stack, so the two worker threads of a
batch keep separate call trees. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int          # 0 for the first span of a thread
    name: str
    start: int           # perf_counter_ns
    end: int
    thread: int
    op: int              # operation index, -1 while inputs are built
    exc: str | None      # exception type name when the call raised
    extra: object        # the spec's inspect() of the return value
    cpu: int | None      # thread CPU ns, for specs with cpu=True

    @property
    def ns(self) -> int:
        return self.end - self.start


def _solution_summary(sol):
    """(Newton steps, barrier stages) of a returned SaddleSolution, or None
    when a refactor has renamed those fields."""
    try:
        return (sol.newton_steps_total, len(sol.stage_reports))
    except (AttributeError, TypeError):
        return None


@dataclass(frozen=True)
class Spec:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``); the span is
    called ``name`` and its self time is charged to ``layer``. ``inspect``
    extracts a small record from the return value; ``cpu`` also records the
    calling thread's CPU time, which excludes waiting for the GIL."""

    module: str
    attr: str
    name: str
    layer: str
    inspect: object = None
    cpu: bool = False


SPECS = (
    # channel: construction and classification, looked up by the solvers
    Spec("secrecap.channel", "ChannelPair.__init__", "channel.ChannelPair", "channel"),
    Spec("secrecap.barrier_solver", "classify_degraded",
         "barrier_solver.classify_degraded", "channel"),
    Spec("secrecap.variants", "classify_degraded", "variants.classify_degraded", "channel"),
    # matcalc primitives as the objective and the channel model call them
    Spec("secrecap.objective", "kron", "objective.kron", "matcalc"),
    Spec("secrecap.objective", "psd_sqrt", "objective.psd_sqrt", "matcalc"),
    Spec("secrecap.channel", "psd_sqrt", "channel.psd_sqrt", "matcalc"),
    # objective: one factor build per Newton-interface call
    *(Spec("secrecap.objective", f"{cls}.{meth}", f"{cls}.{meth}", "objective")
      for cls in ("BarrierObjective", "DegradedBarrierObjective",
                  "PerAntennaBarrierObjective")
      for meth in ("newton_gradient", "newton_system")),
    # rates the trace closures and the final assembly evaluate
    Spec("secrecap.barrier_solver", "minimax_objective",
         "barrier_solver.minimax_objective", "objective"),
    Spec("secrecap.barrier_solver", "secrecy_rate", "barrier_solver.secrecy_rate",
         "objective"),
    Spec("secrecap.variants", "minimax_objective", "variants.minimax_objective",
         "objective"),
    Spec("secrecap.variants", "secrecy_rate", "variants.secrecy_rate", "objective"),
    # kkt_newton: the inner solve and the calls newton_solve makes
    Spec("secrecap.barrier_solver", "newton_solve", "barrier_solver.newton_solve",
         "kkt_newton"),
    Spec("secrecap.kkt_newton", "assemble", "kkt_newton.assemble", "kkt_newton"),
    Spec("secrecap.kkt_newton", "newton_step", "kkt_newton.newton_step", "kkt_newton"),
    Spec("secrecap.kkt_newton", "line_search", "kkt_newton.line_search", "kkt_newton"),
    Spec("secrecap.kkt_newton", "residual", "kkt_newton.residual", "kkt_newton"),
    # barrier_solver entry points, from the benchmark, the dual and the batch
    Spec("secrecap.barrier_solver", "solve_minimax", "barrier_solver.solve_minimax",
         "barrier_solver", _solution_summary),
    Spec("secrecap.barrier_solver", "solve_degraded", "barrier_solver.solve_degraded",
         "barrier_solver", _solution_summary),
    Spec("secrecap.variants", "solve_minimax", "variants.solve_minimax",
         "barrier_solver", _solution_summary),
    Spec("secrecap.cli", "solve_minimax", "cli.solve_minimax", "barrier_solver",
         _solution_summary, cpu=True),
    # variants and cli entry points the benchmark calls
    Spec("secrecap.variants", "solve_per_antenna", "variants.solve_per_antenna",
         "variants", _solution_summary),
    Spec("secrecap.variants", "solve_dual", "variants.solve_dual", "variants"),
    Spec("secrecap.cli", "run_batch", "cli.run_batch", "cli"),
)


def _resolve(spec: Spec):
    """(owner, attribute name, current value), or None when a refactor has
    removed the module, class or attribute."""
    try:
        owner = importlib.import_module(spec.module)
    except ImportError:
        return None
    *path, attr = spec.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Install with ``install()``, run the traced code, then ``restore()``.

    ``op`` tags every span recorded while it is set; the benchmark sets it
    before each traced operation.
    """

    def __init__(self):
        self.layer = {s.name: s.layer for s in SPECS}
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []
        self._originals: dict[str, object] = {}
        for spec in SPECS:
            found = _resolve(spec)
            if found is None:
                self.absent.append(spec.name)
            else:
                self._originals[spec.name] = found[2]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, spec: Spec, fn):
        tracer, name, inspect = self, spec.name, spec.inspect
        cpu_clock = time.thread_time_ns if spec.cpu else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            exc_name = extra = cpu = None
            c0 = cpu_clock() if cpu_clock else 0
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                if inspect is not None:
                    extra = inspect(out)
                return out
            except BaseException as exc:
                exc_name = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter_ns()
                if cpu_clock:
                    cpu = cpu_clock() - c0
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, t0, t1, threading.get_ident(),
                                         tracer.op, exc_name, extra, cpu))

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for spec in SPECS:
            found = _resolve(spec)
            if found is None:
                continue
            owner, attr, fn = found
            own = attr in vars(owner)
            raw = vars(owner)[attr] if own else fn
            self._saved.append((owner, attr, raw, own))
            setattr(owner, attr, self._wrap(spec, raw))

    def restore(self) -> list[str]:
        """Undo every patch; returns the names that do not resolve to their
        original object afterwards (empty when all are restored)."""
        for owner, attr, raw, own in reversed(self._saved):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._saved = []
        return [spec.name for spec in SPECS if spec.name in self._originals
                and _resolve(spec)[2] is not self._originals[spec.name]]

    def found(self, name: str) -> bool:
        return name in self._originals

    def write(self, path) -> None:
        """Spans as gzip-compressed CSV, one per line, in the order they
        ended."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,layer,start_ns,end_ns,thread,op,exception,cpu_ns\n")
            for s in self.spans:
                fh.write(f"{s.id},{s.parent},{s.name},{self.layer[s.name]},{s.start},"
                         f"{s.end},{s.thread},{s.op},{s.exc or ''},"
                         f"{'' if s.cpu is None else s.cpu}\n")
