#!/usr/bin/env python3
"""secrecap benchmark: seeded workloads through the public API, checked
outputs, end-to-end metrics, and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload small --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``. One
client runs operations back to back (a closed loop) for ``--seconds``. With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` each operation runs untraced and then traced (the
order alternates), the two results must agree bit for bit, and the last line
holds the per-layer metrics. After a plain run's timed loop a few inputs the
program failed on when the bank was written run once, untimed, and their
failures go to the report line only (``workloads.probe_pool``). The gated operation time of the single-threaded
workloads and the set-up time are scaled to a reference host speed, and the
batch's operation time has the steal time taken out (``hostspeed.py``); the
report line before the result keeps the wall times.
Spans of a traced run are written to ``perfbench/out/``. Exit codes: 0 result
printed, 1 no operation succeeded, 2 the package or a setting is unusable.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# Set-up time counts from here; numpy, scipy and secrecap load later, in main().
T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DEFAULT_SEED = 0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3      # this process plus two fresh ones
SETUP_TIMEOUT_S = 120
FAILURE_KINDS = ("SingularKktError", "SolverError", "BracketError", "invalid", "other")
P90_MIN_OPS = 100      # p90 needs at least ten samples above it


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build inputs, warm up, print the set-up time and exit")
    return ap.parse_args(argv)


def _import_package():
    """Import secrecap from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("secrecap")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import secrecap from {SRC}: {exc}") from None
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: secrecap was imported from {pkg.__file__}, not {SRC}")
    return pkg


@dataclass
class Outcome:
    """One attempted operation: wall time, raw output or failure kind, and
    the problems the output checks found."""

    op: object
    seconds: float
    output: object = None
    failure: str | None = None
    message: str = ""
    stolen: float = 0.0   # steal time during the operation, s per CPU
    problems: list = field(default_factory=list)
    certs: list = field(default_factory=list)   # (key, f, C, gap) per checked solution

    @property
    def ok(self) -> bool:
        return self.failure is None and not self.problems


class Bench:
    """Inputs, operation attempts and output checks of one workload."""

    def __init__(self, workload: str, seed: int):
        # These import secrecap, so they load only after _import_package().
        import checks
        import hostspeed
        import workloads
        from secrecap import barrier_solver, errors

        self.checks = checks
        self.stolen_s = hostspeed.stolen_s
        self.barrier_solver = barrier_solver   # solvers are looked up at call time
        self.errors = errors
        self.wl = workloads
        self.seed = seed
        bank = workloads.load_bank()
        self.pool = workloads.build_pool(workload, seed, bank)
        self.probe = workloads.probe_pool(workload, seed, bank)
        # The batch's channels follow the seed; only seed 0's are in the bank.
        self.batch_reference = bank["batch_c11"] if seed == DEFAULT_SEED else None
        self.batch_channels = None
        self.batch_first = None
        self.checked = 0
        if workload == "batch_c11":
            self.batch_channels = workloads.batch_channels(seed)

    def attempt(self, op) -> Outcome:
        """Run ``op``; solver failures are classified, never raised."""
        known = (self.errors.SingularKktError, self.errors.SolverError,
                 self.errors.BracketError)
        stolen = self.stolen_s()
        t0 = time.perf_counter()
        try:
            res = Outcome(op, 0.0, output=self.wl.execute(op, self.seed))
        except known as exc:
            res = Outcome(op, 0.0, failure=type(exc).__name__, message=str(exc))
        except Exception as exc:  # an unexpected error must not stop the run
            res = Outcome(op, 0.0, failure="other",
                          message="".join(traceback.format_exception_only(exc)).strip())
        res.seconds = time.perf_counter() - t0
        res.stolen = self.stolen_s() - stolen
        return res

    def validate(self, res: Outcome) -> None:
        """Fill ``res.problems`` and ``res.certs``; runs outside the timing."""
        if res.failure is not None:
            return
        checks = self.checks
        op = res.op
        if op.kind == "batch":
            self._validate_batch(res)
            return
        if op.kind == "dual":
            p_star, sol = res.output
            res.problems += checks.check_dual(p_star, sol, op.ch, op.target)
            # P* is searched, so f at P* has no fixed reference value.
            solved = [(sol, None)]
        elif op.kind == "minimax_pair":
            for sol, ch in zip(res.output, op.ch):
                res.problems += checks.check_solution(sol, ch, power=op.power)
            solved = list(zip(res.output, op.ref or (None, None)))
        else:
            res.problems += checks.check_solution(res.output, op.ch, power=op.power,
                                                  budget=op.budget)
            solved = [(res.output, op.ref)]
        if res.problems:
            return
        for j, (sol, sol_ref) in enumerate(solved):
            res.problems += checks.check_reference(sol.capacity_upper, sol.gap_bound,
                                                   sol_ref)
            res.certs.append(((op.index, j), sol.capacity_upper, sol.capacity_achievable,
                              sol.gap_bound))

    def _validate_batch(self, res: Outcome) -> None:
        """Summary consistency, identical summaries across the run, and two
        channels per batch solved again serially: same steps, capacity within
        the gap bound, and f against the reference."""
        checks = self.checks
        summary = res.output
        res.problems += checks.check_batch(summary, self.wl.BATCH_COUNT,
                                           self.wl.batch_seed(self.seed))
        text = json.dumps(summary, sort_keys=True)
        if self.batch_first is None:
            self.batch_first = text
        elif text != self.batch_first:
            res.problems.append("batch summary differs from the first batch of the run")
        if res.problems:
            return
        for _ in range(2):
            idx = self.checked % self.wl.BATCH_COUNT
            self.checked += 1
            row = summary["per_channel"][idx]
            ch = self.batch_channels[idx]
            try:
                sol = self.barrier_solver.solve_minimax(ch, self.wl.BATCH_POWER)
            except (self.errors.SolverError, self.errors.SingularKktError) as exc:
                if row["converged"]:
                    res.problems.append(f"channel {idx}: serial solve failed: {exc}")
                continue
            problems = checks.check_solution(sol, ch, power=self.wl.BATCH_POWER)
            if not row["converged"]:
                problems.append(f"channel {idx}: failed in the batch, not serially")
            elif row["steps"] != sol.newton_steps_total:
                problems.append(f"channel {idx}: {row['steps']} steps in the batch, "
                                f"{sol.newton_steps_total} serially")
            elif abs(row["capacity_nats"] - sol.capacity_achievable) > sol.gap_bound:
                problems.append(f"channel {idx}: batch C {row['capacity_nats']!r} vs "
                                f"serial {sol.capacity_achievable!r}")
            ref = self.batch_reference[idx] if self.batch_reference is not None else None
            if not problems:
                problems += checks.check_reference(sol.capacity_upper, sol.gap_bound, ref)
                res.certs.append((("channel", idx), sol.capacity_upper,
                                  sol.capacity_achievable, sol.gap_bound))
            res.problems += problems

    def units(self, res: Outcome) -> int:
        """Work items an operation completes: channels for a batch."""
        return self.wl.BATCH_COUNT if res.op.kind == "batch" else 1

    def failure_kind(self, res: Outcome) -> str | None:
        if res.failure is not None:
            return res.failure
        return "invalid" if res.problems else None


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _environment() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        try:
            info = show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _setup_probe(args) -> tuple[float, float]:
    """Set-up time of a fresh process on the same workload and seed, and the
    host's slowdown right after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), float(out["host_slowdown"])


def _summarize(bench: Bench, results: list[Outcome]) -> dict:
    """Every end-to-end figure of the run, those BENCHMARK.json gates and
    those only reported. Times count successful operations only."""
    ok = [r for r in results if r.ok]
    ms = [1e3 * r.seconds for r in ok]
    kinds = {k: 0 for k in FAILURE_KINDS}
    for r in results:
        kind = bench.failure_kind(r)
        if kind is not None:
            kinds[kind] += 1
    # A solution checked again on a later pass over the pool counts once.
    certs = {key: (f, c, gap) for r in results for key, f, c, gap in r.certs}
    widths = [f - c for f, c, _ in certs.values()]
    misses = sum(1 for f, c, gap in certs.values() if f - c > gap * (1.0 + 1e-12))
    return {
        "ops": len(results),
        "ops_ok": len(ok),
        "failures": kinds,
        "op_ms_p50": statistics.median(ms) if ms else None,
        "op_unstolen_ms_p50": (statistics.median(1e3 * (r.seconds - r.stolen) for r in ok)
                               if ok else None),
        "op_ms_p90": _p90(ms) if len(ms) >= P90_MIN_OPS else None,
        "ops_per_s": (sum(bench.units(r) for r in ok)
                      / max(sum(r.seconds for r in ok), 1e-9)),
        "fail_share": 1.0 - len(ok) / len(results),
        "certs": len(certs),
        "cert_miss_share": misses / len(certs) if certs else None,
        "cert_width_nats_p50": statistics.median(widths) if widths else None,
    }


E2E_UNITS = {"op_ms_p50": "ms", "op_wall_ms_p50": "ms", "op_unstolen_ms_p50": "ms",
             "op_ms_p90": "ms",
             "ops_per_s": "1/s", "fail_share": "share", "cert_miss_share": "share",
             "cert_width_nats_p50": "nats", "setup_s": "s", "setup_wall_s": "s",
             "peak_rss_mb": "MB", "host_slowdown": "ratio", "probe_fail_share": "share"}


def _benchmark_metrics(kind: str) -> list[str]:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def _print_problems(results: list[Outcome], limit: int = 5) -> None:
    shown = 0
    for r in results:
        for p in r.problems:
            if shown < limit:
                print(f"invalid output, op {r.op.index} ({r.op.kind}): {p}")
            shown += 1
    failed = [r for r in results if r.failure is not None]
    for r in failed[:limit]:
        print(f"failed op {r.op.index} ({r.op.kind}): {r.failure}: {r.message[:160]}")


def run_plain(args, bench: Bench, setup_main: tuple[float, float]) -> int:
    import hostspeed

    results = []
    host = hostspeed.HostSpeed()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        res = bench.attempt(bench.pool[i % len(bench.pool)])
        bench.validate(res)
        res.output = None   # keeps peak RSS independent of how many ops ran
        results.append(res)
        i += 1
        host.keep_up()
        if time.perf_counter() >= deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probed = []
    for op in bench.probe:   # known failures, untimed and not in the result
        res = bench.attempt(op)
        bench.validate(res)
        res.output = None
        probed.append(res)
    setups = [setup_main] + [_setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    summary = _summarize(bench, results)
    # Gated times are scaled to the reference host speed, or have the steal
    # time taken out (hostspeed.py); the wall times stay in the report.
    summary["host_slowdown"] = host.slowdown()
    summary["op_wall_ms_p50"] = summary["op_ms_p50"]
    if summary["op_ms_p50"] is not None:
        if args.workload in bench.wl.HOST_SCALED:
            summary["op_ms_p50"] /= summary["host_slowdown"]
        else:
            summary["op_ms_p50"] = summary["op_unstolen_ms_p50"]
    summary["setup_s"] = statistics.median(s / slow for s, slow in setups)
    summary["setup_wall_s"] = statistics.median(s for s, _ in setups)
    summary["setup_samples"] = setups
    summary["peak_rss_mb"] = rss_mb
    if probed:
        probe = _summarize(bench, probed)
        summary["probe_ops"] = probe["ops"]
        summary["probe_failures"] = probe["failures"]
        summary["probe_fail_share"] = probe["fail_share"]
    _print_problems(results)
    report = {"workload": args.workload, "seed": args.seed, "trace": 0,
              "environment": _environment(), **summary}
    for name, unit in E2E_UNITS.items():
        value = summary.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:>22} = {shown} {unit}")
    print("report " + json.dumps(report, sort_keys=True))
    if not summary["ops_ok"]:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    metrics = {name: {"value": summary[name], "unit": E2E_UNITS[name]}
               for name in _benchmark_metrics("end_to_end")}
    print(json.dumps({"correct": not any(r.problems for r in results),
                      "attempted": len(results),
                      "failed": sum(1 for r in results if not r.ok),
                      "metrics": metrics}))
    return 0


def _fingerprint(res: Outcome):
    """What a traced and an untraced run of one operation must share."""
    if res.failure is not None:
        return ("failed", res.failure)
    out = res.output
    if res.op.kind == "batch":
        return json.dumps(out, sort_keys=True)
    p_star = None
    if res.op.kind == "dual":
        p_star, out = out
    sols = out if res.op.kind == "minimax_pair" else (out,)
    return (p_star, [(s.capacity_achievable, s.capacity_upper, s.newton_steps_total,
                      len(s.stage_reports)) for s in sols])


def run_traced(args, bench: Bench, tracer) -> int:
    import layers

    results, mismatches, unrestored = [], [], []
    stray = 0   # spans recorded while the tracer was not installed
    recorded = len(tracer.spans)
    plain_s = traced_s = 0.0
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        op = bench.pool[i % len(bench.pool)]
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                stray += len(tracer.spans) - recorded
                tracer.op = i
                tracer.install()
                try:
                    pair[traced] = bench.attempt(op)
                finally:
                    unrestored += tracer.restore()
                    tracer.op = -1
                    recorded = len(tracer.spans)
            else:
                pair[traced] = bench.attempt(op)
        plain_s += pair[False].seconds
        traced_s += pair[True].seconds
        if _fingerprint(pair[False]) != _fingerprint(pair[True]):
            mismatches.append(f"op {op.index}: untraced {_fingerprint(pair[False])} "
                              f"!= traced {_fingerprint(pair[True])}")
        bench.validate(pair[False])
        pair[False].output = pair[True].output = None
        results.append(pair[False])
        i += 1
        if time.perf_counter() >= deadline:
            break
    stray += len(tracer.spans) - recorded
    metrics, absent = layers.per_layer_metrics(tracer, bench.wl.BATCH_JOBS)
    metrics["trace.overhead_share"] = {"value": (traced_s - plain_s) / plain_s,
                                       "unit": "share"}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.csv.gz"   # the latest traced run
    tracer.write(spans_path)
    _print_problems(results)
    for m in mismatches[:5]:
        print(f"self-test: traced result differs: {m}")
    for name in sorted(set(unrestored)):
        print(f"self-test: {name} not restored after tracing")
    if stray:
        print(f"self-test: {stray} spans recorded outside traced operations")
    for name, m in metrics.items():
        print(f"{name:>44} = {m['value']:.6g} {m['unit']}")
    report = {"workload": args.workload, "seed": args.seed, "trace": 1,
              "environment": _environment(), "ops": len(results),
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(HERE.parent)),
              "absent_metrics": absent, "absent_spans": tracer.absent,
              "self_test_mismatches": len(mismatches), "stray_spans": stray,
              "unrestored": sorted(set(unrestored))}
    print("report " + json.dumps(report, sort_keys=True))
    wanted = _benchmark_metrics("per_layer")
    correct = (not mismatches and not unrestored and not stray
               and not any(r.problems for r in results))
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": sum(1 for r in results if not r.ok),
                      "metrics": {n: metrics[n] for n in wanted if n in metrics}}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    for var in BLAS_THREAD_VARS:   # before numpy loads its BLAS
        os.environ[var] = "1"
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()   # construction spans of the inputs give channel.pair_us
        try:
            bench = Bench(args.workload, args.seed)
        finally:
            if tracer.restore():
                raise SystemExit("error: tracer left patches behind after set-up")
    else:
        bench = Bench(args.workload, args.seed)
    bench.wl.warm_up(bench.pool, bench.seed, bench.attempt)
    setup_s = time.perf_counter() - T_START
    import hostspeed

    setup = (setup_s, hostspeed.block_slowdown())
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0], "host_slowdown": setup[1]}))
        return 0
    if tracer is not None:
        return run_traced(args, bench, tracer)
    return run_plain(args, bench, setup)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            sys.exit(2)
        raise
