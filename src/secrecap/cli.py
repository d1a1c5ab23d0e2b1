"""Command-line interface: problem/result files, batch experiments, trace
export.

File formats are JSON (human-readable nested key-value with arrays),
matrices row-major. Floats serialize through Python's shortest round-trip
representation, so results reload bit-exactly.

Commands:
    solve <problem.json>        compute capacity and optimal covariance
    batch --m --n1 --n2 ...     seeded random-channel step-count statistics
    dual <problem.json> --rate  minimum power for a target secrecy rate
    trace-export <result.json>  flat CSV of the convergence trace

Exit codes: 0 success, 1 input error (a usage error too), 2 solver
non-convergence (a partial result with the trace collected so far is still
written).
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .barrier_solver import (
    SOLVE_MODES,
    PerAntennaBudget,
    SaddleSolution,
    SolverConfig,
    solve,
    solve_minimax,
)
from .channel import ChannelPair
from .errors import SolverError
from .variants import DualTarget, solve_dual

__all__ = [
    "ProblemFile",
    "ResultFile",
    "ProblemFormatError",
    "load_problem",
    "write_trace_csv",
    "main",
]

SOLVER_KEYS = ("t0", "mu", "t_max", "eps_gap", "eps_newton")


class ProblemFormatError(ValueError):
    """Problem file failed validation; message names the offending field."""


@dataclass
class ProblemFile:
    """Parsed problem description.

    power is a scalar for total-power modes or a per-antenna vector;
    power_total optionally adds a total cap on top of per-antenna caps.
    """

    h1: np.ndarray
    h2: np.ndarray
    power: float | np.ndarray
    mode: str = "auto"
    power_total: float | None = None
    solver: dict = field(default_factory=dict)
    dual_rate: float | None = None
    dual_tol_rate: float | None = None

    @property
    def per_antenna(self) -> bool:
        return isinstance(self.power, np.ndarray)

    def channel(self) -> ChannelPair:
        return ChannelPair(self.h1, self.h2)

    def config(self, overrides: dict | None = None) -> SolverConfig:
        return SolverConfig(**{**self.solver, **(overrides or {})})


def _is_number(raw) -> bool:
    """Whether ``raw`` is a JSON number that converts to a finite float: an
    int or a float, but not a bool (float(True) is 1.0), not a string such as
    "10", not NaN or infinite, and not an integer beyond the float range."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return False
    try:
        return math.isfinite(raw)
    except OverflowError:  # an integer such as 10**400
        return False


def _matrix_field(data: dict, name: str) -> np.ndarray:
    if name not in data:
        raise ProblemFormatError(f"missing field '{name}'")
    raw = data[name]
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise ProblemFormatError(f"field '{name}' must be a non-empty list of rows")
    widths = {len(r) for r in raw}
    if len(widths) != 1 or 0 in widths:
        raise ProblemFormatError(f"field '{name}' has ragged or empty rows")
    if not all(_is_number(x) for r in raw for x in r):
        raise ProblemFormatError(
            f"field '{name}' must be a list of rows of numbers, with no non-finite "
            "or out-of-range entries")
    return np.array(raw, dtype=float)


def _positive_number(raw, name: str) -> float:
    """``raw`` as a finite positive float; the error names field ``name``."""
    if not _is_number(raw) or raw <= 0:
        raise ProblemFormatError(f"field '{name}' must be a finite positive number")
    return float(raw)


def parse_problem(data: dict) -> ProblemFile:
    if not isinstance(data, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    h1 = _matrix_field(data, "H1")
    h2 = _matrix_field(data, "H2")
    if h1.shape[1] != h2.shape[1]:
        raise ProblemFormatError(
            f"column mismatch: H1 has {h1.shape[1]} columns, H2 has {h2.shape[1]}"
        )
    m = h1.shape[1]

    if "power" not in data:
        raise ProblemFormatError("missing field 'power'")
    raw_power = data["power"]
    if isinstance(raw_power, list):
        if len(raw_power) != m:
            raise ProblemFormatError(
                f"field 'power' has {len(raw_power)} entries, need {m} (one per antenna)"
            )
        power = np.array([_positive_number(p, "power") for p in raw_power])
    else:
        power = _positive_number(raw_power, "power")

    mode = data.get("mode", "auto")
    if mode not in SOLVE_MODES:
        raise ProblemFormatError(
            f"field 'mode' must be one of {SOLVE_MODES}, got '{mode}'")

    power_total = data.get("power_total")
    if power_total is not None:
        power_total = _positive_number(power_total, "power_total")
        if not isinstance(power, np.ndarray):
            raise ProblemFormatError(
                "field 'power_total' only applies with per-antenna 'power'"
            )

    solver = data.get("solver", {})
    if not isinstance(solver, dict):
        raise ProblemFormatError("field 'solver' must be an object")
    unknown = set(solver) - set(SOLVER_KEYS)
    if unknown:
        raise ProblemFormatError(f"unknown solver override(s): {sorted(unknown)}")
    for key, val in solver.items():
        # null is the default of eps_gap alone (no gap-driven early stop)
        if not (_is_number(val) or key == "eps_gap" and val is None):
            raise ProblemFormatError(f"solver override '{key}' must be a finite number")

    dual_rate = data.get("dual_rate")
    if dual_rate is not None:
        dual_rate = _positive_number(dual_rate, "dual_rate")
    dual_tol = data.get("dual_tol_rate")
    if dual_tol is not None:
        dual_tol = _positive_number(dual_tol, "dual_tol_rate")

    return ProblemFile(
        h1=h1,
        h2=h2,
        power=power,
        mode=mode,
        power_total=power_total,
        solver=dict(solver),
        dual_rate=dual_rate,
        dual_tol_rate=dual_tol,
    )


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"invalid JSON in '{path}' at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return parse_problem(data)


@dataclass
class ResultFile:
    """Solver output in serializable form; see :func:`result_to_dict`. The
    defaults describe a failed solve: NaN capacities, no R*, mode ``failed``."""

    capacity_nats: float = math.nan
    capacity_bits: float = math.nan
    capacity_upper_nats: float = math.nan
    gap_bound: float = math.nan
    gap_bound_heuristic: bool = False
    R_star: list = field(default_factory=list)
    K21_star: list = field(default_factory=list)
    lam: float | None = None
    R_star_eigenvalues: list = field(default_factory=list)
    difference_eigenvalues: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    wall_time: float = 0.0
    config: dict = field(default_factory=dict)
    mode: str = "failed"
    converged: bool = False
    t_final: float | None = None
    newton_steps_total: int = 0
    p_star: float | None = None


def _config_echo(cfg: SolverConfig, mode: str, prob: ProblemFile) -> dict:
    echo = asdict(cfg)
    echo["mode"] = mode
    echo["power"] = prob.power.tolist() if prob.per_antenna else prob.power
    if prob.power_total is not None:
        echo["power_total"] = prob.power_total
    return echo


def result_from_solution(sol: SaddleSolution, ch: ChannelPair,
                         cfg: SolverConfig, prob: ProblemFile, wall_time: float,
                         p_star: float | None = None) -> ResultFile:
    diff_eigs = np.linalg.eigvalsh(ch.W1 - ch.W2)
    return ResultFile(
        capacity_nats=sol.capacity_achievable,
        capacity_bits=sol.capacity_achievable / math.log(2.0),
        capacity_upper_nats=sol.capacity_upper,
        gap_bound=sol.gap_bound,
        gap_bound_heuristic=sol.gap_bound_heuristic,
        R_star=sol.R_star.R.tolist(),
        K21_star=sol.K21_star.tolist(),
        lam=sol.lambda_star,
        R_star_eigenvalues=np.linalg.eigvalsh(sol.R_star.R).tolist(),
        difference_eigenvalues=diff_eigs.tolist(),
        trace=[r.as_dict() for r in sol.trace],
        wall_time=wall_time,
        config=_config_echo(cfg, sol.mode, prob),
        mode=sol.mode,
        converged=True,
        t_final=sol.t_final if math.isfinite(sol.t_final) else None,
        newton_steps_total=sol.newton_steps_total,
        p_star=p_star,
    )


def result_to_dict(res: ResultFile) -> dict:
    out = asdict(res)
    out["lambda"] = out.pop("lam")
    if res.p_star is None:
        out.pop("p_star")
    return out


def result_from_dict(data: dict) -> ResultFile:
    data = dict(data)
    data["lam"] = data.pop("lambda")
    data.setdefault("p_star", None)
    if missing := {f.name for f in fields(ResultFile)} - data.keys():
        raise KeyError(f"result lacks {sorted(missing)}")
    if not isinstance(data["trace"], list):
        raise ValueError("trace must be a list of rows")
    for i, row in enumerate(data["trace"]):
        for col in TRACE_COLUMNS:
            if not isinstance(row, dict) or not _is_number(row.get(col)):
                raise ValueError(
                    f"trace row {i}: column '{col}' is missing or not a number")
    return ResultFile(**data)


def _write_text(text: str, path: str | None) -> None:
    """Write ``text`` to the file ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_result(res: ResultFile, path: str | None) -> None:
    _write_text(json.dumps(result_to_dict(res), indent=2) + "\n", path)


def load_result(path: str) -> ResultFile:
    with open(path) as fh:
        return result_from_dict(json.load(fh))


def _partial_result(exc: SolverError, ch: ChannelPair, cfg: SolverConfig,
                    prob: ProblemFile, wall_time: float) -> ResultFile:
    trace = [r.as_dict() for r in exc.trace]
    return ResultFile(
        difference_eigenvalues=np.linalg.eigvalsh(ch.W1 - ch.W2).tolist(),
        trace=trace,
        wall_time=wall_time,
        config=_config_echo(cfg, "failed", prob),
        newton_steps_total=len(trace),
    )


def _run_problem(args, run) -> int:
    """Load ``args.problem``, time ``run(prob, ch, cfg)`` -> (P* or None,
    solution) and write its result, or after a solver failure the partial
    result with the trace recorded so far. Returns the exit code."""
    try:
        prob = load_problem(args.problem)
        cfg = prob.config(_cli_overrides(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ch = prob.channel()
    start = time.perf_counter()
    try:
        p_star, sol = run(prob, ch, cfg)
    except SolverError as exc:
        wall = time.perf_counter() - start
        print(f"error: {exc}", file=sys.stderr)
        write_result(_partial_result(exc, ch, cfg, prob, wall), args.output)
        return 2
    except ValueError as exc:  # a file-level check or an unattainable dual rate
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    res = result_from_solution(sol, ch, cfg, prob, wall, p_star=p_star)
    write_result(res, args.output)
    return 0


def cmd_solve(args) -> int:
    def run(prob, ch, cfg):
        mode = prob.mode if args.mode is None else args.mode
        if mode == "per_antenna" and not prob.per_antenna:
            raise ProblemFormatError(
                "mode 'per_antenna' needs a per-antenna 'power' vector")
        # a per-antenna budget solves per-antenna whatever the mode
        power = (PerAntennaBudget(caps=prob.power, total=prob.power_total)
                 if prob.per_antenna else float(prob.power))
        return None, solve(ch, power, cfg, mode)

    return _run_problem(args, run)


def cmd_dual(args) -> int:
    def run(prob, ch, cfg):
        if prob.per_antenna:
            raise ProblemFormatError(
                "field 'power' must be one total power for the dual, which "
                "minimizes total power; per-antenna caps do not apply")
        rate = args.rate if args.rate is not None else prob.dual_rate
        if rate is None:
            raise ProblemFormatError("dual mode needs --rate or a 'dual_rate' field")
        tol = args.tol_rate
        if tol is None:
            tol = prob.dual_tol_rate if prob.dual_tol_rate is not None else 1e-6
        target = DualTarget(rate=float(rate), p_hi=float(prob.power),
                            tol_rate=float(tol))
        return solve_dual(ch, target, cfg)

    return _run_problem(args, run)


# -- batch experiments -------------------------------------------------------

GENERATOR_NOTE = (
    "numpy default_rng(seed) [PCG64]; per channel: H1 = standard_normal((n1, m)), "
    "then H2 = standard_normal((n2, m)), row-major entry order"
)


def _batch_channels(m: int, n1: int, n2: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        h1 = rng.standard_normal((n1, m))
        h2 = rng.standard_normal((n2, m))
        out.append(ChannelPair(h1, h2))
    return out


def _solve_batch(channels_power_cfg) -> list[dict]:
    """Rows of channels solved together: one lockstep minimax solve."""
    channels, power, cfg = channels_power_cfg
    rows = []
    for sol in solve_minimax(channels, power, cfg):
        failed = isinstance(sol, SolverError)
        rows.append({
            "steps": len(sol.trace) if failed else sol.newton_steps_total,
            "converged": not failed,
            "capacity_nats": None if failed else sol.capacity_achievable,
        })
    return rows


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_batch(m: int, n1: int, n2: int, count: int, seed: int, power: float,
              cfg: SolverConfig, jobs: int = 1) -> dict:
    """Seeded random-channel sweep; deterministic summary for a fixed seed.

    The channels are solved in lockstep (``solve_minimax`` of a list): each
    Newton round advances every channel still iterating by one stacked step,
    and each channel's row is bit for bit its serial solve. With
    ``jobs > 1`` the channels are split into that many contiguous blocks,
    at most one per channel and per usable CPU, and each block is solved in
    lockstep by a forked worker process; the summary is the same for every
    ``jobs``. Without the ``fork`` start method they are solved in-process.
    """
    channels = _batch_channels(m, n1, n2, count, seed)
    workers = min(jobs, count, _usable_cpus())
    # fork, not spawn: a spawned worker would import numpy and scipy again,
    # and forked workers see the same module state as an in-process solve.
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        bounds = np.linspace(0, count, workers + 1).round().astype(int)
        work = [(channels[a:b], power, cfg) for a, b in zip(bounds, bounds[1:])]
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            rows = [row for block in pool.map(_solve_batch, work) for row in block]
    else:
        rows = _solve_batch((channels, power, cfg))
    rows = [{"index": i, **row} for i, row in enumerate(rows)]

    steps = [r["steps"] for r in rows if r["converged"]]
    failures = sum(1 for r in rows if not r["converged"])
    histogram: dict[str, int] = {}
    for s in steps:
        lo = 10 * (s // 10)
        key = f"{lo}-{lo + 9}"
        histogram[key] = histogram.get(key, 0) + 1
    histogram = dict(sorted(histogram.items(), key=lambda kv: int(kv[0].split("-")[0])))
    stats = {}
    if steps:
        stats = {
            "median": float(np.median(steps)),
            "min": int(min(steps)),
            "max": int(max(steps)),
        }
    return {
        "params": {
            "m": m,
            "n1": n1,
            "n2": n2,
            "count": count,
            "seed": seed,
            "power": power,
            "target_residual": cfg.eps_newton,
            "t0": cfg.t0,
            "mu": cfg.mu,
            "t_max": cfg.t_max,
        },
        "generator": GENERATOR_NOTE,
        "per_channel": rows,
        "histogram": histogram,
        "stats": stats,
        "failures": failures,
    }


def cmd_batch(args) -> int:
    for flag, value, least in (("--m", args.m, 1), ("--n1", args.n1, 0),
                               ("--n2", args.n2, 0), ("--count", args.count, 1),
                               ("--seed", args.seed, 0), ("--jobs", args.jobs, 1)):
        if value < least:
            print(f"error: {flag} must be at least {least}", file=sys.stderr)
            return 1
    if not 0 < args.power < math.inf:
        print(f"error: --power must be finite and positive, got {args.power}",
              file=sys.stderr)
        return 1
    try:
        cfg = SolverConfig(**_cli_overrides(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = run_batch(args.m, args.n1, args.n2, args.count, args.seed,
                        args.power, cfg, jobs=args.jobs)
    _write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", args.output)
    return 0 if summary["failures"] == 0 else 2


# -- trace export ------------------------------------------------------------

TRACE_COLUMNS = ("t", "iter", "residual", "f", "C", "step_size")


def write_trace_csv(rows, path: str | None) -> None:
    """Write trace rows (``TraceRecord.as_dict`` dicts) as CSV with a
    ``TRACE_COLUMNS`` header and full-precision floats, to ``path`` or to
    stdout when it is None."""
    lines = [",".join(TRACE_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                format(float(row[c]), ".17e") if c != "iter" else str(int(row[c]))
                for c in TRACE_COLUMNS
            )
        )
    _write_text("\n".join(lines) + "\n", path)


def cmd_trace_export(args) -> int:
    if args.format != "csv":
        print(f"error: unsupported format '{args.format}'", file=sys.stderr)
        return 1
    try:
        res = load_result(args.result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read result file: {exc}", file=sys.stderr)
        return 1
    if not res.trace:
        print("error: result has no trace", file=sys.stderr)
        return 1
    write_trace_csv(res.trace, args.output)
    return 0


# -- argument parsing ---------------------------------------------------------

def _cli_overrides(args) -> dict:
    """Solver settings given on the command line; unset flags are left out."""
    return {key: getattr(args, key) for key in SOLVER_KEYS
            if getattr(args, key) is not None}


def _add_solver_flags(p: argparse.ArgumentParser, with_newton_eps=True):
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--eps-gap", dest="eps_gap", type=float, default=None)
    if with_newton_eps:
        p.add_argument("--eps-newton", dest="eps_newton", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="secrecap",
        description="Secrecy capacity of Gaussian MIMO wiretap channels via "
        "a saddle-point barrier method.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("problem")
    p_solve.add_argument("--mode", choices=SOLVE_MODES, default=None)
    _add_solver_flags(p_solve)
    p_solve.add_argument("-o", "--output", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_batch = sub.add_parser("batch", help="seeded random-channel experiments")
    p_batch.add_argument("--m", type=int, required=True)
    p_batch.add_argument("--n1", type=int, required=True)
    p_batch.add_argument("--n2", type=int, required=True)
    p_batch.add_argument("--count", type=int, required=True)
    p_batch.add_argument("--seed", type=int, required=True)
    p_batch.add_argument("--jobs", type=int, default=1)
    p_batch.add_argument("--power", type=float, default=10.0)
    p_batch.add_argument("--target-residual", dest="eps_newton", type=float,
                         default=None)
    _add_solver_flags(p_batch, with_newton_eps=False)
    p_batch.add_argument("-o", "--output", default=None)
    p_batch.set_defaults(func=cmd_batch)

    p_dual = sub.add_parser("dual", help="minimum power for a target rate")
    p_dual.add_argument("problem")
    p_dual.add_argument("--rate", type=float, default=None,
                        help="target secrecy rate in nats")
    p_dual.add_argument("--tol-rate", dest="tol_rate", type=float, default=None)
    _add_solver_flags(p_dual)
    p_dual.add_argument("-o", "--output", default=None)
    p_dual.set_defaults(func=cmd_dual)

    p_tr = sub.add_parser("trace-export", help="export a result trace as a table")
    p_tr.add_argument("result")
    p_tr.add_argument("--format", default="csv")
    p_tr.add_argument("-o", "--output", default=None)
    p_tr.set_defaults(func=cmd_trace_export)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error (2) is an input error
        return 1 if exc.code == 2 else exc.code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
