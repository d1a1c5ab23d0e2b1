import json
import math
import multiprocessing.pool
import os
from pathlib import Path

import numpy as np
import pytest

from secrecap.cli import (
    ProblemFormatError,
    load_problem,
    load_result,
    main,
    parse_problem,
    run_batch,
)
from secrecap import SolverConfig, cli

from conftest import DEMO_H1, DEMO_H2

DEMO_PROBLEM = {
    "H1": DEMO_H1.tolist(),
    "H2": DEMO_H2.tolist(),
    "power": 10.0,
    "mode": "auto",
}


@pytest.fixture
def demo_problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(DEMO_PROBLEM))
    return str(path)


class TestProblemParsing:
    def test_valid_problem(self, demo_problem_file):
        prob = load_problem(demo_problem_file)
        np.testing.assert_array_equal(prob.h1, DEMO_H1)
        assert prob.power == 10.0
        assert not prob.per_antenna

    def test_column_mismatch(self):
        bad = dict(DEMO_PROBLEM, H2=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(ProblemFormatError, match="column mismatch"):
            parse_problem(bad)

    def test_missing_fields(self):
        with pytest.raises(ProblemFormatError, match="'H1'"):
            parse_problem({"H2": [[1.0]], "power": 1.0})
        with pytest.raises(ProblemFormatError, match="'power'"):
            parse_problem({"H1": [[1.0]], "H2": [[1.0]]})

    def test_ragged_rows(self):
        bad = dict(DEMO_PROBLEM, H1=[[1.0, 2.0], [3.0]])
        with pytest.raises(ProblemFormatError, match="ragged"):
            parse_problem(bad)
        # rows of lists instead of numbers
        with pytest.raises(ProblemFormatError, match="'H1' must be a list of rows of numbers"):
            parse_problem(dict(DEMO_PROBLEM, H1=[[[1.0], [0.2]]]))

    def test_non_finite_entries(self):
        bad = dict(DEMO_PROBLEM, H1=[[1.0, float("inf")], [0.0, 1.0]])
        with pytest.raises(ProblemFormatError, match="non-finite"):
            parse_problem(bad)

    def test_bad_power(self):
        with pytest.raises(ProblemFormatError, match="'power'"):
            parse_problem(dict(DEMO_PROBLEM, power=-3.0))
        with pytest.raises(ProblemFormatError, match="'power'"):
            parse_problem(dict(DEMO_PROBLEM, power=[1.0, 2.0, 3.0]))
        with pytest.raises(ProblemFormatError, match="'power'"):
            parse_problem(dict(DEMO_PROBLEM, power=[1.0, "a"]))
        with pytest.raises(ProblemFormatError, match="'power'"):
            parse_problem(dict(DEMO_PROBLEM, power=[1.0, 0.0]))
        with pytest.raises(ProblemFormatError, match="'power_total'"):
            parse_problem(dict(DEMO_PROBLEM, power=[1.0, 2.0], power_total=[2.0]))

    @pytest.mark.parametrize("command", ["solve", "dual"])
    @pytest.mark.parametrize("field, value", [
        ("dual_rate", [1]), ("dual_rate", "fast"), ("dual_rate", -0.5),
        ("dual_tol_rate", {"a": 1.0}), ("dual_tol_rate", float("inf")),
    ], ids=["list", "string", "negative", "object", "inf"])
    def test_bad_dual_rate(self, tmp_path, capsys, command, field, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(DEMO_PROBLEM, **{field: value})))
        assert main([command, str(path)]) == 1
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, patch, field", [
        ("solve", {"power": True}, "power"),
        ("solve", {"power": [True, 2.0]}, "power"),
        ("solve", {"H1": [[True, -0.3], [-0.32, -0.64]]}, "H1"),
        ("solve", {"H2": [[0.54, -0.11], [-0.93, False]]}, "H2"),
        ("solve", {"power": [2.0, 3.0], "power_total": True}, "power_total"),
        ("dual", {"dual_rate": True}, "dual_rate"),
        ("dual", {"dual_rate": 0.3, "dual_tol_rate": True}, "dual_tol_rate"),
        ("dual", {"dual_rate": 0.3, "solver": {"t0": True}}, "t0"),
        ("dual", {"dual_rate": 0.3, "solver": {"eps_gap": True}}, "eps_gap"),
    ] + [("solve", {"solver": {key: True}}, key) for key in cli.SOLVER_KEYS])
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, command, patch,
                                          field):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(dict(DEMO_PROBLEM, **patch)))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert f"'{field}'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, patch, field", [
        ("solve", {"power": "10"}, "power"),
        ("solve", {"power": ["4.0", 6.0]}, "power"),
        ("solve", {"H1": [["0.77", -0.30], [-0.32, -0.64]]}, "H1"),
        ("solve", {"H2": [[0.54, -0.11], [-0.93, "-1.71"]]}, "H2"),
        ("solve", {"power": [4.0, 6.0], "power_total": "8"}, "power_total"),
        ("dual", {"dual_rate": "0.3"}, "dual_rate"),
        ("dual", {"dual_rate": 0.3, "dual_tol_rate": "1e-6"}, "dual_tol_rate"),
        ("dual", {"dual_rate": 0.3, "solver": {"t0": "1"}}, "t0"),
        ("dual", {"dual_rate": 0.3, "solver": {"eps_gap": "1"}}, "eps_gap"),
    ] + [("solve", {"solver": {key: "1"}}, key) for key in cli.SOLVER_KEYS])
    def test_json_string_is_not_a_number(self, tmp_path, capsys, command, patch,
                                         field):
        path = tmp_path / "string.json"
        path.write_text(json.dumps(dict(DEMO_PROBLEM, **patch)))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert f"'{field}'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, patch, field", [
        ("solve", {"power": 10**400}, "'power'"),
        ("solve", {"power": [1.0, 10**400]}, "'power'"),
        ("solve", {"power": [1.0, 2.0], "power_total": 10**400}, "'power_total'"),
        ("dual", {"dual_rate": 10**400}, "'dual_rate'"),
        ("solve", {"H1": [[10**400, 0.0], [0.0, 1.0]]}, "'H1'"),
        ("solve", {"H2": [[1.0, 0.0], [0.0, -10**400]]}, "'H2'"),
        ("solve", {"solver": {"t_max": 10**400}}, "'t_max'"),
        ("solve", {"solver": {"mu": 10**400}}, "'mu'"),
        ("solve", {"solver": {"eps_newton": 10**400}}, "'eps_newton'"),
        ("solve", {"solver": {"t0": 10**400}}, "'t0'"),
        ("trace-export", {"t": 10**400}, "trace row 0: column 't'"),
    ])
    def test_integer_beyond_float_range_is_input_error(self, demo_problem_file,
                                                       tmp_path, capsys, command,
                                                       patch, field):
        path = tmp_path / "input.json"
        if command == "trace-export":  # a result whose first trace row is patched
            main(["solve", demo_problem_file, "-o", str(path)])
            res = json.loads(path.read_text())
            res["trace"][0].update(patch)
            path.write_text(json.dumps(res))
        else:
            path.write_text(json.dumps(dict(DEMO_PROBLEM, **patch)))
        capsys.readouterr()
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert field in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, patch, field", [
        ("dual", {"dual_rate": 0.3, "solver": {"mu": None}}, "mu"),
        ("dual", {"dual_rate": 0.3, "solver": {"eps_newton": None}}, "eps_newton"),
    ] + [
        ("solve", {"solver": {key: None}}, key)
        for key in cli.SOLVER_KEYS if key != "eps_gap"
    ] + [("dual", {"dual_rate": 0.3, "solver": {"t0": None}}, "t0")])
    def test_json_null_solver_override_is_input_error(self, tmp_path, capsys,
                                                      command, patch, field):
        path = tmp_path / "null.json"
        path.write_text(json.dumps(dict(DEMO_PROBLEM, **patch)))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: solver override '{field}' must be a finite number\n")
        assert captured.out == ""

    def test_json_null_eps_gap_is_the_default(self, tmp_path, capsys):
        path = tmp_path / "null.json"
        path.write_text(json.dumps(dict(DEMO_PROBLEM, solver={"eps_gap": None})))
        assert main(["solve", str(path)]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["config"]["eps_gap"] is None
        assert res["t_final"] == SolverConfig().t_max

    def test_bad_mode(self):
        with pytest.raises(ProblemFormatError, match="'mode'"):
            parse_problem(dict(DEMO_PROBLEM, mode="fastest"))
        # the dual is its own command, not a solver mode
        with pytest.raises(ProblemFormatError, match="'mode'"):
            parse_problem(dict(DEMO_PROBLEM, mode="dual"))

    def test_unknown_solver_key(self):
        bad = dict(DEMO_PROBLEM, solver={"gamma": 1.0})
        with pytest.raises(ProblemFormatError, match="gamma"):
            parse_problem(bad)

    def test_line_search_override_is_unknown(self, tmp_path, capsys):
        # the line search's constants are not solver settings
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(dict(DEMO_PROBLEM, solver={"alpha": 0.3})))
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown solver override(s): ['alpha']\n"
        assert captured.out == ""

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"H1": [[1.0]],\n  "oops"\n}')
        with pytest.raises(ProblemFormatError, match=r"line \d+, column \d+"):
            load_problem(str(path))


class TestSolveCommand:
    def test_solve_demo(self, demo_problem_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        rc = main(["solve", demo_problem_file, "-o", str(out)])
        assert rc == 0
        res = json.loads(out.read_text())
        np.testing.assert_allclose(
            sorted(res["difference_eigenvalues"]), [-3.293, 0.395], atol=5e-3
        )
        assert res["capacity_bits"] == pytest.approx(
            res["capacity_nats"] / math.log(2.0), abs=1e-12
        )
        assert res["converged"]
        assert res["mode"] == "minimax"
        assert len(res["trace"]) == res["newton_steps_total"]
        r_star = np.array(res["R_star"])
        assert np.trace(r_star) == pytest.approx(10.0, abs=1e-8)

    def test_result_round_trip(self, demo_problem_file, tmp_path):
        out = tmp_path / "result.json"
        main(["solve", demo_problem_file, "-o", str(out)])
        res = load_result(str(out))
        first = out.read_text()
        from secrecap.cli import result_to_dict

        assert json.dumps(result_to_dict(res), indent=2) + "\n" == first

    def test_input_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(DEMO_PROBLEM, H2=[[1.0, 2.0, 3.0]])))
        rc = main(["solve", str(path)])
        assert rc == 1
        assert "column mismatch" in capsys.readouterr().err

    def test_identical_channels(self, tmp_path, capsys):
        prob = dict(DEMO_PROBLEM, H2=DEMO_H1.tolist())
        path = tmp_path / "equal.json"
        path.write_text(json.dumps(prob))
        rc = main(["solve", str(path)])
        assert rc == 0
        res = json.loads(capsys.readouterr().out)
        assert res["capacity_nats"] <= 1e-6
        assert res["mode"] == "degraded"  # auto dispatch takes the fast path

    def test_reversely_degraded_zero_result(self, tmp_path, capsys):
        prob = dict(DEMO_PROBLEM, H1=DEMO_H2.tolist(), H2=(2 * DEMO_H2).tolist())
        path = tmp_path / "rev.json"
        path.write_text(json.dumps(prob))
        rc = main(["solve", str(path)])
        assert rc == 0
        res = json.loads(capsys.readouterr().out)
        assert res["capacity_nats"] == 0.0
        assert res["mode"] == "zero"

    def test_forced_degraded_on_indefinite_rejected(self, demo_problem_file, capsys):
        rc = main(["solve", demo_problem_file, "--mode", "degraded"])
        assert rc == 1
        assert "degraded" in capsys.readouterr().err

    def test_per_antenna_mode(self, tmp_path, capsys):
        prob = dict(DEMO_PROBLEM, power=[2.0, 3.0])
        prob.pop("mode")
        path = tmp_path / "pa.json"
        path.write_text(json.dumps(prob))
        rc = main(["solve", str(path)])
        assert rc == 0
        res = json.loads(capsys.readouterr().out)
        assert res["mode"] == "per_antenna"
        assert res["lambda"] is None
        r = np.array(res["R_star"])
        assert np.all(np.diag(r) < np.array([2.0, 3.0]))

    def test_config_echoes_power_total(self, demo_problem_file, tmp_path, capsys):
        path = tmp_path / "pa_total.json"
        path.write_text(json.dumps(dict(DEMO_PROBLEM, power=[2.0, 3.0],
                                        power_total=4.0)))
        assert main(["solve", str(path)]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["power"] == [2.0, 3.0]
        assert config["power_total"] == 4.0
        assert main(["solve", demo_problem_file]) == 0
        assert "power_total" not in json.loads(capsys.readouterr().out)["config"]

    def test_cli_flag_overrides(self, demo_problem_file, capsys):
        rc = main(["solve", demo_problem_file, "--t-max", "1000", "--mu", "5"])
        assert rc == 0
        res = json.loads(capsys.readouterr().out)
        assert res["t_final"] == 1000.0
        assert res["config"]["mu"] == 5.0

    @pytest.mark.parametrize("solver, flags, field", [
        ({"eps_newton": math.inf}, [], "eps_newton"),
        ({}, ["--t-max", "inf"], "t_max"),
    ])
    def test_non_finite_setting_is_input_error(self, tmp_path, capsys, solver,
                                               flags, field):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(dict(DEMO_PROBLEM, solver=solver)))
        rc = main(["solve", str(path), *flags])
        captured = capsys.readouterr()
        assert rc == 1
        assert field in captured.err
        assert captured.out == ""

    def test_nonconvergence_exit_code_and_partial_trace(self, tmp_path, capsys):
        # identical channels push K to the feasibility boundary; a deep
        # schedule with a strict residual target cannot converge there
        prob = dict(
            DEMO_PROBLEM,
            H2=DEMO_H1.tolist(),
            mode="minimax",
            solver={"t_max": 1e7, "eps_newton": 1e-12},
        )
        path = tmp_path / "hard.json"
        path.write_text(json.dumps(prob))
        out = tmp_path / "partial.json"
        rc = main(["solve", str(path), "-o", str(out)])
        assert rc == 2
        res = json.loads(out.read_text())
        assert res["mode"] == "failed"
        assert not res["converged"]
        assert len(res["trace"]) > 0
        assert "error" in capsys.readouterr().err


    @pytest.mark.parametrize("command", [["solve"], ["dual", "--rate", "0.30"]])
    def test_singular_kkt_exit_keeps_trace(self, demo_problem_file, tmp_path,
                                           monkeypatch, capsys, command):
        # a singular KKT system after three accepted steps: the exit-2
        # result still holds the rows recorded before the failure
        from secrecap import SingularKktError, kkt_newton

        real_step = kkt_newton.newton_step
        calls = []

        def failing_step(sys):
            calls.append(1)
            dw, errors = real_step(sys)
            if len(calls) > 3:
                errors = [SingularKktError("forced singular KKT matrix")]
            return dw, errors

        monkeypatch.setattr(kkt_newton, "newton_step", failing_step)
        out = tmp_path / "partial.json"
        rc = main([command[0], demo_problem_file, *command[1:], "-o", str(out)])
        assert rc == 2
        res = json.loads(out.read_text())
        assert res["mode"] == "failed"
        assert [row["iter"] for row in res["trace"]] == [1, 2, 3]
        assert res["newton_steps_total"] == 3
        assert "forced singular" in capsys.readouterr().err


class TestDualCommand:
    def test_dual_solve(self, demo_problem_file, capsys):
        rc = main(["dual", demo_problem_file, "--rate", "0.30",
                   "--tol-rate", "1e-6"])
        assert rc == 0
        res = json.loads(capsys.readouterr().out)
        assert res["p_star"] > 0
        assert res["capacity_nats"] == pytest.approx(0.30, abs=1e-6)

    def test_dual_needs_rate(self, demo_problem_file, capsys):
        rc = main(["dual", demo_problem_file])
        assert rc == 1
        assert "rate" in capsys.readouterr().err

    def test_dual_rate_from_file(self, tmp_path, capsys):
        prob = dict(DEMO_PROBLEM, dual_rate=0.2)
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(prob))
        rc = main(["dual", str(path)])
        assert rc == 0
        res = json.loads(capsys.readouterr().out)
        assert res["capacity_nats"] == pytest.approx(0.2, abs=1e-6)

    def test_per_antenna_power_rejected(self, tmp_path, capsys):
        # the dual minimizes total power, so per-antenna caps cannot bound it
        prob = dict(DEMO_PROBLEM, power=[0.5, 0.5])
        path = tmp_path / "pa_dual.json"
        path.write_text(json.dumps(prob))
        rc = main(["dual", str(path), "--rate", "0.3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "field 'power'" in captured.err
        assert captured.out == ""

    def test_unattainable_rate(self, tmp_path, capsys):
        prob = dict(DEMO_PROBLEM, H1=DEMO_H2.tolist(), H2=(2 * DEMO_H2).tolist())
        path = tmp_path / "revd.json"
        path.write_text(json.dumps(prob))
        rc = main(["dual", str(path), "--rate", "0.5"])
        assert rc == 1

    def test_identical_channels_rejected(self, tmp_path, capsys):
        # W1 - W2 = 0 counts as degraded but has zero secrecy capacity: one
        # error line, no result and no traceback
        prob = dict(DEMO_PROBLEM, H2=DEMO_H1.tolist())
        path = tmp_path / "equal.json"
        path.write_text(json.dumps(prob))
        rc = main(["dual", str(path), "--rate", "0.1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: zero secrecy capacity")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestUsageErrors:
    # argparse's own usage errors are input errors, exit 1: exit 2 means a
    # solve that did not converge

    @pytest.mark.parametrize("argv, message", [
        ([], "required: command"),
        (["solve"], "required: problem"),
        (["solve", "{problem}", "--mode", "bogus"], "invalid choice: 'bogus'"),
        (["batch", "--m", "1", "--n1", "1", "--n2", "1", "--count", "x", "--seed", "1"],
         "invalid int value: 'x'"),
    ], ids=["no-command", "no-problem", "bad-mode", "bad-count"])
    def test_exit_1_with_the_message(self, demo_problem_file, capsys, argv, message):
        assert main([a.format(problem=demo_problem_file) for a in argv]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.err.startswith("usage: secrecap")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: secrecap")


class TestBatchCommand:
    def test_c11_output_matches_golden(self, tmp_path):
        # the paper's c11 batch (run_batch with jobs=1, one lockstep solve of
        # all 100 channels), byte for byte the committed JSON: every step
        # count and capacity of the lockstep kernels is pinned
        root = Path(__file__).resolve().parents[1]
        out = tmp_path / "c11.json"
        assert main(["batch", "--m", "4", "--n1", "3", "--n2", "3", "--count", "100",
                     "--seed", "20261107", "--jobs", "1", "-o", str(out)]) == 0
        golden = root / "tests" / "data" / "c11_batch.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_deterministic_output(self, tmp_path):
        args = ["batch", "--m", "2", "--n1", "2", "--n2", "2",
                "--count", "1", "--seed", "7"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_summary_contents(self, tmp_path):
        out = tmp_path / "batch.json"
        rc = main(["batch", "--m", "2", "--n1", "2", "--n2", "2",
                   "--count", "4", "--seed", "3", "-o", str(out)])
        assert rc == 0
        summary = json.loads(out.read_text())
        assert summary["failures"] == 0
        assert len(summary["per_channel"]) == 4
        assert [r["index"] for r in summary["per_channel"]] == [0, 1, 2, 3]
        assert summary["stats"]["min"] <= summary["stats"]["median"]
        assert sum(summary["histogram"].values()) == 4
        assert summary["params"]["seed"] == 3

    def test_jobs_do_not_change_output(self, monkeypatch):
        # worker processes never outnumber the channels, also where more
        # CPUs are usable than there are channels
        started = []

        class SpyPool(multiprocessing.pool.Pool):
            def __init__(self, processes=None, *args, **kwargs):
                started.append(processes)
                super().__init__(processes, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.pool, "Pool", SpyPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        cfg = SolverConfig(eps_newton=1e-10)
        for count, jobs in [(4, 3), (2, 8)]:
            started.clear()
            a = run_batch(2, 2, 2, count, seed=9, power=10.0, cfg=cfg, jobs=1)
            b = run_batch(2, 2, 2, count, seed=9, power=10.0, cfg=cfg, jobs=jobs)
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
            assert len(started) <= 1 and all(n <= count for n in started)

    def test_one_usable_cpu_starts_no_pool(self, monkeypatch):
        # the pool is sized by the CPUs this process may run on, not by the
        # CPUs the machine has
        started = []

        class SpyPool(multiprocessing.pool.Pool):
            def __init__(self, processes=None, *args, **kwargs):
                started.append(processes)
                super().__init__(processes, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.pool, "Pool", SpyPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = SolverConfig()
        a = run_batch(2, 2, 2, 4, seed=9, power=10.0, cfg=cfg, jobs=4)
        assert started == []
        assert a == run_batch(2, 2, 2, 4, seed=9, power=10.0, cfg=cfg, jobs=1)

    def test_count_validation(self, capsys):
        rc = main(["batch", "--m", "2", "--n1", "2", "--n2", "2",
                   "--count", "0", "--seed", "1"])
        assert rc == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_validation(self, capsys, jobs):
        rc = main(["batch", "--m", "2", "--n1", "2", "--n2", "2",
                   "--count", "2", "--seed", "1", "--jobs", jobs])
        assert rc == 1
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--m", "0"), ("--n1", "-1"), ("--n2", "-1"), ("--seed", "-1"),
        ("--power", "-1"), ("--power", "0"), ("--power", "nan"), ("--power", "inf"),
    ])
    def test_bad_flag_is_input_error(self, capsys, flag, value):
        flags = {"--m": "2", "--n1": "1", "--n2": "1", "--count": "1", "--seed": "1",
                 flag: value}
        rc = main(["batch", *(x for item in flags.items() for x in item)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"error: {flag} ")
        assert captured.out == ""

    @pytest.mark.parametrize("n1, n2", [(0, 1), (1, 0)])
    def test_receiver_free_shapes_still_run(self, capsys, n1, n2):
        rc = main(["batch", "--m", "2", "--n1", str(n1), "--n2", str(n2),
                   "--count", "2", "--seed", "1"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["per_channel"]
        assert all(r["converged"] for r in rows)
        if n2 == 0:  # no eavesdropper: every channel has a positive capacity
            assert all(r["capacity_nats"] > 0 for r in rows)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_exception_keeps_its_type(self, monkeypatch, jobs):
        # an unexpected error in the stacked Newton system of the block that
        # holds channel 2 leaves run_batch with its type
        from secrecap import BarrierObjective

        bad = cli._batch_channels(2, 2, 2, 4, 9)[2].H1
        real_system = BarrierObjective.newton_system

        def system(self, state):
            rows = range(len(state.x)) if state.rows is None else state.rows
            if any(np.array_equal(self.channels[i].H1, bad) for i in rows):
                raise ValueError("unexpected failure in one channel")
            return real_system(self, state)

        monkeypatch.setattr(BarrierObjective, "newton_system", system)
        with pytest.raises(ValueError, match="unexpected failure"):
            run_batch(2, 2, 2, 4, seed=9, power=10.0, cfg=SolverConfig(), jobs=jobs)

    def test_singular_kkt_row_reports_steps(self, monkeypatch):
        # every channel's KKT system turns singular after three accepted
        # steps: the stacked newton_step reports each row's failure in its
        # error list from the fourth round on, and each row counts the
        # steps before it, in-process and in workers alike
        from secrecap import SingularKktError, kkt_newton

        real_step = kkt_newton.newton_step
        calls = []

        def failing_step(sys):
            calls.append(1)
            dw, errors = real_step(sys)
            if len(calls) > 3:
                errors = [SingularKktError("forced singular KKT matrix")] * len(errors)
            return dw, errors

        monkeypatch.setattr(kkt_newton, "newton_step", failing_step)
        cfg = SolverConfig()
        a = run_batch(2, 2, 2, 4, seed=9, power=10.0, cfg=cfg, jobs=1)
        calls.clear()
        b = run_batch(2, 2, 2, 4, seed=9, power=10.0, cfg=cfg, jobs=2)
        assert a == b
        assert a["failures"] == 4
        assert all(r["steps"] == 3 and r["converged"] is False
                   for r in a["per_channel"])


class TestTraceExport:
    def test_demo_export_matches_golden(self, tmp_path):
        # the demo problem's trace-export CSV, byte for byte the committed one:
        # every t, residual, rate and step size of the demo solve is pinned
        root = Path(__file__).resolve().parents[1]
        out, csv = tmp_path / "result.json", tmp_path / "trace.csv"
        assert main(["solve", str(root / "scripts" / "demo_problem.json"),
                     "-o", str(out)]) == 0
        assert main(["trace-export", str(out), "-o", str(csv)]) == 0
        assert csv.read_bytes() == (root / "tests" / "data" / "demo_trace.csv").read_bytes()

    @pytest.mark.parametrize("patch, mode, steps, golden", [
        # CI's per-antenna problem; its answer of 0 nats, where 0.28 is
        # achievable, is a known defect, pinned here as it stands
        ({"power": [4.0, 6.0], "power_total": 8.0}, "per_antenna", 15,
         "pa_trace.csv"),
        ({"H2": (0.5 * DEMO_H1).tolist()}, "degraded", 6, "degraded_trace.csv"),
    ], ids=["per_antenna", "degraded"])
    def test_export_matches_golden(self, tmp_path, patch, mode, steps, golden):
        # the per-antenna and degraded solve paths of the demo channel, byte
        # for byte as committed
        root = Path(__file__).resolve().parents[1]
        problem, out = tmp_path / "problem.json", tmp_path / "result.json"
        csv = tmp_path / "trace.csv"
        problem.write_text(json.dumps(dict(DEMO_PROBLEM, **patch)))
        assert main(["solve", str(problem), "-o", str(out)]) == 0
        res = json.loads(out.read_text())
        assert (res["mode"], res["newton_steps_total"]) == (mode, steps)
        assert main(["trace-export", str(out), "-o", str(csv)]) == 0
        assert csv.read_bytes() == (root / "tests" / "data" / golden).read_bytes()

    def test_demo_dual_export_matches_golden(self, tmp_path):
        # the demo dual's bordered solve, pinned bit for bit: its trace-export
        # CSV at rate 0.30 is the committed one, and P* and the step count at
        # rates 0.30 and 1e-5 are as committed
        root = Path(__file__).resolve().parents[1]
        problem = str(root / "scripts" / "demo_problem.json")
        out, csv = tmp_path / "dual.json", tmp_path / "dual.csv"
        for rate, extra, p_star, steps in (
                ("0.30", [], "0x1.397e194bc3f7dp+2", 28),
                ("1e-5", ["--tol-rate", "1e-7"], "0x1.a8b5ef96e79c8p-15", 16)):
            assert main(["dual", problem, "--rate", rate, *extra, "-o", str(out)]) == 0
            res = json.loads(out.read_text())
            assert (res["p_star"].hex(), res["newton_steps_total"]) == (p_star, steps)
            if rate == "0.30":
                assert main(["trace-export", str(out), "-o", str(csv)]) == 0
                golden = root / "tests" / "data" / "dual_trace.csv"
                assert csv.read_bytes() == golden.read_bytes()

    def test_row_count_and_header(self, demo_problem_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        main(["solve", demo_problem_file, "-o", str(out)])
        res = json.loads(out.read_text())
        rc = main(["trace-export", str(out), "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,iter,residual,f,C,step_size"
        assert len(lines) == 1 + len(res["trace"])

    def test_residual_decreasing_within_t_segments(self, demo_problem_file,
                                                   tmp_path):
        out = tmp_path / "result.json"
        main(["solve", demo_problem_file, "-o", str(out)])
        csv_out = tmp_path / "trace.csv"
        main(["trace-export", str(out), "--format", "csv", "-o", str(csv_out)])
        rows = csv_out.read_text().strip().splitlines()[1:]
        parsed = [tuple(float(v) for v in row.split(",")) for row in rows]
        by_t = {}
        for row in parsed:
            by_t.setdefault(row[0], []).append(row[2])
        for residuals in by_t.values():
            assert all(b < a for a, b in zip(residuals, residuals[1:]))
        # the C column is allowed to be non-monotone; no assertion on it

    def test_full_precision_round_trip(self, demo_problem_file, tmp_path):
        out = tmp_path / "result.json"
        main(["solve", demo_problem_file, "-o", str(out)])
        res = json.loads(out.read_text())
        csv_out = tmp_path / "trace.csv"
        main(["trace-export", str(out), "--format", "csv", "-o", str(csv_out)])
        rows = csv_out.read_text().strip().splitlines()[1:]
        first = rows[0].split(",")
        assert float(first[2]) == res["trace"][0]["residual"]

    def test_incomplete_result_rejected(self, demo_problem_file, tmp_path, capsys):
        # the result fields have defaults, but a file must still carry them all
        out = tmp_path / "result.json"
        main(["solve", demo_problem_file, "-o", str(out)])
        res = json.loads(out.read_text())
        del res["capacity_bits"]
        out.write_text(json.dumps(res))
        assert main(["trace-export", str(out)]) == 1
        assert "capacity_bits" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, message", [
        (lambda res: res["trace"][2].pop("iter"), "trace row 2: column 'iter'"),
        (lambda res: res.update(trace="abc"), "trace must be a list of rows"),
        (lambda res: res["trace"][1].update(f="x"), "trace row 1: column 'f'"),
    ], ids=["missing_iter", "string_trace", "string_f"])
    def test_malformed_trace_rejected(self, demo_problem_file, tmp_path, capsys,
                                      corrupt, message):
        out = tmp_path / "result.json"
        main(["solve", demo_problem_file, "-o", str(out)])
        res = json.loads(out.read_text())
        corrupt(res)
        out.write_text(json.dumps(res))
        capsys.readouterr()
        assert main(["trace-export", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read result file: ")
        assert message in captured.err
        assert captured.out == ""

    def test_missing_trace_rejected(self, tmp_path, capsys):
        res_path = tmp_path / "empty.json"
        prob = dict(DEMO_PROBLEM, H1=DEMO_H2.tolist(), H2=(2 * DEMO_H2).tolist())
        ppath = tmp_path / "rev.json"
        ppath.write_text(json.dumps(prob))
        main(["solve", str(ppath), "-o", str(res_path)])
        rc = main(["trace-export", str(res_path)])
        assert rc == 1
        assert "no trace" in capsys.readouterr().err

    def test_unknown_format_rejected(self, tmp_path, capsys):
        rc = main(["trace-export", "whatever.json", "--format", "xml"])
        assert rc == 1
