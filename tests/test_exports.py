"""The package's exports: every name a module lists in ``__all__`` exists,
and the library surface that no program calls stays deleted."""

import importlib
import pkgutil

import pytest

import secrecap
from secrecap import cli

MODULES = ["secrecap"] + [f"secrecap.{m.name}"
                          for m in pkgutil.iter_modules(secrecap.__path__)]

# deleted because only tests called them, or because one path took their
# place (the schedule loop of ``_solve_together``, the dual's given p_hi, the
# CLI's solve command and the predictor's whole step); see CHANGES.md
DELETED = ("KktCertificate", "extract_certificate", "NoiseCovariance",
           "effective_gram", "problem_to_dict", "dump_problem", "unvec",
           "_schedule", "_run_schedule", "_solve_lockstep", "_BRACKET_CAP", "MODES",
           "_dispatch_solve", "PREDICT_S_MIN")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_deleted_names_stay_deleted(name):
    module = importlib.import_module(name)
    assert [n for n in DELETED if hasattr(module, n)] == []


def test_deleted_attributes_stay_deleted(demo_channel):
    budget = secrecap.PerAntennaBudget(caps=[1.0, 2.0], total=5.0)
    assert not hasattr(budget, "total_cap_vacuous")
    obj = secrecap.BarrierObjective(demo_channel, 100.0, 10.0)
    assert not hasattr(obj, "channel")
    assert not hasattr(secrecap.SaddleState, "row")
    # the line search's alpha and beta are constants of kkt_newton
    assert not hasattr(secrecap.SolverConfig(), "alpha")
    assert not hasattr(secrecap.SolverConfig(), "beta")


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
@pytest.mark.parametrize("command", [["solve", "p.json"], ["dual", "p.json"],
                                     ["batch", "--m", "1", "--n1", "1", "--n2", "1",
                                      "--count", "1", "--seed", "1"]])
def test_deleted_cli_flags_stay_deleted(capsys, command, flag):
    assert cli.main([*command, flag, "0.3"]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
