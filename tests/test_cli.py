import argparse
import dataclasses
import json
import os
import sys
import time
import warnings

import numpy as np
import pytest

from graybox import lsq, nullspace, optim, solve, solver
from graybox import cli
from graybox.cli import main
from graybox.model import (SINGULAR_RTOL, AffineStructure, Dims, StateSpace, eval_structure,
                           generate_instance, rcond, residuals)
from graybox.structures import bundled_structure

from helpers import CONVERGED, perturbed


def run(*argv):
    return main([str(a) for a in argv])


def generate(tmp_path, structure="mass-spring", theta="4,0.5,1", seed=0, prefix="case",
             cond_max=100.0):
    out = tmp_path / prefix
    code = run("generate", "--structure", structure, "--theta", theta,
               "--seed", seed, "--cond-max", cond_max, "--out-prefix", out)
    assert code == 0
    return f"{out}.blackbox.json", f"{out}.truth.json"


def warm_init(tmp_path, truth, seed):
    """``init.json`` of the truth's theta and T, each moved 5 % by ``perturbed``, theta
    first, with the generator ``[seed, 1]``: the warm start of the ``polish`` workload."""
    exact = json.load(open(truth))
    rng = np.random.default_rng([seed, 1])
    init = tmp_path / "init.json"
    init.write_text(json.dumps({k: perturbed(np.array(exact[k]), rng).tolist()
                                for k in ("theta", "T")}))
    return init


def untimed(value):
    """A report without its wall-clock entries, which differ between equal solves."""
    if isinstance(value, dict):
        return {k: untimed(v) for k, v in value.items() if k not in ("timing_ms", "wall_time_ms")}
    return value


def test_generate_writes_deterministic_files(tmp_path):
    bb1, truth1 = generate(tmp_path, seed=7, prefix="a")
    bb2, truth2 = generate(tmp_path, seed=7, prefix="b")
    assert open(bb1).read() == open(bb2).read()
    assert open(truth1).read() == open(truth2).read()
    doc = json.load(open(truth1))
    assert set(doc) >= {"theta", "T", "A", "B", "C", "n_x"}


def test_generate_rejects_bad_cond_max(tmp_path):
    for cond_max in ("1.0", "inf", "nan", "1e9"):  # above 1e9 = 1/SINGULAR_RTOL, by the seed
        code = run("generate", "--structure", "scalar", "--theta", "3,2",
                   "--cond-max", cond_max, "--out-prefix", tmp_path / "x")
        assert code == 2
        assert not (tmp_path / "x.blackbox.json").exists()


def test_generate_rejects_bad_theta_length(tmp_path):
    code = run("generate", "--structure", "scalar", "--theta", "1,2,3",
               "--out-prefix", tmp_path / "x")
    assert code == 2


@pytest.mark.parametrize("theta", ["nan,2", "3,inf", "3,-inf"])
def test_generate_rejects_non_finite_theta(tmp_path, capsys, theta):
    code = run("generate", "--structure", "scalar", "--theta", theta,
               "--out-prefix", tmp_path / "x")
    assert code == 2
    assert "--theta must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x.blackbox.json").exists()


@pytest.mark.parametrize("theta, message", [
    ("1,2,3", "--theta must have length 2, got 3"),  # was theta's, without the flag
    ("1,x", "--theta must be a comma-separated list of numbers"),
])
def test_generate_theta_errors_name_the_flag(tmp_path, capsys, theta, message):
    code = run("generate", "--structure", "scalar", "--theta", theta,
               "--out-prefix", tmp_path / "x")
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x.blackbox.json").exists()


def test_generate_negative_first_theta_needs_the_equals_form(tmp_path, capsys):
    # argparse reads a separate "-3,2" as an option, not as the value of --theta
    with pytest.raises(SystemExit) as exc:
        run("generate", "--structure", "scalar", "--theta", "-3,2", "--out-prefix", tmp_path / "x")
    assert exc.value.code == 2
    assert "argument --theta: expected one argument" in capsys.readouterr().err
    assert run("generate", "--structure", "scalar", "--theta=-3,2",
               "--out-prefix", tmp_path / "x") == 0
    assert json.load(open(tmp_path / "x.truth.json"))["theta"] == [-3.0, 2.0]


@pytest.mark.parametrize("command", ["generate", "check-grad"])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, command):
    # before any work: numpy's own message named neither the flag nor the command
    bb, _ = generate(tmp_path, seed=4)
    argv = (["generate", "--structure", "mass-spring", "--theta", "4,0.5,1",
             "--out-prefix", tmp_path / "neg"] if command == "generate"
            else ["check-grad", "--which", "hbar", "--blackbox", bb,
                  "--structure", "mass-spring", "--points", 1])
    capsys.readouterr()
    assert run(*argv, "--seed", -1) == 2
    captured = capsys.readouterr()
    assert "--seed must be nonnegative, got -1" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "neg.blackbox.json").exists()


def test_generate_accepts_structure_file(tmp_path):
    structure, _ = bundled_structure("scalar")
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(structure.to_dict()))
    bb, _ = generate(tmp_path, structure=path, theta="3,2")
    assert json.load(open(bb))["n_x"] == 1


def test_solve_nullspace_scalar(tmp_path):
    bb, truth = generate(tmp_path, structure="scalar", theta="3,2", seed=1)
    report_path = tmp_path / "report.json"
    code = run("solve", "--method", "nullspace", "--blackbox", bb,
               "--structure", "scalar", "--truth", truth, "--out", report_path)
    assert code == 0
    report = json.load(open(report_path))
    assert np.allclose(report["theta_hat"], [3.0, 2.0], atol=1e-6)
    assert report["theta_error"] <= 1e-6
    assert report["diagnostics"]["nullspace_dim"] == 2


def test_solve_pipeline_mass_spring(tmp_path):
    bb, truth = generate(tmp_path, seed=3)
    report_path = tmp_path / "report.json"
    code = run("solve", "--method", "pipeline", "--blackbox", bb,
               "--structure", "mass-spring", "--truth", truth, "--out", report_path)
    assert code == 0
    report = json.load(open(report_path))
    assert max(report["residuals"].values()) <= 1e-8
    assert report["theta_error"] <= 1e-4
    assert set(report["diagnostics"]) == {"nullspace", "polish"}


def test_pipeline_skips_polish_when_nullspace_passes(tmp_path):
    # at cond 1e4 an lsq polish of this instance ended line-search-failed at
    # the roundoff floor (exit 3) although verify accepts its answer
    bb, _ = generate(tmp_path, seed=1668717024, cond_max=1e4)
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring",
               "--out", report_path) == 0
    report = json.load(open(report_path))
    polish = report["diagnostics"]["polish"]
    assert polish["skipped"] is True and polish["reason"]
    nullspace = report["diagnostics"]["nullspace"]
    assert report["status"] == nullspace["start_outcomes"][-1]["status"]
    assert report["objective_final"] == nullspace["objective_final"]
    assert run("verify", "--result", report_path, "--blackbox", bb,
               "--structure", "mass-spring", "--out", tmp_path / "verify.json") == 0


def test_pipeline_polish_reaches_the_tolerance_at_large_transform(tmp_path):
    # compartment3 at cond 1e4: the null-space search stops at its second start,
    # on the distance's roundoff floor, with a read-out at 1.9e-7, and the
    # polish over [theta; vec(T)], with ||T|| near 1.1e4, must still reach 1e-8
    bb, _ = generate(tmp_path, structure="compartment3", theta="1,0.7,0.4,2",
                     seed=168, cond_max=1e4)
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "compartment3",
               "--out", report_path) == 0
    report = json.load(open(report_path))
    assert len(report["diagnostics"]["nullspace"]["start_outcomes"]) == 2
    assert "skipped" not in report["diagnostics"]["polish"]
    assert max(report["residuals"].values()) <= 1e-8
    assert run("verify", "--result", report_path, "--blackbox", bb,
               "--structure", "compartment3", "--out", tmp_path / "verify.json") == 0


def test_pipeline_recovers_chain6_at_large_transform_from_the_scaled_start(tmp_path):
    # from T = I every start of this instance fell short and the pipeline exited 3
    # at 3.8e-3; the first start at the black box's own scale reaches the tolerance
    bb, truth = generate(tmp_path, structure="chain6", theta="1,0.86,0.72,0.58,0.44,0.3,2",
                         seed=2, cond_max=1e4)
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "chain6", "--out", report_path) == 0
    assert run("verify", "--result", report_path, "--blackbox", bb, "--structure", "chain6",
               "--truth", truth, "--out", tmp_path / "verify.json") == 0


def test_pipeline_polishes_when_nullspace_falls_short(tmp_path):
    bb, _ = generate(tmp_path, seed=3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_iters": 2, "restarts": 0}))
    report_path = tmp_path / "report.json"
    run("solve", "--blackbox", bb, "--structure", "mass-spring", "--config", config,
        "--out", report_path)
    report = json.load(open(report_path))
    assert "skipped" not in report["diagnostics"]["polish"]
    assert report["objective_final"] == report["diagnostics"]["polish"]["objective_final"]


def test_solve_lsq_with_init_file(tmp_path):
    bb, _ = generate(tmp_path, structure="scalar", theta="3,2", seed=2)
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"theta": [0.0, 0.0], "T": [[1.0]]}))
    report_path = tmp_path / "report.json"
    code = run("solve", "--method", "lsq", "--blackbox", bb, "--structure", "scalar",
               "--init", init, "--out", report_path)
    assert code == 0
    assert np.allclose(json.load(open(report_path))["theta_hat"], [3.0, 2.0], atol=1e-5)


def test_timing_ms_leaves_out_reading_the_init_file(tmp_path, monkeypatch):
    bb, truth = generate(tmp_path)
    load, slowed = cli._load, []

    def slow_init(path, what, parse):
        if what == "init":
            slowed.append(path)
            time.sleep(0.05)
        return load(path, what, parse)

    monkeypatch.setattr(cli, "_load", slow_init)
    report_path = tmp_path / "report.json"
    assert run("solve", "--method", "lsq", "--blackbox", bb, "--structure", "mass-spring",
               "--init", truth, "--out", report_path) == 0
    assert slowed == [truth]
    assert json.load(open(report_path))["timing_ms"] < 50


def test_solve_lsq_from_perturbed_init_at_cond_1e4(tmp_path):
    # mass-spring at cond 1e4 from a 5 % perturbed truth; BFGS stopped here
    # line-search-failed at a residual of 2.2e-6
    seed = 1755425271
    bb, truth = generate(tmp_path, seed=seed, cond_max=1e4)
    init = warm_init(tmp_path, truth, seed)
    report_path = tmp_path / "report.json"
    assert run("solve", "--method", "lsq", "--blackbox", bb, "--structure", "mass-spring",
               "--init", init, "--out", report_path) == 0
    report = json.load(open(report_path))
    assert report["status"] in ("converged-ftol", "converged-step")
    assert max(report["residuals"].values()) <= 1e-8


def test_solve_lsq_chain8_from_perturbed_init_at_cond_1e4(tmp_path):
    # chain8 at cond 1e4 from a 5 % perturbed truth; without geodesic
    # acceleration lm ended max-iters at a residual of 3.6e-6
    seed = 390218291
    _, theta = bundled_structure("chain8")
    bb, truth = generate(tmp_path, structure="chain8", theta=",".join(str(x) for x in theta),
                         seed=seed, cond_max=1e4)
    init = warm_init(tmp_path, truth, seed)
    report_path = tmp_path / "report.json"
    assert run("solve", "--method", "lsq", "--blackbox", bb, "--structure", "chain8",
               "--init", init, "--out", report_path) == 0
    report = json.load(open(report_path))
    assert max(report["residuals"].values()) <= 1e-8
    diagnostics = report["diagnostics"]
    assert diagnostics["iterations"] >= diagnostics["n_evals"] - 1
    steps = diagnostics["steps"]
    assert diagnostics["n_evals"] == 1 + steps["accepted"] + steps["rejected"]
    assert steps["skipped"] == 0  # with geodesic acceleration a repeat stops the run
    assert run("verify", "--result", report_path, "--blackbox", bb,
               "--structure", "chain8", "--out", tmp_path / "verify.json") == 0


@pytest.mark.parametrize("structure", ["mass-spring", "compartment3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_lsq_polishes_a_warm_start_in_few_evaluations(tmp_path, structure, seed):
    # from a 5 % perturbed truth at cond 100, the damping mu = lambda ||r||
    # shrinks with the residual, so lm turns quadratic at once: 4-6
    # evaluations here; a damping that falls at most 3x per step needs 10-16
    _, theta = bundled_structure(structure)
    bb, truth = generate(tmp_path, structure=structure,
                         theta=",".join(str(x) for x in theta), seed=seed)
    init = warm_init(tmp_path, truth, seed)
    report_path = tmp_path / "report.json"
    assert run("solve", "--method", "lsq", "--blackbox", bb, "--structure", structure,
               "--init", init, "--out", report_path) == 0
    assert json.load(open(report_path))["diagnostics"]["n_evals"] <= 8


def test_solves_use_neither_kron_nor_the_names_only_the_tracer_keeps(tmp_path, monkeypatch):
    # np.kron, the constraint matrix and its SVD basis are test oracles: the null-space
    # search reads its starts out through the evaluator, never the stacked vector, and
    # the lsq stage runs Levenberg-Marquardt on CostPlan's Jacobians, each residual
    # through graybox.lsq.cost, the name the benchmark's tracer wraps.  BFGS, the Wolfe
    # line search, the distance and its gradient, the stacked read-out and the paper's
    # lsq gradients are bound only for that tracer; no solve may call them
    inputs = [("mass-spring", "4,0.5,1", 7, 20.0), ("compartment3", "1,0.7,0.4,2", 388268015, 1e4),
              ("compartment3", "1,0.7,0.4,2", 907090482, 10.0), ("mass-spring", "4,0.5,1", 4, 10.0)]
    files = [generate(tmp_path, name, theta, seed, f"{name}-{seed}", cond_max) + (name,)
             for name, theta, seed, cond_max in inputs]
    init = warm_init(tmp_path, files[3][1], 4)

    def forbidden(*args, **kwargs):
        raise AssertionError("no solve builds a Kronecker or stacked form or runs BFGS")

    monkeypatch.setattr(np, "kron", forbidden)
    for module, names in [(optim, ("bfgs", "line_search_wolfe")),
                          (nullspace, ("bfgs", "reduced_distance", "structure_distance_grad",
                                       "extract_realization", "nullspace_point")),
                          (lsq, ("bfgs", "grad_theta", "grad_t", "eval_structure"))]:
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
    stages, costs = {}, []  # a run's solution of each stage, and its lsq.cost calls

    def recorded(key, stage):
        return lambda *args, **kwargs: stages.setdefault(key, stage(*args, **kwargs))

    monkeypatch.setattr(nullspace, "solve_nullspace",
                        recorded("nullspace", nullspace.solve_nullspace))
    monkeypatch.setattr(lsq, "solve_lsq", recorded("lsq", lsq.solve_lsq))
    cost = lsq.cost
    monkeypatch.setattr(lsq, "cost", lambda *args: costs.append(args) or cost(*args))
    runs = []
    for (bb, _, name), extra in zip(files, [(), (), (), ("--method", "lsq", "--init", init)]):
        stages.clear()
        costs.clear()
        assert run("solve", "--blackbox", bb, "--structure", name, *extra) == 0
        assert len(costs) == (stages["lsq"].diagnostics["n_evals"] if "lsq" in stages else 0)
        runs.append((StateSpace.from_dict(json.load(open(bb))), dict(stages)))

    structure, theta = bundled_structure("mass-spring")
    blackbox, stages = runs[0]  # the null-space solution passes, so the polish is skipped
    first = stages.pop("nullspace")
    assert stages == {}
    assert first.result.status in CONVERGED
    assert np.linalg.norm(first.theta - theta) / np.linalg.norm(theta) <= 1e-4
    assert max(residuals(blackbox, first.T, eval_structure(structure, first.theta))) <= 1e-8
    assert runs[1][1]["lsq"].diagnostics["n_evals"] > 0  # the polish runs
    assert len(runs[2][1]["nullspace"].diagnostics["start_outcomes"]) == 3
    blackbox, stages = runs[3]
    sol = stages["lsq"]
    assert sol.result.status in CONVERGED
    assert max(residuals(blackbox, sol.T, eval_structure(structure, sol.theta))) <= 1e-8
    assert sol.diagnostics["n_evals"] == sol.result.n_evals
    assert sol.diagnostics["iterations"] == sol.result.iterations
    assert sol.diagnostics["steps"] == sol.result.steps


@pytest.mark.parametrize("method", ["nullspace", "lsq", "pipeline"])
def test_library_solve_matches_cli_report(tmp_path, method):
    bb, _ = generate(tmp_path, seed=12)
    report_path = tmp_path / "report.json"
    code = run("solve", "--method", method, "--blackbox", bb, "--structure", "mass-spring",
               "--out", report_path)
    report = json.load(open(report_path))
    # a converged solve succeeds only if its residual passes verify's default tolerance
    assert code == (0 if max(report["residuals"].values()) <= 1e-8 else 3)
    sol = solve(StateSpace.from_dict(json.load(open(bb))), bundled_structure("mass-spring")[0],
                method)
    assert np.array_equal(sol.theta, report["theta_hat"])
    assert np.array_equal(sol.T, report["T_hat"])
    assert sol.result.status == report["status"]


@pytest.mark.parametrize("method", ["nullspace", "lsq", "pipeline"])
def test_solution_residuals_are_read_out_on_its_c_ordered_transform(method):
    structure, theta = bundled_structure("compartment3")
    instance = generate_instance(structure, theta, seed=1517260849, cond_max=10.0)
    sol = solve(instance.blackbox, structure, method)
    assert sol.T.flags.c_contiguous
    assert sol.residuals == residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
    assert sol.rcond_T == rcond(sol.T)


@pytest.mark.parametrize("seed, cond_max, stage", [
    (1517260849, 10, "nullspace"),  # the pipeline returns the null-space T
    (388268015, 1e4, "polish"),
])
def test_verify_reproduces_the_report_residuals(tmp_path, seed, cond_max, stage):
    # verify reads T_hat back C-ordered; a read-out on another memory layout of
    # the same T differs from it in the last bits (r_C 1.587e-16 against 2.109e-16)
    bb, _ = generate(tmp_path, structure="compartment3", theta="1,0.7,0.4,2", seed=seed,
                     cond_max=cond_max)
    report_path, verify_path = tmp_path / "report.json", tmp_path / "verify.json"
    assert run("solve", "--blackbox", bb, "--structure", "compartment3",
               "--out", report_path) == 0
    assert run("verify", "--result", report_path, "--blackbox", bb,
               "--structure", "compartment3", "--out", verify_path) == 0
    report = json.load(open(report_path))
    assert ("skipped" in report["diagnostics"]["polish"]) == (stage == "nullspace")
    assert json.load(open(verify_path))["residuals"] == report["residuals"]
    assert report["diagnostics"][stage]["residuals"] == report["residuals"]


SHARED_STAGE_KEYS = {"objective_final", "grad_norm", "residuals", "cond_T", "wall_time_ms",
                     "trace"}
STAGE_KEYS = {
    "nullspace": SHARED_STAGE_KEYS | {"nullspace_dim", "starts", "start_scale",
                                      "infeasible_starts", "start_outcomes"},
    "lsq": SHARED_STAGE_KEYS | {"n_evals", "iterations", "steps", "degenerate_transform"},
}
STEP_KEYS = {"accepted", "rejected", "geodesic_rejected", "skipped"}


@pytest.mark.parametrize("structure, theta, method, seed, cond_max, polished", [
    ("mass-spring", "4,0.5,1", "nullspace", 3, 100.0, None),
    ("mass-spring", "4,0.5,1", "lsq", 3, 100.0, None),
    ("compartment3", "1,0.7,0.4,2", "pipeline", 1517260849, 10, False),
    ("compartment3", "1,0.7,0.4,2", "pipeline", 388268015, 1e4, True),
])
def test_report_keys_are_pinned(tmp_path, structure, theta, method, seed, cond_max, polished):
    # the report's keys are contract: a key dropped or renamed by a rewrite fails here
    bb, truth = generate(tmp_path, structure=structure, theta=theta, seed=seed,
                         cond_max=cond_max)
    report_path = tmp_path / "report.json"
    assert run("solve", "--method", method, "--blackbox", bb, "--structure", structure,
               "--truth", truth, "--out", report_path) == 0
    report = json.load(open(report_path))
    assert set(report) == {"method", "status", "theta_hat", "T_hat", "residuals",
                           "objective_final", "timing_ms", "diagnostics", "theta_error"}
    diagnostics = report["diagnostics"]
    if method != "pipeline":
        stages = {method: diagnostics}
    else:
        assert set(diagnostics) == {"nullspace", "polish"}
        stages = {"nullspace": diagnostics["nullspace"], "lsq": diagnostics["polish"]}
        if not polished:
            assert set(stages.pop("lsq")) == {"skipped", "reason"}
    for stage, keys in stages.items():
        assert set(keys) == STAGE_KEYS[stage]
    returned = list(stages.values())[-1]  # the stage the solve returns, the last one run
    # the returned stage's T is not degenerate, so cond_T is 1 / rcond of the T_hat written
    assert returned["cond_T"] == 1.0 / rcond(np.array(report["T_hat"]))
    if "start_outcomes" in returned:
        for outcome in returned["start_outcomes"]:
            assert set(outcome) == {"iterations", "n_evals", "steps", "status",
                                    "objective_final", "max_residual"}
            assert set(outcome["steps"]) == STEP_KEYS
    if "steps" in returned:
        assert set(returned["steps"]) == STEP_KEYS
        assert returned["degenerate_transform"] is False


@pytest.mark.parametrize("method", ["nullspace", "pipeline"])
def test_solve_reports_each_start_outcome(tmp_path, method):
    # the first start of this instance stops short of the tolerance, the next passes
    bb, _ = generate(tmp_path, seed=21)
    report_path = tmp_path / "report.json"
    assert run("solve", "--method", method, "--blackbox", bb, "--structure", "mass-spring",
               "--out", report_path) == 0
    diagnostics = json.load(open(report_path))["diagnostics"]
    if method == "pipeline":
        diagnostics = diagnostics["nullspace"]
    outcomes = diagnostics["start_outcomes"]
    assert 2 <= len(outcomes) <= diagnostics["starts"]
    for outcome in outcomes:
        if outcome["status"] != "infeasible":
            assert set(outcome) == {"iterations", "n_evals", "steps", "status",
                                    "objective_final", "max_residual"}
            steps = outcome["steps"]
            stopped = outcome["status"] == "converged-step"
            assert sum(steps.values()) + stopped == outcome["iterations"]
            assert outcome["n_evals"] == 1 + steps["accepted"] + steps["rejected"]
        else:
            assert outcome == {"status": "infeasible"}
    assert diagnostics["infeasible_starts"] == sum(o["status"] == "infeasible" for o in outcomes)
    # only the last start may pass, and the search ended on it
    passed = [o.get("max_residual", float("inf")) <= 1e-8 for o in outcomes]
    assert passed[-1] and not any(passed[:-1])


def test_solve_jobs_flag_matches_serial(tmp_path):
    bb, _ = generate(tmp_path, seed=10)
    reports = []
    for jobs in (1, 4):
        report_path = tmp_path / f"report{jobs}.json"
        assert run("solve", "--blackbox", bb, "--structure", "mass-spring", "--seed", 1,
                   "--jobs", jobs, "--out", report_path) == 0
        reports.append(json.load(open(report_path)))
    assert untimed(reports[0]) == untimed(reports[1])


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    bb, _ = generate(tmp_path, seed=10)
    calls = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return add_subparsers(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    for _ in range(3):
        assert run("solve", "--method", "nullspace", "--blackbox", bb,
                   "--structure", "mass-spring", "--out", tmp_path / "report.json") == 0
    assert len(calls) <= 1


def test_repeated_main_calls_share_no_state(tmp_path):
    bb, _ = generate(tmp_path, seed=10)
    report_path = tmp_path / "report.json"

    def solved(*extra):
        assert run("solve", "--method", "nullspace", "--blackbox", bb,
                   "--structure", "mass-spring", "--out", report_path, *extra) == 0
        return json.load(open(report_path))

    first = solved()
    narrow = solved("--restarts", 0, "--seed", 3)
    with pytest.raises(SystemExit) as exc:  # a usage error between two solves
        run("solve", "--method", "bogus", "--blackbox", bb, "--structure", "mass-spring")
    assert exc.value.code == 2
    again = solved()
    assert [r["diagnostics"]["starts"] for r in (first, narrow, again)] == [5, 1, 5]
    assert untimed(again) == untimed(first)


DISPATCH = {
    "generate": ["generate", "--structure", "scalar", "--theta=-3,2", "--out-prefix", "p"],
    "solve": ["solve", "--method", "lsq", "--blackbox", "b.json", "--structure", "scalar",
              "--seed", "3", "--out", "r.json"],
    "check-grad": ["check-grad", "--which", "hbar", "--blackbox", "b.json",
                   "--structure", "scalar", "--points", "2"],
    "verify": ["verify", "--result", "r.json", "--blackbox", "b.json", "--structure", "scalar"],
    "missing-flag": ["solve", "--blackbox", "b.json"],
    "unknown-flag": ["solve", "--blackbox", "b.json", "--structure", "scalar", "--no-such-flag"],
    "stray-positional": ["verify", "extra", "--result", "r.json", "--blackbox", "b.json",
                         "--structure", "scalar"],
    "help": ["solve", "-h"],
    "abbreviated-flag": ["solve", "--black", "b.json", "--struct", "scalar", "--meth", "lsq"],
    "no-command": [],
    "top-level-help": ["-h"],
    "unknown-command": ["nope"],
    "console-script": None,  # main(None) reads sys.argv, as the console script calls it
}


@pytest.mark.parametrize("case", DISPATCH)
def test_main_dispatches_as_the_top_level_parser_would(capsys, monkeypatch, case):
    # main hands a known subcommand to its own parser; what it prints, its exit code
    # and the namespace its cmd_* function gets are argparse's own
    argv = DISPATCH[case]
    monkeypatch.setattr(sys, "argv", ["graybox", *DISPATCH["solve"]])
    commands = cli._parsers()[1]
    funcs = {name: sub.get_default("func") for name, sub in commands.items()}
    seen = []

    def outcome(call):
        capsys.readouterr()
        seen.clear()
        try:
            value, code = call(), None
        except SystemExit as exc:
            value, code = None, exc.code
        out, err = capsys.readouterr()
        return code, out, err, seen[0] if seen else value

    try:
        for sub in commands.values():
            sub.set_defaults(func=seen.append)
        expected = outcome(lambda: cli.build_parser().parse_args(argv))
        got = outcome(lambda: main(argv))
    finally:
        for name, func in funcs.items():
            commands[name].set_defaults(func=func)
    assert got == expected
    parses = case in (*commands, "abbreviated-flag", "console-script")
    assert (expected[0] is None) == parses and (got[3] is None) != parses


@pytest.mark.parametrize("theta, t", [
    ([float("nan"), 2.0], [[1.0]]),
    ([3.0, 2.0], [[float("nan")]]),
    ([3.0], [[1.0]]),
    ([3.0, 2.0], [[1.0, 0.0], [0.0, 1.0]]),
])
def test_solve_malformed_init_exits_2(tmp_path, capsys, theta, t):
    bb, _ = generate(tmp_path, structure="scalar", theta="3,2", seed=2)
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"theta": theta, "T": t}))
    report_path = tmp_path / "report.json"
    code = run("solve", "--method", "lsq", "--blackbox", bb, "--structure", "scalar",
               "--init", init, "--out", report_path)
    assert code == 2
    assert "error: init " in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("method", ["nullspace", "pipeline"])
def test_solve_init_with_other_method_exits_2(tmp_path, capsys, method):
    bb, _ = generate(tmp_path, structure="scalar", theta="3,2", seed=2)
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"theta": [3.0, 2.0], "T": [[1.0]]}))
    code = run("solve", "--method", method, "--blackbox", bb, "--structure", "scalar",
               "--init", init)
    assert code == 2
    assert "--init applies to --method lsq only" in capsys.readouterr().err


def test_solve_dimension_mismatch_exits_2(tmp_path):
    bb, _ = generate(tmp_path, structure="scalar", theta="3,2")
    code = run("solve", "--blackbox", bb, "--structure", "mass-spring")
    assert code == 2


def test_solve_invalid_json_exits_2(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code = run("solve", "--blackbox", bad, "--structure", "scalar")
    assert code == 2


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "invalid-byte"])
def test_a_black_box_not_in_plain_utf8_exits_2(tmp_path, capsys, encoding):
    # json.loads would take the first two as bytes: it strips a BOM and detects UTF-16
    bb, _ = generate(tmp_path)
    text = open(bb, encoding="utf-8").read()
    bad = tmp_path / "bad.json"
    bad.write_bytes(text.encode().replace(b"{", b"{\xff", 1) if encoding == "invalid-byte"
                    else text.encode(encoding))
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bad, "--structure", "mass-spring",
               "--out", report_path) == 2
    assert f"error: black-box file {bad}: " in capsys.readouterr().err
    assert not report_path.exists()


def test_a_crlf_black_box_reads_as_its_lf_copy(tmp_path, capsys):
    bb, _ = generate(tmp_path)
    crlf = tmp_path / "crlf.json"
    crlf.write_bytes(open(bb, "rb").read().replace(b"\n", b"\r\n"))
    reports = []
    for path in (bb, crlf):
        assert run("solve", "--blackbox", path, "--structure", "mass-spring",
                   "--out", tmp_path / "report.json") == 0
        reports.append(untimed(json.load(open(tmp_path / "report.json"))))
    assert reports[0] == reports[1]
    # and a malformed one is located as a text-mode read locates it
    crlf.write_bytes(b"{\r\n\r\n  \"A\": [1,\r\n]}\r\n")
    with pytest.raises(ValueError) as exc:
        json.loads(open(crlf, encoding="utf-8").read())
    assert run("solve", "--blackbox", crlf, "--structure", "mass-spring") == 2
    assert capsys.readouterr().err == f"error: black-box file {crlf}: {exc.value}\n"


@pytest.mark.parametrize("what", ["black-box", "config"])
def test_too_deeply_nested_json_exits_2(tmp_path, capsys, what):
    # json.load raises RecursionError long before numpy's 64-dimension limit is reached
    bb, _ = generate(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text('{"A": ' + "[" * 100_000 + "]" * 100_000 + "}")
    inputs = ["--blackbox", deep] if what == "black-box" else ["--blackbox", bb, "--config", deep]
    assert run("solve", *inputs, "--structure", "mass-spring") == 2
    assert f"error: {what} file {deep}: maximum recursion depth" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "verify", "generate"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, command):
    bb, _ = generate(tmp_path)
    report = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring", "--out", report) == 0
    missing = tmp_path / "missing"
    argv = {
        "solve": ["solve", "--blackbox", bb, "--structure", "mass-spring",
                  "--out", missing / "r.json"],
        "verify": ["verify", "--result", report, "--blackbox", bb, "--structure",
                   "mass-spring", "--out", missing / "v.json"],
        "generate": ["generate", "--structure", "mass-spring", "--theta", "4,0.5,1",
                     "--out-prefix", missing / "case"],
    }[command]
    capsys.readouterr()
    assert run(*argv) == 2
    assert f"error: cannot write {missing}" in capsys.readouterr().err
    assert not missing.exists()


def _deny_writes(monkeypatch, *paths):
    """``os.access`` answers False for ``paths``, as it would to a user without write access."""
    allowed = os.access
    denied = {os.fspath(path) for path in paths}
    monkeypatch.setattr(os, "access", lambda path, mode: (
        os.fspath(path) not in denied and allowed(path, mode)))


def test_solve_checks_its_output_path_before_solving(tmp_path, capsys, monkeypatch):
    bb, _ = generate(tmp_path)

    def no_solve(*args):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(solver, "solve", no_solve)
    out = tmp_path / "missing" / "r.json"
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring", "--out", out) == 2
    assert f"error: cannot write {out}: No such file or directory" in capsys.readouterr().err
    # and a directory in the output's place
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring", "--out", tmp_path) == 2
    assert f"error: cannot write {tmp_path}: Is a directory" in capsys.readouterr().err
    # and a file, or a new file's directory, that may not be written
    existing, locked = tmp_path / "old.json", tmp_path / "locked"
    existing.write_text("old")
    locked.mkdir()
    _deny_writes(monkeypatch, existing, locked)
    for out in (existing, locked / "r.json"):
        assert run("solve", "--blackbox", bb, "--structure", "mass-spring", "--out", out) == 2
        assert f"error: cannot write {out}: Permission denied" in capsys.readouterr().err
    assert existing.read_text() == "old" and not any(locked.iterdir())


def test_generate_writes_neither_file_where_one_cannot_be_written(tmp_path, capsys, monkeypatch):
    prefix = tmp_path / "p"
    (tmp_path / "p.truth.json").mkdir()
    assert run("generate", "--structure", "mass-spring", "--theta", "4,0.5,1",
               "--out-prefix", prefix) == 2
    assert f"error: cannot write {prefix}.truth.json: Is a directory" in capsys.readouterr().err
    assert not (tmp_path / "p.blackbox.json").exists()
    # and a truth file that may not be written
    truth = tmp_path / "q.truth.json"
    truth.write_text("old")
    _deny_writes(monkeypatch, truth)
    assert run("generate", "--structure", "mass-spring", "--theta", "4,0.5,1",
               "--out-prefix", tmp_path / "q") == 2
    assert f"error: cannot write {truth}: Permission denied" in capsys.readouterr().err
    assert not (tmp_path / "q.blackbox.json").exists() and truth.read_text() == "old"


EMPTY_PATHS = {
    "solve-out": ("solve", "--out", ""),
    "solve-init-nullspace": ("solve", "--method", "nullspace", "--init", ""),
    "solve-init-lsq": ("solve", "--method", "lsq", "--init", ""),
    "solve-config": ("solve", "--config", ""),
    "solve-truth": ("solve", "--truth", ""),
    "verify-out": ("verify", "--out", ""),
    "verify-truth": ("verify", "--truth", ""),
}


@pytest.mark.parametrize("argv", EMPTY_PATHS.values(), ids=EMPTY_PATHS.keys())
def test_an_empty_path_is_an_input_error_not_an_absent_flag(tmp_path, capsys, monkeypatch, argv):
    bb, _ = generate(tmp_path)
    report = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring", "--out", report) == 0

    def no_solve(*args):
        raise AssertionError("solved although a path was empty")

    monkeypatch.setattr(solver, "solve", no_solve)
    monkeypatch.chdir(tmp_path)  # the directory that the path "" would name
    before = sorted(os.listdir(tmp_path))
    command, *flags = argv
    inputs = ["--blackbox", bb, "--structure", "mass-spring"]
    if command == "verify":
        inputs += ["--result", report]
    capsys.readouterr()
    assert run(command, *inputs, *flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    if "--out" in flags:
        assert "error: cannot write '': Is a directory" in err
    elif argv != EMPTY_PATHS["solve-init-nullspace"]:  # that one is refused for its method
        # the empty name is shown, as the error on an unwritable one shows it
        assert " file '': No such file or directory" in err
    assert sorted(os.listdir(tmp_path)) == before


def test_an_empty_out_prefix_is_an_input_error(tmp_path, capsys, monkeypatch):
    def no_generate(*args, **kwargs):
        raise AssertionError("generated although the prefix named no file")

    monkeypatch.setattr(cli, "generate_instance", no_generate)
    monkeypatch.chdir(tmp_path)  # where the hidden files .blackbox.json and .truth.json would go
    (tmp_path / "out").mkdir()  # and where "out/" would put them
    for prefix, message in [("", "--out-prefix must not be empty"),
                            ("out/", "--out-prefix 'out/' must end in a file name")]:
        assert run("generate", "--structure", "mass-spring", "--theta", "4,0.5,1",
                   "--out-prefix", prefix) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error: {message}" in err
        assert os.listdir(tmp_path) == ["out"] and os.listdir(tmp_path / "out") == []


MASS_SPRING_BLACKBOX = {"n_x": 2, "n_u": 1, "n_y": 1, "A": [[0, 1], [-4, -0.5]],
                        "B": [[0], [1]], "C": [[1, 0]]}
MASS_SPRING_STRUCTURE = bundled_structure("mass-spring")[0].to_dict()


@pytest.mark.parametrize("option, doc", [
    ("--blackbox", 5),
    ("--blackbox", {**MASS_SPRING_BLACKBOX, "n_x": None}),
    ("--blackbox", {**MASS_SPRING_BLACKBOX, "A": {}}),
    ("--structure", 5),
    ("--init", 5),
    ("--truth", {}),
    ("--config", 5),
    ("--result", 5),
    ("--result", {"theta_hat": {}, "T_hat": [[1, 0], [0, 1]]}),
    ("--blackbox", {**MASS_SPRING_BLACKBOX, "n_x": 2.5}),
    ("--blackbox", {**MASS_SPRING_BLACKBOX, "n_u": True}),
    ("--structure", {**MASS_SPRING_STRUCTURE, "n_theta": 3.5}),
    ("--truth", {"theta": [float("nan"), 0.5, 1.0]}),  # json.dumps writes NaN
    ("--structure", {**MASS_SPRING_STRUCTURE,
                     "K": [[float("nan"), 0, 0]] + MASS_SPRING_STRUCTURE["K"][1:]}),
    ("--structure", {**MASS_SPRING_STRUCTURE, "kappa0": [float("inf")] + [0.0] * 7}),
    ("--structure", {**MASS_SPRING_STRUCTURE, "n_theta": 4}),  # K has 3 columns
    ("--blackbox", {**MASS_SPRING_BLACKBOX, "A": [[0, float("inf")], [-4, -0.5]]}),
    ("--blackbox", {**MASS_SPRING_BLACKBOX, "A": [["0", 1], [-4, -0.5]]}),
])
def test_wrongly_typed_document_exits_2(tmp_path, capsys, option, doc):
    bb, _ = generate(tmp_path, seed=4)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    files = {"--blackbox": bb, "--structure": "mass-spring", option: bad}
    command = ["verify"] if option == "--result" else ["solve", "--method", "lsq"]
    report_path = tmp_path / "report.json"
    code = run(*command, *(x for pair in files.items() for x in pair), "--out", report_path)
    assert code == 2
    assert f"file {bad}: " in capsys.readouterr().err
    assert not report_path.exists()


I2, I3 = np.eye(2).tolist(), np.eye(3).tolist()


@pytest.mark.parametrize("option, doc, message", [
    ("--result", {"theta_hat": [4.0, None, 1.0], "T_hat": I2}, "theta_hat must be finite"),
    ("--result", {"theta_hat": [4.0, 0.5], "T_hat": I2}, "theta_hat must have length 3, got 2"),
    ("--result", {"theta_hat": [4.0, 0.5, 1.0], "T_hat": I3},
     "T_hat must have shape (2, 2), got (3, 3)"),
    ("--result", {"theta_hat": "abc", "T_hat": I2}, "theta_hat must hold numbers only"),
    ("--init", {"theta": [4.0, 0.5, 1.0], "T": I3}, "T must have shape (2, 2), got (3, 3)"),
    ("--init", {"theta": [4.0, 0.5, 1.0], "T": [[1.0, 0.0], [0.0]]}, "T must hold numbers only"),
    ("--init", {"theta": [4.0, 0.5, 1.0, 2.0], "T": I2}, "theta must have length 3, got 4"),
    ("--truth", {"theta": [4.0, 0.5]}, "theta must have length 3, got 2"),
    ("--truth", {"theta": {}}, "theta must hold numbers only"),
    # a JSON string or boolean in an array is refused, not cast to a number
    ("--truth", {"theta": ["4", True, 1]}, "theta must hold numbers only"),
    ("--result", {"theta_hat": [True, True, True], "T_hat": I2},
     "theta_hat must hold numbers only"),
    # and so is a boolean mixed with numbers, which numpy would read as 1 or 0
    ("--truth", {"theta": [True, 0.5, 1]}, "theta must hold numbers only: got a boolean"),
    ("--init", {"theta": [4.0, 0.5, 1.0], "T": [[1.0, False], [0.0, 1.0]]},
     "T must hold numbers only: got a boolean"),
    ("--blackbox", {**MASS_SPRING_BLACKBOX, "A": [[0, True], [-4, -0.5]]},
     "A must hold numbers only: got a boolean"),
    ("--structure", {**MASS_SPRING_STRUCTURE,
                     "K": [[True, 0, 0]] + MASS_SPRING_STRUCTURE["K"][1:]},
     "K must hold numbers only: got a boolean"),
])
def test_malformed_array_names_its_file_and_key(tmp_path, capsys, option, doc, message):
    bb, _ = generate(tmp_path, seed=4)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    files = {"--blackbox": bb, "--structure": "mass-spring", option: bad}
    command = ["verify"] if option == "--result" else ["solve", "--method", "lsq"]
    report_path = tmp_path / "report.json"
    code = run(*command, *(x for pair in files.items() for x in pair), "--out", report_path)
    assert code == 2
    kind = option.removeprefix("--").replace("blackbox", "black-box")
    assert f"error: {kind} file {bad}: {message}" in capsys.readouterr().err
    assert not report_path.exists()


def test_verify_checks_dimensions_before_reading_the_result(tmp_path, capsys):
    bb, _ = generate(tmp_path, seed=4)
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"theta_hat": [4.0, 0.5, 1.0], "T_hat": I2}))
    code = run("verify", "--result", result, "--blackbox", bb, "--structure", "scalar")
    assert code == 2
    assert "error: dimension mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("method, init, message", [
    ("bogus", None, "unknown method 'bogus'"),
    ("nullspace", ([3.0, 2.0], [[1.0]]), "init applies to method 'lsq' only, not 'nullspace'"),
    ("lsq", ([3.0], [[1.0]]), "init theta must have length 2, got 1"),
    ("lsq", ([3.0, 2.0], np.eye(2)), r"init T must have shape \(1, 1\), got \(2, 2\)"),
    ("lsq", ([3.0, 2.0], [[float("nan")]]), "init T must be finite"),
])
def test_library_solve_rejects_bad_input(method, init, message):
    structure, theta = bundled_structure("scalar")
    blackbox = generate_instance(structure, theta, seed=2).blackbox
    with pytest.raises(ValueError, match=message):
        solve(blackbox, structure, method, init=init)


@pytest.mark.parametrize("options", [
    {"max_line_search": 2.5},
    {"restarts": 1.5},
    {"seed": 1.5},
    {"seed": -1},
    {"max_iters": True},
    {"grad_tol": float("nan")},
    {"f_tol": float("inf")},
    {"f_tol": True},
    {"max_iters": float("inf")},
])
def test_solve_bad_config_exits_2(tmp_path, capsys, options):
    bb, _ = generate(tmp_path, seed=4)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(options))  # NaN and Infinity are Python-JSON extensions
    report_path = tmp_path / "report.json"
    code = run("solve", "--blackbox", bb, "--structure", "mass-spring",
               "--config", config, "--out", report_path)
    assert code == 2
    assert "config file" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("structure, theta, seed, cond_max", [
    ("mass-spring", "4,0.5,1", 4, 100.0),  # the first start passes: no restart draws a seed
    ("compartment3", "1,0.7,0.4,2", 907090482, 10.0),  # needs restarts
])
@pytest.mark.parametrize("via_config", [False, True])
def test_solve_negative_seed_exits_2(tmp_path, capsys, structure, theta, seed, cond_max,
                                     via_config):
    bb, _ = generate(tmp_path, structure=structure, theta=theta, seed=seed, cond_max=cond_max)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1}))
    report_path = tmp_path / "report.json"
    given = ["--config", config] if via_config else ["--seed", -1]
    code = run("solve", "--blackbox", bb, "--structure", structure, *given, "--out", report_path)
    assert code == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not report_path.exists()


def test_solve_non_convergence_exits_3(tmp_path):
    bb, _ = generate(tmp_path, seed=4)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_iters": 1, "restarts": 0}))
    report_path = tmp_path / "report.json"
    code = run("solve", "--method", "lsq", "--blackbox", bb, "--structure", "mass-spring",
               "--config", config, "--out", report_path)
    assert code == 3
    assert report_path.exists()  # report written despite non-convergence
    assert json.load(open(report_path))["status"] == "max-iters"


def test_solve_converged_above_residual_tol_exits_3(tmp_path, capsys):
    # a loose f_tol stops the lsq search early: converged, but verify rejects it
    bb, _ = generate(tmp_path, seed=3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"f_tol": 0.1}))
    report_path = tmp_path / "report.json"
    code = run("solve", "--method", "lsq", "--blackbox", bb, "--structure", "mass-spring",
               "--config", config, "--out", report_path)
    assert code == 3
    err = capsys.readouterr().err
    assert "max residual" in err and "tolerance 1e-08" in err
    report = json.load(open(report_path))  # report written despite the failure
    assert report["status"] == "converged-ftol"
    assert max(report["residuals"].values()) > 1e-8
    assert run("verify", "--result", report_path, "--blackbox", bb,
               "--structure", "mass-spring", "--out", tmp_path / "verify.json") == 1


def test_solve_exits_0_on_max_iters_within_residual_tol(tmp_path):
    # three lm steps from a 1 % perturbed truth leave max-iters at a residual of
    # 2.4e-9: verify accepts it, so solve must too, whatever the status
    bb, truth = generate(tmp_path, structure="scalar", theta="3,2", seed=2)
    exact = json.load(open(truth))
    init = tmp_path / "init.json"
    init.write_text(json.dumps({k: (1.01 * np.array(exact[k])).tolist() for k in ("theta", "T")}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_iters": 3}))
    report_path = tmp_path / "report.json"
    assert run("solve", "--method", "lsq", "--blackbox", bb, "--structure", "scalar",
               "--init", init, "--config", config, "--out", report_path) == 0
    report = json.load(open(report_path))
    assert report["status"] == "max-iters"
    assert max(report["residuals"].values()) <= 1e-8
    assert run("verify", "--result", report_path, "--blackbox", bb,
               "--structure", "scalar", "--out", tmp_path / "verify.json") == 0


def test_pipeline_skips_polish_of_max_iters_nullspace_within_residual_tol(tmp_path):
    # four lm steps from the first start end max-iters at a residual of 4.4e-12,
    # which needs no polish
    bb, _ = generate(tmp_path, seed=36)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_iters": 4, "restarts": 0}))
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring", "--config", config,
               "--out", report_path) == 0
    report = json.load(open(report_path))
    assert report["diagnostics"]["polish"]["skipped"] is True
    assert report["status"] == "max-iters"
    assert max(report["residuals"].values()) <= 1e-8


@pytest.mark.parametrize("structure, method, expected", [
    ("compartment3", "nullspace", 3),
    ("compartment3", "lsq", 3),
    ("compartment3", "pipeline", 3),
    ("mass-spring", "nullspace", 3),
    ("mass-spring", "lsq", 4),
    ("mass-spring", "pipeline", 4),
])
def test_all_zero_blackbox_exits_with_a_documented_code(tmp_path, monkeypatch, structure,
                                                        method, expected):
    # every null-space start has r constant and J = 0, so mu = 0 and the damped
    # system is exactly singular: the LinAlgError path of lm's solve, end to end
    singular = []
    dense = optim._dense

    def recording_dense(n):
        solve_damped, *rest = dense(n)

        def recording(a, b):
            try:
                return solve_damped(a, b)
            except np.linalg.LinAlgError:
                singular.append(1)
                raise

        return recording, *rest

    monkeypatch.setattr(optim, "_dense", recording_dense)
    d = bundled_structure(structure)[0].dims
    bb_path = tmp_path / "zero.json"
    bb_path.write_text(json.dumps(StateSpace(
        A=np.zeros((d.n_x, d.n_x)), B=np.zeros((d.n_x, d.n_u)), C=np.zeros((d.n_y, d.n_x))
    ).to_dict()))
    report_path = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("solve", "--method", method, "--blackbox", bb_path,
                   "--structure", structure, "--out", report_path)
    assert code == expected
    report = json.load(open(report_path))
    assert report["status"] == "converged-step"
    if structure == "compartment3":
        # C_bb T = 0 against the structure's fixed C = e_3^T
        assert report["residuals"]["r_C"] == 1.0
    assert bool(singular) == (method != "lsq")


def test_solve_degenerate_transform_exits_4(tmp_path):
    blackbox = StateSpace(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
    structure = AffineStructure(kappa0=blackbox.stacked(), K=np.zeros((8, 1)), dims=Dims(2, 1, 1))
    bb_path = tmp_path / "bb.json"
    st_path = tmp_path / "st.json"
    init_path = tmp_path / "init.json"
    bb_path.write_text(json.dumps(blackbox.to_dict()))
    st_path.write_text(json.dumps(structure.to_dict()))
    init_path.write_text(json.dumps({"theta": [0.0], "T": [[1.0, 0.0], [0.0, 1e-9]]}))
    report_path = tmp_path / "report.json"
    code = run("solve", "--method", "lsq", "--blackbox", bb_path, "--structure", st_path,
               "--init", init_path, "--out", report_path)
    assert code == 4
    assert json.load(open(report_path))["diagnostics"]["degenerate_transform"]


def test_solve_exit_4_follows_the_stages_rcond(tmp_path, monkeypatch, capsys):
    # cmd_solve takes no rcond of its own: the stage's value decides exit 4,
    # here on a T_hat that is well conditioned and passes verify
    bb, _ = generate(tmp_path, seed=5)
    stage = solver.solve
    monkeypatch.setattr(solver, "solve", lambda *args, **kwargs: dataclasses.replace(
        stage(*args, **kwargs), rcond_T=0.5 * SINGULAR_RTOL))
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring",
               "--out", report_path) == 4
    assert "degenerate transform" in capsys.readouterr().err
    report = json.load(open(report_path))
    assert rcond(np.array(report["T_hat"])) >= SINGULAR_RTOL
    assert max(report["residuals"].values()) <= 1e-8


def test_verify_round_trip(tmp_path):
    bb, truth = generate(tmp_path, seed=5)
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring",
               "--out", report_path) == 0
    verify_path = tmp_path / "verify.json"
    code = run("verify", "--result", report_path, "--blackbox", bb,
               "--structure", "mass-spring", "--truth", truth, "--out", verify_path)
    assert code == 0
    doc = json.load(open(verify_path))
    assert doc["pass"]
    assert "theta_error" in doc


def test_verify_detects_tampered_transform(tmp_path):
    bb, _ = generate(tmp_path, seed=6)
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring",
               "--out", report_path) == 0
    report = json.load(open(report_path))
    report["T_hat"][0][0] += 0.1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    out = tmp_path / "verify.json"
    code = run("verify", "--result", tampered, "--blackbox", bb,
               "--structure", "mass-spring", "--out", out)
    assert code == 1
    assert json.load(open(out))["max_residual"] > 1e-3


def _strict_constant(token):
    raise ValueError(f"report holds the non-JSON token {token}")


def test_verify_writes_non_finite_residuals_as_null(tmp_path):
    bb, _ = generate(tmp_path, seed=7)
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring",
               "--out", report_path) == 0
    text = report_path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")  # compact, one line
    report = json.loads(text, parse_constant=_strict_constant)
    # a transform this large overflows every residual norm to inf
    report["T_hat"] = [[1e300, 0.0], [0.0, 1e300]]
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(report))
    out = tmp_path / "verify.json"
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = run("verify", "--result", huge, "--blackbox", bb,
                   "--structure", "mass-spring", "--out", out)
    assert code == 1
    doc = json.loads(out.read_text(), parse_constant=_strict_constant)
    assert doc["residuals"] == {"r_A": None, "r_B": None, "r_C": None}
    assert doc["max_residual"] is None and doc["pass"] is False


def test_verify_fails_a_nan_residual_that_max_would_drop(tmp_path):
    # B(theta) = theta [1, -1, 0, 0]^T is finite at theta = 1e308, but row 0 of
    # T_hat B is 1e308^2 - 1e308^2 = inf - inf: r_B is NaN while r_A = r_C = 0
    zeros = [[0.0] * 4] * 4
    k = [[0.0]] * 24
    k[16], k[17] = [1.0], [-1.0]
    docs = {
        "blackbox": {"n_x": 4, "n_u": 1, "n_y": 1, "A": zeros, "B": [[1.0]] * 4,
                     "C": [[0.0] * 4]},
        "structure": {"n_x": 4, "n_u": 1, "n_y": 1, "n_theta": 1, "kappa0": [0.0] * 24,
                      "K": k},
        "result": {"theta_hat": [1e308], "T_hat": [[1e308, 1e308, 0.0, 0.0]] + zeros[1:]},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    out = tmp_path / "verify.json"
    with pytest.warns(RuntimeWarning, match="overflow|invalid value"):  # 1e308^2, inf - inf
        code = run("verify", "--result", paths["result"], "--blackbox", paths["blackbox"],
                   "--structure", paths["structure"], "--out", out)
    assert code == 1
    doc = json.loads(out.read_text(), parse_constant=_strict_constant)
    assert doc["residuals"] == {"r_A": 0.0, "r_B": None, "r_C": 0.0}
    assert doc["max_residual"] is None and doc["pass"] is False


def test_write_report_writes_nested_non_finite_numbers_as_null(tmp_path):
    out = tmp_path / "report.json"
    cli._write_report({"a": [1.5, [float("nan"), float("inf")], -float("inf")],
                       "b": {"c": (float("nan"), 2)}}, str(out))
    expected = {"a": [1.5, [None, None], None], "b": {"c": [None, 2]}}
    assert out.read_text() == json.dumps(expected) + "\n"


def test_reports_without_out_go_to_stdout_as_one_line_of_strict_json(tmp_path, capsys):
    bb, truth = generate(tmp_path, seed=5)
    report_path, verify_path = tmp_path / "report.json", tmp_path / "verify.json"
    for argv, path in [
        (("solve", "--blackbox", bb, "--structure", "mass-spring", "--truth", truth),
         report_path),
        (("verify", "--result", report_path, "--blackbox", bb, "--structure", "mass-spring",
          "--truth", truth), verify_path),
    ]:
        capsys.readouterr()
        assert run(*argv, "--out", path) == 0
        assert capsys.readouterr().out == ""
        assert run(*argv) == 0
        text = capsys.readouterr().out
        assert text.count("\n") == 1 and text.endswith("\n")
        assert untimed(json.loads(text, parse_constant=_strict_constant)) == untimed(
            json.loads(path.read_text()))


def test_verify_missing_key_exits_2(tmp_path):
    bb, _ = generate(tmp_path, seed=6)
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"theta_hat": [1.0, 1.0, 1.0]}))
    assert run("verify", "--result", bogus, "--blackbox", bb,
               "--structure", "mass-spring") == 2


def test_check_grad_lsq_t(tmp_path):
    bb, _ = generate(tmp_path, seed=8)
    code = run("check-grad", "--which", "lsq-T", "--blackbox", bb,
               "--structure", "mass-spring", "--points", 20)
    assert code == 0


@pytest.mark.parametrize("which", ["lsq-theta", "lsq-T"])
def test_check_grad_builds_one_cost_plan_per_run(tmp_path, monkeypatch, capsys, which):
    # one plan serves every finite-difference probe of a run, and prints what a
    # fresh plan at every probe prints
    bb, _ = generate(tmp_path, structure="compartment3", theta="1,0.7,0.4,2", seed=8)
    capsys.readouterr()
    built = []

    class Spy(lsq.CostPlan):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(lsq, "CostPlan", Spy)
    argv = ("check-grad", "--which", which, "--blackbox", bb, "--structure", "compartment3",
            "--points", 5)
    assert run(*argv) == 0
    shared = capsys.readouterr().out
    assert len(built) == 1
    monkeypatch.setattr(lsq, "cost", lambda z, plan: lsq.CostPlan(plan.blackbox, plan.structure)(z))
    assert run(*argv) == 0
    assert capsys.readouterr().out == shared
    assert len(built) > 2


@pytest.mark.parametrize("structure", ["scalar", "mass-spring", "compartment3"])
def test_check_grad_hbar(tmp_path, structure):
    theta = ",".join(str(x) for x in bundled_structure(structure)[1])
    bb, _ = generate(tmp_path, structure=structure, theta=theta, seed=9)
    code = run("check-grad", "--which", "hbar", "--blackbox", bb,
               "--structure", structure, "--points", 20)
    assert code == 0


def test_check_grad_jacobians(tmp_path):
    bb, _ = generate(tmp_path, seed=10)
    code = run("check-grad", "--which", "jacobians", "--blackbox", bb,
               "--structure", "mass-spring", "--points", 20)
    assert code == 0


def test_check_grad_unreachable_tolerance(tmp_path):
    bb, _ = generate(tmp_path, seed=11)
    code = run("check-grad", "--which", "lsq-theta", "--blackbox", bb,
               "--structure", "mass-spring", "--points", 5, "--rel-tol", "1e-16")
    assert code == 1


def test_check_grad_fails_a_gradient_of_the_wrong_length(tmp_path, monkeypatch, capsys):
    # a gradient one entry short fails its point; it is not taken for a
    # degenerate point and resampled until check-grad gives up with exit 2
    bb, _ = generate(tmp_path, seed=8)
    full = lsq.CostPlan.__call__

    def one_column_short(self, z):
        r, jac = full(self, z)
        return r, jac[:, :-1]

    monkeypatch.setattr(lsq.CostPlan, "__call__", one_column_short)
    code = run("check-grad", "--which", "lsq-T", "--blackbox", bb,
               "--structure", "mass-spring", "--points", 3)
    assert code == 1
    out = capsys.readouterr().out
    assert "max_rel_err inf" in out and "resampled 0 degenerate point(s)" in out


def test_check_grad_fails_a_nan_derivative(tmp_path, monkeypatch, capsys):
    # max() would drop every NaN point error after the first and pass the check
    bb, _ = generate(tmp_path, seed=8)
    full = lsq.CostPlan.__call__

    def nan_column(self, z):
        r, jac = full(self, z)
        jac = jac.copy()
        jac[:, -1] = np.nan
        return r, jac

    monkeypatch.setattr(lsq.CostPlan, "__call__", nan_column)
    code = run("check-grad", "--which", "lsq-T", "--blackbox", bb,
               "--structure", "mass-spring", "--points", 3)
    assert code == 1
    out = capsys.readouterr().out
    assert "max_rel_err nan" in out and "worst nan" in out


@pytest.mark.parametrize("which, seed, resampled", [("hbar", 7, 1), ("jacobians", 4, 2)])
def test_check_grad_resamples_degenerate_points(tmp_path, capsys, which, seed, resampled):
    bb, _ = generate(tmp_path, structure="compartment3", theta="1,0.7,0.4,2", seed=0)
    capsys.readouterr()
    assert run("check-grad", "--which", which, "--blackbox", bb, "--structure", "compartment3",
               "--points", 10, "--seed", seed) == 0
    assert f"resampled {resampled} degenerate point(s)" in capsys.readouterr().out


def test_check_grad_resamples_a_point_whose_evaluation_raises(tmp_path, monkeypatch, capsys):
    bb, _ = generate(tmp_path, structure="compartment3", theta="1,0.7,0.4,2", seed=0)
    outcomes = iter([nullspace.SingularTransformError("singular"), ValueError("not finite"),
                     0.0])

    def point_error(*args):
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(cli, "_point_error", point_error)
    capsys.readouterr()
    assert run("check-grad", "--which", "hbar", "--blackbox", bb, "--structure", "compartment3",
               "--points", 1) == 0
    assert "resampled 2 degenerate point(s)" in capsys.readouterr().out


def test_check_grad_gives_up_on_too_many_degenerate_points(tmp_path, monkeypatch, capsys):
    bb, _ = generate(tmp_path, structure="compartment3", theta="1,0.7,0.4,2", seed=0)
    monkeypatch.setattr(cli, "_point_error", lambda *args: None)
    assert run("check-grad", "--which", "hbar", "--blackbox", bb, "--structure", "compartment3",
               "--points", 10) == 2
    assert "too many degenerate sample points" in capsys.readouterr().err


@pytest.mark.parametrize("error", [optim.InfeasibleStartError, nullspace.SingularTransformError])
def test_solve_error_of_a_degenerate_search_exits_4_without_a_report(tmp_path, monkeypatch,
                                                                      capsys, error):
    bb, _ = generate(tmp_path, seed=5)
    capsys.readouterr()

    def raising(*args, **kwargs):
        raise error("every start began at a singular transform point")

    monkeypatch.setattr(solver, "solve", raising)
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring",
               "--out", report_path) == 4
    assert capsys.readouterr().err == (
        "error: every start began at a singular transform point\n")
    assert not report_path.exists()
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring") == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, flag", [("verify", "--tol"), ("check-grad", "--rel-tol")])
@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, command, flag, value):
    bb, _ = generate(tmp_path, seed=4)
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "mass-spring",
               "--out", report_path) == 0
    args = ["--result", report_path, "--out", tmp_path / "verify.json"] if command == "verify" \
        else ["--which", "lsq-T", "--points", 1]
    code = run(command, *args, "--blackbox", bb, "--structure", "mass-spring", flag, value)
    assert code == 2
    assert f"error: {flag} must be finite and at least 0" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


@pytest.mark.parametrize("points", [0, -3])
def test_check_grad_rejects_fewer_than_one_point(tmp_path, capsys, points):
    bb, _ = generate(tmp_path, seed=8)
    code = run("check-grad", "--which", "lsq-T", "--blackbox", bb,
               "--structure", "mass-spring", "--points", points)
    assert code == 2
    assert "--points" in capsys.readouterr().err


def test_cli_round_trip_all_bundled(tmp_path):
    cases = {"scalar": "3,2", "mass-spring": "4,0.5,1", "compartment3": "1,0.7,0.4,2"}
    for name, theta in cases.items():
        bb, truth = generate(tmp_path, structure=name, theta=theta, prefix=name)
        report_path = tmp_path / f"{name}.report.json"
        assert run("solve", "--blackbox", bb, "--structure", name,
                   "--truth", truth, "--out", report_path) == 0
        assert run("verify", "--result", report_path, "--blackbox", bb,
                   "--structure", name, "--out", tmp_path / f"{name}.verify.json") == 0
