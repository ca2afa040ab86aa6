import argparse
import dataclasses
import json

import numpy as np
import pytest

from graybox import lsq, solve, solver
from graybox.cli import main
from graybox.model import (SINGULAR_RTOL, AffineStructure, Dims, StateSpace, eval_structure,
                           generate_instance, rcond, residuals)
from graybox.structures import bundled_structure


def run(*argv):
    return main([str(a) for a in argv])


def generate(tmp_path, structure="mass-spring", theta="4,0.5,1", seed=0, prefix="case",
             cond_max=100.0):
    out = tmp_path / prefix
    code = run("generate", "--structure", structure, "--theta", theta,
               "--seed", seed, "--cond-max", cond_max, "--out-prefix", out)
    assert code == 0
    return f"{out}.blackbox.json", f"{out}.truth.json"


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
    for cond_max in ("1.0", "inf", "nan"):
        code = run("generate", "--structure", "scalar", "--theta", "3,2",
                   "--cond-max", cond_max, "--out-prefix", tmp_path / "x")
        assert code == 2
        assert not (tmp_path / "x.blackbox.json").exists()


def test_generate_rejects_bad_theta_length(tmp_path):
    code = run("generate", "--structure", "scalar", "--theta", "1,2,3",
               "--out-prefix", tmp_path / "x")
    assert code == 2


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
    # on the distance's roundoff floor, with a read-out at 2.3e-8, and the
    # polish over [theta; vec(T)], with ||T|| near 5.9e3, must still reach 1e-8
    bb, _ = generate(tmp_path, structure="compartment3", theta="1,0.7,0.4,2",
                     seed=73, cond_max=1e4)
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "compartment3",
               "--out", report_path) == 0
    report = json.load(open(report_path))
    assert len(report["diagnostics"]["nullspace"]["start_outcomes"]) == 2
    assert "skipped" not in report["diagnostics"]["polish"]
    assert max(report["residuals"].values()) <= 1e-8
    assert run("verify", "--result", report_path, "--blackbox", bb,
               "--structure", "compartment3", "--out", tmp_path / "verify.json") == 0


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


def _perturbed(x, rng, rel=0.05):
    d = rng.standard_normal(x.shape)
    return x + rel * np.linalg.norm(x) * d / np.linalg.norm(d)


def test_solve_lsq_from_perturbed_init_at_cond_1e4(tmp_path):
    # mass-spring at cond 1e4 from a 5 % perturbed truth; BFGS stopped here
    # line-search-failed at a residual of 2.2e-6
    seed = 1755425271
    bb, truth = generate(tmp_path, seed=seed, cond_max=1e4)
    _, theta = bundled_structure("mass-spring")
    rng = np.random.default_rng([seed, 1])
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"theta": _perturbed(theta, rng).tolist(),
                                "T": _perturbed(np.array(json.load(open(truth))["T"]),
                                                rng).tolist()}))
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
    rng = np.random.default_rng([seed, 1])
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"theta": _perturbed(theta, rng).tolist(),
                                "T": _perturbed(np.array(json.load(open(truth))["T"]),
                                                rng).tolist()}))
    report_path = tmp_path / "report.json"
    assert run("solve", "--method", "lsq", "--blackbox", bb, "--structure", "chain8",
               "--init", init, "--out", report_path) == 0
    report = json.load(open(report_path))
    assert max(report["residuals"].values()) <= 1e-8
    diagnostics = report["diagnostics"]
    assert diagnostics["iterations"] >= diagnostics["n_evals"] - 1
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
    rng = np.random.default_rng([seed, 1])
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"theta": _perturbed(theta, rng).tolist(),
                                "T": _perturbed(np.array(json.load(open(truth))["T"]),
                                                rng).tolist()}))
    report_path = tmp_path / "report.json"
    assert run("solve", "--method", "lsq", "--blackbox", bb, "--structure", structure,
               "--init", init, "--out", report_path) == 0
    assert json.load(open(report_path))["diagnostics"]["n_evals"] <= 8


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


@pytest.mark.parametrize("method", ["nullspace", "pipeline"])
def test_solve_reports_each_start_outcome(tmp_path, method):
    # the T = I start of this instance stops short of the tolerance, the next passes
    bb, _ = generate(tmp_path, seed=11)
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
            assert set(outcome) == {"iterations", "n_evals", "status", "objective_final",
                                    "max_residual"}
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


MASS_SPRING_BLACKBOX = {"n_x": 2, "n_u": 1, "n_y": 1, "A": [[0, 1], [-4, -0.5]],
                        "B": [[0], [1]], "C": [[1, 0]]}


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
    ("--structure", {**bundled_structure("mass-spring")[0].to_dict(), "n_theta": 3.5}),
    ("--truth", {"theta": [float("nan"), 0.5, 1.0]}),  # json.dumps writes NaN
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


@pytest.mark.parametrize("options", [
    {"max_line_search": 2.5},
    {"restarts": 1.5},
    {"seed": 1.5},
    {"max_iters": True},
    {"grad_tol": float("nan")},
    {"f_tol": float("inf")},
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
    # two lm steps from T = I end max-iters at a residual of 4.4e-16, which
    # needs no polish
    bb, _ = generate(tmp_path, structure="scalar", theta="3,2", seed=1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_iters": 2, "restarts": 0}))
    report_path = tmp_path / "report.json"
    assert run("solve", "--blackbox", bb, "--structure", "scalar", "--config", config,
               "--out", report_path) == 0
    report = json.load(open(report_path))
    assert report["diagnostics"]["polish"]["skipped"] is True
    assert report["status"] == "max-iters"
    assert max(report["residuals"].values()) <= 1e-8


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

    def one_column_short(self, theta, t):
        r, jac = full(self, theta, t)
        return r, jac[:, :-1]

    monkeypatch.setattr(lsq.CostPlan, "__call__", one_column_short)
    code = run("check-grad", "--which", "lsq-T", "--blackbox", bb,
               "--structure", "mass-spring", "--points", 3)
    assert code == 1
    out = capsys.readouterr().out
    assert "max_rel_err inf" in out and "resampled 0 degenerate point(s)" in out


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
