"""What solves keep for later ones: structure parses, projectors and LAPACK workspaces.

Each is reused bit for bit, so a report never depends on what was solved
before it in the process, nor on another thread's solves.
"""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import graybox
import scan
from graybox import cli, nullspace, optim
from graybox.lsq import CostPlan
from graybox.model import AffineStructure, generate_instance, vec
from graybox.optim import OptimConfig, lm
from graybox.structures import bundled_structure

from helpers import clear_caches, perturbed


def grid_cases(workload, work):
    """The cases of ``workload``'s grid 0, their inputs written under ``work``."""
    _, workloads = scan.bench_modules()
    cells = list(workloads.grid_cells(workload, 0, smoke=False))
    return workloads.write_inputs(graybox, workload, cells, work, graybox.model.generate_instance)


def solved(argv, out=None):
    """``(exit code, digest of the report without its timing keys)`` of one ``cli.main``."""
    if out is not None:
        argv = [*argv[:argv.index("--out") + 1], str(out), *argv[argv.index("--out") + 2:]]
    code = cli.main(argv)
    path = Path(argv[argv.index("--out") + 1])
    return code, scan.digest(json.loads(path.read_text())) if path.exists() else None


@pytest.mark.parametrize("workload", ["bundled", "polish"])
def test_reports_are_bit_identical_on_cold_and_on_warm_caches(workload, tmp_path):
    cases = grid_cases(workload, tmp_path)
    cold = []
    for case in cases:
        clear_caches()
        cold.append(solved(case.argv))
    warm = [solved(case.argv) for case in cases]  # every structure and order seen before
    assert all(digest is not None for _, digest in cold)
    assert warm == cold


def structure_file(tmp_path, name="mass-spring", indent=None):
    path = tmp_path / f"{name}.structure.json"
    path.write_text(json.dumps(bundled_structure(name)[0].to_dict(), indent=indent))
    return path


def test_a_structure_file_is_parsed_once_and_again_when_its_bytes_change(tmp_path,
                                                                         monkeypatch):
    parses = []
    from_dict = AffineStructure.from_dict
    monkeypatch.setattr(AffineStructure, "from_dict",
                        lambda doc: parses.append(1) or from_dict(doc))
    clear_caches()
    path = structure_file(tmp_path)
    first = [cli._load_structure(str(path)) for _ in range(3)]
    assert len(parses) == 1 and all(s is first[0] for s in first)
    compact = path.read_bytes()
    path.write_text(json.dumps(json.loads(compact), indent=2))  # the same structure, new bytes
    indented = cli._load_structure(str(path))
    assert len(parses) == 2 and indented is not first[0]
    assert np.array_equal(indented.K, first[0].K)
    path.write_bytes(compact)  # bytes seen before: the kept parse
    assert cli._load_structure(str(path)) is first[0] and len(parses) == 2


def generate(tmp_path):
    """A mass-spring black box and its structure file under ``tmp_path``."""
    code = cli.main(["generate", "--structure", "mass-spring", "--theta", "4,0.5,1",
                     "--seed", "7", "--out-prefix", str(tmp_path / "case")])
    assert code == 0
    return tmp_path / "case.blackbox.json", structure_file(tmp_path)


def test_a_malformed_structure_file_fails_alike_on_every_call(tmp_path, capsys):
    clear_caches()
    _, structure = generate(tmp_path)
    good = json.loads(structure.read_text())
    structure.write_text(json.dumps({**good, "n_theta": good["n_theta"] + 1}))
    blackbox = tmp_path / "case.blackbox.json"
    argv = ["solve", "--blackbox", str(blackbox), "--structure", str(structure)]
    errors = []
    for _ in range(3):
        assert cli.main(argv) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        errors.append(err)
    assert errors[0].startswith(f"error: structure file {structure}: n_theta=")
    assert errors == [errors[0]] * 3
    assert cli._structure.cache_info().currsize == 0
    structure.write_text(json.dumps(good))
    assert cli.main(argv) == cli.EXIT_OK


def test_every_kept_array_is_read_only(tmp_path):
    clear_caches()
    structure = cli._load_structure(str(structure_file(tmp_path)))
    proj = nullspace.structure_projector(structure)
    arrays = [structure.K, structure.kappa0, proj.residual_op, proj.theta_map, proj.offset]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    # a projector is kept by value: equal arrays of any origin find it
    copy = AffineStructure(kappa0=structure.kappa0.copy(), K=structure.K.copy(),
                           dims=structure.dims)
    assert nullspace.structure_projector(copy) is proj


def polish_problem(seed):
    """(plan, warm start) of a compartment3 polish, the ``polish`` workload's 5 % warm start."""
    structure, theta = bundled_structure("compartment3")
    instance = generate_instance(structure, theta, seed=seed, cond_max=100.0)
    rng = np.random.default_rng([seed, 1])
    z0 = np.concatenate([perturbed(theta, rng), vec(perturbed(instance.T, rng))])
    return CostPlan(instance.blackbox, structure), z0


def fields(result):
    return (result.x_best.tobytes(), result.f_best, result.iterations, result.status,
            result.n_evals, result.trace, result.steps)


def test_lm_nested_in_rvv_at_the_same_order_gives_the_unnested_bits():
    # the inner run falls between the outer's Cholesky solve and its dpotrs re-solve of
    # each step, in the one workspace of this thread and order: the outer's resolve_spd
    # must not re-solve with the inner's factor
    (outer, z0), (inner, z1) = polish_problem(3), polish_problem(4)
    assert z0.size == z1.size
    unnested = fields(lm(outer, z0, rvv=outer.curvature))
    inner_alone = fields(lm(inner, z1, rvv=inner.curvature))
    nested_runs = []

    def nesting(v):
        nested_runs.append(fields(lm(inner, z1, rvv=inner.curvature)))
        return outer.curvature(v)

    # the runs above left this thread's workspace of this order, which both runs share
    assert fields(lm(outer, z0, rvv=nesting)) == unnested
    assert len(nested_runs) > 1 and all(run == inner_alone for run in nested_runs)


def test_threads_give_the_serial_reports(tmp_path):
    # more threads than cores, switching as often as the interpreter allows, on cold
    # caches that they fill together: the parses and projectors are shared, the
    # workspaces kept per thread
    cases = grid_cases("bundled", tmp_path) + grid_cases("polish", tmp_path)
    serial = [solved(case.argv) for case in cases]
    clear_caches()
    results = {}

    def run(name, order):
        out = tmp_path / f"thread{name}.report.json"
        results[name] = {k: solved(cases[k].argv, out) for k in order}

    orders = [list(range(len(cases))), list(reversed(range(len(cases))))] * 2
    threads = [threading.Thread(target=run, args=(name, order), daemon=True)
               for name, order in enumerate(orders)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for name in range(len(threads)):
        assert [results[name][k] for k in range(len(cases))] == serial


@pytest.mark.parametrize("name", ["mass-spring", "compartment3"])
def test_a_five_start_solve_builds_one_workspace_per_order_cold_and_none_warm(name,
                                                                             monkeypatch):
    # lm runs at n_x^2 and the evaluator inverts at n_x: the five starts share lm's
    # workspace, and the thread's cache builds each order once
    built = []
    dense = optim._dense_solver(optim._lapack)

    def recording(n):
        built.append(n)
        return dense(n)

    cached = optim._per_thread(recording)
    monkeypatch.setattr(optim, "_dense", cached)
    monkeypatch.setattr(nullspace, "_dense", cached)
    structure, theta = bundled_structure(name)
    blackbox = generate_instance(structure, theta, seed=5, cond_max=100.0).blackbox
    config = OptimConfig(max_iters=2)  # no start passes in two steps
    n_x = structure.dims.n_x
    for expected in ([n_x, n_x * n_x], []):
        built.clear()
        sol = nullspace.solve_nullspace(blackbox, structure, config)
        assert len(sol.diagnostics["start_outcomes"]) == 5
        assert all("iterations" in outcome for outcome in sol.diagnostics["start_outcomes"])
        assert built == expected
