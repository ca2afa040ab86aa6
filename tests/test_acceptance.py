"""Acceptance gate: every criterion asserted at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion.  Criteria 5-7 share solver runs through a module-level trace
accumulator, so this module is meant to run in file order (pytest default).
"""

import contextlib
import json
import time

import numpy as np

from graybox.cli import main as cli_main
from graybox.lsq import solve_lsq
from graybox.model import (
    Dims,
    StateSpace,
    eval_structure,
    generate_instance,
    residuals,
    unvec,
    vec,
)
from graybox.nullspace import (
    ReducedResidual,
    realization_jacobians,
    realization_vector,
    reduced_distance,
    solve_nullspace,
    structure_projector,
)
from graybox.optim import fd_jacobian, lm, relative_errors
from graybox.structures import bundled_structure, mass_spring_damper, scalar

from helpers import (dims_grid, lsq_fg, random_structure, stacked_solution,
                     well_conditioned_stacked)
from oracles import build_constraint_matrix, nullspace_basis, structure_distance

SCALAR_BLACKBOX = StateSpace(A=[[3.0]], B=[[4.0]], C=[[0.25]])

# traces of every accepted-iterate objective sequence produced by criteria 5-7
ACCEPTANCE_TRACES: list[list[float]] = []


@contextlib.contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL  {description}")
        raise
    print(f"\nACCEPTANCE {num} PASS  {description}")


def test_criterion_1_gradient_correctness():
    with criterion(1, "analytic gradients and Jacobians match finite differences (<= 1e-6)"):
        started = time.perf_counter()
        rng = np.random.default_rng(100)
        worst = {"jacobians": 0.0, "reduced": 0.0, "reduced_2jtr": 0.0,
                 "lsq_theta": 0.0, "lsq_t": 0.0}
        for dims in dims_grid():
            n_x = dims.n_x

            # Jacobians of realization extraction: 100 random stacked points
            for _ in range(100):
                v = well_conditioned_stacked(dims, rng)
                analytic = np.vstack(realization_jacobians(v, dims))
                approx = fd_jacobian(lambda w: realization_vector(w, dims), v)
                worst["jacobians"] = max(worst["jacobians"],
                                         float(np.max(relative_errors(analytic, approx))))

            # reduced objective gradient: 4 instances x 25 points drawn around
            # the instance's hidden transform, where the search actually runs.
            # The check uses offset coordinates so the per-coordinate step
            # 1e-6*(1+|x_i|) is not inflated by the anchor's magnitude.  Both
            # the paper's matrix-form gradient and 2 J^T r of the residual the
            # search runs on meet the same differences.
            for _ in range(4):
                structure = random_structure(dims, rng)
                theta = rng.standard_normal(structure.n_theta)
                instance = generate_instance(structure, theta,
                                             seed=int(rng.integers(1 << 16)), cond_max=10.0)
                blackbox = instance.blackbox
                proj = structure_projector(structure)
                reduced = ReducedResidual(blackbox, proj)
                anchor = vec(instance.T)
                fun = lambda d: reduced_distance(anchor + d, blackbox, proj)[0]
                checked = 0
                while checked < 25:
                    delta = 0.3 * rng.standard_normal(n_x**2)
                    value, grad = reduced_distance(anchor + delta, blackbox, proj)
                    if not np.isfinite(value) or value > 1e3:
                        continue
                    sv = np.linalg.svd(unvec(anchor + delta, n_x, n_x), compute_uv=False)
                    if sv[-1] < 1e-2 * max(1.0, sv[0]):
                        continue
                    approx = fd_jacobian(fun, delta)[0]
                    r, jac = reduced(anchor + delta)
                    worst["reduced"] = max(worst["reduced"], float(np.max(
                        relative_errors(grad, approx))))
                    worst["reduced_2jtr"] = max(worst["reduced_2jtr"], float(np.max(
                        relative_errors(2.0 * (jac.T @ r), approx))))
                    checked += 1

            # least-squares gradients: 100 points each around the truth pair
            structure = random_structure(dims, rng)
            theta_true = rng.standard_normal(structure.n_theta)
            instance = generate_instance(structure, theta_true, seed=7, cond_max=10.0)
            blackbox = instance.blackbox
            for _ in range(100):
                theta = theta_true + 0.1 * rng.standard_normal(structure.n_theta)
                t = instance.T + 0.1 * rng.standard_normal((n_x, n_x))
                _, g_theta, g_t = lsq_fg(np.concatenate([theta, vec(t)]), blackbox, structure)
                approx = fd_jacobian(
                    lambda th: lsq_fg(np.concatenate([th, vec(t)]), blackbox, structure)[0], theta
                )[0]
                worst["lsq_theta"] = max(worst["lsq_theta"], float(np.max(
                    relative_errors(g_theta, approx))))
                approx_t = fd_jacobian(
                    lambda tv: lsq_fg(np.concatenate([theta, tv]), blackbox, structure)[0], vec(t)
                )[0]
                worst["lsq_t"] = max(worst["lsq_t"], float(np.max(
                    relative_errors(vec(g_t), approx_t))))

        elapsed = time.perf_counter() - started
        print(f"\n  worst relative errors: {worst}; elapsed {elapsed:.1f}s")
        assert all(err <= 1e-6 for err in worst.values()), worst
        assert elapsed < 30.0


def test_criterion_2_hand_verified_anchors():
    with criterion(2, "scalar anchors: cost 4.0625, grad_theta [0,-4], grad_T -8.125 (1e-10)"):
        structure, _ = scalar()
        t = np.array([[1.0]])
        theta = np.array([3.0, 2.0])
        f, g_theta, g_t = lsq_fg(np.concatenate([theta, vec(t)]), SCALAR_BLACKBOX, structure)
        assert abs(f - 4.0625) <= 1e-10
        assert np.max(np.abs(g_theta - np.array([0.0, -4.0]))) <= 1e-10
        assert abs(g_t.item() - (-8.125)) <= 1e-10
        # one-dimensional calculus oracle for the transform derivative:
        # d/dT [(3T-3T)^2 + (4-2T)^2 + (0.25T-0.5)^2] = -4(4-2T) + 0.5(0.25T-0.5)
        oracle = -4.0 * (4.0 - 2.0) + 0.5 * (0.25 - 0.5)
        assert abs(oracle - (-8.125)) == 0.0


def test_criterion_3_nullspace_structure():
    with criterion(3, "null-space dimension n_x^2+1 and truth annihilation (1e-10 scaled)"):
        started = time.perf_counter()
        rng = np.random.default_rng(300)
        for dims in dims_grid():
            for _ in range(50):
                structure = random_structure(dims, rng)
                theta = rng.standard_normal(structure.n_theta)
                instance = generate_instance(structure, theta,
                                             seed=int(rng.integers(1 << 16)), cond_max=50.0)
                m = build_constraint_matrix(instance.blackbox)
                basis = nullspace_basis(m)
                assert basis.shape[1] == dims.n_x**2 + 1
                v = stacked_solution(instance)
                assert np.linalg.norm(m @ v) <= 1e-10 * (1.0 + np.linalg.norm(v))
        elapsed = time.perf_counter() - started
        print(f"\n  800 instances checked in {elapsed:.1f}s")
        assert elapsed < 10.0


def test_criterion_4_projection_operator_laws():
    with criterion(4, "projector laws and least-squares oracle agreement (1e-10)"):
        from types import SimpleNamespace

        rng = np.random.default_rng(400)
        for trial in range(50):
            rows = int(rng.integers(2, 13))
            cols = int(rng.integers(1, 6))
            k = rng.standard_normal((rows, cols))
            if trial % 3 == 0 and cols >= 2:
                k[:, -1] = 2.0 * k[:, 0]  # rank-deficient case
            kappa0 = rng.standard_normal(rows)
            target = rng.standard_normal(rows)
            proj = structure_projector(SimpleNamespace(K=k, kappa0=kappa0))
            scale = 1.0 + np.linalg.norm(k)
            assert np.linalg.norm(proj.residual_op @ k) <= 1e-10 * scale
            assert np.linalg.norm(
                proj.residual_op @ proj.residual_op + proj.residual_op) <= 1e-10 * scale
            assert np.allclose(proj.residual_op, proj.residual_op.T, atol=1e-12)
            theta_opt, *_ = np.linalg.lstsq(k, target - kappa0, rcond=None)
            oracle = float(np.sum((kappa0 + k @ theta_opt - target) ** 2))
            assert abs(structure_distance(target, proj) - oracle) <= 1e-10


def _recovery_cases():
    cases = []
    structure, theta = scalar()
    for seed in (1, 2, 3):
        cases.append(("scalar", structure, theta,
                      generate_instance(structure, theta, seed=seed, cond_max=20.0)))
    structure, theta = mass_spring_damper()
    for seed in (3, 7, 9):
        cases.append(("mass-spring", structure, theta,
                      generate_instance(structure, theta, seed=seed, cond_max=20.0)))
    return cases


def test_criterion_5_nullspace_recovery():
    with criterion(5, "null-space recovery: theta within 1e-4 relative, residuals <= 1e-8"):
        for name, structure, theta, instance in _recovery_cases():
            started = time.perf_counter()
            sol = solve_nullspace(instance.blackbox, structure)
            elapsed = time.perf_counter() - started
            rel = np.linalg.norm(sol.theta - theta) / np.linalg.norm(theta)
            res = residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
            print(f"\n  {name}: theta err {rel:.2e}, max residual {max(res):.2e}, {elapsed:.2f}s")
            assert rel <= 1e-4
            assert max(res) <= 1e-8
            assert elapsed < 10.0
            ACCEPTANCE_TRACES.append([f for _, f, _ in sol.result.trace])


def test_criterion_6_lsq_recovery_and_pipeline_polish():
    with criterion(6, "least-squares recovery from projected init; polish never raises cost"):
        for name, structure, theta, instance in _recovery_cases():
            sol = solve_lsq(instance.blackbox, structure)  # init: T = I, projected theta
            res = residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
            assert max(res) <= 1e-8, (name, max(res))
            ACCEPTANCE_TRACES.append([f for _, f, _ in sol.result.trace])

            first = solve_nullspace(instance.blackbox, structure)
            start_cost, _, _ = lsq_fg(np.concatenate([first.theta, vec(first.T)]),
                                      instance.blackbox, structure)
            polish = solve_lsq(instance.blackbox, structure, init=(first.theta, first.T))
            assert polish.result.f_best <= start_cost + 1e-12
            ACCEPTANCE_TRACES.append([f for _, f, _ in polish.result.trace])


def test_criterion_7_optimizer_soundness():
    with criterion(7, "Rosenbrock in <= 200 iterations; objective traces non-increasing"):
        # Rosenbrock's function in residual form, minimized by the solvers' Levenberg-Marquardt
        rosen = lambda x: (np.array([10 * (x[1] - x[0] ** 2), 1 - x[0]]),
                           np.array([[-20 * x[0], 10.0], [-1.0, 0.0]]))
        result = lm(rosen, np.array([-1.2, 1.0]))
        assert result.iterations <= 200
        assert np.allclose(result.x_best, [1.0, 1.0], atol=1e-6)
        traces = ACCEPTANCE_TRACES + [[f for _, f, _ in result.trace]]
        assert traces, "criteria 5 and 6 must run before this test"
        for values in traces:
            assert all(b <= a for a, b in zip(values, values[1:]))


def test_criterion_8_cli_round_trip(tmp_path):
    with criterion(8, "CLI generate -> solve -> verify round-trips; negative controls fail"):
        cases = {"scalar": "3,2", "mass-spring": "4,0.5,1", "compartment3": "1,0.7,0.4,2"}
        for name, theta in cases.items():
            prefix = tmp_path / name
            assert cli_main(["generate", "--structure", name, "--theta", theta,
                             "--out-prefix", str(prefix)]) == 0
            report = tmp_path / f"{name}.report.json"
            assert cli_main(["solve", "--blackbox", f"{prefix}.blackbox.json",
                             "--structure", name, "--out", str(report)]) == 0
            assert cli_main(["verify", "--result", str(report),
                             "--blackbox", f"{prefix}.blackbox.json",
                             "--structure", name,
                             "--out", str(tmp_path / f"{name}.verify.json")]) == 0

        # negative control: tampering with the transform must fail verification
        report = json.load(open(tmp_path / "mass-spring.report.json"))
        report["T_hat"][0][0] += 0.1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(report))
        assert cli_main(["verify", "--result", str(tampered),
                         "--blackbox", str(tmp_path / "mass-spring.blackbox.json"),
                         "--structure", "mass-spring",
                         "--out", str(tmp_path / "tampered.verify.json")]) != 0

        # negative control: mismatched dimensions are a schema error
        assert cli_main(["solve", "--blackbox", str(tmp_path / "scalar.blackbox.json"),
                         "--structure", "mass-spring"]) == 2
