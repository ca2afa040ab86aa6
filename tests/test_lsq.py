import numpy as np
import pytest

import graybox.lsq as lsq
import graybox.optim as optim
from graybox.lsq import cost, default_init, grad_t, grad_theta, residual_matrices, solve_lsq
from graybox.model import (
    AffineStructure,
    Dims,
    StateSpace,
    eval_structure,
    generate_instance,
    residuals,
    unvec,
    vec,
)
from graybox.nullspace import solve_nullspace
from graybox.optim import OptimConfig, fd_gradient, fd_jacobian, relative_errors
from graybox.structures import mass_spring_damper, scalar

from helpers import dims_grid, lsq_fg, random_structure

SCALAR_BLACKBOX = StateSpace(A=[[3.0]], B=[[4.0]], C=[[0.25]])


def test_cost_zero_at_truth():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=1, cond_max=10.0)
    assert lsq_fg(theta, instance.T, instance.blackbox, structure)[0] <= 1e-12


def test_cost_scalar_anchor():
    structure, _ = scalar()
    value, _, _ = lsq_fg([3.0, 2.0], np.array([[1.0]]), SCALAR_BLACKBOX, structure)
    assert value == pytest.approx(4.0625, abs=1e-12)


def test_cost_equals_squared_residuals():
    rng = np.random.default_rng(41)
    structure = random_structure(Dims(3, 2, 1), rng, n_theta=4)
    instance = generate_instance(structure, rng.standard_normal(4), seed=2)
    for _ in range(20):
        theta = rng.standard_normal(4)
        t = rng.standard_normal((3, 3))
        r = residuals(instance.blackbox, t, eval_structure(structure, theta))
        total = r.r_a**2 + r.r_b**2 + r.r_c**2
        assert lsq_fg(theta, t, instance.blackbox, structure)[0] == pytest.approx(total, abs=1e-12)


def test_grad_theta_scalar_anchor():
    structure, _ = scalar()
    _, g, _ = lsq_fg([3.0, 2.0], np.array([[1.0]]), SCALAR_BLACKBOX, structure)
    assert np.allclose(g, [0.0, -4.0], atol=1e-12)


def test_grad_t_scalar_anchor():
    structure, _ = scalar()
    _, _, g = lsq_fg([3.0, 2.0], np.array([[1.0]]), SCALAR_BLACKBOX, structure)
    # calculus oracle: d/dT [(3T - 3T)^2 + (4 - 2T)^2 + (0.25T - 0.5)^2] at T=1
    oracle = -2.0 * 2.0 * (4.0 - 2.0) + 2.0 * 0.25 * (0.25 - 0.5)
    assert g == pytest.approx(oracle, abs=1e-12)
    assert g == pytest.approx(-8.125, abs=1e-10)


def test_gradients_zero_at_truth():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=3, cond_max=10.0)
    _, g_theta, g_t = lsq_fg(theta, instance.T, instance.blackbox, structure)
    assert np.linalg.norm(g_theta) <= 1e-10
    assert np.linalg.norm(g_t) <= 1e-10


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for dims in dims_grid():
        structure = random_structure(dims, rng)
        instance = generate_instance(
            structure, rng.standard_normal(structure.n_theta), seed=int(rng.integers(1 << 16))
        )
        blackbox = instance.blackbox
        n_x = dims.n_x
        for _ in range(3):
            theta = rng.standard_normal(structure.n_theta)
            t = rng.standard_normal((n_x, n_x))

            _, analytic, g_t = lsq_fg(theta, t, blackbox, structure)
            approx = fd_gradient(lambda th: lsq_fg(th, t, blackbox, structure)[0], theta)
            assert float(np.max(relative_errors(analytic, approx))) <= 1e-6

            analytic_t = vec(g_t)
            approx_t = fd_gradient(
                lambda tv: lsq_fg(theta, tv.reshape(n_x, n_x, order="F"), blackbox, structure)[0],
                vec(t),
            )
            assert float(np.max(relative_errors(analytic_t, approx_t))) <= 1e-6


def _random_point(dims, rng):
    structure = random_structure(dims, rng)
    instance = generate_instance(
        structure, rng.standard_normal(structure.n_theta), seed=int(rng.integers(1 << 16))
    )
    theta = rng.standard_normal(structure.n_theta)
    return structure, instance.blackbox, theta, rng.standard_normal((dims.n_x, dims.n_x))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(44)
    for dims in dims_grid():
        structure, blackbox, theta, t = _random_point(dims, rng)
        n_theta, n_x = structure.n_theta, dims.n_x
        r, jac = cost(theta, t, blackbox, structure)
        assert r.shape == (dims.n_abc,)
        assert jac.shape == (dims.n_abc, n_theta + n_x**2)
        approx = fd_jacobian(
            lambda z: cost(z[:n_theta], unvec(z[n_theta:], n_x, n_x), blackbox, structure)[0],
            np.concatenate([theta, vec(t)]),
        )
        assert float(np.max(relative_errors(jac, approx))) <= 1e-6


def test_jacobian_blocks_equal_kron_oracle():
    rng = np.random.default_rng(45)
    for dims in dims_grid():
        structure, blackbox, theta, t = _random_point(dims, rng)
        n_x, n_u = dims.n_x, dims.n_u
        model = eval_structure(structure, theta)
        a, b = model.A, model.B
        k = structure.K
        n_a, n_ab = n_x**2, n_x * (n_x + n_u)
        eye_x = np.eye(n_x)
        theta_block = -np.vstack([np.kron(eye_x, t) @ k[:n_a],
                                  np.kron(np.eye(n_u), t) @ k[n_a:n_ab],
                                  k[n_ab:]])
        t_block = np.vstack([np.kron(eye_x, blackbox.A) - np.kron(a.T, eye_x),
                             -np.kron(b.T, eye_x),
                             np.kron(eye_x, blackbox.C)])
        _, jac = cost(theta, t, blackbox, structure)
        assert np.linalg.norm(jac[:, :structure.n_theta] - theta_block) <= (
            1e-12 * np.linalg.norm(theta_block))
        assert np.linalg.norm(jac[:, structure.n_theta:] - t_block) <= (
            1e-12 * np.linalg.norm(t_block))


def test_jacobian_gradient_equals_closed_form_gradients():
    rng = np.random.default_rng(46)
    for dims in dims_grid():
        structure, blackbox, theta, t = _random_point(dims, rng)
        r, jac = cost(theta, t, blackbox, structure)
        res = residual_matrices(theta, t, blackbox, structure)
        oracle = np.concatenate([grad_theta(t, res, structure), vec(grad_t(res, blackbox))])
        assert np.linalg.norm(2.0 * jac.T @ r - oracle) <= 1e-10 * (1.0 + np.linalg.norm(oracle))


def test_solve_runs_lm_without_bfgs_or_kron(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the lsq solve path runs Levenberg-Marquardt on einsum Jacobians")

    monkeypatch.setattr(lsq, "bfgs", forbidden)
    monkeypatch.setattr(optim, "bfgs", forbidden)
    monkeypatch.setattr(np, "kron", forbidden)
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=4, cond_max=10.0)
    sol = solve_lsq(instance.blackbox, structure, init=(1.05 * theta, 1.05 * instance.T))
    assert sol.result.converged
    res = residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8
    assert sol.diagnostics["n_evals"] == sol.result.n_evals


def test_solve_from_truth_is_stationary():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=4, cond_max=10.0)
    sol = solve_lsq(instance.blackbox, structure, init=(theta, instance.T))
    assert sol.result.converged
    assert sol.result.iterations <= 2
    assert sol.result.f_best <= 1e-12


def test_solve_scalar_from_cold_start():
    structure, _ = scalar()
    sol = solve_lsq(SCALAR_BLACKBOX, structure, init=(np.zeros(2), np.eye(1)))
    res = residuals(SCALAR_BLACKBOX, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8
    assert np.allclose(sol.theta, [3.0, 2.0], atol=1e-6)


def test_solve_with_default_init():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=7, cond_max=20.0)
    theta0, t0 = default_init(instance.blackbox, structure)
    assert np.array_equal(t0, np.eye(2))
    sol = solve_lsq(instance.blackbox, structure)
    res = residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8


def test_default_init_exact_on_structured_blackbox():
    structure, theta = mass_spring_damper()
    blackbox = eval_structure(structure, theta)
    theta0, t0 = default_init(blackbox, structure)
    assert np.allclose(theta0, theta, atol=1e-12)
    assert lsq_fg(theta0, t0, blackbox, structure)[0] <= 1e-12


def test_polish_never_increases_cost():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=5, cond_max=20.0)
    first = solve_nullspace(instance.blackbox, structure)
    start_cost, _, _ = lsq_fg(first.theta, first.T, instance.blackbox, structure)
    polish = solve_lsq(instance.blackbox, structure, init=(first.theta, first.T))
    assert polish.result.f_best <= start_cost + 1e-12


def test_degenerate_transform_flagged():
    # A pair that any diagonal transform reconciles: starting at a nearly
    # rank-deficient stationary point must be reported as degenerate.
    blackbox = StateSpace(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
    structure = AffineStructure(
        kappa0=blackbox.stacked(),
        K=np.zeros((8, 1)),
        dims=Dims(2, 1, 1),
    )
    bad_t = np.diag([1.0, 1e-9])
    sol = solve_lsq(blackbox, structure, init=(np.zeros(1), bad_t))
    assert sol.result.f_best <= 1e-12
    assert sol.diagnostics["degenerate_transform"]


def test_solve_reports_non_convergence():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=6, cond_max=20.0)
    sol = solve_lsq(instance.blackbox, structure, config=OptimConfig(max_iters=1))
    assert sol.result.status == "max-iters"
    assert np.all(np.isfinite(sol.theta))
