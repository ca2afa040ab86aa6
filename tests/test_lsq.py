import numpy as np
import pytest

from graybox.lsq import cost, default_init, solve_lsq
from graybox.model import (
    AffineStructure,
    Dims,
    StateSpace,
    eval_structure,
    generate_instance,
    residuals,
    vec,
)
from graybox.nullspace import solve_nullspace
from graybox.optim import OptimConfig, fd_gradient, relative_errors
from graybox.structures import mass_spring_damper, scalar

from helpers import dims_grid, random_structure

SCALAR_BLACKBOX = StateSpace(A=[[3.0]], B=[[4.0]], C=[[0.25]])


def test_cost_zero_at_truth():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=1, cond_max=10.0)
    assert cost(theta, instance.T, instance.blackbox, structure)[0] <= 1e-12


def test_cost_scalar_anchor():
    structure, _ = scalar()
    value, _, _ = cost([3.0, 2.0], np.array([[1.0]]), SCALAR_BLACKBOX, structure)
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
        assert cost(theta, t, instance.blackbox, structure)[0] == pytest.approx(total, abs=1e-12)


def test_grad_theta_scalar_anchor():
    structure, _ = scalar()
    _, g, _ = cost([3.0, 2.0], np.array([[1.0]]), SCALAR_BLACKBOX, structure)
    assert np.allclose(g, [0.0, -4.0], atol=1e-12)


def test_grad_t_scalar_anchor():
    structure, _ = scalar()
    _, _, g = cost([3.0, 2.0], np.array([[1.0]]), SCALAR_BLACKBOX, structure)
    # calculus oracle: d/dT [(3T - 3T)^2 + (4 - 2T)^2 + (0.25T - 0.5)^2] at T=1
    oracle = -2.0 * 2.0 * (4.0 - 2.0) + 2.0 * 0.25 * (0.25 - 0.5)
    assert g == pytest.approx(oracle, abs=1e-12)
    assert g == pytest.approx(-8.125, abs=1e-10)


def test_gradients_zero_at_truth():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=3, cond_max=10.0)
    _, g_theta, g_t = cost(theta, instance.T, instance.blackbox, structure)
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

            _, analytic, g_t = cost(theta, t, blackbox, structure)
            approx = fd_gradient(lambda th: cost(th, t, blackbox, structure)[0], theta)
            assert float(np.max(relative_errors(analytic, approx))) <= 1e-6

            analytic_t = vec(g_t)
            approx_t = fd_gradient(
                lambda tv: cost(theta, tv.reshape(n_x, n_x, order="F"), blackbox, structure)[0],
                vec(t),
            )
            assert float(np.max(relative_errors(analytic_t, approx_t))) <= 1e-6


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
    assert cost(theta0, t0, blackbox, structure)[0] <= 1e-12


def test_polish_never_increases_cost():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=5, cond_max=20.0)
    first = solve_nullspace(instance.blackbox, structure)
    start_cost, _, _ = cost(first.theta, first.T, instance.blackbox, structure)
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
