import numpy as np
import pytest

import graybox.lsq as lsq
import graybox.optim as optim
from graybox.lsq import (CostPlan, cost, default_init, grad_t, grad_theta, residual_matrices,
                         solve_lsq)
from graybox.model import (
    RESIDUAL_TOL,
    AffineStructure,
    Dims,
    StateSpace,
    eval_structure,
    generate_instance,
    kron_t,
    residuals,
    unvec,
    vec,
)
from graybox.nullspace import solve_nullspace
from graybox.optim import OptimConfig, fd_jacobian, relative_errors
from graybox.structures import bundled_structure, mass_spring_damper, scalar

from helpers import (CONVERGED, dims_grid, evaluator_cases, lsq_fg, perturbed, random_structure,
                     rank_deficient_structure)
from oracles import lm_reference, lm_solver

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
            approx = fd_jacobian(lambda th: lsq_fg(th, t, blackbox, structure)[0], theta)[0]
            assert float(np.max(relative_errors(analytic, approx))) <= 1e-6

            analytic_t = vec(g_t)
            approx_t = fd_jacobian(
                lambda tv: lsq_fg(theta, tv.reshape(n_x, n_x, order="F"), blackbox, structure)[0],
                vec(t),
            )[0]
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
        plan = CostPlan(blackbox, structure)
        r, jac = cost(theta, t, plan)
        assert r.shape == (dims.n_abc,)
        assert jac.shape == (dims.n_abc, n_theta + n_x**2)
        approx = fd_jacobian(
            lambda z: cost(z[:n_theta], unvec(z[n_theta:], n_x, n_x), plan)[0],
            np.concatenate([theta, vec(t)]),
        )
        assert float(np.max(relative_errors(jac, approx))) <= 1e-6


def _kron_oracle(structure, blackbox, theta, t):
    """``(r, J)`` of :func:`cost` from the residual matrices and dense ``np.kron`` blocks."""
    n_x, n_u = structure.dims.n_x, structure.dims.n_u
    a, b, r_a, r_b, r_c = residual_matrices(theta, t, blackbox, structure)
    k = structure.K
    n_a, n_ab = n_x**2, n_x * (n_x + n_u)
    eye_x = np.eye(n_x)
    theta_block = -np.vstack([np.kron(eye_x, t) @ k[:n_a],
                              np.kron(np.eye(n_u), t) @ k[n_a:n_ab],
                              k[n_ab:]])
    t_block = np.vstack([np.kron(eye_x, blackbox.A) - np.kron(a.T, eye_x),
                         -np.kron(b.T, eye_x),
                         np.kron(eye_x, blackbox.C)])
    return np.concatenate([vec(r_a), vec(r_b), vec(r_c)]), np.hstack([theta_block, t_block])


def test_jacobian_blocks_equal_kron_oracle():
    rng = np.random.default_rng(45)
    for dims in dims_grid():
        structure, blackbox, theta, t = _random_point(dims, rng)
        _, oracle = _kron_oracle(structure, blackbox, theta, t)
        _, jac = cost(theta, t, CostPlan(blackbox, structure))
        n_theta = structure.n_theta
        for cols in (slice(None, n_theta), slice(n_theta, None)):
            assert np.linalg.norm(jac[:, cols] - oracle[:, cols]) <= (
                1e-12 * np.linalg.norm(oracle[:, cols]))


def test_cost_plan_matches_kron_oracle_and_finite_differences_at_each_point():
    # one plan serves every point of a solve: each call returns copies of the plan's
    # buffers, so the r, J and curvatures it returned earlier stay as they were
    rng = np.random.default_rng(49)
    for dims in dims_grid():
        for structure in (random_structure(dims, rng), rank_deficient_structure(dims, rng)):
            _, blackbox, _, _ = _random_point(dims, rng)
            plan = CostPlan(blackbox, structure)
            n_theta, n_x = structure.n_theta, dims.n_x
            returned = []
            for _ in range(3):
                theta = rng.standard_normal(n_theta)
                t = rng.standard_normal((n_x, n_x))
                r, jac = cost(theta, t, plan)
                r_oracle, j_oracle = _kron_oracle(structure, blackbox, theta, t)
                assert np.linalg.norm(r - r_oracle) <= 1e-12 * np.linalg.norm(r_oracle)
                assert np.linalg.norm(jac - j_oracle) <= 1e-12 * np.linalg.norm(j_oracle)
                approx = fd_jacobian(
                    lambda z: plan(z[:n_theta], unvec(z[n_theta:], n_x, n_x))[0],
                    np.concatenate([theta, vec(t)]),
                )
                assert float(np.max(relative_errors(jac, approx))) <= 1e-6
                rvv = plan.curvature(rng.standard_normal(n_theta + n_x * n_x))
                returned += [(out, out.copy()) for out in (r, jac, rvv)]
            assert all(np.array_equal(out, kept) for out, kept in returned)


def _cost_plan_reference(blackbox, structure, theta, t):
    """``CostPlan`` as first written, frozen: ``kron_t([A, B], I)`` subtracted from a
    fresh copy of the Jacobian template."""
    d = structure.dims
    n_x, n_theta, k = d.n_x, structure.n_theta, structure.K
    n_ab = n_x * (n_x + d.n_u)
    eye = np.eye(n_x)
    template = np.zeros((k.shape[0], n_theta + n_x * n_x))
    template[n_ab:, :n_theta] = -k[n_ab:]
    template[: n_x * n_x, n_theta:] = kron_t(eye, blackbox.A)
    template[n_ab:, n_theta:] = kron_t(eye, blackbox.C)
    k_ab_cols = np.ascontiguousarray(k[:n_ab].reshape(n_x, -1, order="F"))
    stacked = structure.kappa0 + k @ theta
    ab = unvec(stacked[:n_ab], n_x, n_ab // n_x)
    t_ab = t @ ab
    r = np.concatenate([vec(blackbox.A @ t - t_ab[:, :n_x]), vec(blackbox.B) - vec(t_ab[:, n_x:]),
                        vec(blackbox.C @ t) - stacked[n_ab:]])
    jac = template.copy()
    jac[:n_ab, :n_theta] = -(t @ k_ab_cols).reshape(n_ab, n_theta, order="F")
    jac[:n_ab, n_theta:] -= kron_t(ab, eye)
    return r, jac


def test_cost_plan_is_bit_identical_to_its_frozen_reference():
    # one plan per case serves every point in turn, as in a solve, with the calls of
    # two plans interleaved; T is an F-ordered view of the stacked point, as the solve
    # passes it
    rng = np.random.default_rng(54)
    cases = [(CostPlan(blackbox, structure), blackbox, structure)
             for blackbox, structure in evaluator_cases(rng)]
    for pair in zip(cases, cases[1:]):
        for _ in range(3):
            for plan, blackbox, structure in pair:
                n_theta, n_x = structure.n_theta, structure.dims.n_x
                theta = rng.standard_normal(n_theta)
                t = unvec(rng.standard_normal(n_x * n_x), n_x, n_x)
                r, jac = plan(theta, t)
                r_ref, j_ref = _cost_plan_reference(blackbox, structure, theta, t)
                assert np.array_equal(r, r_ref) and np.array_equal(jac, j_ref)


def test_jacobian_gradient_equals_closed_form_gradients():
    rng = np.random.default_rng(46)
    for dims in dims_grid():
        structure, blackbox, theta, t = _random_point(dims, rng)
        r, jac = cost(theta, t, CostPlan(blackbox, structure))
        res = residual_matrices(theta, t, blackbox, structure)
        oracle = np.concatenate([grad_theta(t, res, structure), vec(grad_t(res, blackbox))])
        assert np.linalg.norm(2.0 * jac.T @ r - oracle) <= 1e-10 * (1.0 + np.linalg.norm(oracle))


def _stacked_cost(structure, blackbox):
    """``z -> (r, J)`` of :func:`cost` at the stacked point z = [theta; vec(T)]."""
    n_theta, n_x = structure.n_theta, structure.dims.n_x
    plan = CostPlan(blackbox, structure)
    return lambda z: cost(z[:n_theta], unvec(z[n_theta:], n_x, n_x), plan)


def test_curvature_makes_the_quadratic_expansion_exact():
    rng = np.random.default_rng(47)
    for dims in dims_grid():
        structure, blackbox, theta, t = _random_point(dims, rng)
        rj = _stacked_cost(structure, blackbox)
        x = np.concatenate([theta, vec(t)])
        v = rng.standard_normal(x.size)
        r, jac = rj(x)
        r_v, _ = rj(x + v)
        half = 0.5 * CostPlan(blackbox, structure).curvature(v)
        assert np.linalg.norm(r_v - r - jac @ v - half) <= 1e-10 * (
            np.linalg.norm(r_v) + np.linalg.norm(r) + np.linalg.norm(jac @ v))
        assert np.linalg.norm(half) > 0.0


def test_curvature_equals_central_difference_of_the_jacobian():
    rng = np.random.default_rng(48)
    eps = 1e-6
    for dims in dims_grid():
        structure, blackbox, theta, t = _random_point(dims, rng)
        rj = _stacked_cost(structure, blackbox)
        x = np.concatenate([theta, vec(t)])
        v = rng.standard_normal(x.size)
        approx = (rj(x + eps * v)[1] - rj(x - eps * v)[1]) @ v / (2.0 * eps)
        curvature = CostPlan(blackbox, structure).curvature(v)
        assert float(np.max(relative_errors(curvature, approx))) <= 1e-6


def test_solve_runs_lm_without_bfgs_or_kron(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the lsq solve path runs Levenberg-Marquardt on einsum Jacobians")

    monkeypatch.setattr(lsq, "bfgs", forbidden)
    monkeypatch.setattr(optim, "bfgs", forbidden)
    monkeypatch.setattr(np, "kron", forbidden)
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=4, cond_max=10.0)
    sol = solve_lsq(instance.blackbox, structure, init=(1.05 * theta, 1.05 * instance.T))
    assert sol.result.status in CONVERGED
    res = residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8
    assert sol.diagnostics["n_evals"] == sol.result.n_evals
    assert sol.diagnostics["iterations"] == sol.result.iterations
    assert sol.diagnostics["steps"] == sol.result.steps()


# (structure, instance seed, whether the run ends at a repeated rejection) of
# warm-started solves at cond 1e4; chain8 seed 2 misses the tolerance either way
WARM_POLISH_RUNS = [("chain6", 0, True), ("chain6", 4, True), ("chain6", 9, True),
                    ("chain6", 11, False), ("chain8", 1, True), ("chain8", 2, True),
                    ("chain8", 6, False)]


@pytest.mark.parametrize("name, seed, repeats", WARM_POLISH_RUNS)
def test_warm_polish_ends_at_its_first_repeated_rejection(name, seed, repeats):
    structure, theta = bundled_structure(name)
    n_theta, n_x = structure.n_theta, structure.dims.n_x
    instance = generate_instance(structure, theta, seed=seed, cond_max=1e4)
    rng = np.random.default_rng([seed, 1])
    init = (perturbed(theta, rng), perturbed(instance.T, rng))
    sol = solve_lsq(instance.blackbox, structure, init=init)
    plan = CostPlan(instance.blackbox, structure)

    def rj(z):
        return plan(z[:n_theta], z[n_theta:].reshape(n_x, n_x, order="F"))

    # the frozen run before the stop, which raises mu through every repeat
    x, f, status, iterations, n_evals, trace = lm_reference(
        rj, np.concatenate([init[0], vec(init[1])]), rvv=plan.curvature, stop_on_repeat=False,
        solve=lm_solver(plan.curvature))
    result = sol.result
    if repeats:
        assert result.status == "converged-step"
        assert result.iterations < iterations and result.n_evals < n_evals
        assert trace[:len(result.trace)] == result.trace
        before = max(residuals(instance.blackbox, x[n_theta:].reshape(n_x, n_x, order="F"),
                               eval_structure(structure, x[:n_theta])))
        assert (max(sol.residuals) <= RESIDUAL_TOL) == (before <= RESIDUAL_TOL)
    else:
        assert (result.status, result.iterations, result.n_evals, result.trace) == (
            status, iterations, n_evals, trace)
        assert np.array_equal(result.x_best, x) and result.f_best == f


def test_solve_from_truth_is_stationary():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=4, cond_max=10.0)
    sol = solve_lsq(instance.blackbox, structure, init=(theta, instance.T))
    assert sol.result.status in CONVERGED
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
