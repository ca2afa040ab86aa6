import numpy as np
import pytest

from graybox.optim import (
    InfeasibleStartError,
    LineSearchError,
    OptimConfig,
    bfgs,
    check_gradient,
    fd_gradient,
    fd_jacobian,
    line_search_wolfe,
    lm,
)


def rosenbrock(x):
    return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def rosenbrock_grad(x):
    return np.array([
        -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2),
    ])


def rosenbrock_fg(x):
    return rosenbrock(x), rosenbrock_grad(x)


def rosenbrock_rj(x):
    """Residual and Jacobian whose squared norm is the Rosenbrock function."""
    r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    return r, np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def fused(f, g):
    """The (f, g) callable of a separate objective and gradient."""
    return lambda x: (f(x), g(x))


def test_config_validation():
    with pytest.raises(ValueError, match="wolfe"):
        OptimConfig(wolfe_c1=0.5, wolfe_c2=0.1)
    with pytest.raises(ValueError, match="positive"):
        OptimConfig(grad_tol=0.0)
    with pytest.raises(ValueError, match="unknown"):
        OptimConfig.from_dict({"graad_tol": 1e-9})


def test_config_from_partial_dict():
    cfg = OptimConfig.from_dict({"max_iters": 7, "restarts": 2})
    assert cfg.max_iters == 7
    assert cfg.restarts == 2
    assert cfg.grad_tol == OptimConfig().grad_tol


def test_bfgs_quadratic():
    c = np.array([1.5, -2.0, 0.25])
    result = bfgs(lambda x: (float((x - c) @ (x - c)), 2.0 * (x - c)), np.zeros(3))
    assert result.status == "converged-grad"
    assert result.iterations <= 3
    assert result.grad_norm <= 1e-10
    assert np.allclose(result.x_best, c, atol=1e-10)


def test_bfgs_rosenbrock():
    result = bfgs(rosenbrock_fg, np.array([-1.2, 1.0]))
    assert result.converged
    assert result.iterations <= 200
    assert np.allclose(result.x_best, [1.0, 1.0], atol=1e-6)


def test_bfgs_trace_monotone():
    result = bfgs(rosenbrock_fg, np.array([-1.2, 1.0]))
    values = [f for _, f, _ in result.trace]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_bfgs_deterministic():
    first = bfgs(rosenbrock_fg, np.array([-1.2, 1.0]))
    second = bfgs(rosenbrock_fg, np.array([-1.2, 1.0]))
    assert first.trace == second.trace
    assert np.array_equal(first.x_best, second.x_best)


def test_bfgs_infeasible_region_never_entered():
    # minimum of the smooth part sits at x0=2, behind the wall at x0=1
    probed = []

    def fg(x):
        probed.append(x.copy())
        if x[0] > 1.0:
            return float("inf"), None
        return float((x[0] - 2.0) ** 2 + x[1] ** 2), np.array([2.0 * (x[0] - 2.0), 2.0 * x[1]])

    result = bfgs(fg, np.array([0.0, 1.0]))
    assert result.x_best[0] <= 1.0 + 1e-12
    assert np.isfinite(result.f_best)
    # the search did probe behind the wall, yet every accepted iterate is feasible
    assert any(point[0] > 1.0 for point in probed)
    assert all(np.isfinite(f) for _, f, _ in result.trace)


def test_bfgs_infeasible_start():
    with pytest.raises(InfeasibleStartError):
        bfgs(lambda x: (float("inf"), None), np.zeros(2))


def test_bfgs_counts_every_evaluation():
    calls = []
    result = bfgs(lambda x: calls.append(1) or rosenbrock_fg(x), np.array([-1.2, 1.0]))
    assert result.n_evals == len(calls) > result.iterations


def test_lm_rosenbrock():
    calls = []
    result = lm(lambda x: calls.append(1) or rosenbrock_rj(x), np.array([-1.2, 1.0]))
    assert result.converged
    assert result.iterations <= 100
    assert result.n_evals == len(calls)
    assert np.allclose(result.x_best, [1.0, 1.0], atol=1e-10)
    assert result.f_best == rosenbrock(result.x_best)
    values = [f for _, f, _ in result.trace]
    assert all(b < a for a, b in zip(values, values[1:]))
    # the gradient column is that of f = ||r||^2, 2 J^T r
    r, j = rosenbrock_rj(result.x_best)
    assert result.grad_norm == pytest.approx(float(np.max(np.abs(2.0 * j.T @ r))))


def test_lm_linear_least_squares():
    a = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 1.0]])
    b = np.array([1.0, -2.0, 0.5])
    result = lm(lambda x: (a @ x - b, a), np.zeros(2))
    assert result.converged
    assert np.allclose(result.x_best, np.linalg.lstsq(a, b, rcond=None)[0], atol=1e-10)


def test_lm_mixed_scale_small_component_converges():
    # x0 near 1e4 makes ||h|| <= 1e-14 ||x|| hold while x1, at scale 1e-3,
    # is still wrong in its ninth digit; the componentwise test keeps going
    def rj(x):
        r = np.array([x[0] - 1e4, 1e3 * (x[1] + x[1] ** 3 / 1e-6 - 2e-3)])
        j = np.array([[1.0, 0.0], [0.0, 1e3 * (1.0 + 3.0 * x[1] ** 2 / 1e-6)]])
        return r, j

    result = lm(rj, np.array([1e4, 3e-3]))
    assert result.status == "converged-step"
    assert abs(result.x_best[1] - 1e-3) <= 1e-10 * 1e-3
    assert result.f_best <= 1e-20


def test_lm_zero_residual_stops_at_once():
    result = lm(lambda x: (x - 1.0, np.eye(2)), np.ones(2))
    assert result.status == "converged-ftol"
    assert (result.iterations, result.n_evals) == (0, 1)


def test_lm_singular_damped_system_stops():
    # J = 0 with r != 0: the damping starts at 0 and the damped system is singular
    result = lm(lambda x: (np.array([1.0]), np.zeros((1, 2))), np.ones(2))
    assert result.status == "converged-step"
    assert (result.n_evals, result.f_best) == (1, 1.0)
    assert np.array_equal(result.x_best, np.ones(2))


def test_lm_infeasible_region_never_accepted():
    # minimum of the smooth part sits at x0=2, behind the wall at x0=1
    probed = []

    def rj(x):
        probed.append(x.copy())
        if x[0] > 1.0:
            return None, None
        return np.array([x[0] - 2.0, x[1]]), np.eye(2)

    result = lm(rj, np.array([0.0, 1.0]))
    assert result.x_best[0] <= 1.0
    assert np.isfinite(result.f_best)
    assert any(point[0] > 1.0 for point in probed)
    assert all(np.isfinite(f) for _, f, _ in result.trace)
    assert result.n_evals == len(probed)


def test_lm_infeasible_start():
    with pytest.raises(InfeasibleStartError):
        lm(lambda x: (None, None), np.zeros(2))


def test_lm_max_iters():
    result = lm(rosenbrock_rj, np.array([-1.2, 1.0]), OptimConfig(max_iters=3))
    assert result.status == "max-iters"
    assert not result.converged
    assert result.iterations == 3
    assert result.n_evals == 4


def test_line_search_quadratic_unit_step():
    f = lambda x: float((x[0] - 1.0) ** 2)
    g = lambda x: np.array([2.0 * (x[0] - 1.0)])
    step, f_step, g_step = line_search_wolfe(fused(f, g), np.array([0.0]), np.array([1.0]))
    assert 0.9 <= step <= 1.1
    assert f_step == f(np.array([step]))
    assert np.array_equal(g_step, g(np.array([step])))


def test_line_search_rejects_ascent():
    f = lambda x: float(x @ x)
    g = lambda x: 2.0 * x
    with pytest.raises(ValueError, match="descent"):
        line_search_wolfe(fused(f, g), np.array([1.0]), np.array([1.0]))


def test_line_search_shrinks_on_steep_function():
    # full gradient step overshoots by 100x, Armijo forces a short step
    f = lambda x: float(50.0 * x[0] ** 2)
    g = lambda x: np.array([100.0 * x[0]])
    x = np.array([0.1])
    step, f_step, g_step = line_search_wolfe(fused(f, g), x, -g(x))
    assert step < 1.0
    assert f(x - step * g(x)) < f(x)
    # the returned values are those at the accepted step, bit for bit
    assert f_step == f(x + step * -g(x))
    assert np.array_equal(g_step, g(x + step * -g(x)))


def test_line_search_one_call_per_trial():
    # step 1 overshoots by 100x, so the zoom shrinks it over several trials;
    # every trial step is new, so a repeated step would be a second call
    x, d = np.array([0.1]), np.array([-10.0])
    steps = []

    def fg(p):
        steps.append(float((p[0] - x[0]) / d[0]))
        return float(50.0 * p[0] ** 2), np.array([100.0 * p[0]])

    f0, g0 = fg(x)
    steps.clear()
    step, _, _ = line_search_wolfe(fg, x, d, f0=f0, g0=g0)
    assert len(steps) > 2
    assert steps[0] == 1.0 and steps[-1] == step
    assert len(set(steps)) == len(steps)
    # without the caller's values the start point costs exactly one more call
    trials = list(steps)
    steps.clear()
    assert line_search_wolfe(fg, x, d)[0] == step
    assert steps == [0.0] + trials


def test_line_search_exhaustion():
    # unbounded descent: the curvature condition can never be met
    f = lambda x: float(-x[0])
    g = lambda x: np.array([-1.0])
    with pytest.raises(LineSearchError):
        line_search_wolfe(fused(f, g), np.array([0.0]), np.array([1.0]),
                          OptimConfig(max_line_search=5))


def test_fd_gradient_quadratic():
    g = fd_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]))
    assert np.allclose(g, [2.0, 4.0], atol=1e-8)


def test_fd_gradient_linear_exact():
    w = np.array([3.0, -1.0, 0.5])
    g = fd_gradient(lambda x: float(w @ x), np.zeros(3))
    assert np.allclose(g, w, atol=1e-10)


def test_fd_gradient_reports_bad_coordinate():
    def f(x):
        return float("nan") if abs(x[1]) > 0.5 else float(x @ x)

    with pytest.raises(ValueError, match="coordinate 1"):
        fd_gradient(f, np.array([0.0, 0.5]))


def test_fd_jacobian_linear_exact():
    a = np.arange(6.0).reshape(2, 3)
    j = fd_jacobian(lambda x: a @ x, np.ones(3))
    assert np.allclose(j, a, atol=1e-9)


def test_check_gradient_pass_and_fail():
    f = lambda x: float(2.0 * x[0] ** 2 + x[1] ** 2)
    good = lambda x: np.array([4.0 * x[0], 2.0 * x[1]])
    flipped = lambda x: np.array([-4.0 * x[0], 2.0 * x[1]])
    x = np.array([0.7, -0.3])
    report = check_gradient(f, good, x)
    assert report.passed
    assert report.max_rel_err <= 1e-8
    report = check_gradient(f, flipped, x)
    assert not report.passed
    assert report.worst_coord == 0


def test_check_gradient_against_itself():
    f = lambda x: float(np.sin(x[0]) + x[1] ** 3)
    analytic = lambda x: fd_gradient(f, x)
    report = check_gradient(f, analytic, np.array([0.3, 1.1]))
    assert report.passed
    assert report.max_rel_err <= 1e-10

