import math

import numpy as np
import pytest

from graybox.optim import (
    GEODESIC_ALPHA,
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

from helpers import CONVERGED


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


def rosenbrock_rvv(v):
    """Second directional derivative of the residual of :func:`rosenbrock_rj`, constant in x."""
    return np.array([-20.0 * v[0] ** 2, 0.0])


def fused(f, g):
    """The (f, g) callable of a separate objective and gradient."""
    return lambda x: (f(x), g(x))


def wall_rj(x):
    """Residual with its minimum at x0=2, behind an infeasible region x0 > 1."""
    if x[0] > 1.0:
        return None, None
    return np.array([x[0] - 2.0, x[1]]), np.eye(2)


def mixed_scale_rj(x):
    """x0 near 1e4 next to x1 at scale 1e-3; the root is (1e4, 1e-3)."""
    r = np.array([x[0] - 1e4, 1e3 * (x[1] + x[1] ** 3 / 1e-6 - 2e-3)])
    j = np.array([[1.0, 0.0], [0.0, 1e3 * (1.0 + 3.0 * x[1] ** 2 / 1e-6)]])
    return r, j


LINEAR_A = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 1.0]])
LINEAR_B = np.array([1.0, -2.0, 0.5])


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        OptimConfig(f_tol=0.0)
    with pytest.raises(ValueError, match="unknown"):
        OptimConfig.from_dict({"graad_tol": 1e-9})


def test_config_from_partial_dict():
    cfg = OptimConfig.from_dict({"max_iters": 7, "restarts": 2})
    assert cfg.max_iters == 7
    assert cfg.restarts == 2
    assert cfg.f_tol == OptimConfig().f_tol


def test_bfgs_quadratic():
    c = np.array([1.5, -2.0, 0.25])
    result = bfgs(lambda x: (float((x - c) @ (x - c)), 2.0 * (x - c)), np.zeros(3))
    assert result.status == "converged-grad"
    assert result.iterations <= 3
    assert result.grad_norm <= 1e-10
    assert np.allclose(result.x_best, c, atol=1e-10)


def test_bfgs_rosenbrock():
    result = bfgs(rosenbrock_fg, np.array([-1.2, 1.0]))
    assert result.status in CONVERGED
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
    assert result.status in CONVERGED
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
    result = lm(lambda x: (LINEAR_A @ x - LINEAR_B, LINEAR_A), np.zeros(2))
    assert result.status in CONVERGED
    assert np.allclose(result.x_best, np.linalg.lstsq(LINEAR_A, LINEAR_B, rcond=None)[0],
                       atol=1e-10)


def test_lm_mixed_scale_small_component_converges():
    # x0 near 1e4 makes ||h|| <= 1e-14 ||x|| hold while x1, at scale 1e-3,
    # is still wrong in its ninth digit; the componentwise test keeps going
    result = lm(mixed_scale_rj, np.array([1e4, 3e-3]))
    assert result.status in ("converged-step", "converged-ftol")
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
    probed = []
    result = lm(lambda x: probed.append(x.copy()) or wall_rj(x), np.array([0.0, 1.0]))
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
    assert result.status not in CONVERGED
    assert result.iterations == 3
    assert result.n_evals == 4


# (residual, x0, max_iters) -> status, iterations, n_evals, x_best and f_best
# as float.hex, recorded from lm without geodesic acceleration, with the
# damping mu = lambda ||r|| from 1e-6 max diag(J'J)
LM_REFERENCE_RUNS = [
    ((rosenbrock_rj, [-1.2, 1.0], 500),
     ("converged-ftol", 24, 25, ["0x1.0000000000000p+0", "0x1.0000000000000p+0"],
      "0x0.0p+0")),
    ((rosenbrock_rj, [-1.2, 1.0], 8),
     ("max-iters", 8, 9, ["-0x1.50a80e5b5f03bp-2", "0x1.23b4f4560074cp-6"],
      "0x1.4a54efb3c78a9p+1")),
    ((lambda x: (LINEAR_A @ x - LINEAR_B, LINEAR_A), [0.0, 0.0], 500),
     ("converged-step", 3, 3, ["0x1.c8590b2163614p-1", "-0x1.4de9bd37a69b3p-1"],
      "0x1.642c8590b2163p-4")),
    ((mixed_scale_rj, [1e4, 3e-3], 500),
     ("converged-ftol", 7, 8, ["0x1.3880000000000p+13", "0x1.0624dd2f1a9fcp-10"],
      "0x0.0p+0")),
    ((wall_rj, [0.0, 1.0], 500),
     ("converged-step", 83, 83, ["0x1.fffffffffe2a5p-1", "0x1.0000000000eafp-1"],
      "0x1.40000000024b4p+0")),
]


@pytest.mark.parametrize("run, expected", LM_REFERENCE_RUNS)
def test_lm_without_rvv_is_bit_identical_to_plain_lm(run, expected):
    rj, x0, max_iters = run
    result = lm(rj, np.array(x0), OptimConfig(max_iters=max_iters))
    got = (result.status, result.iterations, result.n_evals,
           [float(v).hex() for v in result.x_best], float(result.f_best).hex())
    assert got == expected
    # a zero second derivative gives a zero acceleration, so the same run
    with_zero = lm(rj, np.array(x0), OptimConfig(max_iters=max_iters),
                   rvv=lambda v: np.zeros(len(rj(np.array(x0))[0])))
    assert with_zero.trace == result.trace
    assert np.array_equal(with_zero.x_best, result.x_best)
    assert (with_zero.iterations, with_zero.n_evals) == (result.iterations, result.n_evals)


@pytest.mark.parametrize("x0", [(-1.2, 1.0), (-3.0, -4.0), (2.0, 5.0)])
def test_lm_geodesic_acceleration_rosenbrock(x0):
    calls = []
    result = lm(lambda x: calls.append(1) or rosenbrock_rj(x), np.array(x0),
                rvv=rosenbrock_rvv)
    assert result.status in CONVERGED
    assert np.allclose(result.x_best, [1.0, 1.0], atol=1e-10)
    assert result.n_evals == len(calls)
    assert result.f_best == rosenbrock(result.x_best)
    values = [f for _, f, _ in result.trace]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_lm_acceleration_rejection_costs_no_evaluation():
    # an acceleration far longer than the velocity rejects the only step allowed
    calls = []
    result = lm(lambda x: calls.append(1) or rosenbrock_rj(x), np.array([-1.2, 1.0]),
                OptimConfig(max_iters=1), rvv=lambda v: np.array([1e6, 0.0]))
    assert result.status == "max-iters"
    assert (result.iterations, result.n_evals, len(calls)) == (1, 1, 1)
    assert np.array_equal(result.x_best, [-1.2, 1.0])
    # on Rosenbrock some damped steps are rejected that way, each without an evaluation
    calls.clear()
    result = lm(lambda x: calls.append(1) or rosenbrock_rj(x), np.array([-1.2, 1.0]),
                rvv=rosenbrock_rvv)
    assert result.n_evals == len(calls)
    assert result.iterations > result.n_evals


def _lm_reference(rj, x0, config=None, rvv=None):
    """``lm`` before it skipped a rejected step's repeat, frozen: at the roundoff
    floor it solves the same damped matrix again and evaluates the same point."""
    cfg = config if config is not None else OptimConfig()
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    r, jac = rj(x)
    n_evals = 1
    f, a, g = float(r @ r), jac.T @ jac, jac.T @ r
    mu = 1e-6 * float(a.diagonal().max())
    nu = 2.0
    trace = [(0, f, 2.0 * float(np.abs(g).max()))]
    iterations = 0
    status = "max-iters"
    while True:
        if f == 0.0:
            status = "converged-ftol"
            break
        if iterations >= cfg.max_iters:
            break
        iterations += 1
        damped = a.copy()
        damped.flat[:: x.size + 1] += mu
        try:
            h = np.linalg.solve(damped, -g)
        except np.linalg.LinAlgError:
            h = np.zeros_like(x)
        predicted = float(h @ (mu * h - g))
        if not predicted > 0.0 or (np.abs(h) <= 1e-12 * np.abs(x)).all():
            status = "converged-step"
            break
        step = h
        if rvv is not None:
            accel = np.linalg.solve(damped, -(jac.T @ rvv(h)))
            if 2.0 * math.sqrt(accel.dot(accel)) > GEODESIC_ALPHA * math.sqrt(h.dot(h)):
                mu, nu = mu * nu, 2.0 * nu
                continue
            step = h + 0.5 * accel
        r_new, j_new = rj(x + step)
        n_evals += 1
        f_new = math.inf if r_new is None else float(r_new @ r_new)
        if not f_new < f:
            mu, nu = mu * nu, 2.0 * nu
            continue
        rho = (f - f_new) / predicted
        f_prev = f
        x, f, jac = x + step, f_new, j_new
        a, g = jac.T @ jac, jac.T @ r_new
        mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3) * math.sqrt(f / f_prev)
        nu = 2.0
        trace.append((iterations, f, 2.0 * float(np.abs(g).max())))
        if f_prev - f <= cfg.f_tol * f_prev:
            status = "converged-ftol"
            break
    return x, f, status, iterations, n_evals, trace


# a consistent linear system whose solution (0, 0.1) is not a float: lm
# reaches the roundoff floor of f with mu far below the ulp of diag(J'J), and
# the zero component keeps the step test from stopping it there
FLOOR_A = np.array([[1.0, -2.0], [0.5, -2.0], [2.0, 0.5]])
FLOOR_B = FLOOR_A @ np.array([0.0, 0.1])


def floor_rj(x):
    return FLOOR_A @ x - FLOOR_B, FLOOR_A


@pytest.mark.parametrize("rvv", [
    None,
    lambda v: np.zeros(3),
    # a geodesic rejection of every step as short as the floor's
    lambda v: FLOOR_A @ v if np.linalg.norm(v) < 1e-9 else np.zeros(3),
], ids=["no-rvv", "zero-rvv", "floor-rejecting-rvv"])
def test_lm_evaluates_no_point_twice_in_a_row(rvv):
    points, velocities = [], []
    traced_rvv = None if rvv is None else lambda v: velocities.append(v.copy()) or rvv(v)
    result = lm(lambda x: points.append(x.copy()) or floor_rj(x), np.array([2.0, 2.0]),
                rvv=traced_rvv)
    # a repeated point or velocity is a damped system solved twice at one point
    for seen in (points, velocities):
        assert not any(np.array_equal(p, q) for p, q in zip(seen, seen[1:]))
    assert result.n_evals == len(points)
    # the skipped repeats change nothing else
    x, f, status, iterations, n_evals, trace = _lm_reference(floor_rj, np.array([2.0, 2.0]),
                                                             rvv=rvv)
    assert np.array_equal(result.x_best, x) and result.f_best == f
    assert (result.status, result.iterations, result.trace) == (status, iterations, trace)
    assert result.n_evals <= n_evals


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
        line_search_wolfe(fused(f, g), np.array([0.0]), np.array([1.0]))


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

