import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from graybox import optim
from graybox.lsq import CostPlan, default_init
from graybox.model import generate_instance, vec
from graybox.nullspace import ReducedResidual, structure_projector
from graybox.optim import (
    InfeasibleStartError,
    LineSearchError,
    OptimConfig,
    bfgs,
    fd_jacobian,
    line_search_wolfe,
    lm,
)
from graybox.structures import bundled_structure

from helpers import CONVERGED, SINGULAR, perturbed
from oracles import BUNDLED, lm_reference, lm_solver


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
    # a bool is refused, not read as 1, and so is a string
    for value in (True, "1e-9"):
        with pytest.raises(ValueError, match="f_tol must be a number"):
            OptimConfig(f_tol=value)
    with pytest.raises(ValueError, match="unknown"):
        OptimConfig.from_dict({"graad_tol": 1e-9})


@pytest.mark.parametrize("options, message", [
    ({"max_iters": 0}, "max_iters must be at least 1"),
    ({"restarts": -1}, "restarts must be nonnegative"),
])
def test_config_rejects_out_of_range_counts(options, message):
    with pytest.raises(ValueError, match=message):
        OptimConfig(**options)


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


def test_lm_singular_damped_system_stops(rvv=None):
    # J = 0 with r != 0: the damping starts at 0 and the damped system is singular
    result = lm(lambda x: (np.array([1.0]), np.zeros((1, 2))), np.ones(2), rvv=rvv)
    assert result.status == "converged-step"
    assert (result.n_evals, result.f_best) == (1, 1.0)
    assert np.array_equal(result.x_best, np.ones(2))


def test_lm_singular_damped_system_stops_with_zero_rvv():
    # with rvv the per-run solver factors the damped matrix, and its LinAlgError
    # gives the zero step too
    test_lm_singular_damped_system_stops(rvv=lambda v: np.zeros(1))


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
    config = OptimConfig(max_iters=max_iters)
    result = lm(rj, np.array(x0), config)
    got = (result.status, result.iterations, result.n_evals,
           [float(v).hex() for v in result.x_best], float(result.f_best).hex())
    assert got == expected
    # a zero second derivative gives a zero acceleration, so the same steps; their
    # damped systems are solved as with any rvv, so the bits are the plain run's
    # with that solver
    zero = lambda v: np.zeros(len(rj(np.array(x0))[0]))
    with_zero = lm(rj, np.array(x0), config, rvv=zero)
    assert (with_zero.status, with_zero.iterations, with_zero.n_evals) == (
        result.status, result.iterations, result.n_evals)
    x, f, *_, trace = lm_reference(rj, np.array(x0), config, rvv=zero, solve=lm_solver(zero))
    assert with_zero.trace == trace and with_zero.f_best == f
    assert np.array_equal(with_zero.x_best, x)


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
    # without rvv the skipped repeats change nothing else; with it the first repeat stops
    x, f, status, iterations, n_evals, trace = lm_reference(floor_rj, np.array([2.0, 2.0]),
                                                            rvv=rvv, solve=lm_solver(rvv))
    assert np.array_equal(result.x_best, x) and result.f_best == f
    assert (result.status, result.iterations, result.trace) == (status, iterations, trace)
    assert result.n_evals <= n_evals
    if rvv is not None:
        assert result.status == "converged-step"
        # the run stops at an iterate the run before the stop also accepted
        *_, old_evals, old_trace = lm_reference(floor_rj, np.array([2.0, 2.0]), rvv=rvv,
                                                stop_on_repeat=False, solve=lm_solver(rvv))
        assert old_trace[:len(result.trace)] == result.trace
        assert result.n_evals < old_evals


# nearly rank one: once mu is below the ulp of diag(J'J), the damped matrix is
# not numerically positive definite, and singular
RANK1_A = np.array([[1.0, 1.0], [2.0, 2.0 + 1e-8], [3.0, 3.0]])
RANK1_B = RANK1_A @ np.array([0.0, 0.1])


def rank1_rj(x):
    return RANK1_A @ x - RANK1_B, RANK1_A


# (residual, x0, rvv) -> the steps a run takes by outcome, its status and iterations
LM_STEP_RUNS = {
    "floor-no-rvv": ((floor_rj, [2.0, 2.0], None),
                     ({"accepted": 2, "rejected": 9, "geodesic_rejected": 0, "skipped": 7},
                      "converged-step", 19)),
    "floor-zero-rvv": ((floor_rj, [2.0, 2.0], lambda v: np.zeros(3)),
                       ({"accepted": 2, "rejected": 1, "geodesic_rejected": 0, "skipped": 0},
                        "converged-step", 4)),
    "rosenbrock-rvv": ((rosenbrock_rj, [-1.2, 1.0], rosenbrock_rvv),
                       ({"accepted": 14, "rejected": 0, "geodesic_rejected": 15, "skipped": 0},
                        "converged-ftol", 29)),
    "wall": ((wall_rj, [0.0, 1.0], None),
             ({"accepted": 27, "rejected": 55, "geodesic_rejected": 0, "skipped": 0},
              "converged-step", 83)),
    "rank1-zero-rvv": ((rank1_rj, [2.0, 2.0], lambda v: np.zeros(3)),
                       ({"accepted": 2, "rejected": 0, "geodesic_rejected": 0, "skipped": 0},
                        "converged-step", 3)),
}


@pytest.mark.parametrize("run, expected", LM_STEP_RUNS.values(), ids=LM_STEP_RUNS.keys())
def test_lm_counts_each_step_by_outcome(run, expected):
    rj, x0, rvv = run
    calls = []
    result = lm(lambda x: calls.append(1) or rj(x), np.array(x0), rvv=rvv)
    steps = result.steps
    assert (steps, result.status, result.iterations) == expected
    assert steps["accepted"] == len(result.trace) - 1
    # the start and every accepted or rejected step is one evaluation; nothing else is
    assert result.n_evals == len(calls) == 1 + steps["accepted"] + steps["rejected"]
    # every step has one outcome, and a "converged-step" stop is one step more
    assert sum(steps.values()) + (result.status == "converged-step") == result.iterations


def _reference_problems():
    """(name, rj, x0, rvv) on every bundled structure and chain6, at cond 100: the
    null-space ``ReducedResidual`` from T = I and from a Gaussian T, and ``CostPlan``
    with its curvature from ``default_init`` and from a 5 % perturbed truth; and the
    ``polish`` tail instance chain8 at cond 1e4 from its warm start, whose damped
    matrix ``dpotrf`` finds not positive definite at 14 of its 66 steps (n = 73)."""
    rng = np.random.default_rng(55)
    for name in ("scalar", "mass-spring", "compartment3", "chain6"):
        structure, theta = bundled_structure(name)
        n_x = structure.dims.n_x
        for seed in (3, 11):
            instance = generate_instance(structure, theta, seed=seed, cond_max=100.0)
            bb = instance.blackbox
            rj = ReducedResidual(bb, structure_projector(structure))
            yield f"{name}-s{seed}-nullspace-eye", rj, vec(np.eye(n_x)), None
            yield f"{name}-s{seed}-nullspace-drawn", rj, vec(rng.standard_normal((n_x, n_x))), None
            plan = CostPlan(bb, structure)
            theta0, t0 = default_init(bb, structure)
            yield (f"{name}-s{seed}-lsq-default", plan, np.concatenate([theta0, vec(t0)]),
                   plan.curvature)
            warm = [perturbed(theta, rng), perturbed(vec(instance.T), rng)]
            yield f"{name}-s{seed}-lsq-warm", plan, np.concatenate(warm), plan.curvature
    # as bench/workloads.py draws it: theta, then T, from the generator [seed, 1]
    structure, theta = bundled_structure("chain8")
    seed = 654350477
    instance = generate_instance(structure, theta, seed=seed, cond_max=1e4)
    rng = np.random.default_rng([seed, 1])
    warm = [perturbed(theta, rng), vec(perturbed(instance.T, rng))]
    plan = CostPlan(instance.blackbox, structure)
    yield f"chain8-c10000-s{seed}-lsq-warm", plan, np.concatenate(warm), plan.curvature


def _assert_lm_matches_its_reference(rj, x0, rvv, solve):
    """``lm`` against ``lm_reference`` with the damped solver ``solve``, bit for bit."""
    result = lm(rj, x0, rvv=rvv)
    x, f, status, iterations, n_evals, trace = lm_reference(rj, x0, rvv=rvv, solve=solve)
    assert (result.status, result.iterations, result.trace) == (status, iterations, trace)
    assert np.array_equal(result.x_best, x) and result.f_best == f
    assert result.n_evals <= n_evals
    steps = result.steps
    assert sum(steps.values()) + (result.status == "converged-step") == result.iterations
    if rvv is None:
        assert steps["geodesic_rejected"] == 0
    else:
        assert steps["skipped"] == 0
        # a stop at a repeated rejection cuts the run before that stop short, nothing else
        old_trace = lm_reference(rj, x0, rvv=rvv, stop_on_repeat=False, solve=solve)[-1]
        assert old_trace[:len(result.trace)] == result.trace


@pytest.mark.parametrize("rj, x0, rvv", [pytest.param(*problem, id=name)
                                          for name, *problem in _reference_problems()])
def test_lm_is_bit_identical_to_its_frozen_reference_on_the_solvers_problems(rj, x0, rvv):
    # the reference solves every damped system afresh, by its own dposv
    _assert_lm_matches_its_reference(rj, x0, rvv, lm_solver(rvv))


@pytest.mark.parametrize("rj, x0, rvv", [pytest.param(*problem, id=name)
                                          for name, *problem in _reference_problems()
                                          if problem[-1] is not None])
def test_lm_with_the_refactoring_fallback_is_bit_identical_to_its_frozen_reference(
        rj, x0, rvv, monkeypatch):
    # the lsq problems once more, each step's two solves each factoring the damped matrix
    monkeypatch.setattr(optim, "_dense", optim._dense_solver(None))
    _assert_lm_matches_its_reference(rj, x0, rvv, lm_solver(rvv, lapack=None))


NOT_BUNDLED = "numpy's bundled LAPACK (scipy_dposv_64_ or scipy_dposv_) not found"
# the workspace on numpy's bundled LAPACK, and np.linalg where that is not found
FACTORED = [
    pytest.param(BUNDLED, id="bundled", marks=pytest.mark.skipif(BUNDLED is None,
                                                                  reason=NOT_BUNDLED)),
    pytest.param(None, id="fallback"),
]
LAPACK_NAMES = ("dposv", "dpotrs", "dgesv")


def logged(calls, name, routine):
    """``routine``, appending ``name`` to ``calls`` at each call."""
    def call(*args):
        calls.append(name)
        return routine(*args)
    return call


def logged_lapack(lapack, calls):
    """``lapack`` from ``_bundled_lapack`` with each routine logged to ``calls``;
    None stays None."""
    if lapack is None:
        return None
    *routines, index = lapack
    return (*(logged(calls, name, routine) for name, routine in zip(LAPACK_NAMES, routines)),
            index)


@pytest.mark.parametrize("suffixes, index", [
    (["_64_"], np.int64), (["_"], np.int32), (["_", "_64_"], np.int64), ([], None)],
    ids=["ilp64", "lp64", "both", "neither"])
def test_bundled_lapack_takes_the_index_width_from_the_symbol_names(monkeypatch, suffixes,
                                                                    index):
    # a library exporting the routines under the given suffixes; _64_ wins where it has both
    def routine():
        pass

    def unloadable(path):
        raise OSError(path)

    names = {f"scipy_{name}{suffix}": routine for name in LAPACK_NAMES for suffix in suffixes}
    monkeypatch.setattr(optim.ctypes, "CDLL", lambda path: SimpleNamespace(**names))
    monkeypatch.setattr(optim.glob, "glob", lambda pattern: ["libscipy_openblas.so"])
    lapack = optim._bundled_lapack()
    if index is None:
        assert lapack is None
    else:
        assert lapack == (*[routine] * len(LAPACK_NAMES), index)
        assert routine.argtypes == [optim.ctypes.c_void_p] * 8
    # and none where no library is found, or the one found does not load
    monkeypatch.setattr(optim.glob, "glob", lambda pattern: [])
    assert optim._bundled_lapack() is None
    monkeypatch.setattr(optim.glob, "glob", lambda pattern: ["libscipy_openblas.so"])
    monkeypatch.setattr(optim.ctypes, "CDLL", unloadable)
    assert optim._bundled_lapack() is None


@pytest.mark.skipif(BUNDLED is None, reason=NOT_BUNDLED)
def test_bundled_lapack_binds_its_three_routines():
    suffix = "_64_" if BUNDLED[-1] is np.int64 else "_"
    assert [routine.__name__ for routine in BUNDLED[:-1]] == [
        f"scipy_{name}{suffix}" for name in LAPACK_NAMES]
    # the library reads N, NRHS, LDA, INFO and the pivots at the width the suffix names
    solve, inverse, solve_spd, resolve_spd = optim._dense_solver(BUNDLED)(3)
    a, b = np.diag([4.0, 16.0, 1.0]), np.array([4.0, 16.0, 1.0])  # exact square roots
    assert np.array_equal(solve_spd(a, b), np.ones(3))
    assert np.array_equal(resolve_spd(a, b), np.ones(3))
    assert np.array_equal(solve(a, b), np.ones(3))
    assert np.array_equal(inverse(a), np.diag([0.25, 0.0625, 1.0]))


def _solver_systems(rng, matrix):
    """(a, b) for n = 1..80 and 100..150 from ``matrix(n)``: C-ordered, F-ordered,
    and scaled by 1e200 and by 1e-200 (b too)."""
    for n in range(1, 81):
        a, b = matrix(n), rng.standard_normal(n)
        yield a, b
        yield np.asfortranarray(a), b
        yield 1e200 * a, b
        yield 1e-200 * a, 1e-200 * b
    for n in range(100, 151):
        yield matrix(n), rng.standard_normal(n)


def backward_error(a, x, b):
    """Normwise backward error ||b - a x|| / (||a|| ||x|| + ||b||), in the max norm."""
    residual = np.abs(b - a @ x).max()
    return residual / (np.abs(a).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())


@pytest.mark.parametrize("lapack", FACTORED)
def test_dense_solver_spd_is_backward_stable_on_positive_definite_systems(lapack):
    # damped normal matrices J'J + mu I as lm builds them, at conditions up to ~1e9
    rng = np.random.default_rng(58)

    def damped(n):
        jac = rng.standard_normal((n + 3, n)) * np.geomspace(1.0, 1e-6, n)
        a = jac.T @ jac
        a.flat[:: n + 1] += 1e-6 * a.diagonal().max() * rng.uniform()
        return a

    calls = []
    dense = optim._dense_solver(logged_lapack(lapack, calls))
    solvers = {}  # one per order, reused as lm reuses its own for a whole run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in _solver_systems(rng, damped):
            _, _, solve, resolve = solvers.setdefault(len(a), dense(len(a)))
            second = rng.standard_normal(len(a))
            a_before = a.copy()
            calls.clear()
            x, y = solve(a, b), resolve(a, second)
            # Cholesky's bound is c n eps; numpy's LU meets n eps on these systems too
            bound = len(a) * np.finfo(float).eps
            assert backward_error(a, x, b) <= bound
            assert backward_error(a, y, second) <= bound
            assert np.array_equal(a, a_before)
            assert calls == ([] if lapack is None else ["dposv", "dpotrs"])


@pytest.mark.parametrize("lapack", FACTORED)
def test_dense_solver_spd_gives_np_linalg_bits_on_indefinite_systems(lapack):
    # symmetric and not positive definite, where dposv fails and both solves run dgesv;
    # dposv's INFO, apart from dgesv's, tells resolve_spd that no Cholesky factor is left
    rng = np.random.default_rng(57)

    def indefinite(n):
        a = rng.standard_normal((n, n))
        a = a + a.T
        return a if np.linalg.eigvalsh(a)[0] < 0.0 else -a

    calls = []
    dense = optim._dense_solver(logged_lapack(lapack, calls))
    solvers = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in _solver_systems(rng, indefinite):
            _, _, solve, resolve = solvers.setdefault(len(a), dense(len(a)))
            second = rng.standard_normal(len(a))
            a_before = a.copy()
            calls.clear()
            assert np.array_equal(solve(a, b), np.linalg.solve(a, b))
            assert np.array_equal(resolve(a, second), np.linalg.solve(a, second))
            assert np.array_equal(a, a_before)
            assert calls == ([] if lapack is None else ["dposv", "dgesv", "dgesv"])


@pytest.mark.parametrize("lapack", FACTORED)
def test_dense_solver_gives_np_linalg_bits(lapack):
    # general matrices, as lm's damped systems without rvv and the evaluator's transforms
    rng = np.random.default_rng(62)
    calls = []
    dense = optim._dense_solver(logged_lapack(lapack, calls))
    solvers = {}  # one per order, reused as lm and the evaluator reuse their own
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in _solver_systems(rng, lambda n: rng.standard_normal((n, n))):
            solve, inverse, *_ = solvers.setdefault(len(a), dense(len(a)))
            a_before = a.copy()
            calls.clear()
            x, a_inv = solve(a, b), inverse(a)  # inverse must not overwrite the solution
            assert np.array_equal(x, np.linalg.solve(a, b))
            assert np.array_equal(a_inv, np.linalg.inv(a)) and a_inv.flags.c_contiguous
            assert np.array_equal(a, a_before)
            assert calls == ([] if lapack is None else ["dgesv", "dgesv"])


NON_FINITE = {
    "nan": np.array([[np.nan, 1.0], [1.0, 2.0]]),
    "nan-below": np.array([[3.0, 1.0, 0.0], [np.nan, 2.0, 1.0], [1.0, 0.0, 4.0]]),
    "inf": np.array([[np.inf, 1.0], [1.0, 2.0]]),
    "minus-inf-below": np.array([[1.0, 2.0], [-np.inf, 3.0]]),
    "overflow": np.array([[1.0, 1e308], [1.0, -1e308]]),  # elimination overflows to -inf
    "nan-singular": np.array([[0.0, np.nan], [0.0, 1.0]]),  # a zero first column: INFO = 1
}


@pytest.mark.parametrize("lapack", FACTORED)
@pytest.mark.parametrize("a", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_dense_solver_gives_np_linalg_bits_on_non_finite_entries(lapack, a):
    solve, inverse, *_ = optim._dense_solver(lapack)(len(a))
    b = np.arange(1.0, len(a) + 1.0)
    for ours, numpys in ((lambda: solve(a, b), lambda: np.linalg.solve(a, b)),
                         (lambda: inverse(a), lambda: np.linalg.inv(a))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                expected = numpys()
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    ours()
            else:
                assert np.array_equal(ours(), expected, equal_nan=True)


@pytest.mark.parametrize("lapack", FACTORED)
@pytest.mark.parametrize("a", SINGULAR.values(), ids=SINGULAR.keys())
def test_dense_solver_raises_on_an_exactly_singular_matrix(lapack, a):
    solve, inverse, *_ = optim._dense_solver(lapack)(len(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for layout in (a, np.asfortranarray(a)):
            with pytest.raises(np.linalg.LinAlgError):
                solve(layout, np.ones(len(a)))
            with pytest.raises(np.linalg.LinAlgError):
                inverse(layout)


@pytest.mark.parametrize("lapack", FACTORED)
@pytest.mark.parametrize("a", SINGULAR.values(), ids=SINGULAR.keys())
def test_dense_solver_spd_raises_on_an_exactly_singular_matrix(lapack, a):
    # dposv fails on a singular matrix; the dgesv it falls back to must refuse it too
    _, _, solve_spd, _ = optim._dense_solver(lapack)(len(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for layout in (a, np.asfortranarray(a)):
            with pytest.raises(np.linalg.LinAlgError):
                solve_spd(layout, np.ones(len(a)))


@pytest.mark.skipif(BUNDLED is None, reason=NOT_BUNDLED)
def test_dense_solver_keeps_every_buffer_its_pointers_point_into():
    # the workspace is the only owner of its buffers; arrays allocated after it, which
    # would reuse a freed buffer's memory, must not change what LAPACK reads or writes
    rng = np.random.default_rng(63)
    solve, inverse, solve_spd, resolve_spd = optim._dense_solver(BUNDLED)(4)
    clutter = [np.full(k, -7, dtype=BUNDLED[-1]) for k in range(1, 64)]
    clutter += [np.full(k, np.nan) for k in range(1, 64)]
    for _ in range(20):
        a, b = rng.standard_normal((4, 4)), rng.standard_normal(4)  # pivots that swap rows
        assert np.array_equal(solve(a, b), np.linalg.solve(a, b))
        assert np.array_equal(inverse(a), np.linalg.inv(a))
        spd = a @ a.T + np.eye(4)
        x = solve_spd(spd, b)
        assert backward_error(spd, x, b) <= 4 * np.finfo(float).eps
        assert np.array_equal(resolve_spd(spd, b), x)
    assert all((c == -7).all() for c in clutter[:63])


# a call of another caller between a solve_spd and its resolve_spd on a shared workspace
INTERVENING = {
    "solve": lambda workspace, a, c: workspace[0](a, c),
    "inverse": lambda workspace, a, c: workspace[1](a),
    "solve_spd": lambda workspace, a, c: workspace[2](a @ a.T, c),
}


@pytest.mark.skipif(BUNDLED is None, reason=NOT_BUNDLED)
@pytest.mark.parametrize("definite", [True, False], ids=["positive-definite", "indefinite"])
@pytest.mark.parametrize("call", INTERVENING.values(), ids=INTERVENING.keys())
def test_resolve_spd_after_another_call_gives_the_bits_of_its_own_factor(call, definite):
    rng = np.random.default_rng(64)
    calls = []
    dense = optim._dense_solver(logged_lapack(BUNDLED, calls))
    for n in (1, 4, 9, 73):
        m = rng.standard_normal((n, n))
        if definite:
            a1 = m @ m.T + 1e-3 * np.eye(n)
        else:
            a1 = m + m.T
            a1 = a1 if np.linalg.eigvalsh(a1)[0] < 0.0 else -a1
        a2, (b1, b2, c) = rng.standard_normal((n, n)), rng.standard_normal((3, n))
        alone = dense(n)
        alone[2](a1, b1)
        calls.clear()
        expected = alone[3](a1, b2)
        # the factor solve_spd left serves resolve_spd; after a fallback, dgesv again
        assert calls == (["dpotrs"] if definite else ["dgesv"])
        shared = dense(n)
        shared[2](a1, b1)
        call(shared, a2, c)
        calls.clear()
        assert np.array_equal(shared[3](a1, b2), expected)
        # another caller's call left no factor of a1: resolve_spd factors a1 again
        assert calls == (["dposv"] if definite else ["dposv", "dgesv"])


def test_dense_solver_without_lapack_is_np_linalg():
    assert optim._dense_solver(None)(3) == (np.linalg.solve, np.linalg.inv,
                                            np.linalg.solve, np.linalg.solve)


@pytest.mark.skipif(BUNDLED is None, reason=NOT_BUNDLED)
@pytest.mark.parametrize("run", LM_STEP_RUNS.values(), ids=LM_STEP_RUNS.keys())
def test_lm_factors_each_damped_matrix_once_only_with_rvv(run, monkeypatch):
    (rj, x0, rvv), (expected_steps, *_) = run
    calls = []  # lm's solves by name, through wrappers that log each call
    monkeypatch.setattr(optim, "_dense", optim._dense_solver(logged_lapack(BUNDLED, calls)))
    monkeypatch.setattr(np.linalg, "solve", logged(calls, "solve", np.linalg.solve))
    result = lm(rj, np.array(x0), rvv=rvv)
    steps = result.steps
    assert steps == expected_steps
    if rvv is None:
        # one dgesv per step that was not skipped, as np.linalg.solve was called before
        assert calls == ["dgesv"] * (result.iterations - steps["skipped"])
        return
    # the routines of each damped matrix, from its dposv on
    solves = []
    for name in calls:
        if name == "dposv":
            solves.append([])
        solves[-1].append(name)
    # every step that got an acceleration factored its matrix once, a Cholesky factor
    # for dpotrs, or, where dposv found it not positive definite, made two LU solves
    reached = steps["accepted"] + steps["rejected"] + steps["geodesic_rejected"]
    assert all(names in (["dposv", "dpotrs"], ["dposv", "dgesv", "dgesv"])
               for names in solves[:reached])
    # and a "converged-step" stop makes at most one more solve, for its velocity alone;
    # an exactly singular matrix fails dposv and then dgesv
    assert solves[reached:] in ([], [["dposv"]], [["dposv", "dgesv"]])
    assert len(solves) == reached or result.status == "converged-step"


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


def test_fd_jacobian_quadratic():
    j = fd_jacobian(lambda x: float(x @ x), np.array([1.0, 2.0]))
    assert j.shape == (1, 2)
    assert np.allclose(j[0], [2.0, 4.0], atol=1e-8)


def test_fd_jacobian_linear_exact():
    w = np.array([3.0, -1.0, 0.5])
    assert np.allclose(fd_jacobian(lambda x: float(w @ x), np.zeros(3))[0], w, atol=1e-10)
    a = np.arange(6.0).reshape(2, 3)
    j = fd_jacobian(lambda x: a @ x, np.ones(3))
    assert np.allclose(j, a, atol=1e-9)


def test_fd_jacobian_reports_bad_coordinate():
    def f(x):
        return np.array([float("nan") if abs(x[1]) > 0.5 else float(x @ x), x[0]])

    with pytest.raises(ValueError, match="coordinate 1"):
        fd_jacobian(f, np.array([0.0, 0.5]))

