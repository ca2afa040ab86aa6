"""Self-contained BFGS minimizer with a strong-Wolfe line search.

Also hosts the finite-difference oracles used throughout the test suite to
validate analytic gradients.  Objectives may return ``+inf`` to mark a point
infeasible; the line search treats that as a failed sufficient-decrease test,
so accepted iterates never leave the feasible region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "OptimConfig",
    "OptimResult",
    "GradientCheck",
    "LineSearchError",
    "InfeasibleStartError",
    "bfgs",
    "line_search_wolfe",
    "fd_gradient",
    "fd_jacobian",
    "check_gradient",
    "relative_errors",
]

Objective = Callable[[np.ndarray], float]
Gradient = Callable[[np.ndarray], np.ndarray]


class LineSearchError(RuntimeError):
    """No step satisfying the strong Wolfe conditions was found."""


class InfeasibleStartError(RuntimeError):
    """The objective is not finite at the requested starting point."""


@dataclass(frozen=True)
class OptimConfig:
    """Stopping rules and line-search constants for :func:`bfgs`.

    Attributes:
        grad_tol: stop when the infinity norm of the gradient drops below this.
        f_tol: stop on relative objective change below this between accepted iterates.
        max_iters: iteration cap.
        wolfe_c1: sufficient-decrease constant (Armijo).
        wolfe_c2: curvature constant; must satisfy 0 < c1 < c2 < 1.
        max_line_search: trial cap for each of the bracket and zoom phases.
        restarts: extra random starts used by multistart solvers.
        seed: seed for any randomized choices made by callers.
    """

    grad_tol: float = 1e-9
    f_tol: float = 1e-14
    max_iters: int = 500
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    max_line_search: int = 40
    restarts: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.wolfe_c1 < self.wolfe_c2 < 1.0):
            raise ValueError(
                f"need 0 < wolfe_c1 < wolfe_c2 < 1, got c1={self.wolfe_c1}, c2={self.wolfe_c2}"
            )
        if self.grad_tol <= 0.0 or self.f_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1 or self.max_line_search < 1:
            raise ValueError("iteration limits must be at least 1")
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")

    @classmethod
    def from_dict(cls, data: dict) -> OptimConfig:
        """Build a config from a (possibly partial) JSON-style mapping."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown optimizer option(s): {sorted(unknown)}")
        return cls(**data)


@dataclass
class OptimResult:
    """Outcome of a minimization run.

    ``trace`` holds one ``(iteration, f, grad_inf_norm)`` entry per accepted
    iterate, starting with the initial point; the f column is non-increasing.
    """

    x_best: np.ndarray
    f_best: float
    grad_norm: float
    iterations: int
    status: str
    trace: list[tuple[int, float, float]] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status in ("converged-grad", "converged-ftol")

    def trace_csv(self) -> str:
        lines = ["iter,f,grad_norm"]
        lines += [f"{k},{f:.17g},{g:.17g}" for k, f, g in self.trace]
        return "\n".join(lines) + "\n"


def line_search_wolfe(
    f: Objective,
    grad: Gradient,
    x: np.ndarray,
    d: np.ndarray,
    config: OptimConfig | None = None,
    f0: float | None = None,
    g0: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray]:
    """Step length along ``d`` satisfying the strong Wolfe conditions.

    Returns ``(step, f(x + step*d), grad(x + step*d))``; the search has
    evaluated both at the accepted step, so callers need not repeat them.
    ``d`` must be a descent direction.  A non-finite objective value at a
    trial point counts as a sufficient-decrease failure, which shrinks the
    step, so the returned step always has a finite objective.

    Raises:
        ValueError: if ``d`` is not a descent direction.
        LineSearchError: if no acceptable step is found within the trial caps.
    """
    cfg = config if config is not None else OptimConfig()
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    phi0 = float(f(x)) if f0 is None else float(f0)
    g_start = np.asarray(grad(x) if g0 is None else g0, dtype=float)
    dphi0 = float(g_start @ d)
    if dphi0 >= 0.0:
        raise ValueError(f"not a descent direction (directional derivative {dphi0:g})")
    c1, c2 = cfg.wolfe_c1, cfg.wolfe_c2

    def phi(a: float) -> float:
        return float(f(x + a * d))

    def dphi(a: float) -> tuple[float, np.ndarray]:
        g_a = np.asarray(grad(x + a * d), dtype=float)
        return float(g_a @ d), g_a

    a_prev, phi_prev, dphi_prev = 0.0, phi0, dphi0
    a = 1.0
    for trial in range(cfg.max_line_search):
        phi_a = phi(a)
        armijo_fail = not math.isfinite(phi_a) or phi_a > phi0 + c1 * a * dphi0
        if armijo_fail or (trial > 0 and phi_a >= phi_prev):
            return _zoom(phi, dphi, a_prev, a, phi_prev, dphi_prev, phi_a,
                         phi0, dphi0, c1, c2, cfg.max_line_search)
        dphi_a, g_a = dphi(a)
        if abs(dphi_a) <= -c2 * dphi0:
            return a, phi_a, g_a
        if dphi_a >= 0.0:
            return _zoom(phi, dphi, a, a_prev, phi_a, dphi_a, phi_prev,
                         phi0, dphi0, c1, c2, cfg.max_line_search)
        a_prev, phi_prev, dphi_prev = a, phi_a, dphi_a
        a *= 2.0
    raise LineSearchError(f"no bracket after {cfg.max_line_search} expansion trials")


def _zoom(phi, dphi, a_lo, a_hi, phi_lo, dphi_lo, phi_hi,
          phi0, dphi0, c1, c2, max_iter) -> tuple[float, float, np.ndarray]:
    """Refine a bracketing interval until strong Wolfe holds at the low end."""
    for _ in range(max_iter):
        a = _interpolate(a_lo, a_hi, phi_lo, dphi_lo, phi_hi)
        phi_a = phi(a)
        if not math.isfinite(phi_a) or phi_a > phi0 + c1 * a * dphi0 or phi_a >= phi_lo:
            a_hi, phi_hi = a, phi_a
        else:
            dphi_a, g_a = dphi(a)
            if abs(dphi_a) <= -c2 * dphi0:
                return a, phi_a, g_a
            if dphi_a * (a_hi - a_lo) >= 0.0:
                a_hi, phi_hi = a_lo, phi_lo
            a_lo, phi_lo, dphi_lo = a, phi_a, dphi_a
    raise LineSearchError(f"zoom did not satisfy strong Wolfe within {max_iter} trials")


def _interpolate(a_lo, a_hi, phi_lo, dphi_lo, phi_hi) -> float:
    """Quadratic-model trial step inside (a_lo, a_hi), safeguarded by bisection."""
    width = a_hi - a_lo
    a = None
    if math.isfinite(phi_hi):
        denom = phi_hi - phi_lo - dphi_lo * width
        if denom > 0.0:
            a = a_lo - 0.5 * dphi_lo * width**2 / denom
    lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
    margin = 0.1 * (hi - lo)
    if a is None or not math.isfinite(a) or a < lo + margin or a > hi - margin:
        a = 0.5 * (a_lo + a_hi)
    return a


def bfgs(
    f: Objective,
    grad: Gradient,
    x0: np.ndarray,
    config: OptimConfig | None = None,
) -> OptimResult:
    """Minimize ``f`` by BFGS with an inverse-Hessian approximation.

    The approximation starts at the identity and the curvature update is
    skipped whenever s'y <= 1e-10 ||s|| ||y||, which keeps it positive
    definite.  A failed line search ends the run with the best point found.

    Raises:
        InfeasibleStartError: if ``f(x0)`` is not finite.
    """
    cfg = config if config is not None else OptimConfig()
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    n = x.size
    fx = float(f(x))
    if not math.isfinite(fx):
        raise InfeasibleStartError("objective is not finite at the starting point")
    g = np.asarray(grad(x), dtype=float).reshape(-1)
    g_inf = float(np.max(np.abs(g))) if n else 0.0

    identity = np.eye(n)
    h = identity.copy()
    trace = [(0, fx, g_inf)]
    iterations = 0
    status = "max-iters"
    while True:
        if g_inf <= cfg.grad_tol:
            status = "converged-grad"
            break
        if iterations >= cfg.max_iters:
            status = "max-iters"
            break
        d = -h @ g
        if float(d @ g) >= 0.0:
            # approximation lost descent; restart from steepest descent
            h = identity.copy()
            d = -g
        try:
            step, f_new, g_new = line_search_wolfe(f, grad, x, d, cfg, f0=fx, g0=g)
        except LineSearchError:
            status = "line-search-failed"
            break
        s = step * d
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            left = identity - rho * np.outer(s, y)
            h = left @ h @ left.T + rho * np.outer(s, s)
        f_prev = fx
        x, fx, g = x + s, f_new, g_new
        g_inf = float(np.max(np.abs(g)))
        iterations += 1
        trace.append((iterations, fx, g_inf))
        # relative objective change; deliberately unfloored so objectives with
        # a zero minimum keep converging until the gradient test takes over
        if abs(f_prev - fx) <= cfg.f_tol * abs(f_prev):
            status = "converged-ftol"
            break
    return OptimResult(
        x_best=x,
        f_best=fx,
        grad_norm=g_inf,
        iterations=iterations,
        status=status,
        trace=trace,
    )


def fd_gradient(f: Objective, x: np.ndarray, h_scale: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate step h_scale*(1+|x_i|).

    Raises:
        ValueError: if the objective is non-finite at a probe point, naming
            the offending coordinate.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    g = np.empty_like(x)
    for i in range(x.size):
        h = h_scale * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        f_plus = float(f(x + e))
        f_minus = float(f(x - e))
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise ValueError(f"objective not finite while probing coordinate {i}")
        g[i] = (f_plus - f_minus) / (2.0 * h)
    return g


def fd_jacobian(
    fun: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    h_scale: float = 1e-6,
) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function, one column per input."""
    x = np.asarray(x, dtype=float).reshape(-1)
    columns = []
    for i in range(x.size):
        h = h_scale * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        f_plus = np.asarray(fun(x + e), dtype=float).reshape(-1)
        f_minus = np.asarray(fun(x - e), dtype=float).reshape(-1)
        if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
            raise ValueError(f"function not finite while probing coordinate {i}")
        columns.append((f_plus - f_minus) / (2.0 * h))
    return np.column_stack(columns)


@dataclass(frozen=True)
class GradientCheck:
    """Agreement report between an analytic gradient and central differences."""

    max_rel_err: float
    worst_coord: int
    passed: bool


def check_gradient(
    f: Objective,
    grad: Gradient,
    x: np.ndarray,
    rel_tol: float = 1e-6,
    h_scale: float = 1e-6,
) -> GradientCheck:
    """Compare an analytic gradient against :func:`fd_gradient` at ``x``.

    The per-coordinate error is |analytic - fd| / max(1, |fd|); the check
    passes when the maximum over coordinates is at most ``rel_tol``.
    """
    analytic = np.asarray(grad(x), dtype=float).reshape(-1)
    approx = fd_gradient(f, x, h_scale=h_scale)
    if analytic.shape != approx.shape:
        raise ValueError(
            f"gradient has shape {analytic.shape}, finite differences give {approx.shape}"
        )
    errors = np.abs(analytic - approx) / np.maximum(1.0, np.abs(approx))
    worst = int(np.argmax(errors)) if errors.size else 0
    max_err = float(errors[worst]) if errors.size else 0.0
    return GradientCheck(max_rel_err=max_err, worst_coord=worst, passed=max_err <= rel_tol)


def relative_errors(analytic: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """Elementwise |analytic - approx| / max(1, |approx|), used for matrix checks."""
    analytic = np.asarray(analytic, dtype=float)
    approx = np.asarray(approx, dtype=float)
    return np.abs(analytic - approx) / np.maximum(1.0, np.abs(approx))
