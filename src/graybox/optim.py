"""Self-contained BFGS and Levenberg-Marquardt minimizers.

BFGS and its strong-Wolfe line search take one callable ``fg(x) -> (f, g)``
that returns the objective and its gradient together, so every point is
evaluated once.  Objectives may return ``(+inf, None)`` to mark a point
infeasible; the line search treats that as a failed sufficient-decrease
test, so accepted iterates never leave the feasible region.
Levenberg-Marquardt minimizes ``||r(x)||^2`` from one callable
``rj(x) -> (r, J)``; ``(None, None)`` marks an infeasible point, and a step
onto one is rejected like a step that raises the objective.  Each damped
system is one ``np.linalg.solve`` call, unless an optional second callable
gives the residual's second directional derivative, for geodesic
acceleration; with it, each damped matrix is factored once, by the
Cholesky ``dposv`` of the LAPACK bundled with numpy, and the acceleration
reuses that factor through ``dpotrs``.  A step whose damped matrix is not
numerically positive definite, and every step where that library is not
found, makes two ``np.linalg.solve`` calls instead.

Also hosts the one finite-difference oracle, :func:`fd_jacobian`, against
which ``check-grad`` and the test suite compare every analytic derivative
through :func:`relative_errors`; a scalar objective's gradient is row 0 of
its Jacobian.
"""

from __future__ import annotations

import ctypes
import glob
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "OptimConfig",
    "OptimResult",
    "LineSearchError",
    "InfeasibleStartError",
    "bfgs",
    "lm",
    "line_search_wolfe",
    "fd_jacobian",
    "relative_errors",
]

# value and gradient at one point; the gradient may be None where f is not finite
ValueAndGradient = Callable[[np.ndarray], tuple[float, np.ndarray | None]]
# residual and Jacobian at one point; both None where the point is infeasible
ResidualAndJacobian = Callable[[np.ndarray], tuple[np.ndarray | None, np.ndarray | None]]

# Transtrum & Sethna's alpha: lm rejects a step whose geodesic acceleration
# term a/2 is longer than this fraction of the velocity ||v||
GEODESIC_ALPHA = 0.75

# bfgs's gradient test; line_search_wolfe's strong-Wolfe constants
# (Armijo c1 < curvature c2) and trial cap for each of its two phases
GRAD_TOL = 1e-9
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9
MAX_LINE_SEARCH = 40


def _bundled_lapack() -> tuple[Callable, Callable, type] | None:
    """``(dposv, dpotrs, index)`` from the LAPACK inside numpy's own install.

    numpy's wheels bundle scipy-openblas (in ``numpy.libs/`` or
    ``numpy/.dylibs/``), whose symbols carry the ``scipy_`` prefix and the
    suffix of their integer width: ``_64_`` for 64-bit LAPACK integers,
    ``_`` for 32-bit ones.  The first library that exports both routines
    under one suffix, ``_64_`` tried first, gives them, and ``index`` is the
    numpy integer type of that width.  None where no such library is found.
    """
    root = os.path.dirname(np.__file__)
    for pattern in (os.path.join(os.path.dirname(root), "numpy.libs", "*openblas*"),
                    os.path.join(root, ".dylibs", "*openblas*")):
        for path in sorted(glob.glob(pattern)):
            try:
                library = ctypes.CDLL(path)
            except OSError:
                continue
            for suffix, index in (("_64_", np.int64), ("_", np.int32)):
                try:
                    routines = [getattr(library, f"scipy_{name}{suffix}")
                                for name in ("dposv", "dpotrs")]
                except AttributeError:
                    continue
                # both take eight pointers: UPLO, N, NRHS, A, LDA, B, LDB, INFO
                for routine in routines:
                    routine.argtypes, routine.restype = [ctypes.c_void_p] * 8, None
                return (*routines, index)
    return None


def _factored_solver(lapack: tuple[Callable, Callable, type] | None) -> Callable:
    """``factor(n) -> (solve, resolve)``: two solves with one symmetric damped matrix.

    ``solve(a, b)`` solves ``a x = b``, with ``np.linalg.solve``'s
    ``LinAlgError`` on an exactly singular ``a``; ``resolve(b)`` then solves
    with the same ``a``.  With ``lapack`` from :func:`_bundled_lapack`,
    ``solve`` runs ``dposv`` (Cholesky, lower triangle) on an F-ordered copy
    of ``a``, and ``resolve`` runs ``dpotrs`` on the factor it left, which
    gives the bits of factoring ``a`` again.  Since ``a`` is symmetric, the
    copy is written through the buffer's transpose, one contiguous copy of
    a C-ordered ``a``.  ``solve`` returns a new array; ``resolve`` returns
    the right-hand side buffer, which the next ``solve`` overwrites.  Where
    ``dpotrf`` finds ``a`` not numerically positive definite, and everywhere
    without ``lapack``, ``solve`` and ``resolve`` are two ``np.linalg.solve``
    calls on ``a``, which must not change before ``resolve``.  The buffers
    and the raw pointers to them are built once per ``factor`` call, since
    setting up the ctypes arguments on every solve costs more than the
    second factorization saves.  The arguments are trusted: symmetric
    float64 matrices of order ``n``, and matching vectors.
    """
    def factor(n: int) -> tuple[Callable, Callable]:
        held = []  # a, while the last solve fell back to np.linalg.solve
        if lapack is not None:
            dposv, dpotrs, index = lapack
            factors = np.empty((n, n), order="F")
            factors_t = factors.T
            rhs = np.empty(n)
            ints = np.array([n, 1, max(n, 1), 0], dtype=index)  # N, NRHS, LDA = LDB, INFO
            # raw pointers keep no array alive: solve holds factors, rhs and ints, and
            # resolve runs only after solve, which its caller holds
            base = ints.ctypes.data
            order_p, nrhs_p, lead_p, info_p = (ctypes.c_void_p(base + k * ints.itemsize)
                                               for k in range(4))
            args = (ctypes.c_char_p(b"L"), order_p, nrhs_p, ctypes.c_void_p(factors.ctypes.data),
                    lead_p, ctypes.c_void_p(rhs.ctypes.data), lead_p, info_p)

        def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            if lapack is not None:
                factors_t[...] = a  # a = a^T
                rhs[...] = b
                dposv(*args)
                if ints[3] == 0:  # else INFO > 0: a leading minor is not positive definite
                    held.clear()
                    return rhs.copy()
            held[:] = [a]
            return np.linalg.solve(a, b)

        def resolve(b: np.ndarray) -> np.ndarray:
            if held:
                return np.linalg.solve(held[0], b)
            rhs[...] = b
            dpotrs(*args)
            return rhs

        return solve, resolve

    return factor


# lm's two solves per step with geodesic acceleration, one factorization apart
_factor = _factored_solver(_bundled_lapack())


class LineSearchError(RuntimeError):
    """No step satisfying the strong Wolfe conditions was found."""


class InfeasibleStartError(RuntimeError):
    """The objective is not finite at the requested starting point."""


@dataclass(frozen=True)
class OptimConfig:
    """Stopping rules of :func:`bfgs` and :func:`lm`, and the multistart's restarts and seed.

    Attributes:
        f_tol: stop on relative objective change below this between accepted iterates.
        max_iters: cap on bfgs iterations and on lm damped steps, rejected
            ones included.
        restarts: extra random starts of the null-space multistart; they run
            only while no earlier start has passed the residual tolerance.
        seed: nonnegative seed for any randomized choices made by callers.
    """

    f_tol: float = 1e-14
    max_iters: int = 500
    restarts: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_iters", "restarts", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.f_tol, numbers.Real) or isinstance(self.f_tol, bool):
            raise ValueError(f"f_tol must be a number, got {self.f_tol!r}")
        if not 0.0 < self.f_tol < math.inf:
            raise ValueError("f_tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

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
    ``n_evals`` counts the objective evaluations, the start point included.
    :func:`lm` also counts its steps that were not accepted: ``n_rejected``
    were evaluated and rejected, ``n_geodesic_rejected`` were rejected by the
    acceleration test without an evaluation, and ``n_skipped`` repeated a
    rejected damped matrix and were neither solved nor evaluated.
    """

    x_best: np.ndarray
    f_best: float
    iterations: int
    status: str
    n_evals: int
    trace: list[tuple[int, float, float]] = field(default_factory=list)
    n_rejected: int = 0
    n_geodesic_rejected: int = 0
    n_skipped: int = 0

    @property
    def grad_norm(self) -> float:
        """The gradient's infinity norm at ``x_best``: the last entry of ``trace``."""
        return self.trace[-1][2]

    def steps(self) -> dict[str, int]:
        """The damped steps of an :func:`lm` run by outcome, as a report writes them.

        With the step that ended a "converged-step" run, they add up to ``iterations``.
        """
        return {"accepted": len(self.trace) - 1, "rejected": self.n_rejected,
                "geodesic_rejected": self.n_geodesic_rejected, "skipped": self.n_skipped}


def line_search_wolfe(
    fg: ValueAndGradient,
    x: np.ndarray,
    d: np.ndarray,
    f0: float | None = None,
    g0: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray]:
    """Step length along ``d`` satisfying the strong Wolfe conditions.

    Returns ``(step, f, g)`` at ``x + step*d``.  Each trial point costs one
    ``fg`` call; ``f0`` and ``g0`` are the values at ``x`` when the caller
    has them.  ``d`` must be a descent direction.  A non-finite objective
    value at a trial point counts as a sufficient-decrease failure, which
    shrinks the step, so the returned step always has a finite objective.
    The constants are ``WOLFE_C1`` and ``WOLFE_C2``, and each of the bracket
    and zoom phases tries at most ``MAX_LINE_SEARCH`` steps.

    Raises:
        ValueError: if ``d`` is not a descent direction.
        LineSearchError: if no acceptable step is found within the trial caps.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if f0 is None or g0 is None:
        f0, g0 = fg(x)
    phi0 = float(f0)
    dphi0 = float(np.asarray(g0, dtype=float) @ d)
    if dphi0 >= 0.0:
        raise ValueError(f"not a descent direction (directional derivative {dphi0:g})")

    def phi(a: float) -> tuple[float, float, np.ndarray | None]:
        f_a, g_a = fg(x + a * d)
        f_a = float(f_a)
        if not math.isfinite(f_a):
            return f_a, math.nan, None
        g_a = np.asarray(g_a, dtype=float)
        return f_a, float(g_a @ d), g_a

    a_prev, phi_prev, dphi_prev = 0.0, phi0, dphi0
    a = 1.0
    for trial in range(MAX_LINE_SEARCH):
        phi_a, dphi_a, g_a = phi(a)
        armijo_fail = not math.isfinite(phi_a) or phi_a > phi0 + WOLFE_C1 * a * dphi0
        if armijo_fail or (trial > 0 and phi_a >= phi_prev):
            return _zoom(phi, a_prev, a, phi_prev, dphi_prev, phi_a, phi0, dphi0)
        if abs(dphi_a) <= -WOLFE_C2 * dphi0:
            return a, phi_a, g_a
        if dphi_a >= 0.0:
            return _zoom(phi, a, a_prev, phi_a, dphi_a, phi_prev, phi0, dphi0)
        a_prev, phi_prev, dphi_prev = a, phi_a, dphi_a
        a *= 2.0
    raise LineSearchError(f"no bracket after {MAX_LINE_SEARCH} expansion trials")


def _zoom(phi, a_lo, a_hi, phi_lo, dphi_lo, phi_hi,
          phi0, dphi0) -> tuple[float, float, np.ndarray]:
    """Refine a bracketing interval until strong Wolfe holds at the low end."""
    for _ in range(MAX_LINE_SEARCH):
        a = _interpolate(a_lo, a_hi, phi_lo, dphi_lo, phi_hi)
        phi_a, dphi_a, g_a = phi(a)
        if not math.isfinite(phi_a) or phi_a > phi0 + WOLFE_C1 * a * dphi0 or phi_a >= phi_lo:
            a_hi, phi_hi = a, phi_a
        else:
            if abs(dphi_a) <= -WOLFE_C2 * dphi0:
                return a, phi_a, g_a
            if dphi_a * (a_hi - a_lo) >= 0.0:
                a_hi, phi_hi = a_lo, phi_lo
            a_lo, phi_lo, dphi_lo = a, phi_a, dphi_a
    raise LineSearchError(f"zoom did not satisfy strong Wolfe within {MAX_LINE_SEARCH} trials")


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
    fg: ValueAndGradient,
    x0: np.ndarray,
    config: OptimConfig | None = None,
) -> OptimResult:
    """Minimize the objective of ``fg`` by BFGS with an inverse-Hessian approximation.

    The approximation starts at the identity and the curvature update is
    skipped whenever s'y <= 1e-10 ||s|| ||y||, which keeps it positive
    definite.  The run stops "converged-grad" once the gradient's infinity
    norm is at most ``GRAD_TOL``.  A failed line search ends the run with
    the best point found.

    Raises:
        InfeasibleStartError: if the objective is not finite at ``x0``.
    """
    cfg = config if config is not None else OptimConfig()
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    n = x.size
    n_evals = 0

    def counted(p: np.ndarray) -> tuple[float, np.ndarray | None]:
        nonlocal n_evals
        n_evals += 1
        return fg(p)

    fx, g = counted(x)
    fx = float(fx)
    if not math.isfinite(fx):
        raise InfeasibleStartError("objective is not finite at the starting point")
    g = np.asarray(g, dtype=float).reshape(-1)
    g_inf = float(np.max(np.abs(g))) if n else 0.0

    identity = np.eye(n)
    h = identity.copy()
    trace = [(0, fx, g_inf)]
    iterations = 0
    status = "max-iters"
    while True:
        if g_inf <= GRAD_TOL:
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
            step, f_new, g_new = line_search_wolfe(counted, x, d, f0=fx, g0=g)
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
        iterations=iterations,
        status=status,
        n_evals=n_evals,
        trace=trace,
    )


def lm(
    rj: ResidualAndJacobian,
    x0: np.ndarray,
    config: OptimConfig | None = None,
    rvv: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OptimResult:
    """Minimize ``f = ||r(x)||^2`` by Levenberg-Marquardt from ``rj(x) -> (r, J)``.

    Each damped Gauss-Newton step solves (J'J + mu I) h = -J'r; an exactly
    singular system raises ``LinAlgError`` and gives the zero step.  Without
    ``rvv`` each damped system is one ``np.linalg.solve`` call.  With ``rvv``
    the step's two systems share one matrix, which is factored once by the
    per-run solver of ``_factored_solver``: Cholesky, ``dposv`` for h and
    ``dpotrs`` on its factor for the acceleration; or two ``np.linalg.solve``
    calls where the matrix is not numerically positive definite or numpy's
    bundled LAPACK is not found.
    The damped matrix is one buffer for the whole run, rewritten at each
    step through a view of its diagonal, and the diagonal is copied only
    when a step is rejected; the solves never write to it.  The per-run
    solver's factor and right-hand side are buffers for the whole run too,
    and -J'r is formed once per accepted point, not at every step.  The damping
    shrinks with the residual, mu = lambda ||r|| (Yamashita & Fukushima, *On
    the rate of convergence of the Levenberg-Marquardt method*, Computing
    Suppl. 15, 2001; Fan & Yuan, *On the quadratic convergence of the
    Levenberg-Marquardt method without nonsingularity assumption*,
    Computing 74, 2005), which keeps local convergence quadratic when J'J
    is nearly singular at the solution.  mu starts at 1e-6 max diag(J'J)
    (Madsen, Nielsen & Tingleff, *Methods for non-linear least squares
    problems*, 2004, sec. 3.2).  A step that lowers f, so that its gain ratio
    rho (actual over predicted decrease) is positive, is accepted and
    multiplies mu by Nielsen's factor max(1/3, 1 - (2 rho - 1)^3) (ibid.,
    alg. 3.16) times ||r_new|| / ||r_prev||, so lambda follows the gain
    ratio; any other step, a step onto an infeasible point included, is
    rejected and multiplies mu by nu, which then doubles.  So accepted
    iterates stay feasible.  The run stops when f is
    zero or changes by at most ``f_tol`` relative between accepted iterates
    ("converged-ftol"); when |h_i| <= 1e-12 |x_i| for every component,
    when the damped system is too ill-conditioned to give a step with a
    positive predicted decrease, or, with ``rvv``, when a rejected step's
    damped matrix would repeat ("converged-step"); or after ``max_iters``
    steps.  The step test is componentwise so that a component much smaller
    than ||x|| (a parameter next to a large transform) still converges to
    its own relative precision; any step it lets through moves x.  At the
    roundoff floor mu can fall below the ulp of diag(J'J), so that raising
    it leaves the damped matrix of a rejected step unchanged, bit for bit.
    The same matrix gives the same step, rejected again, so that step is
    neither solved nor evaluated: without ``rvv`` it counts as a step and
    raises mu again, so no trial point is evaluated twice.  With ``rvv``
    the repeat ends the run "converged-step" instead: the undamped step
    failed even with its exact second-order correction, so rounding, of f
    at its floor or of normal equations at cond(J)^2 beyond 1/eps, is what
    rejects it, and raising mu from there only buys more rejections.  There
    is no absolute gradient test: the gradient 2 J'r scales with the size
    of x.

    ``rvv(v)``, when given, is the second directional derivative of r along
    v, exact for a residual quadratic in x, and turns on geodesic
    acceleration (Transtrum & Sethna, *Improvements to the Levenberg-Marquardt
    algorithm for nonlinear least-squares minimization*, arXiv:1201.5885,
    2012).  The damped step h above becomes the velocity v; it alone feeds the
    predicted decrease, the step test and the gain ratio.  The acceleration a
    solves (J'J + mu I) a = -J' rvv(v) with the same matrix at the current
    point.  If 2 ||a|| > ``GEODESIC_ALPHA`` ||v||, the step is rejected
    without an evaluation, like a step that raises f; otherwise the trial
    point is x + v + a/2.  Without ``rvv`` the step is v.

    Raises:
        InfeasibleStartError: if ``rj`` marks ``x0`` infeasible.
    """
    cfg = config if config is not None else OptimConfig()
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    r, jac = rj(x)
    if r is None:
        raise InfeasibleStartError("residual is not defined at the starting point")
    n_evals = 1
    f, a, g = float(r @ r), jac.T @ jac, -(jac.T @ r)  # g is minus half the gradient of f
    mu = 1e-6 * float(a.diagonal().max())
    nu = 2.0
    x_tol = 1e-12 * np.abs(x)  # the step test's bound, once per accepted point
    accepted = [(0, f, g)]  # the trace, with each gradient norm taken at the end
    iterations = 0
    status = "max-iters"
    damped = np.empty(a.shape)  # a + mu I, C-ordered, rewritten in place at every step
    diagonal = damped.reshape(-1)[:: x.size + 1]  # a writeable view of its diagonal
    rejected = None  # copy of that diagonal for the last step rejected at x
    n_rejected = n_geodesic_rejected = n_skipped = 0
    # with rvv, both solves of a step share one factorization of damped
    solve, resolve = (np.linalg.solve, None) if rvv is None else _factor(x.size)
    while True:
        if f == 0.0:
            status = "converged-ftol"
            break
        if iterations >= cfg.max_iters:
            break
        iterations += 1
        np.copyto(damped, a)
        diagonal += mu
        if rejected is not None and (diagonal == rejected).all():
            # mu below the diagonal's ulp: the same matrix, so the same rejected step
            if rvv is not None:
                status = "converged-step"
                break
            mu, nu, n_skipped = mu * nu, 2.0 * nu, n_skipped + 1
            continue
        try:
            h = solve(damped, g)
        except np.linalg.LinAlgError:
            h = np.zeros_like(x)
        # decrease of f in the linear model, positive for every exactly solved step
        predicted = float(h @ (mu * h + g))
        if not predicted > 0.0 or (np.abs(h) <= x_tol).all():
            status = "converged-step"
            break
        step = h
        if rvv is not None:
            accel = resolve(-(jac.T @ rvv(h)))
            # the 2-norms as np.linalg.norm takes them, without its dispatch
            if 2.0 * math.sqrt(accel.dot(accel)) > GEODESIC_ALPHA * math.sqrt(h.dot(h)):
                mu, nu, rejected = mu * nu, 2.0 * nu, diagonal.copy()
                n_geodesic_rejected += 1
                continue
            step = h + 0.5 * accel
        x_new = x + step
        r_new, j_new = rj(x_new)
        n_evals += 1
        f_new = math.inf if r_new is None else float(r_new @ r_new)
        if not f_new < f:
            mu, nu, rejected = mu * nu, 2.0 * nu, diagonal.copy()
            n_rejected += 1
            continue
        rho = (f - f_new) / predicted
        f_prev = f
        x, f, jac = x_new, f_new, j_new
        a, g = jac.T @ jac, -(jac.T @ r_new)
        x_tol = 1e-12 * np.abs(x)
        mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3) * math.sqrt(f / f_prev)
        nu, rejected = 2.0, None
        accepted.append((iterations, f, g))
        if f_prev - f <= cfg.f_tol * f_prev:
            status = "converged-ftol"
            break
    # the max-norm of every kept gradient in one call; a max is exact in any order
    maxima = np.abs(np.array([g_k for _, _, g_k in accepted])).max(axis=1).tolist()
    trace = [(k, f_k, 2.0 * m) for (k, f_k, _), m in zip(accepted, maxima)]
    return OptimResult(
        x_best=x,
        f_best=f,
        iterations=iterations,
        status=status,
        n_evals=n_evals,
        trace=trace,
        n_rejected=n_rejected,
        n_geodesic_rejected=n_geodesic_rejected,
        n_skipped=n_skipped,
    )


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


def relative_errors(analytic: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """Elementwise |analytic - approx| / max(1, |approx|), the error every derivative check takes."""
    analytic = np.asarray(analytic, dtype=float)
    approx = np.asarray(approx, dtype=float)
    return np.abs(analytic - approx) / np.maximum(1.0, np.abs(approx))
