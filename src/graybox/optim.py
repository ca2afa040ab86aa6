"""Self-contained BFGS and Levenberg-Marquardt minimizers.

BFGS and its strong-Wolfe line search take one callable ``fg(x) -> (f, g)``
that returns the objective and its gradient together, so every point is
evaluated once.  Objectives may return ``(+inf, None)`` to mark a point
infeasible; the line search treats that as a failed sufficient-decrease
test, so accepted iterates never leave the feasible region.
Levenberg-Marquardt minimizes ``||r(x)||^2`` from one callable
``rj(x) -> (r, J)``; ``(None, None)`` marks an infeasible point, and a step
onto one is rejected like a step that raises the objective.  Every dense
solve, of lm's damped systems and of the null-space evaluator's inverses
of T, runs in a :func:`_dense_solver` workspace on the LAPACK bundled with
numpy: ``dgesv``, with the bits of ``np.linalg.solve`` and
``np.linalg.inv``.  Its owners check it out of a per-thread pool keyed on
the factory and the order (:func:`_checkout`), one owner at a time, and
hand it back when done, so solves in a row build none.  With geodesic
acceleration, lm factors each damped matrix once, by Cholesky ``dposv``,
and reuses the factor through ``dpotrs``, or runs ``dgesv`` twice where the
matrix is not numerically positive definite.  Where that library is not found, every solve is
``np.linalg.solve`` or ``np.linalg.inv``.  An ``lm`` result counts its
damped steps by outcome in ``steps``, the dict every report writes.

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
import threading
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


def _bundled_lapack() -> tuple[Callable, Callable, Callable, type] | None:
    """``(dposv, dpotrs, dgesv, index)`` from the LAPACK inside numpy's own install.

    numpy's wheels bundle scipy-openblas (in ``numpy.libs/`` or
    ``numpy/.dylibs/``), whose symbols carry the ``scipy_`` prefix and the
    suffix of their integer width: ``_64_`` for 64-bit LAPACK integers,
    ``_`` for 32-bit ones.  The first library that exports all three
    routines under one suffix, ``_64_`` tried first, gives them, and
    ``index`` is the numpy integer type of that width.  None where no such
    library is found.
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
                                for name in ("dposv", "dpotrs", "dgesv")]
                except AttributeError:
                    continue
                # each takes eight pointers: UPLO, N, NRHS, A, LDA, B, LDB, INFO for the
                # Cholesky pair, N, NRHS, A, LDA, IPIV, B, LDB, INFO for dgesv
                for routine in routines:
                    routine.argtypes, routine.restype = [ctypes.c_void_p] * 8, None
                return (*routines, index)
    return None


def _dense_solver(lapack: tuple[Callable, Callable, Callable, type] | None) -> Callable:
    """``dense(n) -> (solve, inverse, solve_spd, resolve_spd)``: every dense solve at order ``n``.

    ``solve(a, b)`` solves ``a x = b`` for a vector ``b`` and ``inverse(a)``
    solves ``a X = I``, with the bits of ``np.linalg.solve`` and
    ``np.linalg.inv``; ``solve_spd(a, b)`` solves with a symmetric ``a``, and
    ``resolve_spd(a, b)`` then solves with the same ``a``, unchanged since.
    Each raises ``np.linalg.LinAlgError`` on an exactly singular ``a``.
    Without ``lapack`` the four are ``np.linalg.solve``, ``np.linalg.inv``
    and ``np.linalg.solve`` twice.  With ``lapack`` from
    :func:`_bundled_lapack` they share one workspace, built once per
    ``dense`` call, since setting up ctypes arguments costs more than a small
    solve: a float buffer for an F-ordered copy of ``a`` and the right-hand
    sides, an index-width buffer, the identity, and raw pointers into both
    buffers.  ``solve`` and ``inverse`` run ``dgesv``, the call numpy's own
    make.  ``solve_spd`` runs ``dposv`` (Cholesky, lower triangle) and
    ``resolve_spd`` ``dpotrs`` on the factor it left, which gives the bits
    of factoring ``a`` again.  Where ``dpotrf`` finds ``a`` not numerically
    positive definite, dposv's own INFO slot, apart from dgesv's, stays
    nonzero, and ``solve_spd`` and then ``resolve_spd`` each run ``solve``.
    ``resolve_spd`` returns the right-hand side buffer, which the next call
    overwrites; the others return new arrays, ``inverse`` a C-ordered one.
    Each call copies its arguments into the buffers, which each closure
    holds, so LAPACK reads and writes nothing else, and a workspace gives the
    same bits however often it has served before.  The identity is built by
    the first ``inverse``, so a workspace that never inverts (``lm``'s) holds
    16 n^2 + 8 (n + 5) bytes, and one that does 8 n^2 more.  The arguments
    are trusted: float64 matrices of order ``n``, and matching vectors.
    Callers take their workspaces from :func:`_checkout`, not from ``dense``.
    """
    def dense(n: int) -> tuple[Callable, Callable, Callable, Callable]:
        if lapack is None:
            return np.linalg.solve, np.linalg.inv, np.linalg.solve, np.linalg.solve
        dposv, dpotrs, dgesv, index = lapack
        floats = np.empty((2, n, n))
        factors_t, rhs_t = floats
        factors, rhs = factors_t.T, rhs_t.T  # the copy of a, the right-hand sides: F-ordered
        column = rhs[:, 0]
        identity = None  # np.eye(n), once this workspace first inverts
        # N, NRHS, LDA = LDB, dgesv's INFO, dposv's INFO, then the n pivots
        ints = np.array([n, 1, max(n, 1), 0, 0] + [0] * n, dtype=index)
        # one .ctypes.data read per buffer: each read costs over a microsecond
        base, size = ints.ctypes.data, ints.itemsize
        order_p, one_p, lead_p, lu_info_p, spd_info_p, pivots_p = [
            ctypes.c_void_p(base + k * size) for k in range(6)]
        base = floats.ctypes.data
        factors_p, rhs_p = ctypes.c_void_p(base), ctypes.c_void_p(base + factors_t.nbytes)
        solve_args = (order_p, one_p, factors_p, lead_p, pivots_p, rhs_p, lead_p, lu_info_p)
        inverse_args = (order_p, order_p, *solve_args[2:])  # NRHS = N
        spd_args = (ctypes.c_char_p(b"L"), order_p, one_p, factors_p, lead_p, rhs_p, lead_p,
                    spd_info_p)

        def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            factors[...] = a
            column[...] = b
            dgesv(*solve_args)
            if ints[3]:  # INFO > 0: an exactly zero pivot
                raise np.linalg.LinAlgError("Singular matrix")
            return column.copy()

        def inverse(a: np.ndarray) -> np.ndarray:
            nonlocal identity
            if identity is None:
                identity = np.eye(n)
            factors[...] = a
            rhs[...] = identity
            dgesv(*inverse_args)
            if ints[3]:
                raise np.linalg.LinAlgError("Singular matrix")
            return rhs.copy()

        def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            factors_t[...] = a  # a = a^T: one contiguous copy of a C-ordered a
            column[...] = b
            dposv(*spd_args)
            if ints[4] == 0:  # else INFO > 0: a leading minor is not positive definite
                return column.copy()
            return solve(a, b)

        def resolve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            if ints[4]:  # solve_spd fell back, and left no Cholesky factor of a
                return solve(a, b)
            column[...] = b
            dpotrs(*spd_args)
            return column

        return solve, inverse, solve_spd, resolve_spd

    return dense


_lapack = _bundled_lapack()
# lm's damped solves, and the null-space evaluator's inverses of T
_dense = _dense_solver(_lapack)

# idle workspaces a thread keeps between their owners
POOL_SIZE = 8


class _Pool(threading.local):
    """This thread's idle workspaces, ``[((dense, n), workspace)]``, the oldest returned first."""

    def __init__(self) -> None:
        self.idle = []


_pool = _Pool()


def _checkout(dense: Callable, n: int) -> tuple[Callable, Callable, Callable, Callable]:
    """A workspace ``dense(n)`` for one owner: the thread's latest idle one, else a new one.

    A workspace is checked out by one owner at a time (an ``lm`` run, a
    null-space search), which hands it back to :func:`_checkin` when it is
    done, so runs in a row share one and a run nested in another's callback
    gets its own: no owner sees the factor or the buffers of another.  The
    key holds the factory ``dense`` itself, so a replaced ``_dense`` gets
    workspaces of its own.  Each thread keeps its own idle workspaces, at
    most ``POOL_SIZE`` of them, the least recently returned dropped first:
    a thread retains at most ``POOL_SIZE`` times the largest workspace it
    has used (see :func:`_dense_solver`), under 0.7 MB at the order 73 of
    a ``chain8`` lsq polish.  An owner that raises drops its workspace.
    """
    key, idle = (dense, n), _pool.idle
    for k in range(len(idle) - 1, -1, -1):
        if idle[k][0] == key:
            return idle.pop(k)[1]
    return dense(n)


def _checkin(dense: Callable, n: int, workspace: tuple) -> None:
    """Return ``workspace``, checked out of :func:`_checkout` by ``(dense, n)``, to this thread."""
    idle = _pool.idle
    idle.append(((dense, n), workspace))
    if len(idle) > POOL_SIZE:
        del idle[0]


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
    ``steps``, empty for :func:`bfgs`, counts the damped steps of :func:`lm`
    by outcome, the dict a report writes: ``accepted``; ``rejected``,
    evaluated and rejected; ``geodesic_rejected``, rejected by the
    acceleration test without an evaluation; and ``skipped``, which repeated
    a rejected damped matrix and were neither solved nor evaluated.  With
    the step that ended a "converged-step" run, they add up to ``iterations``.
    """

    x_best: np.ndarray
    f_best: float
    iterations: int
    status: str
    n_evals: int
    trace: list[tuple[int, float, float]] = field(default_factory=list)
    steps: dict[str, int] = field(default_factory=dict)

    @property
    def grad_norm(self) -> float:
        """The gradient's infinity norm at ``x_best``: the last entry of ``trace``."""
        return self.trace[-1][2]


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
    singular system raises ``LinAlgError`` and gives the zero step.  Every
    solve runs in one ``_dense_solver`` workspace of order ``x0.size``,
    checked out of this thread's pool (:func:`_checkout`) after the first
    evaluation and handed back at the end, so the runs of a multistart share
    one, and an ``lm`` nested in ``rj`` or ``rvv`` gets its own.  Without
    ``rvv`` each damped system is one ``solve``, ``dgesv`` with
    ``np.linalg.solve``'s bits; with ``rvv`` the step's two systems share
    one matrix, factored once by ``solve_spd`` (Cholesky, ``dposv``) for h
    and reused by ``resolve_spd`` (``dpotrs``) for the acceleration, or
    solved twice by ``dgesv`` where the matrix is not numerically positive
    definite.  Without numpy's bundled LAPACK every solve is
    ``np.linalg.solve``.
    The damped matrix is one buffer for the whole run, rewritten at each
    step through a view of its diagonal, and the diagonal is copied only
    when a step is rejected; the solves never write to it.  The
    workspace's buffers serve the whole run too, and -J'r is formed once
    per accepted point, not at every step.  The damping
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

    The result counts the steps by outcome in ``steps``; its ``n_evals``,
    the calls of ``rj``, is then ``1 + accepted + rejected``.

    Raises:
        InfeasibleStartError: if ``rj`` marks ``x0`` infeasible.
    """
    cfg = config if config is not None else OptimConfig()
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    r, jac = rj(x)
    if r is None:
        raise InfeasibleStartError("residual is not defined at the starting point")
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
    steps = {"rejected": 0, "geodesic_rejected": 0, "skipped": 0}  # the accepted are in the trace
    # with rvv, both solves of a step share one Cholesky factorization of damped
    dense = _dense
    workspace = _checkout(dense, x.size)
    lu_solve, _, *spd = workspace
    solve, resolve = (lu_solve, None) if rvv is None else spd
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
            mu, nu = mu * nu, 2.0 * nu
            steps["skipped"] += 1
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
            accel = resolve(damped, -(jac.T @ rvv(h)))
            # the 2-norms as np.linalg.norm takes them, without its dispatch
            if 2.0 * math.sqrt(accel.dot(accel)) > GEODESIC_ALPHA * math.sqrt(h.dot(h)):
                mu, nu, rejected = mu * nu, 2.0 * nu, diagonal.copy()
                steps["geodesic_rejected"] += 1
                continue
            step = h + 0.5 * accel
        x_new = x + step
        r_new, j_new = rj(x_new)
        f_new = math.inf if r_new is None else float(r_new @ r_new)
        if not f_new < f:
            mu, nu, rejected = mu * nu, 2.0 * nu, diagonal.copy()
            steps["rejected"] += 1
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
    _checkin(dense, x.size, workspace)
    # the max-norm of every kept gradient in one call; a max is exact in any order
    maxima = np.abs(np.array([g_k for _, _, g_k in accepted])).max(axis=1).tolist()
    trace = [(k, f_k, 2.0 * m) for (k, f_k, _), m in zip(accepted, maxima)]
    steps = {"accepted": len(trace) - 1, **steps}
    return OptimResult(
        x_best=x,
        f_best=f,
        iterations=iterations,
        status=status,
        n_evals=1 + steps["accepted"] + steps["rejected"],
        trace=trace,
        steps=steps,
    )


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of ``fun``, its column i at step 1e-6 (1 + |x_i|)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    columns = []
    for i in range(x.size):
        h = 1e-6 * (1.0 + abs(x[i]))
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
