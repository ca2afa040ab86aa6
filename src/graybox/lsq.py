"""Least-squares solution of the similarity re-parameterization problem.

Minimizes the summed squared Frobenius residuals of the similarity equations
jointly over the parameter vector and the transform by Levenberg-Marquardt
with geodesic acceleration.  A solve builds one :class:`CostPlan`, which fills
a Jacobian template with the blocks -K_C, I (x) A_bb and I (x) C_bb once;
:func:`cost` then returns the stacked residual vector and its Jacobian in
[theta; vec(T)], filling in at each point only -(I (x) T) [K_A; K_B],
-A^T (x) I and -B^T (x) I.  :meth:`CostPlan.curvature` gives the residual's
second directional derivative, which is constant because the residual is
bilinear in (theta, T).  The paper's closed-form gradients :func:`grad_theta`
and :func:`grad_t` are kept as the oracle of ``2 J^T r``.  Unlike the
null-space path nothing here requires the transform to be invertible, so a
vanishing transform is a genuine (spurious) attractor; the solver only
reports that degeneracy, it does not prevent it.
"""

from __future__ import annotations

import time

import numpy as np

from .model import (SINGULAR_RTOL, AffineStructure, Solution, StateSpace, _residual_norms,
                    kron_t, rcond, structured_matrices, vec)
# bound here only because bench/tracer.py wraps graybox.lsq.eval_structure by name
from .model import eval_structure  # noqa: F401
from .nullspace import extract_theta, structure_projector
from .optim import OptimConfig, lm
# bound here only because bench/tracer.py wraps graybox.lsq.bfgs by name
from .optim import bfgs  # noqa: F401

__all__ = [
    "CostPlan",
    "cost",
    "default_init",
    "grad_t",
    "grad_theta",
    "residual_matrices",
    "solve_lsq",
]


def residual_matrices(theta, t, blackbox, structure) -> tuple:
    """Structured A, B at ``theta`` and the three residual matrices; trusts its inputs."""
    a, b, c = structured_matrices(structure, theta)
    return a, b, blackbox.A @ t - t @ a, blackbox.B - t @ b, blackbox.C @ t - c


class CostPlan:
    """Residual of :func:`cost` and its Jacobian in [theta; vec(T)], built once per solve.

    The constructor fills a Jacobian template with the blocks that depend
    only on the black box and the structure: -K_C in the theta columns and
    I (x) A_bb and I (x) C_bb in the vec(T) columns; it also keeps [K_A; K_B]
    reshaped to (n_x, (n_x + n_u) n_theta), one [A_p, B_p] per parameter
    side by side, so that (I (x) T) [K_A; K_B] is the one product T times it.
    A call copies the template and fills in only what depends on the point:
    -(I (x) T) [K_A; K_B], and -A^T (x) I and -B^T (x) I, subtracted on the
    block diagonals that hold every nonzero of [A, B]^T (x) I, through flat
    indices computed once; no call changes the plan, so one plan serves every
    point of a solve.  :meth:`curvature` reuses the plan's [K_A; K_B].
    """

    def __init__(self, blackbox: StateSpace, structure: AffineStructure) -> None:
        d = structure.dims
        n_x, n_theta = d.n_x, structure.n_theta
        k = structure.K
        self.blackbox, self.structure = blackbox, structure
        self.n_x, self.n_theta = n_x, n_theta
        self.n_ab = n_x * (n_x + d.n_u)
        self.vec_b = vec(blackbox.B)
        self.k_ab = k[: self.n_ab]
        # column p * (n_x + n_u) + j holds column j of [A_p, B_p]
        self.k_ab_cols = np.ascontiguousarray(self.k_ab.reshape(n_x, -1, order="F"))
        eye = np.eye(n_x)
        self.jac = np.zeros((k.shape[0], n_theta + n_x * n_x))
        self.jac[self.n_ab:, :n_theta] = -k[self.n_ab:]
        self.jac[: n_x * n_x, n_theta:] = kron_t(eye, blackbox.A)
        self.jac[self.n_ab:, n_theta:] = kron_t(eye, blackbox.C)
        # flat index [j, i, m] of row j n_x + i, column n_theta + m n_x + i: the only
        # nonzeros of [A, B]^T (x) I, whose entry there is [A, B][m, j]
        j, i, m = np.ogrid[: self.n_ab // n_x, :n_x, :n_x]
        self.ab_t_diag = (j * n_x + i) * self.jac.shape[1] + n_theta + m * n_x + i

    def __call__(self, theta: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(r, J)`` at ``(theta, t)``; trusts its inputs."""
        n_x, n_theta, n_ab, bb = self.n_x, self.n_theta, self.n_ab, self.blackbox
        stacked = self.structure.kappa0 + self.structure.K @ theta
        # vec and unvec of float arrays, by reshape alone
        ab = stacked[:n_ab].reshape(n_x, -1, order="F")
        t_ab = t @ ab
        r = np.concatenate([(bb.A @ t - t_ab[:, :n_x]).reshape(-1, order="F"),
                            self.vec_b - t_ab[:, n_x:].reshape(-1, order="F"),
                            (bb.C @ t).reshape(-1, order="F") - stacked[n_ab:]])
        jac = self.jac.copy()
        jac[:n_ab, :n_theta] = -(t @ self.k_ab_cols).reshape(n_ab, n_theta, order="F")
        flat = jac.reshape(-1)
        flat[self.ab_t_diag] -= ab.T[:, None, :]
        return r, jac

    def curvature(self, v: np.ndarray) -> np.ndarray:
        """Second directional derivative of the residual along ``v = [d_theta; vec(dT)]``.

        The residual is bilinear in (theta, T) and its only product term is
        -T [A, B](theta), so the derivative is [vec(-2 dT d[A, B]); 0] at
        every point, with vec(d[A, B]) = [K_A; K_B] d_theta (the linear part
        of the parameter map, no kappa0).
        """
        n_x, n_theta = self.n_x, self.n_theta
        d_ab = (self.k_ab @ v[:n_theta]).reshape(n_x, -1, order="F")
        out = np.zeros(self.jac.shape[0])
        out[: self.n_ab] = (-2.0 * v[n_theta:].reshape(n_x, n_x, order="F") @ d_ab).reshape(
            -1, order="F")
        return out


def cost(
    theta: np.ndarray,
    t: np.ndarray,
    blackbox: StateSpace,
    structure: AffineStructure,
    plan: CostPlan | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked similarity residual ``r`` and its Jacobian ``J`` in [theta; vec(T)].

    r = [vec(A_bb T - T A); vec(B_bb - T B); vec(C_bb T - C)], so the
    least-squares objective is ``r @ r`` and its gradient ``2 J^T r``.  r is
    zero exactly when ``(theta, t)`` solves the similarity equations; the
    transform need not be invertible.  With K_A, K_B and K_C the row blocks
    of the parameter map, the theta columns of J are
    -[(I (x) T) K_A; (I (x) T) K_B; K_C] and the vec(T) columns are
    [I (x) A_bb - A^T (x) I; -B^T (x) I; I (x) C_bb].  ``plan`` is the
    :class:`CostPlan` of ``blackbox`` and ``structure``; without one, a
    plan is built for this call.
    """
    return (plan if plan is not None else CostPlan(blackbox, structure))(theta, t)


def grad_theta(t: np.ndarray, res: tuple, structure: AffineStructure) -> np.ndarray:
    """The paper's gradient of ``r @ r`` in the parameter vector, from :func:`residual_matrices`.

    The residuals are pulled back through the transform onto the stacked
    (A, B, C) entries and then contracted with the transposed parameter map.
    """
    _, _, r_a, r_b, r_c = res
    pullback = np.concatenate([vec(t.T @ r_a), vec(t.T @ r_b), vec(r_c)])
    return -2.0 * (structure.K.T @ pullback)


def grad_t(res: tuple, blackbox: StateSpace) -> np.ndarray:
    """The paper's gradient of ``r @ r`` in the transform, from :func:`residual_matrices`."""
    a, b, r_a, r_b, r_c = res
    return 2.0 * (blackbox.A.T @ r_a - r_a @ a.T - r_b @ b.T + blackbox.C.T @ r_c)


def default_init(
    blackbox: StateSpace, structure: AffineStructure
) -> tuple[np.ndarray, np.ndarray]:
    """Identity transform plus the black-box entries projected onto the structure.

    Exact when the black-box is already in structured coordinates; cheap and
    deterministic otherwise.
    """
    theta0 = extract_theta(blackbox.stacked(), structure_projector(structure))
    return theta0, np.eye(blackbox.dims.n_x)


def solve_lsq(
    blackbox: StateSpace,
    structure: AffineStructure,
    init: tuple[np.ndarray, np.ndarray] | None = None,
    config: OptimConfig | None = None,
) -> Solution:
    """Minimize ``r @ r`` of :func:`cost` over [theta; vec(T)] by Levenberg-Marquardt.

    Each step is corrected by geodesic acceleration from the exact second
    derivative of :meth:`CostPlan.curvature` (see :func:`graybox.optim.lm`).  The
    diagnostics count the residual evaluations in ``n_evals`` and the damped
    steps, rejected ones included, in ``iterations``.

    Non-convergence is reported through ``result.status`` with the best point
    still returned.  The diagnostics flag ``degenerate_transform`` marks a
    final transform whose reciprocal condition number falls below
    ``SINGULAR_RTOL``, the spurious minimum where the transform collapses.
    ``init`` is trusted; :func:`graybox.solve` validates one from outside.
    """
    cfg = config if config is not None else OptimConfig()
    theta0, t0 = init if init is not None else default_init(blackbox, structure)
    n_theta = structure.n_theta
    n_x = blackbox.dims.n_x
    started = time.perf_counter()

    def split(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return z[:n_theta], z[n_theta:].reshape(n_x, n_x, order="F")  # unvec, by reshape alone

    plan = CostPlan(blackbox, structure)

    def rj(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return cost(*split(z), blackbox, structure, plan)

    result = lm(rj, np.concatenate([np.ravel(theta0), vec(t0)]), cfg, rvv=plan.curvature)
    theta_hat, t_hat = split(result.x_best)
    t_hat = t_hat.copy(order="C")  # read out on the array that is returned and written
    rc = rcond(t_hat)
    degenerate = rc < SINGULAR_RTOL
    res = _residual_norms(blackbox, t_hat, *structured_matrices(structure, theta_hat))
    diagnostics = {
        "objective_final": result.f_best,
        "grad_norm": result.grad_norm,
        "n_evals": result.n_evals,
        "iterations": result.iterations,
        "residuals": {"r_A": res.r_a, "r_B": res.r_b, "r_C": res.r_c},
        "degenerate_transform": degenerate,
        "cond_T": 1.0 / rc if not degenerate else None,
        "wall_time_ms": (time.perf_counter() - started) * 1e3,
        "trace": [[k, f, g] for k, f, g in result.trace],
    }
    return Solution(theta_hat, t_hat, result, diagnostics, res, rc)
