"""Least-squares solution of the similarity re-parameterization problem.

Minimizes the summed squared Frobenius residuals of the similarity equations
jointly over the parameter vector and the transform by Levenberg-Marquardt
with geodesic acceleration, over the one point ``z = [theta; vec(T)]`` that
:meth:`CostPlan.split` cuts.  A solve builds one :class:`CostPlan`, which fills a
Jacobian template with -K_C, I (x) A_bb and I (x) C_bb once; ``cost(z, plan)``
then returns the stacked residual vector and its Jacobian in z, filling in at
each point only -(I (x) T) [K_A; K_B], -A^T (x) I and -B^T (x) I.
:meth:`CostPlan.curvature` gives the residual's second directional derivative,
constant because the residual is bilinear in (theta, T).  The paper's closed-form
gradients :func:`grad_theta` and :func:`grad_t` are kept as the oracle of
``2 J^T r``.  Unlike the null-space path nothing here requires the transform
to be invertible, so a vanishing transform is a genuine (spurious)
attractor; the solver only reports that degeneracy, it does not prevent it.
"""

from __future__ import annotations

import time

import numpy as np

from .model import (AffineStructure, Solution, StateSpace, _read_out, _stage, check_dims,
                    kron_t, structured_matrices, vec)
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
    """Residual of :func:`cost` and its Jacobian at ``z = [theta; vec(T)]``, built once per solve.

    The constructor fills a Jacobian buffer with the blocks that depend
    only on the black box and the structure: -K_C in the theta columns and
    I (x) A_bb and I (x) C_bb in the vec(T) columns; it also keeps [K_A; K_B]
    reshaped to (n_x, (n_x + n_u) n_theta), one [A_p, B_p] per parameter
    side by side, so that (I (x) T) [K_A; K_B] is the one product T times it.
    A call writes only what depends on the point, each through a view built
    here: r through the three transposed views that vec its blocks;
    -(I (x) T) [K_A; K_B] into the theta columns; and the block diagonals
    that hold every nonzero of [A, B]^T (x) I, as their constant entries
    (of I (x) A_bb) minus [A, B]^T.  It returns copies of the two buffers, and
    :meth:`curvature` a copy of its own, so no returned array changes on a
    later call and one plan serves every point of a solve.  The buffers
    make a plan, like a ``ReducedResidual``, unsafe to share between threads.
    """

    def __init__(self, blackbox: StateSpace, structure: AffineStructure) -> None:
        d = structure.dims
        n_x, n_theta = d.n_x, structure.n_theta
        k = structure.K
        self.blackbox, self.structure = blackbox, structure
        self.n_x, self.n_theta = n_x, n_theta
        n_xu = n_x + d.n_u
        self.n_ab = n_ab = n_x * n_xu
        self.k_ab = k[:n_ab]
        # column p * (n_x + n_u) + j holds column j of [A_p, B_p]
        self.k_ab_cols = np.ascontiguousarray(self.k_ab.reshape(n_x, -1, order="F"))
        # r and its blocks r_A, r_B, r_C as the transposed views that vec them
        self.r = np.empty(k.shape[0])
        self.r_a = self.r[: n_x * n_x].reshape(n_x, n_x).T
        self.r_b = self.r[n_x * n_x: n_ab].reshape(d.n_u, n_x).T
        self.r_c = self.r[n_ab:].reshape(n_x, d.n_y).T
        eye = np.eye(n_x)
        self.jac = np.zeros((k.shape[0], n_theta + n_x * n_x))
        self.jac[n_ab:, :n_theta] = -k[n_ab:]
        self.jac[: n_x * n_x, n_theta:] = kron_t(eye, blackbox.A)
        self.jac[n_ab:, n_theta:] = kron_t(eye, blackbox.C)
        # entry [i, p, j] at row j n_x + i, column p: -(I (x) T) [K_A; K_B]
        self.theta_cols = self.jac[:n_ab, :n_theta].reshape(n_xu, n_x, n_theta).transpose(1, 2, 0)
        # entry [j, i, m] at row j n_x + i, column n_theta + m n_x + i: the only nonzeros
        # of [A, B]^T (x) I, whose entry there is [A, B][m, j]; and their constant entries
        self.ab_t_diag = np.einsum("jimi->jim",
                                   self.jac[:n_ab, n_theta:].reshape(n_xu, n_x, n_x, n_x))
        self.ab_t_base = self.ab_t_diag.copy()
        # the curvature, whose C rows stay zero, and its [A, B] rows as the view that vecs them
        self.rvv = np.zeros(k.shape[0])
        self.rvv_ab = self.rvv[:n_ab].reshape(n_xu, n_x).T

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(theta, T)`` of ``z = [theta; vec(T)]``: T is unvec'd by reshape, an F-ordered view."""
        return z[: self.n_theta], z[self.n_theta:].reshape(self.n_x, self.n_x, order="F")

    def __call__(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(r, J)`` at ``z = [theta; vec(T)]``; trusts its input."""
        n_x, n_ab, bb = self.n_x, self.n_ab, self.blackbox
        theta, t = self.split(z)
        stacked = self.structure.kappa0 + self.structure.K @ theta
        # unvec of float arrays, by reshape alone
        ab = stacked[:n_ab].reshape(n_x, -1, order="F")
        t_ab = t @ ab
        np.subtract(bb.A @ t, t_ab[:, :n_x], out=self.r_a)
        np.subtract(bb.B, t_ab[:, n_x:], out=self.r_b)
        np.subtract(bb.C @ t, stacked[n_ab:].reshape(-1, n_x, order="F"), out=self.r_c)
        np.negative((t @ self.k_ab_cols).reshape(self.theta_cols.shape), out=self.theta_cols)
        np.subtract(self.ab_t_base, ab.T[:, None, :], out=self.ab_t_diag)
        return self.r.copy(), self.jac.copy()

    def curvature(self, v: np.ndarray) -> np.ndarray:
        """Second directional derivative of the residual along ``v = [d_theta; vec(dT)]``.

        The residual is bilinear in (theta, T) and its only product term is
        -T [A, B](theta), so the derivative is [vec(-2 dT d[A, B]); 0] at
        every point, with vec(d[A, B]) = [K_A; K_B] d_theta (the linear part
        of the parameter map, no kappa0).
        """
        d_theta, d_t = self.split(v)
        d_ab = (self.k_ab @ d_theta).reshape(self.n_x, -1, order="F")
        self.rvv_ab[...] = -2.0 * d_t @ d_ab
        return self.rvv.copy()


def cost(z: np.ndarray, plan: CostPlan) -> tuple[np.ndarray, np.ndarray]:
    """Stacked similarity residual ``r`` and its Jacobian ``J`` at ``z = [theta; vec(T)]``.

    r = [vec(A_bb T - T A); vec(B_bb - T B); vec(C_bb T - C)], so the
    least-squares objective is ``r @ r`` and its gradient ``2 J^T r``.  r is
    zero exactly when ``(theta, T)`` solves the similarity equations; the
    transform need not be invertible.  With K_A, K_B and K_C the row blocks
    of the parameter map, the theta columns of J are
    -[(I (x) T) K_A; (I (x) T) K_B; K_C] and the vec(T) columns are
    [I (x) A_bb - A^T (x) I; -B^T (x) I; I (x) C_bb].  ``plan`` is the
    :class:`CostPlan` of the black box and the structure.
    """
    return plan(z)


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
    """Minimize ``r @ r`` of :func:`cost` over ``z = [theta; vec(T)]`` by Levenberg-Marquardt.

    Each step is corrected by geodesic acceleration from the exact second
    derivative of :meth:`CostPlan.curvature` (see :func:`graybox.optim.lm`), so
    the run ends "converged-step" at the first rejected step whose damped
    matrix would repeat bit for bit, where rounding rejects even the
    undamped step.  The diagnostics count the residual evaluations in
    ``n_evals``, the damped steps, rejected ones included, in
    ``iterations``, and those steps by outcome in ``steps``
    (:attr:`graybox.optim.OptimResult.steps`).

    Non-convergence is reported through ``result.status`` with the best point
    still returned, by the stages' one epilogue ``model._stage``; the flag
    ``degenerate_transform`` is its ``Solution.degenerate``, the spurious
    minimum where the transform collapses.
    ``init`` is trusted; :func:`graybox.solve` validates one from outside.
    Mismatched dimensions raise ``ValueError``, as in :func:`solve_nullspace`.
    """
    cfg = config if config is not None else OptimConfig()
    check_dims(blackbox, structure)
    theta0, t0 = init if init is not None else default_init(blackbox, structure)
    started = time.perf_counter()
    plan = CostPlan(blackbox, structure)
    # through the module-level name: bench/tracer.py wraps graybox.lsq.cost
    result = lm(lambda z: cost(z, plan), np.concatenate([np.ravel(theta0), vec(t0)]), cfg,
                rvv=plan.curvature)
    theta_hat, t_hat = plan.split(result.x_best)
    t_hat = t_hat.copy(order="C")  # read out on the array that is returned and written
    sol = _stage(theta_hat, t_hat, result, _read_out(blackbox, structure, theta_hat, t_hat),
                 started, n_evals=result.n_evals, iterations=result.iterations, steps=result.steps)
    sol.diagnostics["degenerate_transform"] = sol.degenerate
    return sol
