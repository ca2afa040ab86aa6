"""Least-squares solution of the similarity re-parameterization problem.

Minimizes the summed squared Frobenius residuals of the similarity equations
jointly over the parameter vector and the transform.  :func:`cost` returns
the value and the analytic gradients of both blocks from one set of residual
matrices.  Unlike the null-space path nothing here requires the transform to
be invertible, so a vanishing transform is a genuine (spurious) attractor;
the solver only reports that degeneracy, it does not prevent it.
"""

from __future__ import annotations

import time

import numpy as np

from .model import (SINGULAR_RTOL, AffineStructure, Solution, StateSpace, eval_structure,
                    rcond, residuals, structured_matrices, unvec, vec)
from .nullspace import extract_theta, structure_projector
from .optim import OptimConfig, bfgs

__all__ = [
    "cost",
    "default_init",
    "solve_lsq",
]

def _residual_matrices(theta, t, blackbox, structure):
    """Structured A, B at ``theta`` and the residual matrices; trusts its inputs."""
    a, b, c = structured_matrices(structure, theta)
    return a, b, blackbox.A @ t - t @ a, blackbox.B - t @ b, blackbox.C @ t - c


def cost(
    theta: np.ndarray, t: np.ndarray, blackbox: StateSpace, structure: AffineStructure
) -> tuple[float, np.ndarray, np.ndarray]:
    """Sum of squared Frobenius norms of the three similarity residuals, and its gradients.

    Returns ``(f, g_theta, g_T)``, with ``g_T`` an n_x by n_x matrix; all
    three come from one set of residual matrices.  ``f`` is zero exactly
    when ``(theta, t)`` solves the similarity equations; the transform need
    not be invertible for evaluation.
    """
    res = _residual_matrices(theta, t, blackbox, structure)
    _, _, r_a, r_b, r_c = res
    f = float(np.sum(r_a * r_a) + np.sum(r_b * r_b) + np.sum(r_c * r_c))
    return f, grad_theta(t, res, structure), grad_t(res, blackbox)


def grad_theta(t: np.ndarray, res: tuple, structure: AffineStructure) -> np.ndarray:
    """Gradient of :func:`cost` in the parameter vector, from its residual matrices.

    The residuals are pulled back through the transform onto the stacked
    (A, B, C) entries and then contracted with the transposed parameter map.
    """
    _, _, r_a, r_b, r_c = res
    pullback = np.concatenate([vec(t.T @ r_a), vec(t.T @ r_b), vec(r_c)])
    return -2.0 * (structure.K.T @ pullback)


def grad_t(res: tuple, blackbox: StateSpace) -> np.ndarray:
    """Gradient of :func:`cost` in the transform, from its residual matrices."""
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
    """Minimize :func:`cost` over the stacked variable [theta; vec(T)] with BFGS.

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
        return z[:n_theta], unvec(z[n_theta:], n_x, n_x)

    def fg(z: np.ndarray) -> tuple[float, np.ndarray]:
        f, g_theta, g_t = cost(*split(z), blackbox, structure)
        return f, np.concatenate([g_theta, vec(g_t)])

    result = bfgs(fg, np.concatenate([np.ravel(theta0), vec(t0)]), cfg)
    theta_hat, t_hat = split(result.x_best)
    rc = rcond(t_hat)
    degenerate = rc < SINGULAR_RTOL
    res = residuals(blackbox, t_hat, eval_structure(structure, theta_hat))
    diagnostics = {
        "objective_final": result.f_best,
        "grad_norm": result.grad_norm,
        "n_evals": result.n_evals,
        "residuals": {"r_A": res.r_a, "r_B": res.r_b, "r_C": res.r_c},
        "degenerate_transform": degenerate,
        "cond_T": 1.0 / rc if not degenerate else None,
        "wall_time_ms": (time.perf_counter() - started) * 1e3,
        "trace": [[k, f, g] for k, f, g in result.trace],
    }
    return Solution(theta=theta_hat, T=t_hat.copy(), result=result, diagnostics=diagnostics)
