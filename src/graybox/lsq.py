"""Least-squares solution of the similarity re-parameterization problem.

Minimizes the summed squared Frobenius residuals of the similarity equations
jointly over the parameter vector and the transform by Levenberg-Marquardt.
:func:`cost` returns the stacked residual vector and its Jacobian in
[theta; vec(T)] from one set of residual matrices; the paper's closed-form
gradients :func:`grad_theta` and :func:`grad_t` are kept as the oracle of
``2 J^T r``.  Unlike the null-space path nothing here requires the transform
to be invertible, so a vanishing transform is a genuine (spurious)
attractor; the solver only reports that degeneracy, it does not prevent it.
"""

from __future__ import annotations

import time

import numpy as np

from .model import (SINGULAR_RTOL, AffineStructure, Solution, StateSpace, eval_structure,
                    kron_t, rcond, residuals, structured_matrices, unvec, vec)
from .nullspace import extract_theta, structure_projector
from .optim import OptimConfig, lm
# bound here only because bench/tracer.py wraps graybox.lsq.bfgs by name
from .optim import bfgs  # noqa: F401

__all__ = [
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


def cost(
    theta: np.ndarray, t: np.ndarray, blackbox: StateSpace, structure: AffineStructure
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked similarity residual ``r`` and its Jacobian ``J`` in [theta; vec(T)].

    r = [vec(A_bb T - T A); vec(B_bb - T B); vec(C_bb T - C)], so the
    least-squares objective is ``r @ r`` and its gradient ``2 J^T r``.  r is
    zero exactly when ``(theta, t)`` solves the similarity equations; the
    transform need not be invertible.  With K_A, K_B and K_C the row blocks
    of the parameter map, the theta columns of J are
    -[(I (x) T) K_A; (I (x) T) K_B; K_C] and the vec(T) columns are
    [I (x) A_bb - A^T (x) I; -B^T (x) I; I (x) C_bb].
    """
    a, b, r_a, r_b, r_c = residual_matrices(theta, t, blackbox, structure)
    k = structure.K
    n_x, n_theta = t.shape[0], k.shape[1]
    nx2, n_ab = n_x * n_x, n_x * (n_x + b.shape[1])
    eye = np.eye(n_x)
    jac = np.empty((k.shape[0], n_theta + nx2))
    # (I (x) T) [K_A; K_B] in one product: each column of [K_A; K_B] is vec([A_p, B_p])
    jac[:n_ab, :n_theta] = -(t @ k[:n_ab].reshape(n_x, -1, order="F")).reshape(
        n_ab, n_theta, order="F")
    jac[n_ab:, :n_theta] = -k[n_ab:]
    jac[:nx2, n_theta:] = kron_t(eye, blackbox.A) - kron_t(a, eye)
    jac[nx2:n_ab, n_theta:] = -kron_t(b, eye)
    jac[n_ab:, n_theta:] = kron_t(eye, blackbox.C)
    return np.concatenate([vec(r_a), vec(r_b), vec(r_c)]), jac


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

    def rj(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return cost(*split(z), blackbox, structure)

    result = lm(rj, np.concatenate([np.ravel(theta0), vec(t0)]), cfg)
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
