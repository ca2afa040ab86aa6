"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from graybox.lsq import cost
from graybox.model import AffineStructure, Dims, Instance, unvec, vec


def dims_grid() -> list[Dims]:
    """Every dimension combination exercised by the acceptance criteria."""
    return [
        Dims(n_x, n_u, n_y)
        for n_x in (1, 2, 3, 4)
        for n_u in (1, 2)
        for n_y in (1, 2)
    ]


def random_structure(dims: Dims, rng: np.random.Generator, n_theta: int | None = None) -> AffineStructure:
    """Dense random affine structure; parameters need not be identifiable."""
    if n_theta is None:
        n_theta = int(rng.integers(1, max(2, dims.n_abc // 2)))
    return AffineStructure(
        kappa0=rng.standard_normal(dims.n_abc),
        K=rng.standard_normal((dims.n_abc, n_theta)),
        dims=dims,
    )


def stacked_solution(instance: Instance) -> np.ndarray:
    """Ground-truth stacked vector [vec(T); vec(TA); vec(TB); vec(C); 1]."""
    t, truth = instance.T, instance.truth
    return np.concatenate([
        vec(t),
        vec(t @ truth.A),
        vec(t @ truth.B),
        vec(truth.C),
        [1.0],
    ])


def lsq_fg(theta, t, blackbox, structure) -> tuple[float, np.ndarray, np.ndarray]:
    """Least-squares objective ``r @ r`` of :func:`graybox.lsq.cost` and its gradient ``2 J^T r``.

    Returned as ``(f, g_theta, g_T)``, with ``g_T`` an n_x by n_x matrix.
    """
    t = np.asarray(t, dtype=float)
    r, jac = cost(np.asarray(theta, dtype=float), t, blackbox, structure)
    g = 2.0 * (jac.T @ r)
    n_theta = structure.n_theta
    return float(r @ r), g[:n_theta], unvec(g[n_theta:], *t.shape)
