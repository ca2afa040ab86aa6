"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from graybox import cli, optim
from graybox.lsq import CostPlan, cost
from graybox.model import AffineStructure, Dims, Instance, generate_instance, unvec, vec
from graybox.structures import chain

# statuses of an optimizer run that stopped on one of its convergence tests
CONVERGED = ("converged-grad", "converged-ftol", "converged-step")

# exactly singular matrices, on which every solve and inverse must raise LinAlgError
SINGULAR = {
    "zero1": np.zeros((1, 1)),
    "zero3": np.zeros((3, 3)),
    "ones2": np.ones((2, 2)),
    "ones9": np.ones((9, 9)),
    "rank1": np.outer([1.0, -2.0, 0.5], [3.0, 1.0, -1.0]),
}


def clear_caches() -> None:
    """Empty what solves keep for later ones: parsed structure files, each with its projector,
    and this thread's LAPACK workspaces."""
    cli._structure.cache_clear()
    optim._dense.cache_clear()


def dims_grid() -> list[Dims]:
    """Every dimension combination exercised by the acceptance criteria."""
    return [
        Dims(n_x, n_u, n_y)
        for n_x in (1, 2, 3, 4)
        for n_u in (1, 2)
        for n_y in (1, 2)
    ]


def transform_with_rcond(n_x: int, rc: float, rng: np.random.Generator) -> np.ndarray:
    """Random n_x by n_x transform with singular values spaced geometrically from 1 to ``rc``.

    A 1 by 1 transform has the one singular value 1.
    """
    q1, _ = np.linalg.qr(rng.standard_normal((n_x, n_x)))
    q2, _ = np.linalg.qr(rng.standard_normal((n_x, n_x)))
    return (q1 * np.geomspace(1.0, rc, n_x)) @ q2.T


def evaluator_cases(rng: np.random.Generator):
    """(black box, structure) pairs for the evaluators: every ``dims_grid()`` shape, with a
    dense and a rank-deficient random structure, then ``chain(4)``, ``chain(6)``, ``chain(8)``.
    """
    for dims in dims_grid():
        for structure in (random_structure(dims, rng), rank_deficient_structure(dims, rng)):
            instance = generate_instance(structure, rng.standard_normal(structure.n_theta),
                                         seed=int(rng.integers(1 << 16)))
            yield instance.blackbox, structure
    for n in (4, 6, 8):
        structure, theta = chain(n)
        yield generate_instance(structure, theta, seed=n, cond_max=100.0).blackbox, structure


def well_conditioned_stacked(dims: Dims, rng: np.random.Generator) -> np.ndarray:
    """Random stacked vector whose transform block T has smin >= 5e-2 max(1, smax).

    An absolute floor on the smallest singular value, not a condition number
    alone: the truncation error of finite differences through the extraction
    grows like 1/smin^3 and would swamp a 1e-6 budget.
    """
    while True:
        v = rng.standard_normal(dims.n_unknowns)
        sv = np.linalg.svd(unvec(v[: dims.n_x**2], dims.n_x, dims.n_x), compute_uv=False)
        if sv[-1] >= 5e-2 * max(1.0, sv[0]):
            return v


def random_structure(dims: Dims, rng: np.random.Generator, n_theta: int | None = None) -> AffineStructure:
    """Dense random affine structure; parameters need not be identifiable."""
    if n_theta is None:
        n_theta = int(rng.integers(1, max(2, dims.n_abc // 2)))
    return AffineStructure(
        kappa0=rng.standard_normal(dims.n_abc),
        K=rng.standard_normal((dims.n_abc, n_theta)),
        dims=dims,
    )


def rank_deficient_structure(dims: Dims, rng: np.random.Generator) -> AffineStructure:
    """Dense random affine structure whose last parameter column doubles the first."""
    structure = random_structure(dims, rng, n_theta=max(2, dims.n_abc // 3))
    k = structure.K.copy()
    k[:, -1] = 2.0 * k[:, 0]
    return AffineStructure(kappa0=structure.kappa0, K=k, dims=dims)


def perturbed(x: np.ndarray, rng: np.random.Generator, rel: float = 0.05) -> np.ndarray:
    """``x`` plus a random direction scaled to ``rel`` times its Frobenius norm.

    The warm-start error of the benchmark's ``polish`` workload: drawn from
    ``default_rng([seed, 1])``, for theta first and then T, it rebuilds that
    workload's init of instance ``seed``.
    """
    d = rng.standard_normal(x.shape)
    return x + rel * np.linalg.norm(x) * d / np.linalg.norm(d)


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


def lsq_fg(z, blackbox, structure) -> tuple[float, np.ndarray, np.ndarray]:
    """Least-squares objective ``r @ r`` of :func:`graybox.lsq.cost` at ``z = [theta; vec(T)]``
    and its gradient ``2 J^T r``.

    Returned as ``(f, g_theta, g_T)``, with ``g_T`` an n_x by n_x matrix.
    """
    plan = CostPlan(blackbox, structure)
    r, jac = cost(np.asarray(z, dtype=float), plan)
    return (float(r @ r), *plan.split(2.0 * (jac.T @ r)))
