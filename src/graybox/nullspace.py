"""Null-space solution of the similarity re-parameterization problem.

The bilinear similarity equations between a black-box triple and a structured
model become linear in the stacked unknown

    v = [vec(T); vec(T A); vec(T B); vec(C); 1],

so every candidate solution lives in the null space of one constant
coefficient matrix built from the black-box matrices.  This module builds
that matrix, parameterizes the admissible affine slice of its null space
(points with unit last component), extracts realizations and their analytic
Jacobians, and minimizes the distance of the extracted realization to the
admissible structured set with BFGS.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    SINGULAR_RTOL,
    AffineStructure,
    Dims,
    Solution,
    StateSpace,
    block_slices,
    check_dims,
    eval_structure,
    rcond,
    residuals,
    unvec,
    vec,
)
from .optim import InfeasibleStartError, OptimConfig, bfgs

__all__ = [
    "EmptyNullspaceError",
    "BasePointError",
    "SingularTransformError",
    "Realization",
    "SolutionSpace",
    "StructureProjector",
    "build_constraint_matrix",
    "nullspace_basis",
    "base_point_coeffs",
    "last_row_nullspace",
    "solution_space",
    "extract_realization",
    "realization_vector",
    "structure_projector",
    "structure_distance",
    "extract_theta",
    "realization_jacobians",
    "structure_distance_grad",
    "reduced_distance",
    "reduced_distance_grad",
    "solve_nullspace",
]

class EmptyNullspaceError(RuntimeError):
    """The constraint matrix has no null space: no admissible solution exists."""


class BasePointError(RuntimeError):
    """No basis combination with unit last component could be found."""


class SingularTransformError(RuntimeError):
    """The transform block of a stacked solution vector is numerically singular."""


class Realization(NamedTuple):
    """State-space triple plus the transform extracted from a stacked vector."""

    T: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def build_constraint_matrix(blackbox: StateSpace) -> np.ndarray:
    """Coefficient matrix of the linearized similarity equations.

    Multiplying it with a stacked vector [vec(T); vec(TA); vec(TB); vec(C); 1]
    yields the three residual blocks vec(A_bb T - TA), vec(TB - B_bb) and
    vec(C_bb T - C); the matrix therefore has full row rank (each block
    carries its own identity sub-block) and its null space holds every
    similarity solution.
    """
    d = blackbox.dims
    n_x, n_u, n_y = d.n_x, d.n_u, d.n_y
    nx2 = n_x**2
    off_ta, off_tb, off_c = nx2, 2 * nx2, 2 * nx2 + n_x * n_u
    m = np.zeros((d.n_abc, d.n_unknowns))

    rows_a = slice(0, nx2)
    m[rows_a, 0:nx2] = np.kron(np.eye(n_x), blackbox.A)
    m[rows_a, off_ta:off_ta + nx2] = -np.eye(nx2)

    rows_b = slice(nx2, nx2 + n_x * n_u)
    m[rows_b, off_tb:off_tb + n_x * n_u] = np.eye(n_x * n_u)
    m[rows_b, -1] = -vec(blackbox.B)

    rows_c = slice(nx2 + n_x * n_u, d.n_abc)
    m[rows_c, 0:nx2] = np.kron(np.eye(n_x), blackbox.C)
    m[rows_c, off_c:off_c + n_x * n_y] = -np.eye(n_x * n_y)
    return m


def nullspace_basis(a: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """Orthonormal null-space basis of ``a`` via SVD.

    Singular values below ``rank_tol`` times the largest are treated as zero;
    the default tolerance is max(rows, cols) * machine epsilon.

    Raises:
        EmptyNullspaceError: if the matrix has full column rank.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if rank_tol is None:
        rank_tol = max(a.shape) * np.finfo(float).eps
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    cutoff = rank_tol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    if rank >= a.shape[1]:
        raise EmptyNullspaceError("no admissible solution: matrix has full column rank")
    return vh[rank:].T.copy()


def base_point_coeffs(
    basis: np.ndarray,
    seed: int | np.random.Generator = 0,
    min_last: float = 1e-8,
    max_redraws: int = 20,
) -> np.ndarray:
    """Coefficients whose basis combination has last component exactly 1.

    Draws Gaussian coefficient vectors until the induced last component is
    safely away from zero, then rescales.  Deterministic for a given seed.

    Raises:
        BasePointError: if every draw lands below ``min_last`` in magnitude,
            which happens when the last row of the basis is (numerically) zero.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    rng = np.random.default_rng(seed)
    for _ in range(max_redraws):
        coeffs = rng.standard_normal(basis.shape[1])
        last = float(basis[-1] @ coeffs)
        if abs(last) >= min_last:
            return coeffs / last
    raise BasePointError(
        f"normalization failed: last component below {min_last} after {max_redraws} draws"
    )


def last_row_nullspace(basis: np.ndarray) -> np.ndarray:
    """Orthonormal coefficient directions that zero out the basis' last row.

    Returns an (n, n-1) matrix for an n-column basis; combinations of its
    columns leave the last component of any induced vector unchanged.  For a
    single-column basis the result is empty (the admissible set is a point).
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    n = basis.shape[1]
    if n < 2:
        return np.zeros((n, 0))
    _, _, vh = np.linalg.svd(basis[-1:, :])
    return vh[1:].T.copy()


@dataclass(frozen=True)
class SolutionSpace:
    """Affine parameterization of all stacked similarity solutions.

    Points are ``basis @ (base_coeffs + free_dirs @ alpha)``; every point lies
    in the constraint matrix' null space and keeps its last component at 1.
    """

    basis: np.ndarray
    base_coeffs: np.ndarray
    free_dirs: np.ndarray
    dims: Dims

    @property
    def n_basis(self) -> int:
        return self.basis.shape[1]

    @property
    def n_free(self) -> int:
        return self.free_dirs.shape[1]

    def point(self, alpha: np.ndarray) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=float).reshape(-1)
        if alpha.size != self.n_free:
            raise ValueError(f"alpha must have length {self.n_free}, got {alpha.size}")
        return self.basis @ (self.base_coeffs + self.free_dirs @ alpha)

    def free_map(self) -> np.ndarray:
        """Dense map from free coordinates to stacked-vector offsets."""
        return self.basis @ self.free_dirs


def solution_space(
    blackbox: StateSpace,
    seed: int | np.random.Generator = 0,
    rank_tol: float | None = None,
) -> SolutionSpace:
    """Build the admissible solution-set parameterization for a black-box triple."""
    basis = nullspace_basis(build_constraint_matrix(blackbox), rank_tol=rank_tol)
    return SolutionSpace(
        basis=basis,
        base_coeffs=base_point_coeffs(basis, seed=seed),
        free_dirs=last_row_nullspace(basis),
        dims=blackbox.dims,
    )


def _solution_slices(dims: Dims) -> tuple[slice, slice, slice, slice]:
    nx2 = dims.n_x**2
    off_tb = 2 * nx2
    off_c = off_tb + dims.n_x * dims.n_u
    return (
        slice(0, nx2),
        slice(nx2, 2 * nx2),
        slice(off_tb, off_c),
        slice(off_c, off_c + dims.n_x * dims.n_y),
    )


def extract_realization(v: np.ndarray, dims: Dims) -> Realization:
    """Unpack a stacked vector into (T, A, B, C) with A = T^-1 (TA), B = T^-1 (TB).

    Raises:
        SingularTransformError: when the transform block's reciprocal condition
            number is below ``SINGULAR_RTOL`` (the excluded region of the search).
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != dims.n_unknowns:
        raise ValueError(f"stacked vector must have length {dims.n_unknowns}, got {v.size}")
    sl_t, sl_ta, sl_tb, sl_c = _solution_slices(dims)
    t = unvec(v[sl_t], dims.n_x, dims.n_x)
    r = rcond(t)
    if r < SINGULAR_RTOL:
        raise SingularTransformError(f"transform block is numerically singular (rcond {r:.3e})")
    ta = unvec(v[sl_ta], dims.n_x, dims.n_x)
    tb = unvec(v[sl_tb], dims.n_x, dims.n_u)
    c = unvec(v[sl_c], dims.n_y, dims.n_x)
    return Realization(T=t, A=np.linalg.solve(t, ta), B=np.linalg.solve(t, tb), C=c)


def realization_vector(v: np.ndarray, dims: Dims) -> np.ndarray:
    """Stacked entries [vec(A); vec(B); vec(C)] of the extracted realization."""
    r = extract_realization(v, dims)
    return np.concatenate([vec(r.A), vec(r.B), vec(r.C)])


@dataclass(frozen=True)
class StructureProjector:
    """Least-squares machinery of an affine structure, built once per solve.

    ``residual_op`` maps a stacked vector to minus its component orthogonal to
    the structure's parameter range (so its squared norm of ``residual_op @
    (offset - stacked)`` is the distance to the admissible set), and
    ``theta_map`` is the pseudo-inverse used for parameter extraction.
    """

    residual_op: np.ndarray
    theta_map: np.ndarray
    offset: np.ndarray


def structure_projector(structure: AffineStructure) -> StructureProjector:
    """SVD-based projector onto the range of the structure's parameter map.

    Rank-deficient parameter maps are allowed; singular values below
    max(rows, cols) * machine epsilon times the largest are treated as zero.
    """
    k = structure.K
    u, s, vh = np.linalg.svd(k, full_matrices=False)
    cutoff = max(k.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    u_r = u[:, :rank]
    residual_op = u_r @ u_r.T - np.eye(k.shape[0])
    theta_map = (vh[:rank].T / s[:rank]) @ u_r.T
    return StructureProjector(
        residual_op=residual_op,
        theta_map=theta_map,
        offset=structure.kappa0.copy(),
    )


def structure_distance(stacked: np.ndarray, proj: StructureProjector) -> float:
    """Squared distance of a stacked realization to the admissible structured set.

    Zero exactly when some parameter vector reproduces ``stacked``; equal to
    the least-squares minimum over parameters.
    """
    r = proj.residual_op @ (proj.offset - np.asarray(stacked, dtype=float))
    return float(r @ r)


def extract_theta(stacked: np.ndarray, proj: StructureProjector) -> np.ndarray:
    """Parameter vector minimizing the structured fit to a stacked realization."""
    return proj.theta_map @ (np.asarray(stacked, dtype=float) - proj.offset)


def realization_jacobians(
    v: np.ndarray, dims: Dims
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobians of the extracted vec(A), vec(B), vec(C) w.r.t. the stacked vector.

    Differentiates A = T^-1 (TA) and B = T^-1 (TB) through the inverse, so
    only the T block and the matching raw block carry nonzero columns; the C
    block passes through unchanged.  Selection happens by column slicing, no
    dense selection matrices are formed.

    Raises:
        SingularTransformError: propagated from :func:`extract_realization`.
    """
    return _jacobians_at(extract_realization(v, dims), dims)


def _jacobians_at(
    r: Realization, dims: Dims
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`realization_jacobians` at an already extracted realization."""
    n_x, n_u = dims.n_x, dims.n_u
    nx2 = n_x**2
    sl_t, sl_ta, sl_tb, sl_c = _solution_slices(dims)
    t_inv = np.linalg.inv(r.T)
    eye_x = np.eye(n_x)

    j_a = np.zeros((nx2, dims.n_unknowns))
    j_a[:, sl_t] = -np.kron(r.A.T, t_inv)
    j_a[:, sl_ta] = np.kron(eye_x, t_inv)

    j_b = np.zeros((n_x * n_u, dims.n_unknowns))
    j_b[:, sl_t] = -np.kron(r.B.T, t_inv)
    j_b[:, sl_tb] = np.kron(np.eye(n_u), t_inv)

    j_c = np.zeros((dims.n_y * n_x, dims.n_unknowns))
    j_c[:, sl_c] = np.eye(dims.n_y * n_x)
    return j_a, j_b, j_c


def structure_distance_grad(
    v: np.ndarray, proj: StructureProjector, dims: Dims
) -> np.ndarray:
    """Gradient of :func:`structure_distance` composed with realization extraction.

    Raises:
        SingularTransformError: propagated from :func:`extract_realization`.
    """
    r = extract_realization(v, dims)
    j_a, j_b, j_c = _jacobians_at(r, dims)
    stacked = np.concatenate([vec(r.A), vec(r.B), vec(r.C)])
    residual = proj.residual_op.T @ (proj.residual_op @ (proj.offset - stacked))
    sl_a, sl_b, sl_c = block_slices(dims)
    return -2.0 * (
        j_a.T @ residual[sl_a] + j_b.T @ residual[sl_b] + j_c.T @ residual[sl_c]
    )


def reduced_distance(
    alpha: np.ndarray, space: SolutionSpace, proj: StructureProjector
) -> float:
    """Structure distance as a function of the free coordinates.

    Returns ``+inf`` where the transform block is singular, so optimizers
    reject steps into the excluded region.
    """
    v = space.point(alpha)
    try:
        stacked = realization_vector(v, space.dims)
    except SingularTransformError:
        return float("inf")
    return structure_distance(stacked, proj)


def reduced_distance_grad(
    alpha: np.ndarray, space: SolutionSpace, proj: StructureProjector
) -> np.ndarray:
    """Gradient of :func:`reduced_distance`; chain rule through the affine map."""
    v = space.point(alpha)
    return space.free_map().T @ structure_distance_grad(v, proj, space.dims)


def solve_nullspace(
    blackbox: StateSpace,
    structure: AffineStructure,
    config: OptimConfig | None = None,
    seed: int | None = None,
) -> Solution:
    """Recover parameters and transform through the null-space formulation.

    Parameterizes the admissible solution set, minimizes the structure
    distance over its free coordinates with BFGS (one start at the origin
    plus ``config.restarts`` seeded Gaussian starts, best objective wins),
    and extracts the parameter vector and transform at the optimum.

    Non-convergence is reported through ``result.status``; structural
    failures (no null space, no admissible base point, every start inside the
    excluded region) raise.

    Args:
        blackbox: the fully parameterized realization to re-structure.
        structure: affine gray-box parameterization with matching dimensions.
        config: optimizer settings; defaults to :class:`OptimConfig`.
        seed: overrides ``config.seed`` for the base point and restart draws.
    """
    cfg = config if config is not None else OptimConfig()
    if seed is None:
        seed = cfg.seed
    check_dims(blackbox, structure)
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    space = solution_space(blackbox, seed=rng)
    proj = structure_projector(structure)
    free_map = space.free_map()

    def fun(alpha: np.ndarray) -> float:
        return reduced_distance(alpha, space, proj)

    def jac(alpha: np.ndarray) -> np.ndarray:
        return free_map.T @ structure_distance_grad(space.point(alpha), proj, space.dims)

    # Restart draws are scaled to the base point's coefficient norm: the
    # solution slice sits O(|base|) away from the origin in free coordinates,
    # so unit draws would all explore the same basin.
    spread = 1.0 + float(np.linalg.norm(space.base_coeffs))
    starts = [np.zeros(space.n_free)]
    starts += [spread * rng.standard_normal(space.n_free) for _ in range(cfg.restarts)]

    completed = []
    for x0 in starts:
        try:
            completed.append(bfgs(fun, jac, x0, cfg))
        except InfeasibleStartError:
            pass
    if not completed:
        raise InfeasibleStartError(
            f"all {len(starts)} starts began at singular transform points"
        )
    best = min(completed, key=lambda r: r.f_best)

    v_hat = space.point(best.x_best)
    real = extract_realization(v_hat, space.dims)
    stacked = np.concatenate([vec(real.A), vec(real.B), vec(real.C)])
    theta = extract_theta(stacked, proj)
    res = residuals(blackbox, real.T, eval_structure(structure, theta))
    diagnostics = {
        "objective_final": best.f_best,
        "grad_norm": best.grad_norm,
        "residuals": {"r_A": res.r_a, "r_B": res.r_b, "r_C": res.r_c},
        "nullspace_dim": space.n_basis,
        "cond_T": 1.0 / rcond(real.T),
        "starts": len(starts),
        "infeasible_starts": len(starts) - len(completed),
        "wall_time_ms": (time.perf_counter() - started) * 1e3,
        "trace": [[k, f, g] for k, f, g in best.trace],
    }
    return Solution(theta=theta, T=real.T, result=best, diagnostics=diagnostics)
