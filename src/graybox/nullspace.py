"""Null-space solution of the similarity re-parameterization problem.

The bilinear similarity equations between a black-box triple and a structured
model become linear in the stacked unknown

    v = [vec(T); vec(T A); vec(T B); vec(C); 1],

so every candidate solution lives in the null space of one constant
coefficient matrix built from the black-box matrices.  Each block row of that
matrix carries its own identity block, so the null space has the closed form

    {[vec(T); vec(A_bb T); s vec(B_bb); vec(C_bb T); s]},

and its admissible slice s = 1 is parameterized by vec(T) alone
(:func:`nullspace_point`).  The search minimizes, over T, the squared
distance of the extracted realization (T^-1 A_bb T, T^-1 B_bb, C_bb T) to the
admissible structured set by Levenberg-Marquardt on that distance's
residual vector and its Jacobian in vec(T).  A solve builds one
:class:`ReducedResidual`, which forms the Jacobian's black-box block
I (x) C_bb once in a workspace; at each point it computes only T^-1,
certified outside the excluded region by a norm bound rather than an SVD
wherever the bound suffices (:func:`_checked_inverse`), the realization
[A, B] = T^-1 [A_bb T, B_bb], and the two Kronecker blocks that depend on
them, written in place, with no stacked null-space point.
:func:`reduced_distance` is the same distance with its matrix-form gradient.
The constraint matrix, its SVD null-space basis and the dense extraction
Jacobians of the paper are kept as test oracles; the solve path uses none of
them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    RESIDUAL_TOL,
    SINGULAR_RTOL,
    AffineStructure,
    Dims,
    Solution,
    StateSpace,
    _residual_norms,
    block_slices,
    check_dims,
    kron_t,
    rcond,
    structured_matrices,
    unvec,
    vec,
)
from .optim import InfeasibleStartError, OptimConfig, lm
# bound here only because bench/tracer.py wraps graybox.nullspace.bfgs by name
from .optim import bfgs  # noqa: F401

__all__ = [
    "EmptyNullspaceError",
    "SingularTransformError",
    "Realization",
    "StructureProjector",
    "build_constraint_matrix",
    "nullspace_basis",
    "nullspace_point",
    "extract_realization",
    "realization_vector",
    "structure_projector",
    "structure_distance",
    "extract_theta",
    "realization_jacobians",
    "reduced_distance",
    "ReducedResidual",
    "solve_nullspace",
]

class EmptyNullspaceError(RuntimeError):
    """The constraint matrix has no null space: no admissible solution exists."""


class SingularTransformError(RuntimeError):
    """The transform block of a stacked solution vector is numerically singular."""


class Realization(NamedTuple):
    """State-space triple plus the transform extracted from a stacked vector, and its inverse."""

    T: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    T_inv: np.ndarray

    def stacked(self) -> np.ndarray:
        """Column-major stacking [vec(A); vec(B); vec(C)]."""
        return np.concatenate([vec(self.A), vec(self.B), vec(self.C)])


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


def nullspace_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis of ``a`` via SVD.

    Singular values below max(rows, cols) * machine epsilon times the largest
    are treated as zero.

    Raises:
        EmptyNullspaceError: if the matrix has full column rank.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    cutoff = max(a.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    if rank >= a.shape[1]:
        raise EmptyNullspaceError("no admissible solution: matrix has full column rank")
    return vh[rank:].T.copy()


def nullspace_point(blackbox: StateSpace, t: np.ndarray) -> np.ndarray:
    """Closed-form null-space point [vec(T); vec(A_bb T); vec(B_bb); vec(C_bb T); 1].

    Every point of :func:`build_constraint_matrix`'s null space with unit last
    component has this form, so ``t`` is a complete coordinate system for
    the admissible solution set.
    """
    t = np.asarray(t, dtype=float)
    return np.concatenate(
        [vec(t), vec(blackbox.A @ t), vec(blackbox.B), vec(blackbox.C @ t), [1.0]]
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


def _checked_inverse(t: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(t)``, outside the excluded region only.

    rcond(t) >= 1 / (||t||_F ||t^-1||_F), so an inverse whose norm product is
    at most 1 / (2 SINGULAR_RTOL) needs no SVD.  Where the product is larger
    or not finite, or ``inv`` finds t singular, ``rcond(t)`` (an SVD) decides
    alone, so what is accepted and returned is what rcond then inv gave.
    ``math.hypot`` takes the norms without intermediate overflow or a warning.

    Raises:
        SingularTransformError: when ``rcond(t) < SINGULAR_RTOL``.
    """
    try:
        t_inv = np.linalg.inv(t)
    except np.linalg.LinAlgError:
        pass  # an exactly singular factorization: rcond decides below
    else:
        if math.hypot(*t.ravel()) * math.hypot(*t_inv.ravel()) <= 0.5 / SINGULAR_RTOL:
            return t_inv
    r = rcond(t)
    if r < SINGULAR_RTOL:
        raise SingularTransformError(f"transform block is numerically singular (rcond {r:.3e})")
    return np.linalg.inv(t)


def extract_realization(v: np.ndarray, dims: Dims) -> Realization:
    """Unpack a stacked vector into (T, A, B, C) with A = T^-1 (TA), B = T^-1 (TB).

    The one inverse of T computed here is returned as ``T_inv`` for the
    derivatives at the same point.

    Raises:
        SingularTransformError: when the transform block's reciprocal condition
            number is below ``SINGULAR_RTOL`` (the excluded region of the search).
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != dims.n_unknowns:
        raise ValueError(f"stacked vector must have length {dims.n_unknowns}, got {v.size}")
    n_x = dims.n_x
    sl_t, sl_ta, sl_tb, sl_c = _solution_slices(dims)
    t = unvec(v[sl_t], n_x, n_x)
    t_inv = _checked_inverse(t)
    # vec(TA) and vec(TB) are adjacent, so together they are vec([TA, TB])
    ab = t_inv @ unvec(v[sl_ta.start:sl_tb.stop], n_x, n_x + dims.n_u)
    c = unvec(v[sl_c], dims.n_y, n_x)
    return Realization(T=t, A=ab[:, :n_x], B=ab[:, n_x:], C=c, T_inv=t_inv)


def realization_vector(v: np.ndarray, dims: Dims) -> np.ndarray:
    """Stacked entries [vec(A); vec(B); vec(C)] of the extracted realization."""
    return extract_realization(v, dims).stacked()


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
    block passes through unchanged.  These dense Kronecker-product Jacobians
    are the paper's form of the derivative and serve as the oracle for
    the gradient of :func:`reduced_distance`.

    Raises:
        SingularTransformError: propagated from :func:`extract_realization`.
    """
    r = extract_realization(v, dims)
    n_x, n_u = dims.n_x, dims.n_u
    nx2 = n_x**2
    sl_t, sl_ta, sl_tb, sl_c = _solution_slices(dims)
    t_inv = r.T_inv

    j_a = np.zeros((nx2, dims.n_unknowns))
    j_a[:, sl_t] = -np.kron(r.A.T, t_inv)
    j_a[:, sl_ta] = np.kron(np.eye(n_x), t_inv)

    j_b = np.zeros((n_x * n_u, dims.n_unknowns))
    j_b[:, sl_t] = -np.kron(r.B.T, t_inv)
    j_b[:, sl_tb] = np.kron(np.eye(n_u), t_inv)

    j_c = np.zeros((dims.n_y * n_x, dims.n_unknowns))
    j_c[:, sl_c] = np.eye(dims.n_y * n_x)
    return j_a, j_b, j_c


def structure_distance_grad(
    real: Realization, w: np.ndarray, blackbox: StateSpace
) -> np.ndarray:
    """Gradient in vec(T) of the structure distance at the null-space point of T.

    ``real`` is the extraction at that point and ``w`` = -2 P^T P (kappa0 - s)
    the residual pulled back onto the stacked entries s, split into W_A, W_B
    and W_C.  Matrix form of the chain rule through A = T^-1 A_bb T and
    B = T^-1 B_bb, O(n_x^3): with X = T^-T [W_A, W_B] the gradient is
    -(X_A A^T + X_B B^T) + A_bb^T X_A + C_bb^T W_C.
    """
    d = blackbox.dims
    n_x = d.n_x
    _, sl_b, sl_c = block_slices(d)
    # vec(W_A) and vec(W_B) are adjacent, so together they are vec([W_A, W_B])
    x = real.T_inv.T @ unvec(w[: sl_b.stop], n_x, n_x + d.n_u)
    x_a = x[:, :n_x]
    return vec(
        -(x_a @ real.A.T + x[:, n_x:] @ real.B.T)
        + blackbox.A.T @ x_a
        + blackbox.C.T @ unvec(w[sl_c], d.n_y, n_x)
    )


def reduced_distance(
    t_vec: np.ndarray, blackbox: StateSpace, proj: StructureProjector
) -> tuple[float, np.ndarray | None]:
    """Structure distance at the null-space point of ``unvec(t_vec)``, and its gradient.

    One extraction serves the value and the gradient.  Returns ``(+inf,
    None)`` where ``rcond(T) < SINGULAR_RTOL``, so optimizers reject steps
    into the excluded region.
    """
    d = blackbox.dims
    try:
        real = extract_realization(nullspace_point(blackbox, unvec(t_vec, d.n_x, d.n_x)), d)
    except SingularTransformError:
        return math.inf, None
    r = proj.residual_op @ (proj.offset - real.stacked())
    w = -2.0 * (proj.residual_op.T @ r)
    return float(r @ r), structure_distance_grad(real, w, blackbox)


class ReducedResidual:
    """Residual r = P (kappa0 - s) over vec(T) and its Jacobian, built once per solve.

    ``s`` is the realization [vec(T^-1 A_bb T); vec(T^-1 B_bb); vec(C_bb T)]
    read out of the null-space point of T, and P is ``proj.residual_op``, so
    ``r @ r`` is the value of :func:`reduced_distance` and ``2 J^T r`` its
    gradient.  J = -P ds/dvec(T), where ds/dvec(T) stacks the blocks
    I (x) T^-1 A_bb - A^T (x) T^-1, -B^T (x) T^-1 and I (x) C_bb.

    The constructor fills a workspace holding -ds/dvec(T) with the block
    that depends only on the black box, -(I (x) C_bb), and takes two views of
    it: the [A, B] rows as an (n_x + n_u, n_x, n_x, n_x) array, and the
    block diagonal of their A rows.  A call then costs one inverse, with no
    SVD unless T is near the excluded region (:func:`_checked_inverse`),
    [A, B] = T^-1 [A_bb T, B_bb] and T^-1 A_bb, one broadcast product that
    writes [A, B]^T (x) T^-1 over the [A, B] rows, T^-1 A_bb subtracted on
    their block diagonal, and two products with P, one for r and one for J.
    Every entry of the workspace equals that of ``kron_t([A, B], T^-1)``
    minus ``kron_t(I, T^-1 A_bb)``, and each product with P is the same as in
    P (kappa0 - s) and -P ds/dvec(T) formed whole, so r and J match those
    bit for bit.  A call overwrites every workspace entry that depends on the
    point and returns new arrays, so no call sees another's point; the
    workspace makes an evaluator unsafe to share between threads.
    """

    def __init__(self, blackbox: StateSpace, proj: StructureProjector) -> None:
        d = blackbox.dims
        n_x = d.n_x
        _, _, sl_c = block_slices(d)
        self.blackbox, self.proj, self.n_x = blackbox, proj, n_x
        self.minus_ds = np.zeros((d.n_abc, n_x**2))
        self.minus_ds[sl_c] = -kron_t(np.eye(n_x), blackbox.C)
        # rows j n_x + i, columns l n_x + k of the [A, B] rows: entry [j, i, l, k]
        self.ab_rows = self.minus_ds[: n_x * (n_x + d.n_u)].reshape(n_x + d.n_u, n_x, n_x, n_x)
        # the entries [j, i, j, k] of the A rows, the diagonal blocks of I (x) T^-1 A_bb
        self.a_diag = np.einsum("jijk->jik", self.ab_rows[:n_x])

    def __call__(self, t_vec: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(r, J)`` at ``unvec(t_vec)``, or ``(None, None)`` where ``rcond(T) < SINGULAR_RTOL``."""
        n_x, bb, proj = self.n_x, self.blackbox, self.proj
        t = unvec(t_vec, n_x, n_x)
        try:
            t_inv = _checked_inverse(t)
        except SingularTransformError:
            return None, None
        ab = t_inv @ np.concatenate([bb.A @ t, bb.B], axis=1)
        r = proj.residual_op @ (proj.offset - np.concatenate([vec(ab), vec(bb.C @ t)]))
        # [A, B]^T (x) T^-1, then minus I (x) T^-1 A_bb on its block diagonal
        np.multiply(ab.T[:, None, :, None], t_inv[None, :, None, :], out=self.ab_rows)
        self.a_diag -= t_inv @ bb.A
        return r, proj.residual_op @ self.minus_ds

    def realization(self, t_vec: np.ndarray) -> Realization:
        """The realization read out of the null-space point of ``unvec(t_vec)``.

        Raises:
            SingularTransformError: propagated from :func:`extract_realization`.
        """
        t = unvec(t_vec, self.n_x, self.n_x)
        return extract_realization(nullspace_point(self.blackbox, t), self.blackbox.dims)


def solve_nullspace(
    blackbox: StateSpace,
    structure: AffineStructure,
    config: OptimConfig | None = None,
) -> Solution:
    """Recover parameters and transform through the null-space formulation.

    Minimizes the structure distance over the transform T of the closed-form
    null-space point by Levenberg-Marquardt on one :class:`ReducedResidual`,
    from T = I and then from ``config.restarts`` seeded Gaussian draws, each
    drawn just before it runs, and reads the parameter vector and transform
    out of each completed start.  The first start whose read-out leaves a max
    similarity residual <= ``RESIDUAL_TOL``, or whose structure distance
    sqrt(objective) is <= ``RESIDUAL_TOL``, wins and ends the search: the
    cost is zero at the truth, so no later start can do better.  (The read-out
    residual scales with ||T||, so a start can reach the distance's roundoff
    floor with a read-out above the tolerance; the pipeline polishes it.)  If
    no start does, the start with the lowest objective wins.

    Non-convergence is reported through ``result.status``; a search whose
    every start lies inside the excluded region raises.

    Args:
        blackbox: the fully parameterized realization to re-structure.
        structure: affine gray-box parameterization with matching dimensions.
        config: optimizer settings; defaults to :class:`OptimConfig`;
            ``config.seed`` seeds the restart draws.
    """
    cfg = config if config is not None else OptimConfig()
    check_dims(blackbox, structure)
    started = time.perf_counter()
    n_x = blackbox.dims.n_x
    proj = structure_projector(structure)
    rj = ReducedResidual(blackbox, proj)

    rng = np.random.default_rng(cfg.seed)
    n_starts = 1 + cfg.restarts
    outcomes = []
    winner = None  # (lm result, transform, theta, residuals) of the winning start
    for k in range(n_starts):
        x0 = vec(np.eye(n_x)) if k == 0 else vec(rng.standard_normal((n_x, n_x)))
        try:
            result = lm(rj, x0, cfg)
        except InfeasibleStartError:
            outcomes.append({"status": "infeasible"})
            continue
        real = rj.realization(result.x_best)
        theta = extract_theta(real.stacked(), proj)
        t = np.ascontiguousarray(real.T)  # read out on the array that is returned and written
        res = _residual_norms(blackbox, t, *structured_matrices(structure, theta))
        worst = max(res)
        outcomes.append({
            "iterations": result.iterations,
            "n_evals": result.n_evals,
            "status": result.status,
            "objective_final": result.f_best,
            "max_residual": worst,
        })
        # a start at the distance's roundoff floor has the lowest objective of all so far
        done = worst <= RESIDUAL_TOL or math.sqrt(result.f_best) <= RESIDUAL_TOL
        if done or winner is None or result.f_best < winner[0].f_best:
            winner = result, t, theta, res
        if done:
            break
    if winner is None:
        raise InfeasibleStartError(
            f"all {n_starts} starts began at singular transform points"
        )
    best, t, theta, res = winner
    rc = rcond(t)

    diagnostics = {
        "objective_final": best.f_best,
        "grad_norm": best.grad_norm,
        "residuals": {"r_A": res.r_a, "r_B": res.r_b, "r_C": res.r_c},
        "nullspace_dim": n_x**2 + 1,
        "cond_T": 1.0 / rc,
        "starts": n_starts,
        "infeasible_starts": sum(o["status"] == "infeasible" for o in outcomes),
        "start_outcomes": outcomes,
        "wall_time_ms": (time.perf_counter() - started) * 1e3,
        "trace": [[k, f, g] for k, f, g in best.trace],
    }
    return Solution(theta=theta, T=t, result=best, diagnostics=diagnostics, residuals=res,
                    rcond_T=rc)
