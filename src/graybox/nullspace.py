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
residual vector and its Jacobian in vec(T), from T = s0 I at the black box's
own scale (:func:`_start_scale`) and then from Gaussian draws.  A solve
builds one :class:`ReducedResidual`, which forms the Jacobian's black-box
block I (x) C_bb and its ``dgesv`` buffers for T^-1 once; at each point it
computes only T^-1, with ``np.linalg.inv``'s bits, certified outside the
excluded region by a norm bound rather than an SVD wherever the bound
suffices (:func:`_checked_inverse`), the realization
[A, B] = T^-1 [A_bb T, B_bb], and the two Kronecker blocks that depend on
them, in place.  Each completed start is read out by the same evaluator's
fill at its best point: one read-out, the arithmetic ``lm`` minimized.

Off the solve path: the stacked-vector forms :func:`nullspace_point`,
:func:`extract_realization` and the paper's dense extraction Jacobians
(:func:`realization_jacobians`, which ``check-grad --which jacobians``
checks), and :func:`reduced_distance`, the same distance with its
matrix-form gradient.  The constraint matrix and its SVD null-space basis
live in ``tests/oracles.py``, as the oracle of the closed form.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    RESIDUAL_TOL,
    SINGULAR_RTOL,
    AffineStructure,
    Dims,
    Solution,
    StateSpace,
    _passes,
    _read_out,
    _stage,
    _worst,
    block_slices,
    check_dims,
    kron_t,
    rcond,
    unvec,
    vec,
)
from .optim import InfeasibleStartError, OptimConfig, _dense, lm
# bound here only because bench/tracer.py wraps graybox.nullspace.bfgs by name
from .optim import bfgs  # noqa: F401

__all__ = [
    "SingularTransformError",
    "Realization",
    "StructureProjector",
    "nullspace_point",
    "extract_realization",
    "realization_vector",
    "structure_projector",
    "extract_theta",
    "realization_jacobians",
    "reduced_distance",
    "ReducedResidual",
    "solve_nullspace",
]


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


def nullspace_point(blackbox: StateSpace, t: np.ndarray) -> np.ndarray:
    """Closed-form null-space point [vec(T); vec(A_bb T); vec(B_bb); vec(C_bb T); 1].

    Every point of the constraint matrix's null space with unit last
    component has this form, so ``t`` is a complete coordinate system for
    the admissible solution set (``tests/oracles.py`` checks it by SVD).
    """
    t = np.asarray(t, dtype=float)
    return np.concatenate(
        [vec(t), vec(blackbox.A @ t), vec(blackbox.B), vec(blackbox.C @ t), [1.0]]
    )


def _solution_slices(dims: Dims) -> tuple[slice, slice, slice, slice]:
    """Slices of vec(T), vec(TA), vec(TB) and vec(C): :func:`block_slices` past the T block."""
    nx2 = dims.n_x**2
    return (slice(0, nx2), *(slice(nx2 + s.start, nx2 + s.stop) for s in block_slices(dims)))


def _checked_inverse(t: np.ndarray, inv: Callable = np.linalg.inv) -> np.ndarray:
    """``inv(t)``, outside the excluded region only: one ``inv``, at most one SVD.

    rcond(t) >= 1 / (||t||_F ||t^-1||_F), so an inverse whose norm product is
    at most 1 / (2 SINGULAR_RTOL) needs no SVD.  Where the product is larger
    or not finite, ``rcond(t)`` (an SVD) decides, and the same inverse is
    returned.  A t whose LU factorization ``inv`` finds singular is refused.
    ``inv`` is ``np.linalg.inv``, or the ``inverse`` of an
    ``optim._dense_solver`` workspace, with its bits.
    ``math.hypot`` takes the norms, over the entries as Python floats, without
    intermediate overflow or a warning.

    Raises:
        SingularTransformError: when ``rcond(t) < SINGULAR_RTOL`` or ``inv`` fails.
    """
    try:
        t_inv = inv(t)
    except np.linalg.LinAlgError:
        t_inv = None
    else:
        if (math.hypot(*t.ravel().tolist()) * math.hypot(*t_inv.ravel().tolist())
                <= 0.5 / SINGULAR_RTOL):
            return t_inv
    r = rcond(t)
    if t_inv is None or r < SINGULAR_RTOL:
        raise SingularTransformError(f"transform block is numerically singular (rcond {r:.3e})")
    return t_inv


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
    block diagonal of their A rows.  It also keeps [ . , B_bb], whose first
    n_x columns a call fills with A_bb T, a buffer for s with its
    vec([A, B]) and vec(C_bb T) blocks as transposed views, and the
    ``inverse`` of an ``optim._dense_solver`` workspace of order n_x, which
    runs ``dgesv`` and gives ``np.linalg.inv``'s bits (and is
    ``np.linalg.inv`` where numpy's bundled LAPACK is not found).  A call
    reads T out of ``t_vec`` by an F-order reshape and then costs one
    inverse, with no SVD unless T is near the excluded region
    (:func:`_checked_inverse`),
    [A, B] = T^-1 [A_bb T, B_bb] (the fill, which also reads a start out),
    T^-1 A_bb, one broadcast product that
    writes [A, B]^T (x) T^-1 over the [A, B] rows, T^-1 A_bb subtracted on
    their block diagonal, and two products with P, one for r and one for J.
    Every entry of the workspace equals that of ``kron_t([A, B], T^-1)``
    minus ``kron_t(I, T^-1 A_bb)``, the buffers hold what ``np.concatenate``
    and ``vec`` would build, and each product with P is the same as in
    P (kappa0 - s) and -P ds/dvec(T) formed whole, so r and J match those
    bit for bit.  A call overwrites every buffer entry that depends on the
    point and returns new arrays, so no call sees another's point; the
    buffers make an evaluator unsafe to share between threads.
    """

    def __init__(self, blackbox: StateSpace, proj: StructureProjector) -> None:
        d = blackbox.dims
        n_x = d.n_x
        _, _, sl_c = block_slices(d)
        n_ab = n_x * (n_x + d.n_u)
        self.blackbox, self.proj, self.n_x = blackbox, proj, n_x
        # [A_bb T, B_bb]; a call overwrites the A_bb T columns
        self.ab_bb = np.concatenate([np.empty((n_x, n_x)), blackbox.B], axis=1)
        # s, with its vec([A, B]) and vec(C_bb T) blocks as transposed views
        self.stacked = np.empty(d.n_abc)
        self.s_ab = self.stacked[:n_ab].reshape(n_x + d.n_u, n_x)
        self.s_c = self.stacked[n_ab:].reshape(n_x, d.n_y)
        self.minus_ds = np.zeros((d.n_abc, n_x**2))
        self.minus_ds[sl_c] = -kron_t(np.eye(n_x), blackbox.C)
        # rows j n_x + i, columns l n_x + k of the [A, B] rows: entry [j, i, l, k]
        self.ab_rows = self.minus_ds[:n_ab].reshape(n_x + d.n_u, n_x, n_x, n_x)
        # the entries [j, i, j, k] of the A rows, the diagonal blocks of I (x) T^-1 A_bb
        self.a_diag = np.einsum("jijk->jik", self.ab_rows[:n_x])
        self.inverse = _dense(n_x)[1]  # np.linalg.inv's bits, in this solve's dgesv workspace

    def _fill(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(T^-1, [A, B])`` at ``t``, with s written into ``self.stacked``.

        Raises:
            SingularTransformError: propagated from :func:`_checked_inverse`.
        """
        t_inv = _checked_inverse(t, self.inverse)
        self.ab_bb[:, :self.n_x] = self.blackbox.A @ t
        ab = t_inv @ self.ab_bb
        self.s_ab[...] = ab.T
        self.s_c[...] = (self.blackbox.C @ t).T
        return t_inv, ab

    def __call__(self, t_vec: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(r, J)`` at ``unvec(t_vec)``, or ``(None, None)`` where ``rcond(T) < SINGULAR_RTOL``.

        ``t_vec`` is trusted: a float64 vector of length n_x^2.
        """
        n_x, bb, proj = self.n_x, self.blackbox, self.proj
        t = t_vec.reshape(n_x, n_x, order="F")  # unvec, by reshape alone
        try:
            t_inv, ab = self._fill(t)
        except SingularTransformError:
            return None, None
        r = proj.residual_op @ (proj.offset - self.stacked)
        # [A, B]^T (x) T^-1, then minus I (x) T^-1 A_bb on its block diagonal
        np.multiply(ab.T[:, None, :, None], t_inv[None, :, None, :], out=self.ab_rows)
        self.a_diag -= t_inv @ bb.A
        return r, proj.residual_op @ self.minus_ds


def _start_scale(blackbox: StateSpace, structure: AffineStructure) -> float:
    """The multiple s0 of I at which the first start sets T.

    s0 = ||kappa0_C||_F / ||C_bb||_F where the structure fixes C (its C rows
    of K are all zero) and both norms, and so s0, are positive and finite; 1
    otherwise.  Every solution has C_bb T = C = kappa0_C, so s0 I matches the
    one norm the structure pins, and the first start follows a rescaling of
    the black box's basis.  ``math.hypot`` takes the norms without
    intermediate overflow, and scales exactly by a power of two.
    """
    _, _, sl_c = block_slices(structure.dims)
    observed = math.hypot(*blackbox.C.ravel().tolist())
    if structure.K[sl_c].any() or not observed > 0.0:
        return 1.0
    # a zero or infinite norm, or a ratio that overflows or underflows, is not in (0, inf)
    s0 = math.hypot(*structure.kappa0[sl_c].tolist()) / observed
    return s0 if 0.0 < s0 < math.inf else 1.0


def solve_nullspace(
    blackbox: StateSpace,
    structure: AffineStructure,
    config: OptimConfig | None = None,
) -> Solution:
    """Recover parameters and transform through the null-space formulation.

    Minimizes the structure distance over the transform T of the closed-form
    null-space point by Levenberg-Marquardt on one :class:`ReducedResidual`,
    from T = s0 I, with s0 from :func:`_start_scale`, and then from
    ``config.restarts`` seeded Gaussian draws, each drawn just before it runs
    from a generator that the first restart builds, and reads the parameter
    vector and transform out of each completed start by the evaluator's own
    fill at its best point, and its residuals by ``model._read_out``.  The
    first start whose read-out passes (``model._passes``), or whose
    structure distance sqrt(objective) is <= ``RESIDUAL_TOL``, wins and ends
    the search: the cost is zero at the truth, so no later start can do
    better.  (The read-out residual scales with ||T||, so a start can reach
    the distance's roundoff floor with a read-out above the tolerance; the
    pipeline polishes it.)  If no start does, the start with the lowest
    objective wins.

    Non-convergence is reported through ``result.status``, and the winner by the
    stages' one epilogue ``model._stage``; a search whose every start lies inside
    the excluded region raises.  The diagnostics report s0 as ``start_scale``, and
    each completed start's damped steps by outcome as ``steps``.

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

    scale = _start_scale(blackbox, structure)
    n_starts = 1 + cfg.restarts
    outcomes = []
    winner = None  # (theta, transform, lm result, residuals) of the winning start
    for k in range(n_starts):
        if k == 1:  # the first restart builds the generator; a passing first start never does
            rng = np.random.default_rng(cfg.seed)
        x0 = vec(scale * np.eye(n_x)) if k == 0 else vec(rng.standard_normal((n_x, n_x)))
        try:
            result = lm(rj, x0, cfg)
        except InfeasibleStartError:
            outcomes.append({"status": "infeasible"})
            continue
        t = result.x_best.reshape(n_x, n_x, order="F")  # the F-order view lm's calls fill with
        rj._fill(t)
        theta = extract_theta(rj.stacked, proj)
        t = np.ascontiguousarray(t)  # read out on the array that is returned and written
        res = _read_out(blackbox, structure, theta, t)
        outcomes.append({
            "iterations": result.iterations,
            "n_evals": result.n_evals,
            "steps": result.steps,
            "status": result.status,
            "objective_final": result.f_best,
            "max_residual": _worst(res),
        })
        # a start at the distance's roundoff floor has the lowest objective of all so far
        done = _passes(res) or math.sqrt(result.f_best) <= RESIDUAL_TOL
        if done or winner is None or result.f_best < winner[2].f_best:
            winner = theta, t, result, res
        if done:
            break
    if winner is None:
        raise InfeasibleStartError(f"all {n_starts} starts began at singular transform points")
    return _stage(*winner, started, nullspace_dim=n_x**2 + 1, starts=n_starts, start_scale=scale,
                  infeasible_starts=sum(o["status"] == "infeasible" for o in outcomes),
                  start_outcomes=outcomes)
