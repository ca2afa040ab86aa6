"""Reference forms of the paper's null-space construction and of ``lm``, for the tests only.

The solve never builds the constraint matrix: its null space has a closed
form (``graybox.nullspace.nullspace_point``), and the search runs over
vec(T) alone.  The dense constraint matrix, its SVD null-space basis, the
dense closed-form map and the stacked-vector read-out live here, as the
oracles the closed form and the solver's read-out are checked against.
So does :func:`lm_reference`, the frozen plain form of
``graybox.optim.lm`` that its runs are checked against bit for bit, with
the damped solver :func:`lm_solver` names.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from graybox import optim
from graybox.model import StateSpace, unvec, vec
from graybox.nullspace import (
    StructureProjector,
    extract_realization,
    extract_theta,
    nullspace_point,
)
from graybox.optim import GEODESIC_ALPHA, OptimConfig


class EmptyNullspaceError(RuntimeError):
    """The constraint matrix has no null space: no admissible solution exists."""


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


def closed_form_map(blackbox: StateSpace) -> np.ndarray:
    """Dense linear map (vec(T), s) -> [vec(T); vec(A_bb T); s vec(B_bb); vec(C_bb T); s]."""
    d = blackbox.dims
    nx2 = d.n_x**2
    off_c = 2 * nx2 + d.n_x * d.n_u
    eye_x = np.eye(d.n_x)
    n = np.zeros((d.n_unknowns, nx2 + 1))
    n[:nx2, :nx2] = np.eye(nx2)
    n[nx2:2 * nx2, :nx2] = np.kron(eye_x, blackbox.A)
    n[2 * nx2:off_c, -1] = vec(blackbox.B)
    n[off_c:-1, :nx2] = np.kron(eye_x, blackbox.C)
    n[-1, -1] = 1.0
    return n


def structure_distance(stacked: np.ndarray, proj: StructureProjector) -> float:
    """Squared distance of a stacked realization to the admissible structured set.

    Zero exactly when some parameter vector reproduces ``stacked``; equal to
    the least-squares minimum over parameters.
    """
    r = proj.residual_op @ (proj.offset - np.asarray(stacked, dtype=float))
    return float(r @ r)


def stacked_readout(blackbox: StateSpace, proj: StructureProjector,
                    t_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(theta, T)`` read out of the stacked null-space point of ``unvec(t_vec)``.

    The read-out as the paper writes it: build the stacked point, extract
    T, A = T^-1 (TA), B = T^-1 (TB) and C from it, and fit theta to
    [vec(A); vec(B); vec(C)].
    """
    d = blackbox.dims
    real = extract_realization(nullspace_point(blackbox, unvec(t_vec, d.n_x, d.n_x)), d)
    return extract_theta(real.stacked(), proj), real.T


# numpy's bundled dposv, which lm_solver calls itself
BUNDLED = optim._bundled_lapack()


def lm_solver(rvv, lapack=BUNDLED):
    """``solve(a, b)`` with the bits of ``lm``'s damped solves, by calls of its own.

    ``np.linalg.solve`` without ``rvv`` or without ``lapack``.  With both, its
    own ``dposv`` (lower triangle) on a fresh F-ordered copy of the whole of
    ``a``: factoring ``a`` afresh gives the bits of the ``dpotrs`` that
    ``lm`` runs on the factor ``a`` left.  Where ``dpotrf`` finds ``a`` not
    positive definite, ``np.linalg.solve``, as ``lm`` falls back.  So the
    bits are pinned whatever way ``lm`` fills its own factor buffer.
    """
    if rvv is None or lapack is None:
        return np.linalg.solve
    dposv, *_, index = lapack

    def solve(a, b):
        factors, x = np.array(a, order="F"), np.array(b, dtype=float)
        ints = np.array([len(a), 1, max(len(a), 1), 0], dtype=index)  # N, NRHS, LDA = LDB, INFO
        n_p, nrhs_p, lead_p, info_p = (ctypes.c_void_p(ints.ctypes.data + k * ints.itemsize)
                                       for k in range(4))
        dposv(ctypes.c_char_p(b"L"), n_p, nrhs_p, ctypes.c_void_p(factors.ctypes.data), lead_p,
              ctypes.c_void_p(x.ctypes.data), lead_p, info_p)
        return x if ints[3] == 0 else np.linalg.solve(a, b)

    return solve


def lm_reference(rj, x0, config=None, rvv=None, stop_on_repeat=True, solve=np.linalg.solve):
    """``lm`` before it skipped a rejected step's repeat, frozen, as
    ``(x, f, status, iterations, n_evals, trace)``.

    At the roundoff floor it solves the same damped matrix again and
    evaluates the same point.  With ``rvv`` and ``stop_on_repeat``, a damped
    matrix equal, bit for bit, to that of the last rejected step ends the
    run "converged-step" before it is solved; ``stop_on_repeat=False`` is
    the run before that stop, which goes on raising mu.  Every damped
    system, the velocity's and the acceleration's alike, is solved by a
    fresh ``solve(a, b)`` call; ``lm_solver(rvv)`` gives ``lm``'s bits.
    """
    cfg = config if config is not None else OptimConfig()
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    r, jac = rj(x)
    n_evals = 1
    f, a, g = float(r @ r), jac.T @ jac, jac.T @ r
    mu = 1e-6 * float(a.diagonal().max())
    nu = 2.0
    trace = [(0, f, 2.0 * float(np.abs(g).max()))]
    iterations = 0
    status = "max-iters"
    last_rejected = None  # the damped matrix of the last step rejected at x
    while True:
        if f == 0.0:
            status = "converged-ftol"
            break
        if iterations >= cfg.max_iters:
            break
        iterations += 1
        damped = a.copy()
        damped.flat[:: x.size + 1] += mu
        if (rvv is not None and stop_on_repeat and last_rejected is not None
                and np.array_equal(damped, last_rejected)):
            status = "converged-step"
            break
        try:
            h = solve(damped, -g)
        except np.linalg.LinAlgError:
            h = np.zeros_like(x)
        predicted = float(h @ (mu * h - g))
        if not predicted > 0.0 or (np.abs(h) <= 1e-12 * np.abs(x)).all():
            status = "converged-step"
            break
        step = h
        if rvv is not None:
            accel = solve(damped, -(jac.T @ rvv(h)))
            if 2.0 * math.sqrt(accel.dot(accel)) > GEODESIC_ALPHA * math.sqrt(h.dot(h)):
                mu, nu, last_rejected = mu * nu, 2.0 * nu, damped
                continue
            step = h + 0.5 * accel
        r_new, j_new = rj(x + step)
        n_evals += 1
        f_new = math.inf if r_new is None else float(r_new @ r_new)
        if not f_new < f:
            mu, nu, last_rejected = mu * nu, 2.0 * nu, damped
            continue
        rho = (f - f_new) / predicted
        f_prev = f
        x, f, jac = x + step, f_new, j_new
        a, g = jac.T @ jac, jac.T @ r_new
        mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3) * math.sqrt(f / f_prev)
        nu, last_rejected = 2.0, None
        trace.append((iterations, f, 2.0 * float(np.abs(g).max())))
        if f_prev - f <= cfg.f_tol * f_prev:
            status = "converged-ftol"
            break
    return x, f, status, iterations, n_evals, trace
