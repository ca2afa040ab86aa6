"""State-space triples, affine gray-box structures, and similarity-transform utilities.

All matrices are dense float64 arrays. Vectorization is column-major
throughout; every index computation in the package relies on that
convention.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .optim import OptimResult

__all__ = [
    "Dims",
    "StateSpace",
    "AffineStructure",
    "Instance",
    "Residuals",
    "Solution",
    "SINGULAR_RTOL",
    "RESIDUAL_TOL",
    "vec",
    "unvec",
    "block_slices",
    "check_dims",
    "kron_t",
    "rcond",
    "structured_matrices",
    "eval_structure",
    "apply_similarity",
    "random_similarity",
    "generate_instance",
    "residuals",
]

# Transforms with rcond below this are singular: apply_similarity rejects them,
# realization extraction excludes them, and a solve ending on one is degenerate.
SINGULAR_RTOL = 1e-8

# Largest similarity residual a solution may leave (_passes): solve exits 0 only
# below it, it is verify's default --tol, the null-space multistart stops at the
# first start whose read-out meets it, and the pipeline skips its polish then.
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Dims:
    """State, input and output counts of a state-space model."""

    n_x: int
    n_u: int
    n_y: int

    def __post_init__(self) -> None:
        for name in ("n_x", "n_u", "n_y"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    @property
    def n_abc(self) -> int:
        """Total entry count of the (A, B, C) triple."""
        return self.n_x**2 + self.n_x * (self.n_u + self.n_y)

    @property
    def n_unknowns(self) -> int:
        """Length of the stacked unknown [vec(T); vec(TA); vec(TB); vec(C); 1]."""
        return 2 * self.n_x**2 + self.n_x * (self.n_u + self.n_y) + 1


def _count(data: dict, key: str) -> int:
    """``data[key]``, which must be an integer: a bool, float or string is refused, not cast."""
    value = data[key]
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _holds_bool(value) -> bool:
    """Whether ``value``, or an entry at any depth of its nested lists, is a bool."""
    level = [value]
    while level:
        nested = []
        for entry in level:
            if type(entry) is list:
                nested.extend(entry)
            elif type(entry) is bool:
                return True
        level = nested
    return False


# Every array read from outside passes _floats, its shape test and _finite, through
# _as_matrix, _as_vector or a constructor; each error names it ``name``.
def _floats(value, name: str) -> np.ndarray:
    if type(value) is np.ndarray and value.dtype == np.float64:
        return value  # what the conversion below returns for it, at no cost
    try:
        # a JSON boolean among numbers, which np.asarray would already have made a number
        if _holds_bool(value):
            raise TypeError("got a boolean")
        array = np.asarray(value)
        if array.dtype.kind in "USb":  # strings or booleans, which astype would cast
            raise TypeError(f"got an array of {array.dtype}")
        return array.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must hold numbers only: {exc}") from exc


def _shaped(m: np.ndarray, rows: int, cols: int, name: str) -> np.ndarray:
    if m.shape != (rows, cols):
        raise ValueError(f"{name} must have shape ({rows}, {cols}), got {m.shape}")
    return m


def _finite(m: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must be finite")
    return m


def _as_matrix(value, rows: int, cols: int, name: str) -> np.ndarray:
    return _finite(_shaped(_floats(value, name), rows, cols, name), name)


def _as_vector(value, size: int, name: str) -> np.ndarray:
    v = _floats(value, name).reshape(-1)
    if v.size != size:
        raise ValueError(f"{name} must have length {size}, got {v.size}")
    return _finite(v, name)


@dataclass(frozen=True)
class StateSpace:
    """A continuous-time state-space triple (A, B, C) with no feed-through.

    Used both for black-box realizations (known numerically, unique only up
    to a state-coordinate change) and for structured models evaluated at a
    parameter point.  ``dims`` is computed once per object, on first use.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_2d(_floats(self.A, "A"))
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        n_x = a.shape[0]
        b = np.atleast_2d(_floats(self.B, "B"))
        c = np.atleast_2d(_floats(self.C, "C"))
        object.__setattr__(self, "A", _finite(a, "A"))
        object.__setattr__(self, "B", _finite(_shaped(b, n_x, b.shape[1], "B"), "B"))
        object.__setattr__(self, "C", _finite(_shaped(c, c.shape[0], n_x, "C"), "C"))

    @cached_property
    def dims(self) -> Dims:
        return Dims(self.A.shape[0], self.B.shape[1], self.C.shape[0])

    def stacked(self) -> np.ndarray:
        """Column-major stacking [vec(A); vec(B); vec(C)]."""
        return np.concatenate([vec(self.A), vec(self.B), vec(self.C)])

    def to_dict(self) -> dict:
        d = self.dims
        return {
            "n_x": d.n_x,
            "n_u": d.n_u,
            "n_y": d.n_y,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> StateSpace:
        """The model of a JSON document, built and validated by the constructor.

        Each matrix is first read as floats and checked against the
        document's declared dimensions, so an error names the shape the
        document declared; the constructor takes those arrays as they are
        and checks the rest once.
        """
        for key in ("n_x", "n_u", "n_y", "A", "B", "C"):
            if key not in data:
                raise ValueError(f"state-space document is missing key {key!r}")
        dims = Dims(*(_count(data, key) for key in ("n_x", "n_u", "n_y")))
        shapes = {"A": (dims.n_x, dims.n_x), "B": (dims.n_x, dims.n_u),
                  "C": (dims.n_y, dims.n_x)}
        return cls(**{name: _shaped(_floats(data[name], name), rows, cols, name)
                      for name, (rows, cols) in shapes.items()})


@dataclass(frozen=True)
class AffineStructure:
    """Affine parameterization of a gray-box model.

    The stacked entries [vec(A); vec(B); vec(C)] of the structured model are
    ``kappa0 + K @ theta``.  Rows of ``kappa0``/``K`` follow the fixed
    partition: the first n_x^2 rows belong to vec(A), the next n_x*n_u to
    vec(B), and the final n_x*n_y to vec(C).
    """

    kappa0: np.ndarray
    K: np.ndarray
    dims: Dims

    def __post_init__(self) -> None:
        n_abc = self.dims.n_abc
        k = np.atleast_2d(_floats(self.K, "K"))
        if k.shape[1] < 1:
            raise ValueError("K must have at least one column")
        object.__setattr__(self, "kappa0", _as_vector(self.kappa0, n_abc, "kappa0"))
        object.__setattr__(self, "K", _finite(_shaped(k, n_abc, k.shape[1], "K"), "K"))

    @property
    def n_theta(self) -> int:
        return self.K.shape[1]

    def to_dict(self) -> dict:
        d = self.dims
        return {
            "n_x": d.n_x,
            "n_u": d.n_u,
            "n_y": d.n_y,
            "n_theta": self.n_theta,
            "kappa0": self.kappa0.tolist(),
            "K": self.K.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> AffineStructure:
        for key in ("n_x", "n_u", "n_y", "n_theta", "kappa0", "K"):
            if key not in data:
                raise ValueError(f"structure document is missing key {key!r}")
        dims = Dims(*(_count(data, key) for key in ("n_x", "n_u", "n_y")))
        structure = cls(kappa0=data["kappa0"], K=data["K"], dims=dims)
        if structure.n_theta != _count(data, "n_theta"):
            raise ValueError(
                f"n_theta={data['n_theta']} does not match K with {structure.n_theta} columns"
            )
        return structure


class Instance(NamedTuple):
    """A synthetic problem: black-box model, structured truth, and the hidden transform."""

    blackbox: StateSpace
    truth: StateSpace
    T: np.ndarray


class Residuals(NamedTuple):
    """Frobenius norms of the three similarity residuals; accepted by :func:`_passes`."""

    r_a: float
    r_b: float
    r_c: float

    def to_dict(self) -> dict:
        """The ``residuals`` object of a solve or verify report."""
        return {"r_A": self.r_a, "r_B": self.r_b, "r_C": self.r_c}


def _worst(values) -> float:
    """The "worst" of every accept test: ``max``, but NaN (which fails) if any value is NaN."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _passes(res: Residuals, tol: float = RESIDUAL_TOL) -> bool:
    """The one accept test of a read-out: its worst residual is <= ``tol``, so a NaN fails."""
    return _worst(res) <= tol


@dataclass
class Solution:
    """Recovered parameters, C-ordered transform, their residuals and rcond(T), with diagnostics.

    ``residuals`` and ``rcond_T`` are the stage's one read-out of ``T``, made by its one
    epilogue :func:`_stage`: the report and the exit code of ``solve`` take them from here.
    """

    theta: np.ndarray
    T: np.ndarray
    result: OptimResult
    diagnostics: dict
    residuals: Residuals
    rcond_T: float

    @property
    def degenerate(self) -> bool:
        """Whether ``T`` is singular: the one test of a stage's ``rcond_T`` (``solve`` exits 4)."""
        return self.rcond_T < SINGULAR_RTOL


def vec(m: np.ndarray) -> np.ndarray:
    """Stack the columns of ``m`` into one vector."""
    return np.asarray(m, dtype=float).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: rebuild a ``rows`` x ``cols`` matrix column by column."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != rows * cols:
        raise ValueError(f"cannot reshape a length-{v.size} vector into {rows}x{cols}")
    return v.reshape(rows, cols, order="F")


def block_slices(dims: Dims) -> tuple[slice, slice, slice]:
    """Slices of the A, B and C blocks inside a stacked [vec(A); vec(B); vec(C)] vector."""
    n_a = dims.n_x**2
    n_b = dims.n_x * dims.n_u
    n_c = dims.n_x * dims.n_y
    return (slice(0, n_a), slice(n_a, n_a + n_b), slice(n_a + n_b, n_a + n_b + n_c))


def check_dims(blackbox: StateSpace, structure) -> None:
    """Raise ``ValueError`` unless ``structure`` (anything with ``dims``) matches the black box."""
    if structure.dims != blackbox.dims:
        raise ValueError(
            f"dimension mismatch: black-box {blackbox.dims} vs structure {structure.dims}"
        )


def kron_t(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The Kronecker product m^T (x) n by einsum, so that vec(N X M) = kron_t(M, N) vec(X)."""
    return np.einsum("lj,ik->jilk", m, n).reshape(
        m.shape[1] * n.shape[0], m.shape[0] * n.shape[1]
    )


def rcond(t: np.ndarray) -> float:
    """Smallest over largest singular value of ``t`` (0 for the zero matrix)."""
    sv = np.linalg.svd(t, compute_uv=False)
    return float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0


def structured_matrices(
    structure: AffineStructure, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) of the structured model at ``theta``, without input validation."""
    stacked = structure.kappa0 + structure.K @ theta
    d = structure.dims
    sl_a, sl_b, sl_c = block_slices(d)
    return (
        unvec(stacked[sl_a], d.n_x, d.n_x),
        unvec(stacked[sl_b], d.n_x, d.n_u),
        unvec(stacked[sl_c], d.n_y, d.n_x),
    )


def eval_structure(structure: AffineStructure, theta: np.ndarray) -> StateSpace:
    """Evaluate the structured model at a parameter point."""
    a, b, c = structured_matrices(structure, _as_vector(theta, structure.n_theta, "theta"))
    return StateSpace(A=a, B=b, C=c)


def apply_similarity(model: StateSpace, t: np.ndarray) -> StateSpace:
    """Change state coordinates: returns (T A T^-1, T B, C T^-1).

    The output satisfies the similarity equations exactly (up to roundoff)
    with ``t`` as the transform and ``model`` as the structured side.
    """
    n_x = model.dims.n_x
    t = _as_matrix(t, n_x, n_x, "T")
    if rcond(t) < SINGULAR_RTOL:
        raise ValueError("similarity transform is numerically singular")
    # X = M T^-1 solved as T' X' = M'
    a_bb = np.linalg.solve(t.T, (t @ model.A).T).T
    c_bb = np.linalg.solve(t.T, model.C.T).T
    return StateSpace(A=a_bb, B=t @ model.B, C=c_bb)


def random_similarity(n: int, cond_max: float, rng: np.random.Generator) -> np.ndarray:
    """Random n x n transform whose condition number is at most ``cond_max``.

    Built from two random orthogonal factors and singular values drawn
    log-uniformly in [1, cond_max], so the conditioning bound holds by
    construction.  ``cond_max`` may be at most 1 / ``SINGULAR_RTOL``, beyond
    which :func:`apply_similarity` would reject some draws as singular.
    """
    if not 1.0 < cond_max <= 1.0 / SINGULAR_RTOL:
        raise ValueError(f"cond_max must exceed 1 and be at most 1/SINGULAR_RTOL = "
                         f"{1.0 / SINGULAR_RTOL:g}, got {cond_max}")
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    singular_values = np.exp(rng.uniform(0.0, np.log(cond_max), size=n))
    return (q1 * singular_values) @ q2.T


def generate_instance(
    structure: AffineStructure,
    theta: np.ndarray,
    seed: int | np.random.Generator = 0,
    cond_max: float = 100.0,
) -> Instance:
    """Build a synthetic black-box/truth pair with a hidden random transform.

    Deterministic for a given seed.  The black-box triple is the structured
    model at ``theta`` seen through a random similarity transform with
    condition number at most ``cond_max``.
    """
    rng = np.random.default_rng(seed)
    truth = eval_structure(structure, theta)
    t = random_similarity(structure.dims.n_x, cond_max, rng)
    return Instance(blackbox=apply_similarity(truth, t), truth=truth, T=t)


def residuals(blackbox: StateSpace, t: np.ndarray, structured: StateSpace) -> Residuals:
    """Frobenius norms of the three similarity-equation residuals.

    Zero exactly when ``(structured, t)`` reproduces the black-box triple.
    """
    n_x = blackbox.dims.n_x
    t = _as_matrix(t, n_x, n_x, "T")
    check_dims(blackbox, structured)
    return _residual_norms(blackbox, t, structured.A, structured.B, structured.C)


def _residual_norms(blackbox: StateSpace, t: np.ndarray, a: np.ndarray, b: np.ndarray,
                    c: np.ndarray) -> Residuals:
    """:func:`residuals` of ``(a, b, c)``, unvalidated; an overflow gives ``inf`` or NaN."""
    r_a = np.linalg.norm(blackbox.A @ t - t @ a)
    r_b = np.linalg.norm(blackbox.B - t @ b)
    r_c = np.linalg.norm(blackbox.C @ t - c)
    return Residuals(float(r_a), float(r_b), float(r_c))


def _read_out(blackbox: StateSpace, structure: AffineStructure, theta: np.ndarray,
              t: np.ndarray) -> Residuals:
    """The residuals of ``(theta, t)``: the one read-out of both solver stages and ``verify``."""
    return _residual_norms(blackbox, t, *structured_matrices(structure, theta))


def _stage(theta: np.ndarray, t: np.ndarray, result: OptimResult, res: Residuals,
           started: float, **keys) -> Solution:
    """A solver stage's answer, its one epilogue: ``rcond(t)``, taken once, and the diagnostics.

    ``res`` is the stage's read-out of ``(theta, t)``, ``started`` the stage's
    ``time.perf_counter()`` at its start, and ``keys`` the stage's own diagnostics.
    """
    diagnostics = {"objective_final": result.f_best, "grad_norm": result.grad_norm,
                   "residuals": res.to_dict(), **keys}
    sol = Solution(theta, t, result, diagnostics, res, rcond(t))
    diagnostics["cond_T"] = None if sol.degenerate else 1.0 / sol.rcond_T
    diagnostics["wall_time_ms"] = (time.perf_counter() - started) * 1e3
    diagnostics["trace"] = [[k, f, g] for k, f, g in result.trace]
    return sol
