"""The single entry point to every solve method, used by the CLI and the library."""

from __future__ import annotations

import numpy as np

from . import lsq, nullspace
from .model import RESIDUAL_TOL, AffineStructure, Solution, StateSpace, check_dims
from .optim import OptimConfig

METHODS = ("nullspace", "lsq", "pipeline")


def _checked_init(init: tuple, structure: AffineStructure) -> tuple[np.ndarray, np.ndarray]:
    theta0 = np.asarray(init[0], dtype=float).reshape(-1)
    t0 = np.asarray(init[1], dtype=float)
    n_x = structure.dims.n_x
    if theta0.size != structure.n_theta:
        raise ValueError(f"init theta must have length {structure.n_theta}, got {theta0.size}")
    if t0.shape != (n_x, n_x):
        raise ValueError(f"init T must have shape ({n_x}, {n_x}), got {t0.shape}")
    if not (np.all(np.isfinite(theta0)) and np.all(np.isfinite(t0))):
        raise ValueError("init contains non-finite entries")
    return theta0, t0


def solve(
    blackbox: StateSpace,
    structure: AffineStructure,
    method: str = "pipeline",
    config: OptimConfig | None = None,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> Solution:
    """Recover ``theta`` and ``T`` by ``method``: "nullspace", "lsq" or "pipeline".

    The pipeline returns the null-space solution when it converged with a
    max similarity residual <= ``RESIDUAL_TOL``, and otherwise polishes it
    with lsq.  Its ``result`` is that of the stage it returns, and its
    ``diagnostics`` hold each stage's under "nullspace" and "polish"; a
    skipped polish is ``{"skipped": True, "reason": ...}``.  ``init`` is an
    lsq starting ``(theta, T)``.  Outside input is validated here, once; a
    degenerate ``T`` is one with ``rcond(T) < SINGULAR_RTOL``.

    Raises:
        ValueError: on an unknown method, mismatched dimensions, or an init
            that is malformed, non-finite or given to another method.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose one of {METHODS}")
    check_dims(blackbox, structure)
    if init is not None:
        if method != "lsq":
            raise ValueError(f"init applies to method 'lsq' only, not {method!r}")
        init = _checked_init(init, structure)
    if method == "nullspace":
        return nullspace.solve_nullspace(blackbox, structure, config)
    if method == "lsq":
        return lsq.solve_lsq(blackbox, structure, init=init, config=config)
    first = nullspace.solve_nullspace(blackbox, structure, config)
    if first.result.converged and max(first.diagnostics["residuals"].values()) <= RESIDUAL_TOL:
        skipped = {"skipped": True, "reason": "null-space solution converged within the "
                                              "residual tolerance"}
        return Solution(theta=first.theta, T=first.T, result=first.result,
                        diagnostics={"nullspace": first.diagnostics, "polish": skipped})
    polish = lsq.solve_lsq(blackbox, structure, init=(first.theta, first.T), config=config)
    diagnostics = {"nullspace": first.diagnostics, "polish": polish.diagnostics}
    return Solution(theta=polish.theta, T=polish.T, result=polish.result, diagnostics=diagnostics)
