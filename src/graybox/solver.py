"""The single entry point to every solve method, used by the CLI and the library."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import lsq, nullspace
from .model import (AffineStructure, Solution, StateSpace, _as_matrix, _as_vector, _passes,
                    check_dims)
from .optim import OptimConfig

METHODS = ("nullspace", "lsq", "pipeline")


def _checked_init(init: tuple, structure: AffineStructure) -> tuple[np.ndarray, np.ndarray]:
    n_x = structure.dims.n_x
    return (_as_vector(init[0], structure.n_theta, "init theta"),
            _as_matrix(init[1], n_x, n_x, "init T"))


def solve(
    blackbox: StateSpace,
    structure: AffineStructure,
    method: str = "pipeline",
    config: OptimConfig | None = None,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> Solution:
    """Recover ``theta`` and ``T`` by ``method``: "nullspace", "lsq" or "pipeline".

    The pipeline returns the null-space solution when its read-out passes
    (``model._passes``: a NaN does not), whatever the optimizer status, and
    otherwise polishes it with lsq.  Its ``result``, ``residuals`` and ``rcond_T``
    are those of the stage it returns, and its ``diagnostics`` hold each stage's under
    "nullspace" and "polish"; a skipped polish is ``{"skipped": True, "reason":
    ...}``.  ``init`` is an lsq starting ``(theta, T)``.  Outside input is
    validated here, once; a degenerate ``T`` is one of :attr:`Solution.degenerate`.

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
    if _passes(first.residuals):
        stage = first
        polish = {"skipped": True, "reason": "null-space solution within the residual tolerance"}
    else:
        stage = lsq.solve_lsq(blackbox, structure, init=(first.theta, first.T), config=config)
        polish = stage.diagnostics
    return replace(stage, diagnostics={"nullspace": first.diagnostics, "polish": polish})
