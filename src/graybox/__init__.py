"""Gray-box re-parameterization of black-box LTI state-space models.

Given a fully parameterized state-space triple known only up to a change of
state coordinates, recover the physical parameters of an affine gray-box
structure together with the similarity transform linking the two, by either
a null-space search or a direct least-squares fit (or the former, polished by
the latter when it falls short of the residual tolerance), all behind
:func:`solve`.
"""

from .model import (
    AffineStructure,
    Dims,
    Instance,
    Residuals,
    Solution,
    StateSpace,
    apply_similarity,
    eval_structure,
    generate_instance,
    residuals,
    unvec,
    vec,
)
from .nullspace import SingularTransformError
from .solver import solve
from .optim import InfeasibleStartError, OptimConfig, OptimResult

__version__ = "0.1.0"

__all__ = [
    "AffineStructure",
    "Dims",
    "Instance",
    "Residuals",
    "Solution",
    "StateSpace",
    "apply_similarity",
    "eval_structure",
    "generate_instance",
    "residuals",
    "unvec",
    "vec",
    "SingularTransformError",
    "solve",
    "InfeasibleStartError",
    "OptimConfig",
    "OptimResult",
    "__version__",
]
