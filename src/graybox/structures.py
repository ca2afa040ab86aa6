"""Canonical gray-box structures shipped with the package.

Each builder returns an :class:`AffineStructure` together with a reference
parameter point used by the documentation and the test harness.  The CLI
accepts the names in :data:`BUNDLED`, and ``chain<n>`` for :func:`chain`,
wherever a structure file is expected.
"""

from __future__ import annotations

import re

import numpy as np

from .model import AffineStructure, Dims

__all__ = ["scalar", "mass_spring_damper", "compartment3", "chain", "BUNDLED",
           "bundled_structure", "is_bundled"]


def scalar() -> tuple[AffineStructure, np.ndarray]:
    """First-order model: A = theta_1, B = theta_2, C fixed at 0.5."""
    structure = AffineStructure(
        kappa0=np.array([0.0, 0.0, 0.5]),
        K=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        dims=Dims(1, 1, 1),
    )
    return structure, np.array([3.0, 2.0])


def mass_spring_damper() -> tuple[AffineStructure, np.ndarray]:
    """Unit mass with stiffness theta_1, damping theta_2 and input gain theta_3.

        A = [[0, 1], [-theta_1, -theta_2]]   B = [[0], [theta_3]]   C = [1, 0]
    """
    dims = Dims(2, 1, 1)
    kappa0 = np.zeros(dims.n_abc)
    k = np.zeros((dims.n_abc, 3))
    # vec(A) = [0, -theta_1, 1, -theta_2]
    kappa0[2] = 1.0
    k[1, 0] = -1.0
    k[3, 1] = -1.0
    # vec(B) = [0, theta_3]
    k[5, 2] = 1.0
    # vec(C) = [1, 0]
    kappa0[6] = 1.0
    return AffineStructure(kappa0=kappa0, K=k, dims=dims), np.array([4.0, 0.5, 1.0])


def compartment3() -> tuple[AffineStructure, np.ndarray]:
    """Three-compartment chain with rates theta_1..theta_3 and input gain theta_4.

        A = [[-theta_1, 0, 0], [theta_1, -theta_2, 0], [0, theta_2, -theta_3]]
        B = [[theta_4], [0], [0]]   C = [0, 0, 1]

    Material flows 1 -> 2 -> 3 and drains from compartment 3; the last
    compartment is observed.  The rates are recoverable up to swapping the
    first two (the input gain compensates), so parameter estimates should be
    judged through the similarity residuals, not entrywise.  The structure
    is ``chain(3)``, at another reference point.
    """
    return chain(3)[0], np.array([1.0, 0.7, 0.4, 2.0])


def chain(n: int) -> tuple[AffineStructure, np.ndarray]:
    """n-compartment chain with rates theta_1..theta_n and input gain theta_{n+1}.

        A = -diag(theta_1..theta_n) + subdiag(theta_1..theta_{n-1})
        B = theta_{n+1} e_1        C = e_n^T

    Material enters compartment 1, flows i -> i+1 at rate theta_i, drains
    from compartment n, and compartment n is observed; ``chain(3)`` is the
    structure of :func:`compartment3`.  The reference point is rates
    ``linspace(1, 0.3, n)`` and input gain 2.
    """
    dims = Dims(n, 1, 1)
    kappa0 = np.zeros(dims.n_abc)
    k = np.zeros((dims.n_abc, n + 1))
    for i in range(n):  # column-major: A[r, c] sits at r + c * n
        k[i + i * n, i] = -1.0
        if i + 1 < n:
            k[i + 1 + i * n, i] = 1.0
    k[n * n, n] = 1.0  # B[0, 0]
    kappa0[n * n + n + (n - 1)] = 1.0  # C[0, n-1]
    structure = AffineStructure(kappa0=kappa0, K=k, dims=dims)
    return structure, np.append(np.linspace(1.0, 0.3, n), 2.0)


BUNDLED = {
    "scalar": scalar,
    "mass-spring": mass_spring_damper,
    "compartment3": compartment3,
}


_CHAIN = re.compile(r"chain([1-9][0-9]*)")
# a name of a few characters must not allocate gigabytes: K of chain(n) has
# about n^3 entries and the lsq Jacobian about n^4
MAX_CHAIN = 64


def is_bundled(name: str) -> bool:
    """True for a name in :data:`BUNDLED` or of the form ``chain<n>`` with n >= 1."""
    return name in BUNDLED or _CHAIN.fullmatch(name) is not None


def bundled_structure(name: str) -> tuple[AffineStructure, np.ndarray]:
    """Look up a bundled structure or ``chain<n>`` by name; raises ValueError for unknown names."""
    if name in BUNDLED:
        return BUNDLED[name]()
    match = _CHAIN.fullmatch(name)
    if match is None:
        raise ValueError(
            f"unknown structure {name!r}; bundled names are {sorted(BUNDLED)} and chain<n>"
        )
    n = int(match.group(1))
    if n > MAX_CHAIN:
        raise ValueError(f"structure {name!r}: chain<n> takes n <= {MAX_CHAIN}")
    return chain(n)
