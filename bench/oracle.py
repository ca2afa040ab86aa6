"""Independent residual oracle behind ``recovery_rate`` and ``honest_exit_rate``.

Rebuilds the structured model from ``kappa0 + K theta`` and the similarity
residuals with plain numpy, from the input documents the benchmark wrote and
the ``theta_hat``/``T_hat`` a report returns.  Nothing from the package is
used, so a defect in the package's own residual code cannot hide here.
"""

from __future__ import annotations

import numpy as np

# A solve counts as recovered when its largest similarity residual is at most
# this (the default ``verify --tol``).
RECOVERY_TOL = 1e-8

# Exit codes after which ``solve`` has finished in a documented way.
DOCUMENTED_EXITS = (0, 3, 4)


def residuals(blackbox: dict, structure: dict, theta, t) -> tuple[float, float, float]:
    """Frobenius norms of A_bb T - T A(theta), B_bb - T B(theta), C_bb T - C(theta)."""
    n_x, n_u, n_y = structure["n_x"], structure["n_u"], structure["n_y"]
    stacked = np.asarray(structure["kappa0"], float) + np.asarray(structure["K"], float) @ \
        np.asarray(theta, float)
    n_a, n_b = n_x * n_x, n_x * n_u
    a = stacked[:n_a].reshape((n_x, n_x), order="F")
    b = stacked[n_a:n_a + n_b].reshape((n_x, n_u), order="F")
    c = stacked[n_a + n_b:].reshape((n_y, n_x), order="F")
    t = np.asarray(t, float)
    a_bb, b_bb, c_bb = (np.asarray(blackbox[k], float) for k in ("A", "B", "C"))
    return (float(np.linalg.norm(a_bb @ t - t @ a)),
            float(np.linalg.norm(b_bb - t @ b)),
            float(np.linalg.norm(c_bb @ t - c)))


def max_residual(blackbox: dict, structure: dict, theta, t) -> float:
    return max(residuals(blackbox, structure, theta, t))


def judge(code: int, report: dict | None, blackbox: dict, structure: dict) -> dict:
    """Verdict on one solve: recovered, silently wrong, honest report, negative control.

    ``failed`` marks a solve that did not end in a documented way: an exit
    code outside 0/3/4, or exit 0/3 without a readable report.  Exit 4 may
    legitimately end without a report (degenerate transform).
    """
    verdict = {"code": code, "recovered": False, "silent_wrong": False, "max_residual": None,
               "report_honest": True, "control_ok": True, "failed": code not in DOCUMENTED_EXITS}
    if report is None:
        verdict["failed"] |= code != 4
        return verdict
    try:
        theta = np.asarray(report["theta_hat"], float)
        t = np.asarray(report["T_hat"], float)
        own = residuals(blackbox, structure, theta, t)
        claimed = report["residuals"]
        claimed = (claimed["r_A"], claimed["r_B"], claimed["r_C"])
    except (KeyError, TypeError, ValueError):
        verdict["failed"] = True
        return verdict
    worst = max(own)
    recovered = bool(worst <= RECOVERY_TOL)
    verdict.update(recovered=recovered, max_residual=worst,
                   silent_wrong=code == 0 and not recovered)
    # The report's own residuals must agree with the recomputation.
    verdict["report_honest"] = all(
        c is not None and abs(c - o) <= 1e-12 + 1e-6 * o for c, o in zip(claimed, own))
    if recovered:
        # Negative control: a visibly wrong transform must not pass the oracle.
        bad = t.copy()
        bad[0, 0] += 0.1
        verdict["control_ok"] = max_residual(blackbox, structure, theta, bad) > RECOVERY_TOL
    return verdict
