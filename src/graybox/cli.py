"""Command-line frontend: generate instances, run solvers, check gradients, verify.

Exit codes: 0 success, 1 failed check/verification, 2 input or schema error,
3 max similarity residual above ``RESIDUAL_TOL`` whatever the optimizer status
(report still written), 4 degenerate or infeasible solution.  So ``solve``
exits 0 exactly when ``T_hat`` is not degenerate and ``verify`` at its
default tolerance accepts the report.

``solve`` and ``verify`` write their reports as compact, one-line JSON,
with a non-finite number written as ``null``; ``python -m json.tool``
pretty-prints them.  ``generate`` writes its files indented.

``main(argv)`` may be called any number of times in one process: it builds
its parser once, on the first call, and carries no state from one call to
the next.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import lsq, nullspace, optim, solver
from .model import (
    RESIDUAL_TOL,
    SINGULAR_RTOL,
    AffineStructure,
    StateSpace,
    check_dims,
    eval_structure,
    generate_instance,
    residuals,
    unvec,
    vec,
)
from .structures import BUNDLED, bundled_structure, is_bundled

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DEGENERATE = 4

STRUCTURE_HELP = (f"structure JSON file or bundled name ({', '.join(sorted(BUNDLED))}, "
                  "or chain<n> for the n-compartment chain)")


def _load(path: str, what: str, parse):
    """``parse`` of the JSON object in ``path``.

    Whatever goes wrong while reading or parsing the document becomes one
    ``ValueError`` that names the file, so a malformed input exits 2.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        return parse(doc)
    except KeyError as exc:
        raise ValueError(f"{what} file {path}: missing key {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"{what} file {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _arrays(*keys: str):
    """Parser of a document's ``keys`` as float arrays."""
    return lambda doc: tuple(np.asarray(doc[key], dtype=float) for key in keys)


def _load_structure(spec: str) -> AffineStructure:
    if is_bundled(spec):
        return bundled_structure(spec)[0]
    return _load(spec, "structure", AffineStructure.from_dict)


def _load_truth(path: str | None, structure: AffineStructure) -> np.ndarray | None:
    """The truth file's ``theta``, finite and of the structure's length, or None without a file."""
    if not path:
        return None

    def parse(doc: dict) -> np.ndarray:
        theta = np.asarray(doc["theta"], dtype=float).reshape(structure.n_theta)
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta contains non-finite entries")
        return theta

    return _load(path, "truth", parse)


def _check_tolerance(value: float, flag: str) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{flag} must be finite and at least 0, got {value}")


def _parse_theta(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.replace(",", " ").split()])
    except ValueError as exc:
        raise ValueError(f"--theta must be a comma-separated list of numbers: {exc}") from exc


def _load_config(args) -> optim.OptimConfig:
    cfg = (_load(args.config, "config", optim.OptimConfig.from_dict) if args.config
           else optim.OptimConfig())
    overrides = {name: getattr(args, name) for name in ("seed", "restarts")
                 if getattr(args, name) is not None}
    return dataclasses.replace(cfg, **overrides)  # validates the overrides too


def _jsonable(value):
    """Recursively convert arrays and non-finite floats for strict JSON output."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, float)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _write_report(report: dict, out: str | None) -> None:
    """Write ``report`` as one line of strict JSON to ``out``, or to standard output.

    Compact, so the C encoder writes it.  A report that strict JSON cannot
    hold as it is, with a non-finite number or a numpy type, goes through
    :func:`_jsonable` first, which writes a non-finite number as ``null``.
    """
    try:
        text = json.dumps(report, allow_nan=False)
    except (TypeError, ValueError):
        text = json.dumps(_jsonable(report), allow_nan=False)
    text += "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _theta_error(theta_hat: np.ndarray, theta_true: np.ndarray) -> float:
    scale = np.linalg.norm(theta_true)
    return float(np.linalg.norm(theta_hat - theta_true) / (scale if scale > 0 else 1.0))


def cmd_generate(args) -> int:
    structure = _load_structure(args.structure)
    theta = _parse_theta(args.theta)
    instance = generate_instance(structure, theta, seed=args.seed, cond_max=args.cond_max)
    truth_doc = {
        "theta": theta.tolist(),
        "T": instance.T.tolist(),
        **instance.truth.to_dict(),
    }
    blackbox_path = f"{args.out_prefix}.blackbox.json"
    truth_path = f"{args.out_prefix}.truth.json"
    Path(blackbox_path).write_text(
        json.dumps(instance.blackbox.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    Path(truth_path).write_text(json.dumps(truth_doc, indent=2) + "\n", encoding="utf-8")
    print(blackbox_path)
    print(truth_path)
    return EXIT_OK


def cmd_solve(args) -> int:
    blackbox = _load(args.blackbox, "black-box", StateSpace.from_dict)
    structure = _load_structure(args.structure)
    theta_true = _load_truth(args.truth, structure)
    cfg = _load_config(args)
    if args.init and args.method != "lsq":
        raise ValueError("--init applies to --method lsq only")
    started = time.perf_counter()
    init = _load(args.init, "init", _arrays("theta", "T")) if args.init else None
    sol = solver.solve(blackbox, structure, args.method, cfg, init)
    res = sol.residuals  # the solver's one read-out, made on the T_hat written here
    report = {
        "method": args.method,
        "status": sol.result.status,
        "theta_hat": sol.theta.tolist(),
        "T_hat": sol.T.tolist(),
        "residuals": {"r_A": res.r_a, "r_B": res.r_b, "r_C": res.r_c},
        "objective_final": sol.result.f_best,
        "timing_ms": (time.perf_counter() - started) * 1e3,
        "diagnostics": sol.diagnostics,
    }
    if theta_true is not None:
        report["theta_error"] = _theta_error(sol.theta, theta_true)
    _write_report(report, args.out)
    if sol.rcond_T < SINGULAR_RTOL:  # the stage's rcond of the T_hat written here
        print("degenerate transform in solution", file=sys.stderr)
        return EXIT_DEGENERATE
    worst = max(res)
    if not worst <= RESIDUAL_TOL:
        print(f"max residual {worst:.3e} exceeds the tolerance {RESIDUAL_TOL:g} "
              f"(status: {sol.result.status})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _point_error(args, blackbox, structure, rng, reduced) -> float | None:
    """Max relative error of the analytic derivative at one random point, or None if degenerate.

    Every mode compares an analytic Jacobian with central differences of its
    function, and fails a point where the two differ in shape (inf).  The
    gradient modes check ``2 J^T r`` as the Jacobian of the scalar ``r @ r``
    (for ``hbar``, of ``reduced``: the search's ``ReducedResidual``), both
    divided by max(1, |r @ r|) at the point: central differences lose
    eps*|f|/h absolute accuracy, which would drown a 1e-6 tolerance at large
    ``r @ r``.  ``hbar`` and ``jacobians`` resample a near-singular T.
    """
    dims, n_x, n_theta = blackbox.dims, blackbox.dims.n_x, structure.n_theta
    x = (rng.standard_normal(dims.n_unknowns) if args.which == "jacobians"  # vec(T) first
         else vec(rng.standard_normal((n_x, n_x))))
    if args.which in ("hbar", "jacobians"):
        sv = np.linalg.svd(unvec(x[: n_x * n_x], n_x, n_x), compute_uv=False)
        if sv[-1] < 1e-2 * max(1.0, sv[0]):
            return None
    if args.which == "jacobians":
        fun = functools.partial(nullspace.realization_vector, dims=dims)
        analytic = np.vstack(nullspace.realization_jacobians(x, dims))
    else:
        if args.which == "hbar":
            def fg(tv):  # +inf where T is singular, so finite differences resample
                r, jac = reduced(tv)
                return (math.inf, None) if r is None else (float(r @ r), 2.0 * (jac.T @ r))
        else:  # lsq-theta, lsq-T: r @ r of lsq.cost and one block of its gradient 2 J^T r
            t_vec, theta = x, rng.standard_normal(n_theta)
            on_theta = args.which == "lsq-theta"
            cols, x = (slice(None, n_theta), theta) if on_theta else (slice(n_theta, None), t_vec)

            def fg(z):
                th, tv = (z, t_vec) if on_theta else (theta, z)
                r, jac = lsq.cost(th, unvec(tv, n_x, n_x), blackbox, structure)
                return float(r @ r), 2.0 * (jac[:, cols].T @ r)
        f, g = fg(x)
        scale = 1.0 / max(1.0, abs(f))
        analytic, fun = scale * np.reshape(g, (1, -1)), lambda z: scale * fg(z)[0]
    approx = optim.fd_jacobian(fun, x)
    if analytic.shape != approx.shape:
        return math.inf
    return float(np.max(optim.relative_errors(analytic, approx)))


def cmd_check_grad(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    _check_tolerance(args.rel_tol, "--rel-tol")
    blackbox = _load(args.blackbox, "black-box", StateSpace.from_dict)
    structure = _load_structure(args.structure)
    check_dims(blackbox, structure)
    rng = np.random.default_rng(args.seed)
    reduced = (nullspace.ReducedResidual(blackbox, nullspace.structure_projector(structure))
               if args.which == "hbar" else None)

    worst = 0.0
    produced = 0
    resampled = 0
    while produced < args.points:
        try:
            err = _point_error(args, blackbox, structure, rng, reduced)
        except (ValueError, nullspace.SingularTransformError):
            err = None  # finite differences probed into the excluded region
        if err is None:
            resampled += 1
            if resampled > 50 * args.points:
                raise ValueError("too many degenerate sample points; check the instance")
            continue
        produced += 1
        worst = max(worst, err)
        print(f"point {produced:3d}  max_rel_err {err:.3e}")
    print(f"resampled {resampled} degenerate point(s)")
    print(f"worst {worst:.3e}  tolerance {args.rel_tol:.3e}")
    return EXIT_OK if worst <= args.rel_tol else EXIT_FAIL


def cmd_verify(args) -> int:
    _check_tolerance(args.tol, "--tol")
    theta_hat, t_hat = _load(args.result, "result", _arrays("theta_hat", "T_hat"))
    blackbox = _load(args.blackbox, "black-box", StateSpace.from_dict)
    structure = _load_structure(args.structure)
    theta_true = _load_truth(args.truth, structure)
    res = residuals(blackbox, t_hat, eval_structure(structure, theta_hat))
    worst = max(res)
    report = {
        "residuals": {"r_A": res.r_a, "r_B": res.r_b, "r_C": res.r_c},
        "max_residual": worst,
        "tol": args.tol,
        "pass": bool(worst <= args.tol),
    }
    if theta_true is not None:
        report["theta_error"] = _theta_error(theta_hat, theta_true)
    _write_report(report, args.out)
    return EXIT_OK if worst <= args.tol else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``graybox`` parser, built on the first call and shared by every later one.

    argparse set-up costs several times a parse, and the parser never
    changes, so ``main`` reuses it.  Each subcommand's ``func`` default is
    bound to its ``cmd_*`` function here, when the parser is built.  No
    action has a mutable default, and ``parse_args`` returns a new
    namespace each call, so nothing carries over from one call to the next.
    Every caller gets the same parser object; do not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="graybox",
        description="Re-parameterize a black-box LTI state-space model into a structured gray-box form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="create a synthetic black-box/truth pair")
    gen.add_argument("--structure", required=True, help=STRUCTURE_HELP)
    gen.add_argument("--theta", required=True, help="comma-separated parameter values")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--cond-max", type=float, default=100.0,
                     help="condition-number bound for the hidden transform (default 100)")
    gen.add_argument("--out-prefix", required=True,
                     help="writes <prefix>.blackbox.json and <prefix>.truth.json")
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="recover parameters and transform")
    solve.add_argument("--method", choices=solver.METHODS, default="pipeline")
    solve.add_argument("--blackbox", required=True)
    solve.add_argument("--structure", required=True, help=STRUCTURE_HELP)
    solve.add_argument("--truth", help="truth JSON; adds theta_error to the report")
    solve.add_argument("--init", help="JSON with keys 'theta' and 'T' (lsq method only)")
    solve.add_argument("--config", help="JSON file with optimizer options")
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--restarts", type=int, default=None,
                       help="extra random starts for the null-space search")
    solve.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored; starts run serially")
    solve.add_argument("--out", help="report path (default: stdout)")
    solve.set_defaults(func=cmd_solve)

    check = sub.add_parser("check-grad", help="compare analytic gradients to finite differences")
    check.add_argument("--which", choices=("hbar", "lsq-theta", "lsq-T", "jacobians"),
                       required=True,
                       help="hbar: the null-space search's objective r @ r over T and "
                            "its gradient 2 J^T r; lsq-theta/lsq-T: "
                            "blocks of the least-squares gradient 2 J^T r; jacobians: "
                            "realization extraction")
    check.add_argument("--blackbox", required=True)
    check.add_argument("--structure", required=True, help=STRUCTURE_HELP)
    check.add_argument("--points", type=int, default=100)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--rel-tol", type=float, default=1e-6)
    check.set_defaults(func=cmd_check_grad)

    verify = sub.add_parser("verify", help="recompute residuals for a solve report")
    verify.add_argument("--result", required=True, help="report JSON from 'solve'")
    verify.add_argument("--blackbox", required=True)
    verify.add_argument("--structure", required=True, help=STRUCTURE_HELP)
    verify.add_argument("--truth")
    verify.add_argument("--tol", type=float, default=RESIDUAL_TOL)
    verify.add_argument("--out", help="verification report path (default: stdout)")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (nullspace.SingularTransformError, optim.InfeasibleStartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
