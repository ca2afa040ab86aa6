"""Command-line frontend: generate instances, run solvers, check gradients, verify.

Exit codes: 0 success, 1 failed check/verification, 2 input or schema error,
3 solver did not converge or its residual exceeds ``RESIDUAL_TOL`` (report
still written), 4 degenerate or infeasible solution.
"""

from __future__ import annotations

import argparse
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
    rcond,
    residuals,
    unvec,
    vec,
)
from .structures import BUNDLED, bundled_structure

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DEGENERATE = 4


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc


def _load_blackbox(path: str) -> StateSpace:
    try:
        return StateSpace.from_dict(_load_json(path))
    except ValueError as exc:
        raise ValueError(f"black-box file {path}: {exc}") from exc


def _load_structure(spec: str) -> AffineStructure:
    if spec in BUNDLED:
        return bundled_structure(spec)[0]
    try:
        return AffineStructure.from_dict(_load_json(spec))
    except ValueError as exc:
        raise ValueError(f"structure file {spec}: {exc}") from exc


def _parse_theta(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.replace(",", " ").split()])
    except ValueError as exc:
        raise ValueError(f"--theta must be a comma-separated list of numbers: {exc}") from exc


def _load_config(args) -> optim.OptimConfig:
    data = _load_json(args.config) if getattr(args, "config", None) else {}
    try:
        cfg = optim.OptimConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config file {args.config}: {exc}") from exc
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "restarts", None) is not None:
        overrides["restarts"] = args.restarts
    if overrides:
        cfg = optim.OptimConfig.from_dict({**_config_dict(cfg), **overrides})
    return cfg


def _config_dict(cfg: optim.OptimConfig) -> dict:
    return {name: getattr(cfg, name) for name in cfg.__dataclass_fields__}


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
    text = json.dumps(_jsonable(report), indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _theta_error(theta_hat: np.ndarray, truth: dict) -> float:
    theta_true = np.asarray(truth["theta"], dtype=float)
    if theta_true.shape != theta_hat.shape:
        raise ValueError(
            f"truth theta has length {theta_true.size}, solver produced {theta_hat.size}"
        )
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


def _load_pair(path: str, what: str, keys: tuple[str, str]) -> tuple:
    """Values of the two required ``keys`` of a JSON document."""
    doc = _load_json(path)
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} file {path}: missing key {key!r}")
    return doc[keys[0]], doc[keys[1]]


def cmd_solve(args) -> int:
    blackbox = _load_blackbox(args.blackbox)
    structure = _load_structure(args.structure)
    truth = _load_json(args.truth) if args.truth else None
    cfg = _load_config(args)
    if args.init and args.method != "lsq":
        raise ValueError("--init applies to --method lsq only")
    started = time.perf_counter()
    init = _load_pair(args.init, "init", ("theta", "T")) if args.init else None
    sol = solver.solve(blackbox, structure, args.method, cfg, init)
    res = residuals(blackbox, sol.T, eval_structure(structure, sol.theta))
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
    if truth is not None:
        report["theta_error"] = _theta_error(sol.theta, truth)
    _write_report(report, args.out)
    if rcond(sol.T) < SINGULAR_RTOL:
        print("degenerate transform in solution", file=sys.stderr)
        return EXIT_DEGENERATE
    if not sol.result.converged:
        print(f"solver did not converge (status: {sol.result.status})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    worst = max(res)
    if not worst <= RESIDUAL_TOL:
        print(f"solver converged (status: {sol.result.status}) but the max residual "
              f"{worst:.3e} exceeds the tolerance {RESIDUAL_TOL:g}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _scaled_check(fg, point) -> float:
    """Gradient check of ``fg(x) -> (f, g)`` with f normalized to unit scale at the point.

    Central differences lose eps*|f|/h absolute accuracy, so large raw
    objective values would drown a 1e-6 tolerance even for a correct
    gradient; dividing both sides by max(1, |f|) keeps the oracle sharp
    without changing what is being verified.
    """
    scale = 1.0 / max(1.0, abs(fg(point)[0]))
    report = optim.check_gradient(
        lambda x: scale * fg(x)[0], lambda x: scale * np.asarray(fg(x)[1]), point
    )
    return report.max_rel_err


def _point_error(args, blackbox, structure, rng, proj) -> float | None:
    """Max relative gradient error at one random point, or None if degenerate."""
    dims = blackbox.dims
    n_x = dims.n_x
    if args.which == "hbar":
        t = rng.standard_normal((n_x, n_x))
        sv = np.linalg.svd(t, compute_uv=False)
        if sv[-1] < 1e-2 * max(1.0, sv[0]):
            return None
        return _scaled_check(lambda tv: nullspace.reduced_distance(tv, blackbox, proj), vec(t))
    if args.which == "jacobians":
        v = rng.standard_normal(dims.n_unknowns)
        sv = np.linalg.svd(unvec(v[: n_x**2], n_x, n_x), compute_uv=False)
        if sv[-1] < 1e-2 * max(1.0, sv[0]):
            return None
        analytic = np.vstack(nullspace.realization_jacobians(v, dims))
        approx = optim.fd_jacobian(lambda w: nullspace.realization_vector(w, dims), v)
        return float(np.max(optim.relative_errors(analytic, approx)))

    t = rng.standard_normal((n_x, n_x))
    theta = rng.standard_normal(structure.n_theta)
    n_theta = structure.n_theta

    def lsq_fg(th, tv, block):  # r @ r and one block of its gradient 2 J^T r
        r, jac = lsq.cost(th, unvec(tv, n_x, n_x), blackbox, structure)
        return float(r @ r), 2.0 * (jac[:, block].T @ r)

    if args.which == "lsq-theta":
        return _scaled_check(lambda th: lsq_fg(th, vec(t), slice(None, n_theta)), theta)
    return _scaled_check(lambda tv: lsq_fg(theta, tv, slice(n_theta, None)), vec(t))  # lsq-T


def cmd_check_grad(args) -> int:
    blackbox = _load_blackbox(args.blackbox)
    structure = _load_structure(args.structure)
    check_dims(blackbox, structure)
    rng = np.random.default_rng(args.seed)
    proj = nullspace.structure_projector(structure) if args.which == "hbar" else None

    worst = 0.0
    produced = 0
    resampled = 0
    while produced < args.points:
        try:
            err = _point_error(args, blackbox, structure, rng, proj)
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
    theta_hat, t_hat = _load_pair(args.result, "result", ("theta_hat", "T_hat"))
    blackbox = _load_blackbox(args.blackbox)
    structure = _load_structure(args.structure)
    theta_hat = np.asarray(theta_hat, dtype=float)
    t_hat = np.asarray(t_hat, dtype=float)
    res = residuals(blackbox, t_hat, eval_structure(structure, theta_hat))
    worst = max(res)
    report = {
        "residuals": {"r_A": res.r_a, "r_B": res.r_b, "r_C": res.r_c},
        "max_residual": worst,
        "tol": args.tol,
        "pass": bool(worst <= args.tol),
    }
    if args.truth:
        report["theta_error"] = _theta_error(theta_hat, _load_json(args.truth))
    _write_report(report, args.out)
    return EXIT_OK if worst <= args.tol else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graybox",
        description="Re-parameterize a black-box LTI state-space model into a structured gray-box form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="create a synthetic black-box/truth pair")
    gen.add_argument("--structure", required=True,
                     help=f"structure JSON file or bundled name ({', '.join(sorted(BUNDLED))})")
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
    solve.add_argument("--structure", required=True)
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
                       help="hbar: reduced null-space objective over T; lsq-theta/lsq-T: "
                            "blocks of the least-squares gradient 2 J^T r; jacobians: "
                            "realization extraction")
    check.add_argument("--blackbox", required=True)
    check.add_argument("--structure", required=True)
    check.add_argument("--points", type=int, default=100)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--rel-tol", type=float, default=1e-6)
    check.set_defaults(func=cmd_check_grad)

    verify = sub.add_parser("verify", help="recompute residuals for a solve report")
    verify.add_argument("--result", required=True, help="report JSON from 'solve'")
    verify.add_argument("--blackbox", required=True)
    verify.add_argument("--structure", required=True)
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
