"""Command-line frontend: generate instances, run solvers, check gradients, verify.

Exit codes: 0 success, 1 failed check/verification, 2 input or schema error,
3 max similarity residual above ``RESIDUAL_TOL`` whatever the optimizer status
(report still written), 4 degenerate or infeasible solution; a NaN residual or
derivative error fails.  ``solve`` and ``verify`` read residuals out by the one
read-out, ``model._read_out``, and accept them by the one test, ``model._passes``,
so ``solve`` exits 0 exactly when ``T_hat`` is not degenerate and ``verify`` at
its default tolerance accepts the report.

``solve`` and ``verify`` write their reports as compact, one-line JSON,
with a non-finite number written as ``null``; ``python -m json.tool``
pretty-prints them.  ``generate`` writes its files indented.

``main(argv)`` may be called any number of times in one process: it builds
its parsers once, on the first call, and carries no state from one call to
the next.  It hands a known subcommand's arguments to that subcommand's
parser alone, keeping argparse's messages and exit codes, and it reads and
checks each input file once.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import lsq, nullspace, optim, solver
from .model import (
    RESIDUAL_TOL,
    AffineStructure,
    StateSpace,
    _as_matrix,
    _as_vector,
    _passes,
    _read_out,
    _worst,
    check_dims,
    generate_instance,
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

    Whatever goes wrong while reading or parsing the document, a nesting too
    deep for the parser included, becomes one ``ValueError`` that names the
    file, so a malformed input exits 2.
    """
    try:
        with open(path, "rb") as fh:  # decoded here: json.loads would take UTF-16 or a BOM
            text = fh.read().decode("utf-8")
        if "\r" in text:  # newlines as text mode reads them, so JSON errors count alike
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        return parse(doc)
    except KeyError as exc:
        raise ValueError(f"{what} file {path or repr(path)}: missing key {exc}") from exc
    except (OSError, RecursionError, TypeError, ValueError) as exc:
        raise ValueError(f"{what} file {path or repr(path)}: "
                         f"{getattr(exc, 'strerror', None) or exc}") from exc


def _arrays(structure: AffineStructure, theta_key: str, t_key: str):
    """Parser of a document's ``theta_key`` and ``t_key``, checked against ``structure``."""
    n_x = structure.dims.n_x
    return lambda doc: (_as_vector(doc[theta_key], structure.n_theta, theta_key),
                        _as_matrix(doc[t_key], n_x, n_x, t_key))


def _load_structure(spec: str) -> AffineStructure:
    if is_bundled(spec):
        return bundled_structure(spec)[0]
    return _load(spec, "structure", AffineStructure.from_dict)


def _load_truth(path: str | None, structure: AffineStructure) -> np.ndarray | None:
    """The truth file's ``theta``, finite and of the structure's length, or None without a file."""
    if path is None:
        return None
    return _load(path, "truth", lambda doc: _as_vector(doc["theta"], structure.n_theta, "theta"))


def _check_tolerance(value: float, flag: str) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{flag} must be finite and at least 0, got {value}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {seed}")


def _parse_theta(text: str) -> list[float]:
    try:
        return [float(part) for part in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"--theta must be a comma-separated list of numbers: {exc}") from exc


def _load_config(args) -> optim.OptimConfig:
    cfg = (_load(args.config, "config", optim.OptimConfig.from_dict)
           if args.config is not None else optim.OptimConfig())
    overrides = {name: getattr(args, name) for name in ("seed", "restarts")
                 if getattr(args, name) is not None}
    return dataclasses.replace(cfg, **overrides) if overrides else cfg  # validates them too


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is an input error (exit 2)."""
    try:
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(path: str) -> None:
    """Raise :func:`_write`'s error, before any work, where it could not write ``path``.

    That is where ``path`` is empty or a directory, or its parent is not an
    existing directory, or ``path`` is a file it may not write, or a new file
    in a directory it may not write.  ``os.path`` rather than ``pathlib``:
    this runs on every ``solve --out``, and costs a third as much.
    """
    parent = os.path.dirname(path) or "."
    if not path or os.path.isdir(path):  # "" read as the working directory, as pathlib reads it
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write {path or repr(path)}: {os.strerror(code)}")


def _write_report(report: dict, out: str | None) -> None:
    """Write ``report`` as one line of strict JSON to ``out``, or to standard output.

    Compact, so the C encoder writes it.  A report with a non-finite number at
    any depth is encoded again from its Python-JSON text, decoded with ``NaN``
    and ``(-)Infinity`` read as ``None``: such a number is written ``null``.
    """
    try:
        text = json.dumps(report, allow_nan=False)
    except ValueError:
        text = json.dumps(json.loads(json.dumps(report), parse_constant=lambda _: None))
    text += "\n"
    if out is not None:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _theta_error(theta_hat: np.ndarray, theta_true: np.ndarray) -> float:
    scale = np.linalg.norm(theta_true)
    return float(np.linalg.norm(theta_hat - theta_true) / (scale if scale > 0 else 1.0))


def cmd_generate(args) -> int:
    _check_seed(args.seed)
    if not os.path.basename(args.out_prefix):  # "" or "out/" would write hidden .blackbox.json
        raise ValueError("--out-prefix must not be empty" if not args.out_prefix else
                         f"--out-prefix {args.out_prefix!r} must end in a file name")
    structure = _load_structure(args.structure)
    theta = _as_vector(_parse_theta(args.theta), structure.n_theta, "--theta")
    blackbox_path = f"{args.out_prefix}.blackbox.json"
    truth_path = f"{args.out_prefix}.truth.json"
    for path in (blackbox_path, truth_path):  # so that neither file is written alone
        _check_writable(path)
    instance = generate_instance(structure, theta, seed=args.seed, cond_max=args.cond_max)
    truth_doc = {
        "theta": theta.tolist(),
        "T": instance.T.tolist(),
        **instance.truth.to_dict(),
    }
    _write(blackbox_path, json.dumps(instance.blackbox.to_dict(), indent=2) + "\n")
    _write(truth_path, json.dumps(truth_doc, indent=2) + "\n")
    print(blackbox_path)
    print(truth_path)
    return EXIT_OK


def cmd_solve(args) -> int:
    blackbox = _load(args.blackbox, "black-box", StateSpace.from_dict)
    structure = _load_structure(args.structure)
    theta_true = _load_truth(args.truth, structure)
    cfg = _load_config(args)
    if args.init is not None and args.method != "lsq":
        raise ValueError("--init applies to --method lsq only")
    if args.out is not None:
        _check_writable(args.out)
    init = None if args.init is None else _load(args.init, "init", _arrays(structure, "theta", "T"))
    started = time.perf_counter()
    sol = solver.solve(blackbox, structure, args.method, cfg, init)
    res = sol.residuals  # the solver's one read-out, made on the T_hat written here
    report = {
        "method": args.method,
        "status": sol.result.status,
        "theta_hat": sol.theta.tolist(),
        "T_hat": sol.T.tolist(),
        "residuals": res.to_dict(),
        "objective_final": sol.result.f_best,
        "timing_ms": (time.perf_counter() - started) * 1e3,
        "diagnostics": sol.diagnostics,
    }
    if theta_true is not None:
        report["theta_error"] = _theta_error(sol.theta, theta_true)
    _write_report(report, args.out)
    if sol.degenerate:  # the stage's rcond of the T_hat written here
        print("degenerate transform in solution", file=sys.stderr)
        return EXIT_DEGENERATE
    if not _passes(res):
        print(f"max residual {_worst(res):.3e} exceeds the tolerance {RESIDUAL_TOL:g} "
              f"(status: {sol.result.status})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _point_error(args, blackbox, structure, rng, evaluator) -> float | None:
    """Max relative error of the analytic derivative at one random point, or None if degenerate.

    Every mode compares an analytic Jacobian with central differences of its
    function, and fails a point where the two differ in shape (inf).  The
    gradient modes check ``2 J^T r`` on one block of the point of the run's
    ``evaluator`` (vec(T) for ``hbar``, theta or vec(T) of ``z = [theta; vec(T)]``
    for lsq) as the Jacobian of ``r @ r`` in that block, both divided by
    max(1, |r @ r|) at the point: central differences lose eps*|f|/h absolute
    accuracy, which would drown a 1e-6 tolerance at large ``r @ r``.  ``hbar``
    and ``jacobians`` resample a near-singular T.
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
        point = x if args.which == "hbar" else np.concatenate([rng.standard_normal(n_theta), x])
        block = {"hbar": slice(None), "lsq-theta": slice(None, n_theta),
                 "lsq-T": slice(n_theta, None)}[args.which]

        def fg(b):  # at the point with its block set to b; r @ r is +inf where T is singular
            at = point.copy()
            at[block] = b
            r, jac = evaluator(at)
            return (math.inf, None) if r is None else (float(r @ r), 2.0 * (jac[:, block].T @ r))
        x = point[block]
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
    _check_seed(args.seed)
    blackbox = _load(args.blackbox, "black-box", StateSpace.from_dict)
    structure = _load_structure(args.structure)
    check_dims(blackbox, structure)
    rng = np.random.default_rng(args.seed)
    # one evaluator per run, as a solve builds one; jacobians needs none
    evaluator = (nullspace.ReducedResidual(blackbox, nullspace.structure_projector(structure))
                 if args.which == "hbar" else None if args.which == "jacobians" else
                 functools.partial(lsq.cost, plan=lsq.CostPlan(blackbox, structure)))

    errors = []
    resampled = 0
    while len(errors) < args.points:
        try:
            err = _point_error(args, blackbox, structure, rng, evaluator)
        except (ValueError, nullspace.SingularTransformError):
            err = None  # finite differences probed into the excluded region
        if err is None:
            resampled += 1
            if resampled > 50 * args.points:
                raise ValueError("too many degenerate sample points; check the instance")
            continue
        errors.append(err)
        print(f"point {len(errors):3d}  max_rel_err {err:.3e}")
    worst = _worst(errors)
    print(f"resampled {resampled} degenerate point(s)")
    print(f"worst {worst:.3e}  tolerance {args.rel_tol:.3e}")
    return EXIT_OK if worst <= args.rel_tol else EXIT_FAIL


def cmd_verify(args) -> int:
    _check_tolerance(args.tol, "--tol")
    if args.out is not None:
        _check_writable(args.out)
    blackbox = _load(args.blackbox, "black-box", StateSpace.from_dict)
    structure = _load_structure(args.structure)
    check_dims(blackbox, structure)
    theta_hat, t_hat = _load(args.result, "result", _arrays(structure, "theta_hat", "T_hat"))
    theta_true = _load_truth(args.truth, structure)
    res = _read_out(blackbox, structure, theta_hat, t_hat)
    report = {"residuals": res.to_dict(), "max_residual": _worst(res), "tol": args.tol,
              "pass": _passes(res, args.tol)}
    if theta_true is not None:
        report["theta_error"] = _theta_error(theta_hat, theta_true)
    _write_report(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    """The ``graybox`` parser, built on the first call and shared by every later one.

    argparse set-up costs several times a parse, and the parser never
    changes, so ``main`` reuses it, and its subcommands' parsers.  Each
    subcommand's ``func`` default is bound to its ``cmd_*`` function when
    the parser is built.  No action has a mutable default, and a parse
    returns a new namespace each call, so nothing carries over from one call
    to the next.  Every caller gets the same parser object; do not modify it.
    """
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """:func:`build_parser`'s parser and its subcommands' parsers, by name."""
    parser = argparse.ArgumentParser(
        prog="graybox",
        description="Re-parameterize a black-box LTI state-space model into a structured gray-box form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="create a synthetic black-box/truth pair")
    gen.add_argument("--structure", required=True, help=STRUCTURE_HELP)
    gen.add_argument("--theta", required=True,
                     help="comma-separated parameter values; write --theta=-3,2 when the "
                          "first value is negative")
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
    return parser, {"generate": gen, "solve": solve, "check-grad": check, "verify": verify}


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no, or no known, subcommand: only help or a usage error
        args = parser.parse_args(argv)
    else:  # what parser.parse_args does with a subcommand, less its scan of argv
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
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
