"""Outcome scan of the benchmark grids: one record per solved instance.

Solves every instance of ``bundled`` grids 0-7, ``polish`` grids 0-3 and
``chain`` grids 0-2, written by ``bench/workloads.py`` and solved by one
in-process ``cli.main`` call, as the benchmark solves it.  ``bench/`` is
imported read-only, by path.  Each instance's record holds its exit code,
``bench/oracle.judge``'s ``recovered``, and the SHA-256 of its report with
every ``timing_ms`` and ``wall_time_ms`` key removed, so two runs of the same
code in one environment give the same records bit for bit.

    python tests/scan.py --out outcomes.json
    python tests/scan.py --against outcomes.json

``--against FILE`` prints every instance whose record differs from FILE's,
or that FILE lacks, and exits 1 if there is one.  A FILE that cannot be read
or is not a JSON object, and an ``--out`` that is a directory or lies in
none, exit 2 before any solve.  ``--workload`` and
``--grid`` restrict the run.  The scan imports the ``graybox`` package of its
own checkout.  Reports depend on the CPU's floating-point kernels, so run
with one BLAS thread (``OPENBLAS_NUM_THREADS=1``) and compare records made
on one machine only.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import graybox  # noqa: E402
from graybox.cli import main  # noqa: E402

GRIDS = {"bundled": range(8), "polish": range(4), "chain": range(3)}
UNTIMED = ("timing_ms", "wall_time_ms")


@functools.cache
def bench_modules():
    """``(oracle, workloads)`` of ``bench/``, imported by path; ``sys.modules`` is left as found.

    ``workloads`` imports its sibling as ``oracle``, so both sit in
    ``sys.modules`` under their own names while they load.
    """
    names = ("oracle", "workloads")
    saved = {name: sys.modules.get(name) for name in names}
    try:
        for name in names:
            spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
            sys.modules[name] = module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        return tuple(sys.modules[name] for name in names)
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def solve_grid(workload: str, grid: int, work: Path) -> list[tuple[str, int, dict | None, dict]]:
    """``(key, exit code, report, verdict)`` of every instance of one grid, solved in ``work``.

    The report is None where the solve wrote none; the verdict is ``oracle.judge``'s.
    """
    oracle, workloads = bench_modules()
    cells = list(workloads.grid_cells(workload, grid, smoke=False))
    cases = workloads.write_inputs(graybox, workload, cells, work,
                                   graybox.model.generate_instance)
    outcomes = []
    for case in cases:
        with contextlib.redirect_stderr(io.StringIO()):  # exit 3 and 4 say why on stderr
            code = main(case.argv)
        report = json.loads(case.report.read_text()) if case.report.exists() else None
        outcomes.append((case.key, code, report,
                         oracle.judge(code, report, case.blackbox, case.structure_doc)))
    return outcomes


def _untimed(value):
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if k not in UNTIMED}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def digest(report: dict | None) -> str | None:
    """SHA-256 of ``report`` without its timing keys, at any depth; None without a report."""
    if report is None:
        return None
    text = json.dumps(_untimed(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def scan(grids: list[tuple[str, int]]) -> dict[str, dict]:
    """``{"<workload>/<grid>/<key>": {"code", "recovered", "digest"}}`` of every instance."""
    records = {}
    for workload, grid in grids:
        with tempfile.TemporaryDirectory() as work:
            for key, code, report, verdict in solve_grid(workload, grid, Path(work)):
                records[f"{workload}/{grid}/{key}"] = {
                    "code": code, "recovered": verdict["recovered"], "digest": digest(report)}
    return records


def differences(records: dict[str, dict], reference: dict[str, dict]) -> list[str]:
    """One line per instance of ``records`` whose record is not the one in ``reference``."""
    return [f"{key}: {reference.get(key)} -> {record}"
            for key, record in records.items() if reference.get(key) != record]


def dumps(records: dict[str, dict]) -> str:
    """The records as a JSON object, one instance to a line."""
    lines = (f"{json.dumps(key)}: {json.dumps(record)}" for key, record in records.items())
    return "{\n" + ",\n".join(lines) + "\n}\n"


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(GRIDS), help="scan this workload only")
    parser.add_argument("--grid", type=int, help="scan this grid index only")
    parser.add_argument("--out", help="write the records here (default: standard output, "
                                      "unless --against is given)")
    parser.add_argument("--against", help="records to compare with")
    args = parser.parse_args(argv)
    grids = [(workload, grid) for workload, indices in GRIDS.items()
             if args.workload in (None, workload)
             for grid in indices if args.grid in (None, grid)]
    if not grids:
        parser.error(f"no grid {args.grid} in {args.workload or 'any workload'}")
    for flag, path in (("--out", args.out), ("--against", args.against)):
        if path == "":
            parser.error(f"{flag} '' names no file")
    # every path is checked, and the reference read, before the first solve
    if args.out is not None:
        out = Path(args.out)
        if out.is_dir():
            parser.error(f"--out {out} is a directory")
        if not out.parent.is_dir():
            parser.error(f"--out {out}: {out.parent} is not a directory")
    if args.against is not None:
        try:
            reference = json.loads(Path(args.against).read_text())
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            parser.error(f"--against {args.against}: {exc}")
        if not isinstance(reference, dict):
            parser.error(f"--against {args.against} is not a JSON object")
    records = scan(grids)
    if args.out is not None:
        out.write_text(dumps(records))
    elif args.against is None:
        sys.stdout.write(dumps(records))
    if args.against is None:
        return 0
    lines = differences(records, reference)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(records)} instance(s) differ from {args.against}",
          file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(run())
