"""Solve benchmark: time ``graybox solve`` end to end and trace its layers.

Run from the repository root:

    python3 bench/run.py --workload bundled --seed 1 --seconds 30 --trace 0

One process and one thread run a closed loop of sequential solves, each an
in-process ``graybox.cli.main(["solve", ...])`` call on JSON files written at
set-up.  A run is made of whole passes over the workload's instance grid, so
rates and per-solve counts repeat exactly; every report is checked by the
independent residual oracle in ``oracle.py``.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs an untraced and a traced half and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One thread: the benchmark measures a sequential closed loop, and BLAS
# threads on tiny matrices only add noise.  Must be set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"

SETUP_ROUNDS = 5


def import_graybox():
    """Fresh import of the package from ``src/`` (drops any earlier copy)."""
    for name in [m for m in sys.modules if m == "graybox" or m.startswith("graybox.")]:
        del sys.modules[name]
    graybox = importlib.import_module("graybox")
    importlib.import_module("graybox.cli")
    if not Path(graybox.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"graybox imported from {graybox.__file__}, not from {SRC}")
    return graybox


def set_up(workload, grid_seed, smoke, work, generate):
    """One set-up round: import, generate the grid, write inputs, warm up."""
    graybox = import_graybox()
    shutil.rmtree(work, ignore_errors=True)
    (work / "warmup").mkdir(parents=True)
    cells = list(workloads.grid_cells(workload, grid_seed, smoke))
    cases = workloads.write_inputs(graybox, workload, cells, work,
                                   lambda *a, **k: generate(graybox, *a, **k))
    warm = workloads.write_inputs(graybox, workload, [("scalar", 10.0, 0)], work / "warmup",
                                  graybox.model.generate_instance)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        graybox.cli.main(warm[0].argv)
    return graybox, cases


def solve_once(cli_main, case, sink, tracer):
    """Run one solve; returns (seconds, exit code, report or None, error text)."""
    case.report.unlink(missing_ok=True)
    sink.seek(0)
    sink.truncate()
    error = ""
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        started = time.perf_counter()
        try:
            with span:
                code = cli_main(case.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else -1
        except Exception:  # a crash is a failed solve, not a failed benchmark
            code = -1
            error = traceback.format_exc()
        elapsed = time.perf_counter() - started
    try:
        report = json.loads(case.report.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = None
    return elapsed, code, report, error or sink.getvalue()[-2000:]


def run_passes(cli_main, cases, order, budget_s, probe, tracer=None):
    """Whole passes over the grid while the next pass is predicted to fit.

    Each record gets ``seconds``, the solve's wall time scaled to nominal
    machine speed by the probes taken between solves.
    """
    records = []
    sink = io.StringIO()
    started = time.perf_counter()
    passes = 0
    while True:
        for i in order:
            probe.keep_up()
            at = time.perf_counter()
            case = cases[i]
            if tracer:
                tracer.request = len(records)
            elapsed, code, report, error = solve_once(cli_main, case, sink, tracer)
            if tracer:
                tracer.request = -1
            verdict = oracle.judge(code, report, case.blackbox, case.structure_doc)
            verdict.update(case=case.key, wall_s=elapsed, at=at + elapsed / 2,
                           error=error if verdict["failed"] else "")
            records.append(verdict)
        passes += 1
        wall = time.perf_counter() - started
        if wall + wall / passes > budget_s:
            break
    probe.sample()
    for r in records:
        r["seconds"] = r["wall_s"] * probe.scale(r["at"])
    return records, wall, passes


def tail(values, distinct):
    """Mean of the solves above the highest integer percentile with at least
    ten grid instances beyond it; returns (value, level).

    Every pass repeats the same ``distinct`` instances, so the level comes from
    the grid size, not from the pass count: ten repeats of one slow instance
    are not ten solves beyond the percentile.  Below 20 instances that level
    would lie under the median, so the level is 50.  The mean above the level,
    unlike the percentile itself, moves smoothly when one slow instance gets
    faster, instead of jumping between instances.
    """
    ordered = sorted(values)
    level = max(50, (100 * (distinct - 10)) // distinct)
    rank = -(-level * len(ordered) // 100)
    return statistics.fmean(ordered[rank:] or ordered[-1:]), level


def provenance(args):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")}
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "grid_seed": args.grid_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed: the order in which every pass visits the grid")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; a run holds whole passes, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--grid-seed", type=int, default=0,
                   help="seed the instance grid is drawn from; the default 0 is the "
                        "committed grid, other values give held-out instances")
    p.add_argument("--smoke", action="store_true",
                   help="tiny grid, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graybox" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / (f"{args.workload}{'-smoke' if args.smoke else ''}"
                   f"-s{args.seed}-g{args.grid_seed}-t{args.trace}")
    tracer = Tracer() if args.trace else None

    def generate(graybox, *a, **k):
        if tracer is None:
            return graybox.model.generate_instance(*a, **k)
        with tracer.span("model.generate"):
            return graybox.model.generate_instance(*a, **k)

    probe = SpeedProbe()
    setup_rounds = []
    for _ in range(SETUP_ROUNDS):
        probe.sample()
        started = time.perf_counter()
        graybox, cases = set_up(args.workload, args.grid_seed, args.smoke, work, generate)
        ended = time.perf_counter()
        setup_rounds.append((ended - started, (started + ended) / 2))
    probe.sample()
    setup_times = [wall_s * probe.scale(at) for wall_s, at in setup_rounds]

    problems = []
    for name in sorted({c.structure for c in cases if c.structure.startswith("chain")}):
        problems += workloads.check_chain(graybox, int(name[len("chain"):]))
    for case in cases:
        res = oracle.max_residual(case.blackbox, case.structure_doc, case.theta, case.T)
        if not res <= 1e-10 * max(1.0, np.linalg.norm(case.blackbox["A"])):
            problems.append(f"{case.key}: hidden transform leaves residual {res:.3e}")

    order = [int(i) for i in np.random.default_rng(args.seed).permutation(len(cases))]
    cli_main = graybox.cli.main
    if tracer is None:
        records, wall, passes = run_passes(cli_main, cases, order, args.seconds, probe)
        traced = []
    else:
        records, wall, passes = run_passes(cli_main, cases, order, args.seconds / 2, probe)
        tracer.wrap_all({m: sys.modules[m] for m in ("graybox.nullspace", "graybox.lsq",
                                                    "graybox.optim")})
        try:
            traced, _, _ = run_passes(cli_main, cases, order, args.seconds / 2, probe, tracer)
        finally:
            tracer.unwrap()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = records + traced
    attempted = len(every)
    failed = sum(r["failed"] for r in every)
    problems += [f"{r['case']}: report residuals disagree with the oracle"
                 for r in every if not r["report_honest"]]
    problems += [f"{r['case']}: negative control passed the oracle"
                 for r in every if not r["control_ok"]]
    times = [r["seconds"] for r in records]
    tail_value, tail_level = tail(times, len(cases))
    rates = {
        "recovered": sum(r["recovered"] for r in records) / len(records),
        "silent_wrong": sum(r["silent_wrong"] for r in records) / len(records),
    }
    if tracer is None:
        values = {
            "solve_s.tail": (tail_value, "s"),
            "solves_per_s": (len(records) / sum(times), "1/s"),
            "recovery_rate": (rates["recovered"], "share"),
            "honest_exit_rate": (1.0 - rates["silent_wrong"], "share"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_mean = statistics.fmean(r["seconds"] for r in traced)
        time_scale = statistics.median(r["seconds"] / r["wall_s"] for r in traced)
        values = layer_metrics(tracer, len(traced), [r["code"] for r in every],
                               statistics.fmean(times), traced_mean, time_scale)
        tracer.write_csv(work / "spans.csv")

    origin = provenance(args)
    print(f"# provenance {json.dumps(origin)}")
    print(f"# {args.workload}: {len(cases)} instances x {passes} pass(es) = {len(records)} "
          f"timed solves in {wall:.3f} s; tail = mean above p{tail_level} of {len(times)} solves; "
          f"silent_wrong_rate = {rates['silent_wrong']:.6g} share")
    print(f"# solve_s.p50 {statistics.median(times):.6g} s (not bounded: the grid's median "
          f"falls between instance clusters)")
    print(f"# times are nominal seconds; unscaled: solve p50 "
          f"{statistics.median(r['wall_s'] for r in records):.6g} s, setup "
          f"{statistics.median(w for w, _ in setup_rounds):.6g} s; reference task median "
          f"{statistics.median(probe.seconds) * 1e3:.4g} ms over {len(probe.seconds)} probes")
    if tracer is not None:
        print(f"# traced solves: {len(traced)}; spans: {len(tracer.start)}; "
              f"missing wrap points: {tracer.missing or 'none'}")
    for name, (value, unit) in values.items():
        print(f"# {name:28s} {'missing' if value is None else f'{value:.6g}'} {unit}")
    for line in problems:
        print(f"# PROBLEM {line}")
    for r in every:
        if r["failed"]:
            print(f"# FAILED {r['case']} exit {r['code']}: {r['error'].strip()[-300:]}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    (work / "result.json").write_text(json.dumps({
        **result,
        "provenance": origin,
        "tail": {"level": tail_level, "n": len(times), "instances": len(cases)},
        "silent_wrong_rate": rates["silent_wrong"],
        "setup_rounds_s": setup_times,
        "probes": {"at": probe.at, "seconds": probe.seconds},
        "problems": problems,
        "solves": [{k: r[k] for k in ("case", "code", "seconds", "wall_s", "at", "recovered",
                                      "silent_wrong", "max_residual", "failed")}
                   for r in every],
    }, indent=1))
    print(f"# details: {work / 'result.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
