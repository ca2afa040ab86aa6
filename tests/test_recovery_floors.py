"""Recovery floors of the benchmark grids, judged by the benchmark's own oracle.

Every instance of ``bundled`` grids 0-7, ``polish`` grids 0-3 and ``chain``
grids 0-2 is written by ``bench/workloads.py`` and solved by one in-process
``cli.main`` call, as the benchmark solves it, and each report is judged by
``bench/oracle.judge``.  Both bench files are imported read-only, by path.
A floor is the number of solves recovered on the grid; it may only go up.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import graybox
from graybox.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"

FLOORS = {
    **{("bundled", grid): 27 for grid in range(8)},
    ("polish", 0): 58, ("polish", 1): 57, ("polish", 2): 57, ("polish", 3): 58,
    ("chain", 0): 8, ("chain", 1): 9, ("chain", 2): 7,
}


def _bench_module(monkeypatch, name):
    """``bench/<name>.py``, imported by path under its own name, which the bench files use."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, grid", sorted(FLOORS))
def test_recovery_floor(tmp_path, monkeypatch, workload, grid):
    oracle = _bench_module(monkeypatch, "oracle")
    workloads = _bench_module(monkeypatch, "workloads")  # imports its sibling oracle
    cells = list(workloads.grid_cells(workload, grid, smoke=False))
    cases = workloads.write_inputs(graybox, workload, cells, tmp_path,
                                   graybox.model.generate_instance)
    verdicts = {}
    for case in cases:
        code = main(case.argv)
        report = json.loads(case.report.read_text()) if case.report.exists() else None
        verdicts[case.key] = oracle.judge(code, report, case.blackbox, case.structure_doc)
    for key, verdict in verdicts.items():
        assert not verdict["failed"], (key, verdict)
        assert not verdict["silent_wrong"], (key, verdict)
        assert verdict["report_honest"] and verdict["control_ok"], (key, verdict)
    assert sum(v["recovered"] for v in verdicts.values()) >= FLOORS[workload, grid]
