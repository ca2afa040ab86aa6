"""Recovery floors of the benchmark grids, judged by the benchmark's own oracle.

Every instance of ``bundled`` grids 0-7, ``polish`` grids 0-3 and ``chain``
grids 0-2 is solved by the outcome scan's runner, ``scan.solve_grid``: written
by ``bench/workloads.py``, solved by one in-process ``cli.main`` call, as the
benchmark solves it, and judged by ``bench/oracle.judge``.  A floor is the
number of solves recovered on the grid; it may only go up.
"""

import pytest

import scan

FLOORS = {
    **{("bundled", grid): 27 for grid in range(8)},
    ("polish", 0): 58, ("polish", 1): 57, ("polish", 2): 57, ("polish", 3): 58,
    ("chain", 0): 8, ("chain", 1): 9, ("chain", 2): 7,
}


@pytest.mark.parametrize("workload, grid", sorted(FLOORS))
def test_recovery_floor(tmp_path, workload, grid):
    verdicts = {key: verdict for key, _, _, verdict in scan.solve_grid(workload, grid, tmp_path)}
    for key, verdict in verdicts.items():
        assert not verdict["failed"], (key, verdict)
        assert not verdict["silent_wrong"], (key, verdict)
        assert verdict["report_honest"] and verdict["control_ok"], (key, verdict)
    assert sum(v["recovered"] for v in verdicts.values()) >= FLOORS[workload, grid]
