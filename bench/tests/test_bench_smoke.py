"""Smoke test of the solve benchmark in ``bench/``.

Runs every workload on its tiny ``--smoke`` grid, traced and untraced, and
checks the output contract: every metric named in ``BENCHMARK.json`` is
printed with its unit, and the residual oracle judged every solve.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "bench"))

import oracle  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--seed", "3", "--seconds", "0.2",
                           *extra], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float | int), name
        assert any(line.startswith(f"# {name} ") and line.endswith(f" {metric['unit']}")
                   for line in lines), name
    details = [line.split(": ", 1)[1] for line in lines if line.startswith("# details: ")]
    solves = json.loads(Path(details[0]).read_text())["solves"]
    assert len(solves) == result["attempted"]
    assert all(s["max_residual"] is not None for s in solves), "oracle skipped a solve"


def test_traced_polish_never_calls_nullspace():
    out = run_bench(ROOT, "--workload", "polish", "--trace", "1", "--smoke")
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    assert metrics["nullspace.f_calls"]["value"] == 0
    assert metrics["nullspace.g_calls"]["value"] == 0
    assert metrics["lsq.f_calls"]["value"] > 0


def test_per_layer_list_matches_tracer():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = run_bench(tmp_path, "--workload", "bundled", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _docs():
    structure = {"n_x": 1, "n_u": 1, "n_y": 1, "kappa0": [0.0, 0.0, 0.5],
                 "K": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
    t = np.array([[2.0]])
    theta = np.array([3.0, 2.0])
    blackbox = {"A": [[3.0]], "B": [[4.0]], "C": [[0.25]]}  # (T A T^-1, T B, C T^-1)
    return structure, blackbox, theta, t


def _report(theta, t, structure, blackbox):
    r = oracle.residuals(blackbox, structure, theta, t)
    return {"theta_hat": theta.tolist(), "T_hat": t.tolist(),
            "residuals": {"r_A": r[0], "r_B": r[1], "r_C": r[2]}}


def test_oracle_recovers_truth_and_rejects_negative_control():
    structure, blackbox, theta, t = _docs()
    good = oracle.judge(0, _report(theta, t, structure, blackbox), blackbox, structure)
    assert good["recovered"] and good["control_ok"] and good["report_honest"]
    bad_t = t.copy()
    bad_t[0, 0] += 0.1
    bad = oracle.judge(0, _report(theta, bad_t, structure, blackbox), blackbox, structure)
    assert not bad["recovered"] and bad["silent_wrong"] and not bad["failed"]
    lying = _report(theta, bad_t, structure, blackbox)
    lying["residuals"] = {"r_A": 0.0, "r_B": 0.0, "r_C": 0.0}
    assert not oracle.judge(0, lying, blackbox, structure)["report_honest"]
    assert oracle.judge(4, None, blackbox, structure)["failed"] is False
    assert oracle.judge(0, None, blackbox, structure)["failed"] is True
    assert oracle.judge(2, None, blackbox, structure)["failed"] is True


def test_missing_wrap_point_reports_null():
    module = types.ModuleType("graybox.nullspace")
    tracer = Tracer()
    tracer.wrap(module, "reduced_distance", "nullspace.f")
    assert tracer.missing == ["graybox.nullspace.reduced_distance"]
    tracer.request = 0
    with tracer.span("cli.main"):
        pass
    values = layer_metrics(tracer, 1, [0], 1.0, 1.0)
    assert values["nullspace.f_calls"] == (None, "count/solve")
    assert values["cli.exit0"] == (1.0, "share")
