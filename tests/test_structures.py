import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import graybox.model
from graybox.cli import main
from graybox.model import eval_structure
from graybox.structures import MAX_CHAIN, bundled_structure, chain, is_bundled

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_workloads(monkeypatch):
    """``bench/workloads.py``, imported by path (it imports its sibling ``oracle``)."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_workloads", module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", range(3, 9))
def test_chain_matches_the_benchmark_builder(monkeypatch, n):
    bench_structure, bench_theta = _bench_workloads(monkeypatch).chain(graybox.model, n)
    structure, theta = chain(n)
    assert np.array_equal(structure.K, bench_structure.K)
    assert np.array_equal(structure.kappa0, bench_structure.kappa0)
    assert np.array_equal(theta, bench_theta)


def test_chain_pattern():
    structure, theta = chain(4)
    model = eval_structure(structure, theta)
    assert np.array_equal(model.A, -np.diag(theta[:4]) + np.diag(theta[:3], k=-1))
    assert np.array_equal(model.B, [[theta[4]], [0.0], [0.0], [0.0]])
    assert np.array_equal(model.C, [[0.0, 0.0, 0.0, 1.0]])


@pytest.mark.parametrize("name, known", [("chain1", True), ("chain12", True), ("scalar", True),
                                         ("chain0", False), ("chain08", False),
                                         ("chain", False), ("chain4.json", False)])
def test_chain_names(name, known):
    assert is_bundled(name) == known
    if known:
        assert bundled_structure(name)[0].n_theta > 0
    else:
        with pytest.raises(ValueError, match="chain<n>"):
            bundled_structure(name)


def test_chain_size_is_capped(tmp_path, capsys):
    assert bundled_structure(f"chain{MAX_CHAIN}")[0].dims.n_x == MAX_CHAIN
    with pytest.raises(ValueError, match=f"n <= {MAX_CHAIN}"):
        bundled_structure(f"chain{MAX_CHAIN + 1}")
    code = main(["generate", "--structure", "chain100000", "--theta", "1",
                 "--out-prefix", str(tmp_path / "x")])
    assert code == 2
    assert "chain<n> takes n <= " in capsys.readouterr().err
