"""Structures, instance grids and input files of the benchmark workloads.

Everything here goes through the package's public API (``AffineStructure``,
``generate_instance``); the solver only ever sees the JSON files written by
:func:`write_inputs`.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import max_residual

CONDS = (10.0, 100.0, 1e4)

# One pass of a workload solves every (structure, cond_max, instance seed)
# cell once.  A pass takes about 8-14 s on bundled and polish, so a 45 s run
# holds several; a chain pass (9 solves of 1-3.5 s) takes 17-30 s.
WORKLOADS = {
    "bundled": {"method": "pipeline", "structures": ("scalar", "mass-spring", "compartment3"),
                "seeds_per_cell": 3},
    "chain": {"method": "pipeline", "structures": ("chain4", "chain6", "chain8"),
              "seeds_per_cell": 1},
    "polish": {"method": "lsq", "structures": ("mass-spring", "compartment3", "chain4",
                                               "chain6", "chain8"),
               "seeds_per_cell": 4},
}

# Tiny grids for --smoke: one cheap cell per workload, still on the same paths.
SMOKE = {
    "bundled": {"structures": ("scalar", "mass-spring"), "conds": (10.0,)},
    "chain": {"structures": ("chain3",), "conds": (10.0,)},
    "polish": {"structures": ("mass-spring", "chain4"), "conds": (10.0,)},
}

# Relative size of the seeded error in the lsq warm start of the polish workload.
POLISH_PERTURBATION = 0.05


def chain(model, n: int):
    """n-compartment chain, built from the public ``AffineStructure`` API.

        A = -diag(theta_1..theta_n) + subdiag(theta_1..theta_{n-1})
        B = theta_{n+1} e_1        C = e_n^T

    Material enters compartment 1, flows i -> i+1 at rate theta_i, drains
    from compartment n, and compartment n is observed; ``chain(3)`` is the
    bundled ``compartment3`` structure.  Returns the structure and the
    reference point: rates ``linspace(1, 0.3, n)`` and input gain 2.
    """
    dims = model.Dims(n, 1, 1)
    kappa0 = np.zeros(dims.n_abc)
    k = np.zeros((dims.n_abc, n + 1))
    for i in range(n):  # column-major: A[r, c] sits at r + c * n
        k[i + i * n, i] = -1.0
        if i + 1 < n:
            k[i + 1 + i * n, i] = 1.0
    k[n * n, n] = 1.0  # B[0, 0]
    kappa0[n * n + n + (n - 1)] = 1.0  # C[0, n-1]
    structure = model.AffineStructure(kappa0=kappa0, K=k, dims=dims)
    return structure, np.append(np.linspace(1.0, 0.3, n), 2.0)


def structure_for(graybox, name: str):
    """Structure and reference theta for a bundled name or ``chain<n>``."""
    if name.startswith("chain"):
        return chain(graybox.model, int(name[len("chain"):]))
    return graybox.structures.bundled_structure(name)


def check_chain(graybox, n: int, cond_max: float = 100.0, tol: float = 1e-10) -> list[str]:
    """Self-check of :func:`chain`: the evaluated pattern and a generated instance.

    Returns a list of problems; empty when ``eval_structure(chain(n), theta)``
    has the documented pattern and the generated black box satisfies the
    similarity equations with the hidden transform to ``tol``.
    """
    structure, theta = chain(graybox.model, n)
    problems = []
    ss = graybox.model.eval_structure(structure, theta)
    a = -np.diag(theta[:n]) + np.diag(theta[: n - 1], k=-1)
    b = np.zeros((n, 1))
    b[0, 0] = theta[n]
    c = np.zeros((1, n))
    c[0, n - 1] = 1.0
    for label, got, want in (("A", ss.A, a), ("B", ss.B, b), ("C", ss.C, c)):
        if not np.array_equal(got, want):
            problems.append(f"chain({n}): {label} does not match the documented pattern")
    inst = graybox.model.generate_instance(structure, theta, seed=n, cond_max=cond_max)
    res = max_residual(inst.blackbox.to_dict(), structure.to_dict(), theta, inst.T)
    if not res <= tol:
        problems.append(f"chain({n}): hidden transform leaves residual {res:.3e} > {tol:g}")
    if n == 3:
        ref, _ = graybox.structures.bundled_structure("compartment3")
        if not (np.array_equal(ref.K, structure.K)
                and np.array_equal(ref.kappa0, structure.kappa0)):
            problems.append("chain(3) differs from the bundled compartment3 structure")
    return problems


@dataclass
class Case:
    """One grid cell: the files the solver reads and what the oracle needs."""

    key: str
    structure: str
    blackbox: dict
    structure_doc: dict
    theta: np.ndarray
    T: np.ndarray
    argv: list
    report: Path


def instance_seed(grid_seed: int, structure: str, cond_index: int, j: int) -> int:
    """Integer instance seed, usable with ``graybox generate --seed``.

    Depends only on the grid seed and the cell, so a structure/cond cell holds
    the same instances in every workload that contains it.
    """
    rng = np.random.default_rng([grid_seed, zlib.crc32(structure.encode()), cond_index, j])
    return int(rng.integers(2**31))


def grid_cells(workload: str, grid_seed: int, smoke: bool):
    spec = WORKLOADS[workload]
    structures = SMOKE[workload]["structures"] if smoke else spec["structures"]
    conds = SMOKE[workload]["conds"] if smoke else CONDS
    per_cell = 1 if smoke else spec["seeds_per_cell"]
    for name in structures:
        for ci, cond in enumerate(conds):
            for j in range(per_cell):
                yield name, cond, instance_seed(grid_seed, name, ci, j)


def perturb(x: np.ndarray, rng: np.random.Generator, rel: float) -> np.ndarray:
    """``x`` plus a random direction scaled to ``rel`` times its Frobenius norm."""
    d = rng.standard_normal(x.shape)
    return x + rel * np.linalg.norm(x) * d / np.linalg.norm(d)


def write_inputs(graybox, workload: str, cells, work: Path, generate) -> list[Case]:
    """Generate each instance and write the JSON files one solve reads.

    ``generate`` wraps ``graybox.model.generate_instance`` so the caller can
    time it.
    """
    method = WORKLOADS[workload]["method"]
    structures = {}
    cases = []
    for name, cond, seed in cells:
        if name not in structures:
            structure, theta = structure_for(graybox, name)
            path = work / f"{name}.structure.json"
            path.write_text(json.dumps(structure.to_dict()))
            structures[name] = (structure, theta, path)
        structure, theta, st_path = structures[name]
        inst = generate(structure, theta, seed=seed, cond_max=cond)
        key = f"{name}-c{cond:g}-s{seed}"
        bb_doc = inst.blackbox.to_dict()
        bb_path = work / f"{key}.blackbox.json"
        bb_path.write_text(json.dumps(bb_doc))
        report = work / f"{key}.report.json"
        argv = ["solve", "--method", method, "--blackbox", str(bb_path),
                "--structure", str(st_path), "--out", str(report)]
        if method == "lsq":
            rng = np.random.default_rng([seed, 1])
            init = {"theta": perturb(theta, rng, POLISH_PERTURBATION).tolist(),
                    "T": perturb(inst.T, rng, POLISH_PERTURBATION).tolist()}
            init_path = work / f"{key}.init.json"
            init_path.write_text(json.dumps(init))
            argv += ["--init", str(init_path)]
        cases.append(Case(key, name, bb_doc, structure.to_dict(), theta, inst.T, argv, report))
    return cases
