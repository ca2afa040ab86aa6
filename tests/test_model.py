import dataclasses
import math
import struct

import numpy as np
import pytest

from graybox import model
from graybox.lsq import solve_lsq
from graybox.model import (
    SINGULAR_RTOL,
    AffineStructure,
    Dims,
    StateSpace,
    _worst,
    apply_similarity,
    eval_structure,
    generate_instance,
    rcond,
    residuals,
    unvec,
    vec,
)
from graybox.nullspace import SingularTransformError, extract_realization
from graybox.structures import mass_spring_damper, scalar

from helpers import dims_grid, random_structure


def test_vec_is_column_major():
    assert np.array_equal(vec(np.array([[1.0, 3.0], [2.0, 4.0]])), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(vec(np.array([[5.0]])), [5.0])


def test_vec_product_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m, n, p = (rng.standard_normal((2, 2)) for _ in range(3))
        lhs = vec(m @ n @ p)
        rhs = np.kron(p.T, m) @ vec(n)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_vec_product_identity_up_to_4x4():
    rng = np.random.default_rng(12)
    for size in (1, 2, 3, 4):
        m, n, p = (rng.standard_normal((size, size)) for _ in range(3))
        assert np.allclose(vec(m @ n @ p), np.kron(p.T, m) @ vec(n), atol=1e-12)


def test_unvec_examples():
    assert np.array_equal(unvec([1.0, 2.0, 3.0, 4.0], 2, 2), [[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(unvec([7.0], 1, 1), [[7.0]])


def test_unvec_inverts_vec():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 2))
    assert np.array_equal(unvec(vec(m), 3, 2), m)


def test_unvec_length_mismatch():
    with pytest.raises(ValueError, match="cannot reshape"):
        unvec([1.0, 2.0, 3.0], 2, 2)


def test_kron_examples():
    a = 2.5
    assert np.array_equal(np.kron(np.eye(2), [[a]]), [[a, 0.0], [0.0, a]])
    assert np.array_equal(np.kron([[1.0, 2.0]], [[3.0], [4.0]]), [[3.0, 6.0], [4.0, 8.0]])


def test_kron_vec_identity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m, n, x = (rng.standard_normal((2, 2)) for _ in range(3))
        assert np.allclose(np.kron(m, n) @ vec(x), vec(n @ x @ m.T), atol=1e-12)


def test_dims_validation():
    with pytest.raises(ValueError, match="n_x"):
        Dims(0, 1, 1)
    d = Dims(2, 1, 1)
    assert d.n_abc == 8
    assert d.n_unknowns == 13
    with pytest.raises(ValueError, match="n_x"):  # bool subclasses int; JSON refuses it too
        Dims(True, 1, 1)


def test_eval_structure_scalar_anchor():
    structure, _ = scalar()
    model = eval_structure(structure, [3.0, 2.0])
    assert np.allclose(model.A, [[3.0]])
    assert np.allclose(model.B, [[2.0]])
    assert np.allclose(model.C, [[0.5]])


def test_eval_structure_at_zero_gives_offset():
    rng = np.random.default_rng(5)
    structure = random_structure(Dims(2, 1, 2), rng)
    model = eval_structure(structure, np.zeros(structure.n_theta))
    assert np.allclose(model.stacked(), structure.kappa0)


def test_eval_structure_mass_spring_anchor():
    structure, _ = mass_spring_damper()
    model = eval_structure(structure, [4.0, 0.5, 1.0])
    assert np.allclose(model.A, [[0.0, 1.0], [-4.0, -0.5]])
    assert np.allclose(model.B, [[0.0], [1.0]])
    assert np.allclose(model.C, [[1.0, 0.0]])


def test_eval_structure_is_affine():
    rng = np.random.default_rng(6)
    for dims in (Dims(1, 1, 1), Dims(3, 2, 1)):
        structure = random_structure(dims, rng)
        t1 = rng.standard_normal(structure.n_theta)
        t2 = rng.standard_normal(structure.n_theta)
        lhs = (
            eval_structure(structure, t1).stacked()
            + eval_structure(structure, t2).stacked()
            - eval_structure(structure, np.zeros_like(t1)).stacked()
        )
        rhs = eval_structure(structure, t1 + t2).stacked()
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_eval_structure_length_mismatch():
    structure, _ = scalar()
    with pytest.raises(ValueError, match="length"):
        eval_structure(structure, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("theta, message", [
    ([3.0, float("nan")], "theta must be finite"),  # not A, which the structure would make
    ([3.0, "x"], "theta must hold numbers only"),
])
def test_eval_structure_names_theta(theta, message):
    structure, _ = scalar()
    with pytest.raises(ValueError, match=message):
        eval_structure(structure, theta)


def test_apply_similarity_identity():
    structure, theta = mass_spring_damper()
    truth = eval_structure(structure, theta)
    out = apply_similarity(truth, np.eye(2))
    assert np.allclose(out.A, truth.A)
    assert np.allclose(out.B, truth.B)
    assert np.allclose(out.C, truth.C)


def test_apply_similarity_scalar_anchor():
    structure, _ = scalar()
    truth = eval_structure(structure, [3.0, 2.0])
    out = apply_similarity(truth, np.array([[2.0]]))
    assert np.allclose(out.A, [[3.0]])
    assert np.allclose(out.B, [[4.0]])
    assert np.allclose(out.C, [[0.25]])


def test_apply_similarity_residuals_vanish():
    rng = np.random.default_rng(7)
    structure = random_structure(Dims(3, 2, 2), rng, n_theta=4)
    truth = eval_structure(structure, rng.standard_normal(4))
    t = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    out = apply_similarity(truth, t)
    assert max(residuals(out, t, truth)) < 1e-12 * (1.0 + np.linalg.norm(out.A))


def test_apply_similarity_singular_raises():
    structure, theta = mass_spring_damper()
    truth = eval_structure(structure, theta)
    with pytest.raises(ValueError, match="singular"):
        apply_similarity(truth, np.array([[1.0, 1.0], [1.0, 1.0]]))


NEAR_SINGULAR_T = np.diag([1.0, 1e-9])  # rcond 1e-9, just below SINGULAR_RTOL


def _near_singular_in_lsq():
    # a stationary point: any diagonal transform reconciles this pair
    blackbox = StateSpace(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
    structure = AffineStructure(kappa0=blackbox.stacked(), K=np.zeros((8, 1)), dims=Dims(2, 1, 1))
    sol = solve_lsq(blackbox, structure, init=(np.zeros(1), NEAR_SINGULAR_T))
    assert np.array_equal(sol.T, NEAR_SINGULAR_T)
    assert sol.diagnostics["degenerate_transform"]


def _near_singular_in_extraction():
    v = np.zeros(Dims(2, 1, 1).n_unknowns)
    v[:4] = vec(NEAR_SINGULAR_T)
    v[-1] = 1.0
    with pytest.raises(SingularTransformError):
        extract_realization(v, Dims(2, 1, 1))


def _near_singular_in_similarity():
    structure, theta = mass_spring_damper()
    with pytest.raises(ValueError, match="singular"):
        apply_similarity(eval_structure(structure, theta), NEAR_SINGULAR_T)


@pytest.mark.parametrize("check", [_near_singular_in_similarity, _near_singular_in_extraction,
                                   _near_singular_in_lsq])
def test_one_singular_threshold_everywhere(check):
    assert rcond(NEAR_SINGULAR_T) == pytest.approx(1e-9) and 1e-9 < SINGULAR_RTOL
    check()


def test_generate_instance_deterministic():
    structure, theta = mass_spring_damper()
    first = generate_instance(structure, theta, seed=7)
    second = generate_instance(structure, theta, seed=7)
    assert np.array_equal(first.T, second.T)
    assert np.array_equal(first.blackbox.A, second.blackbox.A)
    assert np.array_equal(first.blackbox.B, second.blackbox.B)
    assert np.array_equal(first.blackbox.C, second.blackbox.C)


def test_generate_instance_conditioning_bound():
    structure, theta = mass_spring_damper()
    for seed in range(100):
        instance = generate_instance(structure, theta, seed=seed, cond_max=50.0)
        sv = np.linalg.svd(instance.T, compute_uv=False)
        assert sv[0] / sv[-1] <= 50.0 * (1.0 + 1e-12)


def test_generate_instance_validation():
    structure, theta = mass_spring_damper()
    with pytest.raises(ValueError, match="cond_max"):
        generate_instance(structure, theta, seed=0, cond_max=1.0)
    with pytest.raises(ValueError, match="length"):
        generate_instance(structure, [1.0], seed=0)


def test_residuals_zero_on_truth():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=2, cond_max=10.0)
    assert max(residuals(instance.blackbox, instance.T, instance.truth)) < 1e-12


def test_residuals_scalar_anchor():
    blackbox = StateSpace(A=[[3.0]], B=[[4.0]], C=[[0.25]])
    structured = StateSpace(A=[[3.0]], B=[[2.0]], C=[[0.5]])
    r = residuals(blackbox, np.array([[1.0]]), structured)
    assert r.r_a == pytest.approx(0.0)
    assert r.r_b == pytest.approx(2.0)
    assert r.r_c == pytest.approx(0.25)


@pytest.mark.parametrize("slot", range(3))
def test_worst_is_nan_when_any_value_is_nan(slot):
    values = [0.0, 1.0, 2.0]
    values[slot] = math.nan  # max() would drop it in slots 1 and 2
    assert math.isnan(_worst(values))


def test_worst_of_an_infinite_value_is_inf():
    assert _worst((0.0, math.inf, 1.0)) == math.inf


@pytest.mark.parametrize("values", [
    (1e-9, 3e-9, 2e-9), (0.0, -0.0, -1.0), (-0.0, 0.0, -1.0), (5e-324, 0.0, 0.0), (-2.0, -1.0),
])
def test_worst_of_finite_values_is_max_bit_for_bit(values):
    assert struct.pack("<d", _worst(values)) == struct.pack("<d", max(values))


def test_statespace_json_round_trip():
    structure, theta = mass_spring_damper()
    model = eval_structure(structure, theta)
    again = StateSpace.from_dict(model.to_dict())
    assert np.array_equal(again.A, model.A)
    assert np.array_equal(again.B, model.B)
    assert np.array_equal(again.C, model.C)


def test_statespace_from_dict_validation():
    with pytest.raises(ValueError, match="missing key"):
        StateSpace.from_dict({"n_x": 1, "n_u": 1, "n_y": 1, "A": [[1.0]], "B": [[1.0]]})
    with pytest.raises(ValueError, match="shape"):
        StateSpace.from_dict(
            {"n_x": 2, "n_u": 1, "n_y": 1, "A": [[1.0]], "B": [[1.0]], "C": [[1.0]]}
        )
    with pytest.raises(ValueError, match="n_y must be an integer"):
        StateSpace.from_dict({"n_x": 1, "n_u": 1, "n_y": "1", "A": [[1.0]], "B": [[1.0]],
                              "C": [[1.0]]})


def test_from_dict_reads_each_matrix_once_and_checks_its_entries_once(monkeypatch):
    # the document's lists are read into floats once, and the constructor checks them
    structure, theta = mass_spring_damper()
    blackbox_doc, structure_doc = eval_structure(structure, theta).to_dict(), structure.to_dict()
    read, checked = [], []
    floats, finite = model._floats, model._finite
    monkeypatch.setattr(model, "_floats", lambda value, name: read.append(
        (name, type(value) is list)) or floats(value, name))
    monkeypatch.setattr(model, "_finite", lambda m, name: checked.append(name) or finite(m, name))
    StateSpace.from_dict(blackbox_doc)
    assert [name for name, is_list in read if is_list] == ["A", "B", "C"]
    assert checked == ["A", "B", "C"]
    read.clear()
    checked.clear()
    AffineStructure.from_dict(structure_doc)
    assert [name for name, is_list in read if is_list] == ["K", "kappa0"]
    assert checked == ["kappa0", "K"]
    # the declared dimensions still name the shape an error reports
    doc = dict(blackbox_doc, C=[[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"C must have shape \(1, 2\), got \(1, 3\)"):
        StateSpace.from_dict(doc)


@pytest.mark.parametrize("matrices, message", [
    ((np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2))), r"A must be square, got shape \(2, 3\)"),
    ((np.eye(2), [[1.0], ["b"]], np.ones((1, 2))), "B must hold numbers only"),
    ((np.eye(2), np.ones((2, 1)), [[1.0, float("inf")]]), "C must be finite"),
])
def test_statespace_validation(matrices, message):
    with pytest.raises(ValueError, match=message):
        StateSpace(*matrices)


@pytest.mark.parametrize("kappa0, k, message", [
    (np.zeros(7), np.ones((8, 3)), "kappa0 must have length 8, got 7"),
    (np.zeros(8), np.ones((7, 3)), r"K must have shape \(8, 3\), got \(7, 3\)"),
    (np.zeros(8), np.ones((8, 0)), "K must have at least one column"),
    (np.zeros(8), [[1.0, 2.0]] * 7 + [[1.0]], "K must hold numbers only"),
    ([0.0] * 7 + [float("nan")], np.ones((8, 3)), "kappa0 must be finite"),
    (np.zeros(8), np.full((8, 3), np.inf), "K must be finite"),
])
def test_structure_validation(kappa0, k, message):
    with pytest.raises(ValueError, match=message):
        AffineStructure(kappa0=kappa0, K=k, dims=Dims(2, 1, 1))


def test_structure_json_round_trip():
    rng = np.random.default_rng(8)
    for dims in dims_grid()[:4]:
        structure = random_structure(dims, rng)
        again = AffineStructure.from_dict(structure.to_dict())
        assert np.array_equal(again.kappa0, structure.kappa0)
        assert np.array_equal(again.K, structure.K)
        assert again.dims == structure.dims


def test_a_structure_is_immutable_and_independent_of_the_callers_arrays():
    rng = np.random.default_rng(9)
    dims = Dims(2, 1, 1)
    kappa0, k = rng.standard_normal(dims.n_abc), rng.standard_normal((dims.n_abc, 3))
    kept = kappa0.copy(), k.copy()
    early, late = (AffineStructure(kappa0=kappa0, K=k, dims=dims) for _ in range(2))
    for name in ("K", "kappa0"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(early, name, np.zeros_like(getattr(early, name)))
        with pytest.raises(ValueError, match="read-only"):
            getattr(early, name)[0] = 1.0
    proj = early.projector
    built = {name: getattr(proj, name).copy() for name in ("residual_op", "theta_map", "offset")}
    kappa0 += 1.0
    k *= 2.0
    for structure in (early, late):  # late builds its projector after the caller's writes
        assert np.array_equal(structure.kappa0, kept[0]) and np.array_equal(structure.K, kept[1])
        for name, value in built.items():
            assert np.array_equal(getattr(structure.projector, name), value)
    assert early.projector is proj


def test_structure_from_dict_validation():
    structure, _ = scalar()
    doc = structure.to_dict()
    doc["n_theta"] = 5
    with pytest.raises(ValueError, match="n_theta"):
        AffineStructure.from_dict(doc)
    doc = structure.to_dict()
    del doc["kappa0"]
    with pytest.raises(ValueError, match="missing key"):
        AffineStructure.from_dict(doc)
