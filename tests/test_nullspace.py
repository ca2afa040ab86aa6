from types import SimpleNamespace

import numpy as np
import pytest

import graybox.nullspace as ns
from graybox.model import (
    Dims,
    StateSpace,
    apply_similarity,
    eval_structure,
    generate_instance,
    residuals,
    unvec,
    vec,
)
from graybox.nullspace import (
    EmptyNullspaceError,
    SingularTransformError,
    build_constraint_matrix,
    extract_realization,
    extract_theta,
    nullspace_basis,
    nullspace_point,
    realization_jacobians,
    realization_vector,
    reduced_distance,
    reduced_residual,
    solve_nullspace,
    structure_distance,
    structure_projector,
)
from graybox.optim import InfeasibleStartError, OptimConfig, fd_gradient, fd_jacobian, relative_errors
from graybox.structures import compartment3, mass_spring_damper, scalar

from helpers import dims_grid, random_structure, stacked_solution

SCALAR_BLACKBOX = StateSpace(A=[[3.0]], B=[[4.0]], C=[[0.25]])


def scalar_projector():
    structure, _ = scalar()
    return structure, structure_projector(structure)


# ---------------------------------------------------------------------------
# constraint matrix and null space
# ---------------------------------------------------------------------------

def test_constraint_matrix_scalar_anchor():
    m = build_constraint_matrix(SCALAR_BLACKBOX)
    expected = np.array([
        [3.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, -4.0],
        [0.25, 0.0, 0.0, -1.0, 0.0],
    ])
    assert np.array_equal(m, expected)


def test_constraint_matrix_annihilates_truth():
    rng = np.random.default_rng(21)
    for dims in dims_grid():
        structure = random_structure(dims, rng)
        theta = rng.standard_normal(structure.n_theta)
        instance = generate_instance(structure, theta, seed=int(rng.integers(1 << 16)))
        m = build_constraint_matrix(instance.blackbox)
        v = stacked_solution(instance)
        scale = 1.0 + np.linalg.norm(v)
        assert np.linalg.norm(m @ v) <= 1e-10 * scale


def test_constraint_matrix_full_row_rank():
    rng = np.random.default_rng(22)
    for dims in dims_grid():
        if dims.n_x > 4:
            continue
        structure = random_structure(dims, rng)
        instance = generate_instance(structure, rng.standard_normal(structure.n_theta), seed=5)
        m = build_constraint_matrix(instance.blackbox)
        s = np.linalg.svd(m, compute_uv=False)
        tol = s[0] * max(m.shape) * np.finfo(float).eps
        assert int(np.sum(s > tol)) == dims.n_abc


def test_nullspace_dimension_is_nx2_plus_one():
    rng = np.random.default_rng(23)
    for dims in dims_grid():
        structure = random_structure(dims, rng)
        instance = generate_instance(structure, rng.standard_normal(structure.n_theta), seed=9)
        basis = nullspace_basis(build_constraint_matrix(instance.blackbox))
        assert basis.shape == (dims.n_unknowns, dims.n_x**2 + 1)


def test_nullspace_basis_properties():
    m = build_constraint_matrix(SCALAR_BLACKBOX)
    basis = nullspace_basis(m)
    assert basis.shape[1] == 2
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)
    assert np.linalg.norm(m @ basis) <= 1e-10 * np.linalg.norm(m)


def test_nullspace_basis_empty_raises():
    with pytest.raises(EmptyNullspaceError, match="no admissible solution"):
        nullspace_basis(np.eye(4))


# ---------------------------------------------------------------------------
# closed-form null space against the SVD oracle
# ---------------------------------------------------------------------------

def closed_form_map(blackbox: StateSpace) -> np.ndarray:
    """Dense linear map (vec(T), s) -> [vec(T); vec(A_bb T); s vec(B_bb); vec(C_bb T); s]."""
    d = blackbox.dims
    nx2 = d.n_x**2
    off_c = 2 * nx2 + d.n_x * d.n_u
    eye_x = np.eye(d.n_x)
    n = np.zeros((d.n_unknowns, nx2 + 1))
    n[:nx2, :nx2] = np.eye(nx2)
    n[nx2:2 * nx2, :nx2] = np.kron(eye_x, blackbox.A)
    n[2 * nx2:off_c, -1] = vec(blackbox.B)
    n[off_c:-1, :nx2] = np.kron(eye_x, blackbox.C)
    n[-1, -1] = 1.0
    return n


def test_nullspace_point_is_the_closed_form_map_at_unit_s():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=3, cond_max=10.0)
    t = np.random.default_rng(25).standard_normal((2, 2))
    expected = closed_form_map(instance.blackbox) @ np.append(vec(t), 1.0)
    assert np.allclose(nullspace_point(instance.blackbox, t), expected, atol=1e-12)
    assert np.allclose(nullspace_point(instance.blackbox, instance.T), stacked_solution(instance))


def test_closed_form_spans_svd_nullspace():
    rng = np.random.default_rng(25)
    for dims in dims_grid():
        structure = random_structure(dims, rng)
        instance = generate_instance(structure, rng.standard_normal(structure.n_theta),
                                     seed=int(rng.integers(1 << 16)))
        m = build_constraint_matrix(instance.blackbox)
        n = closed_form_map(instance.blackbox)
        assert np.linalg.norm(m @ n) <= 1e-12 * (1.0 + np.linalg.norm(m)) * (1.0 + np.linalg.norm(n))
        q, _ = np.linalg.qr(n)
        basis = nullspace_basis(m)
        assert np.max(np.abs(q @ q.T - basis @ basis.T)) <= 1e-10


# ---------------------------------------------------------------------------
# realization extraction
# ---------------------------------------------------------------------------

def test_extract_realization_scalar_anchor():
    r = extract_realization(np.array([2.0, 6.0, 4.0, 0.5, 1.0]), Dims(1, 1, 1))
    assert np.allclose(r.T, [[2.0]])
    assert np.allclose(r.A, [[3.0]])
    assert np.allclose(r.B, [[2.0]])
    assert np.allclose(r.C, [[0.5]])


def test_extract_realization_identity_transform():
    structure, theta = mass_spring_damper()
    truth = eval_structure(structure, theta)
    v = np.concatenate([vec(np.eye(2)), vec(truth.A), vec(truth.B), vec(truth.C), [1.0]])
    r = extract_realization(v, structure.dims)
    assert np.allclose(r.T, np.eye(2))
    assert np.allclose(r.A, truth.A)
    assert np.allclose(r.B, truth.B)
    assert np.allclose(r.C, truth.C)


def test_extract_realization_singular_raises():
    v = np.array([0.0, 6.0, 4.0, 0.5, 1.0])
    with pytest.raises(SingularTransformError):
        extract_realization(v, Dims(1, 1, 1))


def test_extracted_realization_satisfies_similarity():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=4, cond_max=10.0)
    rng = np.random.default_rng(26)
    scale = 1.0 + np.linalg.norm(instance.blackbox.A)
    for _ in range(20):
        v = nullspace_point(instance.blackbox, rng.standard_normal((2, 2)))
        try:
            r = extract_realization(v, structure.dims)
        except SingularTransformError:
            continue
        structured = StateSpace(A=r.A, B=r.B, C=r.C)
        assert max(residuals(instance.blackbox, r.T, structured)) <= 1e-9 * scale


def test_realization_vector_anchors():
    v = np.array([2.0, 6.0, 4.0, 0.5, 1.0])
    assert np.allclose(realization_vector(v, Dims(1, 1, 1)), [3.0, 2.0, 0.5])


def test_realization_vector_matches_structure_at_truth():
    rng = np.random.default_rng(27)
    structure = random_structure(Dims(3, 1, 2), rng, n_theta=4)
    theta = rng.standard_normal(4)
    instance = generate_instance(structure, theta, seed=8, cond_max=10.0)
    stacked = realization_vector(stacked_solution(instance), structure.dims)
    assert np.allclose(stacked, structure.kappa0 + structure.K @ theta, atol=1e-10)


# ---------------------------------------------------------------------------
# structure projector and distance
# ---------------------------------------------------------------------------

def test_projector_scalar_anchor():
    _, proj = scalar_projector()
    assert np.allclose(proj.residual_op, np.diag([0.0, 0.0, -1.0]), atol=1e-14)


def make_projector(k: np.ndarray, kappa0: np.ndarray):
    """Projector from bare matrices; shapes here need not match any Dims."""
    return structure_projector(SimpleNamespace(K=k, kappa0=np.asarray(kappa0, dtype=float)))


def test_projector_square_invertible_gives_zero():
    rng = np.random.default_rng(28)
    k = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    proj = make_projector(k, np.zeros(4))
    assert np.linalg.norm(proj.residual_op) <= 1e-12 * np.linalg.norm(k)


def test_projector_laws_random_including_rank_deficient():
    rng = np.random.default_rng(29)
    for trial in range(50):
        rows = int(rng.integers(2, 13))
        cols = int(rng.integers(1, 6))
        k = rng.standard_normal((rows, cols))
        if trial % 3 == 0 and cols >= 2:
            k[:, -1] = k[:, 0] * 2.0  # force rank deficiency
        proj = make_projector(k, np.zeros(rows))
        scale = 1.0 + np.linalg.norm(k)
        assert np.linalg.norm(proj.residual_op @ k) <= 1e-10 * scale
        assert np.linalg.norm(proj.residual_op @ proj.residual_op + proj.residual_op) <= 1e-10
        assert np.allclose(proj.residual_op, proj.residual_op.T, atol=1e-12)


def test_structure_distance_membership_zero():
    structure, proj = scalar_projector()
    rng = np.random.default_rng(30)
    for _ in range(10):
        theta = rng.standard_normal(2)
        stacked = structure.kappa0 + structure.K @ theta
        assert structure_distance(stacked, proj) <= 1e-12


def test_structure_distance_scalar_anchor():
    _, proj = scalar_projector()
    assert structure_distance(np.array([3.0, 2.0, 0.7]), proj) == pytest.approx(0.04, abs=1e-12)


def test_structure_distance_matches_lstsq_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        rows = int(rng.integers(2, 12))
        cols = int(rng.integers(1, 5))
        k = rng.standard_normal((rows, cols))
        kappa0 = rng.standard_normal(rows)
        target = rng.standard_normal(rows)
        proj = make_projector(k, kappa0)
        theta_opt, *_ = np.linalg.lstsq(k, target - kappa0, rcond=None)
        oracle = float(np.sum((kappa0 + k @ theta_opt - target) ** 2))
        assert structure_distance(target, proj) == pytest.approx(oracle, abs=1e-10)


def test_extract_theta_zero_offset():
    _, proj = scalar_projector()
    assert np.allclose(extract_theta(proj.offset, proj), [0.0, 0.0])


def test_extract_theta_scalar_anchor():
    _, proj = scalar_projector()
    assert np.allclose(extract_theta(np.array([3.0, 2.0, 0.5]), proj), [3.0, 2.0])


def test_extract_theta_normal_equations():
    rng = np.random.default_rng(32)
    for _ in range(20):
        rows = int(rng.integers(2, 12))
        cols = int(rng.integers(1, 5))
        k = rng.standard_normal((rows, cols))
        kappa0 = rng.standard_normal(rows)
        target = rng.standard_normal(rows)
        proj = make_projector(k, kappa0)
        theta = extract_theta(target, proj)
        # the residual of the optimal fit is orthogonal to the range of K
        assert np.linalg.norm(k.T @ (kappa0 + k @ theta - target)) <= 1e-10 * (
            1.0 + np.linalg.norm(k)
        )


# ---------------------------------------------------------------------------
# jacobians and gradients against finite differences
# ---------------------------------------------------------------------------

def _well_conditioned_stacked(dims, rng):
    # absolute floor on the smallest singular value: finite-difference
    # truncation error grows like 1/smin^3 through the extraction
    while True:
        v = rng.standard_normal(dims.n_unknowns)
        t = unvec(v[: dims.n_x**2], dims.n_x, dims.n_x)
        sv = np.linalg.svd(t, compute_uv=False)
        if sv[-1] >= 5e-2 * max(1.0, sv[0]):
            return v


def test_jacobians_scalar_anchor():
    # at [T, TA, TB, C, 1] = [2, 6, 4, 0.5, 1]: d(TA/T)/dT = -6/4, d(TA/T)/dTA = 1/2
    # and d(TB/T)/dT = -4/4, d(TB/T)/dTB = 1/2
    j_a, j_b, j_c = realization_jacobians(np.array([2.0, 6.0, 4.0, 0.5, 1.0]), Dims(1, 1, 1))
    assert np.allclose(j_a, [[-1.5, 0.5, 0.0, 0.0, 0.0]])
    assert np.allclose(j_b, [[-1.0, 0.0, 0.5, 0.0, 0.0]])
    assert np.allclose(j_c, [[0.0, 0.0, 0.0, 1.0, 0.0]])


def test_jacobian_c_block_is_passthrough():
    dims = Dims(2, 1, 2)
    rng = np.random.default_rng(33)
    v = _well_conditioned_stacked(dims, rng)
    _, _, j_c = realization_jacobians(v, dims)
    off = 2 * dims.n_x**2 + dims.n_x * dims.n_u
    for k in range(dims.n_y * dims.n_x):
        e = np.zeros(dims.n_unknowns)
        e[off + k] = 1.0
        assert np.array_equal(j_c @ e, np.eye(dims.n_y * dims.n_x)[:, k])


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(34)
    for dims in [d for d in dims_grid() if d.n_x <= 3]:
        for _ in range(3):
            v = _well_conditioned_stacked(dims, rng)
            analytic = np.vstack(realization_jacobians(v, dims))
            approx = fd_jacobian(lambda w: realization_vector(w, dims), v)
            assert float(np.max(relative_errors(analytic, approx))) <= 1e-6


def _random_blackbox_and_t(dims, rng):
    """Random black-box triple and a well-conditioned transform, as vec(T)."""
    blackbox = StateSpace(A=rng.standard_normal((dims.n_x, dims.n_x)),
                          B=rng.standard_normal((dims.n_x, dims.n_u)),
                          C=rng.standard_normal((dims.n_y, dims.n_x)))
    return blackbox, _well_conditioned_stacked(dims, rng)[: dims.n_x**2]


def test_distance_grad_zero_at_truth():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=5, cond_max=10.0)
    proj = structure_projector(structure)
    _, g = reduced_distance(vec(instance.T), instance.blackbox, proj)
    assert np.linalg.norm(g) <= 1e-10


def test_distance_grad_matches_finite_differences():
    rng = np.random.default_rng(35)
    for dims in [d for d in dims_grid() if d.n_x <= 3]:
        structure = random_structure(dims, rng)
        proj = structure_projector(structure)
        blackbox, t_vec = _random_blackbox_and_t(dims, rng)
        _, analytic = reduced_distance(t_vec, blackbox, proj)
        approx = fd_gradient(lambda tv: reduced_distance(tv, blackbox, proj)[0], t_vec)
        assert float(np.max(relative_errors(analytic, approx))) <= 1e-6


def test_distance_grad_scales_with_offset():
    # shifting the offset so the residual doubles must double the gradient
    rng = np.random.default_rng(36)
    dims = Dims(2, 1, 1)
    structure = random_structure(dims, rng, n_theta=2)
    proj = structure_projector(structure)
    blackbox, t_vec = _random_blackbox_and_t(dims, rng)
    stacked = realization_vector(nullspace_point(blackbox, unvec(t_vec, 2, 2)), dims)
    doubled = make_projector(structure.K, 2.0 * structure.kappa0 - stacked)
    _, g1 = reduced_distance(t_vec, blackbox, proj)
    _, g2 = reduced_distance(t_vec, blackbox, doubled)
    assert np.allclose(g2, 2.0 * g1, atol=1e-9 * (1.0 + np.linalg.norm(g1)))


def test_distance_grad_equals_jacobian_oracle():
    # the matrix-form gradient against N^T (-2 [J_A; J_B; J_C]^T P^T P (kappa0 - s)):
    # the paper's dense Kronecker-product Jacobians of the stacked point,
    # pulled back through the dense closed-form map N of vec(T)
    rng = np.random.default_rng(40)
    for dims in dims_grid():
        structure = random_structure(dims, rng)
        proj = structure_projector(structure)
        for _ in range(5):
            blackbox, t_vec = _random_blackbox_and_t(dims, rng)
            v = nullspace_point(blackbox, unvec(t_vec, dims.n_x, dims.n_x))
            jac = np.vstack(realization_jacobians(v, dims))
            p = proj.residual_op
            stacked_grad = -2.0 * jac.T @ (p.T @ (p @ (proj.offset - realization_vector(v, dims))))
            oracle = closed_form_map(blackbox)[:, :-1].T @ stacked_grad
            _, g = reduced_distance(t_vec, blackbox, proj)
            assert np.linalg.norm(g - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_reduced_grad_matches_finite_differences():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=7, cond_max=10.0)
    proj = structure_projector(structure)
    rng = np.random.default_rng(38)
    checked = 0
    while checked < 10:
        t_vec = rng.standard_normal(4)
        value, analytic = reduced_distance(t_vec, instance.blackbox, proj)
        if not np.isfinite(value):
            continue
        approx = fd_gradient(lambda tv: reduced_distance(tv, instance.blackbox, proj)[0], t_vec)
        assert float(np.max(relative_errors(analytic, approx))) <= 1e-6
        checked += 1


def test_reduced_grad_zero_at_recovering_alpha():
    # the recovering point of the T coordinates is the hidden transform
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=8, cond_max=10.0)
    proj = structure_projector(structure)
    value, g = reduced_distance(vec(instance.T), instance.blackbox, proj)
    assert value <= 1e-16
    assert np.linalg.norm(g) <= 1e-8


def test_reduced_distance_infinite_when_singular():
    # transform diag(1, 1-a): rank-deficient exactly at a = 1
    dims = Dims(2, 1, 1)
    rng = np.random.default_rng(39)
    blackbox = StateSpace(A=rng.standard_normal((2, 2)), B=rng.standard_normal((2, 1)),
                          C=rng.standard_normal((1, 2)))
    proj = structure_projector(random_structure(dims, rng, n_theta=2))
    assert np.isfinite(reduced_distance(vec(np.diag([1.0, 0.5])), blackbox, proj)[0])
    assert reduced_distance(vec(np.diag([1.0, 0.0])), blackbox, proj) == (np.inf, None)


def test_residual_jacobian_matches_finite_differences():
    rng = np.random.default_rng(41)
    for dims in dims_grid():
        structure = random_structure(dims, rng)
        proj = structure_projector(structure)
        blackbox, t_vec = _random_blackbox_and_t(dims, rng)
        _, jac = reduced_residual(t_vec, blackbox, proj)
        approx = fd_jacobian(lambda tv: reduced_residual(tv, blackbox, proj)[0], t_vec)
        assert jac.shape == (dims.n_abc, dims.n_x**2)
        assert float(np.max(relative_errors(jac, approx))) <= 1e-6


def test_residual_jacobian_equals_kron_oracle():
    # J = -P [J_A; J_B; J_C] N: the paper's dense Kronecker-product Jacobians
    # of the stacked point, pulled back through the closed-form map N of vec(T)
    rng = np.random.default_rng(42)
    for dims in dims_grid():
        structure = random_structure(dims, rng)
        proj = structure_projector(structure)
        for _ in range(3):
            blackbox, t_vec = _random_blackbox_and_t(dims, rng)
            v = nullspace_point(blackbox, unvec(t_vec, dims.n_x, dims.n_x))
            ds = np.vstack(realization_jacobians(v, dims)) @ closed_form_map(blackbox)[:, :-1]
            oracle = -proj.residual_op @ ds
            r, jac = reduced_residual(t_vec, blackbox, proj)
            assert np.linalg.norm(jac - oracle) <= 1e-10 * np.linalg.norm(oracle)
            expected = proj.residual_op @ (proj.offset - realization_vector(v, dims))
            assert np.allclose(r, expected, rtol=0.0, atol=1e-12 * (1.0 + np.linalg.norm(r)))


def test_residual_gives_reduced_distance_and_its_gradient():
    rng = np.random.default_rng(43)
    for dims in dims_grid():
        structure = random_structure(dims, rng)
        proj = structure_projector(structure)
        blackbox, t_vec = _random_blackbox_and_t(dims, rng)
        r, jac = reduced_residual(t_vec, blackbox, proj)
        f, g = reduced_distance(t_vec, blackbox, proj)
        assert float(r @ r) == pytest.approx(f, rel=1e-12)
        assert np.linalg.norm(2.0 * jac.T @ r - g) <= 1e-10 * (1.0 + np.linalg.norm(g))


def test_residual_undefined_when_singular():
    dims = Dims(2, 1, 1)
    rng = np.random.default_rng(44)
    blackbox = StateSpace(A=rng.standard_normal((2, 2)), B=rng.standard_normal((2, 1)),
                          C=rng.standard_normal((1, 2)))
    proj = structure_projector(random_structure(dims, rng, n_theta=2))
    assert reduced_residual(vec(np.diag([1.0, 0.0])), blackbox, proj) == (None, None)


# ---------------------------------------------------------------------------
# end-to-end solve
# ---------------------------------------------------------------------------

def test_solve_scalar_instance():
    structure, theta = scalar()
    blackbox = apply_similarity(eval_structure(structure, theta), np.array([[2.0]]))
    sol = solve_nullspace(blackbox, structure)
    assert sol.result.converged
    assert np.allclose(sol.theta, [3.0, 2.0], atol=1e-6)
    res = residuals(blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8
    assert sol.diagnostics["nullspace_dim"] == 2


def test_solve_mass_spring_instance():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=7, cond_max=20.0)
    sol = solve_nullspace(instance.blackbox, structure)
    assert sol.result.converged
    assert np.linalg.norm(sol.theta - theta) / np.linalg.norm(theta) <= 1e-4
    res = residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8


def test_solve_uses_no_svd_basis_and_no_kron(monkeypatch):
    def oracle_only(*args, **kwargs):
        raise AssertionError("the solve path must not build the SVD null space")

    monkeypatch.setattr(ns, "build_constraint_matrix", oracle_only)
    monkeypatch.setattr(ns, "nullspace_basis", oracle_only)
    monkeypatch.setattr(np, "kron", oracle_only)
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=7, cond_max=20.0)
    sol = solve_nullspace(instance.blackbox, structure)
    assert sol.result.converged
    assert np.linalg.norm(sol.theta - theta) / np.linalg.norm(theta) <= 1e-4
    res = residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8


def test_solve_extracts_each_point_once(monkeypatch):
    # residual and Jacobian share one extraction, so the search never extracts
    # a point twice; the one repeat allowed is the read-out of the winner,
    # here the first and only start, which takes over 100 steps
    extracted = []
    extract = ns.extract_realization

    def recorder(v, dims):
        extracted.append(np.asarray(v).tobytes())
        return extract(v, dims)

    monkeypatch.setattr(ns, "extract_realization", recorder)
    structure, theta = compartment3()
    instance = generate_instance(structure, theta, seed=127, cond_max=20.0)
    sol = solve_nullspace(instance.blackbox, structure)
    assert sol.result.converged
    assert len(sol.diagnostics["start_outcomes"]) == 1
    search, readout = extracted[:-1], extracted[-1]
    assert len(search) > 100
    assert len(set(search)) == len(search)
    assert readout == nullspace_point(instance.blackbox, sol.T).tobytes()


def test_solve_stops_at_first_start_that_recovers(monkeypatch):
    calls = []
    lm = ns.lm

    def counting(*args, **kwargs):
        calls.append(args)
        return lm(*args, **kwargs)

    monkeypatch.setattr(ns, "lm", counting)
    structure, theta = compartment3()
    instance = generate_instance(structure, theta, seed=6, cond_max=20.0)
    sol = solve_nullspace(instance.blackbox, structure)
    assert len(calls) == 1
    assert sol.diagnostics["starts"] == 5
    res = residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8
    assert sol.diagnostics["start_outcomes"] == [{
        "iterations": sol.result.iterations,
        "n_evals": sol.result.n_evals,
        "status": sol.result.status,
        "objective_final": sol.result.f_best,
        "max_residual": max(res),
    }]


def test_solve_without_passing_start_keeps_lowest_objective():
    # one step per start leaves every read-out far from the structured set
    structure, theta = compartment3()
    instance = generate_instance(structure, theta, seed=7, cond_max=20.0)
    cfg = OptimConfig(max_iters=1)
    sol = solve_nullspace(instance.blackbox, structure, cfg)
    outcomes = sol.diagnostics["start_outcomes"]
    assert len(outcomes) == 1 + cfg.restarts
    assert all(o["max_residual"] > 1e-8 for o in outcomes)

    # lm from the same starts: T = I, then the seeded draws
    proj = structure_projector(structure)
    rng = np.random.default_rng(cfg.seed)
    starts = [vec(np.eye(3))] + [vec(rng.standard_normal((3, 3))) for _ in range(cfg.restarts)]
    runs = [ns.lm(lambda t: reduced_residual(t, instance.blackbox, proj), x0, cfg)
            for x0 in starts]
    assert [o["objective_final"] for o in outcomes] == [r.f_best for r in runs]
    best = min(runs, key=lambda r: r.f_best)
    assert best is not runs[0]  # the winner is not simply the first start
    t_best = unvec(best.x_best, 3, 3)
    stacked = realization_vector(nullspace_point(instance.blackbox, t_best), instance.blackbox.dims)
    assert np.array_equal(sol.T, t_best)
    assert np.array_equal(sol.theta, extract_theta(stacked, proj))
    assert sol.result.f_best == best.f_best


def test_solve_counts_infeasible_start_and_stops_at_next(monkeypatch):
    calls = []
    lm = ns.lm

    def first_infeasible(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise InfeasibleStartError("forced")
        return lm(*args, **kwargs)

    monkeypatch.setattr(ns, "lm", first_infeasible)
    structure, theta = compartment3()
    instance = generate_instance(structure, theta, seed=7, cond_max=20.0)
    sol = solve_nullspace(instance.blackbox, structure)
    assert len(calls) == 2
    assert sol.diagnostics["infeasible_starts"] == 1
    outcomes = sol.diagnostics["start_outcomes"]
    assert len(outcomes) == 2
    assert outcomes[0] == {"status": "infeasible"}
    assert outcomes[1]["max_residual"] <= 1e-8


def test_solve_already_structured_blackbox():
    structure, theta = mass_spring_damper()
    blackbox = eval_structure(structure, theta)  # transform is the identity
    sol = solve_nullspace(blackbox, structure)
    assert sol.result.f_best <= 1e-12
    res = residuals(blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8


def test_solve_objective_trace_non_increasing():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=9, cond_max=20.0)
    sol = solve_nullspace(instance.blackbox, structure)
    values = [f for _, f, _ in sol.result.trace]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_solve_never_accepts_a_step_that_raises_the_objective(monkeypatch):
    # the T = I start of this instance reaches damped systems with condition
    # numbers near 1e17, whose computed steps can predict a decrease that the
    # exact step cannot: such a step must end the start, not be accepted
    runs = []
    lm = ns.lm

    def recording(*args, **kwargs):
        runs.append(lm(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(ns, "lm", recording)
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=31, cond_max=100.0)
    solve_nullspace(instance.blackbox, structure)
    assert len(runs) == 2
    for run in runs:
        values = [f for _, f, _ in run.trace]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_solve_dimension_mismatch():
    structure, _ = mass_spring_damper()
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_nullspace(SCALAR_BLACKBOX, structure)


def test_solve_all_starts_infeasible(monkeypatch):
    structure, theta = scalar()
    blackbox = apply_similarity(eval_structure(structure, theta), np.array([[2.0]]))

    def always_infeasible(*args, **kwargs):
        raise InfeasibleStartError("forced")

    monkeypatch.setattr(ns, "lm", always_infeasible)
    with pytest.raises(InfeasibleStartError, match="starts"):
        solve_nullspace(blackbox, structure)


def test_solve_reaches_tolerance_at_large_transform_norm():
    # ||T|| is about 1e3 here; an absolute gradient test used to stop the
    # search at a similarity residual of 5e-6
    structure, theta = compartment3()
    instance = generate_instance(structure, theta, seed=134104485, cond_max=1e4)
    sol = solve_nullspace(instance.blackbox, structure)
    assert np.linalg.norm(sol.T) > 100.0
    assert sol.result.converged
    res = residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8
