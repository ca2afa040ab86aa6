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
    BasePointError,
    EmptyNullspaceError,
    SingularTransformError,
    base_point_coeffs,
    build_constraint_matrix,
    extract_realization,
    extract_theta,
    last_row_nullspace,
    nullspace_basis,
    realization_jacobians,
    realization_vector,
    reduced_distance,
    reduced_distance_grad,
    solution_space,
    solve_nullspace,
    structure_distance,
    structure_distance_grad,
    structure_projector,
)
from graybox.optim import InfeasibleStartError, OptimConfig, fd_gradient, fd_jacobian, relative_errors
from graybox.structures import mass_spring_damper, scalar

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
# base point and free directions
# ---------------------------------------------------------------------------

def test_base_point_unit_last_component():
    basis = nullspace_basis(build_constraint_matrix(SCALAR_BLACKBOX))
    coeffs = base_point_coeffs(basis, seed=0)
    assert abs((basis @ coeffs)[-1] - 1.0) <= 1e-12
    assert np.array_equal(coeffs, base_point_coeffs(basis, seed=0))


def test_base_point_redraws_until_above_threshold():
    # seed 0 on the identity basis: the first draw has |last| = 0.13, so a
    # min_last of 1.0 forces the redraw loop before a later draw clears it
    coeffs = base_point_coeffs(np.eye(2), seed=0, min_last=1.0)
    assert abs(coeffs[-1] - 1.0) <= 1e-12
    first_draw = np.random.default_rng(0).standard_normal(2)
    assert abs(first_draw[1]) < 1.0
    assert not np.allclose(coeffs, first_draw / first_draw[1])


def test_base_point_zero_last_row_fails():
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(BasePointError, match="normalization failed"):
        base_point_coeffs(basis, seed=1)


def test_last_row_nullspace_axis_aligned():
    dirs = last_row_nullspace(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert dirs.shape == (2, 1)
    assert np.allclose(np.abs(dirs[:, 0]), [1.0, 0.0])


def test_last_row_nullspace_properties():
    rng = np.random.default_rng(24)
    basis = rng.standard_normal((9, 5))
    dirs = last_row_nullspace(basis)
    assert dirs.shape == (5, 4)
    assert np.allclose(dirs.T @ dirs, np.eye(4), atol=1e-12)
    assert np.linalg.norm(basis[-1] @ dirs) <= 1e-12 * (1.0 + np.linalg.norm(basis))


def test_last_row_nullspace_single_column():
    assert last_row_nullspace(np.ones((4, 1))).shape == (1, 0)


def test_solution_space_points():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=3, cond_max=10.0)
    space = solution_space(instance.blackbox, seed=0)
    m = build_constraint_matrix(instance.blackbox)
    assert np.allclose(space.point(np.zeros(space.n_free)),
                       space.basis @ space.base_coeffs)
    rng = np.random.default_rng(25)
    for _ in range(100):
        v = space.point(rng.standard_normal(space.n_free))
        assert abs(v[-1] - 1.0) <= 1e-12 * (1.0 + np.linalg.norm(v))
        assert np.linalg.norm(m @ v) <= 1e-10 * (1.0 + np.linalg.norm(v))


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
    space = solution_space(instance.blackbox, seed=0)
    rng = np.random.default_rng(26)
    scale = 1.0 + np.linalg.norm(instance.blackbox.A)
    for _ in range(20):
        v = space.point(rng.standard_normal(space.n_free))
        try:
            r = extract_realization(v, space.dims)
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


def test_distance_grad_zero_at_truth():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=5, cond_max=10.0)
    proj = structure_projector(structure)
    g = structure_distance_grad(stacked_solution(instance), proj, structure.dims)
    assert np.linalg.norm(g) <= 1e-10


def test_distance_grad_matches_finite_differences():
    rng = np.random.default_rng(35)
    for dims in [d for d in dims_grid() if d.n_x <= 3]:
        structure = random_structure(dims, rng)
        proj = structure_projector(structure)
        v = _well_conditioned_stacked(dims, rng)
        analytic = structure_distance_grad(v, proj, dims)
        approx = fd_gradient(
            lambda w: structure_distance(realization_vector(w, dims), proj), v
        )
        assert float(np.max(relative_errors(analytic, approx))) <= 1e-6


def test_distance_grad_scales_with_offset():
    # shifting the offset so the residual doubles must double the gradient
    rng = np.random.default_rng(36)
    dims = Dims(2, 1, 1)
    structure = random_structure(dims, rng, n_theta=2)
    proj = structure_projector(structure)
    v = _well_conditioned_stacked(dims, rng)
    stacked = realization_vector(v, dims)
    doubled = make_projector(structure.K, 2.0 * structure.kappa0 - stacked)
    g1 = structure_distance_grad(v, proj, dims)
    g2 = structure_distance_grad(v, doubled, dims)
    assert np.allclose(g2, 2.0 * g1, atol=1e-9 * (1.0 + np.linalg.norm(g1)))


def test_reduced_grad_is_chain_rule():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=6, cond_max=10.0)
    space = solution_space(instance.blackbox, seed=0)
    proj = structure_projector(structure)
    rng = np.random.default_rng(37)
    for _ in range(10):
        alpha = rng.standard_normal(space.n_free)
        direct = reduced_distance_grad(alpha, space, proj)
        chained = space.free_dirs.T @ (
            space.basis.T @ structure_distance_grad(space.point(alpha), proj, space.dims)
        )
        assert np.allclose(direct, chained, atol=1e-12 * (1.0 + np.linalg.norm(direct)))


def test_reduced_grad_matches_finite_differences():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=7, cond_max=10.0)
    space = solution_space(instance.blackbox, seed=0)
    proj = structure_projector(structure)
    rng = np.random.default_rng(38)
    checked = 0
    while checked < 10:
        alpha = rng.standard_normal(space.n_free)
        if not np.isfinite(reduced_distance(alpha, space, proj)):
            continue
        analytic = reduced_distance_grad(alpha, space, proj)
        approx = fd_gradient(lambda a: reduced_distance(a, space, proj), alpha)
        assert float(np.max(relative_errors(analytic, approx))) <= 1e-6
        checked += 1


def test_reduced_grad_zero_at_recovering_alpha():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=8, cond_max=10.0)
    space = solution_space(instance.blackbox, seed=0)
    proj = structure_projector(structure)
    truth_vector = stacked_solution(instance)
    alpha_star = space.free_dirs.T @ (space.basis.T @ truth_vector - space.base_coeffs)
    assert reduced_distance(alpha_star, space, proj) <= 1e-16
    assert np.linalg.norm(reduced_distance_grad(alpha_star, space, proj)) <= 1e-8


def test_reduced_distance_infinite_when_singular():
    # synthetic one-direction space whose transform block is diag(1, 1-a):
    # rank-deficient exactly at a = 1
    dims = Dims(2, 1, 1)
    rng = np.random.default_rng(39)
    v0 = np.concatenate([vec(np.eye(2)), rng.standard_normal(8), [1.0]])
    v1 = np.zeros(dims.n_unknowns)
    v1[3] = -1.0  # lowers the (2, 2) entry of the transform block
    space = ns.SolutionSpace(
        basis=np.column_stack([v0, v1]),
        base_coeffs=np.array([1.0, 0.0]),
        free_dirs=np.array([[0.0], [1.0]]),
        dims=dims,
    )
    proj = structure_projector(random_structure(dims, rng, n_theta=2))
    assert np.isfinite(reduced_distance(np.array([0.5]), space, proj))
    assert reduced_distance(np.array([1.0]), space, proj) == np.inf


# ---------------------------------------------------------------------------
# end-to-end solve
# ---------------------------------------------------------------------------

def test_solve_scalar_instance():
    structure, theta = scalar()
    blackbox = apply_similarity(eval_structure(structure, theta), np.array([[2.0]]))
    sol = solve_nullspace(blackbox, structure, seed=0)
    assert sol.result.converged
    assert np.allclose(sol.theta, [3.0, 2.0], atol=1e-6)
    res = residuals(blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8
    assert sol.diagnostics["nullspace_dim"] == 2


def test_solve_mass_spring_instance():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=7, cond_max=20.0)
    sol = solve_nullspace(instance.blackbox, structure, seed=0)
    assert sol.result.converged
    assert np.linalg.norm(sol.theta - theta) / np.linalg.norm(theta) <= 1e-4
    res = residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8


def test_solve_already_structured_blackbox():
    structure, theta = mass_spring_damper()
    blackbox = eval_structure(structure, theta)  # transform is the identity
    sol = solve_nullspace(blackbox, structure, seed=0)
    assert sol.result.f_best <= 1e-12
    res = residuals(blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8


def test_solve_objective_trace_non_increasing():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=9, cond_max=20.0)
    sol = solve_nullspace(instance.blackbox, structure, seed=0)
    values = [f for _, f, _ in sol.result.trace]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_solve_dimension_mismatch():
    structure, _ = mass_spring_damper()
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_nullspace(SCALAR_BLACKBOX, structure)


def test_solve_all_starts_infeasible(monkeypatch):
    structure, theta = scalar()
    blackbox = apply_similarity(eval_structure(structure, theta), np.array([[2.0]]))

    def always_infeasible(*args, **kwargs):
        raise InfeasibleStartError("forced")

    monkeypatch.setattr(ns, "bfgs", always_infeasible)
    with pytest.raises(InfeasibleStartError, match="starts"):
        solve_nullspace(blackbox, structure, seed=0)
