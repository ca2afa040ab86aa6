import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import graybox.nullspace as ns
import graybox.optim as optim
from graybox.model import (
    SINGULAR_RTOL,
    AffineStructure,
    Dims,
    StateSpace,
    apply_similarity,
    block_slices,
    eval_structure,
    generate_instance,
    kron_t,
    rcond,
    residuals,
    unvec,
    vec,
)
from graybox.nullspace import (
    SingularTransformError,
    extract_realization,
    extract_theta,
    nullspace_point,
    realization_jacobians,
    realization_vector,
    reduced_distance,
    solve_nullspace,
    structure_projector,
)
from graybox.optim import InfeasibleStartError, OptimConfig, fd_jacobian, relative_errors
from graybox.structures import chain, compartment3, mass_spring_damper, scalar

from helpers import (CONVERGED, SINGULAR, dims_grid, evaluator_cases, rank_deficient_structure,
                     random_structure, stacked_solution, transform_with_rcond,
                     well_conditioned_stacked)
from oracles import (BUNDLED, EmptyNullspaceError, build_constraint_matrix, closed_form_map,
                     nullspace_basis, stacked_readout, structure_distance)

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


@pytest.mark.parametrize("size", [4, 6])
def test_extract_realization_rejects_a_vector_of_the_wrong_length(size):
    with pytest.raises(ValueError, match=f"stacked vector must have length 5, got {size}"):
        extract_realization(np.ones(size), Dims(1, 1, 1))


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
    v = well_conditioned_stacked(dims, rng)
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
            v = well_conditioned_stacked(dims, rng)
            analytic = np.vstack(realization_jacobians(v, dims))
            approx = fd_jacobian(lambda w: realization_vector(w, dims), v)
            assert float(np.max(relative_errors(analytic, approx))) <= 1e-6


def _random_blackbox_and_t(dims, rng):
    """Random black-box triple and a well-conditioned transform, as vec(T)."""
    blackbox = StateSpace(A=rng.standard_normal((dims.n_x, dims.n_x)),
                          B=rng.standard_normal((dims.n_x, dims.n_u)),
                          C=rng.standard_normal((dims.n_y, dims.n_x)))
    return blackbox, well_conditioned_stacked(dims, rng)[: dims.n_x**2]


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
        approx = fd_jacobian(lambda tv: reduced_distance(tv, blackbox, proj)[0], t_vec)[0]
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
        approx = fd_jacobian(lambda tv: reduced_distance(tv, instance.blackbox, proj)[0], t_vec)[0]
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
        rj = ns.ReducedResidual(blackbox, proj)
        _, jac = rj(t_vec)
        approx = fd_jacobian(lambda tv: rj(tv)[0], t_vec)
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
            r, jac = ns.ReducedResidual(blackbox, proj)(t_vec)
            assert np.linalg.norm(jac - oracle) <= 1e-10 * np.linalg.norm(oracle)
            expected = proj.residual_op @ (proj.offset - realization_vector(v, dims))
            assert np.allclose(r, expected, rtol=0.0, atol=1e-12 * (1.0 + np.linalg.norm(r)))


def test_residual_evaluator_matches_kron_oracle_and_finite_differences_at_each_point():
    # one evaluator serves every point of a solve; what it builds once must
    # not carry over from one point to the next
    rng = np.random.default_rng(45)
    for dims in dims_grid():
        for structure in (random_structure(dims, rng), rank_deficient_structure(dims, rng)):
            proj = structure_projector(structure)
            blackbox, _ = _random_blackbox_and_t(dims, rng)
            rj = ns.ReducedResidual(blackbox, proj)
            returned = []
            for _ in range(3):
                t_vec = well_conditioned_stacked(dims, rng)[: dims.n_x**2]
                r, jac = rj(t_vec)
                v = nullspace_point(blackbox, unvec(t_vec, dims.n_x, dims.n_x))
                p = proj.residual_op
                r_oracle = p @ (proj.offset - realization_vector(v, dims))
                j_oracle = -p @ np.vstack(realization_jacobians(v, dims)) @ (
                    closed_form_map(blackbox)[:, :-1])
                assert np.linalg.norm(r - r_oracle) <= 1e-12 * np.linalg.norm(r_oracle)
                assert np.linalg.norm(jac - j_oracle) <= 1e-12 * np.linalg.norm(j_oracle)
                approx = fd_jacobian(lambda tv: rj(tv)[0], t_vec)
                assert float(np.max(relative_errors(jac, approx))) <= 1e-6
                returned.append((r, r.copy(), jac, jac.copy()))
            assert all(np.array_equal(r, r_kept) and np.array_equal(jac, j_kept)
                       for r, r_kept, jac, j_kept in returned)


def test_residual_gives_reduced_distance_and_its_gradient():
    rng = np.random.default_rng(43)
    for dims in dims_grid():
        structure = random_structure(dims, rng)
        proj = structure_projector(structure)
        blackbox, t_vec = _random_blackbox_and_t(dims, rng)
        r, jac = ns.ReducedResidual(blackbox, proj)(t_vec)
        f, g = reduced_distance(t_vec, blackbox, proj)
        assert float(r @ r) == pytest.approx(f, rel=1e-12)
        assert np.linalg.norm(2.0 * jac.T @ r - g) <= 1e-10 * (1.0 + np.linalg.norm(g))


def test_residual_undefined_when_singular():
    dims = Dims(2, 1, 1)
    rng = np.random.default_rng(44)
    blackbox = StateSpace(A=rng.standard_normal((2, 2)), B=rng.standard_normal((2, 1)),
                          C=rng.standard_normal((1, 2)))
    proj = structure_projector(random_structure(dims, rng, n_theta=2))
    assert ns.ReducedResidual(blackbox, proj)(vec(np.diag([1.0, 0.0]))) == (None, None)


# ---------------------------------------------------------------------------
# excluded-region test without an SVD, and the evaluator's frozen reference
# ---------------------------------------------------------------------------

def _inverse_or_none(t, inv=np.linalg.inv):
    try:
        return ns._checked_inverse(t, inv)
    except SingularTransformError:
        return None


def test_checked_inverse_accepts_exactly_where_rcond_passes(monkeypatch):
    svds = []

    def counting_rcond(t):
        svds.append(1)
        return rcond(t)

    monkeypatch.setattr(ns, "rcond", counting_rcond)
    rng = np.random.default_rng(50)
    outcomes = {"bound": 0, "svd": 0, "rejected": 0}
    for n_x in range(1, 9):
        for _ in range(40):
            t = 10.0 ** rng.uniform(-2.0, 2.0) * transform_with_rcond(
                n_x, 10.0 ** rng.uniform(-10.0, -6.0), rng)
            before = len(svds)
            got = _inverse_or_none(t)
            if rcond(t) >= SINGULAR_RTOL:
                assert np.array_equal(got, np.linalg.inv(t))
                outcomes["svd" if len(svds) > before else "bound"] += 1
            else:
                assert got is None
                outcomes["rejected"] += 1
    # all three ways out are taken: accepted by the norm bound, accepted by the SVD, rejected
    assert min(outcomes.values()) >= 10, outcomes


def test_checked_inverse_inverts_each_transform_at_most_once(monkeypatch):
    inverses, svds = [], []

    def counting_rcond(t):
        svds.append(1)
        return rcond(t)

    monkeypatch.setattr(ns, "rcond", counting_rcond)
    rng = np.random.default_rng(52)
    transforms = [*SINGULAR.values()] + [
        transform_with_rcond(n_x, rc, rng) for n_x in range(2, 9) for rc in (1e-3, 1.2e-8, 1e-9)]
    outcomes = {"bound": 0, "svd": 0, "rejected": 0}
    for t in transforms:
        inverses.clear()
        svds.clear()
        inverse = ns._dense(len(t))[1]  # the inverse the evaluator of a solve passes

        def counting_inv(t):
            inverses.append(1)
            return inverse(t)

        got = _inverse_or_none(t, counting_inv)
        assert len(inverses) <= 1 and len(svds) <= 1
        outcomes["rejected" if got is None else "svd" if svds else "bound"] += 1
    # all three ways out are taken: accepted by the norm bound, accepted by the SVD, rejected
    assert min(outcomes.values()) >= 5, outcomes


@pytest.mark.parametrize("t", [
    np.zeros((3, 3)),
    np.ones((2, 2)),
    np.outer([1.0, -2.0, 0.5], [3.0, 1.0, -1.0]),
])
def test_checked_inverse_refuses_zero_and_rank_one_transforms(t):
    with pytest.raises(SingularTransformError):
        ns._checked_inverse(t)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_checked_inverse_decides_alike_at_extreme_scales(scale):
    rng = np.random.default_rng(51)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_x in (2, 3, 8):
            # accepted by the norm bound, accepted by the SVD, rejected
            for rc in (1e-6, 1.2e-8, 1e-9):
                t = transform_with_rcond(n_x, rc, rng)
                got, scaled = _inverse_or_none(t), _inverse_or_none(scale * t)
                assert (got is not None) == (scaled is not None) == (rc >= SINGULAR_RTOL)
                if scaled is not None:
                    assert np.array_equal(scaled, np.linalg.inv(scale * t))
        # ||T||_F overflows to inf: the bound is not finite, so the SVD decides
        t = np.diag([1.5e308, 1.5e308])
        assert np.array_equal(ns._checked_inverse(t), np.linalg.inv(t))


@pytest.mark.parametrize("t", SINGULAR.values(), ids=SINGULAR.keys())
def test_checked_inverse_refuses_an_exactly_singular_transform_in_the_evaluator(t):
    # np.linalg.inv raises LinAlgError on each, and rcond = 0 decides; the evaluator
    # reads T as an F-order view of t_vec, so both layouts are checked
    n_x = len(t)
    rng = np.random.default_rng(59)
    blackbox = StateSpace(A=rng.standard_normal((n_x, n_x)), B=rng.standard_normal((n_x, 1)),
                          C=rng.standard_normal((1, n_x)))
    proj = structure_projector(random_structure(Dims(n_x, 1, 1), rng, n_theta=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularTransformError):
            ns._checked_inverse(t)
        assert ns.ReducedResidual(blackbox, proj)(vec(t)) == (None, None)


def _strided(t):
    """``t`` as a view into every other entry of a larger array."""
    wide = np.full((2 * len(t), 2 * len(t)), np.nan)
    wide[::2, ::2] = t
    return wide[::2, ::2]


# the same matrix in four memory layouts: C-ordered, the F-order view of a vector that
# the evaluator passes, a non-contiguous view, and a view with negative strides
LAYOUTS = {
    "C": lambda t: t,
    "F-view": lambda t: vec(t).reshape(t.shape, order="F"),
    "strided": _strided,
    "reversed": lambda t: np.flip(np.flip(t).copy()),
}


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_checked_inverse_decides_and_inverts_alike_in_any_layout(layout):
    rng = np.random.default_rng(60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_x in range(1, 9):
            # accepted by the norm bound, accepted by the SVD, rejected
            for rc in (1e-3, 1.2e-8, 1e-9):
                t = transform_with_rcond(n_x, rc, rng)
                laid_out = layout(t)
                assert np.array_equal(laid_out, t)
                got, want = _inverse_or_none(laid_out), _inverse_or_none(t)
                assert (got is None) == (want is None) == (n_x > 1 and rc < SINGULAR_RTOL)
                # and by the evaluator's own inverse, on the same layout
                lu_got = _inverse_or_none(laid_out, ns._dense(n_x)[1])
                assert (lu_got is None) == (want is None)
                if want is not None:
                    assert np.array_equal(got, want) and np.array_equal(lu_got, want)
                    assert np.array_equal(got, np.linalg.inv(t))


def _reduced_residual_reference(blackbox, proj, t_vec):
    """``ReducedResidual`` as first written, frozen: rcond(T) by an SVD, then inv, and
    the two ``kron_t`` blocks written into a fresh copy of the template."""
    d = blackbox.dims
    n_x = d.n_x
    _, _, sl_c = block_slices(d)
    eye = np.eye(n_x)
    template = np.zeros((d.n_abc, n_x**2))
    template[sl_c] = -kron_t(eye, blackbox.C)
    t = unvec(t_vec, n_x, n_x)
    if rcond(t) < SINGULAR_RTOL:
        return None, None
    t_inv = np.linalg.inv(t)
    ab = t_inv @ np.concatenate([blackbox.A @ t, blackbox.B], axis=1)
    r = proj.residual_op @ (proj.offset - np.concatenate([vec(ab), vec(blackbox.C @ t)]))
    minus_ds = template.copy()
    minus_ds[: ab.size] = kron_t(ab, t_inv)
    minus_ds[: n_x * n_x] -= kron_t(eye, t_inv @ blackbox.A)
    return r, proj.residual_op @ minus_ds


def test_residual_evaluator_is_bit_identical_to_its_frozen_reference():
    # one evaluator per case serves every point in turn, as in a solve, including
    # near-singular points on both sides of SINGULAR_RTOL
    rng = np.random.default_rng(53)
    undefined = 0
    for blackbox, structure in evaluator_cases(rng):
        proj = structure_projector(structure)
        rj = ns.ReducedResidual(blackbox, proj)
        n_x = blackbox.dims.n_x
        for rc in (1.0, 1e-2, 1e-9, 1e-5, 1.2e-8, None, 3e-8):
            t = (rng.standard_normal((n_x, n_x)) if rc is None
                 else 10.0 ** rng.uniform(-2.0, 2.0) * transform_with_rcond(n_x, rc, rng))
            t_vec = vec(t)
            r, jac = rj(t_vec)
            r_ref, j_ref = _reduced_residual_reference(blackbox, proj, t_vec)
            if r_ref is None:
                assert (r, jac) == (None, None)
                undefined += 1
            else:
                assert np.array_equal(r, r_ref) and np.array_equal(jac, j_ref)
    assert undefined >= 20


# ---------------------------------------------------------------------------
# end-to-end solve
# ---------------------------------------------------------------------------

def test_solve_scalar_instance():
    structure, theta = scalar()
    blackbox = apply_similarity(eval_structure(structure, theta), np.array([[2.0]]))
    sol = solve_nullspace(blackbox, structure)
    assert sol.result.status in CONVERGED
    assert np.allclose(sol.theta, [3.0, 2.0], atol=1e-6)
    res = residuals(blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8
    assert sol.diagnostics["nullspace_dim"] == 2


def test_solve_mass_spring_instance():
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=7, cond_max=20.0)
    sol = solve_nullspace(instance.blackbox, structure)
    assert sol.result.status in CONVERGED
    assert np.linalg.norm(sol.theta - theta) / np.linalg.norm(theta) <= 1e-4
    res = residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8


@pytest.mark.parametrize("make, seed", [(mass_spring_damper, 7), (compartment3, 3),
                                        (lambda: chain(6), 2)],
                         ids=["mass-spring", "compartment3", "chain6"])
def test_solve_without_the_bundled_lapack_calls_np_linalg_for_the_same_bits(make, seed,
                                                                           monkeypatch):
    # lm's damped solves and the evaluator's inverses: dgesv through buffers of the solve's
    # own, or, where numpy's bundled LAPACK is not found, np.linalg.solve and np.linalg.inv
    structure, theta = make()
    instance = generate_instance(structure, theta, seed=seed, cond_max=100.0)
    config = OptimConfig(restarts=2)
    calls = []
    for name in ("solve", "inv"):
        routine = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *args, name=name, routine=routine: calls.append(name)
                            or routine(*args))
    bundled = solve_nullspace(instance.blackbox, structure, config)
    assert calls == [] or BUNDLED is None
    monkeypatch.setattr(optim, "_dense", optim._dense_solver(None))
    monkeypatch.setattr(ns, "_dense", optim._dense_solver(None))
    fallback = solve_nullspace(instance.blackbox, structure, config)
    assert {"solve", "inv"} <= set(calls)
    for sol in (bundled, fallback):
        del sol.diagnostics["wall_time_ms"]
    assert np.array_equal(fallback.theta, bundled.theta) and np.array_equal(fallback.T, bundled.T)
    assert fallback.diagnostics == bundled.diagnostics


def test_solve_extracts_each_point_once(monkeypatch):
    # residual and Jacobian come from one evaluation, so the search never
    # evaluates a point twice, and the winner, here the first and only start,
    # which takes over 100 steps, is read out once: every evaluation fills
    # the evaluator once, and the read-out is the one fill besides
    evaluated, filled = [], []

    class Recording(ns.ReducedResidual):
        def __call__(self, t_vec):
            evaluated.append(np.asarray(t_vec).tobytes())
            return super().__call__(t_vec)

        def _fill(self, t):
            filled.append(vec(t).tobytes())
            return super()._fill(t)

    monkeypatch.setattr(ns, "ReducedResidual", Recording)
    structure, theta = compartment3()
    instance = generate_instance(structure, theta, seed=109, cond_max=20.0)
    sol = solve_nullspace(instance.blackbox, structure)
    assert sol.result.status in CONVERGED
    assert len(sol.diagnostics["start_outcomes"]) == 1
    assert len(evaluated) > 100
    assert len(evaluated) == sol.result.n_evals
    assert len(set(evaluated)) == len(evaluated)
    assert filled == evaluated + [vec(sol.T).tobytes()]


def test_solve_takes_two_svds_however_many_evaluations(monkeypatch):
    # the projector's and the winner's rcond for cond_T: neither an evaluation
    # nor a read-out at a well-conditioned T takes one
    svds = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    structure, theta = compartment3()
    instance = generate_instance(structure, theta, seed=109, cond_max=20.0)
    monkeypatch.setattr(np.linalg, "svd", counting)
    counts = []
    for max_iters in (20, 500):
        svds.clear()
        sol = solve_nullspace(instance.blackbox, structure, OptimConfig(max_iters=max_iters))
        counts.append((sum(o["n_evals"] for o in sol.diagnostics["start_outcomes"]), len(svds)))
    (few, svds_few), (many, svds_many) = counts
    assert many > 100 and many > 3 * few
    assert svds_few == svds_many == 2


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
        "steps": sol.result.steps,
        "status": sol.result.status,
        "objective_final": sol.result.f_best,
        "max_residual": max(res),
    }]


class CountingRng:
    """A seeded generator that counts its restart draws."""

    default_rng = np.random.default_rng

    def __init__(self, seed):
        self.rng = CountingRng.default_rng(seed)
        self.draws = 0

    def standard_normal(self, *args, **kwargs):
        self.draws += 1
        return self.rng.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("structure_fn, seed, cond_max, n_runs", [
    (compartment3, 6, 20.0, 1),  # the first start passes
    (mass_spring_damper, 21, 100.0, 2),  # the first restart passes
])
def test_solve_draws_each_restart_just_before_it_runs(monkeypatch, structure_fn, seed,
                                                      cond_max, n_runs):
    structure, theta = structure_fn()
    instance = generate_instance(structure, theta, seed=seed, cond_max=cond_max)
    made = []

    def counting_rng(seed):
        made.append(CountingRng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    sol = solve_nullspace(instance.blackbox, structure, OptimConfig(restarts=1000))
    assert len(sol.diagnostics["start_outcomes"]) == n_runs
    assert sol.diagnostics["starts"] == 1001
    # the generator is built only when the first restart draws
    assert [rng.draws for rng in made] == ([] if n_runs == 1 else [n_runs - 1])


def test_solve_stops_at_a_start_on_the_distance_roundoff_floor():
    # the first restart drives the structure distance to 2.7e-21, but its
    # read-out residual is 1.9e-7 because the residual scales with ||T||
    # (about 1.1e4 here); no later start can lower the distance, so the search
    # ends there with the answer the full five-start search kept
    structure, theta = compartment3()
    instance = generate_instance(structure, theta, seed=168, cond_max=1e4)
    sol = solve_nullspace(instance.blackbox, structure)
    outcomes = sol.diagnostics["start_outcomes"]
    assert len(outcomes) == 2
    assert np.sqrt(outcomes[1]["objective_final"]) <= 1e-8 < outcomes[1]["max_residual"]
    assert sol.result.f_best == outcomes[1]["objective_final"]

    proj = structure_projector(structure)
    rng = np.random.default_rng(0)
    scale = sol.diagnostics["start_scale"]
    starts = [vec(scale * np.eye(3))] + [vec(rng.standard_normal((3, 3))) for _ in range(4)]
    runs = [ns.lm(ns.ReducedResidual(instance.blackbox, proj), x0) for x0 in starts]
    assert min(runs, key=lambda r: r.f_best) is runs[1]
    assert [o["objective_final"] for o in outcomes] == [r.f_best for r in runs[:2]]
    assert np.array_equal(sol.T, unvec(runs[1].x_best, 3, 3))


def test_solve_without_passing_start_keeps_lowest_objective():
    # one step per start leaves every read-out far from the structured set
    structure, theta = compartment3()
    instance = generate_instance(structure, theta, seed=7, cond_max=20.0)
    cfg = OptimConfig(max_iters=1)
    sol = solve_nullspace(instance.blackbox, structure, cfg)
    outcomes = sol.diagnostics["start_outcomes"]
    assert len(outcomes) == 1 + cfg.restarts
    assert all(o["max_residual"] > 1e-8 for o in outcomes)

    # lm from the same starts: the solver's multiple of I, then the seeded draws
    proj = structure_projector(structure)
    rng = np.random.default_rng(cfg.seed)
    scale = sol.diagnostics["start_scale"]
    starts = [vec(scale * np.eye(3))] + [vec(rng.standard_normal((3, 3)))
                                         for _ in range(cfg.restarts)]
    runs = [ns.lm(ns.ReducedResidual(instance.blackbox, proj), x0, cfg)
            for x0 in starts]
    assert [o["objective_final"] for o in outcomes] == [r.f_best for r in runs]
    best = min(runs, key=lambda r: r.f_best)
    assert best is not runs[0]  # the winner is not simply the first start
    assert np.array_equal(sol.T, unvec(best.x_best, 3, 3))
    assert sol.result.f_best == best.f_best


@pytest.mark.parametrize("cfg", [OptimConfig(max_iters=20, restarts=2), OptimConfig()],
                         ids=["20-iters", "default"])
def test_solve_reads_the_winner_out_as_the_stacked_vector_oracle_does(monkeypatch, cfg):
    # the solve reads each start out with the evaluator's fill at its best
    # point; the paper's read-out through the stacked null-space point gives
    # the same bits, for winners that pass, that stop early, and that are
    # not the first start, on every evaluator shape, chain(8) included
    fills = []

    class Recording(ns.ReducedResidual):
        def _fill(self, t):
            fills.append(1)
            return super()._fill(t)

    monkeypatch.setattr(ns, "ReducedResidual", Recording)
    rng = np.random.default_rng(54)
    later_winners = 0
    for blackbox, structure in evaluator_cases(rng):
        fills.clear()
        sol = solve_nullspace(blackbox, structure, cfg)
        proj = structure_projector(structure)
        theta, t = stacked_readout(blackbox, proj, sol.result.x_best)
        assert np.array_equal(sol.theta, theta) and np.array_equal(sol.T, t)
        outcomes = sol.diagnostics["start_outcomes"]
        # one read-out per completed start, besides one fill per evaluation
        completed = [o for o in outcomes if o["status"] != "infeasible"]
        assert len(fills) == sum(o["n_evals"] for o in completed) + len(completed)
        later_winners += sol.result.f_best != completed[0]["objective_final"]
    assert later_winners >= 5


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
    instance = generate_instance(structure, theta, seed=2, cond_max=20.0)
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
    # the first start of this instance reaches damped systems with condition
    # numbers near 3e17, whose computed steps can predict a decrease that the
    # exact step cannot: such a step must end the start, not be accepted
    runs = []
    lm = ns.lm

    def recording(*args, **kwargs):
        runs.append(lm(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(ns, "lm", recording)
    structure, theta = mass_spring_damper()
    instance = generate_instance(structure, theta, seed=58, cond_max=100.0)
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
    assert sol.result.status in CONVERGED
    res = residuals(instance.blackbox, sol.T, eval_structure(structure, sol.theta))
    assert max(res) <= 1e-8


# the first start's cases: each bundled structure at one instance, and chain6 at
# cond 1e4, seed 2, which the unscaled T = I start left at exit 3
FIRST_START_CASES = [
    pytest.param(scalar, 7, 100.0, id="scalar"),
    pytest.param(mass_spring_damper, 7, 100.0, id="mass-spring"),
    pytest.param(compartment3, 7, 100.0, id="compartment3"),
    pytest.param(lambda: chain(6), 2, 1e4, id="chain6-c1e4-s2"),
]


def recorded_first_start(monkeypatch, blackbox, structure):
    """The solution of a one-start solve and the x0 that its lm run began at."""
    starts = []
    lm = ns.lm

    def recording(rj, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return lm(rj, x0, *args, **kwargs)

    monkeypatch.setattr(ns, "lm", recording)
    sol = solve_nullspace(blackbox, structure, OptimConfig(restarts=0))
    assert len(starts) == 1
    return sol, unvec(starts[0], blackbox.dims.n_x, blackbox.dims.n_x)


@pytest.mark.parametrize("structure_fn, seed, cond_max", FIRST_START_CASES)
@pytest.mark.parametrize("c", [2.0**10, 2.0**-10], ids=["c=2^10", "c=2^-10"])
def test_first_start_follows_a_rescaling_of_the_blackbox_basis(structure_fn, seed, cond_max, c):
    # the black box in the basis scaled by c, (A_bb, c B_bb, C_bb / c), has the
    # solutions c T; by a power of two every product of the search scales exactly,
    # so the first start takes the same steps and ends at c times the transform
    structure, theta = structure_fn()
    bb = generate_instance(structure, theta, seed=seed, cond_max=cond_max).blackbox
    scaled = StateSpace(A=bb.A, B=c * bb.B, C=bb.C / c)
    cfg = OptimConfig(restarts=0)
    sol, sol_c = (solve_nullspace(b, structure, cfg) for b in (bb, scaled))
    assert sol_c.diagnostics["start_scale"] == c * sol.diagnostics["start_scale"]
    assert sol_c.result.status == sol.result.status
    assert sol_c.result.n_evals == sol.result.n_evals
    assert sol_c.result.iterations == sol.result.iterations
    assert sol_c.result.f_best == sol.result.f_best
    assert np.array_equal(sol_c.theta, sol.theta)
    assert np.array_equal(sol_c.T / c, sol.T)
    assert max(sol.residuals) <= 1e-8


@pytest.mark.parametrize("structure_fn, seed, cond_max", FIRST_START_CASES)
def test_first_start_matches_the_norm_of_the_fixed_c(monkeypatch, structure_fn, seed, cond_max):
    # every solution has C_bb T = C, and the structure fixes C at kappa0's C rows
    structure, theta = structure_fn()
    bb = generate_instance(structure, theta, seed=seed, cond_max=cond_max).blackbox
    sol, t0 = recorded_first_start(monkeypatch, bb, structure)
    scale = sol.diagnostics["start_scale"]
    assert np.array_equal(t0, scale * np.eye(bb.dims.n_x))
    fixed_c = structure.kappa0[block_slices(structure.dims)[2]]
    assert np.linalg.norm(bb.C @ t0) == pytest.approx(np.linalg.norm(fixed_c), rel=1e-15)


@pytest.mark.parametrize("case", ["parameterized C", "all-zero black box", "C fixed at zero"])
def test_first_start_falls_back_to_the_identity(monkeypatch, case):
    structure, theta = compartment3()
    if case == "parameterized C":
        structure = random_structure(Dims(3, 1, 2), np.random.default_rng(3))
        theta = np.random.default_rng(4).standard_normal(structure.n_theta)
    elif case == "C fixed at zero":
        kappa0 = structure.kappa0.copy()
        kappa0[block_slices(structure.dims)[2]] = 0.0
        structure = AffineStructure(kappa0=kappa0, K=structure.K, dims=structure.dims)
    bb = generate_instance(structure, theta, seed=5, cond_max=100.0).blackbox
    if case == "all-zero black box":
        bb = StateSpace(A=0.0 * bb.A, B=0.0 * bb.B, C=0.0 * bb.C)
    sol, t0 = recorded_first_start(monkeypatch, bb, structure)
    assert sol.diagnostics["start_scale"] == 1.0
    assert np.array_equal(t0, np.eye(3))
