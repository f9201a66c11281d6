"""Operators: application, singular-value kernel, norms, solves, surjectivity."""

import math
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplab import (
    BCMatrix,
    BCVector,
    Bicomplex,
    DPlus,
    DimensionMismatch,
    E1,
    InvalidInput,
    NoConvergence,
    NotInRange,
    NotSurjective,
    dnorm_rows,
    knorm,
    mat_apply,
    min_norm_solve,
    min_norm_solve_rows,
    op_dnorm,
    open_mapping_delta,
    surjectivity_check,
    svd_family,
    ubp_verify,
    vec_dnorm,
)
from hyplab import dop
from support import (
    _counting_splits,
    _helpers,
    _one_thread,
    _split_on,
    mul4,
    normal_eq_min_norm,
    one_matrix_svd,
    pi_sigma_max,
    pi_sigma_min,
    random_bc,
    random_mat,
    random_vec,
    surjective_mat,
)


# ---------------------------------------------------------------- mat_apply


def test_apply_identity():
    rng = np.random.default_rng(1)
    x = random_vec(rng, 5)
    y = mat_apply(BCMatrix.identity(5), x)
    assert np.array_equal(y.v1, x.v1) and np.array_equal(y.v2, x.v2)


def test_apply_zero():
    x = BCVector([1, 2], [3, 4])
    y = mat_apply(BCMatrix.zeros(3, 2), x)
    assert not y.v1.any() and not y.v2.any()


def test_apply_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_apply(BCMatrix.identity(3), BCVector([1], [1]))


def test_apply_bc_homogeneous_with_zero_divisors():
    rng = np.random.default_rng(2)
    T = random_mat(rng, 3, 4)
    for _ in range(200):
        x = random_vec(rng, 4)
        mu = E1 if rng.uniform() < 0.25 else random_bc(rng)
        lhs = mat_apply(T, x.scale(mu))
        # componentwise recomputation oracle
        want1 = mu.z1 * (T.m1 @ x.v1)
        want2 = mu.z2 * (T.m2 @ x.v2)
        assert np.allclose(lhs.v1, want1, rtol=1e-12, atol=1e-12)
        assert np.allclose(lhs.v2, want2, rtol=1e-12, atol=1e-12)


def test_apply_additive():
    rng = np.random.default_rng(3)
    T = random_mat(rng, 4, 4)
    for _ in range(100):
        x = random_vec(rng, 4)
        y = random_vec(rng, 4)
        lhs = mat_apply(T, x + y)
        rhs = mat_apply(T, x) + mat_apply(T, y)
        assert np.allclose(lhs.v1, rhs.v1, rtol=1e-12, atol=1e-12)
        assert np.allclose(lhs.v2, rhs.v2, rtol=1e-12, atol=1e-12)


def test_apply_matches_four_real_path():
    # decomposition consistency: the idempotent product agrees with matrix
    # multiplication carried out entirely in four-real arithmetic
    rng = np.random.default_rng(4)
    for _ in range(50):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        T = random_mat(rng, rows, cols)
        x = random_vec(rng, cols)

        def entry(i, j):
            return Bicomplex(T.m1[i, j], T.m2[i, j]).to_reals()

        def xj(j):
            return Bicomplex(x.v1[j], x.v2[j]).to_reals()

        got = mat_apply(T, x)
        for i in range(rows):
            acc = (0.0, 0.0, 0.0, 0.0)
            for j in range(cols):
                prod = mul4(entry(i, j), xj(j))
                acc = tuple(a + p for a, p in zip(acc, prod))
            want = Bicomplex.from_reals(*acc)
            scale = max(1.0, abs(want.z1), abs(want.z2))
            assert abs(got.v1[i] - want.z1) <= 1e-12 * scale
            assert abs(got.v2[i] - want.z2) <= 1e-12 * scale


# ------------------------------------------------------- singular values
#
# Every check reads the spectrum through BCMatrix.svd(): op_dnorm takes its
# top values and open_mapping_delta the reciprocals of its bottom ones.


def test_sigma_identity():
    T = BCMatrix.identity(4)
    assert T.svd().s.tolist() == [[1.0] * 4] * 2
    assert op_dnorm(T).M == DPlus(1.0, 1.0)
    assert open_mapping_delta(T) == DPlus(1.0, 1.0)


def test_sigma_nilpotent():
    T = BCMatrix([[0, 2], [0, 0]], [[0, 2], [0, 0]])
    for s in T.svd().s:
        assert abs(s[0] - 2.0) < 1e-12 and s[-1] == 0.0
    M = op_dnorm(T).M
    assert abs(M.a1 - 2.0) < 1e-12 and abs(M.a2 - 2.0) < 1e-12
    with pytest.raises(NotSurjective):
        open_mapping_delta(T)


def test_sigma_matches_power_iteration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A, B = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(2))
        T = BCMatrix(A, B)
        M = op_dnorm(T).M
        delta = open_mapping_delta(T)
        for smax, smin, C in ((M.a1, 1.0 / delta.a1, A), (M.a2, 1.0 / delta.a2, B)):
            assert abs(smax - pi_sigma_max(C)) < 1e-8
            assert abs(smin - pi_sigma_min(C)) < 1e-8


def test_sigma_rectangular_spectrum():
    rng = np.random.default_rng(6)
    A, B = (rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)) for _ in range(2))
    T = BCMatrix(A, B)
    s1, s2 = T.svd().s
    M = op_dnorm(T).M
    delta = open_mapping_delta(T)
    for got, C, smax, smin in ((s1, A, M.a1, 1.0 / delta.a1), (s2, B, M.a2, 1.0 / delta.a2)):
        s = np.linalg.svd(C, compute_uv=False)
        assert len(got) == 3
        assert abs(smax - s[0]) < 1e-12 and abs(smin - s[-1]) < 1e-12


# ----------------------------------------------------------------- op_dnorm


def test_opnorm_scalar_matrix():
    T = BCMatrix([[2.0]], [[3.0]])
    rep = op_dnorm(T)
    assert rep.M == DPlus(2.0, 3.0)
    assert rep.sigma_max == (2.0, 3.0)


def test_opnorm_diagonal():
    T = BCMatrix(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert op_dnorm(T).M == DPlus(2.0, 4.0)


def test_opnorm_monte_carlo_sup_and_soundness():
    rng = np.random.default_rng(9)
    for _ in range(6):
        T = random_mat(rng, 4, 4)
        M = op_dnorm(T).M
        # Monte-Carlo sup oracle over random unit vectors, per component
        V = rng.standard_normal((4, 20000)) + 1j * rng.standard_normal((4, 20000))
        V /= np.linalg.norm(V, axis=0)
        r1 = np.linalg.norm(T.m1 @ V, axis=0)
        r2 = np.linalg.norm(T.m2 @ V, axis=0)
        assert M.a1 >= r1.max() - 1e-3 * M.a1
        assert M.a2 >= r2.max() - 1e-3 * M.a2
        # soundness: never exceeded
        assert (r1 <= M.a1 + 1e-9).all()
        assert (r2 <= M.a2 + 1e-9).all()


def test_opnorm_tight_on_singular_vector():
    rng = np.random.default_rng(10)
    T = random_mat(rng, 5, 5)
    M = op_dnorm(T).M
    _, _, vh1 = np.linalg.svd(T.m1)
    _, _, vh2 = np.linalg.svd(T.m2)
    x = BCVector(vh1[0].conj(), vh2[0].conj())
    px = vec_dnorm(mat_apply(T, x))
    assert abs(px.a1 - M.a1) < 1e-8 * max(1.0, M.a1)
    assert abs(px.a2 - M.a2) < 1e-8 * max(1.0, M.a2)


def test_opnorm_soundness_bulk():
    rng = np.random.default_rng(11)
    for _ in range(20):
        T = random_mat(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        M = op_dnorm(T).M
        for _ in range(500):
            x = random_vec(rng, T.cols)
            lhs = vec_dnorm(mat_apply(T, x))
            rhs = M * vec_dnorm(x)
            assert lhs.a1 <= rhs.a1 + 1e-9 and lhs.a2 <= rhs.a2 + 1e-9


# ------------------------------------------------------------ min-norm solve


def test_solve_identity():
    rng = np.random.default_rng(12)
    y = random_vec(rng, 4)
    rep = min_norm_solve(BCMatrix.identity(4), y)
    assert np.allclose(rep.x.v1, y.v1) and np.allclose(rep.x.v2, y.v2)
    assert abs(rep.qy.a1 - vec_dnorm(y).a1) < 1e-12


def test_solve_symmetric_row():
    T = BCMatrix([[1.0, 1.0]], [[1.0, 1.0]])
    y = BCVector([2.0], [2.0])
    rep = min_norm_solve(T, y)
    assert np.allclose(rep.x.v1, [1.0, 1.0]) and np.allclose(rep.x.v2, [1.0, 1.0])
    assert abs(rep.qy.a1 - math.sqrt(2.0)) < 1e-12


def test_solve_matches_normal_equations_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        T = surjective_mat(rng, 3, 5)
        y = random_vec(rng, 3)
        rep = min_norm_solve(T, y, tol=1e-9)
        want1 = normal_eq_min_norm(T.m1, y.v1)
        want2 = normal_eq_min_norm(T.m2, y.v2)
        assert np.linalg.norm(rep.x.v1 - want1) < 1e-8
        assert np.linalg.norm(rep.x.v2 - want2) < 1e-8
        assert rep.residual.a1 <= 1e-9 and rep.residual.a2 <= 1e-9


def test_solve_minimality_against_kernel_directions():
    rng = np.random.default_rng(14)
    T = surjective_mat(rng, 2, 5)
    y = random_vec(rng, 2)
    rep = min_norm_solve(T, y)
    # null-space directions per component
    _, _, vh1 = np.linalg.svd(T.m1)
    _, _, vh2 = np.linalg.svd(T.m2)
    for _ in range(50):
        c1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        alt = BCVector(
            rep.x.v1 + vh1[2:].conj().T @ c1,
            rep.x.v2 + vh2[2:].conj().T @ c2,
        )
        na = vec_dnorm(alt)
        assert na.a1 >= rep.qy.a1 - 1e-9 and na.a2 >= rep.qy.a2 - 1e-9


def test_solve_not_in_range():
    T = BCMatrix([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
    y = BCVector([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(NotInRange):
        min_norm_solve(T, y, tol=1e-9)


def test_solve_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        min_norm_solve(BCMatrix.identity(3), BCVector([1], [1]))


def test_quotient_homogeneity():
    rng = np.random.default_rng(15)
    T = surjective_mat(rng, 3, 6)
    y = random_vec(rng, 3)
    q = min_norm_solve(T, y).qy
    for _ in range(50):
        alpha = E1 if rng.uniform() < 0.2 else random_bc(rng)
        qa = min_norm_solve(T, y.scale(alpha)).qy
        want = knorm(alpha) * q
        assert abs(qa.a1 - want.a1) <= 1e-10 * max(1.0, want.a1)
        assert abs(qa.a2 - want.a2) <= 1e-10 * max(1.0, want.a2)


# -------------------------------------------- surjectivity and open mapping


def test_surjectivity_identity():
    rep = surjectivity_check(BCMatrix.identity(3))
    assert rep.surjective and rep.rank_e1 == 3 and rep.rank_e2 == 3


def test_surjectivity_zero():
    rep = surjectivity_check(BCMatrix.zeros(2, 3))
    assert not rep.surjective and rep.rank_e1 == 0


def test_surjectivity_requires_both_components():
    rng = np.random.default_rng(16)
    full = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    deficient = np.vstack([full[:2], full[1] * (0.5 + 0.5j)])  # row 3 parallel to row 2
    T = BCMatrix(full, deficient)
    rep = surjectivity_check(T)
    # rank oracle per component
    assert rep.rank_e1 == np.linalg.matrix_rank(full)
    assert rep.rank_e2 == np.linalg.matrix_rank(deficient) == 2
    assert not rep.surjective


def test_open_mapping_identity():
    assert open_mapping_delta(BCMatrix.identity(4)) == DPlus(1.0, 1.0)


def test_open_mapping_scaled_identity():
    eye = 2.0 * np.eye(3)
    delta = open_mapping_delta(BCMatrix(eye, eye))
    assert abs(delta.a1 - 0.5) < 1e-12 and abs(delta.a2 - 0.5) < 1e-12


def test_open_mapping_row():
    T = BCMatrix([[1.0, 1.0]], [[1.0, 1.0]])
    delta = open_mapping_delta(T)
    assert abs(delta.a1 - 1.0 / math.sqrt(2.0)) < 1e-12


def test_open_mapping_not_surjective():
    with pytest.raises(NotSurjective):
        open_mapping_delta(BCMatrix.zeros(2, 2))


def test_open_mapping_guarantee_sampled():
    rng = np.random.default_rng(17)
    T = surjective_mat(rng, 3, 6)
    delta = open_mapping_delta(T)
    for _ in range(300):
        y = random_vec(rng, 3)
        rep = min_norm_solve(T, y, tol=1e-9)
        bound = delta * vec_dnorm(y)
        assert rep.qy.a1 <= bound.a1 + 1e-9
        assert rep.qy.a2 <= bound.a2 + 1e-9


def test_open_mapping_delta_vs_normal_equations_oracle():
    rng = np.random.default_rng(18)
    for _ in range(10):
        T = surjective_mat(rng, 3, 6)
        delta = open_mapping_delta(T)
        # independent route: smallest eigenvalue of the normal matrix A A^H
        for comp, d in ((T.m1, delta.a1), (T.m2, delta.a2)):
            lam_min = float(np.linalg.eigvalsh(comp @ comp.conj().T)[0])
            assert abs(d - 1.0 / math.sqrt(lam_min)) < 1e-8


# --------------------------------------------------------------- report misc


def test_matrix_construction_checks():
    with pytest.raises(DimensionMismatch):
        BCMatrix(np.eye(2), np.eye(3))
    with pytest.raises(Exception):
        BCMatrix(np.zeros((0, 2)), np.zeros((0, 2)))


def test_opnorm_report_fields():
    rep = op_dnorm(BCMatrix.identity(2), tol=1e-10)
    d = rep.to_json_dict()
    assert list(d) == ["M", "sigma_max", "tol"]
    assert d["tol"] == 1e-10
    assert d["M"] == [1.0, 1.0]


# ------------------------------------------------------ one factorization


def _counting(monkeypatch, name):
    calls = []
    real = getattr(np.linalg, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


def _recording_svds(monkeypatch):
    """Every array ``np.linalg.svd`` is called on, copied as it was passed."""
    arrays = []
    real = np.linalg.svd

    def spy(a, *args, **kwargs):
        arrays.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return arrays


def _assert_one_call_per_component(arrays, family):
    """The calls were exactly two, one per component, each over every
    member, in the factored orientation: the two components of the
    family's stack."""
    stack = np.stack([T.m for T in family])
    if stack.shape[-2] < stack.shape[-1]:
        stack = stack.mT
    assert len(arrays) == 2
    # the helper thread's call may be recorded first
    assert sorted(i for a in arrays for i in (0, 1) if np.array_equal(a, stack[:, i])) == [0, 1]


def test_operator_session_factors_once(monkeypatch):
    from hyplab import open_mapping_verify

    T = surjective_mat(np.random.default_rng(30), 64, 128)
    _split_on(monkeypatch)
    svd_arrays = _recording_svds(monkeypatch)
    lstsq_calls = _counting(monkeypatch, "lstsq")
    op_dnorm(T)
    open_mapping_delta(T)
    assert open_mapping_verify(T, 20, seed=1).passed
    _assert_one_call_per_component(svd_arrays, [T])
    assert lstsq_calls == []


def test_cached_factors_read_only_and_exact():
    # the factorization itself, not numpy's phase choice for the singular
    # vectors, which differs between a matrix and its transpose
    rng = np.random.default_rng(31)
    for rows, cols in ((3, 6), (5, 5), (6, 3)):
        T = random_mat(rng, rows, cols)
        factors = T.svd()
        assert T.svd() is factors
        k = min(rows, cols)
        for i, m in enumerate((T.m1, T.m2)):
            u, s, vh = (a[i] for a in factors)
            assert (u.shape, s.shape, vh.shape) == ((rows, k), (k,), (k, cols))
            assert not (u.flags.writeable or s.flags.writeable or vh.flags.writeable)
            assert np.abs(u * s @ vh - m).max() <= 1e-12
            assert np.abs(u.conj().T @ u - np.eye(k)).max() <= 1e-12
            assert np.abs(vh @ vh.conj().T - np.eye(k)).max() <= 1e-12
            assert np.allclose(s, np.linalg.svd(m, compute_uv=False), rtol=1e-13, atol=0)
            for a, index in ((factors.u, (i, 0, 0)), (factors.s, (i, 0)), (factors.vh, (i, 0, 0))):
                with pytest.raises(ValueError):
                    a[index] = 0.0


def _member(rng, kind: str, rows: int, cols: int) -> BCMatrix:
    """A random, zero, rank-one or repeated-row operator, at a random scale."""
    if kind == "zero":
        return BCMatrix.zeros(rows, cols)
    T = random_mat(rng, rows, cols)
    m1, m2 = T.m1 * 10.0 ** rng.integers(-30, 30), T.m2
    if kind == "rank1":
        m1, m2 = np.outer(m1[:, 0], m1[0]), np.outer(m2[:, 0], m2[0])
    elif kind == "repeated" and rows > 1:
        m1, m2 = m1.copy(), m2.copy()
        m1[-1], m2[0] = m1[0], m2[-1]
    return BCMatrix(m1, m2)


@st.composite
def _families(draw):
    """1 to 6 operators of one shape from 1x1 to 8x8."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "zero", "rank1", "repeated"]), min_size=1, max_size=6))
    return [_member(rng, kind, rows, cols) for kind in kinds]


def _assert_one_matrix_svds(family):
    """Every cached factor is read-only and the one-matrix SVD bit for bit,
    in the factored orientation."""
    for T in family:
        for i, m in enumerate((T.m1, T.m2)):
            for got, want in zip((a[i] for a in T.svd()), one_matrix_svd(m)):
                assert not got.flags.writeable
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(family=_families())
@pytest.mark.routes
def test_family_factors_are_the_one_matrix_svds_bit_for_bit(family):
    pairs = svd_family(family)
    assert [T.svd() for T in family] == pairs
    assert all(T.svd() is pair for T, pair in zip(family, pairs))
    _assert_one_matrix_svds(family)


@pytest.mark.routes
def test_family_factors_are_the_one_matrix_svds_bit_for_bit_at_64x128():
    rng = np.random.default_rng(35)
    family = [random_mat(rng, 64, 128), random_mat(rng, 64, 128)]
    svd_family(family)
    _assert_one_matrix_svds(family)


@pytest.mark.parametrize("rows, cols", [(1, 1), (4, 4), (6, 3), (8, 1), (64, 64), (128, 64)])
@pytest.mark.routes
def test_square_and_tall_factors_are_the_one_matrix_svds_of_the_direct_call(rows, cols):
    rng = np.random.default_rng(rows * 1000 + cols)
    family = [random_mat(rng, rows, cols) for _ in range(3)]
    svd_family(family)
    for T in family:
        for i, m in enumerate((T.m1, T.m2)):
            for got, want in zip((a[i] for a in T.svd()), np.linalg.svd(m, full_matrices=False)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows, cols", [(1, 2), (1, 8), (3, 6), (4, 5), (64, 128)])
@pytest.mark.routes
def test_wide_factors_are_the_one_matrix_svds_of_the_transposed_call(rows, cols):
    rng = np.random.default_rng(rows * 1000 + cols)
    family = [random_mat(rng, rows, cols) for _ in range(3)]
    svd_family(family)
    for T in family:
        for i, m in enumerate((T.m1, T.m2)):
            u, s, vh = np.linalg.svd(m.T, full_matrices=False)  # m.T = u s vh: m = vh.T s u.T
            for got, want in zip((a[i] for a in T.svd()), (vh.T, s, u.T)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.routes
def test_partly_factored_family_factors_only_the_rest(monkeypatch):
    rng = np.random.default_rng(36)
    family = [random_mat(rng, 5, 3) for _ in range(5)]
    kept = {i: family[i].svd() for i in (1, 3)}
    stacks = []
    real = np.linalg.svd

    def spy(a, *args, **kwargs):
        stacks.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    pairs = svd_family(family)
    assert stacks == [(3, 2, 5, 3)]  # members 0, 2 and 4, two components each
    for i, factors in kept.items():
        assert pairs[i] is factors
    assert svd_family(family) == pairs and len(stacks) == 1
    _assert_one_matrix_svds(family)


def test_family_of_two_shapes_is_rejected_unfactored():
    rng = np.random.default_rng(37)
    family = [random_mat(rng, 2, 3), random_mat(rng, 3, 2)]
    with pytest.raises(DimensionMismatch, match=r"one shape, got \[\(2, 3\), \(3, 2\)\]"):
        svd_family(family)
    assert all(T._svd is None for T in family)
    assert svd_family([]) == []


def test_ubp_family_costs_one_svd_call(monkeypatch):
    rng = np.random.default_rng(38)
    family = [random_mat(rng, 24, 24) for _ in range(20)]  # work enough to split
    _split_on(monkeypatch)
    svd_arrays = _recording_svds(monkeypatch)
    assert ubp_verify(family, 50, 7).passed
    _assert_one_call_per_component(svd_arrays, family)


# -------------------------------------------------- components on two threads


@pytest.mark.parametrize(
    "members, rows, cols",
    [
        # per-component work k*rows*cols*min(rows, cols) below, at and above 2^17
        (1, 31, 128), (1, 32, 128), (1, 33, 128),  # wide
        (3, 32, 32), (4, 32, 32), (5, 32, 32),  # square
        (1, 128, 31), (1, 128, 32), (1, 128, 33),  # tall
        (20, 8, 8), (255, 8, 8), (256, 8, 8), (1, 64, 128),  # families, and omt-large's operator
    ],
)
@pytest.mark.routes
def test_stacked_bits_of_component_split_factors(monkeypatch, members, rows, cols):
    rng = np.random.default_rng(members * 10_000 + rows * 100 + cols)
    family = [random_mat(rng, rows, cols) for _ in range(members)]
    stack = np.stack([T.m for T in family])
    wide = rows < cols
    u, s, vh = np.linalg.svd(stack.mT if wide else stack, full_matrices=False)
    want = (vh.mT, s, u.mT) if wide else (u, s, vh)
    _split_on(monkeypatch)
    calls = _counting(monkeypatch, "svd")
    svd_family(family)
    split = members * rows * cols * min(rows, cols) >= dop._SPLIT_WORK
    assert len(calls) == (2 if split else 1)
    for i, T in enumerate(family):
        for got, whole in zip(T.svd(), want):
            assert not got.flags.writeable
            assert got.shape == whole[i].shape and got.tobytes() == whole[i].tobytes()


@pytest.mark.routes
def test_component_split_failure_is_no_convergence_and_leaves_one_helper(monkeypatch):
    T = random_mat(np.random.default_rng(39), 64, 64)
    want = np.linalg.svd(T.m[None], full_matrices=False)
    _split_on(monkeypatch)
    real = np.linalg.svd
    second_on = []

    def failing(a, *args, **kwargs):
        if np.array_equal(a, T.m2[None]):  # component 1 only
            second_on.append(threading.current_thread())
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(NoConvergence, match=r"^SVD kernel failed: SVD did not converge$"):
        svd_family([T])
    assert len(second_on) == 1 and second_on[0] is not threading.current_thread()
    assert T._svd is None
    # the failure leaves one helper, the one it ran on, and that helper
    # factors component 1 of the next split
    assert _helpers() == second_on

    def recording(a, *args, **kwargs):
        if np.array_equal(a, T.m2[None]):
            second_on.append(threading.current_thread())
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    for got, whole in zip(svd_family([T])[0], want):
        assert got.tobytes() == whole[0].tobytes()
    assert second_on[1] is second_on[0] and _helpers() == second_on[:1]


def _ranked(rng, rows: int, cols: int, rank1: int) -> BCMatrix:
    """A random operator whose e1 component has rank ``rank1``."""
    T = random_mat(rng, rows, cols)
    return BCMatrix(T.m1[:, :rank1] @ T.m1[:rank1], T.m2)


def _in_range(rng, T: BCMatrix, k: int) -> np.ndarray:
    """A (2, k, rows) block of right-hand sides T x_i."""
    return (rng.standard_normal((2, k, T.cols)) + 1j * rng.standard_normal((2, k, T.cols))) @ T.m.mT


@pytest.mark.parametrize("rows, cols", [(64, 128), (32, 32), (128, 64)])  # wide, square, tall
@pytest.mark.parametrize("step", [-1, 0, 1])  # rows k below, at and above the split's work
@pytest.mark.routes
def test_split_solve_is_the_one_thread_solve_bit_for_bit(monkeypatch, rows, cols, step):
    rng = np.random.default_rng(rows * 1000 + cols * 10 + step + 1)
    k = dop._SPLIT_WORK // (rows * cols) + step
    T = _ranked(rng, rows, cols, min(rows, cols) // 2)  # the components' ranks differ
    y = _in_range(rng, T, k)
    _one_thread(monkeypatch)
    one = min_norm_solve_rows(T, y, tol=1e-6)
    _split_on(monkeypatch)
    splits = _counting_splits(monkeypatch)
    two = min_norm_solve_rows(T, y, tol=1e-6)
    assert len(splits) == (k * rows * cols >= dop._SPLIT_WORK)
    for name in ("x", "qy", "residual", "tol", "ynorm"):
        assert getattr(two, name).tobytes() == getattr(one, name).tobytes(), name
    # and the residuals are those of the stacked product over both components
    res = one.x @ T.m.mT
    res -= y
    assert dnorm_rows(res).tobytes() == one.residual.tobytes()
    assert one.ynorm.tobytes() == dnorm_rows(y).tobytes()


@pytest.mark.routes
def test_split_solve_rejects_the_first_row_out_of_range(monkeypatch):
    R = BCMatrix([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
    # row 1 is the first outside the range, in e1 only; row 2 in both
    y = np.array([[[1, 0], [0, 3], [0, 4]], [[1, 0], [1, 0], [0, 5]]], dtype=complex)
    want = f"right-hand side outside operator range: residual (3.0, 0.0) > ({1e-10 * 3.0}, {1e-10 * 1.0})"
    for route in (_one_thread, _split_on):
        route(monkeypatch)
        monkeypatch.setattr(dop, "_SPLIT_WORK", 1)
        splits = _counting_splits(monkeypatch)
        with pytest.raises(NotInRange) as info:
            min_norm_solve_rows(R, y, tol=1e-10)
        assert str(info.value) == want
        assert len(splits) == (route is _split_on)


@pytest.mark.routes
def test_an_error_on_the_helper_is_raised_on_the_caller():
    ran = {}

    def job(i):
        ran[i] = threading.current_thread()
        if i == 1:
            raise ValueError("component 1 failed")
        return i

    with pytest.raises(ValueError, match="^component 1 failed$"):
        dop._beside(job)
    assert ran[0] is threading.current_thread() and [ran[1]] == _helpers()


@pytest.mark.routes
def test_a_split_from_the_helper_runs_inline():
    def outer(i):
        return dop._beside(lambda j: (j, threading.current_thread())) if i else None

    out = []
    caller = threading.Thread(target=lambda: out.append(dop._beside(outer)), daemon=True)
    caller.start()
    caller.join(30)
    assert not caller.is_alive(), "a split from the helper waited on its own queue"
    (helper,) = _helpers()
    assert out == [(None, ((0, helper), (1, helper)))]


@pytest.mark.routes
def test_one_helper_serves_a_thousand_splits(monkeypatch):
    rng = np.random.default_rng(43)
    _split_on(monkeypatch)
    monkeypatch.setattr(dop, "_SPLIT_WORK", 1)
    splits = _counting_splits(monkeypatch)
    for _ in range(500):  # a split factoring and a split solve each
        T = random_mat(rng, 4, 4)
        min_norm_solve_rows(T, _in_range(rng, T, 2), tol=1e-6)
    assert len(splits) == 1000
    assert len(_helpers()) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
@pytest.mark.routes
def test_a_forked_child_splits_on_a_helper_of_its_own(monkeypatch):
    rng = np.random.default_rng(44)
    T = random_mat(rng, 8, 8)
    y = _in_range(rng, T, 3)
    _split_on(monkeypatch)
    monkeypatch.setattr(dop, "_SPLIT_WORK", 1)
    want = min_norm_solve_rows(T, y, tol=1e-6).x.tobytes()  # the parent's helper is up
    pid = os.fork()
    if pid == 0:  # the child inherits the parent's record of a helper, not its thread
        code = 1
        try:
            got = min_norm_solve_rows(BCMatrix(T.m1, T.m2), y, tol=1e-6).x.tobytes()
            code = 0 if got == want and dop._helper[0] == os.getpid() and len(_helpers()) == 1 else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's split solve did not finish in 30 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.routes
def test_threads_that_split_at_once_get_the_one_thread_bits(monkeypatch):
    # more calling threads than CPUs, switched often, queue on the one helper
    rng = np.random.default_rng(45)
    cases = [(T, _in_range(rng, T, 20)) for T in (random_mat(rng, 64, 128) for _ in range(4))]
    _one_thread(monkeypatch)
    want = [(BCMatrix(T.m1, T.m2).svd(), min_norm_solve_rows(T, y, tol=1e-6)) for T, y in cases]
    _split_on(monkeypatch)
    splits = _counting_splits(monkeypatch)
    start = threading.Barrier(len(cases))
    got = [[] for _ in cases]

    def run(i):
        T, y = cases[i]
        start.wait()
        for _ in range(10):  # a fresh copy each time, so it is factored again
            fresh = BCMatrix(T.m1, T.m2)
            got[i].append((fresh.svd(), min_norm_solve_rows(fresh, y, tol=1e-6)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(splits) == 2 * 10 * len(cases) and len(_helpers()) == 1
    for (svd, sol), runs in zip(want, got):
        assert len(runs) == 10
        for svd2, sol2 in runs:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(svd, svd2))
            assert all(getattr(sol, n).tobytes() == getattr(sol2, n).tobytes() for n in ("x", "qy", "residual", "tol"))


@pytest.mark.parametrize("threads", [2, None])
@pytest.mark.routes
def test_component_split_is_off_unless_blas_runs_one_thread(monkeypatch, threads):
    # None: numpy's OpenBLAS thread count cannot be read
    T = random_mat(np.random.default_rng(40), 64, 128)
    monkeypatch.setattr(dop, "_blas_threads", lambda: threads)
    monkeypatch.setattr(dop, "_cpus", lambda: 2)
    svd_arrays = _recording_svds(monkeypatch)
    svd_family([T])
    assert [a.shape for a in svd_arrays] == [(1, 2, 128, 64)]


@pytest.mark.routes
def test_component_split_is_off_on_one_cpu(monkeypatch):
    # a helper thread that cannot run beside the caller only adds its start-up
    T = random_mat(np.random.default_rng(41), 64, 128)
    monkeypatch.setattr(dop, "_blas_threads", lambda: 1)
    monkeypatch.setattr(dop, "_cpus", lambda: 1)
    svd_arrays = _recording_svds(monkeypatch)
    svd_family([T])
    assert [a.shape for a in svd_arrays] == [(1, 2, 128, 64)]


def test_cpus_are_the_ones_this_process_may_run_on():
    if hasattr(os, "sched_getaffinity"):
        assert dop._cpus() == len(os.sched_getaffinity(0))
    else:
        assert dop._cpus() == (os.cpu_count() or 1)


def test_blas_thread_count_reads_numpys_openblas():
    blas = dop._openblas()
    if blas is None:
        pytest.skip("this numpy bundles no scipy-openblas")
    get_threads, set_threads = blas
    threads = get_threads()
    try:
        for n in (1, 2):
            set_threads(n)
            assert dop._blas_threads() == n
    finally:
        set_threads(threads)


def test_solve_matches_lstsq():
    rng = np.random.default_rng(32)
    wide = surjective_mat(rng, 4, 7)
    square = random_mat(rng, 5, 5)
    m1 = random_mat(rng, 4, 6).m1.copy()
    m1[3] = m1[0] * (1 - 2j)  # rank 3 in the e1 component
    deficient = BCMatrix(m1, random_mat(rng, 4, 6).m2)
    cases = [
        (wide, random_vec(rng, 4)),
        (square, random_vec(rng, 5)),
        (deficient, mat_apply(deficient, random_vec(rng, 6))),  # in range
    ]
    for T, y in cases:
        rep = min_norm_solve(T, y, tol=1e-9)
        for got, m, b in ((rep.x.v1, T.m1, y.v1), (rep.x.v2, T.m2, y.v2)):
            want = np.linalg.lstsq(m, b, rcond=None)[0]
            assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def test_solve_tolerance_scales_with_rhs():
    # residual ~4e-8 on y = 1e8 sits far below 1e-10 * ||y||
    T = BCMatrix([[1.0, 1.0]], [[1.0, 1.0]])
    rep = min_norm_solve(T, BCVector([1e8], [1e8]), tol=1e-10)
    assert np.allclose(rep.x.v1, [5e7, 5e7], rtol=1e-15)
    assert rep.tol == DPlus(1e-10 * 1e8, 1e-10 * 1e8)
    assert rep.to_json_dict()["tol"] == [1e-2, 1e-2]
    # small right-hand sides scale it down too: there is no absolute floor
    assert min_norm_solve(T, BCVector([0.5], [0.5])).tol == DPlus(1e-10 * 0.5, 1e-10 * 0.5)
    # a scaled-up or scaled-down out-of-range right-hand side is still rejected
    R = BCMatrix([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NotInRange):
        min_norm_solve(R, BCVector([1e8, 1e8], [1e8, 1e8]), tol=1e-10)
    with pytest.raises(NotInRange):
        min_norm_solve(R, BCVector([0.0, 1e-12], [0.0, 1e-12]), tol=1e-10)


def test_rank_cutoff_must_be_below_one():
    # at tol >= 1 no singular value exceeds tol * sigma_max, so every
    # operator would have row rank 0
    T = BCMatrix.identity(2)
    assert surjectivity_check(T, tol=math.nextafter(1.0, 0.0)).surjective
    for tol in (1.0, 1e308):
        with pytest.raises(InvalidInput) as info:
            surjectivity_check(T, tol=tol)
        assert str(info.value) == f"tol must be below 1 as a rank cutoff, got {tol}"
        with pytest.raises(InvalidInput, match="below 1 as a rank cutoff"):
            open_mapping_delta(T, tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_solve_tolerance_must_be_finite_and_positive(tol):
    # checked before the solve, for a right-hand side in the range too: a
    # negative bound would reject every residual, a zero one accept only
    # exact residuals and a NaN one any residual
    R = BCMatrix([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidInput, match=f"^tol must be (positive|finite), got {tol}$"):
        min_norm_solve(R, BCVector([1.0, 0.0], [1.0, 0.0]), tol=tol)


def test_tolerance_products_that_overflow_raise_no_numpy_warning():
    # 1e308 times a singular value or a norm above ~1.8 overflows: a rank
    # cutoff of 1 or more is rejected before any product, and a residual
    # bound at inf is rejected
    T = BCMatrix([[2.0, 0.0]], [[3.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="tol must be below 1 as a rank cutoff, got 1e"):
            surjectivity_check(T, tol=1e308)
        with pytest.raises(InvalidInput, match="non-finite component inf"):
            min_norm_solve(T, BCVector([4.0], [4.0]), tol=1e308)
