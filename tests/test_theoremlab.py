"""Mechanized theorem checks: bounds, traces, falsification, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hyplab import (
    BCMatrix,
    BCVector,
    DPlus,
    DSeminorm,
    HypothesisFailed,
    Hyperbolic,
    InvalidInput,
    NotSurjective,
    PreconditionViolated,
    ShapeMismatch,
    ball_scaling_check,
    continuity_bound_check,
    countable_subadd_check,
    geometric_terms,
    mat_apply,
    op_dnorm,
    open_mapping_verify,
    seminorm_eval,
    ubp_verify,
    vec_dnorm,
    zabreiko_decompose,
)
from hyplab.jsonio import dumps, matrix_to_json
from hyplab import Bicomplex
import hyplab.theoremlab as tl
from support import componentwise_max, random_mat, random_vec, surjective_mat


# ------------------------------------------------------- continuity (bound)


def test_continuity_zero_operator():
    rep = continuity_bound_check(DSeminorm(BCMatrix.zeros(3, 3)), trials=50, seed=1)
    assert rep.passed
    assert rep.alpha_star == DPlus(0.0, 0.0)


def test_continuity_identity_tight():
    rep = continuity_bound_check(DSeminorm(BCMatrix.identity(4)), trials=100, seed=2)
    assert rep.passed
    assert abs(rep.alpha_star.a1 - 1.0) < 1e-12
    assert abs(rep.alpha_star.a2 - 1.0) < 1e-12


def test_continuity_random_and_falsification():
    rng = np.random.default_rng(20)
    T = random_mat(rng, 4, 4)
    p = DSeminorm(T)
    rep = continuity_bound_check(p, trials=1000, seed=3)
    assert rep.passed
    assert rep.worst_margin.a1 <= 1e-9 and rep.worst_margin.a2 <= 1e-9
    # corrupting the constant by 1% must break at least one sample
    a = rep.alpha_star
    bad = continuity_bound_check(p, trials=1000, seed=3, alpha_star=DPlus(0.99 * a.a1, 0.99 * a.a2))
    assert not bad.all_ok
    # a component shrunk by 1e-6 relative is refuted by the witness
    tiny = continuity_bound_check(
        p, trials=10, seed=3, alpha_star=DPlus((1 - 1e-6) * a.a1, a.a2)
    )
    assert not tiny.all_ok


def _bottom_witness_rows(T):
    """Unit vectors of the smallest singular values, which do not attain the norm."""
    v1, v2 = T.svd().vh[:, -1].conj()
    zero = np.zeros(T.cols, dtype=complex)
    return np.stack((np.stack((v1, zero, v1)), np.stack((zero, v2, v2))))


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_continuity_witness_tightness_is_relative(monkeypatch, scale):
    rng = np.random.default_rng(22)
    T = random_mat(rng, 4, 4)
    p = DSeminorm(BCMatrix(T.m1 * scale, T.m2 * scale))
    assert continuity_bound_check(p, trials=20, seed=4).witness_tight
    monkeypatch.setattr(tl, "_witness_rows", _bottom_witness_rows)
    rep = continuity_bound_check(p, trials=20, seed=4)
    assert not rep.witness_tight and not rep.passed


def test_continuity_report_deterministic():
    rng = np.random.default_rng(21)
    T = random_mat(rng, 3, 3)
    a = continuity_bound_check(DSeminorm(T), 64, seed=9)
    b = continuity_bound_check(DSeminorm(T), 64, seed=9)
    assert dumps(a.to_json_dict()) == dumps(b.to_json_dict())
    c = continuity_bound_check(DSeminorm(T), 64, seed=10)
    assert dumps(a.to_json_dict()) != dumps(c.to_json_dict())


# ------------------------------------------------------ countable subadd


def test_subadd_parallel_terms_equality():
    rng = np.random.default_rng(30)
    T = random_mat(rng, 3, 3)
    p = DSeminorm(T)
    base = random_vec(rng, 3)
    terms = [base.scale(c) for c in (0.5, 0.25, 0.125, 0.0625)]
    rep = countable_subadd_check(p, terms, max_n=100)
    assert rep.passed
    # nonnegative multiples of one vector: homogeneity collapses the sum
    assert abs(rep.worst_margin.a1) <= 1e-12 * 10
    assert abs(rep.worst_margin.a2) <= 1e-12 * 10


def test_subadd_geometric_strict():
    rng = np.random.default_rng(31)
    T = random_mat(rng, 4, 4)
    p = DSeminorm(T)
    seed_vec = random_vec(rng, 4)
    ratio = Bicomplex(0.5 + 0.1j, 0.3 + 0.2j)  # rotating: no parallel collapse
    terms = geometric_terms(ratio, seed_vec)
    rep = countable_subadd_check(p, terms, max_n=300)
    assert rep.passed
    # generically strict at the limit: recompute both sides directly
    xs = []
    t = seed_vec
    for _ in range(rep.n_terms):
        xs.append(t)
        t = t.scale(ratio)
    total = BCVector.zeros(4)
    lhs_sum = DPlus(0.0, 0.0)
    for x in xs:
        total = total + x
        pk = seminorm_eval(p, x)
        lhs_sum = DPlus(lhs_sum.a1 + pk.a1, lhs_sum.a2 + pk.a2)
    p_limit = seminorm_eval(p, total)
    assert p_limit.a1 < lhs_sum.a1 - 1e-6
    assert p_limit.a2 < lhs_sum.a2 - 1e-6


def test_subadd_single_term():
    rng = np.random.default_rng(32)
    T = random_mat(rng, 2, 2)
    rep = countable_subadd_check(DSeminorm(T), [random_vec(rng, 2)], max_n=10)
    assert rep.passed and rep.n_terms == 1


def test_subadd_not_converged_passthrough():
    from hyplab import NotConverged

    def alternating():
        sign = 1.0
        while True:
            yield BCVector([sign], [sign])
            sign = -sign

    p = DSeminorm(BCMatrix.identity(1))
    with pytest.raises(NotConverged):
        countable_subadd_check(p, alternating(), max_n=10)


# ----------------------------------------------------------- ball scaling


def test_ballscale_delta_one_restates_hypothesis():
    rng = np.random.default_rng(40)
    T = random_mat(rng, 3, 3)
    p = DSeminorm(T)
    alpha = op_dnorm(T).M * 1.0  # radius 1 premise
    rep = ball_scaling_check(p, alpha, 1.0, [1.0], samples=50, seed=4)
    assert rep.passed


def test_ballscale_norm_homogeneity():
    p = DSeminorm(BCMatrix.identity(3))
    r = 2.0
    alpha = DPlus(r, r)
    rep = ball_scaling_check(p, alpha, r, [0.25, 1.0, 7.5], samples=50, seed=5)
    assert rep.passed


def test_ballscale_random_and_falsification():
    rng = np.random.default_rng(41)
    T = random_mat(rng, 4, 4)
    p = DSeminorm(T)
    r = 1.5
    alpha = op_dnorm(T).M * r
    rep = ball_scaling_check(p, alpha, r, [0.5, 2.0, 10.0], samples=100, seed=6)
    assert rep.passed
    shrunk = DPlus(0.9 * alpha.a1, 0.9 * alpha.a2)
    with pytest.raises(HypothesisFailed):
        ball_scaling_check(p, shrunk, r, [0.5], samples=100, seed=6)


def test_ballscale_rejects_empty_deltas():
    # with no delta there is nothing to check, so no verdict is given
    p = DSeminorm(BCMatrix.identity(2))
    with pytest.raises(InvalidInput, match="deltas must be nonempty"):
        ball_scaling_check(p, DPlus(1.0, 1.0), 1.0, [], samples=5, seed=1)


def test_ballscale_rejects_a_negative_alpha_as_invalid_input():
    # the sublevel set's bound lies in the cone, before any premise is sampled
    p = DSeminorm(BCMatrix.identity(2))
    with pytest.raises(InvalidInput, match=r"^alpha must be nonnegative, got \(1.0, -1e-300\)$"):
        ball_scaling_check(p, Hyperbolic(1.0, -1e-300), 1.0, [0.5], samples=5, seed=1)


def test_ballscale_deterministic():
    rng = np.random.default_rng(42)
    T = random_mat(rng, 3, 3)
    p = DSeminorm(T)
    alpha = op_dnorm(T).M
    a = ball_scaling_check(p, alpha, 1.0, [0.5, 2.0], samples=30, seed=8)
    b = ball_scaling_check(p, alpha, 1.0, [0.5, 2.0], samples=30, seed=8)
    assert dumps(a.to_json_dict()) == dumps(b.to_json_dict())


# ---------------------------------------------------------------- zabreiko


def make_instance(seed, n=4, r=1.0, scale=0.7):
    rng = np.random.default_rng(seed)
    T = random_mat(rng, n, n)
    p = DSeminorm(T)
    x = random_vec(rng, n)
    nx = vec_dnorm(x)
    x = x.scale(scale * r / max(nx.a1, nx.a2))
    a = op_dnorm(T).M
    m = DPlus(2.0 * a.a1 * r * 1.05, 2.0 * a.a2 * r * 1.05)
    eps = DPlus(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))
    return p, x, m, eps


def replay_trace(p, x, trace, slack=1e-9):
    """Independent replay: recompute every inequality from the raw lists."""
    m, r, eps = trace.m, trace.r, trace.eps
    # epsilon schedule
    nx = vec_dnorm(x)
    assert abs(trace.epsilons[0].a1 - nx.a1 / r) < 1e-15
    assert abs(trace.epsilons[0].a2 - nx.a2 / r) < 1e-15
    for k in range(1, len(trace.epsilons)):
        assert trace.epsilons[k].a1 == math.ldexp(eps.a1 / m.a1, -k)
        assert trace.epsilons[k].a2 == math.ldexp(eps.a2 / m.a2, -k)
    # chain exactness and bounds
    u_prev = x
    total = BCVector.zeros(x.dim)
    for i, (xk, uk) in enumerate(zip(trace.x_terms, trace.remainders)):
        expect = u_prev - xk
        assert np.array_equal(expect.v1, uk.v1)
        assert np.array_equal(expect.v2, uk.v2)
        pk = seminorm_eval(p, xk)
        bound = trace.epsilons[i] * m  # eps_{k-1} m with eps_0 = ||x||/r
        assert pk.a1 <= bound.a1 + slack and pk.a2 <= bound.a2 + slack
        un = vec_dnorm(uk)
        rem_bound = trace.epsilons[i + 1] * r
        assert un.a1 <= rem_bound.a1 + slack and un.a2 <= rem_bound.a2 + slack
        # tail: || x - sum_{k<=n} x_k || <= (eps r / m) 2^-n
        total = total + xk
        tail = vec_dnorm(x - total)
        tb = DPlus(
            math.ldexp(eps.a1 * r / m.a1, -(i + 1)),
            math.ldexp(eps.a2 * r / m.a2, -(i + 1)),
        )
        assert tail.a1 <= tb.a1 + slack and tail.a2 <= tb.a2 + slack
        u_prev = uk
    # final bound evaluated directly on x
    px = seminorm_eval(p, x)
    rhs1 = m.a1 * nx.a1 / r + eps.a1
    rhs2 = m.a2 * nx.a2 / r + eps.a2
    assert px.a1 <= rhs1 + slack and px.a2 <= rhs2 + slack


def test_zabreiko_zero_vector():
    rng = np.random.default_rng(50)
    T = random_mat(rng, 3, 3)
    p = DSeminorm(T)
    a = op_dnorm(T).M
    m = DPlus(2.2 * a.a1 + 1.0, 2.2 * a.a2 + 1.0)
    trace = zabreiko_decompose(p, BCVector.zeros(3), m, 1.0, DPlus(1, 1), 50)
    assert trace.passed
    assert trace.n_steps == 1
    assert not trace.x_terms[0].v1.any() and not trace.x_terms[0].v2.any()


def test_zabreiko_identity_unit_vector():
    # the norm itself: alpha* = 1, r = 1, m = (2,2), eps = (1,1)
    p = DSeminorm(BCMatrix.identity(4))
    rng = np.random.default_rng(51)
    x = random_vec(rng, 4)
    nx = vec_dnorm(x)
    x = x.scale(1.0 / max(nx.a1, nx.a2))
    trace = zabreiko_decompose(p, x, DPlus(2, 2), 1.0, DPlus(1, 1), 64)
    assert trace.passed
    assert trace.n_steps > 3  # quantization makes the trace nontrivial
    replay_trace(p, x, trace)


def test_zabreiko_replay_random_instances():
    for seed in range(5):
        p, x, m, eps = make_instance(100 + seed)
        trace = zabreiko_decompose(p, x, m, 1.0, eps, 48)
        assert trace.passed
        replay_trace(p, x, trace)


def test_zabreiko_single_step_cap():
    p, x, m, eps = make_instance(200)
    trace = zabreiko_decompose(p, x, m, 1.0, eps, 1)
    assert trace.n_steps == 1
    assert trace.capped
    assert trace.final_bound_ok  # evaluated on x directly, cap-independent
    assert trace.passed
    replay_trace(p, x, trace)


def test_zabreiko_small_x_first_step_budget():
    # ||x||/r far below eps/(2m): the clamped pitch keeps the first-term
    # budget p(x_1) <= eps_0 m honest
    p, x, m, eps = make_instance(201)
    tiny = x.scale(1e-6)
    trace = zabreiko_decompose(p, tiny, m, 1.0, eps, 48)
    assert trace.passed
    replay_trace(p, tiny, trace)


def test_zabreiko_precondition_reports_component():
    rng = np.random.default_rng(52)
    T = random_mat(rng, 3, 3)
    p = DSeminorm(T)
    a = op_dnorm(T).M
    x = BCVector.zeros(3)
    bad_m = DPlus(2.0 * a.a1 * 0.5, 2.0 * a.a2 * 2.0)  # e1 component too small
    with pytest.raises(PreconditionViolated) as err:
        zabreiko_decompose(p, x, bad_m, 1.0, DPlus(1, 1), 10)
    assert "e1" in str(err.value)


def test_zabreiko_x_outside_ball():
    p = DSeminorm(BCMatrix.identity(2))
    x = BCVector([3.0, 0.0], [3.0, 0.0])
    with pytest.raises(PreconditionViolated):
        zabreiko_decompose(p, x, DPlus(2, 2), 1.0, DPlus(1, 1), 10)


def test_zabreiko_eps_strictly_positive():
    p = DSeminorm(BCMatrix.identity(2))
    with pytest.raises(PreconditionViolated):
        zabreiko_decompose(p, BCVector.zeros(2), DPlus(2, 2), 1.0, DPlus(0, 1), 10)


def test_zabreiko_deterministic():
    p, x, m, eps = make_instance(300)
    t1 = zabreiko_decompose(p, x, m, 1.0, eps, 32)
    t2 = zabreiko_decompose(p, x, m, 1.0, eps, 32)
    assert dumps(t1.to_json_dict()) == dumps(t2.to_json_dict())


# --------------------------------------------------------------------- ubp


def test_ubp_scaled_identities():
    family = [BCMatrix(c * np.eye(3), c * np.eye(3)) for c in (1.0, 2.0, 3.0, 4.0, 5.0)]
    rep = ubp_verify(family, samples=50, seed=7)
    assert rep.passed
    assert rep.sup_opnorm == DPlus(5.0, 5.0)
    # p*(x) = 5 ||x||_D for scaled identities: recompute on fresh samples
    rng = np.random.default_rng(77)
    for _ in range(50):
        x = random_vec(rng, 3)
        pstar = componentwise_max([vec_dnorm(mat_apply(T, x)) for T in family])
        want = vec_dnorm(x) * 5.0
        assert abs(pstar.a1 - want.a1) < 1e-9 and abs(pstar.a2 - want.a2) < 1e-9


def test_ubp_singleton_matches_opnorm():
    rng = np.random.default_rng(60)
    T = random_mat(rng, 3, 3)
    rep = ubp_verify([T], samples=100, seed=8)
    assert rep.passed
    assert rep.sup_opnorm == op_dnorm(T).M


def test_ubp_random_family_and_falsification():
    rng = np.random.default_rng(61)
    family = [random_mat(rng, 4, 4) for _ in range(10)]
    rep = ubp_verify(family, samples=100, seed=9)
    assert rep.passed
    assert rep.worst_margin.a1 <= 1e-9 and rep.worst_margin.a2 <= 1e-9
    d = rep.bound_delta
    shrunk = DPlus((1 - 1e-6) * d.a1, (1 - 1e-6) * d.a2)
    bad = ubp_verify(family, samples=100, seed=9, delta=shrunk)
    assert not bad.passed


def test_ubp_pointwise_sup_dominates_members():
    rng = np.random.default_rng(62)
    family = [random_mat(rng, 3, 5) for _ in range(6)]
    rep = ubp_verify(family, samples=40, seed=10)
    assert rep.passed
    # recompute the chain on fresh samples: p_s(x) <= sup of opnorms * ||x||
    delta = componentwise_max([op_dnorm(T).M for T in family])
    for _ in range(100):
        x = random_vec(rng, 5)
        values = [vec_dnorm(mat_apply(T, x)) for T in family]
        pstar = componentwise_max(values)
        bound = delta * vec_dnorm(x)
        assert pstar.a1 <= bound.a1 + 1e-9 and pstar.a2 <= bound.a2 + 1e-9


def test_ubp_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ubp_verify([BCMatrix.identity(2), BCMatrix.identity(3)], samples=5, seed=1)
    with pytest.raises(ShapeMismatch):
        ubp_verify([], samples=5, seed=1)


def test_ubp_deterministic():
    rng = np.random.default_rng(63)
    family = [random_mat(rng, 3, 3) for _ in range(4)]
    a = ubp_verify(family, samples=32, seed=11)
    b = ubp_verify(family, samples=32, seed=11)
    assert dumps(a.to_json_dict()) == dumps(b.to_json_dict())


# -------------------------------------------------------------- open mapping


def test_omt_identity():
    rep = open_mapping_verify(BCMatrix.identity(3), trials=100, seed=12)
    assert rep.passed
    assert rep.delta == DPlus(1.0, 1.0)


def test_omt_diagonal_scalar():
    T = BCMatrix([[2.0]], [[4.0]])
    rep = open_mapping_verify(T, trials=50, seed=13)
    assert rep.passed
    assert abs(rep.delta.a1 - 0.5) < 1e-12
    assert abs(rep.delta.a2 - 0.25) < 1e-12


def test_omt_random_wide():
    rng = np.random.default_rng(70)
    T = surjective_mat(rng, 3, 6)
    rep = open_mapping_verify(T, trials=1000, seed=14)
    assert rep.passed
    assert rep.worst_residual.a1 <= 1e-9 and rep.worst_residual.a2 <= 1e-9
    assert rep.witness_ratio.a1 >= (1 - 1e-6) * rep.delta.a1
    assert rep.witness_ratio.a2 >= (1 - 1e-6) * rep.delta.a2


def _graded(rng, rows: int, cols: int, smallest: float) -> np.ndarray:
    """A random wide matrix whose singular values run log-evenly from 1 to ``smallest``."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, rows)) + 1j * rng.standard_normal((cols, rows)))
    return (u * np.geomspace(1.0, smallest, rows)) @ v.conj().T


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_omt_judges_residuals_by_the_solves_relative_rule(scale):
    # at condition number 5e6 the 64-row residuals reach 1.4e-9 to 2.5e-9:
    # above CHECK_SLACK itself, far below CHECK_SLACK * ||y_i|| (about 11),
    # while the unit witness solve stays under half its own bound
    worst = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        T = BCMatrix(_graded(rng, 64, 128, 2e-7) * scale, _graded(rng, 64, 128, 2e-7) * scale)
        rep = open_mapping_verify(T, trials=100, seed=7)
        assert rep.solve_ok and rep.passed
        worst.append(max(rep.worst_residual.components()))
    assert max(worst) > tl.CHECK_SLACK


@pytest.mark.parametrize("threads", ["1", "2"])
def test_omt_accepts_surjective_operators_at_condition_1e7(tmp_path, threads):
    # at condition number 1e7 and scale 1e-6, the unit witness solve of these
    # three surjective operators leaves a residual of up to 1.14e-9, above
    # CHECK_SLACK but far within the witness's 8 * 2^-52 * kappa (about
    # 1.8e-8); the solve's rounding moves with the BLAS thread count, so the
    # children run at one and at two threads, and every one must pass
    src = os.path.dirname(os.path.dirname(tl.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
               OPENBLAS_NUM_THREADS=threads)
    for seed in (0, 1, 5):
        rng = np.random.default_rng(seed)
        T = BCMatrix(_graded(rng, 64, 128, 1e-7) * 1e-6, _graded(rng, 64, 128, 1e-7) * 1e-6)
        path = tmp_path / f"T{seed}.json"
        path.write_text(dumps(matrix_to_json(T)) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "hyplab.cli", "omt-verify", "--matrix", str(path),
             "--trials", "100", "--seed", "7"],
            capture_output=True, env=env, timeout=120,
        )
        doc = json.loads(proc.stdout)
        assert (proc.returncode, doc["pass"]) == (0, True), (seed, doc["payload"])


def test_omt_not_surjective():
    with pytest.raises(NotSurjective):
        open_mapping_verify(BCMatrix.zeros(2, 4), trials=10, seed=1)


def test_omt_deterministic():
    rng = np.random.default_rng(71)
    T = surjective_mat(rng, 2, 4)
    a = open_mapping_verify(T, trials=64, seed=15)
    b = open_mapping_verify(T, trials=64, seed=15)
    assert dumps(a.to_json_dict()) == dumps(b.to_json_dict())
