"""Equivariance of the theorem checks under exact changes of the data.

Scaling every operator by 2^k changes no rounding as long as no value
leaves the normal range, so each float of a report scales by exactly
2^k, 2^-k or 1, the margins included, and every verdict stays.  For the
Zabreiko decomposition T is scaled by 2^k, x and r by 2^j, and m and eps by
2^(k+j).  The paper's statements are also symmetric under the swap of the
idempotent components e1 <-> e2.  The sampled checks draw e1 before e2, so
their margins are not bit-equal after a swap, but every verdict is.
"""

import math

import numpy as np
import pytest

import hyplab.theoremlab as tl
from hyplab import (
    BCMatrix, BCVector, DPlus, DSeminorm, ball_scaling_check, continuity_bound_check, op_dnorm,
    open_mapping_verify, ubp_verify, vec_dnorm, zabreiko_decompose,
)
from hyplab.dop import open_mapping_delta
from support import random_mat, random_vec, surjective_mat

#: exponents k of the operator scale 2^k: far below and above 1, all in the
#: range where no square of a report's values leaves the normal doubles
KS = [-200, -20, 10, 300]


def _scaled_mat(T, k):
    return BCMatrix(*(T.m * 2.0**k))


def _same_scaled(base, scaled, shift, path="report"):
    """``scaled`` is ``base`` with each float times 2^shift bit for bit, and
    with every other value equal."""
    if isinstance(base, float):
        want = math.ldexp(base, shift)
        assert scaled == want and math.copysign(1.0, scaled) == math.copysign(1.0, want), (path, base, scaled)
    elif isinstance(base, list):
        assert isinstance(scaled, list) and len(scaled) == len(base), path
        for i, (b, s) in enumerate(zip(base, scaled)):
            _same_scaled(b, s, shift, f"{path}[{i}]")
    elif isinstance(base, dict):
        assert scaled.keys() == base.keys(), path
        for key in base:
            _same_scaled(base[key], scaled[key], shift, f"{path}.{key}")
    else:
        assert type(scaled) is type(base) and scaled == base, (path, base, scaled)


def _equivariant(base, scaled, powers, fields=None):
    """Field by field: a field in ``powers`` scales by 2^power, any other is
    equal; only ``fields``, if given."""
    base, scaled = base.to_json_dict(), scaled.to_json_dict()
    assert scaled.keys() == base.keys()
    for key in base if fields is None else fields:
        _same_scaled(base[key], scaled[key], powers.get(key, 0), key)



# ---------------------------------------------------------------- 2^k scale


def _lemma31_runs(k):
    T = random_mat(np.random.default_rng(41), 4, 4)
    runs = [continuity_bound_check(DSeminorm(S), 200, 3) for S in (T, _scaled_mat(T, k))]
    assert runs[0].passed
    return runs


@pytest.mark.parametrize("k", KS)
def test_lemma31_scales_with_its_operator(k):
    runs = _lemma31_runs(k)
    _equivariant(*runs, {"alpha_star": k}, [key for key in runs[0]._fields if key != "worst_margin"])


@pytest.mark.parametrize("k", KS)
def test_lemma31_margin_scales_with_its_operator(k):
    _equivariant(*_lemma31_runs(k), {"worst_margin": k}, ["worst_margin"])


@pytest.mark.parametrize("k", KS)
def test_ballscale_scales_with_its_operator(k):
    T = random_mat(np.random.default_rng(42), 4, 4)
    runs = [ball_scaling_check(DSeminorm(S), None, 1.0, [0.5, 2, 10], 100, 3) for S in (T, _scaled_mat(T, k))]
    assert runs[0].passed
    _equivariant(*runs, {"alpha": k, "worst_margin": k})


def _ubp_runs(k):
    rng = np.random.default_rng(43)
    family = [random_mat(rng, 4, 4) for _ in range(3)]
    runs = [ubp_verify([_scaled_mat(T, e) for T in family], 100, 3) for e in (0, k)]
    assert runs[0].passed
    return runs


@pytest.mark.parametrize("k", KS)
def test_ubp_scales_with_its_family(k):
    runs = _ubp_runs(k)
    _equivariant(*runs, {"sup_opnorm": k, "bound_delta": k},
                 [key for key in runs[0]._fields if key != "worst_margin"])


@pytest.mark.parametrize("k", KS)
def test_ubp_margin_scales_with_its_family(k):
    _equivariant(*_ubp_runs(k), {"worst_margin": k}, ["worst_margin"])


@pytest.mark.parametrize("k", KS)
def test_omt_verify_scales_with_its_operator(k):
    # delta = 1/sigma_min and the preimages scale by 2^-k; the right-hand
    # sides, and so the residuals, do not scale
    T = surjective_mat(np.random.default_rng(44), 3, 6)
    runs = [open_mapping_verify(S, 200, 3) for S in (T, _scaled_mat(T, k))]
    assert runs[0].passed
    _equivariant(*runs, {"delta": -k, "witness_ratio": -k, "worst_margin": -k})


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("half", [-1, 1])
def test_zabreiko_scales_with_its_operator_vector_and_budgets(k, half):
    rng = np.random.default_rng(45)
    T, x = random_mat(rng, 4, 4), random_vec(rng, 4)
    x = x.scale(0.9 / max(vec_dnorm(x).components()))
    m = op_dnorm(T).M * 3.0
    j = half * k // 2

    def run(k, j):
        return zabreiko_decompose(DSeminorm(_scaled_mat(T, k)), BCVector(*(x.v * 2.0**j)), m * 2.0 ** (k + j),
                                  2.0**j, DPlus(1.0, 1.0) * 2.0 ** (k + j), 1000)

    base = run(0, 0)
    assert base.passed and not base.capped
    _equivariant(base, run(k, j), {
        "m": k + j, "r": j, "eps": k + j, "alpha_star": k, "x_norm": j, "px": k + j, "x_terms": j,
        "remainders": j, "worst_term_margin": k + j, "worst_remainder_margin": j,
    })


# --------------------------------------------------------------- e1 <-> e2


def _swapped(T):
    return BCMatrix(T.m2, T.m1)


def _verdicts(report):
    """The bool fields of a report, ``pass`` included, by name."""
    doc = report.to_json_dict()
    return {key: value for key, value in doc.items() if isinstance(value, bool) or key == "per_delta_ok"}


def _one_shrunk(h, c):
    """``h`` with component ``c`` shrunk by 1e-6."""
    a = list(h.components())
    a[c] *= 1 - 1e-6
    return DPlus(*a)


@pytest.mark.parametrize("shrink", [None, 0, 1])
def test_lemma31_verdicts_hold_under_the_component_swap(shrink):
    T = random_mat(np.random.default_rng(46), 4, 4)
    a = op_dnorm(T).M
    alphas = (None, None) if shrink is None else (_one_shrunk(a, shrink), _one_shrunk(a, 1 - shrink))
    runs = [continuity_bound_check(DSeminorm(S), 200, 3, alpha) for S, alpha in zip((T, _swapped(T)), alphas)]
    assert runs[0].passed is (shrink is None)
    assert _verdicts(runs[0]) == _verdicts(runs[1])


def test_ballscale_verdicts_hold_under_the_component_swap():
    T = random_mat(np.random.default_rng(47), 4, 4)
    runs = [ball_scaling_check(DSeminorm(S), None, 1.0, [0.5, 2, 10], 100, 3) for S in (T, _swapped(T))]
    assert runs[0].passed and _verdicts(runs[0]) == _verdicts(runs[1])


@pytest.mark.parametrize("shrink", [None, 0, 1])
def test_ubp_verdicts_hold_under_the_component_swap(shrink):
    rng = np.random.default_rng(48)
    family = [random_mat(rng, 4, 4) for _ in range(3)]
    delta = ubp_verify(family, 100, 3).bound_delta
    deltas = (None, None) if shrink is None else (_one_shrunk(delta, shrink), _one_shrunk(delta, 1 - shrink))
    runs = [ubp_verify(f, 100, 3, d) for f, d in zip((family, [_swapped(T) for T in family]), deltas)]
    assert runs[0].passed is (shrink is None)
    assert _verdicts(runs[0]) == _verdicts(runs[1])


@pytest.mark.parametrize("factor", [1.0, 1 - 1e-6, 1 + 1e-6])
def test_omt_verify_verdicts_hold_under_the_component_swap(monkeypatch, factor):
    T = surjective_mat(np.random.default_rng(49), 3, 6)
    runs = []
    for S in (T, _swapped(T)):
        delta = open_mapping_delta(S)
        monkeypatch.setattr(tl, "open_mapping_delta", lambda S, delta=delta: DPlus(*(delta * factor).components()))
        runs.append(open_mapping_verify(S, 200, 3))
    assert runs[0].passed is (factor == 1.0)
    assert _verdicts(runs[0]) == _verdicts(runs[1])


@pytest.mark.parametrize("eps", [1.0, 1e-9])
def test_zabreiko_verdicts_hold_under_the_component_swap(eps):
    rng = np.random.default_rng(50)
    T, x = random_mat(rng, 4, 4), random_vec(rng, 4)
    x = x.scale(0.9 / max(vec_dnorm(x).components()))
    m = op_dnorm(T).M * 3.0
    e = DPlus(eps, 2 * eps)
    runs = [zabreiko_decompose(DSeminorm(T), x, m, 1.0, e, 1000),
            zabreiko_decompose(DSeminorm(_swapped(T)), BCVector(x.v2, x.v1), DPlus(m.a2, m.a1), 1.0,
                               DPlus(e.a2, e.a1), 1000)]
    assert runs[0].passed and _verdicts(runs[0]) == _verdicts(runs[1])
