"""Every reported margin has the sign of its verdict.

Each inequality of a check is judged once, by ``dmodule._excess``: it holds
where its excess is at most 0, and a report's margin is the worst excess of
the inequalities its verdicts cover.  So a margin is at most 0 in both
components exactly when those verdicts hold, on passing and on refuted
constants alike, over seeds 0-39.
"""

import numpy as np
import pytest

import hyplab.theoremlab as tl
from hyplab import (
    Bicomplex, DPlus, DSeminorm, HypothesisFailed, abs_summability_check, ball_scaling_check, continuity_bound_check,
    countable_subadd_check, geometric_terms, op_dnorm, open_mapping_verify, ubp_verify, vec_dnorm,
    zabreiko_decompose,
)
from hyplab.dop import open_mapping_delta
from support import random_mat, random_vec, surjective_mat

SEEDS = range(40)
#: a constant as given, shrunk by 1e-6 and grown by 1e-6
FACTORS = (1.0, 1 - 1e-6, 1 + 1e-6)


def _scaled(h, f):
    return DPlus(h.a1 * f, h.a2 * f)


def _lemma31(seed, monkeypatch):
    p = DSeminorm(random_mat(np.random.default_rng(seed), 4, 4))
    a = op_dnorm(p.T).M
    for f in FACTORS[:2]:
        rep = continuity_bound_check(p, 50, seed, _scaled(a, f))
        yield rep.worst_margin, rep.all_ok and rep.sequence_ok


def _ballscale(seed, monkeypatch):
    p = DSeminorm(random_mat(np.random.default_rng(seed), 4, 4))
    rep = ball_scaling_check(p, None, 1.0, [0.5, 2, 10], 50, seed)
    yield rep.worst_margin, all(rep.per_delta_ok)


def _ubp(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    family = [random_mat(rng, 4, 4) for _ in range(3)]
    delta = ubp_verify(family, 50, seed).bound_delta
    for f in FACTORS:
        rep = ubp_verify(family, 50, seed, _scaled(delta, f))
        yield rep.worst_margin, rep.all_bounds_ok


def _omt(seed, monkeypatch):
    T = surjective_mat(np.random.default_rng(seed), 3, 6)
    delta = open_mapping_delta(T)
    for f in FACTORS:
        monkeypatch.setattr(tl, "open_mapping_delta", lambda T: _scaled(delta, f))
        rep = open_mapping_verify(T, 200, seed)
        yield rep.worst_margin, rep.bound_ok


def _subadd(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    p, v = DSeminorm(random_mat(rng, 4, 4)), random_vec(rng, 4)
    rep = countable_subadd_check(p, geometric_terms(Bicomplex(0.5 + 0.1j, 0.3 + 0.2j), v), 200)
    yield rep.worst_margin, rep.partial_ok and rep.limit_ok


def _zabreiko(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    p, x = DSeminorm(random_mat(rng, 4, 4)), random_vec(rng, 4)
    x = x.scale(0.9 / max(vec_dnorm(x).components()))
    m = _scaled(op_dnorm(p.T).M, 3.0)
    rep = zabreiko_decompose(p, x, m, 1.0, DPlus(1.0, 1.0), 1000)
    yield rep.worst_term_margin, rep.term_bounds_ok
    yield rep.worst_remainder_margin, rep.remainder_bounds_ok


def _abs_check(seed, monkeypatch):
    v = random_vec(np.random.default_rng(seed), 4)
    for scale in (1.0, 1e-155):
        rep = abs_summability_check(geometric_terms(Bicomplex(0.6 + 0.2j, -0.5j), v.scale(scale)), 200)
        yield rep.chain_margin, rep.cauchy_chain_ok


@pytest.mark.parametrize("case", [_lemma31, _ballscale, _ubp, _omt, _subadd, _zabreiko, _abs_check],
                         ids=lambda f: f.__name__[1:])
def test_every_margin_is_at_most_zero_exactly_when_its_verdicts_hold(monkeypatch, case):
    seen, disagree = set(), []
    for seed in SEEDS:
        for i, (margin, ok) in enumerate(case(seed, monkeypatch)):
            seen.add(ok)
            if (margin.a1 <= 0 and margin.a2 <= 0) != ok:
                disagree.append((seed, i, margin.components(), ok))
    assert disagree == []
    # the checks that take a constant see it refuted as well as upheld
    assert seen == ({True, False} if case in (_lemma31, _ubp, _omt) else {True})


def _one_shrunk(h, c):
    """``h`` with component ``c`` alone shrunk by 1e-6."""
    a = list(h.components())
    a[c] *= 1 - 1e-6
    return DPlus(*a)


@pytest.mark.parametrize("c", [0, 1], ids=["e1", "e2"])
def test_a_constant_shrunk_in_one_component_is_refuted_in_that_component(c):
    # one witness row (v1, v2) attains both components of the constant, so a
    # shrink of either one alone is refuted there, and the other component's
    # margin is an excess of that row or a sample, at most 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = DSeminorm(random_mat(rng, 4, 4))
        family = [random_mat(rng, 4, 4) for _ in range(3)]
        alpha = op_dnorm(p.T).M
        reports = [continuity_bound_check(p, 50, seed, _one_shrunk(alpha, c)),
                   ubp_verify(family, 50, seed, _one_shrunk(ubp_verify(family, 50, seed).bound_delta, c))]
        for rep in reports:
            margin = rep.worst_margin.components()
            assert not rep.passed and margin[c] > 0 and margin[1 - c] <= 0, (seed, rep.check, margin)
        # ballscale's premise on the r ball is refuted by the same witness
        with pytest.raises(HypothesisFailed):
            ball_scaling_check(p, _one_shrunk(alpha, c), 1.0, [0.5], 50, seed)
