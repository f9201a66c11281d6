"""Vectors, D-valued norms, seminorms, and capped series summation."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplab import (
    BCMatrix,
    AbsSummabilityReport,
    BCVector,
    Bicomplex,
    Columns,
    DPlus,
    DSeminorm,
    DimensionMismatch,
    E1,
    Hyperbolic,
    InvalidInput,
    NotConverged,
    SeriesReport,
    abs_summability_check,
    countable_subadd_check,
    geometric_terms,
    knorm,
    seminorm_eval,
    series_sum,
    vec_dnorm,
)
from hyplab.dmodule import CHECK_SLACK, MAX_SERIES_TERMS, _excess
from support import oracle_excess, random_bc, random_mat, random_vec

ALL_NORMS = ["l2", "l1", "linf"]


def le_slack(a, b, slack):
    return a.a1 <= b.a1 + slack and a.a2 <= b.a2 + slack


# ------------------------------------------------------------------ vectors


def test_vector_construction_checks():
    with pytest.raises(DimensionMismatch):
        BCVector([1, 2], [1])
    with pytest.raises(InvalidInput):
        BCVector([], [])
    with pytest.raises(InvalidInput):
        BCVector([complex("nan")], [0])
    v = BCVector([1, 2], [3, 4])
    assert v.dim == 2
    with pytest.raises(ValueError):
        v.v1[0] = 5.0  # locked


@pytest.mark.parametrize(
    "cls, e1, e2, named",
    [
        (BCVector, ["a"], [1], "e1"),
        (BCVector, [1], [object()], "e2"),
        (BCVector, [[1], [1, 2]], [1, 2], "e1"),
        (BCMatrix, [["a"]], [[1]], "e1"),
        (BCMatrix, [[1]], [[object()]], "e2"),
        (BCMatrix, [[1, 2], [3, 4]], [[1], [2, 3]], "e2"),
    ],
)
def test_constructors_reject_non_numeric_and_ragged_components(cls, e1, e2, named):
    # vectors and operators share one validator of idempotent pairs
    kind = "vector" if cls is BCVector else "matrix"
    with pytest.raises(InvalidInput, match=f"^{named} component is not a numeric {kind}: "):
        cls(e1, e2)


def test_vector_arithmetic_dim_checks():
    v = BCVector([1], [1])
    w = BCVector([1, 2], [3, 4])
    with pytest.raises(DimensionMismatch):
        _ = v + w


# -------------------------------------------------------------------- norms


def test_dnorm_pythagorean():
    v = BCVector([3, 4], [0, 0])
    assert vec_dnorm(v) == DPlus(5.0, 0.0)


def test_dnorm_zero():
    assert vec_dnorm(BCVector.zeros(3)) == DPlus(0.0, 0.0)


def test_dnorm_component_decomposition_exact():
    rng = np.random.default_rng(60)
    for norm in ALL_NORMS:
        for _ in range(200):
            v = random_vec(rng, int(rng.integers(1, 9)))
            n = vec_dnorm(v, norm)
            # independent per-component evaluation
            if norm == "l2":
                want = (np.linalg.norm(v.v1), np.linalg.norm(v.v2))
            elif norm == "l1":
                want = (np.abs(v.v1).sum(), np.abs(v.v2).sum())
            else:
                want = (np.abs(v.v1).max(), np.abs(v.v2).max())
            assert n.a1 == float(want[0]) and n.a2 == float(want[1])


def test_dnorm_homogeneity():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        v = random_vec(rng, 4)
        mu = random_bc(rng)
        lhs = vec_dnorm(v.scale(mu))
        rhs = knorm(mu) * vec_dnorm(v)
        assert abs(lhs.a1 - rhs.a1) <= 1e-12 * max(1.0, rhs.a1)
        assert abs(lhs.a2 - rhs.a2) <= 1e-12 * max(1.0, rhs.a2)


def test_dnorm_axioms_all_configs():
    rng = np.random.default_rng(62)
    for norm in ALL_NORMS:
        for _ in range(400):
            n = int(rng.integers(1, 9))
            x = random_vec(rng, n)
            y = random_vec(rng, n)
            nx = vec_dnorm(x, norm)
            # (a) zero iff zero
            assert (nx.a1 == 0 and nx.a2 == 0) == (
                not x.v1.any() and not x.v2.any()
            )
            # (b) homogeneity, including zero divisors
            mu = random_bc(rng) if rng.uniform() > 0.2 else E1
            lhs = vec_dnorm(x.scale(mu), norm)
            rhs = knorm(mu) * nx
            assert abs(lhs.a1 - rhs.a1) <= 1e-12 * max(1.0, rhs.a1)
            assert abs(lhs.a2 - rhs.a2) <= 1e-12 * max(1.0, rhs.a2)
            # (c) triangle
            s = vec_dnorm(x + y, norm)
            t = nx + vec_dnorm(y, norm)
            assert le_slack(s, t, 1e-12 * max(1.0, t.a1, t.a2))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=80)
def test_dnorm_triangle_property(n, seed):
    rng = np.random.default_rng(seed)
    x = random_vec(rng, n)
    y = random_vec(rng, n)
    s = vec_dnorm(x + y)
    t = vec_dnorm(x) + vec_dnorm(y)
    assert le_slack(s, t, 1e-12 * max(1.0, t.a1, t.a2))


# ---------------------------------------------------------------- seminorms


def test_seminorm_zero_operator():
    p = DSeminorm(BCMatrix.zeros(3, 3))
    rng = np.random.default_rng(70)
    for _ in range(50):
        assert seminorm_eval(p, random_vec(rng, 3)) == DPlus(0.0, 0.0)


def test_seminorm_identity_is_norm():
    p = DSeminorm(BCMatrix.identity(4))
    rng = np.random.default_rng(71)
    for _ in range(50):
        x = random_vec(rng, 4)
        assert seminorm_eval(p, x) == vec_dnorm(x)


def test_seminorm_axioms():
    rng = np.random.default_rng(72)
    T = random_mat(rng, 3, 4)
    p = DSeminorm(T)
    for _ in range(1000):
        x = random_vec(rng, 4)
        y = random_vec(rng, 4)
        mu = random_bc(rng)
        lhs = seminorm_eval(p, x.scale(mu))
        rhs = knorm(mu) * seminorm_eval(p, x)
        assert abs(lhs.a1 - rhs.a1) <= 1e-12 * max(1.0, rhs.a1)
        assert abs(lhs.a2 - rhs.a2) <= 1e-12 * max(1.0, rhs.a2)
        s = seminorm_eval(p, x + y)
        t = seminorm_eval(p, x) + seminorm_eval(p, y)
        assert le_slack(s, t, 1e-12 * max(1.0, t.a1, t.a2))


def test_seminorm_dim_mismatch():
    # seminorm_eval makes no check of its own: the block check of
    # seminorm_terms rejects a vector shorter or longer than the columns
    p = DSeminorm(BCMatrix.identity(3))
    for dim in (1, 4):
        with pytest.raises(DimensionMismatch, match=f"^operator has 3 columns, block rows have dim {dim}$"):
            seminorm_eval(p, BCVector([1] * dim, [1] * dim))


# ---------------------------------------------------------- sublevel  sets
#
# x is in V_alpha = {x : p(x) <= alpha} when p(x) <= alpha exactly, and in
# its tolerance closure when the comparison holds at the relative slack
# CHECK_SLACK, the one rule that ``ball_scaling_check`` uses.


def _holds(a: Hyperbolic, b: Hyperbolic, slack: float) -> bool:
    """a <= b in both components by the one verdict rule."""
    return bool((_excess(np.array(a.components()), np.array(b.components()), slack) <= 0).all())


def test_member_boundary():
    p = DSeminorm(BCMatrix.identity(2))
    x = BCVector([1, 0], [1, 0])
    assert _holds(seminorm_eval(p, x), DPlus(1.0, 1.0), 0.0)  # boundary counts


def test_member_alpha_zero():
    p = DSeminorm(BCMatrix.identity(2))
    x = BCVector([1, 0], [0, 1])
    assert not _holds(seminorm_eval(p, x), DPlus(0.0, 0.0), 0.0)


def test_member_scaling_consistency():
    rng = np.random.default_rng(80)
    T = random_mat(rng, 3, 3)
    p = DSeminorm(T)
    for _ in range(1000):
        x = random_vec(rng, 3)
        px = seminorm_eval(p, x)
        # alpha strictly off the boundary so float scaling cannot flip it
        factor = 1.25 if rng.uniform() > 0.5 else 0.8
        alpha = DPlus(px.a1 * factor + 1e-12, px.a2 * factor + 1e-12)
        inside = _holds(px, alpha, 0.0)
        d = float(rng.uniform(0.1, 10.0))
        assert inside == _holds(seminorm_eval(p, x.scale(d)), alpha * d, 0.0)


def test_member_closed_tolerance():
    p = DSeminorm(BCMatrix.identity(1))
    px = seminorm_eval(p, BCVector([1.0], [1.0]))
    just_out = DPlus(1.0 - 1e-10, 1.0 - 1e-10)
    assert not _holds(px, just_out, 0.0)
    assert _holds(px, just_out, CHECK_SLACK)


def test_member_closed_tolerance_is_relative():
    p = DSeminorm(BCMatrix.identity(1))
    # p(x) = 2 alpha is outside however small both are
    assert not _holds(seminorm_eval(p, BCVector([2e-12], [2e-12])), DPlus(1e-12, 1e-12), CHECK_SLACK)
    # and p(x) within 1e-12 relative of alpha is inside however large
    alpha = 1e6 * (1 - 1e-12)
    assert _holds(seminorm_eval(p, BCVector([1e6], [1e6])), DPlus(alpha, alpha), CHECK_SLACK)
    # one component out is out
    assert not _holds(seminorm_eval(p, BCVector([1.0], [1.1])), DPlus(1.0, 1.0), CHECK_SLACK)


#: floats at the edges of the double range: signed zeros, subnormals, the
#: smallest normal and values near the largest double
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, 1.0 + 2e-16]
_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def _within_before(a, b, slack, scale):
    """The verdict rule as a bool, the form it had before it returned the excess."""
    size = np.maximum(np.maximum(scale, 1e-150), np.maximum(np.abs(a), np.abs(b)))
    return a <= b + slack * size


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(_floats, _floats), min_size=1, max_size=8),
    slack=st.one_of(st.sampled_from([0.0, CHECK_SLACK, 5e-324, 1.0]), st.floats(0.0, 1e300)),
    scale=st.one_of(st.sampled_from([0.0, 1e-150, 1e308]), st.floats(0.0, 1.7976931348623157e308)),
)
def test_excess_is_at_most_zero_exactly_where_the_comparison_holds(pairs, slack, scale):
    # a - c rounds to 0 only when a == c and keeps its sign otherwise, also
    # when it overflows, so the one array gives the verdict of a <= c
    a, b = np.array(pairs).T
    with np.errstate(over="ignore"):  # b + slack * size may overflow: both sides see the same infinity
        excess = _excess(a, b, slack, scale)
        assert ((excess <= 0) == _within_before(a, b, slack, scale)).all()
        assert np.array_equal(excess, oracle_excess(a, b, slack, scale))


# ------------------------------------------------------------------- series


def test_series_single_then_zeros():
    x = BCVector([2, 1], [1, 3])
    terms = [x, BCVector.zeros(2), BCVector.zeros(2), BCVector.zeros(2)]
    rep = series_sum(terms, DPlus(1e-12, 1e-12), 100)
    assert rep.converged
    diff = vec_dnorm(rep.limit - x)
    assert diff.a1 < 1e-12 and diff.a2 < 1e-12


def test_series_single_then_infinite_zeros():
    x = BCVector([2, 1], [1, 3])

    def gen():
        yield x
        while True:
            yield BCVector.zeros(2)

    rep = series_sum(gen(), DPlus(1e-12, 1e-12), 100)
    assert rep.converged
    diff = vec_dnorm(rep.limit - x)
    assert diff.a1 == 0.0 and diff.a2 == 0.0


def test_series_geometric_scalar_closed_form():
    ratio = Bicomplex(0.5, 0.25)
    rep = series_sum(
        geometric_terms(ratio, BCVector([1.0], [1.0])), DPlus(1e-12, 1e-12), 200
    )
    assert rep.converged and rep.n_terms <= 200
    # partial-sum oracle: closed form 1/(1-Z) componentwise
    assert abs(rep.limit.v1[0] - 2.0) < 1e-12
    assert abs(rep.limit.v2[0] - 4.0 / 3.0) < 1e-12


def test_series_alternating_not_converged():
    def alternating():
        k = 0
        while True:
            sign = 1.0 if k % 2 == 0 else -1.0
            yield BCVector([sign], [sign])
            k += 1

    with pytest.raises(NotConverged) as err:
        series_sum(alternating(), DPlus(1e-10, 1e-10), 10)
    assert err.value.report is not None
    assert err.value.report.n_terms == 10
    assert not err.value.report.converged


def test_series_finite_list_is_exact():
    rng = np.random.default_rng(90)
    terms = [random_vec(rng, 3) for _ in range(7)]
    rep = series_sum(terms, DPlus(1e-15, 1e-15), 100)
    assert rep.converged
    want = terms[0]
    for t in terms[1:]:
        want = want + t
    diff = vec_dnorm(rep.limit - want)
    assert diff.a1 == 0.0 and diff.a2 == 0.0


def test_series_requires_strictly_positive_tol():
    # one check of the sign, invalid input (exit 2) as a non-positive --tol is
    cases = [(DPlus(0.0, 1e-9), "(0.0, 1e-09)"), (0.0, "(0.0, 0.0)"), (-1.0, "(-1.0, -1.0)"),
             (Hyperbolic(1e-9, -1.0), "(1e-09, -1.0)")]
    for tol, got in cases:
        with pytest.raises(InvalidInput) as info:
            series_sum([BCVector([1], [1])], tol, 10)
        assert str(info.value) == f"series tolerance must be strictly positive, got {got}"


def test_series_empty_rejected():
    with pytest.raises(InvalidInput):
        series_sum([], DPlus(1e-9, 1e-9), 10)


def test_series_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        series_sum([BCVector([1], [1]), BCVector([1, 2], [3, 4])], DPlus(1e-9, 1e-9), 10)


# ------------------------------------------------------- absolute summation


def test_abs_summability_geometric():
    rng = np.random.default_rng(91)
    v = random_vec(rng, 4)
    ratio = Bicomplex(0.6 + 0.2j, -0.5j)  # knorm components < 1
    assert knorm(ratio).a1 < 1 and knorm(ratio).a2 < 1
    rep = abs_summability_check(geometric_terms(ratio, v), 400, DPlus(1e-12, 1e-12))
    assert rep.abs_converged
    assert rep.cauchy_chain_ok
    # the recorded tail estimates dominate: margins are non-positive
    assert rep.chain_margin.a1 <= 1e-12 and rep.chain_margin.a2 <= 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-13, 1e-100])
def test_abs_summability_chain_refutes_a_tripled_difference_at_any_scale(monkeypatch, scale):
    import hyplab.dmodule as dmodule

    rng = np.random.default_rng(93)
    v = random_vec(rng, 4)
    v = v.scale(scale / max(vec_dnorm(v).a1, vec_dnorm(v).a2))
    ratio = Bicomplex(0.6 + 0.2j, -0.5j)
    assert abs_summability_check(geometric_terms(ratio, v), 200).cauchy_chain_ok
    # the chain is the only caller of dnorm_rows here: ||s_n - s_m||_D is
    # tripled, which ||x_n||_D, the difference at stride 1, cannot meet
    norms = dmodule.dnorm_rows
    monkeypatch.setattr(dmodule, "dnorm_rows", lambda b: 3.0 * norms(b))
    rep = abs_summability_check(geometric_terms(ratio, v), 200)
    assert not rep.cauchy_chain_ok
    assert rep.chain_margin.a1 > 0 and rep.chain_margin.a2 > 0


@pytest.mark.parametrize("scale", [1e-150, 1e-155, 1e-160])
def test_abs_summability_chain_holds_where_the_squares_are_subnormal(monkeypatch, scale):
    # squares of entries this small lose bits in the subnormal range, so
    # ||s_n - s_m||_D may exceed the sum of term norms by about 6e-162;
    # the chain is judged by the one relative rule, whose slack has a floor
    import hyplab.dmodule as dmodule

    rng = np.random.default_rng(93)
    v = random_vec(rng, 4)
    v = v.scale(scale / max(vec_dnorm(v).a1, vec_dnorm(v).a2))
    rep = abs_summability_check(geometric_terms(Bicomplex(0.6 + 0.2j, -0.5j), v), 200)
    assert rep.abs_converged and rep.cauchy_chain_ok
    assert max(rep.chain_margin.components()) <= 0  # the margin is the rule's excess
    # an exact comparison would refute it
    monkeypatch.setattr(dmodule, "_excess", lambda a, b, slack=0.0, scale=0.0: _excess(a, b, 0.0, scale))
    exact = abs_summability_check(geometric_terms(Bicomplex(0.6 + 0.2j, -0.5j), v), 200)
    assert not exact.cauchy_chain_ok and max(exact.chain_margin.components()) > 0


def test_term_caps_above_the_limit_are_rejected_before_any_term_is_pulled():
    def untouchable():
        raise AssertionError("a term was pulled")
        yield

    cap = MAX_SERIES_TERMS
    p = DSeminorm(BCMatrix.identity(1))
    for run in (
        lambda n: series_sum(untouchable(), 1e-12, n),
        lambda n: abs_summability_check(untouchable(), n),
        lambda n: countable_subadd_check(p, untouchable(), n),
    ):
        with pytest.raises(InvalidInput, match=rf"^max_n {cap + 1} exceeds the cap of {cap} terms$"):
            run(cap + 1)
    one = [BCVector([1.0], [1.0])]
    assert series_sum(one, 1e-12, cap).n_terms == 1
    assert abs_summability_check(one, cap).n_terms == 1
    assert countable_subadd_check(p, one, cap).n_terms == 1


def test_abs_summability_all_zero():
    rep = abs_summability_check([BCVector.zeros(2) for _ in range(5)], 100)
    assert rep.abs_converged and rep.cauchy_chain_ok


def test_abs_summability_harmonic_flag():
    def harmonic():
        k = 1
        while True:
            yield BCVector([1.0 / k], [1.0 / k])
            k += 1

    rep = abs_summability_check(harmonic(), 500, DPlus(1e-12, 1e-12))
    assert not rep.abs_converged  # divergent at any finite cap
    assert rep.cauchy_chain_ok  # the proof chain still holds for partial sums


def test_abs_summability_cauchy_pairs_explicitly():
    rng = np.random.default_rng(92)
    v = random_vec(rng, 3)
    terms = [v.scale(Bicomplex(0.5, 0.25) * 1.0) for _ in range(1)]
    seq = list()
    t = v
    for _ in range(40):
        seq.append(t)
        t = t.scale(Bicomplex(0.5, 0.25))
    partials = []
    s = BCVector.zeros(3)
    for t in seq:
        s = s + t
        partials.append(s)
    sums = np.cumsum([[vec_dnorm(t).a1, vec_dnorm(t).a2] for t in seq], axis=0)
    for m in range(0, 40, 7):
        for n in range(m + 1, 40, 5):
            diff = vec_dnorm(partials[n] - partials[m])
            bound = sums[n] - sums[m]
            assert diff.a1 <= bound[0] + 1e-12
            assert diff.a2 <= bound[1] + 1e-12


def test_geometric_generator_terms():
    ratio = Bicomplex(0.5, 2.0)
    g = geometric_terms(ratio, BCVector([1.0], [1.0]))
    t0 = next(g)
    t1 = next(g)
    t2 = next(g)
    assert t0.v1[0] == 1.0 and t1.v1[0] == 0.5 and t2.v1[0] == 0.25
    assert t2.v2[0] == 4.0


def test_dnorm_config_rejects_unknown():
    with pytest.raises(InvalidInput):
        vec_dnorm(BCVector([1.0], [1.0]), "l3")


# --------------------------------------------------------- column views


def test_columns_read_cone_values():
    a = np.array([[1.0, 2.0, 3.0], [0.5, -0.0, 4.0]])
    view = Columns(a)
    assert len(view) == 3
    assert view[0] == DPlus(1.0, 0.5) and view[-1] == DPlus(3.0, 4.0)
    assert list(view) == [DPlus(*col) for col in a.T.tolist()]
    part = view[1:]
    assert isinstance(part, Columns) and list(part) == [DPlus(2.0, -0.0), DPlus(3.0, 4.0)]
    assert len(view[::-2]) == 2 and view[::-2][1] == DPlus(1.0, 0.5)
    with pytest.raises(IndexError):
        view[3]


def test_columns_read_vectors():
    rng = np.random.default_rng(93)
    block = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
    view = Columns(block)
    assert len(view) == 4 and len(view[1:3]) == 2
    for i, v in enumerate(view):
        assert isinstance(v, BCVector)
        assert np.array_equal(v.v1, block[0, i]) and np.array_equal(v.v2, block[1, i])
    assert np.array_equal(view[-1].v2, block[1, 3])
    assert np.array_equal(view[1:][0].v1, block[0, 1])


def test_columns_hold_a_read_only_copy():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    view = Columns(a)
    a[0, 0] = 9.0  # the caller's array stays its own
    assert view[0] == DPlus(1.0, 3.0)
    assert not view.array.flags.writeable and not view[1:].array.flags.writeable
    with pytest.raises(ValueError):
        view.array[0, 0] = 0.0


def test_series_reports_hold_views():
    rng = np.random.default_rng(94)
    terms = list(islice(geometric_terms(Bicomplex(0.5, 0.25), random_vec(rng, 3)), 80))
    plain = series_sum(terms, DPlus(1e-12, 1e-12), 200)
    chain = abs_summability_check(terms, 200)
    assert type(plain) is SeriesReport and isinstance(chain, AbsSummabilityReport)
    for rep in (plain, chain):
        assert isinstance(rep.partial_norms, Columns) and isinstance(rep.abs_sums, Columns)
        assert len(rep.partial_norms) == len(rep.abs_sums) == rep.n_terms
        assert rep.abs_sums[0] == vec_dnorm(terms[0])
    # only the chain report carries the chain keys
    assert "abs_converged" not in plain.to_json_dict()
    assert list(chain.to_json_dict())[-3:] == ["abs_converged", "cauchy_chain_ok", "chain_margin"]
