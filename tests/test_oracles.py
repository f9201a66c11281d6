"""Byte-level pins of emission, of the Zabreiko trace and of series sums.

``dumps`` is one call of the standard library's JSON encoder;
``zabreiko_decompose`` judges its stop rule once per chunk of steps;
``series_sum``, ``abs_summability_check`` and ``countable_subadd_check``
pull their terms in chunks and sum them as blocks.  Each must print, or raise, exactly what the
one-value-at-a-time references in ``support`` do.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyplab.cli as cli
import hyplab.theoremlab as theoremlab
from hyplab import (
    BCMatrix,
    BCVector,
    Bicomplex,
    DPlus,
    DSeminorm,
    InvalidInput,
    NotConverged,
    PreconditionViolated,
    abs_summability_check,
    countable_subadd_check,
    geometric_terms,
    op_dnorm,
    series_sum,
    vec_dnorm,
    zabreiko_decompose,
)
from hyplab.dmodule import _worst, dnorm_rows
from hyplab.jsonio import dumps, parse_vector
from hyplab.theoremlab import _CHUNK_STEPS, _MAX_STEPS, _schedule

from support import (
    desk_zabreiko_instance, oracle_abs_summability, oracle_dumps, oracle_excess, oracle_series_sum, oracle_subadd,
    oracle_zabreiko,
    random_mat, random_vec,
)

# ------------------------------------------------------------------ dumps

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
numpy_scalars = st.one_of(
    floats.map(np.float64),
    (st.floats(width=32) | st.sampled_from([-0.0, math.inf, math.nan])).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    st.text(max_size=8),
    numpy_scalars,
)
float_lists = st.lists(floats, max_size=6)
# lists of float lists: equal widths, ragged widths, and rows holding a bool or an int
float_rows = st.integers(0, 4).flatmap(
    lambda w: st.lists(st.lists(floats, min_size=w, max_size=w), max_size=5)
) | st.lists(st.lists(st.one_of(floats, st.booleans(), st.integers(-3, 3)), max_size=4), max_size=5)
non_str_keys = st.one_of(st.integers(-2, 2), st.none(), st.tuples(st.integers(0, 1)))
json_values = st.recursive(
    st.one_of(scalars, float_lists, float_rows),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(non_str_keys, inner, min_size=1, max_size=2),
    ),
    max_leaves=20,
)


def _outcome(fn, obj):
    try:
        return "ok", fn(obj)
    except Exception as exc:  # the same exception is part of the contract
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_dumps_matches_oracle(obj):
    assert _outcome(dumps, obj) == _outcome(oracle_dumps, obj)


@pytest.mark.parametrize(
    "obj",
    [
        [1.0, True, 2.0],
        [1.0, 2, 3.0],
        [[1.0, 2.0], [3.0]],
        [[1.0, 2.0], (3.0, 4.0)],
        [[], []],
        [],
        (1.0, -0.0),
        [np.float64(0.1), 0.1],
        [[np.float32(0.1), 1.0]],
        [float("nan"), -0.0, 5e-324, 1.7976931348623157e308, -math.inf],
        {"a": [[0.5, -0.0]] * 3, "b": {"c": None}},
        {"ké\"\\\n\ud800": " "},
        {1: 2.0},
        {"ok": [1.0, {None: 1}]},
        [object()],
        [np.longdouble(0.1), np.float16(0.1), np.uint64(2**64 - 1)],
    ],
)
def test_dumps_edge_values_match_oracle(obj):
    assert _outcome(dumps, obj) == _outcome(oracle_dumps, obj)


def test_dumps_rejects_as_before():
    with pytest.raises(InvalidInput, match=r"^keys must be str, int, float, bool or None, not tuple$"):
        dumps({("a",): 1.0})
    with pytest.raises(InvalidInput, match="cannot serialize complex"):
        dumps([1.0, 1j])


# ------------------------------------------------------------------ trace


def _instance(n: int):
    rng = np.random.default_rng(n)
    T = random_mat(rng, n, n)
    x = random_vec(rng, n)
    nx = vec_dnorm(x)
    x = x.scale(0.8 / max(nx.a1, nx.a2))
    a = op_dnorm(T).M
    m = DPlus(2.5 * a.a1, 2.5 * a.a2)
    return DSeminorm(T), x, m


#: the step counts around the chunks in which the stop rule is judged
CHUNK_EDGES = [_CHUNK_STEPS - 1, _CHUNK_STEPS, _CHUNK_STEPS + 1, 2 * _CHUNK_STEPS]

CASES = {
    "cap1": lambda x: (x, DPlus(1.0, 1.0), 1),
    "cap7": lambda x: (x, DPlus(1.0, 1.0), 7),
    **{f"cap{c}": lambda x, c=c: (x, DPlus(1.0, 1.0), c) for c in CHUNK_EDGES},
    "uncapped": lambda x: (x, DPlus(1.0, 1.0), 1000),
    "zero": lambda x: (BCVector.zeros(x.dim), DPlus(1.0, 1.0), 50),
    "zero-eps1e-300": lambda x: (BCVector.zeros(x.dim), DPlus(1e-300, 1e-300), 1000),
}


def _long_instance():
    """Identity 4x4, x near 1e-150 and eps/m = 1.7e308 at r = 0.5: the pitches
    start far above x and reach its scale after ~1,500 halvings, so the
    trace stops at roundoff of ||x||_D after 1,558 steps."""
    x = BCVector([1e-150, 2e-150, -1e-150, 3e-150], [2e-150, 1e-150, 1e-150, -2e-150])
    return DSeminorm(BCMatrix.identity(4)), x, DPlus(1.0, 1.0), 0.5, DPlus(1.7e308, 1.7e308)


LONG_STEPS = 1558

#: the long instance's step caps, around 256 steps and far above its length
LONG_CASES = {"long-255": 255, "long-256": 256, "long-257": 257, "long-1e12": 10**12}

TRACE_CASES = [*itertools.product(sorted(CASES), [1, 4, 16]), *((case, 4) for case in LONG_CASES)]


@pytest.mark.parametrize("case, n", TRACE_CASES, ids=[f"{case}-{n}" for case, n in TRACE_CASES])
def test_trace_bytes_match_step_loop(case, n):
    if case in LONG_CASES:
        p, x, m, r, eps = _long_instance()
        max_n = LONG_CASES[case]
    else:
        p, x, m = _instance(n)
        r = 1.0
        x, eps, max_n = CASES[case](x)
    trace = zabreiko_decompose(p, x, m, r, eps, max_n)
    want = oracle_dumps(oracle_zabreiko(p, x, m, r, eps, max_n))
    assert dumps(trace.to_json_dict()) == want
    assert trace.n_steps == len(trace.x_terms) == len(trace.remainders)
    assert len(trace.epsilons) == trace.n_steps + 1
    if case == "uncapped":
        assert not trace.capped and trace.n_steps < max_n
    if case.startswith("cap"):
        assert trace.capped and trace.n_steps == max_n
    if case in LONG_CASES:
        assert (trace.n_steps, trace.capped) == (min(max_n, LONG_STEPS), max_n < LONG_STEPS)


def test_no_trace_outlives_the_schedule():
    # eps/m is a finite double below 2^1024, so eps_k = ldexp(eps/m, -k) and
    # the pitch of step k are exactly 0 from k = 2099 on, even at the largest
    # double; a zero pitch copies the remainder and the next remainder is 0
    ratio = np.full((2, 1), sys.float_info.max)
    epsilons, pitches = _schedule(np.ones((2, 1)), ratio, 1.0, 1.0, _MAX_STEPS)
    assert _MAX_STEPS == 2099 and pitches.shape == (_MAX_STEPS, 2, 1)
    assert not epsilons[:, _MAX_STEPS].any() and epsilons[:, _MAX_STEPS - 1].all()
    assert not pitches[-1].any() and pitches[-2].all()


@pytest.mark.parametrize("case", ["n1", "n4", "n16", "long"])
def test_remainder_verdict_rebuilds_from_the_envelope(case):
    # the remainder budgets are eps_k r, so the parsed envelope's epsilons, r
    # and remainders give its remainder verdict and margin bit for bit
    if case == "long":
        p, x, m, r, eps = _long_instance()
    else:
        (p, x, m), r, eps = _instance(int(case[1:])), 1.0, DPlus(1.0, 1.0)
    doc = json.loads(dumps(zabreiko_decompose(p, x, m, r, eps, 10**12).to_json_dict()))
    assert "tail_bounds" not in doc
    uns = dnorm_rows(np.stack([parse_vector(u).v for u in doc["remainders"]], axis=1))
    budgets = np.array(doc["epsilons"]).T[:, 1:] * doc["r"]
    margin = oracle_excess(uns, budgets)
    assert dumps(_worst(margin).components()) == dumps(doc["worst_remainder_margin"])
    assert bool((margin <= 0).all()) is doc["remainder_bounds_ok"] is True


@pytest.mark.parametrize("n", [1, 4, 16])
def test_trace_rejects_a_first_budget_below_roundoff_of_x(n):
    # the step-1 budget (eps/m) r / 2 ~ 1e-301 is far below 2^-52 ||x||_D:
    # no float64 grid step can meet it, so the run is refused, not failed
    p, x, m = _instance(n)
    named = r"float64 spacing of x, .*\(e1: .*; e2: .*<= 2\^-52\*\|\|x\|\|_D="
    with pytest.raises(PreconditionViolated, match=named):
        zabreiko_decompose(p, x, m, 1.0, DPlus(1e-300, 1e-300), 1000)


def test_trace_bytes_match_step_loop_random_instances():
    # one matrix-matrix product for all term seminorms would move the last
    # digits of worst_term_margin in a few of these instances
    rng = np.random.default_rng(12345)
    for i in range(64):
        n = 1 + i % 16
        T = random_mat(rng, n, n)
        x = random_vec(rng, n)
        nx = vec_dnorm(x)
        r = float(rng.uniform(0.5, 2.0))
        x = x.scale(float(rng.uniform(0.05, 0.95)) * r / max(nx.a1, nx.a2))
        a = op_dnorm(T).M
        m = DPlus(2 * a.a1 * r * float(rng.uniform(1, 1.5)), 2 * a.a2 * r * float(rng.uniform(1, 1.5)))
        eps = DPlus(float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2)))
        p = DSeminorm(T)
        for max_n in (7, 48):
            got = dumps(zabreiko_decompose(p, x, m, r, eps, max_n).to_json_dict())
            assert got == oracle_dumps(oracle_zabreiko(p, x, m, r, eps, max_n)), (i, max_n)


def test_trace_memory_does_not_scale_with_max_n():
    p, x, m = _instance(4)
    want = dumps(zabreiko_decompose(p, x, m, 1.0, DPlus(1.0, 1.0), 1000).to_json_dict())
    tracemalloc.start()
    try:
        trace = zabreiko_decompose(p, x, m, 1.0, DPlus(1.0, 1.0), 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dumps(trace.to_json_dict()) == want
    # the remainder budget (eps/m) 2^-k r reaches 2^-52 ||x||_D by step ~52
    assert not trace.capped and trace.n_steps < 64
    assert peak < 5 * 2**20


def _meets_roundoff_rule(u: BCVector, x_norm: DPlus) -> bool:
    un = vec_dnorm(u)
    return un.a1 <= sys.float_info.epsilon * x_norm.a1 and un.a2 <= sys.float_info.epsilon * x_norm.a2


@pytest.mark.parametrize("n", [1, 4, 16])
def test_trace_stops_at_the_first_remainder_below_roundoff_of_x(n):
    p, x, m = _instance(n)
    trace = zabreiko_decompose(p, x, m, 1.0, DPlus(1.0, 1.0), 1000)
    assert not trace.capped and trace.n_steps >= 2
    assert _meets_roundoff_rule(trace.remainders[-1], trace.x_norm)
    assert not _meets_roundoff_rule(trace.remainders[-2], trace.x_norm)


def test_trace_length_and_arrays_scale_with_the_instance():
    p, x, m = _instance(4)
    eps = DPlus(1.0, 1.0)
    unit = zabreiko_decompose(p, x, m, 1.0, eps, 1000)
    for e in (-400, 0, 400):
        s = math.ldexp(1.0, e)
        trace = zabreiko_decompose(p, x.scale(s), m * s, s, eps * s, 1000)
        assert (trace.n_steps, trace.capped) == (unit.n_steps, False), e
        # the budgets eps_k are ratios and do not scale; everything else does, exactly
        assert np.array_equal(trace.epsilons.array, unit.epsilons.array), e
        # so do the remainder budgets eps_k r, recomputed from the epsilons
        budgets = trace.epsilons.array[:, 1:] * trace.r
        assert np.array_equal(budgets, unit.epsilons.array[:, 1:] * unit.r * s), e
        for name in ("x_terms", "remainders"):
            got, want = getattr(trace, name).array, getattr(unit, name).array
            assert np.array_equal(got, want * s), (e, name)


def test_trace_blocks_are_read_only():
    p, x, m = _instance(4)
    trace = zabreiko_decompose(p, x, m, 1.0, DPlus(1.0, 1.0), 64)
    views = (trace.x_terms, trace.remainders, trace.epsilons)
    for view in views:
        assert not view.array.flags.writeable
        with pytest.raises(ValueError):
            view.array[(0,) * view.array.ndim] = 1.0
    assert trace.x_terms.array.shape == trace.remainders.array.shape == (2, trace.n_steps, 4)
    # the items are copies of the blocks' columns
    first = trace.x_terms[0]
    assert np.array_equal(first.v1, trace.x_terms.array[0, 0])
    assert not np.shares_memory(first.v1, trace.x_terms.array)
    assert trace.x_terms[-1].v2.tolist() == trace.x_terms.array[1, -1].tolist()
    assert [e.a1 for e in trace.epsilons[:2]] == trace.epsilons.array[0, :2].tolist()


def _eps_stopping_at(steps: int) -> DPlus:
    # eps = 2^(-j/8) moves _instance(4)'s stop step by about one step per 8
    # values of j, so every step count from 1 to 48 is met
    p, x, m = _instance(4)
    for j in range(400):
        eps = DPlus(2.0 ** (-j / 8), 2.0 ** (-j / 8))
        trace = zabreiko_decompose(p, x, m, 1.0, eps, 1000)
        if trace.n_steps == steps and not trace.capped:
            return eps
    raise AssertionError(f"no eps stops _instance(4) at step {steps}")


def test_trace_with_a_zero_component_copies_it_at_zero_pitch():
    # ||x||_D is 0 in e1, so e1's first pitch is 0 and the step copies it,
    # signed zeros included, while e2 is rounded to its grid
    p, x, m = _instance(4)
    x = BCVector([-0.0, 0.0, complex(0.0, -0.0), -0.0], x.v2)
    trace = zabreiko_decompose(p, x, m, 1.0, DPlus(1.0, 1.0), 1000)
    assert dumps(trace.to_json_dict()) == oracle_dumps(oracle_zabreiko(p, x, m, 1.0, DPlus(1.0, 1.0), 1000))
    assert not trace.capped and trace.n_steps > 1
    assert np.signbit(trace.x_terms.array[0, 0].view(float)).tolist() == np.signbit(x.v1.view(float)).tolist()
    assert not np.signbit(trace.remainders.array[0].view(float)).any()


def test_a_non_finite_step_inside_a_chunk_is_rejected_at_its_step(recwarn):
    # step 2's pitch overflows, so its term is not finite; the steps computed
    # after it in the same chunk leave no warning and are not named
    p = DSeminorm(BCMatrix(np.eye(4) * 1e-300, np.eye(4) * 1e-300))
    x = BCVector([0.5, -0.3, 0.1, 0.2], [-0.2, 0.3, 0.5, -0.1])
    want = "the term x_k is not finite at step 2, quantized at pitch eps'_k r / (2 sqrt(n)) = (inf, inf)"
    assert 2 < _CHUNK_STEPS
    with pytest.raises(InvalidInput) as info:
        zabreiko_decompose(p, x, DPlus(10.0, 10.0), 1e300, DPlus(1e300, 1e300), 1000)
    assert str(info.value) == want
    assert not recwarn.list


def _counted_norms(monkeypatch) -> list:
    calls = []
    norms = theoremlab._component_norms

    def counted(b):
        calls.append(b.shape)
        return norms(b)

    monkeypatch.setattr(theoremlab, "_component_norms", counted)
    return calls


@pytest.mark.parametrize("steps", [1, *CHUNK_EDGES, 47])
def test_trace_stopping_at_a_chunk_edge_takes_one_norm_call_per_chunk(monkeypatch, steps):
    p, x, m = _instance(4)
    eps = _eps_stopping_at(steps)
    calls = _counted_norms(monkeypatch)
    trace = zabreiko_decompose(p, x, m, 1.0, eps, 1000)
    assert (trace.n_steps, trace.capped) == (steps, False)
    assert len(calls) == -(-steps // _CHUNK_STEPS)
    assert all(shape[:2] == (2, _CHUNK_STEPS) for shape in calls[:-1])
    if steps == 47:
        assert len(calls) <= 3
    assert dumps(trace.to_json_dict()) == oracle_dumps(oracle_zabreiko(p, x, m, 1.0, eps, 1000))


@pytest.mark.parametrize("case, steps", [("ci-49", 49), ("x-zero", 1), ("long", LONG_STEPS)])
def test_the_schedule_is_built_one_chunk_at_a_time(monkeypatch, case, steps):
    # the loop builds the epsilons and pitches of a chunk of steps when it
    # reaches that chunk, so a trace builds no more than its chunks' steps,
    # not min(max_n, 2099): 64 for a 49-step trace of max_n 1000, 16 for x = 0
    x4 = BCVector([0.5 + 0.1j, -0.3 + 0.2j, 0.1 - 0.4j, 0.2 + 0.3j], [-0.2 + 0.4j, 0.3 + 0.1j, 0.5 - 0.1j, -0.1 + 0.2j])
    args = {
        "ci-49": (DSeminorm(BCMatrix.identity(4)), x4, DPlus(3.0, 3.0), 1.0, DPlus(1.0, 1.0), 1000),
        "x-zero": (DSeminorm(BCMatrix.identity(4)), x4.scale(0.0), DPlus(3.0, 3.0), 1.0, DPlus(1.0, 1.0), 1000),
        "long": (*_long_instance(), 10**12),
    }[case]
    built, real = [], theoremlab._schedule

    def counting(prev, ratio, r, denom, n, start=0):
        built.append((start, n))
        return real(prev, ratio, r, denom, n, start)

    monkeypatch.setattr(theoremlab, "_schedule", counting)
    trace = zabreiko_decompose(*args)
    chunks = -(-steps // _CHUNK_STEPS)
    assert (trace.n_steps, trace.capped) == (steps, False)
    assert built == [(k * _CHUNK_STEPS, _CHUNK_STEPS) for k in range(chunks)]
    monkeypatch.setattr(theoremlab, "_schedule", real)
    assert dumps(trace.to_json_dict()) == oracle_dumps(oracle_zabreiko(*args))


def _sign_cases():
    for key in range(5, 45):
        yield f"desk-{key}", (*desk_zabreiko_instance(key), 1.0, DPlus(1.0, 1.0), 1000)
    # the CI's 49-step trace of the identity
    x4 = BCVector([0.5 + 0.1j, -0.3 + 0.2j, 0.1 - 0.4j, 0.2 + 0.3j], [-0.2 + 0.4j, 0.3 + 0.1j, 0.5 - 0.1j, -0.1 + 0.2j])
    yield "ci-49", (DSeminorm(BCMatrix.identity(4)), x4, DPlus(3.0, 3.0), 1.0, DPlus(1.0, 1.0), 1000)
    yield "long", (*_long_instance(), 10**12)
    # a negative zero in x stays in every remainder, as no term moves it
    xz = BCVector([0.5 + 0.1j, complex(-0.0, 0.2), -0.0, 0.2 + 0.3j], [-0.2 + 0.4j, 0.3 + 0.1j, 0.5 - 0.1j, -0.1 + 0.2j])
    yield "x-with-negative-zeros", (DSeminorm(BCMatrix.identity(4)), xz, DPlus(3.0, 3.0), 1.0, DPlus(1.0, 1.0), 1000)


def test_term_zeros_are_positive_and_remainder_zeros_keep_the_sign_of_x():
    steps = {}
    for name, (p, x, m, r, eps, max_n) in _sign_cases():
        trace = zabreiko_decompose(p, x, m, r, eps, max_n)
        steps[name] = trace.n_steps
        e = trace.epsilons.array
        pitch = np.minimum(e[:, 1:], e[:, :-1]) * r / (2.0 * math.sqrt(x.dim))
        terms, rems = trace.x_terms.array.view(float), trace.remainders.array.view(float)
        live = (pitch > 0.0)[:, :, None]
        assert not (np.signbit(terms) & (terms == 0) & live).any(), name
        negative_zero = np.signbit(rems) & (rems == 0)
        xv = x.v.view(float)
        assert not (negative_zero & ~np.signbit(xv)[:, None]).any(), name
        if name == "x-with-negative-zeros":
            assert (negative_zero == (np.signbit(xv) & (xv == 0))[:, None]).all()
    assert (steps["ci-49"], steps["long"]) == (49, LONG_STEPS)


# ----------------------------------------------------------------- series


def _report_outcome(run):
    try:
        report = run()
    except NotConverged as exc:
        return "NotConverged", str(exc), dumps(exc.report.to_json_dict())
    except Exception as exc:  # the same exception is part of the contract
        return type(exc).__name__, str(exc)
    return "ok", dumps(report.to_json_dict())


def assert_series_matches_oracle(make_terms, tol=1e-12, max_n=200):
    """``make_terms()`` gives a fresh iterable for each implementation."""
    got = _report_outcome(lambda: series_sum(make_terms(), tol, max_n))
    assert got == _report_outcome(lambda: oracle_series_sum(make_terms(), tol, max_n))
    return got


def _raw_vector(v1, v2) -> BCVector:
    """A vector built around the constructor's finiteness check."""
    v = BCVector.__new__(BCVector)
    object.__setattr__(v, "v", np.array([v1, v2], dtype=complex))
    return v


def _failing_after(terms, exc):
    yield from terms
    raise exc


SPECIAL_ENTRIES = np.array([0.0, -0.0, 5e-324, 1e-160])
HUGE_ENTRIES = np.array([1.3e154, -1.3e154, 1e200, 1.7976931348623157e308])


@st.composite
def series_cases(draw):
    """Term lists that settle, run to the cap, end early, overflow or change dim.

    Hypothesis picks the shape, the tolerance and where a list ends, changes
    dimension or holds a huge term; the entries come from a seeded generator.
    """
    dim = draw(st.integers(1, 3))
    decay = draw(st.sampled_from([1.0, 0.9, 0.5, 1e-3, 0.0]))
    events = draw(st.dictionaries(st.integers(0, 79), st.sampled_from(["end", "dim", "huge"]), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for k in range(draw(st.integers(0, 80))):
        event = events.get(k)
        if event == "end":
            terms.append(None)  # ends the series like an exhausted iterator
            continue
        shape = (2, 2, dim + 1 if event == "dim" else dim)  # (re/im, e1/e2, entries)
        parts = rng.uniform(-2.0, 2.0, shape)
        special = rng.random(shape) < 0.2
        parts[special] = rng.choice(SPECIAL_ENTRIES, special.sum())
        if event == "huge":
            parts = rng.choice(HUGE_ENTRIES, shape)
        z = np.empty(shape[1:], dtype=complex)
        z.real, z.imag = parts
        with np.errstate(under="ignore"):
            terms.append(BCVector(*(z * decay ** min(k, 2000))))
    tols = st.sampled_from([1e-300, 1e-12, 1e-3, 1.0, 1e300])
    tol = DPlus(draw(tols), draw(tols))
    return terms, tol, draw(st.integers(1, 100))


@settings(max_examples=300, deadline=None)
@given(series_cases(), st.booleans())
def test_series_sum_matches_term_loop(case, as_iterator):
    terms, tol, max_n = case
    make = (lambda: iter(list(terms))) if as_iterator else (lambda: list(terms))
    assert_series_matches_oracle(make, tol, max_n)


@settings(max_examples=300, deadline=None)
@given(series_cases(), st.booleans())
def test_abs_summability_matches_term_loop(case, as_iterator):
    terms, tol, max_n = case
    make = (lambda: iter(list(terms))) if as_iterator else (lambda: list(terms))
    got = _report_outcome(lambda: abs_summability_check(make(), max_n, tol))
    assert got == _report_outcome(lambda: oracle_abs_summability(make(), max_n, tol))


def test_series_sum_geometric_generators():
    x0 = BCVector([1.0, -0.0, 2 - 1j], [0.5j, 1e-3, -0.0])
    kinds = set()
    for ratio in ((0.5, 0.25), (0.9j, -0.95), (0.999, 0.5), (1.0, 0.5), (1.5, 0.1), (0.0, 0.0)):
        for max_n in (1, 2, 31, 32, 33, 200, 1000, 3000):  # chunks stop growing at 1024
            outcome = assert_series_matches_oracle(
                lambda: geometric_terms(Bicomplex(*ratio), x0), DPlus(1e-12, 1e-9), max_n
            )
            kinds.add(outcome[0])
    assert kinds == {"ok", "NotConverged", "InvalidInput"}  # 1.5^k overflows before 1000 terms


def test_series_sum_edge_cases():
    one = BCVector([1.0, -0.0], [-0.0, 2.0])
    big = BCVector([1.3e154, 0.0], [0.0, 0.0])
    tiny = BCVector([1e-20, 0.0], [0.0, 1e-20])
    cases = {
        "empty": lambda: [],
        "empty iterator": lambda: iter(()),
        "none first": lambda: [None, one],
        "one term keeps -0.0": lambda: [one],
        "dim mismatch at 1": lambda: [one, BCVector([1.0], [1.0])],
        "dim mismatch at 40": lambda: [one] * 40 + [BCVector([1.0], [1.0])],
        "dim mismatch after settling": lambda: [one, tiny, tiny, tiny, BCVector([1.0], [1.0])],
        "ends at the cap": lambda: [one] * 64,
        "one past the cap": lambda: [one] * 65,
        "term norm overflow first": lambda: [BCVector([1e200, 0.0], [0.0, 0.0])],
        "term norm overflow in e2": lambda: [one] * 33 + [BCVector([0.0, 0.0], [1e200, 0.0])],
        "partial-sum norm overflow": lambda: [one, big, big],
        "overflow after settling": lambda: [one, tiny, tiny, tiny, big, big],
        "non-finite e1 partial sum": lambda: [one, _raw_vector([np.inf, 0], [0, 0])],
        "non-finite e2 partial sum": lambda: [one, _raw_vector([0, 0], [np.nan, 0])],
        "non-finite first term": lambda: [_raw_vector([np.inf, 0], [0, 0])],
        "non-finite sum opening a chunk": lambda: [one] * 32 + [_raw_vector([np.inf, 0], [0, 0])],
        "raises at once": lambda: _failing_after([], RuntimeError("no terms")),
        "raises before settling": lambda: _failing_after([one] * 40, ValueError("term 40")),
        "raises after settling": lambda: _failing_after([one, tiny, tiny, tiny], ValueError("late")),
        "raises after the cap": lambda: _failing_after([one] * 64, ValueError("past the cap")),
    }
    outcomes = {name: assert_series_matches_oracle(make, 1e-12, 64) for name, make in cases.items()}
    assert outcomes["empty"] == ("InvalidInput", "empty series")
    assert outcomes["dim mismatch at 40"] == ("DimensionMismatch", "term 40 has dim 1, expected 2")
    assert outcomes["ends at the cap"][0] == "ok"
    assert outcomes["one past the cap"][:2] == ("NotConverged", "series not converged after 64 terms")
    assert outcomes["partial-sum norm overflow"] == ("InvalidInput", "non-finite component inf rejected")
    assert outcomes["non-finite e1 partial sum"] == ("InvalidInput", "e1 component contains non-finite entries")
    assert outcomes["non-finite e2 partial sum"] == ("InvalidInput", "e2 component contains non-finite entries")
    assert outcomes["non-finite sum opening a chunk"] == outcomes["non-finite e1 partial sum"]
    assert outcomes["raises before settling"] == ("ValueError", "term 40")
    assert outcomes["raises after the cap"] == ("ValueError", "past the cap")
    for name in ("dim mismatch after settling", "overflow after settling", "raises after settling"):
        assert outcomes[name][0] == "ok", name
    assert '"limit":{"dim":2,"e1":[[1.0,0.0],[-0.0,0.0]]' in outcomes["one term keeps -0.0"][1]
    # a tail equal to the tolerance settles the series
    half = BCVector([0.5], [0.5j])
    settled = assert_series_matches_oracle(lambda: [half] * 10, DPlus(1.5, 1.5), 64)
    assert settled[0] == "ok" and '"n_terms":3,' in settled[1]


IDENTITY_1 = DSeminorm(BCMatrix.identity(1))

#: the three readers of a series' terms, each at the default tolerance 1e-12
CONSUMERS = {
    "series_sum": lambda terms, max_n: series_sum(terms, 1e-12, max_n),
    "abs_summability_check": abs_summability_check,
    "countable_subadd_check": lambda terms, max_n: countable_subadd_check(IDENTITY_1, terms, max_n),
}


def _counted(pulled: list, ratio: float):
    """x_k = ratio^k (1, 1) in BC^1, recording each pull in ``pulled``."""
    for k in itertools.count():
        pulled.append(k)
        yield BCVector([ratio**k], [ratio**k])


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_series_sum_pulls_at_most_the_cap_plus_one(consumer):
    run, reads_to_cap = CONSUMERS[consumer], consumer == "abs_summability_check"
    pulled = []
    if reads_to_cap:
        assert not run(_counted(pulled, 1.0), 5).abs_converged
    else:
        with pytest.raises(NotConverged):
            run(_counted(pulled, 1.0), 5)
    assert pulled == list(range(6))  # the cap, plus one pull to see whether it ended
    # ratio 1/4 settles at term 24 (21 * 4^-23 <= 1e-12): series_sum and
    # subadd stop with the first chunk of 32 terms, the abs check reads on
    pulled = []
    assert run(_counted(pulled, 0.25), 100).n_terms == (100 if reads_to_cap else 24)
    assert len(pulled) == (101 if reads_to_cap else 32)


def test_subadd_memory_does_not_scale_with_max_n():
    x0 = BCVector([0.5, -1.0, 0.25j, 2.0], [1.0, 0.5, -0.5, 1j])
    p = DSeminorm(BCMatrix.identity(4))
    peaks, reports = [], []
    for max_n in (100, 100, 65536):  # the first run warms the caches
        terms = geometric_terms(Bicomplex(0.5, 0.25), x0)
        tracemalloc.start()
        try:
            reports.append(dumps(countable_subadd_check(p, terms, max_n).to_json_dict()))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert reports[0] == reports[1] == reports[2]
    # equal up to the interpreter's bookkeeping (a few hundred bytes); all
    # 65,537 dim-4 terms kept would take about 20 MB
    assert abs(peaks[2] - peaks[1]) < 4096


def test_subadd_reports_match_the_term_loop():
    rng = np.random.default_rng(41)
    for n in (1, 4):
        p = DSeminorm(random_mat(rng, n, n))
        x0 = random_vec(rng, n)
        for ratio, max_n in (((0.5, 0.3j), 200), ((0.95, -0.9), 200), ((0.9, 0.9), 40)):
            terms = list(islice(geometric_terms(Bicomplex(*ratio), x0), 300))
            for cap in (max_n, len(terms)):
                got = _report_outcome(lambda: countable_subadd_check(p, terms, cap))
                assert got == _report_outcome(lambda: oracle_subadd(p, terms, cap)), (n, ratio, cap)


def test_cli_series_envelope_matches_the_term_loop(tmp_path, capsys, monkeypatch):
    specs = [
        {"kind": "geometric", "ratio": {"e1": [0.5, 0], "e2": [0.25, 0.1]},
         "seed_vector": {"dim": 2, "e1": [[1, 0], [-0.0, 2]], "e2": [[1, 0], [0, -1]]}},
        {"kind": "geometric", "ratio": {"e1": [1.0, 0], "e2": [1.0, 0]},
         "seed_vector": {"dim": 1, "e1": [[1, 0]], "e2": [[1, 0]]}},
        [{"dim": 1, "e1": [[1, 0]], "e2": [[2, 0]]}, {"dim": 1, "e1": [[1e200, 0]], "e2": [[0, 0]]}],
        [{"dim": 1, "e1": [[1, 0]], "e2": [[2, 0]]}, {"dim": 2, "e1": [[1, 0], [0, 0]], "e2": [[0, 0], [0, 0]]}],
    ]
    for k, spec in enumerate(specs):
        path = tmp_path / f"terms{k}.json"
        path.write_text(dumps(spec))
        for max_n in ("1", "10", "300"):
            argv = ["series", "--terms", str(path), "--maxN", max_n]
            outs = []
            for fn in (series_sum, oracle_series_sum):
                monkeypatch.setattr(cli, "series_sum", fn)
                code = cli.run(argv)
                outs.append((code, capsys.readouterr().out))
            assert outs[0] == outs[1]
