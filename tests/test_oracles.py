"""Byte-level pins of emission and of the Zabreiko trace.

``dumps`` dispatches on exact types and formats float lists with templates;
``zabreiko_decompose`` runs its steps on blocks.  Both must print exactly
what the one-value-at-a-time references in ``support`` print.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplab import BCVector, DPlus, DSeminorm, InvalidInput, op_dnorm, vec_dnorm, zabreiko_decompose
from hyplab.jsonio import dumps

from support import oracle_dumps, oracle_zabreiko, random_mat, random_vec

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
    ],
)
def test_dumps_edge_values_match_oracle(obj):
    assert _outcome(dumps, obj) == _outcome(oracle_dumps, obj)


def test_dumps_rejects_as_before():
    with pytest.raises(InvalidInput, match="keys must be strings"):
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


CASES = {
    "cap1": lambda x: (x, DPlus(1.0, 1.0), 1),
    "cap7": lambda x: (x, DPlus(1.0, 1.0), 7),
    "uncapped": lambda x: (x, DPlus(1.0, 1.0), 1000),
    "zero": lambda x: (BCVector.zeros(x.dim), DPlus(1.0, 1.0), 50),
    "eps1e-300": lambda x: (x, DPlus(1e-300, 1e-300), 1000),
}


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_bytes_match_step_loop(n, case):
    p, x, m = _instance(n)
    x, eps, max_n = CASES[case](x)
    trace = zabreiko_decompose(p, x, m, 1.0, eps, max_n)
    want = oracle_dumps(oracle_zabreiko(p, x, m, 1.0, eps, max_n))
    assert dumps(trace.to_json_dict()) == want
    assert trace.n_steps == len(trace.x_terms) == len(trace.remainders) == len(trace.tail_bounds)
    assert len(trace.epsilons) == trace.n_steps + 1
    if case == "uncapped":
        assert not trace.capped and trace.n_steps < max_n


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
    assert trace.n_steps > 500
    assert peak < 5 * 2**20


def test_trace_blocks_are_read_only():
    p, x, m = _instance(4)
    trace = zabreiko_decompose(p, x, m, 1.0, DPlus(1.0, 1.0), 64)
    blocks = (trace.term_block, trace.remainder_block, trace.epsilon_block, trace.tail_block)
    for block in blocks:
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[(0,) * block.ndim] = 1.0
    assert trace.term_block.shape == trace.remainder_block.shape == (2, trace.n_steps, 4)
    # the lists hold copies of the blocks' rows
    first = trace.x_terms[0]
    assert np.array_equal(first.v1, trace.term_block[0, 0])
    assert not np.shares_memory(first.v1, trace.term_block)
    assert trace.x_terms[-1].v2.tolist() == trace.term_block[1, -1].tolist()
    assert [e.a1 for e in trace.epsilons[:2]] == trace.epsilon_block[0, :2].tolist()
