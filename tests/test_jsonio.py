"""JSON schemas, emission that reads back bit for bit, digests, and literals."""

import copy
import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hyplab import BCMatrix, BCVector, Bicomplex, DPlus, Hyperbolic, HyplabError, InvalidInput
from hyplab.jsonio import (
    MAX_DEPTH,
    _complex_array,
    digest,
    dumps,
    load_json,
    matrix_to_json,
    parse_hyp_literal,
    parse_matrix,
    parse_scalar,
    parse_series,
    parse_vector,
    scalar_to_json,
    vector_to_json,
)
from support import (
    oracle_digest, oracle_dumps, oracle_parse_matrix, oracle_parse_vector, pairs_record, random_mat, random_vec,
)


# ------------------------------------------------------------------ scalars


def test_scalar_three_forms_agree():
    # k in all three encodings
    idem = parse_scalar({"e1": [1, 0], "e2": [-1, 0]})
    cart = parse_scalar({"w": [0, 0, 0, 1]})
    hyp = parse_scalar({"h": [0, 1]})
    for z in (cart, hyp):
        assert z.z1 == idem.z1 and z.z2 == idem.z2


def test_scalar_cartesian_general():
    z = parse_scalar({"w": [1.0, 2.0, 3.0, 4.0]})
    w1, w2 = z.to_cartesian()
    assert w1 == complex(1, 2) and w2 == complex(3, 4)


def test_scalar_emission_idempotent_default():
    z = Bicomplex(complex(1, 2), complex(3, -4))
    d = scalar_to_json(z)
    assert d == {"e1": [1.0, 2.0], "e2": [3.0, -4.0]}
    back = parse_scalar(d)
    assert back.z1 == z.z1 and back.z2 == z.z2


def test_scalar_emission_cartesian():
    z = Bicomplex(2.0, 3.0)
    d = scalar_to_json(z, "cartesian")
    assert d["w"][0] == 2.5  # b1 = (a1+a2)/2
    back = parse_scalar(d)
    assert abs(back.z1 - 2.0) < 1e-15 and abs(back.z2 - 3.0) < 1e-15


def test_scalar_hyperbolic_value_emitted_as_scalar():
    d = scalar_to_json(DPlus(2.0, 3.0))
    assert d == {"e1": [2.0, 0.0], "e2": [3.0, 0.0]}


def test_scalar_bad_forms():
    with pytest.raises(InvalidInput):
        parse_scalar({"e1": [1, 0]})
    with pytest.raises(InvalidInput):
        parse_scalar({"w": [1, 2, 3]})
    with pytest.raises(InvalidInput):
        parse_scalar([1, 2])
    with pytest.raises(InvalidInput):
        parse_scalar({"h": [1, True]})
    with pytest.raises(InvalidInput, match=r"^hyperbolic scalar must be \[b1, b2\], got \[1\]$"):
        parse_scalar({"h": [1]})


def test_scalar_emission_unknown_form():
    with pytest.raises(InvalidInput, match="^unknown scalar form 'polar'$"):
        scalar_to_json(Bicomplex(1.0, 2.0), "polar")


# ---------------------------------------------------------- vectors/matrices


def test_vector_round_trip():
    rng = np.random.default_rng(1)
    v = random_vec(rng, 5)
    d = vector_to_json(v)
    assert d["dim"] == 5
    back = parse_vector(d)
    assert np.array_equal(back.v1, v.v1) and np.array_equal(back.v2, v.v2)


def test_vector_dim_declared_mismatch():
    with pytest.raises(InvalidInput):
        parse_vector({"dim": 3, "e1": [[1, 0]], "e2": [[1, 0]]})


def test_vector_components_must_be_lists():
    with pytest.raises(InvalidInput, match=r"^vector e1 must be a list of \[re, im\] pairs$"):
        parse_vector({"e1": {"re": 1}, "e2": [[1, 0]]})


def test_matrix_round_trip():
    rng = np.random.default_rng(2)
    T = random_mat(rng, 3, 4)
    back = parse_matrix(matrix_to_json(T))
    assert np.array_equal(back.m1, T.m1) and np.array_equal(back.m2, T.m2)


def test_matrix_cartesian_form():
    # single entry k: w = [0,0,0,1] -> components (1, -1)
    T = parse_matrix({"w": [[[0, 0, 0, 1]]]})
    assert T.m1[0, 0] == 1.0 and T.m2[0, 0] == -1.0
    # identity in cartesian form
    T2 = parse_matrix({"w": [[[1, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [1, 0, 0, 0]]]})
    assert np.array_equal(T2.m1, np.eye(2)) and np.array_equal(T2.m2, np.eye(2))


def test_matrix_shape_declared_mismatch():
    good = matrix_to_json(BCMatrix.identity(2))
    bad = dict(good)
    bad["rows"] = 3
    with pytest.raises(InvalidInput):
        parse_matrix(bad)


# ------------------------------------------------------------------- series


def test_series_array():
    rng = np.random.default_rng(3)
    terms = [vector_to_json(random_vec(rng, 2)) for _ in range(4)]
    parsed = parse_series(terms)
    assert isinstance(parsed, list) and len(parsed) == 4


def test_series_geometric_spec():
    spec = {
        "kind": "geometric",
        "ratio": {"e1": [0.5, 0], "e2": [0.25, 0]},
        "seed_vector": {"dim": 1, "e1": [[1, 0]], "e2": [[1, 0]]},
    }
    gen = parse_series(spec)
    t0 = next(gen)
    t1 = next(gen)
    assert t0.v1[0] == 1.0 and t1.v1[0] == 0.5 and t1.v2[0] == 0.25


def test_series_bad_spec():
    with pytest.raises(InvalidInput):
        parse_series({"kind": "geometric"})
    with pytest.raises(InvalidInput):
        parse_series([])
    with pytest.raises(InvalidInput):
        parse_series("nope")


# ------------------------------------------------------- emission and digest


def test_dumps_shapes():
    doc = {"a": 1, "b": [0.5, True, None, "s"], "c": {"k": 2.0}}
    assert dumps(doc) == '{"a":1,"b":[0.5,true,null,"s"],"c":{"k":2.0}}'


def test_dumps_preserves_insertion_order():
    assert dumps({"b": 1, "a": 2}) == '{"b":1,"a":2}'


def test_float_round_trip_through_dumps():
    rng = np.random.default_rng(4)
    vals = list(rng.standard_normal(200)) + [1e-308, 1e300, -0.0]
    text = dumps(vals)
    back = json.loads(text)
    for x, y in zip(vals, back):
        assert float(x) == float(y)


#: doubles that 17 significant digits wrote as ints or bloated: signed
#: zero, the smallest subnormal and normal, the largest double and
#: integral values
_EXACT_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
     2.0, -3.0, 2.0**53, 1e22]
)
_ROUND_TRIP_DOCS = st.recursive(
    st.one_of(
        _EXACT_FLOATS, st.integers(), st.booleans(), st.none(), st.text(max_size=4),
        _EXACT_FLOATS.map(np.float64), st.integers(-(2**63), 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)


def _typed_bits(x):
    """A document as the JSON values it stands for, each float as its bits."""
    if isinstance(x, dict):
        return {k: _typed_bits(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_typed_bits(v) for v in x]
    if isinstance(x, (float, np.float64)):
        return "float", struct.pack("<d", x)
    if isinstance(x, np.bool_):
        return "bool", bool(x)
    if isinstance(x, np.int64):
        return "int", int(x)
    return type(x).__name__, x


@settings(max_examples=300, deadline=None)
@given(_ROUND_TRIP_DOCS)
def test_dumps_reads_back_the_same_types_and_float_bits(doc):
    assert _typed_bits(json.loads(dumps(doc))) == _typed_bits(doc)


def test_digest_stability_and_sensitivity():
    a = {"x": [1.0, 2.0], "y": "s"}
    assert digest(a) == digest({"x": [1.0, 2.0], "y": "s"})
    assert digest(a) != digest({"x": [1.0, 2.000001], "y": "s"})


@pytest.mark.parametrize("cls", [Hyperbolic, DPlus])
def test_digest_refuses_hyperbolic_values_alike(cls):
    # no input is digested as a built hyperbolic value: a literal is digested
    # as its float pair, so a Hyperbolic and its cone subtype are refused alike
    with pytest.raises(InvalidInput, match=f"^cannot serialize {cls.__name__}$"):
        digest({"a": cls(1.0, 2.0)})


class _Subclass(np.ndarray):
    pass


#: finite doubles, with the signed zero, subnormals and values near the float limit
EDGE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308, 0.1]
)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5).map(lambda s: (*s, 2)),
              elements=EDGE_FLOATS))
def test_digest_hashes_complex_arrays_from_their_bytes(pairs):
    z = pairs.view(complex)[..., 0]
    doc = {"k": [z, {"e1": z.T, "e2": z}], "s": 0.5}
    assert digest(doc) == oracle_digest(doc)
    want = {"k": [pairs_record(pairs), {"e1": pairs_record(pairs.swapaxes(0, -2)), "e2": pairs_record(pairs)}],
            "s": 0.5}
    assert digest(doc) == hashlib.sha256(oracle_dumps(want).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "a, b",
    [(np.array([0j]), np.array([complex(-0.0, 0.0)])), (np.array([0j]), np.array([complex(0.0, -0.0)])),
     (np.array([[1, 2j]]), np.array([[1], [2j]])), (np.array([1, 2j]), np.array([[1, 2j]])),
     (np.zeros((0, 2), complex), np.zeros((2, 0), complex))],
    ids=["signed-zero-re", "signed-zero-im", "1x2-vs-2x1", "vector-vs-1x2", "empty-shapes"],
)
def test_digest_tells_apart_arrays_that_differ_in_bits_or_shape(a, b):
    assert digest({"k": a}) != digest({"k": b})
    assert digest({"k": a}) == digest({"k": a.copy()})


def test_float64_array_is_not_serialized():
    with pytest.raises(InvalidInput, match="^cannot serialize ndarray$"):
        dumps(np.zeros(2))


@pytest.mark.parametrize(
    "a",
    [np.array(1.5), np.zeros(3, np.float32), np.zeros(3, int), np.zeros(3, bool), np.zeros(2, complex),
     np.array([1.0, "x"], dtype=object), np.array([0.5, 1.5]).astype(">f8"), np.zeros(2).view(_Subclass)],
    ids=["0-d", "float32", "int", "bool", "complex", "object", "big-endian", "subclass"],
)
def test_other_arrays_are_not_serialized(a):
    with pytest.raises(InvalidInput, match=f"^cannot serialize {type(a).__name__}$"):
        dumps(a)
    with pytest.raises(InvalidInput, match="^cannot serialize"):
        dumps({"k": [a]})


# ----------------------------------------------------------------- literals


def _same_pair(h, a1, a2):
    return type(h) is tuple and all(type(v) is float for v in h) and h == (a1, a2)


def test_hyp_literal_pair():
    assert _same_pair(parse_hyp_literal("2,3"), 2.0, 3.0)
    assert _same_pair(parse_hyp_literal("1e-9, 2e-9"), 1e-9, 2e-9)


def test_hyp_literal_single():
    assert _same_pair(parse_hyp_literal("0.5"), 0.5, 0.5)


def test_hyp_literal_bad():
    with pytest.raises(InvalidInput):
        parse_hyp_literal("a,b")
    with pytest.raises(InvalidInput):
        parse_hyp_literal("1,2,3")
    # the whole plane reads: the routine that takes the value judges its sign
    assert _same_pair(parse_hyp_literal("-1,2"), -1.0, 2.0)
    # and so do non-finite values, which the CLI refuses after the digest
    assert _same_pair(parse_hyp_literal("inf, -inf"), math.inf, -math.inf)
    assert all(map(math.isnan, parse_hyp_literal("nan")))


def test_load_json_missing_file(tmp_path):
    with pytest.raises(InvalidInput):
        load_json(str(tmp_path / "nope.json"))


def test_load_json_bad_content(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    with pytest.raises(InvalidInput):
        load_json(str(f))


def test_load_json_nesting_limit(tmp_path):
    f = tmp_path / "deep.json"
    family = [matrix_to_json(BCMatrix.identity(2))] * 2  # the deepest input: 5 levels
    f.write_text(dumps(family))
    assert load_json(str(f)) == family
    for depth, ok in ((MAX_DEPTH, True), (MAX_DEPTH + 1, False), (3 * MAX_DEPTH, False)):
        f.write_text("[" * (depth - 1) + '{"k":1}' + "]" * (depth - 1))
        if ok:
            assert dumps(load_json(str(f))) == f.read_text()
        else:
            with pytest.raises(InvalidInput, match=f"nested deeper than {MAX_DEPTH} levels"):
                load_json(str(f))
    f.write_text('{"a": [1, {"b": [[]]}], "c": 2}')
    assert load_json(str(f)) == {"a": [1, {"b": [[]]}], "c": 2}


# ------------------------------------------------- array-speed parse vs oracle

#: finite numbers as json.load gives them
_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70))
#: what a pair must not hold, and NaN and +-Infinity tokens; each draw is
#: a fresh copy, because ``_entries`` may later edit a list it inserted
_ODD = st.one_of(
    st.sampled_from([True, False, None]),
    st.sampled_from(["1", "1.5", "NaN", "", {}, [1.0, 2.0]]).map(copy.deepcopy),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
#: numbers at the edges of the float range and of exact integers
_EDGE = st.sampled_from(
    [-0.0, 5e-324, 2**53 + 1, -(2**63) - 1, 10**308, 10**309, -(10**400), 2**1024 - 2**970 - 1]
)
_LENGTH = st.sampled_from((1, 2, 3, 0))
_SIZE = st.sampled_from(["2", 2.0, 2.5, None, True, [2], -1, 0, 1, 3, 10**30])


@st.composite
def _entries(draw, shape, width=2, number=_NUMBER):
    """Nested lists of entries of ``width`` numbers ([re, im] pairs by
    default) in ``shape``, then up to three changes: a number replaced by an
    odd value or an edge number, an element added to or dropped from a list
    (a short or long entry, a ragged or empty row), or a list turned into a
    tuple."""
    def build(dims):
        if not dims:
            return [draw(number) for _ in range(width)]
        return [build(dims[1:]) for _ in range(dims[0])]

    x = build(shape)
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
        lists, stack = [], [x]
        while stack:
            c = stack.pop()
            lists.append(c)
            stack.extend(e for e in c if type(e) is list)
        op = draw(st.sampled_from(["odd", "edge", "add", "drop", "tuple"]))
        if op in ("odd", "edge"):  # a number of some pair
            lists = [c for c in lists if c and not any(type(e) is list for e in c)] or lists
        c = lists[draw(st.integers(0, len(lists) - 1))]
        i = draw(st.integers(0, max(len(c) - 1, 0)))
        if op == "add":
            c.insert(i, draw(st.one_of(_NUMBER, _ODD)))
        elif c and op in ("odd", "edge"):
            c[i] = draw(_ODD if op == "odd" else _EDGE)
        elif c and op == "drop":
            del c[i]
        elif c and type(c[i]) is list:
            c[i] = tuple(c[i])
    return x


@st.composite
def _docs(draw, keys):
    """A vector (keys ("dim",)) or matrix (keys ("rows", "cols")) document;
    e2 sometimes has another shape, and a declared size may be wrong."""
    shape = [draw(_LENGTH) for _ in keys]
    doc = {"e1": draw(_entries(shape))}
    doc["e2"] = draw(_entries(shape if draw(st.booleans()) else [draw(_LENGTH) for _ in keys]))
    for key, size in zip(keys, shape):
        if draw(st.booleans()):
            doc[key] = draw(st.one_of(st.just(size), _SIZE))
    return doc


def _outcome(parse, doc):
    """The parsed components' bits and shapes, or the error's class and message."""
    try:
        value = parse(doc)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    arrays = (value.v1, value.v2) if isinstance(value, BCVector) else (value.m1, value.m2)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=300, deadline=None)
@given(doc=_docs(("dim",)))
def test_parse_vector_matches_the_per_entry_oracle(doc):
    assert _outcome(parse_vector, doc) == _outcome(oracle_parse_vector, doc)
    _refused_only_where_the_oracle_raises(doc, 1, oracle_parse_vector)


@settings(max_examples=300, deadline=None)
@given(doc=_docs(("rows", "cols")))
def test_parse_matrix_matches_the_per_entry_oracle(doc):
    assert _outcome(parse_matrix, doc) == _outcome(oracle_parse_matrix, doc)
    _refused_only_where_the_oracle_raises(doc, 2, oracle_parse_matrix)


#: cartesian coefficients: signed zeros often, so that every sign case of
#: 0*c - d and 0*d + c comes up, and magnitudes whose sums overflow
_W_NUMBER = st.one_of(_NUMBER, st.sampled_from([0.0, -0.0, 1e308, -1e308]))


@st.composite
def _cartesian_docs(draw):
    """A cartesian matrix document, perhaps with a wrong declared size."""
    shape = [draw(_LENGTH), draw(_LENGTH)]
    doc = {"w": draw(_entries(shape, 4, _W_NUMBER))}
    for key, size in zip(("rows", "cols"), shape):
        if draw(st.booleans()):
            doc[key] = draw(st.one_of(st.just(size), _SIZE))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_cartesian_docs())
def test_parse_cartesian_matrix_matches_the_per_entry_oracle(doc):
    assert _outcome(parse_matrix, doc) == _outcome(oracle_parse_matrix, doc)
    if isinstance(doc["w"], list) and _complex_array(doc["w"], 2, width=4) is None:
        with pytest.raises(HyplabError):  # the array route is no filter of its own
            oracle_parse_matrix({"w": doc["w"]})


def test_cartesian_signed_zeros_match_from_reals():
    signs = [0.0, -0.0]
    entries = [[a, b, c, d] for a in signs for b in signs for c in signs for d in signs]
    doc = {"w": [entries, [[a, b, -c, d] for a, b, c, d in entries]]}
    assert _outcome(parse_matrix, doc) == _outcome(oracle_parse_matrix, doc)


def test_parse_cartesian_matrix_keeps_the_bits_at_64x128():
    z = np.random.default_rng(20).standard_normal((64, 128, 4)) * 10.0 ** np.arange(-3, 5, 2)
    doc = {"w": z.tolist()}
    assert _outcome(parse_matrix, doc) == _outcome(oracle_parse_matrix, doc)


@pytest.mark.parametrize(
    "entry",
    [[True, 0.0, 0.0, 0.0], [1.0, "2", 0.0, 0.0], [None, 1.0, 0.0, 0.0], [1.0, 2.0, 3.0], [1.0] * 5,
     (1.0, 2, 3, 4), 7, [10**309, 0, 0, 0], [1e308, 0, 0, -1e308], [0, 1e308, -1e308, 0],
     [-1e308, 0, 0, -1e308], [math.nan, 0, 0, 0], [2**53 + 1, -0.0, 0, -0.0]],
)
def test_parse_cartesian_odd_entries_match_the_oracle(entry):
    for doc in ({"w": [[entry, [1.0, 0.0, 0.0, 0.0]]]},
                {"w": [[[1.0, 0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0, 0.0], entry]]},
                {"w": [[[1e308, 0, 0, 1e308], entry]]}):
        assert _outcome(parse_matrix, doc) == _outcome(oracle_parse_matrix, doc)


def _refused_only_where_the_oracle_raises(doc, depth, oracle):
    """The array route is no filter of its own: what it refuses, the
    per-entry reading cannot read either."""
    for key in ("e1", "e2"):
        if _complex_array(doc[key], depth) is None:
            with pytest.raises(HyplabError):
                oracle({"e1": doc[key], "e2": doc[key]})


@pytest.mark.parametrize(
    "entry",
    [[True, 0.0], [1.0, "2"], [None, 1.0], [1.0], [1.0, 2.0, 3.0], (1.0, 2), 7, [10**309, 0],
     [2**53 + 1, -0.0]],
)
def test_parse_matrix_odd_entries_match_the_oracle(entry):
    for doc in ({"e1": [[entry, [1.0, 0.0]]], "e2": [[[0.5, 0.5], [1.0, 0.0]]]},
                {"e1": [[[1.0, 0.0]], [[1.0, 0.0], entry]], "e2": [[[1.0, 0.0]], [[1.0, 0.0], [0, 0]]]}):
        assert _outcome(parse_matrix, doc) == _outcome(oracle_parse_matrix, doc)
    vec = {"e1": [[1.0, -0.0], entry], "e2": [[0.0, 1.0], [2, 3]]}
    assert _outcome(parse_vector, vec) == _outcome(oracle_parse_vector, vec)


def test_parse_keeps_the_bits_of_complex():
    doc = {"e1": [[[-0.0, 0.0], [5e-324, -1e308]]], "e2": [[[0.1, -0.0], [2**53 + 1, -(2**64)]]]}
    T = parse_matrix(doc)
    want = ([[complex(-0.0, 0.0), complex(5e-324, -1e308)]],
            [[complex(0.1, -0.0), complex(2**53 + 1, -(2**64))]])
    for got, rows in zip((T.m1, T.m2), want):
        assert got.tobytes() == np.array(rows, dtype=complex).tobytes()
