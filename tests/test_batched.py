"""Batched theorem checks: sample blocks, agreement with per-sample
evaluation, constant object counts, and tolerances that scale with the data."""

import math
import sys
import threading
import tracemalloc
import unittest.mock
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyplab.theoremlab as tl
from hyplab import (
    BCMatrix,
    BCVector,
    DPlus,
    DimensionMismatch,
    DSeminorm,
    HypothesisFailed,
    InvalidInput,
    ball_scaling_check,
    check_stream,
    continuity_bound_check,
    dnorm_rows,
    min_norm_solve,
    min_norm_solve_rows,
    op_dnorm,
    open_mapping_delta,
    open_mapping_verify,
    seminorm_eval,
    seminorm_rows,
    ubp_verify,
    vec_dnorm,
)
from hyplab.dmodule import _component_norms, seminorm_terms
from hyplab.jsonio import dumps
from support import one_matrix_svd, oracle_excess, oracle_ubp, random_mat, random_vec, surjective_mat


def close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, scale)


# ------------------------------------------------------------ sample blocks


def next_vector(rng, n):
    """The next vector of dim n of a stream: e1 re, e1 im, e2 re, e2 im."""
    v1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return BCVector(v1, v2)


def fold_rows(seed, name, count, n, lead=None):
    """The whole block ``_fold`` judges, joined from its chunks in order.

    Each chunk's first row must be the row of the whole block the judge is told.
    """
    chunks = []

    def judge(x, a):
        assert a == sum(c.shape[1] for c in chunks)
        chunks.append(x)
        return ()

    assert tl._fold(seed, name, count, n, judge, 4 * n, lead) == []
    return np.concatenate(chunks, axis=1)


def chunks_of_64():
    """Folds in chunks of 64 rows, the least a chunk takes."""
    return unittest.mock.patch.object(tl, "_CHUNK_FLOATS", 1)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_sample_block_rows_are_the_per_trial_streams(n):
    with chunks_of_64():
        b1, b2 = fold_rows(5, "lemma31", 150, n)
    rng = check_stream(5, "lemma31")
    for i in range(150):
        x = next_vector(rng, n)
        assert np.array_equal(b1[i], x.v1) and np.array_equal(b2[i], x.v2)


def _ball_blocks(monkeypatch, T, samples):
    """The blocks ``ball_scaling_check`` judges at r = 1, delta = 0.5: premise, then delta."""
    blocks = []
    real = tl.seminorm_rows
    with monkeypatch.context() as m:
        m.setattr(tl, "seminorm_rows", lambda p, x: blocks.append(x) or real(p, x))
        assert ball_scaling_check(DSeminorm(T), op_dnorm(T).M, 1.0, [0.5], samples, 9).passed
    half = len(blocks) // 2
    return np.concatenate(blocks[:half], axis=1), np.concatenate(blocks[half:], axis=1)


def test_second_vector_follows_in_the_same_stream_and_uniform_in_its_sibling(monkeypatch):
    n = 3
    z = check_stream(9, "x").standard_normal((6, 8 * n))
    rng = check_stream(9, "x")
    for i in range(6):
        first = next_vector(rng, n)
        second = next_vector(rng, n)
        for j, want in ((0, first), (1, second)):
            b1, b2 = tl._sample_rows(z, n, j)
            assert np.array_equal(b1[i], want.v1) and np.array_equal(b2[i], want.v2)

    # ballscale: the witnesses lead, scaled onto the sphere; sample i is row
    # i of its stream scaled to radius times uniform i of the "/u" sibling,
    # so it does not depend on the count or on the chunk it falls in
    T = random_mat(np.random.default_rng(3), 2, n)
    witnesses = tl._witness_rows(T)
    premise, scaled = _ball_blocks(monkeypatch, T, 6)
    for block, stream, radius in ((premise, "ballscale/hyp", 1.0), (scaled, "ballscale/d0", 0.5)):
        r = tl._sample_rows(check_stream(9, stream).standard_normal((6, 4 * n)), n)
        u = check_stream(9, stream + "/u").uniform(0.0, 1.0, 6)
        nr, nw = dnorm_rows(r), dnorm_rows(witnesses)
        want = np.concatenate((witnesses * (radius / np.maximum(nw[0], nw[1]))[:, None],
                               r * (radius * u / np.maximum(nr[0], nr[1]))[:, None]), axis=1)
        assert block.tobytes() == want.tobytes()
    for samples in (1, 4, 20, 200):
        with chunks_of_64():
            blocks = _ball_blocks(monkeypatch, T, samples)
        k = 3 + min(samples, 6)
        for got, want in zip(blocks, (premise, scaled)):
            assert got.shape[1] == 3 + samples and np.array_equal(got[:, :k], want[:, :k])


def _stream_rows(seed, name, count, width):
    """The next ``width`` normals of one stream per row, one row at a time."""
    rng = check_stream(seed, name)
    out = np.empty((count, width))
    for i in range(count):
        out[i] = rng.standard_normal(width)
    return out


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(-(2**70), 2**70) | st.sampled_from([-1, 0, 2**63, 2**64 - 1, 2**64]),
    name=st.text(max_size=8) | st.sampled_from(["lemma31/seq", "omt-verify", "ßallscale/δ", "ubp 検証"]),
    count=st.integers(1, 200),
    n=st.integers(1, 16),
    lead=st.integers(0, 3),
    chunks=st.sampled_from([1, 1 << 12, tl._CHUNK_FLOATS]),
)
@example(seed=-(2**63), name="é", count=200, n=16, lead=3, chunks=1)
def test_draws_rows_are_the_check_streams_bit_for_bit(seed, name, count, n, lead, chunks):
    """A folded block is its lead rows, then the stream's rows, in any chunks."""
    fixed = np.arange(2 * lead * n).reshape(2, lead, n) * (1 + 1j)
    with unittest.mock.patch.object(tl, "_CHUNK_FLOATS", chunks):
        got = fold_rows(seed, name, count, n, lead=fixed if lead else None)
    want = np.concatenate((fixed, tl._sample_rows(_stream_rows(seed, name, count, 4 * n), n)), axis=1)
    assert got.shape == want.shape == (2, lead + count, n)
    assert got.tobytes() == want.tobytes()


def test_stream_key_wraps_the_seed_at_64_bits():
    crc = zlib.crc32("lemma31".encode())
    assert tl._stream_key(7, "lemma31") == (7, crc << 32)
    assert tl._stream_key(-1, "lemma31") == (2**64 - 1, crc << 32)
    assert tl._stream_key(5, "") == (5, 0)
    want = np.random.Generator(np.random.Philox(key=np.array([7, crc << 32], dtype=np.uint64)))
    assert check_stream(7, "lemma31").standard_normal(4).tobytes() == want.standard_normal(4).tobytes()
    for seed in (2**64 + 7, 7 - 2**64, 3 * 2**64 + 7, 2**80 + 7):
        assert tl._stream_key(seed, "lemma31") == tl._stream_key(7, "lemma31")
        a = check_stream(seed, "lemma31").standard_normal(4)
        b = check_stream(7, "lemma31").standard_normal(4)
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "n, lead, count, weight, sizes",
    [
        (4, 0, 10, None, [10]),
        (4, 3, 4093, None, [4096]),  # 2^16 floats of 16 a row: one chunk of 4096 rows
        (4, 3, 8190, None, [4096, 4097]),  # the rest joins the last chunk
        (4, 3, 12285, None, [4096, 4096, 4096]),
        (128, 0, 300, None, [128, 172]),  # 512 floats a row: 128 rows
        (1, 0, 300, None, [300]),
        # 4000 floats a row, as a 1000x1 operator's images weigh: 64 rows, the least
        (1, 0, 300, 4000, [64, 64, 64, 108]),
    ],
)
def test_fold_chunks_are_whole_64_row_groups_with_the_rest_in_the_last(n, lead, count, weight, sizes):
    """The weight sizes the chunks; None is a sample's draws alone, 4n."""
    got = []

    def judge(x, a):
        got.append(x.shape[1])
        return ()

    fixed = np.zeros((2, lead, n), complex) if lead else None
    tl._fold(3, "lemma31", count, n, judge, weight or 4 * n, fixed)
    assert got == sizes


def test_fold_returns_the_componentwise_maxima_of_every_judged_array():
    def judge(x, a):
        rows = np.arange(a, a + x.shape[1], dtype=float)
        return np.stack((rows, -rows)), np.stack((rows == 100, rows < 0))

    with chunks_of_64():
        top, flagged = tl._fold(3, "lemma31", 300, 2, judge, 8)
    assert top.tolist() == [[299.0], [-0.0]] and flagged.tolist() == [[True], [False]]


def test_draws_in_concurrent_threads_match_the_serial_result():
    jobs = [(11, "lemma31", 300, 4), (12, "ballscale", 300, 3)] * 3
    with chunks_of_64():
        want = [fold_rows(*job).tobytes() for job in jobs]
        got = [[] for _ in jobs]

        def work(k):
            for _ in range(5):
                got[k].append(fold_rows(*jobs[k]).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 5 for w in want]


@pytest.mark.parametrize("count", [0, 1, 7, 400])
def test_draws_builds_one_bit_generator_per_call(monkeypatch, count):
    """One stream per fold, however many chunks it draws (400 rows are 7 chunks)."""
    built = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    with chunks_of_64():
        fold_rows(3, "lemma31", count, 2)
    assert len(built) == 1


class _ShapeOnly:
    """A stream whose draws are a read-only broadcast zero: the shape, no memory."""

    def standard_normal(self, shape):
        return np.broadcast_to(0.0, shape)


@pytest.mark.parametrize("width", [1, 8, 256])
def test_draws_up_to_the_cap_and_rejects_one_normal_more(monkeypatch, width):
    """``_admit`` lets count * weight reach the cap, a fold then draws it
    chunk by chunk, and one sample more is refused."""
    monkeypatch.setattr(tl, "check_stream", lambda seed, name: _ShapeOnly())
    count = tl.MAX_DRAWN_NORMALS // (4 * width)
    judged = []
    weight = tl._admit("lemma31", count, width)
    assert weight == 4 * width
    tl._fold(3, "lemma31/seq", count, 1, lambda x, a: judged.append(x.shape[1]) or (), weight)
    assert sum(judged) == count and len(judged) <= 256
    with pytest.raises(InvalidInput, match=rf"^lemma31: count {count + 1} of weight {weight} each exceeds the cap of {tl.MAX_DRAWN_NORMALS}$"):
        tl._admit("lemma31", count + 1, width)
    # a sample drawn in each of two balls weighs twice as much
    with pytest.raises(InvalidInput, match=rf"^lemma31: count {count // 2 + 1} of weight {2 * weight} each exceeds"):
        tl._admit("lemma31", count // 2 + 1, width, balls=2)


@pytest.mark.parametrize("count", [0, -1])
def test_admit_refuses_a_count_below_one(count):
    with pytest.raises(InvalidInput, match=rf"^ubp: count must be >= 1, got {count}$"):
        tl._admit("ubp", count, 4)


def test_every_sampled_stream_is_prefix_stable(monkeypatch):
    """Trial i of a sampled check is replayed by drawing i + 1 rows.

    The streams are the ones the four sampled checks open; for each, the
    first k rows (or uniforms) are the same for every count >= k, whatever
    chunks a fold draws them in.
    """
    folds, opened = [], []
    real_fold, real_stream = tl._fold, tl.check_stream

    def recording_fold(seed, name, count, n, *args, **kwargs):
        folds.append((seed, name, n))
        return real_fold(seed, name, count, n, *args, **kwargs)

    def recording_stream(seed, name):
        opened.append(name)
        return real_stream(seed, name)

    monkeypatch.setattr(tl, "_fold", recording_fold)
    monkeypatch.setattr(tl, "check_stream", recording_stream)
    rng = np.random.default_rng(7)
    T = surjective_mat(rng, 2, 3)
    p = DSeminorm(T)
    assert continuity_bound_check(p, 12, 21).passed
    assert ball_scaling_check(p, op_dnorm(T).M, 1.0, [0.5, 2.0], 12, 21).passed
    assert ubp_verify([T, random_mat(rng, 2, 3)], 12, 21).passed
    assert open_mapping_verify(T, 12, 21).passed
    monkeypatch.undo()

    folded = {name for _, name, _ in folds}
    assert folded == {"lemma31", "ballscale/hyp", "ballscale/d0", "ballscale/d1", "ubp", "omt-verify"}
    drawn = {"lemma31/seq": 8 * 3, "omt-verify/series": 4 * 2}
    uniforms = set(opened) - folded - set(drawn)
    assert uniforms == {"ballscale/hyp/u", "ballscale/d0/u", "ballscale/d1/u"}
    with chunks_of_64():
        for seed, name, n in folds:
            block = fold_rows(seed, name, 150, n)
            for k in (1, 12, 40, 63, 64, 65, 128, 129, 150):
                assert np.array_equal(fold_rows(seed, name, k, n), block[:, :k])
    for name, width in drawn.items():
        z = check_stream(21, name).standard_normal((40, width))
        for k in range(41):
            assert np.array_equal(check_stream(21, name).standard_normal((k, width)), z[:k])
    for name in uniforms:
        u = check_stream(21, name).uniform(0.0, 1.0, 40)
        for k in range(41):
            assert np.array_equal(check_stream(21, name).uniform(0.0, 1.0, k), u[:k])


@pytest.mark.parametrize("norm", ["l2", "l1", "linf"])
def test_row_norms_equal_the_one_vector_kernel(norm):
    rng = np.random.default_rng(1)
    T = random_mat(rng, 5, 4)
    p = DSeminorm(T)
    xs = [random_vec(rng, 4) for _ in range(30)]
    b = np.stack([x.v for x in xs], axis=1)
    norms = _dnorms(norm, b)
    for i, x in enumerate(xs):
        assert DPlus(*norms[:, i]) == vec_dnorm(x, norm)
        assert all(norms[c, i] == _one_norm(norm, x.v[c : c + 1])[0] for c in range(2))
    values = seminorm_rows(p, b)
    for i, x in enumerate(xs):
        want = seminorm_eval(p, x)
        assert close(values[0, i], want.a1, want.a1) and close(values[1, i], want.a2, want.a2)


@pytest.mark.routes
def test_l2_row_norm_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((200, 7)) + 1j * rng.standard_normal((200, 7))
    got = _component_norms(b)
    assert all(got[i] == np.linalg.norm(b[i]) for i in range(200))


def test_block_solve_rows_match_one_row_solves():
    rng = np.random.default_rng(3)
    T = surjective_mat(rng, 3, 6)
    ys = [random_vec(rng, 3) for _ in range(20)]
    sol = min_norm_solve_rows(T, np.stack([y.v for y in ys], axis=1))
    for i, y in enumerate(ys):
        rep = min_norm_solve(T, y)
        scale = float(np.abs(rep.x.v1).max() + np.abs(rep.x.v2).max())
        assert np.allclose(sol.x[:, i], rep.x.v, rtol=0, atol=1e-12 * scale)
        assert close(sol.qy[0, i], rep.qy.a1, rep.qy.a1)
        assert close(sol.qy[1, i], rep.qy.a2, rep.qy.a2)
        assert sol.tol[0, i] == rep.tol.a1 and sol.tol[1, i] == rep.tol.a2


def test_block_solve_rejects_the_first_row_out_of_range():
    from hyplab import NotInRange

    T = BCMatrix([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
    y1 = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotInRange, match=r"residual \(1\.0, 1\.0\) > \(1e-10, 1e-10\)"):
        min_norm_solve_rows(T, np.stack((y1, y1)))


def test_block_functions_reject_a_vectors_array():
    # x.v is (2, n), not the (2, 1, n) block x.v[:, None]: a stacked product
    # would pair each component's rows with both components of the operator
    T = BCMatrix.identity(2)
    x = BCVector([1.0, 2.0], [3.0, 4.0])
    calls = [
        lambda b: dnorm_rows(b),
        lambda b: seminorm_rows(DSeminorm(T), b),
        lambda b: seminorm_terms(DSeminorm(T), b),
        lambda b: min_norm_solve_rows(T, b),
    ]
    for call in calls:
        for b in (x.v, x.v[None], np.stack((x.v, x.v, x.v))[:, None]):
            with pytest.raises(DimensionMismatch, match=r"a block is a \(2, rows, dim\) array"):
                call(b)
        assert call(x.v[:, None]) is not None


# ------------------------------------------------------------ stacked bits
#
# Each block function takes one (2, k, n) array and makes, per component,
# the numpy call that the component alone would get.  Every slice of its
# result must be that one-component computation bit for bit, at shapes
# from 1x1 to 64x128 and at 1 to 893 rows (ubp_verify's chunks are 64 rows).

_SHAPES = st.sampled_from([(1, 1), (3, 6), (4, 4), (6, 3), (8, 8), (64, 128)]) | st.tuples(
    st.integers(1, 64), st.integers(1, 128)
)
_ROWS = st.sampled_from([1, 63, 64, 65, 893]) | st.integers(1, 893)


def _one_norm(norm: str, a: np.ndarray) -> np.ndarray:
    """The component norm of each row of one (k, n) component, as numpy computes it."""
    if norm == "l2":
        return np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))
    return np.abs(a).sum(axis=-1) if norm == "l1" else np.abs(a).max(axis=-1)


def _dnorms(norm: str, b: np.ndarray) -> np.ndarray:
    """The (2, k) D-norms of a block's rows: ``dnorm_rows`` for l2, else ``vec_dnorm`` per row."""
    if norm == "l2":
        return dnorm_rows(b)
    return np.array([vec_dnorm(BCVector(*b[:, i]), norm).components() for i in range(b.shape[1])]).T


def _block(rng, k: int, n: int) -> np.ndarray:
    return rng.standard_normal((2, k, n)) + 1j * rng.standard_normal((2, k, n))


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(norm=st.sampled_from(["l2", "l1", "linf"]), shape=_SHAPES, k=_ROWS, seed=st.integers(0, 2**32 - 1))
@example(norm="l2", shape=(64, 128), k=893, seed=1)
@example(norm="l1", shape=(64, 128), k=893, seed=2)
@example(norm="linf", shape=(1, 1), k=1, seed=3)
@pytest.mark.routes
def test_stacked_bits_of_dnorm_rows(norm, shape, k, seed):
    b = _block(np.random.default_rng(seed), k, shape[1])
    got = _dnorms(norm, b)
    assert all(_same_bits(got[i], _one_norm(norm, b[i].copy())) for i in range(2))


@pytest.mark.parametrize("view", ["product", "read-only", "strided"])
@pytest.mark.parametrize("n", [1, 4, 7, 16, 17, 64, 128])
@pytest.mark.routes
def test_l2_norms_of_a_product_block_are_numpy_norm_bit_for_bit(n, view):
    # the block comes straight from a stacked BLAS product, as in
    # seminorm_rows and ubp_verify, and both components reduce in one call;
    # each row must still get the strided dot product np.linalg.norm makes
    # (a contiguous copy of the rows takes another kernel and other bits)
    rng = np.random.default_rng(n)
    T = random_mat(rng, 2 * n if view == "strided" else n, 5)
    b = _block(rng, 300, 5) @ T.m.mT
    if view == "read-only":
        b.setflags(write=False)
    elif view == "strided":
        b = b[:, :, ::2]
    want = np.array([[np.linalg.norm(row) for row in rows] for rows in b])
    for got in (_component_norms(b), dnorm_rows(b)):
        assert _same_bits(got, want)


def test_l2_norms_in_concurrent_threads_match_the_serial_result():
    # every l2 reduction writes the one module-level scratch array
    rng = np.random.default_rng(19)
    blocks = [_block(rng, 64, 8) @ random_mat(rng, n, 8).m.mT for n in (3, 8, 17)] * 3
    want = [dnorm_rows(b).tobytes() for b in blocks]
    got = [[] for _ in blocks]

    def work(k):
        for _ in range(20):
            got[k].append(dnorm_rows(blocks[k]).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(blocks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 20 for w in want]


@settings(max_examples=30, deadline=None)
@given(shape=_SHAPES, k=_ROWS, seed=st.integers(0, 2**32 - 1))
@example(shape=(64, 128), k=893, seed=1)
@example(shape=(1, 1), k=1, seed=2)
@pytest.mark.routes
def test_stacked_bits_of_seminorm_rows_and_terms(shape, k, seed):
    rng = np.random.default_rng(seed)
    T = random_mat(rng, *shape)
    b = _block(rng, k, shape[1])
    rows, terms = seminorm_rows(DSeminorm(T), b), seminorm_terms(DSeminorm(T), b)
    for i, m in enumerate((T.m1.copy(), T.m2.copy())):
        one = b[i].copy()
        assert _same_bits(rows[i], _one_norm("l2", one @ m.T))
        assert _same_bits(terms[i], _one_norm("l2", (m @ one[..., None])[..., 0]))


@settings(max_examples=30, deadline=None)
@given(shape=_SHAPES, k=_ROWS, seed=st.integers(0, 2**32 - 1))
@example(shape=(64, 128), k=893, seed=1)
@example(shape=(6, 3), k=1, seed=2)
@pytest.mark.routes
def test_stacked_bits_of_min_norm_solve_rows(shape, k, seed):
    rng = np.random.default_rng(seed)
    T = random_mat(rng, *shape)
    y = np.stack([_block(rng, k, shape[1])[i] @ m.T for i, m in enumerate((T.m1, T.m2))])  # in range
    sol = min_norm_solve_rows(T, y, tol=1e-6)
    for i, m in enumerate((T.m1.copy(), T.m2.copy())):
        _assert_one_matrix_solve(sol, i, m, y[i].copy())


def _assert_one_matrix_solve(sol, i: int, m: np.ndarray, yi: np.ndarray) -> None:
    """Component i of a tol=1e-6 block solve is the one-matrix SVD chain bit for bit."""
    u, s, vh = one_matrix_svd(m)
    r = int(np.count_nonzero(s > np.finfo(float).eps * max(m.shape) * s[0]))
    x = ((yi @ u[:, :r].conj()) / s[:r]) @ vh[:r].conj()
    assert _same_bits(sol.x[i], x)
    assert _same_bits(sol.residual[i], _one_norm("l2", x @ m.T - yi))
    assert _same_bits(sol.qy[i], _one_norm("l2", x))
    assert _same_bits(sol.tol[i], 1e-6 * _one_norm("l2", yi))


@pytest.mark.parametrize("entries", ["complex", "real"])
@pytest.mark.parametrize("shape", [(4, 4), (3, 6), (64, 128)], ids=["4x4", "3x6", "64x128"])
@pytest.mark.routes
def test_stacked_bits_of_min_norm_solve_rows_at_a_repeated_row(shape, entries):
    """A repeated row leaves each component rank-deficient, so the chain
    drops a singular value; real entries give exact zeros, whose signs the
    conjugated factors keep as the one-matrix chain does."""
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    m, x = _block(rng, *shape), _block(rng, 5, shape[1])
    if entries == "real":
        m, x = m.real + 0j, x.real + 0j
    m[:, -1] = m[:, 0]
    T = BCMatrix(*m)
    y = np.stack([x[i] @ c.T for i, c in enumerate(T.m)])  # in range
    sol = min_norm_solve_rows(T, y, tol=1e-6)
    for i, c in enumerate((T.m1.copy(), T.m2.copy())):
        assert np.linalg.matrix_rank(c) == shape[0] - 1
        _assert_one_matrix_solve(sol, i, c, y[i].copy())


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 128), k=_ROWS, j=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
@example(n=128, k=893, j=1, seed=1)
@pytest.mark.routes
def test_stacked_bits_of_sample_rows(n, k, j, seed):
    z = check_stream(seed, "lemma31").standard_normal((k, 8 * n))
    got = tl._sample_rows(z, n, j)
    assert got.flags.c_contiguous
    o = 4 * n * j
    assert _same_bits(got[0], z[:, o : o + n] + 1j * z[:, o + n : o + 2 * n])
    assert _same_bits(got[1], z[:, o + 2 * n : o + 3 * n] + 1j * z[:, o + 3 * n : o + 4 * n])


# ------------------------------------------------ agreement with per sample


def per_sample_continuity(p, trials, seed, a):
    """The check evaluated one vector at a time: each inequality's excess
    per component, then the larger side of its bounds."""
    n = p.T.cols
    (v1, v2), zero = p.T.svd().vh[:, 0].conj(), np.zeros(n, complex)
    xs = [BCVector(v1, zero), BCVector(zero, v2), BCVector(v1, v2)]
    rng = check_stream(seed, "lemma31")
    xs += [next_vector(rng, n) for _ in range(trials)]
    margins = []
    for x in xs:
        px, nx = seminorm_eval(p, x), vec_dnorm(x)
        bound = (a.a1 * nx.a1, a.a2 * nx.a2)
        margins.append((*oracle_excess(px.components(), bound).tolist(), max(bound)))
    rng = check_stream(seed, "lemma31/seq")
    for _ in range(min(trials, 8)):
        x = next_vector(rng, n)
        d = next_vector(rng, n)
        px = seminorm_eval(p, x)
        for j in range(1, 11):
            xj = x + d.scale(2.0**-j)
            pj, nd = seminorm_eval(p, xj), vec_dnorm(xj - x)
            bound = (a.a1 * nd.a1, a.a2 * nd.a2)
            margins.append((*oracle_excess((abs(pj.a1 - px.a1), abs(pj.a2 - px.a2)), bound).tolist(), max(bound)))
    return margins


def test_continuity_matches_per_sample_evaluation():
    rng = np.random.default_rng(4)
    T = random_mat(rng, 4, 3)
    p = DSeminorm(T)
    a = op_dnorm(T).M
    for alpha in (a, DPlus(0.9 * a.a1, 0.9 * a.a2)):
        rep = continuity_bound_check(p, 120, 11, alpha_star=alpha)
        margins = per_sample_continuity(p, 120, 11, alpha)
        w1 = max(m[0] for m in margins)
        w2 = max(m[1] for m in margins)
        scale = max(m[2] for m in margins)
        assert close(rep.worst_margin.a1, w1, scale) and close(rep.worst_margin.a2, w2, scale)
        # each inequality holds exactly where its excess is at most 0
        ok = all(m[0] <= 0 and m[1] <= 0 for m in margins)
        assert (rep.all_ok and rep.sequence_ok) == ok == (w1 <= 0 and w2 <= 0)
    assert not continuity_bound_check(p, 120, 11, alpha_star=DPlus(0.9 * a.a1, 0.9 * a.a2)).passed


def test_ubp_matches_per_sample_evaluation():
    rng = np.random.default_rng(5)
    family = [random_mat(rng, 3, 4) for _ in range(6)]
    rep = ubp_verify(family, 70, 12)
    norms = [op_dnorm(T).M for T in family]
    i1 = max(range(6), key=lambda i: norms[i].a1)
    i2 = max(range(6), key=lambda i: norms[i].a2)
    zero = np.zeros(4, complex)
    xs = [BCVector(family[i1].svd().vh[0, 0].conj(), zero), BCVector(zero, family[i2].svd().vh[1, 0].conj())]
    stream = check_stream(12, "ubp")
    xs += [next_vector(stream, 4) for _ in range(70)]
    d = rep.bound_delta
    w1 = w2 = -math.inf
    for x in xs:
        vals = [seminorm_eval(DSeminorm(T), x) for T in family]
        s1, s2 = max(v.a1 for v in vals), max(v.a2 for v in vals)
        nx = vec_dnorm(x)
        e1, e2 = oracle_excess((s1, s2), (d.a1 * nx.a1, d.a2 * nx.a2)).tolist()
        w1, w2 = max(w1, e1), max(w2, e2)
    scale = max(d.a1, d.a2) * max(max(vec_dnorm(x).a1, vec_dnorm(x).a2) for x in xs)
    assert close(rep.worst_margin.a1, w1, scale) and close(rep.worst_margin.a2, w2, scale)
    assert rep.passed and w1 <= 1e-12 * scale and w2 <= 1e-12 * scale
    shrunk = DPlus((1 - 1e-6) * d.a1, (1 - 1e-6) * d.a2)
    assert not ubp_verify(family, 70, 12, delta=shrunk).passed


def _same_report(got, want):
    """Equal fields: ``repr`` of each float gives its bits, the sign of zero included."""
    assert type(got) is type(want)
    assert [type(v) for v in vars(got).values()] == [type(v) for v in vars(want).values()]
    assert dumps(got.to_json_dict()) == dumps(want.to_json_dict())


def _tied_family():
    """Members whose top singular values tie exactly in each component.

    diag(1, 3) and diag(3, 1) share the value 3 with other witnesses; the
    last member repeats the second.
    """
    d13, d31 = np.diag([1.0, 3.0]).astype(complex), np.diag([3.0, 1.0j])
    family = [BCMatrix(d13, d31), BCMatrix(d31, d13), BCMatrix.zeros(2, 2), BCMatrix(d31, d13)]
    tops = [tuple(T.svd().s[:, 0]) for T in family]
    assert tops[0] == tops[1] == tops[3] == (3.0, 3.0)
    return [BCMatrix(T.m1, T.m2) for T in family]  # unfactored copies


@pytest.mark.parametrize(
    "family",
    [
        pytest.param(lambda rng: [random_mat(rng, 8, 8) for _ in range(20)], id="desk-8x8x20"),
        pytest.param(lambda rng: [random_mat(rng, 3, 5)], id="one-3x5"),
        pytest.param(lambda rng: [random_mat(rng, 6, 2) for _ in range(4)], id="tall-6x2x4"),
        pytest.param(lambda rng: [BCMatrix.zeros(3, 3)] * 3, id="zeros"),
        pytest.param(lambda rng: _tied_family(), id="ties"),
        pytest.param(lambda rng: [random_mat(rng, 4, 4) for _ in range(5)] + [BCMatrix.zeros(4, 4)], id="with-zero"),
    ],
)
@pytest.mark.parametrize("delta", [None, DPlus(2.5, 0.5)])
@pytest.mark.routes
def test_ubp_matches_the_per_member_oracle(family, delta):
    members = family(np.random.default_rng(8))
    want = oracle_ubp(members, 40, 17, delta)
    _same_report(ubp_verify(members, 40, 17, delta), want)
    _same_report(ubp_verify(members, 40, 17, delta), want)  # factors now cached


def test_ubp_takes_witnesses_from_the_first_tied_member(monkeypatch):
    # every witness attains the supremum, so the report cannot show which
    # tied member gave it; the members asked for witnesses show it
    family, asked = _tied_family(), []
    real = tl._witness_rows
    monkeypatch.setattr(tl, "_witness_rows", lambda T: asked.append(T) or real(T))
    ubp_verify(family, 5, 1)
    assert asked == [family[0], family[0]]
    family, asked[:] = family[1:], []
    ubp_verify(family, 5, 1)
    assert asked == [family[0], family[0]]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    size=st.integers(1, 7),
    scale=st.sampled_from([1.0, 1e-12, 1e9, 1e150]),
)
@pytest.mark.routes
def test_ubp_matches_the_per_member_oracle_on_random_families(seed, shape, size, scale):
    rng = np.random.default_rng(seed)
    members = [random_mat(rng, *shape) for _ in range(size)]
    members = [BCMatrix(T.m1 * scale, T.m2) for T in members]
    _same_report(ubp_verify(members, 9, seed), oracle_ubp(members, 9, seed))


@pytest.mark.parametrize("entries, samples", [(tl._CHUNK_FLOATS, 893), (1, 63), (1, 126), (1, 200)])
@pytest.mark.routes
def test_ubp_matches_the_per_member_oracle_across_chunks(monkeypatch, entries, samples):
    """Samples applied in chunks keep every bit of one product over all of
    them: at the default, 20 members of 8 rows hold 640 floats a row and
    take chunks of 64 rows, so 893 samples (895 rows) are 12 chunks of 64
    and one of 127; one float per chunk makes chunks of 64 rows too."""
    monkeypatch.setattr(tl, "_CHUNK_FLOATS", entries)
    rng = np.random.default_rng(10)
    members = [random_mat(rng, 8, 8) for _ in range(20)]
    _same_report(ubp_verify(members, samples, 5), oracle_ubp(members, samples, 5))


@pytest.mark.parametrize("overflow", ["e1", "e2"])
def test_ubp_rejects_an_overflow_in_the_first_chunk_that_holds_one(monkeypatch, overflow):
    """Norms that overflow in every chunk of samples are rejected in the
    first, over its (2, members, rows) values: the first non-finite e1
    value, else the first e2 value, the message the oracle's one product
    over all samples gives."""
    monkeypatch.setattr(tl, "_CHUNK_FLOATS", 1)  # chunks of 64 rows
    small, big = scaled(0, 3, 3, 1.0), scaled(1, 3, 3, 1e160)
    family = [small, BCMatrix(big.m1, small.m2) if overflow == "e1" else BCMatrix(small.m1, big.m2)]
    judged = []
    real = tl.require_finite
    monkeypatch.setattr(tl, "require_finite", lambda values: judged.append(values.shape) or real(values))
    with pytest.raises(InvalidInput, match="^non-finite component inf rejected$"):
        ubp_verify(family, 300, 42)
    assert judged == [(2, 2, 64)]
    with pytest.raises(InvalidInput, match="^non-finite component inf rejected$"):
        oracle_ubp(family, 300, 42)


def test_open_mapping_matches_per_sample_evaluation():
    rng = np.random.default_rng(6)
    T = surjective_mat(rng, 3, 5)
    rep = open_mapping_verify(T, 150, 13)
    delta = open_mapping_delta(T)
    w1 = w2 = -math.inf
    r1 = r2 = 0.0
    scale = 1.0
    # the lead rows first: the witness, the bottom left singular vectors, then
    # the chain's geometric series y_0 2^-k, k = 0..11, and its sum
    u = T.svd().u
    y0 = next_vector(check_stream(13, "omt-verify/series"), 3)
    y0 = y0.scale(1.0 / max(vec_dnorm(y0).components()))
    ys = [y0.scale(0.5**k) for k in range(tl.OMT_SERIES_LEN)]
    y_sum = BCVector.zeros(3)
    for y in ys:
        y_sum = y_sum + y
    stream = check_stream(13, "omt-verify")
    for y in [BCVector(u[0][:, -1], u[1][:, -1]), *ys, y_sum, *(next_vector(stream, 3) for _ in range(150))]:
        sol = min_norm_solve(T, y, tol=1e-9)
        ny = vec_dnorm(y)
        e1, e2 = oracle_excess(sol.qy.components(), (delta.a1 * ny.a1, delta.a2 * ny.a2)).tolist()
        w1, w2 = max(w1, e1), max(w2, e2)
        r1, r2 = max(r1, sol.residual.a1), max(r2, sol.residual.a2)
        scale = max(scale, delta.a1 * ny.a1, delta.a2 * ny.a2)
    assert rep.passed
    assert close(rep.worst_margin.a1, w1, scale) and close(rep.worst_margin.a2, w2, scale)
    assert rep.worst_residual.a1 <= 1e-12 * scale and r1 <= 1e-12 * scale
    assert rep.worst_residual.a2 <= 1e-12 * scale and r2 <= 1e-12 * scale


# ------------------------------------------------------ constant overheads


def count_vectors(monkeypatch, fn):
    calls = [0]
    init = BCVector.__init__

    def counted(self, v1, v2):
        calls[0] += 1
        init(self, v1, v2)

    monkeypatch.setattr(BCVector, "__init__", counted)
    fn()
    monkeypatch.setattr(BCVector, "__init__", init)
    return calls[0]


def test_vector_constructions_do_not_grow_with_trials(monkeypatch):
    rng = np.random.default_rng(7)
    T = random_mat(rng, 3, 3)
    W = surjective_mat(rng, 3, 6)
    family = [random_mat(rng, 3, 3) for _ in range(4)]
    alpha = op_dnorm(T).M
    checks = {
        "lemma31": lambda k: continuity_bound_check(DSeminorm(T), k, 1),
        "ubp": lambda k: ubp_verify(family, k, 1),
        "omt-verify": lambda k: open_mapping_verify(W, k, 1),
        "ballscale": lambda k: ball_scaling_check(DSeminorm(T), alpha, 1.0, [0.5, 2.0], k, 1),
    }
    for name, check in checks.items():
        small = count_vectors(monkeypatch, lambda: check(50))
        large = count_vectors(monkeypatch, lambda: check(400))
        assert small == large, name


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check", ["lemma31", "omt-verify"])
def test_sampled_check_memory_does_not_scale_with_trials(check):
    """Samples are drawn and judged one chunk at a time.

    At 16x32 a chunk holds 512 to 1,023 rows of about 2.5 KiB each, so two
    peaks differ by at most the 511 rows the last chunk may add: 1,536 KiB.
    The whole block would peak near 5 MiB at 2,000 trials and 49 MiB at 20,000.
    """
    T = surjective_mat(np.random.default_rng(31), 16, 32)
    run = {
        "lemma31": lambda k: continuity_bound_check(DSeminorm(T), k, 3),
        "omt-verify": lambda k: open_mapping_verify(T, k, 3),
    }[check]
    run(2000)  # factors the operator and warms the caches
    small, large = _peak_bytes(lambda: run(2000)), _peak_bytes(lambda: run(20000))
    assert abs(large - small) <= 1536 * 1024, (small, large)


@pytest.mark.parametrize("shape", [(4, 4), (3, 6), (1, 40), (64, 128)])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 893])
@pytest.mark.routes
def test_stacked_bits_of_sampled_reports_across_fold_chunks(shape, count):
    """Every sampled report has the same bytes whether its rows are judged in
    chunks of 64 rows, in the default chunks, or in one chunk."""
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    T = surjective_mat(rng, *shape)
    family = [T, random_mat(rng, *shape), random_mat(rng, *shape)]
    p, M = DSeminorm(T), op_dnorm(T).M
    shrunk = DPlus((1 - 1e-6) * M.a1, (1 - 1e-6) * M.a2)
    checks = [
        lambda: continuity_bound_check(p, count, 3),
        lambda: continuity_bound_check(p, count, 3, alpha_star=shrunk),
        lambda: ball_scaling_check(p, M, 1.0, [0.5, 2.0], count, 4),
        lambda: ubp_verify(family, count, 5),
        lambda: ubp_verify(family, count, 5, delta=shrunk),
        lambda: open_mapping_verify(T, count, 6),
    ]
    want = [dumps(check().to_json_dict()) for check in checks]
    for chunk in (1, 1 << 40):
        with unittest.mock.patch.object(tl, "_CHUNK_FLOATS", chunk):
            assert [dumps(check().to_json_dict()) for check in checks] == want, chunk


# -------------------------------------------------- scale-aware tolerances


def scaled(seed: int, rows: int, cols: int, s: float) -> BCMatrix:
    T = random_mat(np.random.default_rng(seed), rows, cols)
    return BCMatrix(T.m1 * s, T.m2 * s)


@pytest.mark.parametrize("s", [1e9, 1e-12, 1e150])
def test_continuity_and_ubp_scale_with_the_operator(s):
    T = scaled(0, 3, 3, s)
    M = op_dnorm(T).M
    shrunk = DPlus((1 - 1e-6) * M.a1, (1 - 1e-6) * M.a2)
    assert continuity_bound_check(DSeminorm(T), 100, 42).passed
    assert not continuity_bound_check(DSeminorm(T), 100, 42, alpha_star=shrunk).all_ok
    assert ubp_verify([T], 50, 42).passed
    assert not ubp_verify([T], 50, 42, delta=shrunk).passed


@pytest.mark.parametrize("s", [1e9, 1e-12, 1e150])
def test_ball_scaling_scales_with_the_operator(s):
    T = scaled(0, 3, 3, s)
    M = op_dnorm(T).M
    assert ball_scaling_check(DSeminorm(T), M, 1.0, [0.5, 2.0, 10.0], 50, 42).passed
    shrunk = DPlus((1 - 1e-6) * M.a1, (1 - 1e-6) * M.a2)
    with pytest.raises(HypothesisFailed):
        ball_scaling_check(DSeminorm(T), shrunk, 1.0, [0.5], 50, 42)


@pytest.mark.parametrize("s", [1e9, 1e-12, 1e150])
def test_open_mapping_scales_with_the_operator(s):
    rep = open_mapping_verify(scaled(1, 3, 6, s), 100, 42)
    assert rep.subadd_ok and rep.passed


def test_overflowing_norms_are_rejected_not_compared():
    T = scaled(0, 3, 3, 1e160)
    with pytest.raises(InvalidInput, match="non-finite component inf rejected"):
        continuity_bound_check(DSeminorm(T), 20, 42)
    with pytest.raises(InvalidInput, match="non-finite component inf rejected"):
        ubp_verify([T], 20, 42)
