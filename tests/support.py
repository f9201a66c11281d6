"""Shared oracles and builders for the test suite.

Everything here is deliberately independent of the library's own kernels:
the four-real multiplication table, power iteration on the Gram matrix,
and the normal-equations route to minimum-norm solutions are the reference
paths that the idempotent/SVD implementations are checked against.

``oracle_dumps``, ``oracle_zabreiko`` and ``oracle_series_sum`` are
reference implementations of emission, of the Zabreiko decomposition and
of capped series summation: a recursive serializer that formats one value
at a time, a step loop that builds one vector per term and remainder, and
a loop that pulls, adds and measures one term at a time.  The library's
encoder-backed ``dumps``, its block-backed decomposition and its
block-backed ``series_sum`` must reproduce their bytes and their errors.
``oracle_abs_summability`` and ``oracle_subadd`` read their series the same
way, then judge one index pair or one partial sum at a time.  Every oracle
judges an inequality by ``oracle_excess``, the verdict rule one float at a
time, and reports the worst excess as its margin.
``oracle_digest`` hashes the serializer's text, with each complex array as
the ``pairs_record`` of the float64 bytes of its stacked [re, im] pairs,
and each matrix, vector, hyperbolic and bicomplex input written out by
hand around such records.
``oracle_parse_vector`` and ``oracle_parse_matrix`` read documents one
entry at a time into Python ``complex`` values, a cartesian entry through
``Bicomplex.from_reals``; ``jsonio``'s array-speed parse must give the same
bits or raise the same error.  ``oracle_ubp`` is the uniform boundedness
check with one norm report and one block product per family member; the
stacked ``ubp_verify`` must give the same report.  ``one_matrix_svd`` is the
thin SVD of one matrix in the orientation the library factors it.
``desk_zabreiko_instance`` draws the Zabreiko problem of one op of the
benchmark's ``checks-desk`` battery.  ``_split_on`` and ``_one_thread``
steer ``dop._split`` to its two routes, ``_counting_splits`` records each
``dop._beside`` job and ``_helpers`` lists the helper threads.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import threading
from collections import deque

import numpy as np

from hyplab import (
    BCMatrix, BCVector, Bicomplex, DimensionMismatch, DPlus, Hyperbolic, InvalidInput, NotConverged, ShapeMismatch,
)
from hyplab.dmodule import (
    SERIES_WINDOW, AbsSummabilityReport, DSeminorm, SeriesReport, _as_tol, dnorm_rows,
    require_finite, seminorm_eval, seminorm_rows, vec_dnorm,
)
from hyplab.hyperscalar import hyp_leq
from hyplab.jsonio import _declared_size
from hyplab import dop
from hyplab.dop import op_dnorm
from hyplab.theoremlab import SubaddReport, UBPReport, _column, _sample_rows, _worst, check_stream


def mul4(a, b):
    """Multiply two four-real tuples with the unit table.

    Units: i^2 = j^2 = -1, k^2 = 1, ij = k, ik = -j, jk = -i, all
    products commuting.
    """
    a1, b1, c1, d1 = a
    a2, b2, c2, d2 = b
    return (
        a1 * a2 - b1 * b2 - c1 * c2 + d1 * d2,
        a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
        a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def oracle_excess(a, b, slack: float = 1e-9, scale=0.0) -> np.ndarray:
    """a - (b + slack * max(scale, 1e-150, |a|, |b|)) one Python float at a
    time, over the broadcast shape: a <= b holds within the slack where it
    is at most 0."""
    a, b, scale = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, scale)))
    out = [x - (y + slack * max(s, 1e-150, abs(x), abs(y))) for x, y, s in zip(a.flat, b.flat, scale.flat)]
    return np.array(out).reshape(a.shape)


def componentwise_max(values) -> DPlus:
    """The least upper bound of cone values in the cone order: the
    maximum of each idempotent component."""
    return DPlus(max(v.a1 for v in values), max(v.a2 for v in values))


def close4(a, b, tol):
    scale = max(1.0, *(abs(v) for v in a), *(abs(v) for v in b))
    return all(abs(x - y) <= tol * scale for x, y in zip(a, b))


def rel_err_c(a: complex, b: complex) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def pi_sigma_max(A: np.ndarray, iters: int = 4000) -> float:
    """Power iteration on the Gram matrix; start vector fixed and dense."""
    A = np.asarray(A, dtype=complex)
    G = A.conj().T @ A if A.shape[0] >= A.shape[1] else A @ A.conj().T
    n = G.shape[0]
    v = np.ones(n, dtype=complex) + 1j * np.linspace(0.25, 1.0, n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = G @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = nw
    return float(np.sqrt(lam))


def pi_sigma_min(A: np.ndarray, iters: int = 4000) -> float:
    """Smallest singular value via inverse-free shifted power iteration."""
    A = np.asarray(A, dtype=complex)
    G = A.conj().T @ A if A.shape[0] >= A.shape[1] else A @ A.conj().T
    smax2 = pi_sigma_max(A, iters) ** 2
    c = smax2 * 1.0000001 + 1e-30
    B = c * np.eye(G.shape[0]) - G
    mu = pi_sigma_max_psd(B, iters)
    return float(np.sqrt(max(c - mu, 0.0)))


def pi_sigma_max_psd(G: np.ndarray, iters: int = 4000) -> float:
    """Top eigenvalue of a Hermitian PSD matrix (helper for the shift trick)."""
    n = G.shape[0]
    v = np.ones(n, dtype=complex) + 1j * np.linspace(0.5, 1.5, n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = G @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = nw
    return float(lam)


def normal_eq_min_norm(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of a full-row-rank system via A^H (A A^H)^-1 b."""
    A = np.asarray(A, dtype=complex)
    u = np.linalg.solve(A @ A.conj().T, b)
    return A.conj().T @ u


def random_bc(rng, scale: float = 1.0) -> Bicomplex:
    z = rng.standard_normal(4) * scale
    return Bicomplex(complex(z[0], z[1]), complex(z[2], z[3]))


def random_vec(rng, n: int) -> BCVector:
    return BCVector(
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
    )


def random_mat(rng, rows: int, cols: int) -> BCMatrix:
    return BCMatrix(
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)),
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)),
    )


def surjective_mat(rng, rows: int, cols: int, min_sigma: float = 0.3) -> BCMatrix:
    """Random wide matrix regenerated until both components are well away
    from rank deficiency."""
    while True:
        T = random_mat(rng, rows, cols)
        s1 = np.linalg.svd(T.m1, compute_uv=False)
        s2 = np.linalg.svd(T.m2, compute_uv=False)
        if s1[-1] > min_sigma and s2[-1] > min_sigma:
            return T


def bc_to4(z: Bicomplex):
    return z.to_reals()


def bc_from4(t) -> Bicomplex:
    return Bicomplex.from_reals(*t)


def oracle_dumps(obj) -> str:
    """JSON with floats written by ``repr``, one value at a time; non-finite
    floats and keys other than strings follow ``json.dumps``' rules."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _oracle_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(oracle_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for k, v in obj.items():
            parts.append(json.dumps(_oracle_key(k)) + ":" + oracle_dumps(v))
        return "{" + ",".join(parts) + "}"
    raise InvalidInput(f"cannot serialize {type(obj).__name__}")


def _oracle_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return repr(x)


def _oracle_key(k) -> str:
    """A dict key as text: a float, bool, None or int key is written as its
    JSON value; a key of any other type is refused."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _oracle_float(k)
    if k is None or isinstance(k, bool):
        return oracle_dumps(k)
    if isinstance(k, int):
        return str(int(k))
    raise InvalidInput(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def pairs_record(pairs) -> dict:
    """The inputs digest's record of nested [re, im] pairs: their shape and
    the SHA-256 of the pairs as little-endian float64, in index order."""
    a = np.asarray(pairs, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape), "sha256": hashlib.sha256(a.tobytes()).hexdigest()}


def oracle_digest(obj) -> str:
    """SHA-256 of ``oracle_dumps``' text, each complex array in ``obj``
    replaced by the ``pairs_record`` of its [re, im] pairs, a matrix by its
    rows, cols and component records, a vector by its dim and component
    records, a hyperbolic value by [a1, a2] and a bicomplex one by the
    [re, im] pairs of its idempotent components."""

    def record(x):
        return pairs_record(np.stack((x.real, x.imag), axis=-1))

    def canon(x):
        if isinstance(x, np.ndarray):
            return record(x)
        if isinstance(x, BCMatrix):
            return {"rows": x.m1.shape[0], "cols": x.m1.shape[1], "e1": record(x.m1), "e2": record(x.m2)}
        if isinstance(x, BCVector):
            return {"dim": len(x.v1), "e1": record(x.v1), "e2": record(x.v2)}
        if isinstance(x, Hyperbolic):
            return [x.a1, x.a2]
        if isinstance(x, Bicomplex):
            return {"e1": [x.z1.real, x.z1.imag], "e2": [x.z2.real, x.z2.imag]}
        if isinstance(x, dict):
            return {k: canon(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        return x

    return hashlib.sha256(oracle_dumps(canon(obj)).encode("utf-8")).hexdigest()


def _oracle_quantize(v: np.ndarray, pitch: float) -> np.ndarray:
    """One component's real and imaginary parts rounded to the grid of
    ``pitch``, each zero +0.0; a zero pitch copies the component exactly."""
    if pitch <= 0.0:
        return v.copy()
    out = np.empty_like(v)
    out.real = np.round(v.real / pitch) * pitch + 0.0
    out.imag = np.round(v.imag / pitch) * pitch + 0.0
    return out


def _vector_json(v: BCVector) -> dict:
    return {
        "dim": v.dim,
        "e1": [[z.real, z.imag] for z in v.v1],
        "e2": [[z.real, z.imag] for z in v.v2],
    }


def oracle_zabreiko(p, x: BCVector, m: DPlus, r: float, eps: DPlus, max_n: int) -> dict:
    """The decomposition one step and one vector at a time, as its JSON document.

    The inputs are taken to meet the preconditions; they are not checked.
    """
    alpha_star = op_dnorm(p.T).M
    x_norm = vec_dnorm(x)
    n = x.dim
    epsilons = [DPlus(x_norm.a1 / r, x_norm.a2 / r)]
    x_terms, remainders = [], []
    p_terms, term_bounds, rem_norms = [], [], []
    u = x
    capped = True
    # stop at roundoff of ||x||_D: float64 machine epsilon times each component
    stop = DPlus(sys.float_info.epsilon * x_norm.a1, sys.float_info.epsilon * x_norm.a2)
    for k in range(1, max_n + 1):
        prev_eps = epsilons[-1]
        eps_k = DPlus(math.ldexp(eps.a1 / m.a1, -k), math.ldexp(eps.a2 / m.a2, -k))
        clamp = DPlus(min(eps_k.a1, prev_eps.a1), min(eps_k.a2, prev_eps.a2))
        denom = 2.0 * math.sqrt(n)
        xk = BCVector(
            _oracle_quantize(u.v1, clamp.a1 * r / denom),
            _oracle_quantize(u.v2, clamp.a2 * r / denom),
        )
        u = u - xk
        p_terms.append(seminorm_eval(p, xk).components())
        term_bounds.append((prev_eps * m).components())
        un = vec_dnorm(u)
        rem_norms.append(un.components())
        x_terms.append(xk)
        remainders.append(u)
        epsilons.append(eps_k)
        if un.a1 <= stop.a1 and un.a2 <= stop.a2:
            capped = False
            break

    pks, tbs = np.array(p_terms).T, np.array(term_bounds).T
    # the remainder budgets eps_k r, recomputed from the epsilons
    uns, rbs = np.array(rem_norms).T, np.array([(e * r).components() for e in epsilons[1:]]).T
    chain_exact = True
    prev = x
    for xk, uk in zip(x_terms, remainders):
        expect = prev - xk
        if not (np.array_equal(expect.v1, uk.v1) and np.array_equal(expect.v2, uk.v2)):
            chain_exact = False
        prev = uk
    px = seminorm_eval(p, x)
    final_rhs = DPlus(m.a1 * x_norm.a1 / r + eps.a1, m.a2 * x_norm.a2 / r + eps.a2)
    term_margin, rem_margin = oracle_excess(pks, tbs), oracle_excess(uns, rbs)
    checks = {
        "chain_exact": chain_exact,
        "term_bounds_ok": bool((term_margin <= 0).all()),
        "remainder_bounds_ok": bool((rem_margin <= 0).all()),
        "final_bound_ok": bool((oracle_excess(px.components(), final_rhs.components()) <= 0).all()),
    }
    worst_term, worst_rem = _worst(term_margin), _worst(rem_margin)
    return {
        "check": "zabreiko",
        "m": [m.a1, m.a2],
        "r": r,
        "eps": [eps.a1, eps.a2],
        "alpha_star": [alpha_star.a1, alpha_star.a2],
        "x_norm": [x_norm.a1, x_norm.a2],
        "px": [px.a1, px.a2],
        "n_steps": len(x_terms),
        "capped": capped,
        "epsilons": [[e.a1, e.a2] for e in epsilons],
        "x_terms": [_vector_json(v) for v in x_terms],
        "remainders": [_vector_json(v) for v in remainders],
        **checks,
        "worst_term_margin": [worst_term.a1, worst_term.a2],
        "worst_remainder_margin": [worst_rem.a1, worst_rem.a2],
        "pass": all(checks.values()),
    }


def desk_zabreiko_instance(key: int, seed: int = 9091):
    """The Zabreiko problem (p, x, m) of op ``key`` of the ``checks-desk``
    benchmark battery at ``seed``, drawn in the battery's order; it runs at
    r = 1, eps = (1, 1) and max_n = 1000."""
    rng = np.random.default_rng([seed % (1 << 63), 2, 0, key])

    def cvec(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    T = BCMatrix(cvec(4, 4), cvec(4, 4))
    rng.uniform(0.9, 0.95, 2), rng.uniform(0, 2 * np.pi, 2), cvec(4), cvec(4)  # the battery's series
    x = BCVector(cvec(4), cvec(4))
    x = x.scale(0.9 / max(np.linalg.norm(x.v1), np.linalg.norm(x.v2)))
    s1, s2 = (np.linalg.svd(c, compute_uv=False)[0] for c in (T.m1, T.m2))
    return DSeminorm(T), x, DPlus(2.5 * s1, 2.5 * s2)


def oracle_series_sum(terms, tol, max_n: int) -> SeriesReport:
    """Capped series summation one term at a time: pull, add, measure, test.

    The tail estimate sums the last ``SERIES_WINDOW`` term norms, as the
    library's does.
    """
    if max_n < 1:
        raise InvalidInput(f"max_n must be >= 1, got {max_n}")
    tol = _as_tol(tol)
    window = SERIES_WINDOW

    it = iter(terms)
    s = None
    running = DPlus(0.0, 0.0)
    cauchy_margin = DPlus(0.0, 0.0)
    partial_norms, abs_sums = [], []
    recent = deque(maxlen=window)
    converged = False
    n = 0

    while n < max_n:
        x = next(it, None)
        if x is None:
            converged = s is not None
            break
        if s is None:
            s = x
        else:
            if x.dim != s.dim:
                raise DimensionMismatch(f"term {n} has dim {x.dim}, expected {s.dim}")
            s = s + x
        n += 1
        t_norm = vec_dnorm(x)
        running = DPlus(running.a1 + t_norm.a1, running.a2 + t_norm.a2)
        recent.append(t_norm)
        partial_norms.append(vec_dnorm(s))
        abs_sums.append(running)
        tail = DPlus(sum(t.a1 for t in recent), sum(t.a2 for t in recent))
        cauchy_margin = DPlus(max(cauchy_margin.a1, tail.a1), max(cauchy_margin.a2, tail.a2))
        if len(recent) == window and hyp_leq(tail, tol):
            converged = True
            break

    if s is None:
        raise InvalidInput("empty series")
    if not converged and n == max_n and next(it, None) is None:
        converged = True

    report = SeriesReport(
        n_terms=n,
        converged=converged,
        limit=s if converged else None,
        partial_norms=partial_norms,
        abs_sums=abs_sums,
        cauchy_margin=cauchy_margin,
        tol=tol,
        window=window,
    )
    if not converged:
        raise NotConverged(f"series not converged after {n} terms", report)
    return report



def oracle_abs_summability(terms, max_n: int, tol=None) -> AbsSummabilityReport:
    """The absolute-summability check one term, then one index pair, at a time.

    Terms are pulled, checked, added and measured as ``oracle_series_sum``
    does, but always on to the cap.  Then each pair (n - stride, n), for
    strides 1, 2, 4, ..., compares ||s_n - s_m||_D with the sum of the term
    norms between them.
    """
    if max_n < 1:
        raise InvalidInput(f"max_n must be >= 1, got {max_n}")
    tol = _as_tol(tol if tol is not None else 1e-12)

    it = iter(terms)
    sums, running, recent = [], DPlus(0.0, 0.0), deque(maxlen=SERIES_WINDOW)
    partial_norms, abs_sums = [], []
    cauchy_margin = DPlus(0.0, 0.0)
    exhausted = False
    while len(sums) < max_n:
        x = next(it, None)
        if x is None:
            exhausted = True
            break
        if sums and x.dim != sums[0].dim:
            raise DimensionMismatch(f"term {len(sums)} has dim {x.dim}, expected {sums[0].dim}")
        sums.append(sums[-1] + x if sums else x)
        t_norm = vec_dnorm(x)
        running = DPlus(running.a1 + t_norm.a1, running.a2 + t_norm.a2)
        recent.append(t_norm)
        partial_norms.append(vec_dnorm(sums[-1]))
        abs_sums.append(running)
        tail = DPlus(sum(t.a1 for t in recent), sum(t.a2 for t in recent))
        cauchy_margin = DPlus(max(cauchy_margin.a1, tail.a1), max(cauchy_margin.a2, tail.a2))
    if not sums:
        raise InvalidInput("empty series")
    exhausted = exhausted or next(it, None) is None
    converged = exhausted or (len(recent) == SERIES_WINDOW and hyp_leq(tail, tol))

    chain_ok, worst = True, [0.0, 0.0] if len(sums) == 1 else [-math.inf, -math.inf]
    stride = 1
    while stride < len(sums):
        for n in range(stride, len(sums)):
            diff = vec_dnorm(sums[n] - sums[n - stride]).components()
            upper = abs_sums[n].components()
            gap = [u - lo for u, lo in zip(upper, abs_sums[n - stride].components())]
            for c in range(2):
                excess = float(oracle_excess(diff[c], gap[c], scale=upper[c]))
                chain_ok = chain_ok and excess <= 0
                worst[c] = max(worst[c], excess)
        stride *= 2

    return AbsSummabilityReport(
        n_terms=len(sums),
        converged=converged,
        # a loop from a zero start turns an entry that is -0.0 in every term into +0.0
        limit=BCVector.zeros(sums[0].dim) + sums[-1] if converged else None,
        partial_norms=partial_norms,
        abs_sums=abs_sums,
        cauchy_margin=cauchy_margin,
        tol=tol,
        window=SERIES_WINDOW,
        abs_converged=converged,
        cauchy_chain_ok=chain_ok,
        chain_margin=Hyperbolic(*worst),
    )


def oracle_subadd(p: DSeminorm, terms, max_n: int, tol=None) -> SubaddReport:
    """The countable subadditivity check on the terms ``oracle_series_sum`` used,
    one partial sum and one running sum of p(x_k) at a time.

    p is applied by one ``seminorm_rows`` product over the stacked terms and
    one over the stacked partial sums, the products the library makes: a
    ``seminorm_eval`` per vector is a matrix-vector product, which may round
    the last digit differently.
    """
    pulled = []

    def recorded():
        for x in terms:
            pulled.append(x)
            yield x

    report = oracle_series_sum(recorded(), tol if tol is not None else DPlus(1e-12, 1e-12), max_n)
    xs, sums = pulled[: report.n_terms], []
    for x in xs:
        sums.append(sums[-1] + x if sums else x)
    p_terms = seminorm_rows(p, np.stack([x.v for x in xs], axis=1)).T.tolist()
    p_sums = seminorm_rows(p, np.stack([s.v for s in sums], axis=1)).T.tolist()
    running, margins = [0.0, 0.0], []
    partial_ok = True
    for px, ps in zip(p_terms, p_sums):
        running = [r + v for r, v in zip(running, px)]
        margins.append(oracle_excess(ps, running).tolist())
        partial_ok = partial_ok and all(e <= 0 for e in margins[-1])
    margins.append(oracle_excess(seminorm_eval(p, report.limit).components(), running).tolist())
    limit_ok = all(e <= 0 for e in margins[-1])
    return SubaddReport(
        check="subadd",
        n_terms=report.n_terms,
        series_converged=report.converged,
        partial_ok=partial_ok,
        limit_ok=limit_ok,
        worst_margin=Hyperbolic(*(max(m[c] for m in margins) for c in range(2))),
    )


def _oracle_num(x, *, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InvalidInput(f"{what}: expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError as exc:
        raise InvalidInput(f"{what}: integer literal beyond floating-point range") from exc


def _oracle_pair(x, *, what: str) -> complex:
    if not isinstance(x, (list, tuple)) or len(x) != 2:
        raise InvalidInput(f"{what}: expected [re, im], got {x!r}")
    return complex(_oracle_num(x[0], what=what), _oracle_num(x[1], what=what))


def _oracle_rows(x, *, what: str) -> list:
    if not isinstance(x, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in x):
        raise InvalidInput(f"{what} must be a list of rows, each a list of entries")
    return x


def oracle_parse_vector(obj) -> BCVector:
    """A vector document read one [re, im] entry at a time."""
    if not isinstance(obj, dict) or "e1" not in obj or "e2" not in obj:
        raise InvalidInput("vector must be an object with e1 and e2 entry lists")
    for key in ("e1", "e2"):
        if not isinstance(obj[key], (list, tuple)):
            raise InvalidInput(f"vector {key} must be a list of [re, im] pairs")
    v1 = [_oracle_pair(e, what="vector e1 entry") for e in obj["e1"]]
    v2 = [_oracle_pair(e, what="vector e2 entry") for e in obj["e2"]]
    v = BCVector(v1, v2)
    if "dim" in obj and _declared_size(obj, "dim") != v.dim:
        raise InvalidInput(f"declared dim {obj['dim']} but {v.dim} entries")
    return v


def _oracle_cartesian(x) -> Bicomplex:
    if not isinstance(x, (list, tuple)) or len(x) != 4:
        raise InvalidInput(f"cartesian entry must be [a, b, c, d], got {x!r}")
    return Bicomplex.from_reals(*(_oracle_num(v, what="matrix w") for v in x))


def oracle_parse_matrix(obj) -> BCMatrix:
    """A matrix document read one [re, im] or [a, b, c, d] entry at a time."""
    if not isinstance(obj, dict):
        raise InvalidInput("matrix must be a JSON object")
    if "w" in obj:
        rows = _oracle_rows(obj["w"], what="cartesian matrix")
        if not rows:
            raise InvalidInput("cartesian matrix must be a nonempty list of rows")
        zs = [[_oracle_cartesian(e) for e in row] for row in rows]
        m1, m2 = [[z.z1 for z in row] for row in zs], [[z.z2 for z in row] for row in zs]
    elif "e1" in obj and "e2" in obj:
        m1, m2 = (
            [[_oracle_pair(e, what=f"matrix {k} entry") for e in row]
             for row in _oracle_rows(obj[k], what=f"matrix {k}")]
            for k in ("e1", "e2")
        )
    else:
        raise InvalidInput(f"matrix object needs e1/e2 or w keys, got {sorted(obj)}")
    mat = BCMatrix(m1, m2)
    if "rows" in obj and _declared_size(obj, "rows") != mat.rows:
        raise InvalidInput(f"declared rows {obj['rows']} but matrix has {mat.rows}")
    if "cols" in obj and _declared_size(obj, "cols") != mat.cols:
        raise InvalidInput(f"declared cols {obj['cols']} but matrix has {mat.cols}")
    return mat


def one_matrix_svd(m: np.ndarray):
    """The thin SVD (u, s, vh) of one matrix in its factored orientation.

    A wide matrix (rows < cols) is factored through its transpose and read
    back: m^T = U' S V'^H gives m = V'^T S U'^T.  Others are factored as is.
    """
    if m.shape[0] < m.shape[1]:
        u, s, vh = np.linalg.svd(m.T, full_matrices=False)
        return vh.T, s, u.T
    return tuple(np.linalg.svd(m, full_matrices=False))


def oracle_ubp(family, samples: int, seed: int, delta=None):
    """``ubp_verify`` member by member, as it was before the stacked route.

    Each component of each member gets its own SVD call, in the factored
    orientation, each member its own norm and its own block product
    ``seminorm_rows``; the members attaining the supremum are picked by
    ``max`` (the first one on a tie).
    """
    if not family:
        raise ShapeMismatch("empty operator family")
    shape = (family[0].rows, family[0].cols)
    for i, T in enumerate(family):
        if (T.rows, T.cols) != shape:
            raise ShapeMismatch(f"member {i} has shape {(T.rows, T.cols)}, expected {shape}")
    if samples < 1:
        raise InvalidInput(f"samples must be >= 1, got {samples}")
    factors = [[one_matrix_svd(m) for m in (T.m1, T.m2)] for T in family]
    norms = [DPlus(float(f1[1][0]), float(f2[1][0])) for f1, f2 in factors]
    sup_opnorm = componentwise_max(norms)
    bound = sup_opnorm if delta is None else delta
    i1 = max(range(len(family)), key=lambda i: norms[i].a1)
    i2 = max(range(len(family)), key=lambda i: norms[i].a2)
    n = shape[1]
    zero = np.zeros((1, n), dtype=complex)
    r1, r2 = _sample_rows(check_stream(seed, "ubp").standard_normal((samples, 4 * n)), n)
    x1 = np.concatenate((factors[i1][0][2][:1].conj(), zero, r1))
    x2 = np.concatenate((zero, factors[i2][1][2][:1].conj(), r2))
    x = np.stack((x1, x2))
    values = np.stack([seminorm_rows(DSeminorm(T), x) for T in family])
    pstar = values.max(axis=0)
    margin = oracle_excess(pstar, require_finite(_column(bound) * dnorm_rows(x)))
    return UBPReport(
        check="ubp",
        seed=seed,
        family_size=len(family),
        samples=samples,
        sup_opnorm=sup_opnorm,
        bound_delta=bound,
        all_bounds_ok=bool((values <= pstar).all()) and bool((margin <= 0).all()),
        worst_margin=_worst(margin),
    )


def _split_on(monkeypatch):
    """Gate the component split on work alone: one BLAS thread and two
    CPUs, whatever the runner's ``OPENBLAS_NUM_THREADS`` and affinity."""
    monkeypatch.setattr(dop, "_blas_threads", lambda: 1)
    monkeypatch.setattr(dop, "_cpus", lambda: 2)


def _one_thread(monkeypatch):
    monkeypatch.setattr(dop, "_blas_threads", lambda: 1)
    monkeypatch.setattr(dop, "_cpus", lambda: 1)


def _counting_splits(monkeypatch) -> list:
    calls = []
    real = dop._beside

    def spy(job):
        calls.append(job)
        return real(job)

    monkeypatch.setattr(dop, "_beside", spy)
    return calls


def _helpers() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "hyplab-helper"]
