"""Mechanized finite-dimensional checks of the classical bound theorems.

Each routine replays a constructive argument at desk scale and returns a
report in which every inequality of the chain has been evaluated:

  * ``continuity_bound_check``: a seminorm p(x) = ||Tx||_D is continuous
    exactly when it admits a bound p(x) <= alpha ||x||_D; the least alpha
    is the operator norm, and the bound is Lipschitz along sequences.
  * ``countable_subadd_check``: p of a convergent series is dominated by
    the sum of the p-values of its terms.
  * ``ball_scaling_check``: if the closed r-ball sits inside the
    (tolerance-closed) sublevel set V_alpha, the delta*r-ball sits inside
    V_{delta*alpha} for every positive real delta.
  * ``zabreiko_decompose``: the geometric-budget decomposition behind the
    continuity of countably subadditive seminorms (Zabreiko's lemma),
    realized deterministically by grid quantization of the remainders.
  * ``ubp_verify``: uniform boundedness for a finite operator family via
    the pointwise supremum seminorm.
  * ``open_mapping_verify``: the open-mapping bound delta = 1/sigma_min,
    witnessed per sample by a minimum-norm preimage, plus the
    epsilon/2^k budget chain for the quotient seminorm.

Randomness is drawn from named counter-based streams keyed by
(seed, check name), so reports are byte-reproducible and independent of
evaluation order.  ``check_stream`` opens one such stream, and a sample
block is its first rows: row i holds the stream's normals i*w to
(i+1)*w - 1 for rows of width w, so trial i is replayed by drawing i + 1
rows, and the first k rows are the same for every sample count >= k.

The sampled checks are evaluated in blocks: a (2, k, n) array whose
leading axis is the idempotent component and whose [:, i] is the vector of
row i.  ``_fold`` draws the rows one chunk at a time, witnesses first, and
its judge applies every operator to a chunk with one stacked matrix
product, or one block solve on the operator's cached SVD; verdicts and
worst margins are maxima over the chunks, so memory does not grow with the
sample count.  Every inequality is judged through
``dmodule._within``, the one verdict rule, whose slack is relative to the
values compared, so verdicts do not depend on the operator's scale; a norm
or bound that overflows is rejected as ``InvalidInput``, never compared.
A check's parameters are the quantities of the statement it replays
(operators, radii, bounds, sample counts, seeds); the slacks
(``dmodule.CHECK_SLACK``, ``CLOSURE_TOL`` and the three below it) and the
open-mapping series ``OMT_SERIES_LEN``/``OMT_BUDGET`` are module constants.

The Zabreiko decomposition is sequential, so its steps fill (2, steps, n)
blocks one row at a time; its budgets and its exact remainder chain are
then judged over the whole blocks, and its trace holds ``Columns`` views
of them.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from .dmodule import (
    CHECK_SLACK,
    BCVector,
    Columns,
    DSeminorm,
    Report,
    _component_norms,
    _read_series,
    _within,
    _worst,
    dnorm_rows,
    require_finite,
    seminorm_eval,
    seminorm_rows,
    seminorm_terms,
    vec_dnorm,
)
from .dop import (
    BCMatrix,
    mat_apply,
    min_norm_solve,
    min_norm_solve_rows,
    op_dnorm,
    open_mapping_delta,
    svd_family,
)
from .errors import (
    HypothesisFailed,
    InvalidInput,
    PreconditionViolated,
    ShapeMismatch,
)
from .hyperscalar import DPlus, Hyperbolic, hyp_leq

#: Relative tolerance-ball radius standing in for topological closure.
CLOSURE_TOL = 1e-9

#: ``lemma31``'s tightness slack: its witness reaches the constant up to SVD rounding.
WITNESS_SLACK = 1e-8

#: ``omt-verify``'s budget-chain slack: its solves' residuals grow with kappa.
CHAIN_SLACK = 1e-8

#: The shortfall below delta ``omt-verify``'s witness may show: its solve rounds by ~2^-52 kappa.
WITNESS_SHRINK = 1e-6

#: Terms of the geometric right-hand-side series ``open_mapping_verify`` solves.
OMT_SERIES_LEN = 12

#: The budget eps of that series' quotient-seminorm chain, per component.
OMT_BUDGET = DPlus(0.5, 0.5)

#: Normals a sampled check may draw (count x weight per row, see ``_fold``), so a
#: huge count is rejected before anything is drawn.  It bounds work, not memory:
#: at the cap a check took 0.02-1.9 s on one core of a 2-CPU Xeon.
MAX_DRAWN_NORMALS = 1 << 24

_MASK64 = (1 << 64) - 1


def _stream_key(seed: int, name: str) -> tuple[int, int]:
    """The Philox key of stream (seed, name): two unsigned 64-bit words.

    The seed is taken modulo 2^64; the CRC-32 of the name fills the high
    half of the second word and the low half is zero.
    """
    return seed & _MASK64, zlib.crc32(name.encode()) << 32


def check_stream(seed: int, name: str) -> np.random.Generator:
    """Counter-based random stream keyed by (seed, check name)."""
    key = np.array(_stream_key(seed, name), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_rows(z: np.ndarray, n: int, j: int = 0) -> np.ndarray:
    """The j-th vector of dim n in every row of (k, w) normals, as a (2, k, n) block.

    Each vector takes 4n normals: real and imaginary parts of e1, then of
    e2, the order of four successive draws of n.
    """
    block = np.empty((2, len(z), n), dtype=complex)
    # one component at a time, into the block: one expression over both
    # components would make three block-sized temporaries
    for rows, o in zip(block, range(4 * n * j, 4 * n * (j + 1), 2 * n)):
        np.add(z[:, o : o + n], 1j * z[:, o + n : o + 2 * n], out=rows)
    return block


#: Floats per array of a ``_fold`` chunk: whole 64-row groups of at most this many,
#: the rest of the rows joined to the last chunk.  BLAS computes rows in groups of
#: a few, so each row keeps its place, and bits, of one product over all rows.
_CHUNK_FLOATS = 1 << 16


def _fold(seed, name, count, n, judge, lead=None, build=None, weight=None, held=0):
    """Judge ``count`` rows of stream (seed, name), one chunk at a time.

    Sample i is the stream's i-th vector of dim n, 4n normals, or what
    ``build`` makes of a chunk's (k, 4n) normals; the fixed (2, L, n) rows
    ``lead`` go first.  ``judge(x, a)`` takes a chunk's (2, k, n) block, row
    a onward, and returns (2, k) arrays in which larger is worse; each comes
    back as its componentwise maximum, a (2, 1) column.  A sample weighs
    ``weight`` (4n, its normals, or what it costs beyond them) against
    ``MAX_DRAWN_NORMALS``, a row max(weight, held) floats.
    """
    weight = 4 * n if weight is None else weight
    if count * weight > MAX_DRAWN_NORMALS:
        raise InvalidInput(
            f"{name.partition('/')[0]}: count {count} of weight {weight} each exceeds "
            f"the cap of {MAX_DRAWN_NORMALS}"
        )
    build = build or (lambda z: _sample_rows(z, n))
    rng = check_stream(seed, name)
    skip = 0 if lead is None else lead.shape[1]
    total = skip + count
    step = max(64, _CHUNK_FLOATS // max(weight, held) // 64 * 64)
    ends = [*range(step, max(total // step, 1) * step, step), total]
    worst = []
    for a, b in zip([0, *ends], ends):
        x = build(rng.standard_normal((b - max(a, skip), 4 * n)))
        if a == 0 and skip:
            x = np.concatenate((lead, x), axis=1)
        worst.append([v.max(axis=1, keepdims=True) for v in judge(x, a)])
    return [np.concatenate(v, axis=1).max(axis=1, keepdims=True) for v in zip(*worst)]


def _holds(a: Hyperbolic, b: Hyperbolic, slack: float = CHECK_SLACK, scale=0.0) -> bool:
    """``_within`` for one pair of hyperbolic values, both components."""
    return bool(_within(np.array(a.components()), np.array(b.components()), slack, scale).all())


def _column(h: Hyperbolic) -> np.ndarray:
    """A hyperbolic value as a (2, 1) column that broadcasts over a block."""
    return np.array([[h.a1], [h.a2]])


def _witness_rows(T: BCMatrix) -> np.ndarray:
    """Unit vectors attaining the operator norm, per component and combined.

    The rows of the (2, 3, n) block are (v1, 0), (0, v2) and (v1, v2), with
    v1 and v2 the right singular vectors of each component's largest
    singular value.
    """
    v = T.svd().vh[:, 0].conj()
    rows = np.zeros((2, 3, T.cols), dtype=complex)
    rows[:, 2] = rows[[0, 1], [0, 1]] = v
    return rows


class ContinuityReport(Report):
    """Evidence for the bound form of seminorm continuity."""

    check: str
    seed: int
    trials: int
    alpha_star: DPlus
    all_ok: bool
    sequence_ok: bool
    witness_tight: bool
    worst_margin: Hyperbolic

    @property
    def passed(self) -> bool:
        return self.all_ok and self.sequence_ok and self.witness_tight


def continuity_bound_check(
    p: DSeminorm,
    trials: int,
    seed: int,
    alpha_star: DPlus | None = None,
) -> ContinuityReport:
    """Verify p(x) <= alpha* ||x||_D on random samples and along sequences.

    ``alpha_star`` defaults to the operator norm of the defining operator;
    an override exists so a deliberately corrupted constant can be shown to
    fail (the witness samples attain the true constant).
    """
    if trials < 1:
        raise InvalidInput(f"trials must be >= 1, got {trials}")
    name = "lemma31"
    true_m = op_dnorm(p.T).M
    a_star = true_m if alpha_star is None else alpha_star
    alpha = _column(a_star)
    n = p.T.cols

    def judge(x, a):
        px = seminorm_rows(p, x)
        bound = require_finite(alpha * dnorm_rows(x))
        # tightness: the combined witness, row 2, attains both components of the
        # true constant, so any alpha smaller by more than WITNESS_SLACK relative is refuted
        loose = ~_within(_column(true_m), px[:, 2:3], WITNESS_SLACK) if a == 0 else np.zeros((2, 1), bool)
        return px - bound, ~_within(px, bound), loose

    # the witnesses, then one random sample per trial
    margin, over, loose = _fold(seed, name, trials, n, judge, lead=_witness_rows(p.T), held=4 * p.T.rows)

    # Lipschitz chain along generated sequences x_j = x + 2^-j d -> x:
    # |p(x_j) - p(x)| <= p(x_j - x) <= alpha* ||x_j - x||_D, 10 steps each
    z = check_stream(seed, name + "/seq").standard_normal((min(trials, 8), 8 * n))
    s, d = _sample_rows(z, n, 0)[:, :, None], _sample_rows(z, n, 1)[:, :, None]
    xj = s + d * (2.0 ** -np.arange(1, 11))[:, None]  # (2, sequences, 10, n)
    gap = np.abs(
        seminorm_rows(p, xj.reshape(2, -1, n)) - np.repeat(seminorm_rows(p, s[:, :, 0]), 10, axis=1)
    )
    seq_bound = require_finite(alpha * dnorm_rows((xj - s).reshape(2, -1, n)))

    return ContinuityReport(
        check=name,
        seed=seed,
        trials=trials,
        alpha_star=a_star,
        all_ok=not over.any(),
        sequence_ok=bool(_within(gap, seq_bound).all()),
        witness_tight=not loose.any(),
        worst_margin=_worst(margin, gap - seq_bound),
    )


class SubaddReport(Report):
    """Partial-sum domination p(s_n) <= sum of p(x_k), checked at every step."""

    check: str
    n_terms: int
    series_converged: bool
    partial_ok: bool
    limit_ok: bool
    worst_margin: Hyperbolic

    @property
    def passed(self) -> bool:
        return self.series_converged and self.partial_ok and self.limit_ok


def countable_subadd_check(
    p: DSeminorm,
    terms,
    max_n: int,
    tol=None,
) -> SubaddReport:
    """Check p(s_n) <= sum_{k<=n} p(x_k) for every partial sum of a series.

    The underlying vector series must converge as under ``series_sum`` at
    the cap (its ``NotConverged`` passes through), and its terms are read
    as ``series_sum`` reads them, up to the term where it settles.  ``tol``
    is the series tolerance, defaulting to (1e-12, 1e-12).
    """
    tol = tol if tol is not None else DPlus(1e-12, 1e-12)
    report, b = _read_series(terms, tol, max_n, keep="terms")  # raises NotConverged with report

    # running sums of p(x_k), then the block turned in place into the partial
    # sums s_n = x_1 + ... + x_n, each added in order
    p_running = require_finite(np.cumsum(seminorm_rows(p, b), axis=1))
    ps = seminorm_rows(p, np.cumsum(b, axis=1, out=b))
    partial_ok = bool(_within(ps, p_running).all())

    p_limit = np.array(seminorm_eval(p, report.limit).components())[:, None]
    p_total = p_running[:, -1:]
    limit_ok = bool(_within(p_limit, p_total).all())

    return SubaddReport(
        check="subadd",
        n_terms=report.n_terms,
        series_converged=report.converged,
        partial_ok=partial_ok,
        limit_ok=limit_ok,
        worst_margin=_worst(ps - p_running, p_limit - p_total),
    )


class BallScaleReport(Report):
    """Scaling of sublevel-set coverage from radius r to delta*r."""

    check: str
    seed: int
    samples: int
    r: float
    alpha: DPlus
    deltas: list[float]
    per_delta_ok: list[bool]
    worst_margin: Hyperbolic
    closure_tol: float

    @property
    def passed(self) -> bool:
        return all(self.per_delta_ok)


def ball_scaling_check(
    p: DSeminorm,
    alpha: Hyperbolic,
    r: float,
    delta_list: list[float],
    samples: int,
    seed: int,
) -> BallScaleReport:
    """From B[0,r] inside the closed V_alpha, conclude B[0,dr] inside V_{d*alpha}.

    V_alpha = {x : p(x) <= alpha} is the paper's sublevel set.  Its closure
    is stood in for by a tolerance closure: x is in it when p(x) <= alpha +
    CLOSURE_TOL * max(p(x), alpha) per component.  The premise is
    re-verified on witness and random samples first and a failing premise
    raises ``HypothesisFailed``.
    """
    if r <= 0:
        raise InvalidInput(f"r must be positive, got {r}")
    if alpha.a1 < 0 or alpha.a2 < 0:
        raise InvalidInput(f"alpha must be nonnegative, got ({alpha.a1}, {alpha.a2})")
    if samples < 1:
        raise InvalidInput(f"samples must be >= 1, got {samples}")
    if not delta_list:
        raise InvalidInput("deltas must be nonempty")
    if any(d <= 0 for d in delta_list):
        raise InvalidInput("all deltas must be positive")
    name = "ballscale"
    witnesses = _witness_rows(p.T)
    n = p.T.cols

    def ball(j, d, premise=False):
        """The worst margin and violations of p(x) <= d alpha over the d r ball.

        The witnesses lead, scaled onto the sphere.  Sample i is row i of
        stream j, scaled to d r times uniform i of its sibling stream j/u,
        so row i does not depend on the sample count.
        """
        stream, radius, bound = f"{name}/{j}", d * r, _column(alpha * float(d))
        u = check_stream(seed, stream + "/u")

        def build(z):
            x = _sample_rows(z, n)
            x *= (radius * u.uniform(0.0, 1.0, len(z)) / np.maximum(np.maximum(*dnorm_rows(x)), 1e-30))[:, None]
            return x

        def judge(x, a):
            px = seminorm_rows(p, x)
            outside = ~_within(px, bound, CLOSURE_TOL)
            if premise and outside.any():
                a1, a2 = px[:, outside.any(axis=0).argmax()].tolist()
                raise HypothesisFailed(
                    f"premise fails at radius {r}: p(x)=({a1}, {a2}) "
                    f"exceeds alpha=({alpha.a1}, {alpha.a2}) beyond relative tolerance {CLOSURE_TOL}"
                )
            return px - bound, outside

        ws = (radius / np.maximum(np.maximum(*dnorm_rows(witnesses)), 1e-30))[:, None]
        with np.errstate(invalid="ignore"):  # 0 * inf from an infinite radius is rejected later
            return _fold(seed, stream, samples, n, judge, witnesses * ws, build, held=4 * p.T.rows)

    ball("hyp", 1, premise=True)
    folds = [ball(f"d{j}", d) for j, d in enumerate(delta_list)]

    return BallScaleReport(
        check=name,
        seed=seed,
        samples=samples,
        r=r,
        alpha=alpha,
        deltas=list(delta_list),
        per_delta_ok=[not outside.any() for _, outside in folds],
        worst_margin=_worst(*(margin for margin, _ in folds)),
        closure_tol=CLOSURE_TOL,
    )


class ZabreikoTrace(Report):
    """Audit record of the geometric-budget decomposition x = sum x_k.

    The fields are the report's keys in emission order.  The steps are
    ``Columns`` views over read-only arrays, indexed as in the
    construction: x_terms[i] is x_{i+1} and remainders[i] is
    u_{i+1} = x - (x_1 + ... + x_{i+1}), both over a (2, steps, n) block.
    ``epsilons`` holds eps_0, ..., eps_K with eps_0 = ||x||_D / r and
    eps_k = eps / (m 2^k), and tail_bounds[i] = eps_{i+1} * r bounds
    ||u_{i+1}||_D.
    """

    check: str
    m: DPlus
    r: float
    eps: DPlus
    alpha_star: DPlus
    x_norm: DPlus
    px: DPlus
    n_steps: int
    capped: bool
    epsilons: Columns
    tail_bounds: Columns
    x_terms: Columns
    remainders: Columns
    chain_exact: bool
    term_bounds_ok: bool
    remainder_bounds_ok: bool
    final_bound_ok: bool
    worst_term_margin: Hyperbolic
    worst_remainder_margin: Hyperbolic

    @property
    def passed(self) -> bool:
        return (
            self.chain_exact
            and self.term_bounds_ok
            and self.remainder_bounds_ok
            and self.final_bound_ok
        )


#: Steps a decomposition allocates at first; its blocks double when full.
_STEP_CHUNK = 256

#: A decomposition stops once its remainder is this fraction of ||x||_D
#: per component: float64 machine epsilon, 2^-52.
_ROUNDOFF = 2.0**-52


def _grid(v: np.ndarray, pitch) -> np.ndarray:
    """Real and imaginary parts rounded to multiples of ``pitch``.

    ``np.rint`` is what ``np.round`` calls for zero decimals, minus the
    dispatch.
    """
    return np.rint(v.real / pitch) * pitch + 1j * (np.rint(v.imag / pitch) * pitch)


def _quantize(v: np.ndarray, pitch: np.ndarray) -> np.ndarray:
    """Round each row of ``v`` to the grid of its pitch, a (2, 1) column.

    Pitches are never negative; a row whose pitch is zero is copied exactly.
    """
    if all(pitch.ravel().tolist()):
        return _grid(v, pitch)
    out = v.copy()
    live = pitch[:, 0] > 0.0
    out[live] = _grid(v[live], pitch[live])
    return out


def _schedule(
    eps0: np.ndarray, ratio: np.ndarray, r: float, denom: float, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The epsilons eps_0, ..., eps_steps and the pitch of every step.

    eps_k = ratio 2^-k for k >= 1, as a (2, steps + 1) array.  Step k
    quantizes at eps'_k r / denom with eps'_k = min(eps_k, eps_{k-1}); the
    pitches come as a (steps, 2, 1) array, one column per step.
    """
    halvings = np.ldexp(ratio, -np.arange(1, steps + 1))
    epsilons = require_finite(np.concatenate((eps0, halvings), axis=1))
    clamp = np.minimum(epsilons[:, 1:], epsilons[:, :-1])
    # a pitch that overflows gives a non-finite term, rejected when it is
    # reached; steps past the end of the trace are never reached
    with np.errstate(over="ignore"):
        pitches = clamp * r / denom
    return epsilons, pitches.T[:, :, None]


def zabreiko_decompose(
    p: DSeminorm,
    x: BCVector,
    m: Hyperbolic,
    r: float,
    eps: Hyperbolic,
    max_n: int,
) -> ZabreikoTrace:
    """Decompose x into terms with geometrically decaying seminorm budget.

    Preconditions: 2 * alpha* * r <= m componentwise (alpha* the operator
    norm of p's defining operator), ||x||_D <= r componentwise, and a first
    remainder budget (eps/m) r/2 above 2^-52 ||x||_D where x is nonzero.  Each
    term is the grid quantization of the current remainder at pitch
    eps'_k r / (2 sqrt(n)) per real coordinate, with eps'_k =
    min(eps_k, eps_{k-1}) so the budget chain
    p(x_k) <= alpha*(eps_{k-1}+eps'_k) r <= eps_{k-1} m survives a first
    step where eps_0 = ||x||_D/r is smaller than eps_1.

    Terminates at ``max_n`` steps or at the first step where
    ||u_k||_D <= 2^-52 ||x||_D componentwise (float64 machine epsilon), so
    x = 0 stops at step 1; ``capped`` is false when this rule stopped the
    trace.  Every step past it would be below double precision relative to
    x.  The remainder budget is eps_k r = (eps/m) 2^-k r, so the rule holds
    by step k ~ 52 + log2(eps r / (m ||x||_D)): the same step at every
    common scale of x, r, m and eps, as long as the l2 squares of the
    remainder's entries do not underflow.  A random x in the unit ball at
    n=4 with r = 1 and eps = 1 stops after about 49 steps, and its trace is
    ~37 KB of JSON (about 190 bytes per step and dimension).  Once eps_k
    underflows the pitch is zero, the remainder is copied into the term and
    the next remainder is zero, so no trace is longer than ~2,100 steps.
    Memory and output grow with steps * n and not with ``max_n``, which
    only caps the steps.  The final bound p(x) <= (m/r)||x||_D + eps is
    evaluated directly on x and does not depend on where the trace stops.

    The steps run on (2, steps, n) blocks: each step only quantizes,
    subtracts and takes the norm that decides termination.  The budgets
    p(x_k) <= eps_{k-1} m and ||u_k||_D <= eps_k r and the replay of the
    exact chain u_k = u_{k-1} - x_k are then judged once over the blocks.
    """
    if max_n < 1:
        raise InvalidInput(f"max_n must be >= 1, got {max_n}")
    if r <= 0:
        raise PreconditionViolated(f"radius must be positive, got {r}")
    if not eps.is_strictly_positive():
        raise PreconditionViolated("eps must be strictly positive in both components")
    if not m.is_strictly_positive():
        raise PreconditionViolated("m must be strictly positive in both components")

    alpha_star = op_dnorm(p.T).M
    lhs = (2.0 * alpha_star) * r
    bad = [f"e{i}: 2*alpha*r={a} > m={b}"
           for i, a, b in zip((1, 2), lhs.components(), m.components()) if a > b]
    if bad:
        raise PreconditionViolated("budget precondition fails (" + "; ".join(bad) + ")")

    x_norm = vec_dnorm(x)
    if x_norm.a1 > r or x_norm.a2 > r:
        raise PreconditionViolated(
            f"||x||_D=({x_norm.a1}, {x_norm.a2}) outside the radius-{r} ball"
        )

    n = x.dim
    denom = 2.0 * math.sqrt(n)
    eps0 = _column(x_norm) / r
    ratio = _column(eps) / _column(m)
    stop1, stop2 = _ROUNDOFF * x_norm.a1, _ROUNDOFF * x_norm.a2
    coarse = [f"e{i}: (eps/m)*r/2={b} <= 2^-52*||x||_D={s}"
              for i, b, s in zip((1, 2), (ratio[:, 0] / 2 * r).tolist(), (stop1, stop2)) if 0 < s and b <= s]
    if coarse:
        raise PreconditionViolated(
            "first remainder budget below the float64 spacing of x, so no grid step can meet it ("
            + "; ".join(coarse) + ")")

    size = 0
    terms = np.empty((2, 0, n), dtype=complex)
    rems = np.empty_like(terms)
    u = x.v
    steps = 0
    capped = True
    # a step that overflows ends the loop and is rejected below, so numpy's
    # warnings about it are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        while steps < max_n:
            if steps == size:
                size = min(max_n, max(_STEP_CHUNK, 2 * size))
                epsilons, pitches = _schedule(eps0, ratio, r, denom, size)
                unset = np.empty((2, size - steps, n), dtype=complex)  # the steps to come
                terms = np.concatenate((terms, unset), axis=1)
                rems = np.concatenate((rems, unset), axis=1)
            xk = _quantize(u, pitches[steps])
            terms[:, steps] = xk
            u = rems[:, steps] = u - xk
            steps += 1
            un1, un2 = _component_norms(u).tolist()
            if not (math.isfinite(un1) and math.isfinite(un2)):
                break  # a non-finite remainder, rejected below
            if un1 <= stop1 and un2 <= stop2:
                capped = False
                break

    terms = terms[:, :steps]
    rems = rems[:, :steps]
    epsilons = epsilons[:, : steps + 1]
    # the loop stops at the first non-finite remainder, so only the last
    # term and remainder can be non-finite: reject them as vectors are
    BCVector(*terms[:, -1])
    BCVector(*rems[:, -1])

    # budgets p(x_k) <= eps_{k-1} m and ||u_k||_D <= eps_k r, every step
    pks = seminorm_terms(p, terms)
    uns = dnorm_rows(rems)
    with np.errstate(over="ignore"):  # an overflowing bound is rejected here
        tbs = require_finite(epsilons[:, :-1] * _column(m))
        tails = require_finite(epsilons[:, 1:] * r)
    term_ok = bool(_within(pks, tbs).all())
    rem_ok = bool(_within(uns, tails).all())

    # replay the exact remainder chain u_k = u_{k-1} - x_k
    before = np.concatenate((x.v[:, None], rems[:, :-1]), axis=1)
    chain_exact = bool(np.array_equal(before - terms, rems))

    px = seminorm_eval(p, x)
    final_rhs = DPlus(
        m.a1 * x_norm.a1 / r + eps.a1,
        m.a2 * x_norm.a2 / r + eps.a2,
    )
    final_bound_ok = _holds(px, final_rhs)

    return ZabreikoTrace(
        check="zabreiko",
        m=m,
        r=r,
        eps=eps,
        alpha_star=alpha_star,
        x_norm=x_norm,
        px=px,
        n_steps=steps,
        capped=capped,
        epsilons=Columns(epsilons),
        tail_bounds=Columns(tails),
        x_terms=Columns(terms),
        remainders=Columns(rems),
        chain_exact=chain_exact,
        term_bounds_ok=term_ok,
        remainder_bounds_ok=rem_ok,
        final_bound_ok=final_bound_ok,
        worst_term_margin=_worst(pks - tbs),
        worst_remainder_margin=_worst(uns - tails),
    )


class UBPReport(Report):
    """Uniform boundedness of a finite seminorm family via pointwise sups."""

    check: str
    seed: int
    family_size: int
    samples: int
    pointwise_sups: Columns
    sup_opnorm: DPlus
    bound_delta: DPlus
    all_bounds_ok: bool
    worst_margin: Hyperbolic

    @property
    def passed(self) -> bool:
        return self.all_bounds_ok


def ubp_verify(
    family: list[BCMatrix],
    samples: int,
    seed: int,
    delta: DPlus | None = None,
) -> UBPReport:
    """Verify the chain p_s(x) <= p*(x) <= delta ||x||_D over a family.

    p*(x) is the pointwise supremum over the family and delta defaults to
    the supremum of the operator norms.  The sample set always contains the
    top-singular-vector witnesses of the norm-attaining member per
    component (the first on a tie), so an undersized delta (e.g. shrunk by
    1e-6) is refuted.  ``svd_family`` factors the whole family, one SVD call
    per component or one for both, and one stacked product per component
    and chunk of samples applies it; each value is bit for bit the one that
    member's own SVD and product give.
    """
    if not family:
        raise ShapeMismatch("empty operator family")
    shape = (family[0].rows, family[0].cols)
    for i, T in enumerate(family):
        if (T.rows, T.cols) != shape:
            raise ShapeMismatch(f"member {i} has shape {(T.rows, T.cols)}, expected {shape}")
    if samples < 1:
        raise InvalidInput(f"samples must be >= 1, got {samples}")
    name = "ubp"

    # the top singular values of all members; argmax takes the first on a tie
    top = np.array([f.s[:, 0] for f in svd_family(family)])
    i1, i2 = top.argmax(axis=0).tolist()
    sup_opnorm = DPlus(top[i1, 0], top[i2, 1])
    bound = sup_opnorm if delta is None else delta

    # p_s(x) for every member s and sample x, as (2, members, k), from one
    # broadcast product per chunk; p* is their maximum, so p_s <= p*
    m = np.stack([T.m for T in family], axis=1).mT  # (2, members, cols, rows)
    pstar = []

    def judge(x, a):
        with np.errstate(over="ignore", invalid="ignore"):  # rejected here
            values = _component_norms(x[:, None] @ m)
        pstar.append(require_finite(values).max(axis=1))
        rhs = require_finite(_column(bound) * dnorm_rows(x))
        return pstar[-1] - rhs, ~_within(pstar[-1], rhs)

    # witnesses from the members attaining the supremum per component lead
    lead = np.concatenate((_witness_rows(family[i1])[:, :1], _witness_rows(family[i2])[:, 1:2]), axis=1)
    # a sample weighs its members x rows products, no less than its draws
    weight = 4 * max(shape[1], len(family) * shape[0])
    margin, over = _fold(seed, name, samples, shape[1], judge, lead, weight=weight)

    return UBPReport(
        check=name,
        seed=seed,
        family_size=len(family),
        samples=samples,
        pointwise_sups=Columns(np.concatenate(pstar, axis=1)),
        sup_opnorm=sup_opnorm,
        bound_delta=bound,
        all_bounds_ok=not over.any(),
        worst_margin=_worst(margin),
    )


class OpenMapReport(Report):
    """Solve-and-bound evidence for the open-mapping constant."""

    check: str
    seed: int
    trials: int
    delta: DPlus
    solve_ok: bool
    bound_ok: bool
    witness_ok: bool
    witness_ratio: DPlus
    subadd_ok: bool
    worst_residual: DPlus
    worst_margin: Hyperbolic

    @property
    def passed(self) -> bool:
        return self.solve_ok and self.bound_ok and self.witness_ok and self.subadd_ok


def open_mapping_verify(T: BCMatrix, trials: int, seed: int) -> OpenMapReport:
    """Verify delta = 1/sigma_min by solving for random right-hand sides.

    For every sampled y the minimum-norm preimage x must satisfy Tx = y
    within ``CHECK_SLACK * ||y||`` and ||x||_D <= delta ||y||_D, with the bound
    attained (up to ``WITNESS_SHRINK`` relative) on the bottom singular vectors, whose
    solve may leave a residual up to ||y|| times max(``CHECK_SLACK``, 8 *
    2^-52 * kappa), kappa the larger component condition number.  A geometric
    series of ``OMT_SERIES_LEN`` right-hand sides then replays
    the eps/2^k budget with eps = ``OMT_BUDGET``: with x_k the minimum-norm
    preimages, T(sum x_k) = sum y_k, q(sum y_k) <= ||sum x_k||_D
    <= sum ||x_k||_D and q(sum y_k) <= sum q(y_k) + eps componentwise are
    checked.  Since q(y_k) is ||x_k||_D, q(y_k) <= ||x_k||_D + eps/2^k and
    sum ||x_k||_D <= sum q(y_k) + eps hold by construction and are not
    compared.
    """
    if trials < 1:
        raise InvalidInput(f"trials must be >= 1, got {trials}")
    name = "omt-verify"
    delta = open_mapping_delta(T)  # raises NotSurjective
    rows = T.rows

    def judge(y, a):  # T x_i = y_i with x_i of least norm, one block solve per chunk
        sol = min_norm_solve_rows(T, y, tol=CHECK_SLACK)
        rhs = require_finite(_column(delta) * sol.ynorm)
        return sol.residual, sol.qy - rhs, ~_within(sol.qy, rhs)

    # a trial weighs its (2, cols) preimage, no less than its draws: cols >= rows
    res, margin, over = _fold(seed, name, trials, rows, judge, weight=4 * T.cols)

    # minimality witness: the left singular vectors of the smallest
    # singular values reach the constant (T is surjective, so rows <= cols)
    # (its residual stayed below 0.7 * 2^-52 * kappa up to kappa 1e9: 8 leaves 10x)
    u, s, _ = T.svd()
    kappa = float((s[:, 0] / s[:, -1]).max())
    yw = BCVector(*u[:, :, rows - 1])
    wrep = min_norm_solve(T, yw, tol=max(CHECK_SLACK, 8 * np.finfo(float).eps * kappa))
    nyw = vec_dnorm(yw)
    ratio = DPlus(wrep.qy.a1 / nyw.a1, wrep.qy.a2 / nyw.a2)
    witness_ok = hyp_leq((1.0 - WITNESS_SHRINK) * delta, ratio)

    # quotient-seminorm budget chain over the generated convergent series
    # y_k = 2^-(k-1) y_0, k = 1..OMT_SERIES_LEN, solved as one block
    z = check_stream(seed, name + "/series").standard_normal((1, 4 * rows))
    y0 = BCVector(*_sample_rows(z, rows)[:, 0])
    ny0 = vec_dnorm(y0)
    y0 = y0.scale(1.0 / max(ny0.a1, ny0.a2))
    ys = y0.v[:, None] * (0.5 ** np.arange(OMT_SERIES_LEN))[:, None]
    chain = min_norm_solve_rows(T, ys, tol=CHECK_SLACK)

    # sums in series order from zero; adding +0.0 restores the zero start
    y_sum = BCVector(*(np.cumsum(ys, axis=1)[:, -1] + 0.0))
    x_sum = BCVector(*(np.cumsum(chain.x, axis=1)[:, -1] + 0.0))
    sum_q = Hyperbolic(*np.cumsum(chain.qy, axis=1)[:, -1].tolist())
    q_sum = min_norm_solve(T, y_sum, tol=CHECK_SLACK).qy
    nx_sum = vec_dnorm(x_sum)
    residual = vec_dnorm(mat_apply(T, x_sum) - y_sum)
    subadd_ok = (
        _holds(residual, DPlus(0.0, 0.0), CHAIN_SLACK, np.array(vec_dnorm(y_sum).components()))
        and _holds(q_sum, nx_sum, CHAIN_SLACK)
        and _holds(nx_sum, sum_q, CHAIN_SLACK)
        and _holds(q_sum, sum_q + OMT_BUDGET, CHAIN_SLACK)
    )

    return OpenMapReport(
        check=name,
        seed=seed,
        trials=trials,
        delta=delta,
        # min_norm_solve_rows raised NotInRange for any residual beyond its
        # tolerance, so every solve that reached here is within it
        solve_ok=True,
        bound_ok=not over.any(),
        witness_ok=witness_ok,
        witness_ratio=ratio,
        subadd_ok=subadd_ok,
        worst_residual=DPlus(*np.maximum(0.0, res[:, 0]).tolist()),
        worst_margin=_worst(margin),
    )
