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
row i.  ``_admit`` weighs the sample count first, then ``_fold`` draws the
rows one chunk at a time, fixed rows first, and its judge applies every
operator to a chunk with one stacked matrix product, or one block solve on
the operator's cached SVD; verdicts and worst margins are maxima over the
chunks, so memory does not grow with the sample count.  The fixed rows are
witnesses, and for ``open_mapping_verify`` also the series chain, so each of
its right-hand sides is solved in one block solve per chunk.  Every
inequality is judged once, through ``dmodule._excess``, the one verdict
rule, whose slack is relative to the values compared, so verdicts do not
depend on the operator's scale: the inequality holds where its excess is
at most 0, and each reported margin is the worst excess of the verdicts
it covers, so its sign agrees with them.  A norm or bound that overflows
is rejected as ``InvalidInput``, never compared.
A check's parameters are the quantities of the statement it replays
(operators, radii, bounds, sample counts, seeds); the one slack
``dmodule.CHECK_SLACK``, which ``open_mapping_verify`` alone widens with
its operator's condition number, and the open-mapping series
``OMT_SERIES_LEN``/``OMT_BUDGET`` are module constants.

The Zabreiko decomposition is sequential, so its steps run one vector at
a time, its stop rule is judged once per chunk of steps, and the steps are
stacked into (2, steps, n) blocks once it stops; its budgets and its exact
remainder chain are then judged over the whole blocks, and its trace holds
``Columns`` views of them.
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
    _excess,
    _read_series,
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
from .hyperscalar import DPlus, Hyperbolic

#: Terms of the geometric right-hand-side series ``open_mapping_verify`` solves.
OMT_SERIES_LEN = 12

#: The budget eps of that series' quotient-seminorm chain, per component.
OMT_BUDGET = DPlus(0.5, 0.5)

#: Floats a sampled check's samples may weigh in all (see ``_admit``), so a huge
#: count is rejected before anything is factored or drawn.  It bounds work, not
#: memory: at the cap, one BLAS thread on a 2-CPU AMD EPYC, each check took
#: 0.26-0.36 s at 4x4, 0.21 s at 64x128, 0.58-1.07 s at 512x512, under 0.02 s at 8192x1.
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


def _admit(name: str, count: int, width: int, balls: int = 1) -> int:
    """A sample's weight, 4 * ``width`` floats for its widest array (its draw, image
    T x, family's products or preimage), once ``count``, at least 1, is admitted:
    samples drawn in each of ``balls`` balls weigh at most ``MAX_DRAWN_NORMALS``.
    Each sampled check calls this once, before it factors or draws anything."""
    weight = 4 * width
    if count < 1:
        raise InvalidInput(f"{name}: count must be >= 1, got {count}")
    if count * balls * weight > MAX_DRAWN_NORMALS:
        raise InvalidInput(
            f"{name}: count {count} of weight {balls * weight} each exceeds the cap of {MAX_DRAWN_NORMALS}")
    return weight


def _fold(seed, name, count, n, judge, weight, lead=None, build=None):
    """Judge ``count`` rows of stream (seed, name), one chunk at a time.

    Sample i is the stream's i-th vector of dim n, 4n normals, or what
    ``build`` makes of a chunk's (k, 4n) normals; the fixed (2, L, n) rows
    ``lead`` go first.  ``judge(x, a)`` takes a chunk's (2, k, n) block, row
    a onward, and returns (2, k) arrays in which larger is worse, each an
    inequality's ``_excess`` or a residual; each comes back as its
    componentwise maximum, a (2, 1) column, so an excess's column is at most
    0 exactly where its inequality holds on every row.  ``weight`` is the
    sample's weight from ``_admit``, which admits the count; here it only
    sizes the chunks.
    """
    build = build or (lambda z: _sample_rows(z, n))
    rng = check_stream(seed, name)
    skip = 0 if lead is None else lead.shape[1]
    total = skip + count
    step = max(64, _CHUNK_FLOATS // weight // 64 * 64)
    ends = [*range(step, max(total // step, 1) * step, step), total]
    worst = []
    for a, b in zip([0, *ends], ends):
        x = build(rng.standard_normal((b - max(a, skip), 4 * n)))
        if a == 0 and skip:
            x = np.concatenate((lead, x), axis=1)
        worst.append([v.max(axis=1, keepdims=True) for v in judge(x, a)])
    return [np.concatenate(v, axis=1).max(axis=1, keepdims=True) for v in zip(*worst)]


def _column(h: Hyperbolic) -> np.ndarray:
    """A hyperbolic value as a (2, 1) column that broadcasts over a block."""
    return np.array([[h.a1], [h.a2]])


def _witness_rows(T: BCMatrix) -> np.ndarray:
    """The unit vector (v1, v2) attaining the operator norm in both components,
    as the one row of a (2, 1, n) block: v1 and v2 are the right singular
    vectors of each component's largest singular value.  The components are
    judged apart, so this one row attains each of them; a row with a zero
    component would only compare 0 with 0 there.
    """
    return T.svd().vh[:, :1].conj()


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
    name = "lemma31"
    weight = _admit(name, trials, max(p.T.cols, p.T.rows))  # a trial's draw or its image T x
    true_m = op_dnorm(p.T).M
    a_star = true_m if alpha_star is None else alpha_star
    alpha = _column(a_star)
    n = p.T.cols

    def judge(x, a):
        px = seminorm_rows(p, x)
        # tightness: the witness, row 0, attains both components of the true constant
        # up to SVD rounding, so any alpha smaller by more than the slack is refuted
        loose = _excess(_column(true_m), px[:, :1]) if a == 0 else np.full((2, 1), -np.inf)
        return _excess(px, require_finite(alpha * dnorm_rows(x))), loose

    # the witness, then one random sample per trial
    margin, loose = _fold(seed, name, trials, n, judge, weight, _witness_rows(p.T))

    # Lipschitz chain along generated sequences x_j = x + 2^-j d -> x:
    # |p(x_j) - p(x)| <= p(x_j - x) <= alpha* ||x_j - x||_D, 10 steps each
    z = check_stream(seed, name + "/seq").standard_normal((min(trials, 8), 8 * n))
    s, d = _sample_rows(z, n, 0)[:, :, None], _sample_rows(z, n, 1)[:, :, None]
    xj = s + d * (2.0 ** -np.arange(1, 11))[:, None]  # (2, sequences, 10, n)
    gap = np.abs(
        seminorm_rows(p, xj.reshape(2, -1, n)) - np.repeat(seminorm_rows(p, s[:, :, 0]), 10, axis=1)
    )
    seq_margin = _excess(gap, require_finite(alpha * dnorm_rows((xj - s).reshape(2, -1, n))))

    return ContinuityReport(
        check=name,
        seed=seed,
        trials=trials,
        alpha_star=a_star,
        all_ok=bool((margin <= 0).all()),
        sequence_ok=bool((seq_margin <= 0).all()),
        witness_tight=bool((loose <= 0).all()),
        worst_margin=_worst(margin, seq_margin),
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
    report, b = _read_series(terms, tol, max_n, keep=True)  # raises NotConverged with report

    # running sums of p(x_k), then the block turned in place into the partial
    # sums s_n = x_1 + ... + x_n, each added in order
    p_running = require_finite(np.cumsum(seminorm_rows(p, b), axis=1))
    partial = _excess(seminorm_rows(p, np.cumsum(b, axis=1, out=b)), p_running)
    limit = _excess(_column(seminorm_eval(p, report.limit)), p_running[:, -1:])

    return SubaddReport(
        check="subadd",
        n_terms=report.n_terms,
        series_converged=report.converged,
        partial_ok=bool((partial <= 0).all()),
        limit_ok=bool((limit <= 0).all()),
        worst_margin=_worst(partial, limit),
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
    alpha: Hyperbolic | None,
    r: float,
    delta_list: list[float],
    samples: int,
    seed: int,
) -> BallScaleReport:
    """From B[0,r] inside the closed V_alpha, conclude B[0,dr] inside V_{d*alpha}.

    V_alpha = {x : p(x) <= alpha} is the paper's sublevel set.  Its closure
    is stood in for by a tolerance closure: x is in it when p(x) <= alpha +
    CHECK_SLACK * max(p(x), alpha) per component, the one verdict rule, and
    the report records that slack as ``closure_tol``.  The premise is
    re-verified on witness and random samples first and a failing premise
    raises ``HypothesisFailed``.  ``alpha`` None stands for ||p.T||_D r, the
    least alpha the premise allows, computed once the count is admitted.
    """
    if not math.isfinite(r):
        raise InvalidInput(f"r must be finite, got {r}")
    if r <= 0:
        raise InvalidInput(f"r must be positive, got {r}")
    if alpha is not None and (alpha.a1 < 0 or alpha.a2 < 0):
        raise InvalidInput(f"alpha must be nonnegative, got ({alpha.a1}, {alpha.a2})")
    if not delta_list:
        raise InvalidInput("deltas must be nonempty")
    if not all(map(math.isfinite, delta_list)):
        raise InvalidInput("all deltas must be finite")
    if any(d <= 0 for d in delta_list):
        raise InvalidInput("all deltas must be positive")
    name = "ballscale"
    weight = _admit(name, samples, max(p.T.cols, p.T.rows), balls=1 + len(delta_list))
    alpha = op_dnorm(p.T).M * r if alpha is None else alpha
    witness = _witness_rows(p.T)
    n = p.T.cols

    def ball(j, d, premise=False):
        """The worst excess of p(x) over d alpha on the d r ball.

        The witness leads, scaled onto the sphere.  Sample i is row i of
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
            excess = _excess(px, bound)
            outside = (excess > 0).any(axis=0)
            if premise and outside.any():
                a1, a2 = px[:, outside.argmax()].tolist()
                raise HypothesisFailed(
                    f"premise fails at radius {r}: p(x)=({a1}, {a2}) "
                    f"exceeds alpha=({alpha.a1}, {alpha.a2}) beyond relative tolerance {CHECK_SLACK}"
                )
            return (excess,)

        ws = (radius / np.maximum(np.maximum(*dnorm_rows(witness)), 1e-30))[:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan scale: the judge rejects it
            return _fold(seed, stream, samples, n, judge, weight, witness * ws, build)[0]

    ball("hyp", 1, premise=True)
    folds = [ball(f"d{j}", d) for j, d in enumerate(delta_list)]

    return BallScaleReport(
        check=name,
        seed=seed,
        samples=samples,
        r=r,
        alpha=alpha,
        deltas=list(delta_list),
        per_delta_ok=[bool((margin <= 0).all()) for margin in folds],
        worst_margin=_worst(*folds),
        closure_tol=CHECK_SLACK,
    )


class ZabreikoTrace(Report):
    """Audit record of the geometric-budget decomposition x = sum x_k.

    The fields are the report's keys in emission order.  The steps are
    ``Columns`` views over read-only arrays, indexed as in the
    construction: x_terms[i] is x_{i+1} and remainders[i] is
    u_{i+1} = x - (x_1 + ... + x_{i+1}), both over a (2, steps, n) block.
    ``epsilons`` holds eps_0, ..., eps_K with eps_0 = ||x||_D / r and
    eps_k = eps / (m 2^k); eps_{i+1} * r, the remainder budget, bounds
    ||u_{i+1}||_D and is not stored, as ``epsilons`` and ``r`` give it.
    A term's zeros are +0.0 where its pitch is positive, so a remainder
    coordinate is -0.0 only where that coordinate of x is.
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


#: No decomposition runs past this step: eps/m < 2^1024, so eps_k = ldexp(eps/m, -k)
#: and the pitch are 0 from k = 2099 on, and a zero pitch leaves a zero remainder.
_MAX_STEPS = 2099

#: A decomposition stops once its remainder is this fraction of ||x||_D
#: per component: float64 machine epsilon, 2^-52.
_ROUNDOFF = 2.0**-52

#: The stop rule is judged once per chunk of this many steps.
_CHUNK_STEPS = 16


def _grid(v: np.ndarray, pitch) -> np.ndarray:
    """Each real of the float view ``v`` rounded to a multiple of its row's
    positive ``pitch``; adding 0.0 turns ``rint``'s -0.0 into +0.0."""
    return np.rint(v / pitch) * pitch + 0.0


def _quantize(v: np.ndarray, pitch: np.ndarray) -> np.ndarray:
    """Round each row of the float view ``v`` to the grid of its pitch, a
    (2, 1) column holding a zero: a row whose pitch is zero is copied exactly,
    zero signs included.  Pitches are never negative."""
    out = v.copy()
    live = pitch[:, 0] > 0.0
    out[live] = _grid(v[live], pitch[live])
    return out


def _finite_steps(v: np.ndarray, what: str, first: int = 0) -> np.ndarray:
    """``v``, one (2,) column per step from step ``first``, or the rejection of
    its first non-finite column, which names ``what`` and the step."""
    if not np.isfinite(v).all():
        k = int(np.isfinite(v).all(axis=0).argmin())
        a, b = v[:, k].tolist()
        raise InvalidInput(f"{what} is not finite at step {first + k}: ({a}, {b})")
    return v


def _schedule(
    eps0: np.ndarray, ratio: np.ndarray, r: float, denom: float, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The epsilons eps_0, ..., eps_steps and the pitches of steps 1 to ``steps``.

    eps_k = ratio 2^-k for k >= 1, and ``eps0`` is eps_0 as a (2, 1) column,
    the first of the (2, steps + 1) array.  Step k quantizes at
    eps'_k r / denom with eps'_k = min(eps_k, eps_{k-1}); the pitches come as
    a (steps, 2, 1) array, one column per step.
    """
    halvings = np.ldexp(ratio, -np.arange(1, steps + 1))
    epsilons = np.concatenate((eps0, halvings), axis=1)
    pitches = np.minimum(epsilons[:, 1:], epsilons[:, :-1]) * r / denom
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
    n=4 with r = 1 and eps = 1 stops after 47 to 49 steps, and its trace is
    ~34 KB of JSON (about 165 to 185 bytes per step and dimension).  Once eps_k
    underflows, a zero pitch copies the remainder into the term and the next
    remainder is zero; eps/m is below 2^1024, so that is by step
    ``_MAX_STEPS`` = 2,099.  The schedule of min(``max_n``, 2,099) steps is
    built once, before the first step, so it holds at most ~67 KB, and
    memory and output grow with steps * n, not with ``max_n``.
    The final bound p(x) <= (m/r)||x||_D + eps is evaluated directly on x
    and does not depend on where the trace stops.

    Each step is one grid op on the remainder's float view,
    ``rint(u / pitch) * pitch + 0.0``, so each zero of a term is +0.0 (a zero
    pitch copies the remainder), and one subtraction.  The stop rule is
    judged once per ``_CHUNK_STEPS`` steps, by one norm call over their
    stacked remainders, and cuts the trace at the first step that meets it
    or whose norm is not finite; the steps computed past the cut leave no
    block, norm or warning.  The budgets p(x_k) <= eps_{k-1} m and
    ||u_k||_D <= eps_k r and the exact chain u_k = u_{k-1} - x_k are then
    judged once over the stacked (2, steps, n) blocks.
    """
    if max_n < 1:
        raise InvalidInput(f"max_n must be >= 1, got {max_n}")
    if not math.isfinite(r):
        raise InvalidInput(f"r must be finite, got {r}")
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
    stops = _ROUNDOFF * _column(x_norm)
    with np.errstate(over="ignore"):  # an infinite ratio is rejected below; an infinite budget is not coarse
        ratio = _column(eps) / _column(m)
        coarse = [f"e{i}: (eps/m)*r/2={b} <= 2^-52*||x||_D={s}"
                  for i, b, s in zip((1, 2), (ratio[:, 0] / 2 * r).tolist(), stops[:, 0].tolist()) if 0 < s and b <= s]
    if coarse:
        raise PreconditionViolated(
            "first remainder budget below the float64 spacing of x, so no grid step can meet it ("
            + "; ".join(coarse) + ")")

    # eps_k = ldexp(eps/m, -k) is finite at every step k >= 1 if it is at step 1
    _finite_steps(np.ldexp(ratio, -1), "eps_k = (eps/m) 2^-k", 1)
    terms, rems, uns = [], [], []  # the terms and remainders per step, their norms per chunk
    u = x.v.view(float)
    # a pitch or step that overflows ends the trace and is rejected below, and
    # steps past a chunk's cut are dropped, so numpy's warnings about them are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        epsilons, pitches = _schedule(eps0, ratio, r, denom, min(max_n, _MAX_STEPS))
        whole = pitches.all(axis=(1, 2)).tolist()  # a step with no zero pitch is one grid op
        for start in range(0, len(whole), _CHUNK_STEPS):
            for p_k, grid in zip(pitches[start : start + _CHUNK_STEPS], whole[start : start + _CHUNK_STEPS]):
                xk = _grid(u, p_k) if grid else _quantize(u, p_k)
                u = u - xk
                terms.append(xk)
                rems.append(u)
            un = _component_norms(np.array(rems[start:]).view(complex).swapaxes(0, 1))
            # cut at the first non-finite remainder norm, rejected below, or
            # at the first remainder within roundoff of x
            cut = np.flatnonzero((un <= stops).all(axis=0) | ~np.isfinite(un).all(axis=0))
            uns.append(un[:, : cut[0] + 1] if cut.size else un)
            if cut.size:
                break
    capped = not cut.size

    uns = np.concatenate(uns, axis=1)
    steps = uns.shape[1]
    terms, rems = (np.array(b[:steps]).swapaxes(0, 1).view(complex) for b in (terms, rems))
    epsilons = epsilons[:, : steps + 1]
    # the trace stops at the first non-finite remainder norm, so only the last
    # step's term, remainder and norms can be non-finite
    for what, v in (("the term x_k", terms[:, -1]), ("the remainder u_k", rems[:, -1]), ("||u_k||_D", uns[:, -1])):
        if not np.isfinite(v).all():
            p1, p2 = pitches[steps - 1, :, 0].tolist()
            raise InvalidInput(
                f"{what} is not finite at step {steps}, quantized at pitch eps'_k r / (2 sqrt(n)) = ({p1}, {p2})")

    # budgets p(x_k) <= eps_{k-1} m and ||u_k||_D <= eps_k r, every step.  The
    # term budget is finite: ||x||_D <= r gives eps_0 <= 1, so eps_0 m <= m, and
    # for k >= 1 eps_k = ldexp(eps/m, -k) is finite (checked at step 1), so
    # eps_k m <= (eps/2)(1 + u)^2 < 2^1024 with u = 2^-53 the unit roundoff
    term_margin = _excess(seminorm_terms(p, terms), epsilons[:, :-1] * _column(m))
    with np.errstate(over="ignore"):  # an overflowing bound is rejected here
        tails = _finite_steps(epsilons[:, 1:] * r, "the remainder budget eps_k r", 1)
    rem_margin = _excess(uns, tails)

    # replay the exact remainder chain u_k = u_{k-1} - x_k
    before = np.concatenate((x.v[:, None], rems[:, :-1]), axis=1)
    chain_exact = bool(np.array_equal(before - terms, rems))

    px = seminorm_eval(p, x)
    final_rhs = DPlus(
        m.a1 * x_norm.a1 / r + eps.a1,
        m.a2 * x_norm.a2 / r + eps.a2,
    )

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
        x_terms=Columns(terms),
        remainders=Columns(rems),
        chain_exact=chain_exact,
        term_bounds_ok=bool((term_margin <= 0).all()),
        remainder_bounds_ok=bool((rem_margin <= 0).all()),
        final_bound_ok=bool((_excess(_column(px), _column(final_rhs)) <= 0).all()),
        worst_term_margin=_worst(term_margin),
        worst_remainder_margin=_worst(rem_margin),
    )


class UBPReport(Report):
    """Uniform boundedness of a finite seminorm family via pointwise sups."""

    check: str
    seed: int
    family_size: int
    samples: int
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
    the supremum of the operator norms.  The samples always start with one
    witness row: per component, the top right singular vector of the member
    that attains the supremum there (the first on a tie), so a delta
    undersized in either component (e.g. shrunk by 1e-6) is refuted.
    ``svd_family`` factors the whole family in one SVD call, and one stacked
    product per chunk of samples applies it; each value is bit for bit the
    one that member's own SVD and product give.
    """
    if not family:
        raise ShapeMismatch("empty operator family")
    shape = (family[0].rows, family[0].cols)
    for i, T in enumerate(family):
        if (T.rows, T.cols) != shape:
            raise ShapeMismatch(f"member {i} has shape {(T.rows, T.cols)}, expected {shape}")
    name = "ubp"
    weight = _admit(name, samples, max(shape[1], len(family) * shape[0]))  # its draw or members x rows products

    # the top singular values of all members; argmax takes the first on a tie
    top = np.array([f.s[:, 0] for f in svd_family(family)])
    i1, i2 = top.argmax(axis=0).tolist()
    sup_opnorm = DPlus(top[i1, 0], top[i2, 1])
    bound = sup_opnorm if delta is None else delta

    # p_s(x) for every member s and sample x, as (2, members, k), from one
    # broadcast product per chunk; p* is their maximum, so p_s <= p*
    m = np.stack([T.m for T in family], axis=1).mT  # (2, members, cols, rows)

    def judge(x, a):
        with np.errstate(over="ignore", invalid="ignore"):  # rejected here
            values = _component_norms(x[:, None] @ m)
        pstar = require_finite(values).max(axis=1)
        return (_excess(pstar, require_finite(_column(bound) * dnorm_rows(x))),)

    # one witness leads: e1 from the member attaining the supremum in e1, e2 from that in e2
    lead = np.stack((_witness_rows(family[i1])[0], _witness_rows(family[i2])[1]))
    (margin,) = _fold(seed, name, samples, shape[1], judge, weight, lead)

    return UBPReport(
        check=name,
        seed=seed,
        family_size=len(family),
        samples=samples,
        sup_opnorm=sup_opnorm,
        bound_delta=bound,
        all_bounds_ok=bool((margin <= 0).all()),
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

    For every sampled y the minimum-norm preimage x must satisfy Tx = y and
    ||x||_D <= delta ||y||_D, with the bound attained on the bottom singular
    vectors, the witness row.  A geometric series of ``OMT_SERIES_LEN``
    right-hand sides then replays the eps/2^k budget with eps =
    ``OMT_BUDGET``: with x_k the minimum-norm preimages, T(sum x_k) = sum
    y_k, q(sum y_k) <= ||sum x_k||_D <= sum ||x_k||_D and q(sum y_k) <=
    sum q(y_k) + eps componentwise are checked.  Since q(y_k) is ||x_k||_D,
    q(y_k) <= ||x_k||_D + eps/2^k and sum ||x_k||_D <= sum q(y_k) + eps hold
    by construction and are not compared.

    A minimum-norm solve leaves a residual of order 2^-52 kappa ||y||, kappa
    the larger component condition number, so one slack, max(``CHECK_SLACK``,
    8 * 2^-52 * kappa), bounds the residual of every solved row (witness,
    chain and trials) at slack * ||y|| and judges the chain's comparisons.
    The bound and the witness's attainment of delta are judged at
    ``CHECK_SLACK``, so a delta off by 1e-6 either way is refuted.

    Every right-hand side is solved by the fold's one block solve per chunk:
    the witness row and the chain's ``OMT_SERIES_LEN`` + 1 rows lead the
    trials in the first chunk, so a ``NotInRange`` names the first failing
    row in the order witness, chain, trials.  ``judge`` judges the bound on
    every row, and the witness ratio and the chain verdicts are read from
    the first chunk's solve.
    """
    name = "omt-verify"
    weight = _admit(name, trials, max(T.rows, T.cols))  # a trial's draw or its preimage
    delta = open_mapping_delta(T)  # raises NotSurjective
    rows = T.rows

    # residual/(2^-52 kappa ||y||) stayed below 2.5 from kappa 1e3 to 1e10 over
    # graded spectra at 3x6 to 64x128, so 8 leaves a margin of 3
    u, s, _ = T.svd()
    kappa = float((s[:, 0] / s[:, -1]).max())
    slack = max(CHECK_SLACK, 8 * np.finfo(float).eps * kappa)

    # minimality witness: the left singular vectors of the smallest singular
    # values reach the constant (T is surjective, so rows <= cols)
    yw = u[:, :, rows - 1 :].mT

    # quotient-seminorm budget chain over the generated convergent series
    # y_k = 2^-(k-1) y_0, k = 1..OMT_SERIES_LEN, and its sum, in series order
    # from zero (adding +0.0 restores the zero start)
    z = check_stream(seed, name + "/series").standard_normal((1, 4 * rows))
    y0 = BCVector(*_sample_rows(z, rows)[:, 0])
    ny0 = vec_dnorm(y0)
    y0 = y0.scale(1.0 / max(ny0.a1, ny0.a2))
    ys = y0.v[:, None] * (0.5 ** np.arange(OMT_SERIES_LEN))[:, None]
    y_sum = BCVector(*(np.cumsum(ys, axis=1)[:, -1] + 0.0))
    lead = np.concatenate((yw, ys, y_sum.v[:, None]), axis=1)
    skip = lead.shape[1]
    first = []  # the first chunk's solve, which holds the lead rows

    def judge(y, a):  # T x_i = y_i with x_i of least norm, one block solve per chunk
        sol = min_norm_solve_rows(T, y, slack)
        if not a:
            first.append(sol)
        return sol.residual, _excess(sol.qy, require_finite(_column(delta) * sol.ynorm))

    res, margin = _fold(seed, name, trials, rows, judge, weight, lead)

    (sol,) = first
    ratio = DPlus(*(sol.qy[:, 0] / sol.ynorm[:, 0]).tolist())
    x_sum = BCVector(*(np.cumsum(sol.x[:, 1 : skip - 1], axis=1)[:, -1] + 0.0))
    sum_q = Hyperbolic(*np.cumsum(sol.qy[:, 1 : skip - 1], axis=1)[:, -1].tolist())
    q_sum = DPlus(*sol.qy[:, skip - 1].tolist())
    nx_sum = vec_dnorm(x_sum)
    residual = vec_dnorm(mat_apply(T, x_sum) - y_sum)
    lhs = np.hstack([_column(h) for h in (residual, q_sum, nx_sum, q_sum)])
    rhs = np.hstack([_column(h) for h in (DPlus(0.0, 0.0), nx_sum, sum_q, sum_q + OMT_BUDGET)])
    scale = np.hstack((sol.ynorm[:, skip - 1 : skip], np.zeros((2, 3))))

    return OpenMapReport(
        check=name,
        seed=seed,
        trials=trials,
        delta=delta,
        # min_norm_solve_rows raised NotInRange for any residual beyond the
        # slack, so every solve that reached here is within it
        solve_ok=True,
        bound_ok=bool((margin <= 0).all()),
        witness_ok=bool((_excess(_column(delta), _column(ratio)) <= 0).all()),
        witness_ratio=ratio,
        subadd_ok=bool((_excess(lhs, rhs, slack, scale) <= 0).all()),
        worst_residual=DPlus(*np.maximum(0.0, res[:, 0]).tolist()),
        worst_margin=_worst(margin),
    )
