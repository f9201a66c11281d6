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
(seed, check name, trial index), so reports are byte-reproducible and
independent of evaluation order.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .dmodule import (
    BCVector,
    DSeminorm,
    seminorm_eval,
    series_sum,
    v_alpha_member_closed,
    vec_dnorm,
)
from .dop import (
    BCMatrix,
    mat_apply,
    min_norm_solve,
    op_dnorm,
    open_mapping_delta,
)
from .errors import (
    HypothesisFailed,
    InvalidInput,
    PreconditionViolated,
    ShapeMismatch,
)
from .hyperscalar import DPlus, Hyperbolic, hyp_abs, hyp_sup

#: Additive slack applied to every verified inequality.
CHECK_SLACK = 1e-9

#: Tolerance-ball radius standing in for topological closure.
CLOSURE_TOL = 1e-9

#: Remainder components below this floor terminate a decomposition.
REMAINDER_FLOOR = 1e-300

_MASK64 = (1 << 64) - 1


def check_stream(seed: int, name: str, trial: int = 0) -> np.random.Generator:
    """Counter-based random stream keyed by (seed, check name, trial index)."""
    key = np.array(
        [seed & _MASK64, ((zlib.crc32(name.encode()) << 32) ^ (trial & 0xFFFFFFFF)) & _MASK64],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _random_vector(rng: np.random.Generator, n: int) -> BCVector:
    return BCVector(
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
    )


def _le_slack(a: Hyperbolic, b: Hyperbolic, slack: float = CHECK_SLACK) -> bool:
    return a.a1 <= b.a1 + slack and a.a2 <= b.a2 + slack


def _margin(a: Hyperbolic, b: Hyperbolic) -> Hyperbolic:
    """Componentwise a - b; positive components mean violation."""
    return Hyperbolic(a.a1 - b.a1, a.a2 - b.a2)


class _Worst:
    """Componentwise running maximum of violation margins."""

    def __init__(self):
        self.a1 = -math.inf
        self.a2 = -math.inf

    def update(self, m: Hyperbolic) -> None:
        self.a1 = max(self.a1, m.a1)
        self.a2 = max(self.a2, m.a2)

    def value(self) -> Hyperbolic:
        if self.a1 == -math.inf:
            return Hyperbolic(0.0, 0.0)
        return Hyperbolic(self.a1, self.a2)


def _witness_vectors(T: BCMatrix) -> list[BCVector]:
    """Unit vectors attaining the operator norm, per component and combined.

    Each is the right singular vector of its component's largest singular
    value.
    """
    n = T.cols
    f1, f2 = T.svd()
    v1 = f1.vh[0].conj()
    v2 = f2.vh[0].conj()
    zero = np.zeros(n, dtype=complex)
    return [
        BCVector(v1, zero),
        BCVector(zero, v2),
        BCVector(v1, v2),
    ]


@dataclass
class ContinuityReport:
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

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "seed": self.seed,
            "trials": self.trials,
            "alpha_star": [self.alpha_star.a1, self.alpha_star.a2],
            "all_ok": self.all_ok,
            "sequence_ok": self.sequence_ok,
            "witness_tight": self.witness_tight,
            "worst_margin": [self.worst_margin.a1, self.worst_margin.a2],
            "pass": self.passed,
        }


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
    a_star = op_dnorm(p.T).M if alpha_star is None else alpha_star
    n = p.T.cols

    samples = _witness_vectors(p.T)
    for i in range(trials):
        samples.append(_random_vector(check_stream(seed, name, i), n))

    all_ok = True
    worst = _Worst()
    for x in samples:
        px = seminorm_eval(p, x)
        bound = a_star * vec_dnorm(x)
        worst.update(_margin(px, bound))
        if not _le_slack(px, bound):
            all_ok = False

    # Lipschitz chain along generated sequences x_j -> x:
    # |p(x_j) - p(x)| <= p(x_j - x) <= alpha* ||x_j - x||_D
    sequence_ok = True
    for t in range(min(trials, 8)):
        rng = check_stream(seed, name + "/seq", t)
        x = _random_vector(rng, n)
        d = _random_vector(rng, n)
        px = seminorm_eval(p, x)
        for j in range(1, 11):
            xj = x + d.scale(2.0 ** -j)
            gap = hyp_abs(_margin(seminorm_eval(p, xj), px))
            bound = a_star * vec_dnorm(xj - x)
            worst.update(_margin(gap, bound))
            if not _le_slack(gap, bound):
                sequence_ok = False

    # tightness: the combined witness attains both components of the true
    # constant, so any alpha smaller by more than 1e-8 per unit is refuted
    wx = samples[2]
    pw = seminorm_eval(p, wx)
    true_m = op_dnorm(p.T).M if alpha_star is not None else a_star
    witness_tight = (
        pw.a1 >= true_m.a1 - 1e-8 * max(1.0, true_m.a1)
        and pw.a2 >= true_m.a2 - 1e-8 * max(1.0, true_m.a2)
    )

    return ContinuityReport(
        check=name,
        seed=seed,
        trials=trials,
        alpha_star=a_star,
        all_ok=all_ok,
        sequence_ok=sequence_ok,
        witness_tight=witness_tight,
        worst_margin=worst.value(),
    )


@dataclass
class SubaddReport:
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

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "n_terms": self.n_terms,
            "series_converged": self.series_converged,
            "partial_ok": self.partial_ok,
            "limit_ok": self.limit_ok,
            "worst_margin": [self.worst_margin.a1, self.worst_margin.a2],
            "pass": self.passed,
        }


def countable_subadd_check(
    p: DSeminorm,
    terms,
    max_n: int,
    tol=None,
    slack: float = CHECK_SLACK,
) -> SubaddReport:
    """Check p(s_n) <= sum_{k<=n} p(x_k) for every partial sum of a series.

    The underlying vector series must converge under ``series_sum`` at the
    cap (its ``NotConverged`` passes through).  ``tol`` is the series
    tolerance, defaulting to (1e-12, 1e-12).
    """
    tol = tol if tol is not None else DPlus(1e-12, 1e-12)
    xs = list(islice(iter(terms), max_n + 1))
    report = series_sum(xs, tol, max_n)  # raises NotConverged with report

    used = report.n_terms
    s = None
    p_running = DPlus(0.0, 0.0)
    partial_ok = True
    worst = _Worst()
    for x in xs[:used]:
        s = x if s is None else s + x
        pk = seminorm_eval(p, x)
        p_running = DPlus(p_running.a1 + pk.a1, p_running.a2 + pk.a2)
        ps = seminorm_eval(p, s)
        m = _margin(ps, p_running)
        worst.update(m)
        if not (
            m.a1 <= slack * max(1.0, p_running.a1)
            and m.a2 <= slack * max(1.0, p_running.a2)
        ):
            partial_ok = False

    p_limit = seminorm_eval(p, report.limit)
    m = _margin(p_limit, p_running)
    worst.update(m)
    limit_ok = m.a1 <= slack * max(1.0, p_running.a1) and m.a2 <= slack * max(
        1.0, p_running.a2
    )

    return SubaddReport(
        check="subadd",
        n_terms=used,
        series_converged=report.converged,
        partial_ok=partial_ok,
        limit_ok=limit_ok,
        worst_margin=worst.value(),
    )


@dataclass
class BallScaleReport:
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

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "seed": self.seed,
            "samples": self.samples,
            "r": self.r,
            "alpha": [self.alpha.a1, self.alpha.a2],
            "deltas": list(self.deltas),
            "per_delta_ok": list(self.per_delta_ok),
            "worst_margin": [self.worst_margin.a1, self.worst_margin.a2],
            "closure_tol": self.closure_tol,
            "pass": self.passed,
        }


def _ball_samples(
    p: DSeminorm, radius: float, samples: int, seed: int, name: str
) -> list[BCVector]:
    """Vectors with both norm components <= radius: witnesses plus random."""
    out = []
    for w in _witness_vectors(p.T):
        nw = vec_dnorm(w)
        scale = radius / max(nw.a1, nw.a2, 1e-30)
        out.append(w.scale(scale))
    n = p.T.cols
    for i in range(samples):
        rng = check_stream(seed, name, i)
        x = _random_vector(rng, n)
        nx = vec_dnorm(x)
        u = float(rng.uniform(0.0, 1.0))
        out.append(x.scale(radius * u / max(nx.a1, nx.a2, 1e-30)))
    return out


def ball_scaling_check(
    p: DSeminorm,
    alpha: DPlus,
    r: float,
    delta_list: list[float],
    samples: int,
    seed: int,
    closure_tol: float = CLOSURE_TOL,
) -> BallScaleReport:
    """From B[0,r] inside the closed V_alpha, conclude B[0,dr] inside V_{d*alpha}.

    The premise is re-verified on witness and random samples first and a
    failing premise raises ``HypothesisFailed``.  Closure is the
    tolerance-ball form: membership up to ``closure_tol``.
    """
    if r <= 0:
        raise InvalidInput(f"r must be positive, got {r}")
    if samples < 1:
        raise InvalidInput(f"samples must be >= 1, got {samples}")
    if any(d <= 0 for d in delta_list):
        raise InvalidInput("all deltas must be positive")
    name = "ballscale"

    for x in _ball_samples(p, r, samples, seed, name + "/hyp"):
        if not v_alpha_member_closed(p, x, alpha, closure_tol):
            px = seminorm_eval(p, x)
            raise HypothesisFailed(
                f"premise fails at radius {r}: p(x)=({px.a1}, {px.a2}) "
                f"exceeds alpha=({alpha.a1}, {alpha.a2}) + {closure_tol}"
            )

    per_delta_ok = []
    worst = _Worst()
    for j, d in enumerate(delta_list):
        scaled_alpha = alpha * float(d)
        ok = True
        # closure tolerance scales with delta so large dilations are not
        # held to a finer absolute resolution than the premise
        tol_d = closure_tol * max(1.0, d)
        for x in _ball_samples(p, d * r, samples, seed, f"{name}/d{j}"):
            px = seminorm_eval(p, x)
            worst.update(_margin(px, scaled_alpha))
            if not v_alpha_member_closed(p, x, scaled_alpha, tol_d):
                ok = False
        per_delta_ok.append(ok)

    return BallScaleReport(
        check=name,
        seed=seed,
        samples=samples,
        r=r,
        alpha=alpha,
        deltas=list(delta_list),
        per_delta_ok=per_delta_ok,
        worst_margin=worst.value(),
        closure_tol=closure_tol,
    )


@dataclass
class ZabreikoTrace:
    """Audit record of the geometric-budget decomposition x = sum x_k.

    Indexing follows the construction: x_terms[i] is x_{i+1},
    remainders[i] is u_{i+1} = x - (x_1 + ... + x_{i+1}),
    epsilons = [eps_0, eps_1, ..., eps_K] with eps_0 = ||x||_D / r and
    eps_k = eps / (m 2^k), and tail_bounds[i] = eps_{i+1} * r bounds
    ||remainders[i]||_D.
    """

    m: DPlus
    r: float
    eps: DPlus
    alpha_star: DPlus
    x_norm: DPlus
    px: DPlus
    x_terms: list[BCVector]
    remainders: list[BCVector]
    epsilons: list[DPlus]
    tail_bounds: list[DPlus]
    chain_exact: bool
    term_bounds_ok: bool
    remainder_bounds_ok: bool
    final_bound_ok: bool
    capped: bool
    worst_term_margin: Hyperbolic
    worst_remainder_margin: Hyperbolic

    @property
    def n_steps(self) -> int:
        return len(self.x_terms)

    @property
    def passed(self) -> bool:
        return (
            self.chain_exact
            and self.term_bounds_ok
            and self.remainder_bounds_ok
            and self.final_bound_ok
        )

    def to_json_dict(self) -> dict:
        def vec(v: BCVector) -> dict:
            return {
                "dim": v.dim,
                "e1": [[z.real, z.imag] for z in v.v1],
                "e2": [[z.real, z.imag] for z in v.v2],
            }

        return {
            "check": "zabreiko",
            "m": [self.m.a1, self.m.a2],
            "r": self.r,
            "eps": [self.eps.a1, self.eps.a2],
            "alpha_star": [self.alpha_star.a1, self.alpha_star.a2],
            "x_norm": [self.x_norm.a1, self.x_norm.a2],
            "px": [self.px.a1, self.px.a2],
            "n_steps": self.n_steps,
            "capped": self.capped,
            "epsilons": [[e.a1, e.a2] for e in self.epsilons],
            "tail_bounds": [[t.a1, t.a2] for t in self.tail_bounds],
            "x_terms": [vec(v) for v in self.x_terms],
            "remainders": [vec(v) for v in self.remainders],
            "chain_exact": self.chain_exact,
            "term_bounds_ok": self.term_bounds_ok,
            "remainder_bounds_ok": self.remainder_bounds_ok,
            "final_bound_ok": self.final_bound_ok,
            "worst_term_margin": [self.worst_term_margin.a1, self.worst_term_margin.a2],
            "worst_remainder_margin": [
                self.worst_remainder_margin.a1,
                self.worst_remainder_margin.a2,
            ],
            "pass": self.passed,
        }


def _quantize(v: np.ndarray, pitch: float) -> np.ndarray:
    """Round real and imaginary parts to the grid; zero pitch copies exactly."""
    if pitch <= 0.0:
        return v.copy()
    return np.round(v.real / pitch) * pitch + 1j * (np.round(v.imag / pitch) * pitch)


def zabreiko_decompose(
    p: DSeminorm,
    x: BCVector,
    m: DPlus,
    r: float,
    eps: DPlus,
    max_n: int,
) -> ZabreikoTrace:
    """Decompose x into terms with geometrically decaying seminorm budget.

    Preconditions: 2 * alpha* * r <= m componentwise (alpha* the operator
    norm of p's defining operator) and ||x||_D <= r componentwise.  Each
    term is the grid quantization of the current remainder at pitch
    eps'_k r / (2 sqrt(n)) per real coordinate, with eps'_k =
    min(eps_k, eps_{k-1}) so the budget chain
    p(x_k) <= alpha*(eps_{k-1}+eps'_k) r <= eps_{k-1} m survives a first
    step where eps_0 = ||x||_D/r is smaller than eps_1.

    Terminates when the remainder underflows or at ``max_n`` steps; the
    final bound p(x) <= (m/r)||x||_D + eps is evaluated directly on x and
    does not depend on where the trace stops.
    """
    if r <= 0:
        raise PreconditionViolated(f"radius must be positive, got {r}")
    if max_n < 1:
        raise InvalidInput(f"max_n must be >= 1, got {max_n}")
    if not eps.is_strictly_positive():
        raise PreconditionViolated("eps must be strictly positive in both components")
    if not m.is_strictly_positive():
        raise PreconditionViolated("m must be strictly positive in both components")

    alpha_star = op_dnorm(p.T).M
    lhs = (2.0 * alpha_star) * r
    if lhs.a1 > m.a1 or lhs.a2 > m.a2:
        bad = []
        if lhs.a1 > m.a1:
            bad.append(f"e1: 2*alpha*r={lhs.a1} > m={m.a1}")
        if lhs.a2 > m.a2:
            bad.append(f"e2: 2*alpha*r={lhs.a2} > m={m.a2}")
        raise PreconditionViolated("budget precondition fails (" + "; ".join(bad) + ")")

    x_norm = vec_dnorm(x)
    if x_norm.a1 > r or x_norm.a2 > r:
        raise PreconditionViolated(
            f"||x||_D=({x_norm.a1}, {x_norm.a2}) outside the radius-{r} ball"
        )

    n = x.dim
    eps0 = DPlus(x_norm.a1 / r, x_norm.a2 / r)
    epsilons = [eps0]
    x_terms: list[BCVector] = []
    remainders: list[BCVector] = []
    tail_bounds: list[DPlus] = []

    u = x
    term_ok = True
    rem_ok = True
    worst_term = _Worst()
    worst_rem = _Worst()
    capped = True
    for k in range(1, max_n + 1):
        prev_eps = epsilons[-1]
        eps_k = DPlus(math.ldexp(eps.a1 / m.a1, -k), math.ldexp(eps.a2 / m.a2, -k))
        clamp = DPlus(min(eps_k.a1, prev_eps.a1), min(eps_k.a2, prev_eps.a2))
        denom = 2.0 * math.sqrt(n)
        xk = BCVector(
            _quantize(u.v1, clamp.a1 * r / denom),
            _quantize(u.v2, clamp.a2 * r / denom),
        )
        u = u - xk

        pk = seminorm_eval(p, xk)
        term_bound = prev_eps * m
        worst_term.update(_margin(pk, term_bound))
        if not _le_slack(pk, term_bound):
            term_ok = False

        un = vec_dnorm(u)
        rem_bound = eps_k * r
        worst_rem.update(_margin(un, rem_bound))
        if not _le_slack(un, rem_bound):
            rem_ok = False

        x_terms.append(xk)
        remainders.append(u)
        epsilons.append(eps_k)
        tail_bounds.append(rem_bound)
        if un.a1 <= REMAINDER_FLOOR and un.a2 <= REMAINDER_FLOOR:
            capped = False
            break

    # replay the exact remainder chain u_k = u_{k-1} - x_k
    chain_exact = True
    prev = x
    for xk, uk in zip(x_terms, remainders):
        expect = prev - xk
        if not (
            np.array_equal(expect.v1, uk.v1) and np.array_equal(expect.v2, uk.v2)
        ):
            chain_exact = False
        prev = uk

    px = seminorm_eval(p, x)
    final_rhs = DPlus(
        m.a1 * x_norm.a1 / r + eps.a1,
        m.a2 * x_norm.a2 / r + eps.a2,
    )
    final_bound_ok = _le_slack(px, final_rhs)

    return ZabreikoTrace(
        m=m,
        r=r,
        eps=eps,
        alpha_star=alpha_star,
        x_norm=x_norm,
        px=px,
        x_terms=x_terms,
        remainders=remainders,
        epsilons=epsilons,
        tail_bounds=tail_bounds,
        chain_exact=chain_exact,
        term_bounds_ok=term_ok,
        remainder_bounds_ok=rem_ok,
        final_bound_ok=final_bound_ok,
        capped=capped,
        worst_term_margin=worst_term.value(),
        worst_remainder_margin=worst_rem.value(),
    )


@dataclass
class UBPReport:
    """Uniform boundedness of a finite seminorm family via pointwise sups."""

    check: str
    seed: int
    family_size: int
    samples: int
    pointwise_sups: list[DPlus]
    sup_opnorm: DPlus
    bound_delta: DPlus
    all_bounds_ok: bool
    worst_margin: Hyperbolic

    @property
    def passed(self) -> bool:
        return self.all_bounds_ok

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "seed": self.seed,
            "family_size": self.family_size,
            "samples": self.samples,
            "pointwise_sups": [[s.a1, s.a2] for s in self.pointwise_sups],
            "sup_opnorm": [self.sup_opnorm.a1, self.sup_opnorm.a2],
            "bound_delta": [self.bound_delta.a1, self.bound_delta.a2],
            "all_bounds_ok": self.all_bounds_ok,
            "worst_margin": [self.worst_margin.a1, self.worst_margin.a2],
            "pass": self.passed,
        }


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
    component, so an undersized delta (e.g. shrunk by 1e-6) is refuted.
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

    seminorms = [DSeminorm(T) for T in family]
    norms = [op_dnorm(T).M for T in family]
    sup_opnorm = hyp_sup(norms)
    bound = sup_opnorm if delta is None else delta

    # witnesses from the members attaining the supremum per component
    i1 = max(range(len(family)), key=lambda i: norms[i].a1)
    i2 = max(range(len(family)), key=lambda i: norms[i].a2)
    n = shape[1]
    xs = [_witness_vectors(family[i1])[0], _witness_vectors(family[i2])[1]]
    for i in range(samples):
        xs.append(_random_vector(check_stream(seed, name, i), n))

    sups: list[DPlus] = []
    all_ok = True
    worst = _Worst()
    for x in xs:
        values = [seminorm_eval(ps, x) for ps in seminorms]
        pstar = hyp_sup(values)
        sups.append(pstar)
        for v in values:
            if not _le_slack(v, pstar, 0.0):
                all_ok = False
        nx = vec_dnorm(x)
        rhs = bound * nx
        worst.update(_margin(pstar, rhs))
        if not _le_slack(pstar, rhs):
            all_ok = False

    return UBPReport(
        check=name,
        seed=seed,
        family_size=len(family),
        samples=samples,
        pointwise_sups=sups,
        sup_opnorm=sup_opnorm,
        bound_delta=bound,
        all_bounds_ok=all_ok,
        worst_margin=worst.value(),
    )


@dataclass
class OpenMapReport:
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

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "seed": self.seed,
            "trials": self.trials,
            "delta": [self.delta.a1, self.delta.a2],
            "solve_ok": self.solve_ok,
            "bound_ok": self.bound_ok,
            "witness_ok": self.witness_ok,
            "witness_ratio": [self.witness_ratio.a1, self.witness_ratio.a2],
            "subadd_ok": self.subadd_ok,
            "worst_residual": [self.worst_residual.a1, self.worst_residual.a2],
            "worst_margin": [self.worst_margin.a1, self.worst_margin.a2],
            "pass": self.passed,
        }


def open_mapping_verify(
    T: BCMatrix,
    trials: int,
    seed: int,
    eps: DPlus | None = None,
    series_len: int = 12,
    residual_tol: float = CHECK_SLACK,
) -> OpenMapReport:
    """Verify delta = 1/sigma_min by solving for random right-hand sides.

    For every sampled y the minimum-norm preimage x must satisfy Tx = y
    within ``residual_tol`` and ||x||_D <= delta ||y||_D, with the bound
    attained (up to 1e-6 relative) on the bottom singular vectors.  A
    geometric series of right-hand sides then replays the eps/2^k budget:
    with x_k the minimum-norm preimages, q(sum y_k) <= ||sum x_k||_D
    <= sum ||x_k||_D <= sum q(y_k) + eps componentwise.
    """
    if trials < 1:
        raise InvalidInput(f"trials must be >= 1, got {trials}")
    name = "omt-verify"
    delta = open_mapping_delta(T)  # raises NotSurjective
    rows = T.rows
    eps = eps if eps is not None else DPlus(0.5, 0.5)

    solve_ok = True
    bound_ok = True
    worst_res = DPlus(0.0, 0.0)
    worst = _Worst()
    for i in range(trials):
        rng = check_stream(seed, name, i)
        y = _random_vector(rng, rows)
        rep = min_norm_solve(T, y, tol=residual_tol)
        worst_res = DPlus(
            max(worst_res.a1, rep.residual.a1), max(worst_res.a2, rep.residual.a2)
        )
        if rep.residual.a1 > residual_tol or rep.residual.a2 > residual_tol:
            solve_ok = False
        rhs = delta * vec_dnorm(y)
        worst.update(_margin(rep.qy, rhs))
        if not _le_slack(rep.qy, rhs):
            bound_ok = False

    # minimality witness: the left singular vectors of the smallest
    # singular values reach the constant (T is surjective, so rows <= cols)
    f1, f2 = T.svd()
    yw = BCVector(f1.u[:, rows - 1], f2.u[:, rows - 1])
    wrep = min_norm_solve(T, yw, tol=residual_tol)
    nyw = vec_dnorm(yw)
    ratio = DPlus(wrep.qy.a1 / nyw.a1, wrep.qy.a2 / nyw.a2)
    witness_ok = (
        ratio.a1 >= (1.0 - 1e-6) * delta.a1 and ratio.a2 >= (1.0 - 1e-6) * delta.a2
    )

    # quotient-seminorm budget chain over a generated convergent series
    rng = check_stream(seed, name + "/series")
    y0 = _random_vector(rng, rows)
    ny0 = vec_dnorm(y0)
    y0 = y0.scale(1.0 / max(ny0.a1, ny0.a2))
    subadd_ok = True
    y_sum = BCVector.zeros(rows)
    x_sum = BCVector.zeros(T.cols)
    sum_norm_x = DPlus(0.0, 0.0)
    sum_q = DPlus(0.0, 0.0)
    yk = y0
    for k in range(1, series_len + 1):
        rep = min_norm_solve(T, yk, tol=residual_tol)
        eps_k = DPlus(math.ldexp(eps.a1, -k), math.ldexp(eps.a2, -k))
        budget = DPlus(rep.qy.a1 + eps_k.a1, rep.qy.a2 + eps_k.a2)
        if not _le_slack(vec_dnorm(rep.x), budget):
            subadd_ok = False
        y_sum = y_sum + yk
        x_sum = x_sum + rep.x
        nx = vec_dnorm(rep.x)
        sum_norm_x = DPlus(sum_norm_x.a1 + nx.a1, sum_norm_x.a2 + nx.a2)
        sum_q = DPlus(sum_q.a1 + rep.qy.a1, sum_q.a2 + rep.qy.a2)
        yk = yk.scale(0.5)

    chain_slack = 1e-8
    q_sum = min_norm_solve(T, y_sum, tol=residual_tol).qy
    nx_sum = vec_dnorm(x_sum)
    if not _le_slack(vec_dnorm(mat_apply(T, x_sum) - y_sum), DPlus(0.0, 0.0), chain_slack):
        subadd_ok = False
    if not _le_slack(q_sum, nx_sum, chain_slack):
        subadd_ok = False
    if not _le_slack(nx_sum, sum_norm_x, chain_slack):
        subadd_ok = False
    budget_total = DPlus(sum_q.a1 + eps.a1, sum_q.a2 + eps.a2)
    if not _le_slack(sum_norm_x, budget_total, chain_slack):
        subadd_ok = False
    if not _le_slack(q_sum, budget_total, chain_slack):
        subadd_ok = False

    return OpenMapReport(
        check=name,
        seed=seed,
        trials=trials,
        delta=delta,
        solve_ok=solve_ok,
        bound_ok=bound_ok,
        witness_ok=witness_ok,
        witness_ratio=ratio,
        subadd_ok=subadd_ok,
        worst_residual=worst_res,
        worst_margin=worst.value(),
    )
