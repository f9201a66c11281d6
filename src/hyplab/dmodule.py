"""Finite bicomplex modules: vectors, hyperbolic-valued norms, seminorms, series.

The module is BC^n held as one complex (2, n) array whose leading axis is
the idempotent component: row 0 is e1's vector v1, row 1 is e2's v2.
``idempotent_pair`` builds it, and an operator's (2, rows, cols) array, from
the two components, and is the one place that validates them.
Norms split componentwise: ||x||_D = e1*N(v1) + e2*N(v2), N the complex l2
norm (``vec_dnorm`` also takes l1 or linf).  Series summation is capped, at
``MAX_SERIES_TERMS`` at most, and every "converged" verdict means converged
at the given cap with the given tolerance, never a claim about the limit.
``_read_series`` is the one reader of a series' terms: ``series_sum``,
``abs_summability_check`` and ``theoremlab.countable_subadd_check`` pull,
check and stack terms only through it, so a fault surfaces at its term in
each, and each keeps only the arrays it uses.

Many vectors at once are held as a block: a (2, k, n) array whose [:, i]
holds the components of the i-th vector.  ``_component_norms`` is the one
l2 kernel: it reduces along the last axis, so a vector and each row of a
block go through the same arithmetic.
``dnorm_rows`` applies it to a block and rejects a non-finite result the
way a scalar does, ``seminorm_rows`` after one stacked matrix product and
``seminorm_terms`` after one matrix-vector product per row; ``vec_dnorm``
and ``seminorm_eval`` are their one-row cases.  Each stacked operation
makes, per component, the call it would make on that component alone, so
its values are bit for bit those of two one-component calls.  Every block
function rejects, through ``check_block``, an array that is not (2, k, n).
``_excess``, whose slack is relative to the values compared, is the one
verdict rule: the Cauchy chain and every theorem check judge each
inequality once through it, and report its worst value as the margin.

``complex_pairs`` is the one emitter of complex entries: it turns an array
of any shape into nested ``[re, im]`` lists of plain floats.  The vector
documents of reports and of ``jsonio`` are built from it by ``vector_docs``.

``Report`` is the base of every report and its one encoder.  A report's
fields are its class annotations after those of its bases, so they are
its keyword arguments and its keys in emission order.  It writes a
hyperbolic value as ``[a1, a2]``, a vector as its ``vector_doc``, a
``Columns`` view (a sequence of cone values or vectors over one read-only
component-major array) from that array, and a list or tuple element by
element, and ends with ``"pass"`` when the class has a ``passed`` property.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotConverged
from .hyperscalar import Bicomplex, DPlus, Frozen, Hyperbolic, Record, hyp_leq

if TYPE_CHECKING:
    from .dop import BCMatrix


def idempotent_pair(c1, c2, ndim: int) -> np.ndarray:
    """The read-only (2, ...) array of an idempotent pair of ``ndim``-axis components.

    A vector's components have one axis and an operator's two.  Each
    component in turn must convert to complex, have ``ndim`` axes, at least
    one entry and only finite ones; then the two shapes must match.  A
    failure raises ``InvalidInput`` naming the component, or
    ``DimensionMismatch`` for the shapes.  The array is a private copy.
    """
    comps = []
    for what, values in (("e1 component", c1), ("e2 component", c2)):
        try:
            arr = np.asarray(values, dtype=complex)
        except (TypeError, ValueError) as exc:  # ragged or non-numeric entries
            raise InvalidInput(f"{what} is not a numeric {('vector', 'matrix')[ndim - 1]}: {exc}") from exc
        if arr.ndim != ndim:
            raise InvalidInput(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise InvalidInput(f"{what} must be nonempty")
        if not np.isfinite(arr).all():
            raise InvalidInput(f"{what} contains non-finite entries")
        comps.append(arr)
    if comps[0].shape != comps[1].shape:
        raise DimensionMismatch(f"component shapes differ: {comps[0].shape} vs {comps[1].shape}")
    pair = np.array(comps)
    pair.setflags(write=False)
    return pair


class BCVector:
    """Element of BC^n stored as one (2, n) array of its component vectors.

    Instances are immutable: the array is a private copy locked against
    writes, and ``v1`` and ``v2`` are read-only views of its rows.
    """

    __slots__ = ("v",)

    def __init__(self, v1, v2):
        object.__setattr__(self, "v", idempotent_pair(v1, v2, 1))

    @property
    def v1(self) -> np.ndarray:
        return self.v[0]

    @property
    def v2(self) -> np.ndarray:
        return self.v[1]

    @property
    def dim(self) -> int:
        return self.v.shape[1]

    @classmethod
    def zeros(cls, n: int) -> "BCVector":
        return cls(np.zeros(n, dtype=complex), np.zeros(n, dtype=complex))

    def scale(self, mu) -> "BCVector":
        """Scale by a bicomplex, complex, or real scalar.

        A product that overflows is rejected by the constructor as a
        non-finite entry, so numpy's overflow warning is silenced.
        """
        if isinstance(mu, Bicomplex):
            mu = np.array([[mu.z1], [mu.z2]])
        with np.errstate(over="ignore", invalid="ignore"):
            return BCVector(*(mu * self.v))

    def _combine(self, other, op):
        if not isinstance(other, BCVector):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} vs {other.dim}")
        return BCVector(*op(self.v, other.v))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)


#: Scratch for the vectorized loop in ``_component_norms``; only ever zeros.
_CLEAR = np.zeros(64)


def _component_norms(b: np.ndarray) -> np.ndarray:
    """The l2 norm along the last axis: one value per row of a (2, ...) block.

    Both components are reduced in one call.  A vector and a row of a block
    reduce identically, so a value does not depend on how many vectors were
    evaluated with it; the value is sqrt(re.re + im.im) with the dot product
    ``np.linalg.norm`` uses (one strided ``ddot`` per row), so it equals that
    function's result bit for bit.  A non-finite result (an overflowing sum)
    is left for the caller to judge, and numpy warns on overflow here unless
    the caller silences it.

    Before the dot products, one vectorized loop runs over a private
    64-entry scratch array.  Right after a BLAS product the strided dot
    products ran about 8 times slower until such a loop had run (20
    members of 8x8 times 52 rows, product plus norms: 0.73 ms without
    it, 0.09 ms with it; AVX-512 Xeon, OpenBLAS 0.3.31); a loop of 8
    entries or fewer, or a square root, did not clear the stall.  Where
    there is no stall it costs one short vector loop per reduction.
    """
    np.add(_CLEAR, _CLEAR, out=_CLEAR)
    re, im = b.real, b.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def require_finite(values: np.ndarray) -> np.ndarray:
    """Return ``values`` unchanged, or reject the first non-finite entry.

    The message is the one a non-finite ``Hyperbolic`` component gets, so a
    bound that overflows fails the same way for one vector or a block.
    """
    finite = np.isfinite(values)
    if not finite.all():
        bad = float(np.asarray(values)[~finite].flat[0])
        raise InvalidInput(f"non-finite component {bad!r} rejected")
    return values


def _worst(*margins: np.ndarray) -> Hyperbolic:
    """Componentwise maximum over (2, k) ``_excess`` arrays; positive is a violation."""
    return Hyperbolic(*np.concatenate(margins, axis=1).max(axis=1).tolist())


#: Relative slack of every verified inequality; see ``_excess``.
CHECK_SLACK = 1e-9

#: Magnitude below which the slack stops shrinking.  Entries under ~1e-154
#: square into the subnormal range, so l2 norms that small carry absolute
#: errors near 1e-161: only an absolute comparison is meaningful there.
SLACK_FLOOR = 1e-150


def _excess(a, b, slack: float = CHECK_SLACK, scale=0.0):
    """a - (b + slack * max(scale, |a|, |b|, SLACK_FLOOR)), elementwise: a <= b
    holds within the slack exactly where it is <= 0, as a - c rounds to 0 only
    where a == c and keeps its sign elsewhere (gradual underflow).

    The slack is relative to the values compared, so an operator with
    entries near 1e9 or 1e-12 is judged as one with entries near 1 is.  A
    constant shrunk by 1e-6 is refuted only for values above about 1e-153;
    below that its gap is under slack * SLACK_FLOOR = 1e-159 and it passes.
    ``scale`` is a data scale both sides may sit far below (a zero side, a running sum).
    """
    size = np.maximum(np.maximum(scale, SLACK_FLOOR), np.maximum(np.abs(a), np.abs(b)))
    return a - (b + slack * size)


def check_block(b: np.ndarray) -> np.ndarray:
    """``b`` if it is a (2, k, n) block; a vector's (2, n) array is not one."""
    if b.ndim != 3 or b.shape[0] != 2:
        raise DimensionMismatch(f"a block is a (2, rows, dim) array, got shape {b.shape}")
    return b


def dnorm_rows(b: np.ndarray) -> np.ndarray:
    """||x_i||_D for every row x_i = b[:, i] of a (2, k, n) block, as a (2, k) array.

    A non-finite value is rejected: the first one of e1, else of e2.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(_component_norms(check_block(b)))


#: The component norms N that ``vec_dnorm`` applies by name; all else uses l2.
_NORMS = {
    "l2": _component_norms,
    "l1": lambda b: np.abs(b).sum(axis=-1),
    "linf": lambda b: np.abs(b).max(axis=-1),
}


def vec_dnorm(v: BCVector, norm: str = "l2") -> DPlus:
    """e1*N(v1) + e2*N(v2), N the ``_NORMS`` entry ``norm``: with l2, the one-row ``dnorm_rows``."""
    if norm not in _NORMS:
        raise InvalidInput(f"unknown component norm {norm!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        return DPlus(*require_finite(_NORMS[norm](v.v[:, None]))[:, 0].tolist())


class DSeminorm(Frozen):
    """Seminorm x -> ||T x||_D represented by its defining operator.

    Degenerate operators give honest seminorms (zero on the kernel); the
    identity gives the norm itself.
    """

    __slots__ = _fields = ("T",)

    def __init__(self, T: "BCMatrix"):
        super().__init__(T=T)


def _check_block_dim(T: "BCMatrix", b: np.ndarray) -> None:
    if check_block(b).shape[-1] != T.cols:
        raise DimensionMismatch(f"operator has {T.cols} columns, block rows have dim {b.shape[-1]}")


def seminorm_rows(p: DSeminorm, b: np.ndarray) -> np.ndarray:
    """p(x_i) for every row of a (2, k, n) block, as a (2, k) array.

    One stacked matrix product applies T to all rows at once.
    """
    _check_block_dim(p.T, b)
    with np.errstate(over="ignore", invalid="ignore"):  # its norm rejects an overflow
        return dnorm_rows(b @ p.T.m.mT)


def seminorm_terms(p: DSeminorm, b: np.ndarray) -> np.ndarray:
    """p(x_i) for every row of a (2, k, n) block, each the matrix-vector value T x_i.

    A stacked product applies T to one row at a time, so a value does not
    depend on the other rows; the one matrix-matrix product of
    ``seminorm_rows`` may round the last digit differently.
    """
    _check_block_dim(p.T, b)
    with np.errstate(over="ignore", invalid="ignore"):  # its norm rejects an overflow
        return dnorm_rows((p.T.m[:, None] @ b[..., None])[..., 0])


def seminorm_eval(p: DSeminorm, x: BCVector) -> DPlus:
    """Evaluate p(x) = ||Tx||_D: the one-row ``seminorm_terms``."""
    return DPlus(*seminorm_terms(p, x.v[:, None])[:, 0].tolist())


class Columns(Sequence):
    """A private read-only copy of a component-major array, read as a sequence.

    Item i is column i of both components, built when read: a (2, k) array
    reads as k ``DPlus`` values and a (2, k, n) block as k ``BCVector``s.
    """

    def __init__(self, array):
        self.array = np.array(array)
        self.array.setflags(write=False)

    def __len__(self) -> int:
        return self.array.shape[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Columns(self.array[:, i])
        column = self.array[:, i]
        return BCVector(*column) if column.ndim == 2 else DPlus(*column.tolist())


class Report(Record):
    """Base of the reports and their one JSON encoder.  A report's fields are
    the annotations of its class tree, a base's first."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        annotated = (vars(c).get("__annotations__", ()) for c in reversed(cls.__mro__))
        cls._fields = tuple(dict.fromkeys(name for names in annotated for name in names))

    def to_json_dict(self) -> dict:
        """The fields in order, then ``"pass"`` if the class has ``passed``."""
        d = {name: _json_value(getattr(self, name)) for name in self._fields}
        if isinstance(getattr(type(self), "passed", None), property):
            d["pass"] = self.passed
        return d


def _json_value(value):
    """A field value as JSON data: cone values as pairs, vectors as documents."""
    if isinstance(value, Hyperbolic):
        return [value.a1, value.a2]
    if isinstance(value, BCVector):
        return vector_doc(value)
    if isinstance(value, Columns):
        a = value.array
        return vector_docs(a) if a.ndim == 3 else a.T.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


class SeriesReport(Report):
    """Outcome of a capped series summation.

    All facts are "at this cap, with this tolerance".  ``partial_norms``
    holds ||s_n||_D per step, ``abs_sums`` the running sum of ||x_k||_D,
    and ``cauchy_margin`` the largest trailing-window tail estimate seen.
    """

    n_terms: int
    converged: bool
    limit: BCVector | None
    partial_norms: Columns
    abs_sums: Columns
    cauchy_margin: DPlus
    tol: DPlus
    window: int


class AbsSummabilityReport(SeriesReport):
    """A series report with the absolute-summability chain verdicts."""

    abs_converged: bool
    cauchy_chain_ok: bool
    chain_margin: Hyperbolic


def _as_tol(tol) -> DPlus:
    """A series tolerance, a number or a hyperbolic value, checked to be
    strictly positive in both components: the one check of its sign."""
    if isinstance(tol, (int, float)):
        tol = Hyperbolic(tol, tol)
    if not isinstance(tol, Hyperbolic):
        raise InvalidInput(f"tolerance must be hyperbolic or a number, got {type(tol).__name__}")
    if not tol.is_strictly_positive():
        raise InvalidInput(f"series tolerance must be strictly positive, got ({tol.a1}, {tol.a2})")
    return DPlus(tol.a1, tol.a2)


#: Terms in a series' trailing-window tail estimate, the sum of the last
#: ``SERIES_WINDOW`` term norms.
SERIES_WINDOW = 3

#: Most terms a series is summed to.  At the cap, an unsettled ratio-1 series
#: took 1.2-1.6 s and 66 MB (series), 73-99 MB (subadd) and 85-116 MB
#: (series --abs-check) from the CLI at dims 4-16 (peak RSS by os.wait4).
MAX_SERIES_TERMS = 1 << 16


#: Terms ``_read_series`` pulls at first; each further chunk is twice as
#: long, up to ``_SERIES_CHUNK_MAX``, which bounds the terms held at once.
_SERIES_CHUNK = 32
_SERIES_CHUNK_MAX = 1024


class _SeriesRows(NamedTuple):
    """Running quantities of a block of stacked terms; index i is its i-th term."""

    s: np.ndarray  # (2, k, n) partial sums
    term_norms: np.ndarray  # (2, k) ||x_i||_D
    abs_sums: np.ndarray  # (2, k) running sums of the term norms
    partial_norms: np.ndarray  # (2, k) ||s_i||_D
    tails: np.ndarray  # (2, k) sums of the last ``SERIES_WINDOW`` term norms
    recent: np.ndarray  # (2, SERIES_WINDOW - 1) the last term norms, zeros before x_1


def _series_rows(b: np.ndarray, prev: _SeriesRows | None = None) -> _SeriesRows:
    """The running quantities of the terms stacked in a (2, k, n) block, unchecked.

    ``prev``, the rows of the block before, continues its sums.  Each value
    is the one a term-by-term loop reaches: partial sums add in order from
    x_1 (``cumsum``), running sums from 0.0 (the norms are never -0.0, so
    the start drops out), and each trailing-window tail adds the last
    ``SERIES_WINDOW`` norms left to right from 0, as ``sum`` does.
    Non-finite values are left for the caller to reject, without numpy's
    warnings.
    """
    k = b.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        term_norms = _component_norms(b)
        if prev is None:
            s = np.cumsum(b, axis=1)
            running, recent = np.zeros((2, 1)), np.zeros((2, SERIES_WINDOW - 1))
        else:
            s = np.cumsum(np.concatenate((prev.s[:, -1:], b), axis=1), axis=1)[:, 1:]
            running, recent = prev.abs_sums[:, -1:], prev.recent
        abs_sums = np.cumsum(np.concatenate((running, term_norms), axis=1), axis=1)[:, 1:]
        partial_norms = _component_norms(s)
        padded = np.concatenate((recent, term_norms), axis=1)
        tails = np.zeros((2, k))
        for offset in range(SERIES_WINDOW):
            tails = tails + padded[:, offset : offset + k]
    return _SeriesRows(s, term_norms, abs_sums, partial_norms, tails, padded[:, k:])


def _settled_at(rows: _SeriesRows, tol: DPlus, before: int, stop: bool) -> int | None:
    """The number of terms of the block summed when the series first settles.

    It settles at the first term where the trailing window is full and its
    tail is at most ``tol`` componentwise; None if no term of the block
    does, or if ``stop`` is false.  ``before`` terms precede the block.  A
    term before that point that a term-by-term loop rejects raises that
    loop's error instead: a non-finite partial sum first, then a
    non-finite term norm, running sum or partial-sum norm.  (A partial sum
    can be non-finite before a norm only if a term was built around
    ``BCVector``'s checks.)
    """
    finite = np.isfinite(rows.s).all(axis=(0, 2))
    for values in (rows.term_norms, rows.abs_sums, rows.partial_norms):
        finite &= np.isfinite(values).all(axis=0)
    settled = stop & (rows.tails <= np.array([[tol.a1], [tol.a2]])).all(axis=0)
    settled[: max(0, SERIES_WINDOW - 1 - before)] = False  # the window is not full yet
    hits = np.flatnonzero(settled | ~finite)
    if not hits.size:
        return None
    i = int(hits[0])
    if not finite[i]:
        # s_1 is x_1 itself; every later partial sum is built as a vector
        for comp, s in zip(("e1", "e2"), rows.s):
            if before + i and not np.isfinite(s[i]).all():
                raise InvalidInput(f"{comp} component contains non-finite entries")
        for values in (rows.term_norms, rows.abs_sums, rows.partial_norms):
            require_finite(values[:, i])
    return i + 1


def _read_series(
    terms: Iterable[BCVector], tol, max_n: int, keep: bool = False, to_cap: bool = False
) -> tuple[SeriesReport, np.ndarray | None]:
    """Pull, check and sum a series' terms: the one reader of a term sequence.

    Terms are pulled in chunks (32, then twice as many each time up to
    1024, never past the cap) and summed as blocks by ``_series_rows``, so
    only one chunk of terms is held at a time.  The report, or the
    exception and its message, is the one a term-by-term loop gives: a
    dimension mismatch, a non-finite partial sum or norm and an error
    raised by ``terms`` itself surface at the term where they occur, and
    only if the series has not settled before it.  Terms pulled past the
    settling point are never used.  At the cap one more term is pulled to
    see whether the terms ended there, which makes the sum exact.

    Unless ``to_cap``, the series stops at the first settled term, and one
    that has not settled at the cap raises ``NotConverged`` carrying the
    report.  With ``to_cap`` it is read to the cap past a settled window,
    and the report's ``converged`` says whether the terms ended or the
    window at the last term settled.  With ``keep`` every term summed is
    returned too, stacked as a (2, n_terms, dim) block; else None is.
    """
    if max_n < 1:
        raise InvalidInput(f"max_n must be >= 1, got {max_n}")
    if max_n > MAX_SERIES_TERMS:
        raise InvalidInput(f"max_n {max_n} exceeds the cap of {MAX_SERIES_TERMS} terms")
    tol = _as_tol(tol)

    it = iter(terms)
    n = 0
    dim = None
    rows: _SeriesRows | None = None
    columns = {name: [] for name in ("partial_norms", "abs_sums", "terms") if keep or name != "terms"}
    cauchy_margin = np.zeros(2)
    used = 0  # terms of the last block in the sum
    cut: Exception | None = None  # what ends the terms early, raised if reached
    exhausted = False
    size = _SERIES_CHUNK
    while True:
        chunk: list[BCVector] = []
        while len(chunk) < min(size, max_n - n) and cut is None and not exhausted:
            try:
                x = next(it, None)
            except Exception as exc:  # the iterable failed on this term
                cut = exc
                break
            if x is None:
                exhausted = True
            elif dim is not None and x.dim != dim:
                cut = DimensionMismatch(f"term {n + len(chunk)} has dim {x.dim}, expected {dim}")
            else:
                dim = x.dim
                chunk.append(x)
        settled = None
        if chunk:
            b = np.stack([x.v for x in chunk], axis=1)
            rows = _series_rows(b, rows)
            settled = _settled_at(rows, tol, n, stop=not to_cap)
            used = settled or len(chunk)
            block = {"terms": b, **rows._asdict()}
            for name, parts in columns.items():
                parts.append(block[name][:, :used])
            cauchy_margin = np.maximum(cauchy_margin, rows.tails[:, :used].max(axis=1))
            n += used
        if settled is not None:
            converged = True
            break
        if cut is not None:
            raise cut
        if rows is None:
            raise InvalidInput("empty series")
        if exhausted or n == max_n:
            # a finite sum is exact, also when the sequence ends at the cap;
            # read to the cap, a settled last window converges too
            converged = exhausted or next(it, None) is None or (
                n >= SERIES_WINDOW and hyp_leq(DPlus(*rows.tails[:, used - 1].tolist()), tol)
            )
            break
        size = min(2 * size, _SERIES_CHUNK_MAX)

    report = SeriesReport(
        n_terms=n,
        converged=converged,
        limit=BCVector(*rows.s[:, used - 1]) if converged else None,
        partial_norms=Columns(np.concatenate(columns.pop("partial_norms"), axis=1)),
        abs_sums=Columns(np.concatenate(columns.pop("abs_sums"), axis=1)),
        cauchy_margin=DPlus(*cauchy_margin.tolist()),
        tol=tol,
        window=SERIES_WINDOW,
    )
    if not (converged or to_cap):
        raise NotConverged(f"series not converged after {n} terms", report)
    return report, np.concatenate(columns["terms"], axis=1) if keep else None


def series_sum(terms: Iterable[BCVector], tol, max_n: int) -> SeriesReport:
    """Accumulate partial sums of a vector series up to ``max_n`` terms.

    Converged means the trailing-window tail estimate (the sum of the last
    ``SERIES_WINDOW`` term norms, which dominates ||s_n - s_m||_D over that window)
    dropped below ``tol`` componentwise, or the term sequence was exhausted,
    in which case the finite sum is exact.  Hitting the cap first raises
    ``NotConverged`` carrying the report.  ``_read_series`` reads the terms.
    """
    return _read_series(terms, tol, max_n)[0]


def abs_summability_check(
    terms: Iterable[BCVector],
    max_n: int,
    tol=None,
) -> AbsSummabilityReport:
    """Check absolute summability and the Cauchy tail chain of partial sums.

    Reads the series to the cap and decides whether the real series
    sum ||x_k||_D settled below ``tol`` (trailing window at the last term,
    componentwise), recording the verdict in ``abs_converged`` rather than
    raising: divergence at a finite cap is always just "not yet
    converged".  Then verifies, for a deterministic schedule of index pairs
    m < n, that ||s_n - s_m||_D <= sum_{k=m+1..n} ||x_k||_D componentwise
    by ``_excess``, with sum_{k<=n} ||x_k||_D as the data scale of its
    relative slack; ``chain_margin`` is the worst excess.
    """
    report, b = _read_series(terms, tol if tol is not None else 1e-12, max_n, keep=True, to_cap=True)
    abs_sums = report.abs_sums.array
    s = np.cumsum(b, axis=1, out=b)  # the partial sums, in place, each added in order from x_1

    # pairs (m, n) = (n - stride, n) for strides 1, 2, 4, ...: deterministic
    margins = []
    stride = 1
    while stride < report.n_terms:
        upper = abs_sums[:, stride:]
        diff = dnorm_rows(s[:, stride:] - s[:, :-stride])
        margins.append(_excess(diff, upper - abs_sums[:, :-stride], scale=upper))
        stride *= 2
    worst = _worst(*margins) if margins else Hyperbolic(0.0, 0.0)

    fields = dict(zip(report._fields, report._key()))
    if report.converged:
        # the limit is ((0 + x_1) + x_2) + ... + x_n; adding +0.0 restores the
        # zero start (it turns a -0.0 that the start would have absorbed into +0.0)
        fields["limit"] = BCVector(*(report.limit.v + 0.0))
    return AbsSummabilityReport(
        **fields,
        abs_converged=report.converged,
        cauchy_chain_ok=worst.a1 <= 0 and worst.a2 <= 0,
        chain_margin=worst,
    )


def complex_pairs(a: np.ndarray) -> list:
    """The entries of a complex array as [re, im] pairs of plain floats.

    The lists nest as the array does: a vector gives a list of pairs, a
    block a list of such lists.
    """
    return np.stack((a.real, a.imag), axis=-1).tolist()


def vector_docs(b: np.ndarray) -> list[dict]:
    """The JSON document {"dim", "e1", "e2"} of every row of a (2, k, n) block."""
    dim = b.shape[-1]
    return [{"dim": dim, "e1": e1, "e2": e2} for e1, e2 in zip(*complex_pairs(b))]


def vector_doc(v: BCVector) -> dict:
    """The JSON document of one vector: the one-row case of ``vector_docs``."""
    return vector_docs(v.v[:, None])[0]


def geometric_terms(ratio: Bicomplex, seed_vector: BCVector) -> Iterator[BCVector]:
    """Yield seed, ratio*seed, ratio^2*seed, ... (infinite generator)."""
    term = seed_vector
    while True:
        yield term
        term = term.scale(ratio)
