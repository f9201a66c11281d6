"""Bicomplex linear operators as componentwise complex matrices.

An operator T on BC^n is one (2, rows, cols) array ``m`` whose leading
axis is the idempotent component: m[0] = m1 acts on the e1 part and
m[1] = m2 on the e2 part.  Because the hyperbolic norm and the equation
Tx = y both decouple over the idempotents, every quantity here reduces to
two ordinary complex matrix computations:

  * operator norm      ->  largest singular value per component
  * open-mapping bound ->  reciprocal smallest singular value per component
  * quotient value q(y) -> norm of the per-component minimum-norm solution

Each operator is factored once: ``svd_family`` factors both components
of every unfactored operator of a family and caches its thin SVD,
read-only and with the same leading axis, with the operator.  Where
``_split`` finds it worth it, a kernel runs component 1 on the process's
one waiting helper thread beside component 0 (``_beside``): the SVD as two
calls, the block solve as two product chains; otherwise the SVD is one call
over the stack and the chains run in turn.  Each matrix gets the same
LAPACK and BLAS calls either way, so the bits do not depend on the route.
A wide family (rows < cols) is factored through its transpose: LAPACK's
``gesdd`` reduces a wide matrix by an LQ factorization first and a tall
one by QR, and the QR-first route is the faster one (about 14% at 64x128).
Square and tall families are factored as they are.
Norms, ranks, open-mapping constants and minimum-norm solves all read that
one factorization; the full spectrum is stored, so a caller's rank
tolerance is applied when the values are read.
``min_norm_solve_rows`` solves a (2, k, rows) block of right-hand sides
with one product chain per component, as the components' ranks may
differ, and judges the residuals once both are done; ``min_norm_solve`` is
its one-row case.
``BCMatrix.svd`` is its family of one, so there is one SVD entry point
and no iterative kernel.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import queue
import threading
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .dmodule import BCVector, Report, check_block, dnorm_rows, idempotent_pair, require_finite
from .errors import DimensionMismatch, InvalidInput, NoConvergence, NotInRange, NotSurjective
from .hyperscalar import DPlus, Record

#: Singular values above RANK_TOL * sigma_max count as nonzero.
RANK_TOL = 1e-10


class ThinSVD(NamedTuple):
    """Thin SVD of both components, ``m[i] = u[i] @ diag(s[i]) @ vh[i]``; read-only.

    ``s[i]`` holds all min(rows, cols) singular values of component i in
    descending order.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray


class BCMatrix:
    """BC-linear operator held as one (2, rows, cols) array of its component matrices.

    The array is a private copy locked against writes; ``m1`` and ``m2``
    are read-only views of its components.
    """

    __slots__ = ("m", "_svd")

    def __init__(self, m1, m2):
        object.__setattr__(self, "m", idempotent_pair(m1, m2, 2))
        object.__setattr__(self, "_svd", None)

    @property
    def m1(self) -> np.ndarray:
        return self.m[0]

    @property
    def m2(self) -> np.ndarray:
        return self.m[1]

    def svd(self) -> ThinSVD:
        """Thin SVD of both components, computed on first use and cached.

        The operator is a family of one for ``svd_family``.  The components
        are write-locked, so the factors stay valid for its lifetime.
        Concurrent first calls, here or through a family, may both factor;
        their results are bit-identical, so either may be kept.
        """
        return self._svd or svd_family((self,))[0]

    @property
    def rows(self) -> int:
        return self.m.shape[1]

    @property
    def cols(self) -> int:
        return self.m.shape[2]

    @classmethod
    def identity(cls, n: int) -> "BCMatrix":
        eye = np.eye(n, dtype=complex)
        return cls(eye, eye)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BCMatrix":
        return cls(np.zeros((rows, cols), complex), np.zeros((rows, cols), complex))

    def __repr__(self) -> str:
        return f"BCMatrix(rows={self.rows}, cols={self.cols})"


#: Work per component from which a kernel splits, one constant for both:
#: k*m*n*min(m, n) for the SVD of k (m, n) matrices, k*rows*cols for a solve of
#: k rows.  After 1-3 ms of Python, as in a check (median/90th percentile, one
#: BLAS thread, 2-CPU Xeon), the split solve broke even at 2^16.6 (12 rows at
#: 64x128: 103/147 us against 104/110), won the median at 2^17 (16 rows:
#: 110/154 against 127/136) and both at 2^18 (32 rows: 151/194 against 197/209).
#: The split SVD won the median from 2^13.3 (20 8x8 matrices, as ubp reads:
#: 225 against 307 us), not always the 90th percentile below 2^17.
_SPLIT_WORK = 1 << 17


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS thread count as (get, set) functions, or None.

    The library is the ``scipy-openblas`` build that ``np.show_config``
    names, in the ``numpy.libs`` directory beside the numpy package; it is
    already loaded, so this opens the instance numpy calls.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    libs = list((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if blas.get("name") != "scipy-openblas" or len(libs) != 1:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]))
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):  # not loadable, or without the symbols
        return None


def _blas_threads() -> int | None:
    """Threads each BLAS call may use now, or None where it cannot be read."""
    blas = _openblas()
    return None if blas is None else blas[0]()


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(work: int) -> bool:
    """Whether a kernel runs its components side by side: ``work`` per
    component reaches ``_SPLIT_WORK``, BLAS runs one thread per call, as more
    would compete with the helper, and a second CPU is free to run it."""
    return work >= _SPLIT_WORK and _blas_threads() == 1 and _cpus() >= 2


#: (pid, thread, job queue) of the process's helper thread; a forked child
#: inherits this record but not the thread, so it starts its own
_helper = None
_helper_lock = threading.Lock()


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        job, done = jobs.get()
        try:
            done.put((job(), None))
        except BaseException as exc:  # raised again on the calling thread
            done.put((None, exc))


def _beside(job):
    """``(job(0), job(1))``, ``job(1)`` run on the helper thread while
    ``job(0)`` runs here; an exception of ``job(1)`` is raised here once both
    are done.  The helper waits on its queue between jobs, so a split costs a
    round trip, not a thread's start; a call from the helper runs inline."""
    global _helper
    with _helper_lock:
        if _helper is None or _helper[0] != os.getpid():
            jobs = queue.SimpleQueue()
            thread = threading.Thread(target=_serve, args=(jobs,), name="hyplab-helper", daemon=True)
            thread.start()
            _helper = (os.getpid(), thread, jobs)
        _, thread, jobs = _helper
    if thread is threading.current_thread():
        return job(0), job(1)
    done = queue.SimpleQueue()
    jobs.put((functools.partial(job, 1), done))
    try:
        first = job(0)
    finally:
        second, exc = done.get()
    if exc is not None:
        raise exc
    return first, second


def _factor(a: np.ndarray):
    """``np.linalg.svd`` of a (k, 2, m, n) stack as (U, S, Vh), each (k, 2, ...):
    one call, or one per component side by side, stacked back."""
    k, _, m, n = a.shape
    if not _split(k * m * n * min(m, n)):
        return np.linalg.svd(a, full_matrices=False)
    halves = _beside(lambda i: np.linalg.svd(a[:, i], full_matrices=False))
    return tuple(np.stack(pair, axis=1) for pair in zip(*halves))


def svd_family(family: Sequence[BCMatrix]) -> list[ThinSVD]:
    """The thin SVD of each operator of a family of one shape.

    Both components of every member without factors are factored together,
    in one SVD call over the stack or one per component (see ``_factor``);
    each member caches read-only views of its rows of the result.
    A wide family is factored through its transpose, T^T = U' S V'^H, and
    read back as T = V'^T S U'^T: ``u`` is ``Vh'.mT`` and ``vh`` is ``U'.mT``.
    """
    todo = [T for T in family if T._svd is None]
    if len(shapes := {T.m.shape[1:] for T in todo}) > 1:
        raise DimensionMismatch(f"a family is factored at one shape, got {sorted(shapes)}")
    if todo:
        # Stack only matrices of identical shape: the svd gufunc makes the same
        # LAPACK call on each as on it alone, so the bits are those of one-matrix
        # calls in the factored orientation.  A merge into one larger problem
        # could round differently.
        stack = np.stack([T.m for T in todo])
        wide = stack.shape[-2] < stack.shape[-1]
        try:
            u, s, vh = _factor(stack.mT if wide else stack)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"SVD kernel failed: {exc}") from exc
        for a in (u, s, vh):
            a.setflags(write=False)
        if wide:
            u, vh = vh.mT, u.mT
        for T, *f in zip(todo, u, s, vh):
            object.__setattr__(T, "_svd", ThinSVD(*f))
    return [T._svd for T in family]


def mat_apply(T: BCMatrix, x: BCVector) -> BCVector:
    """Apply the operator: components (m1 @ v1, m2 @ v2)."""
    if T.cols != x.dim:
        raise DimensionMismatch(f"operator has {T.cols} columns, vector has dim {x.dim}")
    return BCVector(*(T.m @ x.v[..., None])[..., 0])


def _check_tol(tol: float) -> None:
    """Reject a tolerance that is not a finite positive number."""
    if not tol > 0:  # NaN fails the comparison too
        raise InvalidInput(f"tol must be positive, got {tol}")
    if tol == math.inf:
        raise InvalidInput(f"tol must be finite, got {tol}")


class OperatorNormReport(Report):
    """Operator D-norm, its top singular values and the recorded tolerance."""

    M: DPlus
    sigma_max: tuple[float, float]
    tol: float


def op_dnorm(T: BCMatrix, tol: float = 1e-10) -> OperatorNormReport:
    """Least M with ||Tx||_D <= M ||x||_D componentwise: top singular values.

    The norms are the l2 component norms; each component of M is attained
    by embedding that component's top right singular vector.  ``tol`` is
    checked and recorded in the report; the values do not depend on it.
    """
    _check_tol(tol)
    top = tuple(T.svd().s[:, 0].tolist())
    return OperatorNormReport(M=DPlus(*top), sigma_max=top, tol=tol)


class SolveReport(Report):
    """Minimum-norm solve of Tx = y.

    ``qy`` is ||x||_D of the returned solution, which realizes the quotient
    value inf{ ||x||_D : Tx = y } componentwise.  ``tol`` is the residual
    tolerance that was applied, scaled by the right-hand side.
    """

    x: BCVector
    qy: DPlus
    residual: DPlus
    tol: DPlus


class BlockSolve(Record):
    """Minimum-norm solves of T x_i = y_i for the rows y_i of a block.

    ``x`` holds the solutions as a (2, k, cols) block; ``qy``, ``residual``,
    ``tol`` and ``ynorm``, the rows' ||y_i||_D, are (2, k) arrays, one column
    per row, with the meanings of the ``SolveReport`` fields of those names.
    """

    _fields = ("x", "qy", "residual", "tol", "ynorm")


def min_norm_solve_rows(T: BCMatrix, y: np.ndarray, tol: float = 1e-10) -> BlockSolve:
    """Per-component minimum-norm solutions for every row of a (2, k, rows) block.

    The equation and the norm both decouple over the idempotents, so each
    bicomplex minimum-norm solution is a pair of complex ones, read off the
    operator's cached SVD with one product chain per component: the ranks,
    and so the chains' shapes, may differ.  Raises ``NotInRange`` for the
    first row whose residual exceeds ``tol * ||y_i||`` in either component,
    so a zero right-hand side needs a zero residual; ``tol`` itself must be
    finite and positive.
    """
    _check_tol(tol)
    if check_block(y).shape[-1] != T.rows:
        raise DimensionMismatch(f"operator has {T.rows} rows, vector has dim {y.shape[-1]}")
    factors = T.svd()
    x = np.empty((*y.shape[:-1], T.cols), dtype=complex)
    res = np.empty_like(y, dtype=complex)

    def solve(i):
        u, s, vh = (f[i] for f in factors)
        # rows x_i = Vh_r^H (U_r^H b_i / s_r), written into the block; the
        # rank cutoff is lstsq's default (rcond=None), singular values at or
        # below eps * max(rows, cols) * s[0] count as zero, so each solution
        # is the one ``np.linalg.lstsq`` returns
        r = int(np.count_nonzero(s > np.finfo(float).eps * max(T.rows, T.cols) * s[0]))
        # the factors are conjugated, not b and the result: conj(conj(b) @ U_r)
        # has the same nonzero bits, but an exact zero can change sign, as in
        # the imaginary parts of a real diagonal system's solution
        c = y[i] @ u[:, :r].conj()
        c /= s[:r]
        np.matmul(c, vh[:r].conj(), out=x[i])
        # in place, as the division: no block-sized temporary adds to the peak
        np.matmul(x[i], T.m[i].T, out=res[i])
        res[i] -= y[i]

    if _split(y.shape[1] * T.rows * T.cols):
        _beside(solve)
    else:
        solve(0)
        solve(1)
    residual = dnorm_rows(res)
    ynorm = dnorm_rows(y)
    with np.errstate(over="ignore"):  # an overflowing tolerance is rejected here
        tol_y = require_finite(tol * ynorm)
    bad = np.flatnonzero((residual > tol_y).any(axis=0))
    if bad.size:
        (r1, r2), (t1, t2) = residual[:, bad[0]].tolist(), tol_y[:, bad[0]].tolist()
        raise NotInRange(
            f"right-hand side outside operator range: residual ({r1}, {r2}) > ({t1}, {t2})"
        )
    return BlockSolve(x=x, qy=dnorm_rows(x), residual=residual, tol=tol_y, ynorm=ynorm)


def min_norm_solve(T: BCMatrix, y: BCVector, tol: float = 1e-10) -> SolveReport:
    """Minimum-norm least-squares solution of Tx = y: the one-row block solve.

    Raises ``NotInRange`` when the residual exceeds ``tol * ||y||`` in either
    component.
    """
    b = min_norm_solve_rows(T, y.v[:, None], tol)
    return SolveReport(
        x=BCVector(*b.x[:, 0]),
        qy=DPlus(*b.qy[:, 0].tolist()),
        residual=DPlus(*b.residual[:, 0].tolist()),
        tol=DPlus(*b.tol[:, 0].tolist()),
    )


class SurjectivityReport(Report):
    """Numerical row-rank check per component."""

    surjective: bool
    rank_e1: int
    rank_e2: int
    rows: int
    cols: int


def _numerical_rank(s: np.ndarray, tol: float) -> int:
    """Count of singular values above tol * s[0]; ``s`` descending."""
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def surjectivity_check(T: BCMatrix, tol: float = RANK_TOL) -> SurjectivityReport:
    """Surjective iff both components have numerical row rank equal to rows.

    ``tol`` is a relative rank cutoff, so it must be below 1: at 1 or more
    no singular value exceeds tol * sigma_max.
    """
    _check_tol(tol)
    if tol >= 1:
        raise InvalidInput(f"tol must be below 1 as a rank cutoff, got {tol}")
    r1, r2 = (_numerical_rank(s, tol) for s in T.svd().s)
    return SurjectivityReport(
        surjective=(r1 == T.rows and r2 == T.rows),
        rank_e1=r1,
        rank_e2=r2,
        rows=T.rows,
        cols=T.cols,
    )


def open_mapping_delta(T: BCMatrix, tol: float = RANK_TOL) -> DPlus:
    """Least delta with: every y has a preimage x, ||x||_D <= delta ||y||_D.

    Componentwise the reciprocal smallest singular value; requires both
    components to be surjective.  The bound is attained on the bottom left
    singular vectors.
    """
    rep = surjectivity_check(T, tol)
    if not rep.surjective:
        raise NotSurjective(
            f"row ranks ({rep.rank_e1}, {rep.rank_e2}) below {rep.rows}; no open-mapping constant"
        )
    return DPlus(*(1.0 / s for s in T.svd().s[:, -1].tolist()))
