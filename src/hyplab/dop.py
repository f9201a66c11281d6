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
of every unfactored operator of a family in one SVD call over the stack and
caches its thin SVD, read-only and with the same leading axis, with the
operator.  Everything runs on the calling thread; the module starts none.
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

import math
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


def svd_family(family: Sequence[BCMatrix]) -> list[ThinSVD]:
    """The thin SVD of each operator of a family of one shape.

    Both components of every member without factors are factored together,
    in one SVD call over the stack; each member caches read-only views of
    its rows of the result.
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
            u, s, vh = np.linalg.svd(stack.mT if wide else stack, full_matrices=False)
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
    x = np.empty((*y.shape[:-1], T.cols), dtype=complex)
    res = np.empty_like(y, dtype=complex)

    for i, (u, s, vh) in enumerate(zip(*T.svd())):
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


def surjectivity_check(T: BCMatrix, tol: float = RANK_TOL) -> SurjectivityReport:
    """Surjective iff both components have numerical row rank equal to rows.

    ``tol`` is a relative rank cutoff, so it must be below 1: at 1 or more
    no singular value exceeds tol * sigma_max.
    """
    _check_tol(tol)
    if tol >= 1:
        raise InvalidInput(f"tol must be below 1 as a rank cutoff, got {tol}")
    s = T.svd().s  # descending and never negative: a zero component has rank 0
    r1, r2 = np.count_nonzero(s > tol * s[:, :1], axis=1).tolist()
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
