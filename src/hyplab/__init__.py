"""Bicomplex/hyperbolic scalar algebra, D-valued norms on finite modules,
operator bounds via singular values, and mechanized theorem checks.

The theorem checks' names (``_LAZY``) import ``hyplab.theoremlab`` on first
access (PEP 562), so a process that runs no theorem check never loads it.
"""

__version__ = "0.13.0"

from .errors import (
    DimensionMismatch, HyplabError, HypothesisFailed, InvalidInput, NoConvergence, NotConverged, NotInRange,
    NotSurjective, PreconditionViolated, ShapeMismatch, ZeroDivisor,
)
from .hyperscalar import (
    E1, E2, ONE, UNIT_I, UNIT_J, UNIT_K, ZERO_DIVISOR_TOL, Bicomplex, DPlus, Hyperbolic, OrderRel,
    bc_inverse, bc_mul, euclid_norm, hyp_abs, hyp_compare, hyp_leq, knorm,
)
from .dmodule import (
    AbsSummabilityReport, BCVector, Columns, DSeminorm, SeriesReport, abs_summability_check,
    dnorm_rows, geometric_terms, seminorm_eval, seminorm_rows, series_sum, vec_dnorm,
)
from .dop import (
    BCMatrix, BlockSolve, OperatorNormReport, SolveReport, SurjectivityReport, mat_apply, min_norm_solve,
    min_norm_solve_rows, op_dnorm, open_mapping_delta, surjectivity_check, svd_family,
)

#: hyplab.theoremlab's exports, imported when first looked up
_LAZY = (
    "ContinuityReport", "SubaddReport", "BallScaleReport", "ZabreikoTrace",
    "UBPReport", "OpenMapReport", "check_stream",
    "continuity_bound_check", "countable_subadd_check", "ball_scaling_check",
    "zabreiko_decompose", "ubp_verify", "open_mapping_verify",
)


def __getattr__(name: str):
    if name in _LAZY:
        from . import theoremlab

        return getattr(theoremlab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "__version__",
    # errors
    "HyplabError", "InvalidInput", "DimensionMismatch", "ShapeMismatch", "ZeroDivisor",
    "NoConvergence", "NotConverged", "NotInRange", "NotSurjective", "PreconditionViolated", "HypothesisFailed",
    # scalars
    "Hyperbolic", "DPlus", "Bicomplex", "OrderRel",
    "ONE", "E1", "E2", "UNIT_I", "UNIT_J", "UNIT_K", "ZERO_DIVISOR_TOL",
    "bc_mul", "bc_inverse", "knorm", "euclid_norm",
    "hyp_compare", "hyp_leq", "hyp_abs",
    # modules
    "BCVector", "Columns", "DSeminorm", "SeriesReport", "AbsSummabilityReport",
    "vec_dnorm", "seminorm_eval", "series_sum", "abs_summability_check", "geometric_terms", "dnorm_rows",
    "seminorm_rows",
    # operators
    "BCMatrix", "OperatorNormReport", "SolveReport", "SurjectivityReport", "BlockSolve",
    "mat_apply", "op_dnorm", "min_norm_solve", "min_norm_solve_rows", "open_mapping_delta", "surjectivity_check",
    "svd_family",
    # theorem checks
    *_LAZY,
]
