"""Command-line front-end emitting deterministic JSON report envelopes.

Every invocation writes exactly one JSON document to the output stream
(stdout or --output); diagnostics go to the error stream.  Exit codes:

    0  run completed and every checked property holds
    1  run completed but a checked property is violated
    2  invalid input (parse error, bad shape or dimension, bad literal)
    3  numerical non-convergence (series cap or SVD kernel failure)
    4  precondition violation (zero divisor, not surjective, budget
       precondition, right-hand side out of range, failed premise)
    5  internal error: an unexpected exception, a defect in hyplab; the
       envelope names the exception type as its error kind

Codes 2-4 are the raised ``HyplabError`` class's ``exit_code``; the
classes in ``hyplab.errors`` are the table.

The default seed is 42, overridable by the HYPLAB_SEED environment
variable; an explicit --seed beats both.  Identical inputs and seed give
byte-identical envelopes.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from . import __version__
from .dmodule import DNormConfig, DSeminorm, abs_summability_check, series_sum, vec_dnorm
from .dop import _check_tol, min_norm_solve, op_dnorm, open_mapping_delta, surjectivity_check
from .errors import HyplabError, InvalidInput, NotConverged
from .hyperscalar import bc_inverse, knorm
from .jsonio import (
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
from .theoremlab import (
    ball_scaling_check,
    continuity_bound_check,
    countable_subadd_check,
    open_mapping_verify,
    ubp_verify,
    zabreiko_decompose,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INTERNAL = 5


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HYPLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidInput(f"HYPLAB_SEED must be an integer, got {env!r}") from exc
    return 42


def _new_envelope(subcommand: str) -> dict:
    """A run's envelope, keys in emission order; seed 0 and an empty digest
    stand for "not known yet" until they are resolved."""
    return {
        "tool": "hyplab",
        "version": __version__,
        "subcommand": subcommand,
        "inputs_digest": "",
        "seed": 0,
        "payload": {},
        "pass": False,
    }


def _emit(envelope: dict, output: str | None) -> None:
    text = dumps(envelope) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write the envelope to {output}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyplab",
        description="Bicomplex/hyperbolic scalar algebra, operator bounds, and theorem checks.",
    )
    parser.add_argument("--version", action="version", version=f"hyplab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, tol=False, max_n_help=None, fmt=False):
        # --seed and --output go to every subcommand, the rest where read
        if tol:
            sp.add_argument("--tol", type=float, default=1e-10, help="numeric tolerance")
        sp.add_argument("--seed", type=int, default=None, help="sampling seed (default 42 or HYPLAB_SEED)")
        if max_n_help:
            sp.add_argument("--maxN", dest="max_n", type=int, default=1000, help=max_n_help)
        sp.add_argument("--output", default=None, help="write the JSON envelope here instead of stdout")
        if fmt:
            sp.add_argument(
                "--format", dest="fmt", choices=("idempotent", "cartesian"),
                default="idempotent", help="scalar emission form",
            )

    sp = sub.add_parser("knorm", help="hyperbolic-valued norm of a scalar")
    sp.add_argument("--scalar", required=True)
    common(sp, fmt=True)

    sp = sub.add_parser("inv", help="componentwise inverse of a scalar")
    sp.add_argument("--scalar", required=True)
    common(sp, fmt=True)

    sp = sub.add_parser("norm", help="D-norm of a vector")
    sp.add_argument("--vector", required=True)
    sp.add_argument("--norm", choices=("l2", "l1", "linf"), default="l2")
    common(sp, fmt=True)

    sp = sub.add_parser("opnorm", help="operator D-norm via extremal singular values")
    sp.add_argument("--matrix", required=True)
    common(sp, tol=True, fmt=True)

    sp = sub.add_parser("solve", help="minimum-norm solve of Tx = y")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--y", required=True)
    common(sp, tol=True)

    sp = sub.add_parser("omc", help="open-mapping constant 1/sigma_min per component")
    sp.add_argument("--matrix", required=True)
    common(sp, tol=True, fmt=True)

    sp = sub.add_parser("series", help="capped series summation (array or generator spec)")
    sp.add_argument("--terms", required=True)
    sp.add_argument("--series-tol", default="1e-12", help="hyperbolic literal a1,a2")
    sp.add_argument("--abs-check", action="store_true", help="run the absolute-summability chain check")
    common(
        sp,
        max_n_help="term cap; each term summed costs about 300 bytes of memory, plus "
        "0.5 + 0.11*dim MB at most for the chunk being summed (750 + 120*dim bytes "
        "per term with --abs-check, which keeps every term) and ~90 bytes of output",
    )

    sp = sub.add_parser("zabreiko", help="geometric-budget decomposition trace")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--m", required=True, help="hyperbolic literal a1,a2")
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--eps", required=True, help="hyperbolic literal a1,a2")
    common(
        sp,
        max_n_help="step cap; the trace ends when the remainder's norm is at most "
        "2^-52 times ||x||_D per component (about 49 steps at dim 4, never more than "
        "~2,100), so memory and output "
        "(~190 bytes per step and dimension) grow with steps*dim, not with maxN",
    )

    trials_help = "random samples; each takes about 100 bytes per matrix column"

    sp = sub.add_parser("ubp", help="uniform boundedness over an operator family")
    sp.add_argument("--family", required=True, help="JSON array of matrices")
    sp.add_argument(
        "--samples", type=int, default=100,
        help="random samples; each takes about 100 bytes per matrix column plus 60 per family member",
    )
    common(sp)

    sp = sub.add_parser("omt-verify", help="open-mapping solve-and-bound verification")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--trials", type=int, default=1000, help=trials_help)
    common(sp)

    sp = sub.add_parser("lemma31", help="continuity bound check for a seminorm")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--trials", type=int, default=1000, help=trials_help)
    common(sp)

    sp = sub.add_parser("subadd", help="countable subadditivity along a series")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--terms", required=True)
    sp.add_argument("--series-tol", default="1e-12", help="hyperbolic literal a1,a2")
    common(
        sp,
        max_n_help="term cap; every term up to it is kept, about 600 + 30*dim bytes each, "
        "plus 0.1*dim MB at most while the series is summed",
    )

    sp = sub.add_parser("ballscale", help="sublevel-set ball scaling check")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--alpha", default=None, help="hyperbolic literal a1,a2 (default opnorm*r)")
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--deltas", default="0.5,2,10", help="comma-separated positive reals")
    sp.add_argument(
        "--samples", type=int, default=100,
        help="random samples; each takes about 100 bytes per matrix column",
    )
    common(sp)

    return parser


def _check_common(args) -> None:
    """Reject a declared --tol that is not finite and positive, or --maxN < 1."""
    if hasattr(args, "tol"):
        _check_tol(args.tol)
    if hasattr(args, "max_n") and args.max_n < 1:
        raise InvalidInput(f"maxN must be >= 1, got {args.max_n}")


def _dispatch(args, envelope: dict):
    """Run one subcommand; returns (payload, passed).

    Once the inputs are parsed, their digest goes into ``envelope``, so an
    error raised by the computation still reports which inputs it saw.
    """
    cmd = args.command
    seed = envelope["seed"]

    def parsed(inputs: dict) -> None:
        envelope["inputs_digest"] = digest(inputs)

    if cmd == "knorm":
        z = parse_scalar(load_json(args.scalar))
        parsed({"scalar": scalar_to_json(z)})
        return {"knorm": scalar_to_json(knorm(z), args.fmt)}, True

    if cmd == "inv":
        z = parse_scalar(load_json(args.scalar))
        parsed({"scalar": scalar_to_json(z)})
        return {"inverse": scalar_to_json(bc_inverse(z), args.fmt)}, True

    if cmd == "norm":
        v = parse_vector(load_json(args.vector))
        parsed({"vector": vector_to_json(v), "norm": args.norm})
        payload = {
            "dnorm": scalar_to_json(vec_dnorm(v, DNormConfig(args.norm)), args.fmt),
            "component_norm": args.norm,
        }
        return payload, True

    if cmd == "opnorm":
        T = parse_matrix(load_json(args.matrix))
        parsed({"matrix": matrix_to_json(T), "tol": args.tol})
        rep = op_dnorm(T, tol=args.tol)
        payload = rep.to_json_dict()
        payload["M"] = scalar_to_json(rep.M, args.fmt)
        return payload, True

    if cmd == "solve":
        T = parse_matrix(load_json(args.matrix))
        y = parse_vector(load_json(args.y))
        parsed({"matrix": matrix_to_json(T), "y": vector_to_json(y), "tol": args.tol})
        return min_norm_solve(T, y, tol=args.tol).to_json_dict(), True

    if cmd == "omc":
        T = parse_matrix(load_json(args.matrix))
        parsed({"matrix": matrix_to_json(T), "tol": args.tol})
        delta = open_mapping_delta(T, tol=args.tol)
        srep = surjectivity_check(T, tol=args.tol)
        return {"delta": scalar_to_json(delta, args.fmt), "surjectivity": srep.to_json_dict()}, True

    if cmd == "series":
        raw = load_json(args.terms)
        tol = parse_hyp_literal(args.series_tol)
        parsed({"terms": raw, "series_tol": [tol.a1, tol.a2], "maxN": args.max_n})
        if args.abs_check:
            rep = abs_summability_check(parse_series(raw), args.max_n, tol)
            passed = bool(rep.abs_converged and rep.cauchy_chain_ok)
            if not rep.abs_converged:
                raise NotConverged("absolute sums not settled at the cap", rep)
            return rep.to_json_dict(), passed
        rep = series_sum(parse_series(raw), tol, args.max_n)
        return rep.to_json_dict(), rep.converged

    if cmd == "zabreiko":
        T = parse_matrix(load_json(args.matrix))
        x = parse_vector(load_json(args.x))
        m = parse_hyp_literal(args.m)
        eps = parse_hyp_literal(args.eps)
        parsed({
            "matrix": matrix_to_json(T),
            "x": vector_to_json(x),
            "m": [m.a1, m.a2],
            "r": args.r,
            "eps": [eps.a1, eps.a2],
            "maxN": args.max_n,
        })
        trace = zabreiko_decompose(DSeminorm(T), x, m, args.r, eps, args.max_n)
        return trace.to_json_dict(), trace.passed

    if cmd == "ubp":
        raw = load_json(args.family)
        if not isinstance(raw, list):
            raise InvalidInput("family must be a JSON array of matrices")
        family = [parse_matrix(mj) for mj in raw]
        parsed({"family": [matrix_to_json(T) for T in family], "samples": args.samples})
        rep = ubp_verify(family, args.samples, seed)
        return rep.to_json_dict(), rep.passed

    if cmd == "omt-verify":
        T = parse_matrix(load_json(args.matrix))
        parsed({"matrix": matrix_to_json(T), "trials": args.trials})
        rep = open_mapping_verify(T, args.trials, seed)
        return rep.to_json_dict(), rep.passed

    if cmd == "lemma31":
        T = parse_matrix(load_json(args.matrix))
        parsed({"matrix": matrix_to_json(T), "trials": args.trials})
        rep = continuity_bound_check(DSeminorm(T), args.trials, seed)
        return rep.to_json_dict(), rep.passed

    if cmd == "subadd":
        T = parse_matrix(load_json(args.matrix))
        raw = load_json(args.terms)
        tol = parse_hyp_literal(args.series_tol)
        parsed({
            "matrix": matrix_to_json(T),
            "terms": raw,
            "series_tol": [tol.a1, tol.a2],
            "maxN": args.max_n,
        })
        rep = countable_subadd_check(DSeminorm(T), parse_series(raw), args.max_n, tol)
        return rep.to_json_dict(), rep.passed

    if cmd == "ballscale":
        T = parse_matrix(load_json(args.matrix))
        p = DSeminorm(T)
        if args.alpha is None:
            alpha = op_dnorm(T).M * args.r
        else:
            alpha = parse_hyp_literal(args.alpha)
        try:
            deltas = [float(d) for d in args.deltas.split(",") if d.strip()]
        except ValueError as exc:
            raise InvalidInput(f"bad --deltas literal {args.deltas!r}") from exc
        parsed({
            "matrix": matrix_to_json(T),
            "alpha": [alpha.a1, alpha.a2],
            "r": args.r,
            "deltas": deltas,
            "samples": args.samples,
        })
        rep = ball_scaling_check(p, alpha, args.r, deltas, args.samples, seed)
        return rep.to_json_dict(), rep.passed

    raise InvalidInput(f"unknown subcommand {cmd!r}")


def run(argv=None) -> int:
    """Execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return exc.code if isinstance(exc.code, int) else 2

    envelope = _new_envelope(args.command)
    try:
        envelope["seed"] = _resolve_seed(args)
        _check_common(args)
        envelope["payload"], envelope["pass"] = _dispatch(args, envelope)
        _emit(envelope, args.output)
        return EXIT_PASS if envelope["pass"] else EXIT_CHECK_FAILED
    except Exception as exc:
        # anything but a HyplabError is a defect in hyplab, not a verdict
        code = exc.exit_code if isinstance(exc, HyplabError) else EXIT_INTERNAL
        if code == EXIT_INTERNAL:
            traceback.print_exc(file=sys.stderr)
        print(f"hyplab: {type(exc).__name__}: {exc}", file=sys.stderr)
        envelope["payload"] = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, NotConverged) and exc.report is not None:
            envelope["payload"]["report"] = exc.report.to_json_dict()
        envelope["pass"] = False
        try:
            _emit(envelope, args.output)
        except InvalidInput:
            _emit(envelope, None)  # the output path itself failed: use stdout
        return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
