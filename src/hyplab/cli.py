"""Command-line front-end emitting deterministic JSON report envelopes.

Every invocation writes exactly one JSON document to the output stream
(stdout or --output); diagnostics go to the error stream.  Exit codes:

    0  run completed and every checked property holds
    1  run completed but a checked property is violated
    2  invalid input (parse error, bad shape or dimension, bad literal),
       or an envelope that cannot be written
    3  numerical non-convergence (series cap or SVD kernel failure)
    4  precondition violation (zero divisor, not surjective, budget
       precondition, right-hand side out of range, failed premise)
    5  internal error: an unexpected exception, a defect in hyplab; the
       envelope names the exception type as its error kind

Codes 2-4 are the raised ``HyplabError`` class's ``exit_code``; the
classes in ``hyplab.errors`` are the table.

The seed is --seed, 42 by default.  Identical inputs and seed give
byte-identical envelopes.

Each subcommand is one row of ``_ROWS``: its help, its flags and its run.
A flag with a reader is an input, digested as read (None if omitted with
no default).  The CLI keeps no range rule or computed default of its own:
the library routine that reads a value is its one checker, so a rejected
``--tol``, ``--maxN``, ``--norm`` or hyperbolic literal gets an envelope
with the inputs digest, as any error of the run does.  One loop builds the
parser from the rows, with the flags of the named row only, and one reads
its inputs, digests them and calls its run.  A theorem check is
looked up on the ``hyplab`` package as its row runs, so no other row
imports theoremlab.

An envelope that cannot reach stdout (a full device, a closed pipe) exits
2 with one line on stderr.  ``main``, the process entry, freezes the
garbage collector once ``run`` returns, so interpreter shutdown skips its
collections over the objects alive at exit; ``run`` itself leaves the
collector as it found it.  ``run`` pins numpy's OpenBLAS to one thread, so
an envelope's bits do not depend on ``OPENBLAS_NUM_THREADS``, and restores
its count on return; the library API never pins, as its callers own their
process.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

import hyplab

from . import __version__
from .dmodule import MAX_SERIES_TERMS, DSeminorm, abs_summability_check, series_sum, vec_dnorm
from .dop import min_norm_solve, op_dnorm, open_mapping_delta, surjectivity_check
from .errors import HyplabError, InvalidInput, NotConverged
from .hyperscalar import Hyperbolic, bc_inverse, knorm
from .jsonio import (
    digest,
    dumps,
    load_json,
    parse_hyp_literal,
    parse_matrix,
    parse_scalar,
    parse_series,
    parse_vector,
    scalar_to_json,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INTERNAL = 5


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
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):  # not loadable, or without the symbols
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


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


def _write(text: str, output: str | None) -> None:
    """Write an envelope's text to the file ``output``, or to stdout if None.

    stdout is flushed here, so that a full device or a closed pipe fails
    the run; its descriptor then points at ``os.devnull``, so that the
    interpreter's own flush at exit cannot fail again and exit 120.
    """
    try:
        if output is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        if output is None:
            _stdout_to_devnull()
        where = "stdout" if output is None else output
        raise InvalidInput(f"cannot write the envelope to {where}: {exc}") from exc


def _stdout_to_devnull() -> None:
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no descriptor behind it, so nothing to flush at exit
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


class _Flag:
    """One option of a subcommand: an input if it has a reader of its value,
    else a setting of the run; ``spec`` holds its ``add_argument`` keywords."""

    def __init__(self, flag: str, read: Callable[[Any], Any] | None = None, **spec):
        self.flag, self.read, self.spec = flag, read, spec
        self.dest = flag[2:].replace("-", "_")


class _Row(NamedTuple):
    """One subcommand; its run maps the read inputs to (payload, passed)."""

    help: str
    flags: tuple[_Flag, ...]
    run: Callable[[argparse.Namespace], tuple[dict, bool]]


def _family(path: str) -> list:
    raw = load_json(path)
    if not isinstance(raw, list):
        raise InvalidInput("family must be a JSON array of matrices")
    return [parse_matrix(mj) for mj in raw]


def _deltas(text: str) -> list[float]:
    try:
        return [float(d) for d in text.split(",") if d.strip()]
    except ValueError as exc:
        raise InvalidInput(f"bad --deltas literal {text!r}") from exc


# readers look hyplab functions up when called, so a patched or wrapped
# module attribute is the one that runs
_PLAIN = lambda value: value  # typed by argparse
_VECTOR = lambda path: parse_vector(load_json(path))
# a float pair in the whole plane, built after the digest; the routine taking it judges the sign
_HYP = lambda text: parse_hyp_literal(text)

_SEED = _Flag("--seed", type=int, default=42, help="sampling seed (default 42)")
_OUTPUT = _Flag("--output", default=None, help="write the JSON envelope here instead of stdout")
_FORMAT = _Flag("--format", choices=("idempotent", "cartesian"), default="idempotent",
                help="scalar emission form")
_TOL = _Flag("--tol", _PLAIN, type=float, default=1e-10, help="numeric tolerance")
_SCALAR_IN = _Flag("--scalar", lambda path: parse_scalar(load_json(path)), required=True)
_MATRIX_IN = _Flag("--matrix", lambda path: parse_matrix(load_json(path)), required=True)
_TERMS = _Flag("--terms", lambda path: load_json(path), required=True)  # parsed by the run, after the digest
_SERIES_TOL = _Flag("--series-tol", _HYP, default="1e-12", help="hyperbolic literal a1,a2, both components > 0")
_SAMPLES_HELP = ("random samples, drawn and judged a chunk at a time: memory does not grow with the count; "
                 "each weighs 4*max({}) floats{}; over 2^24 in all exits 2")
_TRIALS = _Flag("--trials", _PLAIN, type=int, default=1000, help=_SAMPLES_HELP.format("rows, cols", ""))


def _max_n(help: str) -> _Flag:
    return _Flag("--maxN", _PLAIN, type=int, default=1000, metavar="MAX_N", help=help)


def _verdict(rep) -> tuple[dict, bool]:
    return rep.to_json_dict(), rep.passed


def _opnorm(a) -> tuple[dict, bool]:
    rep = op_dnorm(a.matrix, tol=a.tol)
    return {**rep.to_json_dict(), "M": scalar_to_json(rep.M, a.format)}, True


def _series(a) -> tuple[dict, bool]:
    terms = parse_series(a.terms)
    if not a.abs_check:
        rep = series_sum(terms, a.series_tol, a.maxN)
        return rep.to_json_dict(), rep.converged
    rep = abs_summability_check(terms, a.maxN, a.series_tol)
    if not rep.abs_converged:
        raise NotConverged("absolute sums not settled at the cap", rep)
    return rep.to_json_dict(), bool(rep.cauchy_chain_ok)


#: one row per subcommand, in ``--help`` order; its flags in ``--help`` order
_ROWS = {
    "knorm": _Row("hyperbolic-valued norm of a scalar", (_SCALAR_IN, _SEED, _OUTPUT, _FORMAT),
                  lambda a: ({"knorm": scalar_to_json(knorm(a.scalar), a.format)}, True)),
    "inv": _Row("componentwise inverse of a scalar", (_SCALAR_IN, _SEED, _OUTPUT, _FORMAT),
                lambda a: ({"inverse": scalar_to_json(bc_inverse(a.scalar), a.format)}, True)),
    "norm": _Row(
        "D-norm of a vector",
        (_Flag("--vector", _VECTOR, required=True),
         _Flag("--norm", _PLAIN, default="l2", help="component norm: l2, l1 or linf"),
         _SEED, _OUTPUT, _FORMAT),
        lambda a: ({"dnorm": scalar_to_json(vec_dnorm(a.vector, a.norm), a.format),
                    "component_norm": a.norm}, True),
    ),
    "opnorm": _Row("operator D-norm via extremal singular values",
                   (_MATRIX_IN, _TOL, _SEED, _OUTPUT, _FORMAT), _opnorm),
    "solve": _Row("minimum-norm solve of Tx = y",
                  (_MATRIX_IN, _Flag("--y", _VECTOR, required=True), _TOL, _SEED, _OUTPUT),
                  lambda a: (min_norm_solve(a.matrix, a.y, tol=a.tol).to_json_dict(), True)),
    "omc": _Row(
        "open-mapping constant 1/sigma_min per component", (_MATRIX_IN, _TOL, _SEED, _OUTPUT, _FORMAT),
        lambda a: ({"delta": scalar_to_json(open_mapping_delta(a.matrix, tol=a.tol), a.format),
                    "surjectivity": surjectivity_check(a.matrix, tol=a.tol).to_json_dict()}, True),
    ),
    "series": _Row(
        "capped series summation (array or generator spec)",
        (_TERMS, _SERIES_TOL,
         _Flag("--abs-check", action="store_true", help="run the absolute-summability chain check"),
         _SEED,
         _max_n(f"term cap, at most {MAX_SERIES_TERMS}; each term summed costs about 650 bytes of "
                "memory (500 + 100*dim with --abs-check, which keeps every partial sum), plus "
                "0.5 + 0.11*dim MB at most for the chunk being summed, and ~90 bytes of output"),
         _OUTPUT),
        _series,
    ),
    "zabreiko": _Row(
        "geometric-budget decomposition trace",
        (_MATRIX_IN, _Flag("--x", _VECTOR, required=True),
         _Flag("--m", _HYP, required=True, help="hyperbolic literal a1,a2"),
         _Flag("--r", _PLAIN, type=float, required=True),
         _Flag("--eps", _HYP, required=True, help="hyperbolic literal a1,a2"),
         _SEED,
         _max_n("step cap; the trace ends when the remainder's norm is at most 2^-52 times ||x||_D "
                "per component (about 49 steps at dim 4, at most 2,099, where eps/m 2^-k is 0), so "
                "memory and output (165 to 185 bytes per step and dimension) grow with steps*dim, not maxN"),
         _OUTPUT),
        lambda a: _verdict(hyplab.zabreiko_decompose(DSeminorm(a.matrix), a.x, a.m, a.r, a.eps, a.maxN)),
    ),
    "ubp": _Row(
        "uniform boundedness over an operator family",
        (_Flag("--family", _family, required=True, help="JSON array of matrices"),
         _Flag("--samples", _PLAIN, type=int, default=100,
               help=_SAMPLES_HELP.format("cols, members*rows", "")),
         _SEED, _OUTPUT),
        lambda a: _verdict(hyplab.ubp_verify(a.family, a.samples, a.seed)),
    ),
    "omt-verify": _Row("open-mapping solve-and-bound verification", (_MATRIX_IN, _TRIALS, _SEED, _OUTPUT),
                       lambda a: _verdict(hyplab.open_mapping_verify(a.matrix, a.trials, a.seed))),
    "lemma31": _Row(
        "continuity bound check for a seminorm", (_MATRIX_IN, _TRIALS, _SEED, _OUTPUT),
        lambda a: _verdict(hyplab.continuity_bound_check(DSeminorm(a.matrix), a.trials, a.seed)),
    ),
    "subadd": _Row(
        "countable subadditivity along a series",
        (_MATRIX_IN, _TERMS, _SERIES_TOL, _SEED,
         _max_n(f"term cap, at most {MAX_SERIES_TERMS}; terms are read until the series settles "
                "and each one summed is kept, at most about 600 + 100*dim bytes each, plus "
                "0.5 + 0.11*dim MB at most for the chunk being summed"),
         _OUTPUT),
        lambda a: _verdict(hyplab.countable_subadd_check(
            DSeminorm(a.matrix), parse_series(a.terms), a.maxN, a.series_tol)),
    ),
    "ballscale": _Row(
        "sublevel-set ball scaling check",
        (_MATRIX_IN,
         _Flag("--alpha", _HYP, default=None, help="hyperbolic literal a1,a2 (default: opnorm * r, "
               "computed once the sample count is admitted)"),
         _Flag("--r", _PLAIN, type=float, default=1.0),
         _Flag("--deltas", _deltas, default="0.5,2,10", help="comma-separated finite positive reals"),
         _Flag("--samples", _PLAIN, type=int, default=100,
               help=_SAMPLES_HELP.format("rows, cols", " in each of the 1 + len(deltas) balls")),
         _SEED, _OUTPUT),
        lambda a: _verdict(
            hyplab.ball_scaling_check(DSeminorm(a.matrix), a.alpha, a.r, a.deltas, a.samples, a.seed)),
    ),
}


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of every subcommand, with flags only on the first one ``argv``
    names: argparse reads that one, as no top-level option takes a value."""
    command = next((word for word in argv if word in _ROWS), None)
    parser = argparse.ArgumentParser(
        prog="hyplab",
        description="Bicomplex/hyperbolic scalar algebra, operator bounds, and theorem checks.",
    )
    parser.add_argument("--version", action="version", version=f"hyplab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in _ROWS.items():
        sp = sub.add_parser(name, help=row.help)
        for f in row.flags if name == command else ():
            sp.add_argument(f.flag, **f.spec)
    return parser


def _dispatch(args, envelope: dict):
    """Read the row's inputs into ``args``, digest them and run the row;
    returns (payload, passed).

    Inputs are read in row order, so the first bad one is reported.  The
    digest holds every input as read, None if omitted without a default, in
    row order, keyed by its flag's name.  It goes into ``envelope`` before
    the run, so an error the computation raises, such as a value the library
    rejects, still reports which inputs it saw.  A hyperbolic literal's
    value is built after it, so a non-finite component is refused by flag.
    """
    row = _ROWS[args.command]
    inputs = [f for f in row.flags if f.read is not None]
    for f in inputs:
        if (value := getattr(args, f.dest)) is not None:
            setattr(args, f.dest, f.read(value))
    envelope["inputs_digest"] = digest({f.dest: getattr(args, f.dest) for f in inputs})
    for f in inputs:
        if f.read is _HYP and (pair := getattr(args, f.dest)) is not None:
            try:
                setattr(args, f.dest, Hyperbolic(*pair))
            except InvalidInput as exc:
                raise InvalidInput(f"{f.flag}: {exc}") from exc
    return row.run(args)


def run(argv=None) -> int:
    """Execute one subcommand; returns the exit code.

    BLAS runs one thread per call for the run, so an envelope's bits do not
    depend on ``OPENBLAS_NUM_THREADS``; the count is restored on return.
    Where numpy's OpenBLAS cannot be reached, the count is left as it is.
    """
    blas = _openblas()
    if blas is None:
        return _run(argv)
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        return _run(argv)
    finally:
        set_threads(threads)


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return exc.code if isinstance(exc.code, int) else 2

    envelope = _new_envelope(args.command)
    envelope["seed"] = args.seed
    try:
        envelope["payload"], envelope["pass"] = _dispatch(args, envelope)
        code = EXIT_PASS if envelope["pass"] else EXIT_CHECK_FAILED
        text = dumps(envelope) + "\n"
        if args.output is not None:
            _write(text, args.output)
            return code
    except Exception as exc:
        # anything but a HyplabError is a defect in hyplab, not a verdict
        code = exc.exit_code if isinstance(exc, HyplabError) else EXIT_INTERNAL
        if code == EXIT_INTERNAL:
            import traceback

            traceback.print_exc(file=sys.stderr)
        print(f"hyplab: {type(exc).__name__}: {exc}", file=sys.stderr)
        envelope["payload"] = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, NotConverged) and exc.report is not None:
            envelope["payload"]["report"] = exc.report.to_json_dict()
        envelope["pass"] = False
        text = dumps(envelope) + "\n"
        if args.output is not None:
            try:
                _write(text, args.output)
                return code
            except InvalidInput:
                pass  # the output path itself failed: use stdout
    try:
        _write(text, None)
    except InvalidInput as exc:  # stdout was the last place left for the envelope
        print(f"hyplab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    return code


def main() -> None:
    code = run(sys.argv[1:])
    # Interpreter shutdown runs full collections over every object still
    # tracked, about 21,700 once numpy and hyplab are loaded: 19.4/21.5 ms
    # (min/median of 20) from run's return to the exit of a 64x128 solve.
    # It skips frozen objects, which cuts that to 5.5/5.8 ms.  No object
    # alive here needs finalizing: run has closed its --output file.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
