"""CLI subcommands: payloads, exit codes, determinism, stream discipline."""

import argparse
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import hyplab
import hyplab.cli as cli
import hyplab.errors
from hyplab import BCMatrix, BCVector, vec_dnorm
from hyplab.dmodule import MAX_SERIES_TERMS
from hyplab.jsonio import digest, dumps, matrix_to_json, vector_to_json
from support import oracle_digest, oracle_dumps, pairs_record, random_mat, random_vec, surjective_mat


@pytest.fixture(autouse=True)
def emission_matches_oracle(monkeypatch):
    """Every envelope and inputs digest the CLI makes in a test here is also
    made with the reference serializer, and the two must agree byte for byte.

    Mismatches are collected and asserted after the test, because the CLI
    turns an exception raised while emitting into an exit-5 envelope.
    """
    mismatches = []

    def reference(oracle, obj):
        try:
            return oracle(obj)
        except Exception:
            return None

    def checked_dumps(obj):
        text = dumps(obj)
        if text != reference(oracle_dumps, obj):
            mismatches.append(("envelope", text[:200]))
        return text

    def checked_digest(obj):
        value = digest(obj)
        if value != reference(oracle_digest, obj):
            mismatches.append(("inputs_digest", value))
        return value

    monkeypatch.setattr(cli, "dumps", checked_dumps)
    monkeypatch.setattr(cli, "digest", checked_digest)
    yield
    assert not mismatches


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj) + "\n")
    return str(path)


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    docs = [line for line in out.splitlines() if line.strip()]
    assert len(docs) == 1, f"expected exactly one JSON document, got {len(docs)}"
    return code, json.loads(docs[0]), err


# ------------------------------------------------------------- computations


def test_knorm_subcommand(tmp_path, capsys):
    scalar = write(tmp_path, "z.json", {"e1": [3, 4], "e2": [-5, 0]})
    code, doc, _ = run_json(capsys, ["knorm", "--scalar", scalar])
    assert code == 0 and doc["pass"] is True
    assert doc["payload"]["knorm"] == {"e1": [5.0, 0.0], "e2": [5.0, 0.0]}
    assert doc["subcommand"] == "knorm"
    assert doc["seed"] == 42


def test_inv_subcommand(tmp_path, capsys):
    scalar = write(tmp_path, "z.json", {"e1": [2, 0], "e2": [4, 0]})
    code, doc, _ = run_json(capsys, ["inv", "--scalar", scalar])
    assert code == 0
    assert doc["payload"]["inverse"] == {"e1": [0.5, 0.0], "e2": [0.25, 0.0]}


def test_inv_zero_divisor_exit_4(tmp_path, capsys):
    scalar = write(tmp_path, "z.json", {"e1": [1, 0], "e2": [0, 0]})
    code, doc, err = run_json(capsys, ["inv", "--scalar", scalar])
    assert code == 4
    assert doc["pass"] is False
    assert doc["payload"]["error"]["kind"] == "ZeroDivisor"
    assert "ZeroDivisor" in err  # diagnostics on stderr, not stdout


def test_norm_subcommand(tmp_path, capsys):
    vec = write(tmp_path, "v.json", {"dim": 2, "e1": [[3, 0], [4, 0]], "e2": [[0, 0], [0, 0]]})
    code, doc, _ = run_json(capsys, ["norm", "--vector", vec, "--norm", "l2"])
    assert code == 0
    assert doc["payload"]["dnorm"]["e1"] == [5.0, 0.0]


def test_opnorm_scalar_matrix(tmp_path, capsys):
    mat = write(tmp_path, "T.json", {"rows": 1, "cols": 1, "e1": [[[2, 0]]], "e2": [[[3, 0]]]})
    code, doc, _ = run_json(capsys, ["opnorm", "--matrix", mat, "--tol", "1e-10"])
    assert code == 0
    assert doc["payload"]["M"] == {"e1": [2.0, 0.0], "e2": [3.0, 0.0]}


def test_solve_subcommand(tmp_path, capsys):
    mat = write(tmp_path, "T.json", matrix_to_json(BCMatrix([[1.0, 1.0]], [[1.0, 1.0]])))
    y = write(tmp_path, "y.json", vector_to_json(BCVector([2.0], [2.0])))
    code, doc, _ = run_json(capsys, ["solve", "--matrix", mat, "--y", y])
    assert code == 0
    x = doc["payload"]["x"]
    assert all(abs(e[0] - 1.0) < 1e-12 and abs(e[1]) < 1e-12 for e in x["e1"])


def test_solve_not_in_range_exit_4(tmp_path, capsys):
    T = BCMatrix([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
    mat = write(tmp_path, "T.json", matrix_to_json(T))
    y = write(tmp_path, "y.json", vector_to_json(BCVector([0.0, 1.0], [0.0, 1.0])))
    code, doc, _ = run_json(capsys, ["solve", "--matrix", mat, "--y", y])
    assert code == 4
    assert doc["payload"]["error"]["kind"] == "NotInRange"


def test_omc_subcommand(tmp_path, capsys):
    mat = write(tmp_path, "T.json", matrix_to_json(BCMatrix([[2.0]], [[4.0]])))
    code, doc, _ = run_json(capsys, ["omc", "--matrix", mat])
    assert code == 0
    assert doc["payload"]["delta"]["e1"] == [0.5, 0.0]
    assert doc["payload"]["delta"]["e2"] == [0.25, 0.0]


def test_omc_not_surjective_exit_4(tmp_path, capsys):
    mat = write(tmp_path, "T.json", matrix_to_json(BCMatrix.zeros(2, 2)))
    code, doc, _ = run_json(capsys, ["omc", "--matrix", mat])
    assert code == 4
    assert doc["payload"]["error"]["kind"] == "NotSurjective"


# ------------------------------------------------------------------- series


def geometric_spec():
    return {
        "kind": "geometric",
        "ratio": {"e1": [0.5, 0], "e2": [0.25, 0]},
        "seed_vector": {"dim": 1, "e1": [[1, 0]], "e2": [[1, 0]]},
    }


def test_series_geometric(tmp_path, capsys):
    terms = write(tmp_path, "terms.json", geometric_spec())
    code, doc, _ = run_json(
        capsys, ["series", "--terms", terms, "--series-tol", "1e-12", "--maxN", "200"]
    )
    assert code == 0
    limit = doc["payload"]["limit"]
    assert abs(limit["e1"][0][0] - 2.0) < 1e-12
    assert abs(limit["e2"][0][0] - 4.0 / 3.0) < 1e-12


def test_series_not_converged_exit_3(tmp_path, capsys):
    spec = {
        "kind": "geometric",
        "ratio": {"e1": [1.0, 0], "e2": [1.0, 0]},  # no decay
        "seed_vector": {"dim": 1, "e1": [[1, 0]], "e2": [[1, 0]]},
    }
    terms = write(tmp_path, "terms.json", spec)
    code, doc, _ = run_json(capsys, ["series", "--terms", terms, "--maxN", "10"])
    assert code == 3
    assert doc["payload"]["error"]["kind"] == "NotConverged"
    assert doc["payload"]["report"]["n_terms"] == 10


def test_series_abs_check_not_settled_exit_3_with_its_report(tmp_path, capsys):
    spec = {
        "kind": "geometric",
        "ratio": {"e1": [1.0, 0], "e2": [1.0, 0]},  # no decay
        "seed_vector": {"dim": 1, "e1": [[1, 0]], "e2": [[1, 0]]},
    }
    terms = write(tmp_path, "terms.json", spec)
    code, doc, _ = run_json(capsys, ["series", "--terms", terms, "--abs-check", "--maxN", "10"])
    assert code == 3
    assert doc["payload"]["error"] == {"kind": "NotConverged", "message": "absolute sums not settled at the cap"}
    assert doc["payload"]["report"]["abs_converged"] is False
    assert doc["payload"]["report"]["n_terms"] == 10


def test_series_abs_check(tmp_path, capsys):
    terms = write(tmp_path, "terms.json", geometric_spec())
    code, doc, _ = run_json(
        capsys, ["series", "--terms", terms, "--abs-check", "--maxN", "300"]
    )
    assert code == 0
    assert doc["payload"]["abs_converged"] is True
    assert doc["payload"]["cauchy_chain_ok"] is True


@pytest.mark.parametrize("entry", [1e-155, 1e-160])
def test_series_abs_check_passes_where_the_squares_are_subnormal(tmp_path, capsys, entry):
    # squares of such entries are subnormal, so the chain's excess of a few
    # 1e-162 is rounding, within the one relative rule's slack floor, and the
    # reported margin, that rule's worst excess, is not positive
    spec = {
        "kind": "geometric",
        "ratio": {"e1": [0.6, 0.2], "e2": [0, -0.5]},
        "seed_vector": {"dim": 2, "e1": [[entry, 0], [0, entry]], "e2": [[entry, 0], [0, entry]]},
    }
    terms = write(tmp_path, "terms.json", spec)
    code, doc, _ = run_json(capsys, ["series", "--terms", terms, "--abs-check", "--maxN", "200"])
    assert code == 0 and doc["payload"]["cauchy_chain_ok"] is True
    assert max(doc["payload"]["chain_margin"]) <= 0


# ----------------------------------------------------------------- checks


def test_zabreiko_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(7)
    mat = write(tmp_path, "I.json", matrix_to_json(BCMatrix.identity(3)))
    x = random_vec(rng, 3)
    from hyplab import vec_dnorm

    nx = vec_dnorm(x)
    x = x.scale(0.8 / max(nx.a1, nx.a2))
    xf = write(tmp_path, "x.json", vector_to_json(x))
    argv = [
        "zabreiko", "--matrix", mat, "--x", xf,
        "--m", "2,2", "--r", "1", "--eps", "1,1", "--seed", "7", "--maxN", "64",
    ]
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert doc["payload"]["pass"] is True
    assert doc["payload"]["final_bound_ok"] is True


def test_zabreiko_precondition_exit_4(tmp_path, capsys):
    mat = write(tmp_path, "I.json", matrix_to_json(BCMatrix.identity(2)))
    xf = write(tmp_path, "x.json", vector_to_json(BCVector([0.1], [0.1])))
    # m too small for 2*alpha*r <= m (alpha*=1, r=1 needs m >= 2)
    code, doc, _ = run_json(
        capsys,
        ["zabreiko", "--matrix", mat, "--x", xf, "--m", "1,1", "--r", "1", "--eps", "1,1"],
    )
    assert code == 2 or code == 4  # dim mismatch would be 2; here precondition
    assert doc["payload"]["error"]["kind"] in ("PreconditionViolated", "DimensionMismatch")


@pytest.mark.parametrize("seed", range(5))
def test_zabreiko_budget_below_float_spacing_exit_4(tmp_path, capsys, seed):
    # on the identity, eps = 1e-300 asks a first remainder of ~1.7e-301 of an
    # x near 0.5, far below its float spacing: a precondition, not a failed lemma
    mat = write(tmp_path, "I.json", matrix_to_json(BCMatrix.identity(4)))
    x = random_vec(np.random.default_rng(seed), 4)
    nx = vec_dnorm(x)
    xf = write(tmp_path, "x.json", vector_to_json(x.scale(0.5 / max(nx.a1, nx.a2))))
    argv = ["zabreiko", "--matrix", mat, "--x", xf, "--m", "3,3", "--r", "1", "--eps", "1e-300,1e-300"]
    code, doc, err = run_json(capsys, argv)
    assert code == 4
    assert doc["payload"]["error"]["kind"] == "PreconditionViolated"
    assert "float64 spacing of x" in doc["payload"]["error"]["message"]
    assert err.count("\n") == 1
    # x = 0 has no float spacing to fall below and still passes
    write(tmp_path, "x.json", vector_to_json(BCVector.zeros(4)))
    code, doc, _ = run_json(capsys, argv)
    assert code == 0 and doc["payload"]["pass"] is True and doc["payload"]["n_steps"] == 1


def test_ubp_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(8)
    fam = [matrix_to_json(random_mat(rng, 3, 3)) for _ in range(5)]
    f = write(tmp_path, "fam.json", fam)
    code, doc, _ = run_json(capsys, ["ubp", "--family", f, "--samples", "50", "--seed", "3"])
    assert code == 0
    assert doc["payload"]["family_size"] == 5
    assert doc["payload"]["all_bounds_ok"] is True


def test_omt_verify_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(9)
    T = surjective_mat(rng, 2, 4)
    mat = write(tmp_path, "T.json", matrix_to_json(T))
    code, doc, _ = run_json(
        capsys, ["omt-verify", "--matrix", mat, "--trials", "100", "--seed", "5"]
    )
    assert code == 0
    assert doc["payload"]["solve_ok"] and doc["payload"]["bound_ok"]


def test_lemma31_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(10)
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(rng, 3, 3)))
    code, doc, _ = run_json(capsys, ["lemma31", "--matrix", mat, "--trials", "100"])
    assert code == 0
    assert doc["payload"]["all_ok"] is True


def test_subadd_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(11)
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(rng, 2, 2)))
    terms = write(tmp_path, "terms.json", {
        "kind": "geometric",
        "ratio": {"e1": [0.5, 0.1], "e2": [0.3, 0.1]},
        "seed_vector": vector_to_json(random_vec(rng, 2)),
    })
    code, doc, _ = run_json(
        capsys, ["subadd", "--matrix", mat, "--terms", terms, "--maxN", "300"]
    )
    assert code == 0
    assert doc["payload"]["partial_ok"] and doc["payload"]["limit_ok"]


def test_ballscale_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(12)
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(rng, 3, 3)))
    code, doc, _ = run_json(
        capsys,
        ["ballscale", "--matrix", mat, "--r", "1.0", "--deltas", "0.5,2,10", "--samples", "40"],
    )
    assert code == 0
    assert all(doc["payload"]["per_delta_ok"])


def test_ballscale_hypothesis_failed_exit_4(tmp_path, capsys):
    rng = np.random.default_rng(13)
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(rng, 3, 3)))
    code, doc, _ = run_json(
        capsys,
        ["ballscale", "--matrix", mat, "--alpha", "1e-6,1e-6", "--r", "1.0", "--samples", "20"],
    )
    assert code == 4
    assert doc["payload"]["error"]["kind"] == "HypothesisFailed"


#: a sample count far beyond the draw cap, per sampled subcommand
HUGE_COUNTS = [
    ("lemma31", "--trials", 10**12),
    ("omt-verify", "--trials", 10**12),
    ("ballscale", "--samples", 10**12),
    ("lemma31", "--trials", 10**30),
    ("ubp", "--samples", 10**20),
]


@pytest.mark.parametrize("command, flag, count", HUGE_COUNTS)
def test_huge_sample_count_exit_2_before_allocating(tmp_path, capsys, command, flag, count):
    T = matrix_to_json(BCMatrix.identity(4))
    if command == "ubp":
        inputs = ["--family", write(tmp_path, "F.json", [T])]
    else:
        inputs = ["--matrix", write(tmp_path, "T.json", T)]
    code, doc, err = run_json(capsys, [command, *inputs, flag, str(count)])
    # 16 floats a sample; ballscale draws one in each of its 1 + 3 default balls
    weight = 64 if command == "ballscale" else 16
    message = f"{command}: count {count} of weight {weight} each exceeds the cap of {2**24}"
    assert code == 2
    assert doc["payload"] == {"error": {"kind": "InvalidInput", "message": message}}
    assert err == f"hyplab: InvalidInput: {message}\n"


@pytest.mark.parametrize("deltas", ["", ","])
def test_ballscale_without_deltas_exit_2(tmp_path, capsys, deltas):
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(np.random.default_rng(12), 3, 3)))
    code, doc, _ = run_json(capsys, ["ballscale", "--matrix", mat, "--deltas", deltas])
    assert code == 2
    assert doc["payload"]["error"] == {"kind": "InvalidInput", "message": "deltas must be nonempty"}


@pytest.mark.parametrize("alpha", [[], ["--alpha", "1,1"]], ids=["default-alpha", "alpha"])
def test_a_refused_ballscale_count_factors_nothing(tmp_path, capsys, monkeypatch, alpha):
    # alpha's default, the operator's D-norm times r, is the check's to
    # compute, after it admits the count
    argv = ["ballscale", "--matrix", write(tmp_path, "I.json", matrix_to_json(BCMatrix.identity(3))), *alpha]
    calls, real = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or real(*a, **k))
    code, doc, _ = run_json(capsys, [*argv, "--samples", str(10**12)])
    assert code == 2 and doc["payload"]["error"]["message"].startswith("ballscale: count ")
    assert calls == []
    assert run_json(capsys, [*argv, "--samples", "10"])[0] == 0
    assert calls != []


def test_ballscale_bad_deltas_literal_exit_2_before_the_digest(tmp_path, capsys):
    mat = write(tmp_path, "T.json", matrix_to_json(BCMatrix.identity(2)))
    code, doc, _ = run_json(capsys, ["ballscale", "--matrix", mat, "--deltas", "abc"])
    assert code == 2
    assert doc["payload"]["error"] == {"kind": "InvalidInput", "message": "bad --deltas literal 'abc'"}
    assert doc["inputs_digest"] == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        # one message for a count below 1, named by its subcommand
        (["lemma31", "--trials", "0"], "lemma31: count must be >= 1, got 0"),
        (["ubp", "--samples", "-3"], "ubp: count must be >= 1, got -3"),
        # the count is weighed after the other inputs are checked...
        (["ballscale", "--samples", "0", "--deltas", "0.5,-1"], "all deltas must be positive"),
        # ...and before the operator is factored: a huge count on a
        # non-surjective operator is invalid input, not NotSurjective
        (["omt-verify", "--trials", str(10**12)],
         f"omt-verify: count {10**12} of weight 8 each exceeds the cap of {2**24}"),
    ],
    ids=["lemma31-zero", "ubp-negative", "ballscale-bad-deltas", "omt-verify-not-surjective"],
)
def test_a_sample_count_is_admitted_after_the_other_inputs_and_before_any_factoring(tmp_path, capsys, argv, message):
    zero = matrix_to_json(BCMatrix.zeros(2, 2))
    if argv[0] == "ubp":
        inputs = ["--family", write(tmp_path, "F.json", [zero])]
    else:
        inputs = ["--matrix", write(tmp_path, "T.json", zero)]
    code, doc, _ = run_json(capsys, [argv[0], *inputs, *argv[1:]])
    assert code == 2
    assert doc["payload"] == {"error": {"kind": "InvalidInput", "message": message}}
    assert len(doc["inputs_digest"]) == 64


# ----------------------------------------------------------- error mapping


def test_invalid_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, doc, _ = run_json(capsys, ["knorm", "--scalar", str(bad)])
    assert code == 2
    assert doc["payload"]["error"]["kind"] == "InvalidInput"


def test_missing_file_exit_2(capsys):
    code, doc, _ = run_json(capsys, ["knorm", "--scalar", "/nonexistent/z.json"])
    assert code == 2


def test_unknown_subcommand_exit_2(capsys):
    code, out, err = run_cli(capsys, ["frobnicate"])
    assert code == 2
    assert out == ""  # nothing on the JSON stream


#: the documented exit code of every error class hyplab exports
EXIT_TABLE = {
    "HyplabError": 2,
    "InvalidInput": 2,
    "DimensionMismatch": 2,
    "ShapeMismatch": 2,
    "NoConvergence": 3,
    "NotConverged": 3,
    "ZeroDivisor": 4,
    "NotInRange": 4,
    "NotSurjective": 4,
    "PreconditionViolated": 4,
    "HypothesisFailed": 4,
}


def test_every_error_class_is_in_the_exit_table():
    defined = {
        name
        for name, obj in vars(hyplab.errors).items()
        if isinstance(obj, type) and issubclass(obj, hyplab.errors.HyplabError)
    }
    assert defined == set(EXIT_TABLE)
    assert defined <= set(hyplab.__all__)


@pytest.mark.parametrize("name, exit_code", sorted(EXIT_TABLE.items()))
def test_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch, name, exit_code):
    scalar = write(tmp_path, "z.json", {"e1": [1, 0], "e2": [1, 0]})

    def raising(z):
        raise getattr(hyplab, name)("raised on purpose")

    monkeypatch.setattr(cli, "knorm", raising)
    code, doc, err = run_json(capsys, ["knorm", "--scalar", scalar])
    assert code == exit_code
    assert doc["pass"] is False
    assert doc["payload"] == {"error": {"kind": name, "message": "raised on purpose"}}
    assert err == f"hyplab: {name}: raised on purpose\n"  # no traceback below exit 5


def _strict_json(text):
    """Parse one document, refusing the NaN and Infinity tokens JSON lacks."""

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["opnorm", "solve", "omc"])
def test_non_finite_tol_exit_2(tmp_path, capsys, command, tol):
    T = surjective_mat(np.random.default_rng(21), 2, 3)
    argv = [command, "--matrix", write(tmp_path, "T.json", matrix_to_json(T))]
    if command == "solve":
        argv += ["--y", write(tmp_path, "y.json", vector_to_json(random_vec(np.random.default_rng(22), 2)))]
    code, out, err = run_cli(capsys, argv + [f"--tol={tol}"])  # "-inf" alone reads as an option
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    doc = _strict_json(lines[0])
    assert doc["payload"]["error"]["kind"] == "InvalidInput"
    assert "tol must be" in doc["payload"]["error"]["message"]
    assert len(doc["inputs_digest"]) == 64  # the library rejects it, after the inputs are read
    assert err.startswith("hyplab: InvalidInput: tol must be")


#: a value that reads as its type but that the library routine reading it
#: rejects, after the CLI's required arguments (LIBRARY_ARGS), with the
#: library's message
LIBRARY_REJECTS = [
    *((command, f"--tol={tol}", f"tol must be positive, got {float(tol)}")
      for command in ("opnorm", "solve", "omc") for tol in ("0", "-1")),
    *((command, "--maxN 0", "max_n must be >= 1, got 0")
      for command in ("series", "series --abs-check", "zabreiko", "subadd")),
    ("zabreiko", "--maxN 0 --r 0", "max_n must be >= 1, got 0"),  # the radius alone is exit 4
    ("series", "--maxN 0 --series-tol=0", "max_n must be >= 1, got 0"),  # the cap first, as in zabreiko
    *((command, f"--series-tol={tol}", f"series tolerance must be strictly positive, got {got}")
      for command in ("series", "subadd")
      for tol, got in (("0", "(0.0, 0.0)"), ("-1", "(-1.0, -1.0)"), ("0,1e-9", "(0.0, 1e-09)"))),
    ("norm", "--norm l3", "unknown component norm 'l3'"),
    # values that overflow on the way to a bound that the library rejects;
    # a later flag overrides the required one
    ("zabreiko", "--matrix {I4} --x {tiny} --m 1e-10,1e-10 --r 1e-11 --eps 1e300,1e300",
     "eps_k = (eps/m) 2^-k is not finite at step 1: (inf, inf)"),  # eps/m
    ("zabreiko", "--matrix {D4} --x {x4} --m 10,10 --r 1e300 --eps 1e300,1e300",
     "the term x_k is not finite at step 2, quantized at pitch eps'_k r / (2 sqrt(n)) = (inf, inf)"),
    ("zabreiko", "--matrix {D4} --x {e1} --m 10,10 --r 1e300 --eps 1e300,1e300",
     "the remainder budget eps_k r is not finite at step 1: (inf, inf)"),  # x_1 = x, then (eps/m) r / 2
    ("ballscale", "--r 1e308 --samples 200", "non-finite component inf rejected"),  # a sample's scale
    ("ballscale", "--r inf", "r must be finite, got inf"),  # --alpha omitted, so digested as null
    ("ballscale", "--alpha 1,1 --r nan", "r must be finite, got nan"),
    ("ballscale", "--r 0", "r must be positive, got 0.0"),
    ("ballscale", "--alpha 1,1 --deltas nan,1", "all deltas must be finite"),
    ("ballscale", "--deltas 0.5,inf", "all deltas must be finite"),
]
LIBRARY_ARGS = {
    "opnorm": "--matrix {T}", "solve": "--matrix {T} --y {y}", "omc": "--matrix {T}",
    "series": "--terms {terms}", "subadd": "--matrix {I} --terms {terms}", "norm": "--vector {x}",
    "zabreiko": "--matrix {I} --x {x} --m 2,2 --r 1 --eps 1,1", "ballscale": "--matrix {I1}",
}


@pytest.mark.parametrize(
    "command, flags, message", LIBRARY_REJECTS, ids=[f"{c} {f}" for c, f, _ in LIBRARY_REJECTS]
)
def test_a_value_the_library_rejects_gets_one_digested_envelope(tmp_path, capsys, command, flags, message):
    # the CLI checks none of these values itself, so each one is read and
    # digested like any other input before the library refuses it
    files = {
        "T": matrix_to_json(surjective_mat(np.random.default_rng(21), 2, 3)),
        "I": matrix_to_json(BCMatrix.identity(2)),
        "y": vector_to_json(random_vec(np.random.default_rng(22), 2)),
        "x": vector_to_json(BCVector([0.1, 0.2], [0.3, 0.1])),
        "terms": {"kind": "geometric", "ratio": {"e1": [0.5, 0], "e2": [0.25, 0]},
                  "seed_vector": {"dim": 2, "e1": [[1, 0], [1, 0]], "e2": [[1, 0], [1, 0]]}},
        "I1": matrix_to_json(BCMatrix.identity(1)),
        "I4": matrix_to_json(BCMatrix.identity(4)),
        "D4": matrix_to_json(BCMatrix(np.eye(4) * 1e-300, np.eye(4) * 1e-300)),
        "tiny": vector_to_json(BCVector([1e-150, 2e-150, -1e-150, 3e-150], [2e-150, 1e-150, 1e-150, -2e-150])),
        "x4": vector_to_json(BCVector([0.5, -0.3, 0.1, 0.2], [-0.2, 0.3, 0.5, -0.1])),
        "e1": vector_to_json(BCVector([1, 0, 0, 0], [1, 0, 0, 0])),
    }
    paths = {name: write(tmp_path, f"{name}.json", obj) for name, obj in files.items()}
    required = LIBRARY_ARGS[command.split()[0]].format(**paths)
    # a numpy warning on the way would be a second stderr line outside pytest
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, [*command.split(), *required.split(), *flags.format(**paths).split()])
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    doc = _strict_json(lines[0])
    assert doc["payload"] == {"error": {"kind": "InvalidInput", "message": message}}
    assert doc["pass"] is False and len(doc["inputs_digest"]) == 64
    assert err == f"hyplab: InvalidInput: {message}\n"



#: hyperbolic literals read in the whole plane, and a real radius, refused by
#: the routine that takes them before it factors the operator, as (command,
#: flags, kind, exit code, message)
SIGN_REJECTS = [
    ("zabreiko", "--m 2,2 --eps 1,1 --r 0", "PreconditionViolated", 4, "radius must be positive, got 0.0"),
    *(("zabreiko", f"--m 2,2 --eps 1,1 --r {r}", "InvalidInput", 2, f"r must be finite, got {r}")
      for r in ("inf", "nan")),
    *(("zabreiko", f"--m={m} --eps 1,1", "PreconditionViolated", 4,
       "m must be strictly positive in both components") for m in ("-1,1", "0,1", "2,-2")),
    *(("zabreiko", f"--m 2,2 --eps={eps}", "PreconditionViolated", 4,
       "eps must be strictly positive in both components") for eps in ("-1,1", "1,0")),
    ("ballscale", "--alpha=-1,1", "InvalidInput", 2, "alpha must be nonnegative, got (-1.0, 1.0)"),
    ("ballscale", "--alpha=-0.5", "InvalidInput", 2, "alpha must be nonnegative, got (-0.5, -0.5)"),
]


@pytest.mark.parametrize(
    "command, flags, kind, code, message", SIGN_REJECTS, ids=[f"{c} {f}" for c, f, *_ in SIGN_REJECTS]
)
def test_a_hyperbolic_literal_of_the_wrong_sign_gets_one_digested_envelope(
    tmp_path, capsys, monkeypatch, command, flags, kind, code, message
):
    # the literal parses as any hyperbolic number, so its sign is judged
    # after the inputs are digested, whichever component is refused, and
    # before anything is factored
    calls, real = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or real(*a, **k))
    paths = {
        "I": write(tmp_path, "I.json", matrix_to_json(BCMatrix.identity(4))),
        "x": write(tmp_path, "x.json", vector_to_json(BCVector([0.1, 0.2, 0.0, 0.1], [0.3, 0.1, 0.1, 0.0]))),
    }
    required = {"zabreiko": "--matrix {I} --x {x} --r 1", "ballscale": "--matrix {I}"}[command]
    got, out, err = run_cli(capsys, [command, *required.format(**paths).split(), *flags.split()])
    assert got == code
    lines = out.splitlines()
    assert len(lines) == 1
    doc = _strict_json(lines[0])
    assert doc["payload"] == {"error": {"kind": kind, "message": message}}
    assert doc["pass"] is False and re.fullmatch("[0-9a-f]{64}", doc["inputs_digest"])
    assert err == f"hyplab: {kind}: {message}\n"
    assert calls == []


#: a non-finite component of a hyperbolic literal, as (command, flags, flag named)
NONFINITE_LITERALS = [
    ("ballscale", "--matrix {I} --alpha nan,1", "--alpha", "nan"),
    ("zabreiko", "--matrix {I} --x {x} --r 1 --eps 1,1 --m inf,3", "--m", "inf"),
    ("series", "--terms {terms} --series-tol nan", "--series-tol", "nan"),
]


@pytest.mark.parametrize("command, flags, flag, bad", NONFINITE_LITERALS, ids=[c for c, *_ in NONFINITE_LITERALS])
def test_a_non_finite_hyperbolic_literal_is_digested_then_refused_by_its_flag(
    tmp_path, capsys, monkeypatch, command, flags, flag, bad
):
    # the literal reads as a float pair and is digested as any input; its
    # hyperbolic value is built after the digest, before anything is factored
    calls, real = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or real(*a, **k))
    paths = {
        "I": write(tmp_path, "I.json", matrix_to_json(BCMatrix.identity(4))),
        "x": write(tmp_path, "x.json", vector_to_json(BCVector([0.1, 0.2, 0.0, 0.1], [0.3, 0.1, 0.1, 0.0]))),
        "terms": write(tmp_path, "terms.json", geometric_spec()),
    }
    code, out, err = run_cli(capsys, [command, *flags.format(**paths).split()])
    message = f"{flag}: non-finite component {bad} rejected"
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    doc = _strict_json(lines[0])
    assert doc["payload"] == {"error": {"kind": "InvalidInput", "message": message}}
    assert re.fullmatch("[0-9a-f]{64}", doc["inputs_digest"])
    assert err == f"hyplab: InvalidInput: {message}\n"
    assert calls == []


@pytest.mark.parametrize("tol", ["1", "1e308"])
def test_rank_cutoff_of_one_or_more_exit_2(tmp_path, capsys, tol):
    # no singular value exceeds tol * sigma_max, so omc refuses the cutoff
    # instead of reporting row ranks (0, 0) of the identity
    argv = ["omc", "--matrix", write(tmp_path, "I.json", matrix_to_json(BCMatrix.identity(2))), "--tol", tol]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    error = _strict_json(lines[0])["payload"]["error"]
    assert error == {"kind": "InvalidInput", "message": f"tol must be below 1 as a rank cutoff, got {float(tol)}"}
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["1", "10"])
def test_solve_accepts_a_residual_tolerance_of_one_or_more(tmp_path, capsys, tol):
    # solve's --tol bounds the residual relative to ||y||, not a rank
    y = write(tmp_path, "y.json", {"e1": [[0.5, 0], [0, 0.5]], "e2": [[0.25, 0], [0, 0]]})
    argv = ["solve", "--matrix", write(tmp_path, "I.json", matrix_to_json(BCMatrix.identity(2))), "--y", y]
    code, doc, _ = run_json(capsys, argv + ["--tol", tol])
    assert code == 0 and doc["pass"] is True
    assert doc["payload"]["x"]["e1"] == [[0.5, 0.0], [0.0, 0.5]]


#: declared sizes beside the entry count; ``int`` reads each as the count,
#: but only a JSON integer is a size
DECLARED_SIZES = [('"2"', 2), ("2.0", 2), ("2.5", 2), ("2.9", 2), ("true", 1), ("2", 2), ("1", 1)]


@pytest.mark.parametrize("size, n", DECLARED_SIZES, ids=[s for s, _ in DECLARED_SIZES])
@pytest.mark.parametrize("command, key", [("norm", "dim"), ("opnorm", "rows"), ("opnorm", "cols")])
def test_declared_size_must_be_a_json_integer(tmp_path, capsys, command, key, size, n):
    entries = json.dumps([[1, 0]] * n if command == "norm" else [[[1, 0]] * n] * n)
    path = tmp_path / "in.json"
    path.write_text(f'{{"{key}": {size}, "e1": {entries}, "e2": {entries}}}')
    code, out, err = run_cli(capsys, [command, "--vector" if command == "norm" else "--matrix", str(path)])
    lines = out.splitlines()
    assert len(lines) == 1
    doc = _strict_json(lines[0])
    value = json.loads(size)
    if type(value) is int:
        assert code == 0 and doc["pass"] is True
    else:
        assert code == 2
        assert doc["payload"]["error"] == {
            "kind": "InvalidInput", "message": f"declared {key} must be an integer, got {value!r}"
        }
    assert "Traceback" not in err


#: required arguments of each subcommand; argparse rejects a stray flag
#: before any file is opened, so the paths need not exist
REQUIRED_ARGS = {
    "knorm": ["--scalar", "z.json"],
    "inv": ["--scalar", "z.json"],
    "norm": ["--vector", "v.json"],
    "opnorm": ["--matrix", "T.json"],
    "solve": ["--matrix", "T.json", "--y", "y.json"],
    "omc": ["--matrix", "T.json"],
    "series": ["--terms", "s.json"],
    "zabreiko": ["--matrix", "T.json", "--x", "x.json", "--m", "2,2", "--r", "1", "--eps", "1,1"],
    "ubp": ["--family", "F.json"],
    "omt-verify": ["--matrix", "T.json"],
    "lemma31": ["--matrix", "T.json"],
    "subadd": ["--matrix", "T.json", "--terms", "s.json"],
    "ballscale": ["--matrix", "T.json"],
}

#: the subcommands whose computation reads each shared flag, with a value
FLAG_READERS = {
    ("--tol", "1e-10"): ("opnorm", "solve", "omc"),
    ("--maxN", "10"): ("series", "zabreiko", "subadd"),
    ("--format", "cartesian"): ("knorm", "inv", "norm", "opnorm", "omc"),
}
UNREAD = [
    (command, flag, text)
    for (flag, text), readers in FLAG_READERS.items()
    for command in REQUIRED_ARGS
    if command not in readers
]


def test_every_subcommand_is_listed():
    usage = cli._build_parser().format_usage()
    assert sorted(REQUIRED_ARGS) == sorted(re.search(r"\{([\w,-]+)\}", usage).group(1).split(","))
    assert len(UNREAD) == 28


@pytest.mark.parametrize("command, flag, text", UNREAD)
def test_flag_a_subcommand_does_not_read_is_a_usage_error(capsys, command, flag, text):
    code, out, err = run_cli(capsys, [command, *REQUIRED_ARGS[command], flag, text])
    assert code == 2
    assert out == ""
    assert f"error: unrecognized arguments: {flag} {text}" in err


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
def test_help_lists_only_the_flags_read(capsys, command):
    code, out, _ = run_cli(capsys, [command, "--help"])
    assert code == 0
    for (flag, _text), readers in FLAG_READERS.items():
        assert (f"[{flag} " in out) == (command in readers), flag
    assert "[--seed SEED]" in out and "[--output OUTPUT]" in out


_build_parser = cli._build_parser  # the real builder, kept from the patch below


def _parser_with_every_row(argv=()):
    """The parser with every subcommand's flags, whichever one ``argv`` names."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sp in sub.choices.items():
        for f in cli._ROWS[name].flags:
            sp.add_argument(f.flag, **f.spec)
    return parser


#: command lines that argparse answers itself: help, version and usage errors
PARSER_CASES = [
    ["--help"], ["-h"], ["--version"], [], ["nope"], ["nope", "--matrix", "T.json"],
    ["--seed", "3", "opnorm", "--matrix", "T.json"], ["--bogus", "knorm", "opnorm", "--matrix", "T.json"],
    ["opnorm"], ["ubp", "--family"], ["opnorm", "--scalar", "z.json", "--matrix", "T.json"],
    ["knorm", "--matrix", "T.json"], ["lemma31", "--matrix", "T.json", "--maxN", "3"],
    *([command, "--help"] for command in sorted(REQUIRED_ARGS)),
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-args")
def test_parser_with_only_the_named_flags_answers_as_the_full_one(capsys, monkeypatch, argv):
    got = run_cli(capsys, argv)
    monkeypatch.setattr(cli, "_build_parser", _parser_with_every_row)
    assert got == run_cli(capsys, argv)
    assert got[0] in (0, 2) and not got[1].startswith("{")  # argparse answered: no envelope


def test_check_failed_maps_to_exit_1(tmp_path, capsys, monkeypatch):
    # force a failing report to exercise the exit-1 path
    rng = np.random.default_rng(14)
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(rng, 2, 2)))
    real = hyplab.continuity_bound_check

    def failing(p, trials, seed, alpha_star=None):
        rep = real(p, trials, seed)
        rep.all_ok = False
        return rep

    # a patch on the package attribute wins over its lazy lookup
    monkeypatch.setattr(hyplab, "continuity_bound_check", failing)
    code, doc, _ = run_json(capsys, ["lemma31", "--matrix", mat, "--trials", "10"])
    assert code == 1
    assert doc["pass"] is False


def test_cli_exposes_no_theorem_check():
    # the checks are looked up on the package, the one lazy lookup
    checks = ("ball_scaling_check", "continuity_bound_check", "countable_subadd_check",
              "open_mapping_verify", "ubp_verify", "zabreiko_decompose")
    assert not [name for name in checks if hasattr(cli, name)]


# ------------------------------------------------------------- determinism


def test_determinism_byte_identical(tmp_path, capsys):
    rng = np.random.default_rng(15)
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(rng, 3, 3)))
    argv = ["lemma31", "--matrix", mat, "--trials", "50", "--seed", "21"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2 and out1


def test_zabreiko_rerun_byte_identical(tmp_path, capsys):
    mat = write(tmp_path, "I.json", matrix_to_json(BCMatrix.identity(2)))
    xf = write(tmp_path, "x.json", vector_to_json(BCVector([0.5, 0.25], [0.5, 0.25])))
    argv = [
        "zabreiko", "--matrix", mat, "--x", xf,
        "--m", "2,2", "--r", "1", "--eps", "1,1", "--seed", "7", "--maxN", "40",
    ]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2 and out1


def test_seed_env_override(tmp_path, capsys):
    rng = np.random.default_rng(16)
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(rng, 2, 2)))
    code, doc, _ = run_json(
        capsys, ["lemma31", "--matrix", mat, "--trials", "10", "--seed", "9"]
    )
    assert doc["seed"] == 9


def test_output_file(tmp_path, capsys):
    scalar = write(tmp_path, "z.json", {"e1": [1, 0], "e2": [1, 0]})
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["knorm", "--scalar", scalar, "--output", str(out_path)])
    assert code == 0
    assert out == ""  # stdout untouched when writing to a file
    doc = json.loads(out_path.read_text())
    assert doc["pass"] is True


def test_format_cartesian_emission(tmp_path, capsys):
    scalar = write(tmp_path, "z.json", {"e1": [2, 0], "e2": [3, 0]})
    code, doc, _ = run_json(capsys, ["knorm", "--scalar", scalar, "--format", "cartesian"])
    assert code == 0
    assert doc["payload"]["knorm"]["w"][0] == 2.5


@pytest.mark.parametrize("command", ["opnorm", "omc"])
def test_format_cartesian_near_float_limit_is_strict_json(tmp_path, capsys, command):
    big = 1.7976931348623157e308
    mat = write(tmp_path, "T.json", {"e1": [[[big, 0.0]]], "e2": [[[1e308, 0.0]]]})
    if command == "omc":  # 1/sigma_min near the limit too
        mat = write(tmp_path, "T.json", {"e1": [[[1e-308, 0.0]]], "e2": [[[6e-309, 0.0]]]})
    code, out, err = run_cli(capsys, [command, "--matrix", mat, "--format", "cartesian"])
    assert code == 0 and err == ""
    doc = _strict_json(out)
    w = doc["payload"]["M" if command == "opnorm" else "delta"]["w"]
    assert w[1] == w[2] == 0.0 and w[0] > 1e307 and abs(w[3]) > 1e307


def test_solve_large_rhs_within_scaled_tolerance(tmp_path, capsys):
    mat = write(tmp_path, "T.json", matrix_to_json(BCMatrix([[1.0, 1.0]], [[1.0, 1.0]])))
    y = write(tmp_path, "y.json", vector_to_json(BCVector([1e8], [1e8])))
    code, doc, _ = run_json(capsys, ["solve", "--matrix", mat, "--y", y])
    assert code == 0
    assert doc["payload"]["tol"] == [1e-2, 1e-2]


# ---------------------------------------------------------- malformed input


def test_vector_dim_not_a_number_exit_2(tmp_path, capsys):
    vec = write(tmp_path, "v.json", {"dim": "abc", "e1": [[1, 0]], "e2": [[1, 0]]})
    code, doc, _ = run_json(capsys, ["norm", "--vector", vec])
    assert code == 2
    assert doc["payload"]["error"]["kind"] == "InvalidInput"


def test_matrix_row_given_as_number_exit_2(tmp_path, capsys):
    mat = write(tmp_path, "T.json", {"e1": [1.0, 2.0], "e2": [[[1, 0]], [[2, 0]]]})
    code, doc, _ = run_json(capsys, ["opnorm", "--matrix", mat])
    assert code == 2
    assert doc["payload"]["error"]["kind"] == "InvalidInput"


#: finite idempotent components whose modulus exceeds the float range
BEYOND_RANGE = [1.2711610061536462e308, 1.2711610061536464e308]


@pytest.mark.parametrize("e1", [[0, 0], [2, 0]])
@pytest.mark.parametrize("command", ["knorm", "inv"])
def test_modulus_beyond_float_range_exit_2(tmp_path, capsys, command, e1):
    scalar = write(tmp_path, "z.json", {"e1": e1, "e2": BEYOND_RANGE})
    code, doc, err = run_json(capsys, [command, "--scalar", scalar])
    assert code == 2
    assert doc["payload"]["error"] == {
        "kind": "InvalidInput",
        "message": "non-finite component inf rejected",
    }
    assert err == "hyplab: InvalidInput: non-finite component inf rejected\n"


@pytest.mark.parametrize("e2", [[1e308, 1e308], [-1.2e308, 0.9e308]])
def test_inv_near_float_limit_is_an_inverse(tmp_path, capsys, e2):
    # complex division overflows its denominator here and returns 0
    scalar = write(tmp_path, "z.json", {"e1": [2, 0], "e2": e2})
    code, doc, _ = run_json(capsys, ["inv", "--scalar", scalar])
    assert code == 0
    inverse = doc["payload"]["inverse"]
    assert inverse["e1"] == [0.5, 0.0]
    product = complex(*e2) * complex(*inverse["e2"])
    assert abs(product - 1) < 1e-12


def test_integer_beyond_float_range_exit_2(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text('{"e1": [1' + "0" * 400 + ', 0], "e2": [1, 0]}')
    code, doc, _ = run_json(capsys, ["knorm", "--scalar", str(path)])
    assert code == 2
    assert doc["payload"]["error"]["kind"] == "InvalidInput"


# ---------------------------------------------------------- error envelopes


def test_error_envelope_keeps_seed(tmp_path, capsys):
    mat = write(tmp_path, "T.json", matrix_to_json(BCMatrix.zeros(2, 2)))
    code, doc, _ = run_json(capsys, ["omt-verify", "--matrix", mat, "--trials", "5"])
    assert code == 4 and doc["seed"] == 42
    code, doc, _ = run_json(capsys, ["omt-verify", "--matrix", mat, "--trials", "5", "--seed", "7"])
    assert code == 4 and doc["seed"] == 7
    code, doc, _ = run_json(capsys, ["omt-verify", "--matrix", mat, "--trials", "0", "--seed", "7"])
    assert code == 2 and doc["seed"] == 7


#: input files as a user might write them (integer entries, no declared
#: sizes), and the canonical form each takes in the inputs digest: a
#: matrix's or vector's components as the record of their float64 bytes
RANK1 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
RANK1_CANON = pairs_record(RANK1)
DIGEST_FILES = {
    "z.json": {"e1": [1, 0], "e2": [0, 0]},
    "v.json": {"e1": [[3, 0], [4, 0]], "e2": [[0, 0], [0, 0]]},
    "A.json": {"e1": RANK1, "e2": RANK1},
    "I.json": {"e1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "e2": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    "y.json": {"e1": [[0, 0], [1, 0]], "e2": [[0, 0], [1, 0]]},
    "x.json": {"e1": [[0.1, 0], [0, 0]], "e2": [[0, 0.1], [0, 0]]},
    "D.json": {"e1": [[[2, 0]]], "e2": [[[3, 0]]]},
    "F.json": [{"e1": RANK1, "e2": RANK1}],
    "empty.json": [],
    "spec.json": {"kind": "harmonic"},
}
SCALAR_CANON = {"e1": [1.0, 0.0], "e2": [0.0, 0.0]}
A_CANON = {"rows": 2, "cols": 2, "e1": RANK1_CANON, "e2": RANK1_CANON}
I_CANON = {
    "rows": 2, "cols": 2,
    "e1": pairs_record([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
    "e2": pairs_record([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
}

#: the digest of ``opnorm --matrix A.json --tol 1e-8``, also worked out
#: from ``struct.pack("<d", ...)`` bytes and the JSON text by hand
OPNORM_A_DIGEST = "63e4e0e100bdab37c3d1f2bec71a029b8332786e2a65116ee1770590df33e680"

#: per subcommand: its command line, exit code, and the inputs it digests,
#: in the digest's key order
DIGEST_CASES = {
    "knorm": (["knorm", "--scalar", "z.json", "--format", "cartesian"], 0, {"scalar": SCALAR_CANON}),
    "inv": (["inv", "--scalar", "z.json"], 4, {"scalar": SCALAR_CANON}),
    "norm": (
        ["norm", "--vector", "v.json", "--norm", "l1"], 0,
        {
            "vector": {
                "dim": 2,
                "e1": pairs_record([[3.0, 0.0], [4.0, 0.0]]),
                "e2": pairs_record([[0.0, 0.0], [0.0, 0.0]]),
            },
            "norm": "l1",
        },
    ),
    "opnorm": (["opnorm", "--matrix", "A.json", "--tol", "1e-8"], 0, {"matrix": A_CANON, "tol": 1e-8}),
    "solve": (
        ["solve", "--matrix", "A.json", "--y", "y.json"], 4,
        {
            "matrix": A_CANON,
            "y": {
                "dim": 2,
                "e1": pairs_record([[0.0, 0.0], [1.0, 0.0]]),
                "e2": pairs_record([[0.0, 0.0], [1.0, 0.0]]),
            },
            "tol": 1e-10,
        },
    ),
    "omc": (["omc", "--matrix", "A.json"], 4, {"matrix": A_CANON, "tol": 1e-10}),
    # the terms file loads, then fails to parse as a series
    "series": (
        ["series", "--terms", "spec.json", "--series-tol", "1e-9,1e-6", "--maxN", "5", "--abs-check"], 2,
        {"terms": {"kind": "harmonic"}, "series_tol": [1e-9, 1e-6], "maxN": 5},
    ),
    "zabreiko": (
        ["zabreiko", "--matrix", "I.json", "--x", "x.json", "--m", "1,1", "--r", "1", "--eps", "0.5"], 4,
        {
            "matrix": I_CANON,
            "x": {
                "dim": 2,
                "e1": pairs_record([[0.1, 0.0], [0.0, 0.0]]),
                "e2": pairs_record([[0.0, 0.1], [0.0, 0.0]]),
            },
            "m": [1.0, 1.0],
            "r": 1.0,
            "eps": [0.5, 0.5],
            "maxN": 1000,
        },
    ),
    "ubp": (["ubp", "--family", "F.json", "--samples", "0"], 2, {"family": [A_CANON], "samples": 0}),
    "omt-verify": (["omt-verify", "--matrix", "A.json"], 4, {"matrix": A_CANON, "trials": 1000}),
    "lemma31": (["lemma31", "--matrix", "A.json", "--trials", "0"], 2, {"matrix": A_CANON, "trials": 0}),
    "subadd": (
        ["subadd", "--matrix", "A.json", "--terms", "empty.json"], 2,
        {"matrix": A_CANON, "terms": [], "series_tol": [1e-12, 1e-12], "maxN": 1000},
    ),
    "ballscale": (
        ["ballscale", "--matrix", "A.json", "--alpha", "1e-6,1e-6", "--samples", "20"], 4,
        {"matrix": A_CANON, "alpha": [1e-6, 1e-6], "r": 1.0, "deltas": [0.5, 2.0, 10.0], "samples": 20},
    ),
    # an omitted --alpha is digested as null: the check resolves it after the digest
    "ballscale-default-alpha": (
        ["ballscale", "--matrix", "D.json", "--r", "0.5", "--deltas", ""], 2,
        {
            "matrix": {
                "rows": 1, "cols": 1, "e1": pairs_record([[[2.0, 0.0]]]), "e2": pairs_record([[[3.0, 0.0]]]),
            },
            "alpha": None,
            "r": 0.5,
            "deltas": [],
            "samples": 100,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_error_envelope_keeps_inputs_digest(tmp_path, capsys, case):
    for name, obj in DIGEST_FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    args, exit_code, want = DIGEST_CASES[case]
    code, doc, _ = run_json(capsys, [str(tmp_path / a) if a in DIGEST_FILES else a for a in args])
    assert code == exit_code
    assert doc["inputs_digest"] == hashlib.sha256(oracle_dumps(want).encode("utf-8")).hexdigest()
    if case == "opnorm":  # pinned, so that the rule cannot drift with its oracle
        assert doc["inputs_digest"] == OPNORM_A_DIGEST


#: pairs of matrix files that must digest apart (the bits differ, or only
#: the shape, or only which component holds which array) and pairs that
#: must digest alike (the same parsed matrix)
DIGEST_APART = {
    "signed-zero": ({"e1": [[[1.0, 0.0]]], "e2": [[[1.0, 0.0]]]}, {"e1": [[[1.0, -0.0]]], "e2": [[[1.0, 0.0]]]}),
    "1x2-vs-2x1": ({"e1": [[[1, 2], [3, 4]]], "e2": [[[5, 6], [7, 8]]]},
                   {"e1": [[[1, 2]], [[3, 4]]], "e2": [[[5, 6]], [[7, 8]]]}),
    "e1-e2-swapped": ({"e1": [[[1, 2]]], "e2": [[[3, 4]]]}, {"e1": [[[3, 4]]], "e2": [[[1, 2]]]}),
}
DIGEST_ALIKE = {
    # a + b*i + c*j + d*k has e1 = (a + d) + (b - c)i and e2 = (a - d) + (b + c)i
    "cartesian": ({"w": [[[1, 0, 0, 0], [0, 1, 0, 0]], [[2, 0, 0, 1], [0, 1, 3, 0]]]},
                  {"e1": [[[1, 0], [0, 1]], [[3, 0], [0, -2]]], "e2": [[[1, 0], [0, 1]], [[1, 0], [0, 4]]]}),
    "integer-entries": ({"e1": [[[1, 0]]], "e2": [[[-3, 2]]]}, {"e1": [[[1.0, 0.0]]], "e2": [[[-3.0, 2.0]]]}),
}


def _opnorm_digests(tmp_path, capsys, pair) -> list[str]:
    digests = []
    for i, obj in enumerate(pair):
        path = tmp_path / f"M{i}.json"
        path.write_text(json.dumps(obj))
        code, doc, _ = run_json(capsys, ["opnorm", "--matrix", str(path)])
        assert code == 0
        digests.append(doc["inputs_digest"])
    return digests


@pytest.mark.parametrize("case", sorted(DIGEST_APART))
def test_inputs_digest_tells_apart_what_parses_apart(tmp_path, capsys, case):
    first, second = _opnorm_digests(tmp_path, capsys, DIGEST_APART[case])
    assert first != second


@pytest.mark.parametrize("case", sorted(DIGEST_ALIKE))
def test_inputs_digest_is_alike_for_the_same_parsed_matrix(tmp_path, capsys, case):
    first, second = _opnorm_digests(tmp_path, capsys, DIGEST_ALIKE[case])
    assert first == second


def test_error_envelope_before_the_inputs_parse_has_no_digest(tmp_path, capsys):
    T = BCMatrix([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
    mat = write(tmp_path, "T.json", matrix_to_json(T))
    code, doc, _ = run_json(capsys, ["solve", "--matrix", mat, "--y", "/nonexistent/y.json"])
    assert code == 2 and doc["inputs_digest"] == ""


NESTED_600 = "[" * 600 + "]" * 600


@pytest.mark.parametrize(
    "command, option, content",
    [
        ("opnorm", "--matrix", b'{"e1": [[[1, 0]]], "e2": [[[1, 0]]], "w": "\xff"}'),
        ("series", "--terms", b"[" * 100_000),
        ("norm", "--vector", b"[" * 100_000),
        ("series", "--terms", ("[" * 900 + "]" * 900).encode()),
        (
            "series",
            "--terms",
            (
                '{"kind": "geometric", "ratio": {"e1": [0.5, 0], "e2": [0.5, 0]}, '
                '"seed_vector": {"e1": [[1, 0]], "e2": [[1, 0]]}, "x": ' + NESTED_600 + "}"
            ).encode(),
        ),
    ],
    ids=["not-utf8", "series-deep", "norm-deep", "terms-900", "spec-extra-600"],
)
def test_malformed_file_exit_2(tmp_path, capsys, command, option, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    argv = [command, *REQUIRED_ARGS[command]]
    argv[argv.index(option) + 1] = str(path)
    code, doc, err = run_json(capsys, argv)
    assert code == 2
    assert doc["inputs_digest"] == ""
    assert doc["payload"]["error"]["kind"] == "InvalidInput"
    assert doc["payload"]["error"]["message"].startswith(f"cannot read JSON from {path}: ")
    assert err.count("\n") == 1


def _child_env(**overrides) -> dict:
    """The environment of a ``python -m hyplab.cli`` child that imports this
    checkout's hyplab."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""), **overrides)


def _rejected_quietly(argv, message, kind="InvalidInput", code=2):
    """Run the CLI in a child that shows every warning; expect one envelope
    with error ``kind`` and exit ``code`` on stdout and only the one summary
    line on stderr."""
    env = _child_env()
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "hyplab.cli", *argv],
        capture_output=True, env=env, timeout=120, text=True,
    )
    assert proc.returncode == code
    assert proc.stderr == f"hyplab: {kind}: {message}\n"
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert lines[0] == dumps(doc)
    assert doc["payload"] == {"error": {"kind": kind, "message": message}}
    assert doc["pass"] is False and len(doc["inputs_digest"]) == 64


def test_subnormal_eps_is_rejected_without_numpy_warnings(tmp_path):
    # the first budget (eps/m) r / 2 = 5e-313 is below the float spacing of x,
    # so the run is refused before any grid is built
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(np.random.default_rng(19), 3, 3)))
    x = BCVector([0.1, 0.0, 0.1], [0.0, 0.1, 0.1])
    xf = write(tmp_path, "x.json", vector_to_json(x))
    argv = ["zabreiko", "--matrix", mat, "--x", xf, "--m", "100,100", "--r", "1", "--eps", "1e-310,1e-310"]
    budget, (s1, s2) = 1e-310 / 100 / 2, (2.0**-52 * a for a in vec_dnorm(x).components())
    message = (
        "first remainder budget below the float64 spacing of x, so no grid step can meet it ("
        f"e1: (eps/m)*r/2={budget} <= 2^-52*||x||_D={s1}; e2: (eps/m)*r/2={budget} <= 2^-52*||x||_D={s2})"
    )
    _rejected_quietly(argv, message, "PreconditionViolated", 4)


@pytest.mark.parametrize("command", ["lemma31", "ballscale"])
def test_overflowing_norms_are_rejected_without_numpy_warnings(tmp_path, command):
    T = random_mat(np.random.default_rng(20), 3, 3)
    mat = write(tmp_path, "T.json", matrix_to_json(BCMatrix(T.m1 * 1e160, T.m2 * 1e160)))
    _rejected_quietly([command, "--matrix", mat], "non-finite component inf rejected")


@pytest.mark.parametrize("entry", [0.0, 1.0])
def test_infinite_radius_is_rejected_without_numpy_warnings(tmp_path, entry):
    mat = write(tmp_path, "T.json", {"e1": [[[entry, 0.0]]], "e2": [[[entry, 0.0]]]})
    argv = ["ballscale", "--matrix", mat, "--alpha", "100,100", "--r", "inf"]
    _rejected_quietly(argv, "r must be finite, got inf")


@pytest.mark.parametrize(
    "command,message",
    [
        ("series", "non-finite component inf rejected"),
        ("series --abs-check", "non-finite component inf rejected"),
        ("subadd", "non-finite component inf rejected"),
    ],
)
def test_overflowing_geometric_terms_are_rejected_without_numpy_warnings(tmp_path, command, message):
    # the first term's norm overflows to inf, which every command reports
    # before the generator fails on the second term, ratio * seed
    big = {"e1": [1e200, 0], "e2": [1e200, 0]}
    spec = {"kind": "geometric", "ratio": big, "seed_vector": {"e1": [big["e1"]], "e2": [big["e2"]]}}
    argv = [*command.split(), "--terms", write(tmp_path, "terms.json", spec)]
    if command == "subadd":
        argv += ["--matrix", write(tmp_path, "T.json", matrix_to_json(BCMatrix([[1.0]], [[1.0]])))]
    _rejected_quietly(argv, message)


@pytest.mark.parametrize("command", ["series", "series --abs-check", "subadd"])
def test_a_huge_term_cap_is_rejected_before_any_term_is_summed(tmp_path, command):
    # a ratio-1 series neither settles nor overflows: uncapped, it would be
    # summed, and for subadd kept, for 10**12 terms
    spec = {"kind": "geometric", "ratio": {"e1": [1, 0], "e2": [1, 0]},
            "seed_vector": {"dim": 1, "e1": [[1, 0]], "e2": [[1, 0]]}}
    argv = [*command.split(), "--terms", write(tmp_path, "terms.json", spec), "--maxN", str(10**12)]
    if command == "subadd":
        argv += ["--matrix", write(tmp_path, "T.json", matrix_to_json(BCMatrix([[1.0]], [[1.0]])))]
    _rejected_quietly(argv, f"max_n {10**12} exceeds the cap of {MAX_SERIES_TERMS} terms")


def test_ubp_counts_a_samples_products_against_the_draw_cap(tmp_path, capsys, monkeypatch):
    # a sample of a 200-member 8x8 family draws 32 normals but makes
    # 200 x 8 row products: it weighs 4 * 1600 = 6400, so the count that 32
    # normals each allow is refused before anything is drawn, and
    # cap // 6400 still runs
    cap = 2**24
    rng = np.random.default_rng(22)
    fam = write(tmp_path, "F.json", [matrix_to_json(random_mat(rng, 8, 8)) for _ in range(200)])
    import hyplab.theoremlab as tl

    real_stream, streams = tl.check_stream, []
    monkeypatch.setattr(tl, "check_stream", lambda *a: streams.append(a) or real_stream(*a))
    samples = cap // 32
    code, doc, _ = run_json(capsys, ["ubp", "--family", fam, "--samples", str(samples)])
    message = f"ubp: count {samples} of weight 6400 each exceeds the cap of {cap}"
    assert code == 2
    assert doc["payload"] == {"error": {"kind": "InvalidInput", "message": message}}
    assert streams == []
    code, doc, _ = run_json(capsys, ["ubp", "--family", fam, "--samples", str(cap // 6400)])
    assert code == 0 and doc["payload"]["samples"] == cap // 6400
    assert len(streams) == 1


def test_omt_verify_counts_a_wide_operators_preimages_against_the_draw_cap(tmp_path):
    # 2**22 trials draw 4 normals each under a 1x1000 operator, within the
    # cap, but each solves for a (2, 1000) preimage: a trial weighs the
    # 4000 floats of its preimage, so the count is refused before anything
    # is drawn, and cap // 4000 still runs
    cap = 2**24
    mat = write(tmp_path, "T.json", matrix_to_json(surjective_mat(np.random.default_rng(21), 1, 1000)))
    trials = cap // 4
    message = f"omt-verify: count {trials} of weight 4000 each exceeds the cap of {cap}"
    _rejected_quietly(["omt-verify", "--matrix", mat, "--trials", str(trials)], message)
    proc = subprocess.run(
        [sys.executable, "-m", "hyplab.cli", "omt-verify", "--matrix", mat, "--trials", str(cap // 4000)],
        capture_output=True, env=_child_env(), timeout=120, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["payload"]["trials"] == cap // 4000


@pytest.mark.parametrize(
    "rows",
    [
        24,
        # factored through its transpose, a 64x128 operator rounds alike at
        # one and two threads
        64,
        # above OpenBLAS's threading threshold, two threads would split the
        # reductions inside gemv and gesdd and round differently; the CLI
        # runs BLAS at one thread
        96,
    ],
)
def test_omt_verify_bytes_independent_of_blas_threads(tmp_path, rows):
    rng = np.random.default_rng(17)
    mat = write(tmp_path, "T.json", matrix_to_json(surjective_mat(rng, rows, 2 * rows)))
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "hyplab.cli", "omt-verify", "--matrix", mat, "--trials", "30"],
            capture_output=True, env=_child_env(OPENBLAS_NUM_THREADS=threads), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0]


def test_blas_lookup_reads_and_sets_numpys_openblas():
    blas = cli._openblas()
    if blas is None:
        pytest.skip("this numpy bundles no scipy-openblas")
    get_threads, set_threads = blas
    threads = get_threads()
    try:
        for n in (1, 2):
            set_threads(n)
            assert get_threads() == n
    finally:
        set_threads(threads)


@pytest.mark.parametrize("call", ["omt-verify", "ubp", "solve"])
def test_no_hyplab_call_starts_a_thread(tmp_path, capsys, call):
    # each call is above the work at which a component once ran on a helper
    # thread: a 114-row block solve at 64x128 (2^19.8 per component), a family
    # of 20 8x8 members, and a 64x128 solve through the CLI
    rng = np.random.default_rng(26)
    T = surjective_mat(rng, 64, 128)
    mat = write(tmp_path, "T.json", matrix_to_json(T))
    y = write(tmp_path, "y.json", vector_to_json(random_vec(rng, 64)))
    calls = {
        "omt-verify": lambda: hyplab.open_mapping_verify(T, 100, seed=1).passed,
        "ubp": lambda: hyplab.ubp_verify([random_mat(rng, 8, 8) for _ in range(20)], 50, seed=1).passed,
        "solve": lambda: run_json(capsys, ["solve", "--matrix", mat, "--y", y])[0] == 0,
    }
    before = threading.enumerate()
    assert calls[call]()
    assert threading.enumerate() == before
    assert not [t for t in threading.enumerate() if t.name == "hyplab-helper"]


def test_run_pins_blas_to_one_thread_and_restores_the_count(tmp_path, capsys, monkeypatch):
    blas = cli._openblas()
    if blas is None:
        pytest.skip("this numpy bundles no scipy-openblas")
    get_threads, set_threads = blas
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(np.random.default_rng(23), 3, 3)))
    real, seen = cli.op_dnorm, []
    monkeypatch.setattr(cli, "op_dnorm", lambda *a, **k: seen.append(get_threads()) or real(*a, **k))
    threads = get_threads()
    try:
        set_threads(2)
        assert run_json(capsys, ["opnorm", "--matrix", mat])[0] == 0
        assert seen == [1] and get_threads() == 2
        # the count is restored after a failed run too
        assert run_json(capsys, ["opnorm", "--matrix", mat, "--tol", "nan"])[0] == 2
        assert get_threads() == 2
    finally:
        set_threads(threads)


def test_run_leaves_blas_alone_where_its_thread_count_cannot_be_read(tmp_path, capsys, monkeypatch):
    blas = cli._openblas()
    if blas is None:
        pytest.skip("this numpy bundles no scipy-openblas")
    get_threads = blas[0]  # read here, through the library the CLI no longer finds
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(np.random.default_rng(24), 3, 3)))
    real, seen = cli.op_dnorm, []
    monkeypatch.setattr(cli, "op_dnorm", lambda *a, **k: seen.append(get_threads()) or real(*a, **k))
    threads = get_threads()
    code, doc, _ = run_json(capsys, ["opnorm", "--matrix", mat])
    assert code == 0 and doc["pass"] is True
    assert seen == [threads] and get_threads() == threads


# ------------------------------------------------------------ last resort


def test_unexpected_exception_exit_5_with_one_envelope(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(18)
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(rng, 2, 2)))

    def broken(*args, **kwargs):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(cli, "op_dnorm", broken)
    code, doc, err = run_json(capsys, ["opnorm", "--matrix", mat])
    assert code == cli.EXIT_INTERNAL == 5
    assert doc["pass"] is False
    assert doc["payload"]["error"] == {"kind": "RuntimeError", "message": "kernel exploded"}
    assert doc["inputs_digest"]  # the inputs had parsed
    assert "RuntimeError" in err


def test_svd_failure_exit_3_with_one_envelope(tmp_path, capsys, monkeypatch):
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(np.random.default_rng(19), 2, 2)))

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    code, doc, err = run_json(capsys, ["opnorm", "--matrix", mat])
    assert code == 3
    assert doc["pass"] is False
    assert doc["payload"] == {
        "error": {"kind": "NoConvergence", "message": "SVD kernel failed: SVD did not converge"}
    }
    assert err == "hyplab: NoConvergence: SVD kernel failed: SVD did not converge\n"


def test_error_envelope_goes_to_output(tmp_path, capsys):
    zero = write(tmp_path, "zero.json", {"e1": [1, 0], "e2": [0, 0]})
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, ["inv", "--scalar", zero, "--output", str(out_path)])
    assert code == 4
    assert out == ""
    doc = _strict_json(out_path.read_text())
    assert doc["pass"] is False and doc["payload"]["error"]["kind"] == "ZeroDivisor"
    assert len(doc["inputs_digest"]) == 64
    assert err.startswith("hyplab: ZeroDivisor: ")


def test_unwritable_output_exit_2_envelope_on_stdout(tmp_path, capsys):
    scalar = write(tmp_path, "z.json", {"e1": [1, 0], "e2": [1, 0]})
    out = str(tmp_path / "missing-dir" / "report.json")
    code, doc, _ = run_json(capsys, ["knorm", "--scalar", scalar, "--output", out])
    assert code == 2
    assert doc["payload"]["error"]["kind"] == "InvalidInput"


# ---------------------------------------------------------- process entry


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
def test_unwritable_stdout_exits_2_with_one_line(tmp_path, sink, unbuffered):
    """An envelope that cannot reach stdout fails the run at its write or,
    when stdout is buffered, at the run's flush; the interpreter's own
    flush at exit must not fail again."""
    scalar = write(tmp_path, "z.json", {"e1": [3, 4], "e2": [-5, 0]})
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if sink == "/dev/full":
        if not os.path.exists(sink):
            pytest.skip("no /dev/full")
        stdout = open(sink, "w")
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = os.fdopen(write_end, "w")
    with stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "hyplab.cli", "knorm", "--scalar", scalar],
            stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120, text=True,
        )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("hyplab: InvalidInput: cannot write the envelope to stdout: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["knorm", "--scalar", "{z}"], 0),
        (["inv", "--scalar", "{zero}"], 4),
        (["knorm", "--maxN", "3"], 2),  # argparse's usage error
    ],
)
def test_run_leaves_the_collector_as_it_found_it(tmp_path, capsys, argv, exit_code):
    paths = {
        "z": write(tmp_path, "z.json", {"e1": [3, 4], "e2": [-5, 0]}),
        "zero": write(tmp_path, "zero.json", {"e1": [1, 0], "e2": [0, 0]}),
    }
    enabled = gc.isenabled()
    code, _, _ = run_cli(capsys, [word.format(**paths) for word in argv])
    assert code == exit_code
    assert gc.get_freeze_count() == 0
    assert gc.isenabled() is enabled


def test_main_exits_with_the_runs_code_and_a_frozen_collector(tmp_path, capsys, monkeypatch):
    zero = write(tmp_path, "zero.json", {"e1": [1, 0], "e2": [0, 0]})
    monkeypatch.setattr(sys, "argv", ["hyplab", "inv", "--scalar", zero])
    try:
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 4
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    _, err = capsys.readouterr()
    assert err.startswith("hyplab: ZeroDivisor: ")


def test_output_file_of_a_process_holds_the_in_process_envelope(tmp_path, capsys):
    mat = write(tmp_path, "T.json", matrix_to_json(random_mat(np.random.default_rng(21), 3, 5)))
    argv = ["opnorm", "--matrix", mat, "--output"]
    assert cli.run([*argv, str(tmp_path / "in-process.json")]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "hyplab.cli", *argv, str(tmp_path / "process.json")],
        capture_output=True, env=_child_env(), timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert (tmp_path / "process.json").read_bytes() == (tmp_path / "in-process.json").read_bytes()
