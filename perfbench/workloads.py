"""The benchmark's three workloads: inputs from the seed, one op, its check.

Each workload builds its inputs from ``--seed`` only; hyplab sees nothing
but the generated inputs.  An op is what a user waits for: one operator
session, one battery of theorem checks, or one CLI process.  ``check``
compares every verdict and exit code with the one the inputs were built
to produce, and compares values with oracles computed here with numpy's
own SVD, captured before any tracing is installed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import islice

import numpy as np

from hyplab import (
    BCMatrix,
    BCVector,
    Bicomplex,
    DPlus,
    DSeminorm,
    ball_scaling_check,
    continuity_bound_check,
    countable_subadd_check,
    geometric_terms,
    op_dnorm,
    open_mapping_delta,
    open_mapping_verify,
    ubp_verify,
    zabreiko_decompose,
)
from hyplab.jsonio import dumps

_svd = np.linalg.svd
_REL = 1e-9


def _close(a: float, b: float, rel: float = _REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _cmat(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _cvec(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _sv(T: BCMatrix) -> tuple[np.ndarray, np.ndarray]:
    return _svd(T.m1, compute_uv=False), _svd(T.m2, compute_uv=False)


def _zabreiko_problems(trace: dict, x: tuple[np.ndarray, np.ndarray]) -> list[str]:
    """The emitted terms plus the last remainder must sum back to x."""
    if trace["n_steps"] < 1 or trace["n_steps"] != len(trace["x_terms"]):
        return [f"zabreiko n_steps {trace['n_steps']} inconsistent with its trace"]
    problems = []
    for comp, v in zip(("e1", "e2"), x):
        rebuilt = np.array(trace["remainders"][-1][comp]) @ [1, 1j]
        for t in trace["x_terms"]:
            rebuilt = rebuilt + np.array(t[comp]) @ [1, 1j]
        if not np.allclose(rebuilt, v, rtol=0, atol=1e-12):
            problems.append(f"zabreiko terms do not sum to x in {comp}")
    return problems


def _parse_envelopes(texts: list[str]) -> tuple[list[dict], list[str]]:
    docs, problems = [], []
    for k, text in enumerate(texts):
        try:
            docs.append(json.loads(text))
        except json.JSONDecodeError as exc:
            problems.append(f"envelope {k} does not parse: {exc}")
            docs.append({})
    return docs, problems


class Workload:
    """Common shape: ``prepare`` and ``check`` are untimed, ``run`` is the op."""

    name = ""
    wid = 0
    #: ops per cycle of a fixed mix; a run ends on a cycle boundary
    cycle = 1
    #: ops whose kernel and object counts are reported; they repeat exactly
    count_ops = 3
    #: op rerun after the measurement; its envelope must be byte-identical
    rerun_index = 0
    #: whether the op runs hyplab in this process (else in a child process)
    in_process = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed % (1 << 63)
        self.workdir = workdir

    def rng(self, key) -> np.random.Generator:
        """Stream for op ``key``; None is the warm-up op, never measured."""
        tail = [1, 0] if key is None else [0, key]
        return np.random.default_rng([self.seed, self.wid, *tail])

    def envelope(self, result) -> str:
        return "\n".join(result)


class OmtLarge(Workload):
    """A fresh surjective 64x128 operator per op, one operator session."""

    name = "omt-large"
    wid = 1
    trials = 100

    def prepare(self, key):
        rng = self.rng(key)
        T = BCMatrix(_cmat(rng, 64, 128), _cmat(rng, 64, 128))
        return {"T": T, "seed": int(rng.integers(1 << 31)), "sv": _sv(T)}

    def run(self, inp, tracer=None):
        T = inp["T"]
        norm = op_dnorm(T)
        delta = open_mapping_delta(T)
        rep = open_mapping_verify(T, self.trials, inp["seed"])
        return [
            dumps(
                {
                    "opnorm": norm.to_json_dict(),
                    "delta": [delta.a1, delta.a2],
                    "verify": rep.to_json_dict(),
                }
            )
        ]

    def check(self, inp, result) -> list[str]:
        docs, problems = _parse_envelopes(result)
        if problems or len(docs) != 1:
            return problems or [f"expected one envelope, got {len(docs)}"]
        doc = docs[0]
        s1, s2 = inp["sv"]
        if doc["verify"]["pass"] is not True:
            problems.append("open_mapping_verify failed on a surjective operator")
        if not (_close(doc["opnorm"]["M"][0], s1[0]) and _close(doc["opnorm"]["M"][1], s2[0])):
            problems.append(f"op_dnorm {doc['opnorm']['M']} != oracle ({s1[0]}, {s2[0]})")
        for got in (doc["delta"], doc["verify"]["delta"]):
            if not (_close(got[0], 1.0 / s1[-1]) and _close(got[1], 1.0 / s2[-1])):
                problems.append(f"delta {got} != oracle ({1 / s1[-1]}, {1 / s2[-1]})")
        return problems


class ChecksDesk(Workload):
    """The six-check battery at desk scale, plus one undersized constant."""

    name = "checks-desk"
    wid = 2
    #: verdicts of the battery, in order; the second check is given an
    #: alpha_star shrunk by 1e-6, which the norm-attaining witness refutes
    expected = (True, False, True, True, True, True, True)

    def prepare(self, key):
        rng = self.rng(key)
        T4 = BCMatrix(_cmat(rng, 4, 4), _cmat(rng, 4, 4))
        s1, s2 = _sv(T4)
        alpha = DPlus(s1[0], s2[0])
        mod = rng.uniform(0.9, 0.95, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        terms = list(islice(geometric_terms(Bicomplex(mod[0], mod[1]), BCVector(_cvec(rng, 4), _cvec(rng, 4))), 200))
        x = BCVector(_cvec(rng, 4), _cvec(rng, 4))
        x = x.scale(0.9 / max(np.linalg.norm(x.v1), np.linalg.norm(x.v2)))
        family = [BCMatrix(_cmat(rng, 8, 8), _cmat(rng, 8, 8)) for _ in range(20)]
        T36 = BCMatrix(_cmat(rng, 3, 6), _cmat(rng, 3, 6))
        fam_sv = [_sv(T) for T in family]
        return {
            "seed": int(rng.integers(1 << 31)),
            "p": DSeminorm(T4),
            "alpha": alpha,
            "alpha_bad": DPlus(s1[0] * (1 - 1e-6), s2[0] * (1 - 1e-6)),
            "terms": terms,
            "x": x,
            "m": DPlus(2.5 * s1[0], 2.5 * s2[0]),
            "family": family,
            "family_sup": (max(a[0] for a, _ in fam_sv), max(b[0] for _, b in fam_sv)),
            "T36": T36,
            "sv36": _sv(T36),
        }

    def run(self, inp, tracer=None):
        p, seed = inp["p"], inp["seed"]
        reports = [
            continuity_bound_check(p, 200, seed),
            continuity_bound_check(p, 200, seed, alpha_star=inp["alpha_bad"]),
            countable_subadd_check(p, inp["terms"], 200),
            ball_scaling_check(p, inp["alpha"], 1.0, [0.5, 2.0, 10.0], 100, seed),
            zabreiko_decompose(p, inp["x"], inp["m"], 1.0, DPlus(1.0, 1.0), 1000),
            ubp_verify(inp["family"], 50, seed),
            open_mapping_verify(inp["T36"], 200, seed),
        ]
        return [dumps(r.to_json_dict()) for r in reports]

    def check(self, inp, result) -> list[str]:
        docs, problems = _parse_envelopes(result)
        if problems or len(docs) != len(self.expected):
            return problems or [f"expected {len(self.expected)} envelopes, got {len(docs)}"]
        for k, (doc, want) in enumerate(zip(docs, self.expected)):
            if doc.get("pass") is not want:
                problems.append(f"check {k} ({doc.get('check')}) pass={doc.get('pass')}, expected {want}")
        alpha = inp["alpha"]
        got = docs[0]["alpha_star"]
        if not (_close(got[0], alpha.a1) and _close(got[1], alpha.a2)):
            problems.append(f"continuity alpha_star {got} != oracle {alpha}")
        if docs[2]["n_terms"] != 200:
            problems.append(f"subadd used {docs[2]['n_terms']} terms, expected 200")
        problems += _zabreiko_problems(docs[4], (inp["x"].v1, inp["x"].v2))
        sup = docs[5]["sup_opnorm"]
        if not (_close(sup[0], inp["family_sup"][0]) and _close(sup[1], inp["family_sup"][1])):
            problems.append(f"ubp sup_opnorm {sup} != oracle {inp['family_sup']}")
        s1, s2 = inp["sv36"]
        d = docs[6]["delta"]
        if not (_close(d[0], 1.0 / s1[-1]) and _close(d[1], 1.0 / s2[-1])):
            problems.append(f"open-mapping delta {d} != oracle")
        return problems


def _vec_json(v1: np.ndarray, v2: np.ndarray) -> dict:
    return {
        "dim": int(v1.size),
        "e1": [[float(z.real), float(z.imag)] for z in v1],
        "e2": [[float(z.real), float(z.imag)] for z in v2],
    }


def _mat_json(m1: np.ndarray, m2: np.ndarray) -> dict:
    return {
        "rows": int(m1.shape[0]),
        "cols": int(m1.shape[1]),
        "e1": [[[float(z.real), float(z.imag)] for z in row] for row in m1],
        "e2": [[[float(z.real), float(z.imag)] for z in row] for row in m2],
    }


class CliMix(Workload):
    """One ``python -m hyplab.cli`` process per op, cycling a fixed mix.

    Reads of 64x128 operators (parse-heavy) alternate with long traces
    (emit-heavy), and two inputs must be rejected with exit code 4.
    """

    name = "cli-mix"
    wid = 3
    in_process = False
    #: (kind, expected exit code); reads and writes alternate
    MIX = (
        ("opnorm", 0),
        ("zabreiko", 0),
        ("omc", 0),
        ("series", 0),
        ("solve", 0),
        ("solve-out-of-range", 4),
        ("omc-not-surjective", 4),
    )
    cycle = len(MIX)
    count_ops = len(MIX)
    rerun_index = 1

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([self.seed, self.wid, 2, 0])
        self.files = {k: os.path.join(workdir, k + ".json") for k in ("big", "bad", "y", "z4", "zx", "geo")}
        m1, m2 = _cmat(rng, 64, 128), _cmat(rng, 64, 128)
        self.big_sv = (_svd(m1, compute_uv=False), _svd(m2, compute_uv=False))
        self.big = (m1, m2)
        # rank 63: the last row repeats the first in both components
        b1, b2 = _cmat(rng, 64, 128), _cmat(rng, 64, 128)
        b1[-1], b2[-1] = b1[0], b2[0]
        y1, y2 = _cvec(rng, 64), _cvec(rng, 64)
        self.y = (y1, y2)
        z1, z2 = _cmat(rng, 4, 4), _cmat(rng, 4, 4)
        zs = (_svd(z1, compute_uv=False)[0], _svd(z2, compute_uv=False)[0])
        x1, x2 = _cvec(rng, 4), _cvec(rng, 4)
        scale = 0.9 / max(np.linalg.norm(x1), np.linalg.norm(x2))
        self.zx = (x1 * scale, x2 * scale)
        r = rng.uniform(0.85, 0.9, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        g1, g2 = _cvec(rng, 4), _cvec(rng, 4)
        n = 1000
        self.series_limit = (g1 * (1 - r[0] ** n) / (1 - r[0]), g2 * (1 - r[1] ** n) / (1 - r[1]))
        docs = {
            "big": _mat_json(m1, m2),
            "bad": _mat_json(b1, b2),
            "y": _vec_json(y1, y2),
            "z4": _mat_json(z1, z2),
            "zx": _vec_json(*self.zx),
            "geo": {
                "kind": "geometric",
                "ratio": {"e1": [float(r[0].real), float(r[0].imag)], "e2": [float(r[1].real), float(r[1].imag)]},
                "seed_vector": _vec_json(g1, g2),
            },
        }
        for key, doc in docs.items():
            with open(self.files[key], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        f = self.files
        m = f"{float(2.5 * zs[0])!r},{float(2.5 * zs[1])!r}"
        self.argv = {
            "opnorm": ["opnorm", "--matrix", f["big"]],
            "zabreiko": ["zabreiko", "--matrix", f["z4"], "--x", f["zx"], "--m", m, "--r", "1", "--eps", "1,1"],
            "omc": ["omc", "--matrix", f["big"]],
            "series": ["series", "--terms", f["geo"], "--abs-check", "--maxN", str(n)],
            "solve": ["solve", "--matrix", f["big"], "--y", f["y"]],
            "solve-out-of-range": ["solve", "--matrix", f["bad"], "--y", f["y"]],
            "omc-not-surjective": ["omc", "--matrix", f["bad"]],
        }
        self.env = dict(os.environ)
        self.bench_dir = os.path.dirname(os.path.abspath(__file__))

    def prepare(self, key):
        kind, code = self.MIX[0 if key is None else key % self.cycle]
        return {"kind": kind, "code": code, "argv": self.argv[kind]}

    def run(self, inp, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "hyplab.cli", *inp["argv"]]
            proc = subprocess.run(cmd, capture_output=True, env=self.env, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        spans_path = os.path.join(self.workdir, "child-spans.tsv")
        cmd = [sys.executable, os.path.join(self.bench_dir, "clitrace.py"), spans_path, *inp["argv"]]
        idx = tracer.open_span("subprocess")
        try:
            proc = subprocess.run(cmd, capture_output=True, env=self.env, timeout=120)
        finally:
            tracer.close_span(idx)
        tracer.counts.update(tracer.merge(spans_path, idx))
        return proc.returncode, proc.stdout, proc.stderr

    def envelope(self, result) -> str:
        code, out, _ = result
        return f"{code}\n" + out.decode("utf-8", "replace")

    def check(self, inp, result) -> list[str]:
        code, out, err = result
        kind = inp["kind"]
        problems = []
        if code != inp["code"]:
            problems.append(f"{kind}: exit {code}, expected {inp['code']}: {err.decode(errors='replace')[-300:]}")
        text = out.decode("utf-8", "replace")
        if not text.endswith("\n") or text.count("\n") != 1:
            return problems + [f"{kind}: stdout is not exactly one envelope line"]
        try:
            env = json.loads(text)
        except json.JSONDecodeError as exc:
            return problems + [f"{kind}: envelope does not parse: {exc}"]
        if env.get("tool") != "hyplab" or env.get("subcommand") != inp["argv"][0]:
            problems.append(f"{kind}: envelope header {env.get('tool')}/{env.get('subcommand')}")
        if env.get("pass") is not (inp["code"] == 0):
            problems.append(f"{kind}: pass={env.get('pass')}")
        pay = env.get("payload", {})
        s1, s2 = self.big_sv
        if kind == "opnorm":
            M = pay["M"]
            if not (_close(M["e1"][0], s1[0]) and _close(M["e2"][0], s2[0])):
                problems.append(f"opnorm M {M} != oracle")
        elif kind == "omc":
            d = pay["delta"]
            if not (_close(d["e1"][0], 1 / s1[-1]) and _close(d["e2"][0], 1 / s2[-1])):
                problems.append(f"omc delta {d} != oracle")
        elif kind == "solve":
            for comp, m, y in (("e1", self.big[0], self.y[0]), ("e2", self.big[1], self.y[1])):
                x = np.array(pay["x"][comp]) @ [1, 1j]
                if np.linalg.norm(m @ x - y) > 1e-9 * max(1.0, np.linalg.norm(y)):
                    problems.append(f"solve residual too large in {comp}")
        elif kind == "zabreiko":
            problems += _zabreiko_problems(pay, self.zx)
        elif kind == "series":
            if pay["n_terms"] != 1000 or pay.get("cauchy_chain_ok") is not True:
                problems.append(f"series n_terms={pay['n_terms']} chain={pay.get('cauchy_chain_ok')}")
            for comp, want in (("e1", self.series_limit[0]), ("e2", self.series_limit[1])):
                got = np.array(pay["limit"][comp]) @ [1, 1j]
                if not np.allclose(got, want, rtol=1e-9, atol=1e-12):
                    problems.append(f"series limit differs from the closed form in {comp}")
        elif kind == "solve-out-of-range":
            if pay["error"]["kind"] != "NotInRange":
                problems.append(f"rejection kind {pay['error']['kind']}")
        elif kind == "omc-not-surjective":
            if pay["error"]["kind"] != "NotSurjective":
                problems.append(f"rejection kind {pay['error']['kind']}")
        return problems


WORKLOADS = {w.name: w for w in (OmtLarge, ChecksDesk, CliMix)}
