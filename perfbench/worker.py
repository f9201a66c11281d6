"""Benchmark worker: one workload in a closed loop with one client.

Started by run.py with one BLAS thread and ``src`` on PYTHONPATH:

    python perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--setup-only]

It imports hyplab, builds the workload's inputs from the seed, runs one
warm-up op and prints ``READY``; run.py times set-up up to that line.
It then times the reference job (reference.py) and prints ``SCALE <k>``,
the factor that turns the set-up time into reference seconds.
Then it runs ops until ``--seconds`` have passed and a cycle of the mix
is complete, checks every op, reruns one op and prints one JSON line.

With ``--trace 0`` every op is timed untraced, and the reference job is
timed again after each op; each op's latency is reported in reference
seconds, from the reference times on either side of it.  With
``--trace 1`` each op runs twice on freshly built copies of the same
inputs, first untraced and then traced; the ratio of the two totals is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter

from reference import REF_S, calibrate, ref_time
from spans import Tracer, call_counts, layer_times

#: per-layer metrics: (name, unit, kind, keys).  Counts ("calls" of a span
#: name, or a tracer "counter") are averaged over the first ``count_ops``
#: traced ops, so they repeat exactly; times over every traced op.
PER_LAYER = (
    ("dop.lstsq_calls_per_op", "count", "calls", ("numpy.linalg.lstsq",)),
    ("dop.svd_calls_per_op", "count", "calls", ("numpy.linalg.svd",)),
    ("dop.linalg_s_per_op", "s", "time", ("busy:linalg",)),
    ("dop.busy_s_per_op", "s", "time", ("busy:dop+linalg",)),
    ("dop.factored_bytes_per_op", "B", "counter", ("dop.factored_bytes",)),
    ("hyperscalar.values_per_op", "count", "counter", ("hyperscalar.values",)),
    ("dmodule.vectors_per_op", "count", "calls", ("dmodule.BCVector.__init__",)),
    ("dmodule.norm_calls_per_op", "count", "calls", ("dmodule.vec_dnorm", "dmodule.seminorm_eval")),
    ("dmodule.busy_s_per_op", "s", "time", ("busy:dmodule",)),
    ("theoremlab.self_s_per_op", "s", "time", ("self:theoremlab",)),
    ("theoremlab.samples_per_op", "count", "counter", ("theoremlab.samples",)),
    ("jsonio.dumps_s_per_op", "s", "time", ("busy:emit",)),
    ("jsonio.bytes_out_per_op", "B", "counter", ("jsonio.bytes_out",)),
    ("jsonio.parse_s_per_op", "s", "time", ("busy:parse",)),
    ("jsonio.digest_s_per_op", "s", "time", ("busy:digest",)),
    ("jsonio.bytes_in_per_op", "B", "counter", ("jsonio.bytes_in",)),
    ("cli.run_s_per_op", "s", "time", ("busy:cli",)),
)


def _src_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "hyplab")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _record(root: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "src_sha256": _src_digest(root),
    }


class Loop:
    """Runs, times and checks the ops of one workload."""

    def __init__(self, wl, trace: bool, ref0: float):
        self.wl = wl
        self.tracer = Tracer(extra_namespaces=[sys.modules[type(wl).__module__]]) if trace else None
        self.latency: list[float] = []
        #: reference job times; untraced op i lies between refs[i] and refs[i + 1]
        self.refs = [ref0]
        self.failed = 0
        self.problems: list[str] = []
        self.traced: list[dict] = []
        self.untraced_s = 0.0
        self.traced_s = 0.0

    def fail(self, op, msgs) -> None:
        self.failed += 1
        self.problems.extend(f"op {op}: {m}" for m in msgs[: max(0, 20 - len(self.problems))])

    def once(self, i: int, traced: bool):
        """Prepare, run (timed) and check op ``i``.

        Returns (seconds, result, problems, counts); counts is None untraced.
        """
        wl, tracer = self.wl, self.tracer
        inp = wl.prepare(i)
        if traced:
            tracer.op_id = i
            first = len(tracer.name_id)
            before = Counter(tracer.counts)
            if wl.in_process:
                tracer.install()
        t0 = time.perf_counter()
        try:
            result, err = wl.run(inp, tracer if traced else None), None
        except Exception:  # a crashing op is a failed op, not a crashed run
            result, err = None, traceback.format_exc(limit=4)
        dt = time.perf_counter() - t0
        counts = None
        if traced:
            if wl.in_process:
                tracer.uninstall()
            stop = len(tracer.name_id)
            counts = Counter(tracer.counts)
            counts.subtract(before)
            counts = +counts + call_counts(tracer, first, stop)
            self.traced.append({"first": first, "stop": stop, "counts": counts})
        try:
            problems = [err] if err else wl.check(inp, result)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems = [f"envelope lacks an expected field: {exc!r}"]
        return dt, result, problems, counts

    def run(self, seconds: float) -> int:
        """Run until ``seconds`` have passed at a cycle boundary; returns ops run."""
        wl = self.wl
        ref_envelope = ref_counts = None
        t_end = time.perf_counter() + seconds
        i = 0
        while True:
            dt, result, problems, _ = self.once(i, traced=False)
            self.latency.append(dt)
            if self.tracer is None:
                self.refs.append(ref_time())
            if problems:
                self.fail(i, problems)
            envelope = wl.envelope(result) if result is not None else None
            if i == wl.rerun_index:
                ref_envelope = envelope
            if self.tracer is not None:
                tdt, tresult, tproblems, counts = self.once(i, traced=True)
                self.latency.append(tdt)
                self.untraced_s += dt
                self.traced_s += tdt
                if tresult is not None and wl.envelope(tresult) != envelope:
                    tproblems = tproblems + ["traced envelope differs from the untraced one"]
                if tproblems:
                    self.fail(i, tproblems)
                if i == wl.rerun_index:
                    ref_counts = counts
            i += 1
            if i % wl.cycle == 0 and i >= wl.count_ops and time.perf_counter() >= t_end:
                break

        # rerun one op: byte-identical envelope, and identical counts if traced
        _, result, problems, counts = self.once(wl.rerun_index, traced=self.tracer is not None)
        if result is not None and wl.envelope(result) != ref_envelope:
            problems = problems + ["rerun envelope is not byte-identical"]
        if counts != ref_counts:
            problems = problems + [f"rerun counts differ: {dict(counts)} vs {dict(ref_counts)}"]
        if problems:
            self.fail(f"{wl.rerun_index} (rerun)", problems)
        if self.tracer is not None:
            self.traced.pop()  # the rerun is not part of the per-op figures
        return i

    def end_to_end(self) -> dict:
        """End-to-end metrics; times are in reference seconds."""
        refs = self.refs
        lat = [calibrate(dt, refs[i], refs[i + 1]) for i, dt in enumerate(self.latency)]
        ok = len(lat) - self.failed
        who = resource.RUSAGE_SELF if self.wl.in_process else resource.RUSAGE_CHILDREN
        return {
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[-1], "s"),
            "ops_per_s": (max(ok, 0) / sum(lat), "1/s"),
            "correct_ratio": (max(ok, 0) / len(lat), "ratio"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self) -> tuple[dict, Counter]:
        """Per-layer metrics, and the summed counts of the first ops."""
        counted = self.traced[: self.wl.count_ops]
        counts: Counter = Counter()
        for t in counted:
            counts.update(t["counts"])
        times: Counter = Counter()
        for t in self.traced:
            times.update(layer_times(self.tracer, t["first"], t["stop"]))
        n = len(self.traced)
        out = {}
        for name, unit, kind, keys in PER_LAYER:
            if kind == "time":
                out[name] = (sum(times[k] for k in keys) / n, unit)
            else:
                out[name] = (sum(counts[k] for k in keys) / len(counted), unit)
        # interpreter start, imports and exit of the CLI child, around cli.run
        out["cli.startup_s_per_op"] = ((times["busy:subprocess"] - times["busy:cli"]) / n, "s")
        power = sum(t["counts"]["dop.power_iteration"] for t in self.traced)
        out["dop.power_iteration_calls"] = (power, "count")
        out["trace.overhead_ratio"] = (self.traced_s / self.untraced_s, "ratio")
        return out, counts


def _check_counts_repeat(path: str, record: dict) -> list[str]:
    """Counts of the same code and seed must equal those of an earlier run."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        if before != record:
            return [f"counts differ from the earlier run recorded in {os.path.basename(path)}"]
        return []
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)
    return []


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True, help="directory for spans, counts and scratch inputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = os.getcwd()

    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        warm = wl.prepare(None)
        problems = wl.check(warm, wl.run(warm))
        if problems:
            print("warm-up op failed: " + "; ".join(problems), file=sys.stderr)
            return 1
        print("READY", flush=True)
        ref0 = ref_time()
        print(f"SCALE {REF_S / ref0!r}", flush=True)
        if args.setup_only:
            return 0

        loop = Loop(wl, trace=bool(args.trace), ref0=ref0)
        ops = loop.run(args.seconds)
        record = _record(root)
        out = {"ops": ops, "record": record}
        if args.trace:
            metrics, counts = loop.per_layer()
            exact = {"src_sha256": record["src_sha256"], "ops": wl.count_ops, "counts": dict(sorted(counts.items()))}
            stem = os.path.join(args.out, f"{wl.name}-seed{args.seed}")
            problems = _check_counts_repeat(f"{stem}-{record['src_sha256'][:16]}.counts.json", exact)
            if problems:
                loop.fail("counts", problems)
            loop.tracer.write(stem + ".spans.tsv")
            out.update(exact_counts=exact["counts"], spans=len(loop.tracer.name_id),
                       spans_file=os.path.relpath(stem + ".spans.tsv", root))
        else:
            metrics = loop.end_to_end()
            out["latency_s"] = loop.latency
            out["ref_s"] = loop.refs
        out.update(
            attempted=len(loop.latency) + 1,  # the rerun op is attempted too
            failed=loop.failed,
            problems=loop.problems,
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        )
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
