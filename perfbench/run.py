"""hyplab benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload omt-large|checks-desk|cli-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/hyplab``.  The workload
runs in a child process (perfbench/worker.py) with one BLAS thread and
``src`` on PYTHONPATH.  With ``--trace 0`` the last line of stdout holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("omt-large", "checks-desk", "cli-mix")

#: set-up is measured this many times per run (the measuring worker's own
#: set-up is one of them) and reported as the median
SETUP_REPEATS = 5

#: every run must end within this many seconds
DEADLINE_S = 170.0

#: the child environment pins the BLAS pools to one thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _start_worker(args, env, out_dir: str, deadline: float, setup_only: bool):
    """Start a worker; returns (process, set-up seconds, scale, watchdog).

    ``scale`` turns seconds into reference seconds (see reference.py); the
    worker measures it by timing the reference job right after its set-up.
    """
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    scale = proc.stdout.readline().split()
    if line.strip() != "READY" or len(scale) != 2 or scale[0] != "SCALE":
        watchdog.cancel()
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (got {line.strip()[:200]!r}, exit {proc.returncode})")
    return proc, setup, float(scale[1]), watchdog


def _finish(proc, watchdog) -> list[str]:
    try:
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hyplab", "cli.py")):
        print(f"perfbench: no hyplab sources under {os.path.join(root, 'src')}; run from a checkout root",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = _child_env(root)

    try:
        setups, scales = [], []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                proc, setup, scale, watchdog = _start_worker(args, env, out_dir, deadline, setup_only=True)
                _finish(proc, watchdog)
                setups.append(setup)
                scales.append(scale)
        proc, setup, scale, watchdog = _start_worker(args, env, out_dir, deadline, setup_only=False)
        setups.append(setup)
        scales.append(scale)
        lines = _finish(proc, watchdog)
        worker = json.loads(lines[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = dict(worker["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s * k for s, k in zip(setups, scales)), "unit": "s"}
    record = dict(worker["record"])
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        git_commit=_git_commit(root), nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        ops=worker["ops"], setup_samples_s=setups, setup_scales=scales,
    )
    for key in ("exact_counts", "spans", "spans_file"):
        if key in worker:
            record[key] = worker[key]
    correct = worker["failed"] == 0
    result = {
        "correct": correct,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "record": record, "problems": worker["problems"],
                   "latency_s": worker.get("latency_s"), "ref_s": worker.get("ref_s")}, fh, indent=1)

    for p in worker["problems"]:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"run record: {json.dumps(record, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {worker['attempted']} ops attempted, "
          f"{worker['failed']} failed (failed_ratio {worker['failed'] / worker['attempted']:.4f})")
    if not args.trace:
        print(f"  wall clock, not calibrated: latency p50 {statistics.median(worker['latency_s']):.4f} s, "
              f"set-up {statistics.median(setups):.4f} s; times below are in reference seconds")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
