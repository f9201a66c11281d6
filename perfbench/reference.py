"""A fixed reference job that measures how fast the host runs right now.

On a shared 2-CPU VM the host's speed changed by up to half while a run
went on: the same op took 0.30 s for a stretch of seconds, then 0.50 s for
a while, and a pure Python loop, a LAPACK call and a process spawn all
slowed by the same factor (their ratios stayed within about 8% while each
drifted by 50%).  So every timed interval is paired with this job, timed
next to it, and reported in *reference seconds*: its wall time times
``REF_S`` over the reference job's time.  On a host that runs the job in
``REF_S`` the two are equal.  The job uses no hyplab code, so no change to
hyplab can move it.
"""

from __future__ import annotations

import time

import numpy as np

#: nominal time of one reference job; the VM's fast state runs it in about this
REF_S = 0.006

_lstsq = np.linalg.lstsq
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 128)) + 1j * _rng.standard_normal((64, 128))
_b = _rng.standard_normal(64) + 1j * _rng.standard_normal(64)


def _job() -> None:
    acc = 0
    for i in range(40_000):
        acc += i * i
    for _ in range(3):
        _lstsq(_A, _b, rcond=None)


def ref_time() -> float:
    """Seconds for one reference job: the faster of two, to drop a one-off stall."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _job()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` of wall time in reference seconds."""
    return seconds * REF_S / (0.5 * (ref_before + ref_after))
