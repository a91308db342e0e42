"""A fixed reference kernel that tells how fast the host runs right now.

On a shared virtual machine the same code runs up to 1.6x slower or faster
for stretches of seconds to minutes.  The benchmark divides that drift out:
the kernel is timed between every two timed calls, and a call that took
``t`` seconds while the kernel took ``r`` seconds on average around it is
reported as ``t * REF_SECONDS / r``, the time it would take on a host where
the kernel takes ``REF_SECONDS``.  A change to gframe moves the reported
time; a change of host speed moves the call and the kernel alike and
cancels.

The kernel mixes the kinds of work a gframe command does: interpreted loops
with object churn, small numpy and LAPACK calls, a mid-size complex matrix
product, and JSON encoding and decoding.  It never calls gframe, and its
inputs are fixed, so it does the same work in every run.
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np

# Kernel time on an Intel Xeon vCPU at its fast state, the scale of the
# reported seconds.  Only ratios between runs on one host mean anything.
REF_SECONDS = 0.0014

_rng = np.random.default_rng(20220513)
_SMALL = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_BLOCK = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_MID = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_DOC = {"entries": _rng.standard_normal((200, 2)).tolist()}


def kernel() -> float:
    """Run the kernel once; return a checksum so no step can be skipped."""
    rows = [{"i": i, "v": (i * 7) % 13} for i in range(300)]
    total = float(sum(row["v"] for row in rows))
    for _ in range(6):
        total += float(np.linalg.svd(_SMALL, compute_uv=False)[0])
    acc = _BLOCK
    for _ in range(60):
        acc = acc @ _BLOCK
        acc = acc / np.abs(acc).max()
    total += float(abs(acc[0, 0]))
    total += float(abs((_MID @ _MID)[0, 0]))
    total += len(json.loads(json.dumps(_DOC))["entries"])
    return total


def measure() -> float:
    """Wall time of one kernel run, in seconds.

    The garbage collector is off meanwhile: a collection would scan the
    objects gframe left alive, so the kernel's time would depend on them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, kernel_seconds: float) -> float:
    """Reference-speed seconds of a call that took ``seconds`` of wall time."""
    return seconds * REF_SECONDS / kernel_seconds
