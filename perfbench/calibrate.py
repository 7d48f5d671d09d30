"""Calibration kernels: fixed work, independent of nncalc, timed between passes.

The CPU speed of a shared host moves in phases of seconds to minutes, by up
to a factor of two, and the phase a run lands in moves a wall-time median
further than any change worth detecting.  So the gated pass metrics divide
each pass by the calibration time measured around it (the median of the
kernel's times just before and after the pass and its neighbours) and
multiply by the kernel's reference time, ``REFERENCE_S``.  The result is
the pass time in reference seconds: the wall time the pass would take on
this host when the kernel takes exactly its reference time.  The raw wall
times stay in the report file.

Each kernel imitates the work of the workloads that use it: ``scalar`` the
numpy-scalar and interpreter overhead of single-value calls and the CLI,
``vector`` the temporaries-heavy elementwise numpy of 10^6-element kernels
mixed with some of the former.  Set-up time is calibrated the same way by a
fresh interpreter that imports what nncalc imports (``SETUP_IMPORTS``) but
not nncalc itself.  None of them touches nncalc, so a change to nncalc
cannot move them.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

import numpy as np

_SMALL = np.random.default_rng(0).random(16)


@functools.cache
def _big() -> np.ndarray:
    return np.random.default_rng(1).random(1_000_000)


def _scalar() -> None:
    acc = 0.0
    for i in range(400):
        x = np.asarray(_SMALL[i % 16], dtype=float)
        y = np.sin(0.5 * np.pi * np.minimum(x, 0.5)) ** 2
        acc += float(np.where(x < 0.5, y, 1.0 - y))
        acc += math.sin(acc) * math.sqrt(i + 1.0)


def _vector() -> None:
    big = _big()
    n = np.floor(big)
    y = np.sin(0.5 * np.pi * np.minimum(big - n, 0.5)) ** 2
    np.where(big < 0.5, y, 1.0 - y) + n


def _mixed() -> None:
    # vector_sweeps spends about 85% of its time in elementwise 10^6-element
    # kernels and the rest in Python loops over small arrays (ch_scan, pmf)
    _vector()
    _scalar()
    _scalar()


KERNELS = {"scalar": _scalar, "vector": _mixed}
SETUP_IMPORTS = "import argparse, dataclasses, json, numpy"
#: calibration wall time, in seconds, that defines one reference second
REFERENCE_S = {"scalar": 3.0e-3, "vector": 46.0e-3, "setup": 0.2}
#: calibrations on each side of a pass that its scale is the median of
WINDOW = 3


def measure(kind: str) -> float:
    """Wall time of one run of the kernel, in seconds."""
    t0 = time.perf_counter_ns()
    KERNELS[kind]()
    return (time.perf_counter_ns() - t0) / 1e9


def reference_seconds(pass_s: list[float], cal_s: list[float], kind: str) -> list[float]:
    """Each pass's wall time scaled by the calibrations measured around it.

    ``cal_s`` holds one more entry than ``pass_s``: the calibration before
    the first pass, then one after each pass.  Pass ``i`` is scaled by the
    median of the ``WINDOW`` calibrations on each side of it, which follows
    the host's phases while one stalled calibration does not move it.
    """
    ref = REFERENCE_S[kind]
    out = []
    for i, t in enumerate(pass_s):
        around = cal_s[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
        out.append(t * ref / statistics.median(around))
    return out
