"""Reference values for the benchmark's output checks.

Two references, both independent of nncalc's numpy kernels:

* ``g``/``ginv``/``iterate``/``arith`` re-implement the unit-cell extended
  sine generator in scalar ``math``.  They are cheap enough to check every
  call inside a run, at a stated absolute tolerance.
* ``Oracle`` evaluates the same maps in ``mpmath`` at 50 digits and turns a
  double result into its error in ulps.  It feeds ``max_err_ulps`` and runs
  outside the timed region only.
"""

from __future__ import annotations

import math
import operator

HALF_PI = 0.5 * math.pi
TWO_OVER_PI = 2.0 / math.pi
OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def g(p: float) -> float:
    """sin^2(pi p / 2) on the unit cell, mirrored above 1/2, translated by floor."""
    n = math.floor(p)
    f = p - n
    if f < 0.5:
        v = math.sin(HALF_PI * f) ** 2
    elif f > 0.5:
        v = 1.0 - math.sin(HALF_PI * (1.0 - f)) ** 2
    else:
        v = 0.5
    return n + v


def ginv(y: float) -> float:
    """(2/pi) arcsin(sqrt(y)) on the unit cell, mirrored above 1/2, translated by floor."""
    n = math.floor(y)
    f = y - n
    if f < 0.5:
        v = TWO_OVER_PI * math.asin(math.sqrt(f))
    elif f > 0.5:
        v = 1.0 - TWO_OVER_PI * math.asin(math.sqrt(1.0 - f))
    else:
        v = 0.5
    return n + v


def iterate(x: float, k: int) -> float:
    step = g if k > 0 else ginv
    for _ in range(abs(k)):
        x = step(x)
    return x


def arith(level: int, op: str, x: float, y: float) -> float:
    return iterate(OPS[op](iterate(x, -level), iterate(y, -level)), level)


def alpha_of_theta(theta: float) -> float:
    return 2.0 * math.asin(math.sqrt(TWO_OVER_PI * math.asin(math.sqrt(theta / math.pi))))


def close(value, ref, tol: float) -> bool:
    """|value - ref| <= tol * max(1, |ref|), false for non-finite values."""
    value = float(value)
    return math.isfinite(value) and abs(value - ref) <= tol * max(1.0, abs(ref))


def off_plateau(v: float, margin: float = 1e-7) -> bool:
    """True when v lies farther than ``margin`` from every integer plateau."""
    return abs(v - round(v)) > margin


class Oracle:
    """mpmath at 50 digits; collects the worst ulp error of the samples fed to it.

    A sample also fails when it misses its reference by more than ``tol``
    in the sense of :func:`close`, the tolerance the per-call checks use.
    """

    def __init__(self, tol: float = 1e-12):
        import mpmath

        self.mp = mpmath.mp
        self.mp.dps = 50
        self.worst = 0.0
        self.worst_case = None
        self.samples = 0
        self.tol = tol
        self.failures: list[str] = []

    def _g(self, p):
        mp = self.mp
        n = mp.floor(p)
        return n + mp.sin(mp.pi * (p - n) / 2) ** 2

    def _ginv(self, y):
        mp = self.mp
        n = mp.floor(y)
        return n + 2 / mp.pi * mp.asin(mp.sqrt(y - n))

    def iterate(self, x, k: int):
        x = self.mp.mpf(x)
        step = self._g if k > 0 else self._ginv
        for _ in range(abs(k)):
            x = step(x)
        return x

    def arith_parts(self, level: int, op: str, x: float, y: float):
        """(base operands, exact result) of the level-``level`` operation."""
        px, py = self.iterate(x, -level), self.iterate(y, -level)
        return px, py, self.iterate(OPS[op](px, py), level)

    def record(self, label: str, out: float, ref) -> None:
        """Account one double result against its 50-digit reference."""
        out = float(out)
        err = abs(self.mp.mpf(out) - ref) / math.ulp(float(ref))
        self.samples += 1
        if not close(out, float(ref), self.tol):
            self.failures.append(f"{label}: {out!r} vs oracle {float(ref)!r}")
        if err > self.worst:
            self.worst = float(err)
            self.worst_case = (label, out)
