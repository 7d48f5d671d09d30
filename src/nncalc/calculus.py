"""Differentiation and integration of maps between two arithmetic levels.

A level function A: R_k -> R_l is stored through its base representation
A = g^l o A00 o g^{-k}; derivative and integral are then computed on the
base and pushed to the target level:

    derivative(x) = g^l( A00'(g^{-k}(x)) )
    integral(a,b) = g^l( int_{g^{-k}(a)}^{g^{-k}(b)} A00(r) dr )

This form makes both fundamental theorems of calculus hold by construction
and avoids inverting the generator inside inner loops.  Base callables must
be effect-free; quadrature subdivision is sequential per call but separate
calls are independently parallelizable.  Pulls and pushes are the checked
ones of the level arithmetic: a non-finite argument, or a base-level result
that is not finite, raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .arithmetic import _inf_on_overflow, _pull_finite, _push_finite
from .errors import DomainError, QuadratureError
from .generator import ExtendedGenerator

_EPS_CBRT = float(2.0 ** -52) ** (1.0 / 3.0)
_MAX_DEPTH = 48
_MAX_EVALS = 100_000


@dataclass(frozen=True)
class LevelFunction:
    """A map between levels, represented by its base function.

    ``breakpoints`` are points of the *base* domain at which the integrand
    is allowed to be non-smooth (e.g. edges of characteristic functions);
    quadrature always splits there.
    """

    base: Callable[[float], float]
    egen: ExtendedGenerator
    source_level: int
    target_level: int
    breakpoints: tuple = ()

    def value(self, x: float) -> float:
        r = _pull_finite(self.egen, self.source_level, "LevelFunction.value", x)
        return _push_finite(self.egen, self.target_level, "LevelFunction.value", self.base(r))

    def _like(self, base, breakpoints=None):
        return LevelFunction(base, self.egen, self.source_level, self.target_level,
                             self.breakpoints if breakpoints is None else tuple(breakpoints))

    def _check_compatible(self, other: "LevelFunction"):
        if (other.egen is not self.egen or other.source_level != self.source_level
                or other.target_level != self.target_level):
            raise DomainError("level functions must share generator and levels to combine")

    def plus(self, other: "LevelFunction") -> "LevelFunction":
        """Pointwise level-l sum; the base of the sum is the sum of bases."""
        self._check_compatible(other)
        f, g = self.base, other.base
        return self._like(lambda r: f(r) + g(r),
                          tuple(sorted(set(self.breakpoints) | set(other.breakpoints))))

    def times(self, other: "LevelFunction") -> "LevelFunction":
        """Pointwise level-l product; the base of the product is the product of bases."""
        self._check_compatible(other)
        f, g = self.base, other.base
        return self._like(lambda r: f(r) * g(r),
                          tuple(sorted(set(self.breakpoints) | set(other.breakpoints))))

    def scaled_by(self, c: float) -> "LevelFunction":
        """Level-l multiplication by the constant c (pulled back once)."""
        cb = _pull_finite(self.egen, self.target_level, "scaled_by", c)
        f = self.base
        return self._like(lambda r: cb * f(r))


def nn_derivative(fn: LevelFunction, x: float, step: float | None = None) -> float:
    """Derivative of a level function at x.

    Central differences on the base at r = g^{-k}(x) with one Richardson
    refinement, step h = max(1, |r|) * eps^(1/3) unless given.  The result
    is pushed to the target level.
    """
    r = _pull_finite(fn.egen, fn.source_level, "nn_derivative", x)
    h = step if step is not None else max(1.0, abs(r)) * _EPS_CBRT
    f = fn.base

    def central(hh: float) -> float:
        return (f(r + hh) - f(r - hh)) / (2.0 * hh)

    d1 = central(h)
    d2 = central(0.5 * h)
    return _push_finite(fn.egen, fn.target_level, "nn_derivative", (4.0 * d2 - d1) / 3.0)


def _adaptive_simpson(f: Callable, a: float, b: float, tol: float,
                      max_evals: int = _MAX_EVALS):
    """Adaptive Simpson on [a, b]; returns (value, err, converged).

    Subdivision stops at depth ``_MAX_DEPTH`` or once ``max_evals`` base
    evaluations have been spent; either cap marks the result unconverged
    when the local error is still above tolerance.
    """
    budget = [max_evals]

    def recurse(a, m, b, fa, fm, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        budget[0] -= 2
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        done = abs(delta) <= 15.0 * tol
        if done or depth >= _MAX_DEPTH or budget[0] <= 0:
            return left + right + delta / 15.0, abs(delta) / 15.0, done
        lv, le, lc = recurse(a, lm, m, fa, flm, fm, left, 0.5 * tol, depth + 1)
        rv, re, rc = recurse(m, rm, b, fm, frm, fb, right, 0.5 * tol, depth + 1)
        return lv + rv, le + re, lc and rc

    if a == b:
        return 0.0, 0.0, True
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    budget[0] -= 3
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, m, b, fa, fm, fb, whole, tol, 0)


def integrate_base(f: Callable, a: float, b: float, tol: float = 1e-10,
                   breakpoints=()) -> float:
    """Ordinary adaptive-Simpson integral of a base function, split at breakpoints."""
    if b < a:
        return -integrate_base(f, b, a, tol, breakpoints)
    cuts = [a] + sorted(p for p in breakpoints if a < p < b) + [b]
    n_pieces = len(cuts) - 1
    total = 0.0
    err = 0.0
    ok = True
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        v, e, conv = _adaptive_simpson(f, lo, hi, tol / max(n_pieces, 1))
        total += v
        err += e
        ok = ok and conv
    if not math.isfinite(total):
        raise QuadratureError("quadrature produced a non-finite value", estimate=total)
    if not ok and err > tol:
        raise QuadratureError(
            f"quadrature did not converge (error estimate {err:.3e} > tol {tol:.3e})",
            estimate=total)
    return total


def nn_integral(fn: LevelFunction, a: float, b: float, tol: float = 1e-10) -> float:
    """Integral of a level function over [a, b] in the level-k ordering.

    ``tol`` is the absolute quadrature tolerance on the base integral.
    Raises QuadratureError (carrying the achieved estimate) when the
    subdivision cap is reached before convergence.
    """
    if a > b:
        raise DomainError("integration requires a <= b (the ordering is level independent)")
    ra = _pull_finite(fn.egen, fn.source_level, "nn_integral", a)
    rb = _pull_finite(fn.egen, fn.source_level, "nn_integral", b)
    base_value = integrate_base(fn.base, ra, rb, tol=tol, breakpoints=fn.breakpoints)
    return _push_finite(fn.egen, fn.target_level, "nn_integral", base_value)


def nn_exp(egen: ExtendedGenerator, l: int, k: int, x: float) -> float:
    """Exponential from level k to level l: g^l(exp(g^{-k}(x))).

    Solves the defining differential equation of the level exponential and
    turns level-k addition into level-l multiplication.
    """
    pulled = _pull_finite(egen, k, "nn_exp", x)
    return _push_finite(egen, l, "nn_exp", _inf_on_overflow(math.exp, pulled))


def nn_ln(egen: ExtendedGenerator, k: int, l: int, x: float) -> float:
    """Logarithm from level l to level k: g^k(ln(g^{-l}(x))), inverse of nn_exp."""
    pulled = _pull_finite(egen, l, "nn_ln", x)
    if pulled <= 0.0:
        raise DomainError(f"logarithm needs a positive pullback, got {pulled!r}")
    return _push_finite(egen, k, "nn_ln", math.log(pulled))
