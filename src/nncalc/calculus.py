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

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable

from .arithmetic import _inf_on_overflow, _pull_finite, _push_finite
from .errors import DomainError, QuadratureError
from .generator import _FLOAT_MAX, ExtendedGenerator, _check_in

_EPS_CBRT = float(2.0 ** -52) ** (1.0 / 3.0)
_MAX_DEPTH = 48
_MAX_EVALS = 100_000
_TOL = 1e-10  # the absolute tolerance of every base integral, split evenly over its pieces
_HALF_MAX = 0.5 * _FLOAT_MAX  # the largest bound for which a midpoint 0.5 (a + b) is finite
# QUADPACK's qk15 rounded to double: each positive Kronrod node, outermost first, with its
# Kronrod weight and its 7-point Gauss weight (0.0 on a node the Gauss rule lacks)
_GK15 = ((0.9914553711208126, 0.022935322010529224, 0.0),
         (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
         (0.8648644233597691, 0.10479001032225019, 0.0),
         (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
         (0.5860872354676911, 0.1690047266392679, 0.0),
         (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
         (0.20778495500789848, 0.20443294007529889, 0.0))
_K15_CENTRE, _G7_CENTRE = 0.20948214108472782, 0.4179591836734694


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

    def _pointwise(self, other: "LevelFunction", op: Callable) -> "LevelFunction":
        """The level function with base op(f(r), g(r)), split at the breakpoints of both."""
        if (other.egen is not self.egen or other.source_level != self.source_level
                or other.target_level != self.target_level):
            raise DomainError("level functions must share generator and levels to combine")
        f, g = self.base, other.base
        return self._like(lambda r: op(f(r), g(r)),
                          tuple(sorted(set(self.breakpoints) | set(other.breakpoints))))

    def plus(self, other: "LevelFunction") -> "LevelFunction":
        """Pointwise level-l sum; the base of the sum is the sum of bases."""
        return self._pointwise(other, operator.add)

    def times(self, other: "LevelFunction") -> "LevelFunction":
        """Pointwise level-l product; the base of the product is the product of bases."""
        return self._pointwise(other, operator.mul)

    def scaled_by(self, c: float) -> "LevelFunction":
        """Level-l multiplication by the constant c (pulled back once)."""
        cb = _pull_finite(self.egen, self.target_level, "scaled_by", c)
        f = self.base
        return self._like(lambda r: cb * f(r))


def nn_derivative(fn: LevelFunction, x: float) -> float:
    """Derivative of a level function at x.

    Central differences on the base at r = g^{-k}(x) with one Richardson
    refinement and step h = max(1, |r|) * eps^(1/3); an r so near the top of
    the float range that r +- h overflows is a DomainError.  The result is
    pushed to the target level.
    """
    r = _pull_finite(fn.egen, fn.source_level, "nn_derivative", x)
    h = max(1.0, abs(r)) * _EPS_CBRT
    if abs(r) + h > _FLOAT_MAX:  # the farther of r - h and r + h, inf on overflow
        raise DomainError(f"nn_derivative: the step from r = {r!r} leaves the float range")
    f = fn.base

    def central(hh: float) -> float:
        return (f(r + hh) - f(r - hh)) / (2.0 * hh)

    d1 = central(h)
    d2 = central(0.5 * h)
    return _push_finite(fn.egen, fn.target_level, "nn_derivative", (4.0 * d2 - d1) / 3.0)


def _adaptive_gauss_kronrod(f: Callable, a: float, b: float, tol: float):
    """Adaptive Gauss-Kronrod 7/15 on [a, b]; returns (value, err, converged).

    A panel is its Kronrod sum with error |K15 - G7| and has no node on its edge.  Depth
    ``_MAX_DEPTH`` or ``_MAX_EVALS`` spent evaluations mark a piece above tol unconverged.
    """
    budget = [_MAX_EVALS]

    def panel(a, b):
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        fc = f(c)
        k, g = _K15_CENTRE * fc, _G7_CENTRE * fc
        for x, wk, wg in _GK15:  # a plain loop: a list and two sums made a panel twice as slow
            pair = f(c - h * x) + f(c + h * x)
            k += wk * pair
            g += wg * pair
        budget[0] -= 15
        return k * h, abs(k - g) * h

    def recurse(a, b, value, err, tol, depth):
        done = err <= tol
        if done or depth >= _MAX_DEPTH or budget[0] <= 0:
            return value, err, done
        m = 0.5 * (a + b)
        left, right = panel(a, m), panel(m, b)
        lv, le, lc = recurse(a, m, *left, 0.5 * tol, depth + 1)
        rv, re, rc = recurse(m, b, *right, 0.5 * tol, depth + 1)
        return lv + rv, le + re, lc and rc

    if a == b:
        return 0.0, 0.0, True
    return recurse(a, b, *panel(a, b), tol, 0)


def integrate_base(f: Callable, a: float, b: float, *, breakpoints=()) -> float | complex:
    """Ordinary adaptive Gauss-Kronrod (7/15) integral of a real or complex base function,
    split at breakpoints; for a complex one the error estimates are moduli."""
    a, b = (float(_check_in(x, -_HALF_MAX, _HALF_MAX, "integration bounds must lie within "
                            "half the float range")) for x in (a, b))
    if b < a:
        return -integrate_base(f, b, a, breakpoints=breakpoints)
    cuts = [a] + sorted(p for p in breakpoints if a < p < b) + [b]
    n_pieces = len(cuts) - 1
    total = 0.0
    err = 0.0
    ok = True
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        v, e, conv = _adaptive_gauss_kronrod(f, lo, hi, _TOL / n_pieces)
        total += v
        err += e
        ok = ok and conv
    if not cmath.isfinite(total):
        raise QuadratureError("quadrature produced a non-finite value", estimate=total)
    if not ok and err > _TOL:
        raise QuadratureError(
            f"quadrature did not converge (error estimate {err:.3e} > tol {_TOL:.3e})",
            estimate=total)
    return total


def nn_integral(fn: LevelFunction, a: float, b: float) -> float:
    """Integral of a level function over [a, b] in the level-k ordering.

    The base integral is computed to the fixed absolute tolerance 1e-10.
    Raises QuadratureError (carrying the achieved estimate) when the
    subdivision cap is reached before convergence.
    """
    if a > b:
        raise DomainError("integration requires a <= b (the ordering is level independent)")
    ra = _pull_finite(fn.egen, fn.source_level, "nn_integral", a)
    rb = _pull_finite(fn.egen, fn.source_level, "nn_integral", b)
    base_value = integrate_base(fn.base, ra, rb, breakpoints=fn.breakpoints)
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
