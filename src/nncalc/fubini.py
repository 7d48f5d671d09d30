"""Geodesic angle between rays, its linear reparametrization, and the lifted form.

The overlap of two state vectors defines the geodesic angle
theta = arccos(|<a|b>| / (|a||b|)) in [0, pi/2], computed from the chord
between the phase-aligned unit vectors when theta is small.  Its linear
rescaling
p = 1 - theta/(pi/2) is a probability whose sine-generator image recovers
the quantum value: g(p) = cos^2(theta).  Iterating g in both directions
produces the full ladder of probabilities attached to one overlap.

A projector expectation <a|P|a> is a real quadratic form in the real and
imaginary parts of the components; mapping every coefficient through the
extended generator and replacing +/* by the level-1 operations reproduces
g(<a|P|a>).  The lifted evaluation follows the single-push rule for
composites: each lifted coefficient is pulled back once, the terms are
formed and summed with one correctly rounded sum in ordinary arithmetic,
and that sum is pushed forward once.  Associativity of the level-1
operations makes this equal, up to rounding, to folding them term by term.
Ordinary complex arithmetic is used for the states themselves; the
pair-arithmetic complex numbers live in their own module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import ArithmeticContext, _check_base, _sum_push
from .errors import DomainError
from .generator import ExtendedGenerator, _check_in, _in_float_range, _level, sine_extended

HALF_PI = 0.5 * math.pi


def _unit_ray(v, what: str) -> np.ndarray:
    """v / |v| as a contiguous complex array; DomainError for a non-finite component
    or the zero vector.

    v is first scaled by the power of two that brings its largest |re| or |im|
    into [0.5, 1).  The scaling is exact, so the ray is unchanged, but the norm
    no longer overflows for huge finite components.
    """
    v = _in_float_range(np.ascontiguousarray, v, complex)
    if not np.isfinite(v).all():
        raise DomainError(f"{what}: a component is not finite")
    parts = v.view(float)  # re, im interleaved
    v = np.ldexp(parts, -math.frexp(float(np.abs(parts).max(initial=0.0)))[1]).view(complex)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise DomainError(f"{what} is undefined for the zero vector")
    return v / norm


def geodesic_distance(a, b) -> float:
    """Geodesic angle arccos(|<a|b>|/(|a| |b|)) between two nonzero finite vectors.

    Each form is used where it is well conditioned.  When |<a|b>| > 1/2 on
    the unit vectors (theta < pi/3) it is 2 arcsin(|a e^{i phi} - b| / 2),
    with phi the phase of <a|b>: half the chord between the phase-aligned
    rays is sin(theta/2), which keeps full accuracy near theta = 0, where
    arccos of a ratio that rounds just below 1 loses half the digits.
    Otherwise it is arccos(|<a|b>|), which gives exactly pi/2 for an exactly
    zero overlap, where the chord of rays normalized by an inexact norm can
    round below sqrt(2).
    """
    a, b = _unit_ray(a, "geodesic distance"), _unit_ray(b, "geodesic distance")
    if a.size != b.size:
        raise DomainError(f"geodesic distance: dimensions {a.size} and {b.size} differ")
    c = complex(np.vdot(a, b))
    overlap = abs(c)
    if overlap <= 0.5:
        return math.acos(overlap)
    return 2.0 * math.asin(0.5 * float(np.linalg.norm(a * (c / overlap) - b)))


def hidden_prob(theta: float) -> float:
    """Linear reparametrization p = 1 - theta/(pi/2) of a geodesic angle.

    Satisfies g(hidden_prob(theta)) = cos^2(theta) for the sine generator.
    """
    return 1.0 - _check_in(theta, 0.0, HALF_PI, "theta must lie in [0, pi/2]") / HALF_PI


def ladder(P: float, k_from: int, k_to: int,
           egen: ExtendedGenerator = sine_extended()) -> list[float]:
    """All level images g^j(p) for j in [k_from, k_to] of one overlap P.

    The base entry p = hidden_prob(arccos(sqrt(P))) sits at level 0 and the
    entry at j = 1 recovers P itself.  Each rung is ``egen.iterate(p, j)``,
    in [0, 1] because g^j maps [0, 1] into itself; a level past the cap
    raises iterate's LevelRangeError.
    """
    _check_in(P, 0.0, 1.0, "P must lie in [0,1]")
    k_from, k_to = _level(k_from), _level(k_to)
    if k_from > k_to:
        raise DomainError("k_from must not exceed k_to")
    p0 = hidden_prob(math.acos(math.sqrt(P)))
    return [egen.iterate(p0, j) for j in range(k_from, k_to + 1)]


@dataclass(frozen=True)
class RealQuadraticForm:
    """<a|P|a> written on the (Re a, Im a) split: x'Ax + y'By + x'Cy."""

    re_re: np.ndarray
    im_im: np.ndarray
    re_im: np.ndarray

    def evaluate(self, a) -> float:
        a = _in_float_range(np.asarray, a, complex)
        x, y = a.real, a.imag
        with np.errstate(over="ignore", invalid="ignore"):  # _check_base rejects inf and NaN
            value = float(x @ self.re_re @ x + y @ self.im_im @ y + x @ self.re_im @ y)
        _check_base(value, "quadratic form")
        return value


def projector_form(b) -> RealQuadraticForm:
    """The quadratic form of the rank-1 projector onto (the ray of) b.

    b is scaled by a power of two before its norm is taken, as in
    geodesic_distance, so huge finite components do not overflow the norm.
    """
    b = _unit_ray(b, "projector form")
    u = b.real
    v = b.imag
    sym = np.outer(u, u) + np.outer(v, v)
    cross = 2.0 * (np.outer(u, v) - np.outer(v, u))
    return RealQuadraticForm(re_re=sym, im_im=sym.copy(), re_im=cross)


def lifted_form_value(form: RealQuadraticForm, a,
                      egen: ExtendedGenerator = sine_extended()) -> float:
    """The quadratic form with every coefficient mapped through g_R and
    +/* replaced by the level-1 operations.

    Signed components ride on the unit-periodic extension.  The result
    equals g(<a|P|a>) whenever the form encodes a projector expectation;
    that identity is the tested contract.  It is evaluated in the
    single-push form: all 2n + 3n^2 components and coefficients are lifted
    in one array call and pulled back in one more, the 3n^2 terms are
    multiplied in ordinary arithmetic, and their correctly rounded sum is
    pushed forward once.  A non-finite component or coefficient, or a
    vector of another dimension, raises DomainError.
    """
    a = _in_float_range(np.asarray, a, complex)
    n = a.size
    parts = (a.real, a.imag, form.re_re, form.im_im, form.re_im)
    if a.ndim != 1 or any(m.shape != (n, n) for m in parts[2:]):
        raise DomainError(f"lifted form: a vector of shape {a.shape} does not fit the form")
    flat = np.concatenate(parts, axis=None)  # x, y, then the three n x n blocks
    if not np.isfinite(flat).all():
        raise DomainError("lifted form: a component or coefficient is not finite")
    pulled = egen.iterate(egen.forward(flat), -1).tolist()  # elementwise: each keeps its bits
    x, y, coef = pulled[:n], pulled[n:2 * n], iter(pulled[2 * n:])  # coef: the blocks by rows
    # float products overflow to inf without a warning; _sum_push rejects a non-finite sum
    terms = [u[i] * next(coef) * v[j]
             for u, v in ((x, x), (y, y), (x, y)) for i in range(n) for j in range(n)]
    return _sum_push(ArithmeticContext(egen, 1), "lifted_form_value", terms)
