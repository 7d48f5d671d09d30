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

from .arithmetic import ArithmeticContext, _sum_push
from .errors import DomainError, LevelRangeError
from .generator import LEVEL_CAP, ExtendedGenerator, _clamp_unit, sine_extended

HALF_PI = 0.5 * math.pi


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """v times the power of two that brings its largest |re| or |im| into [0.5, 1).

    The scaling is exact, so the angle is unchanged, but the norms no longer
    overflow for huge finite components.
    """
    parts = v.view(float)  # re, im interleaved
    return np.ldexp(parts, -math.frexp(float(np.abs(parts).max(initial=0.0)))[1]).view(complex)


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
    a = np.ascontiguousarray(a, dtype=complex)
    b = np.ascontiguousarray(b, dtype=complex)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError("geodesic distance: a component is not finite")
    a, b = _unit_scaled(a), _unit_scaled(b)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DomainError("geodesic distance is undefined for the zero vector")
    a, b = a / na, b / nb
    c = complex(np.vdot(a, b))
    overlap = abs(c)
    if overlap <= 0.5:
        return math.acos(overlap)
    return 2.0 * math.asin(0.5 * float(np.linalg.norm(a * (c / overlap) - b)))


def hidden_prob(theta: float) -> float:
    """Linear reparametrization p = 1 - theta/(pi/2) of a geodesic angle.

    Satisfies g(hidden_prob(theta)) = cos^2(theta) for the sine generator.
    """
    if not (0.0 <= theta <= HALF_PI):
        raise DomainError(f"theta must lie in [0, pi/2], got {theta!r}")
    return 1.0 - theta / HALF_PI


def ladder(P: float, k_from: int, k_to: int,
           egen: ExtendedGenerator = sine_extended()) -> list[float]:
    """All level images g^j(p) for j in [k_from, k_to] of one overlap P.

    The base entry p = hidden_prob(arccos(sqrt(P))) sits at level 0 and the
    entry at j = 1 recovers P itself.  The rungs are walked out from level 0,
    forward up to k_to and inverse down to k_from, one step each, and then
    clamped into [0,1] as :func:`eval_iterate` clamps, so each rung is
    bitwise ``eval_iterate(egen, j, p)``.
    """
    if not (0.0 <= P <= 1.0):
        raise DomainError(f"P must lie in [0,1], got {P!r}")
    if k_from > k_to:
        raise DomainError("k_from must not exceed k_to")
    if max(-k_from, k_to) > LEVEL_CAP:
        raise LevelRangeError(f"levels {k_from}..{k_to} exceed the iteration cap {LEVEL_CAP}")
    p0 = hidden_prob(math.acos(math.sqrt(P)))
    rungs = {0: p0 + 0.0}
    for j in range(1, k_to + 1):
        rungs[j] = egen.forward(rungs[j - 1])
    for j in range(-1, k_from - 1, -1):
        rungs[j] = egen.inverse(rungs[j + 1])
    return [_clamp_unit(rungs[j]) for j in range(k_from, k_to + 1)]


@dataclass(frozen=True)
class RealQuadraticForm:
    """<a|P|a> written on the (Re a, Im a) split: x'Ax + y'By + x'Cy."""

    re_re: np.ndarray
    im_im: np.ndarray
    re_im: np.ndarray

    def evaluate(self, a) -> float:
        a = np.asarray(a, dtype=complex)
        x = a.real
        y = a.imag
        return float(x @ self.re_re @ x + y @ self.im_im @ y + x @ self.re_im @ y)


def projector_form(b) -> RealQuadraticForm:
    """The quadratic form of the rank-1 projector onto (the ray of) b."""
    b = np.asarray(b, dtype=complex)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        raise DomainError("cannot project onto the zero vector")
    b = b / nb
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
    single-push form: each lifted coefficient array is pulled back once,
    the 3n^2 terms are multiplied in ordinary arithmetic, and their
    correctly rounded sum is pushed forward once.  A non-finite component
    or coefficient raises DomainError.
    """
    a = np.asarray(a, dtype=complex)
    parts = (a.real, a.imag, form.re_re, form.im_im, form.re_im)
    if not all(np.isfinite(v).all() for v in parts):
        raise DomainError("lifted form: a component or coefficient is not finite")
    x, y, xx, yy, xy = (egen.iterate(egen.forward(v), -1) for v in parts)
    terms = [x[:, None] * xx * x, y[:, None] * yy * y, x[:, None] * xy * y]
    return _sum_push(ArithmeticContext(egen, 1), "lifted_form_value",
                     np.concatenate(terms, axis=None).tolist())
