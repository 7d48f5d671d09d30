"""Geodesic angle between rays, its linear reparametrization, and the lifted form.

The overlap of two state vectors defines the geodesic angle
theta = arccos(|<a|b>| / (|a||b|)) in [0, pi/2].  Its linear rescaling
p = 1 - theta/(pi/2) is a probability whose sine-generator image recovers
the quantum value: g(p) = cos^2(theta).  Iterating g in both directions
produces the full ladder of probabilities attached to one overlap.

A projector expectation <a|P|a> is a real quadratic form in the real and
imaginary parts of the components; mapping every coefficient through the
extended generator and replacing +/* by the level-1 operations reproduces
g(<a|P|a>), which the lifted evaluation here verifies term by term.
Ordinary complex arithmetic is used for the states themselves; the
pair-arithmetic complex numbers live in their own module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import ArithmeticContext, arith
from .errors import DomainError
from .generator import ExtendedGenerator, _default_extended, eval_iterate

HALF_PI = 0.5 * math.pi


def geodesic_distance(a, b) -> float:
    """Geodesic angle arccos(|<a|b>|/(|a| |b|)) between two nonzero vectors."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DomainError("geodesic distance is undefined for the zero vector")
    c = abs(complex(np.vdot(a, b))) / (na * nb)
    return float(math.acos(min(1.0, max(0.0, c))))


def hidden_prob(theta: float) -> float:
    """Linear reparametrization p = 1 - theta/(pi/2) of a geodesic angle.

    Satisfies g(hidden_prob(theta)) = cos^2(theta) for the sine generator.
    """
    if not (0.0 <= theta <= HALF_PI):
        raise DomainError(f"theta must lie in [0, pi/2], got {theta!r}")
    return 1.0 - theta / HALF_PI


def ladder(P: float, k_from: int, k_to: int,
           egen: ExtendedGenerator | None = None) -> list[float]:
    """All level images g^j(p) for j in [k_from, k_to] of one overlap P.

    The base entry p = hidden_prob(arccos(sqrt(P))) sits at level 0 and the
    entry at j = 1 recovers P itself.
    """
    if not (0.0 <= P <= 1.0):
        raise DomainError(f"P must lie in [0,1], got {P!r}")
    if k_from > k_to:
        raise DomainError("k_from must not exceed k_to")
    egen = _default_extended(egen)
    p0 = hidden_prob(math.acos(math.sqrt(P)))
    return [eval_iterate(egen, j, p0) for j in range(k_from, k_to + 1)]


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
                      egen: ExtendedGenerator | None = None) -> float:
    """The quadratic form with every coefficient mapped through g_R and
    +/* replaced by the level-1 operations.

    Signed components ride on the unit-periodic extension.  The result
    equals g(<a|P|a>) whenever the form encodes a projector expectation;
    that identity is the tested contract, intermediate values depend on the
    choice of extension.
    """
    egen = _default_extended(egen)
    ctx = ArithmeticContext(egen, 1)
    a = np.asarray(a, dtype=complex)
    x = a.real
    y = a.imag
    n = len(x)

    def lifted_term(u: float, coeff: float, w: float) -> float:
        prod = arith(ctx, "mul", egen.forward(u), egen.forward(coeff))
        return arith(ctx, "mul", prod, egen.forward(w))

    acc = None
    for left, mat, right in ((x, form.re_re, x), (y, form.im_im, y), (x, form.re_im, y)):
        for r in range(n):
            for s in range(n):
                term = lifted_term(float(left[r]), float(mat[r, s]), float(right[s]))
                acc = term if acc is None else arith(ctx, "add", acc, term)
    return acc if acc is not None else 0.0
