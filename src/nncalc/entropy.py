"""Renyi entropy as a quasi-arithmetic mean and in closed form.

The order-alpha entropy is the Kolmogorov-Nagumo average of the information
content -ln p under phi_a(x) = exp((1-a)x):

    S_a = phi_a^{-1}( sum_p p * phi_a(-ln p) ) = ln(sum_p p^a) / (1 - a),

with the Shannon entropy -sum p ln p as the a -> 1 limit.  Natural
logarithms throughout (nats).  Zero-probability outcomes contribute nothing
and are dropped before averaging, matching the closed form's limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .generator import ExtendedGenerator, Generator

_ALPHA_SHANNON_WINDOW = 1e-8


@dataclass(frozen=True)
class Distribution:
    """A finite probability distribution (entries in [0, 1] summing to 1)."""

    probs: tuple

    def __init__(self, probs):
        object.__setattr__(self, "probs", tuple(float(p) for p in probs))
        if not self.probs:
            raise DomainError("distribution must have at least one outcome")
        # written so that a NaN fails; entries in [0, 1] also keep fsum from overflowing
        if not all(0.0 <= p <= 1.0 for p in self.probs):
            raise DomainError("probabilities must lie in [0, 1]")
        if not abs(math.fsum(self.probs) - 1.0) <= 1e-12:
            raise DomainError(f"probabilities must sum to 1, got {math.fsum(self.probs)!r}")

    def support(self):
        return [p for p in self.probs if p > 0.0]


def _check_alpha(alpha: float):
    if not alpha > 0.0:  # a NaN fails too
        raise DomainError(f"alpha must be positive, got {alpha!r}")


def shannon(dist: Distribution) -> float:
    return -math.fsum(p * math.log(p) for p in dist.support())


def renyi_kn(dist: Distribution, alpha: float) -> float:
    """Renyi entropy via the Kolmogorov-Nagumo averaging route.

    Literal evaluation of phi_a^{-1}(sum p phi_a(-ln p)); degenerates to
    Shannon within 1e-8 of alpha = 1.
    """
    _check_alpha(alpha)
    if abs(1.0 - alpha) < _ALPHA_SHANNON_WINDOW:
        return shannon(dist)
    one_minus = 1.0 - alpha
    avg = math.fsum(p * math.exp(one_minus * (-math.log(p))) for p in dist.support())
    if avg == 0.0:
        # extreme orders underflow the averaging route; report the limit
        return math.inf if alpha > 1.0 else -math.inf
    return math.log(avg) / one_minus


def renyi_closed(dist: Distribution, alpha: float) -> float:
    """Renyi entropy in closed form, ln(sum p^alpha)/(1 - alpha)."""
    _check_alpha(alpha)
    if abs(1.0 - alpha) < _ALPHA_SHANNON_WINDOW:
        return shannon(dist)
    total = math.fsum(p ** alpha for p in dist.support())
    if total == 0.0:
        return math.inf if alpha > 1.0 else -math.inf
    return math.log(total) / (1.0 - alpha)


def g_log_info(gen: Generator | ExtendedGenerator, p: float) -> float:
    """The generator image of the information content: g_R(-ln p).

    The argument -ln p exceeds 1 for p < 1/e, so the extended (integer
    fixing) bijection is used.
    """
    if not (0.0 < p <= 1.0):
        raise DomainError(f"p must lie in (0, 1], got {p!r}")
    egen = gen if isinstance(gen, ExtendedGenerator) else ExtendedGenerator(gen)
    return egen.forward(-math.log(p))
