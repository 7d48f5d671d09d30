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

from .generator import ExtendedGenerator, Generator, _check_in, _in_float_range, _probabilities

_ALPHA_SHANNON_WINDOW = 1e-8


@dataclass(frozen=True)
class Distribution:
    """A finite probability distribution (entries in [0, 1] summing to 1)."""

    probs: tuple

    def __init__(self, probs):
        object.__setattr__(self, "probs", _probabilities(probs, "probabilities"))

    def support(self):
        return [p for p in self.probs if p > 0.0]


def shannon(dist: Distribution) -> float:
    return -math.fsum(p * math.log(p) for p in dist.support())


def _renyi(dist: Distribution, alpha: float, terms) -> float:
    """ln(sum of ``terms``) / (1 - alpha), the tail both routes share: the check on alpha,
    Shannon within 1e-8 of alpha = 1 and -ln max p at alpha = inf (``terms`` is then never
    consumed).  Where a large order takes the sum below the normal range, max p is factored
    out of it; for alpha < 1 every p^alpha >= p, so the sum stays >= 1 - 1e-12."""
    alpha = _in_float_range(float, _check_in(alpha, 5e-324, math.inf, "alpha must be positive"))
    if abs(1.0 - alpha) < _ALPHA_SHANNON_WINDOW:
        return shannon(dist)
    if alpha == math.inf:
        return -math.log(max(dist.probs))
    total = math.fsum(terms)
    if total < 2.0 ** -1022:  # subnormal or 0: digits lost; the scaled sum is >= 1
        top = max(dist.probs)
        scaled = math.fsum((p / top) ** alpha for p in dist.support())
        return math.log(top) * (alpha / (1.0 - alpha)) + math.log(scaled) / (1.0 - alpha)
    return math.log(total) / (1.0 - alpha)


def _kn_term(p: float, one_minus: float) -> float:
    """p * phi_a(-ln p) for one_minus = 1 - a; where exp overflows, as on a subnormal
    p at a small order, the product is finite and is formed as exp(ln p + x)."""
    x = one_minus * -math.log(p)
    try:
        return p * math.exp(x)
    except OverflowError:
        return math.exp(math.log(p) + x)


def renyi_kn(dist: Distribution, alpha: float) -> float:
    """Renyi entropy via the Kolmogorov-Nagumo averaging route.

    Literal evaluation of phi_a^{-1}(sum p phi_a(-ln p)); degenerates to
    Shannon within 1e-8 of alpha = 1.
    """
    return _renyi(dist, alpha, (_kn_term(p, 1.0 - alpha) for p in dist.support()))


def renyi_closed(dist: Distribution, alpha: float) -> float:
    """Renyi entropy in closed form, ln(sum p^alpha)/(1 - alpha)."""
    return _renyi(dist, alpha, (p ** alpha for p in dist.support()))


def g_log_info(gen: Generator | ExtendedGenerator, p: float) -> float:
    """The generator image of the information content: g_R(-ln p).

    The argument -ln p exceeds 1 for p < 1/e, so the extended (integer
    fixing) bijection is used.
    """
    _check_in(p, 5e-324, 1.0, "p must lie in (0, 1]")
    egen = gen if isinstance(gen, ExtendedGenerator) else ExtendedGenerator(gen)
    return egen.forward(-math.log(p))
