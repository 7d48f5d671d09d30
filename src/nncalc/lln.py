"""Hierarchical binomial distributions and the two-level Bernoulli bound.

A coin with success probability p at level k, observed by an agent computing
in the level-l arithmetic, has outcome probabilities

    p(n) = g^l[ C(N,n) * g^{k-l}(q)^{N-n} * g^{k-l}(p)^n ],

with mean g^l[N g^{k-l}(p)] and variance g^l[N g^{k-l}(p) g^{k-l}(q)].
Deviation probabilities obey a Chebyshev-type bound whose level-l form is
g^l(pq_eff / (N eps^2)); for a symmetric coin the bound reduces to
g^l(1/(4 N eps^2)) at every k.  Monte Carlo verification samples the
effective level-0 probability g^{k-l}(p), which is how the level structure
collapses before the classical Bernoulli argument applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arithmetic import _check_base
from .errors import ApplicabilityError, DomainError
from .generator import ExtendedGenerator, eval_iterate, sine_extended

#: switch binomial coefficients to log-space above this trial count
_EXACT_COMB_MAX = 50
#: the largest N at which every C(N, n) is a finite float (C(1030, 515) ~ 2.9e308)
_COMB_FINITE_MAX = 1029


@dataclass(frozen=True)
class LevelBinomial:
    """N trials with success probability p at level k, observed at level l."""

    N: int
    p: float
    k: int = 0
    l: int = 0
    egen: ExtendedGenerator = sine_extended()

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("trial count must be a positive integer")
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"success probability must lie in [0,1], got {self.p!r}")

    def effective_p(self) -> float:
        """g^{k-l}(p): the success probability seen after collapsing levels."""
        return eval_iterate(self.egen, self.k - self.l, self.p)

    def effective_q(self) -> float:
        return eval_iterate(self.egen, self.k - self.l, 1.0 - self.p)


def _comb(N: int, n: int) -> float:
    """C(N, n) as a float; DomainError where it exceeds the float range."""
    if N <= _EXACT_COMB_MAX:
        return float(math.comb(N, n))
    try:
        return math.exp(math.lgamma(N + 1) - math.lgamma(n + 1) - math.lgamma(N - n + 1))
    except OverflowError as exc:
        raise DomainError(f"C({N}, {n}) exceeds the float range; every C(N, n) is "
                          f"finite only for N <= {_COMB_FINITE_MAX}") from exc


def pmf(dist: LevelBinomial, n: int) -> float:
    """Probability of n successes, pushed to the observer level l.

    Above N = 1029 a central C(N, n) exceeds the float range, which raises
    DomainError.
    """
    if not (0 <= n <= dist.N):
        raise DomainError(f"n must lie in 0..{dist.N}, got {n}")
    p_eff = dist.effective_p()
    q_eff = dist.effective_q()
    base = _comb(dist.N, n) * q_eff ** (dist.N - n) * p_eff ** n
    return eval_iterate(dist.egen, dist.l, base)


def pmf_base_vector(dist: LevelBinomial) -> np.ndarray:
    """All N+1 outcome probabilities before the level-l push (the pullbacks).

    DomainError above N = 1029, where a central C(N, n) exceeds the float range.
    """
    p_eff = dist.effective_p()
    q_eff = dist.effective_q()
    ns = np.arange(dist.N + 1)
    combs = np.array([_comb(dist.N, int(n)) for n in ns])
    return combs * q_eff ** (dist.N - ns) * p_eff ** ns


def moments(dist: LevelBinomial) -> tuple[float, float]:
    """(mean, variance) of the success count in the observer arithmetic."""
    p_eff = dist.effective_p()
    q_eff = dist.effective_q()
    mean = eval_iterate(dist.egen, dist.l, dist.N * p_eff)
    var = eval_iterate(dist.egen, dist.l, dist.N * p_eff * q_eff)
    return mean, var


def _deviation_bound(num: float, N: float, eps: float) -> float:
    """num / (N eps^2), the base-level Chebyshev ratio; DomainError unless eps is
    positive and finite and so is the ratio."""
    if not (math.isfinite(eps) and eps > 0.0):  # a NaN fails too
        raise DomainError(f"eps must be positive and finite, got {eps!r}")
    try:
        ratio = num / (N * eps ** 2)
    except ZeroDivisionError:  # eps^2 is 0 below about 1e-162
        ratio = math.inf
    except OverflowError:  # float ** int raises above about 1e154, where the ratio is 0
        ratio = 0.0
    _check_base(ratio, "deviation bound num / (N eps^2)")
    return ratio


def _level_bound(egen: ExtendedGenerator, l: int, pq: float, N: int, eps: float,
                 min_n: float) -> float:
    """g^l(pq / (N eps^2)) for N >= min_n = pq / eps^2; below it the bound
    exceeds 1, which raises ApplicabilityError naming the minimal N."""
    if N < min_n:
        raise ApplicabilityError(
            f"bound applies only for N >= {min_n:.6g} (got N={N})",
            min_trials=math.ceil(min_n))
    return eval_iterate(egen, l, _deviation_bound(pq, N, eps))


def chebyshev_bound(dist: LevelBinomial, eps: float) -> float:
    """Level-l bound on the probability of an eps-deviation of the frequency.

    Valid only when N >= p_eff q_eff / eps^2 (otherwise the bound exceeds 1);
    violating that raises ApplicabilityError naming the minimal N.
    """
    pq = dist.effective_p() * dist.effective_q()
    return _level_bound(dist.egen, dist.l, pq, dist.N, eps, _deviation_bound(pq, 1, eps))


@dataclass(frozen=True)
class SimulationReport:
    empirical_exceed_rate: float
    bound: float

    def to_json_dict(self) -> dict:
        return {"empirical_exceed_rate": self.empirical_exceed_rate, "bound": self.bound}


def simulate(dist: LevelBinomial, eps: float, trials: int, seed: int) -> SimulationReport:
    """Monte Carlo estimate of the deviation probability against the level-0 bound.

    Samples are binomial draws at the effective level-0 probability from a
    counter-based Philox stream keyed by ``seed``; results are
    bit-reproducible for a given (seed, trials, N) and the exceedance count
    is order independent.
    """
    if trials < 1:
        raise DomainError("trials must be a positive integer")
    p_eff = dist.effective_p()
    q_eff = dist.effective_q()
    bound = _deviation_bound(p_eff * q_eff, dist.N, eps)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    counts = rng.binomial(dist.N, p_eff, size=trials)
    exceed = np.abs(p_eff - counts / dist.N) >= eps
    rate = float(np.count_nonzero(exceed)) / trials
    return SimulationReport(empirical_exceed_rate=rate, bound=float(bound))


def fig3_table(l_values: Iterable[int], n_range: Sequence[int], eps: float,
               egen: ExtendedGenerator = sine_extended()) -> list[tuple[int, int, float]]:
    """Rows (l, N, g^l(1/(4 N eps^2))) for a symmetric coin.

    For p = 1/2 the effective probability is 1/2 at every k, so the bound
    depends on k only through l.  Rows are strictly decreasing in N for
    fixed l because g^l is strictly increasing.  The bound is
    ``chebyshev_bound``'s with pq = 1/4: an N below 1/(4 eps^2) raises
    ApplicabilityError.
    """
    min_n = _deviation_bound(0.25, 1, eps)
    rows = []
    for l in l_values:
        for N in n_range:
            if N < 1:
                raise DomainError("trial counts must be positive")
            rows.append((int(l), int(N), float(_level_bound(egen, l, 0.25, N, eps, min_n))))
    return rows
