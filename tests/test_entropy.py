import json
import math
import sys

import numpy as np
import pytest

from nncalc.cli import run
from nncalc.entropy import (
    Distribution,
    g_log_info,
    renyi_closed,
    renyi_kn,
    shannon,
)
from nncalc.errors import DomainError
from nncalc.generator import make_sine_generator

# mpmath (50 digits): sin(pi ln(2) / 2)^2
G_OF_LN2 = 0.78511662438443877560960994337004306
# mpmath (50 digits): -ln(0.82)
NEG_LN_082 = 0.19845093872383825475120655616434659

ALPHAS = (0.25, 0.5, 2.0, 3.0, 5.0)


def test_distribution_validation():
    Distribution([0.2, 0.8])
    with pytest.raises(DomainError):
        Distribution([])
    with pytest.raises(DomainError):
        Distribution([0.5, -0.1, 0.6])
    with pytest.raises(DomainError):
        Distribution([0.5, 0.6])


def test_uniform_value(rng):
    for m in (2, 3, 5, 16):
        dist = Distribution([1.0 / m] * m)
        for alpha in ALPHAS:
            assert renyi_kn(dist, alpha) == pytest.approx(math.log(m), abs=1e-12)
            assert renyi_closed(dist, alpha) == pytest.approx(math.log(m), abs=1e-12)


def test_half_half_alpha_two():
    dist = Distribution([0.5, 0.5])
    assert renyi_kn(dist, 2.0) == pytest.approx(math.log(2.0), abs=1e-14)
    assert renyi_closed(dist, 0.5) == pytest.approx(math.log(2.0), abs=1e-14)


def test_deterministic_distribution():
    dist = Distribution([1.0, 0.0])
    for alpha in ALPHAS:
        assert renyi_kn(dist, alpha) == 0.0
        assert renyi_closed(dist, alpha) == 0.0


def test_closed_form_frozen():
    dist = Distribution([0.9, 0.1])
    assert renyi_closed(dist, 2.0) == pytest.approx(NEG_LN_082, abs=1e-12)


def test_nan_fails_the_guards():
    # support() drops a NaN, so an accepted one would vanish from every entropy
    with pytest.raises(DomainError):
        Distribution([math.nan, 0.5])
    with pytest.raises(DomainError):
        Distribution([math.nan])
    with pytest.raises(DomainError):
        Distribution([1e308, 1e308])  # must not overflow the sum check
    dist = Distribution([0.5, 0.5])
    for entropy in (renyi_kn, renyi_closed):
        with pytest.raises(DomainError):
            entropy(dist, math.nan)


def test_alpha_validation():
    dist = Distribution([0.5, 0.5])
    with pytest.raises(DomainError):
        renyi_kn(dist, 0.0)
    with pytest.raises(DomainError):
        renyi_closed(dist, -1.0)


def test_kn_equals_closed(rng):
    for _ in range(30):
        size = int(rng.integers(2, 17))
        raw = rng.uniform(0.01, 1.0, size=size)
        dist = Distribution((raw / raw.sum()).tolist())
        for alpha in ALPHAS:
            assert renyi_kn(dist, alpha) == pytest.approx(
                renyi_closed(dist, alpha), abs=1e-10)


def test_kn_route_keeps_a_subnormal_probability_finite():
    # exp((1 - alpha)(-ln p)) overflows here, which raised a raw OverflowError;
    # p times it is finite
    dist = Distribution([5e-324, 1.0])
    assert renyi_kn(dist, 0.04) == renyi_closed(dist, 0.04) == 1.2166193978183297e-13
    assert renyi_kn(dist, 1e-12) == pytest.approx(renyi_closed(dist, 1e-12), rel=1e-12)


def test_alpha_one_continuity(rng):
    raw = rng.uniform(0.05, 1.0, size=6)
    dist = Distribution((raw / raw.sum()).tolist())
    s = shannon(dist)
    assert renyi_kn(dist, 1.0) == s
    assert abs(renyi_closed(dist, 1.0 + 1e-6) - s) < 1e-5
    assert abs(renyi_closed(dist, 1.0 - 1e-6) - s) < 1e-5


def test_renyi_closed_is_shannon_inside_its_window():
    dist = Distribution([0.1, 0.2, 0.3, 0.4])
    for alpha in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
        assert renyi_closed(dist, alpha) == shannon(dist)


def test_additivity_for_products(rng):
    for _ in range(10):
        raw1 = rng.uniform(0.05, 1.0, size=3)
        raw2 = rng.uniform(0.05, 1.0, size=4)
        p = raw1 / raw1.sum()
        q = raw2 / raw2.sum()
        joint = Distribution([float(a * b) for a in p for b in q])
        d1 = Distribution(p.tolist())
        d2 = Distribution(q.tolist())
        for alpha in ALPHAS:
            assert renyi_closed(joint, alpha) == pytest.approx(
                renyi_closed(d1, alpha) + renyi_closed(d2, alpha), abs=1e-9)


def test_permutation_invariance(rng):
    raw = rng.uniform(0.05, 1.0, size=7)
    p = (raw / raw.sum()).tolist()
    shuffled = list(p)
    rng.shuffle(shuffled)
    for alpha in ALPHAS:
        assert renyi_kn(Distribution(p), alpha) == pytest.approx(
            renyi_kn(Distribution(shuffled), alpha), abs=1e-12)


def test_zero_probabilities_dropped():
    base = Distribution([0.4, 0.6])
    padded = Distribution([0.4, 0.0, 0.6, 0.0])
    for alpha in ALPHAS:
        assert renyi_kn(padded, alpha) == renyi_kn(base, alpha)


def test_g_log_info_values():
    gen = make_sine_generator()
    assert g_log_info(gen, 1.0) == 0.0
    assert g_log_info(gen, 1.0 / math.e) == pytest.approx(1.0, abs=1e-12)
    assert g_log_info(gen, 0.5) == pytest.approx(G_OF_LN2, abs=1e-13)


def test_g_log_info_accepts_extended(sine_eg):
    assert g_log_info(sine_eg, 0.5) == pytest.approx(G_OF_LN2, abs=1e-13)


def test_g_log_info_domain():
    gen = make_sine_generator()
    with pytest.raises(DomainError):
        g_log_info(gen, 0.0)
    with pytest.raises(DomainError):
        g_log_info(gen, 1.5)


def _kn_term_oracle(p, one_minus):
    x = one_minus * (-math.log(p))
    try:
        return p * math.exp(x)
    except OverflowError:  # a subnormal p at a small alpha: p * exp(x) is finite
        return math.exp(math.log(p) + x)


def _renyi_tail_oracle(dist, alpha, total):
    """ln(total) / (1 - alpha), or at alpha = inf -ln max p, and where total is below
    the normal range ln(sum p^alpha) / (1 - alpha) with max p factored out."""
    top = max(dist.probs)
    if alpha == math.inf:
        return -math.log(top)
    if total < sys.float_info.min:
        scaled = math.fsum((p / top) ** alpha for p in dist.support())
        return math.log(top) * (alpha / (1.0 - alpha)) + math.log(scaled) / (1.0 - alpha)
    return math.log(total) / (1.0 - alpha)


def _renyi_kn_oracle(dist, alpha):
    """renyi_kn with its own alpha check, window and tail, the form before _renyi."""
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    if abs(1.0 - alpha) < 1e-8:
        return shannon(dist)
    one_minus = 1.0 - alpha
    avg = math.fsum(_kn_term_oracle(p, one_minus) for p in dist.support())
    return _renyi_tail_oracle(dist, alpha, avg)


def _renyi_closed_oracle(dist, alpha):
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    if abs(1.0 - alpha) < 1e-8:
        return shannon(dist)
    return _renyi_tail_oracle(dist, alpha, math.fsum(p ** alpha for p in dist.support()))


def _outcome(fn, dist, alpha):
    try:
        return fn(dist, alpha).hex()
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_both_routes_keep_the_bits_of_their_own_tails(rng):
    dists = [Distribution([1.0]), Distribution([0.5, 0.5]), Distribution([0.0, 0.25, 0.75]),
             Distribution([1e-300, 1.0 - 1e-300]), Distribution([5e-324, 1.0])]
    for size in (2, 3, 7, 16, 40):
        for _ in range(20):
            raw = rng.dirichlet(np.ones(size) * rng.choice([0.05, 1.0, 20.0]))
            dists.append(Distribution(raw))
    edges = (0.5, 1.0, 1.0 - 2**-40, 1.0 + 2**-40, 2.0)
    window = [1.0 + s * f * 1e-8 for s in (-1, 1) for f in edges]
    alphas = (window + [1.0, 2, 3, 0.5, 1e-12, 1e-300, 1e6, 1e300, math.inf, 0.0, -1.0, math.nan]
              + rng.uniform(0.0, 10.0, 20).tolist() + np.exp(rng.uniform(-30, 30, 20)).tolist())
    for dist in dists:
        for alpha in alphas:
            for route, oracle in ((renyi_kn, _renyi_kn_oracle),
                                  (renyi_closed, _renyi_closed_oracle)):
                assert _outcome(route, dist, alpha) == _outcome(oracle, dist, alpha)


@pytest.mark.parametrize("alpha", [2000.0, 1e6, 1e300, math.inf])
def test_large_orders_against_mpmath(alpha):
    # every p^alpha underflowed to 0, which gave inf; at alpha = inf a term of
    # p = 1 was (1 - inf) * -ln 1, a NaN.  Renyi entropy lies in [-ln max p, ln n]
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    dists = [[0.7, 0.3], [0.5, 0.5], [0.5, 0.25, 0.125, 0.125], [1e-300, 1.0], [0.1] * 10,
             [0.999, 0.001], [0.4, 0.35, 0.25]]
    for probs in dists:
        dist = Distribution(probs)
        ps = [mpmath.mpf(p) for p in dist.support()]
        if alpha == math.inf:
            want = -mpmath.log(max(ps))
        else:
            want = mpmath.log(mpmath.fsum(p ** alpha for p in ps)) / (1 - mpmath.mpf(alpha))
        for route in (renyi_kn, renyi_closed):
            got = route(dist, alpha)
            assert abs(got - want) <= 2 * math.ulp(float(want)), (probs, route.__name__, got)


def test_cli_entropy_at_a_large_order_is_finite(capsys):
    # this exited 3 with "non-finite value in output"
    assert run(["entropy", "--probs", "0.5,0.5", "--alpha", "2000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["renyi_kn"] == pytest.approx(math.log(2.0), rel=1e-15)
    assert out["renyi_closed"] == pytest.approx(math.log(2.0), rel=1e-15)
