import math

import pytest

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


def test_alpha_one_continuity(rng):
    raw = rng.uniform(0.05, 1.0, size=6)
    dist = Distribution((raw / raw.sum()).tolist())
    s = shannon(dist)
    assert renyi_kn(dist, 1.0) == s
    assert abs(renyi_closed(dist, 1.0 + 1e-6) - s) < 1e-5
    assert abs(renyi_closed(dist, 1.0 - 1e-6) - s) < 1e-5


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
