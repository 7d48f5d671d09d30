import json
import math
import statistics

import numpy as np
import pytest

from nncalc.errors import ApplicabilityError, DomainError
from nncalc.generator import _BLOCK, sine_extended
from nncalc.lln import (
    LevelBinomial,
    chebyshev_bound,
    fig3_table,
    moments,
    pmf,
    pmf_base_vector,
    simulate,
)

# mpmath (50 digits): (1 - sin(pi/8)^2)^3 = cos(pi/8)^6
Q_CUBED = 0.62185921676911454193250222921394038
# mpmath (50 digits): 10 sin(pi/8)^2
MEAN_TEN_QUARTER = 1.4644660940672623779957781894757548


def test_pmf_symmetric_coin():
    for k in (-4, 0, 3):
        d = LevelBinomial(N=2, p=0.5, k=k, l=0)
        assert [pmf(d, n) for n in range(3)] == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)


def test_pmf_single_trial():
    d = LevelBinomial(N=1, p=0.3)
    assert pmf(d, 0) == pytest.approx(0.7, abs=1e-15)
    assert pmf(d, 1) == pytest.approx(0.3, abs=1e-15)


def test_pmf_frozen_value():
    d = LevelBinomial(N=3, p=0.25, k=1, l=0)
    assert pmf(d, 0) == pytest.approx(Q_CUBED, abs=1e-13)


def test_pmf_validation():
    with pytest.raises(DomainError):
        LevelBinomial(N=0, p=0.5)
    with pytest.raises(DomainError):
        LevelBinomial(N=5, p=1.5)
    d = LevelBinomial(N=5, p=0.5)
    with pytest.raises(DomainError):
        pmf(d, 6)


def test_pmf_normalization_levels(rng):
    eg = sine_extended()
    for _ in range(25):
        N = int(rng.integers(1, 61))
        p = float(rng.uniform(0.05, 0.95))
        k = int(rng.integers(-3, 4))
        l = int(rng.integers(0, 4))
        d = LevelBinomial(N=N, p=p, k=k, l=l)
        base = pmf_base_vector(d)
        total = eg.iterate(float(math.fsum(base)), l)
        assert abs(total - 1.0) < 1e-9
        # pullback residual is ulp-scale at every level, negative ones included
        k_neg = int(rng.integers(-3, 0))
        d2 = LevelBinomial(N=N, p=p, k=k, l=k_neg)
        assert abs(math.fsum(pmf_base_vector(d2)) - 1.0) < 1e-12


def test_pmf_beyond_the_float_range_raises():
    # every C(1029, n) is a finite float; C(1030, 500..530) are not
    d = LevelBinomial(N=1029, p=0.5)
    assert abs(math.fsum(pmf_base_vector(d)) - 1.0) < 1e-12
    assert pmf(d, 514) == pytest.approx(pmf_base_vector(d)[514], rel=1e-15)
    big = LevelBinomial(N=1030, p=0.5)
    assert pmf(big, 0) == 0.5**1030
    for call in (lambda: pmf(big, 515), lambda: pmf_base_vector(big),
                 lambda: pmf(LevelBinomial(N=10**6, p=0.3), 300_000),
                 # np.arange(N + 1) raised a raw ValueError before any check
                 lambda: pmf_base_vector(LevelBinomial(N=10**20, p=0.3))):
        with pytest.raises(DomainError, match="N <= 1029"):
            call()


@pytest.mark.parametrize("N, p, stat, bound", [
    (200, 0.3, max, 4), (1000, 0.5, max, 2),
    # in the upper tail p**n underflows to 0 and loses whole entries; Loader's form would mend it
    (1000, 0.3, statistics.median, 2)])
def test_pmf_base_vector_against_mpmath(N, p, stat, bound):
    # the log-gamma coefficients above N = 50 were 2.1e3 ulps off at N = 200, p = 0.3
    mpmath = pytest.importorskip("mpmath")
    dist = LevelBinomial(N=N, p=p)
    p_eff, q_eff = dist.effective()  # taken as exact
    base = pmf_base_vector(dist)
    errs = []
    with mpmath.workdps(50):
        for n in range(N + 1):
            want = float(mpmath.binomial(N, n) * mpmath.mpf(q_eff) ** (N - n)
                         * mpmath.mpf(p_eff) ** n)
            if want >= 2.0**-1022:
                errs.append(abs(float(base[n]) - want) / math.ulp(want))
    assert stat(errs) <= bound


def test_pmf_matches_base_vector(rng):
    d = LevelBinomial(N=12, p=0.3, k=2, l=1)
    eg = sine_extended()
    base = pmf_base_vector(d)
    for n in (0, 3, 7, 12):
        assert pmf(d, n) == pytest.approx(eg.iterate(float(base[n]), 1), abs=1e-14)


def test_moments_level_zero():
    d = LevelBinomial(N=100, p=0.5)
    mean, var = moments(d)
    assert mean == pytest.approx(50.0, abs=1e-12)
    assert var == pytest.approx(25.0, abs=1e-12)


def test_moments_reject_an_n_beyond_the_float_range():
    # N * p_eff raised a raw OverflowError
    with pytest.raises(DomainError, match="float range"):
        moments(LevelBinomial(N=10**400, p=0.3))


def test_moments_frozen():
    d = LevelBinomial(N=10, p=0.25, k=1, l=0)
    mean, var = moments(d)
    assert mean == pytest.approx(MEAN_TEN_QUARTER, abs=1e-13)
    p_eff = math.sin(math.pi / 8) ** 2
    assert var == pytest.approx(10.0 * p_eff * (1.0 - p_eff), abs=1e-13)


def test_moments_match_definitional_sums(rng):
    # oracle: plain expectation sums over the pullback pmf
    for _ in range(12):
        N = int(rng.integers(2, 41))
        p = float(rng.uniform(0.1, 0.9))
        k = int(rng.integers(-3, 4))
        l = int(rng.integers(-3, 4))
        d = LevelBinomial(N=N, p=p, k=k, l=l)
        eg = sine_extended()
        base = pmf_base_vector(d)
        ns = np.arange(N + 1)
        mean_base = float(np.sum(ns * base))
        var_base = float(np.sum((ns - mean_base) ** 2 * base))
        mean, var = moments(d)
        assert mean == pytest.approx(eg.iterate(mean_base, l), abs=1e-8)
        assert var == pytest.approx(eg.iterate(var_base, l), abs=1e-8)


def test_moments_observer_level_identity(rng):
    # at l = k the mean is the level product of N with the shifted probability
    from nncalc.arithmetic import ArithmeticContext, arith

    # N * p is kept away from the integers so the pullback product stays
    # resolvable at negative observer levels
    eg = sine_extended()
    for k in (-2, 1, 3):
        d = LevelBinomial(N=10, p=0.37, k=k, l=k)
        mean, _ = moments(d)
        ctx = ArithmeticContext(eg, k)
        want = arith(ctx, "mul", 10.0, eg.iterate(0.37, k))
        assert mean == pytest.approx(want, abs=1e-9)


def test_chebyshev_bound_fixed_point():
    d = LevelBinomial(N=50, p=0.5, k=0, l=1)
    assert chebyshev_bound(d, 0.1) == pytest.approx(0.5, abs=1e-12)
    d3 = LevelBinomial(N=50, p=0.5, k=0, l=3)
    assert chebyshev_bound(d3, 0.1) == pytest.approx(0.5, abs=1e-12)


def test_chebyshev_bound_saturates():
    d = LevelBinomial(N=25, p=0.5, k=0, l=1)
    assert chebyshev_bound(d, 0.1) == pytest.approx(1.0, abs=1e-12)


def test_chebyshev_bound_applicability():
    d = LevelBinomial(N=10, p=0.5, k=0, l=1)
    with pytest.raises(ApplicabilityError) as err:
        chebyshev_bound(d, 0.1)
    assert err.value.min_trials == 25
    with pytest.raises(DomainError):
        chebyshev_bound(d, 0.0)


def test_chebyshev_bound_monotone():
    eps = 0.1
    bounds = [chebyshev_bound(LevelBinomial(N=N, p=0.5, k=0, l=2), eps)
              for N in range(25, 80, 5)]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    d = LevelBinomial(N=100, p=0.5, k=0, l=2)
    by_eps = [chebyshev_bound(d, e) for e in (0.06, 0.08, 0.1, 0.2)]
    assert all(b1 > b2 for b1, b2 in zip(by_eps, by_eps[1:]))


def test_simulate_reproducible():
    d = LevelBinomial(N=10_000, p=0.5)
    r1 = simulate(d, eps=0.05, trials=400, seed=11)
    r2 = simulate(d, eps=0.05, trials=400, seed=11)
    assert r1 == r2
    r3 = simulate(d, eps=0.05, trials=400, seed=12)
    assert r1 != r3 or r1.empirical_exceed_rate == r3.empirical_exceed_rate


def test_simulate_well_below_bound():
    d = LevelBinomial(N=10_000, p=0.5)
    rep = simulate(d, eps=0.05, trials=500, seed=3)
    assert rep.bound == pytest.approx(0.01, abs=1e-12)
    assert rep.empirical_exceed_rate <= rep.bound


def test_simulate_trivial_cases():
    d = LevelBinomial(N=50, p=0.5)
    assert simulate(d, eps=1.0, trials=100, seed=0).empirical_exceed_rate == 0.0
    d1 = LevelBinomial(N=1, p=0.5)
    rep = simulate(d1, eps=0.4, trials=64, seed=0)
    assert rep.empirical_exceed_rate == 1.0
    with pytest.raises(DomainError):
        simulate(d1, eps=0.4, trials=0, seed=0)


def test_simulate_takes_the_samplers_seed_and_n_range():
    d = LevelBinomial(N=10, p=0.3)
    simulate(d, eps=0.1, trials=5, seed=2**64 - 1)
    simulate(LevelBinomial(N=2**63 - 1, p=0.3), eps=0.1, trials=5, seed=0)
    # numpy raised a raw OverflowError for each of these
    for seed in (-1, 2**64):
        with pytest.raises(DomainError, match="seed"):
            simulate(d, eps=0.1, trials=5, seed=seed)
    with pytest.raises(DomainError, match="N <="):
        simulate(LevelBinomial(N=2**63, p=0.3), eps=0.1, trials=5, seed=0)
    # 10**400 raised a raw ValueError from numpy
    for trials in (2**63, 10**400):
        with pytest.raises(DomainError, match="trials <="):
            simulate(d, eps=0.1, trials=trials, seed=0)


def test_an_int_too_long_to_print_is_named_by_its_bits():
    # formatting N or seed into the message raised a raw ValueError past 4300 digits
    huge = 10**5000
    cases = [(lambda: simulate(LevelBinomial(N=huge, p=0.5), 0.1, 5, 0), "N <="),
             (lambda: simulate(LevelBinomial(N=10, p=0.5), 0.1, 5, huge), "seed"),
             (lambda: pmf(LevelBinomial(N=huge, p=0.5), -1), "n must lie"),
             (lambda: pmf(LevelBinomial(N=huge, p=0.5), 3), "float range"),
             (lambda: pmf(LevelBinomial(N=10, p=0.5), huge), "n must lie"),
             (lambda: pmf_base_vector(LevelBinomial(N=huge, p=0.5)), "float range"),
             (lambda: LevelBinomial(N=1, p=huge), "float range")]
    for call, what in cases:
        with pytest.raises(DomainError, match=what) as caught:
            call()
        assert f"an int of {huge.bit_length()} bits" in str(caught.value)


def _simulate_oracle(dist, eps, trials, seed):
    """simulate's rate as one draw of all trials, the form before it drew in blocks."""
    p_eff, _ = dist.effective()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    counts = rng.binomial(dist.N, p_eff, size=trials)
    exceed = np.abs(p_eff - counts / dist.N) >= eps
    return float(np.count_nonzero(exceed)) / trials


# N p = 6 takes numpy's inversion sampler, N p = 5000 its rejection sampler
@pytest.mark.parametrize("N, p, eps", [(20, 0.3, 0.1), (10_000, 0.5, 0.005)])
def test_simulate_in_blocks_matches_one_draw(N, p, eps):
    dist = LevelBinomial(N=N, p=p)
    trials = 3 * _BLOCK + 5
    for seed in (0, 7):
        rate = simulate(dist, eps, trials, seed).empirical_exceed_rate
        assert 0.0 < rate < 1.0
        assert rate == _simulate_oracle(dist, eps, trials, seed)


def test_simulate_soundness_over_seeds():
    d = LevelBinomial(N=2000, p=0.4, k=1, l=1)
    eps = 0.03
    trials = 500
    for seed in range(20):
        rep = simulate(d, eps=eps, trials=trials, seed=seed)
        slack = 3.0 * math.sqrt(max(rep.bound * (1 - rep.bound), 1e-12) / trials)
        assert rep.empirical_exceed_rate <= rep.bound + slack


def test_fig3_fixed_point_row():
    rows = fig3_table([1, 2, 3, 4], range(50, 51), 0.1)
    assert [r[2] for r in rows] == pytest.approx([0.5] * 4, abs=1e-12)


def test_fig3_values():
    # 1/(4*75*0.01) = 1/3, whose level-1 image is sin^2(pi/6) = 1/4
    rows = fig3_table([1], range(75, 76), 0.1)
    assert rows[0][2] == pytest.approx(0.25, abs=1e-12)
    rows = fig3_table([4], range(25, 26), 0.1)
    assert rows[0][2] == pytest.approx(1.0, abs=1e-12)


def test_fig3_monotone_in_n():
    rows = fig3_table([2], range(25, 76), 0.1)
    bounds = [r[2] for r in rows]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf, -math.inf, 1e-160, 1e-200])
def test_eps_without_a_finite_bound_raises(eps):
    # 1e-200 ** 2 underflows to 0; 1 / (4 * 1e-160 ** 2) overflows
    dist = LevelBinomial(N=10, p=0.5)
    calls = [lambda: fig3_table([1], range(1, 3), eps),
             lambda: chebyshev_bound(dist, eps),
             lambda: simulate(dist, eps, trials=10, seed=1)]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_huge_eps_gives_a_zero_bound():
    # eps ** 2 overflows; the bound it divides is 0, not an OverflowError
    dist = LevelBinomial(N=10, p=0.5)
    assert fig3_table([1], range(1, 2), 1e200) == [(1, 1, 0.0)]
    assert chebyshev_bound(dist, 1e200) == 0.0
    assert simulate(dist, 1e200, trials=10, seed=1).bound == 0.0


def test_fig3_below_the_regime_raises():
    # 1/(4 * 1 * 0.01) = 25 > 1: the same regime check as chebyshev_bound
    with pytest.raises(ApplicabilityError) as exc:
        fig3_table([1], [1], 0.1)
    assert exc.value.min_trials == 25
    with pytest.raises(ApplicabilityError):
        chebyshev_bound(LevelBinomial(N=1, p=0.5), 0.1)
    at_threshold = chebyshev_bound(LevelBinomial(N=25, p=0.5, l=1), 0.1)
    assert fig3_table([1], [25], 0.1) == [(1, 25, at_threshold)]


def test_fig3_validation():
    with pytest.raises(DomainError):
        fig3_table([1], range(10, 12), 0.0)
    with pytest.raises(DomainError):
        fig3_table([1], range(0, 2), 0.1)


def test_report_dict_from_its_fields_writes_the_same_json():
    for N, p, k, l, eps in ((10, 0.5, 0, 0, 0.3), (1000, 0.3, 1, 0, 0.05), (40, 0.9, -2, 1, 0.1)):
        report = simulate(LevelBinomial(N=N, p=p, k=k, l=l), eps=eps, trials=500, seed=7)
        want = {"empirical_exceed_rate": report.empirical_exceed_rate, "bound": report.bound}
        assert report.to_json_dict() == want
        for kwargs in ({}, {"sort_keys": True, "indent": 2, "allow_nan": False}):
            assert json.dumps(report.to_json_dict(), **kwargs) == json.dumps(want, **kwargs)
