import math

import numpy as np
import pytest

from nncalc.errors import DomainError, LevelRangeError
from nncalc.fubini import (
    HALF_PI,
    RealQuadraticForm,
    geodesic_distance,
    hidden_prob,
    ladder,
    lifted_form_value,
    projector_form,
)
from nncalc.generator import (
    LEVEL_CAP,
    ExtendedGenerator,
    Generator,
    clamp_count,
    eval_iterate,
    sine_extended,
)


def random_unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_geodesic_examples():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    assert geodesic_distance(a, a) == 0.0
    assert geodesic_distance(a, np.array([0.0, 1.0], dtype=complex)) == pytest.approx(
        0.5 * math.pi, abs=1e-15)
    assert geodesic_distance(a, b) == pytest.approx(0.25 * math.pi, abs=1e-12)
    # acos of an overlap ratio one ulp below 1 gave 2.1e-8 for these
    assert geodesic_distance([1, 1j], [1, 1j]) == 0.0
    assert geodesic_distance([1, 1], [1, 1]) == 0.0
    # an exactly zero overlap gives exactly pi/2, though the chord of the
    # unit vectors can round below sqrt(2)
    for u, v in (([1, 1j], [1, -1j]), ([1, 1], [1, -1]), ([3, 4j], [4, -3j])):
        assert geodesic_distance(u, v) == HALF_PI
        assert hidden_prob(geodesic_distance(u, v)) == 0.0


def test_geodesic_matches_mpmath(rng):
    mpmath = pytest.importorskip("mpmath")

    def exact(a, b):
        with mpmath.workdps(50):
            a = [mpmath.mpc(complex(z)) for z in a]
            b = [mpmath.mpc(complex(z)) for z in b]
            overlap = abs(mpmath.fsum(mpmath.conj(x) * y for x, y in zip(a, b)))
            norms = mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in a)
                                * mpmath.fsum(abs(y) ** 2 for y in b))
            return float(mpmath.acos(min(overlap / norms, 1)))

    worst = 0.0
    for scale in (1e-9, 1.0):  # near-parallel pairs, then unrelated ones
        for _ in range(300):
            dim = int(rng.integers(2, 5))
            a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            b = (1.0 - scale) * a + scale * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
            worst = max(worst, abs(geodesic_distance(a, b) - exact(a, b)))
    for scale in (0.0, 1e-9):  # orthogonal pairs, then near-orthogonal ones
        for _ in range(150):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = np.array([-a[1].conjugate(), a[0].conjugate()]) + scale * rng.normal(size=2)
            worst = max(worst, abs(geodesic_distance(a, b) - exact(a, b)))
    assert worst <= 1e-15, worst


def test_geodesic_scale_and_phase_invariant(rng):
    a = random_unit(rng, 3)
    b = random_unit(rng, 3)
    d = geodesic_distance(a, b)
    assert geodesic_distance(2.7 * a, b) == pytest.approx(d, abs=1e-12)
    assert geodesic_distance(a * np.exp(0.9j), b) == pytest.approx(d, abs=1e-12)


def test_geodesic_zero_vector():
    with pytest.raises(DomainError):
        geodesic_distance(np.zeros(2, dtype=complex), np.array([1.0, 0.0]))


def test_geodesic_non_finite():
    for bad in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(DomainError):
            geodesic_distance(np.array([bad, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            geodesic_distance(np.array([1.0, 0.0]), np.array([1.0, bad]))


def test_geodesic_huge_and_tiny_components():
    # each vector is scaled by a power of two first, so its norm cannot overflow
    assert geodesic_distance([1e200, 1e200], [1e200, 1e200]) == 0.0
    a, b = np.array([3.0, 4.0j]), np.array([1.0, 2.0 + 1.0j])
    d = geodesic_distance(a, b)
    for e in (-1070, -600, 600, 1020):
        assert geodesic_distance(a * 2.0 ** e, b) == d
        assert geodesic_distance(a, b * 2.0 ** e) == d


def test_hidden_prob_examples():
    assert hidden_prob(0.0) == 1.0
    assert hidden_prob(0.5 * math.pi) == 0.0
    assert hidden_prob(0.25 * math.pi) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        hidden_prob(-0.1)
    with pytest.raises(DomainError):
        hidden_prob(2.0)


def test_hidden_prob_generator_consistency(sine_eg, rng):
    for theta in rng.uniform(0.0, 0.5 * math.pi, size=50):
        theta = float(theta)
        p = hidden_prob(theta)
        assert sine_eg.forward(p) == pytest.approx(math.cos(theta) ** 2, abs=1e-12)


def test_round_trip_overlap(rng):
    for dim in (2, 3, 4, 5):
        for _ in range(25):
            a = random_unit(rng, dim)
            b = random_unit(rng, dim)
            theta = geodesic_distance(a, b)
            p = hidden_prob(theta)
            lifted = sine_extended().forward(p)
            assert lifted == pytest.approx(abs(np.vdot(a, b)) ** 2, abs=1e-10)


def test_ladder_trivial():
    assert ladder(0.5, -3, 3) == pytest.approx([0.5] * 7, abs=1e-15)
    assert ladder(1.0, -2, 2) == pytest.approx([1.0] * 5, abs=1e-15)


def test_ladder_recovers_overlap():
    P = math.cos(math.pi / 8) ** 2
    rungs = ladder(P, 0, 1)
    assert rungs[0] == pytest.approx(0.75, abs=1e-12)
    assert rungs[1] == pytest.approx(P, abs=1e-10)


def test_ladder_consecutive_consistency(sine_eg, rng):
    for _ in range(20):
        P = float(rng.uniform(0.0, 1.0))
        rungs = ladder(P, -3, 3)
        for lo, hi in zip(rungs[:-1], rungs[1:]):
            assert sine_eg.forward(lo) == pytest.approx(hi, abs=1e-12)


def test_ladder_validation():
    with pytest.raises(DomainError):
        ladder(1.2, 0, 1)
    with pytest.raises(DomainError):
        ladder(0.5, 2, 1)
    for k_from, k_to in ((0, LEVEL_CAP + 1), (-LEVEL_CAP - 1, -3)):
        with pytest.raises(LevelRangeError):
            ladder(0.5, k_from, k_to)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_ladder_rungs_are_the_per_level_iterates(rng):
    # the ladder steps out from level 0; each rung must be the bits of its own
    # |j|-fold iterate, also on ranges that do not contain level 0
    wobble = Generator("wobble",  # drifts up past 1 from just below it, so rungs clamp
                       forward=lambda p: np.asarray(p, dtype=float) * (1.0 + 1e-9),
                       inverse=lambda P: np.asarray(P, dtype=float) / (1.0 + 1e-9))
    cases = [(sine_extended(), float(P)) for P in rng.random(12)]
    cases += [(sine_extended(), P) for P in (0.0, 0.5, 1.0, 1e-300)]
    cases += [(ExtendedGenerator(wobble), 1.0 - 1e-15)]
    clamped = 0
    for egen, P in cases:
        p0 = hidden_prob(math.acos(math.sqrt(P)))
        for k_from, k_to in ((-3, 3), (2, 5), (-6, -2), (0, 0), (-1, 0), (-LEVEL_CAP, LEVEL_CAP)):
            c0 = clamp_count()
            rungs = ladder(P, k_from, k_to, egen=egen)
            c1 = clamp_count()
            ref = [eval_iterate(egen, j, p0) for j in range(k_from, k_to + 1)]
            assert _bits(rungs) == _bits(ref), (P, k_from, k_to)
            assert c1 - c0 == clamp_count() - c1, (P, k_from, k_to)
            clamped += c1 - c0
    assert clamped > 0


def test_projector_form_matches_expectation(rng):
    for dim in (2, 3, 4):
        for _ in range(20):
            a = random_unit(rng, dim)
            b = random_unit(rng, dim)
            form = projector_form(b)
            assert form.evaluate(a) == pytest.approx(abs(np.vdot(b, a)) ** 2, abs=1e-12)


def test_lifted_form_identity_projector(sine_eg):
    dim = 3
    eye = np.eye(dim)
    form = RealQuadraticForm(re_re=eye, im_im=eye.copy(), re_im=np.zeros((dim, dim)))
    a = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert lifted_form_value(form, a) == pytest.approx(1.0, abs=1e-10)
    zero = RealQuadraticForm(re_re=np.zeros((dim, dim)), im_im=np.zeros((dim, dim)),
                             re_im=np.zeros((dim, dim)))
    assert lifted_form_value(zero, a) == pytest.approx(0.0, abs=1e-12)


def test_lifted_form_matches_generator_image(sine_eg, rng):
    # one pull per coefficient, one correctly rounded sum, one push: the
    # worst distance seen over 5000 draws was 9.3e-14 at dimension 2-3
    # and 9.2e-13 at dimension 16
    for dim, draws, tol in ((2, 20, 1e-12), (3, 20, 1e-12), (16, 10, 1e-11)):
        for _ in range(draws):
            a = random_unit(rng, dim)
            b = random_unit(rng, dim)
            form = projector_form(b)
            direct = form.evaluate(a)
            assert lifted_form_value(form, a) == pytest.approx(
                sine_eg.forward(direct), abs=tol)


def test_lifted_form_phase_invariance(rng):
    a = random_unit(rng, 3)
    b = random_unit(rng, 3)
    form = projector_form(b)
    v1 = lifted_form_value(form, a)
    v2 = lifted_form_value(form, a * np.exp(1.3j))
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_lifted_form_rejects_non_finite():
    form = projector_form(np.array([1.0, 1.0j]))
    with pytest.raises(DomainError, match="not finite"):
        lifted_form_value(form, np.array([math.inf, 0.5]))
    bad = RealQuadraticForm(re_re=np.eye(2), im_im=np.full((2, 2), math.nan),
                            re_im=np.zeros((2, 2)))
    with pytest.raises(DomainError, match="not finite"):
        lifted_form_value(bad, np.array([0.6, 0.8j]))


def test_projector_form_zero_vector():
    with pytest.raises(DomainError):
        projector_form(np.zeros(3, dtype=complex))
