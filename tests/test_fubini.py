import math
import warnings

import numpy as np
import pytest

from conftest import CountingGenerator
from nncalc.arithmetic import ArithmeticContext, _sum_push
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
from nncalc.generator import LEVEL_CAP, sine_extended


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


def test_geodesic_dimensions_must_agree():
    with pytest.raises(DomainError, match="dimensions 2 and 3 differ"):
        geodesic_distance([1.0, 0.0], [1.0, 0.0, 0.0])


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
    egen = sine_extended()
    for P in [float(P) for P in rng.random(12)] + [0.0, 0.5, 1.0, 1e-300]:
        p0 = hidden_prob(math.acos(math.sqrt(P)))
        for k_from, k_to in ((-3, 3), (2, 5), (-6, -2), (0, 0), (-1, 0), (-LEVEL_CAP, LEVEL_CAP)):
            rungs = ladder(P, k_from, k_to, egen=egen)
            ref = [egen.iterate(p0, j) for j in range(k_from, k_to + 1)]
            assert _bits(rungs) == _bits(ref), (P, k_from, k_to)


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


def test_lifted_form_whose_terms_overflow():
    # finite inputs whose terms overflow, to inf - inf or to inf * 0: the sum
    # is rejected, and numpy warns of neither first; in the last case fsum
    # overflows on a partial sum of finite terms before an inf term, and the
    # exact fallback, which cannot take an inf, must reject the sum too
    cases = [(np.diag([1.0, -1.0]), [1e200, 1e200]),
             (np.array([[0.0, 1e200], [0.0, 0.0]]), [1e200, 0.0]),
             (np.ones((3, 3)), [1e154, 1e154, 1e200])]
    for re_re, a in cases:
        zero = np.zeros_like(re_re)
        form = RealQuadraticForm(re_re=re_re, im_im=zero, re_im=zero)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="is not finite"):
                lifted_form_value(form, np.array(a))
        assert not caught, [str(w.message) for w in caught]


def test_lifted_form_dimensions_must_agree():
    form = projector_form(np.array([1.0, 1.0j]))
    for a in (np.array([0.6, 0.8j, 0.0]), np.array([1.0]), np.array([[0.6, 0.8j]])):
        with pytest.raises(DomainError, match="does not fit"):
            lifted_form_value(form, a)


def test_projector_form_rejects_non_finite():
    # the norm was inf or NaN, and the form NaN after a RuntimeWarning
    for bad in (math.inf, math.nan, complex(0.0, -math.inf)):
        with pytest.raises(DomainError, match="not finite"):
            projector_form(np.array([bad, 1.0]))


def test_projector_form_of_huge_components():
    # the norm of (1e200, 1e200) overflowed, and the form came out all zero
    big = projector_form(np.array([1e200, 1e200]))
    unit = projector_form(np.array([1.0, 1.0]))
    for field in ("re_re", "im_im", "re_im"):
        assert getattr(big, field).tobytes() == getattr(unit, field).tobytes(), field


def test_projector_form_zero_vector():
    with pytest.raises(DomainError, match="projector form is undefined for the zero vector"):
        projector_form(np.zeros(3, dtype=complex))


def test_geodesic_zero_vector_is_reported_before_a_dimension_mismatch():
    with pytest.raises(DomainError, match="geodesic distance is undefined for the zero vector"):
        geodesic_distance([0.0, 0.0], [1.0, 0.0, 0.0])


def _unit_scaled_oracle(v):
    parts = v.view(float)
    return np.ldexp(parts, -math.frexp(float(np.abs(parts).max(initial=0.0)))[1]).view(complex)


def _geodesic_oracle(a, b):
    """geodesic_distance as two separate normalizations, the form before _unit_ray."""
    a = np.ascontiguousarray(a, dtype=complex)
    b = np.ascontiguousarray(b, dtype=complex)
    a, b = _unit_scaled_oracle(a), _unit_scaled_oracle(b)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    a, b = a / na, b / nb
    c = complex(np.vdot(a, b))
    overlap = abs(c)
    if overlap <= 0.5:
        return math.acos(overlap)
    return 2.0 * math.asin(0.5 * float(np.linalg.norm(a * (c / overlap) - b)))


def _projector_oracle(b):
    b = _unit_scaled_oracle(np.ascontiguousarray(b, dtype=complex))
    b = b / float(np.linalg.norm(b))
    u, v = b.real, b.imag
    sym = np.outer(u, u) + np.outer(v, v)
    cross = 2.0 * (np.outer(u, v) - np.outer(v, u))
    return RealQuadraticForm(re_re=sym, im_im=sym.copy(), re_im=cross)


def _vector_pairs(rng):
    """Random, huge, tiny, near-parallel and orthogonal pairs, real and complex."""
    for dim in (1, 2, 3, 5, 8):
        for _ in range(60):
            a, b = random_unit(rng, dim), random_unit(rng, dim)
            yield a, b
            yield a * 2.0 ** rng.integers(-1070, 1020), b * 1e300
            yield a * 1e-300, b.real
            yield a, a * np.exp(1j * rng.uniform(0, 2 * math.pi)) + 1e-9 * random_unit(rng, dim)
            yield a, a + rng.uniform(-1e-15, 1e-15, dim)
    yield [1, 1j], [1, -1j]
    yield [1, 1], [1, -1]
    yield [3, 4j], [4, -3j]
    yield [1e308, -1e308j], [1e308, 1e308j]
    yield [5e-324, 0.0], [0.0, 5e-324]


def _same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_unit_ray_keeps_the_bits_of_both_normalizations(rng):
    egen = sine_extended()
    for a, b in _vector_pairs(rng):
        assert _same_bits(geodesic_distance(a, b), _geodesic_oracle(a, b)), (a, b)
        got, want = projector_form(b), _projector_oracle(b)
        for field in ("re_re", "im_im", "re_im"):
            assert _same_bits(getattr(got, field), getattr(want, field)), (b, field)
        if np.size(a) <= 3:  # huge components overflow both lifted forms alike
            assert _lifted_outcome(got, a, egen) == _lifted_outcome(want, a, egen)


def _lifted_outcome(form, a, egen):
    try:
        return lifted_form_value(form, a, egen).hex()
    except DomainError as exc:
        return str(exc)


def _lifted_per_part_oracle(form, a, egen):
    """lifted_form_value with each of its five parts lifted and pulled back in
    calls of its own, the form before the one array call."""
    a = np.asarray(a, dtype=complex)
    parts = (a.real, a.imag, form.re_re, form.im_im, form.re_im)
    x, y, xx, yy, xy = (egen.iterate(egen.forward(v), -1) for v in parts)
    terms = [x[:, None] * xx * x, y[:, None] * yy * y, x[:, None] * xy * y]
    return _sum_push(ArithmeticContext(egen, 1), "lifted_form_value",
                     np.concatenate(terms, axis=None).tolist()).hex()


def _lifted_cases(rng):
    """Projector forms and signed forms whose coefficients span several unit cells,
    at odd and even dimensions and at one that takes two array blocks."""
    for dim in (1, 2, 3, 4, 5, 80):
        for _ in range(40 if dim <= 5 else 2):
            a = random_unit(rng, dim) * rng.uniform(0.25, 3.0)
            if rng.random() < 0.5:
                yield projector_form(random_unit(rng, dim)), a
            else:
                re_re, im_im, re_im = rng.uniform(-3.0, 3.0, size=(3, dim, dim))
                yield RealQuadraticForm(re_re=re_re, im_im=im_im, re_im=re_im), a


def test_lifted_form_keeps_the_bits_of_the_per_part_pulls(sine_eg, convex_eg, rng):
    for egen in (sine_eg, convex_eg):
        for form, a in _lifted_cases(rng):
            assert _lifted_outcome(form, a, egen) == _lifted_per_part_oracle(form, a, egen), a


def test_lifted_form_makes_one_lift_and_one_pull(sine_gen, rng):
    # the pull is iterate(., -1); the last iterate is the push of the sum
    for dim in (1, 3, 4):
        egen = CountingGenerator(sine_gen)
        lifted_form_value(projector_form(random_unit(rng, dim)), random_unit(rng, dim), egen)
        assert egen.calls == [("forward", None), ("iterate", -1), ("iterate", 1)]
