import math

import numpy as np
import pytest

from nncalc.errors import DomainError
from nncalc.fubini import (
    RealQuadraticForm,
    geodesic_distance,
    hidden_prob,
    ladder,
    lifted_form_value,
    projector_form,
)
from nncalc.generator import sine_extended


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


def test_geodesic_scale_and_phase_invariant(rng):
    a = random_unit(rng, 3)
    b = random_unit(rng, 3)
    d = geodesic_distance(a, b)
    assert geodesic_distance(2.7 * a, b) == pytest.approx(d, abs=1e-12)
    assert geodesic_distance(a * np.exp(0.9j), b) == pytest.approx(d, abs=1e-12)


def test_geodesic_zero_vector():
    with pytest.raises(DomainError):
        geodesic_distance(np.zeros(2, dtype=complex), np.array([1.0, 0.0]))


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
