import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nncalc import bell
from nncalc.arithmetic import ArithmeticContext, arith
from nncalc.bell import (
    AngleQuad,
    ChScanReport,
    GMap,
    HalfCircleChar,
    TSIRELSON,
    ch_scan,
    ch_value_level0,
    ch_value_level1,
    condition_density_level0,
    hidden_overlap,
    overlap_integral,
    reduced_angle,
    refine_ch0_max,
    singlet_from_hidden,
)
from nncalc.calculus import LevelFunction, nn_integral
from nncalc.errors import DomainError, LevelRangeError
from nncalc.generator import (
    LEVEL_CAP,
    ExtendedGenerator,
    convex_combine,
    make_identity_generator,
    make_sine_generator,
    sine_extended,
)
from nncalc.probability import singlet_table

TWO_PI = 2.0 * math.pi

# mpmath (50 digits): sin(3 pi/8)^2 / 2, the lift of overlap 3/8
LIFTED_THREE_EIGHTHS = 0.42677669529663688110021109052621226


def test_reduced_angle():
    assert reduced_angle(0.0) == 0.0
    assert reduced_angle(math.pi) == pytest.approx(math.pi, abs=1e-15)
    assert reduced_angle(1.5 * math.pi) == pytest.approx(0.5 * math.pi, abs=1e-12)
    assert reduced_angle(-0.3) == pytest.approx(0.3, abs=1e-15)
    assert reduced_angle(7.0 * math.pi + 0.1) == pytest.approx(math.pi - 0.1, abs=1e-12)


def test_reduced_angle_of_a_non_finite_difference():
    # the remainder of inf was a NaN, with a RuntimeWarning
    quad = AngleQuad(0.0, 0.5 * math.pi, math.inf, 0.75 * math.pi)
    calls = [reduced_angle, lambda bad: reduced_angle(np.array([0.3, bad])),
             lambda bad: ch_value_level0(quad._replace(b=bad)),
             lambda bad: ch_value_level1(quad._replace(b=bad))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.inf, -math.inf, math.nan):
            for call in calls:
                with pytest.raises(DomainError, match="not finite"):
                    call(bad)
        with pytest.raises(DomainError, match="not finite"):  # an inf step never halved to 0
            refine_ch0_max(quad._replace(b=0.25 * math.pi), initial_step=math.inf)


def test_half_circle_measure():
    # a half circle overlaps itself in its own measure pi, a fraction 1/2 of the circle
    for phi in (0.0, 0.7, 3.9, -2.5):
        assert hidden_overlap(phi, phi) == 0.5


def test_half_circle_indicator():
    chi = HalfCircleChar(0.0)
    assert chi.indicator(0.3) == 1.0
    assert chi.indicator(math.pi) == 0.0
    assert chi.indicator(0.5 * math.pi) == 1.0  # boundary included
    lam = np.linspace(0.0, TWO_PI, 7)
    assert np.asarray(chi.indicator(lam)).shape == lam.shape


def test_overlap_examples():
    assert overlap_integral(0.4, 0.4) == pytest.approx(0.0, abs=1e-15)
    assert overlap_integral(0.4 + math.pi, 0.4) == pytest.approx(0.5, abs=1e-12)
    assert overlap_integral(0.5 * math.pi, 0.0) == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_raises(bad):
    # the closed form would turn a non-finite angle into NaN
    for call in (hidden_overlap, overlap_integral, singlet_from_hidden):
        for args in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(DomainError):
                call(*args)
    density = condition_density_level0(HalfCircleChar(bad))
    with pytest.raises(DomainError):
        density.integral_against(HalfCircleChar(0.0))
    with pytest.raises(DomainError):
        density.total()


def test_overlap_symmetry(rng):
    for _ in range(50):
        a, b = rng.uniform(-6.0, 10.0, size=2)
        assert overlap_integral(a, b) == pytest.approx(overlap_integral(b, a), abs=1e-12)
        d = reduced_angle(a - b)
        assert overlap_integral(a, b) == pytest.approx(0.5 * d / math.pi, abs=1e-12)


def test_overlap_monte_carlo(rng):
    # independent occupancy estimate of the same arc intersection
    lam = rng.uniform(0.0, TWO_PI, size=1_000_000)
    for a, b in ((1.0, 0.2), (4.5, 2.0)):
        chi_a = HalfCircleChar(a)
        chi_b = HalfCircleChar(b + math.pi)
        est = float(np.mean(chi_a.indicator(lam) * chi_b.indicator(lam)))
        assert est == pytest.approx(overlap_integral(a, b), abs=2e-3)


def test_conditioned_density():
    dens = condition_density_level0(HalfCircleChar(0.8))
    assert dens.total() == pytest.approx(1.0, abs=1e-12)
    assert dens.value(0.8) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert dens.value(0.8 + math.pi) == 0.0
    assert type(dens.value(0.8)) is float
    assert np.array_equal(dens.value(np.array([0.8, 0.8 + math.pi])), [1.0 / math.pi, 0.0])
    # conditional of a second outcome through the density
    other = HalfCircleChar(0.8 + 0.6)
    expected = (math.pi - 0.6) / math.pi
    assert dens.integral_against(other) == pytest.approx(expected, abs=1e-12)


def test_singlet_from_hidden_fixed_points():
    # overlap 1/2 (identical half circles) and overlap 1/4 are fixed points
    # of the lift; antipodal half circles do not overlap at all
    assert singlet_from_hidden(1.3, 1.3) == pytest.approx(0.5, abs=1e-14)
    assert singlet_from_hidden(0.0, 0.5 * math.pi) == pytest.approx(0.25, abs=1e-14)
    assert singlet_from_hidden(1.3, 1.3 + math.pi) == pytest.approx(0.0, abs=1e-14)


def test_singlet_from_hidden_lift_value():
    # overlap 3/8 corresponds to a quarter-pi separation
    a1, a2 = 0.0, 0.25 * math.pi
    assert hidden_overlap(a1, a2) == pytest.approx(0.375, abs=1e-14)
    assert singlet_from_hidden(a1, a2) == pytest.approx(LIFTED_THREE_EIGHTHS, abs=1e-13)


def test_singlet_from_hidden_matches_table(rng, sine_eg):
    for _ in range(100):
        base = float(rng.uniform(0.0, TWO_PI))
        theta = float(rng.uniform(0.0, math.pi))
        table = singlet_table(theta)
        off_diag = singlet_from_hidden(base, base + theta)
        diag = singlet_from_hidden(base, base + theta + math.pi)
        assert off_diag == pytest.approx(float(table[0][1]), abs=1e-10)
        assert diag == pytest.approx(float(table[0][0]), abs=1e-10)


def test_gmap_iterate_composes_in_one_cell_and_splits_across(sine_eg, rng):
    # on [0, 1/4], where 2x is a lower lane of one cell, G^k is bitwise the
    # k-fold composition of G; elsewhere g_R^k splits off n = floor(2x) and
    # folds the fraction once, not once per step: G^k(x) = (n + g_R^k(2x - n)) / 2
    gmap = GMap(sine_eg)
    lower, other = rng.uniform(0.0, 0.25, 200), rng.uniform(-2.0, 2.0, 200)
    other = other[(other < 0.0) | (other > 0.25)]
    for k in (1, -1, 2, -2, 5, -5):
        step = gmap.forward if k > 0 else gmap.inverse
        for x in [lower] + lower.tolist():
            want = x
            for _ in range(abs(k)):
                want = step(want)
            got = gmap.iterate(x, k)
            assert type(got) is type(want)
            assert np.array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64)), (x, k)
        for x in [other] + other.tolist():
            n = np.floor(2.0 * x) if isinstance(x, np.ndarray) else float(math.floor(2.0 * x))
            got, want = gmap.iterate(x, k), 0.5 * (n + sine_eg.iterate(2.0 * x - n, k))
            assert type(got) is type(x)
            assert np.array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64)), (x, k)
    with pytest.raises(LevelRangeError):
        gmap.iterate(0.25, LEVEL_CAP + 1)
    # k = 0 gives a float and drops the sign of a zero, as ExtendedGenerator does
    got = gmap.iterate(-0.0, 0)
    assert type(got) is float and math.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("which", ["forward", "inverse", "iterate"])
def test_gmap_rejects_an_array_element_whose_double_overflows(sine_eg, which):
    # as the scalar does: 2x = inf would map to a silent NaN; +-inf still gives NaN
    gmap = GMap(sine_eg)
    fn = (lambda x: gmap.iterate(x, 2)) if which == "iterate" else getattr(gmap, which)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e308, np.array([1e308, 0.1]), np.array([[0.1], [-1e308]])):
            with pytest.raises(DomainError, match=r"past the float range, got -?1e\+308$"):
                fn(x)
        out = fn(np.array([math.inf, -math.inf, math.nan, 0.1]))
    assert np.isnan(out[:3]).all()
    assert out[3] == fn(0.1)


def test_singlet_from_hidden_quadrature_route(sine_eg, rng):
    # cross-check the exact arc arithmetic against the lifted integral of
    # the indicator-product density
    gmap = GMap(sine_eg)
    for _ in range(5):
        a1 = float(rng.uniform(0.0, TWO_PI))
        a2 = a1 + float(rng.uniform(0.1, math.pi - 0.1))
        chi1, chi2 = HalfCircleChar(a1), HalfCircleChar(a2)

        def base(lam):
            return chi1.indicator(lam) * chi2.indicator(lam) / TWO_PI

        cuts = sorted(set(chi1.breakpoints()) | set(chi2.breakpoints()))
        fn = LevelFunction(base, gmap, 0, 1, tuple(cuts))
        via_quad = nn_integral(fn, 0.0, TWO_PI)
        assert via_quad == pytest.approx(singlet_from_hidden(a1, a2), abs=1e-10)


def test_level1_product_structure(sine_eg, rng):
    # the lifted integrand factorizes pointwise: the level-1 product of the
    # lifted factors equals the lift of the base product
    from nncalc.arithmetic import ArithmeticContext, arith

    ctx = ArithmeticContext(sine_eg, 1)
    chi1, chi2 = HalfCircleChar(0.9), HalfCircleChar(2.1)
    rho_base = 1.0 / TWO_PI
    rho_lift = sine_eg.forward(rho_base)
    for lam in rng.uniform(0.0, TWO_PI, size=40):
        c1 = float(chi1.indicator(lam))
        c2 = float(chi2.indicator(lam))
        lifted = arith(ctx, "mul", arith(ctx, "mul", c1, c2), rho_lift)
        direct = sine_eg.forward(c1 * c2 * rho_base)
        assert abs(lifted - direct) < 1e-12


def test_level1_projection_postulate(sine_eg):
    # integrating the lifted second indicator against the conditioned
    # density reproduces the level-1 conditional
    a1, a2 = 0.4, 1.7
    chi1, chi2 = HalfCircleChar(a1), HalfCircleChar(a2)
    dens = condition_density_level0(chi1)

    def base(lam):
        return chi2.indicator(lam) * dens.value(lam)

    cuts = sorted(set(chi1.breakpoints()) | set(chi2.breakpoints()))
    fn = LevelFunction(base, sine_eg, 0, 1, tuple(cuts))
    got = nn_integral(fn, 0.0, TWO_PI)
    want = sine_eg.forward(dens.integral_against(chi2))
    assert got == pytest.approx(want, abs=1e-8)


def test_ch_level1_degenerate_quad():
    quad = AngleQuad(0.0, 0.0, 0.5 * math.pi, 0.5 * math.pi)
    assert ch_value_level1(quad) == pytest.approx(1.0, abs=1e-12)


def test_ch_level1_range(rng):
    for _ in range(2000):
        quad = AngleQuad(*rng.uniform(0.0, TWO_PI, size=4))
        v = ch_value_level1(quad)
        assert -1e-9 <= v <= 2.0 + 1e-9


def test_ch_level0_values():
    chsh = AngleQuad(0.0, 0.5 * math.pi, 0.25 * math.pi, 0.75 * math.pi)
    assert ch_value_level0(chsh) == pytest.approx(TSIRELSON, abs=1e-12)
    same = AngleQuad(1.1, 1.1, 1.1, 1.1)
    assert ch_value_level0(same) == pytest.approx(2.0, abs=1e-12)
    anti = AngleQuad(0.0, 0.0, math.pi, math.pi)
    assert ch_value_level0(anti) == pytest.approx(0.0, abs=1e-12)


def _one_conditional(delta):
    return math.cos(0.5 * reduced_angle(delta)) ** 2


def _ch_level0_oracle(q):
    """The level-0 combination with one conditional call per term, as the oracle."""
    return (_one_conditional(q.a - q.b) - _one_conditional(q.a - q.b_prime)
            + _one_conditional(q.a_prime - q.b) + _one_conditional(q.a_prime - q.b_prime))


def _ch_level1_oracle(q, egen):
    """The level-1 combination with one conditional call per term, as the oracle."""
    ctx = ArithmeticContext(egen, 1)
    acc = arith(ctx, "sub", _one_conditional(q.a - q.b), _one_conditional(q.a - q.b_prime))
    acc = arith(ctx, "add", acc, _one_conditional(q.a_prime - q.b))
    return arith(ctx, "add", acc, _one_conditional(q.a_prime - q.b_prime))


def test_ch_values_are_bitwise_the_termwise_formulas(sine_eg):
    # the four conditionals are formed in one place for both levels; that
    # must not move a bit, whether the quad comes as AngleQuad, tuple or list
    rng = np.random.default_rng(20261019)
    angles = np.concatenate([rng.uniform(-TWO_PI, 2.0 * TWO_PI, size=(900, 4)),
                             rng.integers(-8, 17, size=(100, 4)) * (0.25 * math.pi)])
    for row in angles.tolist():
        q = AngleQuad(*row)
        for quad in (q, tuple(row), row):
            assert ch_value_level0(quad).hex() == _ch_level0_oracle(q).hex(), row
            assert ch_value_level1(quad, sine_eg).hex() == _ch_level1_oracle(q, sine_eg).hex(), row


def test_ch_level0_exceeds_level1_bound():
    chsh = AngleQuad(0.0, 0.5 * math.pi, 0.25 * math.pi, 0.75 * math.pi)
    assert ch_value_level0(chsh) > 2.0
    assert ch_value_level1(chsh) <= 2.0 + 1e-12


def test_ch_scan_coarse():
    report = ch_scan(math.radians(5.0))
    assert isinstance(report, ChScanReport)
    # 45-degree spacings lie on the 5-degree grid, so the scan attains the bound
    assert report.max0 == pytest.approx(TSIRELSON, abs=1e-12)
    assert report.max1 <= 2.0 + 1e-9
    assert report.tsirelson_check
    # the reported argmax reproduces the reported value
    assert ch_value_level0(report.argmax0) == pytest.approx(report.max0, abs=1e-12)
    assert ch_value_level1(report.argmax1) == pytest.approx(report.max1, abs=1e-9)


def test_ch_scan_off_grid_resolution():
    report = ch_scan(math.radians(7.0))
    assert report.max0 <= TSIRELSON + 1e-9
    assert report.max0 > TSIRELSON - 0.05


def test_ch_scan_validation():
    for resolution in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            ch_scan(resolution)


def test_ch_scan_grid_size_is_checked_before_any_allocation(monkeypatch):
    # 5e-324 raised a raw OverflowError; 1e-9 asked numpy for 46.8 GiB
    class Reached(Exception):
        pass

    def arange(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(bell.np, "arange", arange)
    for resolution in (5e-324, 1e-300, 1e-9, TWO_PI / (2**16 + 1)):
        with pytest.raises(DomainError, match="at most 65536 grid points"):
            ch_scan(resolution)
    with pytest.raises(Reached):  # the finest grid it takes passes the check
        ch_scan(TWO_PI / 2**16)


def _ch_scan_loop(resolution, egen=sine_extended()):
    """The scan as one numpy pass per a', the reference for ``ch_scan``."""
    n = max(4, int(round(TWO_PI / resolution)))
    step = TWO_PI / n
    grid = np.arange(n) * step
    red = np.pi - np.abs(np.pi - grid)          # reduced angle of each grid offset
    tcache = np.cos(0.5 * red) ** 2             # level-1 conditionals
    pcache = egen.inverse(tcache)               # their base-level pullbacks

    idx = np.arange(n)
    t_b = tcache[(-idx) % n]                    # t(a=0, b)
    p_b = pcache[(-idx) % n]

    best0 = -np.inf
    arg0 = (0, 0, 0)
    best_s = -np.inf
    arg1 = (0, 0, 0)
    for ia in range(n):
        shifted = (ia - idx) % n
        t_ab = tcache[shifted]                  # t(a', b) over b
        p_ab = pcache[shifted]
        u0 = t_b + t_ab                         # b-dependent part
        w0 = -t_b + t_ab                        # b'-dependent part (t2 uses the same offsets as t1)
        iu, iw = int(np.argmax(u0)), int(np.argmax(w0))
        v0 = u0[iu] + w0[iw]
        if v0 > best0:
            best0, arg0 = float(v0), (ia, iu, iw)
        us = p_b + p_ab
        ws = -p_b + p_ab
        ju, jw = int(np.argmax(us)), int(np.argmax(ws))
        s = us[ju] + ws[jw]
        if s > best_s:
            best_s, arg1 = float(s), (ia, ju, jw)

    max1 = egen.forward(best_s)
    quad0 = AngleQuad(0.0, arg0[0] * step, arg0[1] * step, arg0[2] * step)
    quad1 = AngleQuad(0.0, arg1[0] * step, arg1[1] * step, arg1[2] * step)
    ok = (best0 <= TSIRELSON + 1e-9) and (max1 <= 2.0 + 1e-9)
    return ChScanReport(max0=best0, argmax0=quad0, max1=float(max1), argmax1=quad1,
                        tsirelson_check=ok)


def _assert_same_report(got, want):
    assert got == want
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    fields = [got.max0, got.max1, *got.argmax0, *got.argmax1]
    assert all(type(v) is float for v in fields)


@pytest.mark.parametrize("resolution", [math.radians(d) for d in (0.1, 0.37, 1.0, 5.0, 7.0, 15.0)]
                         + [TWO_PI / 4])
def test_ch_scan_equals_loop(resolution, identity_eg):
    for egen in (sine_extended(), identity_eg):
        _assert_same_report(ch_scan(resolution, egen), _ch_scan_loop(resolution, egen))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 720), identity=st.booleans())
def test_ch_scan_equals_loop_on_any_grid(identity_eg, n, identity):
    # n > 256 takes several chunks, most of them with a short last one
    egen = identity_eg if identity else sine_extended()
    _assert_same_report(ch_scan(TWO_PI / n, egen), _ch_scan_loop(TWO_PI / n, egen))


def test_ch_scan_pulls_the_conditionals_back_through_its_generator():
    # the scan pulled back through the sine's closed form 1 - d/pi whatever the
    # generator, and gave max1 = 2.0 for this one, below this quad's 2.153
    egen = ExtendedGenerator(convex_combine([make_sine_generator(), make_identity_generator()],
                                            [0.5, 0.5]))
    report = ch_scan(TWO_PI / 24, egen)
    assert report.max1 == 2.1529787403112937
    assert not report.tsirelson_check
    assert report.max1 == ch_value_level1(report.argmax1, egen)


@pytest.mark.parametrize("chunk_elems", [1, 72 * 5 + 3, 72 * 72])
def test_ch_scan_equals_loop_at_any_chunk_size(monkeypatch, chunk_elems):
    # 5-degree grid, n = 72: one row per chunk, 5 rows with a short last
    # chunk, and the whole table in one chunk
    monkeypatch.setattr(bell, "_CHUNK_ELEMS", chunk_elems)
    _assert_same_report(ch_scan(math.radians(5.0)), _ch_scan_loop(math.radians(5.0)))


def test_ch_scan_working_set_is_bounded():
    # a 3600 x 3600 float64 table would take 104 MB
    tracemalloc.start()
    try:
        ch_scan(math.radians(0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


def test_refine_ch0_max():
    start = AngleQuad(0.02, 0.5 * math.pi - 0.03, 0.25 * math.pi + 0.01, 0.75 * math.pi + 0.02)
    quad, value = refine_ch0_max(start, initial_step=0.05)
    assert value == pytest.approx(TSIRELSON, abs=1e-9)


def test_report_json_shape():
    report = ch_scan(math.radians(15.0))
    d = report.to_json_dict()
    assert set(d) == {"max0", "argmax0", "max1", "argmax1", "tsirelson_check"}
    assert len(d["argmax0"]) == 4 and len(d["argmax1"]) == 4


def test_report_dict_from_its_fields_writes_the_same_json(identity_eg):
    # the dict as spelled out key by key before asdict, argmax quads as lists
    for deg in (0.5, 1.0, 7.0, 15.0, 90.0):
        for egen in (sine_extended(), identity_eg):
            report = ch_scan(math.radians(deg), egen)
            want = {"max0": report.max0, "argmax0": list(report.argmax0), "max1": report.max1,
                    "argmax1": list(report.argmax1), "tsirelson_check": report.tsirelson_check}
            for kwargs in ({}, {"sort_keys": True, "indent": 2, "allow_nan": False}):
                assert json.dumps(report.to_json_dict(), **kwargs) == json.dumps(want, **kwargs)
