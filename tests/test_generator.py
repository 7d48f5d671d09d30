import dataclasses
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nncalc
import test_contract as contract
from conftest import resolvable, run_python
from nncalc import generator
from nncalc.arithmetic import ArithmeticContext, arith, level_sum
from nncalc.errors import ConfigError, DomainError, LevelRangeError
from nncalc.fubini import ladder as fubini_ladder
from nncalc.probability import CondNode, CondTree, tree_normalization
from nncalc.generator import (
    _BLOCK,
    LEVEL_CAP,
    ExtendedGenerator,
    Generator,
    clamp_count,
    convex_combine,
    effective_band,
    eval_iterate,
    generator_from_config,
    h_view,
    load_generator,
    make_identity_generator,
    make_sine_generator,
    reset_clamp_count,
    sine_extended,
    validate_generator,
)

# mpmath (50 digits): sin(pi/8)^2
SINE_QUARTER = 0.14644660940672623779957781894757548
# mpmath (50 digits): sin((pi/2) * sin(pi/8)^2)^2, the two-fold composition at 0.25
SINE_TWOFOLD_QUARTER = 0.051990532036596710274154387914558
# mpmath (50 digits): sin(pi*0.25)/2
H_QUARTER = 0.35355339059327376220042218105242452


def test_sine_fixed_points_exact(sine_gen):
    assert sine_gen.forward(0.0) == 0.0
    assert sine_gen.forward(1.0) == 1.0
    assert sine_gen.forward(0.5) == 0.5
    assert sine_gen.inverse(0.0) == 0.0
    assert sine_gen.inverse(1.0) == 1.0
    assert sine_gen.inverse(0.5) == 0.5


def test_sine_quarter_value(sine_gen):
    assert sine_gen.forward(0.25) == pytest.approx(SINE_QUARTER, abs=1e-15)
    assert sine_gen.inverse(SINE_QUARTER) == pytest.approx(0.25, abs=1e-14)


def test_sine_passes_invariant_suite(sine_gen):
    validate_generator(sine_gen)


def test_identity_passes_invariant_suite():
    validate_generator(make_identity_generator())


@given(st.floats(min_value=0.0, max_value=1.0))
def test_functional_equation(p):
    gen = make_sine_generator()
    assert gen.forward(p) + gen.forward(1.0 - p) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=-0.5, max_value=0.5))
def test_h_view_is_odd(x):
    gen = make_sine_generator()
    assert h_view(gen, -x) == pytest.approx(-h_view(gen, x), abs=1e-12)


def test_h_view_values(sine_gen):
    assert h_view(sine_gen, 0.0) == 0.0
    assert h_view(sine_gen, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert h_view(sine_gen, 0.25) == pytest.approx(H_QUARTER, abs=1e-13)


def test_h_view_domain(sine_gen):
    with pytest.raises(DomainError):
        h_view(sine_gen, 0.6)
    for bad in (math.nan, np.array([0.1, math.nan])):
        with pytest.raises(DomainError):
            h_view(sine_gen, bad)
    assert h_view(sine_gen, np.array([])).shape == (0,)


def test_eval_iterate_identity_and_fixed_point(sine_eg):
    assert eval_iterate(sine_eg, 0, 0.7) == 0.7
    assert eval_iterate(sine_eg, -1, 0.5) == 0.5
    assert eval_iterate(sine_eg, 7, 0.5) == 0.5


def test_eval_iterate_twofold(sine_eg):
    assert eval_iterate(sine_eg, 2, 0.25) == pytest.approx(SINE_TWOFOLD_QUARTER, abs=1e-13)


def test_eval_iterate_cap(sine_eg):
    with pytest.raises(LevelRangeError):
        eval_iterate(sine_eg, 65, 0.3)
    with pytest.raises(LevelRangeError):
        sine_eg.iterate(0.3, -65)


def test_a_non_integer_level_raises_on_the_scalar_path():
    # a float level that counts 1.5 -> 0.5 -> -0.5 ... past 0 would never
    # return, so the calls run in a child that a timeout ends
    out = run_python("""
import math
from nncalc.arithmetic import ArithmeticContext, arith
from nncalc.errors import LevelRangeError
from nncalc.generator import sine_extended
from nncalc.lln import LevelBinomial
from nncalc.probability import level_shift
eg = sine_extended()
calls = [lambda: eg.iterate(0.3, 1.5), lambda: eg.iterate(0.3, math.nan),
         lambda: eg.iterate(-2.7, 2.0), lambda: eg.iterate(0.3, -0.5),
         lambda: arith(ArithmeticContext(eg, 0.5), "add", 0.25, 0.5),
         lambda: level_shift(0.3, 1.5, eg),
         lambda: LevelBinomial(N=10, p=0.3, k=1.5).effective()]
for call in calls:
    try:
        call()
    except LevelRangeError as exc:
        print(exc)
    else:
        print("returned")
""")
    assert out.splitlines() == [
        "level 1.5 is not an integer", "level nan is not an integer",
        "level 2.0 is not an integer", "level -0.5 is not an integer",
        "level -0.5 is not an integer", "level 1.5 is not an integer",
        "level 1.5 is not an integer"]


@pytest.mark.parametrize("k", [1.5, -0.5, 2.0, math.nan, np.float64(3.0), "2", None])
def test_a_non_integer_level_raises_on_the_array_path(sine_eg, k):
    for x in (np.array([0.3, 0.7, 2.5]), np.linspace(-3.0, 3.0, 2 * _BLOCK + 1), np.array(math.nan)):
        with pytest.raises(LevelRangeError, match="is not an integer"):
            sine_eg.iterate(x, k)


@pytest.mark.parametrize("k", [np.int64(3), np.int32(-2), np.uint8(5), True, False])
def test_integer_like_levels_keep_their_bits(sine_eg, k):
    xs, _ = _unit_sample()
    xs = np.concatenate([xs[:500], np.linspace(-3.0, 3.0, 501)])
    assert _same_bits(sine_eg.iterate(xs, k), sine_eg.iterate(xs, int(k)))
    outs = [sine_eg.iterate(x, k) for x in xs[::7].tolist()]
    assert all(type(out) is float for out in outs)
    assert _same_bits(np.array(outs), sine_eg.iterate(xs[::7], int(k)))


def test_iterate_roundtrip(sine_eg):
    # Forward orbits approach 0 and 1 super-exponentially; once an iterate
    # comes within an ulp of 1 the double grid can no longer represent it
    # (g^10(0.55) = 1 - 2.6e-18 rounds to 1.0) and no inverse can recover.
    # The round trip is asserted wherever the intermediate stays resolvable;
    # saturated points must absorb exactly onto the fixed endpoint.
    # an iterate at distance d from 1 carries relative error ~ulp/d, so the
    # 1e-9 claim is asserted where d clears 1e-7
    ps = np.linspace(0.0, 1.0, 101)
    for k in range(1, 11):
        mid = np.asarray(eval_iterate(sine_eg, k, ps))
        back = np.asarray(eval_iterate(sine_eg, -k, mid))
        resolvable = np.minimum(mid, 1.0 - mid) > 1e-7
        err = np.abs(back - ps)
        assert np.max(err[resolvable]) < 1e-9, f"k={k}"
        plateau = (mid == 0.0) | (mid == 1.0)
        assert np.all(back[plateau] == mid[plateau])


def test_iterate_roundtrip_contracting_first(sine_eg):
    # Pulling first contracts toward the fixed point 1/2, so this order
    # holds uniformly on the whole interval.
    ps = np.linspace(0.0, 1.0, 101)
    for k in range(1, 11):
        back = eval_iterate(sine_eg, k, eval_iterate(sine_eg, -k, ps))
        assert np.max(np.abs(back - ps)) < 1e-9, f"k={k}"


def test_complement_equation_for_iterates(sine_eg):
    ps = np.linspace(0.0, 1.0, 1001)
    qs = 1.0 - ps
    for k in range(-15, 16):
        resid = np.abs(eval_iterate(sine_eg, k, ps) + eval_iterate(sine_eg, k, qs) - 1.0)
        assert float(np.max(resid)) < 1e-10, f"k={k}"


def test_sign_of_displacement(sine_eg):
    lower = np.linspace(0.001, 0.499, 200)
    upper = 1.0 - lower
    assert np.all(eval_iterate(sine_eg, 1, lower) < lower)
    assert np.all(eval_iterate(sine_eg, 1, upper) > upper)
    # iterates decrease monotonically toward 0 on (0, 1/2)
    cur = lower.copy()
    for _ in range(15):
        nxt = eval_iterate(sine_eg, 1, cur)
        assert np.all(nxt <= cur)
        cur = nxt


def test_extension_fixes_integers(sine_eg):
    for n in range(-10, 11):
        assert sine_eg.forward(float(n)) == float(n)
        assert sine_eg.inverse(float(n)) == float(n)


def test_extension_translation_consistency(sine_eg):
    xs = np.linspace(-5.0, 5.0, 501)
    assert np.max(np.abs(sine_eg.forward(xs + 1.0) - (sine_eg.forward(xs) + 1.0))) < 1e-12


def test_extension_monotone_bijective(sine_eg):
    xs = np.linspace(-10.0, 10.0, 4001)
    ys = sine_eg.forward(xs)
    assert np.all(np.diff(ys) > 0.0)
    assert np.max(np.abs(sine_eg.inverse(ys) - xs)) < 1e-12


def test_convex_single_component_unchanged(sine_gen):
    combo = convex_combine([sine_gen], [1.0])
    ps = np.linspace(0.0, 1.0, 97)
    assert np.max(np.abs(np.asarray(combo.forward(ps)) - np.asarray(sine_gen.forward(ps)))) == 0.0


def test_convex_fixed_point(sine_gen):
    combo = convex_combine([sine_gen, make_identity_generator()], [0.5, 0.5])
    assert combo.forward(0.5) == pytest.approx(0.5, abs=1e-15)


def test_convex_weighted_average_oracle(sine_gen):
    combo = convex_combine([sine_gen, make_identity_generator()], [0.5, 0.5])
    # independent weighted-average oracle at p = 0.25
    expected = 0.5 * sine_gen.forward(0.25) + 0.5 * 0.25
    assert combo.forward(0.25) == pytest.approx(expected, abs=1e-16)
    assert combo.forward(0.25) == pytest.approx(0.19822330470336311890, abs=1e-14)


def test_convex_inverse_bisection(sine_gen):
    combo = convex_combine([sine_gen, make_identity_generator()], [0.3, 0.7])
    ps = np.linspace(0.0, 1.0, 201)
    back = np.asarray(combo.inverse(combo.forward(ps)))
    assert np.max(np.abs(back - ps)) < 1e-12
    assert combo.inverse(0.0) == 0.0
    assert combo.inverse(1.0) == 1.0


@pytest.mark.parametrize("weights", ([0.3, 0.7], [0.5, 0.5]))
def test_convex_inverse_fixes_one_half(sine_gen, weights):
    # the first bisection midpoint is 1/2 and g(1/2) <= 1/2, so the search
    # used to end in the middle of [1/2, 1/2 + 2**-47]
    combo = convex_combine([sine_gen, make_identity_generator()], weights)
    assert _bits(combo.inverse(0.5)) == _bits(0.5)
    out = combo.inverse(np.array([0.25, 0.5, 0.75]))
    assert _bits(out[1]) == _bits(0.5) and out[0] < 0.5 < out[2]


def test_convex_inverse_of_empty_array():
    # an empty array has nothing to bisect; the convergence test must not reduce over it
    combo = convex_combine([make_sine_generator(), make_identity_generator()], [0.5, 0.5])
    for inv in (combo.inverse, ExtendedGenerator(combo).inverse):
        got = inv(np.array([]))
        assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == (0,)


CONVEX = convex_combine([make_sine_generator(), make_identity_generator()], [0.3, 0.7])


def test_convex_maps_keep_the_complement_symmetry():
    # each map is its lower branch and one fold, so for p in (1/2, 1), where
    # 1 - p is exact, g(p) and 1 - g(1 - p) agree bitwise
    p = np.random.default_rng(17).uniform(0.5, 1.0, 20_000)
    p = p[p > 0.5]
    for fn in (CONVEX.forward, CONVEX.inverse):
        assert _same_bits(fn(p), 1.0 - fn(1.0 - p)), fn
        for x in p[:40].tolist() + [math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)]:
            assert _bits(fn(x)) == _bits(1.0 - fn(1.0 - x)), (fn, x)


def test_convex_weights_are_divided_by_their_sum(sine_gen):
    # weights that sum to 1 + 5e-13 pass convex_combine; divided by their
    # sum, the lower branch meets 1/2 at 1/2, and the fold keeps the map
    # rising there: undivided, it dropped by 2.5e-13 across 1/2
    combo = convex_combine([sine_gen, make_identity_generator()], [0.5, 0.5 + 5e-13])
    egen = ExtendedGenerator(combo)
    steps = np.arange(1, 300)
    grid = np.sort(np.concatenate([0.5 - steps * 2.0**-54, [0.5], 0.5 + steps * 2.0**-53,
                                   np.linspace(0.45, 0.55, 2001)]))
    for out in (combo.forward(grid), egen.iterate(grid, 2)):
        assert np.all(np.diff(out) >= 0.0)
    for out in (combo.forward(0.5), combo.forward(np.array([0.5]))[0], egen.iterate(0.5, 2),
                egen.iterate(np.array([0.5]), 2)[0]):
        assert _bits(out) == _bits(0.5)


def test_convex_scalar_is_a_builtin_float_equal_to_its_array_element():
    xs = [0.0, -0.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 1.0,
          math.nextafter(1.0, 0.0), 5e-324, 1e-300, 1, np.float64(0.25), np.float32(0.75)]
    xs += np.random.default_rng(19).random(100).tolist()
    for fn in (CONVEX.forward, CONVEX.inverse):
        for x in xs:
            out = fn(x)
            assert type(out) is float, (fn, x)
            assert _bits(out) == _bits(fn(np.array([x], dtype=float))), (fn, x)


@pytest.mark.parametrize("which", ["forward", "inverse"])
def test_convex_maps_of_nan_0d_and_empty_input(which):
    # NaN, a 0-d array and an empty array run the extended array path, which
    # keeps NaN, makes a 0-d result a float and an empty one an empty array
    fn = getattr(CONVEX, which)
    for x in (math.nan, np.float64(math.nan), np.array(math.nan)):
        out = fn(x)
        assert np.ndim(out) == 0 and math.isnan(out), x
    out = fn(np.array(0.2))
    assert np.ndim(out) == 0 and _bits(out) == _bits(fn(0.2))
    empty = fn(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.dtype == float and empty.shape == (0,)
    out = fn(np.array([math.nan, 0.2, 0.9]))
    assert math.isnan(out[0]) and np.isfinite(out[1:]).all()


# leaves [0, 1] by 2 ulps at 1, and keeps every other invariant within
# validate_generator's tolerance
WOBBLE = Generator("wobble",
                   forward=lambda p: np.asarray(p, dtype=float) * (1.0 + 4e-16),
                   inverse=lambda P: np.asarray(P, dtype=float) / (1.0 + 4e-16))


def test_validate_rejects_a_forward_that_leaves_the_unit_interval(sine_gen):
    with pytest.raises(DomainError, match="leaves"):
        validate_generator(WOBBLE)
    # weights that sum to 1 + 5e-13 pass convex_combine, which divides them
    # by their sum; its forward stops at 1
    combo = convex_combine([sine_gen, make_identity_generator()], [0.5, 0.5 + 5e-13])
    assert float(np.max(combo.forward(np.linspace(0.0, 1.0, 1001)))) == 1.0
    validate_generator(combo)


# validate_generator calls the maps on arrays only
@pytest.mark.parametrize("forward,inverse,message", [
    (lambda p: 0.5 * p + 0.25, lambda p: 2.0 * p - 0.5, "endpoints not fixed"),
    (lambda p: np.where(np.abs(p - 0.5) < 0.1, 0.5, p), lambda p: p,
     "forward not strictly increasing"),
    (lambda p: p, lambda p: p * p, "inverse round-trip off by"),
    (lambda p: p * p, np.sqrt, "complement equation violated"),
], ids=["endpoints", "monotone", "round-trip", "complement"])
def test_validate_names_the_invariant_that_fails(forward, inverse, message):
    with pytest.raises(DomainError, match=f"^bad: {message}"):
        validate_generator(Generator("bad", forward, inverse))


def test_convex_validation():
    sine = make_sine_generator()
    with pytest.raises(DomainError):
        convex_combine([], [])
    with pytest.raises(DomainError):
        convex_combine([sine], [0.5])
    with pytest.raises(DomainError):
        convex_combine([sine, sine], [0.7, 0.4])
    with pytest.raises(DomainError):
        convex_combine([sine, sine], [1.5, -0.5])


def test_convex_needs_one_weight_per_generator():
    sine = make_sine_generator()
    with pytest.raises(DomainError, match="one weight per generator required"):
        convex_combine([sine, sine], [1.0])


def test_convex_rejects_nan_weights():
    sine = make_sine_generator()
    with pytest.raises(DomainError):
        convex_combine([sine, sine], [math.nan, 0.5])
    with pytest.raises(DomainError):
        convex_combine([sine, sine], [0.5, math.nan])
    with pytest.raises(DomainError):
        convex_combine([sine, sine], [1e308, 1e308])  # must not overflow the sum check


def test_convex_random_weights_pass_invariants(rng):
    gens = [make_sine_generator(), make_identity_generator()]
    for _ in range(5):
        w = rng.uniform(0.05, 1.0, size=2)
        w = w / w.sum()
        combo = convex_combine(gens, [float(w[0]), float(w[1])])
        validate_generator(combo)


def test_effective_band_trivial_resolution(sine_eg):
    report = effective_band(sine_eg, 1.0 - 1e-12)
    assert (report.k_min, report.k_max) == (0, 0)


def test_effective_band_identity(identity_eg):
    report = effective_band(identity_eg, 0.01)
    assert (report.k_min, report.k_max) == (0, 0)
    assert not report.saturated


def test_effective_band_sine(sine_eg):
    report = effective_band(sine_eg, 0.01)
    assert 12 <= report.k_max <= 18
    assert report.k_min <= 0 <= report.k_max


def test_effective_band_saturation(sine_eg):
    # the inverse scan reaches the cap: inverse iterates close in on 1/2 by a
    # factor 2/pi a step, so at k = 64 successive ones still differ by ~1e-13
    report = effective_band(sine_eg, 1e-14)
    assert report.saturated
    assert report.k_min == -LEVEL_CAP


def test_effective_band_domain(sine_eg):
    with pytest.raises(DomainError):
        effective_band(sine_eg, 0.0)
    with pytest.raises(DomainError):
        effective_band(sine_eg, 1.5)


def test_generator_from_config():
    gen = generator_from_config("sine")
    assert gen.name == "sine"
    gen = generator_from_config({"name": "identity"})
    assert gen.name == "identity"
    combo = generator_from_config({
        "name": "convex",
        "components": ["sine", {"name": "identity"}],
        "weights": [0.25, 0.75],
    })
    assert combo.forward(0.5) == pytest.approx(0.5, abs=1e-15)


def test_generator_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        generator_from_config({"name": "sine", "wavelength": 2})
    with pytest.raises(ConfigError):
        generator_from_config({"name": "triangular"})
    with pytest.raises(ConfigError):
        generator_from_config({"name": "convex", "components": ["sine"]})
    with pytest.raises(ConfigError):
        generator_from_config({"name": "convex", "components": ["sine"], "weights": [0.5]})
    with pytest.raises(ConfigError, match="^generator config must be an object, got int$"):
        generator_from_config(42)
    # components and weights must be lists, the weights of numbers
    for comps, weights in ((5, [1]), ("sine", [1]), (["sine"], 1), (["sine"], ["x"]),
                           (["sine"], [None])):
        with pytest.raises(ConfigError):
            generator_from_config({"name": "convex", "components": comps, "weights": weights})


def test_builtins_are_shared_and_only_configs_are_validated(monkeypatch, tmp_path):
    import nncalc.generator as generator

    def refuse(gen, *args, **kwargs):
        raise AssertionError(f"validated {gen.name}")

    monkeypatch.setattr(generator, "validate_generator", refuse)
    for name in ("sine", "identity"):
        assert load_generator(name) is load_generator(name)
        assert generator_from_config({"name": name}) is load_generator(name)
    assert ExtendedGenerator(load_generator("sine")).base is sine_extended().base
    path = tmp_path / "gen.json"
    path.write_text('{"name": "convex", "components": ["sine", "identity"], "weights": [0.5, 0.5]}')
    with pytest.raises(AssertionError, match="validated convex"):
        load_generator(str(path))


def test_every_egen_default_is_the_shared_sine_extension():
    import importlib
    import inspect
    import pkgutil

    import nncalc

    defaults = {}
    for info in pkgutil.iter_modules(nncalc.__path__):
        module = importlib.import_module(f"nncalc.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or dataclasses.is_dataclass(obj)):
                continue
            param = inspect.signature(obj).parameters.get("egen")
            if param is not None and param.default is not inspect.Parameter.empty:
                defaults[f"{info.name}.{name}"] = param.default
    assert sorted(defaults) == [
        "bell.ch_scan", "bell.ch_value_level1", "bell.singlet_from_hidden",
        "fubini.ladder", "fubini.lifted_form_value", "lln.LevelBinomial", "lln.fig3_table",
        "probability.joint_product", "probability.level_shift",
        "probability.normalization_residual", "probability.tree_joint",
        "probability.tree_normalization"]
    for name, default in defaults.items():
        assert default is sine_extended(), name


def test_shared_generator_thread_safety(sine_eg, monkeypatch):
    # generators are immutable and all operations are pure, so concurrent
    # use of one shared instance must reproduce the serial results; at
    # k != 0 each call also runs its 4 blocks on 3 workers of its own
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(generator, "_worker_count", lambda: 3)
    ps = np.concatenate([np.linspace(0.0, 1.0, 257), np.linspace(-3.0, 3.0, 3 * _BLOCK - 252)])
    levels = sorted(set(range(-6, 7)) | {-15, -12, -9, 9, 12, 15})
    serial = [np.asarray(eval_iterate(sine_eg, k, ps)) for k in levels]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside each call
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda k: np.asarray(eval_iterate(sine_eg, k, ps)), levels,
                                     timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_load_generator_from_file(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text('{"name": "convex", "components": ["sine", "identity"], "weights": [0.5, 0.5]}')
    gen = load_generator(str(path))
    assert gen.name.startswith("convex")
    with pytest.raises(ConfigError):
        load_generator(str(tmp_path / "missing.json"))


def test_load_generator_rejects_invalid_json(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text('{"name": "convex",')
    with pytest.raises(ConfigError, match="invalid JSON in generator config"):
        load_generator(str(path))


# ------------------------------------------------- scalar path against array path

EQUIV_LEVELS = (-15, -5, -2, -1, 0, 1, 2, 5, 15)
# each convex inverse is a bisection, so the convex case keeps to low levels
CONVEX_LEVELS = (-2, -1, 0, 1, 2)
EDGE_VALUES = [0.0, -0.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 1.0,
               math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), -1.0, 2.0, -3.0, 3, -2,
               5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
               np.float64(0.25), np.float32(0.75)]
# either side of an integer n: the cell [n, n + 1) or the one below, near its ends
EDGE_VALUES += [math.nextafter(float(n), side) for n in (-2, -1, 2, 3) for side in (-9.0, 9.0)]
NON_FINITE = [math.nan, math.inf, -math.inf]


EQUIVALENCE_CASES = [
    (ExtendedGenerator(make_sine_generator()), EQUIV_LEVELS),
    (ExtendedGenerator(make_identity_generator()), EQUIV_LEVELS),
    (ExtendedGenerator(CONVEX), CONVEX_LEVELS),
]


def _bits(value) -> int:
    return int(np.asarray(value, dtype=float).reshape(-1).view(np.int64)[0])


def _assert_scalar_matches_array(egen, levels, x):
    arr = np.array([x], dtype=float)
    pairs = [(egen.forward(x), egen.forward(arr)), (egen.inverse(x), egen.inverse(arr))]
    for k in levels:
        pairs.append((egen.iterate(x, k), egen.iterate(arr, k)))
        pairs.append((eval_iterate(egen, k, x), eval_iterate(egen, k, arr)))
    for scalar, array in pairs:
        assert type(scalar) is float, (egen, x)
        assert _bits(scalar) == _bits(array), (egen, x, scalar, array)
    _assert_level_zero_is_iterate_zero(egen, x)


def _assert_level_zero_is_iterate_zero(egen, x):
    """Level-0 pulls and pushes, which call no generator, keep the bits of iterate(x, 0)."""
    ctx = ArithmeticContext(egen, 0)
    if not math.isfinite(x):
        for what, call in (("add", lambda: arith(ctx, "add", x, 0.5)),
                           ("level_sum", lambda: level_sum(ctx, [0.5, x]))):
            with pytest.raises(DomainError, match=re.escape(
                    f"{what} at level 0: operand {x!r} is not finite")):
                call()
        return
    outs = [arith(ctx, "add", x, 0.0), arith(ctx, "mul", 1.0, x), level_sum(ctx, [x])]
    for out in outs:
        assert type(out) is float and _bits(out) == _bits(egen.iterate(x, 0)), (egen, x, out)
    if 0.0 <= x <= 1.0:  # one level-0 node: its joints x and 1 - x, summed at level 0
        out = tree_normalization(CondTree(CondNode(0, x, 1.0 - x), sum_level=0), egen)
        base = math.fsum([egen.iterate(x, 0), egen.iterate(1.0 - x, 0)])
        assert type(out) is float and _bits(out) == _bits(egen.iterate(base, 0)), (egen, x)
    # a level that is not an int still fails, in the pull, which asks for g^-0.0
    with pytest.raises(LevelRangeError, match=r"^level -0\.0 is not an integer$"):
        arith(ArithmeticContext(egen, 0.0), "add", x, 0.0)


@given(st.floats(min_value=-3.0, max_value=3.0))
def test_scalar_path_bitwise_equals_array_path(x):
    for egen, levels in EQUIVALENCE_CASES:
        _assert_scalar_matches_array(egen, levels, x)


@pytest.mark.parametrize("x", EDGE_VALUES + NON_FINITE, ids=repr)
def test_scalar_path_edge_values(x):
    for egen, levels in EQUIVALENCE_CASES:
        _assert_scalar_matches_array(egen, levels, x)


def test_an_int_beyond_the_float_range_is_a_domain_error():
    big = contract.HUGE
    cases = [("forward", {0: big}), ("inverse", {0: -big}), ("iterate", {0: big}),
             ("iterate", {0: big, 1: 0}), ("sine_forward", {0: big}), ("convex_inverse", {0: big})]
    for row, slots in cases:
        with pytest.raises(DomainError, match="beyond the float range"):
            contract.call(row, slots)


@pytest.mark.parametrize("name", list(contract.HUGE_INT_CASES))
def test_entry_points_reject_an_int_beyond_the_float_range(name):
    # each raised a raw OverflowError, but for convex_weights and moments, whose
    # own handlers worded the DomainError otherwise
    with pytest.raises(DomainError, match="an int( of 1329 bits)? lies beyond the float range"):
        contract.call(*contract.HUGE_INT_CASES[name])


@pytest.mark.parametrize("call, level", [
    (lambda: fubini_ladder(0.3, -3.0, 3), "-3.0"),
    (lambda: fubini_ladder(0.3, 0, 2.5), "2.5"),
    (lambda: fubini_ladder(0.3, "0", 2), "'0'"),
], ids=["ladder-from", "ladder-to", "ladder-str"])
def test_a_non_integer_level_of_a_ladder_or_band_raises(call, level):
    # range() raised a raw TypeError
    with pytest.raises(LevelRangeError, match=f"^level {re.escape(level)} is not an integer$"):
        call()


@pytest.mark.parametrize("k", [np.int64(3), np.int32(-2), True, False])
def test_integer_like_ladder_and_band_levels_keep_working(k):
    assert fubini_ladder(0.3, -abs(int(k)), k) == fubini_ladder(0.3, -abs(int(k)), int(k))


def test_scalar_path_matches_long_array_kernels(rng):
    # long arrays run numpy's vector loops; scalar results must still agree
    xs = np.concatenate([rng.uniform(-3.0, 3.0, 4000), rng.random(4000)])
    for egen, _ in EQUIVALENCE_CASES[:2]:
        for fn in (egen.forward, egen.inverse, lambda v: eval_iterate(egen, 5, v),
                   lambda v: eval_iterate(egen, -5, v)):
            scalar = np.array([fn(float(x)) for x in xs])
            assert np.array_equal(scalar.view(np.int64), np.asarray(fn(xs)).view(np.int64))


@pytest.mark.parametrize("gen", [
    make_sine_generator(),
    convex_combine([make_sine_generator(), make_identity_generator()], [0.5, 0.5]),
], ids=["sine", "convex"])
def test_sine_generator_scalar_path(gen, rng):
    # a finite scalar takes one step of _cell_float, which splits p = 1 into
    # n = 1 and f = 0, and adds n = 0.0 below 1, as arrays map a -0.0 to +0.0;
    # the inverse takes a p a few ulps off 1/2 onto 1/2.  A finite p outside
    # [0, 1] is a DomainError on both paths.
    near_half = [math.nextafter(0.5, side) for side in (0.0, 1.0)]
    near_half += [math.nextafter(t, side) for t, side in zip(near_half, (0.0, 1.0))]
    inside = [0, 1, True, np.float64(1.0), 1e-300, 0.5**27, 1.0 - 0.5**27] + near_half
    outside = [sys.float_info.max, -sys.float_info.max]
    values = EDGE_VALUES + NON_FINITE + inside + outside
    values += list(rng.uniform(0.0, 1.0, 200)) + list(rng.uniform(-3.0, 3.0, 500))
    for fn in (gen.forward, gen.inverse):
        for x in values:
            if math.isfinite(x) and not 0.0 <= x <= 1.0:
                for arg in (x, np.array([x], dtype=float)):
                    with pytest.raises(DomainError, match=r"takes p in \[0, 1\]"):
                        fn(arg)
                continue
            out = fn(x)
            assert type(out) is float or not math.isfinite(x)  # +-inf and NaN take the array path
            assert _bits(out) == _bits(fn(np.array([x], dtype=float))), x


@pytest.mark.parametrize("which", ["forward", "inverse"])
@pytest.mark.parametrize("gen", [
    make_sine_generator(),
    convex_combine([make_sine_generator(), make_identity_generator()], [0.5, 0.5]),
], ids=["sine", "convex"])
def test_bare_maps_turn_inf_and_nan_into_a_float_nan(gen, which, worker_counts, monkeypatch):
    # an array takes the extended array path, g_R on [0, 1]: +-inf and NaN
    # give NaN, each lane is bitwise the extended map's, and three blocks are
    # dealt out to two workers
    fn = getattr(gen, which)
    for x in NON_FINITE:
        out = fn(x)
        assert type(out) is float and math.isnan(out), x
    monkeypatch.setattr(generator, "_worker_count", lambda: 2)
    xs = np.random.default_rng(30).random(3 * _BLOCK)
    special = [0.0, -0.0, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 0.5, 1.0,
               *NON_FINITE]
    for at in (0, _BLOCK - 4, 2 * _BLOCK + 5, xs.size - len(special)):
        xs[at:at + len(special)] = special
    kept = xs.tobytes()
    out = fn(xs)
    assert worker_counts == [2]
    assert _same_bits(out, getattr(ExtendedGenerator(gen), which)(xs))
    assert np.isnan(out[~np.isfinite(xs)]).all() and np.isfinite(out[np.isfinite(xs)]).all()
    assert xs.tobytes() == kept


# ------------------------------------------------- blocked array path

B = _BLOCK
BLOCK_SIZES = (0, 1, B - 1, B, B + 1, 2 * B + 3)
BLOCK_LEVELS = (0, 1, -1, 2, -2, 15, -15)
# at k = -15 the convex case would run 15 bisections per block; the
# lock-step stop that blocking relies on shows at k = -1 and -2 already
BLOCK_CASES = [
    ("sine", ExtendedGenerator(make_sine_generator()), BLOCK_LEVELS),
    ("identity", ExtendedGenerator(make_identity_generator()), BLOCK_LEVELS),
    ("convex", EQUIVALENCE_CASES[2][0], BLOCK_LEVELS[:-1]),
]


def _block_sample() -> np.ndarray:
    """2B + 3 points of [-3, 3] and [0, 1), with edge and non-finite values
    at the start, on both sides of each block boundary and at the end."""
    rng = np.random.default_rng(20251018)
    xs = np.concatenate([rng.uniform(-3.0, 3.0, B + 2), rng.random(B + 1)])
    special = np.array([float(v) for v in EDGE_VALUES] + NON_FINITE)
    for at in (0, B - 10, xs.size - special.size):  # the last one straddles 2B
        xs[at:at + special.size] = special
    return xs


def _checked_indices(name: str, size: int) -> np.ndarray:
    """Indices compared with the scalar path: the neighbours of every block
    edge plus a seeded spread, fewer for the bisection of the convex case."""
    width, spread = (8, 60) if name == "convex" else (40, 1500)
    edges = [i + d for i in (0, B, 2 * B, size) for d in range(-width, width)]
    extra = np.random.default_rng(7).choice(size, spread, replace=False)
    idx = np.unique(np.concatenate([edges, extra]))
    return idx[(idx >= 0) & (idx < size)]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("name,egen,levels", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
def test_blocked_kernel_bitwise_equals_scalar_path(name, egen, levels):
    xs = _block_sample()
    idx = _checked_indices(name, xs.size)
    kept = xs.tobytes()
    for k in levels:
        ref = np.array([egen.iterate(float(xs[i]), k) for i in idx])
        for size in BLOCK_SIZES:
            out = egen.iterate(xs[:size], k)
            assert isinstance(out, np.ndarray) and out.shape == (size,)
            inside = idx < size
            assert _same_bits(out[idx[inside]], ref[inside]), (name, k, size)
            if k in (1, -1):
                mapped = (egen.forward if k == 1 else egen.inverse)(xs[:size])
                assert _same_bits(mapped, out), (name, k, size)
    assert xs.tobytes() == kept


@pytest.mark.parametrize("name,egen,levels", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
def test_blocked_kernel_layouts_and_dtypes(name, egen, levels):
    # a contiguous float64 array is checked against the scalar path above;
    # every other layout and dtype must give the same bits in its own shape
    xs = _block_sample()[: B + 5]  # 3 * 5463 elements, across one block edge
    with np.errstate(over="ignore"):  # 1e300 becomes inf in float32
        narrow = xs.astype(np.float32)
    views = [xs.reshape(3, -1), xs.reshape(3, -1).T, xs[::3], xs[::-1],
             xs[:2400].reshape(40, 60)[:, ::2], narrow,
             np.arange(-5, 6), np.array([2**53, -(2**40), 7], dtype=np.int64)]
    kept = [v.tobytes() for v in views]
    for k in levels:
        for v in views:
            out = egen.iterate(v, k)
            ref = egen.iterate(np.array(v, dtype=float).ravel(), k).reshape(v.shape)
            assert out.dtype == np.float64 and _same_bits(out, ref), (name, k, v.shape)
        for i in (0, 1, 3, 20, 22, B + 1):  # 0-d arrays, non-finite ones included
            out = egen.iterate(np.array(xs[i]), k)
            assert type(out) is float
            assert _same_bits(out, egen.iterate(xs[i:i + 1], k)[0]), (name, k, xs[i])
    assert [v.tobytes() for v in views] == kept


@pytest.mark.parametrize("name,egen,levels", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
def test_iterate_splits_off_the_integer_once(name, egen, levels):
    # g_R^k(x) = n + g^k(x - n) with n = floor(x), bitwise, on arrays and
    # scalars; k = 0 is left out, as it returns x itself, which n + (x - n)
    # misses by a rounding in (-1, 0)
    xs = _block_sample()
    xs = xs[np.isfinite(xs)]
    n = np.floor(xs)
    idx = _checked_indices(name, xs.size)
    for k in [k for k in levels if k]:
        assert _same_bits(egen.iterate(xs, k), n + egen.iterate(xs - n, k)), (name, k)
        for x in xs[idx].tolist():
            m = float(math.floor(x))
            assert _bits(egen.iterate(x, k)) == _bits(m + egen.iterate(x - m, k)), (name, k, x)


@pytest.mark.parametrize("k", (1, -1, 2, -2, 15, -15))
def test_non_finite_input_gives_nan_without_a_warning(k):
    # pytest turns a RuntimeWarning into an error, so the split's inf - inf
    # must stay silent; no errstate here on purpose
    egen = sine_extended()
    assert math.isnan(egen.forward(math.inf)) and math.isnan(egen.inverse(-math.inf))
    xs = np.array([0.25, math.nan, math.inf, -math.inf, 2.5, -0.75])
    for _, e, levels in BLOCK_CASES:
        if k in levels:
            out = e.iterate(xs, k)
            assert np.isnan(out[1:4]).all() and np.isfinite(out[[0, 4, 5]]).all(), (e, k)
            assert math.isnan(e.iterate(math.inf, k)) and math.isnan(e.iterate(math.nan, k))


def test_iterate_working_set_is_bounded():
    # blocks keep the temporaries of all 15 steps to a few block sizes; the
    # whole-array form peaked near 7x the output
    x = np.random.default_rng(3).random(200_000)
    egen = ExtendedGenerator(make_sine_generator())
    tracemalloc.start()
    try:
        egen.iterate(x, 15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + 2 * 2**20, peak


# ------------------------------------------------- blocks on several threads

MULTI_BLOCK_CASES = [
    ("sine", BLOCK_CASES[0][1], BLOCK_LEVELS + (6, LEVEL_CAP, -LEVEL_CAP)),
    ("identity", BLOCK_CASES[1][1], BLOCK_LEVELS + (6, LEVEL_CAP, -LEVEL_CAP)),
    ("convex", BLOCK_CASES[2][1], (1, -1, 2, -2)),
]


def _multi_block_sample(size: int) -> np.ndarray:
    """size points: every other block in [-3, 3], the rest in [0, 1), with
    ``_block_sample``'s special lanes at the start, across every fourth
    block edge and at the end."""
    rng = np.random.default_rng(size)
    xs = rng.random(size)
    for start in range(B, size, 2 * B):
        xs[start:start + B] = rng.uniform(-3.0, 3.0, min(B, size - start))
    special = np.array([float(v) for v in EDGE_VALUES] + NON_FINITE)
    for at in [0, *range(B - 10, size - special.size, 4 * B), size - special.size]:
        xs[at:at + special.size] = special
    return xs


@pytest.fixture
def worker_counts(monkeypatch):
    """Three CPUs, whatever the host has, and the worker count of every
    array call that starts helper threads."""
    counts = []
    original = generator._run_shares

    def counted(share, workers):
        counts.append(workers)
        return original(share, workers)

    monkeypatch.setattr(generator, "_worker_count", lambda: 3)
    monkeypatch.setattr(generator, "_run_shares", counted)
    return counts


@pytest.mark.parametrize("size", (5 * B + 7, 61 * B))
@pytest.mark.parametrize("name,egen,levels", MULTI_BLOCK_CASES,
                         ids=[c[0] for c in MULTI_BLOCK_CASES])
def test_threaded_blocks_bitwise_equal_one_block_at_a_time(name, egen, levels, size,
                                                           worker_counts):
    # a slice of at most one block runs on the calling thread alone, so the
    # concatenated slices are the one-worker result of the whole array
    xs = _multi_block_sample(size)
    kept = xs.tobytes()
    for k in levels:
        worker_counts.clear()
        out = egen.iterate(xs, k)
        ref = np.concatenate([egen.iterate(xs[s:s + B], k) for s in range(0, size, B)])
        assert _same_bits(out, ref), (name, k, size)
        assert worker_counts == ([3] if k else []), (name, k, size)
    assert xs.tobytes() == kept


def _trap_generator(bad: float, raised_on: list) -> ExtendedGenerator:
    """The identity, except that a lane equal to ``bad`` raises DomainError."""

    def trap(p):
        p = np.asarray(p, dtype=float)
        if (p == bad).any():
            raised_on.append(threading.current_thread())
            raise DomainError(f"lane {bad!r}")
        return p + 0.0

    return ExtendedGenerator(Generator("trap", trap, trap))


@pytest.mark.parametrize("block", (0, 3))
def test_an_exception_in_any_block_reaches_the_caller(block, monkeypatch):
    # with 4 workers block 0 runs on the calling thread and block 3 on a
    # helper; either way every helper is joined before iterate raises
    monkeypatch.setattr(generator, "_worker_count", lambda: 4)
    raised_on = []
    egen = _trap_generator(0.25, raised_on)
    xs = np.random.default_rng(4).random(4 * B)
    xs[block * B + B - 3] = 0.25
    before = threading.active_count()
    with pytest.raises(DomainError, match="0.25"):
        egen.iterate(xs, 1)
    assert threading.active_count() == before
    assert (raised_on[0] is threading.current_thread()) == (block == 0)


def test_helpers_keep_the_callers_errstate(monkeypatch):
    # a helper runs in a copy of the caller's context, where np.errstate lives
    monkeypatch.setattr(generator, "_worker_count", lambda: 4)

    def forward(p):
        p = np.asarray(p, dtype=float)
        np.divide(1.0, p - 0.25)  # divides by zero on a lane at 1/4
        return p + 0.0

    egen = ExtendedGenerator(Generator("divide", forward, forward))
    xs = np.random.default_rng(5).random(4 * B)
    xs[4 * B - 3] = 0.25
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        egen.iterate(xs, 1)
    with np.errstate(divide="ignore"):  # no RuntimeWarning, which pytest would raise
        assert _same_bits(egen.iterate(xs, 1), xs)


def test_a_share_whose_thread_cannot_start_runs_on_the_caller(sine_eg, monkeypatch):
    def refuse(self):
        raise RuntimeError("can't start new thread")

    xs = _multi_block_sample(4 * B + 3)
    ref = np.concatenate([sine_eg.iterate(xs[s:s + B], -2) for s in range(0, xs.size, B)])
    monkeypatch.setattr(generator, "_worker_count", lambda: 3)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert _same_bits(sine_eg.iterate(xs, -2), ref)


def test_workers_are_capped_at_the_measured_count(monkeypatch):
    monkeypatch.setattr(generator.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    monkeypatch.setattr(generator.os, "cpu_count", lambda: 64)
    assert generator._worker_count() == generator._MAX_WORKERS == 2


# ------------------------------------------------- fold loop on [0, 1]

FOLD_SIZES = (B - 1, B, B + 1, 2 * B + 3)
FOLD_LEVELS = (2, -2, 3, -3, 5, 6, 7, 8, 15, -15, LEVEL_CAP, -LEVEL_CAP)


def _unit_sample() -> tuple[np.ndarray, np.ndarray]:
    """2B + 3 points of [0, 1], and the indices to compare with the scalar path.

    Edge values, subnormals and lanes within 1e-15 of 1/2 sit at the start,
    on both sides of the first block edge and at the end; the indices cover
    them, the neighbours of every block edge and a seeded spread.
    """
    rng = np.random.default_rng(20261018)
    xs = rng.random(2 * B + 3)
    special = np.concatenate([
        [0.0, -0.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 1.0,
         math.nextafter(1.0, 0.0), 2.0**-54, 5e-324, 1.5e-323, 1e-310,
         2.2250738585072009e-308, 2.2250738585072014e-308],
        0.5 + rng.uniform(-1e-15, 1e-15, 48),
        0.5 + np.arange(-8, 9) * 2.0**-54,
    ])
    picks = [[i + d for i in (B, 2 * B) for d in range(-8, 8)],
             np.random.default_rng(11).choice(xs.size, 400, replace=False)]
    for at in (0, B - 40, xs.size - special.size):
        xs[at:at + special.size] = special
        picks.append(np.arange(at, at + special.size))
    idx = np.unique(np.concatenate(picks))
    return xs, idx[idx < xs.size]


@pytest.fixture
def fold_calls(monkeypatch):
    """The sizes of the blocks that run the fold loop, in the order they ran.

    A large call runs its blocks on several threads, so the tests compare
    the sizes as a multiset.
    """
    calls = []
    original = generator._fold_iterate

    def counted(half, p, steps):
        calls.append(p.size)
        return original(half, p, steps)

    monkeypatch.setattr(generator, "_fold_iterate", counted)
    return calls


@pytest.mark.parametrize("k", FOLD_LEVELS)
def test_fold_loop_bitwise_equals_scalar_path(k, fold_calls):
    egen = sine_extended()
    xs, idx = _unit_sample()
    kept = xs.tobytes()
    ref = np.array([egen.iterate(float(xs[i]), k) for i in idx])
    for size in FOLD_SIZES:
        fold_calls.clear()
        out = egen.iterate(xs[:size], k)
        assert sorted(fold_calls) == sorted(min(B, size - s) for s in range(0, size, B))
        inside = idx < size
        assert _same_bits(out[idx[inside]], ref[inside]), (k, size)
        assert _same_bits(eval_iterate(egen, k, xs[:size]), out)
    assert xs.tobytes() == kept


def test_eval_iterate_is_iterate():
    # generators map [0, 1] into itself, so eval_iterate has nothing left to
    # clamp: it is egen.iterate(x, k), scalar and array, bit for bit
    sine, identity = make_sine_generator(), make_identity_generator()
    short = (1, -1, 2, -2, 5, -5)
    xs, idx = _unit_sample()
    # a scalar convex inverse step runs 46 bisection rounds, about 0.4 ms,
    # so the convex case checks every 16th scalar lane
    cases = [(ExtendedGenerator(sine), range(-LEVEL_CAP, LEVEL_CAP + 1), idx),
             (ExtendedGenerator(identity), short, idx),
             (ExtendedGenerator(convex_combine([sine, identity], [0.5, 0.5])), short, idx[::16])]
    reset_clamp_count()
    for egen, levels, lanes in cases:
        for k in levels:
            ref = egen.iterate(xs, k)  # bitwise the scalar path, lane by lane
            assert _same_bits(eval_iterate(egen, k, xs), ref), (egen, k)
            outs = [eval_iterate(egen, k, x) for x in xs[lanes].tolist()]
            assert all(type(out) is float for out in outs), (egen, k)
            assert _same_bits(np.array(outs), ref[lanes]), (egen, k)
    assert clamp_count() == 0


@pytest.mark.parametrize("name", ["clamp_count", "reset_clamp_count", "eval_iterate"])
def test_deprecated_names_live_in_the_generator_module_only(name):
    assert not hasattr(nncalc, name) and name not in nncalc.__all__
    assert callable(getattr(generator, name))


@pytest.mark.parametrize("k", (2, -2, 15, -15))
def test_fold_loop_runs_every_block(k, fold_calls):
    # every block runs the fold loop on its fractions: the second one reaches
    # just past 1, and the third holds a NaN beside a lane at 1/2, whose pin
    # the NaN must not hide from the 1/2 test
    egen = sine_extended()
    xs, idx = _unit_sample()
    xs = np.concatenate([xs, np.random.default_rng(13).random(B - 3)])
    xs[B + 7] = math.nextafter(1.0, 2.0)
    xs[2 * B + 1], xs[2 * B + 2] = math.nan, 0.5
    kept = xs.tobytes()
    out = egen.iterate(xs, k)
    assert sorted(fold_calls) == [B, B, B]
    idx = np.concatenate([idx, [B + 7, 2 * B + 1, 2 * B + 2]])
    ref = np.array([egen.iterate(float(xs[i]), k) for i in idx])
    assert _same_bits(out[idx], ref)
    assert out[2 * B + 2] == 0.5
    assert xs.tobytes() == kept


# ------------------------------------------- sorted fold loop at k >= 6

TINY = 2.0**-27  # below it the forward half step skips the sine


def _split_sample() -> np.ndarray:
    """Five whole blocks that put the sorted loop's prefix at its edges.

    All lanes below 2**-27 (lower and upper); all zeros; near 1, where upper
    lanes fold to t = 1 - p below 1e-6 and enter the prefix after a step or
    two; near 1/2, with no lane that reaches the prefix within 8 steps; and
    lanes at 2**-27 and its neighbours, at their preimages under g and g^2,
    and in t = 1 - p, mixed with uniform lanes.
    """
    rng = np.random.default_rng(20261019)
    tiny = rng.random(B) * (0.99 * TINY)
    tiny[1::2] = 1.0 - tiny[1::2]
    tiny[:4] = [5e-324, 1e-310, math.nextafter(TINY, 0.0), 1.0 - math.nextafter(TINY, 0.0)]
    zeros = np.zeros(B)
    zeros[::3] = -0.0
    near_one = 1.0 - rng.random(B) * 1e-6
    near_one[:3] = [1.0, math.nextafter(1.0, 0.0), 1.0 - TINY]
    near_half = 0.5 + rng.uniform(-1e-3, 1e-3, B)
    near_half[:3] = [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]
    edge = TINY + np.arange(-64, 65) * 2.0**-79  # 2**-79 is the ulp just below 2**-27
    egen = sine_extended()
    crossing = np.concatenate([edge, 1.0 - edge, egen.iterate(edge, -1), egen.iterate(edge, -2)])
    mixed = rng.random(B)
    mixed[: crossing.size] = crossing
    return np.concatenate([tiny, zeros, near_one, near_half, mixed])


@pytest.mark.parametrize("k", FOLD_LEVELS)
def test_sorted_fold_loop_edge_blocks(k, fold_calls, monkeypatch):
    egen = sine_extended()
    xs = _split_sample()
    kept = xs.tobytes()
    fold_calls.clear()
    out = egen.iterate(xs, k)
    assert sorted(fold_calls) == [B] * 5
    # the scalar path on the special lanes of each block and a seeded spread
    idx = np.unique(np.concatenate([
        [b * B + d for b in range(5) for d in range(8)],
        4 * B + np.arange(4 * 129),
        np.random.default_rng(12).choice(xs.size, 300, replace=False)]))
    ref = np.array([egen.iterate(float(xs[i]), k) for i in idx])
    assert _same_bits(out[idx], ref), k
    # every lane against the unsorted fold loop
    monkeypatch.setattr(generator, "_SORT_STEPS", LEVEL_CAP + 1)
    assert _same_bits(egen.iterate(xs, k), out), k
    assert xs.tobytes() == kept


@pytest.mark.parametrize("k", BLOCK_LEVELS)
def test_iterates_keep_the_complement_symmetry(k):
    # g^k is a generator, so g^k(p) = 1 - g^k(1 - p); for p in (1/2, 1),
    # where 1 - p is exact, a lane folds once and the two sides agree
    # bitwise, for every generator
    xs, idx = _unit_sample()
    split = _split_sample()
    p = np.concatenate([xs, split])
    p = p[(p > 0.5) & (p < 1.0)]
    assert p.size > 30_000
    scalars = np.concatenate([xs[idx], split[::64], [math.nextafter(1.0, 0.0), 1.0 - 1e-9]])
    scalars = scalars[(scalars > 0.5) & (scalars < 1.0)]
    for name, egen, levels in BLOCK_CASES:
        if k not in levels:
            continue
        assert _same_bits(egen.iterate(p, k), 1.0 - egen.iterate(1.0 - p, k)), (name, k)
        # a scalar convex inverse step is 46 bisection rounds,
        # so the convex case checks every 16th scalar
        for x in scalars[:: 16 if name == "convex" else 1].tolist():
            assert _bits(egen.iterate(x, k)) == _bits(1.0 - egen.iterate(1.0 - x, k)), (name, k, x)


@pytest.mark.parametrize("name,egen,levels", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
def test_iterates_fix_the_middle_of_every_cell(name, egen, levels):
    # every g^k is a generator and fixes 1/2, so g_R^k fixes n + 1/2 bitwise
    for n in (-2, 0, 3):
        x = n + 0.5
        outs = [egen.forward(x), egen.inverse(x), egen.forward(np.array([x])),
                egen.inverse(np.array([x]))]
        for k in (1, -1, 2, -2, 3, -3):
            outs += [egen.iterate(x, k), egen.iterate(np.array([x, x]), k)]
        for out in outs:
            assert _same_bits(out, np.full(np.shape(out), x)), (name, x, out)


def test_sine_is_the_identity_below_the_prefix_bound():
    # the sorted fold loop replaces sin(x) by x for x = fl(t pi/2), t < 2**-27
    rng = np.random.default_rng(5)
    t = np.concatenate([
        rng.random(100_000) * TINY,
        TINY * (1.0 - rng.random(10_000) * 1e-6),
        np.ldexp(rng.random(2000), rng.integers(-1074, -27, 2000)),
        [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, math.nextafter(TINY, 0.0)],
    ])
    assert t.max() < TINY
    x = t * (0.5 * math.pi)
    assert _same_bits(np.sin(x), x)
    assert _same_bits(generator._sin2_half(t.copy()), x * x)


def _steps_from(x: float, m: int, direction: float) -> float:
    for _ in range(m):
        x = math.nextafter(x, direction)
    return x


def test_inverse_iterates_pin_a_lane_that_lands_on_one_half_mid_loop():
    # 1, 2 and 3 ulps below 1/2 one inverse step lands exactly on 1/2, where
    # the float kernel and the array loop must stop: one more step would
    # leave 1/2 by an ulp
    below = [_steps_from(0.5, m, 0.0) for m in (1, 2, 3)]
    assert [generator._cell_float(generator._asin_sqrt_half, t, 1) for t in below] == [0.5] * 3
    assert generator._asin_sqrt_half(np.array([0.5]))[0] > 0.5
    fractions = below + [1.0 - t for t in below]
    egen = sine_extended()
    for n in (0, -2, 3):
        xs = [n + f for f in fractions]
        # the same offsets as ulps of the cell itself pin after a few steps
        deep = [_steps_from(n + 0.5, m, d) for m in (1, 2, 3) for d in (-math.inf, math.inf)]
        for k, lanes in ((-2, xs), (-5, xs + deep), (-LEVEL_CAP, xs + deep)):
            out = egen.iterate(np.array(lanes), k)
            assert _same_bits(out, np.full(len(lanes), n + 0.5)), (n, k, lanes)
            assert _same_bits(np.array([egen.iterate(x, k) for x in lanes]), out), (n, k)


def test_unfold_is_the_two_branch_form_bitwise():
    # copysign(r, 1/2 - p) + (p > 1/2) against the select it replaces, with
    # 1/2 pinned and a -0.0 lane at +0.0, for r from both half maps
    rng = np.random.default_rng(27)
    p = np.concatenate([[0.0, -0.0, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
                         1.0, math.nan, -math.nan], rng.random(10_000)])
    for half in (generator._sin2_half, generator._asin_sqrt_half):
        r = half(np.minimum(p, 1.0 - p))
        ref = np.where(p > 0.5, 1.0 - r, r + 0.0)
        ref[p == 0.5] = 0.5
        assert _same_bits(generator._unfold(p, r.copy()), ref), half
    out = make_sine_generator().inverse(np.array([-0.0, 0.0]))
    assert _same_bits(out, np.zeros(2))


# ------------------------------------------------- accuracy against mpmath

ORACLE_DRAWS = 300
# Worst error in ulps of g_R^k on [1, 3] and [-3, -1], where |g_R^k(x)| >= 1
# and an ulp of the result is at least 2u (u = 2**-53).  Derived for k >= 1
# and k = -1: one step of the sine generator misses g of its computed input
# by at most 4.35u forward (pi/2 within 0.35u, the product, sin within 1 ulp
# and the square, 7.7u relative on a value <= 1/2, and 1 - r) and 3.31u
# inverse (sqrt, arcsin's condition <= 1.27, arcsin within 1 ulp, 2/pi and the
# product, 5.62u relative, and 1 - r); g' <= pi/2, so k forward steps miss by
# 4.35u S_k with S_k = 1 + pi/2 + ... + (pi/2)**(k - 1), and adding n rounds
# once more.  Measured for k = -2 and -5, where the inverse's derivative is
# unbounded at the cell edges: worst 1.44 and 3.65 ulps on 2 x 20000 draws
# from default_rng(3), rounded up.
ORACLE_BOUNDS = {1: 2.7, 2: 6.1, 5: 33.2, -1: 2.2, -2: 2.0, -5: 5.0}
# On (-1, 0) the result nears 0 and its ulp shrinks with it.  Derived for the
# sign-symmetric form -g^k(-x), whose lanes each stay on one half of [0, 1]:
# on the upper half the bound above gives 4.35 S_k ulps of a result in
# [1/2, 1); on the lower half a step errs by 7.7u relative and g's relative
# condition number pi p cot(pi p / 2) is at most 2, so k steps err by
# 7.7 (2**k - 1) ulps, the larger of the two.  That form, -iterate(-x, k),
# measures 8.3 and 87 ulps at k = 2 and 5 on 2 x 3000 draws from
# default_rng(1) and default_rng(2).
SIGN_FOLD_BOUNDS = {2: 23.1, 5: 238.7}


def _worst_ulps_of(xs: np.ndarray, k: int) -> float:
    """Worst error in ulps of sine_extended().iterate(xs, k) against 50-digit
    mpmath, on the lanes off the plateaus."""
    mpmath = pytest.importorskip("mpmath")
    got = sine_extended().iterate(xs, k)
    worst = 0.0
    with mpmath.workdps(50):
        for x, y in zip(xs.tolist(), got.tolist()):
            if not resolvable(y):
                continue
            f = mpmath.mpf(x)
            n = mpmath.floor(f)
            f -= n
            for _ in range(abs(k)):
                if k > 0:
                    f = mpmath.sin(mpmath.pi * f / 2) ** 2
                else:
                    f = 2 / mpmath.pi * mpmath.asin(mpmath.sqrt(f))
            ref = n + f
            worst = max(worst, float(abs(mpmath.mpf(y) - ref)) / math.ulp(float(ref)))
    return worst


def _worst_ulps(lo: float, hi: float, k: int, seed: int) -> float:
    """The worst error over ORACLE_DRAWS seeded draws from [lo, hi), off the plateaus."""
    return _worst_ulps_of(np.random.default_rng(seed).uniform(lo, hi, ORACLE_DRAWS), k)


@pytest.mark.parametrize("k", sorted(ORACLE_BOUNDS))
@pytest.mark.parametrize("lo,hi,seed", [(1.0, 3.0, 31), (-3.0, -1.0, 32)])
def test_iterate_accuracy_against_mpmath(lo, hi, seed, k):
    assert _worst_ulps(lo, hi, k, seed) <= ORACLE_BOUNDS[k]


# Just below the top of a cell the inverse steps run on the folded
# t = 1 - f, which holds the distance to the top exactly.  The inverse half
# map's relative condition number sqrt(P) / (2 sqrt(1 - P) arcsin(sqrt(P)))
# rises from 1/2 at 0 to c = 2/pi at 1/2, so m steps of 5.62u relative each
# leave 5.62u S_m with S_m = 1 + c + ... + c**(m - 1) on a folded value
# r <= 1/2, and 1 - r rounds to half an ulp of a result in [1/2, 1): in all,
# 2.81 S_m + 0.5 ulps, rounded up.  A result in [1, 2) has ulps twice as
# wide, which covers the add of n.  No result here lies on a plateau.
TOP_INPUTS = [1.0 - 2.0**-53, 1.0 - 1e-9, 2.0 - 2.0**-52]
TOP_BOUNDS = {-2: 5.1, -3: 6.3, -5: 7.5}


@pytest.mark.parametrize("k", sorted(TOP_BOUNDS))
def test_iterate_accuracy_against_mpmath_below_the_top_of_a_cell(k):
    assert _worst_ulps_of(np.array(TOP_INPUTS), k) <= TOP_BOUNDS[k]


# -1 + g^k(1 + x) cancels: 9.7e4 ulps at k = 2 and 1.0e6 at k = 5 on these
# draws, as before the integer was split off once (3.7e5 and 1.8e6 on an
# earlier sample of 300)
@pytest.mark.xfail(strict=True, reason="a result in (-1, 0) is -1 + (1 - tiny); "
                   "folding the sign first mends it")
@pytest.mark.parametrize("k", sorted(SIGN_FOLD_BOUNDS))
def test_iterate_accuracy_against_mpmath_below_zero(k):
    assert _worst_ulps(-1.0, 0.0, k, 33) <= SIGN_FOLD_BOUNDS[k]


# ------------------------------------------------- convex maps against mpmath

CONVEX_WEIGHTS = (0.3, 0.7)  # CONVEX's weights; they sum to 1.0 exactly


def _convex_worst_ulps(which: str, xs) -> float:
    """Worst error in ulps of CONVEX's direct ``forward`` or ``inverse`` at xs
    against 50-digit mpmath; the inverse is solved by Newton's method from
    the computed value, as g' >= 0.7."""
    mpmath = pytest.importorskip("mpmath")
    xs = np.asarray(xs, dtype=float)
    got = np.asarray(getattr(CONVEX, which)(xs))
    worst = 0.0
    with mpmath.workdps(50):
        w0, w1 = (mpmath.mpf(w) for w in CONVEX_WEIGHTS)

        def g(r):
            return w0 * mpmath.sin(mpmath.pi * r / 2) ** 2 + w1 * r

        for x, y in zip(xs.tolist(), got.tolist()):
            if which == "forward":
                ref = g(mpmath.mpf(x))
            else:
                ref = mpmath.mpf(y)
                for _ in range(8):
                    ref -= (g(ref) - x) / (w0 * mpmath.pi / 2 * mpmath.sin(mpmath.pi * ref) + w1)
            worst = max(worst, float(abs(mpmath.mpf(y) - ref)) / math.ulp(float(ref)))
    return worst


def test_convex_forward_accuracy_against_mpmath():
    # on (1/2, 1) the fold gives 1 - g(1 - p): 1.47 ulps worst on these draws
    p = np.random.default_rng(42).uniform(0.5, 1.0, ORACLE_DRAWS)
    assert _convex_worst_ulps("forward", p) <= 1.6


def test_convex_inverse_accuracy_against_mpmath():
    # the bisection of [0, 1/2] leaves an absolute error near 2**-48, up to
    # 245 ulps of an answer above 0.07 on these draws; near 1 the fold
    # computes 1 - t of a tiny t, to 2.41 ulps
    y = np.random.default_rng(42).uniform(0.05, 0.95, ORACLE_DRAWS)
    assert _convex_worst_ulps("inverse", y) <= 256
    assert _convex_worst_ulps("inverse", [1.0 - 1e-9]) <= 4


# 1.6e13 ulps at 1e-12 and 1.4e7 at 1e-6
@pytest.mark.xfail(strict=True, reason="the bisection's absolute error, 2**-48, swamps a small "
                   "answer; bisecting the bit patterns of [0, 1/2] mends it")
@pytest.mark.parametrize("y", [1e-12, 1e-6])
def test_convex_inverse_accuracy_against_mpmath_near_zero(y):
    assert _convex_worst_ulps("inverse", [y]) <= 4
