import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nncalc import generator
from nncalc.errors import ConfigError, DomainError, LevelRangeError
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


def test_convex_inverse_of_empty_array():
    # an empty array has nothing to bisect; the convergence test must not reduce over it
    combo = convex_combine([make_sine_generator(), make_identity_generator()], [0.5, 0.5])
    for inv in (combo.inverse, ExtendedGenerator(combo).inverse):
        got = inv(np.array([]))
        assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == (0,)


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
        validate_generator(combo, grid_points=2000, tol=1e-12)


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
    report = effective_band(sine_eg, 1e-9, k_cap=5)
    assert report.saturated
    assert report.k_max == 5


def test_effective_band_domain(sine_eg):
    with pytest.raises(DomainError):
        effective_band(sine_eg, 0.0)
    with pytest.raises(DomainError):
        effective_band(sine_eg, 1.5)


def test_clamp_counter():
    # a deliberately overshooting map: just below 1, g_R(x) = 0 + wobble(x)
    # lands just above 1
    wobble = Generator("wobble",
                       forward=lambda p: np.asarray(p, dtype=float) * (1.0 + 4e-16),
                       inverse=lambda P: np.asarray(P, dtype=float) / (1.0 + 4e-16))
    eg = ExtendedGenerator(wobble)
    reset_clamp_count()
    out = eval_iterate(eg, 1, math.nextafter(1.0, 0.0))
    assert out == 1.0
    assert clamp_count() == 1
    reset_clamp_count()
    assert clamp_count() == 0


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
    with pytest.raises(ConfigError):
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


def test_shared_generator_thread_safety(sine_eg):
    # generators are immutable and all operations are pure, so concurrent
    # use of one shared instance must reproduce the serial results
    from concurrent.futures import ThreadPoolExecutor

    ps = np.linspace(0.0, 1.0, 257)
    serial = [np.asarray(eval_iterate(sine_eg, k, ps)) for k in range(-6, 7)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda k: np.asarray(eval_iterate(sine_eg, k, ps)),
                                 range(-6, 7)))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def test_load_generator_from_file(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text('{"name": "convex", "components": ["sine", "identity"], "weights": [0.5, 0.5]}')
    gen = load_generator(str(path))
    assert gen.name.startswith("convex")
    with pytest.raises(ConfigError):
        load_generator(str(tmp_path / "missing.json"))


# ------------------------------------------------- scalar path against array path

EQUIV_LEVELS = (-15, -5, -2, -1, 0, 1, 2, 5, 15)
# each convex inverse is a bisection, so the convex case keeps to low levels
CONVEX_LEVELS = (-2, -1, 0, 1, 2)
EDGE_VALUES = [0.0, -0.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 1.0,
               math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), -1.0, 2.0, -3.0, 3, -2,
               5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
               np.float64(0.25), np.float32(0.75)]
NON_FINITE = [math.nan, math.inf, -math.inf]


EQUIVALENCE_CASES = [
    (ExtendedGenerator(make_sine_generator()), EQUIV_LEVELS),
    (ExtendedGenerator(make_identity_generator()), EQUIV_LEVELS),
    (ExtendedGenerator(convex_combine([make_sine_generator(), make_identity_generator()],
                                      [0.3, 0.7])), CONVEX_LEVELS),
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


@given(st.floats(min_value=-3.0, max_value=3.0))
def test_scalar_path_bitwise_equals_array_path(x):
    for egen, levels in EQUIVALENCE_CASES:
        _assert_scalar_matches_array(egen, levels, x)


@pytest.mark.parametrize("x", EDGE_VALUES + NON_FINITE, ids=repr)
def test_scalar_path_edge_values(x):
    with np.errstate(invalid="ignore"):
        for egen, levels in EQUIVALENCE_CASES:
            _assert_scalar_matches_array(egen, levels, x)


def test_scalar_path_matches_long_array_kernels(rng):
    # long arrays run numpy's vector loops; scalar results must still agree
    xs = np.concatenate([rng.uniform(-3.0, 3.0, 4000), rng.random(4000)])
    for egen, _ in EQUIVALENCE_CASES[:2]:
        for fn in (egen.forward, egen.inverse, lambda v: eval_iterate(egen, 5, v),
                   lambda v: eval_iterate(egen, -5, v)):
            scalar = np.array([fn(float(x)) for x in xs])
            assert np.array_equal(scalar.view(np.int64), np.asarray(fn(xs)).view(np.int64))


def test_sine_generator_scalar_path(sine_gen, rng):
    # the unit-cell sum n + g(x - n) hides the sign of a zero; the bare
    # generator shows it
    for fn in (sine_gen.forward, sine_gen.inverse):
        for x in EDGE_VALUES + list(rng.uniform(-3.0, 3.0, 500)):
            out = fn(x)
            assert type(out) is float
            assert _bits(out) == _bits(fn(np.array([x], dtype=float))), x


def test_clamp_count_same_on_scalar_and_array_paths():
    wobble = Generator("wobble",
                       forward=lambda p: np.asarray(p, dtype=float) * (1.0 + 4e-16),
                       inverse=lambda P: np.asarray(P, dtype=float) / (1.0 + 4e-16))
    # just below 1, where g_R(x) = 0 + wobble(x) overshoots
    eg, x = ExtendedGenerator(wobble), math.nextafter(1.0, 0.0)
    deltas, outs = [], []
    for arg in (x, np.array([x])):
        before = clamp_count()
        outs.append(eval_iterate(eg, 1, arg))
        deltas.append(clamp_count() - before)
    assert deltas == [1, 1]
    assert type(outs[0]) is float
    assert _bits(outs[0]) == _bits(outs[1]) == _bits(1.0)


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
    with np.errstate(invalid="ignore"):
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
    with np.errstate(invalid="ignore"):
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
    """The sizes of the blocks that run the fold loop."""
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
        assert fold_calls == [min(B, size - s) for s in range(0, size, B)]
        inside = idx < size
        assert _same_bits(out[idx[inside]], ref[inside]), (k, size)
        assert _same_bits(eval_iterate(egen, k, xs[:size]), out)
    assert xs.tobytes() == kept


@pytest.mark.parametrize("k", (2, -2, 15, -15))
def test_fold_loop_falls_back_outside_the_unit_interval(k, fold_calls):
    # the second block reaches just past 1 and the third holds a NaN: both
    # keep the cell loop, which must give the same bits as the scalar path
    egen = sine_extended()
    xs, idx = _unit_sample()
    xs[B + 7] = math.nextafter(1.0, 2.0)
    xs[2 * B + 1] = math.nan
    kept = xs.tobytes()
    with np.errstate(invalid="ignore"):
        out = egen.iterate(xs, k)
        idx = np.concatenate([idx, [B + 7, 2 * B + 1]])
        ref = np.array([egen.iterate(float(xs[i]), k) for i in idx])
    assert fold_calls == [B]
    assert _same_bits(out[idx], ref)
    assert xs.tobytes() == kept


# ------------------------------------------- sorted fold loop at k >= 6

TINY = 2.0**-27  # below it the forward half step skips the sine


def _split_sample() -> np.ndarray:
    """Five whole blocks that put the sorted loop's prefix at its edges.

    All lanes below 2**-27 (lower and upper); all zeros; near 1, where upper
    lanes enter the prefix through the re-round; near 1/2, with no lane that
    reaches the prefix within 8 steps; and lanes at 2**-27 and its neighbours,
    at their preimages under g and g^2, and in t = 1 - p, mixed with uniform
    lanes.
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
    assert fold_calls == [B] * 5
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
