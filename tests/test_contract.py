"""The argument contract of the public surface, as one table.

Every public callable, given arguments of its documented types, returns a
finite value or raises an NncalcError, and emits no warning.  Each row of
ROWS names a callable through a builder of its arguments, the arguments of
one ordinary call and the kind of each slot: "f" a float, "c" a float part
of a complex (which no int beyond the float range can be) and "i" an int.
Each slot in turn takes every hostile value of its kind while the others
keep their ordinary values; the ordinary call is checked too.  The
generator maps propagate NaN for +-inf and NaN input, as documented; the
rows in NAN_PROPAGATES may return NaN for such a value, and nothing else
non-finite.
"""

import cmath
import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from nncalc import arithmetic, bell, calculus, entropy, fubini, gcomplex, lln, probability
from nncalc.errors import NncalcError
from nncalc.generator import (
    ExtendedGenerator,
    convex_combine,
    effective_band,
    generator_from_config,
    h_view,
    make_identity_generator,
    make_sine_generator,
    sine_extended,
    validate_generator,
)

HUGE = 10**400  # an int beyond the float range
LONG = 10**5000  # an int beyond the int-to-str digit limit too
FLOATS = (HUGE, -HUGE, LONG, math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308, -1e308,
          sys.float_info.max, -sys.float_info.max)
COMPLEX_PARTS = tuple(v for v in FLOATS if isinstance(v, float))
INTS = (HUGE, -HUGE, LONG, 0, -1, 2**63)
HOSTILE = {"f": FLOATS, "c": COMPLEX_PARTS, "i": INTS}

EGEN = sine_extended()
SINE = make_sine_generator()
CONVEX = convex_combine([SINE, make_identity_generator()], [0.3, 0.7])
CONVEX_EGEN = ExtendedGenerator(CONVEX)
HALF = entropy.Distribution([0.5, 0.5])
PA = gcomplex.PairArithmetic.default_sine()
FN = calculus.LevelFunction(math.sin, EGEN, 1, 1)
FORM = fubini.projector_form([1.0, 0.0])
CFN = gcomplex.ComplexLevelFunction(lambda r: complex(math.cos(r), math.sin(r)), EGEN, PA)


def _ctx(level):
    return arithmetic.ArithmeticContext(EGEN, level)


def _gc(x1, x2=0.4):
    return gcomplex.GComplex(x1, x2)


#: name: (builder, ordinary arguments, slot kinds)
ROWS = {
    # generator
    "forward": (EGEN.forward, (0.3,), "f"),
    "inverse": (EGEN.inverse, (0.3,), "f"),
    "iterate": (EGEN.iterate, (0.3, 2), "fi"),
    "forward_list": (lambda x: EGEN.forward([x, 0.5]), (0.3,), "f"),
    "iterate_list": (lambda x: EGEN.iterate([0.5, x], 3), (0.3,), "f"),
    "sine_forward": (SINE.forward, (0.3,), "f"),
    "sine_inverse": (SINE.inverse, (0.3,), "f"),
    "sine_forward_list": (lambda x: SINE.forward([x]), (0.3,), "f"),
    "convex_forward": (CONVEX.forward, (0.3,), "f"),
    "convex_inverse": (CONVEX.inverse, (0.3,), "f"),
    "convex_iterate": (CONVEX_EGEN.iterate, (0.3, -2), "fi"),
    "h_view": (lambda x: h_view(SINE, [x]), (0.2,), "f"),
    "convex_weights": (lambda w: convex_combine([SINE], [w]), (1.0,), "f"),
    "generator_from_config": (
        lambda w: generator_from_config({"name": "convex", "components": ["sine", "identity"],
                                         "weights": [w, 0.5]}), (0.5,), "f"),
    "validate_generator": (lambda: validate_generator(SINE), (), ""),
    "effective_band": (lambda r: effective_band(EGEN, r), (0.01,), "f"),
    # arithmetic
    "arith": (lambda x, y, level: arithmetic.arith(_ctx(level), "add", x, y), (0.3, 0.4, 1),
              "ffi"),
    "arith_div": (lambda x, y: arithmetic.arith(_ctx(1), "div", x, y), (0.3, 0.4), "ff"),
    "embed_natural": (lambda n, level: arithmetic.embed_natural(_ctx(level), n), (3, 1), "ii"),
    "embed_rational": (lambda n, m: arithmetic.embed_rational(_ctx(1), n, m), (1, 3), "ii"),
    "power": (lambda x, n: arithmetic.power(_ctx(1), x, n), (0.3, 3), "fi"),
    "compare": (arithmetic.compare, (0.3, 0.4), "ff"),
    "level_sum": (lambda x: arithmetic.level_sum(_ctx(1), [x, 0.5]), (0.3,), "f"),
    "level_prod": (lambda x: arithmetic.level_prod(_ctx(-1), [x, 0.5]), (0.3,), "f"),
    # calculus
    "LevelFunction.value": (FN.value, (0.3,), "f"),
    "scaled_by": (FN.scaled_by, (0.3,), "f"),
    "nn_derivative": (lambda x: calculus.nn_derivative(FN, x), (0.3,), "f"),
    "nn_integral": (lambda a, b: calculus.nn_integral(FN, a, b), (0.1, 0.4), "ff"),
    "integrate_base": (lambda a, b: calculus.integrate_base(math.sin, a, b), (0.0, 1.0), "ff"),
    "nn_exp": (lambda x, l, k: calculus.nn_exp(EGEN, l, k, x), (0.3, 1, 1), "fii"),
    "nn_ln": (lambda x, k, l: calculus.nn_ln(EGEN, k, l, x), (0.3, 1, 1), "fii"),
    # probability
    "level_shift": (probability.level_shift, (0.3, 1), "fi"),
    "normalization_residual": (probability.normalization_residual, (0.3, 1, 1), "fii"),
    "joint_product": (lambda p, k, l: probability.joint_product([(p, k), (0.5, 1)], l),
                      (0.3, 1, 0), "fii"),
    "CondNode": (probability.CondNode, (1, 0.3, 0.7), "iff"),
    "tree_normalization": (
        lambda level, l: probability.tree_normalization(probability.CondTree(
            probability.CondNode(level, 0.3, 0.7), sum_level=l)), (1, 0), "ii"),
    "make_node": (lambda p0, level: probability.make_node({"p0": p0, "level": level}), (0.3, 1),
                  "fi"),
    "singlet_table": (probability.singlet_table, (1.0,), "f"),
    "alpha_of_theta": (probability.alpha_of_theta, (1.0,), "f"),
    # lln
    "LevelBinomial": (lln.LevelBinomial, (10, 0.3, 1, 0), "ifii"),
    "effective": (lambda N, p, k, l: lln.LevelBinomial(N, p, k, l).effective(), (10, 0.3, 1, 0),
                  "ifii"),
    "pmf": (lambda N, p, k, l, n: lln.pmf(lln.LevelBinomial(N, p, k, l), n), (10, 0.3, 1, 1, 3),
            "ifiii"),
    "pmf_base_vector": (lambda N, p, k, l: lln.pmf_base_vector(lln.LevelBinomial(N, p, k, l)),
                        (10, 0.3, 1, 1), "ifii"),
    "moments": (lambda N, p, k, l: lln.moments(lln.LevelBinomial(N, p, k, l)), (10, 0.3, 1, 1),
                "ifii"),
    "chebyshev_bound": (
        lambda N, p, k, l, eps: lln.chebyshev_bound(lln.LevelBinomial(N, p, k, l), eps),
        (100, 0.5, 1, 1, 0.1), "ifiif"),
    "simulate": (lambda N, p, eps, trials, seed: lln.simulate(lln.LevelBinomial(N, p), eps,
                                                               trials, seed),
                 (10, 0.5, 0.1, 5, 0), "iffii"),
    "fig3_table": (lambda l, N, eps: lln.fig3_table([l], [N], eps), (1, 100, 0.1), "iif"),
    # entropy
    "Distribution": (lambda p, q: entropy.Distribution([p, q]), (0.5, 0.5), "ff"),
    "shannon": (lambda p, q: entropy.shannon(entropy.Distribution([p, q])), (0.5, 0.5), "ff"),
    "renyi_kn": (lambda alpha: entropy.renyi_kn(HALF, alpha), (2.0,), "f"),
    "renyi_closed": (lambda alpha: entropy.renyi_closed(HALF, alpha), (2.0,), "f"),
    # every p^alpha underflowed, which gave inf; at alpha = inf (1 - inf) * -ln 1 is NaN
    "renyi_closed_3000": (lambda alpha: entropy.renyi_closed(entropy.Distribution([0.7, 0.3]),
                                                             alpha), (3000.0,), "f"),
    "renyi_kn_3000": (lambda alpha: entropy.renyi_kn(entropy.Distribution([0.7, 0.3]), alpha),
                      (3000.0,), "f"),
    "renyi_kn_inf": (lambda alpha: entropy.renyi_kn(entropy.Distribution([1e-300, 1.0]), alpha),
                     (math.inf,), "f"),
    "g_log_info": (lambda p: entropy.g_log_info(SINE, p), (0.3,), "f"),
    # fubini
    "geodesic_distance": (lambda x: fubini.geodesic_distance([x, 1.0], [1.0, 0.0]), (0.5,), "f"),
    "projector_form": (lambda x: fubini.projector_form([0.0, x]), (1.0,), "f"),
    "form_evaluate": (lambda x: FORM.evaluate([x, 0.0]), (0.5,), "f"),
    "lifted_form_value": (lambda x: fubini.lifted_form_value(FORM, [0.0, x]), (0.5,), "f"),
    "hidden_prob": (fubini.hidden_prob, (0.5,), "f"),
    "ladder": (fubini.ladder, (0.3, -2, 2), "fii"),
    # gcomplex
    "to_base": (lambda x1, x2: gcomplex.to_base(PA, _gc(x1, x2)), (0.3, 0.4), "ff"),
    "from_base": (lambda re, im: gcomplex.from_base(PA, complex(re, im)), (0.3, 0.4), "cc"),
    "gc_add": (lambda x: gcomplex.gc_add(PA, _gc(x), _gc(0.3)), (0.2,), "f"),
    "gc_sub": (lambda x: gcomplex.gc_sub(PA, _gc(0.3), _gc(x)), (0.2,), "f"),
    "gc_mul": (lambda x: gcomplex.gc_mul(PA, _gc(x), _gc(0.3)), (0.2,), "f"),
    "gc_div": (lambda x: gcomplex.gc_div(PA, _gc(0.3), _gc(x, 0.0)), (0.2,), "f"),
    "gc_neg": (lambda x: gcomplex.gc_neg(PA, _gc(x)), (0.2,), "f"),
    "gc_conj": (lambda x: gcomplex.gc_conj(PA, _gc(x)), (0.2,), "f"),
    "gc_modulus_sq": (lambda x: gcomplex.gc_modulus_sq(PA, _gc(x)), (0.2,), "f"),
    "gc_power": (lambda x, n: gcomplex.gc_power(PA, _gc(x), n), (0.3, 3), "fi"),
    "first_power": (lambda x: gcomplex.first_power(x, EGEN, EGEN), (0.3,), "f"),
    "first_power_identity": (lambda x: gcomplex.first_power(x, gcomplex.identity_bijection(),
                                                            EGEN), (0.3,), "f"),
    "ComplexLevelFunction.value": (CFN.value, (0.3,), "f"),
    "gc_scale": (lambda x: gcomplex.gc_scale(CFN, _gc(x)), (0.3,), "f"),
    "gc_scalar_product": (lambda T: gcomplex.gc_scalar_product(CFN, CFN, T), (1.0,), "f"),
    # bell
    "reduced_angle": (bell.reduced_angle, (0.3,), "f"),
    "breakpoints": (lambda phi: bell.HalfCircleChar(phi).breakpoints(), (0.3,), "f"),
    "indicator": (lambda phi, lam: bell.HalfCircleChar(phi).indicator(lam), (0.3, 0.5), "ff"),
    "hidden_overlap": (bell.hidden_overlap, (0.3, 1.0), "ff"),
    "overlap_integral": (bell.overlap_integral, (0.3, 1.0), "ff"),
    "density_value": (lambda phi, lam: bell.ConditionedDensity(bell.HalfCircleChar(phi))
                      .value(lam), (0.3, 0.5), "ff"),
    "density_total": (lambda phi: bell.ConditionedDensity(bell.HalfCircleChar(phi)).total(),
                      (0.3,), "f"),
    "integral_against": (lambda phi, psi: bell.ConditionedDensity(bell.HalfCircleChar(phi))
                         .integral_against(bell.HalfCircleChar(psi)), (0.3, 1.0), "ff"),
    "gmap_forward": (bell.GMap(EGEN).forward, (0.3,), "f"),
    "gmap_inverse": (bell.GMap(EGEN).inverse, (0.3,), "f"),
    "gmap_iterate": (bell.GMap(EGEN).iterate, (0.3, 2), "fi"),
    "singlet_from_hidden": (bell.singlet_from_hidden, (0.3, 1.0), "ff"),
    "ch_value_level0": (lambda *quad: bell.ch_value_level0(quad), (0.1, 0.5, 1.0, 2.0), "ffff"),
    "ch_value_level1": (lambda *quad: bell.ch_value_level1(quad), (0.1, 0.5, 1.0, 2.0), "ffff"),
    "ch_scan": (bell.ch_scan, (0.5,), "f"),
    "refine_ch0_max": (lambda a, step: bell.refine_ch0_max(bell.AngleQuad(a, 0.5, 1.0, 2.0),
                                                           step), (0.0, 0.1), "ff"),
}

#: the slots that raised a raw OverflowError for an int beyond the float range and now
#: raise generator._in_float_range's DomainError: case -> (row, {slot: value})
HUGE_INT_CASES = {
    "hidden_overlap": ("hidden_overlap", {0: HUGE}),
    "overlap_integral": ("overlap_integral", {1: HUGE}),
    "ch_scan": ("ch_scan", {0: HUGE}),
    "ch_value_level0": ("ch_value_level0", {0: HUGE}),
    "ch_value_level1": ("ch_value_level1", {1: HUGE}),
    "indicator": ("indicator", {0: HUGE}),
    "breakpoints": ("breakpoints", {0: HUGE}),
    "gmap_forward": ("gmap_forward", {0: HUGE}),
    "gmap_inverse": ("gmap_inverse", {0: HUGE}),
    "gmap_iterate": ("gmap_iterate", {0: HUGE}),
    "integrate_base": ("integrate_base", {1: HUGE}),
    "alpha_of_theta": ("alpha_of_theta", {0: HUGE}),
    "Distribution": ("Distribution", {0: HUGE}),
    "renyi_kn": ("renyi_kn", {0: HUGE}),
    "renyi_closed": ("renyi_closed", {0: HUGE}),
    "simulate": ("simulate", {2: HUGE}),
    "fig3_table": ("fig3_table", {2: HUGE}),
    "moments": ("moments", {0: HUGE}),
    "forward_list": ("forward_list", {0: HUGE}),
    "iterate_list": ("iterate_list", {0: -HUGE}),
    "sine_forward_list": ("sine_forward_list", {0: HUGE}),
    "h_view": ("h_view", {0: HUGE}),
    "convex_weights": ("convex_weights", {0: HUGE}),
    "to_base": ("to_base", {0: HUGE}),
    "geodesic_distance": ("geodesic_distance", {0: HUGE}),
    "projector_form": ("projector_form", {0: HUGE}),
    "form_evaluate": ("form_evaluate", {0: HUGE}),
    "lifted_form_value": ("lifted_form_value", {0: HUGE}),
}

#: the generator maps, which turn +-inf and NaN into NaN as documented
NAN_PROPAGATES = {"forward", "inverse", "iterate", "forward_list", "iterate_list",
                  "sine_forward", "sine_inverse", "sine_forward_list", "convex_forward",
                  "convex_inverse", "convex_iterate", "gmap_forward", "gmap_inverse",
                  "gmap_iterate", "first_power", "first_power_identity"}


def call(name: str, slots: dict):
    """The row's callable on its ordinary arguments, with ``slots`` ({index: value}) put in."""
    fn, args, _ = ROWS[name]
    args = list(args)
    for i, value in slots.items():
        args[i] = value
    return fn(*args)


def _finite(value, nan_ok: bool) -> bool:
    """Every number in value (nested in tuples, lists, arrays and dataclass fields) is
    finite, or else a NaN where ``nan_ok``."""
    if isinstance(value, (float, complex, np.floating, np.complexfloating)):
        return cmath.isfinite(value) or (nan_ok and cmath.isnan(value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(
            (np.isfinite(value) | (nan_ok & np.isnan(value))).all())
    if isinstance(value, (tuple, list)):
        return all(_finite(v, nan_ok) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return all(_finite(getattr(value, f.name), nan_ok) for f in dataclasses.fields(value))
    return True  # an int, a str, a generator object or a callable


def _breach(name: str, slots: dict):
    """None if the call keeps the contract, else what it did."""
    nan_ok = name in NAN_PROPAGATES and any(
        isinstance(v, float) and not math.isfinite(v) for v in slots.values())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = call(name, slots)
    except NncalcError:
        return None
    except Exception as exc:
        return f"raised {type(exc).__name__}: {str(exc)[:80]}"
    return None if _finite(out, nan_ok) else f"returned {_text(out)}"


def _text(value) -> str:
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an int of {value.bit_length()} bits"
    try:
        return repr(value)[:120]
    except ValueError:  # it holds an int past the int-to-str digit limit
        return f"a {type(value).__name__} holding an int too long to print"


@pytest.mark.parametrize("name", list(ROWS))
def test_a_public_callable_returns_a_finite_value_or_raises_an_nncalc_error(name):
    _, args, kinds = ROWS[name]
    assert len(args) == len(kinds), name
    cases = [{}] + [{i: v} for i, kind in enumerate(kinds) for v in HOSTILE[kind]]
    breaches = []
    for slots in cases:
        what = _breach(name, slots)
        if what is not None:
            where = ", ".join(f"slot {i} = {_text(v)}" for i, v in slots.items())
            breaches.append(f"{where or 'the ordinary call'}: {what}")
    assert not breaches, breaches


def test_the_nan_propagating_rows_are_the_generator_maps():
    # an explicit list, so that no other row is excused silently
    assert NAN_PROPAGATES <= set(ROWS)
    for name in NAN_PROPAGATES:
        out = call(name, {0: math.nan})
        assert np.isnan(out).any(), name
