import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nncalc.arithmetic import (
    ArithmeticContext,
    arith,
    compare,
    embed_natural,
    embed_rational,
    level_prod,
    level_sum,
    power,
)
from nncalc.errors import DomainError, PullbackDivisionError

from conftest import resolvable, run_python

# mpmath (50 digits): sin(pi/8)^2
SINE_QUARTER = 0.14644660940672623779957781894757548


def ctx_at(sine_eg, k):
    return ArithmeticContext(sine_eg, k)


def test_integers_are_preserved(sine_eg):
    ctx = ctx_at(sine_eg, 1)
    assert arith(ctx, "add", 2.0, 3.0) == pytest.approx(5.0, abs=1e-12)
    ctx5 = ctx_at(sine_eg, 5)
    assert arith(ctx5, "mul", 2.0, 3.0) == pytest.approx(6.0, abs=1e-9)


def test_half_plus_half(sine_eg):
    assert arith(ctx_at(sine_eg, 1), "add", 0.5, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_mul_pullback_oracle(sine_eg):
    # pull, multiply, push by hand as the oracle
    ctx = ctx_at(sine_eg, 1)
    got = arith(ctx, "mul", 0.5, 0.5)
    assert got == pytest.approx(SINE_QUARTER, abs=1e-14)
    oracle = sine_eg.forward(sine_eg.inverse(0.5) * sine_eg.inverse(0.5))
    assert got == pytest.approx(oracle, abs=1e-16)


def test_neutral_elements(sine_eg, rng):
    # the contract is agreement with the composed pull/op/push pipeline;
    # where the pull stays resolvable the pipeline also returns x itself
    for k in range(-8, 9):
        ctx = ctx_at(sine_eg, k)
        for x in rng.uniform(0.05, 0.95, size=5):
            pulled = sine_eg.iterate(x, -k)
            pipeline = sine_eg.iterate(pulled, k)
            assert arith(ctx, "add", x, 0.0) == pytest.approx(pipeline, abs=5e-16)
            assert arith(ctx, "mul", x, 1.0) == pytest.approx(pipeline, abs=5e-16)
            if resolvable(pulled):
                assert arith(ctx, "add", x, 0.0) == pytest.approx(x, abs=1e-12)
                assert arith(ctx, "mul", x, 1.0) == pytest.approx(x, abs=1e-12)


def test_division_by_zero_pullback(sine_eg):
    ctx = ctx_at(sine_eg, 1)
    with pytest.raises(PullbackDivisionError) as err:
        arith(ctx, "div", 0.3, 0.0)
    assert err.value.pullback == 0.0


def test_unknown_kind(sine_eg):
    with pytest.raises(DomainError):
        arith(ctx_at(sine_eg, 0), "pow", 1.0, 2.0)


def test_embed_natural_fixed_integers(sine_eg):
    assert embed_natural(ctx_at(sine_eg, 5), 7) == 7.0
    assert embed_natural(ctx_at(sine_eg, 0), 3) == 3.0


def test_embed_natural_matches_repeated_addition(sine_eg):
    for k in (-3, -1, 1, 4):
        ctx = ctx_at(sine_eg, k)
        acc = 1.0
        for _ in range(5):
            acc = arith(ctx, "add", acc, 1.0)
        assert embed_natural(ctx, 6) == pytest.approx(acc, abs=1e-9)


def test_embed_rational(sine_eg):
    assert embed_rational(ctx_at(sine_eg, 1), 1, 2) == 0.5
    assert embed_rational(ctx_at(sine_eg, 1), 1, 4) == pytest.approx(SINE_QUARTER, abs=1e-14)
    # (2/pi) arcsin(1/2) = 1/3: a level -1 rational that is exactly rational at level 0
    assert embed_rational(ctx_at(sine_eg, -1), 1, 4) == pytest.approx(1.0 / 3.0, abs=1e-14)
    with pytest.raises(DomainError):
        embed_rational(ctx_at(sine_eg, 1), 1, 0)


def test_embed_rational_matches_division(sine_eg, rng):
    for _ in range(20):
        k = int(rng.integers(-4, 5))
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        ctx = ctx_at(sine_eg, k)
        via_div = arith(ctx, "div", embed_natural(ctx, n), embed_natural(ctx, m))
        assert embed_rational(ctx, n, m) == pytest.approx(via_div, abs=1e-12)


def test_power(sine_eg, rng):
    assert power(ctx_at(sine_eg, 2), 0.37, 1) == pytest.approx(0.37, abs=1e-12)
    assert power(ctx_at(sine_eg, 1), 0.5, 2) == pytest.approx(SINE_QUARTER, abs=1e-14)
    assert power(ctx_at(sine_eg, 0), 2.0, 10) == 1024.0
    with pytest.raises(DomainError):
        power(ctx_at(sine_eg, 0), 2.0, 0)
    # n-fold product oracle
    for _ in range(10):
        k = int(rng.integers(-4, 5))
        x = float(rng.uniform(0.1, 0.9))
        n = int(rng.integers(2, 6))
        ctx = ctx_at(sine_eg, k)
        acc = x
        for _ in range(n - 1):
            acc = arith(ctx, "mul", acc, x)
        assert power(ctx, x, n) == pytest.approx(acc, abs=1e-10)


@pytest.mark.parametrize("level", [0, 1, -1])
@pytest.mark.parametrize("n", [2**53 + 1, 2**53 + 2, 10**400, 10**400 + 1],
                         ids=["2**53+1", "2**53+2", "10**400", "10**400+1"])
def test_power_of_an_exponent_beyond_two_to_the_53(sine_eg, level, n):
    # n was converted to float: 10**400 overflowed to a "base-level result inf"
    # and 2**53 + 1 rounded to an even exponent, so (-1)**n gave 1.0
    ctx = ctx_at(sine_eg, level)  # the levels fix 0.5 and the integers
    assert power(ctx, 0.5, n) == 0.0
    assert power(ctx, -0.5, n) == 0.0
    assert power(ctx, 1.0, n) == 1.0
    assert power(ctx, -1.0, n) == (-1.0 if n % 2 else 1.0)
    sign = "-" if n % 2 else ""
    with pytest.raises(DomainError, match=f"base-level result {sign}inf is not finite"):
        power(ctx, -2.0, n)


def test_compare(sine_eg):
    assert compare(0.2, 0.7) == "less"
    assert compare(0.7, 0.2) == "greater"
    assert compare(0.5, 0.5) == "equal"
    g = sine_eg.forward
    assert compare(g(0.2), g(0.7)) == "less"
    for k in (-6, -1, 3):
        assert compare(0.5, sine_eg.iterate(0.5, k)) == "equal"
    # a NaN is unordered: it compared "equal" to every value
    for x, y in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (-math.inf, math.nan)):
        with pytest.raises(DomainError, match="unordered"):
            compare(x, y)


def test_order_preserved_by_iterates(sine_eg, rng):
    # saturation collapses distinct inputs into exact ties, so strict order
    # comparisons need iterates that stay resolvable
    xs = rng.uniform(0.2, 0.8, size=50)
    for k in (-5, -2, 2, 5):
        ys = np.asarray(sine_eg.iterate(xs, k))
        if not resolvable(*ys.tolist()):
            continue
        assert np.array_equal(np.argsort(xs), np.argsort(ys))
        assert int(np.argmax(xs)) == int(np.argmax(ys))


def test_argmax_under_saturation_collapse(sine_eg):
    xs = np.array([0.31, 0.97, 0.64, 0.99, 0.12])
    # resolvable iterates keep the maximum at index 3
    ys = np.asarray(sine_eg.iterate(xs, 2))
    assert int(np.argmax(ys)) == 3
    # by k=9 both 0.97 and 0.99 have saturated to exactly 1.0: order is
    # still (weakly) preserved but strictness is lost and argmax falls back
    # to the first tied slot
    ys9 = np.asarray(sine_eg.iterate(xs, 9))
    assert ys9[1] == 1.0 and ys9[3] == 1.0
    assert int(np.argmax(ys9)) == 1


def test_commutativity_exact(sine_eg, rng):
    for _ in range(30):
        k = int(rng.integers(-8, 9))
        x, y = rng.uniform(0.05, 0.95, size=2)
        ctx = ctx_at(sine_eg, k)
        for kind in ("add", "mul"):
            assert arith(ctx, kind, x, y) == arith(ctx, kind, y, x)


def test_associativity_and_distributivity(sine_eg, rng):
    # The laws are tested among representable level-k numbers: operands are
    # lifted from base draws and every pushed image that a later pull will
    # consume must stay resolvable (see conftest.resolvable), otherwise the
    # double grid has already collapsed the information.
    checked = 0
    for _ in range(500):
        k = int(rng.integers(-8, 9))
        ctx = ctx_at(sine_eg, k)
        base = rng.uniform(0.15, 0.85, size=3)
        x, y, z = (sine_eg.iterate(float(t), k) for t in base)
        xy = arith(ctx, "add", x, y)
        yz = arith(ctx, "add", y, z)
        xym = arith(ctx, "mul", x, y)
        yzm = arith(ctx, "mul", y, z)
        xzm = arith(ctx, "mul", x, z)
        if not resolvable(x, y, z, xy, yz, xym, yzm, xzm, margin=1e-5):
            continue
        checked += 1
        assert abs(arith(ctx, "add", xy, z) - arith(ctx, "add", x, yz)) < 1e-9
        assert abs(arith(ctx, "mul", xym, z) - arith(ctx, "mul", x, yzm)) < 1e-9
        distrib = abs(arith(ctx, "mul", x, yz) - arith(ctx, "add", xym, xzm))
        assert distrib < 1e-9
    assert checked >= 100


def test_cross_level_reexpressions(sine_eg, rng):
    # both displayed re-expressions of x op_{k+l} y agree with the direct
    # computation; routes with mixed-sign (k, l) pull pushed intermediates,
    # so those intermediates must stay resolvable for the comparison
    checked = 0
    for _ in range(300):
        k = int(rng.integers(-5, 6))
        l = int(rng.integers(-5, 6))
        x = float(rng.uniform(0.05, 0.95))
        y = float(rng.uniform(0.2, 0.9))
        top = ctx_at(sine_eg, k + l)
        x_down_l = sine_eg.iterate(x, -l)
        y_down_l = sine_eg.iterate(y, -l)
        x_down_k = sine_eg.iterate(x, -k)
        y_down_k = sine_eg.iterate(y, -k)
        for kind in ("add", "sub", "mul", "div"):
            direct = arith(top, kind, x, y)
            inner_k = arith(ctx_at(sine_eg, k), kind, x_down_l, y_down_l)
            inner_l = arith(ctx_at(sine_eg, l), kind, x_down_k, y_down_k)
            if not resolvable(x_down_l, y_down_l, x_down_k, y_down_k,
                              inner_k, inner_l, direct, margin=1e-5):
                continue
            checked += 1
            via_l = sine_eg.iterate(inner_k, l)
            via_k = sine_eg.iterate(inner_l, k)
            assert abs(direct - via_l) < 1e-9, (kind, k, l)
            assert abs(direct - via_k) < 1e-9, (kind, k, l)
    assert checked >= 200


U = 2.0**-53  # unit roundoff


def _iterate_bound(egen, x, err, k):
    """g_R^k(x) for an x that carries an absolute error err, and a first-order
    bound on the result's absolute error (Higham, ch. 1-3: each step scales
    err by the map's derivative and adds its own rounding).  A step's own
    rounding is 7.7u forward and 5.62u inverse relative to the folded value
    min(r, 1 - r) (see the oracle bounds of test_generator.py), plus u/2 for
    1 - r above 1/2; adding the integer back rounds once more."""
    n = math.floor(x)
    f = x - n
    for _ in range(abs(k)):
        if k > 0:
            err *= 0.5 * math.pi * math.sin(math.pi * f)  # g'(p) = (pi/2) sin(pi p)
        else:
            d = math.pi * math.sqrt(f * (1.0 - f))  # 1 / (g^-1)'(P)
            err = err / d if d else math.inf
        f = egen.iterate(f, 1 if k > 0 else -1)
        err += (7.7 if k > 0 else 5.62) * U * min(f, 1.0 - f) + (0.5 * U if f > 0.5 else 0.0)
    return n + f, err + 0.5 * math.ulp(n + f)


def _arith_bound(egen, level, kind, x, ex, y, ey):
    """arith at ``level`` on x, y with absolute errors ex, ey, and the bound
    on its result's error: pull both, carry the errors through the operation
    (first order) and its rounding, and push."""
    a, ea = _iterate_bound(egen, x, ex, -level)
    b, eb = _iterate_bound(egen, y, ey, -level)
    q, eq = {"add": (a + b, ea + eb), "sub": (a - b, ea + eb),
             "mul": (a * b, abs(b) * ea + abs(a) * eb),
             "div": (a / b, ea / abs(b) + abs(a) * eb / (b * b))}[kind]
    return _iterate_bound(egen, q, eq + 0.5 * math.ulp(q), level)


def test_isomorphism_identities(sine_eg, rng):
    # f^k(x op_{k+l} y) = f^k(x) op_l f^k(y); the left side pulls a pushed
    # value, so plateau-saturated draws are excluded and counted.  Up to
    # |rhs| = 1 the sides agree to 1e-9.  Above 1 an ulp of rhs grows with
    # it, and 1e-9 is 2 ulps at 2.7e6: there the gap is bounded by the sum
    # of both sides' first-order error bounds, which carry every rounding
    # through the derivatives of this draw's steps, so the bound in ulps of
    # |rhs| is the draw's conditioning times u.
    checked = 0
    for _ in range(300):
        k = int(rng.integers(-5, 6))
        l = int(rng.integers(-5, 6))
        x = float(rng.uniform(0.05, 0.95))
        y = float(rng.uniform(0.2, 0.9))
        x_down = sine_eg.iterate(x, -k)
        y_down = sine_eg.iterate(y, -k)
        for kind in ("add", "sub", "mul", "div"):
            combined = arith(ctx_at(sine_eg, k + l), kind, x, y)
            rhs = arith(ctx_at(sine_eg, l), kind, x_down, y_down)
            if not resolvable(combined, rhs, x_down, y_down, margin=1e-5):
                continue
            checked += 1
            lhs = sine_eg.iterate(combined, -k)
            tol = 1e-9
            if abs(rhs) > 1.0:
                c, ec = _arith_bound(sine_eg, k + l, kind, x, 0.0, y, 0.0)
                tol = _iterate_bound(sine_eg, c, ec, -k)[1] + _arith_bound(
                    sine_eg, l, kind, *_iterate_bound(sine_eg, x, 0.0, -k),
                    *_iterate_bound(sine_eg, y, 0.0, -k))[1]
            assert abs(lhs - rhs) <= tol, (kind, k, l, x, y)
    assert checked >= 250


def test_level_sum_and_prod(sine_eg, rng):
    for k in (-3, 0, 2):
        ctx = ctx_at(sine_eg, k)
        vals = [float(v) for v in rng.uniform(0.1, 0.9, size=4)]
        acc = vals[0]
        for v in vals[1:]:
            acc = arith(ctx, "add", acc, v)
        if resolvable(acc):
            assert level_sum(ctx, vals) == pytest.approx(acc, abs=1e-10)
        acc = vals[0]
        for v in vals[1:]:
            acc = arith(ctx, "mul", acc, v)
        assert level_prod(ctx, vals) == pytest.approx(acc, abs=1e-10)


@pytest.mark.parametrize("level", [1, -1])
def test_non_finite_base_result_raises(sine_eg, level):
    # integers are fixed at every level, so the pullbacks are the operands
    # themselves and the base-level product overflows
    ctx = ctx_at(sine_eg, level)
    calls = [lambda: arith(ctx, "mul", 1e200, 1e200),
             lambda: power(ctx, 1e200, 2),
             lambda: level_sum(ctx, [1e308, 1e308]),
             lambda: level_prod(ctx, [1e200, 1e200])]
    for call in calls:
        with pytest.raises(DomainError, match="not finite"):
            call()


@pytest.mark.parametrize("level", [0, 1, -1])
def test_embeddings_beyond_the_float_range_raise(sine_eg, level):
    ctx = ctx_at(sine_eg, level)
    with pytest.raises(DomainError, match="not finite"):
        embed_natural(ctx, 10**400)
    with pytest.raises(DomainError, match="not finite"):
        embed_rational(ctx, 10**400, 1)
    # a huge numerator and denominator with a finite ratio still embed
    assert embed_rational(ctx, 10**400, 10**399) == 10.0


@pytest.mark.parametrize("level", [0, 1, -1])
@pytest.mark.parametrize("call, sign", [
    (lambda ctx: level_sum(ctx, [-1e308, -1e308]), "-"),
    (lambda ctx: level_sum(ctx, [1e308, 1e308]), ""),
    (lambda ctx: embed_natural(ctx, -10**400), "-"),
    (lambda ctx: embed_rational(ctx, -10**400, 1), "-"),
    (lambda ctx: embed_rational(ctx, 10**400, -1), "-"),
    (lambda ctx: embed_rational(ctx, -10**400, -1), ""),
    (lambda ctx: power(ctx, -2.0, 100001), "-"),
    (lambda ctx: power(ctx, -2.0, 100000), ""),
], ids=["sum-neg", "sum-pos", "natural-neg", "rational-num-neg", "rational-den-neg",
        "rational-pos", "power-odd", "power-even"])
def test_an_overflow_keeps_its_sign(sine_eg, level, call, sign):
    # a negative overflow was reported as "base-level result inf"
    with pytest.raises(DomainError, match=f"base-level result {sign}inf is not finite"):
        call(ctx_at(sine_eg, level))


@pytest.mark.parametrize("level", [0, 1, -1])
def test_level_sum_of_opposite_infinities_raises(sine_eg, level):
    # every operation rejects a non-finite operand before it pulls, so no
    # numpy warning is emitted, and level-0 division by inf gives no 0.0
    ctx = ctx_at(sine_eg, level)
    calls = [lambda: level_sum(ctx, [math.inf, -math.inf]),
             lambda: level_sum(ctx, [0.5, math.nan]),
             lambda: arith(ctx, "add", math.inf, 1.0),
             lambda: arith(ctx, "div", 1.0, math.inf),
             lambda: arith(ctx, "mul", math.nan, 0.5),
             lambda: power(ctx, -math.inf, 2),
             lambda: level_prod(ctx, [0.5, math.inf])]
    for call in calls:
        with pytest.raises(DomainError, match="operand .* is not finite"):
            call()


@pytest.mark.parametrize("level", [0, 1, -1])
def test_an_int_operand_beyond_the_float_range_raises(sine_eg, level):
    # math.isfinite cannot convert it; its repr would be 401 digits long
    ctx = ctx_at(sine_eg, level)
    calls = [lambda: arith(ctx, "add", 10**400, 1),
             lambda: arith(ctx, "mul", 0.5, -10**400),
             lambda: level_sum(ctx, [0.5, 10**400]),
             lambda: level_prod(ctx, [10**400, 0.5]),
             lambda: power(ctx, 10**400, 2)]
    for call in calls:
        with pytest.raises(DomainError, match="int operand of 1329 bits lies beyond the float range"):
            call()


@pytest.mark.parametrize("level", [0, 1, -1])
def test_level_sum_finite_despite_partial_overflow(sine_eg, level):
    # fsum overflows on the partial sum 2e308, but the exact sum is 1e308;
    # integers are fixed at every level, so the pullbacks are the operands
    ctx = ctx_at(sine_eg, level)
    assert level_sum(ctx, [1e308, 1e308, -1e308]) == 1e308
    assert level_sum(ctx, [1e308, -1e308, 1e308, 5e307]) == 1.5e308
    with pytest.raises(DomainError, match="not finite"):
        level_sum(ctx, [1e308, 1e308, 1e307])


_FLOAT_MAX = 1.7976931348623157e308
_HUGE = st.floats(2.0**1020, _FLOAT_MAX)


def _integer_ratio_sum(values: list) -> float:
    """The correctly rounded sum of finite floats, inf when it overflows: their
    integer ratios over the largest (power-of-2) denominator, one int / int."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    try:
        return sum(n * (den // d) for n, d in ratios) / den
    except OverflowError:
        return math.inf


@given(st.lists(st.one_of(_HUGE, _HUGE.map(float.__neg__),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=8))
@example([_FLOAT_MAX, _FLOAT_MAX, -_FLOAT_MAX, -2.0**-1074])
@example([-_FLOAT_MAX, -1e308, 1e308, 2.0**970, 0.1])
@example([_FLOAT_MAX, _FLOAT_MAX])
@example([0.1, 0.2, -0.3])
def test_level_sum_is_the_exact_sum_rounded_once(sine_eg, values):
    ctx = ctx_at(sine_eg, 0)
    want = _integer_ratio_sum(values)
    try:
        fsum = math.fsum(values)
    except OverflowError:  # a partial sum overflowed: the fallback runs
        fsum = None
    if fsum is not None:
        assert fsum.hex() == want.hex()
    if math.isinf(want):
        with pytest.raises(DomainError, match="not finite"):
            level_sum(ctx, values)
    else:
        assert level_sum(ctx, values).hex() == (want + 0.0).hex()  # level 0 pushes -0.0 to 0.0


def test_a_cold_import_leaves_fractions_and_decimal_out():
    # fractions imports decimal, which costs a cold start some milliseconds (the
    # benchmark's setup_s times this import on every workload); only level_sum's
    # overflow fallback needs it, and imports it there
    out = run_python("import sys, nncalc, nncalc.cli\n"
                     "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    assert out == "[]\n"
