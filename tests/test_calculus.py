import math

import pytest

from nncalc.arithmetic import ArithmeticContext, arith
from nncalc.calculus import (
    LevelFunction,
    integrate_base,
    nn_derivative,
    nn_exp,
    nn_integral,
    nn_ln,
)
from nncalc.errors import DomainError, QuadratureError

from conftest import resolvable

# mpmath (50 digits): the unit-cell image of exp((2/pi) asin(sqrt(0.3)))
EXP_LEVEL11_AT_03 = 1.4160512570781461740760716021963


def lf(sine_eg, base, k=0, l=0, breakpoints=()):
    return LevelFunction(base, sine_eg, k, l, tuple(breakpoints))


def test_value_is_the_composed_pipeline(sine_eg):
    fn = lf(sine_eg, math.exp, k=2, l=-1)
    x = 0.37
    expected = sine_eg.iterate(math.exp(sine_eg.iterate(x, -2)), -1)
    assert fn.value(x) == expected


def test_derivative_identity_and_square(sine_eg):
    ident = lf(sine_eg, lambda r: r)
    assert nn_derivative(ident, 3.0) == pytest.approx(1.0, abs=1e-10)
    square = lf(sine_eg, lambda r: r * r)
    assert nn_derivative(square, 2.0) == pytest.approx(4.0, abs=1e-8)


def test_derivative_exp_is_exp(sine_eg):
    fn = lf(sine_eg, math.exp, k=1, l=1)
    assert nn_derivative(fn, 0.3) == pytest.approx(EXP_LEVEL11_AT_03, abs=1e-9)
    assert fn.value(0.3) == pytest.approx(EXP_LEVEL11_AT_03, abs=1e-12)


def test_derivative_rejects_non_finite_base(sine_eg):
    bad = lf(sine_eg, lambda r: math.nan)
    with pytest.raises(DomainError):
        nn_derivative(bad, 1.0)


def test_integral_linear_base(sine_eg):
    fn = lf(sine_eg, lambda r: r)
    assert nn_integral(fn, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_integral_uniform_density(sine_eg):
    fn = lf(sine_eg, lambda r: 1.0 / (2.0 * math.pi))
    assert nn_integral(fn, 0.0, 2.0 * math.pi) == pytest.approx(1.0, abs=1e-12)


def test_integral_requires_ordered_bounds(sine_eg):
    fn = lf(sine_eg, lambda r: r)
    with pytest.raises(DomainError):
        nn_integral(fn, 1.0, 0.0)


def test_integral_characteristic_product_with_lift(sine_eg):
    # product of two half-circle indicators against the uniform density,
    # pushed through the doubled-argument map G; overlap pi/2 out of 2 pi
    from nncalc.bell import GMap, HalfCircleChar

    chi1 = HalfCircleChar(0.5 * math.pi)
    chi2 = HalfCircleChar(0.0)

    def base(lam):
        return chi1.indicator(lam) * chi2.indicator(lam) / (2.0 * math.pi)

    cuts = sorted(set(chi1.breakpoints()) | set(chi2.breakpoints()))
    fn = LevelFunction(base, GMap(sine_eg), 0, 1, tuple(cuts))
    got = nn_integral(fn, 0.0, 2.0 * math.pi, tol=1e-12)
    # cross-check: half the generator image of twice the overlap
    overlap = 0.25
    assert got == pytest.approx(0.5 * sine_eg.forward(2.0 * overlap), abs=1e-12)
    assert got == pytest.approx(0.25, abs=1e-12)


def test_quadrature_error_carries_estimate(sine_eg):
    wild = lf(sine_eg, lambda r: math.sin(1.0 / r))
    with pytest.raises(QuadratureError) as err:
        nn_integral(wild, 1e-7, 1.0, tol=1e-13)
    assert math.isfinite(err.value.estimate)


def test_exp_ln_basics(sine_eg):
    assert nn_exp(sine_eg, 0, 0, 0.0) == 1.0
    assert nn_exp(sine_eg, 1, 1, 0.0) == 1.0
    assert nn_exp(sine_eg, 1, 1, 0.3) == pytest.approx(EXP_LEVEL11_AT_03, abs=1e-12)
    assert nn_ln(sine_eg, 1, 0, math.e) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        nn_ln(sine_eg, 0, 0, 0.0)


@pytest.mark.parametrize("call", [
    # a base-level result that is not finite
    lambda eg: nn_exp(eg, 0, 0, 710.0),  # exp overflows
    lambda eg: nn_exp(eg, 1, 0, 800.0),
    lambda eg: nn_ln(eg, 0, 0, math.inf),  # log(inf) is inf
    lambda eg: lf(eg, lambda r: math.inf).value(0.5),
    lambda eg: lf(eg, lambda r: math.inf, l=1).value(0.5),
    # a non-finite argument, rejected before it is pulled back
    lambda eg: nn_exp(eg, 1, 1, math.inf),
    lambda eg: nn_ln(eg, 0, 1, math.nan),
    lambda eg: lf(eg, math.sin, k=1).value(-math.inf),
    lambda eg: nn_derivative(lf(eg, math.sin, k=-1), math.nan),
    lambda eg: nn_integral(lf(eg, math.sin, k=1), 0.0, math.inf),
    lambda eg: lf(eg, math.sin, l=1).scaled_by(math.inf),
], ids=["exp-level0", "exp-level1", "ln-inf", "value-level0", "value-level1",
        "exp-arg", "ln-arg", "value-arg", "derivative-arg", "integral-arg", "scaled-arg"])
def test_level_maps_reject_non_finite(sine_eg, call):
    with pytest.raises(DomainError, match="not finite"):
        call(sine_eg)


def test_exp_ln_inverse(sine_eg, rng):
    checked = 0
    for _ in range(40):
        k = int(rng.integers(-3, 4))
        l = int(rng.integers(-3, 4))
        x = float(rng.uniform(0.05, 0.9))
        y = nn_exp(sine_eg, l, k, x)
        if not resolvable(y, margin=1e-5):
            continue
        checked += 1
        assert nn_ln(sine_eg, k, l, y) == pytest.approx(x, abs=1e-9)
    assert checked >= 25


def test_exp_homomorphism(sine_eg, rng):
    # exp turns level-k addition into level-l multiplication; draws whose
    # pushed intermediates sit on an integer plateau are excluded (see
    # conftest.resolvable)
    checked = 0
    for _ in range(60):
        k = int(rng.integers(-3, 4))
        l = int(rng.integers(-3, 4))
        x = float(rng.uniform(0.05, 0.45))
        y = float(rng.uniform(0.05, 0.45))
        s = arith(ArithmeticContext(sine_eg, k), "add", x, y)
        ex = nn_exp(sine_eg, l, k, x)
        ey = nn_exp(sine_eg, l, k, y)
        if not resolvable(s, ex, ey, margin=1e-5):
            continue
        checked += 1
        lhs = nn_exp(sine_eg, l, k, s)
        rhs = arith(ArithmeticContext(sine_eg, l), "mul", ex, ey)
        assert lhs == pytest.approx(rhs, abs=1e-9)
    assert checked >= 20


BASES = [
    (lambda r: r ** 3 - 2.0 * r + 1.5, lambda r: 3.0 * r ** 2 - 2.0),
    (math.exp, math.exp),
    (lambda r: 2.0 + math.sin(r), math.cos),
]


def test_fundamental_theorem_one(sine_eg, rng):
    # integral of the derivative equals the level-l difference of endpoint
    # values; the difference pulls pushed endpoint values, so those must
    # stay off the integer plateaus
    checked = 0
    for base, _ in BASES:
        base00 = lf(sine_eg, base)
        for _ in range(6):
            k = int(rng.integers(-3, 4))
            l = int(rng.integers(-3, 4))
            fn = lf(sine_eg, base, k, l)
            va, vb = fn.value(0.15), fn.value(0.85)
            if not resolvable(va, vb, margin=1e-5):
                continue
            checked += 1
            deriv = lf(sine_eg, lambda r: nn_derivative(base00, r), k, l)
            got = nn_integral(deriv, 0.15, 0.85, tol=1e-10)
            want = arith(ArithmeticContext(sine_eg, l), "sub", vb, va)
            assert got == pytest.approx(want, abs=1e-6), (k, l)
    assert checked >= 8


def test_fundamental_theorem_two(sine_eg, rng):
    # derivative of the running integral returns the integrand
    for base, _ in BASES[:2]:
        for _ in range(3):
            k = int(rng.integers(-3, 4))
            l = int(rng.integers(-3, 4))
            fn = lf(sine_eg, base, k, l)
            a = 0.1
            ra = sine_eg.iterate(a, -k)

            def running(r, _ra=ra, _base=base):
                return integrate_base(_base, _ra, r, tol=1e-12)

            running_fn = lf(sine_eg, running, k, l)
            for x in (0.3, 0.55, 0.8):
                got = nn_derivative(running_fn, x)
                assert got == pytest.approx(fn.value(x), abs=1e-5), (k, l, x)


def test_cross_level_chain_rule_derivative(sine_eg, rng):
    # the derivative at (l, k) equals the (l-m)-iterate image of the
    # derivative of the (m, n) representative at the shifted argument
    for _ in range(25):
        k, l, m, n = (int(v) for v in rng.integers(-2, 3, size=4))
        base, _ = BASES[int(rng.integers(0, len(BASES)))]
        x = float(rng.uniform(0.2, 0.8))
        fn = lf(sine_eg, base, k, l)
        other = lf(sine_eg, base, n, m)
        lhs = nn_derivative(fn, x)
        shifted = sine_eg.iterate(x, -(k - n))
        rhs = sine_eg.iterate(nn_derivative(other, shifted), l - m)
        assert lhs == pytest.approx(rhs, abs=1e-6), (k, l, m, n)


def test_cross_level_chain_rule_integral(sine_eg, rng):
    for _ in range(25):
        k, l, m, n = (int(v) for v in rng.integers(-2, 3, size=4))
        base, _ = BASES[int(rng.integers(0, len(BASES)))]
        a, b = 0.2, 0.75
        fn = lf(sine_eg, base, k, l)
        other = lf(sine_eg, base, n, m)
        lhs = nn_integral(fn, a, b, tol=1e-10)
        sa = sine_eg.iterate(a, -(k - n))
        sb = sine_eg.iterate(b, -(k - n))
        rhs = sine_eg.iterate(nn_integral(other, sa, sb, tol=1e-10), l - m)
        assert lhs == pytest.approx(rhs, abs=1e-6), (k, l, m, n)


def test_integral_level_linearity(sine_eg, rng):
    checked = 0
    for _ in range(20):
        k = int(rng.integers(-3, 4))
        l = int(rng.integers(-3, 4))
        ctx = ArithmeticContext(sine_eg, l)
        A = lf(sine_eg, lambda r: 1.2 + math.sin(r), k, l)
        B = lf(sine_eg, lambda r: 0.5 + r * r, k, l)
        a, b = 0.2, 0.8
        int_a = nn_integral(A, a, b, tol=1e-11)
        int_b = nn_integral(B, a, b, tol=1e-11)
        if not resolvable(int_a, int_b, margin=1e-5):
            continue
        checked += 1
        lhs = nn_integral(A.plus(B), a, b, tol=1e-11)
        assert lhs == pytest.approx(arith(ctx, "add", int_a, int_b), abs=1e-7)
        c = float(rng.uniform(0.2, 0.8))
        lhs = nn_integral(B.scaled_by(c), a, b, tol=1e-11)
        assert lhs == pytest.approx(arith(ctx, "mul", c, int_b), abs=1e-7)
    assert checked >= 8


def test_derivative_leibniz_rule(sine_eg, rng):
    for _ in range(10):
        k = int(rng.integers(-2, 3))
        l = int(rng.integers(-2, 3))
        ctx = ArithmeticContext(sine_eg, l)
        A = lf(sine_eg, lambda r: 1.0 + 0.5 * math.sin(r), k, l)
        B = lf(sine_eg, lambda r: 0.4 + r * r, k, l)
        x = float(rng.uniform(0.25, 0.75))
        lhs = nn_derivative(A.times(B), x)
        rhs = arith(ctx, "add",
                    arith(ctx, "mul", nn_derivative(A, x), B.value(x)),
                    arith(ctx, "mul", A.value(x), nn_derivative(B, x)))
        assert lhs == pytest.approx(rhs, abs=1e-5)


def test_combinators_require_matching_levels(sine_eg):
    A = lf(sine_eg, math.exp, 0, 1)
    B = lf(sine_eg, math.exp, 1, 1)
    with pytest.raises(DomainError):
        A.plus(B)
    with pytest.raises(DomainError):
        A.times(B)


def test_explicit_step_override(sine_eg):
    square = lf(sine_eg, lambda r: r * r)
    assert nn_derivative(square, 1.5, step=1e-5) == pytest.approx(3.0, abs=1e-9)
