import cmath
import math
import sys

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


def test_integrate_base_complex_integrand():
    # int_0^pi e^{ir} dr = (e^{i pi} - 1) / i = 2i
    got = integrate_base(lambda r: cmath.exp(1j * r), 0.0, math.pi)
    assert isinstance(got, complex)
    assert got == pytest.approx(2j, abs=1e-11)


def _square(r):
    return r * r


def test_integrate_base_over_an_empty_or_reversed_interval():
    assert integrate_base(_square, 0.3, 0.3) == 0.0
    assert integrate_base(_square, 1.0, 0.0) == -integrate_base(_square, 0.0, 1.0)


def test_integrate_base_rejects_a_non_finite_integral():
    with pytest.raises(QuadratureError, match="quadrature produced a non-finite value"):
        integrate_base(lambda r: 1e308, 0.0, 10.0)


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


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("x", [sys.float_info.max, -sys.float_info.max], ids=repr)
def test_derivative_at_the_top_of_the_float_range_raises(sine_eg, x, level):
    # r = x at both levels, as the extension fixes integers; r + h or r - h
    # overflows, and math.sin(inf) raised a raw ValueError
    with pytest.raises(DomainError, match="float range"):
        nn_derivative(lf(sine_eg, math.sin, k=level, l=level), x)


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
    got = nn_integral(fn, 0.0, 2.0 * math.pi)
    # cross-check: half the generator image of twice the overlap
    overlap = 0.25
    assert got == pytest.approx(0.5 * sine_eg.forward(2.0 * overlap), abs=1e-12)
    assert got == pytest.approx(0.25, abs=1e-12)


def test_quadrature_error_carries_estimate(sine_eg):
    wild = lf(sine_eg, lambda r: math.sin(1.0 / r))
    with pytest.raises(QuadratureError) as err:
        nn_integral(wild, 1e-7, 1.0)
    assert math.isfinite(err.value.estimate)


def _counted(f):
    calls = [0]

    def counted(r):
        calls[0] += 1
        return f(r)
    return counted, calls


def test_quadrature_accuracy_and_evaluations_against_mpmath(rng):
    # the integrands of the benchmark's quadrature calls; one 15-point panel
    # per piece is the common case, so the counts hold the rule's cost
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(40):
        for _ in range(200):
            c0, c1, w = rng.uniform(-1, 1), rng.uniform(0.5, 2), rng.uniform(1, 6)
            a, b = sorted(rng.uniform(0, 1, 2))
            f, calls = _counted(lambda r: c0 + c1 * math.sin(w * r))
            got = integrate_base(f, a, b)
            want = (mp.mpf(c0) * (mp.mpf(b) - a)
                    - c1 * (mp.cos(mp.mpf(w) * b) - mp.cos(mp.mpf(w) * a)) / w)
            worst = max(worst, abs(got - want))
            assert calls[0] <= 45, (c0, c1, w, a, b, calls)

            m = a + (b - a) * rng.uniform(0.1, 0.9)
            f, calls = _counted(lambda r: c0 + c1 * math.exp(-w * abs(r - m)))
            got = integrate_base(f, a, b, breakpoints=(m,))
            want = (mp.mpf(c0) * (mp.mpf(b) - a) + c1 * (2 - mp.exp(-w * (mp.mpf(m) - a))
                                                           - mp.exp(-w * (mp.mpf(b) - m))) / w)
            worst = max(worst, abs(got - want))
            assert calls[0] <= 45, (c0, c1, w, a, b, m, calls)

            c = complex(*rng.uniform(-1, 1, 2))
            w = rng.uniform(0.5, 3.0)
            nu = w + rng.choice([-1, 1]) * rng.uniform(0.1, 2.0)
            h = rng.uniform(0, 0.5)
            f, calls = _counted(lambda r: c * complex(math.cos(w * r), math.sin(w * r)))
            got = integrate_base(
                lambda r: f(r).conjugate() * complex(math.cos(nu * r), math.sin(nu * r)), -h, h)
            d = mp.mpf(nu) - w
            want = mp.conj(mp.mpc(c)) * 2 * mp.sin(d * h) / d
            worst = max(worst, abs(got - want))
            assert calls[0] <= 15, (c, w, nu, h, calls)
    assert worst <= 1e-13


def test_an_endpoint_singularity_raises_no_raw_exception(sine_eg):
    # no node of the rule lies on a panel's edge, so log and 1/sqrt are
    # never evaluated at 0: the integrable log converges, 1/sqrt does not
    assert nn_integral(lf(sine_eg, math.log), 0.0, 1.0) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(QuadratureError):
        nn_integral(lf(sine_eg, lambda r: 1.0 / math.sqrt(r)), 0.0, 1.0)


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


@pytest.mark.parametrize("call", [
    lambda eg: nn_exp(eg, 1, 1, 10**400),
    lambda eg: nn_ln(eg, 0, 1, 10**400),
    lambda eg: lf(eg, math.sin, k=1).value(10**400),
    lambda eg: lf(eg, math.sin).value(-10**400),
    lambda eg: nn_derivative(lf(eg, math.sin, k=-1), 10**400),
    lambda eg: nn_integral(lf(eg, math.sin, k=1), 0.0, 10**400),
], ids=["exp", "ln", "value-level1", "value-level0", "derivative", "integral"])
def test_level_maps_reject_an_int_beyond_the_float_range(sine_eg, call):
    with pytest.raises(DomainError, match="beyond the float range"):
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
            got = nn_integral(deriv, 0.15, 0.85)
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
                return integrate_base(_base, _ra, r)

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
        lhs = nn_integral(fn, a, b)
        sa = sine_eg.iterate(a, -(k - n))
        sb = sine_eg.iterate(b, -(k - n))
        rhs = sine_eg.iterate(nn_integral(other, sa, sb), l - m)
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
        int_a = nn_integral(A, a, b)
        int_b = nn_integral(B, a, b)
        if not resolvable(int_a, int_b, margin=1e-5):
            continue
        checked += 1
        lhs = nn_integral(A.plus(B), a, b)
        assert lhs == pytest.approx(arith(ctx, "add", int_a, int_b), abs=1e-7)
        c = float(rng.uniform(0.2, 0.8))
        lhs = nn_integral(B.scaled_by(c), a, b)
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


def _combined_oracle(A, B, op):
    """A.plus(B) / A.times(B) as written before _pointwise: the base op on two calls."""
    f, g = A.base, B.base
    base = (lambda r: f(r) + g(r)) if op == "plus" else (lambda r: f(r) * g(r))
    return LevelFunction(base, A.egen, A.source_level, A.target_level,
                         tuple(sorted(set(A.breakpoints) | set(B.breakpoints))))


def _outcome(fn, *args):
    try:
        return float(fn(*args)).hex()
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("op", ["plus", "times"])
def test_pointwise_combinators_keep_their_bits(sine_eg, rng, op):
    bases = [(math.sin, ()), (math.exp, ()), (lambda r: r * r - 0.3, (0.25,)),
             (lambda r: 1.0 if 0.2 <= r <= 0.6 else 0.0, (0.2, 0.6)), (math.cos, (0.6, 1.5))]
    for k, l in ((0, 0), (1, 0), (0, 1), (-1, 2)):
        for (f, bf), (g, bg) in zip(bases, bases[1:] + bases[:1]):
            A, B = lf(sine_eg, f, k, l, bf), lf(sine_eg, g, k, l, bg)
            got, want = getattr(A, op)(B), _combined_oracle(A, B, op)
            assert got.breakpoints == want.breakpoints
            xs = rng.uniform(-2.0, 2.0, 40).tolist() + [0.0, 0.2, 0.6, 1.0, -1.0, 1e-300]
            for x in xs:
                assert _outcome(got.value, x) == _outcome(want.value, x)
                assert _outcome(nn_derivative, got, x) == _outcome(nn_derivative, want, x)
            for a, b in ((0.0, 1.0), (-0.5, 0.75), (0.1, 0.1), (-1.5, 1.25)):
                assert (_outcome(nn_integral, got, a, b)
                        == _outcome(nn_integral, want, a, b))
