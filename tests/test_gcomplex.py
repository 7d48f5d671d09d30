import cmath
import math

import numpy as np
import pytest

from nncalc.errors import DomainError
from nncalc.gcomplex import (
    ComplexLevelFunction,
    GComplex,
    PairArithmetic,
    first_power,
    from_base,
    gc_add,
    gc_conj,
    gc_div,
    gc_i,
    gc_modulus_sq,
    gc_mul,
    gc_neg,
    gc_one,
    gc_pointwise_add,
    gc_power,
    gc_scalar_product,
    gc_scale,
    gc_sub,
    gc_zero,
    identity_bijection,
    to_base,
)
from nncalc.generator import sine_extended


@pytest.fixture(scope="module")
def pa_id():
    return PairArithmetic.identity()


@pytest.fixture(scope="module")
def pa_sine():
    return PairArithmetic.default_sine()


@pytest.mark.parametrize("pair", ["sine", "identity"])
def test_non_finite_components_raise(pair):
    # a product that overflows is rejected before the inverse map turns it into NaN
    pa = PairArithmetic.default_sine() if pair == "sine" else PairArithmetic.identity()
    big = GComplex(1e200, 1e200)
    with pytest.raises(DomainError, match="base-level result"):
        gc_mul(pa, big, big)
    with pytest.raises(DomainError, match="base-level result"):
        gc_add(pa, GComplex(1e308, 0.0), GComplex(1e308, 0.0))
    with pytest.raises(DomainError, match="overflows"):
        gc_power(pa, GComplex(2.0, 0.0), 2000)  # complex ** int raises OverflowError here
    with pytest.raises(DomainError, match="base-level result"):
        from_base(pa, complex(0.0, math.nan))
    for u in (GComplex(math.nan, 0.0), GComplex(0.5, math.inf), GComplex(-math.inf, 0.5)):
        with pytest.raises(DomainError, match="native component"):
            to_base(pa, u)
        with pytest.raises(DomainError, match="native component"):
            gc_conj(pa, u)


def test_first_power_identity_map(sine_eg):
    assert first_power(0.37, sine_eg, sine_eg) == pytest.approx(0.37, abs=1e-14)


def test_first_power_fixes_integers(sine_eg):
    ident = identity_bijection()
    for n in (-3.0, 0.0, 1.0, 5.0):
        assert first_power(n, ident, sine_eg) == n
        assert first_power(n, sine_eg, ident) == n


def test_first_power_closed_form(sine_eg):
    # transporting 1/4 into the sine arithmetic applies the inverse map
    got = first_power(0.25, identity_bijection(), sine_eg)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_first_power_composition(sine_eg, rng):
    ident = identity_bijection()
    for x in rng.uniform(0.05, 0.95, size=20):
        x = float(x)
        one_hop = first_power(first_power(x, ident, sine_eg), sine_eg, ident)
        assert one_hop == pytest.approx(x, abs=1e-10)


def test_identity_pair_simple_square(pa_id):
    got = gc_mul(pa_id, GComplex(1.0, 1.0), GComplex(1.0, 1.0))
    assert (got.x1, got.x2) == (0.0, 2.0)


def test_multiplicative_identity(pa_sine, rng):
    one = gc_one(pa_sine)
    for _ in range(10):
        u = GComplex(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
        got = gc_mul(pa_sine, u, one)
        assert got.x1 == pytest.approx(u.x1, abs=1e-12)
        assert got.x2 == pytest.approx(u.x2, abs=1e-12)


def test_i_squared_is_minus_one(pa_sine, pa_id):
    for pa in (pa_sine, pa_id):
        ii = gc_mul(pa, gc_i(pa), gc_i(pa))
        minus_one = gc_neg(pa, gc_one(pa))
        assert to_base(pa, ii) == to_base(pa, minus_one)
        assert ii.x1 == minus_one.x1 and ii.x2 == minus_one.x2


def test_conj_fixes_reals(pa_sine):
    u = GComplex(0.42, gc_zero(pa_sine).x2)
    got = gc_conj(pa_sine, u)
    assert got.x1 == u.x1
    assert abs(got.x2) < 1e-15


def test_modulus_squared(pa_id, pa_sine, rng):
    got = gc_modulus_sq(pa_id, GComplex(3.0, 4.0))
    assert (got.x1, got.x2) == (25.0, 0.0)
    for _ in range(40):
        u = GComplex(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
        m = gc_modulus_sq(pa_sine, u)
        assert m.x2 == 0.0
        assert pa_sine.f1.forward(m.x1) >= -1e-15
        # the composed route leaves an ulp-level base imaginary; the
        # inverse map's square root at 0 blows that up in native
        # coordinates, so the sharp statement lives at base level
        composed = gc_mul(pa_sine, u, gc_conj(pa_sine, u))
        assert abs(to_base(pa_sine, composed).imag) < 1e-14
        assert abs(composed.x2) < 1e-7


def test_identity_pair_bit_for_bit(pa_id, rng):
    # with trivial bijections the module must reproduce complex arithmetic
    # exactly, operation by operation
    re = rng.uniform(-10.0, 10.0, size=(2, 2000))
    im = rng.uniform(-10.0, 10.0, size=(2, 2000))
    for i in range(re.shape[1]):
        u = GComplex(re[0, i], im[0, i])
        v = GComplex(re[1, i], im[1, i])
        zu = complex(u.x1, u.x2)
        zv = complex(v.x1, v.x2)
        for op, zop in ((gc_add, zu + zv), (gc_sub, zu - zv),
                        (gc_mul, zu * zv), (gc_div, zu / zv)):
            got = op(pa_id, u, v)
            assert got.x1 == zop.real and got.x2 == zop.imag


def test_algebraic_laws(pa_sine, rng):
    for _ in range(30):
        u, v, w = (GComplex(float(a), float(b))
                   for a, b in rng.uniform(-1.2, 1.2, size=(3, 2)))
        lhs = gc_add(pa_sine, u, gc_add(pa_sine, v, w))
        rhs = gc_add(pa_sine, gc_add(pa_sine, u, v), w)
        assert to_base(pa_sine, lhs) == pytest.approx(to_base(pa_sine, rhs), abs=1e-9)
        lhs = gc_mul(pa_sine, u, gc_mul(pa_sine, v, w))
        rhs = gc_mul(pa_sine, gc_mul(pa_sine, u, v), w)
        assert to_base(pa_sine, lhs) == pytest.approx(to_base(pa_sine, rhs), abs=1e-9)
        lhs = gc_mul(pa_sine, u, gc_add(pa_sine, v, w))
        rhs = gc_add(pa_sine, gc_mul(pa_sine, u, v), gc_mul(pa_sine, u, w))
        assert to_base(pa_sine, lhs) == pytest.approx(to_base(pa_sine, rhs), abs=1e-9)
        swap = gc_mul(pa_sine, v, u)
        assert to_base(pa_sine, gc_mul(pa_sine, u, v)) == to_base(pa_sine, swap)


def test_decomposition_into_real_and_imaginary(pa_sine, rng):
    i_unit = gc_i(pa_sine)
    for _ in range(10):
        u = GComplex(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
        re_part = GComplex(u.x1, gc_zero(pa_sine).x2)
        im_as_x1 = first_power(u.x2, pa_sine.f2, pa_sine.f1)
        im_part = GComplex(im_as_x1, gc_zero(pa_sine).x2)
        rebuilt = gc_add(pa_sine, re_part, gc_mul(pa_sine, i_unit, im_part))
        assert rebuilt.x1 == pytest.approx(u.x1, abs=1e-12)
        assert rebuilt.x2 == pytest.approx(u.x2, abs=1e-12)


def test_power_transport_laws(sine_eg, rng):
    # transporting a product (or sum) equals the product (sum) of transports;
    # multiplication in the source arithmetic is f^{-1}(f(x) f(y)) with
    # f = the arithmetic's defining bijection (here the forward map)
    ident = identity_bijection()
    for _ in range(20):
        x, y = (float(v) for v in rng.uniform(0.05, 0.9, size=2))
        fx, fy = sine_eg.forward(x), sine_eg.forward(y)
        prod_in_x = sine_eg.inverse(fx * fy)
        lhs = first_power(prod_in_x, sine_eg, ident)
        rhs = first_power(x, sine_eg, ident) * first_power(y, sine_eg, ident)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        sum_in_x = sine_eg.inverse(fx + fy)
        lhs = first_power(sum_in_x, sine_eg, ident)
        rhs = first_power(x, sine_eg, ident) + first_power(y, sine_eg, ident)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_nth_power_consistency(pa_sine, rng):
    for _ in range(10):
        u = GComplex(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
        n = int(rng.integers(2, 5))
        acc = u
        for _ in range(n - 1):
            acc = gc_mul(pa_sine, acc, u)
        direct = gc_power(pa_sine, u, n)
        assert to_base(pa_sine, direct) == pytest.approx(to_base(pa_sine, acc), abs=1e-9)
    with pytest.raises(DomainError):
        gc_power(pa_sine, GComplex(0.5, 0.5), 0)


def test_division_by_zero(pa_sine):
    with pytest.raises(DomainError):
        gc_div(pa_sine, gc_one(pa_sine), gc_zero(pa_sine))


def test_scalar_product_constant(pa_id):
    A = ComplexLevelFunction(lambda r: 1.0 + 0.0j, identity_bijection(), pa_id)
    got = gc_scalar_product(A, A, 1.0)
    assert got.x1 == pytest.approx(1.0, abs=1e-12)
    assert got.x2 == pytest.approx(0.0, abs=1e-14)


def test_scalar_product_orthogonal(pa_id):
    dom = identity_bijection()
    A = ComplexLevelFunction(lambda r: complex(math.sin(r)), dom, pa_id)
    B = ComplexLevelFunction(lambda r: complex(math.cos(r)), dom, pa_id)
    got = gc_scalar_product(A, B, 2.0 * math.pi, tol=1e-12)
    assert abs(got.x1) < 1e-9 and abs(got.x2) < 1e-9


def test_scalar_product_conjugate_symmetry(pa_sine, rng):
    dom = identity_bijection()
    c1, c2 = (complex(*rng.uniform(-1.0, 1.0, size=2)) for _ in range(2))
    A = ComplexLevelFunction(lambda r: c1 * cmath.exp(1j * r), dom, pa_sine)
    B = ComplexLevelFunction(lambda r: c2 * complex(r * r, math.sin(r)), dom, pa_sine)
    ab = gc_scalar_product(A, B, 2.0, tol=1e-12)
    ba = gc_scalar_product(B, A, 2.0, tol=1e-12)
    flipped = gc_conj(pa_sine, ab)
    assert flipped.x1 == pytest.approx(ba.x1, abs=1e-9)
    assert flipped.x2 == pytest.approx(ba.x2, abs=1e-9)


def test_scalar_product_homogeneity(pa_sine, rng):
    dom = identity_bijection()
    A = ComplexLevelFunction(lambda r: complex(1.0, 0.5 * r), dom, pa_sine)
    B = ComplexLevelFunction(lambda r: complex(math.cos(r), r), dom, pa_sine)
    lam = GComplex(float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.8, 0.8)))
    lhs = gc_scalar_product(A, gc_scale(B, lam), 1.5, tol=1e-12)
    rhs = gc_mul(pa_sine, lam, gc_scalar_product(A, B, 1.5, tol=1e-12))
    assert lhs.x1 == pytest.approx(rhs.x1, abs=1e-9)
    assert lhs.x2 == pytest.approx(rhs.x2, abs=1e-9)


def test_scalar_product_additivity(pa_sine):
    dom = identity_bijection()
    A = ComplexLevelFunction(lambda r: complex(0.3, 0.1), dom, pa_sine)
    B = ComplexLevelFunction(lambda r: complex(r, 0.2), dom, pa_sine)
    C = ComplexLevelFunction(lambda r: complex(0.5 * r * r, -r), dom, pa_sine)
    from nncalc.gcomplex import gc_pointwise_add
    lhs = gc_scalar_product(A, gc_pointwise_add(B, C), 1.0, tol=1e-12)
    rhs = gc_add(pa_sine, gc_scalar_product(A, B, 1.0, tol=1e-12),
                 gc_scalar_product(A, C, 1.0, tol=1e-12))
    assert lhs.x1 == pytest.approx(rhs.x1, abs=1e-9)
    assert lhs.x2 == pytest.approx(rhs.x2, abs=1e-9)


def test_value_through_diagram(pa_sine):
    dom = sine_extended()
    A = ComplexLevelFunction(lambda r: complex(r, -r), dom, pa_sine)
    x = 0.3
    r = dom.forward(x)
    want = from_base(pa_sine, complex(r, -r))
    got = A.value(x)
    assert got.x1 == want.x1 and got.x2 == want.x2
