"""Complex numbers whose real and imaginary parts live in two arithmetics.

A pair (x1, x2) in X1 x X2 is identified with the ordinary complex number
x~ = f1(x1) + i f2(x2), where f1 and f2 are the bijections defining the two
arithmetics.  All algebra is performed on the tildes and mapped back per
component, which is both the shortest derivation of the operations and the
numerically shortest path: with identity bijections the module *is*
ordinary complex arithmetic.

The canonical transport between two arithmetics is the first power
x -> f_to^{-1}(f_from(x)); repeated multiplications reduce to transported
ordinary powers.  Scalar products of complex-valued functions are ordinary
inner-product integrals of the base representations, mapped back the same
way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .arithmetic import _check_base
from .calculus import integrate_base
from .errors import DomainError
from .generator import (_FLOAT_MAX, ExtendedGenerator, _check_in, _in_float_range, _shown,
                        sine_extended)


class IdentityBijection:
    """The trivial arithmetic: f(x) = x, bit-exact in both directions.

    A dedicated passthrough rather than an extended identity generator:
    the unit-cell reduction of the latter rounds the low bits of values
    with small fractional parts, which would break exact reproduction of
    ordinary complex arithmetic.
    """

    name = "identity"

    def forward(self, x):
        return x if isinstance(x, float) else _in_float_range(float, x)

    inverse = forward


def identity_bijection() -> IdentityBijection:
    return IdentityBijection()


@dataclass(frozen=True)
class PairArithmetic:
    """Bijections (f1, f2) for the real-part and imaginary-part arithmetics.

    Either entry may be any object exposing strictly increasing
    ``forward``/``inverse`` callables on the reals (extended generators do).
    """

    f1: ExtendedGenerator | IdentityBijection
    f2: ExtendedGenerator | IdentityBijection

    @classmethod
    def identity(cls) -> "PairArithmetic":
        return cls(identity_bijection(), identity_bijection())

    @classmethod
    def default_sine(cls) -> "PairArithmetic":
        egen = sine_extended()
        return cls(egen, egen)


@dataclass(frozen=True)
class GComplex:
    """A generalized complex number: components in their native arithmetics."""

    x1: float
    x2: float


def _check_native(u: GComplex) -> None:
    for x in (u.x1, u.x2):
        _check_in(x, -_FLOAT_MAX, _FLOAT_MAX, "a native component must be finite")


def to_base(pa: PairArithmetic, u: GComplex) -> complex:
    """The ordinary complex number f1(x1) + i f2(x2) behind a finite u."""
    _check_native(u)
    return complex(pa.f1.forward(u.x1), pa.f2.forward(u.x2))


def from_base(pa: PairArithmetic, z: complex) -> GComplex:
    """Map a complex number back to native components; a non-finite part is a DomainError."""
    _check_base(z, "pair arithmetic")
    return GComplex(pa.f1.inverse(z.real), pa.f2.inverse(z.imag))


def gc_zero(pa: PairArithmetic) -> GComplex:
    return from_base(pa, complex(0.0, 0.0))


def gc_one(pa: PairArithmetic) -> GComplex:
    return from_base(pa, complex(1.0, 0.0))


def gc_i(pa: PairArithmetic) -> GComplex:
    """The imaginary unit (0_{X1}, 1_{X2})."""
    return from_base(pa, complex(0.0, 1.0))


def gc_add(pa: PairArithmetic, u: GComplex, v: GComplex) -> GComplex:
    return from_base(pa, to_base(pa, u) + to_base(pa, v))


def gc_sub(pa: PairArithmetic, u: GComplex, v: GComplex) -> GComplex:
    return from_base(pa, to_base(pa, u) - to_base(pa, v))


def gc_mul(pa: PairArithmetic, u: GComplex, v: GComplex) -> GComplex:
    return from_base(pa, to_base(pa, u) * to_base(pa, v))


def gc_div(pa: PairArithmetic, u: GComplex, v: GComplex) -> GComplex:
    zv = to_base(pa, v)
    if zv == 0:
        raise DomainError("division by the zero of the pair arithmetic")
    return from_base(pa, to_base(pa, u) / zv)


def gc_neg(pa: PairArithmetic, u: GComplex) -> GComplex:
    return from_base(pa, -to_base(pa, u))


def gc_conj(pa: PairArithmetic, u: GComplex) -> GComplex:
    """Conjugation: the X2 component flips through its own arithmetic."""
    _check_native(u)
    return GComplex(u.x1, pa.f2.inverse(-pa.f2.forward(u.x2)))


def gc_modulus_sq(pa: PairArithmetic, u: GComplex) -> GComplex:
    """u (x) conj(u); real in the sense that the X2 component is the X2 zero.

    Evaluated in a single base pass, where the imaginary parts cancel
    exactly; composing gc_mul with gc_conj gives the same number up to an
    ulp-level base imaginary, which the inverse map's square-root behaviour
    at 0 would otherwise inflate in native coordinates.
    """
    z = to_base(pa, u)
    return from_base(pa, z * z.conjugate())


def first_power(x: float, frm: ExtendedGenerator | IdentityBijection,
                to: ExtendedGenerator | IdentityBijection) -> float:
    """Canonical transport of x between arithmetics: f_to^{-1}(f_from(x))."""
    return to.inverse(frm.forward(x))


def gc_power(pa: PairArithmetic, u: GComplex, n: int) -> GComplex:
    """n-fold pair-arithmetic product of u with itself."""
    if n < 1:
        raise DomainError("power exponent must be a positive integer")
    try:
        return from_base(pa, to_base(pa, u) ** n)
    except OverflowError as exc:  # complex ** int raises above n = 100 where * gives inf
        raise DomainError(f"power {_shown(n)} of the base value overflows") from exc


@dataclass(frozen=True)
class ComplexLevelFunction:
    """A complex-valued map from an arithmetic X into a pair arithmetic Y.

    Stored through the base representation: ``base(r)`` is the ordinary
    complex value at r = f_X(x).
    """

    base: Callable[[float], complex]
    domain: ExtendedGenerator | IdentityBijection
    target: PairArithmetic

    def value(self, x: float) -> GComplex:
        return from_base(self.target, complex(self.base(self.domain.forward(x))))


def gc_scale(fn: ComplexLevelFunction, lam: GComplex) -> ComplexLevelFunction:
    """Pointwise pair-arithmetic multiple lam (x) fn; the base just scales."""
    z = to_base(fn.target, lam)
    base = fn.base
    return ComplexLevelFunction(lambda r: z * complex(base(r)), fn.domain, fn.target)


def gc_pointwise_add(fn: ComplexLevelFunction, other: ComplexLevelFunction) -> ComplexLevelFunction:
    """Pointwise pair-arithmetic sum; both operands must be expressed over
    the same arithmetics (the result uses ``fn``'s handles)."""
    f, g = fn.base, other.base
    return ComplexLevelFunction(lambda r: complex(f(r)) + complex(g(r)), fn.domain, fn.target)


def gc_scalar_product(A: ComplexLevelFunction, B: ComplexLevelFunction, T: float) -> GComplex:
    """Inner product of two complex-valued level functions over [-T/2, T/2] in X.

    Integrates conj(A~) B~ as one complex function over the pulled-back
    interval [-f_X(T)/2, f_X(T)/2], so each base runs once per quadrature
    point, and maps the result back through the target pair.
    Both functions must be expressed over the same arithmetics; the result
    uses A's handles.  Conjugate symmetry and homogeneity in the second
    slot follow from the base representation.
    """
    half = A.domain.forward(T) / 2.0
    fa, fb = A.base, B.base
    z = integrate_base(lambda r: complex(fa(r)).conjugate() * complex(fb(r)), -half, half)
    return from_base(A.target, complex(z))
