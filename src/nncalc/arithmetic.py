"""The four transported operations of the level-k arithmetic.

Level k replaces an ordinary operation by its conjugate under the k-th
iterate: x op_k y = g^k(g^{-k}(x) op g^{-k}(y)).  Level 0 is ordinary
arithmetic by convention; with the unit-periodic extension every level
fixed the integers, so integer arithmetic looks the same everywhere.
The ordering relation is shared by all levels because g is strictly
increasing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import DomainError, PullbackDivisionError
from .generator import ExtendedGenerator

_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}


@dataclass(frozen=True)
class ArithmeticContext:
    """An extended generator together with an integer level k.

    Neutral elements are 0 and 1 at every level because the unit-periodic
    extension fixes the integers.
    """

    egen: ExtendedGenerator
    level: int

    def push(self, x):
        """Map a base-arithmetic value to level k: g^k(x)."""
        return self.egen.iterate(x, self.level)

    def pull(self, x):
        """Map a level-k value back to the base arithmetic: g^{-k}(x)."""
        return self.egen.iterate(x, -self.level)


def _push_finite(ctx: ArithmeticContext, what: str, base: float) -> float:
    if not math.isfinite(base):  # the push would turn inf into NaN
        raise DomainError(f"{what} at level {ctx.level}: base-level result {base!r} is not finite")
    return ctx.egen.iterate(base, ctx.level)  # ctx.push, one call less on the scalar path


def _inf_on_overflow(op: Callable, *args) -> float:
    try:
        return op(*args)
    except OverflowError:  # float ** int and int / int raise where * and / give inf
        return math.inf


def _exact_sum(values: list) -> float:
    """The correctly rounded sum of floats, as fsum gives, without its overflow
    on a partial sum; inf when the sum itself overflows."""
    if not all(map(math.isfinite, values)):
        return sum(values)  # not finite either way
    ratios = [v.as_integer_ratio() for v in values]  # power-of-2 denominators
    den = max(d for _, d in ratios)
    # int / int rounds correctly, as fsum does
    return _inf_on_overflow(operator.truediv, sum(n * (den // d) for n, d in ratios), den)


def arith(ctx: ArithmeticContext, kind: str, x: float, y: float) -> float:
    """Apply one of add/sub/mul/div in the arithmetic of ``ctx.level``."""
    try:
        op = _OPS[kind]
    except KeyError:
        raise DomainError(f"unknown operation kind {kind!r}, expected one of {sorted(_OPS)}")
    px = ctx.pull(x)
    py = ctx.pull(y)
    if kind == "div" and py == 0.0:
        raise PullbackDivisionError(
            f"division by {y!r} whose level-{ctx.level} pullback is 0", pullback=py)
    return _push_finite(ctx, kind, op(px, py))


def embed_natural(ctx: ArithmeticContext, n: int) -> float:
    """The image n_k = g^k(n) of a natural number, equal to the n-fold
    level-k sum of the unit."""
    return ctx.push(float(n))


def embed_rational(ctx: ArithmeticContext, n: int, m: int) -> float:
    """The level-k rational (n/m)_k = g^k(n/m)."""
    if m == 0:
        raise DomainError("rational embedding needs a nonzero denominator")
    return ctx.push(n / m)


def power(ctx: ArithmeticContext, x: float, n: int) -> float:
    """The n-fold level-k product of x, evaluated as g^k(g^{-k}(x)^n)."""
    if n < 1:
        raise DomainError("power exponent must be a positive integer")
    return _push_finite(ctx, "power", _inf_on_overflow(operator.pow, ctx.pull(x), n))


def compare(x: float, y: float) -> str:
    """Ordering of two reals: 'less', 'equal' or 'greater'.

    Valid verbatim at every level of the hierarchy, since a strictly
    increasing bijection preserves order.
    """
    if x < y:
        return "less"
    if x > y:
        return "greater"
    return "equal"


def level_sum(ctx: ArithmeticContext, values: Iterable[float]) -> float:
    """Fold of the level-k addition over ``values``.

    Associativity lets the fold be evaluated with a single push of the
    compensated base-level sum; pairwise folding agrees within roundoff.
    """
    pulled = list(map(ctx.pull, values))
    try:
        base = math.fsum(pulled)
    except OverflowError:  # a partial sum overflowed; the exact sum may still be finite
        base = _exact_sum(pulled)
    except ValueError:  # inf and -inf among the pulled values; _push_finite rejects the NaN
        base = math.nan
    return _push_finite(ctx, "level_sum", base)


def level_prod(ctx: ArithmeticContext, values: Iterable[float]) -> float:
    """Fold of the level-k multiplication over ``values`` (single-push form)."""
    return _push_finite(ctx, "level_prod", math.prod(map(ctx.pull, values)))
