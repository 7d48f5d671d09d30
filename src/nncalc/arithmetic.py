"""The four transported operations of the level-k arithmetic.

Level k replaces an ordinary operation by its conjugate under the k-th
iterate: x op_k y = g^k(g^{-k}(x) op g^{-k}(y)).  Level 0 is ordinary
arithmetic by convention; with the unit-periodic extension every level
fixed the integers, so integer arithmetic looks the same everywhere.
The ordering relation is shared by all levels because g is strictly
increasing.  Every operation here, and every composite built on them,
pulls each operand back once, computes in ordinary arithmetic and pushes
the result once; a non-finite operand or base-level result raises
DomainError.  At level 0 the pull and the push of a float never call the
generator: g^0 is the identity, and they return x + 0.0, bitwise what
``iterate(x, 0)`` returns.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import DomainError, PullbackDivisionError
from .generator import ExtendedGenerator, _shown

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


def _pull_finite(egen: ExtendedGenerator, level: int, what: str, x: float) -> float:
    """g^-level(x) of a level-``level`` operand; a non-finite x is a DomainError."""
    try:
        finite = math.isfinite(x)
    except OverflowError as exc:  # an int beyond the float range, whose repr may be too long
        raise DomainError(f"{what} at level {_shown(level)}: an int operand of "
                          f"{x.bit_length()} bits lies beyond the float range") from exc
    if not finite:  # the pull would turn inf into NaN, or keep it at level 0
        raise DomainError(f"{what} at level {_shown(level)}: operand {x!r} is not finite")
    if not level and type(level) is int and type(x) is float:  # a level 0.0 is iterate's error
        return x + 0.0
    return egen.iterate(x, -level)


def _check_base(base: float | complex, what: str, level: int | None = None) -> None:
    """The one place where a non-finite base-level result, real or complex, becomes
    a DomainError; the level and pair arithmetics and the LLN bounds call it."""
    if not cmath.isfinite(base):  # a push or an inverse map would turn inf into NaN
        at = "" if level is None else f" at level {_shown(level)}"
        raise DomainError(f"{what}{at}: base-level result {base!r} is not finite")


def _push_finite(egen: ExtendedGenerator, level: int, what: str, base: float) -> float:
    """g^level(base) of a base-level result that passes _check_base."""
    _check_base(base, what, level)
    if not level and type(level) is int and type(base) is float:
        return base + 0.0
    return egen.iterate(base, level)


def _inf_on_overflow(op: Callable, *args, negative: bool = False) -> float:
    """op(*args), or where that overflows, -inf if ``negative`` else inf."""
    try:
        return op(*args)
    except OverflowError:  # float ** int, int / int and float(int) raise where * and / give inf
        return -math.inf if negative else math.inf


def _exact_sum(values: list) -> float:
    """The correctly rounded sum of floats, as fsum gives, without its overflow
    on a partial sum; inf when the sum itself overflows."""
    if not all(map(math.isfinite, values)):
        return sum(values)  # not finite either way
    from fractions import Fraction  # here, not at the top: it imports decimal, slow to load
    total = sum(map(Fraction, values))
    return _inf_on_overflow(float, total, negative=total < 0)  # one correct rounding, as fsum


def _sum_push(ctx: ArithmeticContext, what: str, pulled: list) -> float:
    """Push the correctly rounded sum of base-level values to ``ctx.level``."""
    try:
        base = math.fsum(pulled)
    except OverflowError:  # a partial sum overflowed; the exact sum may still be finite
        base = _exact_sum(pulled)
    except ValueError:  # inf and -inf among the values; _push_finite rejects the NaN
        base = math.nan
    return _push_finite(ctx.egen, ctx.level, what, base)


def arith(ctx: ArithmeticContext, kind: str, x: float, y: float) -> float:
    """Apply one of add/sub/mul/div in the arithmetic of ``ctx.level``."""
    try:
        op = _OPS[kind]
    except KeyError:
        raise DomainError(f"unknown operation kind {kind!r}, expected one of {sorted(_OPS)}")
    px = _pull_finite(ctx.egen, ctx.level, kind, x)
    py = _pull_finite(ctx.egen, ctx.level, kind, y)
    if kind == "div" and py == 0.0:
        raise PullbackDivisionError(
            f"division by {y!r} whose level-{ctx.level} pullback is 0", pullback=py)
    return _push_finite(ctx.egen, ctx.level, kind, op(px, py))


def embed_natural(ctx: ArithmeticContext, n: int) -> float:
    """The image n_k = g^k(n) of a natural number, equal to the n-fold
    level-k sum of the unit."""
    return _push_finite(ctx.egen, ctx.level, "embed_natural",
                        _inf_on_overflow(float, n, negative=n < 0))


def embed_rational(ctx: ArithmeticContext, n: int, m: int) -> float:
    """The level-k rational (n/m)_k = g^k(n/m)."""
    if m == 0:
        raise DomainError("rational embedding needs a nonzero denominator")
    return _push_finite(ctx.egen, ctx.level, "embed_rational",
                        _inf_on_overflow(operator.truediv, n, m, negative=(n < 0) != (m < 0)))


def power(ctx: ArithmeticContext, x: float, n: int) -> float:
    """The n-fold level-k product of x, evaluated as g^k(g^{-k}(x)^n)."""
    if n < 1:
        raise DomainError("power exponent must be a positive integer")
    px = _pull_finite(ctx.egen, ctx.level, "power", x)
    try:  # the sign from n's parity, as float ** int rounds an n beyond 2**53
        size = abs(px) ** n
    except OverflowError:  # the result, or n itself, lies beyond the float range
        size = math.inf if abs(px) > 1.0 else float(abs(px) == 1.0)
    return _push_finite(ctx.egen, ctx.level, "power", -size if px < 0.0 and n % 2 else size)


def compare(x: float, y: float) -> str:
    """Ordering of two reals: 'less', 'equal' or 'greater'.

    Valid verbatim at every level of the hierarchy, since a strictly
    increasing bijection preserves order.  A NaN, which no value is less
    than, greater than or equal to, is a DomainError.
    """
    if x < y:
        return "less"
    if x > y:
        return "greater"
    if x == y:
        return "equal"
    raise DomainError(f"compare: {_shown(x)} and {_shown(y)} are unordered")


def level_sum(ctx: ArithmeticContext, values: Iterable[float]) -> float:
    """Fold of the level-k addition over ``values``.

    Associativity lets the fold be evaluated with a single push of the
    compensated base-level sum; pairwise folding agrees within roundoff.
    """
    return _sum_push(ctx, "level_sum", [_pull_finite(ctx.egen, ctx.level, "level_sum", v) for v in values])


def level_prod(ctx: ArithmeticContext, values: Iterable[float]) -> float:
    """Fold of the level-k multiplication over ``values`` (single-push form)."""
    base = math.prod(_pull_finite(ctx.egen, ctx.level, "level_prod", v) for v in values)
    return _push_finite(ctx.egen, ctx.level, "level_prod", base)
