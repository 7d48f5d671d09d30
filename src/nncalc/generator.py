"""Complement-symmetric bijections of [0,1] and their real-line extensions.

A generator is a strictly increasing bijection g of the unit interval with
g(0)=0, g(1)=1 and g(p) + g(1-p) = 1.  Equivalently g(p) = 1/2 + h(p - 1/2)
for an odd map h of [-1/2, 1/2] into itself, so every generator fixes 1/2.
Composition preserves the class, hence every integer self-composition g^k is
again a generator; the family {g^k} is the backbone of the whole package.

For arithmetic on all of R the generator is extended by unit-cell
translation, g_R(x) = floor(x) + g(x - floor(x)), which keeps g_R strictly
increasing, bijective, and fixes every integer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, LevelRangeError

#: Cap on |k| for integer self-composition.
LEVEL_CAP = 64

_TWO_OVER_PI = 2.0 / math.pi
_HALF_PI = 0.5 * math.pi
_SCALAR_TYPES = (float, int, np.floating)
#: elements per block of the array path: 128 KiB of float64, so a block and
#: the few temporaries of one step stay in the per-core cache
_BLOCK = 1 << 14
#: below this t the sine generator's half step is bitwise t *= pi/2, t *= t:
#: fl(t pi/2) < 2**-26, where sin(x) rounds to x
_SIN_IS_IDENTITY = 2.0**-27
#: forward fold-loop steps from which a block is sorted once; measured in
#: _fold_iterate's docstring
_SORT_STEPS = 6
_BISECT_ROUNDS = 47  # bisection rounds; they leave brackets of [0,1] 2**-47 < 1e-14 wide
_BAND_GRID = 1001  # points of the uniform grid of [0,1] that effective_band scans


def _is_finite_scalar(x) -> bool:
    """True for a finite Python or numpy real scalar; no array counts, not even 0-d."""
    return isinstance(x, _SCALAR_TYPES) and math.isfinite(x)


@dataclass(frozen=True)
class Generator:
    """A strictly increasing bijection of [0,1] with the complement symmetry.

    ``forward`` and ``inverse`` must accept floats or numpy arrays and be
    elementwise: each output element depends on its own input element alone,
    so :class:`ExtendedGenerator` may evaluate an array block by block.  (The
    bisection inverse of :func:`convex_combine` qualifies: every bracket
    halves in lock-step, so each block stops on the same round.)  The sine
    generator maps a finite scalar to a builtin ``float`` that is bitwise
    equal to the corresponding element of the array result.  Values are
    immutable after construction and safe to share across threads.
    """

    name: str
    forward: Callable
    inverse: Callable

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Generator({self.name!r})"


def _fold(p):
    """t = min(p, 1 - p) as a new array, even when p is 0-d; exact on [0, 1]."""
    t = np.subtract(1.0, p, out=np.empty(p.shape))
    return np.minimum(p, t, out=t)


def _unfold(p, r):
    """Mirror r = f(min(p, 1 - p)) back to f(p): r below 1/2, 1 - r above, 1/2 pinned.

    One scratch array holds 1 - 2c and then c, which keeps the heap a block
    smaller than two would.
    """
    t = np.greater(p, 0.5, out=np.empty(p.shape))  # c: 1.0 above 1/2, else 0.0
    t *= -2.0
    t += 1.0  # 1 - 2c: -1.0 above 1/2, else 1.0
    r *= t
    t *= -0.5
    t += 0.5  # c again, exactly
    r += t
    r[p == 0.5] = 0.5
    return r


def _sin2_half(t):
    """t -> sin^2(pi t / 2) in place, the sine generator on [0, 1/2]."""
    t *= _HALF_PI
    np.sin(t, out=t)
    t *= t
    return t


def _asin_sqrt_half(t):
    """t -> (2/pi) arcsin(sqrt(t)) in place, the sine generator's inverse on [0, 1/2]."""
    np.maximum(t, 0.0, out=t)
    np.sqrt(t, out=t)
    np.arcsin(t, out=t)
    t *= _TWO_OVER_PI
    return t


def _sine_forward(p):
    """The sine generator g(p) = sin^2(pi p / 2), see :func:`make_sine_generator`."""
    if _is_finite_scalar(p):
        p = float(p)  # a numpy float32 would keep the arithmetic in float32
        if p == 0.5:
            return 0.5
        if p < 0.5:
            s = math.sin(_HALF_PI * p)
            return s * s  # arrays square as x*x; a float's ** 2 calls pow()
        s = math.sin(_HALF_PI * (1.0 - p))
        return 1.0 - s * s
    p = np.asarray(p, dtype=float)
    return _unfold(p, _sin2_half(_fold(p)))


def _sine_inverse(P):
    """Its inverse (2/pi) arcsin(sqrt(P)), see :func:`make_sine_generator`."""
    if _is_finite_scalar(P):
        P = float(P)
        if P == 0.5:
            return 0.5
        if P < 0.5:
            # P > 0.0 rather than max(): numpy's maximum maps -0.0 to +0.0
            return _TWO_OVER_PI * float(np.arcsin(math.sqrt(P if P > 0.0 else 0.0)))
        Q = 1.0 - P
        return 1.0 - _TWO_OVER_PI * float(np.arcsin(math.sqrt(Q if Q > 0.0 else 0.0)))
    P = np.asarray(P, dtype=float)
    return _unfold(P, _asin_sqrt_half(_fold(P)))


def make_sine_generator() -> Generator:
    """The trigonometric generator g(p) = sin^2(pi p / 2).

    Evaluated piecewise through the mirror symmetry: sin^2(pi p/2) below
    1/2 and 1 - sin^2(pi (1-p)/2) above, with 1/2 pinned.  This keeps the
    three fixed points 0, 1/2, 1 exact in floating point and gives full
    relative accuracy near both endpoints, where naive shifted-sine forms
    cancel catastrophically.  The inverse (2/pi) arcsin(sqrt(P)) is closed
    form, mirrored the same way.  Finite scalars take the same branches
    without building an array.

    Arrays fold, evaluate once and unfold: r = sin^2(pi t/2) on
    t = min(p, 1 - p), then r (1 - 2c) + c with c = 1 above 1/2 and 0
    elsewhere, and 1/2 pinned.  t is exactly the argument of the branch that
    p selects, and r * 1 + 0 = r (r is never -0.0) and r * -1 + 1 = 1 - r
    hold exactly, so the result is bitwise the two-branch form.  That costs
    one sine per element and no data-dependent select (``np.where`` on a
    mixed mask costs about half a sine).  The array forward and inverse are
    exactly fold, half map, unfold, ``_unfold(p, half(_fold(p)))`` with the
    half maps ``_sin2_half`` and ``_asin_sqrt_half``, so sin^2 and arcsin
    sqrt each have one array implementation, which the iterate loop of
    :class:`ExtendedGenerator` shares.

    ``math.sin`` and ``math.sqrt`` agree with numpy bitwise (the
    equivalence tests check this); ``math.asin`` does not, so arcsin stays
    on numpy's ufunc.
    """
    return Generator("sine", _sine_forward, _sine_inverse)


def make_identity_generator() -> Generator:
    """The trivial generator g(p) = p (level shifts become no-ops)."""

    def identity(p):
        return np.asarray(p, dtype=float) + 0.0

    return Generator("identity", identity, identity)


def _bisect_increasing(fn: Callable, y):
    """Solve fn(x) = y for increasing fn on [0,1], vectorized bisection."""
    y = np.asarray(y, dtype=float)
    lo = np.zeros_like(y)
    hi = np.ones_like(y)
    for _ in range(_BISECT_ROUNDS):
        mid = 0.5 * (lo + hi)
        below = np.asarray(fn(mid)) <= y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    # the endpoints are known exactly for any bijection of this class
    x = np.where(y == 0.0, 0.0, x)
    x = np.where(y == 1.0, 1.0, x)
    return x


def convex_combine(gens: Sequence[Generator], weights: Sequence[float]) -> Generator:
    """Convex combination sum_j w_j g_j, again a valid generator.

    The combination of odd parts stays odd, so the complement symmetry is
    inherited.  No closed-form inverse exists in general; the inverse is
    computed by bisection, which monotonicity guarantees to converge: each
    of the ``_BISECT_ROUNDS`` rounds halves every bracket exactly.
    """
    gens = list(gens)
    try:
        weights = [float(w) for w in weights]
    except OverflowError as exc:  # an int beyond the float range
        raise DomainError("weights must lie in [0, 1]") from exc
    if not gens:
        raise DomainError("convex_combine requires at least one generator")
    if len(gens) != len(weights):
        raise DomainError("one weight per generator required")
    # written so that a NaN fails; weights in [0, 1] also keep fsum from overflowing
    if not all(0.0 <= w <= 1.0 for w in weights):
        raise DomainError("weights must lie in [0, 1]")
    if not abs(math.fsum(weights) - 1.0) <= 1e-12:
        raise DomainError(f"weights must sum to 1, got {math.fsum(weights)!r}")

    gen_tuple = tuple(gens)
    w_tuple = tuple(weights)

    def forward(p):
        p = np.asarray(p, dtype=float)
        acc = w_tuple[0] * np.asarray(gen_tuple[0].forward(p))
        for g, w in zip(gen_tuple[1:], w_tuple[1:]):
            acc = acc + w * np.asarray(g.forward(p))
        return acc

    def inverse(P):
        return _bisect_increasing(forward, P)

    names = ",".join(g.name for g in gen_tuple)
    return Generator(f"convex({names})", forward, inverse)


def validate_generator(gen: Generator, grid_points: int = 10_000, tol: float = 1e-12) -> None:
    """Check the defining invariants on a uniform grid; raise DomainError on failure.

    Verified: endpoint fixing within 1 ulp, strict monotonicity, inverse
    round-trip within ``tol``, and the complement functional equation within
    ``tol``.
    """
    p = np.linspace(0.0, 1.0, grid_points)
    fp = np.asarray(gen.forward(p), dtype=float)
    if abs(float(fp[0])) > 5e-16 or abs(float(fp[-1]) - 1.0) > 5e-16:
        raise DomainError(f"{gen.name}: endpoints not fixed: g(0)={fp[0]!r}, g(1)={fp[-1]!r}")
    if not np.all(np.diff(fp) > 0.0):
        raise DomainError(f"{gen.name}: forward not strictly increasing on the grid")
    back = np.asarray(gen.inverse(fp), dtype=float)
    worst_rt = float(np.max(np.abs(back - p)))
    if worst_rt > tol:
        raise DomainError(f"{gen.name}: inverse round-trip off by {worst_rt:.3e}")
    resid = float(np.max(np.abs(fp + np.asarray(gen.forward(1.0 - p)) - 1.0)))
    if resid > tol:
        raise DomainError(f"{gen.name}: complement equation violated by {resid:.3e}")


def h_view(gen: Generator, x):
    """The odd part h(x) = g(x + 1/2) - 1/2 on [-1/2, 1/2]."""
    arr = np.asarray(x, dtype=float)
    if arr.size and not (arr.min() >= -0.5 and arr.max() <= 0.5):  # a NaN fails
        raise DomainError("h_view argument must lie in [-1/2, 1/2]")
    out = np.asarray(gen.forward(arr + 0.5)) - 0.5
    return float(out) if out.ndim == 0 else out


def _cell_scalar(fn: Callable, x: float) -> float:
    """floor(x) + fn(x - floor(x)) on a finite float, without numpy."""
    n = float(math.floor(x))
    return n + float(fn(x - n))


def _cell_array(fn: Callable, x):
    """floor(x) + fn(x - floor(x)) elementwise on a 1-d block, as a new array."""
    n = np.floor(x)
    n += fn(x - n)
    return n


def _fold_iterate(half: Callable, p, steps: int):
    """``steps`` >= 1 steps of a generator on a 1-d block p inside [0, 1], as a new array.

    The block is folded once into t = min(p, 1 - p), runs ``steps`` bare
    half-map steps and is unfolded once.  Between two steps a lane above
    1/2 holds x = fl(1 - r); the cell loop would fold it into
    fl(1 - x) = fl(1 - fl(1 - r)), so such lanes are rounded that way
    (as c - (c - t) with c = 1, which is t itself where c = 0).  A lane at
    1/2 stays there, as in the cell loop, though the inverse half map would
    send it 1 ulp up.

    From ``_SORT_STEPS`` forward steps on, most lanes fall onto the
    plateau at 0, and the block is sorted once by t: t and p are gathered
    in that order, and c is formed from the gathered p.  Before each step
    a scan from the prefix index m moves it to the first lane not below
    ``_SIN_IS_IDENTITY``; t[:m] takes the step as t *= pi/2, t *= t, and
    only t[m:] takes the half map and the 1/2 test.  That is bitwise the
    half map: below 2**-27, fl(t pi/2) is below 2**-26, where the sine
    rounds to its argument (a test checks numpy's sine).  The step is
    monotone on [0, 1/2], so the lanes stay nearly sorted, but the
    re-round of upper lanes can swap neighbours: the scan tests each lane
    it adds rather than assume the order, as ``searchsorted`` would, and a
    prefix lane is at most 2**-52 after a step and a re-round.  After the
    last step t is scattered through the same order into c's buffer (c is
    dead by then), which undoes the gather lane for lane.  The threshold,
    on 10**6 points of [0, 1], 2-vCPU Xeon, 21 interleaved runs:
    sorted/unsorted time 1.06 at 5 steps, 0.90 at 6 and 0.89 at 7.
    """
    t = _fold(p)
    order = None
    if half is _sin2_half and steps >= _SORT_STEPS:
        order = np.argsort(t)
        # p in t's order goes into t's old buffer (t[order] is taken first),
        # which keeps the block's arrays at three, as without the sort
        t, c = t[order], np.take(p, order, out=t, mode="clip")  # "raise" copies via a temporary
        np.greater(c, 0.5, out=c)  # 1.0 above 1/2, else 0.0
    else:
        c = np.greater(p, 0.5, out=np.empty(p.shape))
    m = 0  # t[:m] lies below _SIN_IS_IDENTITY; m stays 0 unless sorted
    for i in range(steps):
        if i:
            np.subtract(c, t, out=t)
            np.subtract(c, t, out=t)
        if order is not None and m < t.size:
            j = int((t[m:] >= _SIN_IS_IDENTITY).argmax())
            m = m + j if t[m + j] >= _SIN_IS_IDENTITY else t.size
        low, live = t[:m], t[m:]
        if m:
            low *= _HALF_PI
            low *= low
        if live.size and live.max() == 0.5:
            pinned = live == 0.5
            half(live)
            live[pinned] = 0.5
        else:
            half(live)
    del low, live  # views that would keep a sorted t alive through the unfold
    if order is not None:
        c[order] = t
        t = c
    return _unfold(p, t)


class ExtendedGenerator:
    """A generator promoted to a strictly increasing bijection of the real line.

    The unit cell is translated, ``g_R(x) = floor(x) + g(x - floor(x))``,
    which fixes every integer; ``iterate`` composes g_R or its inverse.

    A finite scalar argument never becomes a numpy array: ``forward``,
    ``inverse`` and ``iterate`` return a builtin ``float`` bitwise equal to
    what the same value gives inside an array.  Arrays and non-finite
    scalars take the array path, ``iterate(x, k)`` with k = +1 or -1 for
    ``forward`` and ``inverse``.  It walks the flattened input in blocks of
    ``_BLOCK`` elements and runs all |k| steps on one block, while it is in
    cache, before it moves to the next.  The result is a new float array in
    the input's shape (a float when it is 0-d), bitwise equal to the scalar
    path elementwise; the input is never written.

    A block runs one of two loops.  The cell loop applies g_R step by step.
    The fold loop (:func:`_fold_iterate`) runs when |k| >= 2, the base maps
    are the sine generator's and the block lies in [0, 1] (a NaN fails the
    test): it folds once, runs the bare half map |k| times and unfolds once.
    It is bitwise the cell loop, because on [0, 1] the cell is the identity
    (floor is 0, or 1 at 1 where the step gives 1 + g(0) = 1), g keeps each
    half of [0, 1] (in floating point too: the half maps send [0, 1/2) into
    [0, 1/2], and a lane that lands on 1/2 is pinned in both loops), and
    between two steps the unfold and fold of an upper lane reduce to
    fl(1 - fl(1 - r)), which the fold loop computes exactly (Sterbenz).  A
    change to how g_R treats values outside [0, 1], such as the odd-symmetric
    form g_R(x) = -g_R(-x) for x < 0, touches only the cell loop.

    At k >= 6 the fold loop sorts each block once, so that the lanes
    falling onto the plateau at 0 gather at its front; the step is
    monotone on [0, 1/2], so the front only grows.  A lane that a scan
    finds below 2**-27 takes the step as two multiplies, since there
    fl(t pi/2) < 2**-26 and the sine rounds to its argument, and one
    scatter undoes the sort before the unfold.  Each lane takes the same
    values as without the sort, so the bits are the same.
    """

    def __init__(self, base: Generator):
        self.base = base

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"ExtendedGenerator({self.base.name!r})"

    def forward(self, x):
        if _is_finite_scalar(x):
            return _cell_scalar(self.base.forward, float(x))
        return self.iterate(x, 1)

    def inverse(self, y):
        if _is_finite_scalar(y):
            return _cell_scalar(self.base.inverse, float(y))
        return self.iterate(y, -1)

    def iterate(self, x, k: int):
        """k-fold self-composition g_R^k (inverse composition for k < 0), |k| <= LEVEL_CAP."""
        if abs(k) > LEVEL_CAP:
            raise LevelRangeError(f"|k| = {abs(k)} exceeds the iteration cap {LEVEL_CAP}")
        fn = self.base.forward if k > 0 else self.base.inverse
        if _is_finite_scalar(x):
            out = float(x) + 0.0  # -0.0 -> 0.0, as arrays do at k = 0
            for _ in range(abs(k)):
                out = _cell_scalar(fn, out)
            return out
        arr = np.asarray(x, dtype=float)
        if k == 0:
            out = arr + 0.0  # a copy, never the caller's array
        else:
            half = None  # the half map of fn, for the fold loop
            if abs(k) >= 2 and (fn is _sine_forward or fn is _sine_inverse):
                half = _sin2_half if k > 0 else _asin_sqrt_half
            out = np.empty(arr.shape)
            src, dst = arr.reshape(-1), out.reshape(-1)  # dst is a view of out
            for start in range(0, src.size, _BLOCK):
                block = src[start:start + _BLOCK]
                if half is not None and block.min() >= 0.0 and block.max() <= 1.0:
                    block = _fold_iterate(half, block, abs(k))
                else:
                    for _ in range(abs(k)):
                        block = _cell_array(fn, block)
                dst[start:start + _BLOCK] = block
        return float(out) if out.ndim == 0 else out


_clamp_count = 0


def clamp_count() -> int:
    """Number of probability-domain values clamped back into [0,1] so far.

    One process-wide counter, shared by all threads; its increments are not
    atomic, so some can be lost when threads clamp concurrently.
    """
    return _clamp_count


def reset_clamp_count() -> None:
    global _clamp_count
    _clamp_count = 0


def _clamp_unit(out: float) -> float:
    """The float out clamped into [0,1], counted by :func:`clamp_count` when it moved."""
    global _clamp_count
    if out < 0.0 or out > 1.0:
        _clamp_count += 1
        return 0.0 if out < 0.0 else 1.0
    return out


def eval_iterate(egen: ExtendedGenerator, k: int, x):
    """Evaluate g^k(x) by |k|-fold composition, g^0(x) = x exactly.

    When the input lies in [0,1] the result is clamped back into [0,1]
    after the full composition (never in between); clamp events are counted
    for diagnostics, see :func:`clamp_count`.  Saturation of large |k|
    iterates near 0 and 1 is inherent to double precision and is left as is.
    """
    global _clamp_count
    out = egen.iterate(x, k)
    if _is_finite_scalar(x):
        return _clamp_unit(out) if 0.0 <= x <= 1.0 else out
    arr = np.asarray(x, dtype=float)
    # two reductions and no full-size boolean temporaries; a NaN fails both tests
    if arr.size and arr.min() >= 0.0 and arr.max() <= 1.0:
        res = np.asarray(out)
        if not (res.min() >= 0.0 and res.max() <= 1.0):
            outside = int(np.count_nonzero((res < 0.0) | (res > 1.0)))
            if outside:
                _clamp_count += outside
                res = np.clip(res, 0.0, 1.0)
                out = float(res) if res.ndim == 0 else res
    return out


#: the builtin generators, built once; the test suite validates both
_BUILTINS = {"sine": make_sine_generator(), "identity": make_identity_generator()}
_SINE_EXTENDED = ExtendedGenerator(_BUILTINS["sine"])


def sine_extended() -> ExtendedGenerator:
    """The shared unit-periodic extension of the sine generator, the default
    ``egen`` of every function that takes one."""
    return _SINE_EXTENDED


@dataclass(frozen=True)
class BandReport:
    """Finite band [k_min, k_max] of levels distinguishable at a resolution."""

    k_min: int
    k_max: int
    resolution: float
    saturated: bool = False


def effective_band(egen: ExtendedGenerator, resolution: float,
                   k_cap: int = LEVEL_CAP) -> BandReport:
    """Smallest band outside which successive iterates are indistinguishable.

    ``k_max`` is the smallest k >= 0 such that max_p |g^{k+1}(p) - g^k(p)|
    over a uniform grid of [0,1] drops below ``resolution``; ``k_min`` is the
    symmetric count for the inverse iterates, reported with a negative sign.
    If either scan reaches ``k_cap`` without converging the report carries a
    saturation flag.
    """
    if not (0.0 < resolution < 1.0):
        raise DomainError("resolution must lie strictly between 0 and 1")
    grid = np.linspace(0.0, 1.0, _BAND_GRID)
    saturated = False

    def scan(step_fn) -> int:
        nonlocal saturated
        cur = grid.copy()
        for k in range(k_cap + 1):
            nxt = np.asarray(step_fn(cur))
            if float(np.max(np.abs(nxt - cur))) < resolution:
                return k
            cur = nxt
        saturated = True
        return k_cap

    k_max = scan(egen.forward)
    k_min = -scan(egen.inverse)
    return BandReport(k_min=k_min, k_max=k_max, resolution=float(resolution),
                      saturated=saturated)


def generator_from_config(config) -> Generator:
    """Resolve a JSON-style generator config.

    Accepts the shorthand strings ``"sine"`` and ``"identity"`` or an object
    ``{"name": "sine" | "identity" | "convex", "components": [...],
    "weights": [...]}``.  Unknown keys are rejected.  A builtin name returns
    the one shared instance built at import, which the test suite validates;
    a convex config is outside input, so it is built and validated with
    :func:`validate_generator` on every call.
    """
    if isinstance(config, str):
        config = {"name": config}
    if not isinstance(config, dict):
        raise ConfigError(f"generator config must be a name or an object, got {type(config).__name__}")
    unknown = set(config) - {"name", "components", "weights"}
    if unknown:
        raise ConfigError(f"unknown generator config keys: {sorted(unknown)}")
    name = config.get("name")
    if isinstance(name, str) and name in _BUILTINS:  # a JSON list as name is unhashable
        return _BUILTINS[name]
    if name != "convex":
        raise ConfigError(f"unknown generator name: {name!r}")
    comps, weights = config.get("components"), config.get("weights")
    if not (isinstance(comps, list) and isinstance(weights, list)
            and all(isinstance(w, (int, float)) for w in weights)):
        raise ConfigError("a convex config needs a list 'components' and numeric list 'weights'")
    comps = [generator_from_config(c) for c in comps]
    try:
        gen = convex_combine(comps, weights)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    validate_generator(gen)
    return gen


def load_generator(spec: str) -> Generator:
    """Resolve a CLI-style generator argument: a builtin name or a JSON file path."""
    if spec in _BUILTINS:
        return _BUILTINS[spec]
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read generator config {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in generator config {spec!r}: {exc}") from exc
    return generator_from_config(config)
