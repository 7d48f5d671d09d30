"""Complement-symmetric bijections of [0,1] and their real-line extensions.

A generator is a strictly increasing bijection g of the unit interval with
g(0)=0, g(1)=1 and g(p) + g(1-p) = 1.  Equivalently g(p) = 1/2 + h(p - 1/2)
for an odd map h of [-1/2, 1/2] into itself, so every generator fixes 1/2.
Composition preserves the class, hence every integer self-composition g^k is
again a generator; the family {g^k} is the backbone of the whole package.

For arithmetic on all of R the generator is extended by unit-cell
translation, g_R(x) = floor(x) + g(x - floor(x)), which keeps g_R strictly
increasing, bijective, and fixes every integer.  As g_R maps each cell
[n, n + 1) into itself, g_R^k(x) = n + g^k(x - n) with n = floor(x), and
as g^k is a generator, g^k(1 - p) = 1 - g^k(p): an iterate folds once.
"""

from __future__ import annotations

import contextvars
import json
import math
import operator
import os
import sys
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, LevelRangeError

#: Cap on |k| for integer self-composition.
LEVEL_CAP = 64

_TWO_OVER_PI = 2.0 / math.pi
_HALF_PI = 0.5 * math.pi
_SCALAR_TYPES = (float, int, np.floating)
_arcsin = np.arcsin  # looked up once: the float kernel calls it once a step
#: elements per block of the array path: 128 KiB of float64, so a block and
#: the few temporaries of one step stay in the per-core cache
_BLOCK = 1 << 14
#: below this t the sine generator's half step is bitwise t *= pi/2, t *= t:
#: fl(t pi/2) < 2**-26, where sin(x) rounds to x
_SIN_IS_IDENTITY = 2.0**-27
#: forward fold-loop steps from which a block is sorted once (see _fold_iterate)
_SORT_STEPS = 6
#: most workers an array call runs its blocks on (see ExtendedGenerator)
_MAX_WORKERS = 2
_BISECT_ROUNDS = 46  # bisection rounds; they leave brackets of [0, 1/2] 2**-47 < 1e-14 wide
_BAND_GRID = 1001  # points of the uniform grid of [0,1] that effective_band scans
_VALIDATE_GRID = 10_000  # points of the uniform grid of [0,1] that validate_generator checks
_FLOAT_MAX = sys.float_info.max  # the _check_in bound of a finite value
_MAP_DOMAIN = "a generator map takes p in [0, 1]"  # finite p only: +-inf and NaN give NaN


def _in_float_range(op: Callable, *args):
    """op(*args) for an op that converts its first argument to float: ``float``,
    ``math.isfinite``, an array conversion or ``tuple`` of a ``map(float, ...)``.
    An int beyond the float range is a DomainError, not an OverflowError."""
    try:
        return op(*args)
    except OverflowError as exc:  # its repr may exceed the int-to-str digit limit
        x = args[0]
        size = f" of {x.bit_length()} bits" if isinstance(x, int) else ""
        raise DomainError(f"an int{size} lies beyond the float range") from exc


def _shown(x) -> str:
    """repr(x) for an error message; an int past the int-to-str digit limit by its size."""
    try:
        return repr(x)
    except ValueError:  # a huge int's repr raises
        return f"<an int of {x.bit_length()} bits>"


def _check_in(x, lo: float, hi: float, what: str):
    """x if lo <= x <= hi (a NaN fails), else DomainError "{what}, got x", or _in_float_range's
    for a huge int.  Bounds: 5e-324 for > 0, nextafter(1, 0) for < 1, +-_FLOAT_MAX for finite."""
    if lo <= x <= hi:
        return x
    if isinstance(x, int):
        _in_float_range(float, x)
    raise DomainError(f"{what}, got {_shown(x)}")


def _probabilities(values, what: str) -> tuple:
    """values as floats; DomainError unless one at least, each in [0, 1], summing to 1 +- 1e-12."""
    probs = _in_float_range(tuple, map(float, values))
    if not probs:
        raise DomainError(f"{what} must have at least one entry")
    # written so that a NaN fails; entries in [0, 1] also keep fsum from overflowing
    if not all(0.0 <= p <= 1.0 for p in probs):
        raise DomainError(f"{what} must lie in [0, 1]")
    total = math.fsum(probs)
    if not abs(total - 1.0) <= 1e-12:
        raise DomainError(f"{what} must sum to 1, got {total!r}")
    return probs


def _is_finite_scalar(x) -> bool:
    """True for a finite real scalar, no array, not even 0-d; a huge int is a DomainError."""
    try:
        return isinstance(x, _SCALAR_TYPES) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range: the helper raises
        return _in_float_range(math.isfinite, x)


def _level(k) -> int:
    """k as an int; a level that is not an integer is a LevelRangeError."""
    try:
        return operator.index(k)  # a float level would never count down to 0
    except TypeError:
        raise LevelRangeError(f"level {k!r} is not an integer") from None


def _record(obj, what: str, keys: set) -> None:
    """ConfigError unless obj is a dict with no key outside ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - keys
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


@dataclass(frozen=True)
class Generator:
    """A strictly increasing bijection of [0,1] with the complement symmetry.

    ``forward`` and ``inverse`` map [0, 1] into itself, in floating point
    too: :meth:`ExtendedGenerator.iterate` runs all its steps on the
    fraction x - floor(x) and never splits a step's result again.  They
    accept floats or numpy arrays and are elementwise: each output element
    depends on its own input element alone, so :class:`ExtendedGenerator`
    may evaluate an array block by block.  (The bisection inverse of
    :func:`convex_combine` qualifies: every bracket halves in lock-step, so
    each block stops on the same round.)  It may also call them on several
    threads at once, each on its own disjoint block, so a map with
    unsynchronised state, such as a call counter, breaks this contract.
    Every g_R^k folds once, g^k(f) = 1 - g^k(1 - f), and steps a map on
    t <= 1/2 only.  The sine and convex maps are a lower branch and one
    fold (``_Folded``): they keep the complement symmetry bitwise and map a
    finite scalar to a builtin ``float`` bitwise equal to its element of the
    array result.  Values are immutable and safe to share across threads.
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

    As copysign(r, 1/2 - p) + c with c = 1 above 1/2 and 0 elsewhere: the
    sign is exact and -r + 1 is 1 - r, so this is bitwise the two-branch
    form, without a data-dependent select (``np.where`` on a mixed mask
    costs about half a sine, a ufunc's ``where=`` more).  A -0.0 lane becomes
    +0.0 below 1/2, as r + 0 would make it, so a half map may return -0.0.
    """
    np.copysign(r, 0.5 - p, out=r)
    r += p > 0.5
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
    np.sqrt(t, out=t)
    np.arcsin(t, out=t)
    t *= _TWO_OVER_PI
    return t


def _sin2_half_float(t: float, steps: int) -> float:
    """``steps`` :func:`_sin2_half` steps on a float, bitwise; a t on 1/2 stays there."""
    while steps and t != 0.5:  # a for over range() costs a one-step call 0.1 us
        s = math.sin(t * _HALF_PI)
        t = s * s  # arrays square as x*x; a float's ** 2 calls pow()
        steps -= 1
    return t


def _asin_sqrt_half_float(t: float, steps: int) -> float:
    """``steps`` :func:`_asin_sqrt_half` steps on a float, bitwise; a t on 1/2 stays there."""
    while steps and t != 0.5:
        t = _TWO_OVER_PI * float(_arcsin(math.sqrt(t if t > 0.0 else 0.0)))  # -0.0 as +0.0
        steps -= 1
    return t


def _float_steps(half: Callable, t, steps: int) -> float:
    """The float kernel of a one-step map ``half``: ``steps`` calls of it, stopping on 1/2,
    as a builtin float (the identity, a plain callable and the bisection give numpy values)."""
    while steps and t != 0.5:
        t = half(t)
        steps -= 1
    return float(t)


class _Folded:
    """A generator map as its lower branch on [0, 1/2] and one fold, g(p) = 1 - g(1 - p).

    ``half`` is the branch as (float kernel, array map that may work in place):
    the kernel ``(t, steps)`` runs all its steps in one call and returns a
    builtin float.  A finite scalar is folded and unfolded inline, all else
    takes :func:`_fold`, the array map and :func:`_unfold`, which pins 1/2.
    A finite p outside [0, 1] is a DomainError on both paths; +-inf and NaN
    give NaN, and a 0-d result is a float."""

    def __init__(self, float_kernel: Callable, half_array: Callable):
        self.half = (float_kernel, half_array)

    def __call__(self, p):
        if _is_finite_scalar(p):  # float(), as a float32 would compute in float32
            p = float(_check_in(p, 0.0, 1.0, _MAP_DOMAIN))
            upper = p > 0.5
            t = self.half[0](1.0 - p if upper else p, 1)
            return 1.0 - t if upper else t
        p = _in_float_range(np.asarray, p, float)
        t = _fold(p)
        outside = (t < 0.0).any()  # exactly the lanes of p outside [0, 1]
        if outside:
            bad = p[(t < 0.0) & np.isfinite(p)]
            if bad.size:
                raise DomainError(f"{_MAP_DOMAIN}, got {float(bad[0])!r}")
        with np.errstate(invalid="ignore"):  # sin(+-inf) is NaN: NaN propagates
            r = _unfold(p, self.half[1](t))
        if outside:  # only +-inf is left there, which the convex bisection maps into [0, 1]
            r[np.isinf(p)] = np.nan
        return float(r) if r.ndim == 0 else r


#: the sine generator's maps, see make_sine_generator
_sine_forward = _Folded(_sin2_half_float, _sin2_half)
_sine_inverse = _Folded(_asin_sqrt_half_float, _asin_sqrt_half)


def make_sine_generator() -> Generator:
    """The trigonometric generator g(p) = sin^2(pi p / 2).

    Evaluated through the mirror symmetry: sin^2(pi p/2) below 1/2 and
    1 - sin^2(pi (1-p)/2) above, with 1/2 pinned.  This keeps the three
    fixed points 0, 1/2, 1 exact in floating point and gives full relative
    accuracy near both endpoints, where naive shifted-sine forms cancel
    catastrophically.  The inverse (2/pi) arcsin(sqrt(P)) is closed form,
    mirrored the same way.  Both maps are :class:`_Folded` over the half
    maps, the one form of sin^2 and arcsin sqrt, which the iterate loop of
    :class:`ExtendedGenerator` steps as well: one sine per element.  The
    float kernels run k half-map steps in one call, bitwise as the array
    maps: ``math.sin`` and ``math.sqrt`` match numpy (the equivalence tests
    check this), ``math.asin`` does not, so arcsin stays on numpy's ufunc.
    """
    return Generator("sine", _sine_forward, _sine_inverse)


def make_identity_generator() -> Generator:
    """The trivial generator g(p) = p (level shifts become no-ops)."""

    def identity(p):
        return _in_float_range(np.asarray, p, float) + 0.0

    return Generator("identity", identity, identity)


def _bisect_increasing(fn: Callable, t):
    """Solve fn(x) = t for fn increasing on [0, 1/2] and t in [0, 1/2], vectorized
    bisection; always an ndarray, 0-d for a scalar t."""
    t = np.asarray(t, dtype=float)
    lo = np.zeros_like(t)
    hi = np.full_like(t, 0.5)
    for _ in range(_BISECT_ROUNDS):
        mid = 0.5 * (lo + hi)
        below = np.asarray(fn(mid)) <= t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    x = np.where(t == 0.0, 0.0, x)  # every bisection stops short of 0; the fold handles 1/2 and 1
    return np.where(np.isnan(t), t, x)  # every bracket test fails on a NaN


def convex_combine(gens: Sequence[Generator], weights: Sequence[float]) -> Generator:
    """Convex combination sum_j w_j g_j, again a valid generator.

    Odd parts combine to an odd part, so each map is its lower branch on
    [0, 1/2] and one fold, as the sine's are.  The weights must sum to 1
    within 1e-12 and are divided by their sum, so the branch meets 1/2 at
    1/2.  The inverse branch bisects [0, 1/2]; monotonicity makes it
    converge, as each of the ``_BISECT_ROUNDS`` rounds halves every bracket.
    """
    gen_tuple = tuple(gens)
    if not gen_tuple:
        raise DomainError("convex_combine requires at least one generator")
    if len(gen_tuple) != len(weights):
        raise DomainError("one weight per generator required")
    weights = _probabilities(weights, "weights")
    total = math.fsum(weights)
    w_tuple = tuple(w / total for w in weights)

    def lower(t):
        acc = w_tuple[0] * np.asarray(gen_tuple[0].forward(t))
        for g, w in zip(gen_tuple[1:], w_tuple[1:]):
            acc = acc + w * np.asarray(g.forward(t))
        return np.asarray(acc)  # a 0-d product is a numpy scalar, and _unfold writes into it

    lower_inverse = partial(_bisect_increasing, lower)
    names = ",".join(g.name for g in gen_tuple)
    return Generator(f"convex({names})", _Folded(partial(_float_steps, lower), lower),
                     _Folded(partial(_float_steps, lower_inverse), lower_inverse))


def validate_generator(gen: Generator) -> None:
    """Check the defining invariants on a uniform grid; raise DomainError on failure.

    Verified on 10**4 points: forward stays in [0, 1], endpoint fixing within
    1 ulp, strict monotonicity, inverse round-trip within 1e-12, and the
    complement functional equation within 1e-12.
    """
    p = np.linspace(0.0, 1.0, _VALIDATE_GRID)
    fp = np.asarray(gen.forward(p), dtype=float)
    if not (fp.min() >= 0.0 and fp.max() <= 1.0):  # a NaN fails
        raise DomainError(f"{gen.name}: forward leaves [0, 1]: range [{fp.min()!r}, {fp.max()!r}]")
    if abs(float(fp[0])) > 5e-16 or abs(float(fp[-1]) - 1.0) > 5e-16:
        raise DomainError(f"{gen.name}: endpoints not fixed: g(0)={fp[0]!r}, g(1)={fp[-1]!r}")
    if not np.all(np.diff(fp) > 0.0):
        raise DomainError(f"{gen.name}: forward not strictly increasing on the grid")
    back = np.asarray(gen.inverse(fp), dtype=float)
    worst_rt = float(np.max(np.abs(back - p)))
    if worst_rt > 1e-12:
        raise DomainError(f"{gen.name}: inverse round-trip off by {worst_rt:.3e}")
    resid = float(np.max(np.abs(fp + np.asarray(gen.forward(1.0 - p)) - 1.0)))
    if resid > 1e-12:
        raise DomainError(f"{gen.name}: complement equation violated by {resid:.3e}")


def h_view(gen: Generator, x):
    """The odd part h(x) = g(x + 1/2) - 1/2 on [-1/2, 1/2]."""
    arr = _in_float_range(np.asarray, x, float)
    if arr.size and not (arr.min() >= -0.5 and arr.max() <= 0.5):  # a NaN fails
        raise DomainError("h_view argument must lie in [-1/2, 1/2]")
    out = np.asarray(gen.forward(arr + 0.5)) - 0.5
    return float(out) if out.ndim == 0 else out


def _fold_iterate(half: Callable, p, steps: int):
    """``steps`` >= 1 steps of a generator on a 1-d block p inside [0, 1], as a new array.

    g^k is again a generator, so g^k(p) = 1 - g^k(1 - p): the block is
    folded once into t = min(p, 1 - p), runs ``steps`` bare half-map steps
    and is unfolded once.  ``half`` is a generator's array map on t <= 1/2:
    a folded map's lower branch (the sine's works in place), else the map
    itself.  A lane can land on 1/2, and the generator pins it there, though
    the sine inverse half map would send it 1 ulp up; a NaN lane takes the
    pinning branch too.  Before a lone step only lanes with p = 1/2 sit
    there; _unfold pins them.

    From ``_SORT_STEPS`` forward steps on, most lanes fall onto the
    plateau at 0, and the block is sorted once: s = t[order].  Before each
    step a scan from the prefix index m moves it to the first lane not
    below ``_SIN_IS_IDENTITY``; s[:m] takes the step as s *= pi/2, s *= s,
    and only s[m:] takes the half map and the 1/2 test.  That is bitwise the
    half map: below 2**-27, fl(s pi/2) is below 2**-26, where the sine
    rounds to its argument (a test checks numpy's sine).  The scan tests
    each lane it adds rather than assume that rounding keeps the order, as
    ``searchsorted`` would; a prefix lane only falls further.  After the
    last step s is scattered back, t[order] = s.  The timings behind
    ``_SORT_STEPS`` are in CHANGES.md, under "generator.py measurements".
    """
    t = s = _fold(p)
    order = None
    if half is _sin2_half and steps >= _SORT_STEPS:
        order = np.argsort(t)
        s = t[order]
    m = 0  # s[:m] lies below _SIN_IS_IDENTITY; m stays 0 unless sorted
    for _ in range(steps):
        if order is not None and m < s.size:
            live = s[m:]
            j = int((live >= _SIN_IS_IDENTITY).argmax())
            m = m + j if live[j] >= _SIN_IS_IDENTITY else s.size
        low, live = s[:m], s[m:]
        if m:
            low *= _HALF_PI
            low *= low
        # a NaN lane hides a lane at 1/2; numpy skips the copy of an in-place map onto itself
        pinned = live == 0.5 if steps > 1 and live.size and not live.max() < 0.5 else None
        live[...] = half(live)
        if pinned is not None:
            live[pinned] = 0.5
    if order is not None:
        t[order] = s
    del s, low, live  # a sorted s and its views would stay alive through the unfold
    return _unfold(p, t)


def _iterate_blocks(half: Callable, steps: int, src, dst, first: int, stride: int) -> None:
    """``steps`` >= 1 steps of g_R (half's fold loop) on the 1-d src, written
    to dst: the blocks first, first + stride, first + 2 stride, ..."""
    for start in range(first * _BLOCK, src.size, stride * _BLOCK):
        f, n = src[start:start + _BLOCK], None
        # inside [0, 1) n is 0, f is x and n + r is r: the split is skipped
        if not (f.min() >= 0.0 and f.max() < 1.0):  # a NaN fails
            with np.errstate(invalid="ignore"):  # inf - inf is NaN
                n = np.floor(f)
                f = f - n
        f = _fold_iterate(half, f, steps)
        if n is None:
            dst[start:start + _BLOCK] = f
        else:
            np.add(n, f, out=dst[start:start + _BLOCK])


def _worker_count() -> int:
    """The number of CPUs this process may run on, at most ``_MAX_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _run_shares(share: Callable, workers: int) -> None:
    """share(0) on the calling thread and share(1) ... share(workers - 1) on helpers.

    Each helper is a ``threading.Thread`` that runs in a copy of the
    caller's context, so a caller's ``np.errstate`` (a context variable
    since numpy 2.0) holds on it too.  A share whose thread cannot be
    started runs on the calling thread.  Every started helper is joined
    before this returns or raises.  The caller's own exception propagates
    first; otherwise the first exception a helper raised is re-raised here.
    """
    errors = []

    def helper(i: int) -> None:
        try:
            share(i)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    started = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(helper, i),
                                      name=f"nncalc-iterate-{i}")
            try:
                thread.start()
            except RuntimeError:  # no thread to be had: the caller runs the share
                share(i)
                continue
            started.append(thread)
        share(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


class ExtendedGenerator:
    """A generator promoted to a strictly increasing bijection of the real line.

    The unit cell is translated, ``g_R(x) = floor(x) + g(x - floor(x))``,
    which fixes every integer and maps each [n, n + 1) into itself;
    ``iterate`` composes g_R or its inverse in one loop.  It splits off
    n = floor(x) and f = x - n once, runs the |k| steps of g or g^-1 on f
    and adds n back once, so a result is rounded into its cell once, not
    once per step.  A scalar in [0, 1), like an array block inside it, has
    n = 0 and f = x and skips the floor and the subtract.  The steps fold f
    once into t = min(f, 1 - f), run |k| times on t <= 1/2 and unfold once,
    as g^k(f) = 1 - g^k(1 - f): a scalar inline, around one call of a float
    kernel that runs the |k| steps, an array block in :func:`_fold_iterate`,
    which sorts a sine block once at k >= 6.  A folded map (sine, convex)
    steps with its lower branch, any other map with itself (its float
    kernel :func:`_float_steps`).

    A finite scalar argument never becomes a numpy array: ``forward``,
    ``inverse`` and ``iterate`` return a builtin ``float`` bitwise equal to
    what the same value gives inside an array.  Arrays and non-finite
    scalars take the array path, ``iterate(x, k)`` with k = +1 or -1 for
    ``forward`` and ``inverse``.  It walks the flattened input in blocks of
    ``_BLOCK`` elements and runs all |k| steps on one block, while it is in
    cache, before it moves to the next.  The result is a new float array in
    the input's shape (a float when it is 0-d), bitwise equal to the scalar
    path elementwise; the input is never written.
    NaN propagates: +-inf and NaN give NaN, without a warning.

    A call of more than one block deals its blocks out in turn to one
    worker per CPU the process may run on, at most ``_MAX_WORKERS`` = 2
    and never more workers than blocks: the calling thread and short-lived
    helper threads that :func:`_run_shares` starts and joins within the
    call.  Each block runs the same code on any thread, so the bits do not
    change.  The ufuncs and ``np.argsort`` release the GIL and overlap, the
    Python between them does not, so short steps on a few blocks can lose
    to GIL hand-offs.  More than 2 workers were not measured, so a larger
    host runs 2.  The threaded/serial timings behind these rules are in
    CHANGES.md, under "generator.py measurements".
    """

    def __init__(self, base: Generator):
        self.base = base
        # (float kernel, array map) on t <= 1/2: a folded map's lower branch, else the map
        fwd, inv = base.forward, base.inverse
        self._up = fwd.half if isinstance(fwd, _Folded) else (partial(_float_steps, fwd), fwd)
        self._down = inv.half if isinstance(inv, _Folded) else (partial(_float_steps, inv), inv)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"ExtendedGenerator({self.base.name!r})"

    def forward(self, x):
        if _is_finite_scalar(x):
            f, n = float(x), 0.0
            if not 0.0 <= f < 1.0:  # inside [0, 1) n is 0: no floor and no subtract
                n = float(math.floor(f))
                f -= n
            upper = f > 0.5
            t = self._up[0](1.0 - f if upper else f, 1)
            return n + (1.0 - t if upper else t)  # 0.0 + r maps a -0.0 to +0.0, as arrays do
        return self.iterate(x, 1)

    def inverse(self, y):
        if _is_finite_scalar(y):
            f, n = float(y), 0.0
            if not 0.0 <= f < 1.0:
                n = float(math.floor(f))
                f -= n
            upper = f > 0.5
            t = self._down[0](1.0 - f if upper else f, 1)
            return n + (1.0 - t if upper else t)
        return self.iterate(y, -1)

    def iterate(self, x, k: int):
        """k-fold self-composition g_R^k (inverse composition for k < 0), int |k| <= LEVEL_CAP."""
        try:
            steps = abs(operator.index(k))  # inline: a call to _level would slow scalars
        except TypeError:
            steps = _level(k)  # raises its LevelRangeError
        if steps > LEVEL_CAP:
            raise LevelRangeError(f"|k| = {_shown(steps)} exceeds the iteration cap {LEVEL_CAP}")
        half = self._up if k > 0 else self._down
        if math.isfinite(x) if type(x) is float else _is_finite_scalar(x):
            f, n = float(x), 0.0
            if not steps:
                return f + 0.0  # -0.0 -> 0.0, as arrays do
            if not 0.0 <= f < 1.0:
                n = float(math.floor(f))
                f -= n
            upper = f > 0.5
            t = half[0](1.0 - f if upper else f, steps)
            return n + (1.0 - t if upper else t)
        arr = _in_float_range(np.asarray, x, float)
        if not steps:
            out = arr + 0.0  # a copy, never the caller's array
        else:
            out = np.empty(arr.shape)
            src, dst = arr.reshape(-1), out.reshape(-1)  # dst is a view of out
            blocks = -(-src.size // _BLOCK)
            workers = min(_worker_count(), blocks) if blocks > 1 else 1
            if workers > 1:
                # partial, not a lambda: a closure would turn iterate's locals
                # into cells, which cost every scalar call about 0.3 us
                _run_shares(partial(_iterate_blocks, half[1], steps, src, dst, stride=workers),
                            workers)
            else:
                _iterate_blocks(half[1], steps, src, dst, 0, 1)
        return float(out) if out.ndim == 0 else out


def eval_iterate(egen: ExtendedGenerator, k: int, x):
    """``egen.iterate(x, k)``, the k-fold self-composition g_R^k, argument order (k, x).

    A generator maps [0, 1] into itself, so an input in [0, 1] gives a
    result in [0, 1] without a clamp.
    """
    return egen.iterate(x, k)


def clamp_count() -> int:
    """Deprecated: always 0, as every generator maps [0, 1] into itself."""
    return 0


def reset_clamp_count() -> None:
    """Deprecated: does nothing, see :func:`clamp_count`."""


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


def effective_band(egen: ExtendedGenerator, resolution: float) -> BandReport:
    """Smallest band outside which successive iterates are indistinguishable.

    ``k_max`` is the smallest k >= 0 such that max_p |g^{k+1}(p) - g^k(p)|
    over a uniform grid of [0,1] drops below ``resolution``; ``k_min`` is the
    symmetric count for the inverse iterates, reported with a negative sign.
    If either scan reaches ``LEVEL_CAP`` without converging the report carries
    a saturation flag.
    """
    _check_in(resolution, 5e-324, math.nextafter(1.0, 0.0),
              "resolution must lie strictly between 0 and 1")
    grid = np.linspace(0.0, 1.0, _BAND_GRID)
    saturated = False

    def scan(step_fn) -> int:
        nonlocal saturated
        cur = grid.copy()
        for k in range(LEVEL_CAP + 1):
            nxt = np.asarray(step_fn(cur))
            if float(np.max(np.abs(nxt - cur))) < resolution:
                return k
            cur = nxt
        saturated = True
        return LEVEL_CAP

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
    _record(config, "generator config", {"name", "components", "weights"})
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
