"""Circle hidden-variable model and Clauser-Horne combinations at two levels.

Outcomes are modelled by half-circle characteristic functions against the
uniform density on the circle.  Two half circles whose centres are a reduced
angle d apart overlap in an arc of length pi - d, so every overlap integral
is the closed form (pi - d) / (2 pi) of ``hidden_overlap``; the quadrature
route is kept for cross-checks only.

Joint singlet probabilities arise by lifting the overlap through
G(x) = g(2x)/2, which fixes 0, 1/4 and 1/2.  The Clauser-Horne four-term
combination of conditionals is evaluated once with level-1 operations
(where, for the sine generator, it provably stays inside [0,2]) and once
with ordinary arithmetic (where it reaches 1 + sqrt 2).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arithmetic import ArithmeticContext, arith
from .errors import DomainError
from .generator import (_FLOAT_MAX, ExtendedGenerator, _check_in, _in_float_range, _shown,
                        sine_extended)

TWO_PI = 2.0 * math.pi
_MIN_STEP = 1e-10  # refine_ch0_max stops once its coordinate step is this small
_SCAN_MAX_POINTS = 1 << 16  # the finest ch_scan grid, where its buffer stays 0.5 MiB


def reduced_angle(delta):
    """Minimal arc distance of an angle difference, in [0, pi]; DomainError for +-inf
    or NaN, whose remainder would be a NaN."""
    d = np.abs(_in_float_range(np.asarray, delta, float))
    if not np.isfinite(d).all():
        raise DomainError("reduced angle: an angle difference is not finite")
    out = np.pi - np.abs(np.pi - d % TWO_PI)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class HalfCircleChar:
    """Indicator of the half circle [phi - pi/2, phi + pi/2] modulo 2 pi."""

    phi: float

    def breakpoints(self):
        """The two arc endpoints modulo 2 pi, for quadrature splitting."""
        phi = _check_in(self.phi, -_FLOAT_MAX, _FLOAT_MAX, "a half circle's centre must be finite")
        return tuple(sorted(((phi - 0.5 * math.pi) % TWO_PI, (phi + 0.5 * math.pi) % TWO_PI)))

    def indicator(self, lam):
        """1 on the supporting half circle, 0 elsewhere (vectorized)."""
        phi = _in_float_range(float, self.phi)
        inside = reduced_angle(_in_float_range(np.asarray, lam, float) - phi) <= 0.5 * math.pi
        out = np.asarray(inside, dtype=float)
        return float(out) if out.ndim == 0 else out


def hidden_overlap(a1: float, a2: float) -> float:
    """int chi_{a1} chi_{a2} rho dlambda (no antipodal shift): (pi - d) / (2 pi)
    for the reduced separation d; a non-finite angle is a DomainError."""
    for a in (a1, a2):
        _check_in(a, -_FLOAT_MAX, _FLOAT_MAX, "angles must be finite")
    return (math.pi - reduced_angle(a1 - a2)) / TWO_PI


def overlap_integral(alpha: float, beta: float) -> float:
    """int chi_alpha chi_{beta+pi} rho dlambda against the uniform density:
    |alpha - beta| / (2 pi) for reduced separations up to pi."""
    return hidden_overlap(alpha, _in_float_range(float, beta) + math.pi)


@dataclass(frozen=True)
class ConditionedDensity:
    """Normalized density chi * rho / int(chi rho): uniform 1/pi on the half circle."""

    condition: HalfCircleChar

    def value(self, lam):
        return self.condition.indicator(lam) / math.pi

    def total(self) -> float:
        """Integral over the full circle: the half circle's own overlap over pi."""
        return 2.0 * hidden_overlap(self.condition.phi, self.condition.phi)

    def integral_against(self, chi: HalfCircleChar) -> float:
        """int chi * density dlambda, exact; a conditional probability."""
        return 2.0 * hidden_overlap(self.condition.phi, chi.phi)


def condition_density_level0(chi: HalfCircleChar) -> ConditionedDensity:
    """Classical projection postulate: condition the uniform density on chi."""
    return ConditionedDensity(chi)


@dataclass(frozen=True)
class GMap:
    """The rescaled bijection G(x) = g(2x)/2 lifting overlaps to joint probabilities.

    Provides the same forward/inverse/iterate surface as an extended
    generator, so it can drive level functions directly.  G fixes 0, 1/4
    and 1/2.  A finite float whose double overflows is a DomainError.
    """

    egen: ExtendedGenerator

    def forward(self, x):
        return 0.5 * self.egen.forward(_doubled(x))

    def inverse(self, y):
        return 0.5 * self.egen.inverse(_doubled(y))

    def iterate(self, x, k: int):
        """G^k = S^-1 g_R^k S for S(x) = 2x, exact because scaling by 2 is."""
        return 0.5 * self.egen.iterate(_doubled(x), k)


def _doubled(x):
    """2x for GMap; DomainError for a finite float whose double, +-inf, would map to NaN."""
    y = _in_float_range(operator.mul, x, 2.0)
    if isinstance(y, float) and math.isinf(y) and math.isfinite(x):
        raise DomainError(f"GMap doubles its argument past the float range, got {_shown(x)}")
    return y


def singlet_from_hidden(a1_angle: float, a2_angle: float,
                        egen: ExtendedGenerator = sine_extended()) -> float:
    """Joint singlet probability as the G-lift of an exact overlap integral.

    Equals g(2 * overlap)/2 where overlap = int chi_{a1} chi_{a2} rho; the
    non-Newtonian-integral representation of the same number is exercised by
    the cross-check suite through a G-driven level function.
    """
    return GMap(egen).forward(hidden_overlap(a1_angle, a2_angle))


class AngleQuad(NamedTuple):
    """Detector settings (a, a', b, b') in radians."""

    a: float
    a_prime: float
    b: float
    b_prime: float


def _conditionals(quad) -> list[float]:
    """The level-1 conditionals t(a,b), t(a,b'), t(a',b), t(a',b') of a quad, each cos^2(d/2)
    of its settings' reduced separation d: reduced_angle's, bitwise, as numpy's % is Python's."""
    a, a_prime, b, b_prime = AngleQuad(*_in_float_range(tuple, map(float, quad)))
    diffs = (a - b, a - b_prime, a_prime - b, a_prime - b_prime)
    if not all(map(math.isfinite, diffs)):
        reduced_angle(diffs)  # raises its DomainError
    return [math.cos(0.5 * (math.pi - abs(math.pi - abs(d) % TWO_PI))) ** 2 for d in diffs]


def ch_value_level1(quad: AngleQuad, egen: ExtendedGenerator = sine_extended()) -> float:
    """Four-term Clauser-Horne combination evaluated with level-1 operations.

    t(a,b) (-_1) t(a,b') (+_1) t(a',b) (+_1) t(a',b') for the conditionals
    t = cos^2(delta/2).  For the sine generator, whose pullbacks of t are the
    hidden conditionals 1 - delta/pi, the unit-periodic (integer-fixing)
    extension keeps the value in [0, 2] for every quad.  Other generators need
    not: for convex(sine, identity; 1/2, 1/2) it reaches -0.153 and 2.153.
    """
    t1, t2, t3, t4 = _conditionals(quad)
    ctx = ArithmeticContext(egen, 1)
    acc = arith(ctx, "sub", t1, t2)
    acc = arith(ctx, "add", acc, t3)
    return arith(ctx, "add", acc, t4)


def ch_value_level0(quad: AngleQuad) -> float:
    """The same four-term combination with ordinary +/- (not bounded by [0,2])."""
    t1, t2, t3, t4 = _conditionals(quad)
    return t1 - t2 + t3 + t4


TSIRELSON = 1.0 + math.sqrt(2.0)


@dataclass(frozen=True)
class ChScanReport:
    max0: float
    argmax0: AngleQuad
    max1: float
    argmax1: AngleQuad
    tsirelson_check: bool

    def to_json_dict(self) -> dict:
        """The fields by name; json writes each AngleQuad as an array."""
        return dict(vars(self))  # asdict would deep-copy every value for nothing


#: float64 elements per chunk of ``ch_scan`` rows: 512 KiB, so the buffer and the
#: rows it reads stay in a 2 MiB per-core L2
_CHUNK_ELEMS = 1 << 16


def _circulant(c: np.ndarray) -> np.ndarray:
    """Read-only view ``C[i, j] = c[(i - j) mod n]`` over one length-(2n - 1) copy."""
    n = c.size
    return sliding_window_view(c[(n - 1 - np.arange(2 * n - 1)) % n], n)[::-1]


def _scan_max(cache: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """max over a', b, b' of (C[0] + C[a'])[b] + (C[a'] - C[0])[b'], C = _circulant(cache).

    Returns the maximum and the first (a', b, b') attaining it.  The a' rows
    are walked in chunks of ``_CHUNK_ELEMS`` elements through one buffer.
    """
    C = _circulant(cache)
    base = C[0].copy()                          # the (a = 0, b) entries over b
    n = base.size
    rows = min(n, max(1, _CHUNK_ELEMS // n))
    raw = np.empty(rows * n + 8)  # off a 64-byte line, the writes into buf run up to 2x slower
    buf = raw[(-raw.ctypes.data % 64) // 8:][:rows * n].reshape(rows, n)
    vals = np.empty(n)
    iu = np.empty(n, dtype=np.intp)
    iw = np.empty(n, dtype=np.intp)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        out, r = buf[:hi - lo], np.arange(hi - lo)
        np.add(base, C[lo:hi], out=out)         # b-dependent part
        iu[lo:hi] = out.argmax(axis=1)
        u = out[r, iu[lo:hi]]
        np.subtract(C[lo:hi], base, out=out)    # b'-dependent part (t2 uses the same offsets as t1)
        iw[lo:hi] = out.argmax(axis=1)
        np.add(u, out[r, iw[lo:hi]], out=vals[lo:hi])
    ia = int(np.argmax(vals))
    return float(vals[ia]), (ia, int(iu[ia]), int(iw[ia]))


def ch_scan(resolution: float, egen: ExtendedGenerator = sine_extended()) -> ChScanReport:
    """Grid scan of both Clauser-Horne values over detector quads.

    Both combinations are invariant under a common rotation of all four
    angles, so ``a`` is pinned to 0 and the remaining three angles sweep a
    uniform grid of n = round(2 pi / resolution) points (at least 4).  The
    level-0 and level-1 extrema separate over b and b' for each a', which
    keeps the scan quadratic in n.  The conditional of a' and b depends
    only on (a' - b) mod n, so each level's a'-by-b table is a read-only
    circulant view of its n cached conditionals, and no n x n array is
    built: the rows are evaluated in chunks of about 2**16 elements through
    one 0.5 MiB buffer.  n is at most 2**16, so a finer resolution is a
    DomainError, raised before anything is allocated.  Ties go to the first
    maximum: the smallest a', then the smallest b, then the smallest b'.
    ``tsirelson_check`` records that the level-0 maximum stayed below
    1 + sqrt(2) and the level-1 maximum below 2 (small slack).
    """
    _check_in(resolution, 5e-324, _FLOAT_MAX, "resolution must be positive and finite")
    points = TWO_PI / resolution  # inf for a subnormal resolution
    if not (math.isfinite(points) and round(points) <= _SCAN_MAX_POINTS):
        raise DomainError(f"ch_scan takes at most {_SCAN_MAX_POINTS} grid points; resolution "
                          f"{_shown(resolution)} asks for {points:.6g}")
    n = max(4, int(round(points)))
    step = TWO_PI / n
    grid = np.arange(n) * step
    red = reduced_angle(grid)                   # reduced angle of each grid offset
    tcache = np.cos(0.5 * red) ** 2             # level-1 conditionals
    pcache = egen.inverse(tcache)               # their base-level pullbacks

    best0, arg0 = _scan_max(tcache)
    best_s, arg1 = _scan_max(pcache)
    max1 = egen.forward(best_s)
    quad0 = AngleQuad(0.0, arg0[0] * step, arg0[1] * step, arg0[2] * step)
    quad1 = AngleQuad(0.0, arg1[0] * step, arg1[1] * step, arg1[2] * step)
    ok = (best0 <= TSIRELSON + 1e-9) and (max1 <= 2.0 + 1e-9)
    return ChScanReport(max0=best0, argmax0=quad0, max1=float(max1), argmax1=quad1,
                        tsirelson_check=ok)


def refine_ch0_max(start: AngleQuad, initial_step: float) -> tuple[AngleQuad, float]:
    """Deterministic coordinate descent sharpening a level-0 grid maximum."""
    angles = list(AngleQuad(*start))
    value = ch_value_level0(AngleQuad(*angles))
    step = _in_float_range(float, initial_step)
    while step > _MIN_STEP:
        improved = True
        while improved:
            improved = False
            for i in range(4):
                for delta in (step, -step):
                    trial = list(angles)
                    trial[i] += delta
                    v = ch_value_level0(AngleQuad(*trial))
                    if v > value:
                        angles, value = trial, v
                        improved = True
        step *= 0.5
    return AngleQuad(*angles), value
