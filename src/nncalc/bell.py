"""Circle hidden-variable model and Clauser-Horne combinations at two levels.

Outcomes are modelled by half-circle characteristic functions against the
uniform density on the circle.  Overlap integrals of such indicators are
piecewise constant, so they are computed by exact arc intersection (sorted
endpoint splitting) rather than generic quadrature; the quadrature route is
kept for cross-checks only.

Joint singlet probabilities arise by lifting the overlap through
G(x) = g(2x)/2, which fixes 0, 1/4 and 1/2.  The Clauser-Horne four-term
combination of conditionals is evaluated once with level-1 operations
(where it provably stays inside [0,2]) and once with ordinary arithmetic
(where it reaches 1 + sqrt 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arithmetic import ArithmeticContext, arith
from .errors import DomainError
from .generator import ExtendedGenerator, sine_extended

TWO_PI = 2.0 * math.pi


def reduced_angle(delta):
    """Minimal arc distance of an angle difference, in [0, pi]."""
    d = np.abs(np.asarray(delta, dtype=float)) % TWO_PI
    out = np.pi - np.abs(np.pi - d)
    return float(out) if out.ndim == 0 else out


def _arc_segments(lo: float, length: float):
    """An arc [lo, lo+length] as subintervals of [0, 2 pi)."""
    start = lo % TWO_PI
    end = start + length
    if end <= TWO_PI:
        return [(start, end)]
    return [(start, TWO_PI), (0.0, end - TWO_PI)]


def _intersection_measure(segs1, segs2) -> float:
    total = 0.0
    for s1, e1 in segs1:
        for s2, e2 in segs2:
            total += max(0.0, min(e1, e2) - max(s1, s2))
    return total


@dataclass(frozen=True)
class HalfCircleChar:
    """Indicator of the half circle [phi - pi/2, phi + pi/2] modulo 2 pi."""

    phi: float

    def segments(self):
        return _arc_segments(self.phi - 0.5 * math.pi, math.pi)

    def breakpoints(self):
        """Arc endpoints inside [0, 2 pi), for quadrature splitting."""
        pts = []
        for s, e in self.segments():
            pts.extend((s, e))
        return tuple(sorted(set(pts)))

    def indicator(self, lam):
        """1 on the supporting half circle, 0 elsewhere (vectorized)."""
        inside = reduced_angle(np.asarray(lam, dtype=float) - self.phi) <= 0.5 * math.pi
        out = np.asarray(inside, dtype=float)
        return float(out) if out.ndim == 0 else out


def overlap_integral(alpha: float, beta: float) -> float:
    """int chi_alpha chi_{beta+pi} rho dlambda against the uniform density.

    Exact arc intersection; equals |alpha - beta|/(2 pi) for reduced
    separations up to pi.
    """
    segs_a = HalfCircleChar(alpha).segments()
    segs_b = HalfCircleChar(beta + math.pi).segments()
    return _intersection_measure(segs_a, segs_b) / TWO_PI


def hidden_overlap(a1: float, a2: float) -> float:
    """int chi_{a1} chi_{a2} rho dlambda (no antipodal shift), exact."""
    segs_1 = HalfCircleChar(a1).segments()
    segs_2 = HalfCircleChar(a2).segments()
    return _intersection_measure(segs_1, segs_2) / TWO_PI


@dataclass(frozen=True)
class ConditionedDensity:
    """Normalized density chi * rho / int(chi rho): uniform 1/pi on the half circle."""

    condition: HalfCircleChar

    def value(self, lam):
        ind = self.condition.indicator(lam)
        return ind / math.pi if np.ndim(ind) == 0 else np.asarray(ind) / math.pi

    def total(self) -> float:
        """Integral over the full circle (exact arc measure)."""
        return _intersection_measure(self.condition.segments(),
                                     [(0.0, TWO_PI)]) / math.pi

    def integral_against(self, chi: HalfCircleChar) -> float:
        """int chi * density dlambda, exact; a conditional probability."""
        return _intersection_measure(self.condition.segments(), chi.segments()) / math.pi


def condition_density_level0(chi: HalfCircleChar) -> ConditionedDensity:
    """Classical projection postulate: condition the uniform density on chi."""
    return ConditionedDensity(chi)


@dataclass(frozen=True)
class GMap:
    """The rescaled bijection G(x) = g(2x)/2 lifting overlaps to joint probabilities.

    Provides the same forward/inverse/iterate surface as an extended
    generator, so it can drive level functions directly.  G fixes 0, 1/4
    and 1/2.
    """

    egen: ExtendedGenerator

    def forward(self, x):
        return 0.5 * self.egen.forward(2.0 * x)

    def inverse(self, y):
        return 0.5 * self.egen.inverse(2.0 * y)

    def iterate(self, x, k: int):
        """G^k = S^-1 g_R^k S for S(x) = 2x, exact because scaling by 2 is."""
        return 0.5 * self.egen.iterate(2.0 * x, k)


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


def _conditional(delta) -> float:
    """Level-1 conditional between two settings: cos^2(reduced/2)."""
    return math.cos(0.5 * reduced_angle(delta)) ** 2


def ch_value_level1(quad: AngleQuad, egen: ExtendedGenerator = sine_extended()) -> float:
    """Four-term Clauser-Horne combination evaluated with level-1 operations.

    t(a,b) (-_1) t(a,b') (+_1) t(a',b) (+_1) t(a',b') for the conditionals
    t = cos^2(delta/2); with the unit-periodic (integer-fixing) extension
    the value provably lies in [0, 2] for every quad.
    """
    quad = AngleQuad(*quad)
    ctx = ArithmeticContext(egen, 1)
    t1 = _conditional(quad.a - quad.b)
    t2 = _conditional(quad.a - quad.b_prime)
    t3 = _conditional(quad.a_prime - quad.b)
    t4 = _conditional(quad.a_prime - quad.b_prime)
    acc = arith(ctx, "sub", t1, t2)
    acc = arith(ctx, "add", acc, t3)
    return arith(ctx, "add", acc, t4)


def ch_value_level0(quad: AngleQuad) -> float:
    """The same four-term combination with ordinary +/- (not bounded by [0,2])."""
    quad = AngleQuad(*quad)
    return (_conditional(quad.a - quad.b)
            - _conditional(quad.a - quad.b_prime)
            + _conditional(quad.a_prime - quad.b)
            + _conditional(quad.a_prime - quad.b_prime))


TSIRELSON = 1.0 + math.sqrt(2.0)


@dataclass(frozen=True)
class ChScanReport:
    max0: float
    argmax0: AngleQuad
    max1: float
    argmax1: AngleQuad
    tsirelson_check: bool

    def to_json_dict(self) -> dict:
        return {
            "max0": self.max0,
            "argmax0": list(self.argmax0),
            "max1": self.max1,
            "argmax1": list(self.argmax1),
            "tsirelson_check": self.tsirelson_check,
        }


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
    built: the rows are evaluated in chunks of about 2**16 elements (one
    row when n is larger) through one buffer, 0.5 MiB up to n = 2**16.  Ties go
    to the first maximum: the smallest a', then the smallest b, then the
    smallest b'.  ``tsirelson_check`` records that the level-0 maximum
    stayed below 1 + sqrt(2) and the level-1 maximum below 2 (small slack).
    """
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise DomainError(f"resolution must be positive and finite, got {resolution!r}")
    n = max(4, int(round(TWO_PI / resolution)))
    step = TWO_PI / n
    grid = np.arange(n) * step
    red = np.pi - np.abs(np.pi - grid)          # reduced angle of each grid offset
    tcache = np.cos(0.5 * red) ** 2             # level-1 conditionals
    pcache = 1.0 - red / np.pi                  # their base-level pullbacks

    best0, arg0 = _scan_max(tcache)
    best_s, arg1 = _scan_max(pcache)
    max1 = egen.forward(best_s)
    quad0 = AngleQuad(0.0, arg0[0] * step, arg0[1] * step, arg0[2] * step)
    quad1 = AngleQuad(0.0, arg1[0] * step, arg1[1] * step, arg1[2] * step)
    ok = (best0 <= TSIRELSON + 1e-9) and (max1 <= 2.0 + 1e-9)
    return ChScanReport(max0=best0, argmax0=quad0, max1=float(max1), argmax1=quad1,
                        tsirelson_check=ok)


def refine_ch0_max(start: AngleQuad, initial_step: float,
                   min_step: float = 1e-10) -> tuple[AngleQuad, float]:
    """Deterministic coordinate descent sharpening a level-0 grid maximum."""
    angles = list(AngleQuad(*start))
    value = ch_value_level0(AngleQuad(*angles))
    step = initial_step
    while step > min_step:
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
