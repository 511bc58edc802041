"""Closed-form radial antiderivatives for the panel integrals.

After the polar decomposition, every kernel moment reduces to 1D radial
integrals of nine shapes.  With S = sqrt(r^2 + c^2) and Q = sqrt(r^2 - d^2):

    R1: r/S^3          R2: arccos(d/r) r/S^3    R3: Q r/S^3
    R4: r^3/S^3        R5: arccos(d/r) r^3/S^3  R6cubic: r (r^2-d^2)^(3/2)/S^3
    J1: r/S            J2: arccos(d/r) r/S      J3: Q r/S

All primitives are evaluated in numerically stable rewrites: terms of the
shape log((S+Q)/sqrt(c^2+d^2)) (= arctanh(Q/S)) go through log1p, and
arctan(c*q)/c uses a 4-term odd series when |c*q| is tiny.  c and d are
scalars here, except in `_atan_ratio`, which the batch module shares
(its hot vectorized path is validated pairwise against this one); r may
be an array.
The scalar API validates domains and raises DivergentIntegral where the
antiderivative is -inf (r=0 with c=0 for R1/R2/R3).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DivergentIntegral

_CLAMP = 1e-14       # c or d below this is treated as exactly 0
_SERIES_TOL = 1e-6   # switch arctan(t)/c to its odd series when |t| < this

HALF_PI = math.pi / 2.0


class RadialKind(Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"
    R6cubic = "R6cubic"
    J1 = "J1"
    J2 = "J2"
    J3 = "J3"


def _sq(r, c, d):
    r = np.asarray(r, dtype=float)
    s = np.sqrt(r * r + c * c)
    q = np.sqrt(np.maximum(r * r - d * d, 0.0))
    return r, s, q


def _acos_dr(r, d):
    """arccos(d/r), with the r=0 (only possible for d=0) limit pi/2."""
    ratio = d / np.where(r > 0.0, r, 1.0)
    return np.where(r > 0.0, np.arccos(np.clip(ratio, -1.0, 1.0)), HALF_PI)


def _atan_ratio(c, q):
    """arctan(c*q)/c elementwise, continuous in c (limit q at c=0).

    c may be an array (the batch engine passes one per pair).  Series
    q*(1 - t^2/3 + t^4/5 - t^6/7), t = c*q, below the threshold; the
    truncation error ~t^8/9 is below 1e-48 relative there.  Each branch
    is evaluated everywhere and the unused one discarded.
    """
    q = np.asarray(q, dtype=float)
    with np.errstate(all="ignore"):
        t = c * q
        t2 = t * t
        series = q * (1.0 - t2 / 3.0 + t2 * t2 / 5.0 - t2 * t2 * t2 / 7.0)
        exact = np.arctan(t) / c
    return np.where(np.abs(t) < _SERIES_TOL, series, exact)


def _st_log(s, q, c, d):
    """log((S+Q)/h) = arctanh(Q/S), h = hypot(c,d), stable as Q -> 0.

    Uses S - h = Q^2/(S+h), so the log1p argument is O(Q/h).  Only called
    with h > 0.
    """
    h = math.hypot(c, d)
    return np.log1p((q * q / (s + h) + q) / h)


# ---------------------------------------------------------------- primitives

def _p_r1(r, c, d):
    r, s, q = _sq(r, c, d)
    with np.errstate(divide="ignore"):
        return -1.0 / s


def _p_r2(r, c, d):
    r, s, q = _sq(r, c, d)
    if d == 0.0:
        with np.errstate(divide="ignore"):
            return -HALF_PI / s
    return -_acos_dr(r, d) / s + _atan_ratio(c, q / (d * s))


def _p_r3(r, c, d):
    r, s, q = _sq(r, c, d)
    if c == 0.0 and d == 0.0:
        with np.errstate(divide="ignore"):
            return np.log(r)
    return _st_log(s, q, c, d) - q / s


def _p_r4(r, c, d):
    r, s, q = _sq(r, c, d)
    if c == 0.0:
        return r + 0.0
    return s + c * c / s


def _p_r5(r, c, d):
    r, s, q = _sq(r, c, d)
    r4 = _p_r4(r, c, d)
    if d == 0.0:
        return HALF_PI * r4
    out = r4 * _acos_dr(r, d) - d * _st_log(s, q, c, d)
    if c != 0.0:
        out = out - 2.0 * c * np.arctan(c * q / (d * s))
    return out


def _p_r6(r, c, d):
    r, s, q = _sq(r, c, d)
    out = q * (r * r + 2.0 * d * d + 3.0 * c * c) / (2.0 * np.where(s > 0.0, s, 1.0))
    h2 = c * c + d * d
    if h2 != 0.0:
        out = out - 1.5 * h2 * _st_log(s, q, c, d)
    return out


def _p_j1(r, c, d):
    r, s, q = _sq(r, c, d)
    return s


def _p_j2(r, c, d):
    r, s, q = _sq(r, c, d)
    if d == 0.0:
        return HALF_PI * s
    out = s * _acos_dr(r, d) - d * _st_log(s, q, c, d)
    if c != 0.0:
        out = out - c * np.arctan(c * q / (d * s))
    return out


def _p_j3(r, c, d):
    r, s, q = _sq(r, c, d)
    out = 0.5 * s * q
    h2 = c * c + d * d
    if h2 != 0.0:
        out = out + 0.5 * h2 * (0.5 * math.log(h2) - _st_log(s, q, c, d))
    return out


_PRIMS = {
    RadialKind.R1: _p_r1,
    RadialKind.R2: _p_r2,
    RadialKind.R3: _p_r3,
    RadialKind.R4: _p_r4,
    RadialKind.R5: _p_r5,
    RadialKind.R6cubic: _p_r6,
    RadialKind.J1: _p_j1,
    RadialKind.J2: _p_j2,
    RadialKind.J3: _p_j3,
}

_DIVERGENT_AT_ZERO = {RadialKind.R1, RadialKind.R2, RadialKind.R3}


def _clamp(x: float) -> float:
    x = abs(float(x))  # the sign of c never matters
    return 0.0 if x < _CLAMP else x


def radial_primitive(kind: RadialKind, r: float, c: float, d: float) -> float:
    """Antiderivative of the selected radial integrand, evaluated at r.

    The sign of c is immaterial; |c| and d below 1e-14 snap to the exact
    degenerate branches.  Raises DivergentIntegral where the primitive is
    -infinity (R1/R2/R3 at r=0 with c=0) and ValueError outside r >= d >= 0.
    """
    kind = RadialKind(kind)
    c, d = _clamp(c), _clamp(d)
    r = float(r)
    if r < 0.0:
        raise ValueError(f"radius must be nonnegative, got {r!r}")
    if r < d * (1.0 - 1e-12):
        raise ValueError(f"radius {r!r} below foot distance {d!r}")
    r = max(r, d)
    if r == 0.0 and c == 0.0 and kind in _DIVERGENT_AT_ZERO:
        raise DivergentIntegral(
            f"{kind.value} primitive is -infinity at r=0 with c=0 "
            "(target on the open panel)")
    return float(_PRIMS[kind](r, c, d))


def definite_radial(kind: RadialKind, r_lo: float, r_hi: float,
                    c: float, d: float) -> float:
    """primitive(r_hi) - primitive(r_lo); propagates DivergentIntegral."""
    if r_hi < r_lo:
        raise ValueError(f"empty radial interval [{r_lo!r}, {r_hi!r}]")
    if r_hi == r_lo:
        return 0.0
    return (radial_primitive(kind, r_hi, c, d)
            - radial_primitive(kind, r_lo, c, d))


def radial_integrand(kind: RadialKind, r, c: float, d: float):
    """The integrand each primitive differentiates to (for cross-checks)."""
    kind = RadialKind(kind)
    r, s, q = _sq(r, abs(float(c)), abs(float(d)))
    ac = _acos_dr(r, d)
    if kind is RadialKind.R1:
        return r / s ** 3
    if kind is RadialKind.R2:
        return ac * r / s ** 3
    if kind is RadialKind.R3:
        return q * r / s ** 3
    if kind is RadialKind.R4:
        return r ** 3 / s ** 3
    if kind is RadialKind.R5:
        return ac * r ** 3 / s ** 3
    if kind is RadialKind.R6cubic:
        return r * q ** 3 / s ** 3
    if kind is RadialKind.J1:
        return r / s
    if kind is RadialKind.J2:
        return ac * r / s
    return q * r / s  # J3
