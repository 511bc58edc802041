"""Closed-form radial antiderivatives for the panel integrals.

After the polar decomposition, every kernel moment reduces to 1D radial
integrals of nine shapes.  With S = sqrt(r^2 + c^2) and Q = sqrt(r^2 - d^2):

    R1: r/S^3          R2: arccos(d/r) r/S^3    R3: Q r/S^3
    R4: r^3/S^3        R5: arccos(d/r) r^3/S^3  R6cubic: r (r^2-d^2)^(3/2)/S^3
    J1: r/S            J2: arccos(d/r) r/S      J3: Q r/S

All primitives are evaluated in numerically stable rewrites: terms of the
shape log((S+Q)/sqrt(c^2+d^2)) (= arctanh(Q/S)) go through log1p,
arccos(d/r) is arctan2(Q, d), and arctan(c*q)/c uses a 4-term odd series
when |c*q| is tiny.  r, c and d are Python floats and every primitive is
plain `math`.  `definite_radials` checks a boundary (r_lo, r_hi, c, d)
once and evaluates S, Q, the angle, the log and the arctan term once per
endpoint for every kind requested; `definite_radial` and
`radial_primitive` are its one-kind views, so each formula lives in one
place (`_primitives`).  The one array function is `_atan_ratio`, the
batch module's lane of arctan(c*q)/c; it shares the series with the
float lane.  Domains are validated, and DivergentIntegral is raised where
the antiderivative is -inf (r=0 with c=0 for R1/R2/R3).
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
    """S and Q at r (Q = 0 below the foot distance)."""
    q2 = r * r - d * d
    return math.sqrt(r * r + c * c), (math.sqrt(q2) if q2 > 0.0 else 0.0)


def _acos_dr(q, d):
    """arccos(d/r) as arctan(Q/d), from the Q the other terms use, so their
    cancellation as r grazes d holds (arccos of a rounded d/r loses half
    the digits there); pi/2 at d = 0, also the r = 0 limit."""
    return math.atan2(q, d) if d > 0.0 else HALF_PI


def _atan_series(q, t):
    """arctan(t)/c for t = c*q below the threshold (error ~t^8/9 < 1e-48
    relative there); pure arithmetic, so floats and arrays share it."""
    t2 = t * t
    return q * (1.0 - t2 / 3.0 + t2 * t2 / 5.0 - t2 * t2 * t2 / 7.0)


def _atan_ratio_float(c, q):
    """arctan(c*q)/c for floats, continuous in c (limit q at c=0)."""
    t = c * q
    return _atan_series(q, t) if abs(t) < _SERIES_TOL else math.atan(t) / c


def _atan_ratio(c, q):
    """`_atan_ratio_float` elementwise; c may be an array (the batch
    engine passes one per pair).  The series runs on the small lanes only."""
    q = np.asarray(q, dtype=float)
    with np.errstate(all="ignore"):
        t = np.asarray(c * q)
        out = np.asarray(np.arctan(t) / c)
    small = np.abs(t) < _SERIES_TOL
    if small.any():
        out[small] = _atan_series(np.broadcast_to(q, t.shape)[small], t[small])
    return out


def _st_log(s, q, c, d):
    """log((S+Q)/h) = arctanh(Q/S), h = hypot(c,d), stable as Q -> 0.

    Uses S - h = Q^2/(S+h), so the log1p argument is O(Q/h).  Only called
    with h > 0.
    """
    h = math.hypot(c, d)
    return math.log1p((q * q / (s + h) + q) / h)


# ---------------------------------------------------------------- primitives

R1, R2, R3, R4, R5, R6cubic, J1, J2, J3 = RadialKind
_DIVERGENT_AT_ZERO = (R1, R2, R3)


def _primitives(kinds, r, c, d):
    """Each kind's primitive at r (c, d prepared, r checked by _radius).

    S, Q and the angle arccos(d/r) are evaluated once, the log term
    log((S+Q)/h) and the arctan term arctan(c*Q/(d*S)) once on first use,
    and every kind takes them from there.
    """
    s, q = _sq(r, c, d)
    h2 = c * c + d * d
    ac = _acos_dr(q, d)
    lg = at = None
    out = []
    for kind in kinds:
        if kind is R1:
            v = -1.0 / s
        elif kind is R2:
            v = -ac / s
            if d != 0.0:
                v += _atan_ratio_float(c, q / (d * s))
        elif kind is R3:
            if h2 == 0.0:
                v = math.log(r)
            else:
                lg = _st_log(s, q, c, d) if lg is None else lg
                v = lg - q / s
        elif kind is R6cubic:
            v = q * (r * r + 2.0 * d * d + 3.0 * c * c) / (2.0 * (s if s > 0.0 else 1.0))
            if h2 != 0.0:
                lg = _st_log(s, q, c, d) if lg is None else lg
                v -= 1.5 * h2 * lg
        elif kind is J3:
            v = 0.5 * s * q
            if h2 != 0.0:
                lg = _st_log(s, q, c, d) if lg is None else lg
                v += 0.5 * h2 * (0.5 * math.log(h2) - lg)
        else:
            # R4 and J1; R5 and J2 are those times arccos(d/r), less the
            # log and arctan terms of the edge line
            v = s if kind is J1 or kind is J2 else r if c == 0.0 else s + c * c / s
            if kind is R5 or kind is J2:
                v *= ac
                if d != 0.0:
                    lg = _st_log(s, q, c, d) if lg is None else lg
                    v -= d * lg
                    if c != 0.0:
                        at = math.atan(c * q / (d * s)) if at is None else at
                        v -= (2.0 * c if kind is R5 else c) * at
        out.append(v)
    return out


def _prepare(c, d):
    """|c| and d snapped to 0 below 1e-14."""
    c, d = abs(float(c)), abs(float(d))  # the sign of c never matters
    return (0.0 if c < _CLAMP else c), (0.0 if d < _CLAMP else d)


def _kind(kind) -> RadialKind:
    return kind if type(kind) is RadialKind else RadialKind(kind)


def _radius(kinds, r: float, c: float, d: float) -> float:
    """r checked against the prepared c and d, and raised to d if just below."""
    r = float(r)
    if r < 0.0:
        raise ValueError(f"radius must be nonnegative, got {r!r}")
    if r < d * (1.0 - 1e-12):
        raise ValueError(f"radius {r!r} below foot distance {d!r}")
    r = max(r, d)
    if c == 0.0 and r * r == 0.0:  # S = 0
        for kind in kinds:
            if kind in _DIVERGENT_AT_ZERO:
                raise DivergentIntegral(
                    f"{kind.value} primitive is -infinity at r=0 with c=0 "
                    "(target on the open panel)")
    return r


def definite_radials(kinds, r_lo: float, r_hi: float, c: float, d: float) -> list:
    """primitive(r_hi) - primitive(r_lo) of each kind in the tuple kinds.

    The boundary (r_lo, r_hi, c, d) is checked once and each endpoint is
    evaluated once for all kinds; the values equal definite_radial's,
    which is this function on one kind.
    """
    if r_hi < r_lo:
        raise ValueError(f"empty radial interval [{r_lo!r}, {r_hi!r}]")
    if r_hi == r_lo:
        return [0.0] * len(kinds)
    c, d = _prepare(c, d)
    hi = _primitives(kinds, _radius(kinds, r_hi, c, d), c, d)
    lo = _primitives(kinds, _radius(kinds, r_lo, c, d), c, d)
    return [a - b for a, b in zip(hi, lo)]


def radial_primitive(kind: RadialKind, r: float, c: float, d: float) -> float:
    """Antiderivative of the selected radial integrand, evaluated at r.

    The sign of c is immaterial; |c| and d below 1e-14 snap to the exact
    degenerate branches.  Raises DivergentIntegral where the primitive is
    -infinity (R1/R2/R3 at r=0 with c=0) and ValueError outside r >= d >= 0.
    """
    kinds = (_kind(kind),)
    c, d = _prepare(c, d)
    return _primitives(kinds, _radius(kinds, r, c, d), c, d)[0]


def definite_radial(kind: RadialKind, r_lo: float, r_hi: float,
                    c: float, d: float) -> float:
    """primitive(r_hi) - primitive(r_lo); propagates DivergentIntegral."""
    return definite_radials((_kind(kind),), r_lo, r_hi, c, d)[0]


def radial_integrand(kind: RadialKind, r: float, c: float, d: float) -> float:
    """The integrand each primitive differentiates to (for cross-checks)."""
    kind, r, c, d = RadialKind(kind).value, float(r), abs(float(c)), abs(float(d))
    s, q = _sq(r, c, d)
    ac = _acos_dr(q, d)
    num = {"R1": r, "R2": ac * r, "R3": q * r, "R4": r ** 3, "R5": ac * r ** 3,
           "R6cubic": r * q ** 3, "J1": r, "J2": ac * r, "J3": q * r}[kind]
    return num / s if kind.startswith("J") else num / s ** 3
