"""Vectorized panel-integral engine for dense BEM assembly.

The scalar closed forms in panel_integrals are exact but Python-loop
bound: a dense collocation matrix touches rows x panels pairs, far too
many to run one polar decomposition at a time.  This module evaluates
the same integrals with numpy over blocks of (target, panel) pairs via
a fan decomposition: with the target's in-plane projection as origin
and height |c| > 0, every triangle moment is the signed sum over the
three directed edges of wedge integrals (origin, edge start, edge end),
each with a closed-form antiderivative.

For an edge line at distance d > 0 from the origin, foot angle phi, and
signed abscissa t along the line (r = sqrt(t^2 + d^2)), the moment

    I_ab = int_T s1^a s2^b rho(|s|) dS,  rho = (r^2+c^2)^(-3/2) or ^(-1/2)

picks up from each wedge the terms d * sum_k coef_k(d, phi) * [W_{n,k}],
where n = a + b, coef_k comes from expanding s1^a s2^b on the edge, and
W_{n,k}(t) antidifferentiates t^k P_n(r) / r^(n+2) with P_n(R) =
int_0^R u^(n+1) rho(u) du.  Even k continues through the foot as
sign(t) * w(r) (all those w vanish at r = d); odd k is even in t.  Only
total degree <= 2 is provided: that covers an affine density times the
K numerator; cubic moments (the curvature corrections) stay on the
scalar path, which also serves the pairs flagged here as unsafe for the
fan form (height below roundoff of the pair scale, degenerate planar
triangles).

Everything is validated pairwise against the scalar path in the tests;
the two paths agree to near machine precision away from the flagged
sets.
"""

from __future__ import annotations

import numpy as np

from .geometry import _cross2
from .panel_integrals import FOUR_PI
from .radial_kernels import _atan_ratio

_HEIGHT_TOL = 1e-12   # |c| below this times the pair scale -> caller fallback
_TINY = 1e-300


def tangent_frames(normals):
    """Orthonormal (t1, t2) completing each unit normal; inputs (P, 3)."""
    n = np.asarray(normals, dtype=float)
    k = np.argmin(np.abs(n), axis=1)
    a = np.zeros_like(n)
    a[np.arange(len(n)), k] = 1.0
    t1 = np.cross(a, n)
    t1 /= np.maximum(np.linalg.norm(t1, axis=1, keepdims=True), _TINY)
    t2 = np.cross(n, t1)
    return t1, t2


def panel_frames(verts):
    """Unit normals and tangent frames of a (P, 3, 3) panel-vertex array.

    Degenerate panels produce a zero normal; the per-pair `fallback` mask
    of the entry routines flags them.
    """
    v = np.asarray(verts, dtype=float)
    n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    norm = np.linalg.norm(n, axis=1, keepdims=True)
    n = n / np.maximum(norm, _TINY)
    t1, t2 = tangent_frames(n)
    return n, t1, t2


def _planar_setup(x, verts, n, t1, t2):
    """Signed heights and planar vertex coordinates for all pairs.

    x: (B, 3) targets; verts: (P, 3, 3).  Returns c (B, P) signed along
    the panel normal and pl (B, P, 3, 2) vertex coordinates around each
    target's in-plane projection.
    """
    rel = verts[None, :, :, :] - x[:, None, None, :]
    pl = np.stack([np.einsum("bpvk,pk->bpv", rel, t1),
                   np.einsum("bpvk,pk->bpv", rel, t2)], axis=-1)
    c = -np.einsum("bpk,pk->bp", rel[:, :, 0, :], n)
    return c, pl


def _edge_tables(pl, scale):
    """Per-edge wedge geometry: distances, foot angles, abscissae, radii.

    Each edge is classified three ways.  Evaluate: the closed forms are
    well conditioned (the edge line is either clearly off the origin, or
    grazes it with both endpoints clearly away, where the 1/d factors
    cancel against the leading d exactly).  Zero: the wedge is genuinely
    degenerate (origin at an endpoint, or a grazing sliver whose foot
    falls outside the segment) and its true value is negligible.  Flag:
    the grazing geometry is ambiguous at roundoff level, so the whole
    pair is reported for the scalar path via the `flag` mask.
    """
    ps = pl                          # (B, P, 3, 2) edge start (v1, v2, v3)
    pe = np.roll(pl, -1, axis=2)     # edge end (v2, v3, v1)
    ev = pe - ps
    elen = np.maximum(np.hypot(ev[..., 0], ev[..., 1]), _TINY)
    z = _cross2(ps, pe)
    d = np.abs(z) / elen
    r = np.stack([np.hypot(ps[..., 0], ps[..., 1]),
                  np.hypot(pe[..., 0], pe[..., 1])], axis=-1)
    s = scale[..., None]
    rmin = r.min(axis=-1)
    evaluate = (d > 1e-13 * s) | ((d > 1e-35 * s) & (rmin > 1e-11 * s))
    # foot of the origin's perpendicular; drives the angle factors only,
    # so roundoff in it is harmless on grazing (small d) wedges
    u_hat = ev / elen[..., None]
    s_along = np.einsum("bpek,bpek->bpe", ps, u_hat)
    foot = ps - s_along[..., None] * u_hat
    d_safe = np.where(evaluate, d, 1.0)
    cphi = foot[..., 0] / d_safe
    sphi = foot[..., 1] / d_safe
    # signed abscissa, oriented so the sweep angle increases with t
    orient = np.sign(_cross2(foot, u_hat))
    t = orient[..., None] * np.stack([s_along, s_along + elen], axis=-1)
    foot_outside = t[..., 0] * t[..., 1] >= -((1e-12 * s) ** 2)
    negligible = (rmin <= 1e-14 * s) | ((d <= 1e-35 * s) & foot_outside)
    flag = (~evaluate & ~negligible).any(axis=-1)
    return {"d": d, "d_safe": d_safe, "cphi": cphi, "sphi": sphi,
            "t": t, "r": r, "valid": evaluate, "flag": flag}


def _k_wedge_w(c_abs, tab, degree):
    """K-kernel W_{n,k} differences across each edge, n <= degree."""
    cc = c_abs[:, :, None, None]
    dd = tab["d_safe"][..., None]
    t, r = tab["t"], tab["r"]
    rs = np.maximum(r, _TINY)
    q = np.abs(t)
    sgn = np.sign(t)
    with np.errstate(all="ignore"):
        s = np.sqrt(r * r + cc * cc)
        a = np.arccos(np.clip(dd / rs, -1.0, 1.0))
        ar = _atan_ratio(cc, q / (dd * np.maximum(s, _TINY)))
        bb = cc * cc * ar - cc * a
        h = np.hypot(cc, dd)
        tt = np.log1p((q * q / (s + h) + q) / h)
        lt = np.log(r + s) - np.log(np.maximum(cc, _TINY))
        w = {(0, 0): sgn * (a / np.maximum(cc, _TINY) - ar) / dd}
        if degree >= 1:
            w[(1, 0)] = sgn * (lt * q / rs - tt) / (dd * dd)
            w[(1, 1)] = -lt / rs
        if degree >= 2:
            sp = s + cc
            w[(2, 0)] = sgn * (bb / dd + q / sp) / (dd * dd)
            w[(2, 1)] = -1.0 / sp
            w[(2, 2)] = sgn * (tt + bb / dd - q * r * r / (2.0 * s * sp * sp)
                               - q / (2.0 * s))
        return {k: v[..., 1] - v[..., 0] for k, v in w.items()}


def _g_wedge_w(c_abs, tab):
    """G-kernel W_{n,k} differences (n <= 1); c = 0 is allowed."""
    cc = c_abs[:, :, None, None]
    dd = tab["d_safe"][..., None]
    t, r = tab["t"], tab["r"]
    rs = np.maximum(r, _TINY)
    q = np.abs(t)
    sgn = np.sign(t)
    with np.errstate(all="ignore"):
        s = np.sqrt(r * r + cc * cc)
        a = np.arccos(np.clip(dd / rs, -1.0, 1.0))
        ar = _atan_ratio(cc, q / (dd * np.maximum(s, _TINY)))
        bb = cc * cc * ar - cc * a
        h = np.hypot(cc, dd)
        tt = np.log1p((q * q / (s + h) + q) / h)
        # c^2 log(1/c) -> 0: the graph-height terms drop at c = 0
        c2lt = np.where(cc > 0.0,
                        cc * cc * (np.log(r + s) - np.log(np.maximum(cc, _TINY))),
                        0.0)
        w = {(0, 0): sgn * (tt + bb / dd),
             (1, 0): sgn * (0.5 * h * h * tt - 0.5 * c2lt * q / rs) / (dd * dd),
             (1, 1): 0.5 * s + 0.5 * c2lt / rs}
        return {k: v[..., 1] - v[..., 0] for k, v in w.items()}


def _moments(tab, dw, degree):
    """Contract edge W-differences into triangle moments I_ab."""
    d = np.where(tab["valid"], tab["d"], 0.0)
    cphi, sphi = tab["cphi"], tab["sphi"]

    def tot(expr):
        return np.where(tab["valid"], expr, 0.0).sum(axis=2)

    with np.errstate(all="ignore"):
        m = {(0, 0): tot(d * dw[(0, 0)])}
        if degree >= 1:
            m[(1, 0)] = tot(d * (d * cphi * dw[(1, 0)] - sphi * dw[(1, 1)]))
            m[(0, 1)] = tot(d * (d * sphi * dw[(1, 0)] + cphi * dw[(1, 1)]))
        if degree >= 2:
            w20, w21, w22 = dw[(2, 0)], dw[(2, 1)], dw[(2, 2)]
            m[(2, 0)] = tot(d * (d * d * cphi * cphi * w20
                                 - 2.0 * d * cphi * sphi * w21
                                 + sphi * sphi * w22))
            m[(1, 1)] = tot(d * (d * d * sphi * cphi * w20
                                 + d * (cphi * cphi - sphi * sphi) * w21
                                 - sphi * cphi * w22))
            m[(0, 2)] = tot(d * (d * d * sphi * sphi * w20
                                 + 2.0 * d * sphi * cphi * w21
                                 + cphi * cphi * w22))
    return m


def _hat_coeffs(pl):
    """Affine vertex-hat coefficients: lam_m(s) = a_m + b_m s1 + c_m s2.

    Returns (a, b, c) each (B, P, 3) and the Jacobian determinant (B, P);
    a degenerate determinant is the caller's fallback signal.
    """
    p1, p2, p3 = pl[..., 0, :], pl[..., 1, :], pl[..., 2, :]
    det = _cross2(p2 - p1, p3 - p1)
    safe = np.where(np.abs(det) > 0.0, det, 1.0)
    a = np.stack([_cross2(p2, p3), _cross2(p3, p1), _cross2(p1, p2)],
                 axis=-1) / safe[..., None]
    b = np.stack([p2[..., 1] - p3[..., 1], p3[..., 1] - p1[..., 1],
                  p1[..., 1] - p2[..., 1]], axis=-1) / safe[..., None]
    c = np.stack([p3[..., 0] - p2[..., 0], p1[..., 0] - p3[..., 0],
                  p2[..., 0] - p1[..., 0]], axis=-1) / safe[..., None]
    return a, b, c, det


def _pair_scale(pl):
    return np.maximum(np.hypot(pl[..., 0], pl[..., 1]).max(axis=2), _TINY)


def k_panel_entries(x, n_x, verts, frames=None):
    """Closed-form int K(x_i, y) lam_m(y) dS over every (target, panel) pair.

    x, n_x: (B, 3) targets and their kernel normals; verts: (P, 3, 3).
    Returns (vals, fallback): vals (B, P, 3) with the integral against each
    vertex hat, and fallback (B, P) marking pairs the caller must reroute
    (target in or near the panel plane, degenerate panel) whose vals are 0.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_x = np.atleast_2d(np.asarray(n_x, dtype=float))
    verts = np.asarray(verts, dtype=float)
    n, t1, t2 = frames if frames is not None else panel_frames(verts)
    c, pl = _planar_setup(x, verts, n, t1, t2)
    scale = _pair_scale(pl)
    c_abs = np.abs(c)
    fallback = c_abs <= _HEIGHT_TOL * scale
    tab = _edge_tables(pl, scale)
    fallback |= tab["flag"]
    dw = _k_wedge_w(np.maximum(c_abs, _TINY), tab, degree=2)
    m = _moments(tab, dw, degree=2)
    ha, hb, hc, det = _hat_coeffs(pl)
    fallback |= np.abs(det) <= 1e-14 * scale * scale
    nu1 = n_x @ t1.T
    nu2 = n_x @ t2.T
    nu3 = n_x @ n.T
    with np.errstate(all="ignore"):
        vals = (c[..., None] * nu3[..., None]
                * (ha * m[(0, 0)][..., None] + hb * m[(1, 0)][..., None]
                   + hc * m[(0, 1)][..., None])
                - nu1[..., None] * (ha * m[(1, 0)][..., None]
                                    + hb * m[(2, 0)][..., None]
                                    + hc * m[(1, 1)][..., None])
                - nu2[..., None] * (ha * m[(0, 1)][..., None]
                                    + hb * m[(1, 1)][..., None]
                                    + hc * m[(0, 2)][..., None])) / FOUR_PI
    fallback |= ~np.isfinite(vals).all(axis=2)
    vals = np.where(fallback[..., None], 0.0, vals)
    return vals, fallback


def k_row_sums(x, n_x, verts, frames=None):
    """int K(x_i, y) dS per (target, panel) pair (the unit-density column).

    Same contract as k_panel_entries with vals of shape (B, P); this is
    the fast path for the closed-surface Gauss identity (degree <= 1).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_x = np.atleast_2d(np.asarray(n_x, dtype=float))
    verts = np.asarray(verts, dtype=float)
    n, t1, t2 = frames if frames is not None else panel_frames(verts)
    c, pl = _planar_setup(x, verts, n, t1, t2)
    scale = _pair_scale(pl)
    c_abs = np.abs(c)
    fallback = c_abs <= _HEIGHT_TOL * scale
    tab = _edge_tables(pl, scale)
    fallback |= tab["flag"]
    dw = _k_wedge_w(np.maximum(c_abs, _TINY), tab, degree=1)
    m = _moments(tab, dw, degree=1)
    with np.errstate(all="ignore"):
        vals = (c * (n_x @ n.T) * m[(0, 0)]
                - (n_x @ t1.T) * m[(1, 0)]
                - (n_x @ t2.T) * m[(0, 1)]) / FOUR_PI
    fallback |= ~np.isfinite(vals)
    vals = np.where(fallback, 0.0, vals)
    return vals, fallback


def g_panel_entries(x, verts, frames=None):
    """Closed-form int G(x_i, y) lam_m(y) dS for every (point, panel) pair.

    Valid for any point placement, on the panel included.  Returns
    (vals, fallback) like k_panel_entries; fallback only flags degenerate
    panels here.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    verts = np.asarray(verts, dtype=float)
    n, t1, t2 = frames if frames is not None else panel_frames(verts)
    c, pl = _planar_setup(x, verts, n, t1, t2)
    scale = _pair_scale(pl)
    tab = _edge_tables(pl, scale)
    dw = _g_wedge_w(np.abs(c), tab)
    m = _moments(tab, dw, degree=1)
    ha, hb, hc, det = _hat_coeffs(pl)
    fallback = np.abs(det) <= 1e-14 * scale * scale
    fallback |= tab["flag"]
    with np.errstate(all="ignore"):
        vals = -(ha * m[(0, 0)][..., None] + hb * m[(1, 0)][..., None]
                 + hc * m[(0, 1)][..., None]) / FOUR_PI
    fallback |= ~np.isfinite(vals).all(axis=2)
    vals = np.where(fallback[..., None], 0.0, vals)
    return vals, fallback
