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
sign(t) * w(r) (all those w vanish at r = d); odd k is even in t.  The
code carries V_{n,k} = d^(n+1-k) [W_{n,k}], whose coefficients are pure
foot-angle polynomials.  Only total degree <= 2 is provided: that
covers an affine density times the K numerator; cubic moments (the
curvature corrections) stay on the scalar path, which also serves the
pairs flagged here as unsafe for the fan form (height below roundoff of
the pair scale, degenerate planar triangles).

`_panel_table`, built once per mesh, holds what depends on the panel
alone (frame, vertex 0, planar vertices, edge vectors with lengths and
directions u, hat gradients).  `_pair_geometry` adds what depends on the
pair: the height c and in-plane offset (three dot products with v0 - x),
per edge z = p_start x edge and d = |z| / length, and r per vertex.  The
foot is -(z / length) perp(u), so (cos phi, sin phi) = sign(z) (u2, -u1)
and sign(z) orients the sweep.  `_wedge_terms` evaluates the pieces K
and G share, the wedge angle arctan2(|t|, d) among them.  The K moments
do not depend on the kernel direction n, so a target may carry several
directions (the three axes of a gradient): the pair's moments are built
once and contracted with each nu = (n.t1, n.t2, n.n_p).  On every
unflagged pair of a sphere-plus-torus BEM problem, tests/test_batch.py
holds all three entries to the scalar path within 1e-11 of the pair's
largest hat value.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .geometry import _dot3
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


def _panel_table(verts):
    """Per-panel geometry of a (P, 3, 3) vertex array, shared by all targets.

    Component (or vertex, edge, hat) axes come first, so slices are
    contiguous: the frame n, t1, t2 and vertex v0, each (3, P); in the
    (t1, t2) frame the vertices loc relative to v0 and the edges edge
    (edge k from vertex k to k + 1) with their unit directions, each
    (2, 3, P), and lengths (3, P); hat m's constant gradient (hat_b[m],
    hat_c[m]); the Jacobian determinant det (P,), 0 if degenerate.
    """
    v = np.asarray(verts, dtype=float)
    n, t1, t2 = panel_frames(v)
    rel = v - v[:, :1]
    loc = np.stack([np.einsum("pvk,pk->vp", rel, t1),
                    np.einsum("pvk,pk->vp", rel, t2)])
    edge = np.roll(loc, -1, axis=1) - loc
    length = np.maximum(np.hypot(edge[0], edge[1]), _TINY)
    det = loc[0, 1] * loc[1, 2] - loc[1, 1] * loc[0, 2]
    # grad lam_m = perp(edge opposite vertex m) / det
    opposite = np.roll(edge, -1, axis=1) / np.where(det != 0.0, det, 1.0)
    n, t1, t2, v0 = (np.ascontiguousarray(a.T) for a in (n, t1, t2, v[:, 0]))
    return SimpleNamespace(n=n, t1=t1, t2=t2, v0=v0, loc=loc, edge=edge,
                           length=length, unit=edge / length,
                           hat_b=-opposite[1], hat_c=opposite[0], det=det)


def _pair_geometry(x, verts, table):
    """Heights, offsets and per-edge wedge geometry of (B, P) pairs; the
    panel table is `table`, else built from verts, and is kept as `tab`.

    Per-edge arrays are (3, B, P); per-endpoint ones (2, 3, B, P), the
    start first.  Each edge is classified three ways.  Evaluate: the
    closed forms are well conditioned (the edge line is either clearly
    off the origin, or grazes it with both endpoints clearly away, where
    the 1/d factors cancel against the leading d exactly).  Zero: the
    wedge is genuinely degenerate (origin at an endpoint, or a grazing
    sliver whose foot falls outside the segment) and its true value is
    negligible.  Flag: the grazing geometry is ambiguous at roundoff
    level, so the whole pair is reported for the scalar path via the
    `flag` mask.
    """
    tab = _panel_table(verts) if table is None else table
    x = np.atleast_2d(np.asarray(x, dtype=float))
    w = tab.v0[:, None, :] - x.T[:, :, None]        # (3, B, P) v0 - x
    c = -_dot3(w, tab.n)
    ox, oy = _dot3(w, tab.t1), _dot3(w, tab.t2)
    # vertices around the target's projection, and their radii
    px = tab.loc[0][:, None] + ox
    py = tab.loc[1][:, None] + oy
    rv = np.sqrt(px * px + py * py)
    scale = np.maximum(np.maximum(rv[0], rv[1]), np.maximum(rv[2], _TINY))
    (ex, ey), (ux, uy) = tab.edge[:, :, None], tab.unit[:, :, None]
    length = tab.length[:, None]
    z = px * ey - py * ex
    d = np.abs(z) / length
    r = np.stack([rv, rv[[1, 2, 0]]])
    rmin = np.minimum(r[0], r[1])
    evaluate = ((d > 1e-13 * scale)
                | ((d > 1e-35 * scale) & (rmin > 1e-11 * scale)))
    # signed abscissa, oriented so the sweep angle increases with t
    orient = np.sign(z)
    along = px * ux + py * uy
    t = orient * np.stack([along, along + length])
    foot_outside = t[0] * t[1] >= -((1e-12 * scale) ** 2)
    bad = ~evaluate & ~((rmin <= 1e-14 * scale)
                        | ((d <= 1e-35 * scale) & foot_outside))
    return SimpleNamespace(
        tab=tab, c=c, ox=ox, oy=oy, scale=scale, t=t, r=r, valid=evaluate,
        d_safe=np.where(evaluate, d, 1.0), cphi=orient * uy,
        sphi=-orient * ux, flag=bad[0] | bad[1] | bad[2])


def _wedge_terms(cc, g):
    """Closed-form pieces both kernels' wedges share, at each edge end.

    cc: |c| per pair, (B, P).  The wedge angle is arctan2(|t|, d), which
    keeps every digit where an endpoint sits near the foot (r ~ d).
    """
    dd, t, r = g.d_safe, g.t, g.r
    q = np.abs(t)
    with np.errstate(all="ignore"):
        s = np.sqrt(r * r + cc * cc)
        a = np.arctan2(q, dd)
        ar = _atan_ratio(cc, q / (dd * np.maximum(s, _TINY)))
        h = np.sqrt(cc * cc + dd * dd)
        return SimpleNamespace(
            cc=cc, dd=dd, q=q, sgn=np.sign(t), r=r, rs=np.maximum(r, _TINY),
            s=s, a=a, ar=ar, bb=cc * cc * ar - cc * a, h=h,
            tt=np.log1p((q * q / (s + h) + q) / h),
            lt=np.log(r + s) - np.log(np.maximum(cc, _TINY)))


def _across(w):
    """W(t_end) - W(t_start) of each edge (callers silence fp warnings)."""
    return {k: v[1] - v[0] for k, v in w.items()}


def _k_wedge_v(e, degree):
    """K-kernel V_{n,k} = d^(n+1-k) [W_{n,k}] of each edge, n <= degree."""
    cc, dd, q, sgn, rs, s = e.cc, e.dd, e.q, e.sgn, e.rs, e.s
    with np.errstate(all="ignore"):
        w = {(0, 0): sgn * (e.a / cc - e.ar)}
        if degree >= 1:
            w[(1, 0)] = sgn * (e.lt * q / rs - e.tt)
            w[(1, 1)] = e.lt / rs
        if degree >= 2:
            sp = s + cc
            w[(2, 0)] = sgn * (e.bb + dd * q / sp)
            w[(2, 1)] = 1.0 / sp
            w[(2, 2)] = sgn * (e.bb + dd * (e.tt - q * e.r * e.r / (2.0 * s * sp * sp)
                                            - q / (2.0 * s)))
        v = _across(w)
        if degree >= 1:
            v[(1, 1)] *= -dd
        if degree >= 2:
            v[(2, 1)] *= -dd * dd
    return v


def _g_wedge_v(e):
    """G-kernel V_{n,k} = d^(n+1-k) [W_{n,k}] of each edge (n <= 1); c = 0
    is allowed."""
    with np.errstate(all="ignore"):
        # c^2 log(1/c) -> 0: the graph-height terms drop at c = 0
        c2lt = np.where(e.cc > 0.0, e.cc * e.cc * e.lt, 0.0)
        v = _across({(0, 0): e.sgn * (e.dd * e.tt + e.bb),
                     (1, 0): e.sgn * (0.5 * e.h * e.h * e.tt - 0.5 * c2lt * e.q / e.rs),
                     (1, 1): 0.5 * e.s + 0.5 * c2lt / e.rs})
        v[(1, 1)] *= e.dd
    return v


def _moments(g, v, degree):
    """Triangle moments I_ab: the valid edges' V_{n,k} weighted by the
    foot-angle coefficients of s1^a s2^b."""
    v = {k: np.where(g.valid, x, 0.0) for k, x in v.items()}
    c, s = g.cphi, g.sphi
    with np.errstate(all="ignore"):
        m = {(0, 0): v[(0, 0)].sum(axis=0)}
        if degree >= 1:
            v10, v11 = v[(1, 0)], v[(1, 1)]
            m[(1, 0)] = (c * v10 - s * v11).sum(axis=0)
            m[(0, 1)] = (s * v10 + c * v11).sum(axis=0)
        if degree >= 2:
            v20, v21, v22 = v[(2, 0)], v[(2, 1)], v[(2, 2)]
            cc, cs, ss = c * c, c * s, s * s
            m[(2, 0)] = (cc * v20 - 2.0 * cs * v21 + ss * v22).sum(axis=0)
            m[(1, 1)] = (cs * v20 + (cc - ss) * v21 - cs * v22).sum(axis=0)
            m[(0, 2)] = (ss * v20 + 2.0 * cs * v21 + cc * v22).sum(axis=0)
    return m


def _hat_values(g, k0, k1, k2):
    """Per-hat integrals from the (1, s1, s2)-weighted ones, three (B, P).

    Around the projection lam_m(s) = delta_m0 + hat_b[m] (s1 - ox)
    + hat_c[m] (s2 - oy), (ox, oy) being vertex 0.
    """
    with np.errstate(all="ignore"):
        k1, k2 = k1 - g.ox * k0, k2 - g.oy * k0
        vals = [g.tab.hat_b[m] * k1 + g.tab.hat_c[m] * k2 for m in range(3)]
        vals[0] += k0
    return vals


def _k_pairs(x, n_x, verts, table, degree):
    """Pair geometry, K moments and the K fallback of (B, P) pairs, plus
    each kernel direction in each panel frame: nu1, nu2, nu3 of shape
    (D, B, P) for n_x of shape (B, D, 3), D = 1 for (B, 3)."""
    g = _pair_geometry(x, verts, table)
    c_abs = np.abs(g.c)
    fallback = (c_abs <= _HEIGHT_TOL * g.scale) | g.flag
    e = _wedge_terms(np.maximum(c_abs, _TINY), g)
    n_x = np.asarray(n_x, dtype=float).reshape(len(g.c), -1, 3).T[..., None]
    nu = (_dot3(n_x, g.tab.t1), _dot3(n_x, g.tab.t2), _dot3(n_x, g.tab.n))
    return g, _moments(g, _k_wedge_v(e, degree), degree), nu, fallback


def _finish(parts, fallback):
    """(vals, fallback) from (B, P) value arrays, one per density: flag
    the non-finite pairs, zero every flagged one, densities last."""
    for v in parts:
        fallback |= ~np.isfinite(v)
    vals = np.stack([np.where(fallback, 0.0, v) for v in parts], axis=-1)
    return (vals if len(parts) > 1 else vals[..., 0]), fallback


def k_panel_entries(x, n_x, verts, table=None):
    """Closed-form int K(x_i, y) lam_m(y) dS over every (target, panel) pair.

    x: (B, 3) targets; n_x: their kernel normals, (B, 3), or D kernel
    directions per target, (B, D, 3); verts: (P, 3, 3), whose
    `_panel_table` may be passed precomputed as `table`.  Returns (vals,
    fallback): vals (B, P, 3), or (B, P, D, 3), with the integral against
    each vertex hat, and fallback (B, P) marking pairs the caller must
    reroute (target in or near the panel plane, degenerate panel) whose
    vals are 0.  The geometry and moments of a pair are computed once;
    only their contraction with nu = (n.t1, n.t2, n.n_p) is per direction.
    """
    g, m, (nu1, nu2, nu3), fallback = _k_pairs(x, n_x, verts, table, 2)
    fallback |= np.abs(g.tab.det) <= 1e-14 * g.scale * g.scale
    with np.errstate(all="ignore"):
        cn = g.c * nu3
        k = (cn * m[(0, 0)] - nu1 * m[(1, 0)] - nu2 * m[(0, 1)],
             cn * m[(1, 0)] - nu1 * m[(2, 0)] - nu2 * m[(1, 1)],
             cn * m[(0, 1)] - nu1 * m[(1, 1)] - nu2 * m[(0, 2)])
        hats = _hat_values(g, *(v / FOUR_PI for v in k))
    vals, fallback = _finish([h[d] for d in range(len(cn)) for h in hats],
                             fallback)
    return vals.reshape(*fallback.shape, *np.shape(n_x)[1:-1], 3), fallback


def k_row_sums(x, n_x, verts, table=None):
    """int K(x_i, y) dS per (target, panel) pair (the unit-density column).

    Same contract as k_panel_entries with vals of shape (B, P); this is
    the fast path for the closed-surface Gauss identity (degree <= 1).
    """
    g, m, (nu1, nu2, nu3), fallback = _k_pairs(x, n_x, verts, table, 1)
    with np.errstate(all="ignore"):
        vals = (g.c * nu3 * m[(0, 0)] - nu1 * m[(1, 0)]
                - nu2 * m[(0, 1)]) / FOUR_PI
    return _finish(list(vals), fallback)


def g_panel_entries(x, verts, table=None):
    """Closed-form int G(x_i, y) lam_m(y) dS for every (point, panel) pair.

    Valid for any point placement, on the panel included.  Returns
    (vals, fallback) like k_panel_entries; fallback only flags degenerate
    panels here.
    """
    g = _pair_geometry(x, verts, table)
    m = _moments(g, _g_wedge_v(_wedge_terms(np.abs(g.c), g)), 1)
    fallback = (np.abs(g.tab.det) <= 1e-14 * g.scale * g.scale) | g.flag
    vals = _hat_values(g, -m[(0, 0)] / FOUR_PI, -m[(1, 0)] / FOUR_PI,
                       -m[(0, 1)] / FOUR_PI)
    return _finish(vals, fallback)
