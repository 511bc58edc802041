"""Vectorized panel-integral engine for dense BEM assembly.

The scalar closed forms in panel_integrals are exact but Python-loop
bound: a dense collocation matrix touches rows x panels pairs, far too
many to run one polar decomposition at a time.  This module evaluates
the same integrals with numpy over blocks of (target, panel) pairs in
vertex form.  With the target's in-plane projection as origin, p_k the
planar vertex k, c the height and R_k = sqrt(|p_k|^2 + c^2):

    Omega = 2 atan2(c det, R_0 R_1 R_2 + sum (p_i.p_j + c^2) R_k)

is the signed solid angle (Van Oosterom & Strackee, IEEE TBME 30(2),
1983), det being twice the panel area.  Edge k runs from vertex k to
k + 1 with unit direction u_k, outward normal m_k, signed offset
t_k = p_k.m_k, along-edge ends s- = p_k.u_k, s+ = p_{k+1}.u_k and
R0^2 = t_k^2 + c^2; its line integral of 1/R is

    f_k = asinh(s+/R0) - asinh(s-/R0),

each end being sign(s) log((R + |s|)/R0), which never cancels.  The
divergence theorem in the plane then gives every moment from these
(Graglia, IEEE TAP 41(10), 1993):

    int 1/R^3 = Omega / c          int s/R^3 = -sum m_k f_k
    int 1/R   = sum t_k f_k - c Omega
    int s_i s_j / R^3 = delta_ij int 1/R - sum m_ki (t_k m_kj f_k + u_kj dR_k)
    int s/R   = sum m_k (s+ R+ - s- R- + R0^2 f_k) / 2

with dR_k = R_{k+1} - R_k.  These cover an affine density times the K
numerator; cubic moments (the curvature corrections) stay on the scalar
path, which also serves the pairs flagged here: height below roundoff of
the pair scale, degenerate planar triangles, and edges that graze the
projection at roundoff level.  Where R0 = 0 (G on the panel's own edge
line) t_k f_k and R0^2 f_k take their limit, 0.

`_panel_table`, built once per mesh, holds what depends on the panel
alone (frame, vertices, planar edges with lengths and directions u, hat
gradients).  `_pair_geometry` adds what depends on the pair.  The planar
vertices are rotated from v - x one vertex at a time and c is taken at
the vertex nearest x, as the scalar path does, so a target close to a
vertex keeps the roundoff of its own offset rather than the panel's.
The K moments do not depend on the kernel direction n, so a target may
carry several directions (the three axes of a gradient): the pair's
moments are built once and contracted with each nu = (n.t1, n.t2, n.n_p).
On every unflagged pair of a sphere-plus-torus BEM problem,
tests/test_batch.py holds all three entries to the scalar path within
1e-11 of the pair's largest hat value.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .panel_integrals import FOUR_PI

_HEIGHT_TOL = 1e-12   # |c| below this times the pair scale -> caller fallback
_TINY = 1e-300
_NEXT = [1, 2, 0]     # the end vertex of each edge


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

    Panel axes come last, so slices are contiguous: the frame (t1, t2, n)
    by vector and component, (3, 3, P); the vertices v by component and
    vertex, (3, 3, P); in the (t1, t2) frame the unit direction of edge k
    (from vertex k to k + 1), (2, 3, P), and its length, (3, P); hat m's
    constant gradient (hat_b[m], hat_c[m]); the Jacobian determinant det
    (P,), 0 if degenerate.
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
    frame = np.ascontiguousarray(np.stack([t1, t2, n]).transpose(0, 2, 1))
    v, unit, length, hat_b, hat_c = (np.ascontiguousarray(a) for a in (
        v.transpose(2, 1, 0), edge / length, length, -opposite[1], opposite[0]))
    return SimpleNamespace(frame=frame, v=v, unit=unit, length=length,
                           hat_b=hat_b, hat_c=hat_c, det=det)


def _pair_geometry(x, verts, table):
    """Planar vertices, height, fallback flag and vertex-form terms of
    (B, P) pairs; the panel table is `table`, else built from verts, and
    is kept as `tab`.

    Per-vertex and per-edge arrays are (3, B, P), per-end ones
    (2, 3, B, P); `flag` holds the `_grazing` pairs.
    """
    tab = _panel_table(verts) if table is None else table
    x = np.atleast_2d(np.asarray(x, dtype=float))
    w = tab.v[:, :, None, :] - x.T[:, None, :, None]   # (3, 3, B, P) v - x
    px, py, h = np.einsum("cvbp,fcp->fvbp", w, tab.frame)
    r2 = px * px + py * py
    near0 = (r2[0] <= r2[1]) & (r2[0] <= r2[2])
    c = -np.where(near0, h[0], np.where(r2[1] <= r2[2], h[1], h[2]))
    scale = np.maximum(np.sqrt(np.maximum(np.maximum(r2[0], r2[1]), r2[2])),
                       _TINY)
    c2 = c * c
    big_r = np.sqrt(r2 + c2)
    pxn, pyn = px[_NEXT], py[_NEXT]
    ux, uy = tab.unit[:, :, None]
    ends = np.stack([px * ux + py * uy, pxn * ux + pyn * uy])   # s-, s+
    # p_k x p_{k+1} keeps the roundoff of the nearer end: exactly 0 when
    # either end is the projection
    offset = (px * pyn - py * pxn) / tab.length[:, None]
    r0sq = offset * offset + c2
    with np.errstate(all="ignore"):
        r0 = np.sqrt(r0sq)
        f = np.arcsinh(ends[1] / r0) - np.arcsinh(ends[0] / r0)
        dots = px * pxn + py * pyn + c2                   # edge k's ends
        den = (big_r[0] * big_r[1] * big_r[2]
               + (dots * big_r[[2, 0, 1]]).sum(axis=0))
        omega = 2.0 * np.arctan2(c * tab.det, den)
    return SimpleNamespace(
        tab=tab, c=c, ox=px[0], oy=py[0], scale=scale, ux=ux, uy=uy,
        offset=offset, ends=ends, big_r=big_r, r0sq=r0sq, f=f, omega=omega,
        flag=_grazing(r2, ends, np.abs(offset), scale))


def _grazing(r2, ends, d, scale):
    """Pairs with an edge line within 1e-13 of the pair scale `scale` of
    the projection (distance d) that is ambiguous at roundoff level: an
    endpoint (squared radii r2) not clearly away, and neither a vertex on
    the projection nor a foot clearly outside the segment (ends s-, s+)."""
    i = np.flatnonzero(d <= 1e-13 * scale)          # the few edges to judge
    bp = scale.size
    d, s, sm, sp = d.flat[i], scale.flat[i % bp], ends[0].flat[i], ends[1].flat[i]
    rmin = np.sqrt(np.minimum(r2.flat[i], r2.flat[(i + bp) % (3 * bp)]))
    bad = (rmin > 1e-14 * s) & np.where(
        d > 1e-35 * s, rmin <= 1e-11 * s,
        (d != 0.0) & (sm * sp < -((1e-12 * s) ** 2)))
    flag = np.zeros(scale.shape, dtype=bool)
    flag.flat[i[bad] % bp] = True
    return flag


def _edge_limit(g, v):
    """v * f_k per edge, with the limit 0 where R0 = 0."""
    with np.errstate(all="ignore"):
        return np.where(g.r0sq > 0.0, v * g.f, 0.0)


def _single_layer(g):
    """int 1/R dS per pair, from the edge terms t_k f_k (returned too)."""
    tf = _edge_limit(g, g.offset)
    return tf.sum(axis=0) - g.c * g.omega, tf


def _about_vertex0(g, k0, k1, k2):
    """The (1, s1, s2)-weighted integrals of (B, P) pairs as (1, s1 - ox,
    s2 - oy)-weighted ones, (ox, oy) being vertex 0: the hats' own
    variables, in which only panel constants remain."""
    with np.errstate(all="ignore"):
        return k0, k1 - g.ox * k0, k2 - g.oy * k0


def _hat_values(tab, k0, k1, k2):
    """Per-hat integrals from the vertex-0 weighted ones of `_about_vertex0`,
    three arrays of their shape, panels last.

    lam_m(s) = delta_m0 + hat_b[m] (s1 - ox) + hat_c[m] (s2 - oy) is
    linear, so the weights may also be sums over targets of one panel's.
    """
    with np.errstate(all="ignore"):
        vals = [tab.hat_b[m] * k1 + tab.hat_c[m] * k2 for m in range(3)]
        vals[0] += k0
    return vals


def _k_pairs(x, n_x, verts, table):
    """Pair geometry, the K fallback and sum m_k f_k of (B, P) pairs,
    plus each kernel direction in each panel frame: nu1, nu2, nu3 of
    shape (D, B, P) for n_x of shape (B, D, 3), D = 1 for (B, 3)."""
    g = _pair_geometry(x, verts, table)
    fallback = (np.abs(g.c) <= _HEIGHT_TOL * g.scale) | g.flag
    with np.errstate(all="ignore"):
        mf = ((g.uy * g.f).sum(axis=0), -(g.ux * g.f).sum(axis=0))
    n_x = np.asarray(n_x, dtype=float).reshape(len(g.c), -1, 3)
    nu = np.einsum("bdc,fcp->fdbp", n_x, g.tab.frame)
    return g, mf, nu, fallback


def _finish(parts, fallback):
    """(vals, fallback) from (B, P) value arrays, one per density: flag
    the non-finite pairs, zero every flagged one, densities last."""
    for v in parts:
        fallback |= ~np.isfinite(v)
    vals = np.stack([np.where(fallback, 0.0, v) for v in parts], axis=-1)
    return (vals if len(parts) > 1 else vals[..., 0]), fallback


def _degenerate(g):
    """Pairs whose panel is degenerate at the pair scale."""
    return np.abs(g.tab.det) <= 1e-14 * g.scale * g.scale


def _g_moments(g, g1):
    """The G tail: int G (1, s1 - ox, s2 - oy) dS per pair, from int 1/R
    dS = g1 and the edge integrals of R (see `_about_vertex0`)."""
    with np.errstate(all="ignore"):
        (sm, sp), r = g.ends, g.big_r
        # twice int_edge R dl; the halving joins the exact -1 / (4 pi)
        # scaling, which moves no bit
        er = sp * r[_NEXT] - sm * r + _edge_limit(g, g.r0sq)
        return _about_vertex0(g, g1 / -FOUR_PI,
                              (g.uy * er).sum(axis=0) / (-2.0 * FOUR_PI),
                              (g.ux * er).sum(axis=0) / (2.0 * FOUR_PI))


def k_panel_entries(x, n_x, verts, table=None, g_out=None):
    """Closed-form int K(x_i, y) lam_m(y) dS over every (target, panel) pair.

    x: (B, 3) targets; n_x: their kernel normals, (B, 3), or D kernel
    directions per target, (B, D, 3); verts: (P, 3, 3), whose
    `_panel_table` may be passed precomputed as `table`.  Returns (vals,
    fallback): vals (B, P, 3), or (B, P, D, 3), with the integral against
    each vertex hat, and fallback (B, P) marking pairs the caller must
    reroute (target in or near the panel plane, degenerate panel) whose
    vals are 0.  The geometry and moments of a pair are computed once;
    only their contraction with nu = (n.t1, n.t2, n.n_p) is per direction.

    g_out, a (3, B, P) array, also receives G from the same pair
    geometry: int G (1, s1 - ox, s2 - oy) dS per pair, which
    `_hat_values` turns into g_panel_entries' vals bit for bit.  The
    pairs g_panel_entries flags are those with a non-finite entry here
    (NaN at a degenerate panel or grazing edge); the K-only flags are not.
    """
    g, (f1, f2), (nu1, nu2, nu3), fallback = _k_pairs(x, n_x, verts, table)
    degenerate = _degenerate(g)
    fallback |= degenerate
    ux, uy = g.ux, g.uy
    with np.errstate(all="ignore"):
        g1, tf = _single_layer(g)
        dr = g.big_r[_NEXT] - g.big_r
        # int s_i s_j / R^3
        d11 = g1 - (uy * uy * tf + ux * uy * dr).sum(axis=0)
        d22 = g1 - (ux * ux * tf - ux * uy * dr).sum(axis=0)
        d12 = (ux * uy * tf + 0.5 * (ux * ux - uy * uy) * dr).sum(axis=0)
        cn = g.c * nu3
        k = (nu3 * g.omega + nu1 * f1 + nu2 * f2,
             -cn * f1 - nu1 * d11 - nu2 * d12,
             -cn * f2 - nu1 * d12 - nu2 * d22)
        hats = _hat_values(g.tab, *_about_vertex0(g, *(v / FOUR_PI for v in k)))
    if g_out is not None:
        np.stack(_g_moments(g, g1), out=g_out)
        g_out[:, degenerate | g.flag] = np.nan
    vals, fallback = _finish([h[d] for d in range(len(cn)) for h in hats],
                             fallback)
    return vals.reshape(*fallback.shape, *np.shape(n_x)[1:-1], 3), fallback


def k_row_sums(x, n_x, verts, table=None):
    """int K(x_i, y) dS per (target, panel) pair (the unit-density column).

    Same contract as k_panel_entries with vals of shape (B, P); this is
    the fast path for the closed-surface Gauss identity: the solid angle
    and the edge integrals alone.
    """
    g, (f1, f2), (nu1, nu2, nu3), fallback = _k_pairs(x, n_x, verts, table)
    with np.errstate(all="ignore"):
        vals = (nu3 * g.omega + nu1 * f1 + nu2 * f2) / FOUR_PI
    return _finish(list(vals), fallback)


def g_panel_entries(x, verts, table=None):
    """Closed-form int G(x_i, y) lam_m(y) dS for every (point, panel) pair.

    Valid for any point placement, on the panel included.  Returns
    (vals, fallback) like k_panel_entries; fallback only flags degenerate
    panels here.
    """
    g = _pair_geometry(x, verts, table)
    with np.errstate(all="ignore"):
        g1, _ = _single_layer(g)
    vals = _hat_values(g.tab, *_g_moments(g, g1))
    return _finish(vals, _degenerate(g) | g.flag)
