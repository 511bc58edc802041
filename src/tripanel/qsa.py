"""Quadratic surface approximation for strongly singular K-integrals.

A flat panel misrepresents (x - y).n(x) when the target x sits on the
surface: on the panel the dot product is either identically zero or O(1)
instead of the O(|x - y|^2) the curved surface provides.  Replacing the
surface locally by its osculating quadratic graph f = 1/2 sum K_ij s_i s_j
(K the second fundamental form in the integration basis) fixes the
numerator and leaves integrals that are closed-form over the projected
triangle, with O(eps^2) error in the patch radius eps.

Three paths: the general on-surface case (polar decomposition of the
projected triangle), the single-segment path for targets at a panel
vertex, and the off-surface case with the target at signed height c above
the foot point (private: no operator uses it yet).  The vertex path is
written once, on arrays (`qsa_vertex_rows`): the BEM operators evaluate
every incident pair in one call, and `qsa_vertex` and the vertex branch of
`qsa_on_boundary` are one-row calls of it.  foot_point gives the foot and
c from a level-set probe.
"""

import math

import numpy as np

from .curvature import FundamentalForm, _point_name, _probe_eval, _probe_points
from .errors import ConvergenceFailure, DegenerateTriangle, DivergentIntegral
from .geometry import Panel, _cross2, _project, rotation_to_z
from .panel_integrals import FOUR_PI, PanelPolynomial, _densities, _k_integrals, _shaped
# qsa attributes that bench/layers.py traces; the decomposition and the
# moments are computed in panel_integrals, the normals in curvature
from .geometry import decompose_polar  # noqa: F401
from .panel_integrals import compute_k_moments  # noqa: F401
from .curvature import estimate_normals  # noqa: F401

_VERTEX_TOL = 1e-12
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # cyclic vertex shifts
_ON_SURFACE_NU = (0.0, 0.0, 1.0)  # the target normal in its own frame


def _linear_densities(p):
    return _densities(p, 1, "quadratic-surface paths")


def qsa_on_boundary(panel: Panel, target, form: FundamentalForm,
                    p=None, use_vertex_path: bool = True):
    """Integral of K(x, y) p(y) over the curved patch above a panel,
    for a target x on the surface with outward normal target.n.

    Approximates the surface by its osculating quadratic at x, integrates
    (1/4 pi) (-1/2 sum K_ij s_i s_j) p / r^3 in closed form over the
    projected triangle.  Routes to the single-segment vertex path when the
    target coincides with a panel vertex.  p may be a list of densities:
    one decomposition then serves all, and the result is a float array
    with one value per density.
    """
    densities, many = _linear_densities(p)
    if target.n is None:
        raise ValueError("on-surface integration needs the outward normal at x")
    verts = panel.verts
    x = np.asarray(target.x, dtype=float)
    if use_vertex_path:
        # the target sits on a vertex within 1e-12 times the panel diameter
        dist2 = ((verts - x) ** 2).sum(axis=1)
        first = dist2.argmin()
        diam2 = ((verts - verts[_NEXT]) ** 2).sum(axis=1).max()
        if dist2[first] <= _VERTEX_TOL ** 2 * diam2:
            out = qsa_vertex_rows(verts[None], first[None], x[None],
                                  np.asarray(target.n, dtype=float)[None],
                                  form[None], densities)
            return _shaped(out[0], many)
    rot = rotation_to_z(np.asarray(target.n, dtype=float))
    proj = _project(verts.tolist(), x.tolist(), rot.tolist())
    kmat = form.express_in(rot[:2]).matrix
    return _shaped(_k_integrals(proj, 0.0, _ON_SURFACE_NU, densities, kmat,
                                min_degree=2), many)


def _angular_primitives(theta, theta2):
    """Antiderivatives of cos^a(t) sin^b(t) / sin^(a+b-1)(t + theta2) at
    t = theta, for the seven (a, b) pairs with a + b = 2 or 3; elementwise
    over arrays.  theta2 is the triangle's angle at the second vertex, in
    (0, pi)."""
    s2, c2 = np.sin(theta2), np.cos(theta2)
    s3, c3 = np.sin(3.0 * theta2), np.cos(3.0 * theta2)
    u = theta - theta2
    su, cu = np.sin(u), np.cos(u)
    lt = np.log(np.tan(0.5 * (theta + theta2)))
    at = np.arctanh(c2 - s2 * np.tan(0.5 * theta))
    csc = 1.0 / np.sin(theta + theta2)
    return {
        (1, 1): su - s2 * c2 * lt,
        (2, 0): cu + c2 * c2 * lt,
        (0, 2): s2 * s2 * lt - cu,
        (2, 1): 0.25 * (csc * (2.0 * np.sin(u + theta) + s2 + 3.0 * s3)
                        - 2.0 * (c2 + 3.0 * c3) * at),
        (1, 2): -0.25 * (csc * (2.0 * np.cos(u + theta) + c2 - 3.0 * c3)
                         + 2.0 * (s2 - 3.0 * s3) * at),
        (3, 0): -np.sin(u - theta2) - (6.0 * c2 * c2 * s2 * at + c2 ** 3 * csc),
        (0, 3): s2 ** 3 * csc - np.cos(u - theta2) - 6.0 * c2 * s2 * s2 * at,
    }


def qsa_vertex_rows(verts, first, x, n, form, densities):
    """On-surface integrals of K(x, y) h(y) with each target at a panel
    vertex, for many rows in one pass.

    Row r: the target x[r] with unit normal n[r] sits at vertex first[r]
    of the panel verts[r] (3, 3); form[r] is the second fundamental form
    at x[r], form a stacked FundamentalForm with one row per target.  The
    densities are PanelPolynomials of degree <= 1 in the panel's vertex
    order.  Returns (R, len(densities)).

    An in-plane spin puts the projected next vertex on the positive
    s1-axis (mirrored so the third vertex lies above it), making theta a
    single segment [0, theta_end] with r(theta) = |pV2| sin(theta2) /
    sin(theta + theta2) closed-form.  A row with a zero-length angular
    interval is exactly 0; any degenerate row raises DegenerateTriangle.
    """
    forms = np.array([h.form for h in _linear_densities(densities)[0]])
    slope = np.array([2.0 if h.degree > 0 else 0.0 for h in densities])
    rows = np.arange(len(verts))
    nxt, far = (first + 1) % 3, (first + 2) % 3
    rel = verts - x[:, None, :]
    # spun frame: b1 along the projected next vertex, b2 = n x b1, then
    # mirrored so the third vertex lands at s2 >= 0
    d2 = rel[rows, nxt]
    t2 = d2 - np.einsum("rk,rk->r", d2, n)[:, None] * n
    len2 = np.sqrt(np.einsum("rk,rk->r", t2, t2))
    if (len2 == 0.0).any():
        raise DegenerateTriangle("projected second vertex coincides with the target")
    b1 = t2 / len2[:, None]
    spun = np.stack([b1, n[:, _NEXT] * b1[:, _PREV] - n[:, _PREV] * b1[:, _NEXT]],
                    axis=2)
    q = rel @ spun                               # planar vertices (R, 3, 2)
    mirror = np.where(q[rows, far, 1] < 0.0, -1.0, 1.0)[:, None]
    q[..., 1] *= mirror
    spun[..., 1] *= mirror
    q2, q3 = q[rows, nxt], q[rows, far]
    theta_end = np.arctan2(q3[:, 1], q3[:, 0])
    live = theta_end != 0.0
    if (live & ((theta_end < 0.0) | (theta_end >= math.pi))).any():
        raise DegenerateTriangle("projected triangle has no interior angle at the target")
    if not live.all():
        out = np.zeros((len(verts), len(densities)))
        if live.any():
            out[live] = qsa_vertex_rows(verts[live], first[live], x[live], n[live],
                                        form[live], densities)
        return out
    edge = q3 - q2
    theta2 = np.arctan2(np.abs(_cross2(q2, edge)), -np.einsum("rb,rb->r", q2, edge))
    if ((theta2 <= 0.0) | (theta2 >= math.pi)).any():
        raise DegenerateTriangle("projected triangle is degenerate at the second vertex")
    # affine density coefficients: lam_i(s) = (z_i - s1 e_i2 + s2 e_i1) / det
    # with e_i the edge opposite vertex i and z_i = cross(q_i+1, q_i+2)
    nq, pq = q[:, _NEXT], q[:, _PREV]
    z = _cross2(nq, pq)
    e = pq - nq
    lam = np.stack([-e[..., 1], e[..., 0], z], axis=1) / z.sum(axis=1)[:, None, None]
    cp = np.einsum("rai,dij,rj->rda", lam, forms, lam[:, 2])
    p00, p10, p01 = cp[..., 2], slope * cp[..., 0], slope * cp[..., 1]
    # the form in the spun basis
    spun_form = form.express_in(spun.transpose(0, 2, 1))
    k11, k12, k22 = spun_form.k11, spun_form.k12, spun_form.k22
    # primitives at theta_end and at 0, as one flat array
    ends = _angular_primitives(np.concatenate([theta_end, 0.0 * theta_end]),
                               np.concatenate([theta2, theta2]))
    prim = {ab: f[:len(rows)] - f[len(rows):] for ab, f in ends.items()}
    scale = len2 * np.sin(theta2)
    # (-1/2 sum K_ij s_i s_j) p(s) = sum of s1^a s2^b terms; each term
    # integrates to scale^(a+b-1) / (a+b-1) times its angular primitive
    quad = -scale * (0.5 * k11 * prim[(2, 0)] + k12 * prim[(1, 1)]
                     + 0.5 * k22 * prim[(0, 2)])
    lin1 = -0.5 * scale ** 2 * (0.5 * k11 * prim[(3, 0)] + k12 * prim[(2, 1)]
                                + 0.5 * k22 * prim[(1, 2)])
    lin2 = -0.5 * scale ** 2 * (0.5 * k11 * prim[(2, 1)] + k12 * prim[(1, 2)]
                                + 0.5 * k22 * prim[(0, 3)])
    return (quad[:, None] * p00 + lin1[:, None] * p10
            + lin2[:, None] * p01) / FOUR_PI


def qsa_vertex(panel: Panel, target, form: FundamentalForm,
               p: PanelPolynomial | None = None) -> float:
    """On-surface integral with the target at the panel's first vertex:
    the vertex path of qsa_on_boundary."""
    x = np.asarray(target.x, dtype=float)
    if np.linalg.norm(panel.v1 - x) > _VERTEX_TOL * max(panel.diameter, 1e-300):
        raise ValueError("vertex path requires the target at the first vertex")
    return qsa_on_boundary(panel, target, form, p)


def _qsa_off_boundary(panel: Panel, target, form: FundamentalForm, c: float,
                      p=None):
    """Integral of K(x, y) p(y) over the curved patch for an off-surface x.

    form is the second fundamental form at the foot of x on the surface,
    expressed in an orthonormal tangent basis; c is the signed height of
    x above the foot along that basis's normal.  The numerator becomes
    [-s1, -s2, c - 1/2 sum K_ij s_i s_j].n(x) over the projected triangle.
    p may be a list of densities, as in qsa_on_boundary.
    """
    densities, many = _linear_densities(p)
    if target.n is None:
        raise ValueError("K-kernel integration needs a target normal")
    if c == 0.0:
        raise DivergentIntegral("target on the surface: use the on-boundary path")
    b1, b2 = np.asarray(form.basis, dtype=float)
    normal = np.cross(b1, b2)
    rot = np.array([b1, b2, normal / np.linalg.norm(normal)])
    foot = np.asarray(target.x, dtype=float) - c * rot[2]
    proj = _project(panel.verts.tolist(), foot.tolist(), rot.tolist())
    nu = rot @ np.asarray(target.n, dtype=float)
    return _shaped(_k_integrals(proj, c, nu, densities, form.matrix), many)


def foot_point(probe, x):
    """Project x onto the zero level set of an SdfProbe by Newton steps
    y <- y - F grad F / |grad F|^2 along the gradient.

    x is one point (3,) or many (N, 3), projected together: each probe
    callable is called once per step on the points still moving, and a
    point leaves once |F| < 1e-12.  Returns (foot, signed height c of x
    along the unit gradient at the foot): a (3,) and a float, or (N, 3)
    and (N,).  A non-finite point raises ValueError; a point still off
    the level set after 50 steps raises ConvergenceFailure; each names
    the first such point of a batch.
    """
    x = _probe_points(x)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=-1))
    if bad.size:
        raise ValueError(f"non-finite coordinate{_point_name(x, bad[0])}: "
                         f"{x.reshape(-1, 3)[bad[0]].tolist()}")
    y = x.reshape(-1, 3).copy()

    def call(fn, rows, tail):
        pts = y[rows]
        out = _probe_eval(fn, pts if x.ndim == 2 else pts[0], tail)
        return out.reshape(len(pts), *tail)

    live = np.arange(len(y))
    for _ in range(50):
        f = call(probe.value, live, ())
        moving = ~(np.abs(f) < 1e-12)  # a NaN value keeps moving, and fails
        live, f = live[moving], f[moving]
        if not live.size:
            break
        g = call(probe.gradient, live, (3,))
        y[live] = y[live] - f[:, None] * g / (g * g).sum(axis=1)[:, None]
    else:
        raise ConvergenceFailure(f"projection{_point_name(x, live[0])} onto the "
                                 "level set did not converge")
    g = call(probe.gradient, np.arange(len(y)), (3,))
    c = ((x.reshape(-1, 3) - y) * g).sum(axis=1) / np.linalg.norm(g, axis=1)
    if x.ndim == 1:
        return y[0], float(c[0])
    return y, c
