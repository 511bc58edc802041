"""Adaptive quadrature over planar triangles and parametrized surface patches.

This is the package's independent ground-truth instrument: everything the
closed-form panel integrals claim is cross-checked against it in the tests.
The base rule is a 16-point conical-product rule (4-point Gauss-Jacobi with
weight (1-u) times 4-point Gauss-Legendre), exact for bivariate polynomials
of total degree <= 7 on a triangle, with all-positive weights.  Adaptivity is
breadth-first 4-way midpoint subdivision; a cell is accepted when the
difference between its one-level and two-level estimates is below its
area-apportioned share of the tolerance.

Integrands must be vectorized: they receive an (n, 2) array of points and
return an (n,) array of values.

The CLI sweeps and the tests share the oracles built on these rules (flat
panel, unit-sphere patch) and the singular sweep's random panels; nothing
here imports the closed-form modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .geometry import Panel, rotation_to_z

# Subdivision is forced next to a flagged singular corner for this many levels
# before the regular acceptance test takes over.
_GRADED_LEVELS = 6
# Safety valve against runaway subdivision of non-integrable integrands.
_MAX_ACTIVE_CELLS = 200_000


def _conical_rule(n: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on the reference triangle {x, y >= 0, x + y <= 1}.

    Conical product: x = u, y = v*(1-u) with the area element (1-u) du dv
    absorbed into a Gauss-Jacobi rule (alpha=1) in u; exact for total degree
    <= 2n - 1.
    """
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xl, wl = roots_legendre(n)
    u = 0.5 * (xj + 1.0)
    wu = 0.25 * wj  # [-1,1] -> [0,1] picks up (1/2)^(1+alpha)
    v = 0.5 * (xl + 1.0)
    wv = 0.5 * wl
    uu, vv = np.meshgrid(u, v, indexing="ij")
    wuu, wvv = np.meshgrid(wu, wv, indexing="ij")
    pts = np.stack([uu.ravel(), (vv * (1.0 - uu)).ravel()], axis=1)
    return pts, (wuu * wvv).ravel()


_RULE_PTS, _RULE_W = _conical_rule(4)
RULE_POINTS = _RULE_PTS.shape[0]


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def triangle_vertices(tri) -> np.ndarray:
    """Accept a PlanarTriangle-like object (with .verts) or a (3, 2) array."""
    verts = getattr(tri, "verts", tri)
    verts = np.asarray(verts, dtype=float)
    if verts.shape != (3, 2):
        raise ValueError(f"expected a (3, 2) triangle, got shape {verts.shape}")
    return verts


def _cell_areas(cells: np.ndarray) -> np.ndarray:
    e1 = cells[:, 1] - cells[:, 0]
    e2 = cells[:, 2] - cells[:, 0]
    return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _rule_eval(f, cells: np.ndarray) -> np.ndarray:
    """Apply the base rule to every cell; returns (n_cells,) estimates."""
    a = cells[:, 0][:, None, :]
    pts = a + _RULE_PTS[None, :, 0, None] * (cells[:, 1] - cells[:, 0])[:, None, :] \
            + _RULE_PTS[None, :, 1, None] * (cells[:, 2] - cells[:, 0])[:, None, :]
    vals = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(cells.shape[0], RULE_POINTS)
    return (vals @ _RULE_W) * (2.0 * _cell_areas(cells))


def _subdivide(cells: np.ndarray, flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4-way midpoint split; children of cell i occupy rows 4i..4i+3.

    Child k (k < 3) contains parent corner k; child 3 is the middle triangle.
    A singular-corner flag k on the parent passes to child k unchanged.
    """
    v0, v1, v2 = cells[:, 0], cells[:, 1], cells[:, 2]
    m01, m12, m20 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)
    children = np.empty((cells.shape[0], 4, 3, 2))
    children[:, 0] = np.stack([v0, m01, m20], axis=1)
    children[:, 1] = np.stack([m01, v1, m12], axis=1)
    children[:, 2] = np.stack([m20, m12, v2], axis=1)
    children[:, 3] = np.stack([m01, m12, m20], axis=1)
    cflags = np.full((cells.shape[0], 4), -1, dtype=np.int8)
    for k in range(3):
        cflags[flags == k, k] = k
    return children.reshape(-1, 3, 2), cflags.reshape(-1)


def adaptive_triangle(f, tri, rel_tol: float = 1e-10, abs_tol: float = 1e-14,
                      max_depth: int = 40, singular_corner: int | None = None) -> QuadratureResult:
    """Adaptively integrate f over a planar triangle.

    f maps (n, 2) points to (n,) values and may be (weakly) singular at a
    corner flagged via singular_corner (0, 1 or 2); the rule never evaluates
    on the boundary.  Non-integrable integrands come back converged=False.
    """
    verts = triangle_vertices(tri)
    cells = verts[None]
    flags = np.array([-1 if singular_corner is None else int(singular_corner)], dtype=np.int8)
    q = _rule_eval(f, cells)
    evaluations = RULE_POINTS
    total_area = float(_cell_areas(cells)[0])
    if total_area == 0.0:
        return QuadratureResult(0.0, 0.0, evaluations, True)

    value = 0.0
    err = 0.0
    converged = True
    total_est = float(q[0])
    pending_err = 0.0
    eps = np.finfo(float).eps

    for depth in range(max_depth):
        if cells.shape[0] == 0:
            break
        if cells.shape[0] > _MAX_ACTIVE_CELLS:
            converged = False
            break
        children, cflags = _subdivide(cells, flags)
        qc = _rule_eval(f, children)
        evaluations += children.shape[0] * RULE_POINTS
        childsum = qc.reshape(-1, 4).sum(axis=1)
        diff = np.abs(q - childsum)

        scale = abs(total_est) if np.isfinite(total_est) else 0.0
        budget = max(rel_tol * scale, abs_tol)
        areas = _cell_areas(cells)
        tol_cell = budget * areas / total_area
        # floor: never demand better than ~machine precision of the local value
        tol_cell = np.maximum(tol_cell, 30.0 * eps * (np.abs(q) + np.abs(childsum)))
        forced = (flags >= 0) & (depth < _GRADED_LEVELS)
        accept = (diff <= tol_cell) & ~forced & np.isfinite(childsum)

        # area-proportional acceptance starves self-similar corner cells (their
        # per-cell share shrinks like 4^-d but their diff only like 2^-d), so
        # also stop globally once the summed pending diffs fit the budget
        pending_after = float(diff[~accept].sum())
        if not forced.any() and np.isfinite(childsum).all() and pending_after <= budget:
            value += float(childsum.sum())
            err += float(diff.sum())
            cells = cells[:0]
            pending_err = 0.0
            break

        value += float(childsum[accept].sum())
        err += float(diff[accept].sum())

        keep = ~accept
        cells = children.reshape(-1, 4, 3, 2)[keep].reshape(-1, 3, 2)
        flags = cflags.reshape(-1, 4)[keep].reshape(-1)
        q = qc.reshape(-1, 4)[keep].reshape(-1)
        pending_err = pending_after
        total_est = value + float(q.sum())

    if cells.shape[0] > 0:
        converged = False
        value += float(q.sum())
        err += pending_err
    return QuadratureResult(value, err, evaluations, converged)


def adaptive_patch(f, chart, domain, rel_tol: float = 1e-10, abs_tol: float = 1e-14,
                   max_depth: int = 40, singular_corner: int | None = None) -> QuadratureResult:
    """Integrate f(y) over a curved patch given by chart: (n,2) -> (y (n,3), J (n,)).

    J is the area element |dy/ds1 x dy/ds2|; the integral is computed as
    adaptive_triangle of f(chart(s)) * J over the parameter domain.
    """
    def g(pts):
        y, jac = chart(pts)
        return np.asarray(f(y), dtype=float) * np.asarray(jac, dtype=float)

    return adaptive_triangle(g, domain, rel_tol=rel_tol, abs_tol=abs_tol,
                             max_depth=max_depth, singular_corner=singular_corner)


REFERENCE_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def triangle_chart(v0, v1, v2):
    """Affine chart over REFERENCE_TRIANGLE onto the flat 3D triangle (v0,v1,v2)."""
    v0, v1, v2 = (np.asarray(v, dtype=float) for v in (v0, v1, v2))
    jac = float(np.linalg.norm(np.cross(v1 - v0, v2 - v0)))

    def chart(pts):
        u, v = pts[:, 0, None], pts[:, 1, None]
        y = v0 + u * (v1 - v0) + v * (v2 - v0)
        return y, np.full(pts.shape[0], jac)

    return chart


def sphere_patch_chart(v0, v1, v2, radius: float = 1.0, center=None):
    """Radial projection of the flat triangle (v0,v1,v2) onto a sphere.

    Chart over REFERENCE_TRIANGLE: g(u,v) is the affine point, y = center +
    radius * ghat.  The area element is computed from the exact partials
    dy/du = radius (I - ghat ghat^T) g_u / |g|.
    """
    center = np.zeros(3) if center is None else np.asarray(center, dtype=float)
    v0, v1, v2 = (np.asarray(v, dtype=float) - center for v in (v0, v1, v2))

    def chart(pts):
        u, v = pts[:, 0, None], pts[:, 1, None]
        g = v0 + u * (v1 - v0) + v * (v2 - v0)
        norm = np.linalg.norm(g, axis=1, keepdims=True)
        ghat = g / norm
        y = center + radius * ghat
        gu = np.broadcast_to(v1 - v0, g.shape)
        gv = np.broadcast_to(v2 - v0, g.shape)
        yu = radius * (gu - (gu * ghat).sum(1, keepdims=True) * ghat) / norm
        yv = radius * (gv - (gv * ghat).sum(1, keepdims=True) * ghat) / norm
        jac = np.linalg.norm(np.cross(yu, yv), axis=1)
        return y, jac

    return chart


def duffy_integrate(f, tri, corner: int = 0, n: int = 24) -> float:
    """Fixed-order Duffy-transformed quadrature for a corner singularity.

    Maps [0,1]^2 onto the triangle with y = A + u((1-v)(B-A) + v(C-A)), whose
    Jacobian u * 2*Area cancels a 1/r corner singularity at A.  Tensor
    Gauss-Legendre with n x n points; a cross-check instrument, not adaptive.
    """
    verts = triangle_vertices(tri)
    order = np.roll(np.arange(3), -corner)
    a, b, c = verts[order[0]], verts[order[1]], verts[order[2]]
    x, w = roots_legendre(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    wuv = np.outer(wu, wu).ravel()
    pts = a + uu.ravel()[:, None] * ((1.0 - vv.ravel()[:, None]) * (b - a) + vv.ravel()[:, None] * (c - a))
    area2 = abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
    vals = np.asarray(f(pts), dtype=float)
    return float(np.sum(wuv * uu.ravel() * vals) * area2)


def flat_panel_oracle(kernel, verts, x, n=None, p=None, rel_tol=1e-10, abs_tol=1e-14):
    """Adaptive quadrature of K p (kernel "K", target normal n) or G p
    (kernel "G") over a flat 3D triangle; returns (value, converged).

    Parametrizes by barycentric coordinates directly, so it shares no code
    with the normalized-frame pipeline; p (None: the unit density) is
    evaluated through its barycentric form.  The tolerances are
    adaptive_triangle's, on the integral with its 1/(4 pi).
    """
    verts = np.asarray(verts, dtype=float)
    x = np.asarray(x, dtype=float)
    jac = np.linalg.norm(np.cross(verts[1] - verts[0], verts[2] - verts[0]))

    def f(uv):
        lam = np.stack([1.0 - uv[:, 0] - uv[:, 1], uv[:, 0], uv[:, 1]], axis=1)
        y = lam @ verts
        diff = x[None, :] - y
        r = np.linalg.norm(diff, axis=1)
        vals = ((diff @ n) / (4.0 * math.pi * r ** 3) if kernel == "K"
                else -1.0 / (4.0 * math.pi * r))
        if p is not None:
            vals = vals * p.evaluate(lam)
        return vals * jac

    res = adaptive_triangle(f, REFERENCE_TRIANGLE, rel_tol=rel_tol, abs_tol=abs_tol)
    return res.value, res.converged


def sphere_patch_oracle(panel, x, n, p=None, n_duffy=96):
    """K p over the unit-sphere patch above the panel, target x at vertex 1
    with normal n.

    The vertex 1/r singularity is absorbed by a Duffy transform about the
    reference corner, so a fixed tensor rule converges spectrally.  For x
    and y both on the unit sphere, (x - y) . x = |x - y|^2 / 2 exactly, so
    K reduces to 1/(8 pi r); evaluating it that way avoids the cancellation
    that otherwise caps the raw kernel near the target at ~1e-6 relative.
    """
    rot = rotation_to_z(n)
    coeffs = None if p is None else p.monomial_coeffs(((panel.verts - x) @ rot.T)[:, :2])
    chart = sphere_patch_chart(*panel.verts)

    def f(uv):
        y, jac = chart(uv)
        diff = x - y
        r = np.linalg.norm(diff, axis=1)
        vals = 1.0 / (8.0 * math.pi * r)
        if coeffs is not None:
            s = (-diff @ rot.T)[:, :2]
            poly = np.zeros(len(y))
            for (a, b), w in coeffs.items():
                if w != 0.0:
                    poly += w * s[:, 0] ** a * s[:, 1] ** b
            vals = vals * poly
        return vals * jac

    return duffy_integrate(f, REFERENCE_TRIANGLE, corner=0, n=n_duffy)


def smallest_angle_deg(verts) -> float:
    """Smallest interior angle of a 3D triangle, in degrees."""
    v = np.asarray(verts, dtype=float)
    out = math.inf
    for i in range(3):
        a = v[(i + 1) % 3] - v[i]
        b = v[(i + 2) % 3] - v[i]
        cosang = (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        out = min(out, math.degrees(math.acos(max(-1.0, min(1.0, cosang)))))
    return out


def sphere_vertex_panels(rng, diam_range=(1e-3, 1e-1), min_angle=5.0):
    """Random panels on the unit sphere with vertex 1 at a random point x,
    diameter scale log-uniform in diam_range and no angle below min_angle
    degrees; yields (panel, x, smallest angle) without end."""
    lo, hi = (math.log10(d) for d in diam_range)
    while True:
        diam = 10.0 ** rng.uniform(lo, hi)
        base = rng.standard_normal(3)
        base /= np.linalg.norm(base)
        t1, t2 = rotation_to_z(base)[:2]
        while True:
            angs = np.sort(rng.uniform(0.0, 2.0 * math.pi, 2))
            if not 0.4 <= angs[1] - angs[0] <= 2.0 * math.pi - 0.4:
                continue
            verts = [base]
            for ang in angs:
                tang = math.cos(ang) * t1 + math.sin(ang) * t2
                rad = diam * rng.uniform(0.7, 1.0)
                verts.append(math.cos(rad) * base + math.sin(rad) * tang)
            panel = Panel(*verts)
            angle = smallest_angle_deg(panel.verts)
            if angle >= min_angle:
                break
        yield panel, base, angle
