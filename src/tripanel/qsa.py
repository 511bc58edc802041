"""Quadratic surface approximation for strongly singular K-integrals.

A flat panel misrepresents (x - y).n(x) when the target x sits on the
surface: on the panel the dot product is either identically zero or O(1)
instead of the O(|x - y|^2) the curved surface provides.  Replacing the
surface locally by its osculating quadratic graph f = 1/2 sum K_ij s_i s_j
(K the second fundamental form in the integration basis) fixes the
numerator and leaves integrals that are closed-form over the projected
triangle, with O(eps^2) error in the patch radius eps.

Three entry points: the general on-surface case, a faster single-segment
path when the target is a panel vertex, and the off-surface case with the
target at signed height c above the foot point.
"""

import math

import numpy as np

from .errors import ConvergenceFailure, DegenerateTriangle, DivergentIntegral
from .geometry import Panel, decompose_polar, orient_planar, rotation_to_z
from .panel_integrals import FOUR_PI, PanelPolynomial, compute_k_moments
from .curvature import FundamentalForm, estimate_fundamental_form, estimate_normals

_VERTEX_TOL = 1e-12


def _require_linear(p: PanelPolynomial) -> PanelPolynomial:
    if p.degree > 1:
        raise ValueError("quadratic-surface paths support polynomial degree <= 1")
    return p


def _curvature_coeffs(kmat, poly_coeffs, scale=1.0) -> dict:
    """Monomial weights of scale * (-1/2 sum K_ij s_i s_j) * p(s1, s2)."""
    coef: dict = {}
    for (a, b), q in poly_coeffs.items():
        if q == 0.0:
            continue
        for key, w in (((a + 2, b), -0.5 * kmat[0, 0] * q),
                       ((a + 1, b + 1), -kmat[0, 1] * q),
                       ((a, b + 2), -0.5 * kmat[1, 1] * q)):
            if w != 0.0:
                coef[key] = coef.get(key, 0.0) + scale * w
    return coef


def qsa_on_boundary(panel: Panel, target, form: FundamentalForm,
                    p: PanelPolynomial | None = None,
                    use_vertex_path: bool = True) -> float:
    """Integral of K(x, y) p(y) over the curved patch above a panel,
    for a target x on the surface with outward normal target.n.

    Approximates the surface by its osculating quadratic at x, integrates
    (1/4 pi) (-1/2 sum K_ij s_i s_j) p / r^3 in closed form over the
    projected triangle.  Routes to the single-segment vertex path when the
    target coincides with a panel vertex.
    """
    p = _require_linear(p if p is not None else PanelPolynomial.constant(1.0))
    if target.n is None:
        raise ValueError("on-surface integration needs the outward normal at x")
    if use_vertex_path:
        tol = _VERTEX_TOL * max(panel.diameter, 1e-300)
        dist = np.linalg.norm(panel.verts - np.asarray(target.x, dtype=float), axis=1)
        k = int(np.argmin(dist))
        if dist[k] <= tol:
            rolled_panel, rolled_p = _rolled(panel, p, k)
            return qsa_vertex(rolled_panel, target, form, rolled_p)
    rot = rotation_to_z(np.asarray(target.n, dtype=float))
    proj = (panel.verts - np.asarray(target.x, dtype=float)) @ rot.T
    proj = proj[:, :2]
    tri = orient_planar(proj[0], proj[1], proj[2])
    dec = decompose_polar(tri)
    kmat = form.express_in(rot[:2]).matrix
    coef = _curvature_coeffs(kmat, p.monomial_coeffs(proj))
    if not coef:
        return 0.0
    m = compute_k_moments(dec, 0.0, max_degree=max(a + b for a, b in coef),
                          min_degree=2)
    return sum(w * m.k_moment(a, b) for (a, b), w in coef.items()) / FOUR_PI


def _rolled(panel: Panel, p: PanelPolynomial, k: int):
    """Cyclically relabel vertices so vertex k comes first."""
    if k == 0:
        return panel, p
    order = [(k + i) % 3 for i in range(3)]
    return (Panel(*panel.verts[order]),
            PanelPolynomial(p.form[np.ix_(order, order)], degree=p.degree))


def angular_primitive(a: int, b: int, theta: float, theta2: float) -> float:
    """Antiderivative of cos^a(t) sin^b(t) / sin^(a+b-1)(t + theta2) at t = theta.

    The seven (a, b) pairs cover quadratic-times-linear numerators; theta2
    is the triangle's angle at the second vertex, in (0, pi).
    """
    s2, c2 = math.sin(theta2), math.cos(theta2)
    if a + b == 2:
        lt = math.log(math.tan(0.5 * (theta + theta2)))
        if (a, b) == (1, 1):
            return math.sin(theta - theta2) - 0.5 * math.sin(2.0 * theta2) * lt
        if (a, b) == (2, 0):
            return math.cos(theta - theta2) + c2 * c2 * lt
        if (a, b) == (0, 2):
            return -math.cos(theta - theta2) + s2 * s2 * lt
    elif a + b == 3:
        at = math.atanh(c2 - s2 * math.tan(0.5 * theta))
        csc = 1.0 / math.sin(theta + theta2)
        if (a, b) == (2, 1):
            return 0.25 * (-2.0 * (c2 + 3.0 * math.cos(3.0 * theta2)) * at
                           + csc * (2.0 * math.sin(2.0 * theta - theta2)
                                    + s2 + 3.0 * math.sin(3.0 * theta2)))
        if (a, b) == (1, 2):
            return 0.25 * (-2.0 * (s2 - 3.0 * math.sin(3.0 * theta2)) * at
                           - csc * (2.0 * math.cos(2.0 * theta - theta2)
                                    + c2 - 3.0 * math.cos(3.0 * theta2)))
        if (a, b) == (3, 0):
            return (-math.sin(theta - 2.0 * theta2)
                    - 6.0 * c2 * c2 * s2 * at - c2 ** 3 * csc)
        if (a, b) == (0, 3):
            return (-math.cos(theta - 2.0 * theta2)
                    - 6.0 * c2 * s2 * s2 * at + s2 ** 3 * csc)
    raise ValueError(f"no angular primitive for (a, b) = ({a}, {b})")


def qsa_vertex(panel: Panel, target, form: FundamentalForm,
               p: PanelPolynomial | None = None) -> float:
    """On-surface integral with the target at the panel's first vertex.

    An extra in-plane rotation puts the projected second vertex on the
    positive s1-axis, making theta a single segment [0, theta_end] with
    r(theta) = |pV2| sin(theta2) / sin(theta + theta2) closed-form.
    """
    p = _require_linear(p if p is not None else PanelPolynomial.constant(1.0))
    if target.n is None:
        raise ValueError("on-surface integration needs the outward normal at x")
    x = np.asarray(target.x, dtype=float)
    if np.linalg.norm(panel.verts[0] - x) > _VERTEX_TOL * max(panel.diameter, 1e-300):
        raise ValueError("vertex path requires the target at the first vertex")
    rot = rotation_to_z(np.asarray(target.n, dtype=float))
    proj = ((panel.verts - x) @ rot.T)[:, :2]
    p2, p3 = proj[1], proj[2]
    len2 = math.hypot(p2[0], p2[1])
    if len2 == 0.0:
        raise DegenerateTriangle("projected second vertex coincides with the target")
    # rotate pV2 onto the positive s1-axis; mirror if pV3 lands below it
    ca, sa = p2[0] / len2, p2[1] / len2
    spin = np.array([[ca, sa], [-sa, ca]])
    q2 = spin @ p2
    q3 = spin @ p3
    flip = q3[1] < 0.0
    if flip:
        q3 = q3 * np.array([1.0, -1.0])
    theta_end = math.atan2(q3[1], q3[0])
    if theta_end == 0.0:
        return 0.0  # zero-length angular interval
    if theta_end < 0.0 or theta_end >= math.pi:
        raise DegenerateTriangle("projected triangle has no interior angle at the target")
    edge = q3 - q2
    theta2 = math.atan2(abs(q2[0] * edge[1] - q2[1] * edge[0]),
                        -(q2 @ edge))
    if theta2 <= 0.0 or theta2 >= math.pi or math.sin(theta2) == 0.0:
        raise DegenerateTriangle("projected triangle is degenerate at the second vertex")
    # numerator coefficients in the spun (and possibly mirrored) coordinates
    qpts = proj @ spin.T
    if flip:
        qpts = qpts * np.array([1.0, -1.0])
    basis = np.array([ca * rot[0] + sa * rot[1], -sa * rot[0] + ca * rot[1]])
    if flip:
        basis = basis * np.array([[1.0], [-1.0]])
    kmat = form.express_in(basis).matrix
    coef = _curvature_coeffs(kmat, p.monomial_coeffs(qpts))
    total = 0.0
    scale = len2 * math.sin(theta2)
    for (a, b), w in coef.items():
        if w == 0.0:
            continue
        prim = (angular_primitive(a, b, theta_end, theta2)
                - angular_primitive(a, b, 0.0, theta2))
        total += w * scale ** (a + b - 1) / (a + b - 1) * prim
    return total / FOUR_PI


def qsa_off_boundary(panel: Panel, target, form: FundamentalForm, c: float,
                     p: PanelPolynomial | None = None) -> float:
    """Integral of K(x, y) p(y) over the curved patch for an off-surface x.

    form is the second fundamental form at the foot of x on the surface,
    expressed in an orthonormal tangent basis; c is the signed height of
    x above the foot along that basis's normal.  The numerator becomes
    [-s1, -s2, c - 1/2 sum K_ij s_i s_j].n(x) over the projected triangle.
    """
    p = _require_linear(p if p is not None else PanelPolynomial.constant(1.0))
    if target.n is None:
        raise ValueError("K-kernel integration needs a target normal")
    if c == 0.0:
        raise DivergentIntegral("target on the surface: use the on-boundary path")
    b1, b2 = np.asarray(form.basis, dtype=float)
    normal = np.cross(b1, b2)
    rot = np.array([b1, b2, normal / np.linalg.norm(normal)])
    foot = np.asarray(target.x, dtype=float) - c * rot[2]
    proj = ((panel.verts - foot) @ rot.T)[:, :2]
    tri = orient_planar(proj[0], proj[1], proj[2])
    dec = decompose_polar(tri)
    nu = rot @ np.asarray(target.n, dtype=float)
    poly_coeffs = p.monomial_coeffs(proj)
    coef = _curvature_coeffs(form.matrix, poly_coeffs, scale=nu[2])
    for (a, b), q in poly_coeffs.items():
        if q == 0.0:
            continue
        for key, w in (((a, b), c * nu[2] * q),
                       ((a + 1, b), -nu[0] * q),
                       ((a, b + 1), -nu[1] * q)):
            if w != 0.0:
                coef[key] = coef.get(key, 0.0) + w
    if not coef:
        return 0.0
    m = compute_k_moments(dec, c, max_degree=max(a + b for a, b in coef))
    return sum(w * m.k_moment(a, b) for (a, b), w in coef.items()) / FOUR_PI


def foot_point(surface, x):
    """Project x onto a surface; returns (foot, signed height c).

    surface is either an SdfProbe (Newton along the gradient) or a
    SurfaceMesh (nearest panel point refined on the local quadratic fit).
    """
    x = np.asarray(x, dtype=float)
    if hasattr(surface, "gradient"):
        y = x.copy()
        for _ in range(50):
            f = surface.value(y)
            if abs(f) < 1e-12:
                g = np.asarray(surface.gradient(y), dtype=float)
                return y, float((x - y) @ (g / np.linalg.norm(g)))
            g = np.asarray(surface.gradient(y), dtype=float)
            y = y - f * g / (g @ g)
        raise ConvergenceFailure("projection onto the level set did not converge")
    return _mesh_foot(surface, x)


def _closest_on_triangles(nodes, triangles, x):
    """Closest point to x on each triangle (vectorized clamp)."""
    a = nodes[triangles[:, 0]]
    ab = nodes[triangles[:, 1]] - a
    ac = nodes[triangles[:, 2]] - a
    ap = x - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    d11 = np.einsum("ij,ij->i", ab, ab)
    d22 = np.einsum("ij,ij->i", ac, ac)
    d12 = np.einsum("ij,ij->i", ab, ac)
    det = d11 * d22 - d12 * d12
    v = np.clip((d22 * d1 - d12 * d2) / det, 0.0, 1.0)
    w = np.clip((d11 * d2 - d12 * d1) / det, 0.0, 1.0)
    over = v + w > 1.0
    if np.any(over):
        s = (v + w)[over]
        v[over] /= s
        w[over] /= s
    cand = a + v[:, None] * ab + w[:, None] * ac
    # clamp to each edge as well; keep the best per triangle
    best = cand
    dist = np.linalg.norm(x - cand, axis=1)
    for p0, e in ((a, ab), (a, ac), (a + ab, ac - ab)):
        t = np.clip(np.einsum("ij,ij->i", x - p0, e) / np.einsum("ij,ij->i", e, e),
                    0.0, 1.0)
        pt = p0 + t[:, None] * e
        d = np.linalg.norm(x - pt, axis=1)
        closer = d < dist
        best = np.where(closer[:, None], pt, best)
        dist = np.where(closer, d, dist)
    return best, dist


def _mesh_foot(mesh, x):
    best, dist = _closest_on_triangles(mesh.nodes, mesh.triangles, x)
    t = int(np.argmin(dist))
    anchor = best[t]
    node = int(mesh.triangles[t][np.argmin(
        np.linalg.norm(mesh.nodes[mesh.triangles[t]] - anchor, axis=1))])
    normals = estimate_normals(mesh)
    form = estimate_fundamental_form(mesh, node, node_normals=normals)
    # refine on the local quadratic graph h = 1/2 (s, K s) + linear terms
    # dropped: the graph through the node with the fitted curvature
    rot = np.vstack([form.basis, np.cross(form.basis[0], form.basis[1])])
    xr = rot @ (x - mesh.nodes[node])
    s = xr[:2].copy()
    kmat = form.matrix
    for _ in range(50):
        h = 0.5 * s @ kmat @ s
        grad = kmat @ s
        # minimize |(s, h(s)) - xr|^2 by Gauss-Newton on the graph
        res = np.array([s[0] - xr[0], s[1] - xr[1]]) + (h - xr[2]) * grad
        jac = np.eye(2) + np.outer(grad, grad)
        step = np.linalg.solve(jac, res)
        s = s - step
        if np.linalg.norm(step) < 1e-12 * max(1.0, np.linalg.norm(xr)):
            break
    h = 0.5 * s @ kmat @ s
    foot = mesh.nodes[node] + rot.T @ np.array([s[0], s[1], h])
    n = rot.T @ np.array([-kmat[0, 0] * s[0] - kmat[0, 1] * s[1],
                          -kmat[0, 1] * s[0] - kmat[1, 1] * s[1], 1.0])
    n /= np.linalg.norm(n)
    return foot, float((x - foot) @ n)
