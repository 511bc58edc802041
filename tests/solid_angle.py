"""The 50-digit solid-angle reference, the panels near the pole and the
near-vertex targets that the scalar and batch K tests share, the seeded
planar triangles with grazing origins that the decomposition and
moment-walk tests share, and the closed inside test that the
decomposition tests check against."""

import math

import mpmath
import numpy as np

from tripanel.errors import DegenerateTriangle
from tripanel.geometry import Panel, orient_planar, rotation_to_z


def vos_k_unit_density(verts, x):
    """K against the unit density with n(x) the panel normal, from the Van
    Oosterom-Strackee solid angle (IEEE TBME 30(2), 1983) at 50 digits."""
    with mpmath.workdps(50):
        rel = [mpmath.matrix([mpmath.mpf(float(v)) - mpmath.mpf(float(w))
                              for v, w in zip(vert, x)]) for vert in verts]
        norms = [mpmath.norm(a) for a in rel]

        def dot(a, b):
            return sum(a[i] * b[i] for i in range(3))

        cross = mpmath.matrix([rel[1][1] * rel[2][2] - rel[1][2] * rel[2][1],
                               rel[1][2] * rel[2][0] - rel[1][0] * rel[2][2],
                               rel[1][0] * rel[2][1] - rel[1][1] * rel[2][0]])
        den = (norms[0] * norms[1] * norms[2] + dot(rel[0], rel[1]) * norms[2]
               + dot(rel[0], rel[2]) * norms[1] + dot(rel[1], rel[2]) * norms[0])
        # signed solid angle, the integral of (y - x).n / |y - x|^3; K has x - y
        omega = 2 * mpmath.atan2(dot(rel[0], cross), den)
        return float(-omega / (4 * mpmath.pi))


def pole_panel(rng):
    """A panel of diameter ~1e-2 on the unit sphere near its north pole,
    shifted so the pole is the origin, and its vertices."""
    while True:
        xy = rng.uniform(-0.01, 0.01, size=(3, 2))
        verts = np.column_stack([xy, np.sqrt(1.0 - (xy ** 2).sum(axis=1)) - 1.0])
        try:
            return Panel(*verts), verts
        except DegenerateTriangle:
            continue


def near_vertex_case(rng, k):
    """A pole_panel and a target whose foot lies 1e-12..1e-8 from vertex k,
    1e-9..1e-2 above or below the panel."""
    while True:
        panel, verts = pole_panel(rng)
        t1, t2 = rotation_to_z(panel.normal)[:2]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        offset = 10.0 ** rng.uniform(-12.0, -8.0) * (math.cos(angle) * t1
                                                    + math.sin(angle) * t2)
        height = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -2.0)
        # the feet whose distance to an edge line through the vertex is
        # within 2e-14 of zero or of the vertex distance meet the absolute
        # 1e-14 floors of geometry.roundoff_floor and radial_kernels._CLAMP;
        # test_k_near_vertex_at_the_absolute_floors holds those
        gaps = []
        for j in ((k + 1) % 3, (k + 2) % 3):
            edge = (verts[j] - verts[k]) / np.linalg.norm(verts[j] - verts[k])
            d = np.linalg.norm(np.cross(offset, edge))
            gaps += [d, np.linalg.norm(offset) - d]
        if min(gaps) > 2e-14:
            return panel, verts[k] + offset + height * panel.normal


def grazing_triangle(rng, placement):
    """A seeded planar triangle of diameter ~1e-2..1, oriented, whose origin
    is a generic point in or near it ("generic"), or 1e-14..1e-6 of its
    diameter from an edge line ("edge") or a vertex ("vertex")."""
    while True:
        scale = 10.0 ** rng.uniform(-2.0, 0.0)
        pts = scale * rng.uniform(-1.0, 1.0, size=(3, 2))
        k = rng.integers(3)
        offset = scale * 10.0 ** rng.uniform(-14.0, -6.0)
        if placement == "edge":
            edge = pts[(k + 1) % 3] - pts[k]
            side = np.array([-edge[1], edge[0]]) / np.linalg.norm(edge)
            origin = (pts[k] + rng.uniform(-0.5, 1.5) * edge
                      + rng.choice([-1.0, 1.0]) * offset * side)
        elif placement == "vertex":
            angle = rng.uniform(0.0, 2.0 * math.pi)
            origin = pts[k] + offset * np.array([math.cos(angle), math.sin(angle)])
        else:
            centroid = pts.mean(axis=0)  # inside, or outside up to 2x as far
            origin = centroid + rng.uniform(0.0, 2.0) * (rng.dirichlet(np.ones(3)) @ pts
                                                         - centroid)
        try:
            return orient_planar(*(pts - origin))
        except DegenerateTriangle:
            continue


def point_in_triangle(p, tri, tol=1e-12):
    """Closed inside test of the point p in the PlanarTriangle tri: points
    on the boundary, and up to tol * max(1, |coordinate|)^2 in cross
    product outside an edge line, count as inside."""
    pts = tri.pts
    px, py = float(p[0]), float(p[1])
    scale = max(1.0, *(abs(v) for pt in pts for v in pt))
    lim = -tol * scale * scale
    return all((bx - ax) * (py - ay) - (by - ay) * (px - ax) >= lim
               for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]))
