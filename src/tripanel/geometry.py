"""Panel/target normalization and polar decomposition of planar triangles.

The closed-form panel integrals work in a canonical frame: the triangle lies
in the z=0 plane, the target sits on the z-axis at (0,0,c).  A triangle in
that plane is then decomposed, in polar coordinates about the origin, into
radial slabs bounded by consecutive critical radii; inside a slab the angular
cross-section is either the full circle or a fixed list of arcs whose
endpoint angles follow theta(r) = sign*arccos(d/r) + phi along the edges.
The planar work runs on Python floats, points as (x, y) pairs, and
decompose_polar reads the critical radii and the crossings from one edge
table per triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import DegenerateTriangle

_MERGE_RTOL = 1e-12  # critical radii closer than this times the radius merge
_ROUNDOFF_RTOL = 1e-14


def roundoff_floor(r_max: float) -> float:
    """Lengths at or below this are zero up to roundoff, for a panel whose
    farthest vertex is r_max from the origin: 1e-14 * max(1, r_max)."""
    return _ROUNDOFF_RTOL * max(1.0, r_max)


def _cross2(u, v):
    """z-component of the planar cross product, elementwise over leading
    axes of numpy arrays (the vertex path of qsa)."""
    u, v = u.T, v.T
    return (u[0] * v[1] - u[1] * v[0]).T


class Panel:
    """Flat triangle in 3D with its geometric (right-hand) unit normal."""

    def __init__(self, v1, v2, v3):
        self.verts = np.array([v1, v2, v3], dtype=float)  # (3, 3), rows v1..v3
        self.v1, self.v2, self.v3 = self.verts
        a, b, c = self.verts.tolist()
        ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
        wx, wy, wz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
        cr = (uy * wz - uz * wy, uz * wx - ux * wz, ux * wy - uy * wx)
        nc = math.hypot(*cr)
        scale = max(math.dist(a, b), math.dist(a, c), math.dist(b, c))
        if nc <= 1e-14 * scale * scale:
            raise DegenerateTriangle("panel has (numerically) zero area")
        self.normal = np.array([cr[0] / nc, cr[1] / nc, cr[2] / nc])
        self.area = 0.5 * nc
        self.diameter = scale

    @property
    def centroid(self):
        return self.verts.mean(axis=0)

    def __repr__(self):
        return f"Panel({self.v1.tolist()}, {self.v2.tolist()}, {self.v3.tolist()})"


class Target:
    """Observation point with (optionally) the unit normal attached to it."""

    def __init__(self, x, n=None):
        self.x = np.asarray(x, dtype=float)
        if n is None:
            self.n = None
        else:
            n = np.asarray(n, dtype=float)
            nn = np.linalg.norm(n)
            if not 0.5 < nn < 2.0:
                raise ValueError(f"target normal is far from unit length ({nn:g})")
            self.n = n / nn

    def __repr__(self):
        return f"Target({self.x.tolist()}, n={None if self.n is None else self.n.tolist()})"


def rotation_to_z(n) -> np.ndarray:
    """Rotation matrix mapping the unit vector n onto (0, 0, 1).

    Rodrigues formula about the axis n x e_z; the anti-parallel case is
    handled by composing with a 180-degree flip about the x-axis.
    """
    n = np.asarray(n, dtype=float)
    nz = n[2]
    if nz < 0.0:
        # compose with a half-turn about x: rotation_to_z(-n) sends n to -e_z
        flip = np.diag([1.0, -1.0, -1.0])
        return flip @ rotation_to_z(-n)
    v = np.array([n[1], -n[0], 0.0])  # n x e_z
    k = np.array([[0.0, -v[2], v[1]],
                  [v[2], 0.0, -v[0]],
                  [-v[1], v[0], 0.0]])
    return np.eye(3) + k + (k @ k) / (1.0 + nz)


def orient_planar(p1, p2, p3) -> "PlanarTriangle":
    """Relabel a 2D triangle: positive orientation, first vertex nearest origin.

    Ties on the norm are broken by lowest original index, so the result is
    deterministic for symmetric inputs.
    """
    pts = [(float(p[0]), float(p[1])) for p in (p1, p2, p3)]
    (x0, y0), (x1, y1), (x2, y2) = pts
    cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    scale = max(math.hypot(x1 - x0, y1 - y0), math.hypot(x2 - x0, y2 - y0), 1e-300)
    if abs(cross) <= 1e-14 * scale * scale:
        raise DegenerateTriangle("planar triangle has (numerically) zero area")
    if cross < 0.0:
        pts[1], pts[2] = pts[2], pts[1]
    norms = [math.hypot(x, y) for x, y in pts]
    start = norms.index(min(norms))
    return PlanarTriangle(pts[start:] + pts[:start])


class EdgeActivity(IntEnum):
    INACTIVE = -1
    SPLIT = 0
    ACTIVE = 1


# an edge's activity by the number of its circle crossings
_ACTIVITY = (int(EdgeActivity.INACTIVE), int(EdgeActivity.ACTIVE), int(EdgeActivity.SPLIT))


@dataclass
class EdgeGeometry:
    """Polar data of one directed edge A -> B of a planar triangle.

    d/phi locate the orthogonal projection (the foot) of the origin onto the
    edge line; ori is the sense in which the polar angle grows with the edge
    parameter u (u = 0 at the foot); points on the edge satisfy
    theta = phi + ori*sign(u)*arccos(d/r).
    """
    d: float
    phi: float
    foot_on_edge: bool
    sign_toward_first_vertex: int
    ori: int
    t_foot: float
    norm_a: float
    norm_b: float
    foot: tuple[float, float]


def _edge_geometry_one(a, b) -> EdgeGeometry:
    (ax, ay), (bx, by) = a, b
    ex, ey = bx - ax, by - ay
    l2 = ex * ex + ey * ey
    l = math.sqrt(l2)
    t_f = -(ax * ex + ay * ey) / l2
    norm_a, norm_b = math.hypot(ax, ay), math.hypot(bx, by)
    u_a = -t_f * l
    u_b = (1.0 - t_f) * l
    # the foot is perpendicular to the edge: foot = q * perp(e)/l with
    # q = cross(e, a)/l = cross(e, b)/l, which keeps d and phi stable even
    # when the edge line passes very close to the origin (a + t_f*e would
    # cancel there); the nearer endpoint keeps q's roundoff at eps*|near|
    nx, ny = (ax, ay) if norm_a <= norm_b else (bx, by)
    q = (ex * ny - ey * nx) / l
    d = abs(q)
    foot = (q / l * -ey, q / l * ex)
    if d <= 1e-14 * min(norm_a, norm_b):
        # edge line passes through the origin: the foot angle is undefined,
        # so anchor phi on the farther endpoint T, theta_T = psi_T exactly.
        # The snap is scaled by the nearer endpoint, as q's roundoff is: a
        # line merely close to the origin keeps its d and phi, else the
        # near endpoint's angle would be off by about d / |near|
        d = 0.0
        foot = (0.0, 0.0)
        ori = 1
        if abs(u_a) >= abs(u_b):
            t_pt, u_t = a, u_a
        else:
            t_pt, u_t = b, u_b
        phi = math.atan2(t_pt[1], t_pt[0]) - math.copysign(math.pi / 2.0, u_t)
        if phi <= -math.pi:
            phi += 2.0 * math.pi
        elif phi > math.pi:
            phi -= 2.0 * math.pi
    else:
        s = 1.0 if q > 0 else -1.0
        phi = math.atan2(s * ex, -s * ey)
        ori = 1 if q < 0.0 else -1
    if abs(u_a) > 1e-14 * math.sqrt(l2):
        sign_first = ori * (1 if u_a > 0 else -1)
    else:
        sign_first = -ori * (1 if u_b > 0 else -1)
    return EdgeGeometry(d=d, phi=phi, foot_on_edge=(0.0 <= t_f <= 1.0),
                        sign_toward_first_vertex=sign_first, ori=ori, t_foot=t_f,
                        norm_a=norm_a, norm_b=norm_b, foot=foot)


class PlanarTriangle:
    """Positively oriented 2D triangle with vertex 1 nearest the origin;
    pts are its vertices as (x, y) float pairs, verts as a (3, 2) array."""

    def __init__(self, verts):
        self.pts = tuple((float(x), float(y)) for x, y in verts)
        (x0, y0), (x1, y1), (x2, y2) = self.pts
        self.area = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        if self.area <= 0.0:
            raise DegenerateTriangle("planar triangle must be positively oriented; "
                                     "build it with orient_planar")

    @cached_property
    def verts(self):
        return np.array(self.pts)

    def edges(self):
        """The three directed edges (A, B): vertices 0-1, 1-2 and 2-0."""
        v = self.pts
        return [(v[0], v[1]), (v[1], v[2]), (v[2], v[0])]

    def __repr__(self):
        return f"PlanarTriangle({[list(p) for p in self.pts]})"


def edge_geometry(tri: PlanarTriangle) -> list[EdgeGeometry]:
    return [_edge_geometry_one(a, b) for a, b in tri.edges()]


@dataclass
class NormalizedFrame:
    """Rigid motion y -> rotation @ y + translation placing a panel in z=0
    with the target at (0, 0, c)."""
    rotation: np.ndarray
    translation: np.ndarray
    c: float
    planar_points: tuple           # mapped panel vertices, input order, (x, y) pairs
    planar_triangle: PlanarTriangle
    rotated_target_normal: tuple | None

    def map_point(self, y):
        return self.rotation @ np.asarray(y, dtype=float) + self.translation


def normalize_frame(panel: Panel, target: Target) -> NormalizedFrame:
    """Rotate+translate so the panel lies in z=0 and the target on the z-axis.

    c is the signed height of the target over the panel plane, with the panel
    normal pointing toward positive z.  The planar vertices are rotated from
    v - x, and c is taken at the vertex nearest x, so the offset of a target
    close to a vertex carries its own roundoff, not the roundoff of |v|.
    """
    x, n = target.x.tolist(), panel.normal.tolist()
    verts = panel.verts.tolist()
    rel = [(v[0] - x[0], v[1] - x[1], v[2] - x[2]) for v in verts]
    c = -_dot3(n, min(rel, key=lambda w: _dot3(w, w)))
    rot = rotation_to_z(panel.normal)
    rows = rot.tolist()
    planar = _project(verts, x, rows)
    tn = None if target.n is None else target.n.tolist()
    rn = None if tn is None else (_dot3(rows[0], tn), _dot3(rows[1], tn), _dot3(rows[2], tn))
    return NormalizedFrame(rotation=rot, translation=-rot @ (target.x - c * panel.normal),
                           c=c, planar_points=planar, planar_triangle=orient_planar(*planar),
                           rotated_target_normal=rn)


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _project(verts, origin, rows):
    """(rows[0].(v - origin), rows[1].(v - origin)) for each vertex v, as
    float pairs: the planar vertices in a frame with those first two rows."""
    ox, oy, oz = origin
    e1, e2 = rows[0], rows[1]
    return tuple((_dot3(e1, w), _dot3(e2, w))
                 for w in [(v[0] - ox, v[1] - oy, v[2] - oz) for v in verts])


def point_in_triangle(p, tri, tol: float = 1e-12) -> bool:
    """Closed inside test: points on the boundary count as inside."""
    pts = tri.pts if isinstance(tri, PlanarTriangle) else \
        np.asarray(tri, dtype=float).reshape(3, 2).tolist()
    px, py = float(p[0]), float(p[1])
    scale = max(1.0, *(abs(v) for pt in pts for v in pt))
    lim = -tol * scale * scale
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < lim:
            return False
    return True


def critical_radii(tri: PlanarTriangle) -> list[float]:
    """Sorted distinct radii at which the circle/triangle intersection changes.

    Vertex norms always; an edge's foot distance d only when the foot lies on
    the edge.  A radius r is merged into the last kept one r_prev when
    r - r_prev <= max(1e-12 * r, roundoff_floor(r_max)): the 1e-12 is
    relative to the radius, so 0 and 1e-12 stay two radii on a unit panel,
    and the floor merges radii that are zero up to roundoff.
    """
    return _merged_radii(edge_geometry(tri))


def _merged_radii(egs: list[EdgeGeometry]) -> list[float]:
    """critical_radii from the triangle's edge table."""
    radii = [eg.norm_a for eg in egs]  # edge k starts at vertex k
    radii += [eg.d for eg in egs if eg.foot_on_edge]
    radii.sort()
    floor = roundoff_floor(radii[-1])
    out = [radii[0]]
    for r in radii[1:]:
        if r - out[-1] > max(_MERGE_RTOL * r, floor):
            out.append(r)
    return out


def _acos_ratio(d, r):
    """arccos(d/r) for 0 <= d as atan2(sqrt((r-d)(r+d)), d), 0 once r <= d.

    r - d is exact where r grazes d, so no digits are lost there; the
    rounded ratio d/r would cost half of them.
    """
    return math.atan2(math.sqrt(max((r - d) * (r + d), 0.0)), d)


@dataclass
class AngleBoundary:
    """One angular endpoint of a slab segment: theta(r) = sign*arccos(d/r) + phi."""
    sign: int
    d: float
    phi: float
    edge: int

    def sweep(self, r: float) -> float:
        """theta(r) - phi."""
        return self.sign * _acos_ratio(self.d, r)

    def theta(self, r: float) -> float:
        return self.phi + self.sweep(r)


@dataclass
class Segment:
    """An arc of the circle inside the triangle, from start to end boundary.

    dphi is the branch-corrected phi_end - phi_start, so the angular measure
    at radius r is dphi + sign_e*arccos(d_e/r) - sign_s*arccos(d_s/r), always
    in (0, 2*pi).
    """
    start: AngleBoundary
    end: AngleBoundary
    dphi: float

    def measure(self, r: float) -> float:
        return self.dphi + self.end.sweep(r) - self.start.sweep(r)


@dataclass
class PolarSlab:
    """Radial slab [r_lo, r_hi]; segments is None for the full circle."""
    r_lo: float
    r_hi: float
    segments: list[Segment] | None
    activity: tuple[int, int, int]

    @property
    def full_circle(self) -> bool:
        return self.segments is None

    def angular_measure(self, r: float) -> float:
        if self.segments is None:
            return 2.0 * math.pi
        return sum(seg.measure(r) for seg in self.segments)


@dataclass
class PolarDecomposition:
    slabs: list[PolarSlab]
    triangle: PlanarTriangle = field(repr=False)


def _crossing_sides(eg: EdgeGeometry, r: float) -> list[int]:
    """Which u-sides of the edge the circle of radius r crosses (open tests)."""
    if eg.foot_on_edge:
        sides = []
        if eg.d < r < eg.norm_b:
            sides.append(1)
        if eg.d < r < eg.norm_a:
            sides.append(-1)
        return sides
    lo, hi = min(eg.norm_a, eg.norm_b), max(eg.norm_a, eg.norm_b)
    if lo < r < hi:
        return [1 if eg.t_foot < 0.0 else -1]
    return []


def decompose_polar(tri: PlanarTriangle) -> PolarDecomposition:
    """Split the triangle into radial slabs with constant angular structure.

    Between consecutive critical radii the circle of radius r meets the edges
    in a fixed pattern, classified at the slab midpoint: each crossing on the
    positive-u side of an edge starts an interior arc, each one on the
    negative-u side ends one.  Sorting the crossings by angle and pairing
    start->end yields the segments; no crossings means the circle is entirely
    inside (full-circle slab) or entirely outside (slab dropped).  When the
    origin lies in the closed triangle the first slab opens at r = 0, unless
    the smallest critical radius is already zero up to roundoff_floor.
    """
    egs = edge_geometry(tri)
    bounds = _merged_radii(egs)
    if bounds[0] > roundoff_floor(bounds[-1]) and point_in_triangle((0.0, 0.0), tri):
        bounds.insert(0, 0.0)

    (x0, y0), (x1, y1), (x2, y2) = tri.pts
    cx, cy = (x0 + x1 + x2) / 3.0, (y0 + y1 + y2) / 3.0
    cn = math.hypot(cx, cy)
    ref_x, ref_y = (cx / cn, cy / cn) if cn > 1e-14 else (1.0, 0.0)
    # the boundary of each edge side (u < 0, u > 0), shared by every slab
    sides_of = [(AngleBoundary(-eg.ori, eg.d, eg.phi, k), AngleBoundary(eg.ori, eg.d, eg.phi, k))
                for k, eg in enumerate(egs)]

    slabs = []
    for r_lo, r_hi in zip(bounds[:-1], bounds[1:]):
        r_mid = 0.5 * (r_lo + r_hi)
        boundaries = []  # (theta_mid_raw, is_start, AngleBoundary)
        activity = []
        for eg, side_bnds in zip(egs, sides_of):
            sides = _crossing_sides(eg, r_mid)
            activity.append(_ACTIVITY[len(sides)])
            for s in sides:
                ab = side_bnds[s > 0]
                boundaries.append((ab.theta(r_mid), s > 0, ab))
        activity = tuple(activity)

        if not boundaries:
            if point_in_triangle((r_mid * ref_x, r_mid * ref_y), tri, tol=0.0):
                slabs.append(PolarSlab(r_lo, r_hi, None, activity))
            continue

        if len(boundaries) % 2:
            raise DegenerateTriangle(
                f"odd number of circle/edge crossings in slab [{r_lo:g}, {r_hi:g}]; "
                "the triangle is tangent to a critical circle inside a slab")
        boundaries.sort(key=lambda b: b[0] % (2.0 * math.pi))
        if not boundaries[0][1]:  # first sorted boundary ends an arc: rotate
            boundaries = boundaries[-1:] + boundaries[:-1]
        segments = []
        two_pi = 2.0 * math.pi
        for i in range(0, len(boundaries), 2):
            th_s, is_start, bs = boundaries[i]
            th_e, is_end_start, be = boundaries[i + 1]
            if not is_start or is_end_start:
                raise DegenerateTriangle(
                    f"crossings do not alternate start/end in slab [{r_lo:g}, {r_hi:g}]")
            dphi = (be.phi - bs.phi) - two_pi * math.floor((th_e - th_s) / two_pi)
            segments.append(Segment(start=bs, end=be, dphi=dphi))
        slabs.append(PolarSlab(r_lo, r_hi, segments, activity))
    return PolarDecomposition(slabs=slabs, triangle=tri)
