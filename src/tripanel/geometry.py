"""Panel/target normalization and polar decomposition of planar triangles.

The closed-form panel integrals work in a canonical frame: the triangle lies
in the z=0 plane, the target sits on the z-axis at (0,0,c).  A triangle in
that plane is then decomposed, in polar coordinates about the origin, into
radial slabs bounded by consecutive critical radii; inside a slab the angular
cross-section is either the full circle or a fixed list of arcs whose
endpoint angles follow theta(r) = sign*arccos(d/r) + phi along the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import DegenerateTriangle

_MERGE_RTOL = 1e-12  # radii closer than this (times scale) are merged


def _cross2(u, v):
    """z-component of the planar cross product, elementwise over leading axes.

    Indexing the transposes keeps single 2-vectors on numpy's scalar
    arithmetic (u[..., 0] would make 0-d arrays, several times slower).
    """
    u, v = u.T, v.T
    return (u[0] * v[1] - u[1] * v[0]).T


class Panel:
    """Flat triangle in 3D with its geometric (right-hand) unit normal."""

    def __init__(self, v1, v2, v3):
        self.v1 = np.asarray(v1, dtype=float)
        self.v2 = np.asarray(v2, dtype=float)
        self.v3 = np.asarray(v3, dtype=float)
        cr = np.cross(self.v2 - self.v1, self.v3 - self.v1)
        nc = np.linalg.norm(cr)
        scale = max(np.linalg.norm(self.v2 - self.v1),
                    np.linalg.norm(self.v3 - self.v1),
                    np.linalg.norm(self.v3 - self.v2))
        if nc <= 1e-14 * scale * scale:
            raise DegenerateTriangle("panel has (numerically) zero area")
        self.normal = cr / nc
        self.area = 0.5 * nc
        self.centroid = (self.v1 + self.v2 + self.v3) / 3.0
        self.diameter = scale

    @property
    def verts(self):
        return np.stack([self.v1, self.v2, self.v3])

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
    pts = [np.asarray(p, dtype=float) for p in (p1, p2, p3)]
    cross = float(_cross2(pts[1] - pts[0], pts[2] - pts[0]))
    scale = max(np.linalg.norm(pts[1] - pts[0]), np.linalg.norm(pts[2] - pts[0]), 1e-300)
    if abs(cross) <= 1e-14 * scale * scale:
        raise DegenerateTriangle("planar triangle has (numerically) zero area")
    if cross < 0.0:
        pts[1], pts[2] = pts[2], pts[1]
    start = min(range(3), key=lambda i: (np.linalg.norm(pts[i]), i))
    pts = pts[start:] + pts[:start]
    return PlanarTriangle(np.stack(pts))


class EdgeActivity(IntEnum):
    INACTIVE = -1
    SPLIT = 0
    ACTIVE = 1


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
    foot: np.ndarray


def _edge_geometry_one(a, b) -> EdgeGeometry:
    e = b - a
    l2 = float(e @ e)
    l = math.sqrt(l2)
    t_f = -float(a @ e) / l2
    norm_a, norm_b = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    u_a = -t_f * l
    u_b = (1.0 - t_f) * l
    # the foot is perpendicular to the edge: foot = q * perp(e)/l with
    # q = cross(e, a)/l, which keeps d and phi stable even when the edge
    # line passes very close to the origin (a + t_f*e would cancel there)
    q = float(_cross2(e, a)) / l
    d = abs(q)
    foot = (q / l) * np.array([-e[1], e[0]])
    if d <= 1e-14 * max(norm_a, norm_b):
        # edge line passes through the origin: the foot angle is undefined,
        # so anchor phi on the farther endpoint T, theta_T = psi_T exactly
        d = 0.0
        foot = np.zeros(2)
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
        phi = math.atan2(s * e[0], -s * e[1])
        ori = 1 if q < 0.0 else -1
    if abs(u_a) > 1e-14 * math.sqrt(l2):
        sign_first = ori * (1 if u_a > 0 else -1)
    else:
        sign_first = -ori * (1 if u_b > 0 else -1)
    return EdgeGeometry(d=d, phi=phi, foot_on_edge=(0.0 <= t_f <= 1.0),
                        sign_toward_first_vertex=sign_first, ori=ori, t_foot=t_f,
                        norm_a=norm_a, norm_b=norm_b, foot=foot)


class PlanarTriangle:
    """Positively oriented 2D triangle with vertex 1 nearest the origin."""

    def __init__(self, verts):
        self.verts = np.asarray(verts, dtype=float).reshape(3, 2)
        e1 = self.verts[1] - self.verts[0]
        e2 = self.verts[2] - self.verts[0]
        self.area = 0.5 * float(_cross2(e1, e2))
        if self.area <= 0.0:
            raise DegenerateTriangle("planar triangle must be positively oriented; "
                                     "build it with orient_planar")
        self.diameter = max(np.linalg.norm(self.verts[i] - self.verts[j])
                            for i, j in ((0, 1), (1, 2), (2, 0)))

    @property
    def p1(self):
        return self.verts[0]

    @property
    def p2(self):
        return self.verts[1]

    @property
    def p3(self):
        return self.verts[2]

    def edges(self):
        """The three directed edges (A, B) in order p1p2, p2p3, p3p1."""
        v = self.verts
        return [(v[0], v[1]), (v[1], v[2]), (v[2], v[0])]

    def __repr__(self):
        return f"PlanarTriangle({self.verts.tolist()})"


def edge_geometry(tri: PlanarTriangle) -> list[EdgeGeometry]:
    return [_edge_geometry_one(a, b) for a, b in tri.edges()]


@dataclass
class NormalizedFrame:
    """Rigid motion y -> rotation @ y + translation placing a panel in z=0
    with the target at (0, 0, c)."""
    rotation: np.ndarray
    translation: np.ndarray
    c: float
    planar_points: np.ndarray      # mapped panel vertices, input order, (3, 2)
    planar_triangle: PlanarTriangle
    rotated_target_normal: np.ndarray | None

    def map_point(self, y):
        return self.rotation @ np.asarray(y, dtype=float) + self.translation


def normalize_frame(panel: Panel, target: Target) -> NormalizedFrame:
    """Rotate+translate so the panel lies in z=0 and the target on the z-axis.

    c is the signed height of the target over the panel plane, with the panel
    normal pointing toward positive z.
    """
    x = target.x
    n = panel.normal
    c = float(n @ (x - panel.v1))
    foot = x - c * n
    rot = rotation_to_z(n)
    trans = -rot @ foot
    mapped = (panel.verts @ rot.T) + trans
    planar = mapped[:, :2].copy()
    tri = orient_planar(planar[0], planar[1], planar[2])
    rn = None if target.n is None else rot @ target.n
    return NormalizedFrame(rotation=rot, translation=trans, c=c,
                           planar_points=planar, planar_triangle=tri,
                           rotated_target_normal=rn)


def point_in_triangle(p, tri, tol: float = 1e-12) -> bool:
    """Closed inside test: points on the boundary count as inside."""
    verts = tri.verts if isinstance(tri, PlanarTriangle) else np.asarray(tri, dtype=float)
    p = np.asarray(p, dtype=float)
    scale = max(float(np.max(np.abs(verts))), 1.0)
    for i in range(3):
        a, b = verts[i], verts[(i + 1) % 3]
        if float(_cross2(b - a, p - a)) < -tol * scale * scale:
            return False
    return True


def critical_radii(tri: PlanarTriangle) -> list[float]:
    """Sorted distinct radii at which the circle/triangle intersection changes.

    Vertex norms always; an edge's foot distance d only when the foot lies on
    the edge.  Radii closer than 1e-12 (relative) are merged.
    """
    radii = [float(np.linalg.norm(v)) for v in tri.verts]
    for eg in edge_geometry(tri):
        if eg.foot_on_edge:
            radii.append(eg.d)
    radii.sort()
    atol = _MERGE_RTOL * max(1.0, radii[-1])
    out = [radii[0]]
    for r in radii[1:]:
        if r - out[-1] > atol:
            out.append(r)
    return out


@dataclass
class AngleBoundary:
    """One angular endpoint of a slab segment: theta(r) = sign*arccos(d/r) + phi."""
    sign: int
    d: float
    phi: float
    edge: int

    def theta(self, r: float) -> float:
        return self.phi + self.sign * math.acos(min(1.0, self.d / r))


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
        return (self.dphi + self.end.sign * math.acos(min(1.0, self.end.d / r))
                - self.start.sign * math.acos(min(1.0, self.start.d / r)))


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
    inside (full-circle slab) or entirely outside (slab dropped).
    """
    egs = edge_geometry(tri)
    radii = critical_radii(tri)
    scale = max(1.0, radii[-1])
    bounds = list(radii)
    if point_in_triangle(np.zeros(2), tri) and bounds[0] > _MERGE_RTOL * scale:
        bounds.insert(0, 0.0)

    centroid = tri.verts.mean(axis=0)
    ref_dir = centroid / np.linalg.norm(centroid) if np.linalg.norm(centroid) > 1e-14 \
        else np.array([1.0, 0.0])

    slabs = []
    for r_lo, r_hi in zip(bounds[:-1], bounds[1:]):
        r_mid = 0.5 * (r_lo + r_hi)
        boundaries = []  # (theta_mid_raw, is_start, AngleBoundary)
        activity = []
        for k, eg in enumerate(egs):
            sides = _crossing_sides(eg, r_mid)
            activity.append(EdgeActivity.SPLIT if len(sides) == 2
                            else EdgeActivity.ACTIVE if len(sides) == 1
                            else EdgeActivity.INACTIVE)
            for s in sides:
                ab = AngleBoundary(sign=eg.ori * s, d=eg.d, phi=eg.phi, edge=k)
                boundaries.append((ab.theta(r_mid), s > 0, ab))
        activity = tuple(int(a) for a in activity)

        if not boundaries:
            probe = r_mid * ref_dir
            if point_in_triangle(probe, tri, tol=0.0):
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
