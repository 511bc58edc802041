"""Panel/target normalization and polar decomposition of planar triangles.

The closed-form panel integrals work in a canonical frame: the triangle lies
in the z=0 plane, the target sits on the z-axis at (0,0,c).  A triangle in
that plane is then decomposed, in polar coordinates about the origin, into
radial slabs bounded by consecutive critical radii.  Circles cross each side
of an edge over one interval of r, where the crossing angle follows
theta(r) = sign*arccos(d/r) + phi; a slab holds its total angle and the
sides it crosses, and each side's run over consecutive slabs is listed once.
The planar work runs on Python floats, points as (x, y) pairs, and
decompose_polar reads the critical radii, the runs and the origin's side of
every edge line (its inside test) from one edge table per triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        for k, v in enumerate(a + b + c):
            if not math.isfinite(v):
                raise DegenerateTriangle(
                    f"panel vertex {k // 3 + 1} has a non-finite coordinate {k % 3}: {v!r}")
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
        for k, v in enumerate(self.x.ravel().tolist()):
            if not math.isfinite(v):
                raise ValueError(f"target has a non-finite coordinate {k}: {v!r}")
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

    Rodrigues formula about the axis n x e_z, on Python floats; the
    anti-parallel case is handled by composing with a 180-degree flip
    about the x-axis.
    """
    return np.array(_rotation_rows(n))


def _rotation_rows(n) -> list:
    """rotation_to_z(n) as three rows of floats.  The entries that can be
    zero are formed as 0.0 - v or v + 0.0, so every zero is signed +."""
    nx, ny, nz = map(float, n)
    flip = nz < 0.0
    if flip:  # a half-turn about x after rotation_to_z(-n) sends n to -e_z
        nx, ny, nz = -nx, -ny, -nz
    w = 1.0 + nz
    xy = 0.0 - nx * ny / w
    rows = [[1.0 - nx * nx / w, xy, 0.0 - nx],
            [xy, 1.0 - ny * ny / w, 0.0 - ny],
            [nx + 0.0, ny + 0.0, 1.0 - (nx * nx + ny * ny) / w]]
    if flip:
        rows[1:] = [[0.0 - v for v in row] for row in rows[1:]]
    return rows


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


# an edge's activity by its number of circle crossings: inactive, active, split
_ACTIVITY = (-1, 1, 0)


@dataclass(slots=True)
class EdgeGeometry:
    """Polar data of one directed edge A -> B of a planar triangle.

    The foot of the origin on the edge line is d*(cos phi, sin phi), at
    t = t_foot on A + t*(B - A); ori is the sense in which the polar angle
    grows with the edge parameter u = (t - t_foot)*|B - A|; points on the
    edge satisfy theta = phi + ori*sign(u)*arccos(d/r).
    """
    d: float
    phi: float
    foot_on_edge: bool
    ori: int
    t_foot: float
    norm_a: float
    norm_b: float


def _edge_geometry_one(a, b) -> EdgeGeometry:
    (ax, ay), (bx, by) = a, b
    ex, ey = bx - ax, by - ay
    l2 = ex * ex + ey * ey
    l = math.sqrt(l2)
    t_f = -(ax * ex + ay * ey) / l2
    norm_a, norm_b = math.hypot(ax, ay), math.hypot(bx, by)
    # the foot is perpendicular to the edge: foot = q * perp(e)/l with
    # q = cross(e, a)/l = cross(e, b)/l, which keeps d and phi stable even
    # when the edge line passes very close to the origin (a + t_f*e would
    # cancel there); the nearer endpoint keeps q's roundoff at eps*|near|
    nx, ny = (ax, ay) if norm_a <= norm_b else (bx, by)
    q = (ex * ny - ey * nx) / l
    d = abs(q)
    if d <= 1e-14 * min(norm_a, norm_b):
        # edge line passes through the origin: the foot angle is undefined,
        # so anchor phi on the farther endpoint T, theta_T = psi_T exactly.
        # The snap is scaled by the nearer endpoint, as q's roundoff is: a
        # line merely close to the origin keeps its d and phi, else the
        # near endpoint's angle would be off by about d / |near|
        d = 0.0
        ori = 1
        u_a, u_b = -t_f * l, (1.0 - t_f) * l
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
    return EdgeGeometry(d=d, phi=phi, foot_on_edge=(0.0 <= t_f <= 1.0),
                        ori=ori, t_foot=t_f, norm_a=norm_a, norm_b=norm_b)


class PlanarTriangle:
    """Positively oriented 2D triangle with vertex 1 nearest the origin, as
    orient_planar, its one constructor, makes it from its vertices pts as
    (x, y) float pairs; verts is them as a (3, 2) array."""

    def __init__(self, pts):
        self.pts = (x0, y0), (x1, y1), (x2, y2) = tuple(pts)
        self.area = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))

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


@dataclass(slots=True)
class NormalizedFrame:
    """A panel and target in the frame that rotates the panel normal onto
    +z (rotation_to_z) and puts the target at (0, 0, c): the panel's
    planar vertices and the target normal in that frame."""
    c: float
    planar_points: tuple           # mapped panel vertices, input order, (x, y) pairs
    rotated_target_normal: tuple | None


def normalize_frame(panel: Panel, target: Target) -> NormalizedFrame:
    """Rotate+translate so the panel lies in z=0 and the target on the z-axis.

    c is the signed height of the target over the panel plane, with the panel
    normal pointing toward positive z.  The planar vertices are rotated from
    v - x, and c is taken at the vertex nearest x, so the offset of a target
    close to a vertex carries its own roundoff, not the roundoff of |v|.
    """
    (ox, oy, oz), n = target.x.tolist(), panel.normal.tolist()
    rel = [(v[0] - ox, v[1] - oy, v[2] - oz) for v in panel.verts.tolist()]
    c = -_dot3(n, min(rel, key=lambda w: w[0] * w[0] + w[1] * w[1] + w[2] * w[2]))
    e1, e2, e3 = _rotation_rows(n)
    planar = tuple((_dot3(e1, w), _dot3(e2, w)) for w in rel)
    tn = None if target.n is None else target.n.tolist()
    rn = None if tn is None else (_dot3(e1, tn), _dot3(e2, tn), _dot3(e3, tn))
    return NormalizedFrame(c=c, planar_points=planar, rotated_target_normal=rn)


def _dot3(u, v):
    """u[0] v[0] + u[1] v[1] + u[2] v[2] of two triples."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _project(verts, origin, rows):
    """(rows[0].(v - origin), rows[1].(v - origin)) for each vertex v, as
    float pairs: the planar vertices in a frame with those first two rows."""
    ox, oy, oz = origin
    e1, e2 = rows[0], rows[1]
    return tuple((_dot3(e1, w), _dot3(e2, w))
                 for w in [(v[0] - ox, v[1] - oy, v[2] - oz) for v in verts])


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


@dataclass(slots=True)
class AngleBoundary:
    """The angle at which circles cross one side of edge `edge` (0-2, as
    PlanarTriangle.edges numbers them): theta(r) = sign*arccos(d/r) + phi."""
    sign: int
    d: float
    phi: float
    edge: int

    def sweep(self, r: float) -> float:
        """theta(r) - phi."""
        return self.sign * _acos_ratio(self.d, r)


@dataclass(slots=True)
class PolarSlab:
    """Radial slab [r_lo, r_hi] and the edge sides its circles cross, as
    (sigma, AngleBoundary): sigma is +1 where a side ends an arc of the
    circle inside the triangle and -1 where it starts one.  dphi is the
    slab's total, so the arcs at radius r measure dphi + sum of
    sigma*sweep(r); a full circle has no sides and dphi = 2*pi.
    """
    r_lo: float
    r_hi: float
    dphi: float
    sides: list[tuple[int, AngleBoundary]]

    @property
    def full_circle(self) -> bool:
        return not self.sides

    @property
    def activity(self) -> tuple[int, int, int]:
        """Each edge's activity in the slab by its crossed sides: -1
        inactive (none), 1 active (one), 0 split (both)."""
        counts = [0, 0, 0]
        for _, bnd in self.sides:
            counts[bnd.edge] += 1
        return (_ACTIVITY[counts[0]], _ACTIVITY[counts[1]], _ACTIVITY[counts[2]])

    def angular_measure(self, r: float) -> float:
        return self.dphi + sum(sigma * bnd.sweep(r) for sigma, bnd in self.sides)


@dataclass(slots=True)
class PolarDecomposition:
    """The slabs, and each crossed edge side once as its run
    (sigma, AngleBoundary, r_lo, r_hi) over the consecutive slabs that list it."""
    slabs: list[PolarSlab]
    runs: list[tuple[int, AngleBoundary, float, float]]


def decompose_polar(tri: PlanarTriangle) -> PolarDecomposition:
    """Split the triangle into radial slabs with constant angular structure.

    Circles of radius r cross each side of an edge over one open interval
    of r, read from d, |A|, |B| and the foot: the u > 0 side of an edge
    starts an interior arc, the u < 0 side ends one.  A slab lists the
    sides crossed at its midpoint; its total dphi is the sum of
    sigma*phi, branch-corrected at the midpoint, where the arcs measure
    less than 2*pi.  The origin is in the closed triangle when every edge
    table entry has ori = 1 (q < 0, or d snapped to 0).  Then the first
    slab opens at r = 0, unless the smallest critical radius is already
    zero up to roundoff_floor, and a slab with no crossings is a full
    circle; about an outside origin such a slab misses the triangle and
    is dropped.  One pass over the sides per slab sums its total and
    records each side's run, in the order the sides are first crossed.
    """
    egs = edge_geometry(tri)
    inside = all(eg.ori == 1 for eg in egs)
    bounds = _merged_radii(egs)
    if inside and bounds[0] > roundoff_floor(bounds[-1]):
        bounds.insert(0, 0.0)

    # (lo, hi, (sigma, boundary), sigma*sign, sigma*phi, d, j): side j,
    # crossed by circles lo < r < hi, with the terms of its slab sums
    sides = []
    for k, eg in enumerate(egs):
        if eg.foot_on_edge:
            intervals = ((1, eg.d, eg.norm_b), (-1, eg.d, eg.norm_a))
        else:
            intervals = ((1 if eg.t_foot < 0.0 else -1,
                          min(eg.norm_a, eg.norm_b), max(eg.norm_a, eg.norm_b)),)
        for u, lo, hi in intervals:
            sign = u * eg.ori
            sides.append((lo, hi, (-u, AngleBoundary(sign, eg.d, eg.phi, k)),
                          -u * sign, -u * eg.phi, eg.d, len(sides)))

    two_pi = 2.0 * math.pi
    slabs, runs = [], {}  # runs: j -> [sigma, boundary, r_lo, r_hi] of side j
    for r_lo, r_hi in zip(bounds[:-1], bounds[1:]):
        r_mid = 0.5 * (r_lo + r_hi)
        crossed = []
        net = phi_sum = sweep_sum = 0.0
        for lo, hi, side, sweep_sign, sigma_phi, d, j in sides:
            if lo < r_mid < hi:
                crossed.append(side)
                net += side[0]
                phi_sum += sigma_phi
                t = (r_mid - d) * (r_mid + d)  # _acos_ratio(d, r_mid), inline
                sweep_sum += sweep_sign * math.atan2(math.sqrt(0.0 if t < 0.0 else t), d)
                run = runs.get(j)
                if run is None:
                    runs[j] = [*side, r_lo, r_hi]
                else:
                    run[3] = r_hi
        if not crossed:  # inside the triangle about an inside origin, else missing it
            if inside:
                slabs.append(PolarSlab(r_lo, r_hi, two_pi, []))
            continue
        if net:
            raise DegenerateTriangle(
                f"unequal numbers of arc starts and ends in slab [{r_lo:g}, {r_hi:g}]; "
                "the triangle is tangent to a critical circle inside a slab")
        dphi = phi_sum - two_pi * math.floor((phi_sum + sweep_sum) / two_pi)
        slabs.append(PolarSlab(r_lo, r_hi, dphi, crossed))
    return PolarDecomposition(slabs=slabs, runs=[tuple(run) for run in runs.values()])
