"""Tests for frame normalization and the polar decomposition."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tripanel.errors import DegenerateTriangle
from tripanel.geometry import (
    Panel,
    Target,
    critical_radii,
    decompose_polar,
    edge_geometry,
    normalize_frame,
    orient_planar,
    rotation_to_z,
    roundoff_floor,
)
from tripanel.panel_integrals import integrate_g_panel, integrate_k_panel

from solid_angle import grazing_triangle, point_in_triangle

# the worked decomposition example triangle
FIG_VERTS = [(0.0, 2.0), (-2.0, -1.0), (3.0, 0.0)]


def fig_triangle():
    return orient_planar(*FIG_VERTS)


unit_vec = st.builds(
    lambda a, b: np.array([math.cos(a) * math.sin(b), math.sin(a) * math.sin(b), math.cos(b)]),
    st.floats(0, 2 * math.pi), st.floats(0, math.pi),
)

coords = st.floats(-3.0, 3.0, allow_nan=False)


def tri2d_strategy(min_area=1e-2):
    return st.tuples(coords, coords, coords, coords, coords, coords).filter(
        lambda t: abs((t[2] - t[0]) * (t[5] - t[1]) - (t[4] - t[0]) * (t[3] - t[1])) / 2 > min_area
    )


# ---------------------------------------------------------------- rotations

def test_rotation_identity_case():
    assert np.allclose(rotation_to_z([0.0, 0.0, 1.0]), np.eye(3))


def test_rotation_antiparallel_case():
    r = rotation_to_z([0.0, 0.0, -1.0])
    assert np.allclose(r @ np.array([0.0, 0.0, -1.0]), [0, 0, 1], atol=1e-12)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(unit_vec)
def test_rotation_maps_to_z(n):
    r = rotation_to_z(n)
    assert np.allclose(r @ n, [0, 0, 1], atol=1e-10)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------------- frames

def test_normalize_trivial_plane():
    panel = Panel([0, 0, 0], [1, 0, 0], [0, 1, 0])
    frame = normalize_frame(panel, Target([0, 0, 1], n=[0, 0, 1]))
    assert np.allclose(frame.planar_points, [[0, 0], [1, 0], [0, 1]])
    assert frame.c == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(frame.rotated_target_normal, [0, 0, 1])


def test_normalize_preserves_distances():
    rng = np.random.default_rng(3)
    for _ in range(50):
        verts = rng.normal(size=(3, 3))
        x = rng.normal(size=3)
        try:
            panel = Panel(*verts)
        except DegenerateTriangle:
            continue
        frame = normalize_frame(panel, Target(x))
        # the target sits at (0, 0, c) over the planar vertices
        for k in range(3):
            d_before = np.linalg.norm(x - verts[k])
            d_after = math.hypot(*frame.planar_points[k], frame.c)
            assert d_after == pytest.approx(d_before, rel=1e-12, abs=1e-12)


def test_normalize_antiparallel_normal():
    # vertices ordered so the geometric normal points to -z
    panel = Panel([0, 0, 0], [0, 1, 0], [1, 0, 0])
    assert np.allclose(panel.normal, [0, 0, -1])
    x = np.array([0.2, 0.3, -2.0])
    frame = normalize_frame(panel, Target(x))
    assert frame.c == pytest.approx(2.0, abs=1e-12)
    for v, p in zip(panel.verts, frame.planar_points):
        assert math.hypot(*p, frame.c) == pytest.approx(np.linalg.norm(x - v), abs=1e-12)


def test_degenerate_panel_raises():
    with pytest.raises(DegenerateTriangle):
        Panel([0, 0, 0], [1, 1, 1], [2, 2, 2])


# ----------------------------------------------------------------- planar

def test_orient_planar_example():
    tri = fig_triangle()
    assert np.allclose(tri.verts, FIG_VERTS)  # norm 2 smallest, already CCW
    assert tri.area == pytest.approx(6.5)


def test_orient_planar_fixes_clockwise():
    tri = orient_planar((0, 2), (3, 0), (-2, -1))  # same triangle, CW
    assert tri.area == pytest.approx(6.5)
    assert np.allclose(tri.verts[0], (0, 2))


def test_orient_planar_tie_break():
    # two vertices at distance 1: lowest original index wins
    tri = orient_planar((0, 1), (1, 0), (1, 1))
    assert np.allclose(tri.verts[0], (0, 1))
    tri2 = orient_planar((1, 0), (0, 1), (1, 1))
    assert np.allclose(tri2.verts[0], (1, 0))


def test_orient_planar_degenerate():
    with pytest.raises(DegenerateTriangle):
        orient_planar((0, 0), (1, 1), (2, 2))


def test_point_in_triangle_basics():
    tri = fig_triangle()
    centroid = tri.verts.mean(axis=0)
    assert point_in_triangle(centroid, tri)
    assert point_in_triangle(tri.verts[0], tri)  # vertex counts as inside
    # reflect centroid through edge p1p2
    a, b = tri.verts[0], tri.verts[1]
    e = (b - a) / np.linalg.norm(b - a)
    w = centroid - a
    refl = a + 2 * (w @ e) * e - w
    assert not point_in_triangle(refl, tri)


# ------------------------------------------------------------------- edges

def test_edge_geometry_example_foot():
    egs = edge_geometry(fig_triangle())
    e12 = egs[1]  # edge V2->V3
    assert e12.d == pytest.approx(3 / math.sqrt(26), abs=1e-12)
    assert e12.foot_on_edge
    foot = e12.d * np.array([math.cos(e12.phi), math.sin(e12.phi)])
    assert np.allclose(foot, [3 / 26, -15 / 26], atol=1e-12)


def test_edge_geometry_collinear_with_origin():
    from tripanel.geometry import _edge_geometry_one
    g = _edge_geometry_one(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    assert g.d == 0.0
    assert abs(g.phi) == pytest.approx(math.pi / 2, abs=1e-12)
    # theta of any point on the edge must be 0 (positive x-axis)
    th = g.phi + g.ori * 1 * math.acos(0.0)  # sign(u) = +1 on this edge
    assert math.remainder(th, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_edge_geometry_right_triangle():
    tri = orient_planar((0, 1), (1, 0), (1, 1))
    g = edge_geometry(tri)[0]  # V1V2 from (0,1) to (1,0)
    foot = g.d * np.array([math.cos(g.phi), math.sin(g.phi)])
    assert np.allclose(foot, [0.5, 0.5], atol=1e-14)
    assert g.d == pytest.approx(math.sqrt(2) / 2, abs=1e-14)
    assert g.foot_on_edge


@settings(max_examples=200, deadline=None)
@given(tri2d_strategy())
# the edge (1e-10, 4.1e-15) -> (1, 0) passes 4.1e-15 from the origin,
# 4e-5 of its near endpoint's radius
@example(t=(1e-10, 4.063049395423614e-15, 1.0, 0.0, 0.0, 1.0))
def test_edge_sign_resolves_first_vertex(t):
    tri = orient_planar(t[0:2], t[2:4], t[4:6])
    for (a, b), g in zip(tri.edges(), edge_geometry(tri)):
        na = np.linalg.norm(a)
        if na <= g.d + 1e-12:  # first vertex at the foot: any sign is valid
            continue
        # the first vertex lies on the u < 0 side when t_foot > 0: the
        # side sign that decompose_polar's edge sides use
        sign = -g.ori * (1 if g.t_foot > 0 else -1)
        theta = sign * math.acos(min(1.0, g.d / na)) + g.phi
        psi = math.atan2(a[1], a[0])
        # arccos amplifies the d rounding error near the foot (slope 1/sqrt(na-d))
        tol = 1e-10 + 1e-13 / math.sqrt(max(na - g.d, 1e-13))
        assert math.remainder(theta - psi, 2 * math.pi) == pytest.approx(0.0, abs=tol)


# ----------------------------------------------------------- critical radii

def test_critical_radii_example():
    r = critical_radii(fig_triangle())
    expected = [3 / math.sqrt(26), 4 / math.sqrt(13), 6 / math.sqrt(13),
                2.0, math.sqrt(5), 3.0]
    assert np.allclose(r, expected, atol=1e-12)


def test_critical_radii_equilateral_merges():
    ang = np.array([0, 2 * math.pi / 3, 4 * math.pi / 3])
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    tri = orient_planar(*verts)
    r = critical_radii(tri)
    assert len(r) == 2  # three equal feet, three equal vertex norms


def test_critical_radii_foot_outside_excluded():
    # obtuse at the far side: edge (5,1)-(6,-1) has its foot well outside
    tri = orient_planar((0, 0.5), (5, 1), (6, -1))
    egs = edge_geometry(tri)
    outside = [g.d for g in egs if not g.foot_on_edge]
    r = critical_radii(tri)
    for d in outside:
        assert all(abs(d - x) > 1e-9 for x in r)


# ----------------------------------------------------------- decomposition

def test_decompose_example_activity_sequence():
    dec = decompose_polar(fig_triangle())
    seq = [s.activity for s in dec.slabs]
    assert seq == [(-1, -1, -1), (-1, 0, -1), (0, 0, -1),
                   (0, 0, 0), (1, 0, 1), (-1, 1, 1)]
    assert dec.slabs[0].full_circle
    assert dec.slabs[0].r_lo == 0.0
    assert not any(s.full_circle for s in dec.slabs[1:])


def test_decompose_origin_outside():
    tri = orient_planar((2, 0), (3, 2), (4, -1))
    dec = decompose_polar(tri)
    assert dec.slabs[0].r_lo > 0
    for s in dec.slabs:
        assert not s.full_circle
        for r in np.linspace(s.r_lo, s.r_hi, 7)[1:-1]:
            assert 0 < s.angular_measure(r) < 2 * math.pi


def test_decompose_slabs_contiguous():
    for verts in [FIG_VERTS, [(2, 0), (3, 2), (4, -1)], [(-1, -1), (4, 0), (0, 3)]]:
        dec = decompose_polar(orient_planar(*verts))
        for a, b in zip(dec.slabs[:-1], dec.slabs[1:]):
            assert b.r_lo == pytest.approx(a.r_hi, rel=1e-15)


def test_crossed_sides_bound_arcs_by_their_role():
    # just past a side that ends an arc (sigma = +1) the circle is outside,
    # just before it inside; a side that starts an arc the other way round
    for verts in [FIG_VERTS, [(2, 0), (3, 2), (4, -1)], [(0.1, 0.1), (1, 0), (0, 1)]]:
        tri = orient_planar(*verts)
        dec = decompose_polar(tri)
        for slab in dec.slabs:
            for r in np.linspace(slab.r_lo, slab.r_hi, 12)[1:-1]:
                if slab.full_circle:
                    for ang in np.linspace(0, 2 * math.pi, 9):
                        assert point_in_triangle(r * np.array([math.cos(ang), math.sin(ang)]), tri)
                    continue
                assert 0 < slab.angular_measure(r) < 2 * math.pi + 1e-12
                eps = 1e-7
                for sigma, side in slab.sides:
                    th = side.phi + side.sweep(r)
                    p_in, p_out = (r * np.array([math.cos(ang), math.sin(ang)])
                                   for ang in (th - sigma * eps, th + sigma * eps))
                    assert point_in_triangle(p_in, tri, tol=1e-10)
                    assert not point_in_triangle(p_out, tri, tol=0)


def arc_measure_brute_force(tri, r):
    """The angle of the circle of radius r inside the triangle, in 50-digit
    arithmetic on the float vertices: the circle meets each edge where
    |A + t (B - A)| = r, 0 < t < 1, and each arc between consecutive
    crossings counts when its midpoint is in the closed triangle.  (In
    floats, both the quadratic and point_in_triangle's cross products lose
    the arcs at the grazing placements, where r is ~1e-14 of a far vertex.)"""
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        edges = [[mpmath.mpf(v) for v in (*a, *b)] for a, b in tri.edges()]
        angles = []
        for ax, ay, bx, by in edges:
            ex, ey = bx - ax, by - ay
            qa, qb, qc = ex * ex + ey * ey, ax * ex + ay * ey, ax * ax + ay * ay - r * r
            disc = qb * qb - qa * qc
            if disc <= 0:
                continue
            for t in ((-qb - mpmath.sqrt(disc)) / qa, (-qb + mpmath.sqrt(disc)) / qa):
                if 0 < t < 1:
                    angles.append(mpmath.atan2(ay + t * ey, ax + t * ex))
        angles = sorted(angles) or [mpmath.mpf(0)]
        total = mpmath.mpf(0)
        for lo, hi in zip(angles, angles[1:] + [angles[0] + 2 * mpmath.pi]):
            px, py = r * mpmath.cos((lo + hi) / 2), r * mpmath.sin((lo + hi) / 2)
            if all((bx - ax) * (py - ay) >= (by - ay) * (px - ax) for ax, ay, bx, by in edges):
                total += hi - lo
        return float(total)


@pytest.mark.parametrize("placement", ["generic", "edge", "vertex"])
def test_angular_measure_matches_brute_force_arcs(placement):
    rng = np.random.default_rng(18)
    for _ in range(400):
        tri = grazing_triangle(rng, placement)
        for slab in decompose_polar(tri).slabs:
            r_mid = 0.5 * (slab.r_lo + slab.r_hi)
            assert slab.angular_measure(r_mid) == pytest.approx(
                arc_measure_brute_force(tri, r_mid), rel=0, abs=1e-12 * 2 * math.pi)


def polar_area(dec):
    total = 0.0
    for slab in dec.slabs:
        val, _ = quad(lambda r: r * slab.angular_measure(r), slab.r_lo, slab.r_hi,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        total += val
    return total


def test_area_oracle_example():
    dec = decompose_polar(fig_triangle())
    assert polar_area(dec) == pytest.approx(6.5, rel=1e-10)


@settings(max_examples=120, deadline=None)
@given(tri2d_strategy())
def test_area_oracle_random(t):
    tri = orient_planar(t[0:2], t[2:4], t[4:6])
    assert polar_area(decompose_polar(tri)) == pytest.approx(tri.area, rel=1e-8)


def test_area_oracle_origin_on_edge_and_vertex():
    # origin strictly inside an edge
    tri = orient_planar((-1, 0), (2, 0), (0, 3))
    assert polar_area(decompose_polar(tri)) == pytest.approx(tri.area, rel=1e-8)
    # origin at a vertex
    tri = orient_planar((0, 0), (2, 0.3), (0.5, 2))
    assert polar_area(decompose_polar(tri)) == pytest.approx(tri.area, rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(tri2d_strategy(), st.floats(0, 2 * math.pi))
@example(t=(0.0, 1.0, 1e-12, 0.0, -1.0, 0.0), alpha=1.0)
def test_decompose_rotation_invariant(t, alpha):
    tri = orient_planar(t[0:2], t[2:4], t[4:6])
    rot = np.array([[math.cos(alpha), -math.sin(alpha)],
                    [math.sin(alpha), math.cos(alpha)]])
    tri_r = orient_planar(*(tri.verts @ rot.T))
    d1, d2 = decompose_polar(tri), decompose_polar(tri_r)
    assert len(d1.slabs) == len(d2.slabs)
    for s1, s2 in zip(d1.slabs, d2.slabs):
        assert s1.r_lo == pytest.approx(s2.r_lo, abs=1e-12)
        assert s1.r_hi == pytest.approx(s2.r_hi, abs=1e-12)
        assert s1.full_circle == s2.full_circle
        r = 0.5 * (s1.r_lo + s1.r_hi)
        assert s1.angular_measure(r) == pytest.approx(s2.angular_measure(r), abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(tri2d_strategy())
@example(t=(-1.0, -1.0, 2.0, 0.0, 0.0, 2.0))   # origin inside
@example(t=(-1.0, 0.0, 2.0, 0.0, 0.0, 3.0))    # origin on an edge
@example(t=(0.0, 0.0, 2.0, 0.3, 0.5, 2.0))     # origin at a vertex
@example(t=(2.0, 0.0, 3.0, 2.0, 4.0, -1.0))    # origin outside
def test_slabs_are_consecutive_critical_radii(t):
    check_slabs_are_consecutive_critical_radii(orient_planar(t[0:2], t[2:4], t[4:6]))


@pytest.mark.parametrize("placement", ["generic", "edge", "vertex"])
def test_slabs_are_consecutive_critical_radii_when_grazing(placement):
    rng = np.random.default_rng(19)
    for _ in range(400):
        check_slabs_are_consecutive_critical_radii(grazing_triangle(rng, placement))


def check_slabs_are_consecutive_critical_radii(tri):
    # the merge rule lives in critical_radii alone: every slab spans two
    # consecutive critical radii, or opens at r = 0 when the origin is in
    # the closed triangle and the smallest radius is above roundoff; that
    # first slab is the one full circle.  point_in_triangle says whether
    # the origin is inside, unless the answer turns on its tolerance (the
    # origin within it of an edge line): then either answer is valid, and
    # the decomposition's own choice is held to the same rules
    radii = critical_radii(tri)
    slabs = decompose_polar(tri).slabs
    got = [(s.r_lo, s.r_hi) for s in slabs]
    inside = point_in_triangle((0.0, 0.0), tri)
    if inside != point_in_triangle((0.0, 0.0), tri, tol=-1e-12):
        inside = got[:1] == [(0.0, radii[0])]
    opens_at_zero = inside and radii[0] > roundoff_floor(radii[-1])
    bounds = [0.0] * opens_at_zero + radii
    pairs = list(zip(bounds[:-1], bounds[1:]))
    where = [pairs.index(p) for p in got]  # ValueError: not consecutive radii
    assert where == sorted(set(where))
    if opens_at_zero:
        assert got[0] == (0.0, radii[0])
    assert [s.full_circle for s in slabs] == [opens_at_zero and k == 0
                                              for k in range(len(slabs))]


@pytest.mark.parametrize("placement", ["generic", "edge", "vertex"])
def test_edge_sides_run_over_consecutive_slabs(placement):
    # the moment walk takes an edge side's part once over its run: each
    # side listed by a slab has one run, spanning exactly the consecutive
    # slabs that list it, with one start/end role
    rng = np.random.default_rng(17)
    for _ in range(400):
        dec = decompose_polar(grazing_triangle(rng, placement))
        assert len({id(side) for _, side, _, _ in dec.runs}) == len(dec.runs)
        listed = {id(side) for slab in dec.slabs for _, side in slab.sides}
        assert listed == {id(side) for _, side, _, _ in dec.runs}
        for sigma, side, r_lo, r_hi in dec.runs:
            where = [k for k, slab in enumerate(dec.slabs)
                     if any(s is side for _, s in slab.sides)]
            assert where == list(range(where[0], where[-1] + 1))
            assert dec.slabs[where[0]].r_lo == r_lo and dec.slabs[where[-1]].r_hi == r_hi
            assert all(sg == sigma for k in where for sg, s in dec.slabs[k].sides if s is side)
            for a, b in zip(where, where[1:]):
                assert dec.slabs[a].r_hi == dec.slabs[b].r_lo


@pytest.mark.parametrize("verts", [
    ([0, 0, 0], [1, 0, 0], [0, math.nan, 0]),
    ([0, 0, 0], [1, 0, math.inf], [0, 1, 0]),
    ([-math.inf, 0, 0], [1, 0, 0], [0, 1, 0]),
], ids=["nan", "inf", "-inf"])
def test_non_finite_panel_raises_naming_the_coordinate(verts):
    with pytest.raises(DegenerateTriangle, match="non-finite coordinate"):
        Panel(*verts)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("integrate", [integrate_k_panel, integrate_g_panel])
def test_non_finite_target_raises_value_error(bad, integrate):
    panel = Panel([0, 0, 0], [1, 0, 0], [0, 1, 0])
    with pytest.raises(ValueError, match=f"non-finite coordinate 1: {bad!r}"):
        integrate(panel, Target([0.2, bad, 0.1], n=[0.0, 0.0, 1.0]))
