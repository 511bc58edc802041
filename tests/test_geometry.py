"""Tests for frame normalization and the polar decomposition."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tripanel.errors import DegenerateTriangle
from tripanel.geometry import (
    EdgeActivity,
    Panel,
    Target,
    critical_radii,
    decompose_polar,
    edge_geometry,
    normalize_frame,
    orient_planar,
    point_in_triangle,
    rotation_to_z,
    roundoff_floor,
)

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
    assert np.allclose(frame.rotation, np.eye(3))
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
        mapped_x = frame.map_point(x)
        assert np.allclose(mapped_x, [0.0, 0.0, frame.c], atol=1e-12)
        for k in range(3):
            mv = frame.map_point(verts[k])
            assert abs(mv[2]) < 1e-12
            assert np.allclose(mv[:2], frame.planar_points[k], atol=1e-12)
            d_before = np.linalg.norm(x - verts[k])
            d_after = np.linalg.norm(mapped_x - mv)
            assert d_after == pytest.approx(d_before, rel=1e-12, abs=1e-12)


def test_normalize_antiparallel_normal():
    # vertices ordered so the geometric normal points to -z
    panel = Panel([0, 0, 0], [0, 1, 0], [1, 0, 0])
    assert np.allclose(panel.normal, [0, 0, -1])
    frame = normalize_frame(panel, Target([0.2, 0.3, -2.0]))
    assert frame.c == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.abs([frame.map_point(v)[2] for v in panel.verts]) < 1e-12)


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
    assert np.allclose(e12.foot, [3 / 26, -15 / 26], atol=1e-12)


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
    assert np.allclose(g.foot, [0.5, 0.5], atol=1e-14)
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
        theta = g.sign_toward_first_vertex * math.acos(min(1.0, g.d / na)) + g.phi
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


def test_segment_midpoints_inside_boundaries_outside():
    for verts in [FIG_VERTS, [(2, 0), (3, 2), (4, -1)], [(0.1, 0.1), (1, 0), (0, 1)]]:
        tri = orient_planar(*verts)
        dec = decompose_polar(tri)
        for slab in dec.slabs:
            for r in np.linspace(slab.r_lo, slab.r_hi, 12)[1:-1]:
                if slab.full_circle:
                    for ang in np.linspace(0, 2 * math.pi, 9):
                        assert point_in_triangle(r * np.array([math.cos(ang), math.sin(ang)]), tri)
                    continue
                for seg in slab.segments:
                    th0 = seg.start.theta(r)
                    mea = seg.measure(r)
                    assert 0 < mea < 2 * math.pi + 1e-12
                    mid = th0 + 0.5 * mea
                    p_mid = r * np.array([math.cos(mid), math.sin(mid)])
                    assert point_in_triangle(p_mid, tri, tol=1e-10)
                    eps = 1e-7
                    for ang in (th0 - eps, th0 + mea + eps):
                        p_out = r * np.array([math.cos(ang), math.sin(ang)])
                        assert not point_in_triangle(p_out, tri, tol=0)


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
    # the merge rule lives in critical_radii alone: every slab spans two
    # consecutive critical radii, or opens at r = 0 when the origin is in
    # the closed triangle and the smallest radius is above roundoff
    tri = orient_planar(t[0:2], t[2:4], t[4:6])
    radii = critical_radii(tri)
    opens_at_zero = (point_in_triangle((0.0, 0.0), tri)
                     and radii[0] > roundoff_floor(radii[-1]))
    bounds = [0.0] * opens_at_zero + radii
    pairs = list(zip(bounds[:-1], bounds[1:]))
    got = [(s.r_lo, s.r_hi) for s in decompose_polar(tri).slabs]
    where = [pairs.index(p) for p in got]  # ValueError: not consecutive radii
    assert where == sorted(set(where))
    if opens_at_zero and point_in_triangle((0.0, 0.0), tri, tol=0.0):
        assert got[0] == (0.0, radii[0])
