"""Tests for the closed-form panel moments and kernel contractions."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripanel.errors import DegenerateTriangle, DivergentIntegral
from tripanel.geometry import (Panel, PolarDecomposition, PolarSlab, Target, decompose_polar,
                               orient_planar, rotation_to_z)
from tripanel.oracle import adaptive_triangle, duffy_integrate, flat_panel_oracle
from tripanel.panel_integrals import (
    MONOMIALS,
    PanelPolynomial,
    compute_g_moments,
    compute_k_moments,
    integrate_g_panel,
    integrate_k_panel,
)

FOUR_PI = 4.0 * math.pi
# the flat oracle's absolute floor, as strict as before the 1/(4 pi)
# moved into its integrand
ORACLE_ABS_TOL = 1e-14 / FOUR_PI
FIG_PTS = np.array([[0.0, 2.0], [-2.0, -1.0], [3.0, 0.0]])


def planar_moment_oracle(pts, a, b, c, power, rel_tol=1e-11):
    """Adaptive quadrature of s1^a s2^b / (r^2 + c^2)^(power/2) over a planar triangle."""

    def f(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return p[:, 0] ** a * p[:, 1] ** b / (r2 + c * c) ** (0.5 * power)

    res = adaptive_triangle(f, pts, rel_tol=rel_tol)
    assert res.converged
    return res.value


def random_panel(rng, scale=1.0):
    """A random non-degenerate triangle in 3D."""
    while True:
        verts = rng.normal(size=(3, 3)) * scale
        cr = np.cross(verts[1] - verts[0], verts[2] - verts[0])
        area = 0.5 * np.linalg.norm(cr)
        diam = max(np.linalg.norm(verts[i] - verts[j]) for i in range(3) for j in range(i))
        if area > 0.1 * diam * diam:
            return verts


def random_poly(rng, degree):
    if degree == 0:
        return PanelPolynomial.constant(rng.normal())
    if degree == 1:
        return PanelPolynomial.linear(rng.normal(size=3))
    return PanelPolynomial.quadratic(rng.normal(size=3), rng.normal(size=3))


# --------------------------------------------------------------- moment sets

def test_full_circle_slab_k_moments():
    dec = PolarDecomposition(slabs=[PolarSlab(0.5, 2.0, None, (0, 0, 0))], triangle=None)
    c = 0.8
    m = compute_k_moments(dec, c, max_degree=3)
    s0 = math.hypot(0.5, c)
    s1 = math.hypot(2.0, c)
    assert m.k_moment(0, 0) == pytest.approx(2.0 * math.pi * (1.0 / s0 - 1.0 / s1), rel=1e-14)
    r4 = (s1 + c * c / s1) - (s0 + c * c / s0)
    assert m.k_moment(2, 0) == pytest.approx(math.pi * r4, rel=1e-14)
    assert m.k_moment(0, 2) == pytest.approx(math.pi * r4, rel=1e-14)
    for a, b in ((1, 0), (0, 1), (1, 1), (3, 0), (2, 1), (1, 2), (0, 3)):
        assert m.k_moment(a, b) == 0.0


def test_full_circle_slab_g_moments():
    dec = PolarDecomposition(slabs=[PolarSlab(0.5, 2.0, None, (0, 0, 0))], triangle=None)
    j0, jx, jy = compute_g_moments(dec, 0.0)
    assert j0 == pytest.approx(2.0 * math.pi * 1.5, rel=1e-14)
    assert jx == 0.0 and jy == 0.0


def test_k_moments_match_oracle_origin_inside():
    # the triangle of the worked polar-decomposition example; origin interior
    dec = decompose_polar(orient_planar(*FIG_PTS))
    c = 0.7
    m = compute_k_moments(dec, c, max_degree=3)
    for a, b in MONOMIALS:
        want = planar_moment_oracle(FIG_PTS, a, b, c, power=3)
        assert m.k_moment(a, b) == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_g_moments_match_oracle_origin_inside():
    dec = decompose_polar(orient_planar(*FIG_PTS))
    c = 0.7
    j0, jx, jy = compute_g_moments(dec, c)
    assert j0 == pytest.approx(planar_moment_oracle(FIG_PTS, 0, 0, c, power=1), rel=1e-8)
    assert jx == pytest.approx(planar_moment_oracle(FIG_PTS, 1, 0, c, power=1), rel=1e-8)
    assert jy == pytest.approx(planar_moment_oracle(FIG_PTS, 0, 1, c, power=1), rel=1e-8)


def test_k_moments_origin_outside():
    pts = np.array([[1.0, 0.0], [2.0, 0.5], [1.2, 1.3]])
    dec = decompose_polar(orient_planar(*pts))
    for c in (0.5, 0.0):  # coplanar is fine when the origin is outside
        m = compute_k_moments(dec, c, max_degree=3)
        for a, b in MONOMIALS:
            want = planar_moment_oracle(pts, a, b, c, power=3)
            assert m.k_moment(a, b) == pytest.approx(want, rel=1e-8), (a, b, c)


def test_g_moments_near_singular():
    pts = np.array([[-0.011, -0.009], [0.012, -0.006], [0.001, 0.0135]])
    dec = decompose_polar(orient_planar(*pts))
    for c in (1e-4, 3e-3, 1e-2):
        j0, jx, jy = compute_g_moments(dec, c)
        assert j0 == pytest.approx(planar_moment_oracle(pts, 0, 0, c, power=1), rel=1e-8)
        assert jx == pytest.approx(planar_moment_oracle(pts, 1, 0, c, power=1), rel=1e-8)
        assert jy == pytest.approx(planar_moment_oracle(pts, 0, 1, c, power=1), rel=1e-8)


def test_g_moments_on_surface_origin_inside():
    # c = 0 with the origin interior: weakly singular but finite
    dec = decompose_polar(orient_planar(*FIG_PTS))
    j0, jx, jy = compute_g_moments(dec, 0.0)
    # reference: split at the origin, Duffy transform at each corner singularity
    want = {}
    for a, b in ((0, 0), (1, 0), (0, 1)):
        def f(p, a=a, b=b):
            r = np.hypot(p[:, 0], p[:, 1])
            return p[:, 0] ** a * p[:, 1] ** b / r

        total = 0.0
        for i in range(3):
            sub = np.array([[0.0, 0.0], FIG_PTS[i], FIG_PTS[(i + 1) % 3]])
            total += duffy_integrate(f, sub, corner=0, n=40)
        want[(a, b)] = total
    assert j0 == pytest.approx(want[(0, 0)], rel=1e-6)
    assert jx == pytest.approx(want[(1, 0)], rel=1e-6)
    assert jy == pytest.approx(want[(0, 1)], rel=1e-6)


def test_k_moments_divergent_on_surface():
    dec = decompose_polar(orient_planar(*FIG_PTS))  # origin inside
    with pytest.raises(DivergentIntegral):
        compute_k_moments(dec, 0.0, max_degree=3)
    # origin at a vertex
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    with pytest.raises(DivergentIntegral):
        compute_k_moments(decompose_polar(orient_planar(*pts)), 0.0, max_degree=0)
    # origin on an edge interior
    pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
    with pytest.raises(DivergentIntegral):
        compute_k_moments(decompose_polar(orient_planar(*pts)), 0.0, max_degree=2)


def test_k_moments_bad_degree():
    dec = decompose_polar(orient_planar(*FIG_PTS))
    with pytest.raises(ValueError):
        compute_k_moments(dec, 0.5, max_degree=4)


def test_k_moments_degree_gating_consistent():
    dec = decompose_polar(orient_planar(*FIG_PTS))
    full = compute_k_moments(dec, 0.7, max_degree=3)
    for deg in range(3):
        part = compute_k_moments(dec, 0.7, max_degree=deg)
        for a, b in MONOMIALS:
            if a + b <= deg:
                assert part.k_moment(a, b) == full.k_moment(a, b)
            else:
                assert part.k_moment(a, b) == 0.0


# ---------------------------------------------------------- panel polynomial

def test_polynomial_evaluate():
    rng = np.random.default_rng(7)
    lam = rng.dirichlet((1.0, 1.0, 1.0), size=20)
    pc = PanelPolynomial.constant(2.5)
    assert np.allclose(pc.evaluate(lam), 2.5, rtol=0, atol=1e-14)
    w = np.array([1.0, -2.0, 0.5])
    pl = PanelPolynomial.linear(w)
    assert np.allclose(pl.evaluate(lam), lam @ w, rtol=0, atol=1e-14)
    f = np.array([0.3, -1.1, 2.0])
    g = np.array([0.9, 0.0, -0.4])
    pq = PanelPolynomial.quadratic(f, g)
    # interpolation conditions at vertices and edge midpoints
    assert np.allclose(pq.evaluate(np.eye(3)), f, atol=1e-14)
    mids = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    assert np.allclose(pq.evaluate(mids), g, atol=1e-14)


def test_polynomial_monomial_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(25):
        pts = rng.normal(size=(3, 2))
        if abs(np.linalg.det(np.vstack([pts.T, np.ones(3)]))) < 0.1:
            continue
        form = rng.normal(size=(3, 3))
        p = PanelPolynomial(form, degree=2)
        q = p.monomial_coeffs(pts)
        sample = rng.dirichlet((1.0, 1.0, 1.0), size=10)
        s = sample @ pts
        want = p.evaluate(sample)
        got = sum(q[(a, b)] * s[:, 0] ** a * s[:, 1] ** b for a, b in q)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_polynomial_degree_truncation():
    pts = np.array([[0.1, 0.2], [1.3, -0.4], [0.5, 1.7]])
    q = PanelPolynomial.linear([0.4, 1.0, -2.0]).monomial_coeffs(pts)
    assert q[(2, 0)] == 0.0 and q[(1, 1)] == 0.0 and q[(0, 2)] == 0.0
    q = PanelPolynomial.constant(3.0).monomial_coeffs(pts)
    assert all(q[k] == 0.0 for k in q if k != (0, 0))
    assert q[(0, 0)] == pytest.approx(3.0, rel=1e-13)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        PanelPolynomial(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PanelPolynomial(np.zeros((3, 3)), degree=3)


# ------------------------------------------------------------ K contraction

def test_k_coplanar_outside_with_panel_normal_is_zero():
    panel = Panel([2.0, 0.0, 0.0], [3.0, 0.5, 0.0], [2.2, 1.4, 0.0])
    target = Target([0.0, 0.0, 0.0], n=[0.0, 0.0, 1.0])
    assert integrate_k_panel(panel, target) == 0.0


def test_k_divergent_on_panel():
    panel = Panel([-1.0, -1.0, 0.0], [2.0, -0.5, 0.0], [0.0, 2.0, 0.0])
    for x in ([0.1, 0.2, 0.0],       # interior
              [-1.0, -1.0, 0.0],     # vertex
              [0.5, -0.75, 0.0]):    # on an edge
        with pytest.raises(DivergentIntegral):
            integrate_k_panel(panel, Target(x, n=[0.0, 0.0, 1.0]))


def test_k_needs_normal():
    panel = Panel([1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        integrate_k_panel(panel, Target([0.0, 0.0, 1.0]))


def test_k_matches_oracle_basic():
    verts = np.array([[0.2, -0.1, 0.3], [1.1, 0.4, -0.2], [0.5, 1.2, 0.6]])
    x = np.array([0.1, 0.3, 1.1])
    n = np.array([0.3, -0.5, 0.8])
    n = n / np.linalg.norm(n)
    p = PanelPolynomial.linear([1.0, -0.5, 2.0])
    want, ok = flat_panel_oracle("K", verts, x, n, p, rel_tol=1e-11, abs_tol=ORACLE_ABS_TOL)
    assert ok
    got = integrate_k_panel(Panel(*verts), Target(x, n=n), p)
    assert got == pytest.approx(want, rel=1e-9)


def test_k_oracle_equivalence():
    # randomized sweep over positions, heights and polynomial degrees
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 300:
        verts = random_panel(rng)
        diam = max(np.linalg.norm(verts[i] - verts[j]) for i in range(3) for j in range(i))
        nrm = np.cross(verts[1] - verts[0], verts[2] - verts[0])
        nrm = nrm / np.linalg.norm(nrm)
        lam = rng.dirichlet((0.6, 0.6, 0.6))
        foot = lam @ verts
        if checked % 5 == 4:
            # coplanar target outside the triangle
            direction = foot - verts.mean(axis=0)
            x = foot + direction * (1.0 + rng.uniform(0.5, 2.0))
        else:
            height = 10.0 ** rng.uniform(-6, 0) * diam * rng.choice([-1.0, 1.0])
            x = foot + height * nrm
        n = rng.normal(size=3)
        n = n / np.linalg.norm(n)
        p = random_poly(rng, degree=int(checked % 3))
        try:
            got = integrate_k_panel(Panel(*verts), Target(x, n=n), p)
        except DivergentIntegral:
            continue
        want, ok = flat_panel_oracle("K", verts, x, n, p, rel_tol=1e-8, abs_tol=ORACLE_ABS_TOL)
        if not ok:
            continue
        natural = 0.5 * np.linalg.norm(np.cross(verts[1] - verts[0], verts[2] - verts[0]))
        denom = max(abs(want), 1e-10 * natural)
        assert abs(got - want) <= 1e-6 * denom, (checked, got, want)
        checked += 1


def test_g_oracle_equivalence():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 200:
        verts = random_panel(rng)
        diam = max(np.linalg.norm(verts[i] - verts[j]) for i in range(3) for j in range(i))
        nrm = np.cross(verts[1] - verts[0], verts[2] - verts[0])
        nrm = nrm / np.linalg.norm(nrm)
        lam = rng.dirichlet((0.6, 0.6, 0.6))
        foot = lam @ verts
        height = 10.0 ** rng.uniform(-6, 0) * diam * rng.choice([-1.0, 1.0])
        x = foot + height * nrm
        p = random_poly(rng, degree=int(checked % 2))
        got = integrate_g_panel(Panel(*verts), Target(x), p)
        want, ok = flat_panel_oracle("G", verts, x, None, p, rel_tol=1e-8, abs_tol=ORACLE_ABS_TOL)
        if not ok:
            continue
        area = 0.5 * np.linalg.norm(np.cross(verts[1] - verts[0], verts[2] - verts[0]))
        denom = max(abs(want), 1e-10 * area)
        assert abs(got - want) <= 1e-6 * denom, (checked, got, want)
        checked += 1


def test_rigid_motion_invariance():
    rng = np.random.default_rng(31)
    for _ in range(40):
        verts = random_panel(rng)
        x = rng.normal(size=3) * 1.5
        n = rng.normal(size=3)
        n = n / np.linalg.norm(n)
        p = random_poly(rng, degree=int(rng.integers(0, 3)))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        t = rng.normal(size=3) * 3.0
        try:
            base_k = integrate_k_panel(Panel(*verts), Target(x, n=n), p)
        except DivergentIntegral:
            continue
        moved_k = integrate_k_panel(Panel(*(verts @ q.T + t)), Target(q @ x + t, n=q @ n), p)
        assert moved_k == pytest.approx(base_k, rel=1e-10, abs=1e-13)
        if p.degree <= 1:
            base_g = integrate_g_panel(Panel(*verts), Target(x), p)
            moved_g = integrate_g_panel(Panel(*(verts @ q.T + t)), Target(q @ x + t), p)
            assert moved_g == pytest.approx(base_g, rel=1e-10, abs=1e-13)


def test_density_list_matches_one_call_per_density():
    # a list of densities shares one frame, decomposition and moment set;
    # each slot equals the one-density call bit for bit, and the all-zero
    # density gives 0.0
    rng = np.random.default_rng(99)
    densities = [PanelPolynomial.linear(np.eye(3)[j]) for j in range(3)] \
        + [PanelPolynomial.constant(1.0), PanelPolynomial.constant(0.0)]
    for _ in range(40):
        verts = random_panel(rng)
        n = rng.normal(size=3)
        panel = Panel(*verts)
        target = Target(rng.normal(size=3) * 1.5, n=n / np.linalg.norm(n))
        for integrate in (integrate_k_panel, integrate_g_panel):
            got = integrate(panel, target, densities)
            assert got.dtype == float and got.shape == (len(densities),)
            assert got.tolist() == [integrate(panel, target, h) for h in densities]
            assert got[-1] == 0.0
    with pytest.raises(DivergentIntegral):
        integrate_k_panel(panel, Target(verts.mean(axis=0), n=n), densities)


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_linearity_in_polynomial(alpha, beta):
    verts = np.array([[0.4, -0.2, 0.1], [1.5, 0.3, 0.0], [0.6, 1.1, 0.4]])
    x = np.array([0.2, 0.1, 0.9])
    n = np.array([0.1, 0.7, 0.7])
    n = n / np.linalg.norm(n)
    p1 = PanelPolynomial.quadratic([1.0, 0.0, -1.0], [0.5, 0.2, 0.0])
    p2 = PanelPolynomial.linear([-0.3, 1.2, 0.4])
    combo = PanelPolynomial(alpha * p1.form + beta * p2.form, degree=2)
    panel, target = Panel(*verts), Target(x, n=n)
    lhs = integrate_k_panel(panel, target, combo)
    rhs = alpha * integrate_k_panel(panel, target, p1) + beta * integrate_k_panel(panel, target, p2)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_branch_cut_regression():
    # angular sweep straddles the -pi/pi seam; rotating 90 deg about z moves
    # it away from the seam and must not change the value
    verts = np.array([[-2.0, 0.6, 0.0], [-2.5, -0.4, 0.0], [-1.2, 0.05, 0.0]])
    x = np.array([0.0, 0.0, 0.7])
    n = np.array([0.3, -0.5, 0.8])
    n = n / np.linalg.norm(n)
    p = PanelPolynomial.linear([1.0, 2.0, -0.5])
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    k1 = integrate_k_panel(Panel(*verts), Target(x, n=n), p)
    k2 = integrate_k_panel(Panel(*(verts @ rot.T)), Target(rot @ x, n=rot @ n), p)
    assert k2 == pytest.approx(k1, rel=1e-10)
    g1 = integrate_g_panel(Panel(*verts), Target(x), p)
    g2 = integrate_g_panel(Panel(*(verts @ rot.T)), Target(rot @ x), p)
    assert g2 == pytest.approx(g1, rel=1e-10)


def octahedron_faces():
    """Eight outward-oriented faces of the unit octahedron."""
    basis = np.eye(3)
    faces = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            for s3 in (1.0, -1.0):
                tri = [s1 * basis[0], s2 * basis[1], s3 * basis[2]]
                if s1 * s2 * s3 < 0:
                    tri[1], tri[2] = tri[2], tri[1]
                faces.append(np.array(tri))
    return faces


def test_gauss_solid_angle_fixes_sign():
    # summing K over a closed outward-oriented surface with n(x) set to each
    # panel's own normal measures -(solid angle)/(4 pi): -1 inside, 0 outside
    faces = octahedron_faces()
    inside = 0.0
    outside = 0.0
    for tri in faces:
        nrm = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        nrm = nrm / np.linalg.norm(nrm)
        assert nrm @ tri.mean(axis=0) > 0  # outward
        inside += integrate_k_panel(Panel(*tri), Target([0.0, 0.0, 0.0], n=nrm))
        outside += integrate_k_panel(Panel(*tri), Target([3.0, 3.0, 3.0], n=nrm))
    assert inside == pytest.approx(-1.0, abs=1e-12)
    assert outside == pytest.approx(0.0, abs=1e-12)


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


@pytest.mark.parametrize("c", [1e-13, 1e-12, 1e-9])
@pytest.mark.parametrize("verts", [
    # the foot (0, 0) lies inside, 5e-13 from the edge y = -5e-13
    [(-1.0, -5e-13, 0.0), (1.0, -5e-13, 0.0), (0.0, 1.0, 0.0)],
    # a vertex 1e-12 from the foot, which sits on the opposite edge
    [(0.0, 1.0, 0.0), (1e-12, 0.0, 0.0), (-1.0, 0.0, 0.0)],
], ids=["near_edge", "near_vertex"])
def test_k_near_edge_matches_van_oosterom_strackee(verts, c):
    panel = Panel(*verts)
    x = (0.0, 0.0, c)
    ref = vos_k_unit_density(verts, x)
    val = integrate_k_panel(panel, Target(x, n=panel.normal))
    assert abs(val - ref) <= 1e-12 * abs(ref)


def _near_vertex_case(rng, k):
    """A panel of diameter ~1e-2 on the unit sphere near its north pole,
    shifted so the pole is the origin, and a target whose foot lies
    1e-12..1e-8 from vertex k, 1e-9..1e-2 above or below the panel."""
    while True:
        xy = rng.uniform(-0.01, 0.01, size=(3, 2))
        verts = np.column_stack([xy, np.sqrt(1.0 - (xy ** 2).sum(axis=1)) - 1.0])
        try:
            panel = Panel(*verts)
        except DegenerateTriangle:
            continue
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


def test_k_near_vertex_matches_van_oosterom_strackee():
    # the frame is built from v - x, so the foot-to-vertex offset is kept
    # to its own roundoff rather than that of |v|
    rng = np.random.default_rng(1983)
    worst = 0.0
    for case in range(60):
        panel, x = _near_vertex_case(rng, case % 3)
        ref = vos_k_unit_density(panel.verts, x)
        val = integrate_k_panel(panel, Target(x, n=panel.normal))
        worst = max(worst, abs(val - ref) / abs(ref))
    assert worst <= 1e-12


def _vertex_fan(r0, heading):
    """A 60-degree corner of 1e-2 edges at (r0, 0, 0), the first edge
    leaving at angle `heading`."""
    v0 = np.array([r0, 0.0, 0.0])
    return np.array([v0] + [v0 + 1e-2 * np.array([math.cos(a), math.sin(a), 0.0])
                            for a in (heading, heading + math.pi / 3.0)])


@pytest.mark.xfail(strict=True, reason="absolute 1e-14 floors on a 1e-2 panel: "
                   "critical_radii merges the vertex radius into a foot distance "
                   "5e-15 below it, and radial_kernels._CLAMP snaps an edge-line "
                   "distance of 8e-15 to 0 (errors 4.9e-10 and 7.6e-8)")
@pytest.mark.parametrize("verts, c", [
    (_vertex_fan(1e-11, 0.5 * math.pi + math.sqrt(1e-3)), 1e-9),
    (_vertex_fan(1e-11, 8e-4), 1e-7),
], ids=["radius_gap_5e-15", "edge_line_8e-15"])
def test_k_near_vertex_at_the_absolute_floors(verts, c):
    x = (0.0, 0.0, c)
    ref = vos_k_unit_density(verts, x)
    val = integrate_k_panel(Panel(*verts), Target(x, n=(0.0, 0.0, 1.0)))
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_k_near_singular_sphere_panels():
    # panels on the unit sphere shifted so the north pole is the origin;
    # targets hover just off the surface
    rng = np.random.default_rng(5150)
    n = np.full(3, math.sqrt(3.0) / 3.0)
    done = 0
    while done < 40:
        xy = rng.uniform(-0.01, 0.01, size=(3, 2))
        z = np.sqrt(1.0 - xy[:, 0] ** 2 - xy[:, 1] ** 2) - 1.0
        verts = np.column_stack([xy, z])
        try:
            panel = Panel(*verts)
        except Exception:
            continue
        c = rng.uniform(-0.01, 0.01)
        x = np.array([0.0, 0.0, c])
        p_lin = PanelPolynomial.linear(verts[:, 0])  # world x-coordinate
        for p in (None, p_lin):
            try:
                got = integrate_k_panel(panel, Target(x, n=n), p)
            except DivergentIntegral:
                break
            want, ok = flat_panel_oracle("K", verts, x, n, p, rel_tol=1e-9, abs_tol=ORACLE_ABS_TOL)
            if not ok:
                continue
            assert abs(got - want) <= 1e-6 * max(abs(want), 1e-10 * panel.area)
            gg = integrate_g_panel(panel, Target(x), p)
            gw, gok = flat_panel_oracle("G", verts, x, None, p, rel_tol=1e-9, abs_tol=ORACLE_ABS_TOL)
            if gok:
                assert abs(gg - gw) <= 1e-6 * max(abs(gw), 1e-10 * panel.area)
        else:
            done += 1


# ------------------------------------------------------------ G contraction

def test_g_far_field_limit():
    verts = np.array([[0.0, 0.0, 0.0], [0.03, 0.0, 0.0], [0.0, 0.04, 0.0]])
    panel = Panel(*verts)
    centroid = verts.mean(axis=0)
    x = centroid + np.array([0.0, 0.0, 100.0 * panel.diameter])
    p = PanelPolynomial.linear([1.0, 2.0, 3.0])
    got = integrate_g_panel(panel, Target(x), p)
    want = -panel.area * 2.0 / (FOUR_PI * np.linalg.norm(x - centroid))
    assert got == pytest.approx(want, rel=0.01)


def test_g_translation_invariance():
    verts = np.array([[0.1, 0.0, 0.2], [1.0, 0.1, 0.0], [0.2, 1.1, 0.5]])
    x = np.array([0.4, 0.3, 0.25])
    p = PanelPolynomial.linear([0.5, -1.0, 2.0])
    base = integrate_g_panel(Panel(*verts), Target(x), p)
    t = np.array([13.0, -7.0, 4.0])
    moved = integrate_g_panel(Panel(*(verts + t)), Target(x + t), p)
    assert moved == pytest.approx(base, rel=1e-12)


def test_g_target_at_vertex():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.2, 1.2, 0.0]])
    got = integrate_g_panel(Panel(*verts), Target(verts[0]))

    def f(p):
        return 1.0 / np.hypot(p[:, 0], p[:, 1])

    want = -duffy_integrate(f, verts[:, :2], corner=0, n=40) / FOUR_PI
    assert got == pytest.approx(want, rel=1e-9)


def test_g_target_inside_panel():
    verts = np.array([[-1.0, -1.0, 0.0], [2.0, -0.5, 0.0], [0.0, 2.0, 0.0]])
    x = np.array([0.2, 0.1, 0.0])

    def f(p):
        return 1.0 / np.hypot(p[:, 0] - x[0], p[:, 1] - x[1])

    want = 0.0
    for i in range(3):
        sub = np.array([x[:2], verts[i, :2], verts[(i + 1) % 3, :2]])
        want += duffy_integrate(f, sub, corner=0, n=40)
    want = -want / FOUR_PI
    got = integrate_g_panel(Panel(*verts), Target(x))
    assert got == pytest.approx(want, rel=1e-9)


def test_g_rejects_quadratic():
    panel = Panel([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    p = PanelPolynomial.quadratic([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        integrate_g_panel(panel, Target([0.0, 0.0, 1.0]), p)
