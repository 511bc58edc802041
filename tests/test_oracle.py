"""Tests for the adaptive quadrature oracle.

The oracle is the reference instrument for everything else, so it gets
checked against independently known values: exact monomial integrals,
a hand-computable triangle area, Duffy quadrature for a 1/r corner
singularity, and the Girard spherical-excess formula for patch areas.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripanel.oracle import (
    REFERENCE_TRIANGLE,
    _conical_rule,
    adaptive_patch,
    adaptive_triangle,
    duffy_integrate,
    north_pole_panels,
    sphere_patch_chart,
)

# triangle used throughout the decomposition examples
TRI = np.array([[0.0, 2.0], [-2.0, -1.0], [3.0, 0.0]])


def exact_ref_monomial(p, q):
    # integral of x^p y^q over the reference triangle = p! q! / (p+q+2)!
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


def test_base_rule_degree7_exact():
    pts, w = _conical_rule(4)
    assert np.all(w > 0)
    assert abs(w.sum() - 0.5) < 1e-15
    for p in range(8):
        for q in range(8 - p):
            got = float(np.sum(w * pts[:, 0] ** p * pts[:, 1] ** q))
            assert got == pytest.approx(exact_ref_monomial(p, q), abs=5e-16, rel=1e-13)


def test_base_rule_not_exact_degree8():
    pts, w = _conical_rule(4)
    got = float(np.sum(w * pts[:, 0] ** 8))
    assert abs(got - exact_ref_monomial(8, 0)) > 1e-12


def test_area_of_example_triangle():
    res = adaptive_triangle(lambda s: np.ones(s.shape[0]), TRI)
    assert res.converged
    assert res.value == pytest.approx(6.5, abs=1e-12)


def test_smooth_integrand_tight():
    f = lambda s: np.exp(s[:, 0]) * np.cos(2.0 * s[:, 1])
    res = adaptive_triangle(f, REFERENCE_TRIANGLE, rel_tol=1e-12)
    # compare against a much finer fixed computation via subdivision-free
    # high order: use the oracle itself at brutal tolerance as the anchor
    anchor = adaptive_triangle(f, REFERENCE_TRIANGLE, rel_tol=1e-14)
    assert res.converged
    assert res.value == pytest.approx(anchor.value, rel=1e-11)


def test_corner_singularity_matches_duffy():
    f = lambda s: 1.0 / np.linalg.norm(s, axis=1)
    res = adaptive_triangle(f, REFERENCE_TRIANGLE, rel_tol=1e-10, singular_corner=0)
    ref = duffy_integrate(f, REFERENCE_TRIANGLE, corner=0, n=40)
    assert res.converged
    assert res.value == pytest.approx(ref, rel=1e-9)


def test_nonintegrable_comes_back_unconverged():
    f = lambda s: 1.0 / np.linalg.norm(s, axis=1) ** 3
    res = adaptive_triangle(f, REFERENCE_TRIANGLE, rel_tol=1e-8, max_depth=18,
                            singular_corner=0)
    assert not res.converged


def test_zero_area_triangle_is_zero():
    tri = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    res = adaptive_triangle(lambda s: np.ones(s.shape[0]), tri)
    assert res.value == 0.0
    assert res.converged


def test_deterministic():
    f = lambda s: np.sin(s[:, 0] * 3.0) / (0.01 + s[:, 1])
    r1 = adaptive_triangle(f, TRI, rel_tol=1e-11)
    r2 = adaptive_triangle(f, TRI, rel_tol=1e-11)
    assert r1.value == r2.value
    assert r1.evaluations == r2.evaluations


def test_tolerance_halving_tightens():
    # duffy is exponentially accurate for 1/r (the u jacobian cancels it)
    f = lambda s: 1.0 / np.linalg.norm(s, axis=1)
    loose = adaptive_triangle(f, REFERENCE_TRIANGLE, rel_tol=1e-6, singular_corner=0)
    tight = adaptive_triangle(f, REFERENCE_TRIANGLE, rel_tol=1e-10, singular_corner=0)
    ref = duffy_integrate(f, REFERENCE_TRIANGLE, corner=0, n=40)
    assert abs(tight.value - ref) <= abs(loose.value - ref) + 1e-13
    assert tight.error_estimate <= loose.error_estimate + 1e-15


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 3), st.integers(0, 3))
def test_affine_triangle_monomials(p, q):
    # total degree <= 7 of the pulled-back polynomial keeps this exact even
    # on the first level, but run through the adaptive driver anyway
    f = lambda s: s[:, 0] ** p * s[:, 1] ** q
    res = adaptive_triangle(f, REFERENCE_TRIANGLE, rel_tol=1e-13)
    assert res.value == pytest.approx(exact_ref_monomial(p, q), rel=1e-12, abs=1e-15)


def spherical_excess(a, b, c):
    """Girard: area of the geodesic triangle (a,b,c) on the unit sphere."""
    def angle(u, v, w):
        # angle at u between geodesics to v and w
        tv = v - u * np.dot(u, v)
        tw = w - u * np.dot(u, w)
        return math.acos(np.clip(np.dot(tv, tw) / (np.linalg.norm(tv) * np.linalg.norm(tw)), -1, 1))
    return angle(a, b, c) + angle(b, c, a) + angle(c, a, b) - math.pi


def test_sphere_patch_area_girard():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    c = np.array([0.0, 0.0, 1.0])
    chart = sphere_patch_chart(a, b, c)
    res = adaptive_patch(lambda y: np.ones(y.shape[0]), chart, REFERENCE_TRIANGLE,
                         rel_tol=1e-10)
    # octant: excess = 3*(pi/2) - pi = pi/2; also check Girard helper agrees
    assert spherical_excess(a, b, c) == pytest.approx(math.pi / 2, abs=1e-14)
    assert res.converged
    assert res.value == pytest.approx(math.pi / 2, abs=1e-8)


def test_patch_integrand_sees_the_chart_points():
    # the Girard tests integrate a constant; z over the octant patch
    # checks that the integrand is evaluated at the mapped points:
    # int z dA = int_0^{pi/2} cos(t) sin(t) dt * pi/2 = pi/4
    chart = sphere_patch_chart(*np.eye(3))
    res = adaptive_patch(lambda y: y[:, 2], chart, REFERENCE_TRIANGLE,
                         rel_tol=1e-10)
    assert res.converged
    assert res.value == pytest.approx(math.pi / 4, abs=1e-8)


def test_sphere_patch_area_girard_generic():
    rng = np.random.default_rng(7)
    v = rng.normal(size=(3, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    chart = sphere_patch_chart(*v)
    res = adaptive_patch(lambda y: np.ones(y.shape[0]), chart, REFERENCE_TRIANGLE,
                         rel_tol=1e-10)
    assert res.converged
    assert res.value == pytest.approx(spherical_excess(*v), abs=1e-8)


def test_sphere_patch_scaled_and_offcenter():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(3, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    center = np.array([0.3, -1.0, 2.0])
    radius = 2.5
    chart = sphere_patch_chart(*(center + radius * v), radius=radius, center=center)
    res = adaptive_patch(lambda y: np.ones(y.shape[0]), chart, REFERENCE_TRIANGLE,
                         rel_tol=1e-10)
    assert res.value == pytest.approx(radius ** 2 * spherical_excess(*v), rel=1e-8)


def test_duffy_smooth_consistency():
    f = lambda s: np.cos(s[:, 0] + 2.0 * s[:, 1])
    ref = adaptive_triangle(f, TRI, rel_tol=1e-12)
    for corner in range(3):
        assert duffy_integrate(f, TRI, corner=corner, n=30) == pytest.approx(ref.value, rel=1e-10)


def test_north_pole_panels_lie_on_the_shifted_sphere():
    draws = north_pole_panels(np.random.default_rng(3), (-0.02, 0.01), (0.5, 0.6))
    for _, (panel, x) in zip(range(50), draws):
        v = panel.verts
        assert np.all((v[:, :2] >= -0.02) & (v[:, :2] <= 0.01))
        assert np.linalg.norm(v + [0.0, 0.0, 1.0], axis=1) == pytest.approx(1.0, abs=1e-15)
        assert x[0] == x[1] == 0.0 and 0.5 <= x[2] <= 0.6
