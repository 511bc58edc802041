"""Tests for the quadratic-surface singular integration paths."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from tripanel.bem import cos_phi, neumann_problem, probe_forms, sphere_forms
from tripanel.curvature import FundamentalForm, sphere_probe, torus_probe
from tripanel.errors import ConvergenceFailure, DegenerateTriangle, DivergentIntegral
from tripanel.geometry import Panel, Target, rotation_to_z
from tripanel.mesh_io import generate_sphere_mesh
from tripanel.oracle import REFERENCE_TRIANGLE, adaptive_patch, sphere_patch_chart
from tripanel.panel_integrals import PanelPolynomial, integrate_k_panel
from tripanel.qsa import (
    _angular_primitives,
    _qsa_off_boundary,
    foot_point,
    qsa_on_boundary,
    qsa_vertex,
    qsa_vertex_rows,
)

PAIRS = ((1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3))


def angular_integrand(a, b, t, t2):
    return math.cos(t) ** a * math.sin(t) ** b / math.sin(t + t2) ** (a + b - 1)


def test_angular_primitives_match_derivative_and_quadrature():
    rng = np.random.default_rng(314)
    for a, b in PAIRS:
        for _ in range(100):
            t2 = rng.uniform(0.05, math.pi - 0.15)
            t = rng.uniform(0.01, math.pi - t2 - 0.05)
            h = 1e-6
            fd = (_angular_primitives(t + h, t2)[(a, b)]
                  - _angular_primitives(t - h, t2)[(a, b)]) / (2 * h)
            want = angular_integrand(a, b, t, t2)
            assert abs(fd - want) < 1e-6 * max(1.0, abs(want))
        # definite integral against 1D quadrature
        for _ in range(5):
            t2 = rng.uniform(0.2, math.pi - 0.8)
            ta = rng.uniform(0.01, 0.2)
            tb = rng.uniform(ta + 0.05, math.pi - t2 - 0.05)
            got = (_angular_primitives(tb, t2)[(a, b)]
                   - _angular_primitives(ta, t2)[(a, b)])
            want, err = quad(lambda t: angular_integrand(a, b, t, t2), ta, tb,
                             epsabs=1e-13, epsrel=1e-12)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def tangent_basis(n):
    return rotation_to_z(n)[:2]


def sphere_panel(rng, diam, base=None, spread=None):
    """Panel with vertices on the unit sphere, V1 at the base point."""
    if base is None:
        base = rng.standard_normal(3)
        base /= np.linalg.norm(base)
    t1, t2 = tangent_basis(base)
    angs = spread if spread is not None else np.sort(rng.uniform(0, 2 * np.pi, 2))
    while spread is None and angs[1] - angs[0] < 0.4 or angs[1] - angs[0] > 2 * np.pi - 0.4:
        angs = np.sort(rng.uniform(0, 2 * np.pi, 2))
    verts = [base]
    for ang in angs:
        tang = math.cos(ang) * t1 + math.sin(ang) * t2
        rad = diam * rng.uniform(0.7, 1.0) if spread is None else diam
        verts.append(math.cos(rad) * base + math.sin(rad) * tang)
    return Panel(*verts)


def sphere_form(point):
    return FundamentalForm(-1.0, 0.0, -1.0, tangent_basis(point))


def eval_poly2(coeffs, s):
    out = np.zeros(s.shape[0])
    for (a, b), w in coeffs.items():
        if w != 0.0:
            out += w * s[:, 0] ** a * s[:, 1] ** b
    return out


def patch_k_oracle(panel, x, n_x, p=None, singular_corner=None, rel_tol=1e-7):
    """Adaptive quadrature of K(x, y) pi_*[p] over the spherical patch."""
    rot = rotation_to_z(n_x)
    coeffs = (p or PanelPolynomial.constant(1.0)).monomial_coeffs(
        ((panel.verts - x) @ rot.T)[:, :2])

    def f(y):
        diff = x - y
        r = np.linalg.norm(diff, axis=1)
        vals = (diff @ n_x) / (4.0 * math.pi * r ** 3)
        s = ((y - x) @ rot.T)[:, :2]
        return vals * eval_poly2(coeffs, s)

    chart = sphere_patch_chart(*panel.verts)
    res = adaptive_patch(f, chart, REFERENCE_TRIANGLE, rel_tol=rel_tol,
                         singular_corner=singular_corner)
    # the curved chart spoils the corner rule's strict self-similarity, so
    # accept a small certified error estimate in lieu of the flag
    assert res.converged or res.error_estimate < 1e-5 * max(abs(res.value), 1e-8)
    return res.value


def test_on_boundary_zero_form_is_zero():
    rng = np.random.default_rng(5)
    panel = sphere_panel(rng, 0.2)
    x = panel.verts[0]
    form = FundamentalForm(0.0, 0.0, 0.0, tangent_basis(x))
    p = PanelPolynomial.linear(rng.standard_normal(3))
    assert qsa_on_boundary(panel, Target(x, x), form, p) == 0.0
    assert qsa_vertex(panel, Target(x, x), form, p) == 0.0


def test_vertex_zero_angle_interval():
    # projected V3 lands on the positive s1-axis beyond V2: empty wedge
    panel = Panel(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]),
                  np.array([2.0, 0.0, 1.0]))
    target = Target(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    form = FundamentalForm(-1.0, 0.0, -1.0, np.eye(3)[:2])
    assert qsa_vertex(panel, target, form) == 0.0


def test_vertex_path_matches_general_path():
    rng = np.random.default_rng(808)
    for k in range(200):
        diam = 10 ** rng.uniform(-3, -0.7)
        panel = sphere_panel(rng, diam)
        x = panel.verts[0]
        target = Target(x, x)
        form = sphere_form(x)
        p = PanelPolynomial.linear(rng.standard_normal(3))
        via_vertex = qsa_vertex(panel, target, form, p)
        general = qsa_on_boundary(panel, target, form, p, use_vertex_path=False)
        denom = max(abs(via_vertex), abs(general), 1e-14 * panel.area)
        assert abs(via_vertex - general) / denom < 1e-9, f"case {k}"


def test_on_boundary_vertex_convergence_to_curved_patch():
    rng = np.random.default_rng(99)
    base = np.array([0.3, -0.5, 0.81])
    base /= np.linalg.norm(base)
    errs = []
    diams = [0.2, 0.1, 0.05]
    for diam in diams:
        panel = sphere_panel(rng, diam, base=base, spread=np.array([0.3, 1.5]))
        target = Target(base, base)
        got = qsa_on_boundary(panel, target, sphere_form(base))
        want = patch_k_oracle(panel, base, base, singular_corner=0)
        errs.append(abs(got - want) / abs(want))
        assert abs(got - want) < 0.05 * abs(want)
    slope = np.polyfit(np.log(diams), np.log(errs), 1)[0]
    assert 1.4 < slope < 2.7, f"relative errors {errs}"


def test_on_boundary_interior_target():
    # target strictly inside the projected triangle: full-circle slab at c=0
    rng = np.random.default_rng(17)
    panel = sphere_panel(rng, 0.1)
    x = panel.verts.mean(axis=0)
    x /= np.linalg.norm(x)
    target = Target(x, x)
    p = PanelPolynomial.linear([0.3, -0.7, 1.1])
    got = qsa_on_boundary(panel, target, sphere_form(x), p)
    want = 0.0
    for i, j in ((0, 1), (1, 2), (2, 0)):
        sub = Panel(x, panel.verts[i], panel.verts[j])
        want += patch_k_oracle(sub, x, x, p=_carry(p, panel, sub, x),
                               singular_corner=0)
    assert abs(got - want) < 3e-3 * max(abs(want), panel.area)


def _carry(p, panel, sub, x):
    """Re-express p (linear, on panel) by its values at sub's vertices."""
    rot = rotation_to_z(x)
    plan = ((panel.verts - x) @ rot.T)[:, :2]
    coeffs = p.monomial_coeffs(plan)
    s = ((sub.verts - x) @ rot.T)[:, :2]
    return PanelPolynomial.linear(eval_poly2(coeffs, s))


def test_bilinearity_in_polynomial_and_form():
    rng = np.random.default_rng(23)
    panel = sphere_panel(rng, 0.2)
    x = panel.verts[0]
    target = Target(x, x)
    basis = tangent_basis(x)
    k1 = FundamentalForm(-1.2, 0.3, -0.8, basis)
    k2 = FundamentalForm(0.4, -0.1, 0.9, basis)
    ksum = FundamentalForm(k1.k11 + k2.k11, k1.k12 + k2.k12, k1.k22 + k2.k22, basis)
    p1 = PanelPolynomial.linear([1.0, 0.0, 0.0])
    p2 = PanelPolynomial.linear([0.0, 2.0, -1.0])
    psum = PanelPolynomial.linear([1.0, 2.0, -1.0])
    for fn in (qsa_on_boundary, qsa_vertex):
        a = fn(panel, target, k1, psum)
        b = fn(panel, target, k1, p1) + fn(panel, target, k1, p2)
        assert abs(a - b) < 1e-14 + 1e-12 * abs(a)
        a = fn(panel, target, ksum, p1)
        b = fn(panel, target, k1, p1) + fn(panel, target, k2, p1)
        assert abs(a - b) < 1e-14 + 1e-12 * abs(a)


def test_qsa_rejects_quadratic_polynomial():
    rng = np.random.default_rng(1)
    panel = sphere_panel(rng, 0.2)
    x = panel.verts[0]
    p2 = PanelPolynomial.quadratic([1.0, 2.0, 3.0], [1.5, 2.5, 2.0])
    with pytest.raises(ValueError, match="degree"):
        qsa_on_boundary(panel, Target(x, x), sphere_form(x), p2)


def test_off_boundary_flat_consistency():
    # zero curvature: the corrected formula must reproduce the exact
    # flat-panel integral for any target normal
    rng = np.random.default_rng(44)
    for _ in range(25):
        nplane = rng.standard_normal(3)
        nplane /= np.linalg.norm(nplane)
        basis = tangent_basis(nplane)
        foot = rng.standard_normal(3)
        verts = [foot + s[0] * basis[0] + s[1] * basis[1]
                 for s in rng.uniform(-1, 1, (3, 2))]
        try:
            panel = Panel(*verts)
        except Exception:
            continue
        c = rng.uniform(0.05, 1.0) * (1 if rng.uniform() < 0.5 else -1)
        n_x = rng.standard_normal(3)
        n_x /= np.linalg.norm(n_x)
        target = Target(foot + c * nplane, n_x)
        form = FundamentalForm(0.0, 0.0, 0.0, basis)
        p = PanelPolynomial.linear(rng.standard_normal(3))
        got = _qsa_off_boundary(panel, target, form, c, p)
        want = integrate_k_panel(panel, target, p)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_off_boundary_sphere_patch_both_sides():
    # target above and below the surface along the pole; n(x) fixed and
    # unrelated to the surface normal.  With the height fixed and the patch
    # shrinking, the quadratic surface model is exact through second order
    # about the foot point, so the mismatch against the true curved patch
    # decays at least like diam^2.
    pole = np.array([0.0, 0.0, 1.0])
    n_x = np.array([math.sqrt(1 / 3)] * 3)
    form = sphere_form(pole)
    h = 0.02
    for sign in (+1.0, -1.0):
        x = (1.0 + sign * h) * pole
        errs = []
        diams = [0.02, 0.01, 0.005]
        for diam in diams:
            panel = sphere_panel(None, diam, base=pole, spread=np.array([0.9, 2.2]))
            target = Target(x, n_x)
            got = _qsa_off_boundary(panel, target, form, sign * h)
            want = patch_k_oracle(panel, x, n_x)
            errs.append(max(abs(got - want), 1e-16))
            assert abs(got - want) < 0.5 * diam * diam, f"sign {sign}: {errs}"
        slope = np.polyfit(np.log(diams), np.log(errs), 1)[0]
        assert slope > 1.5, f"sign {sign}: errors {errs}"


def test_off_boundary_fixed_height_is_uniformly_accurate():
    # when the panel is much larger than the target height the error no
    # longer shrinks with panel size (it concentrates near the foot), but
    # it stays small relative to the integral
    pole = np.array([0.0, 0.0, 1.0])
    n_x = np.array([math.sqrt(1 / 3)] * 3)
    form = sphere_form(pole)
    h = 1e-3
    x = (1.0 + h) * pole
    for diam in (0.2, 0.05):
        panel = sphere_panel(None, diam, base=pole, spread=np.array([0.9, 2.2]))
        got = _qsa_off_boundary(panel, Target(x, n_x), form, h)
        want = patch_k_oracle(panel, x, n_x)
        assert abs(got - want) < 5e-3 * abs(want)


def test_off_boundary_rejects_on_surface_target():
    rng = np.random.default_rng(2)
    panel = sphere_panel(rng, 0.2)
    x = panel.verts[0]
    with pytest.raises(DivergentIntegral):
        _qsa_off_boundary(panel, Target(x, x), sphere_form(x), 0.0)


def test_foot_point_probes():
    foot, c = foot_point(sphere_probe(), np.array([0.0, 0.0, 1.5]))
    assert np.allclose(foot, [0.0, 0.0, 1.0], atol=1e-12)
    assert abs(c - 0.5) < 1e-12

    plane = type("P", (), {})()
    plane.value = lambda x: x[2]
    plane.gradient = lambda x: np.array([0.0, 0.0, 1.0])
    foot, c = foot_point(plane, np.array([3.0, 4.0, -2.0]))
    assert np.allclose(foot, [3.0, 4.0, 0.0], atol=1e-12)
    assert abs(c + 2.0) < 1e-12

    probe = torus_probe(0.5, 0.2)
    rng = np.random.default_rng(31)
    for _ in range(20):
        u = rng.uniform(0, 2 * np.pi)
        x = np.array([0.72 * math.cos(u), 0.72 * math.sin(u),
                      rng.uniform(-0.05, 0.05)])
        foot, c = foot_point(probe, x)
        assert abs(probe.value(foot)) < 1e-10
        assert abs(np.linalg.norm(x - foot) - abs(c)) < 1e-9


def test_foot_point_nonconvergent():
    bad = type("P", (), {})()
    bad.value = lambda x: 1.0
    bad.gradient = lambda x: np.array([0.0, 0.0, 1.0])
    with pytest.raises(ConvergenceFailure):
        foot_point(bad, np.zeros(3))


DENSITIES = [PanelPolynomial.linear(np.eye(3)[j]) for j in range(3)] \
    + [PanelPolynomial.constant(1.0)]


def _incident_rows(nodes, tris, normals, forms):
    """Every (node, incident panel) pair as qsa_vertex_rows arguments."""
    pairs = [(i, p) for p, tri in enumerate(tris) for i in tri]
    rows = np.array([i for i, _ in pairs])
    panels = np.array([p for _, p in pairs])
    first = np.array([list(tris[p]).index(i) for i, p in pairs])
    return (nodes[tris[panels]], first, nodes[rows], normals[rows],
            forms[rows]), rows


def _joined(forms, join=np.concatenate):
    """One stacked form from stacked forms (or, with np.stack, from
    one-node forms)."""
    return FundamentalForm(*(join([getattr(f, k) for f in forms])
                             for k in ("k11", "k12", "k22", "basis")))


@pytest.mark.parametrize("case", ["ico2", "torus"])
def test_vertex_rows_match_one_row_calls(case):
    if case == "ico2":
        mesh = generate_sphere_mesh(2)
        nodes, tris = mesh.nodes, mesh.triangles
        normals = nodes / np.linalg.norm(nodes, axis=1, keepdims=True)
        forms = sphere_forms(mesh, radius=1.0)
    else:
        meshes, _, probes = neumann_problem(generate_sphere_mesh(2), cos_phi,
                                            probe=sphere_probe(1.0),
                                            torus=(0.4, 0.2, 24, 12))
        sphere, torus = meshes
        nodes = np.concatenate([sphere.nodes, torus.nodes])
        tris = np.concatenate([sphere.triangles, torus.triangles + sphere.n_nodes])
        normals = np.concatenate([sphere.nodes, torus.node_normals])
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        forms = _joined([sphere_forms(sphere, radius=1.0),
                         probe_forms(probes[1], torus.nodes, normals[sphere.n_nodes:])])
    args, rows = _incident_rows(nodes, tris, normals, forms)
    batched = qsa_vertex_rows(*args, DENSITIES)
    verts, first, x, n = args[:4]
    for m in range(len(rows)):
        # the one-row reference relabels the panel so the target is first
        order = (first[m] + np.arange(3)) % 3
        panel, target, form = Panel(*verts[m][order]), Target(x[m], n[m]), forms[rows[m]]
        single = np.array([qsa_vertex(panel, target, form,
                                      PanelPolynomial(h.form[np.ix_(order, order)], h.degree))
                           for h in DENSITIES])
        assert np.abs(batched[m] - single).max() <= 1e-13 * np.abs(single).max()


def test_vertex_rows_zero_interval_and_degenerate_rows():
    rng = np.random.default_rng(41)
    good = [sphere_panel(rng, 0.2) for _ in range(2)]
    # projected third vertex on the positive s1-axis beyond the second
    flat = Panel(np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 1.0]))
    panels = [good[0], flat, good[1]]
    normals = np.array([good[0].v1, [0.0, 0.0, 1.0], good[1].v1])
    forms = [sphere_form(good[0].v1), FundamentalForm(-1.0, 0.0, -1.0, np.eye(3)[:2]),
             sphere_form(good[1].v1)]

    def rows(panels, normals, forms):
        verts = np.array([p.verts for p in panels])
        return (verts, np.zeros(len(panels), dtype=int), verts[:, 0], normals,
                _joined(forms, np.stack))

    out = qsa_vertex_rows(*rows(panels, normals, forms), DENSITIES)
    assert np.all(out[1] == 0.0)
    for m in (0, 2):
        target = Target(panels[m].v1, normals[m])
        single = [qsa_vertex(panels[m], target, forms[m], h) for h in DENSITIES]
        assert np.all(out[m] != 0.0)
        assert np.abs(out[m] - single).max() <= 1e-13 * np.abs(single).max()
    # projected third vertex on the negative s1-axis: no interior angle
    behind = Panel(np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.5]))
    with pytest.raises(DegenerateTriangle):
        qsa_vertex_rows(*rows(panels + [behind], np.vstack([normals, [0.0, 0.0, 1.0]]),
                              forms + [forms[1]]), DENSITIES)
    # second vertex straight above the target along its normal
    above = Panel(np.zeros(3), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DegenerateTriangle):
        qsa_vertex_rows(*rows([above] + panels, np.vstack([[0.0, 0.0, 1.0], normals]),
                              [forms[1]] + forms), DENSITIES)


def test_density_list_matches_one_call_per_density():
    # one decomposition serves a list of densities; each slot equals the
    # one-density call bit for bit on the vertex, general and off-surface
    # paths, and the all-zero density gives 0.0
    rng = np.random.default_rng(17)
    densities = DENSITIES + [PanelPolynomial.constant(0.0)]
    for _ in range(20):
        panel = sphere_panel(rng, 0.1)
        form = FundamentalForm(-1.0, 0.3, -0.6, tangent_basis(panel.v1))
        inner = panel.centroid / np.linalg.norm(panel.centroid)
        n_x = rng.standard_normal(3)
        calls = [lambda p: qsa_on_boundary(panel, Target(panel.v1, panel.v1), form, p),
                 lambda p: qsa_on_boundary(panel, Target(inner, inner), form, p),
                 lambda p: _qsa_off_boundary(panel, Target(1.001 * inner, n_x / np.linalg.norm(n_x)),
                                             form, 1e-3, p)]
        for call in calls:
            got = call(densities)
            assert got.dtype == float and got.shape == (len(densities),)
            assert got.tolist() == [call(h) for h in densities]
            assert got[-1] == 0.0
    with pytest.raises(DivergentIntegral):
        _qsa_off_boundary(panel, Target(inner, inner), form, 0.0, densities)
