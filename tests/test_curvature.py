"""Tests for shape operators, fundamental forms, and mesh curvature fits."""

import math

import numpy as np
import pytest

from tripanel.curvature import (
    FundamentalForm,
    SdfProbe,
    estimate_fundamental_form,
    estimate_fundamental_forms,
    estimate_normals,
    fundamental_form_from_shape,
    shape_operator,
    sphere_probe,
    torus_probe,
)
from tripanel.errors import MeshError
from tripanel.geometry import Panel, Target, normalize_frame, rotation_to_z
from tripanel.mesh_io import SurfaceMesh, generate_sphere_mesh, generate_torus_mesh


def fd_gradient(f, x, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_jacobian(g, x, h=1e-6):
    j = np.zeros((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        j[:, i] = (np.asarray(g(x + e)) - np.asarray(g(x - e))) / (2 * h)
    return j


def random_surface_point(rng, probe_kind):
    if probe_kind == "sphere":
        x = rng.standard_normal(3)
        return x / np.linalg.norm(x) * (1.0 + 0.1 * rng.uniform(-1, 1))
    u, v = rng.uniform(0, 2 * np.pi, 2)
    r = 0.2 * (1.0 + 0.2 * rng.uniform(-1, 1))
    rho = 0.5 + r * math.cos(v)
    return np.array([rho * math.cos(u), rho * math.sin(u), r * math.sin(v)])


def test_probe_derivatives_match_finite_differences():
    rng = np.random.default_rng(42)
    for kind, probe in [("sphere", sphere_probe()), ("torus", torus_probe(0.5, 0.2))]:
        for _ in range(25):
            x = random_surface_point(rng, kind)
            g = probe.gradient(x)
            assert np.allclose(g, fd_gradient(probe.value, x), atol=1e-6)
            h = probe.hessian(x)
            assert np.allclose(h, h.T, atol=1e-12)
            assert np.allclose(h, fd_jacobian(probe.gradient, x), atol=1e-5)


def test_shape_operator_plane_is_zero():
    n = np.array([1.0, 2.0, -0.5])
    probe = SdfProbe(lambda x: n @ x + 0.3,
                     lambda x: n.copy(),
                     lambda x: np.zeros((3, 3)))
    s = shape_operator(probe, np.array([0.2, -1.0, 3.0]))
    assert np.allclose(s, 0.0)


def test_shape_operator_sphere():
    rng = np.random.default_rng(7)
    probe = sphere_probe()
    for _ in range(10):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        want = -(np.eye(3) - np.outer(x, x))
        assert np.allclose(shape_operator(probe, x), want, atol=1e-12)


def test_shape_operator_scaling_invariance():
    base = torus_probe(0.5, 0.2)
    lam = 7.3
    scaled = SdfProbe(lambda x: lam * base.value(x),
                      lambda x: lam * base.gradient(x),
                      lambda x: lam * base.hessian(x))
    x = np.array([0.71, 0.05, 0.03])
    assert np.allclose(shape_operator(base, x), shape_operator(scaled, x), atol=1e-12)


def test_shape_operator_vanishing_gradient():
    probe = SdfProbe(lambda x: 0.0, lambda x: np.zeros(3), lambda x: np.eye(3))
    with pytest.raises(ValueError, match="gradient"):
        shape_operator(probe, np.zeros(3))


def test_fundamental_form_sphere_pole():
    panel = Panel(np.array([0.01, 0.0, 1.0]),
                  np.array([-0.005, 0.008, 1.0]),
                  np.array([-0.005, -0.008, 1.0]))
    frame = normalize_frame(panel, Target(np.array([0.0, 0.0, 1.0])))
    s = shape_operator(sphere_probe(), np.array([0.0, 0.0, 1.0]))
    form = fundamental_form_from_shape(s, frame.rotation)
    assert np.allclose(form.matrix, -np.eye(2), atol=1e-12)


def test_fundamental_form_plane_and_cylinder():
    # plane
    n = np.array([0.0, 0.0, 1.0])
    probe = SdfProbe(lambda x: x[2], lambda x: n.copy(), lambda x: np.zeros((3, 3)))
    panel = Panel(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                  np.array([-1.0, -1.0, 0.0]))
    frame = normalize_frame(panel, Target(np.array([0.0, 0.0, 0.0])))
    form = fundamental_form_from_shape(shape_operator(probe, np.zeros(3)), frame.rotation)
    assert np.allclose(form.matrix, 0.0)

    # cylinder of radius a about the z axis, evaluated at (a, 0, 0)
    a = 0.7

    def cyl_grad(x):
        rho = math.hypot(x[0], x[1])
        return np.array([x[0] / rho, x[1] / rho, 0.0])

    def cyl_hess(x):
        rho = math.hypot(x[0], x[1])
        g2 = np.array([x[0] / rho, x[1] / rho])
        h = np.zeros((3, 3))
        h[:2, :2] = (np.eye(2) - np.outer(g2, g2)) / rho
        return h

    probe = SdfProbe(lambda x: math.hypot(x[0], x[1]) - a, cyl_grad, cyl_hess)
    panel = Panel(np.array([a, 0.01, 0.0]), np.array([a, 0.0, 0.01]),
                  np.array([a, -0.01, -0.01]))
    frame = normalize_frame(panel, Target(np.array([a, 0.0, 0.0])))
    form = fundamental_form_from_shape(shape_operator(probe, np.array([a, 0.0, 0.0])),
                                       frame.rotation)
    # in the basis (tangent around the circle, axis direction)
    aligned = form.express_in(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert np.allclose(aligned.matrix, np.diag([-1.0 / a, 0.0]), atol=1e-12)


def test_basis_covariance():
    # rotating the in-plane basis conjugates the form and leaves the
    # quadratic -1/2 sum K_ij s_i s_j invariant
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        b = rotation_to_z(n)[:2]
        k = rng.standard_normal((2, 2))
        k = 0.5 * (k + k.T)
        form = FundamentalForm(k[0, 0], k[0, 1], k[1, 1], b)
        alpha = rng.uniform(0, 2 * np.pi)
        b2 = np.array([math.cos(alpha) * b[0] + math.sin(alpha) * b[1],
                       -math.sin(alpha) * b[0] + math.cos(alpha) * b[1]])
        form2 = form.express_in(b2)
        s = rng.standard_normal(2)
        w = s[0] * b[0] + s[1] * b[1]
        s2 = np.array([w @ b2[0], w @ b2[1]])
        q1 = -0.5 * s @ form.matrix @ s
        q2 = -0.5 * s2 @ form2.matrix @ s2
        assert abs(q1 - q2) < 1e-10
        # round trip restores the entries
        back = form2.express_in(b)
        assert np.allclose(back.matrix, form.matrix, atol=1e-12)


def flat_fan_mesh():
    nodes = [[0.0, 0.0, 0.0]]
    for k in range(6):
        ang = 2 * np.pi * k / 6
        nodes.append([math.cos(ang), math.sin(ang), 0.0])
    tris = [[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)]
    return SurfaceMesh(np.array(nodes), np.array(tris))


def test_estimate_normals_flat_fan_exact():
    mesh = flat_fan_mesh()
    normals = estimate_normals(mesh)
    assert np.allclose(normals, [0.0, 0.0, 1.0], atol=1e-15)


def test_estimate_normals_sphere():
    worst = {}
    for s in (2, 3):
        mesh = generate_sphere_mesh(s)
        normals = estimate_normals(mesh)
        cosang = np.einsum("ij,ij->i", normals, mesh.nodes)
        worst[s] = np.max(np.arccos(np.clip(cosang, -1.0, 1.0)))
    assert worst[3] < math.radians(1.0)
    assert worst[3] < worst[2]


def test_estimate_normals_isolated_node():
    mesh = flat_fan_mesh()
    nodes = np.vstack([mesh.nodes, [5.0, 5.0, 5.0]])
    with pytest.raises(MeshError, match="incident"):
        estimate_normals(SurfaceMesh(nodes, mesh.triangles))


def grid_mesh(n=5):
    nodes = [[i * 0.1, j * 0.1, 0.0] for j in range(n) for i in range(n)]
    tris = []
    for j in range(n - 1):
        for i in range(n - 1):
            a = j * n + i
            tris.append([a, a + 1, a + n])
            tris.append([a + 1, a + n + 1, a + n])
    return SurfaceMesh(np.array(nodes), np.array(tris))


def test_estimate_fundamental_form_planar_patch():
    mesh = grid_mesh()
    center = 2 * 5 + 2
    form = estimate_fundamental_form(mesh, center)
    assert np.allclose(form.matrix, 0.0, atol=1e-10)
    assert np.allclose(form.basis @ form.basis.T, np.eye(2), atol=1e-12)


def test_estimate_fundamental_form_sphere():
    mesh = generate_sphere_mesh(4)
    forms = estimate_fundamental_forms(mesh)
    eigs = np.array([f.principal_curvatures() for f in forms])
    assert np.max(np.abs(eigs + 1.0)) < 5e-2


def test_trace_consistency_sphere():
    worst = {}
    for s in (3, 4):
        mesh = generate_sphere_mesh(s)
        forms = estimate_fundamental_forms(mesh)
        traces = np.array([f.k11 + f.k22 for f in forms])
        worst[s] = np.max(np.abs(traces + 2.0))
    assert worst[4] < 0.1
    assert worst[4] < worst[3]


def test_estimate_fundamental_form_torus_equator():
    major, minor = 0.4, 0.2
    n_u, n_v = 48, 24
    mesh = generate_torus_mesh(major, minor, n_u, n_v)
    mesh = SurfaceMesh(mesh.nodes, mesh.triangles)  # drop analytic normals
    normals = estimate_normals(mesh)
    want = np.sort([-1.0 / minor, -1.0 / (major + minor)])
    for i in range(0, n_u, 6):
        node = i * n_v  # v = 0 ring: the outer equator
        form = estimate_fundamental_form(mesh, node, node_normals=normals)
        got = np.sort(form.principal_curvatures())
        assert np.all(np.abs(got - want) < 0.1 * np.abs(want))


def test_estimate_fundamental_form_errors():
    # a single triangle: even the widened ring has too few nodes
    mesh = SurfaceMesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                       np.array([[0, 1, 2]]))
    with pytest.raises(MeshError, match="neighbors"):
        estimate_fundamental_form(mesh, 0)


def test_direct_normal_gradient_system_is_ill_conditioned():
    # Solving n(y) - n(x) = G (y - x) for the full 3x3 normal gradient
    # directly is not viable: the neighbor offsets collapse onto the
    # tangent plane under refinement, so the 9-unknown least-squares
    # system's condition number blows up like 1/h.  This is why the
    # graph-fit estimator is used instead.
    conds, hs = [], []
    for s in (1, 2, 3, 4):
        mesh = generate_sphere_mesh(s)
        ring = sorted(set(mesh.triangles[np.any(mesh.triangles == 0, axis=1)].ravel()) - {0})
        d = mesh.nodes[ring] - mesh.nodes[0]
        rows = []
        for k in range(len(ring)):
            for i in range(3):
                row = np.zeros(9)
                row[3 * i:3 * i + 3] = d[k]
                rows.append(row)
        conds.append(np.linalg.cond(np.array(rows)))
        hs.append(np.mean(np.linalg.norm(d, axis=1)))
    slope = np.polyfit(np.log(hs), np.log(conds), 1)[0]
    assert slope <= -0.9
