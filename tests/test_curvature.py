"""Tests for shape operators, fundamental forms, and mesh curvature fits."""

import math

import numpy as np
import pytest

from tripanel import curvature
from tripanel.bem import _probe_normals, probe_forms, sphere_forms
from tripanel.curvature import (
    FundamentalForm,
    SdfProbe,
    estimate_fundamental_forms,
    estimate_normals,
    shape_operator,
    sphere_probe,
    torus_probe,
)
from tripanel.errors import MeshError
from tripanel.geometry import Panel, rotation_to_z
from tripanel.mesh_io import (
    SurfaceMesh,
    generate_fibonacci_sphere_mesh,
    generate_sphere_mesh,
    generate_torus_mesh,
)


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


@pytest.mark.parametrize("major, minor", [(0.2, 0.4), (0.4, 0.4), (0.4, 0.0)])
def test_torus_probe_needs_minor_below_major(major, minor):
    # the generator's condition: otherwise the tube crosses the axis
    with pytest.raises(ValueError, match="need 0 < minor < major"):
        torus_probe(major, minor)


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan])
def test_sphere_probe_needs_positive_radius(radius):
    with pytest.raises(ValueError, match="need radius > 0"):
        sphere_probe(radius)


@pytest.mark.parametrize("make", [
    lambda: sphere_probe(math.inf),
    lambda: torus_probe(math.inf, 0.2),
    lambda: torus_probe(math.inf, math.inf),
], ids=["sphere-inf", "torus-major-inf", "torus-both-inf"])
def test_probes_need_finite_sizes(make):
    # sphere_forms' rule: an infinite size would give an infinite value
    with pytest.raises(ValueError, match="finite|< inf"):
        make()


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
    form = probe_forms(sphere_probe(), np.array([[0.0, 0.0, 1.0]]),
                       panel.normal[None])
    assert np.allclose(form.matrix, -np.eye(2), atol=1e-12)


def test_fundamental_form_plane_and_cylinder():
    # plane
    n = np.array([0.0, 0.0, 1.0])
    probe = SdfProbe(lambda x: x[..., 2], lambda x: np.zeros(np.shape(x)) + n,
                     lambda x: np.zeros(np.shape(x) + (3,)))
    panel = Panel(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                  np.array([-1.0, -1.0, 0.0]))
    form = probe_forms(probe, np.zeros((1, 3)), panel.normal[None])
    assert np.allclose(form.matrix, 0.0)

    # cylinder of radius a about the z axis, evaluated at (a, 0, 0)
    a = 0.7

    def cyl_grad(x):
        rho = np.hypot(x[..., 0], x[..., 1])[..., None]
        return np.concatenate([x[..., :2] / rho, np.zeros_like(rho)], axis=-1)

    def cyl_hess(x):
        rho = np.hypot(x[..., 0], x[..., 1])[..., None, None]
        h = np.zeros(np.shape(x) + (3,))
        h[..., :2, :2] = np.eye(2) / rho - curvature._outer(x[..., :2], x[..., :2]) / rho ** 3
        return h

    probe = SdfProbe(lambda x: np.hypot(x[..., 0], x[..., 1]) - a, cyl_grad, cyl_hess)
    panel = Panel(np.array([a, 0.01, 0.0]), np.array([a, 0.0, 0.01]),
                  np.array([a, -0.01, -0.01]))
    form = probe_forms(probe, np.array([[a, 0.0, 0.0]]), panel.normal[None])[0]
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
    form = estimate_fundamental_forms(mesh)[center]
    assert np.allclose(form.matrix, 0.0, atol=1e-10)
    assert np.allclose(form.basis @ form.basis.T, np.eye(2), atol=1e-12)


def test_estimate_fundamental_form_sphere():
    mesh = generate_sphere_mesh(4)
    eigs = estimate_fundamental_forms(mesh).principal_curvatures()
    assert eigs.shape == (mesh.n_nodes, 2)
    assert np.max(np.abs(eigs + 1.0)) < 5e-2


def test_trace_consistency_sphere():
    worst = {}
    for s in (3, 4):
        mesh = generate_sphere_mesh(s)
        forms = estimate_fundamental_forms(mesh)
        traces = forms.k11 + forms.k22
        worst[s] = np.max(np.abs(traces + 2.0))
    assert worst[4] < 0.1
    assert worst[4] < worst[3]


def test_estimate_fundamental_form_torus_equator():
    major, minor = 0.4, 0.2
    n_u, n_v = 48, 24
    mesh = generate_torus_mesh(major, minor, n_u, n_v)
    mesh = SurfaceMesh(mesh.nodes, mesh.triangles)  # drop analytic normals
    forms = estimate_fundamental_forms(mesh, estimate_normals(mesh))
    want = np.sort([-1.0 / minor, -1.0 / (major + minor)])
    for i in range(0, n_u, 6):
        node = i * n_v  # v = 0 ring: the outer equator
        got = np.sort(forms[node].principal_curvatures())
        assert np.all(np.abs(got - want) < 0.1 * np.abs(want))


def test_estimate_fundamental_form_errors():
    # a single triangle: even the widened ring has too few nodes
    mesh = SurfaceMesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                       np.array([[0, 1, 2]]))
    with pytest.raises(MeshError, match="neighbors"):
        estimate_fundamental_forms(mesh)


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


def test_stacked_form_matches_one_node_forms():
    # matrix, principal curvatures, express_in and rows of a stacked form
    # against the same calls on each node's own form
    rng = np.random.default_rng(29)
    normals = rng.standard_normal((12, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    bases = np.array([rotation_to_z(n)[:2] for n in normals])
    k11, k12, k22 = rng.standard_normal((3, 12))
    stacked = FundamentalForm(k11, k12, k22, bases)
    alpha = rng.uniform(0.0, 2.0 * np.pi, 12)[:, None]
    turned = np.stack([np.cos(alpha) * bases[:, 0] + np.sin(alpha) * bases[:, 1],
                       -np.sin(alpha) * bases[:, 0] + np.cos(alpha) * bases[:, 1]],
                      axis=1)
    moved = stacked.express_in(turned)
    assert stacked.matrix.shape == (12, 2, 2) and moved.k11.shape == (12,)
    for i in range(12):
        one = FundamentalForm(k11[i], k12[i], k22[i], bases[i])
        assert np.array_equal(stacked.matrix[i], one.matrix)
        assert np.array_equal(stacked[i].matrix, one.matrix)
        assert np.array_equal(stacked[i].basis, one.basis)
        assert np.allclose(stacked.principal_curvatures()[i],
                           one.principal_curvatures(), rtol=0.0, atol=1e-15)
        assert np.allclose(moved.matrix[i], one.express_in(turned[i]).matrix,
                           rtol=0.0, atol=1e-14)
    rows = np.array([3, 0, 7])
    assert np.array_equal(stacked[rows].matrix, stacked.matrix[rows])
    assert np.array_equal(stacked[rows].basis, bases[rows])


def _torus_and_sphere():
    torus = generate_torus_mesh(0.4, 0.2, 24, 12)
    return [(SurfaceMesh(torus.nodes, torus.triangles), torus_probe(0.4, 0.2)),
            (generate_sphere_mesh(2), sphere_probe(1.0))]


def test_each_producer_builds_one_stacked_form(monkeypatch):
    built = []
    init = FundamentalForm.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FundamentalForm, "__init__", counted)
    for mesh, probe in _torus_and_sphere():
        normals = _probe_normals(probe, mesh.nodes)
        for make in (lambda: sphere_forms(mesh, radius=1.0),
                     lambda: probe_forms(probe, mesh.nodes, normals),
                     lambda: estimate_fundamental_forms(mesh, normals)):
            built.clear()
            form = make()
            assert len(built) == 1
            assert form.k11.shape == form.k12.shape == form.k22.shape == (mesh.n_nodes,)
            assert form.basis.shape == (mesh.n_nodes, 2, 3)


def test_principal_curvatures_do_not_depend_on_the_basis():
    # the stacked probe and fit forms take tangent_frames bases; restricting
    # the shape operator, or fitting, in each node's rotation_to_z frame
    # gives the same principal curvatures
    for mesh, probe in _torus_and_sphere():
        normals = _probe_normals(probe, mesh.nodes)
        shapes = shape_operator(probe, mesh.nodes)
        frames = [rotation_to_z(n) for n in normals]
        want = np.array([np.linalg.eigvalsh(r[:2] @ s @ r[:2].T)
                         for r, s in zip(frames, shapes)])
        got = probe_forms(probe, mesh.nodes, normals).principal_curvatures()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        fits = curvature._fit(mesh, np.array(frames))
        want = np.array([np.linalg.eigvalsh([[a, b], [b, c]]) for a, b, c in fits])
        got = estimate_fundamental_forms(mesh, normals).principal_curvatures()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def bipyramid_mesh(m=10):
    # a wavy m-gon closed by two apexes of valence m >= 8 (1-ring fits);
    # the equator nodes have valence 4 and take the 2-ring
    ang = 2 * np.pi * np.arange(m) / m
    nodes = np.vstack([np.c_[np.cos(ang), np.sin(ang), 0.1 * np.cos(3 * ang)],
                       [[0.0, 0.0, 1.0], [0.0, 0.0, -1.2]]])
    tris = [[i, (i + 1) % m, m] for i in range(m)] + \
        [[(i + 1) % m, i, m + 1] for i in range(m)]
    return SurfaceMesh(nodes, np.array(tris))


def reference_rings(mesh):
    """Each node's 1-ring, or its 2-ring without itself below 8 nodes."""
    adj = [set() for _ in range(mesh.n_nodes)]
    for tri in mesh.triangles:
        for i in tri:
            adj[i].update(int(j) for j in tri if j != i)
    rings = []
    for node, ring in enumerate(adj):
        if len(ring) < 8:
            ring = ring.union(*(adj[j] for j in ring)) - {node}
        rings.append(sorted(ring))
    return rings


def reference_fit(mesh, frames):
    """The quadratic fit one node at a time: column-scaled normal equations."""
    out = []
    for node, (frame, ring) in enumerate(zip(frames, reference_rings(mesh))):
        s1, s2, h = ((mesh.nodes[ring] - mesh.nodes[node]) @ frame.T).T
        a = np.column_stack([s1 * s1, s2 * s2, s1 * s2, s1, s2])
        scale = np.sqrt((a * a).sum(axis=0))
        a_s = a / scale
        coef = np.linalg.solve(a_s.T @ a_s, a_s.T @ h) / scale
        out.append([2.0 * coef[0], coef[2], 2.0 * coef[1]])
    return np.array(out)


def _fit_meshes():
    torus = generate_torus_mesh(0.4, 0.2, 24, 12)
    return [generate_sphere_mesh(2), generate_fibonacci_sphere_mesh(150),
            SurfaceMesh(torus.nodes, torus.triangles), bipyramid_mesh(10),
            bipyramid_mesh(12)]


@pytest.mark.parametrize("mesh", _fit_meshes(),
                         ids=["ico2", "fib150", "torus", "bipyramid10", "bipyramid12"])
def test_fit_matches_a_per_node_reference(mesh):
    indptr, ids = curvature._rings(mesh)
    rings = reference_rings(mesh)
    assert [ids[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])] == rings
    normals = estimate_normals(mesh)
    forms = estimate_fundamental_forms(mesh, normals)
    frames = np.concatenate([forms.basis, normals[:, None]], axis=1)
    got = np.column_stack([forms.k11, forms.k12, forms.k22])
    want = reference_fit(mesh, frames)
    assert np.all(np.abs(got - want).max(axis=1) <= 1e-13 * np.abs(want).max(axis=1))


def test_bipyramid_apexes_fit_their_one_ring():
    mesh = bipyramid_mesh(10)
    indptr, ids = curvature._rings(mesh)
    assert np.array_equal(np.diff(indptr), [11] * 10 + [10, 10])
    assert ids[indptr[10]:indptr[11]].tolist() == list(range(10))


def test_fit_solves_once_per_ring_size(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(m, b):
        calls.append(len(m))
        return solve(m, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for mesh in _fit_meshes():
        sizes = np.unique([len(r) for r in reference_rings(mesh)])
        calls.clear()
        estimate_fundamental_forms(mesh)
        assert len(calls) == len(sizes)
        assert sum(calls) == mesh.n_nodes


def test_fit_errors_name_a_defective_node():
    mesh = grid_mesh()
    # normals in the grid's plane: the frames project every ring onto the
    # t2 axis, so the s1 columns vanish
    with pytest.raises(MeshError, match=r"^node 0: rank-deficient neighborhood "
                                        r"\(collinear projection\)$"):
        estimate_fundamental_forms(mesh, np.tile([0.0, 1.0, 0.0], (25, 1)))
    # t1 = t2: the s1 and s2 columns coincide, the normal matrix is singular
    frames = np.tile([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], (25, 1, 1))
    with pytest.raises(MeshError, match=r"^node 0: rank-deficient neighborhood$"):
        curvature._fit(mesh, frames)
    frames = np.tile(np.eye(3), (25, 1, 1))
    frames[12, 0, 0] = np.nan
    with pytest.raises(MeshError, match=r"^node 12: quadratic fit did not converge$"):
        curvature._fit(mesh, frames)


def test_every_form_producer_checks_its_normals():
    # one rule for node normals: (n_nodes, 3), finite, unit to 1e-12
    mesh = generate_sphere_mesh(1)
    normals = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1, keepdims=True)
    probe = sphere_probe(1.0)
    producers = [lambda n: estimate_fundamental_forms(mesh, n),
                 lambda n: probe_forms(probe, mesh.nodes, n)]
    for make in producers:
        for rows in (np.arange(41), np.r_[0:42, 0:1]):
            with pytest.raises(MeshError, match=rf"has 42 nodes but normals of "
                                                rf"shape \({len(rows)}, 3\)"):
                make(normals[rows])
        with pytest.raises(MeshError, match=r"node 0 has a normal of length 2\.0, "
                                            r"not a unit vector"):
            make(2.0 * normals)
        bad = normals.copy()
        bad[7, 1] = np.nan
        with pytest.raises(MeshError, match="node 7 has a non-finite normal"):
            make(bad)
        assert np.isfinite(make(normals).principal_curvatures()).all()
