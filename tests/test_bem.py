"""Collocation BEM: assembly structure, strategies, solves, potentials."""

import math

import numpy as np
import pytest

from tripanel import bem
from tripanel.batch import k_panel_entries
from tripanel.bem import (
    BemSystem,
    Regularization,
    SingularStrategy,
    assemble,
    cos_phi,
    enclosing_flux,
    evaluate_potential,
    export_solution,
    identity_row_parts,
    kernel_k,
    neumann_problem,
    nodal_areas,
    potential_gradient,
    probe_forms,
    single_layer_matrix,
    solve,
    sphere_forms,
    sphere_identity_test,
    torus_flux_diagnostic,
    x1_flux,
)
from tripanel.curvature import (
    SdfProbe,
    estimate_fundamental_forms,
    estimate_normals,
    sphere_probe,
    torus_probe,
)
from tripanel.errors import ConvergenceFailure, DivergentIntegral, MeshError
from tripanel.geometry import Panel, Target
from tripanel.mesh_io import (
    SurfaceMesh,
    generate_fibonacci_sphere_mesh,
    generate_sphere_mesh,
    generate_torus_mesh,
    golden_spiral,
)
from tripanel.oracle import REFERENCE_TRIANGLE, adaptive_triangle
from tripanel.panel_integrals import (
    PanelPolynomial,
    integrate_g_panel,
    integrate_k_panel,
)
from tripanel.qsa import foot_point, qsa_on_boundary


HATS = [PanelPolynomial.linear(np.eye(3)[j]) for j in range(3)]


def unit_normals(mesh):
    return mesh.nodes / np.linalg.norm(mesh.nodes, axis=1, keepdims=True)


def sphere_torus_problem():
    """The ico-1 sphere around the 8 x 4 torus with cos-phi data."""
    return neumann_problem(generate_sphere_mesh(1), cos_phi,
                           probe=sphere_probe(1.0), torus=(0.4, 0.2, 8, 4))


def ellipsoid_problem():
    """A bare ico-1 ellipsoid with asymmetric Neumann data."""
    base = generate_sphere_mesh(1)
    mesh = SurfaceMesh(base.nodes * np.array([1.0, 0.7, 1.3]), base.triangles)
    return neumann_problem(mesh, lambda x: x[0] + x[1] ** 2)


def test_nodal_areas_sum_to_mesh_area():
    mesh = generate_sphere_mesh(2)
    v = mesh.nodes[mesh.triangles]
    total = 0.5 * np.linalg.norm(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1).sum()
    assert abs(nodal_areas(mesh).sum() - total) < 1e-12 * total


def test_assemble_k_row_sums_near_half():
    # K-part row sums approximate the closed-surface identity value 0.5,
    # so the assembled rows (with the -1/2 jump on the diagonal) sum to ~0
    (mesh,), system, _ = neumann_problem(generate_sphere_mesh(2), x1_flux,
                                         probe=sphere_probe(1.0))
    assert np.isfinite(system.matrix).all()
    assert np.abs(system.matrix.sum(axis=1)).max() < 3e-2


def test_zero_strategy_tetrahedron_rows_exact():
    # at a tetrahedron vertex only the opposite face is non-incident, so a
    # Zero-strategy row is exactly that face's hat integrals plus the jump
    nodes = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                      [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)
    tris = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    mesh = SurfaceMesh(nodes, tris)
    normals = unit_normals(mesh)
    system = assemble([mesh], SingularStrategy.Zero, normals=[normals])
    target = Target(nodes[0], normals[0])
    opposite = Panel(*nodes[[1, 2, 3]])
    expected = np.zeros(4)
    for j, node in enumerate([1, 2, 3]):
        hat = PanelPolynomial.linear(np.eye(3)[j])
        expected[node] = integrate_k_panel(opposite, target, hat)
    expected[0] -= 0.5
    assert np.allclose(system.matrix[0], expected, atol=1e-14)


def test_strategy_swap_changes_only_incident_columns():
    mesh = generate_sphere_mesh(1)
    normals = unit_normals(mesh)
    forms = sphere_forms(mesh)
    a_zero = assemble([mesh], SingularStrategy.Zero, normals=[normals]).matrix
    a_qsa = assemble([mesh], SingularStrategy.QSA, [forms], normals=[normals]).matrix
    diff = a_qsa - a_zero
    incident = [set() for _ in range(mesh.n_nodes)]
    for tri in mesh.triangles:
        for v in tri:
            incident[v].update(tri)
    for i in range(mesh.n_nodes):
        outside = np.setdiff1d(np.arange(mesh.n_nodes), list(incident[i]))
        assert np.all(diff[i, outside] == 0.0)
        assert np.abs(diff[i, list(incident[i])]).max() > 0.0


@pytest.mark.parametrize("strategy", [SingularStrategy.QSA,
                                      SingularStrategy.CentroidStar],
                         ids=["qsa", "centroid_star"])
def test_bare_mesh_takes_estimated_normals_and_fitted_forms(strategy):
    mesh = generate_sphere_mesh(1)
    normals = estimate_normals(mesh)
    want = assemble([mesh], strategy, [estimate_fundamental_forms(mesh, normals)],
                    normals=[normals]).matrix
    assert np.array_equal(assemble([mesh], strategy).matrix, want)


@pytest.mark.parametrize("strategy", [SingularStrategy.QSA,
                                      SingularStrategy.CentroidStar],
                         ids=["qsa", "centroid_star"])
def test_probe_gives_its_normals_and_forms(strategy):
    mesh = generate_sphere_mesh(1)
    probe = sphere_probe(1.0)
    normals = np.array([probe.gradient(x) for x in mesh.nodes])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    want = assemble([mesh], strategy, [probe_forms(probe, mesh.nodes, normals)],
                    normals=[normals], probes=[probe]).matrix
    got = assemble([mesh], strategy, probes=[probe]).matrix
    assert np.array_equal(got, want)


def test_non_unit_normals_raise():
    # every route reads the normal as given, so a scaled one would scale
    # the batch and centroid entries; it fails before any pair is formed
    mesh = generate_sphere_mesh(1)
    scaled = 1.3 * unit_normals(mesh)
    forms = sphere_forms(mesh)
    for strategy in (SingularStrategy.QSA, SingularStrategy.Centroid):
        with pytest.raises(MeshError, match="unit"):
            assemble([mesh], strategy, [forms], normals=[scaled])
    with pytest.raises(MeshError, match="unit"):
        identity_row_parts(mesh, scaled)


def test_forms_and_normals_of_the_wrong_node_count_raise():
    # ico-1 has 42 nodes; a stacked form or normal array of another length
    # would index, or shift onto the next mesh's nodes, silently
    mesh = generate_sphere_mesh(1)
    normals, forms = unit_normals(mesh), sphere_forms(mesh)
    for rows in (np.r_[0:42, 0:3], np.arange(40)):
        with pytest.raises(MeshError, match=rf"mesh 0 has 42 nodes but forms "
                                            rf"of shape \({len(rows)},\)"):
            assemble([mesh], SingularStrategy.QSA, [forms[rows]], normals=[normals])
        with pytest.raises(MeshError, match=rf"mesh 0 has 42 nodes but normals "
                                            rf"of shape \({len(rows)}, 3\)"):
            assemble([mesh], SingularStrategy.Zero, normals=[normals[rows]])
    # the sphere's forms two too long and the torus's two too short: the
    # total is right, but every torus node would read a shifted form
    torus = generate_torus_mesh(0.4, 0.2, 8, 4)
    t_forms = probe_forms(torus_probe(0.4, 0.2), torus.nodes, torus.node_normals)
    t_rows = np.arange(torus.n_nodes - 2)
    with pytest.raises(MeshError, match=r"mesh 0 has 42 nodes but forms of shape \(44,\)"):
        assemble([mesh, torus], SingularStrategy.QSA,
                 [forms[np.r_[0:42, 0:2]], t_forms[t_rows]],
                 normals=[normals, torus.node_normals])
    with pytest.raises(MeshError, match=r"mesh 1 has 32 nodes but forms of shape \(30,\)"):
        assemble([mesh, torus], SingularStrategy.QSA, [forms, t_forms[t_rows]],
                 normals=[normals, torus.node_normals])


def test_non_finite_forms_and_normals_raise():
    mesh = generate_sphere_mesh(1)
    normals, forms = unit_normals(mesh), sphere_forms(mesh)
    forms.k11[5] = np.nan
    with pytest.raises(MeshError, match="node 5 has a non-finite fundamental form"):
        assemble([mesh], SingularStrategy.QSA, [forms], normals=[normals])
    normals[7, 2] = np.nan
    for strategy in (SingularStrategy.Zero, SingularStrategy.QSA):
        with pytest.raises(MeshError, match="node 7 has a non-finite normal"):
            assemble([mesh], strategy, normals=[normals])
    with pytest.raises(MeshError, match="node 7 has a non-finite normal"):
        identity_row_parts(mesh, normals)
    # nodes are numbered across the meshes: node 7 of the second is node 49
    with pytest.raises(MeshError, match="node 49 has a non-finite normal"):
        assemble([generate_sphere_mesh(1), mesh], SingularStrategy.Zero,
                 normals=[unit_normals(mesh), normals])
    # a probe whose Hessian is NaN at one node gives a NaN form there
    probe = sphere_probe(1.0)

    def hessian(x):
        h = probe.hessian(x)
        h[np.isclose(x, mesh.nodes[11]).all(axis=-1)] = np.nan
        return h

    nan_probe = SdfProbe(probe.value, probe.gradient, hessian)
    with pytest.raises(MeshError, match="node 11 has a non-finite fundamental form"):
        assemble([mesh], SingularStrategy.QSA, probes=[nan_probe])


def test_solve_residual_and_gauge_agreement():
    (mesh,), system, _ = neumann_problem(generate_sphere_mesh(2), x1_flux,
                                         probe=sphere_probe(1.0))
    u_at = {}
    pts = np.array([[0.3, 0.0, 0.1], [0.0, -0.4, 0.2], [0.25, 0.25, -0.3]])
    for reg in Regularization:
        gamma = solve(system, reg)
        resid = np.linalg.norm(system.matrix @ gamma - system.rhs)
        resid /= np.linalg.norm(system.rhs)
        assert resid < 1e-10
        u_at[reg] = evaluate_potential([mesh], gamma, pts)
    shift = u_at[Regularization.PinNode] - u_at[Regularization.MeanZero]
    assert shift.max() - shift.min() < 1e-6


def test_solve_singular_matrix_raises():
    mesh = generate_sphere_mesh(0)
    n = mesh.n_nodes
    bad = BemSystem(np.zeros((n, n)), np.ones(n), (0,), [mesh])
    with pytest.raises(ConvergenceFailure):
        solve(bad, Regularization.MeanZero)


def test_sphere_neumann_interior_potential():
    (mesh,), system, _ = neumann_problem(generate_sphere_mesh(2), x1_flux,
                                         probe=sphere_probe(1.0))
    gamma = solve(system, Regularization.MeanZero)
    rng = np.random.default_rng(5)
    d = rng.normal(size=(20, 3))
    pts = 0.5 * d / np.linalg.norm(d, axis=1, keepdims=True)
    u = evaluate_potential([mesh], gamma, pts)
    err = u - pts[:, 0]
    err -= err.mean()
    assert np.abs(err).max() < 3e-2


def test_potential_of_zero_density_is_zero():
    mesh = generate_sphere_mesh(1)
    pts = np.array([[0.0, 0.0, 0.0], [0.2, -0.1, 0.4], [3.0, 0.0, 0.0]])
    u = evaluate_potential([mesh], np.zeros(mesh.n_nodes), pts)
    assert np.all(u == 0.0)


def test_far_potential_matches_adaptive_oracle():
    mesh = generate_sphere_mesh(1)
    gamma = mesh.nodes[:, 0] + 0.3
    x = np.array([2.5, -1.0, 0.5])
    u = evaluate_potential([mesh], gamma, x[None])[0]
    total = 0.0
    for tri in mesh.triangles:
        v = mesh.nodes[tri]
        g = gamma[tri]
        area2 = np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0]))

        def f(pts):
            w = 1.0 - pts[:, 0] - pts[:, 1]
            y = np.outer(w, v[0]) + np.outer(pts[:, 0], v[1]) + np.outer(pts[:, 1], v[2])
            dens = w * g[0] + pts[:, 0] * g[1] + pts[:, 1] * g[2]
            r = np.linalg.norm(x[None] - y, axis=1)
            return -dens / (4.0 * np.pi * r) * area2

        total += adaptive_triangle(f, REFERENCE_TRIANGLE, rel_tol=1e-12, abs_tol=1e-16).value
    assert abs(u - total) < 1e-8 * abs(total)


def test_gradient_matches_finite_differences():
    (mesh,), system, _ = neumann_problem(generate_sphere_mesh(1), x1_flux,
                                         probe=sphere_probe(1.0))
    gamma = solve(system, Regularization.MeanZero)
    pts = np.array([[0.3, 0.1, -0.2], [0.0, 0.4, 0.1]])
    grad = potential_gradient([mesh], gamma, pts)
    step = 1e-5
    for k, e in enumerate(np.eye(3)):
        fd = (evaluate_potential([mesh], gamma, pts + step * e)
              - evaluate_potential([mesh], gamma, pts - step * e)) / (2.0 * step)
        assert np.abs(grad[:, k] - fd).max() < 1e-7


def test_potential_is_harmonic_off_surface():
    (mesh,), system, _ = neumann_problem(generate_sphere_mesh(1), x1_flux,
                                         probe=sphere_probe(1.0))
    gamma = solve(system, Regularization.MeanZero)
    x = np.array([0.25, -0.1, 0.3])
    h = 1e-2
    shifts = np.concatenate([x[None] + h * np.eye(3), x[None] - h * np.eye(3), x[None]])
    u = evaluate_potential([mesh], gamma, shifts)
    lap = (u[:6].sum() - 6.0 * u[6]) / h ** 2
    assert abs(lap) < 1e-5


def test_two_mesh_blocks_and_jump_signs():
    # a second mesh far from the first: its block matches a standalone
    # assembly except the diagonal jump flips from -1/2 to +1/2
    main = generate_sphere_mesh(1)
    far = SurfaceMesh(generate_sphere_mesh(1).nodes * 0.5 + np.array([6.0, 0.0, 0.0]),
                      generate_sphere_mesh(1).triangles)
    n_main = unit_normals(main)
    n_far = estimate_normals(far)
    pair = assemble([main, far], SingularStrategy.Zero, normals=[n_main, n_far],
                    neumann_bc=lambda x: x[0])
    solo = assemble([far], SingularStrategy.Zero, normals=[n_far])
    n0 = main.n_nodes
    block = pair.matrix[n0:, n0:]
    assert np.allclose(block - np.eye(far.n_nodes), solo.matrix, atol=1e-13)
    assert pair.offsets == (0, n0)
    assert np.all(pair.rhs[n0:] == 0.0)
    assert np.any(pair.rhs[:n0] != 0.0)
    # cross-blocks carry plain panel integrals: far apart, small but nonzero
    assert 0.0 < np.abs(pair.matrix[:n0, n0:]).max() < 1e-2


def test_sphere_identity_strategies_at_s2():
    mesh = generate_sphere_mesh(2)
    parts = identity_row_parts(mesh, unit_normals(mesh))
    errs = {}
    for strat in [SingularStrategy.QSA, SingularStrategy.Zero, SingularStrategy.Centroid]:
        mx, per = sphere_identity_test(mesh, strat, parts=parts)
        assert per.shape == (mesh.n_nodes,)
        assert np.isfinite(per).all()
        errs[strat] = mx
    assert errs[SingularStrategy.QSA] < errs[SingularStrategy.Zero]
    assert errs[SingularStrategy.QSA] < errs[SingularStrategy.Centroid]
    # recomputing without precomputed parts agrees
    mx2, _ = sphere_identity_test(mesh, SingularStrategy.QSA)
    assert abs(mx2 - errs[SingularStrategy.QSA]) < 1e-12


@pytest.mark.parametrize("mesh", [generate_sphere_mesh(2),
                                  generate_fibonacci_sphere_mesh(150)],
                         ids=["ico2", "fib150"])
def test_identity_errors_match_assembled_row_sums(mesh):
    # the identity's unit-density row sums and the assembled hat entries
    # (with the -1/2 jump) are the same pairs through the same routes
    normals = unit_normals(mesh)
    forms = sphere_forms(mesh)
    parts = identity_row_parts(mesh, normals)
    for strat in SingularStrategy:
        _, per = sphere_identity_test(mesh, strat, forms, parts=parts)
        a = assemble([mesh], strat, [forms], normals=[normals]).matrix
        assert np.abs(per - np.abs(a.sum(axis=1)) / 0.5).max() <= 1e-12


def test_gradient_on_layer_raises_potential_does_not():
    mesh = generate_sphere_mesh(1)
    gamma = np.ones(mesh.n_nodes)
    node = mesh.nodes[:1]
    with pytest.raises(DivergentIntegral):
        potential_gradient([mesh], gamma, node)
    assert np.isfinite(evaluate_potential([mesh], gamma, node)).all()


@pytest.mark.parametrize("n_gamma", [41, 47])
def test_layer_operators_reject_gamma_of_the_wrong_length(n_gamma):
    mesh = generate_sphere_mesh(1)  # 42 nodes
    points = np.array([[0.0, 0.0, 0.3]])
    for operator in (evaluate_potential, potential_gradient):
        with pytest.raises(ValueError, match="one value per node"):
            operator([mesh], np.ones(n_gamma), points)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_layer_operators_reject_non_finite_points_before_any_pair(bad, monkeypatch):
    # one O(N) check where the points enter: no batch call is made, and
    # the message names the first bad point
    batch_calls = []

    def counted(real):
        def call(*args, **kwargs):
            batch_calls.append(real.__name__)
            return real(*args, **kwargs)
        return call

    for name in ("g_panel_entries", "k_panel_entries"):
        monkeypatch.setattr(bem, name, counted(getattr(bem, name)))
    mesh = generate_sphere_mesh(1)
    points = np.array([[0.0, 0.0, 0.3], [0.1, bad, 0.0], [bad, 0.0, 0.0]])
    for operator in (evaluate_potential, potential_gradient):
        with pytest.raises(ValueError, match=r"point 1 has a non-finite coordinate"):
            operator([mesh], np.ones(mesh.n_nodes), points)
    assert batch_calls == []


def test_assemble_rejects_non_finite_neumann_data():
    mesh = generate_sphere_mesh(1)
    with pytest.raises(ValueError, match="neumann_bc is non-finite at node 0"):
        assemble([mesh], neumann_bc=lambda x: math.nan)


def test_gradient_axes_share_one_pair_pass_bit_for_bit():
    # each column of the gradient is the one-direction K engine with e_k
    # as every point's normal, to the bit; the in-plane points off their
    # panel (c = 0) are flagged by the batch, so the scalar fallback runs
    # once per axis
    meshes, system, _ = neumann_problem(generate_sphere_mesh(1), cos_phi,
                                        probe=sphere_probe(1.0),
                                        torus=(0.4, 0.2, 8, 4))
    gamma = np.random.default_rng(6).normal(size=system.n)
    asm = bem._Assembly(meshes)
    panels = [0, 9, 33]
    v = asm.verts[panels]
    in_plane = v[:, 0] - 0.5 * (v[:, 1] - v[:, 0]) - 0.5 * (v[:, 2] - v[:, 0])
    points = np.concatenate([np.random.default_rng(7).uniform(-0.9, 0.9, (20, 3)),
                             in_plane])
    axes = np.broadcast_to(np.eye(3), (len(in_plane), 3, 3))
    _, flagged = k_panel_entries(in_plane, axes, asm.verts)
    assert flagged[np.arange(len(panels)), panels].all()
    grad = potential_gradient(meshes, gamma, points)
    for k, e in enumerate(np.eye(3)):
        one = bem._layer_values(asm, gamma, points, np.tile(e, (len(points), 1)))
        assert np.array_equal(grad[:, k], one)


def test_torus_flux_diagnostic_samples_every_ring():
    # 80 samples of a 10 x 5 torus's 100 panels reach all ten u-rings
    n_u, n_v = 10, 5
    meshes = [generate_sphere_mesh(1), generate_torus_mesh(0.4, 0.2, n_u, n_v)]
    gamma = np.random.default_rng(8).normal(
        size=sum(m.n_nodes for m in meshes))
    diag = torus_flux_diagnostic(meshes, gamma, torus_probe(0.4, 0.2))
    assert len(diag["points"]) == 80
    u = np.arctan2(diag["points"][:, 1], diag["points"][:, 0]) % (2.0 * np.pi)
    rings = np.floor(u / (2.0 * np.pi / n_u)).astype(int)
    assert set(rings.tolist()) == set(range(n_u))


@pytest.mark.parametrize("call, match", [
    (lambda m, g, p: enclosing_flux(m, g, n=0), "n must be at least 1, got 0"),
    (lambda m, g, p: torus_flux_diagnostic(m, g, p, n_samples=0),
     "n_samples must be at least 1, got 0"),
    (lambda m, g, p: torus_flux_diagnostic(m[:1], g[:m[0].n_nodes], p),
     r"meshes has 1 mesh\(es\); the interface is the second mesh"),
    (lambda m, g, p: enclosing_flux(m, g, n=2.5), "n must be an integer, got 2.5"),
    (lambda m, g, p: torus_flux_diagnostic(m, g, p, n_samples=2.5),
     "n_samples must be an integer, got 2.5"),
    (lambda m, g, p: enclosing_flux(m, g, radius=0.0), "need a finite radius > 0"),
    (lambda m, g, p: enclosing_flux(m, g, radius=-0.7), "need a finite radius > 0"),
    (lambda m, g, p: enclosing_flux(m, g, radius=math.inf), "need a finite radius > 0"),
    (lambda m, g, p: enclosing_flux(m, g, radius=math.nan), "need a finite radius > 0"),
], ids=["flux-n-0", "diagnostic-n-samples-0", "diagnostic-one-mesh",
        "flux-n-float", "diagnostic-n-samples-float", "flux-radius-0",
        "flux-radius-negative", "flux-radius-inf", "flux-radius-nan"])
def test_flux_diagnostics_reject_bad_arguments(call, match):
    meshes = [generate_sphere_mesh(1), generate_torus_mesh(0.4, 0.2, 10, 5)]
    gamma = np.ones(sum(m.n_nodes for m in meshes))
    with pytest.raises(ValueError, match=match):
        call(meshes, gamma, torus_probe(0.4, 0.2))


@pytest.mark.parametrize("call, match", [
    (lambda: generate_sphere_mesh(1.5), "subdivisions must be an integer, got 1.5"),
    (lambda: generate_sphere_mesh(-1), "subdivisions must be at least 0, got -1"),
    (lambda: generate_fibonacci_sphere_mesh(10.5),
     "n_nodes must be an integer, got 10.5"),
    (lambda: generate_fibonacci_sphere_mesh(3), "n_nodes must be at least 4, got 3"),
    (lambda: generate_torus_mesh(0.4, 0.2, 8.5, 4), "n_u must be an integer, got 8.5"),
    (lambda: generate_torus_mesh(0.4, 0.2, 8, 4.0), "n_v must be an integer, got 4.0"),
    (lambda: golden_spiral(2.5), "n must be an integer, got 2.5"),
    (lambda: neumann_problem(generate_sphere_mesh(0), x1_flux,
                             torus=(0.4, 0.2, 8.7, 4)),
     "n_u must be an integer, got 8.7"),
], ids=["sphere-float", "sphere-negative", "fibonacci-float", "fibonacci-3",
        "torus-n-u-float", "torus-n-v-whole-float", "spiral-float",
        "neumann-torus-float"])
def test_counts_must_be_integers(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_sphere_forms_rejects_a_bad_radius(radius):
    with pytest.raises(ValueError, match="need a finite radius > 0"):
        sphere_forms(generate_sphere_mesh(1), radius=radius)


def test_assemble_defaults_to_stored_node_normals():
    # tilted away from both the radial and the estimated normals, so a
    # matrix built from either would differ
    base = generate_sphere_mesh(1)
    tilted = unit_normals(base) + np.array([0.2, -0.1, 0.05])
    tilted /= np.linalg.norm(tilted, axis=1, keepdims=True)
    mesh = SurfaceMesh(base.nodes, base.triangles, node_normals=tilted)
    stored = assemble([mesh], SingularStrategy.Zero).matrix
    given = assemble([mesh], SingularStrategy.Zero,
                     normals=[mesh.node_normals]).matrix
    assert np.array_equal(stored, given)


def test_neumann_problem_prefers_stored_normals_to_the_probe():
    # tilted stored normals and a sphere probe: the builder takes the
    # stored normals and the probe's forms at them, not the probe's normals
    base = generate_sphere_mesh(1)
    tilted = unit_normals(base) + np.array([0.2, -0.1, 0.05])
    tilted /= np.linalg.norm(tilted, axis=1, keepdims=True)
    mesh = SurfaceMesh(base.nodes, base.triangles, node_normals=tilted)
    probe = sphere_probe(1.0)
    meshes, system, probes = neumann_problem(mesh, x1_flux, probe=probe)
    want = assemble([mesh], SingularStrategy.QSA,
                    [probe_forms(probe, mesh.nodes, tilted)], normals=[tilted],
                    probes=[probe], neumann_bc=x1_flux)
    assert meshes[0] is mesh and probes[0] is probe and len(meshes) == 1
    assert np.array_equal(system.matrix, want.matrix)
    assert np.array_equal(system.rhs, want.rhs)


def test_neumann_problem_estimates_for_a_bare_mesh():
    # no stored normals and no probe: estimated normals, fitted forms
    mesh = generate_sphere_mesh(1)
    _, system, probes = neumann_problem(mesh, x1_flux,
                                        strategy=SingularStrategy.CentroidStar)
    normals = estimate_normals(mesh)
    want = assemble([mesh], SingularStrategy.CentroidStar,
                    [estimate_fundamental_forms(mesh, normals)],
                    normals=[normals], neumann_bc=x1_flux)
    assert probes == [None]
    assert np.array_equal(system.matrix, want.matrix)


def test_kernel_k_pointwise():
    x = np.array([0.0, 0.0, 1.0])
    n = np.array([0.0, 0.0, 1.0])
    y = np.array([0.0, 0.0, 0.0])
    assert abs(kernel_k(x, n, y) - 1.0 / (4.0 * np.pi)) < 1e-15


def test_torus_demo_coarse_smoke():
    meshes, system, probes = neumann_problem(generate_sphere_mesh(2), cos_phi,
                                             probe=sphere_probe(1.0),
                                             torus=(0.4, 0.2, 24, 12))
    assert system.n == meshes[0].n_nodes + meshes[1].n_nodes
    gamma = solve(system, Regularization.MeanZero)
    resid = np.linalg.norm(system.matrix @ gamma - system.rhs)
    resid /= np.linalg.norm(system.rhs)
    assert resid < 1e-9
    diag = torus_flux_diagnostic(meshes, gamma, probes[1])
    assert diag["field_scale_ratio"].max() < 0.3
    assert abs(enclosing_flux(meshes, gamma, n=200)) < 5e-2


def test_export_solution_roundtrip(tmp_path):
    import json

    mesh = generate_sphere_mesh(0)
    gamma = np.arange(float(mesh.n_nodes))
    probes = np.array([[0.0, 0.0, 0.0]])
    u = np.array([1.5])
    path = tmp_path / "sol.json"
    export_solution(path, [mesh], gamma, probes, u)
    doc = json.loads(path.read_text())
    assert len(doc["nodes"]) == mesh.n_nodes
    assert doc["gamma"][3] == 3.0
    assert doc["u"] == [1.5]
    # summary fields ride along at the top level, as the bem command writes them
    export_solution(path, [mesh], gamma, probes, u, bc="x1-flux", n_nodes=mesh.n_nodes)
    doc = json.loads(path.read_text())
    assert doc["bc"] == "x1-flux" and doc["n_nodes"] == mesh.n_nodes
    assert doc["u"] == [1.5] and len(doc["gamma"]) == mesh.n_nodes


def _star_by_form(x, n, form, y):
    """Centroid y lifted onto the osculating quadratic at x, one pair."""
    s1, s2 = form.basis @ (y - x)
    h = 0.5 * (form.k11 * s1 * s1 + 2.0 * form.k12 * s1 * s2 + form.k22 * s2 * s2)
    return x + s1 * form.basis[0] + s2 * form.basis[1] + h * n


@pytest.mark.parametrize("strategy, probe", [
    (SingularStrategy.QSA, None),
    (SingularStrategy.Centroid, None),
    (SingularStrategy.CentroidStar, None),
    (SingularStrategy.CentroidStar, sphere_probe(1.0)),
], ids=["qsa", "centroid", "centroid_star_forms", "centroid_star_probe"])
def test_singular_strategies_match_per_pair_calls(strategy, probe):
    # the incident entries minus the Zero assembly, against one call per
    # pair: qsa_on_boundary per hat, or kernel_k at the (projected)
    # centroid with one third to each hat
    mesh = generate_sphere_mesh(2)
    normals = unit_normals(mesh)
    forms = sphere_forms(mesh)
    probes = None if probe is None else [probe]
    got = (assemble([mesh], strategy, [forms], normals=[normals], probes=probes).matrix
           - assemble([mesh], SingularStrategy.Zero, normals=[normals]).matrix)
    want = np.zeros_like(got)
    for tri in mesh.triangles:
        panel = Panel(*mesh.nodes[tri])
        for i in tri:
            if strategy is SingularStrategy.QSA:
                target = Target(mesh.nodes[i], normals[i])
                want[i, tri] += [qsa_on_boundary(panel, target, forms[i], hat)
                                 for hat in HATS]
                continue
            y = panel.centroid
            if probe is not None:
                y, _ = foot_point(probe, y)
            elif strategy is SingularStrategy.CentroidStar:
                y = _star_by_form(mesh.nodes[i], normals[i], forms[i], y)
            want[i, tri] += kernel_k(mesh.nodes[i], normals[i], y) * panel.area / 3.0
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.abs(got - want).max(axis=1).max() <= 1e-13 * scale.min()


def test_assemble_rejects_open_or_inward_meshes():
    sphere = generate_sphere_mesh(1)
    torus = generate_torus_mesh(0.4, 0.2, 12, 6)
    flipped = SurfaceMesh(torus.nodes, torus.triangles[:, ::-1])
    with pytest.raises(MeshError, match="inward"):
        assemble([sphere, flipped], SingularStrategy.Zero)
    holed = SurfaceMesh(sphere.nodes, sphere.triangles[1:])
    with pytest.raises(MeshError, match="closed"):
        assemble([holed], SingularStrategy.Zero, normals=[unit_normals(holed)])


def test_pin_node_gauge_zeroes_the_node_mean_potential():
    # the gauge's definition, checked through evaluate_potential: on an
    # ellipsoid with asymmetric data the two gauges give different
    # potentials, and only PinNode has a zero mean over the nodes
    meshes, system, _ = ellipsoid_problem()
    means = {}
    for gauge in Regularization:
        u = evaluate_potential(meshes, solve(system, gauge), meshes[0].nodes)
        means[gauge] = u.mean() / np.abs(u).max()
    assert abs(means[Regularization.PinNode]) <= 1e-12
    assert abs(means[Regularization.MeanZero]) > 1e-6


@pytest.mark.parametrize("problem", [sphere_torus_problem, ellipsoid_problem],
                         ids=["sphere-torus", "ellipsoid"])
def test_pin_weights_are_the_single_layer_column_means(problem):
    # assemble sums them from its own K calls' G values; the independent
    # single-layer matrix gives them again
    meshes, system, _ = problem()
    want = single_layer_matrix(meshes).mean(axis=0)
    assert np.abs(system.pin_weights - want).max() <= 1e-13 * np.abs(want).max()


def test_pin_node_solve_makes_no_pair_pass(monkeypatch):
    # neither assemble nor solve builds the single-layer matrix or calls
    # the G batch engine: the gauge comes out of the K pair pass
    def refuse(*args, **kwargs):
        raise AssertionError("a second pair pass")

    for name in ("single_layer_matrix", "g_panel_entries"):
        monkeypatch.setattr(bem, name, refuse)
    _, system, _ = sphere_torus_problem()
    gamma = solve(system, Regularization.PinNode)
    r = system.rhs - system.matrix @ gamma
    assert np.linalg.norm(r - r.mean()) <= 1e-12 * np.linalg.norm(system.rhs)


def test_g_flagged_pairs_take_integrate_g_panel_in_the_gauge(monkeypatch):
    # a pair the G rule flags is redone on the scalar path, as in
    # single_layer_matrix: flag every pair of panel 0 by hand
    calls = []

    def batch(*args, g_out=None, **kwargs):
        out = k_panel_entries(*args, g_out=g_out, **kwargs)
        if g_out is not None:
            g_out[:, :, 0] = np.nan
        return out

    def scalar(panel, target, p=None):
        calls.append(panel.verts)
        return integrate_g_panel(panel, target, p)

    monkeypatch.setattr(bem, "k_panel_entries", batch)
    monkeypatch.setattr(bem, "integrate_g_panel", scalar)
    meshes, system, _ = sphere_torus_problem()
    panel0 = meshes[0].nodes[meshes[0].triangles[0]]
    assert len(calls) == system.n
    assert all(np.array_equal(v, panel0) for v in calls)
    want = single_layer_matrix(meshes).mean(axis=0)
    assert np.abs(system.pin_weights - want).max() <= 1e-13 * np.abs(want).max()


def test_hand_built_system_has_no_pin_node_gauge():
    mesh = generate_sphere_mesh(0)
    n = mesh.n_nodes
    system = BemSystem(np.eye(n), np.ones(n), (0,), [mesh])
    for args in ((), (Regularization.PinNode,)):
        with pytest.raises(ValueError, match="pin_weights"):
            solve(system, *args)
    assert np.isfinite(solve(system, Regularization.MeanZero)).all()


def test_strategies_and_gauges_are_taken_by_value_or_raise():
    # a value of the enum selects its member; anything else fails loudly
    # rather than falling through to the centroid rule or PinNode
    mesh = generate_sphere_mesh(1)
    forms = sphere_forms(mesh)
    qsa = assemble([mesh], SingularStrategy.QSA, [forms]).matrix
    assert np.array_equal(assemble([mesh], "qsa", [forms]).matrix, qsa)
    assert (sphere_identity_test(mesh, "qsa", forms=forms)[0]
            == sphere_identity_test(mesh, SingularStrategy.QSA, forms=forms)[0])
    for call in (lambda: assemble([mesh], "QSA", [forms]),
                 lambda: sphere_identity_test(mesh, "quadrature", forms=forms)):
        with pytest.raises(ValueError, match="SingularStrategy"):
            call()
    _, system, _ = ellipsoid_problem()
    assert np.array_equal(solve(system, "mean_zero"),
                          solve(system, Regularization.MeanZero))
    with pytest.raises(ValueError, match="Regularization"):
        solve(system, "mean-zero")


def test_flagged_pairs_take_one_scalar_call(monkeypatch):
    # a pair the batch flags is redone by one integrate_k_panel call for
    # all three hats, so the calls count the flagged non-incident pairs
    masks, calls = [], []

    def batch(*args, **kwargs):
        vals, flagged = k_panel_entries(*args, **kwargs)
        masks.append(flagged.copy())
        return vals, flagged

    def scalar(panel, target, p=None):
        calls.append(p)
        return integrate_k_panel(panel, target, p)

    monkeypatch.setattr(bem, "k_panel_entries", batch)
    monkeypatch.setattr(bem, "integrate_k_panel", scalar)
    meshes, _, _ = neumann_problem(generate_sphere_mesh(1), cos_phi,
                                   probe=sphere_probe(1.0), torus=(0.4, 0.2, 8, 4))
    tris = np.concatenate([meshes[0].triangles,
                           meshes[1].triangles + meshes[0].n_nodes])
    incident = np.zeros((tris.max() + 1, len(tris)), dtype=bool)
    incident[tris.ravel(), np.repeat(np.arange(len(tris)), 3)] = True
    flagged = np.concatenate(masks) & ~incident
    assert len(calls) == flagged.sum() > 0
    assert all(len(p) == 3 for p in calls)


def test_block_size_changes_nothing(monkeypatch):
    # every operator gives the same bits with one target row per block as
    # with the whole problem in one block
    def run(budget):
        monkeypatch.setattr(bem, "_PAIR_BUDGET", budget)
        meshes, system, _ = neumann_problem(generate_sphere_mesh(1), cos_phi,
                                            probe=sphere_probe(1.0),
                                            torus=(0.4, 0.2, 8, 4))
        gamma = np.random.default_rng(3).normal(size=system.n)
        points = np.random.default_rng(4).uniform(-0.9, 0.9, (30, 3))
        return (system.matrix, system.pin_weights,
                solve(system, Regularization.PinNode),
                *identity_row_parts(meshes[1])[:2],
                evaluate_potential(meshes, gamma, points),
                potential_gradient(meshes, gamma, points))

    meshes = neumann_problem(generate_sphere_mesh(1), cos_phi,
                             probe=sphere_probe(1.0), torus=(0.4, 0.2, 8, 4))[0]
    panels = sum(m.n_triangles for m in meshes)
    one_row, one_block = run(panels), run(10 ** 9)
    for a, b in zip(one_row, one_block):
        if isinstance(a, list):
            assert a == b
        else:
            assert np.array_equal(a, b)


def test_touching_meshes_raise():
    # node 0 of a small sphere sits at the centroid of panel 0 of a larger
    # one: a node on a panel it is not a vertex of fails loudly
    big = generate_sphere_mesh(1)
    unit = generate_sphere_mesh(0)
    shift = big.nodes[big.triangles[0]].mean(axis=0) - 0.2 * unit.nodes[0]
    small = SurfaceMesh(0.2 * unit.nodes + shift, unit.triangles)
    normals = [unit_normals(big), unit_normals(unit)]
    forms = [sphere_forms(big), sphere_forms(unit, radius=0.2)]
    for strategy in (SingularStrategy.Zero, SingularStrategy.QSA):
        with pytest.raises(MeshError, match="node 42 lies on panel 0"):
            assemble([big, small], strategy, forms, normals=normals)
    merged = SurfaceMesh(np.concatenate([big.nodes, small.nodes]),
                         np.concatenate([big.triangles, small.triangles + big.n_nodes]))
    with pytest.raises(MeshError, match="node 42 lies on panel 0"):
        identity_row_parts(merged, np.concatenate(normals))
