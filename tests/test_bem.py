"""Collocation BEM: assembly structure, strategies, solves, potentials."""

import numpy as np
import pytest

from tripanel import bem
from tripanel.batch import k_panel_entries
from tripanel.bem import (
    BemSystem,
    Regularization,
    SingularStrategy,
    assemble,
    enclosing_flux,
    evaluate_potential,
    export_solution,
    identity_row_parts,
    kernel_k,
    nodal_areas,
    potential_gradient,
    single_layer_matrix,
    solve,
    sphere_forms,
    sphere_identity_test,
    sphere_neumann_problem,
    torus_flux_diagnostic,
    torus_in_sphere_problem,
)
from tripanel.curvature import estimate_normals, sphere_probe
from tripanel.errors import ConvergenceFailure, DivergentIntegral, MeshError
from tripanel.geometry import Panel, Target
from tripanel.mesh_io import (
    SurfaceMesh,
    generate_fibonacci_sphere_mesh,
    generate_sphere_mesh,
    generate_torus_mesh,
)
from tripanel.oracle import REFERENCE_TRIANGLE, adaptive_triangle
from tripanel.panel_integrals import PanelPolynomial, integrate_k_panel
from tripanel.qsa import foot_point, qsa_on_boundary


HATS = [PanelPolynomial.linear(np.eye(3)[j]) for j in range(3)]


def unit_normals(mesh):
    return mesh.nodes / np.linalg.norm(mesh.nodes, axis=1, keepdims=True)


def test_nodal_areas_sum_to_mesh_area():
    mesh = generate_sphere_mesh(2)
    v = mesh.nodes[mesh.triangles]
    total = 0.5 * np.linalg.norm(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1).sum()
    assert abs(nodal_areas(mesh).sum() - total) < 1e-12 * total


def test_assemble_k_row_sums_near_half():
    # K-part row sums approximate the closed-surface identity value 0.5,
    # so the assembled rows (with the -1/2 jump on the diagonal) sum to ~0
    mesh, system = sphere_neumann_problem(subdivisions=2)
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


def test_missing_curvature_data_raises():
    mesh = generate_sphere_mesh(0)
    with pytest.raises(DivergentIntegral, match="curvature"):
        assemble([mesh], SingularStrategy.QSA)
    with pytest.raises(DivergentIntegral):
        assemble([mesh], SingularStrategy.CentroidStar)


def test_solve_residual_and_gauge_agreement():
    mesh, system = sphere_neumann_problem(subdivisions=2)
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
    mesh, system = sphere_neumann_problem(subdivisions=2)
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
    mesh, system = sphere_neumann_problem(subdivisions=1)
    gamma = solve(system, Regularization.MeanZero)
    pts = np.array([[0.3, 0.1, -0.2], [0.0, 0.4, 0.1]])
    grad = potential_gradient([mesh], gamma, pts)
    step = 1e-5
    for k, e in enumerate(np.eye(3)):
        fd = (evaluate_potential([mesh], gamma, pts + step * e)
              - evaluate_potential([mesh], gamma, pts - step * e)) / (2.0 * step)
        assert np.abs(grad[:, k] - fd).max() < 1e-7


def test_potential_is_harmonic_off_surface():
    mesh, system = sphere_neumann_problem(subdivisions=1)
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
    for strat in SingularStrategy:
        _, per = sphere_identity_test(mesh, strat, forms, normals=normals)
        a = assemble([mesh], strat, [forms], normals=[normals]).matrix
        assert np.abs(per - np.abs(a.sum(axis=1)) / 0.5).max() <= 1e-12


def test_gradient_on_layer_raises_potential_does_not():
    mesh = generate_sphere_mesh(1)
    gamma = np.ones(mesh.n_nodes)
    node = mesh.nodes[:1]
    with pytest.raises(DivergentIntegral):
        potential_gradient([mesh], gamma, node)
    assert np.isfinite(evaluate_potential([mesh], gamma, node)).all()


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


def test_kernel_k_pointwise():
    x = np.array([0.0, 0.0, 1.0])
    n = np.array([0.0, 0.0, 1.0])
    y = np.array([0.0, 0.0, 0.0])
    assert abs(kernel_k(x, n, y) - 1.0 / (4.0 * np.pi)) < 1e-15


def test_torus_demo_coarse_smoke():
    meshes, system, probes = torus_in_sphere_problem(subdivisions=2, n_u=24, n_v=12)
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


def test_pin_node_gauge_is_the_single_layer_column_mean():
    mesh, system = sphere_neumann_problem(subdivisions=1)
    gamma = solve(system, Regularization.PinNode)
    weights = single_layer_matrix([mesh]).mean(axis=0)
    assert abs(weights @ gamma) <= 1e-12 * np.abs(weights).sum() * np.abs(gamma).max()
    resid = np.linalg.norm(system.matrix @ gamma - system.rhs)
    assert resid <= 1e-10 * np.linalg.norm(system.rhs)


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
    meshes, _, _ = torus_in_sphere_problem(1, 8, 4)
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
        meshes, system, _ = torus_in_sphere_problem(1, 8, 4)
        gamma = np.random.default_rng(3).normal(size=system.n)
        points = np.random.default_rng(4).uniform(-0.9, 0.9, (30, 3))
        return (system.matrix,
                *identity_row_parts(meshes[1])[:2],
                evaluate_potential(meshes, gamma, points))

    panels = sum(m.n_triangles for m in torus_in_sphere_problem(1, 8, 4)[0])
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
