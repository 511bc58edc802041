"""The probe layer on arrays: batched calls against per-point calls, the
error paths of a batch, and one call per probe in the BEM operators."""

import numpy as np
import pytest

from tripanel import bem
from tripanel.bem import SingularStrategy, assemble, cos_phi, neumann_problem, probe_forms
from tripanel.cli import _named_probe
from tripanel.curvature import SdfProbe, shape_operator, sphere_probe, torus_probe
from tripanel.errors import ConvergenceFailure
from tripanel.mesh_io import generate_sphere_mesh
from tripanel.qsa import foot_point

PROBES = {
    "sphere": (sphere_probe(0.7, center=[0.1, -0.2, 0.3]), 1.4),
    "torus": (torus_probe(0.4, 0.2), 1.2),
    "plane": (_named_probe("plane"), 1.0),
}


def _directions(rng, n):
    d = rng.standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _points(kind, seed=19):
    """Seeded points near the surface, near the torus's inner ring, and
    ten diameters off the surface."""
    rng = np.random.default_rng(seed)
    diam = PROBES[kind][1]
    if kind == "sphere":
        near = [0.1, -0.2, 0.3] + 0.7 * (1.0 + rng.uniform(-0.05, 0.05, (20, 1))) \
            * _directions(rng, 20)
    elif kind == "torus":
        u, v = rng.uniform(0.0, 2.0 * np.pi, (2, 20))
        r = 0.2 * (1.0 + rng.uniform(-0.05, 0.05, 20))
        rho = 0.4 + r * np.cos(v)
        near = np.column_stack([rho * np.cos(u), rho * np.sin(u), r * np.sin(v)])
        # the inner ring rho = R - r, and just inside and outside it
        w = rng.uniform(0.0, 2.0 * np.pi, 10)
        rho = 0.2 + rng.uniform(-1e-3, 1e-3, 10)
        near = np.vstack([near, np.column_stack(
            [rho * np.cos(w), rho * np.sin(w), rng.uniform(-1e-3, 1e-3, 10)])])
    else:
        near = rng.uniform(-1.0, 1.0, (20, 3)) * [1.0, 1.0, 1e-3]
    far = 10.0 * diam * _directions(rng, 10)
    return np.vstack([near, far])


def _counted(probe):
    """probe with its value callable recording the rows of every call."""
    rows = []

    def value(x):
        rows.append(1 if np.ndim(x) == 1 else len(x))
        return probe.value(x)

    return SdfProbe(value, probe.gradient, probe.hessian), rows


@pytest.mark.parametrize("kind", sorted(PROBES))
def test_array_calls_match_per_point_calls(kind):
    probe, _ = PROBES[kind]
    x = _points(kind)
    value, grad, hess = probe.value(x), probe.gradient(x), probe.hessian(x)
    assert value.shape == (len(x),) and grad.shape == x.shape
    assert hess.shape == (len(x), 3, 3)
    for i, p in enumerate(x):
        assert abs(value[i] - probe.value(p)) <= 1e-15 * abs(probe.value(p))
        g = probe.gradient(p)
        assert np.abs(grad[i] - g).max() <= 1e-15 * np.abs(g).max()
        h = probe.hessian(p)
        assert np.abs(hess[i] - h).max() <= 1e-14 * max(np.abs(h).max(), 1e-300)


@pytest.mark.parametrize("kind", sorted(PROBES))
def test_shape_operator_and_forms_match_per_point_calls(kind):
    probe, _ = PROBES[kind]
    x = _points(kind)
    normals = bem._probe_normals(probe, x)
    shapes = shape_operator(probe, x)
    forms = probe_forms(probe, x, normals)
    assert forms.matrix.shape == (len(x), 2, 2) and forms.basis.shape == (len(x), 2, 3)
    for i, p in enumerate(x):
        n = bem._probe_normals(probe, p[None])[0]
        assert np.abs(normals[i] - n).max() <= 1e-15
        s = shape_operator(probe, p)
        assert np.abs(shapes[i] - s).max() <= 1e-14 * max(np.abs(s).max(), 1e-300)
        form = probe_forms(probe, p[None], normals[i][None])
        scale = max(np.abs(form.matrix).max(), 1e-300)
        assert np.abs(forms.matrix[i] - form.matrix[0]).max() <= 1e-14 * scale
        assert np.array_equal(forms.basis[i], form.basis[0])
    if kind == "plane":
        assert (forms.matrix == 0.0).all()


@pytest.mark.parametrize("kind", sorted(PROBES))
def test_foot_point_batch_matches_per_point_newton(kind):
    probe, _ = PROBES[kind]
    x = _points(kind)
    counted, rows = _counted(probe)
    feet, c = foot_point(counted, x)
    sizes, rows[:] = list(rows), []
    steps = []
    for i, p in enumerate(x):
        foot, ci = foot_point(counted, p)
        steps.append(len(rows))
        rows[:] = []
        assert np.abs(feet[i] - foot).max() <= 1e-15 * np.linalg.norm(p)
        assert abs(c[i] - ci) <= 1e-15 * np.linalg.norm(p)
    # one batched value call per step, on the points still moving: the
    # k-th call has as many rows as there are points that took k steps
    steps = np.array(steps)
    assert sizes == [int((steps > k).sum()) for k in range(steps.max())]
    assert np.abs(probe.value(feet)).max() < 1e-12


def test_batched_shape_operator_names_the_first_vanishing_gradient():
    # F = |x|^2 - 1: the gradient 2x vanishes at the origin
    probe = SdfProbe(lambda x: (np.asarray(x) ** 2).sum(axis=-1) - 1.0,
                     lambda x: 2.0 * np.asarray(x, dtype=float),
                     lambda x: np.zeros(np.shape(x) + (3,)) + 2.0 * np.eye(3))
    x = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0],
                  [0.5, 0.5, 0.5], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="vanishing gradient at point 2"):
        shape_operator(probe, x)


def test_batched_foot_point_names_the_first_point_that_does_not_converge():
    # F = z where x < 0; elsewhere F = 1 whatever the step, so Newton stalls
    probe = SdfProbe(
        lambda x: np.where(np.asarray(x)[..., 0] < 0.0, np.asarray(x)[..., 2], 1.0),
        lambda x: np.zeros(np.shape(x)) + [0.0, 0.0, 1.0],
        None)
    x = np.array([[-1.0, 0.0, 3.0], [-2.0, 1.0, 0.5], [1.0, 0.0, 0.0],
                  [2.0, 0.0, 0.0]])
    with pytest.raises(ConvergenceFailure, match="at point 2"):
        foot_point(probe, x)
    feet, c = foot_point(probe, x[:2])
    assert np.array_equal(feet[:, 2], [0.0, 0.0]) and np.array_equal(c, [3.0, 0.5])
    # at a sphere's center the gradient is 0/0: a NaN value is not converged
    with np.errstate(invalid="ignore"), \
            pytest.raises(ConvergenceFailure, match="at point 1"):
        foot_point(sphere_probe(), [[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])


def test_per_point_probe_rejects_a_batch_with_a_shape_error():
    # a probe written for one point at a time still serves one point, and
    # names the shape it returned when given many
    plain = SdfProbe(lambda x: x[2], lambda x: np.array([0.0, 0.0, 1.0]),
                     lambda x: np.zeros((3, 3)))
    foot, c = foot_point(plain, np.array([3.0, 4.0, -2.0]))
    assert np.array_equal(foot, [3.0, 4.0, 0.0]) and c == -2.0
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 3))
    with pytest.raises(ValueError, match=r"returned shape \(3,\) for points of shape \(5, 3\)"):
        foot_point(plain, x)
    with pytest.raises(ValueError, match=r"returned shape \(3,\) for points"):
        shape_operator(plain, x)
    with pytest.raises(ValueError, match=r"returned shape \(3, 3\) for points"):
        bem._probe_normals(SdfProbe(None, lambda x: np.eye(3), None), x)


@pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]])
def test_foot_point_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="non-finite coordinate"):
        foot_point(sphere_probe(), bad)
    x = np.array([[0.0, 0.0, 2.0], [0.5, 0.0, 0.0], bad])
    with pytest.raises(ValueError, match="non-finite coordinate at point 2"):
        foot_point(sphere_probe(), x)


def _count(monkeypatch, name):
    calls = []
    real = getattr(bem, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bem, name, wrapped)
    return calls


def test_probe_traffic_is_one_call_per_probe(monkeypatch):
    # the bem-torus problem: ico-1 sphere plus an 8 x 4 torus
    meshes, system, probes = neumann_problem(
        generate_sphere_mesh(1), cos_phi, probe=sphere_probe(1.0),
        torus=(0.4, 0.2, 8, 4))
    torus = meshes[1]
    shapes = _count(monkeypatch, "shape_operator")
    probe_forms(probes[1], torus.nodes, bem._probe_normals(probes[1], torus.nodes))
    assert len(shapes) == 1

    feet = _count(monkeypatch, "foot_point")
    gamma = np.random.default_rng(5).normal(size=system.n)
    bem.torus_flux_diagnostic(meshes, gamma, probes[1])
    assert len(feet) == 1

    for probed in ([None, probes[1]], probes):
        feet.clear()
        asm = bem._Assembly(meshes, probes=probed)
        bem._strategy_values(SingularStrategy.CentroidStar, asm, bem._HATS)
        assert len(feet) == sum(p is not None for p in probed)


def test_centroid_star_projection_matches_per_pair_newton():
    meshes, _, probes = neumann_problem(
        generate_sphere_mesh(1), cos_phi, probe=sphere_probe(1.0),
        torus=(0.4, 0.2, 8, 4))
    got = assemble(meshes, SingularStrategy.CentroidStar, probes=probes).matrix
    asm = bem._Assembly(meshes, probes=probes)
    x, n = asm.nodes[asm.inc_node], asm.normals[asm.inc_node]
    mesh_of = asm.mesh_of_node(asm.inc_node)
    y = np.array([foot_point(probes[m], c)[0]
                  for m, c in zip(mesh_of, asm.centroids[asm.inc_panel])])
    k = bem.kernel_k(x, n, y) * asm.areas[asm.inc_panel] / 3.0
    want = assemble(meshes, SingularStrategy.Zero, probes=probes).matrix
    for m, (i, p) in enumerate(zip(asm.inc_node, asm.inc_panel)):
        want[i, asm.tris[p]] += k[m]
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
