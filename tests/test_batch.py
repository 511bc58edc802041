"""Batch engine vs the scalar closed forms, pair by pair."""

import numpy as np
import pytest

from tripanel.batch import (
    _panel_table,
    g_panel_entries,
    k_panel_entries,
    k_row_sums,
    panel_frames,
    tangent_frames,
)
from tripanel.curvature import torus_probe
from tripanel.geometry import Panel, Target
from tripanel.mesh_io import generate_sphere_mesh, generate_torus_mesh
from tripanel.panel_integrals import (
    PanelPolynomial,
    integrate_g_panel,
    integrate_k_panel,
)

HATS = [PanelPolynomial.linear(np.eye(3)[j]) for j in range(3)]

# flagged (degenerate) lanes are masked, so they must not warn either
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def scalar_k_hats(v, x, n):
    tgt = Target(x, n)
    pan = Panel(*v)
    return np.array([integrate_k_panel(pan, tgt, h) for h in HATS])


def scalar_g_hats(v, x):
    tgt = Target(x)
    pan = Panel(*v)
    return np.array([integrate_g_panel(pan, tgt, h) for h in HATS])


def test_tangent_frames_are_orthonormal():
    rng = np.random.default_rng(0)
    n = rng.normal(size=(50, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    t1, t2 = tangent_frames(n)
    assert np.allclose((t1 * n).sum(1), 0.0, atol=1e-14)
    assert np.allclose((t2 * n).sum(1), 0.0, atol=1e-14)
    assert np.allclose((t1 * t2).sum(1), 0.0, atol=1e-14)
    assert np.allclose(np.linalg.norm(t1, axis=1), 1.0)
    assert np.allclose(np.cross(t1, t2), n, atol=1e-14)


def test_panel_frames_match_panel_normals():
    rng = np.random.default_rng(1)
    verts = rng.uniform(-1, 1, (20, 3, 3))
    n, t1, t2 = panel_frames(verts)
    for p in range(20):
        assert np.allclose(n[p], Panel(*verts[p]).normal, atol=1e-14)


def test_k_entries_match_scalar_generic():
    rng = np.random.default_rng(7)
    verts = rng.uniform(-1, 1, (50, 3, 3))
    x = rng.uniform(-1.5, 1.5, (6, 3))
    n_x = rng.normal(size=(6, 3))
    n_x /= np.linalg.norm(n_x, axis=1, keepdims=True)
    vals, fb = k_panel_entries(x, n_x, verts)
    assert not fb.any()
    for b in range(6):
        for p in range(50):
            ref = scalar_k_hats(verts[p], x[b], n_x[b])
            assert np.allclose(vals[b, p], ref,
                               rtol=1e-8, atol=1e-10 * np.abs(ref).max())


def test_row_sums_match_scalar_and_hat_total():
    rng = np.random.default_rng(8)
    verts = rng.uniform(-1, 1, (50, 3, 3))
    x = rng.uniform(-1.5, 1.5, (6, 3))
    n_x = rng.normal(size=(6, 3))
    n_x /= np.linalg.norm(n_x, axis=1, keepdims=True)
    sums, fb = k_row_sums(x, n_x, verts)
    assert not fb.any()
    vals, _ = k_panel_entries(x, n_x, verts)
    # the three vertex hats partition unity on the panel
    assert np.allclose(vals.sum(axis=2), sums, rtol=1e-10, atol=1e-13)
    for b in range(6):
        for p in range(0, 50, 7):
            ref = integrate_k_panel(Panel(*verts[p]), Target(x[b], n_x[b]))
            assert abs(sums[b, p] - ref) < 1e-9 * max(abs(ref), 1e-6)


def test_g_entries_match_scalar_including_on_plane():
    rng = np.random.default_rng(9)
    verts = rng.uniform(-1, 1, (40, 3, 3))
    x = rng.uniform(-1.5, 1.5, (4, 3))
    vals, fb = g_panel_entries(x, verts)
    assert not fb.any()
    for b in range(4):
        for p in range(40):
            ref = scalar_g_hats(verts[p], x[b])
            assert np.allclose(vals[b, p], ref,
                               rtol=1e-8, atol=1e-11 * np.abs(ref).max())
    # points in the panel plane, inside and outside the triangle
    for trial in range(40):
        v = rng.uniform(-1, 1, (3, 3))
        lam = rng.normal(size=3)
        lam /= lam.sum() if abs(lam.sum()) > 0.2 else 1.0
        xx = lam @ v
        got, fb1 = g_panel_entries(xx[None], v[None])
        if fb1[0, 0]:
            continue
        ref = scalar_g_hats(v, xx)
        assert np.allclose(got[0, 0], ref,
                           rtol=1e-8, atol=1e-10 * np.abs(ref).max())


@pytest.mark.parametrize("placement", ["vertex", "edge_mid", "centroid",
                                       "interior", "edge_line"])
def test_k_entries_match_scalar_degenerate_projections(placement):
    # targets whose in-plane projection lands exactly on the wedge
    # decomposition's special sets
    rng = np.random.default_rng(hash_seed(placement))
    checked = 0
    for trial in range(120):
        v = rng.uniform(-1, 1, (3, 3))
        pan = Panel(*v)
        if placement == "vertex":
            base = v[rng.integers(3)]
        elif placement == "edge_mid":
            i = rng.integers(3)
            base = 0.5 * (v[i] + v[(i + 1) % 3])
        elif placement == "centroid":
            base = v.mean(axis=0)
        elif placement == "interior":
            base = rng.dirichlet(np.ones(3)) @ v
        else:
            base = v[0] + 2.3 * (v[1] - v[0])
        h = rng.choice([1e-6, 1e-3, 0.1, 1.0]) * rng.choice([-1.0, 1.0])
        x = base + h * pan.normal
        n_x = rng.normal(size=3)
        n_x /= np.linalg.norm(n_x)
        vals, fb = k_panel_entries(x[None], n_x[None], v[None])
        if fb[0, 0]:
            continue  # flagged pairs go to the scalar path by contract
        ref = scalar_k_hats(v, x, n_x)
        assert np.allclose(vals[0, 0], ref,
                           rtol=1e-7, atol=1e-9 * max(np.abs(ref).max(), 1e-6))
        checked += 1
    assert checked > 60


def hash_seed(text):
    import zlib

    return zlib.crc32(text.encode())


def test_incident_pairs_are_flagged_for_fallback():
    rng = np.random.default_rng(11)
    v = rng.uniform(-1, 1, (3, 3))
    n_x = np.array([0.0, 0.0, 1.0])
    vals, fb = k_panel_entries(v[0][None], n_x[None], v[None])
    assert fb[0, 0]
    assert vals[0, 0, 0] == 0.0
    # coplanar outside the panel is flagged too (scalar path handles it)
    out = v[0] + 2.0 * (v[1] - v[0]) + 1.5 * (v[2] - v[0])
    vals, fb = k_panel_entries(out[None], n_x[None], v[None])
    assert fb[0, 0]


def test_degenerate_panel_is_flagged():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    x = np.array([[0.3, 0.4, 0.8]])
    n_x = np.array([[0.0, 0.0, 1.0]])
    _, fb = k_panel_entries(x, n_x, v[None])
    assert fb[0, 0]
    _, fbg = g_panel_entries(x, v[None])
    assert fbg[0, 0]


def test_near_singular_heights_stay_accurate():
    # heights spanning eight decades above a fixed interior point
    rng = np.random.default_rng(12)
    v = rng.uniform(-1, 1, (3, 3))
    pan = Panel(*v)
    base = rng.dirichlet(np.ones(3)) @ v
    n_x = rng.normal(size=3)
    n_x /= np.linalg.norm(n_x)
    for expo in range(1, 9):
        h = 10.0 ** -expo
        x = base + h * pan.normal
        vals, fb = k_panel_entries(x[None], n_x[None], v[None])
        assert not fb[0, 0]
        ref = scalar_k_hats(v, x, n_x)
        assert np.allclose(vals[0, 0], ref, rtol=1e-7,
                           atol=1e-10 * np.abs(ref).max())


def test_blocked_and_single_calls_agree():
    rng = np.random.default_rng(13)
    verts = rng.uniform(-1, 1, (30, 3, 3))
    x = rng.uniform(-1.5, 1.5, (10, 3))
    n_x = rng.normal(size=(10, 3))
    n_x /= np.linalg.norm(n_x, axis=1, keepdims=True)
    all_vals, _ = k_panel_entries(x, n_x, verts)
    scale = np.abs(all_vals).max()
    for b in range(10):
        one, _ = k_panel_entries(x[b][None], n_x[b][None], verts)
        # block shape only changes BLAS reduction order
        assert np.allclose(one[0], all_vals[b], rtol=1e-12, atol=1e-14 * scale)


def _worst_against_scalar(x, n_x, verts):
    """Largest |batch - scalar| over every pair no entry flags, relative
    to the pair's largest scalar hat value, per entry."""
    kv, kfb = k_panel_entries(x, n_x, verts)
    sv, sfb = k_row_sums(x, n_x, verts)
    gv, gfb = g_panel_entries(x, verts)
    assert np.array_equal(kfb, sfb)
    worst = {"k_panel_entries": 0.0, "k_row_sums": 0.0, "g_panel_entries": 0.0}
    for b, p in zip(*np.nonzero(~kfb)):
        ref = np.asarray(integrate_k_panel(Panel(*verts[p]),
                                           Target(x[b], n_x[b]), HATS))
        scale = np.abs(ref).max()
        worst["k_panel_entries"] = max(worst["k_panel_entries"],
                                       np.abs(kv[b, p] - ref).max() / scale)
        worst["k_row_sums"] = max(worst["k_row_sums"],
                                  abs(sv[b, p] - ref.sum()) / scale)
    for b, p in zip(*np.nonzero(~gfb)):
        ref = np.asarray(integrate_g_panel(Panel(*verts[p]), Target(x[b]), HATS))
        worst["g_panel_entries"] = max(worst["g_panel_entries"],
                                       np.abs(gv[b, p] - ref).max()
                                       / np.abs(ref).max())
    return worst


def test_entries_match_scalar_on_every_bem_pair():
    # every unflagged node pair of torus_in_sphere_problem(1, 8, 4), with
    # the assembly's normals, and seeded rows of an icosphere
    sphere = generate_sphere_mesh(1)
    torus = generate_torus_mesh(0.4, 0.2, 8, 4)
    t_norm = np.array([torus_probe(0.4, 0.2).gradient(p) for p in torus.nodes])
    x = np.concatenate([sphere.nodes, torus.nodes])
    n_x = np.concatenate([sphere.nodes, t_norm])
    n_x /= np.linalg.norm(n_x, axis=1, keepdims=True)
    tris = np.concatenate([sphere.triangles, torus.triangles + sphere.n_nodes])
    ico = generate_sphere_mesh(2)
    rows = np.random.default_rng(6).choice(ico.n_nodes, 4, replace=False)
    y = ico.nodes[rows]
    for worst in (_worst_against_scalar(x, n_x, x[tris]),
                  _worst_against_scalar(y, y / np.linalg.norm(y, axis=1)[:, None],
                                        ico.nodes[ico.triangles])):
        assert max(worst.values()) <= 1e-11, worst


def test_prebuilt_table_changes_nothing():
    # the assembler passes the panel table it built once; the benchmark
    # and the tests let each entry build its own
    rng = np.random.default_rng(14)
    verts = rng.uniform(-1, 1, (40, 3, 3))
    verts[3, 2] = 2.0 * verts[3, 1] - verts[3, 0]      # one degenerate panel
    x = np.concatenate([rng.uniform(-1.5, 1.5, (5, 3)), verts[:2, 0],
                        verts[5].mean(axis=0)[None]])
    n_x = rng.normal(size=(len(x), 3))
    n_x /= np.linalg.norm(n_x, axis=1, keepdims=True)
    table = _panel_table(verts)
    for own, shared in (
            (k_panel_entries(x, n_x, verts), k_panel_entries(x, n_x, verts, table)),
            (k_row_sums(x, n_x, verts), k_row_sums(x, n_x, verts, table=table)),
            (g_panel_entries(x, verts), g_panel_entries(x, verts, table=table))):
        assert own[1].any()
        assert np.array_equal(own[0], shared[0])
        assert np.array_equal(own[1], shared[1])
