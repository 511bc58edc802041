"""Tests for mesh loading, saving, generation and validation."""

import math

import numpy as np
import pytest

from tripanel.errors import MeshError
from tripanel.mesh_io import (
    SurfaceMesh,
    generate_sphere_mesh,
    generate_torus_mesh,
    load_mesh,
    save_mesh,
    signed_volume,
)

TET_OFF = """OFF
# regular-ish tetrahedron
4 4 0
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""


def test_load_off_tetrahedron(tmp_path):
    p = tmp_path / "tet.off"
    p.write_text(TET_OFF)
    mesh = load_mesh(p)
    assert mesh.n_nodes == 4 and mesh.n_triangles == 4
    assert signed_volume(mesh) == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_load_off_bad_index(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text(TET_OFF.replace("3 1 2 3", "3 1 2 7"))
    with pytest.raises(MeshError, match="triangle 3"):
        load_mesh(p)


def test_load_off_not_off(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("PLY\n4 4 0\n")
    with pytest.raises(MeshError, match="OFF header"):
        load_mesh(p)


def test_load_off_quad_face(tmp_path):
    p = tmp_path / "quad.off"
    p.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(MeshError, match="face 0"):
        load_mesh(p)


def test_load_off_truncated(tmp_path):
    p = tmp_path / "trunc.off"
    p.write_text("OFF\n4 4 0\n0 0 0\n1 0 0\n")
    with pytest.raises(MeshError, match="parse failure"):
        load_mesh(p)


def test_validation_rejects_bad_meshes():
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(MeshError, match="repeated"):
        SurfaceMesh(nodes, [[0, 1, 1]])
    with pytest.raises(MeshError, match="degenerate"):
        SurfaceMesh(nodes, [[0, 1, 2]])  # collinear
    with pytest.raises(MeshError, match="outside"):
        SurfaceMesh(nodes, [[0, 1, 9]])
    tri_nodes = nodes[[0, 1, 3]]
    with pytest.raises(MeshError, match="node 0 has a normal of length .*, not a unit vector"):
        SurfaceMesh(tri_nodes, [[0, 1, 2]], node_normals=np.ones((3, 3)))
    with pytest.raises(MeshError, match=r"the mesh has 3 nodes but normals of shape \(2, 3\)"):
        SurfaceMesh(tri_nodes, [[0, 1, 2]], node_normals=np.ones((2, 3)))
    # well-formed mesh passes
    SurfaceMesh(tri_nodes, [[0, 1, 2]], node_normals=np.tile([0.0, 0.0, 1.0], (3, 1)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_validation_rejects_non_finite_coordinates(bad):
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    normals = np.tile([0.0, 0.0, 1.0], (3, 1))
    nodes[2, 1] = bad
    with pytest.raises(MeshError, match="node 2 has a non-finite coordinate"):
        SurfaceMesh(nodes, [[0, 1, 2]])
    nodes[2, 1] = 1.0
    normals[1, 2] = bad
    with pytest.raises(MeshError, match="node 1 has a non-finite normal"):
        SurfaceMesh(nodes, [[0, 1, 2]], node_normals=normals)


def test_icosphere_counts_and_projection():
    m0 = generate_sphere_mesh(0)
    assert m0.n_nodes == 12 and m0.n_triangles == 20
    m3 = generate_sphere_mesh(3)
    assert m3.n_nodes == 642 and m3.n_triangles == 1280
    assert np.abs(np.linalg.norm(m3.nodes, axis=1) - 1.0).max() < 1e-14
    with pytest.raises(ValueError):
        generate_sphere_mesh(-1)


def test_icosphere_volume_and_orientation():
    assert signed_volume(generate_sphere_mesh(0)) > 0
    vol = signed_volume(generate_sphere_mesh(3))
    assert vol == pytest.approx(4.0 * math.pi / 3.0, rel=0.01)


def test_torus_counts_equation_volume():
    mesh = generate_torus_mesh(0.4, 0.2, 32, 16)
    assert mesh.n_nodes == 512 and mesh.n_triangles == 1024
    rho = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    resid = (rho - 0.4) ** 2 + mesh.nodes[:, 2] ** 2 - 0.2 ** 2
    assert np.abs(resid).max() < 1e-14
    want = 2.0 * math.pi ** 2 * 0.4 * 0.2 ** 2
    assert signed_volume(mesh) == pytest.approx(want, rel=0.04)
    fine = generate_torus_mesh(0.4, 0.2, 64, 32)
    assert signed_volume(fine) == pytest.approx(want, rel=0.01)
    # analytic outward normals are attached
    i = 17
    n = mesh.node_normals[i]
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        generate_torus_mesh(0.2, 0.4, 32, 16)
    with pytest.raises(ValueError):
        generate_torus_mesh(0.4, 0.2, 2, 16)


def test_json_roundtrip_bit_identical(tmp_path):
    mesh = generate_sphere_mesh(2)
    p = tmp_path / "sphere.json"
    save_mesh(mesh, p)
    back = load_mesh(p)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.triangles, mesh.triangles)
    # normals survive the round trip too
    t = generate_torus_mesh(0.4, 0.2, 8, 6)
    p2 = tmp_path / "torus.json"
    save_mesh(t, p2)
    back2 = load_mesh(p2)
    assert np.array_equal(back2.node_normals, t.node_normals)


def test_off_roundtrip_exact(tmp_path):
    mesh = generate_sphere_mesh(1)
    p = tmp_path / "sphere.off"
    save_mesh(mesh, p)
    back = load_mesh(p, format="off")
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.triangles, mesh.triangles)


def test_unknown_format(tmp_path):
    mesh = generate_sphere_mesh(0)
    with pytest.raises(MeshError, match="format"):
        save_mesh(mesh, tmp_path / "mesh.stl")
    (tmp_path / "mesh.stl").write_text("x")
    with pytest.raises(MeshError, match="format"):
        load_mesh(tmp_path / "mesh.stl")
