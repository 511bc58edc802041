"""Triangulated surface meshes: loading, saving, generators, validation.

Meshes carry nodes, triangle connectivity, and optional per-node unit
normals.  Triangle orientation is trusted as given (outward by
convention); `signed_volume` is the diagnostic for checking it.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MeshError

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array([
    [-1.0, _GOLDEN, 0.0], [1.0, _GOLDEN, 0.0], [-1.0, -_GOLDEN, 0.0], [1.0, -_GOLDEN, 0.0],
    [0.0, -1.0, _GOLDEN], [0.0, 1.0, _GOLDEN], [0.0, -1.0, -_GOLDEN], [0.0, 1.0, -_GOLDEN],
    [_GOLDEN, 0.0, -1.0], [_GOLDEN, 0.0, 1.0], [-_GOLDEN, 0.0, -1.0], [-_GOLDEN, 0.0, 1.0],
])

_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
])


@dataclass
class SurfaceMesh:
    """Triangulated surface: nodes (N, 3), triangles (M, 3), optional normals."""
    nodes: np.ndarray
    triangles: np.ndarray
    node_normals: np.ndarray | None = None

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=int)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise MeshError(f"nodes must be (N, 3), got {self.nodes.shape}")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError(f"triangles must be (M, 3), got {self.triangles.shape}")
        if self.node_normals is not None:
            self.node_normals = np.asarray(self.node_normals, dtype=float)
            if self.node_normals.shape != self.nodes.shape:
                raise MeshError("node_normals shape must match nodes")
        self.validate()

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def validate(self):
        tri = self.triangles
        n = len(self.nodes)
        if tri.size and (tri.min() < 0 or tri.max() >= n):
            bad = int(np.nonzero((tri < 0) | (tri >= n))[0][0])
            raise MeshError(f"triangle {bad} references a node outside 0..{n - 1}")
        repeated = (tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]) | (tri[:, 0] == tri[:, 2])
        if repeated.any():
            raise MeshError(f"triangle {int(np.nonzero(repeated)[0][0])} has repeated vertices")
        pts = self.nodes[tri]
        cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
        norms = np.linalg.norm(cross, axis=1)
        edges = np.stack([pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0], pts[:, 2] - pts[:, 1]])
        scale2 = (edges ** 2).sum(axis=2).max(axis=0)
        tiny = norms <= 1e-14 * np.maximum(scale2, 1e-300)
        if tiny.any():
            raise MeshError(f"triangle {int(np.nonzero(tiny)[0][0])} is degenerate (zero area)")
        if self.node_normals is not None:
            lens = np.linalg.norm(self.node_normals, axis=1)
            if np.abs(lens - 1.0).max() > 1e-12:
                raise MeshError("node_normals must be unit vectors")


def load_mesh(path, format: str | None = None) -> SurfaceMesh:
    """Load a SurfaceMesh from an OFF or JSON file.

    format is "off" or "json"; inferred from the file suffix when omitted.
    """
    path = Path(path)
    fmt = (format or path.suffix.lstrip(".")).lower()
    if fmt == "off":
        return _load_off(path)
    if fmt == "json":
        return _load_json(path)
    raise MeshError(f"unknown mesh format {fmt!r} (expected 'off' or 'json')")


def save_mesh(mesh: SurfaceMesh, path, format: str | None = None) -> None:
    """Write a SurfaceMesh to an OFF or JSON file (formats as in load_mesh)."""
    path = Path(path)
    fmt = (format or path.suffix.lstrip(".")).lower()
    if fmt == "off":
        lines = ["OFF", f"{mesh.n_nodes} {mesh.n_triangles} 0"]
        lines += ["%.17g %.17g %.17g" % tuple(p) for p in mesh.nodes]
        lines += ["3 %d %d %d" % tuple(t) for t in mesh.triangles]
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        doc = {"nodes": mesh.nodes.tolist(), "triangles": mesh.triangles.tolist()}
        if mesh.node_normals is not None:
            doc["node_normals"] = mesh.node_normals.tolist()
        path.write_text(json.dumps(doc))
    else:
        raise MeshError(f"unknown mesh format {fmt!r} (expected 'off' or 'json')")


def _load_off(path: Path) -> SurfaceMesh:
    tokens = []
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if not tokens or tokens[0].upper() != "OFF":
        raise MeshError(f"{path}: missing OFF header")
    try:
        n, m = int(tokens[1]), int(tokens[2])
        pos = 4  # skip the edge count
        flat = [float(t) for t in tokens[pos:pos + 3 * n]]
        if len(flat) != 3 * n:
            raise ValueError("truncated node list")
        nodes = np.array(flat).reshape(n, 3)
        pos += 3 * n
        faces = []
        for f in range(m):
            k = int(tokens[pos])
            if k != 3:
                raise MeshError(f"{path}: face {f} has {k} vertices, only triangles supported")
            faces.append([int(tokens[pos + 1]), int(tokens[pos + 2]), int(tokens[pos + 3])])
            pos += 4
    except MeshError:
        raise
    except (ValueError, IndexError) as exc:
        raise MeshError(f"{path}: OFF parse failure: {exc}") from exc
    return SurfaceMesh(nodes, np.array(faces, dtype=int).reshape(m, 3))


def _load_json(path: Path) -> SurfaceMesh:
    try:
        doc = json.loads(path.read_text())
        nodes = np.array(doc["nodes"], dtype=float)
        triangles = np.array(doc["triangles"], dtype=int)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise MeshError(f"{path}: JSON parse failure: {exc}") from exc
    normals = doc.get("node_normals")
    if normals is not None:
        normals = np.array(normals, dtype=float)
    return SurfaceMesh(nodes, triangles, normals)


def generate_sphere_mesh(subdivisions: int) -> SurfaceMesh:
    """Icosahedron subdivided and projected to the unit sphere.

    Node count is 10 * 4**subdivisions + 2; orientation is outward.
    """
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = [tuple(f) for f in _ICO_FACES]
    for _ in range(subdivisions):
        midpoint = {}

        def mid(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for i, j, k in faces:
            a, b, c = mid(i, j), mid(j, k), mid(k, i)
            new_faces += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        faces = new_faces
    return SurfaceMesh(np.array(verts), np.array(faces, dtype=int))


def generate_latlong_sphere_mesh(n_u: int, n_v: int) -> SurfaceMesh:
    """Latitude-longitude unit sphere: n_u azimuthal segments, n_v polar bands.

    Node count is n_u * (n_v - 1) + 2 (two poles plus interior rings), with
    2 * n_u * (n_v - 1) triangles.  The thin triangle fans at the poles make
    this a deliberately acute-triangle stress fixture; use the Fibonacci
    mesh when quasi-uniform quality matters.
    """
    if n_u < 3 or n_v < 2:
        raise ValueError("need n_u >= 3 and n_v >= 2")
    nodes = [np.array([0.0, 0.0, 1.0])]
    for i in range(1, n_v):
        theta = math.pi * i / n_v
        st, ct = math.sin(theta), math.cos(theta)
        for j in range(n_u):
            phi = 2.0 * math.pi * j / n_u
            nodes.append(np.array([st * math.cos(phi), st * math.sin(phi), ct]))
    nodes.append(np.array([0.0, 0.0, -1.0]))
    south = len(nodes) - 1

    def idx(i, j):
        return 1 + (i - 1) * n_u + (j % n_u)

    faces = []
    for j in range(n_u):
        faces.append((0, idx(1, j), idx(1, j + 1)))
    for i in range(1, n_v - 1):
        for j in range(n_u):
            a, b = idx(i, j), idx(i, j + 1)
            c, d = idx(i + 1, j), idx(i + 1, j + 1)
            faces += [(a, c, d), (a, d, b)]
    for j in range(n_u):
        faces.append((south, idx(n_v - 1, j + 1), idx(n_v - 1, j)))
    return SurfaceMesh(np.array(nodes), np.array(faces, dtype=int))


def generate_fibonacci_sphere_mesh(n_nodes: int) -> SurfaceMesh:
    """Quasi-uniform unit sphere: golden-angle spiral nodes, hull connectivity.

    Avoids the thin polar slivers of the latitude-longitude construction;
    7202 nodes give the 14400-triangle mesh of the identity benchmark.
    """
    if n_nodes < 4:
        raise ValueError("need at least 4 nodes")
    from scipy.spatial import ConvexHull

    i = np.arange(n_nodes)
    z = 1.0 - (2.0 * i + 1.0) / n_nodes
    phi = 2.0 * math.pi * i / _GOLDEN ** 2
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    nodes = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    faces = ConvexHull(nodes).simplices.copy()
    pts = nodes[faces]
    outward = np.einsum("ij,ij->i",
                        np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]),
                        pts.mean(axis=1))
    flip = outward < 0.0
    faces[flip, 1], faces[flip, 2] = faces[flip, 2], faces[flip, 1]
    return SurfaceMesh(nodes, faces)


def generate_torus_mesh(major: float, minor: float, n_u: int, n_v: int) -> SurfaceMesh:
    """Structured torus triangulation with outward orientation.

    n_u segments around the major circle, n_v around the tube; n_u * n_v
    nodes and 2 * n_u * n_v triangles.
    """
    if not 0.0 < minor < major:
        raise ValueError("need 0 < minor < major")
    if n_u < 3 or n_v < 3:
        raise ValueError("need n_u >= 3 and n_v >= 3")
    nodes = np.empty((n_u * n_v, 3))
    normals = np.empty_like(nodes)
    for i in range(n_u):
        u = 2.0 * math.pi * i / n_u
        cu, su = math.cos(u), math.sin(u)
        for j in range(n_v):
            v = 2.0 * math.pi * j / n_v
            cv, sv = math.cos(v), math.sin(v)
            nodes[i * n_v + j] = [(major + minor * cv) * cu, (major + minor * cv) * su, minor * sv]
            normals[i * n_v + j] = [cv * cu, cv * su, sv]

    def idx(i, j):
        return (i % n_u) * n_v + (j % n_v)

    faces = []
    for i in range(n_u):
        for j in range(n_v):
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i, j + 1), idx(i + 1, j + 1)
            faces += [(a, b, c), (b, d, c)]
    return SurfaceMesh(nodes, np.array(faces, dtype=int), normals)


def signed_volume(mesh: SurfaceMesh) -> float:
    """Enclosed volume by the divergence theorem; positive for outward orientation."""
    pts = mesh.nodes[mesh.triangles]
    return float(np.einsum("ij,ij->i", pts[:, 0], np.cross(pts[:, 1], pts[:, 2])).sum() / 6.0)


def require_closed_outward(mesh: SurfaceMesh) -> None:
    """Raise MeshError unless the mesh is closed and oriented outward.

    Closed: every undirected edge bounds exactly two triangles, traversed
    once in each direction.  Outward: positive signed volume.
    """
    n = mesh.n_nodes
    heads = mesh.triangles.ravel()
    tails = mesh.triangles[:, [1, 2, 0]].ravel()
    edges = np.unique(heads * n + tails)
    if len(edges) < len(heads) or not np.isin(tails * n + heads, edges).all():
        raise MeshError("mesh is not closed and consistently oriented: every "
                        "edge must bound two triangles, once in each direction")
    if signed_volume(mesh) <= 0.0:
        raise MeshError("mesh is oriented inward (signed volume <= 0)")
