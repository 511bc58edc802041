"""Second fundamental forms, from level-set probes or from mesh fitting.

A surface's shape operator at x is S(x) = -hess F / |grad F| for a
(pseudo) signed-distance descriptor F; restricted to an in-plane basis it
gives the second fundamental form K_ij, the Hessian of the surface's
tangent-plane graph.  With the outward normal rotated to +z a unit sphere
has K = -I.  Meshes without a descriptor get K from an angle-weighted
normal estimate and a least-squares quadratic fit of the rotated
neighborhood.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeshError
from .geometry import rotation_to_z
from .mesh_io import SurfaceMesh


@dataclass
class SdfProbe:
    """Level-set surface descriptor: F, grad F, hess F as callables of x."""
    value: callable
    gradient: callable
    hessian: callable


@dataclass
class FundamentalForm:
    """Second fundamental form in an explicit in-plane basis.

    basis rows are the two world-space unit vectors spanning the tangent
    plane; k11, k12, k22 are the form's entries in that basis.
    """
    k11: float
    k12: float
    k22: float
    basis: np.ndarray  # (2, 3)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.k11, self.k12], [self.k12, self.k22]])

    def principal_curvatures(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def express_in(self, new_basis) -> "FundamentalForm":
        """The same form in another basis of the same tangent plane."""
        new_basis = np.asarray(new_basis, dtype=float)
        m = new_basis @ np.asarray(self.basis).T
        k = m @ self.matrix @ m.T
        return FundamentalForm(k[0, 0], 0.5 * (k[0, 1] + k[1, 0]), k[1, 1], new_basis)


def shape_operator(probe: SdfProbe, x) -> np.ndarray:
    """S(x) = -hess F(x) / |grad F(x)|."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(probe.gradient(x), dtype=float)
    glen = np.linalg.norm(g)
    if glen <= 1e-12:
        raise ValueError("vanishing gradient: surface descriptor is singular here")
    return -np.asarray(probe.hessian(x), dtype=float) / glen


def fundamental_form_from_shape(shape: np.ndarray, rotation) -> FundamentalForm:
    """Restrict a 3x3 shape operator to the in-plane basis of a rotation
    that maps the surface normal onto +z (a normalized frame's rotation).

    K_ij = (R^T e_i) . S . (R^T e_j).
    """
    rot = np.asarray(rotation, dtype=float)
    basis = rot[:2]  # rows: world vectors mapped to the frame's x and y axes
    k = basis @ np.asarray(shape, dtype=float) @ basis.T
    return FundamentalForm(k[0, 0], 0.5 * (k[0, 1] + k[1, 0]), k[1, 1], basis.copy())


def estimate_normals(mesh: SurfaceMesh) -> np.ndarray:
    """Angle-weighted average of incident triangle normals, per node."""
    pts = mesh.nodes[mesh.triangles]
    fn = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    fn = fn / np.linalg.norm(fn, axis=1)[:, None]
    acc = np.zeros_like(mesh.nodes)
    for k in range(3):
        u = pts[:, (k + 1) % 3] - pts[:, k]
        w = pts[:, (k + 2) % 3] - pts[:, k]
        cosang = np.einsum("ij,ij->i", u, w) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1))
        ang = np.arccos(np.clip(cosang, -1.0, 1.0))
        np.add.at(acc, mesh.triangles[:, k], ang[:, None] * fn)
    lens = np.linalg.norm(acc, axis=1)
    bad = np.nonzero(lens <= 1e-300)[0]
    if bad.size:
        raise MeshError(f"node {int(bad[0])} has no usable incident triangles")
    return acc / lens[:, None]


def _adjacency(mesh: SurfaceMesh) -> list:
    adj = [set() for _ in range(mesh.n_nodes)]
    for i, j, k in mesh.triangles:
        adj[i].update((j, k))
        adj[j].update((i, k))
        adj[k].update((i, j))
    return adj


def _fit_form(mesh, node, normal, neighbors) -> FundamentalForm:
    rot = rotation_to_z(normal)
    q = (mesh.nodes[list(neighbors)] - mesh.nodes[node]) @ rot.T
    s1, s2, h = q[:, 0], q[:, 1], q[:, 2]
    a = np.column_stack([s1 * s1, s2 * s2, s1 * s2, s1, s2])
    if len(a) < 5:
        raise MeshError(f"node {node}: fewer than 5 neighbors for the quadratic fit")
    scale = np.sqrt((a * a).sum(axis=0))
    if (scale <= 1e-300).any():
        raise MeshError(f"node {node}: rank-deficient neighborhood (collinear projection)")
    a_s = a / scale
    gram = a_s.T @ a_s
    try:
        coef = np.linalg.solve(gram, a_s.T @ h) / scale
    except np.linalg.LinAlgError as exc:
        raise MeshError(f"node {node}: rank-deficient neighborhood") from exc
    if not np.all(np.isfinite(coef)):
        raise MeshError(f"node {node}: quadratic fit did not converge")
    ca, cb, cc = coef[0], coef[1], coef[2]  # d, e (linear terms) are discarded
    return FundamentalForm(2.0 * ca, cc, 2.0 * cb, rot[:2].copy())


def estimate_fundamental_form(mesh: SurfaceMesh, node: int, node_normals=None) -> FundamentalForm:
    """Least-squares second fundamental form at one mesh node.

    Rotates the node's normal to +z, fits h = a s1^2 + b s2^2 + c s1 s2
    + d s1 + e s2 to the 1-ring neighbors (widened to the 2-ring when the
    1-ring has fewer than 8 nodes), and returns [[2a, c], [c, 2b]] with
    the basis used.
    """
    if node_normals is None:
        node_normals = estimate_normals(mesh)
    adj = _adjacency(mesh)
    return _fit_form(mesh, node, node_normals[node], _ring(adj, node))


def _ring(adj, node):
    neighbors = set(adj[node])
    if len(neighbors) < 8:
        for k in list(neighbors):
            neighbors.update(adj[k])
        neighbors.discard(node)
    return sorted(neighbors)


def estimate_fundamental_forms(mesh: SurfaceMesh, node_normals=None) -> list:
    """Fundamental forms at every node (shared adjacency and normals)."""
    if node_normals is None:
        node_normals = estimate_normals(mesh)
    adj = _adjacency(mesh)
    return [_fit_form(mesh, n, node_normals[n], _ring(adj, n))
            for n in range(mesh.n_nodes)]


def sphere_probe(radius: float = 1.0, center=None) -> SdfProbe:
    """Signed-distance probe of a sphere."""
    c = np.zeros(3) if center is None else np.asarray(center, dtype=float)

    def value(x):
        return np.linalg.norm(x - c) - radius

    def gradient(x):
        d = x - c
        return d / np.linalg.norm(d)

    def hessian(x):
        d = x - c
        r = np.linalg.norm(d)
        u = d / r
        return (np.eye(3) - np.outer(u, u)) / r

    return SdfProbe(value, gradient, hessian)


def torus_probe(major: float, minor: float) -> SdfProbe:
    """Signed-distance probe of a z-axis torus: F = |(rho - R, z)| - r."""

    def parts(x):
        rho = math.hypot(x[0], x[1])
        q = np.array([rho - major, x[2]])
        return rho, q, np.linalg.norm(q)

    def value(x):
        return parts(x)[2] - minor

    def gradient(x):
        rho, q, m = parts(x)
        grho = np.array([x[0] / rho, x[1] / rho, 0.0])
        return (q[0] * grho + q[1] * np.array([0.0, 0.0, 1.0])) / m

    def hessian(x):
        rho, q, m = parts(x)
        grho = np.array([x[0] / rho, x[1] / rho, 0.0])
        ez = np.array([0.0, 0.0, 1.0])
        hrho = np.zeros((3, 3))
        hrho[:2, :2] = (np.eye(2) - np.outer(grho[:2], grho[:2])) / rho
        gm = (q[0] * grho + q[1] * ez) / m
        return (np.outer(grho, grho) + np.outer(ez, ez) + q[0] * hrho
                - np.outer(gm, gm)) / m

    return SdfProbe(value, gradient, hessian)
