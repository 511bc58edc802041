"""Second fundamental forms, from level-set probes or from mesh fitting.

A surface's shape operator at x is S(x) = -hess F / |grad F| for a
(pseudo) signed-distance descriptor F; restricted to an in-plane basis it
gives the second fundamental form K_ij, the Hessian of the surface's
tangent-plane graph; a unit sphere has K = -I.  Every producer of node
forms returns one FundamentalForm stacked over the N nodes, its bases the
tangent frames of the node normals.  Meshes without a descriptor get K
(estimate_fundamental_forms) from an angle-weighted normal estimate and a
least-squares quadratic fit of each node's neighborhood in its frame.
"""

from dataclasses import dataclass

import numpy as np

from .batch import tangent_frames
from .errors import MeshError
from .mesh_io import SurfaceMesh


_XY = np.array([1.0, 1.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])


@dataclass
class SdfProbe:
    """Level-set surface descriptor: F, grad F, hess F as callables of x.

    Each takes one point (3,) or many points (..., 3) and returns F of
    shape (...), grad F (..., 3) and hess F (..., 3, 3).  A probe whose
    callables take single points only still serves single-point calls.
    """
    value: callable
    gradient: callable
    hessian: callable


def _outer(u, v):
    """Outer products of the last axes: (..., 3) x (..., 3) -> (..., 3, 3)."""
    return u[..., :, None] * v[..., None, :]


def _probe_points(x) -> np.ndarray:
    """x as floats of shape (3,) (one point) or (N, 3) (many)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 3:
        raise ValueError(f"points must have shape (3,) or (N, 3), not {x.shape}")
    return x


def _probe_eval(fn, x, tail) -> np.ndarray:
    """fn(x) as floats of shape x.shape[:-1] + tail, for a probe callable
    fn; ValueError when the probe returns another shape."""
    out = np.asarray(fn(x), dtype=float)
    want = x.shape[:-1] + tail
    if out.shape != want:
        raise ValueError(f"probe {getattr(fn, '__name__', 'callable')} returned "
                         f"shape {out.shape} for points of shape {x.shape}, "
                         f"not {want}")
    return out


def _point_name(x, i) -> str:
    """' at point i' for a row of a batched call, '' for one point."""
    return f" at point {int(i)}" if x.ndim == 2 else ""


@dataclass
class FundamentalForm:
    """Second fundamental form in an explicit in-plane basis.

    basis rows are the two world-space unit vectors spanning the tangent
    plane; k11, k12, k22 are the form's entries in that basis: floats and
    (2, 3) at one node, or stacked over nodes, (...) and (..., 2, 3), with
    form[rows] taking rows.  The methods broadcast over the leading axes.
    """
    k11: float | np.ndarray
    k12: float | np.ndarray
    k22: float | np.ndarray
    basis: np.ndarray  # (..., 2, 3)

    def __getitem__(self, rows) -> "FundamentalForm":
        return FundamentalForm(*(np.asarray(a)[rows] for a in (
            self.k11, self.k12, self.k22, self.basis)))

    @property
    def matrix(self) -> np.ndarray:
        k = np.array([[self.k11, self.k12], [self.k12, self.k22]])
        # stacked entries give (2, 2, ...): move the matrix axes last
        return k if k.ndim == 2 else k.transpose((*range(2, k.ndim), 0, 1)).copy()

    def principal_curvatures(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def express_in(self, new_basis) -> "FundamentalForm":
        """The same form in other bases of the same tangent planes."""
        new_basis = np.asarray(new_basis, dtype=float)
        m = new_basis @ np.asarray(self.basis).swapaxes(-1, -2)
        return _restricted(m @ self.matrix @ m.swapaxes(-1, -2), new_basis)


def _restricted(k, basis) -> FundamentalForm:
    """The form of restrictions k (..., 2, 2) to bases (..., 2, 3), symmetrized."""
    return FundamentalForm(k[..., 0, 0], 0.5 * (k[..., 0, 1] + k[..., 1, 0]),
                           k[..., 1, 1], basis)


def shape_operator(probe: SdfProbe, x) -> np.ndarray:
    """S(x) = -hess F(x) / |grad F(x)| at one point (3,), a (3, 3), or at
    points (N, 3), an (N, 3, 3) from one gradient and one Hessian call."""
    x = _probe_points(x)
    glen = np.linalg.norm(_probe_eval(probe.gradient, x, (3,)), axis=-1)
    flat = np.flatnonzero(glen <= 1e-12)
    if flat.size:
        raise ValueError(f"vanishing gradient{_point_name(x, flat[0])}: surface "
                         "descriptor is singular here")
    return -_probe_eval(probe.hessian, x, (3, 3)) / glen[..., None, None]


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


def _fit_entries(mesh, node, frame, neighbors) -> tuple:
    """(k11, k12, k22) of the fit at one node in its frame (rows t1, t2, n)."""
    q = (mesh.nodes[list(neighbors)] - mesh.nodes[node]) @ frame.T
    s1, s2, h = q[:, 0], q[:, 1], q[:, 2]
    a = np.column_stack([s1 * s1, s2 * s2, s1 * s2, s1, s2])
    if len(a) < 5:
        raise MeshError(f"node {node}: fewer than 5 neighbors for the quadratic fit")
    scale = np.sqrt((a * a).sum(axis=0))
    if (scale <= 1e-300).any():
        raise MeshError(f"node {node}: rank-deficient neighborhood (collinear projection)")
    a_s = a / scale
    try:
        coef = np.linalg.solve(a_s.T @ a_s, a_s.T @ h) / scale
    except np.linalg.LinAlgError as exc:
        raise MeshError(f"node {node}: rank-deficient neighborhood") from exc
    if not np.all(np.isfinite(coef)):
        raise MeshError(f"node {node}: quadratic fit did not converge")
    return 2.0 * coef[0], coef[2], 2.0 * coef[1]  # d, e (linear terms) are discarded


def _ring(adj, node):
    neighbors = set(adj[node])
    if len(neighbors) < 8:
        for k in list(neighbors):
            neighbors.update(adj[k])
        neighbors.discard(node)
    return sorted(neighbors)


def estimate_fundamental_forms(mesh: SurfaceMesh, node_normals=None) -> FundamentalForm:
    """Least-squares second fundamental forms at the mesh nodes, stacked:
    in each node's frame (its batch.tangent_frames basis and its normal)
    fits h = a s1^2 + b s2^2 + c s1 s2 + d s1 + e s2 to its 1-ring (the
    2-ring when the 1-ring has fewer than 8 nodes); K = [[2a, c], [c, 2b]].
    """
    normals = estimate_normals(mesh) if node_normals is None \
        else np.asarray(node_normals, dtype=float)
    basis = np.stack(tangent_frames(normals), axis=1)
    frames = np.concatenate([basis, normals[:, None]], axis=1)
    adj = _adjacency(mesh)
    k = np.array([_fit_entries(mesh, n, frames[n], _ring(adj, n))
                  for n in range(mesh.n_nodes)]).reshape(-1, 3)
    return FundamentalForm(k[:, 0], k[:, 1], k[:, 2], basis)


def sphere_probe(radius: float = 1.0, center=None) -> SdfProbe:
    """Signed-distance probe of a sphere."""
    if not radius > 0.0:
        raise ValueError("need radius > 0")
    c = np.zeros(3) if center is None else np.asarray(center, dtype=float)

    def value(x):
        d = np.asarray(x, dtype=float) - c
        return np.sqrt((d * d).sum(axis=-1)) - radius

    def gradient(x):
        d = np.asarray(x, dtype=float) - c
        return d / np.sqrt((d * d).sum(axis=-1))[..., None]

    def hessian(x):
        d = np.asarray(x, dtype=float) - c
        r = np.sqrt((d * d).sum(axis=-1))[..., None]
        u = d / r
        return (np.eye(3) - _outer(u, u)) / r[..., None]

    return SdfProbe(value, gradient, hessian)


def torus_probe(major: float, minor: float) -> SdfProbe:
    """Signed-distance probe of a z-axis torus: F = |(rho - R, z)| - r."""
    if not 0.0 < minor < major:
        raise ValueError("need 0 < minor < major")

    def parts(x):
        x = np.asarray(x, dtype=float)
        rho = np.hypot(x[..., 0], x[..., 1])
        q = rho - major
        return x, rho, q, np.hypot(q, x[..., 2])

    def value(x):
        return parts(x)[3] - minor

    def gradient(x):
        # (q grad rho + z e_z) / m, grad rho = (x, y, 0) / rho
        x, rho, q, m = parts(x)
        g = x / m[..., None]
        g[..., :2] *= (q / rho)[..., None]
        return g

    def hessian(x):
        x, rho, q, m = parts(x)
        grho = x * _XY / rho[..., None]
        g = (q[..., None] * grho + x[..., 2, None] * _EZ) / m[..., None]
        hrho = (np.diag(_XY) - _outer(grho, grho)) / rho[..., None, None]
        return (_outer(grho, grho) + _outer(_EZ, _EZ) + q[..., None, None] * hrho
                - _outer(g, g)) / m[..., None, None]

    return SdfProbe(value, gradient, hessian)
