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
from scipy import sparse

from .batch import tangent_frames
from .errors import MeshError
from .mesh_io import SurfaceMesh, _unit_normals


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


def _rings(mesh: SurfaceMesh) -> tuple:
    """The fit's rings as a CSR table (indptr, sorted node ids): each node's
    1-ring, or its 2-ring without itself when the 1-ring has fewer than 8."""
    t = mesh.triangles  # each vertex to the other two of its triangle
    adj = sparse.csr_array((np.ones(2 * t.size), (t[:, [0, 0, 1, 1, 2, 2]].ravel(),
                            t[:, [1, 2, 0, 2, 0, 1]].ravel())), shape=(mesh.n_nodes,) * 2)
    ring = adj + sparse.diags_array(1.0 * (np.diff(adj.indptr) < 8)) @ adj @ adj
    ring = (sparse.triu(ring, 1) + sparse.tril(ring, -1)).tocsr()
    return ring.indptr, ring.indices


def _fit(mesh: SurfaceMesh, frames) -> np.ndarray:
    """(k11, k12, k22) per node, (N, 3): each ring's quadratic fit in its node's
    frame (N, 3, 3), rows t1, t2, n; one column-scaled solve per ring size."""
    indptr, ids = _rings(mesh)
    sizes = np.diff(indptr)
    k = np.empty((mesh.n_nodes, 3))
    for size in np.unique(sizes):  # ascending: a too-small ring is named first
        nodes = np.flatnonzero(sizes == size)
        if size < 5:
            raise MeshError(f"node {nodes[0]}: fewer than 5 neighbors for the quadratic fit")
        ring = mesh.nodes[ids[indptr[nodes, None] + np.arange(size)]] - mesh.nodes[nodes, None]
        s1, s2, h = np.moveaxis(ring @ frames[nodes].transpose(0, 2, 1), 2, 0)
        a = np.stack([s1 * s1, s2 * s2, s1 * s2, s1, s2], axis=-1)
        scale = np.sqrt((a * a).sum(axis=1))
        flat = nodes[(scale <= 1e-300).any(axis=1)]
        if flat.size:  # before the division below
            raise MeshError(f"node {flat[0]}: rank-deficient neighborhood (collinear projection)")
        a_t = (a / scale[:, None]).transpose(0, 2, 1)
        m = a_t @ a_t.transpose(0, 2, 1)
        try:
            coef = np.linalg.solve(m, a_t @ h[..., None])[..., 0] / scale
        except np.linalg.LinAlgError as exc:  # an exact zero pivot, where det is 0
            node = nodes[np.linalg.det(m) == 0][0]
            raise MeshError(f"node {node}: rank-deficient neighborhood") from exc
        bad = nodes[~np.isfinite(coef).all(axis=1)]
        if bad.size:
            raise MeshError(f"node {bad[0]}: quadratic fit did not converge")
        k[nodes] = coef[:, [0, 2, 1]] * [2.0, 1.0, 2.0]  # d, e (linear terms) are discarded
    return k


def estimate_fundamental_forms(mesh: SurfaceMesh, node_normals=None) -> FundamentalForm:
    """Stacked least-squares second fundamental forms at the nodes: in each node's
    frame (tangent_frames basis, normal), h = a s1^2 + b s2^2 + c s1 s2 + d s1 + e s2
    fit to its ring (_rings) gives K = [[2a, c], [c, 2b]].  Normals: _unit_normals."""
    normals = _unit_normals(estimate_normals(mesh) if node_normals is None else node_normals,
                            mesh.n_nodes)
    basis = np.stack(tangent_frames(normals), axis=1)
    k = _fit(mesh, np.concatenate([basis, normals[:, None]], axis=1))
    return FundamentalForm(k[:, 0], k[:, 1], k[:, 2], basis)


def sphere_probe(radius: float = 1.0, center=None) -> SdfProbe:
    """Signed-distance probe of a sphere; the radius must be finite and > 0."""
    if not 0.0 < radius < np.inf:
        raise ValueError(f"need radius > 0 and finite, got {radius!r}")
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
    """Signed-distance probe of a z-axis torus: F = |(rho - R, z)| - r,
    for finite sizes 0 < r < R."""
    if not 0.0 < minor < major < np.inf:
        raise ValueError(f"need 0 < minor < major < inf, got {minor!r}, {major!r}")

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
