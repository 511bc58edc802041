"""Collocation BEM for the interior Laplace Neumann problem.

The potential is represented as a single layer u(x) = int_S G(x, y)
gamma(y) dS(y) with a continuous piecewise-linear density on the panel
mesh.  Collocating the flux at the mesh nodes gives, at a node x_j of
the outer boundary with outward normal n(x_j),

    -1/2 gamma(x_j) + sum_panels int K(x_j, y) gamma(y) dS(y) = b(x_j),

the -1/2 being the interior limit of the adjoint double layer.  Closed
interfaces listed after the outer boundary are treated as insulators
(zero flux from the domain side); since their outward normals point
into the domain the jump term flips to +1/2 and the right-hand side is
zero there.

Every operator here (the collocation matrix, the identity row sums, the
single-layer matrix, the potential and its gradient) is a sum over
(target, panel) pairs that one engine, `_pair_blocks`, evaluates a block
of targets at a time.  Each pair takes one of three routes:

1. batch: the vectorized flat closed forms of `batch`;
2. scalar fallback: pairs the batch flags as ill-conditioned, redone by
   the closed forms of `panel_integrals`, one call per pair for all of
   its densities (one decomposition and one moment set);
3. singular strategy: the incident pairs (a node and a panel that has
   the node as a vertex), where the flat-panel integral diverges: the
   curvature-corrected closed form (QSA), zero, or one-point quadrature
   at the flat or surface-projected centroid, evaluated for all of an
   operator's incident pairs in one vectorized call.

Any other pair whose flat integral diverges has a node lying on a panel
it is not a vertex of (touching or intersecting meshes): the K
operators at the nodes raise MeshError for it.

Each operator only reduces the blocks: it scatters hat values into
matrix rows, sums rows, or contracts with the density.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .batch import (
    _panel_table,
    g_panel_entries,
    k_panel_entries,
    k_row_sums,
    tangent_frames,
)
from .curvature import (
    FundamentalForm,
    estimate_normals,
    fundamental_form_from_shape,
    shape_operator,
    sphere_probe,
    torus_probe,
)
from .errors import ConvergenceFailure, DivergentIntegral, MeshError
from .geometry import Panel, Target, rotation_to_z
from .mesh_io import (
    SurfaceMesh,
    generate_sphere_mesh,
    generate_torus_mesh,
    require_closed_outward,
)
from .panel_integrals import (
    FOUR_PI,
    PanelPolynomial,
    integrate_g_panel,
    integrate_k_panel,
)
from .qsa import foot_point, qsa_vertex_rows
# a bem attribute that bench/layers.py traces; no operator here calls it
from .qsa import qsa_on_boundary  # noqa: F401

# the densities a pair is integrated against: the three vertex hats of a
# matrix entry, or the unit density of an identity row sum
_HATS = [PanelPolynomial.linear(np.eye(3)[j]) for j in range(3)]
_UNIT = [PanelPolynomial.constant(1.0)]
# rows x panels per vectorized block, sized for the cache: the batch
# engine keeps a few dozen temporaries of 6 doubles per pair alive, ~96 kB
# each at 2,000 pairs, so a block's working set stays near a 2 MB L2.  On a
# 2-vCPU Xeon (2 MB L2 per core), blocks of 1,500-2,000 pairs ran the
# fib-150 identity row sums and the torus G and potential passes 25-40%
# faster than one whole-problem block (150,000 pairs, the old value), and
# 3,000-6,000 pairs gave back about half of that.
_PAIR_BUDGET = 2_000


class SingularStrategy(Enum):
    """How to integrate K over panels incident to the collocation node."""

    QSA = "qsa"
    Zero = "zero"
    Centroid = "centroid"
    CentroidStar = "centroid_star"


class Regularization(Enum):
    """Rank-one gauge fix for the floating potential constant."""

    PinNode = "pin_node"
    MeanZero = "mean_zero"


@dataclass
class BemSystem:
    """Dense collocation system; row/column order follows the mesh nodes,
    meshes concatenated in the order given (offsets marks each start)."""

    matrix: np.ndarray
    rhs: np.ndarray
    offsets: tuple
    meshes: list = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.rhs)


def kernel_k(x, n, y):
    """Pointwise K(x, y) = (x - y).n(x) / (4 pi |x - y|^3); a float for
    single points, elementwise over the leading axes of (..., 3) arrays."""
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.sqrt((diff * diff).sum(axis=-1))
    out = (diff * np.asarray(n, dtype=float)).sum(axis=-1) / (FOUR_PI * r ** 3)
    return float(out) if out.ndim == 0 else out


def nodal_areas(mesh: SurfaceMesh) -> np.ndarray:
    """One third of the incident panel area per node (hat-function mass)."""
    v = mesh.nodes[mesh.triangles]
    areas = 0.5 * np.linalg.norm(
        np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1)
    out = np.zeros(len(mesh.nodes))
    np.add.at(out, mesh.triangles.ravel(),
              np.repeat(areas / 3.0, 3))
    return out


def _as_mesh_list(meshes):
    if isinstance(meshes, SurfaceMesh):
        return [meshes]
    return list(meshes)


class _Assembly:
    """Concatenated node/panel tables shared by the operators."""

    def __init__(self, meshes, normals=None):
        self.meshes = _as_mesh_list(meshes)
        self._given_normals = normals
        offs, nodes, tris = [], [], []
        at = 0
        for mesh in self.meshes:
            offs.append(at)
            nodes.append(mesh.nodes)
            tris.append(mesh.triangles + at)
            at += len(mesh.nodes)
        self.offsets = tuple(offs)
        self.nodes = np.concatenate(nodes)
        self.tris = np.concatenate(tris)
        self.verts = self.nodes[self.tris]
        self.table = _panel_table(self.verts)
        self.areas = 0.5 * np.linalg.norm(
            np.cross(self.verts[:, 1] - self.verts[:, 0],
                     self.verts[:, 2] - self.verts[:, 0]), axis=1)
        self.centroids = self.verts.mean(axis=1)
        # the incident pairs, node-major: node inc_node[m] is vertex
        # inc_slot[m] of panel inc_panel[m]
        order = np.argsort(self.tris.ravel(), kind="stable")
        self.inc_node = self.tris.ravel()[order]
        self.inc_panel, self.inc_slot = np.divmod(order, 3)

    @cached_property
    def normals(self):
        """Node normals: the caller's, else the mesh's stored ones, else
        the angle-weighted estimate.  Only the K operators read them."""
        given = self._given_normals or [None] * len(self.meshes)
        out = []
        for mesh, got in zip(self.meshes, given):
            if got is None:
                got = mesh.node_normals
            out.append(estimate_normals(mesh) if got is None
                       else np.asarray(got, dtype=float))
        return np.concatenate(out)

    def mesh_of_node(self, i):
        """Index of the mesh holding node(s) i."""
        return np.searchsorted(self.offsets, i, side="right") - 1


def _node_forms(forms, asm, rows):
    """Second fundamental forms at the nodes `rows`: matrices (R, 2, 2)
    and tangent bases (R, 2, 3)."""
    nodes, back = np.unique(rows, return_inverse=True)
    meshes = asm.mesh_of_node(nodes)
    if forms is None or any(forms[m] is None for m in set(meshes.tolist())):
        raise DivergentIntegral(
            "missing curvature data: this strategy needs per-node "
            "fundamental forms (or a surface probe)")
    picked = [forms[m][i] for m, i in
              zip(meshes, nodes - np.asarray(asm.offsets)[meshes])]
    kmat = np.array([[f.k11, f.k12, f.k12, f.k22] for f in picked])
    basis = np.array([f.basis for f in picked], dtype=float)
    return kmat.reshape(-1, 2, 2)[back], basis.reshape(-1, 2, 3)[back]


def _patch_projection(x, normal, kmat, basis, centroid):
    """Project panel centroids onto the nodes' osculating quadratics."""
    s = np.einsum("rbk,rk->rb", basis, centroid - x)
    height = 0.5 * np.einsum("ra,rab,rb->r", s, kmat, s)
    return x + np.einsum("rb,rbk->rk", s, basis) + height[:, None] * normal


def _pair_blocks(asm, points, normals, densities, on_nodes=False):
    """All (target, panel) integrals of one operator, a block of targets
    at a time.

    K with the target `normals`, or G when they are None, against each of
    `densities` (_HATS, or _UNIT for K row sums).  Pairs the batch call
    flags are redone on the scalar path; a divergent one raises
    DivergentIntegral.  With `on_nodes` the targets are the mesh nodes:
    their incident pairs come back zero, for the singular strategy to
    fill, and any other pair whose scalar integral diverges has a node
    on a panel it is not a vertex of, which raises MeshError.

    Yields (start, stop, vals, at): vals[j, p, d] belongs to target
    start + j, panel p and densities[d]; `at` slices the incident pair
    arrays to the block's nodes (empty without `on_nodes`).
    """
    blk = max(1, _PAIR_BUDGET // max(len(asm.tris), 1))
    for start in range(0, len(points), blk):
        stop = min(start + blk, len(points))
        if normals is None:
            vals, flagged = g_panel_entries(points[start:stop], asm.verts,
                                            table=asm.table)
            integrate = integrate_g_panel
        else:
            batch = k_row_sums if densities is _UNIT else k_panel_entries
            vals, flagged = batch(points[start:stop], normals[start:stop],
                                  asm.verts, table=asm.table)
            integrate = integrate_k_panel
        vals = vals.reshape(*flagged.shape, len(densities))
        at = slice(0)
        if on_nodes:
            at = slice(*np.searchsorted(asm.inc_node, [start, stop]))
            incident = asm.inc_node[at] - start, asm.inc_panel[at]
            flagged[incident] = False
            vals[incident] = 0.0
        for j, p in zip(*np.nonzero(flagged)):
            i = start + j
            target = Target(points[i], None if normals is None else normals[i])
            try:
                vals[j, p] = integrate(Panel(*asm.verts[p]), target, densities)
            except DivergentIntegral as exc:
                if not on_nodes:
                    raise
                raise MeshError(f"node {i} lies on panel {p}, which does not "
                                "have it as a vertex (touching meshes?)") from exc
        yield start, stop, vals, at


def _strategy_values(strategy, asm, densities, forms, probes):
    """int K(x_i, y) h(y) dS by `strategy` over every incident pair, node
    inc_node[m] and panel inc_panel[m], and each density h: an array
    (pairs, densities).

    These are the pairs the flat closed forms cannot give.  QSA evaluates
    them all in one vectorized pass of the vertex path, the slot read
    from the triangle.  The one-point centroid rules weigh each density
    by its centroid value, which is 1/len(densities) for both density
    sets (three hats, or the unit); CentroidStar moves the centroid onto
    the surface by the probe (one Newton projection per pair) or else
    onto the node's osculating quadratic.
    """
    rows, panels = asm.inc_node, asm.inc_panel
    if strategy is SingularStrategy.Zero:
        return np.zeros((len(rows), len(densities)))
    x = asm.nodes[rows]
    n = asm.normals[rows]
    if strategy is SingularStrategy.QSA:
        kmat, basis = _node_forms(forms, asm, rows)
        unit = n / np.linalg.norm(n, axis=1, keepdims=True)
        return qsa_vertex_rows(asm.verts[panels], asm.inc_slot, x, unit,
                               kmat, basis, densities)
    y = asm.centroids[panels]
    if strategy is SingularStrategy.CentroidStar:
        meshes = asm.mesh_of_node(rows)
        probed = np.array([probes is not None and probes[m] is not None
                           for m in range(len(asm.meshes))])[meshes]
        for m in np.flatnonzero(probed):
            y[m], _ = foot_point(probes[meshes[m]], y[m])
        if not probed.all():
            kmat, basis = _node_forms(forms, asm, rows[~probed])
            y[~probed] = _patch_projection(x[~probed], n[~probed], kmat,
                                           basis, y[~probed])
    k = kernel_k(x, n, y) * asm.areas[panels] / len(densities)
    return np.repeat(k[:, None], len(densities), axis=1)


def _scatter(asm, vals):
    """Panel hat values of a block, (rows, panels, 3), as node-column rows."""
    return np.array([np.bincount(asm.tris.ravel(), weights=v.ravel(),
                                 minlength=len(asm.nodes)) for v in vals])


def assemble(meshes, strategy=SingularStrategy.QSA, forms=None, *,
             normals=None, probes=None, neumann_bc=None) -> BemSystem:
    """Dense collocation matrix and right-hand side.

    meshes: one SurfaceMesh or a list; the first is the outer boundary
    (jump -1/2, Neumann data `neumann_bc`), later ones are enclosed
    insulating interfaces (+1/2 jump, zero flux).  forms/normals/probes
    are per-mesh lists; normals default to the mesh's stored node
    normals, else the angle-weighted estimate.  Incident panels route
    through `strategy`; a node on any other panel raises MeshError.
    """
    asm = _Assembly(meshes, normals)
    for mesh in asm.meshes:
        require_closed_outward(mesh)
    singular = _strategy_values(strategy, asm, _HATS, forms, probes)
    n_nodes = len(asm.nodes)
    matrix = np.zeros((n_nodes, n_nodes))
    for start, stop, vals, at in _pair_blocks(
            asm, asm.nodes, asm.normals, _HATS, on_nodes=True):
        vals[asm.inc_node[at] - start, asm.inc_panel[at]] = singular[at]
        matrix[start:stop] = _scatter(asm, vals)
    jump = np.where(asm.mesh_of_node(np.arange(n_nodes)) == 0, -0.5, 0.5)
    matrix[np.diag_indices(n_nodes)] += jump
    rhs = np.zeros(n_nodes)
    if neumann_bc is not None:
        head = len(asm.meshes[0].nodes)
        rhs[:head] = [float(neumann_bc(x)) for x in asm.meshes[0].nodes]
    return BemSystem(matrix, rhs, asm.offsets, asm.meshes)


def sphere_forms(mesh: SurfaceMesh, radius=None):
    """Analytic fundamental forms of a centered sphere mesh (-1/R times I)."""
    r = float(np.mean(np.linalg.norm(mesh.nodes, axis=1))) if radius is None \
        else float(radius)
    n = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1, keepdims=True)
    t1, t2 = tangent_frames(n)
    return [FundamentalForm(-1.0 / r, 0.0, -1.0 / r,
                            np.vstack([t1[i], t2[i]]))
            for i in range(len(mesh.nodes))]


def probe_forms(probe, points, normals):
    """Per-node fundamental forms from an implicit-surface probe."""
    return [fundamental_form_from_shape(shape_operator(probe, x),
                                        rotation_to_z(n))
            for x, n in zip(np.asarray(points, dtype=float),
                            np.asarray(normals, dtype=float))]


def identity_row_parts(mesh: SurfaceMesh, normals=None):
    """Strategy-independent pieces of the closed-surface Gauss identity.

    Returns (base, incident, normals): base[i] holds the non-incident
    sum of int K dS over panels, incident[i] lists the panel ids that
    have node i as a vertex, whose values the singular strategy gives.
    A node on any other panel raises MeshError.
    """
    asm = _Assembly(mesh, None if normals is None else [normals])
    base = np.zeros(len(asm.nodes))
    for start, stop, vals, _ in _pair_blocks(
            asm, asm.nodes, asm.normals, _UNIT, on_nodes=True):
        base[start:stop] = vals[:, :, 0].sum(axis=1)
    bounds = np.searchsorted(asm.inc_node, np.arange(1, len(asm.nodes)))
    incident = [p.tolist() for p in np.split(asm.inc_panel, bounds)]
    return base, incident, asm.normals


def sphere_identity_test(mesh: SurfaceMesh, strategy, forms=None,
                         normals=None, parts=None):
    """Per-node relative error of sum_panels int K dS against 0.5.

    The exact value for a target on a closed surface with outward normal
    is +1/2 (half the solid angle seen from the surface).  Returns
    (max_error, per_node_errors).  `parts` accepts the output of
    identity_row_parts to share the strategy-independent work.
    """
    if parts is None:
        parts = identity_row_parts(mesh, normals)
    base, _, nrm = parts
    if forms is None:
        forms = sphere_forms(mesh)
    asm = _Assembly(mesh, [nrm])
    vals = _strategy_values(strategy, asm, _UNIT, [forms], None)
    totals = base + np.bincount(asm.inc_node, vals[:, 0], minlength=len(base))
    errors = np.abs(totals - 0.5) / 0.5
    return float(errors.max()), errors


def solve(system: BemSystem, regularization=Regularization.PinNode):
    """Density gamma from a dense LU solve with a rank-one gauge fix.

    The pure-Neumann operator has a one-dimensional kernel (the
    equilibrium density), so one scalar constraint is appended through a
    bordered square system.  PinNode pins the mean over nodes of the
    single-layer potential to zero; MeanZero pins the area-weighted mean
    of gamma itself.
    """
    a = system.matrix
    b = system.rhs
    n = system.n
    if regularization is Regularization.MeanZero:
        weights = np.concatenate([nodal_areas(m) for m in system.meshes])
    else:
        weights = _single_layer_column_means(system.meshes)
    scale = np.abs(weights).sum() / n
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = a
    bordered[:n, n] = 1.0
    bordered[n, :n] = weights / scale
    try:
        sol = np.linalg.solve(bordered, np.concatenate([b, [0.0]]))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            "singular collocation matrix after regularization") from exc
    return sol[:n]


def single_layer_matrix(meshes):
    """Dense matrix of int G(x_i, y) hat_j(y) dS at the mesh nodes."""
    asm = _Assembly(meshes)
    out = np.zeros((len(asm.nodes), len(asm.nodes)))
    for start, stop, vals, _ in _pair_blocks(asm, asm.nodes, None, _HATS):
        out[start:stop] = _scatter(asm, vals)
    return out


def _single_layer_column_means(meshes):
    """Column means of single_layer_matrix, without building it."""
    asm = _Assembly(meshes)
    colsum = np.zeros(len(asm.nodes))
    for _, _, vals, _ in _pair_blocks(asm, asm.nodes, None, _HATS):
        colsum += np.bincount(asm.tris.ravel(), weights=vals.sum(axis=0).ravel(),
                              minlength=len(asm.nodes))
    return colsum / len(asm.nodes)


def _layer_values(asm, gamma, points, normals):
    """sum_panels int kernel * gamma dS per point (K with normals, else G)."""
    gamma_tri = np.asarray(gamma, dtype=float)[asm.tris]      # (P, 3)
    out = np.zeros(len(points))
    for start, stop, vals, _ in _pair_blocks(asm, points, normals, _HATS):
        out[start:stop] = np.einsum("bpm,pm->b", vals, gamma_tri)
    return out


def evaluate_potential(meshes, gamma, points):
    """u(x) = int G gamma dS at arbitrary points via the closed forms."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _layer_values(_Assembly(meshes), gamma, points, None)


def potential_gradient(meshes, gamma, points):
    """grad u of the single layer at points off the panel surfaces.

    Exact for the discrete layer: d_k u = sum_panels int (x - y).e_k /
    (4 pi r^3) gamma(y) dS is the K engine evaluated with the basis
    vectors in place of the target normal, so no finite differencing is
    involved.  Points on the layer itself have no single-sided value:
    they raise DivergentIntegral.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = len(points)
    targets = np.repeat(points, 3, axis=0)
    directions = np.tile(np.eye(3), (m, 1))
    out = _layer_values(_Assembly(meshes), gamma, targets, directions)
    return out.reshape(m, 3)


def enclosing_flux(meshes, gamma, radius=0.7, center=None, n=400):
    """Net flux of grad u through a sphere, by golden-spiral quadrature.

    Zero (to discretization error) whenever the sphere encloses only
    insulating interfaces, since u is harmonic between the layers.
    """
    center = np.zeros(3) if center is None else np.asarray(center, dtype=float)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    dirs = np.column_stack([rho * np.cos(golden * i),
                            rho * np.sin(golden * i), z])
    grad = potential_gradient(meshes, gamma, center + radius * dirs)
    return float((grad * dirs).sum(1).mean() * 4.0 * np.pi * radius ** 2)


def torus_flux_diagnostic(meshes, gamma, probe, mesh_index=1, n_samples=80):
    """Normal-flux leakage through an insulating interface.

    Samples the interface at panel-centroid projections onto the true
    surface (strictly off the flat discrete layer, so the gradient there
    is single-valued), and reports |grad u . n| against the field.  The
    per-point ratio |grad u . n| / |grad u| blows up at flow stagnation
    points where the whole field vanishes, so the stable figure of merit
    scales by the strongest sampled field instead.
    """
    meshes = _as_mesh_list(meshes)
    surf = meshes[mesh_index]
    step = max(1, surf.n_triangles // n_samples)
    sel = np.arange(0, surf.n_triangles, step)[:n_samples]
    cents = surf.nodes[surf.triangles[sel]].mean(axis=1)
    stars = np.array([foot_point(probe, c)[0] for c in cents])
    nstar = np.array([probe.gradient(x) for x in stars])
    nstar /= np.linalg.norm(nstar, axis=1, keepdims=True)
    grad = potential_gradient(meshes, gamma, stars)
    normal_flux = np.abs((grad * nstar).sum(1))
    mag = np.linalg.norm(grad, axis=1)
    return {
        "points": stars,
        "grad": grad,
        "normal_flux": normal_flux,
        "field_scale_ratio": normal_flux / mag.max(),
        "per_point_ratio": normal_flux / mag,
    }


def sphere_neumann_problem(subdivisions=4, strategy=SingularStrategy.QSA):
    """Unit-sphere Neumann problem with du/dn = x1 (exact interior u = x1)."""
    mesh = generate_sphere_mesh(subdivisions)
    normals = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1, keepdims=True)
    forms = sphere_forms(mesh, radius=1.0)
    system = assemble([mesh], strategy, [forms], normals=[normals],
                      neumann_bc=lambda x: x[0])
    return mesh, system


def torus_in_sphere_problem(subdivisions=4, n_u=48, n_v=24,
                            major=0.4, minor=0.2,
                            strategy=SingularStrategy.QSA):
    """Insulating torus inside the unit sphere, driven by b = cos(phi).

    Returns (meshes, system, probes): the sphere carries the Neumann data
    b(x) = x1/|(x1, x2)| and the torus rows enforce zero flux from the
    domain side.
    """
    sphere = generate_sphere_mesh(subdivisions)
    torus = generate_torus_mesh(major, minor, n_u, n_v)
    s_norm = sphere.nodes / np.linalg.norm(sphere.nodes, axis=1, keepdims=True)
    t_probe = torus_probe(major, minor)
    t_norm = np.array([t_probe.gradient(x) for x in torus.nodes])
    t_norm /= np.linalg.norm(t_norm, axis=1, keepdims=True)
    forms = [sphere_forms(sphere, radius=1.0),
             probe_forms(t_probe, torus.nodes, t_norm)]
    probes = [sphere_probe(1.0), t_probe]

    def bc(x):
        rho = np.hypot(x[0], x[1])
        return x[0] / rho if rho > 1e-12 else 0.0

    system = assemble([sphere, torus], strategy, forms,
                      normals=[s_norm, t_norm], probes=probes,
                      neumann_bc=bc)
    return [sphere, torus], system, probes


def export_solution(path, meshes, gamma, probes=None, u=None):
    """JSON dump of the solved state: nodes, gamma, probe points, u."""
    meshes = _as_mesh_list(meshes)
    nodes = np.concatenate([m.nodes for m in meshes])
    payload = {
        "nodes": np.asarray(nodes, dtype=float).tolist(),
        "gamma": np.asarray(gamma, dtype=float).tolist(),
        "probes": [] if probes is None
        else np.asarray(probes, dtype=float).tolist(),
        "u": [] if u is None else np.asarray(u, dtype=float).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
