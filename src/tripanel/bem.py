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

A target may carry several kernel directions (the gradient gives each
point the three axes): one pair pass serves them all, as only the final
contraction of the panel moments depends on the direction.

Each operator only reduces the blocks: it scatters hat values into
matrix rows, sums rows, or contracts with the density.  The collocation
matrix's pass also sums the PinNode gauge's weights, from the G integrals
that its K calls give out of the same pair geometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .batch import (
    _hat_values,
    _panel_table,
    g_panel_entries,
    k_panel_entries,
    k_row_sums,
    tangent_frames,
)
from .curvature import (
    FundamentalForm,
    _probe_eval,
    _probe_points,
    _restricted,
    estimate_fundamental_forms,
    estimate_normals,
    shape_operator,
    torus_probe,
)
from .errors import ConvergenceFailure, DivergentIntegral, MeshError
from .geometry import Panel, Target
from .mesh_io import (SurfaceMesh, _count, _unit_normals, generate_torus_mesh,
                      golden_spiral, require_closed_outward)
from .panel_integrals import (
    FOUR_PI,
    PanelPolynomial,
    integrate_g_panel,
    integrate_k_panel,
)
from .qsa import foot_point, qsa_vertex_rows
# bem attributes that bench/layers.py traces; no operator here calls them
from .mesh_io import generate_sphere_mesh  # noqa: F401
from .qsa import qsa_on_boundary  # noqa: F401

# the densities a pair is integrated against: the three vertex hats of a
# matrix entry, or the unit density of an identity row sum
_HATS = [PanelPolynomial.linear(np.eye(3)[j]) for j in range(3)]
_UNIT = [PanelPolynomial.constant(1.0)]
# rows x panels per vectorized block.  On a 2-vCPU Xeon, blocks of
# 1,500-2,000 pairs ran the fib-150 identity row sums and the torus G and
# potential passes 25-40% faster than one whole-problem block (150,000
# pairs, the old value), and 3,000-6,000 pairs gave back about half of
# that.  On an ico-4 sphere, larger blocks lost mainly to page faults, not
# to the 2 MB L2 cache (ROADMAP item 4): the batch engine's few dozen numpy
# temporaries are mapped and unmapped on every call, and with glibc told
# to keep freed memory, 20,480-pair blocks beat 5,120-pair ones.
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
    meshes concatenated in the order given (offsets marks each start).

    pin_weights are the PinNode gauge's weights, the column means of
    single_layer_matrix(meshes), which `assemble` sums in its own pair
    pass; a system built without them solves with MeanZero only.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    offsets: tuple
    meshes: list = field(repr=False)
    pin_weights: np.ndarray | None = field(default=None, repr=False)

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


def _require_finite(rows, what):
    """MeshError naming the first node whose row (N, ...) is not finite."""
    bad = np.flatnonzero(~np.isfinite(rows.reshape(len(rows), -1)).all(axis=1))
    if bad.size:
        raise MeshError(f"node {int(bad[0])} has a non-finite {what}")


class _Assembly:
    """Concatenated node/panel tables shared by the operators, and the one
    rule for the node normals and forms (per-mesh entries, or None)."""

    def __init__(self, meshes, normals=None, forms=None, probes=None):
        self.meshes = _as_mesh_list(meshes)
        self._given_normals, self._given_forms, self.probes = (
            got or [None] * len(self.meshes) for got in (normals, forms, probes))
        sizes = [len(mesh.nodes) for mesh in self.meshes]
        self.offsets = tuple(np.cumsum([0] + sizes[:-1]).tolist())
        self.nodes = np.concatenate([mesh.nodes for mesh in self.meshes])
        self.tris = np.concatenate([mesh.triangles + at
                                    for mesh, at in zip(self.meshes, self.offsets)])
        self.verts = self.nodes[self.tris]
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
    def table(self):
        """The batch engine's panel table, built by the first pair block."""
        return _panel_table(self.verts)

    @cached_property
    def normals(self):
        """Node normals: the caller's, else the mesh's stored ones, else
        the probe's unit gradient, else the angle-weighted estimate.  Only
        the K operators read them."""
        out = []
        for m, (mesh, got, probe) in enumerate(zip(
                self.meshes, self._given_normals, self.probes)):
            if got is None:
                got = mesh.node_normals
            if got is None and probe is not None:
                got = _probe_normals(probe, mesh.nodes)
            out.append(_unit_normals(estimate_normals(mesh) if got is None else got,
                                     mesh.n_nodes, f"mesh {m}", self.offsets[m]))
        return np.concatenate(out)

    @cached_property
    def forms(self):
        """Second fundamental forms at the nodes, one stacked form: the
        caller's, else the probe's at the node normals, else the fit."""
        picked = []
        for m, (mesh, got, probe, nrm) in enumerate(zip(
                self.meshes, self._given_forms, self.probes,
                np.split(self.normals, self.offsets[1:]))):
            if got is None:
                got = (estimate_fundamental_forms(mesh, nrm) if probe is None
                       else probe_forms(probe, mesh.nodes, nrm))
            entries = (got.k11, got.k12, got.k22, got.basis)
            if [np.shape(a) for a in entries] != [(mesh.n_nodes,)] * 3 \
                    + [(mesh.n_nodes, 2, 3)]:
                raise MeshError(f"mesh {m} has {mesh.n_nodes} nodes but "
                                f"forms of shape {np.shape(got.basis)[:-2]}")
            picked.append(entries)
        k11, k12, k22, basis = (np.concatenate(a) for a in zip(*picked))
        _require_finite(np.column_stack([k11, k12, k22, basis.reshape(-1, 6)]),
                        "fundamental form")
        return FundamentalForm(k11, k12, k22, basis)

    def mesh_of_node(self, i):
        """Index of the mesh holding node(s) i."""
        return np.searchsorted(self.offsets, i, side="right") - 1


def _probe_normals(probe, points):
    """Unit gradients of a level-set probe at points (N, 3), one call."""
    grad = _probe_eval(probe.gradient, _probe_points(points), (3,))
    return grad / np.linalg.norm(grad, axis=1, keepdims=True)


def _patch_projection(x, normal, form, centroid):
    """Project panel centroids onto the nodes' osculating quadratics."""
    s = np.einsum("rbk,rk->rb", form.basis, centroid - x)
    height = 0.5 * np.einsum("ra,rab,rb->r", s, form.matrix, s)
    return x + np.einsum("rb,rbk->rk", s, form.basis) + height[:, None] * normal


class _PinWeights:
    """single_layer_matrix(meshes).mean(axis=0), summed from the G values
    that the assembly's K calls hand out.

    Per panel, `moments` adds the batch's G integrals in the hats' own
    variables (`_about_vertex0`) one node row at a time, and `scalar` the
    hat values of the pairs the G rule flags, redone by integrate_g_panel,
    one pair at a time in (node, panel) order.  Both orders are fixed, so
    the block size changes no bit.
    """

    def __init__(self, asm):
        self.asm = asm
        self.moments = np.zeros((3, len(asm.tris)))
        self.scalar = np.zeros((len(asm.tris), 3))

    def add(self, start, g_vals):
        """One block's G output (3, rows, panels), non-finite where flagged."""
        flagged = ~np.isfinite(g_vals).all(axis=0)
        for j, p in zip(*np.nonzero(flagged)):
            self.scalar[p] += integrate_g_panel(
                Panel(*self.asm.verts[p]), Target(self.asm.nodes[start + j]),
                _HATS)
        g_vals[:, flagged] = 0.0
        for row in g_vals.transpose(1, 0, 2):
            self.moments += row

    def weights(self):
        hats = np.stack(_hat_values(self.asm.table, *self.moments), axis=-1)
        return np.bincount(self.asm.tris.ravel(), (hats + self.scalar).ravel(),
                           minlength=len(self.asm.nodes)) / len(self.asm.nodes)


def _pair_blocks(asm, points, normals, densities, on_nodes=False, gauge=None):
    """All (target, panel) integrals of one operator, a block of targets
    at a time.

    K with the target `normals`, or G when they are None, against each of
    `densities` (_HATS, or _UNIT for K row sums).  `normals` of shape
    (N, D, 3) give D kernel directions per target, served by one batch
    pass per pair.  Pairs the batch call flags are redone on the scalar
    path, once per direction; a divergent one raises DivergentIntegral.
    With `on_nodes` the targets are the mesh nodes: their incident pairs
    come back zero, for the singular strategy to fill, and any other pair
    whose scalar integral diverges has a node on a panel it is not a
    vertex of, which raises MeshError.

    Yields (start, stop, vals, at): vals[j, p, d] belongs to target
    start + j, panel p and densities[d] (vals[j, p, k, d] to direction k
    with D directions); `at` slices the incident pair arrays to the
    block's nodes (empty without `on_nodes`).

    A `gauge` (_PinWeights, with the mesh nodes as targets and the hats as
    densities) also takes each block's G values from its K call.
    """
    dirs = () if normals is None else normals.shape[1:-1]
    blk = max(1, _PAIR_BUDGET // max(len(asm.tris), 1))
    for start in range(0, len(points), blk):
        stop = min(start + blk, len(points))
        if normals is None:
            vals, flagged = g_panel_entries(points[start:stop], asm.verts,
                                            table=asm.table)
            integrate = integrate_g_panel
        elif gauge is None:
            batch = k_row_sums if densities is _UNIT else k_panel_entries
            vals, flagged = batch(points[start:stop], normals[start:stop],
                                  asm.verts, table=asm.table)
            integrate = integrate_k_panel
        else:
            g_vals = np.empty((3, stop - start, len(asm.tris)))
            vals, flagged = k_panel_entries(points[start:stop],
                                            normals[start:stop], asm.verts,
                                            table=asm.table, g_out=g_vals)
            gauge.add(start, g_vals)
            integrate = integrate_k_panel
        vals = vals.reshape(*flagged.shape, *dirs, len(densities))
        at = slice(0)
        if on_nodes:
            at = slice(*np.searchsorted(asm.inc_node, [start, stop]))
            incident = asm.inc_node[at] - start, asm.inc_panel[at]
            flagged[incident] = False
            vals[incident] = 0.0
        for j, p in zip(*np.nonzero(flagged)):
            i = start + j
            panel = Panel(*asm.verts[p])
            try:
                for k in np.ndindex(dirs):
                    target = Target(points[i],
                                    None if normals is None else normals[i][k])
                    vals[(j, p, *k)] = integrate(panel, target, densities)
            except DivergentIntegral as exc:
                if not on_nodes:
                    raise
                raise MeshError(f"node {i} lies on panel {p}, which does not "
                                "have it as a vertex (touching meshes?)") from exc
        yield start, stop, vals, at


def _strategy_values(strategy, asm, densities):
    """int K(x_i, y) h(y) dS by `strategy` over every incident pair, node
    inc_node[m] and panel inc_panel[m], and each density h: an array
    (pairs, densities).

    These are the pairs the flat closed forms cannot give.  QSA evaluates
    them all in one vectorized pass of the vertex path, the slot read
    from the triangle.  The one-point centroid rules weigh each density
    by its centroid value, which is 1/len(densities) for both density
    sets (three hats, or the unit); CentroidStar moves the centroid onto
    the surface by the probe (one batched Newton projection per probed
    mesh) or else onto the node's osculating quadratic.  A strategy that
    is not a SingularStrategy value raises ValueError.
    """
    strategy = SingularStrategy(strategy)
    rows, panels = asm.inc_node, asm.inc_panel
    if strategy is SingularStrategy.Zero:
        return np.zeros((len(rows), len(densities)))
    x = asm.nodes[rows]
    n = asm.normals[rows]
    if strategy is SingularStrategy.QSA:
        return qsa_vertex_rows(asm.verts[panels], asm.inc_slot, x, n,
                               asm.forms[rows], densities)
    y = asm.centroids[panels]
    if strategy is SingularStrategy.CentroidStar:
        meshes = asm.mesh_of_node(rows)
        probed = np.array([p is not None for p in asm.probes])[meshes]
        for m in np.unique(meshes[probed]):
            on = meshes == m
            y[on], _ = foot_point(asm.probes[m], y[on])
        if not probed.all():
            y[~probed] = _patch_projection(x[~probed], n[~probed],
                                           asm.forms[rows[~probed]], y[~probed])
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
    are per-mesh lists: normals default to the mesh's stored ones, else
    the probe's unit gradient, else the angle-weighted estimate; forms
    (stacked) to the probe's at those normals, else the fit.  Each must be
    finite, one per node, the normals unit (else MeshError).  Incident
    panels route through `strategy`; a node on any other panel raises
    MeshError.  The same pair pass sums the PinNode gauge's weights from
    each block's G values, kept as the system's pin_weights.
    """
    asm = _Assembly(meshes, normals, forms, probes)
    for mesh in asm.meshes:
        require_closed_outward(mesh)
    n_nodes = len(asm.nodes)
    rhs = np.zeros(n_nodes)
    if neumann_bc is not None:
        head = len(asm.meshes[0].nodes)
        rhs[:head] = [float(neumann_bc(x)) for x in asm.meshes[0].nodes]
        if not np.isfinite(rhs).all():
            bad = int(np.nonzero(~np.isfinite(rhs))[0][0])
            raise ValueError(f"neumann_bc is non-finite at node {bad}: {rhs[bad]!r}")
    singular = _strategy_values(strategy, asm, _HATS)
    matrix = np.zeros((n_nodes, n_nodes))
    gauge = _PinWeights(asm)
    for start, stop, vals, at in _pair_blocks(
            asm, asm.nodes, asm.normals, _HATS, on_nodes=True, gauge=gauge):
        vals[asm.inc_node[at] - start, asm.inc_panel[at]] = singular[at]
        matrix[start:stop] = _scatter(asm, vals)
    jump = np.where(asm.mesh_of_node(np.arange(n_nodes)) == 0, -0.5, 0.5)
    matrix[np.diag_indices(n_nodes)] += jump
    return BemSystem(matrix, rhs, asm.offsets, asm.meshes, gauge.weights())


def sphere_forms(mesh: SurfaceMesh, radius=None):
    """Analytic fundamental forms of a centered sphere mesh (-1/R times I),
    one stacked form.  R is radius (finite and > 0, else ValueError), or
    the mean node norm when radius is None."""
    r = float(np.mean(np.linalg.norm(mesh.nodes, axis=1))) if radius is None \
        else float(radius)
    if not 0.0 < r < math.inf:
        raise ValueError(f"need a finite radius > 0, got {r!r}")
    n = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1, keepdims=True)
    k = np.full(len(n), -1.0 / r)
    return FundamentalForm(k, np.zeros_like(k), k.copy(),
                           np.stack(tangent_frames(n), axis=1))


def probe_forms(probe, points, normals):
    """Stacked fundamental forms at points (N, 3) from an implicit-surface
    probe: one shape-operator call, restricted to the normals' tangent bases.
    The normals must be (N, 3), finite and unit (else MeshError)."""
    normals = _unit_normals(normals, len(points), "the node set")
    basis = np.stack(tangent_frames(normals), axis=1)
    return _restricted(basis @ shape_operator(probe, points)
                       @ basis.transpose(0, 2, 1), basis)


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


def sphere_identity_test(mesh: SurfaceMesh, strategy, forms=None, parts=None):
    """Per-node relative error of sum_panels int K dS against 0.5.

    The exact value for a target on a closed surface with outward normal
    is +1/2 (half the solid angle seen from the surface).  Returns
    (max_error, per_node_errors).  `parts` is the output of
    identity_row_parts, the strategy-independent work, which carries the
    node normals too; left out, it is identity_row_parts(mesh).  The
    forms default to the fit at those normals, as `assemble`'s do.
    """
    if parts is None:
        parts = identity_row_parts(mesh)
    base, _, nrm = parts
    asm = _Assembly(mesh, [nrm], None if forms is None else [forms])
    vals = _strategy_values(strategy, asm, _UNIT)
    totals = base + np.bincount(asm.inc_node, vals[:, 0], minlength=len(base))
    errors = np.abs(totals - 0.5) / 0.5
    return float(errors.max()), errors


def solve(system: BemSystem, regularization=Regularization.PinNode):
    """Density gamma from a dense LU solve with a rank-one gauge fix.

    The pure-Neumann operator has a one-dimensional kernel (the
    equilibrium density), so one scalar constraint is appended through a
    bordered square system.  PinNode pins the mean over nodes of the
    single-layer potential to zero, with the system's pin_weights (the
    column means of single_layer_matrix, summed by `assemble`; a system
    without them raises ValueError); MeanZero the area-weighted mean of
    gamma.  A regularization that is not a Regularization value raises
    ValueError.
    """
    regularization = Regularization(regularization)
    a = system.matrix
    b = system.rhs
    n = system.n
    if regularization is Regularization.MeanZero:
        weights = np.concatenate([nodal_areas(m) for m in system.meshes])
    elif system.pin_weights is None:
        raise ValueError("PinNode needs the pin_weights that assemble stores; "
                         "this system has none (solve it with MeanZero)")
    else:
        weights = system.pin_weights
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


def _layer_values(asm, gamma, points, normals):
    """sum_panels int kernel * gamma dS per point (K with normals, else G);
    (N, D) for normals of shape (N, D, 3)."""
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ValueError(f"point {int(bad[0])} has a non-finite coordinate: "
                         f"{points[bad[0]].tolist()}")
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (len(asm.nodes),):
        raise ValueError(f"gamma has shape {gamma.shape}, not one value per "
                         f"node ({len(asm.nodes)})")
    gamma_tri = gamma[asm.tris]  # (P, 3)
    dirs = () if normals is None else normals.shape[1:-1]
    out = np.zeros((len(points), *dirs))
    for start, stop, vals, _ in _pair_blocks(asm, points, normals, _HATS):
        # one contiguous (panels, hats) row per (point, direction): einsum
        # then sums each in the same order, whatever the directions
        rows = np.ascontiguousarray(np.moveaxis(vals, 1, -2))
        rows = rows.reshape(-1, *gamma_tri.shape)
        out[start:stop] = np.einsum("bpm,pm->b", rows,
                                    gamma_tri).reshape(-1, *dirs)
    return out


def evaluate_potential(meshes, gamma, points):
    """u(x) = int G gamma dS at arbitrary points via the closed forms."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _layer_values(_Assembly(meshes), gamma, points, None)


def potential_gradient(meshes, gamma, points):
    """grad u of the single layer at points off the panel surfaces.

    Exact for the discrete layer: d_k u = sum_panels int (x - y).e_k /
    (4 pi r^3) gamma(y) dS is the K integral with the basis vector e_k as
    kernel direction, so no finite differencing is involved.  Each point
    takes the three axes as its D = 3 directions: one pair pass gives the
    panel moments, and only their contraction with nu = (t1[k], t2[k],
    n[k]) is per axis.  Points on the layer itself have no single-sided
    value: they raise DivergentIntegral.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    axes = np.broadcast_to(np.eye(3), (len(points), 3, 3))
    return _layer_values(_Assembly(meshes), gamma, points, axes)


def enclosing_flux(meshes, gamma, radius=0.7, center=None, n=400):
    """Net flux of grad u through a sphere, by golden-spiral quadrature.

    Zero (to discretization error) whenever the sphere encloses only
    insulating interfaces, since u is harmonic between the layers.  The
    radius must be finite and > 0, and n, the number of quadrature
    points, an integer >= 1 (else ValueError).
    """
    radius = float(radius)
    if not 0.0 < radius < math.inf:
        raise ValueError(f"need a finite radius > 0, got {radius!r}")
    center = np.zeros(3) if center is None else np.asarray(center, dtype=float)
    dirs = golden_spiral(n)
    grad = potential_gradient(meshes, gamma, center + radius * dirs)
    return float((grad * dirs).sum(1).mean() * 4.0 * np.pi * radius ** 2)


def torus_flux_diagnostic(meshes, gamma, probe, n_samples=80):
    """Normal-flux leakage through an insulating interface, the second
    mesh (meshes[1]), whose true surface is probe's zero level set.

    Samples the interface at panel-centroid projections onto the true
    surface (strictly off the flat discrete layer, so the gradient there
    is single-valued), at n_samples panels spread evenly over the whole
    panel list (every panel when there are fewer).  Returns a dict of the
    sample "points" (m, 3) and their "field_scale_ratio" (m,), the
    normal flux |grad u . n| over the strongest sampled |grad u|.  The
    per-point ratio |grad u . n| / |grad u| would blow up at flow
    stagnation points, where the whole field vanishes; scaling by the
    strongest sampled field keeps the figure of merit stable.  n_samples
    not an integer >= 1, or no second mesh, raises ValueError.
    """
    meshes = _as_mesh_list(meshes)
    n_samples = _count(n_samples, "n_samples", 1)
    if len(meshes) < 2:
        raise ValueError(f"meshes has {len(meshes)} mesh(es); the interface is "
                         "the second mesh, meshes[1]")
    surf = meshes[1]
    count = min(n_samples, surf.n_triangles)
    sel = (np.arange(count) * surf.n_triangles) // count
    cents = surf.nodes[surf.triangles[sel]].mean(axis=1)
    stars, _ = foot_point(probe, cents)
    nstar = _probe_normals(probe, stars)
    grad = potential_gradient(meshes, gamma, stars)
    normal_flux = np.abs((grad * nstar).sum(1))
    return {"points": stars,
            "field_scale_ratio": normal_flux / np.linalg.norm(grad, axis=1).max()}


def x1_flux(x):
    """Neumann data du/dn = x1 (on the unit sphere, u = x1 + const)."""
    return x[0]


def cos_phi(x):
    """Neumann data b = cos(phi) = x1/|(x1, x2)|, zero on the z-axis."""
    rho = math.hypot(x[0], x[1])
    return x[0] / rho if rho > 1e-12 else 0.0


def neumann_problem(outer, bc, *, probe=None, torus=None,
                    strategy=SingularStrategy.QSA):
    """Interior Neumann problem du/dn = bc(x) on the mesh `outer` (true
    surface `probe`, or None), optionally around an insulating torus
    (major, minor, n_u, n_v; the counts integers) with its exact probe.
    Returns (meshes, system, probes).

    The node normals and forms follow `assemble`'s rule.
    """
    meshes, probes = [outer], [probe]
    if torus is not None:
        major, minor, n_u, n_v = torus
        meshes.append(generate_torus_mesh(major, minor, n_u, n_v))
        probes.append(torus_probe(major, minor))
    system = assemble(meshes, strategy, probes=probes, neumann_bc=bc)
    return meshes, system, probes


def export_solution(path, meshes, gamma, probes=None, u=None, **summary):
    """JSON dump of the solved state: the summary fields given (JSON
    values, such as the run's settings and residual), then nodes, gamma,
    probe points and u."""
    meshes = _as_mesh_list(meshes)
    nodes = np.concatenate([m.nodes for m in meshes])
    payload = {
        **summary,
        "nodes": np.asarray(nodes, dtype=float).tolist(),
        "gamma": np.asarray(gamma, dtype=float).tolist(),
        "probes": [] if probes is None
        else np.asarray(probes, dtype=float).tolist(),
        "u": [] if u is None else np.asarray(u, dtype=float).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
