"""The three benchmark workloads: seeded inputs, one timed iteration, checks.

Every workload has the same shape:

    inputs = W.setup(seed, scale)        # seeded input construction
    out = W.iterate(inputs)              # one closed-loop iteration, timed
    report = W.verify(inputs, outs)      # untimed correctness checks

``iterate`` returns a dict with ``stages``, the times of the iteration's
stages in a fixed order (for near-singular every integral call is a
stage), ``solution_stages``, how many leading stages produce the
workload's answer, ``pairs``, the (target, panel) integrals done, and
``failed_ops``/``ops`` for the operations it ran.  The library is
called through its modules' attributes (``bem.assemble``, not a name
bound at import), so the tracer in tracing.py sees every call.
"""

from __future__ import annotations

import math
import time

import numpy as np

from tripanel import bem, mesh_io, oracle, panel_integrals, qsa
from tripanel.batch import g_panel_entries, k_panel_entries, k_row_sums
from tripanel.curvature import FundamentalForm, sphere_probe, torus_probe
from tripanel.errors import DegenerateTriangle, TripanelError
from tripanel.geometry import Panel, Target, rotation_to_z
from tripanel.panel_integrals import PanelPolynomial

HATS = [PanelPolynomial.linear(np.eye(3)[j]) for j in range(3)]
FOUR_PI = 4.0 * math.pi

# Accuracy the package states (and its test suite enforces); the checks
# below use these, never the errors observed on a particular seed.
ORACLE_RTOL = 1e-6          # closed form vs adaptive oracle (criterion 3)
ORACLE_TOL = 1e-8           # the oracle's own tolerance in those tests
BATCH_RTOL = 1e-7           # batch vs scalar, degenerate projections
BATCH_ATOL_SCALE = 1e-9     # ... times the largest hat value of the pair
QSA_PATH_RTOL = 1e-9        # vertex path vs general path of QSA
QSA_PATCH_RTOL = 0.05       # QSA vs curved-patch oracle, diameter <= 0.2
RESIDUAL_MAX = 1e-9         # relative solve residual (criterion 7, torus)


def _z_rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _rotated(mesh, rot):
    return mesh_io.SurfaceMesh(mesh.nodes @ rot.T, mesh.triangles)


def _incident_mask(tris, n_nodes):
    """(n_nodes, P) mask of the panels incident to each node."""
    mask = np.zeros((n_nodes, len(tris)), dtype=bool)
    for p, tri in enumerate(tris):
        mask[tri, p] = True
    return mask


def _routes(fallback, incident):
    """Pair counts per assembly route; they partition rows x panels."""
    return {"batch_clean": int((~fallback & ~incident).sum()),
            "flagged_scalar": int((fallback & ~incident).sum()),
            "incident": int(incident.sum()),
            "rows_x_panels": int(fallback.size)}


# ------------------------------------------------------------- bem-torus

class BemTorus:
    """`tripanel bem --torus R r NU NV --bc cos-phi` with the CLI defaults."""

    name = "bem-torus"
    sizes = {"full": (1, 8, 4, 21), "smoke": (0, 6, 4, 9)}

    def setup(self, seed, scale="full"):
        sub, n_u, n_v, grid = self.sizes[scale]
        major, minor = 0.4, 0.2
        rng = np.random.default_rng(seed)
        spin_s, spin_t = rng.uniform(0.0, 2.0 * math.pi, 2)
        # both surfaces are symmetric about z, so the seed turns each
        # mesh about that axis: new inputs, the same problem
        sphere = _rotated(mesh_io.generate_sphere_mesh(sub), _z_rotation(spin_s))
        torus = _rotated(mesh_io.generate_torus_mesh(major, minor, n_u, n_v),
                         _z_rotation(spin_t))
        t_probe = torus_probe(major, minor)
        s_norm = sphere.nodes / np.linalg.norm(sphere.nodes, axis=1,
                                               keepdims=True)
        t_norm = np.array([t_probe.gradient(x) for x in torus.nodes])
        t_norm /= np.linalg.norm(t_norm, axis=1, keepdims=True)
        forms = [bem.sphere_forms(sphere, radius=1.0),
                 bem.probe_forms(t_probe, torus.nodes, t_norm)]

        def cos_phi(x):
            rho = math.hypot(x[0], x[1])
            return x[0] / rho if rho > 1e-12 else 0.0

        # project the Neumann data onto its compatible part, as the CLI does
        weights = bem.nodal_areas(sphere)
        b = np.array([cos_phi(x) for x in sphere.nodes])
        net = float(b @ weights)
        scale_b = float(np.abs(b) @ weights)
        shift = net / weights.sum() if abs(net) > 1e-8 * scale_b else 0.0
        ticks = np.linspace(-0.95, 0.95, grid)
        xx, yy = np.meshgrid(ticks, ticks, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
        ok = np.linalg.norm(pts, axis=1) <= 0.95
        ok &= np.array([t_probe.value(p) for p in pts]) >= 0.02
        return {"meshes": [sphere, torus], "normals": [s_norm, t_norm],
                "forms": forms, "probes": [sphere_probe(1.0), t_probe],
                "bc": lambda x: cos_phi(x) - shift, "slice": pts[ok],
                "t_probe": t_probe, "flux_samples": 80}

    def iterate(self, inp):
        meshes = inp["meshes"]
        clock = time.perf_counter
        t0 = clock()
        system = bem.assemble(meshes, bem.SingularStrategy.QSA, inp["forms"],
                              normals=inp["normals"], probes=inp["probes"],
                              neumann_bc=inp["bc"])
        t1 = clock()
        gamma = bem.solve(system, bem.Regularization.PinNode)
        t2 = clock()
        u = bem.evaluate_potential(meshes, gamma, inp["slice"])
        t3 = clock()
        diag = bem.torus_flux_diagnostic(meshes, gamma, inp["t_probe"],
                                         n_samples=inp["flux_samples"])
        t4 = clock()
        # solve() borders A with the constant column, so b - A gamma is the
        # gauge multiplier times the ones vector; what is left after
        # removing it is the error of the LU solve itself
        r = system.rhs - system.matrix @ gamma
        residual = float(np.linalg.norm(r - r.mean()) / np.linalg.norm(system.rhs))
        n = system.n
        panels = sum(m.n_triangles for m in meshes)
        n_flux = len(diag["points"])
        good = (np.isfinite(gamma).all() and np.isfinite(u).all()
                and residual <= RESIDUAL_MAX)
        return {
            "stages": np.array([t1 - t0, t2 - t1, t3 - t2, t4 - t3]),
            "solution_stages": 2,
            "eval_points": len(inp["slice"]) + n_flux,
            # assembly rows, the gauge's G rows, slice points, and the
            # three gradient directions per flux sample
            "pairs": (2 * n + len(inp["slice"]) + 3 * n_flux) * panels,
            "ops": 1,
            "failed_ops": 0 if good else 1,
            "torus_flux_ratio": float(diag["field_scale_ratio"].max()),
            "residual": residual,
        }

    def routes(self, inp):
        """Route counts of the assembly, recomputed from its inputs."""
        meshes = inp["meshes"]
        nodes = np.concatenate([m.nodes for m in meshes])
        normals = np.concatenate(inp["normals"])
        offs = np.cumsum([0] + [m.n_nodes for m in meshes[:-1]])
        tris = np.concatenate([m.triangles + o for m, o in zip(meshes, offs)])
        _, fb = k_panel_entries(nodes, normals, nodes[tris])
        return _routes(fb, _incident_mask(tris, len(nodes)))

    def verify(self, inp, outs):
        routes = self.routes(inp)
        checks = {
            "finite_and_residual": all(o["failed_ops"] == 0 for o in outs),
            "route_partition": (routes["batch_clean"] + routes["flagged_scalar"]
                                + routes["incident"] == routes["rows_x_panels"]),
            "every_route_used": min(routes["batch_clean"],
                                    routes["flagged_scalar"],
                                    routes["incident"]) > 0,
        }
        return {"checks": checks, "routes": routes,
                "residual_max": max(o["residual"] for o in outs)}

    def detail(self, outs):
        typical = _typical(outs)
        return {
            "assemble_s": (typical[0], "s"),
            "solve_s": (typical[1], "s"),
            "eval_points_per_s": (outs[0]["eval_points"] / typical[2:].sum(),
                                  "1/s"),
            "torus_flux_ratio": (_median([o["torus_flux_ratio"] for o in outs]), "1"),
        }


# -------------------------------------------------------- identity-sphere

class IdentitySphere:
    """`tripanel sphere-test --nodes N` with its default strategies."""

    name = "identity-sphere"
    sizes = {"full": 150, "smoke": 60}
    strategies = (bem.SingularStrategy.QSA, bem.SingularStrategy.Zero,
                  bem.SingularStrategy.Centroid)

    def setup(self, seed, scale="full"):
        rng = np.random.default_rng(seed)
        mesh = _rotated(mesh_io.generate_fibonacci_sphere_mesh(self.sizes[scale]),
                        _random_rotation(rng))
        normals = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1,
                                              keepdims=True)
        return {"mesh": mesh, "normals": normals,
                "forms": bem.sphere_forms(mesh, radius=1.0)}

    def iterate(self, inp):
        mesh = inp["mesh"]
        clock = time.perf_counter
        ticks = [clock()]
        parts = bem.identity_row_parts(mesh, inp["normals"])
        ticks.append(clock())
        errs = {}
        for strategy in self.strategies:
            errs[strategy.value], _ = bem.sphere_identity_test(
                mesh, strategy, forms=inp["forms"], parts=parts)
            ticks.append(clock())
        pending = sum(len(p) for p in parts[1])
        good = (all(math.isfinite(e) for e in errs.values())
                and errs["qsa"] < errs["zero"]
                and errs["qsa"] < errs["centroid"])
        return {
            "stages": np.diff(ticks),
            "solution_stages": len(ticks) - 1,
            # row sums over every pair, plus the QSA integral per pending pair
            "pairs": mesh.n_nodes * mesh.n_triangles + pending,
            "ops": 1,
            "failed_ops": 0 if good else 1,
            "errors": errs,
            "pending": pending,
        }

    def routes(self, inp):
        mesh = inp["mesh"]
        _, fb = k_row_sums(mesh.nodes, inp["normals"],
                           mesh.nodes[mesh.triangles])
        return _routes(fb, _incident_mask(mesh.triangles, mesh.n_nodes))

    def verify(self, inp, outs):
        routes = self.routes(inp)
        checks = {
            "qsa_below_zero_and_centroid": all(o["failed_ops"] == 0
                                               for o in outs),
            "route_partition": (routes["batch_clean"] + routes["flagged_scalar"]
                                + routes["incident"] == routes["rows_x_panels"]),
            # every incident pair is pending; flagged pairs that diverge
            # on the scalar path join them
            "pending_covers_incident": all(
                routes["incident"] <= o["pending"]
                <= routes["incident"] + routes["flagged_scalar"]
                for o in outs),
        }
        return {"checks": checks, "routes": routes}

    def detail(self, outs):
        typical = _typical(outs)
        return {
            "identity_s": (typical.sum(), "s"),
            "identity_row_parts_s": (typical[0], "s"),
            "identity_qsa_s": (typical[1], "s"),
            "identity_err_qsa": (_median([o["errors"]["qsa"] for o in outs]), "1"),
            "identity_err_zero": (_median([o["errors"]["zero"] for o in outs]), "1"),
            "identity_err_centroid": (_median([o["errors"]["centroid"]
                                               for o in outs]), "1"),
        }


# ---------------------------------------------------------- near-singular

class NearSingular:
    """A seeded stream of single-panel integrals, one call at a time.

    The pool mixes flat K and G integrals with hat densities over panels
    of diameter about 1e-2 (targets at heights log-uniform in 1e-9..1e-2,
    a fixed share grazing an edge line or a vertex within 1e-8) and
    on-surface QSA integrals at vertex and interior targets.  One
    iteration is one pass over the pool.
    """

    name = "near-singular"
    # cases per kind; the flat cases cycle through the foot placements
    sizes = {"full": {"K": 160, "G": 120, "qsa_vertex": 60, "qsa_interior": 60},
             "smoke": {"K": 10, "G": 10, "qsa_vertex": 5, "qsa_interior": 5}}
    placements = ("generic",) * 12 + ("edge",) * 5 + ("vertex",) * 3
    oracle_subset = {"full": 6, "smoke": 2}

    def setup(self, seed, scale="full"):
        rng = np.random.default_rng(seed)
        cases = []
        for kind, count in self.sizes[scale].items():
            # stratified height exponents: every seed spans 1e-9..1e-2 evenly
            exps = -9.0 + 7.0 * (rng.permutation(count)
                                 + rng.uniform(size=count)) / count
            for i in range(count):
                if kind in ("K", "G"):
                    cases.append(self._flat_case(rng, kind, i, exps[i]))
                else:
                    cases.append(self._qsa_case(rng, kind, i))
        order = rng.permutation(len(cases))
        return {"cases": [cases[i] for i in order], "scale": scale}

    @staticmethod
    def _flat_case(rng, kind, i, height_exp):
        # panel on the unit sphere near its north pole, shifted so the
        # pole is the origin (the sweep-near-singular construction)
        while True:
            xy = rng.uniform(-0.01, 0.01, size=(3, 2))
            z = np.sqrt(1.0 - (xy ** 2).sum(axis=1)) - 1.0
            verts = np.column_stack([xy, z])
            try:
                panel = Panel(*verts)
            except DegenerateTriangle:
                continue
            break
        normal = panel.normal
        placement = NearSingular.placements[i % len(NearSingular.placements)]
        if placement == "generic":
            lam = rng.dirichlet(np.ones(3))
            foot = lam @ verts
            if i % 4 == 0:  # a quarter of the generic feet lie outside
                foot = panel.centroid + rng.uniform(1.5, 3.0) * (foot - panel.centroid)
        else:
            k = i % 3
            offset = 10.0 ** rng.uniform(-12.0, -8.0)
            if placement == "edge":
                edge = verts[(k + 1) % 3] - verts[k]
                side = np.cross(normal, edge / np.linalg.norm(edge))
                foot = (verts[k] + rng.uniform(-0.5, 1.5) * edge
                        + rng.choice([-1.0, 1.0]) * offset * side)
            else:
                angle = rng.uniform(0.0, 2.0 * math.pi)
                t1, t2 = rotation_to_z(normal)[:2]
                foot = verts[k] + offset * (math.cos(angle) * t1
                                            + math.sin(angle) * t2)
        height = 10.0 ** height_exp * rng.choice([-1.0, 1.0])
        x = foot + height * normal
        hat = i % 3
        if kind == "K":
            n = rng.standard_normal(3)
            target = Target(x, n / np.linalg.norm(n))
        else:
            target = Target(x)
        return {"kind": kind, "panel": panel, "target": target, "hat": hat,
                "placement": placement}

    @staticmethod
    def _qsa_case(rng, kind, i):
        """Panel of diameter ~1e-2 on the unit sphere, target on it."""
        diam = 1e-2
        while True:
            base = rng.standard_normal(3)
            base /= np.linalg.norm(base)
            t1, t2 = rotation_to_z(base)[:2]
            angs = np.sort(rng.uniform(0.0, 2.0 * math.pi, 2))
            if not 0.4 <= angs[1] - angs[0] <= 2.0 * math.pi - 0.4:
                continue
            verts = [base]
            for ang in angs:
                tang = math.cos(ang) * t1 + math.sin(ang) * t2
                rad = diam * rng.uniform(0.7, 1.0)
                verts.append(math.cos(rad) * base + math.sin(rad) * tang)
            verts = np.array(verts)
            if _smallest_angle_deg(verts) >= 5.0:
                break
        if kind == "qsa_vertex":
            k = i % 3  # the target is vertex k of the panel
            verts = np.roll(verts, -k, axis=0) if k else verts
            x = base
            corner = (3 - k) % 3
        else:
            lam = 0.1 + 0.7 * rng.dirichlet(np.ones(3))
            x = lam @ verts
            x /= np.linalg.norm(x)
            corner = None
        form = FundamentalForm(-1.0, 0.0, -1.0, rotation_to_z(x)[:2])
        return {"kind": kind, "panel": Panel(*verts), "target": Target(x, x),
                "form": form, "hat": i % 3, "corner": corner}

    @staticmethod
    def call(case):
        p = HATS[case["hat"]]
        kind = case["kind"]
        if kind == "K":
            return panel_integrals.integrate_k_panel(case["panel"],
                                                     case["target"], p)
        if kind == "G":
            return panel_integrals.integrate_g_panel(case["panel"],
                                                     case["target"], p)
        return qsa.qsa_on_boundary(case["panel"], case["target"],
                                   case["form"], p)

    def iterate(self, inp):
        cases = inp["cases"]
        clock = time.perf_counter_ns
        lat = np.empty(len(cases), dtype=np.int64)
        values = np.empty(len(cases))
        failed = 0
        for i, case in enumerate(cases):
            a = clock()
            try:
                values[i] = self.call(case)
            except TripanelError:
                values[i] = math.nan
                failed += 1
            lat[i] = clock() - a
        inp["values"] = values
        return {"stages": lat * 1e-9, "solution_stages": len(cases),
                "pairs": len(cases), "ops": len(cases), "failed_ops": failed}

    def verify(self, inp, outs):
        """Per-case checks; returns the indices of the cases that fail.

        A K/G value is held against the batch engine (every unflagged
        case) and against the adaptive oracle (a seeded subset, plus every
        case where scalar and batch disagree, so the oracle decides which
        side is wrong).  A case fails when its own value is refuted; a
        disagreement the oracle pins on the batch engine is counted under
        batch_mismatch instead, since the workload's value was right.
        """
        cases, values = inp["cases"], inp["values"]
        bad = set(int(i) for i in np.nonzero(~np.isfinite(values))[0])
        n_oracle = self.oracle_subset[inp["scale"]]
        seen = {"K": 0, "G": 0, "qsa_vertex": 0}
        tally = {"batch_checked": 0, "batch_flagged": 0, "batch_mismatch": 0,
                 "mismatch_unresolved": 0, "oracle_checked": 0,
                 "oracle_unconverged": 0, "qsa_checked": 0}
        for i, case in enumerate(cases):
            got = values[i]
            if not math.isfinite(got):
                continue
            kind = case["kind"]
            if kind in ("K", "G"):
                agree = self._check_batch(case, got, tally)
                in_subset = seen[kind] < n_oracle
                seen[kind] += in_subset
                verdict = (self._check_oracle(case, got, tally)
                           if in_subset or not agree else None)
                if verdict is False:
                    bad.add(i)
                elif not agree:
                    tally["batch_mismatch"] += 1
                    tally["mismatch_unresolved"] += verdict is None
            else:
                ok = self._check_qsa_paths(case, got)
                tally["qsa_checked"] += 1
                if kind == "qsa_vertex" and seen[kind] < n_oracle:
                    seen[kind] += 1
                    ok &= self._check_patch(case, got)
                if not ok:
                    bad.add(i)
        counts = {}
        for case in cases:
            key = case["kind"] if "placement" not in case else \
                f"{case['kind']}_{case['placement']}"
            counts[key] = counts.get(key, 0) + 1
        return {"checks": {"all_cases": not bad}, "bad_cases": sorted(bad),
                "tally": tally, "pool": counts}

    @staticmethod
    def _check_batch(case, got, tally):
        x = case["target"].x[None]
        verts = case["panel"].verts[None]
        if case["kind"] == "K":
            vals, fb = k_panel_entries(x, case["target"].n[None], verts)
        else:
            vals, fb = g_panel_entries(x, verts)
        if fb[0, 0]:
            tally["batch_flagged"] += 1
            return True  # flagged pairs belong to the scalar path
        tally["batch_checked"] += 1
        want = vals[0, 0, case["hat"]]
        tol = BATCH_RTOL * abs(got) + BATCH_ATOL_SCALE * np.abs(vals[0, 0]).max()
        return abs(want - got) <= tol

    @staticmethod
    def _check_oracle(case, got, tally):
        """True/False against the oracle; None when it did not converge."""
        verts = case["panel"].verts
        x = case["target"].x
        n = case["target"].n
        hat = case["hat"]
        jac = 2.0 * case["panel"].area

        def f(uv):
            lam = np.stack([1.0 - uv[:, 0] - uv[:, 1], uv[:, 0], uv[:, 1]],
                           axis=1)
            diff = x[None, :] - lam @ verts
            r = np.linalg.norm(diff, axis=1)
            if n is None:
                vals = -1.0 / (FOUR_PI * r)
            else:
                vals = (diff @ n) / (FOUR_PI * r ** 3)
            return vals * lam[:, hat] * jac

        res = oracle.adaptive_triangle(f, oracle.REFERENCE_TRIANGLE,
                                       rel_tol=ORACLE_TOL)
        if not res.converged:
            tally["oracle_unconverged"] += 1
            return None
        tally["oracle_checked"] += 1
        denom = max(abs(res.value), 1e-10 * case["panel"].area)
        return abs(got - res.value) <= ORACLE_RTOL * denom

    @staticmethod
    def _check_qsa_paths(case, got):
        """Vertex targets: the single-segment path against the general
        polar path.  Interior targets: the panel split at the target into
        three sub-panels, each integrated by the vertex path."""
        panel, target, form = case["panel"], case["target"], case["form"]
        p = HATS[case["hat"]]
        if case["kind"] == "qsa_vertex":
            want = qsa.qsa_on_boundary(panel, target, form, p,
                                       use_vertex_path=False)
            scale = abs(want)
        else:
            x = target.x
            rot = rotation_to_z(x)
            coeffs = p.monomial_coeffs(((panel.verts - x) @ rot.T)[:, :2])
            want, scale = 0.0, 0.0
            for i in range(3):
                sub = Panel(x, panel.verts[i], panel.verts[(i + 1) % 3])
                s = ((sub.verts - x) @ rot.T)[:, :2]
                carried = PanelPolynomial.linear(
                    coeffs[(0, 0)] + coeffs[(1, 0)] * s[:, 0]
                    + coeffs[(0, 1)] * s[:, 1])
                part = qsa.qsa_vertex(sub, target, form, carried)
                want += part
                scale += abs(part)
        denom = max(scale, abs(got), 1e-14 * panel.area)
        return abs(got - want) <= QSA_PATH_RTOL * denom

    @staticmethod
    def _check_patch(case, got):
        """QSA at a vertex against the curved unit-sphere patch (Duffy)."""
        panel, x = case["panel"], case["target"].x
        rot = rotation_to_z(x)
        coeffs = HATS[case["hat"]].monomial_coeffs(
            ((panel.verts - x) @ rot.T)[:, :2])
        chart = oracle.sphere_patch_chart(*panel.verts)

        def f(uv):
            y, jac = chart(uv)
            r = np.linalg.norm(x - y, axis=1)
            s = ((y - x) @ rot.T)[:, :2]
            poly = coeffs[(0, 0)] + coeffs[(1, 0)] * s[:, 0] + coeffs[(0, 1)] * s[:, 1]
            # on the unit sphere (x - y).x = |x - y|^2 / 2 exactly
            return poly / (8.0 * math.pi * r) * jac

        want = oracle.duffy_integrate(f, oracle.REFERENCE_TRIANGLE,
                                      corner=case["corner"], n=96)
        return abs(got - want) <= QSA_PATCH_RTOL * abs(want)

    def detail(self, outs):
        lat = np.concatenate([o["stages"] for o in outs]) * 1e6
        return {
            "integral_us_p50": (float(np.percentile(lat, 50)), "us"),
            "integral_us_p99": (float(np.percentile(lat, 99)), "us"),
            "latency_samples": (int(lat.size), "count"),
        }


def _smallest_angle_deg(v):
    out = math.inf
    for i in range(3):
        a = v[(i + 1) % 3] - v[i]
        b = v[(i + 2) % 3] - v[i]
        cosang = (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        out = min(out, math.degrees(math.acos(max(-1.0, min(1.0, cosang)))))
    return out


def _median(values):
    return float(np.median(np.asarray(values, dtype=float)))


def timed_iterations(outs):
    """The iterations whose times count: all but the first, a warm-up."""
    return outs[1:] if len(outs) > 1 else outs


def _typical(outs):
    """Each stage's median time over the timed iterations."""
    return np.median([o["stages"] for o in timed_iterations(outs)], axis=0)


WORKLOADS = {w.name: w for w in (BemTorus(), IdentitySphere(), NearSingular())}
