"""Command-line frontend: single evaluations, randomized sweeps, the
sphere identity experiment, curvature tables, and BEM demos.

All numeric output is CSV/JSON for external plotting.  CSV files start
with a schema comment line, floats are printed with %.17g, lines end in
"\\n", and sweeps draw per-trial RNG streams from a spawned SeedSequence,
so a fixed seed reproduces byte-identical files.  Exit codes: 0 success,
1 usage or IO error, 2 mathematical divergence.
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from .bem import (
    Regularization,
    SingularStrategy,
    assemble,
    evaluate_potential,
    export_solution,
    identity_row_parts,
    nodal_areas,
    probe_forms,
    solve,
    sphere_forms,
    sphere_identity_test,
    torus_flux_diagnostic,
)
from .curvature import (
    FundamentalForm,
    SdfProbe,
    estimate_fundamental_forms,
    estimate_normals,
    sphere_probe,
    torus_probe,
)
from .errors import DivergentIntegral, TripanelError
from .geometry import Panel, Target, rotation_to_z
from .mesh_io import (
    generate_fibonacci_sphere_mesh,
    generate_sphere_mesh,
    generate_torus_mesh,
    load_mesh,
)
from .oracle import (
    flat_panel_oracle,
    smallest_angle_deg,
    sphere_patch_oracle,
    sphere_vertex_panels,
)
from .panel_integrals import PanelPolynomial, integrate_g_panel, integrate_k_panel
from .qsa import qsa_on_boundary

SCHEMA = "tripanel-csv v1"


def _fmt(v) -> str:
    return "%.17g" % float(v)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_csv(path, tag, header, rows, trailer=None):
    with open(path, "w", newline="") as fh:
        fh.write(f"# {SCHEMA} {tag}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
        if trailer:
            fh.write(trailer + "\n")


def _named_probe(name: str) -> SdfProbe:
    if name == "sphere":
        return sphere_probe(1.0)
    if name == "plane":
        return SdfProbe(lambda x: x[2],
                        lambda x: np.array([0.0, 0.0, 1.0]),
                        lambda x: np.zeros((3, 3)))
    if name.startswith("torus:"):
        parts = name.split(":")[1:]
        if len(parts) != 2:
            raise ValueError(f"torus probe needs torus:R:r, got {name!r}")
        return torus_probe(float(parts[0]), float(parts[1]))
    raise ValueError(f"unknown probe {name!r} (try sphere, plane, torus:R:r)")


def _poly_for(name: str, verts) -> PanelPolynomial | None:
    if name == "1":
        return None
    if name == "yx":
        return PanelPolynomial.linear(np.asarray(verts, dtype=float)[:, 0])
    if name == "yy":
        return PanelPolynomial.linear(np.asarray(verts, dtype=float)[:, 1])
    raise ValueError(f"unknown polynomial {name!r} (try 1, yx, yy)")


# --------------------------------------------------------------- commands

def cmd_tri_integrate(args) -> int:
    verts = np.array(args.verts, dtype=float).reshape(3, 3)
    panel = Panel(*verts)
    x = np.array(args.target, dtype=float)
    n = np.array(args.normal, dtype=float) if args.normal else None
    if args.kernel == "K" and n is None:
        raise ValueError("--kernel K needs --normal for the target")
    p = _poly_for(args.poly, verts)
    target = Target(x, n)
    t0 = time.perf_counter()
    if args.method == "qsa":
        if args.kernel != "K":
            raise ValueError("--method qsa applies to the K kernel only")
        probe = _named_probe(args.sdf)
        grad = probe.gradient(x)
        n_surf = grad / np.linalg.norm(grad)
        form = probe_forms(probe, x[None], n_surf[None])[0]
        value = qsa_on_boundary(panel, Target(x, n_surf), form, p)
    elif args.kernel == "K":
        value = integrate_k_panel(panel, target, p)
    else:
        value = integrate_g_panel(panel, target, p)
    elapsed = time.perf_counter() - t0
    doc = {"kernel": args.kernel, "method": args.method, "value": value,
           "seconds": elapsed}
    if args.method == "oracle":
        want, _ = flat_panel_oracle(args.kernel, verts, x, n, p)
        rel = abs(value - want) / max(abs(want), 1e-300)
        doc.update({"value_oracle": want, "rel_diff": rel})
        print(f"value={_fmt(value)} oracle={_fmt(want)} rel_diff={rel:.3e} "
              f"method=analytic+oracle time={elapsed:.4f}s")
    else:
        print(f"value={_fmt(value)} method={args.method} time={elapsed:.4f}s")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh)
    return 0


def _spawned_rngs(seed, trials):
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(trials)]


def cmd_sweep_near_singular(args) -> int:
    lo, hi = args.coord_range
    n = np.full(3, math.sqrt(3.0) / 3.0)
    rows = []
    for trial, rng in enumerate(_spawned_rngs(args.seed, args.trials)):
        # resample until the panel is usable, the flat value exists, and
        # the oracle certifies convergence
        while True:
            xy = rng.uniform(lo, hi, size=(3, 2))
            z = np.sqrt(1.0 - (xy ** 2).sum(axis=1)) - 1.0
            verts = np.column_stack([xy, z])
            try:
                panel = Panel(*verts)
            except TripanelError:
                continue
            c = rng.uniform(*args.c_range)
            x = np.array([0.0, 0.0, c])
            p = _poly_for(args.poly, verts)
            try:
                if args.kernel == "K":
                    value = integrate_k_panel(panel, Target(x, n), p)
                else:
                    value = integrate_g_panel(panel, Target(x), p)
            except DivergentIntegral:
                continue
            want, ok = flat_panel_oracle(args.kernel, verts, x, n, p,
                                         rel_tol=args.oracle_tol)
            if ok:
                break
        rel = abs(value - want) / max(abs(want), 1e-10 * panel.area)
        rows.append((trial, float(panel.diameter), smallest_angle_deg(verts),
                     float(value), float(want), float(rel)))
    _write_csv(args.out, "sweep-near-singular",
               ["trial", "diameter", "smallest_angle", "value_method",
                "value_oracle", "rel_diff"], rows)
    print(f"wrote {args.out}: {len(rows)} trials, max rel_diff "
          f"{max(r[5] for r in rows):.3e}")
    return 0


def cmd_sweep_singular(args) -> int:
    rows = []
    for trial, rng in enumerate(_spawned_rngs(args.seed, args.trials)):
        panel, base, angle = next(sphere_vertex_panels(rng, args.diam_range,
                                                       args.min_angle))
        p = _poly_for(args.poly, panel.verts)
        form = FundamentalForm(-1.0, 0.0, -1.0, rotation_to_z(base)[:2])
        value = qsa_on_boundary(panel, Target(base, base), form, p)
        want = sphere_patch_oracle(panel, base, base, p)
        rel = abs(value - want) / max(abs(want), 1e-300)
        rows.append((trial, float(panel.diameter), angle,
                     float(value), float(want), float(rel)))
    diams = np.array([r[1] for r in rows])
    rels = np.array([r[5] for r in rows])
    edges = np.geomspace(diams.min(), diams.max() * (1 + 1e-12), 9)
    mids, tops = [], []
    for k in range(len(edges) - 1):
        mask = (diams >= edges[k]) & (diams < edges[k + 1])
        if mask.any():
            mids.append(math.sqrt(edges[k] * edges[k + 1]))
            tops.append(rels[mask].max())
    slope = float(np.polyfit(np.log(mids), np.log(tops), 1)[0])
    _write_csv(args.out, "sweep-singular",
               ["trial", "diameter", "smallest_angle", "value_method",
                "value_oracle", "rel_diff"], rows,
               trailer=f"# loglog_slope {_fmt(slope)}")
    print(f"wrote {args.out}: {len(rows)} trials, binned-max slope {slope:.3f}")
    return 0


_STRATEGIES = {
    "qsa": SingularStrategy.QSA,
    "zero": SingularStrategy.Zero,
    "centroid": SingularStrategy.Centroid,
    "centroid-star": SingularStrategy.CentroidStar,
}


def cmd_sphere_test(args) -> int:
    meshes = [(f"ico-s{s}", generate_sphere_mesh(s)) for s in args.subdivisions]
    meshes += [(f"fib-{n}", generate_fibonacci_sphere_mesh(n)) for n in args.nodes]
    if not meshes:
        raise ValueError("give at least one --subdivisions or --nodes value")
    rows = []
    for label, mesh in meshes:
        normals = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1, keepdims=True)
        parts = identity_row_parts(mesh, normals)
        forms = sphere_forms(mesh, radius=1.0)
        for name in args.strategies:
            mx, _ = sphere_identity_test(mesh, _STRATEGIES[name], forms=forms,
                                         parts=parts)
            rows.append((name, mesh.n_nodes, float(mx)))
            print(f"{label:10s} {name:13s} N={mesh.n_nodes:6d} "
                  f"max_rel_error={mx:.6e}")
    _write_csv(args.out, "sphere-test",
               ["strategy", "n_nodes", "max_rel_error"], rows)
    print(f"wrote {args.out}")
    return 0


def _mesh_from_args(args):
    if args.mesh:
        return load_mesh(args.mesh)
    return generate_sphere_mesh(args.sphere_subdivisions)


def cmd_curvature(args) -> int:
    if args.mesh:
        mesh = load_mesh(args.mesh)
    elif args.torus:
        major, minor, n_u, n_v = args.torus
        mesh = generate_torus_mesh(major, minor, int(n_u), int(n_v))
    else:
        mesh = generate_sphere_mesh(args.sphere_subdivisions)
    normals = estimate_normals(mesh)
    forms = estimate_fundamental_forms(mesh, normals)
    probe = _named_probe(args.sdf) if args.sdf else None
    exact = probe_forms(probe, mesh.nodes, normals) if probe else None
    header = ["node", "x", "y", "z", "k1_est", "k2_est"]
    if exact:
        header += ["k1_exact", "k2_exact", "max_abs_err"]
    rows = []
    for i in range(mesh.n_nodes):
        k_est = np.sort(forms[i].principal_curvatures())
        row = [i, *map(float, mesh.nodes[i]), float(k_est[0]), float(k_est[1])]
        if exact:
            k_ex = np.sort(exact[i].principal_curvatures())
            row += [float(k_ex[0]), float(k_ex[1]),
                    float(np.abs(k_est - k_ex).max())]
        rows.append(tuple(row))
    _write_csv(args.out, "curvature", header, rows)
    print(f"wrote {args.out}: {mesh.n_nodes} nodes")
    return 0


_BCS = {
    "x1-flux": lambda x: x[0],
    "cos-phi": lambda x: x[0] / math.hypot(x[0], x[1])
    if math.hypot(x[0], x[1]) > 1e-12 else 0.0,
}


def cmd_bem(args) -> int:
    sphere = _mesh_from_args(args)
    if args.mesh:
        # file-backed boundary: no analytic surface; the file's normals if
        # it carries them, else estimated from the mesh
        s_norm = sphere.node_normals
        if s_norm is None:
            s_norm = estimate_normals(sphere)
        s_forms = estimate_fundamental_forms(sphere, s_norm)
        s_probe = None
    else:
        s_norm = sphere.nodes / np.linalg.norm(sphere.nodes, axis=1,
                                               keepdims=True)
        s_forms = sphere_forms(sphere, radius=1.0)
        s_probe = sphere_probe(1.0)
    meshes = [sphere]
    normals = [s_norm]
    forms = [s_forms]
    probes = [s_probe]
    t_probe = None
    if args.torus:
        major, minor, n_u, n_v = args.torus
        torus = generate_torus_mesh(major, minor, int(n_u), int(n_v))
        t_probe = torus_probe(major, minor)
        t_norm = np.array([t_probe.gradient(x) for x in torus.nodes])
        t_norm /= np.linalg.norm(t_norm, axis=1, keepdims=True)
        meshes.append(torus)
        normals.append(t_norm)
        forms.append(probe_forms(t_probe, torus.nodes, t_norm))
        probes.append(t_probe)

    bc = _BCS[args.bc]
    b = np.array([bc(x) for x in sphere.nodes])
    weights = nodal_areas(sphere)
    net = float(b @ weights)
    scale = float(np.abs(b) @ weights)
    shift = 0.0
    if abs(net) > 1e-8 * max(scale, 1e-300):
        print(f"warning: Neumann data has net flux {net:.3e}; projecting "
              f"onto the compatible (mean-zero) part", file=sys.stderr)
        shift = net / weights.sum()

    system = assemble(meshes, _STRATEGIES[args.strategy], forms,
                      normals=normals, probes=probes,
                      neumann_bc=lambda x: bc(x) - shift)
    gamma = solve(system, Regularization.PinNode
                  if args.regularization == "pin-node" else Regularization.MeanZero)
    residual = float(np.linalg.norm(system.matrix @ gamma - system.rhs)
                     / max(np.linalg.norm(system.rhs), 1e-300))

    # contour slice through z = 0
    ticks = np.linspace(-0.95, 0.95, args.grid)
    xx, yy = np.meshgrid(ticks, ticks, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
    ok = np.linalg.norm(pts, axis=1) <= 0.95
    if t_probe is not None:
        ok &= np.array([t_probe.value(p) for p in pts]) >= 0.02
    u = np.full(len(pts), math.nan)
    if ok.any():
        u[ok] = evaluate_potential(meshes, gamma, pts[ok])
    rows = [(float(p[0]), float(p[1]), float(p[2]), float(v))
            for p, v in zip(pts, u)]
    _write_csv(args.out_csv, "bem-slice", ["x", "y", "z", "u"], rows)

    summary = {"bc": args.bc, "strategy": args.strategy, "residual": residual,
               "n_nodes": int(system.n)}
    if t_probe is not None:
        diag = torus_flux_diagnostic(meshes, gamma, t_probe)
        summary["torus_flux_ratio_max"] = float(diag["field_scale_ratio"].max())
        print(f"torus orthogonality |grad u . n| / max|grad u|: "
              f"max {summary['torus_flux_ratio_max']:.4f}")
    export_solution(args.out_json, meshes, gamma, pts[ok], u[ok], **summary)
    print(f"solved {system.n} unknowns, residual {residual:.2e}; "
          f"wrote {args.out_json} and {args.out_csv}")
    return 0


# ----------------------------------------------------------------- parser

def _build_parser() -> _Parser:
    parser = _Parser(prog="tripanel",
                     description="Closed-form singular/near-singular panel "
                                 "integrals, QSA, and a collocation BEM demo")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tri-integrate", parents=[],
                       help="integrate one kernel over one triangle")
    p.add_argument("--kernel", choices=["K", "G"], default="K")
    p.add_argument("--method", choices=["analytic", "qsa", "oracle"],
                   default="analytic")
    p.add_argument("--verts", type=float, nargs=9, required=True,
                   metavar="F", help="three vertices, xyz each")
    p.add_argument("--target", type=float, nargs=3, required=True, metavar="F")
    p.add_argument("--normal", type=float, nargs=3, metavar="F")
    p.add_argument("--poly", choices=["1", "yx", "yy"], default="1")
    p.add_argument("--sdf", default="sphere",
                   help="surface probe for qsa: sphere, plane, torus:R:r")
    p.add_argument("--json", help="also write a JSON record here")
    p.set_defaults(func=cmd_tri_integrate)

    p = sub.add_parser("sweep-near-singular",
                       help="seeded panels on the sphere vs adaptive oracle")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coord-range", type=float, nargs=2, default=[-0.01, 0.01])
    p.add_argument("--c-range", type=float, nargs=2, default=[-0.01, 0.01])
    p.add_argument("--kernel", choices=["K", "G"], default="K")
    p.add_argument("--poly", choices=["1", "yx", "yy"], default="1")
    p.add_argument("--oracle-tol", type=float, default=1e-10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_near_singular)

    p = sub.add_parser("sweep-singular",
                       help="QSA at a panel vertex vs curved-patch oracle")
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--diam-range", type=float, nargs=2, default=[1e-3, 1e-1])
    p.add_argument("--min-angle", type=float, default=5.0,
                   help="resample panels whose smallest angle (degrees) is "
                        "below this; the h^2 constant degrades on slivers")
    p.add_argument("--poly", choices=["1", "yx", "yy"], default="1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_singular)

    p = sub.add_parser("sphere-test",
                       help="closed-surface identity error per strategy")
    p.add_argument("--subdivisions", type=int, nargs="*", default=[])
    p.add_argument("--nodes", type=int, nargs="*", default=[],
                   help="Fibonacci-mesh node counts")
    p.add_argument("--strategies", nargs="+",
                   choices=sorted(_STRATEGIES), default=["qsa", "zero", "centroid"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sphere_test)

    p = sub.add_parser("curvature", help="per-node curvature table")
    p.add_argument("--mesh", help="mesh file (OFF or JSON)")
    p.add_argument("--sphere-subdivisions", type=int, default=2)
    p.add_argument("--torus", type=float, nargs=4,
                   metavar=("R", "r", "NU", "NV"))
    p.add_argument("--sdf", help="probe for exact columns: sphere, torus:R:r")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("bem", help="Neumann solve on a sphere, optional torus")
    p.add_argument("--mesh", help="outer boundary mesh file")
    p.add_argument("--sphere-subdivisions", type=int, default=3)
    p.add_argument("--torus", type=float, nargs=4,
                   metavar=("R", "r", "NU", "NV"))
    p.add_argument("--bc", choices=sorted(_BCS), default="x1-flux")
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="qsa")
    p.add_argument("--regularization", choices=["pin-node", "mean-zero"],
                   default="pin-node")
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--out-json", required=True)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=cmd_bem)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergentIntegral as exc:
        print(f"error: divergent integral: {exc} (the flat-panel value does "
              f"not exist; retry with `--method qsa` and a surface probe)",
              file=sys.stderr)
        return 2
    except (TripanelError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
