"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Run with -s to see the lines.  Each test recomputes everything it needs and
prints its measured figure next to the bound it must meet, so a red test
documents how far off it landed.  Several of these are deliberately heavy
(full 7200-node sphere identity, 64x32 torus solve); the whole module is a
few minutes of compute.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from tripanel.bem import (
    Regularization,
    cos_phi,
    enclosing_flux,
    evaluate_potential,
    kernel_k,
    neumann_problem,
    solve,
    torus_flux_diagnostic,
    x1_flux,
)
from tripanel.cli import main
from tripanel.curvature import FundamentalForm, sphere_probe
from tripanel.errors import DivergentIntegral
from tripanel.geometry import Target, decompose_polar, orient_planar, rotation_to_z
from tripanel.mesh_io import generate_sphere_mesh, golden_spiral
from tripanel.oracle import (
    binned_max_slope,
    flat_panel_oracle,
    north_pole_panels,
    sphere_patch_oracle,
    sphere_vertex_panels,
)
from tripanel.panel_integrals import (
    PanelPolynomial,
    integrate_g_panel,
    integrate_k_panel,
)
from tripanel.qsa import _angular_primitives, qsa_on_boundary
from tripanel.radial_kernels import RadialKind, definite_radial, radial_integrand

from test_geometry import polar_area

ANGULAR_PAIRS = [(1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)]


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------- 1: primitives

def test_criterion_1_primitive_families():
    rng = np.random.default_rng(20260816)
    h = 1e-5
    # margins are |error| / allowed, allowed = rel * |ref| + an absolute
    # floor for zero crossings and difference-quotient roundoff; pass < 1
    fd_margin = def_margin = 0.0
    draws = 0
    for _ in range(500):
        kind = RadialKind(rng.choice([k.value for k in RadialKind]))
        d = rng.uniform(0.0, 2.0) * (rng.random() > 0.2)
        c = rng.uniform(0.05, 3.0)
        r = d + 0.05 + rng.uniform(0.0, 4.0)
        fd = definite_radial(kind, r - h, r + h, c, d) / (2 * h)
        ref = float(radial_integrand(kind, r, c, d))
        floor = 1e-12 + 5e-10 * (1 + c * c + d * d)
        fd_margin = max(fd_margin, abs(fd - ref) / (1e-6 * abs(ref) + floor))
        r_lo = d + rng.uniform(0.0, 1.0)
        r_hi = r_lo + rng.uniform(1e-3, 2.0)
        got = definite_radial(kind, r_lo, r_hi, c, d)
        want, _ = quad(lambda rr: float(radial_integrand(kind, rr, c, d)),
                       r_lo, r_hi, epsabs=1e-14, epsrel=1e-12, limit=300)
        def_margin = max(def_margin,
                         abs(got - want) / (1e-10 * abs(want) + 1e-12))
        draws += 1
    for _ in range(500):
        a, b = ANGULAR_PAIRS[rng.integers(len(ANGULAR_PAIRS))]
        theta2 = rng.uniform(0.15, math.pi - 0.15)
        lo = -theta2 + 0.1
        hi = math.pi - theta2 - 0.1
        t = rng.uniform(lo + 0.02, hi - 0.02)

        def integrand(tt, a=a, b=b, theta2=theta2):
            return (math.cos(tt) ** a * math.sin(tt) ** b
                    / math.sin(tt + theta2) ** (a + b - 1))

        fd = (_angular_primitives(t + h, theta2)[(a, b)]
              - _angular_primitives(t - h, theta2)[(a, b)]) / (2 * h)
        ref = integrand(t)
        fd_margin = max(fd_margin, abs(fd - ref) / (1e-6 * abs(ref) + 1e-9))
        t_lo = rng.uniform(lo, hi - 1e-3)
        t_hi = rng.uniform(t_lo, hi)
        got = (_angular_primitives(t_hi, theta2)[(a, b)]
               - _angular_primitives(t_lo, theta2)[(a, b)])
        want, _ = quad(integrand, t_lo, t_hi, epsabs=1e-14, epsrel=1e-12,
                       limit=300)
        def_margin = max(def_margin,
                         abs(got - want) / (1e-10 * abs(want) + 1e-12))
        draws += 1
    ok = draws >= 1000 and fd_margin < 1.0 and def_margin < 1.0
    report(1, ok, f"{draws} draws; derivative checks at {fd_margin:.2f} of "
                  f"the 1e-6-relative allowance, definite-vs-quadrature at "
                  f"{def_margin:.2f} of the 1e-10-relative allowance")


# ------------------------------------------------- 2: polar decomposition

def test_criterion_2_decomposition_areas():
    rng = np.random.default_rng(77)
    worst = 0.0
    done = 0
    while done < 1000:
        verts = rng.uniform(-5.0, 5.0, size=(3, 2))
        area2 = abs((verts[1] - verts[0])[0] * (verts[2] - verts[0])[1]
                    - (verts[1] - verts[0])[1] * (verts[2] - verts[0])[0])
        if area2 < 1e-2:
            continue
        tri = orient_planar(*verts)
        worst = max(worst, abs(polar_area(decompose_polar(tri)) - tri.area)
                    / tri.area)
        done += 1
    seq = [s.activity for s in decompose_polar(
        orient_planar((0.0, 2.0), (-2.0, -1.0), (3.0, 0.0))).slabs]
    expected = [(-1, -1, -1), (-1, 0, -1), (0, 0, -1),
                (0, 0, 0), (1, 0, 1), (-1, 1, 1)]
    ok = worst < 1e-8 and seq == expected
    report(2, ok, f"1000 areas via slab decomposition, worst rel diff "
                  f"{worst:.2e} (< 1e-8); worked-example activity sequence "
                  f"{'matches' if seq == expected else f'differs: {seq}'}")


# ---------------------------------------------- 3: near-singular closed form

# the oracle's absolute floor, as strict as before the 1/(4 pi) moved into
# its integrand; it sets the oracle's accuracy on near-cancelling integrals
ORACLE_ABS_TOL = 1e-14 / (4.0 * math.pi)

def test_criterion_3_near_singular_sweep():
    t0 = time.perf_counter()
    n = np.full(3, math.sqrt(3.0) / 3.0)
    worst = 0.0
    checked = {("K", False): 0, ("K", True): 0, ("G", False): 0,
               ("G", True): 0}
    for trial, seq in enumerate(np.random.SeedSequence(424242).spawn(2000)):
        use_linear = trial % 2 == 1
        for panel, x in north_pole_panels(np.random.default_rng(seq)):
            verts = panel.verts
            p = PanelPolynomial.linear(verts[:, 0]) if use_linear else None
            try:
                got_k = integrate_k_panel(panel, Target(x, n), p)
            except DivergentIntegral:
                continue
            want_k, ok_k = flat_panel_oracle("K", verts, x, n, p, rel_tol=1e-9,
                                             abs_tol=ORACLE_ABS_TOL)
            got_g = integrate_g_panel(panel, Target(x), p)
            want_g, ok_g = flat_panel_oracle("G", verts, x, n, p, rel_tol=1e-9,
                                             abs_tol=ORACLE_ABS_TOL)
            if ok_k and ok_g:
                break
        denom_k = max(abs(want_k), 1e-10 * panel.area)
        denom_g = max(abs(want_g), 1e-10 * panel.area)
        worst = max(worst, abs(got_k - want_k) / denom_k,
                    abs(got_g - want_g) / denom_g)
        checked[("K", use_linear)] += 1
        checked[("G", use_linear)] += 1
    elapsed = time.perf_counter() - t0
    ok = (worst < 1e-6 and elapsed < 60.0
          and all(v >= 900 for v in checked.values()))
    report(3, ok, f"2000 seeded trials x (K and G), constant/linear density "
                  f"split {checked[('K', False)]}/{checked[('K', True)]}; "
                  f"worst rel diff {worst:.2e} (< 1e-6) in {elapsed:.1f}s "
                  f"(< 60s)")


# ------------------------------------------------ 4: on-surface convergence

def test_criterion_4_qsa_slope_and_centroid_comparison():
    rng = np.random.default_rng(314)
    rows = []
    for _, (panel, x, angle) in zip(range(400), sphere_vertex_panels(rng)):
        form = FundamentalForm(-1.0, 0.0, -1.0, rotation_to_z(x)[:2])
        want = sphere_patch_oracle(panel, x, x)
        e_qsa = abs(qsa_on_boundary(panel, Target(x, x), form) - want)
        e_cen = abs(kernel_k(x, x, panel.centroid) * panel.area - want)
        star = panel.centroid / np.linalg.norm(panel.centroid)
        e_star = abs(kernel_k(x, x, star) * panel.area - want)
        rows.append((panel.diameter, angle, e_qsa / abs(want),
                     e_cen / abs(want), e_star / abs(want)))
    rows = np.array(rows)
    rels = rows[:, 2]
    slope = binned_max_slope(rows[:, 0], rels)
    quart = rows[np.argsort(rows[:, 1])[:100]]
    med = np.median(quart, axis=0)
    ok = (1.5 <= slope <= 2.5 and rels.max() < 1.0
          and med[2] < med[3] and med[2] < med[4]
          and quart[:, 2].max() < quart[:, 3].max()
          and quart[:, 2].max() < quart[:, 4].max())
    report(4, ok, f"binned-max slope {slope:.2f} (within 2.0+-0.5); max rel "
                  f"{rels.max():.2e} (< 1); acute-quartile medians qsa "
                  f"{med[2]:.1e} vs centroid {med[3]:.1e} / projected "
                  f"{med[4]:.1e}")


# ------------------------------------------------- 5: sphere identity bar

def test_criterion_5_identity_error_at_7200_nodes(tmp_path):
    # the figures come from the shipping command, so the gate checks it
    out = tmp_path / "identity.csv"
    assert main(["sphere-test", "--subdivisions", "3", "4", "--nodes", "7202",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    err = {(name, int(nodes)): float(e) for name, nodes, e in rows}
    errs = {name: err[name, 7202] for name in ("qsa", "zero", "centroid")}
    # icosphere levels 3 and 4 have 642 and 2562 nodes
    coarse = {s: (err["qsa", n], err["zero", n])
              for s, n in ((3, 642), (4, 2562))}
    ok = (errs["qsa"] < 1e-2 and errs["zero"] > 1e-2
          and errs["centroid"] > 1e-2
          and all(q < z for q, z in coarse.values())
          and coarse[4][0] < coarse[3][0])
    report(5, ok, f"14400-triangle sphere: qsa {errs['qsa']:.2e} (< 1e-2), "
                  f"zero {errs['zero']:.2e} and centroid "
                  f"{errs['centroid']:.2e} (> 1e-2); refining icosphere qsa "
                  f"{coarse[3][0]:.2e} -> {coarse[4][0]:.2e}, below zero "
                  f"{coarse[3][1]:.2e} -> {coarse[4][1]:.2e}")


# ------------------------------------------------ 6: curvature estimation

def _curvature_table(tmp_path, *options):
    """`tripanel curvature` run with options: its CSV rows as floats."""
    out = tmp_path / "curvature.csv"
    assert main(["curvature", *options, "--out", str(out)]) == 0
    return np.array([[float(v) for v in line.split(",")]
                     for line in out.read_text().splitlines()[2:]])


def test_criterion_6_curvature_estimation(tmp_path, capsys):
    # the figures come from the shipping command, so the gate checks it;
    # columns 4-5 hold the fitted principal curvatures, 6-7 the exact ones
    sphere = _curvature_table(tmp_path, "--sphere-subdivisions", "4")
    sphere_err = np.abs(sphere[:, 4:6] + 1.0).max()
    torus = _curvature_table(tmp_path, "--torus", "0.4", "0.2", "48", "24",
                             "--sdf", "torus:0.4:0.2")
    capsys.readouterr()
    k_est, k_ex = torus[:, 4:6], torus[:, 6:8]
    # one principal curvature crosses zero on the top/bottom circles, so
    # errors are scaled by the node's dominant curvature magnitude
    scale = np.abs(k_ex).max(axis=1, keepdims=True)
    torus_err = (np.abs(k_est - k_ex) / scale).max()
    ok = sphere_err < 5e-2 and torus_err < 0.10
    report(6, ok, f"icosphere level 4 eigenvalues within {sphere_err:.2e} of "
                  f"-1 (< 5e-2); torus principal curvatures within "
                  f"{torus_err * 100:.1f}% (< 10%)")


# ---------------------------------------------------- 7: boundary problems

def test_criterion_7_sphere_neumann():
    meshes, system, _ = neumann_problem(generate_sphere_mesh(4), x1_flux,
                                        probe=sphere_probe(1.0))
    gamma = solve(system, Regularization.MeanZero)
    residual = (np.linalg.norm(system.matrix @ gamma - system.rhs)
                / np.linalg.norm(system.rhs))
    pts = 0.5 * golden_spiral(20)
    u = evaluate_potential(meshes, gamma, pts)
    exact = pts[:, 0]
    shift = np.mean(u - exact)
    # the solution x1 + const has unit amplitude over the ball (max principle)
    err = np.abs(u - exact - shift).max()
    ok = err < 1e-2 and residual < 1e-10
    report(7, ok, f"du/dn = x1 on the 2562-node sphere: interior max "
                  f"|u - x1 - const| = {err:.2e} (< 1e-2 of unit solution "
                  f"amplitude) at 20 probes, residual {residual:.1e}")


def test_criterion_7_torus_insulator():
    meshes, system, probes = neumann_problem(generate_sphere_mesh(4), cos_phi,
                                             probe=sphere_probe(1.0),
                                             torus=(0.4, 0.2, 64, 32))
    gamma = solve(system, Regularization.MeanZero)
    residual = (np.linalg.norm(system.matrix @ gamma - system.rhs)
                / np.linalg.norm(system.rhs))
    diag = torus_flux_diagnostic(meshes, gamma, probes[1])
    ratio = float(diag["field_scale_ratio"].max())
    flux = abs(enclosing_flux(meshes, gamma, radius=0.7))
    ok = ratio < 0.05 and flux < 5e-3 and residual < 1e-9
    report(7, ok, f"insulating torus in sphere ({system.n} unknowns): "
                  f"surface-tangency ratio max|grad u . n|/max|grad u| = "
                  f"{ratio:.4f} (< 0.05), enclosing net flux {flux:.1e} "
                  f"(~ 0), residual {residual:.1e}")


# --------------------------------------------------- 8: CLI reproducibility

def test_criterion_8_cli_byte_identical(tmp_path, capsys):
    pairs = []
    for sub, extra in [("sweep-near-singular", ["--trials", "30"]),
                       ("sweep-singular", ["--trials", "20"])]:
        a, b = tmp_path / f"{sub}-a.csv", tmp_path / f"{sub}-b.csv"
        for path in (a, b):
            assert main([sub, *extra, "--seed", "2024",
                         "--out", str(path)]) == 0
        pairs.append((sub, a.read_bytes(), b.read_bytes()))
    capsys.readouterr()
    ok = all(x == y for _, x, y in pairs)
    schema = all(x.startswith(b"# tripanel-csv v1") for _, x, _ in pairs)
    report(8, ok and schema, "fixed-seed sweeps rerun byte-identical: "
           + ", ".join(f"{s} {'yes' if x == y else 'NO'}"
                       for s, x, y in pairs))
