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
import pytest
from scipy.integrate import quad

from tripanel.bem import (
    Regularization,
    SingularStrategy,
    enclosing_flux,
    evaluate_potential,
    identity_row_parts,
    kernel_k,
    probe_forms,
    solve,
    sphere_forms,
    sphere_identity_test,
    sphere_neumann_problem,
    torus_flux_diagnostic,
    torus_in_sphere_problem,
)
from tripanel.cli import main
from tripanel.curvature import (
    FundamentalForm,
    estimate_fundamental_forms,
    torus_probe,
)
from tripanel.errors import DivergentIntegral, TripanelError
from tripanel.geometry import (
    Panel,
    Target,
    decompose_polar,
    orient_planar,
    rotation_to_z,
)
from tripanel.mesh_io import (
    generate_fibonacci_sphere_mesh,
    generate_sphere_mesh,
    generate_torus_mesh,
)
from tripanel.oracle import (
    flat_panel_oracle,
    sphere_patch_oracle,
    sphere_vertex_panels,
)
from tripanel.panel_integrals import (
    PanelPolynomial,
    integrate_g_panel,
    integrate_k_panel,
)
from tripanel.qsa import _angular_primitives, qsa_on_boundary
from tripanel.radial_kernels import (
    RadialKind,
    definite_radial,
    radial_integrand,
    radial_primitive,
)

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
        fd = (radial_primitive(kind, r + h, c, d)
              - radial_primitive(kind, r - h, c, d)) / (2 * h)
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

def polar_area(dec):
    total = 0.0
    for slab in dec.slabs:
        val, _ = quad(lambda r: r * slab.angular_measure(r),
                      slab.r_lo, slab.r_hi, epsabs=1e-13, epsrel=1e-12,
                      limit=200)
        total += val
    return total


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
        rng = np.random.default_rng(seq)
        while True:
            xy = rng.uniform(-0.01, 0.01, size=(3, 2))
            z = np.sqrt(1.0 - (xy ** 2).sum(axis=1)) - 1.0
            verts = np.column_stack([xy, z])
            try:
                panel = Panel(*verts)
            except TripanelError:
                continue
            c = rng.uniform(-0.01, 0.01)
            x = np.array([0.0, 0.0, c])
            use_linear = trial % 2 == 1
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
    diams, rels = rows[:, 0], rows[:, 2]
    edges = np.geomspace(diams.min(), diams.max() * (1 + 1e-12), 9)
    mids, tops = [], []
    for k in range(8):
        m = (diams >= edges[k]) & (diams < edges[k + 1])
        if m.any():
            mids.append(math.sqrt(edges[k] * edges[k + 1]))
            tops.append(rels[m].max())
    slope = float(np.polyfit(np.log(mids), np.log(tops), 1)[0])
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

def test_criterion_5_identity_error_at_7200_nodes():
    mesh = generate_fibonacci_sphere_mesh(7202)
    normals = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1, keepdims=True)
    parts = identity_row_parts(mesh, normals)
    forms = sphere_forms(mesh, radius=1.0)
    errs = {}
    for name, strat in [("qsa", SingularStrategy.QSA),
                        ("zero", SingularStrategy.Zero),
                        ("centroid", SingularStrategy.Centroid)]:
        errs[name], _ = sphere_identity_test(mesh, strat, forms=forms,
                                             parts=parts)
    coarse = {}
    for s in (3, 4):
        ico = generate_sphere_mesh(s)
        ico_n = ico.nodes / np.linalg.norm(ico.nodes, axis=1, keepdims=True)
        ico_parts = identity_row_parts(ico, ico_n)
        ico_forms = sphere_forms(ico, radius=1.0)
        q, _ = sphere_identity_test(ico, SingularStrategy.QSA,
                                    forms=ico_forms, parts=ico_parts)
        z, _ = sphere_identity_test(ico, SingularStrategy.Zero,
                                    forms=ico_forms, parts=ico_parts)
        coarse[s] = (q, z)
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

def test_criterion_6_curvature_estimation():
    sphere = generate_sphere_mesh(4)
    ks = np.array([np.sort(f.principal_curvatures())
                   for f in estimate_fundamental_forms(sphere)])
    sphere_err = np.abs(ks + 1.0).max()

    torus = generate_torus_mesh(0.4, 0.2, 48, 24)
    probe = torus_probe(0.4, 0.2)
    tn = np.array([probe.gradient(x) for x in torus.nodes])
    tn /= np.linalg.norm(tn, axis=1, keepdims=True)
    k_est = np.array([np.sort(f.principal_curvatures())
                      for f in estimate_fundamental_forms(torus, tn)])
    k_ex = np.array([np.sort(f.principal_curvatures())
                     for f in probe_forms(probe, torus.nodes, tn)])
    # one principal curvature crosses zero on the top/bottom circles, so
    # errors are scaled by the node's dominant curvature magnitude
    scale = np.abs(k_ex).max(axis=1, keepdims=True)
    torus_err = (np.abs(k_est - k_ex) / scale).max()
    ok = sphere_err < 5e-2 and torus_err < 0.10
    report(6, ok, f"icosphere level 4 eigenvalues within {sphere_err:.2e} of "
                  f"-1 (< 5e-2); torus principal curvatures within "
                  f"{torus_err * 100:.1f}% (< 10%)")


# ---------------------------------------------------- 7: boundary problems

def golden_directions(m):
    i = np.arange(m)
    z = 1.0 - (2.0 * i + 1.0) / m
    phi = 2.0 * math.pi * i / ((1.0 + math.sqrt(5.0)) / 2.0) ** 2
    rho = np.sqrt(1.0 - z ** 2)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def test_criterion_7_sphere_neumann():
    meshes, system = sphere_neumann_problem(subdivisions=4)
    gamma = solve(system, Regularization.MeanZero)
    residual = (np.linalg.norm(system.matrix @ gamma - system.rhs)
                / np.linalg.norm(system.rhs))
    pts = 0.5 * golden_directions(20)
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
    meshes, system, probes = torus_in_sphere_problem(subdivisions=4,
                                                     n_u=64, n_v=32)
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
