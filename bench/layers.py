"""Where the traced run wraps the library, and the per-layer metrics.

Layers are tripanel's modules.  Each function is wrapped where its caller
looks it up: ``tripanel.bem.k_panel_entries`` is the batch engine as the
BEM sees it, ``tripanel.panel_integrals.definite_radial`` is the radial
primitive as the scalar path sees it, and so on.  The benchmark itself
calls the library through module attributes, so its own calls are
wrapped too.
"""

from __future__ import annotations

from tripanel import bem, mesh_io, panel_integrals, qsa
from tripanel.errors import DivergentIntegral

BATCH = ("k_panel_entries", "k_row_sums", "g_panel_entries")
ROUTED_BY = ("bem.assemble", "bem.identity_row_parts")

# (module, attribute, span name)
SITES = [
    *[(bem, f, f"batch.{f}") for f in BATCH],
    (bem, "integrate_k_panel", "panel_integrals.integrate_k_panel"),
    (bem, "integrate_g_panel", "panel_integrals.integrate_g_panel"),
    (bem, "qsa_on_boundary", "qsa.qsa_on_boundary"),
    (bem, "foot_point", "qsa.foot_point"),
    (bem, "estimate_normals", "curvature.estimate_normals"),
    (bem, "shape_operator", "curvature.shape_operator"),
    (bem, "generate_sphere_mesh", "mesh_io.generate"),
    (bem, "generate_torus_mesh", "mesh_io.generate"),
    *[(bem, f, f"bem.{f}") for f in (
        "assemble", "solve", "single_layer_matrix", "evaluate_potential",
        "potential_gradient", "identity_row_parts", "sphere_identity_test",
        "torus_flux_diagnostic", "probe_forms", "sphere_forms")],
    (qsa, "qsa_on_boundary", "qsa.qsa_on_boundary"),
    (qsa, "qsa_vertex", "qsa.qsa_vertex"),
    (qsa, "compute_k_moments", "panel_integrals.compute_k_moments"),
    (qsa, "decompose_polar", "geometry.decompose_polar"),
    (qsa, "estimate_normals", "curvature.estimate_normals"),
    (panel_integrals, "integrate_k_panel", "panel_integrals.integrate_k_panel"),
    (panel_integrals, "integrate_g_panel", "panel_integrals.integrate_g_panel"),
    (panel_integrals, "compute_k_moments", "panel_integrals.compute_k_moments"),
    (panel_integrals, "decompose_polar", "geometry.decompose_polar"),
    (panel_integrals, "definite_radial", "radial_kernels.definite_radial"),
    *[(mesh_io, f, "mesh_io.generate") for f in (
        "generate_sphere_mesh", "generate_torus_mesh",
        "generate_fibonacci_sphere_mesh")],
]

# per-layer metric -> unit; the traced run emits exactly these
METRICS = {}
for _f in BATCH:
    METRICS.update({f"batch.{_f}.s": "s", f"batch.{_f}.pairs": "count",
                    f"batch.{_f}.ns_per_pair": "ns",
                    f"batch.{_f}.fallback_frac": "1"})
METRICS.update({
    "qsa.qsa_on_boundary.s": "s", "qsa.qsa_on_boundary.calls": "count",
    "qsa.qsa_on_boundary.us_per_call": "us",
    "qsa.qsa_vertex.s": "s", "qsa.qsa_vertex.calls": "count",
    "qsa.foot_point.s": "s", "qsa.foot_point.calls": "count",
    "panel_integrals.integrate_k_panel.s": "s",
    "panel_integrals.integrate_k_panel.calls": "count",
    "panel_integrals.integrate_k_panel.us_per_call": "us",
    "panel_integrals.integrate_k_panel.divergent": "count",
    "panel_integrals.integrate_g_panel.s": "s",
    "panel_integrals.integrate_g_panel.calls": "count",
    "panel_integrals.integrate_g_panel.us_per_call": "us",
    "panel_integrals.compute_k_moments.s": "s",
    "panel_integrals.compute_k_moments.calls": "count",
    "geometry.decompose_polar.s": "s", "geometry.decompose_polar.calls": "count",
    "radial_kernels.definite_radial.s": "s",
    "radial_kernels.definite_radial.calls": "count",
    "bem.assemble.s": "s", "bem.assemble.self_s": "s",
    "bem.solve.s": "s", "bem.solve.self_s": "s",
    "bem.single_layer_matrix.s": "s",
    "bem.evaluate_potential.s": "s", "bem.evaluate_potential.points": "count",
    "bem.potential_gradient.s": "s",
    "bem.identity_row_parts.s": "s", "bem.identity_row_parts.self_s": "s",
    "curvature.estimate_normals.s": "s", "curvature.estimate_normals.calls": "count",
    "curvature.shape_operator.s": "s", "curvature.shape_operator.calls": "count",
    "mesh_io.generate.s": "s",
    "routes.batch_clean": "count", "routes.flagged_scalar": "count",
    "routes.incident": "count", "routes.rows_x_panels": "count",
    "trace.overhead_s": "s",
    # from the verification phase, not the spans: batch values refuted
    # by the scalar path and the oracle (near-singular cross-check)
    "batch.scalar_mismatch": "count",
})
NOT_FROM_SPANS = ("routes.", "trace.", "batch.scalar_mismatch")


def _batch_counts(name):
    def on_return(tracer, args, kwargs, out):
        _, fallback = out
        tracer.count(f"{name}.pairs", fallback.size)
        tracer.count(f"{name}.fallback", int(fallback.sum()))
        # pairs the assembly routes: the invariant is checked on these
        if tracer.caller() in ROUTED_BY:
            tracer.count("routed.pairs", fallback.size)
            tracer.count("routed.fallback", int(fallback.sum()))
    return on_return


def _count_divergent(tracer, exc):
    if isinstance(exc, DivergentIntegral):
        tracer.count("panel_integrals.integrate_k_panel.divergent")


def _count_points(tracer, args, kwargs, out):
    tracer.count("bem.evaluate_potential.points", len(out))


def install(tracer) -> None:
    for module, attr, name in SITES:
        on_return = on_error = None
        if name.startswith("batch."):
            on_return = _batch_counts(name)
        elif attr == "integrate_k_panel":
            on_error = _count_divergent
        elif name == "bem.evaluate_potential":
            on_return = _count_points
        tracer.add_site(module, attr, name, on_return, on_error)


def unit_metrics(tracer) -> dict:
    """Per-layer figures of one traced unit (routes and overhead excluded)."""
    out = {}
    for key, unit in METRICS.items():
        if key.startswith(NOT_FROM_SPANS):
            continue
        layer, _, field = key.rpartition(".")
        if field == "s":
            out[key] = tracer.seconds(layer)
        elif field == "self_s":
            out[key] = tracer.self_seconds(layer)
        elif field == "calls":
            out[key] = tracer.calls[layer]
        elif field in ("pairs", "divergent", "points"):
            out[key] = tracer.counts[key]
        elif field == "ns_per_pair":
            pairs = tracer.counts[f"{layer}.pairs"]
            out[key] = tracer.total_ns[layer] / pairs if pairs else 0.0
        elif field == "fallback_frac":
            pairs = tracer.counts[f"{layer}.pairs"]
            out[key] = tracer.counts[f"{layer}.fallback"] / pairs if pairs else 0.0
        elif field == "us_per_call":
            calls = tracer.calls[layer]
            out[key] = tracer.total_ns[layer] * 1e-3 / calls if calls else 0.0
        else:
            raise KeyError(key)
    out["routed.pairs"] = tracer.counts["routed.pairs"]
    out["routed.fallback"] = tracer.counts["routed.fallback"]
    return out
