"""End-to-end tests of the command-line interface (run in-process)."""

import argparse
import json
import math

import numpy as np
import pytest

from tripanel.bem import Regularization, SingularStrategy, nodal_areas
from tripanel.cli import _build_parser, main
from tripanel.curvature import FundamentalForm, estimate_fundamental_forms
from tripanel.geometry import Panel, Target, rotation_to_z
from tripanel.mesh_io import (SurfaceMesh, generate_sphere_mesh, generate_torus_mesh,
                              load_mesh, save_mesh)
from tripanel.qsa import qsa_on_boundary

TRI = ["--verts", "0", "0", "0", "1", "0", "0", "0", "1", "0"]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tri_integrate_analytic(capsys):
    code, out, _ = run(["tri-integrate", "--kernel", "K", *TRI,
                        "--target", "0.2", "0.3", "0.5",
                        "--normal", "0", "0", "1"], capsys)
    assert code == 0
    value = float(out.split("value=")[1].split()[0])
    # solid angle of the triangle from (0.2, 0.3, 0.5), over 4 pi
    assert 0.0 < value < 0.5


def test_tri_integrate_oracle_mode(capsys, tmp_path):
    rec = tmp_path / "rec.json"
    code, out, _ = run(["tri-integrate", "--kernel", "G", "--method", "oracle",
                        *TRI, "--target", "0.4", "0.1", "0.3",
                        "--poly", "yx", "--json", str(rec)], capsys)
    assert code == 0
    doc = json.loads(rec.read_text())
    assert doc["rel_diff"] < 1e-9
    assert "rel_diff" in out


def test_divergent_target_exits_2_and_suggests_qsa(capsys):
    code, _, err = run(["tri-integrate", *TRI,
                        "--target", "0.2", "0.3", "0",
                        "--normal", "0", "0", "1"], capsys)
    assert code == 2
    assert "--method qsa" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tri-integrate", "--kernel", "BAD", *TRI,
              "--target", "0", "0", "1"])
    assert exc.value.code == 1


def test_unknown_probe_exits_1(capsys):
    code, _, err = run(["tri-integrate", "--method", "qsa", "--sdf", "bogus",
                        *TRI, "--target", "0", "0", "0",
                        "--normal", "0", "0", "1"], capsys)
    assert code == 1
    assert "bogus" in err


# a unit-sphere panel with its first vertex at the north pole
SPHERE_TRI = ["--verts", "0", "0", "1",
              *map(str, np.array([0.1, 0.0, 1.0]) / math.hypot(0.1, 1.0)),
              *map(str, np.array([0.0, 0.1, 1.0]) / math.hypot(0.1, 1.0))]


def test_tri_integrate_qsa_at_a_sphere_vertex(capsys):
    # the target's normal comes from the probe, so --normal is optional;
    # one that is given must be that normal
    verts = np.array(SPHERE_TRI[1:], dtype=float).reshape(3, 3)
    x = verts[0]
    form = FundamentalForm(-1.0, 0.0, -1.0, rotation_to_z(x)[:2])
    want = qsa_on_boundary(Panel(*verts), Target(x, x), form)
    values = []
    for normal in ([], ["--normal", "0", "0", "1"]):
        code, out, _ = run(["tri-integrate", "--method", "qsa", *SPHERE_TRI,
                            "--target", "0", "0", "1", *normal], capsys)
        assert code == 0
        values.append(float(out.split("value=")[1].split()[0]))
    assert values[0] == values[1]
    assert abs(values[0] - want) <= 1e-12 * abs(want)
    code, _, err = run(["tri-integrate", "--method", "qsa", *SPHERE_TRI,
                        "--target", "0", "0", "1", "--normal", "1", "0", "0"],
                       capsys)
    assert code == 1
    assert "--normal is not the sphere surface's unit normal" in err


def test_tri_integrate_qsa_off_the_surface_exits_1(capsys):
    code, out, err = run(["tri-integrate", "--method", "qsa", *TRI,
                          "--target", "0", "0", "0.5"], capsys)
    assert code == 1
    assert "value=" not in out
    assert "--target is -5.000e-01 off the sphere surface" in err


def test_torus_probe_with_minor_above_major_exits_1(capsys):
    code, _, err = run(["tri-integrate", "--method", "qsa",
                        "--sdf", "torus:0.2:0.4", *TRI,
                        "--target", "0.6", "0", "0"], capsys)
    assert code == 1
    assert "need 0 < minor < major" in err


def test_missing_mesh_file_exits_1(capsys, tmp_path):
    code, _, err = run(["bem", "--mesh", str(tmp_path / "nope.off"),
                        "--out-json", str(tmp_path / "o.json"),
                        "--out-csv", str(tmp_path / "o.csv")], capsys)
    assert code == 1
    assert "nope.off" in err


def test_near_singular_sweep_reproducible(capsys, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    for path in (a, b):
        code, _, _ = run(["sweep-near-singular", "--trials", "6", "--seed",
                          "42", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    run(["sweep-near-singular", "--trials", "6", "--seed", "43",
         "--out", str(c)], capsys)
    assert a.read_bytes() != c.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "# tripanel-csv v1 sweep-near-singular"
    assert lines[1] == "trial,diameter,smallest_angle,value_method,value_oracle,rel_diff"
    assert len(lines) == 8


def test_near_singular_sweep_g_kernel_with_poly(capsys, tmp_path):
    out = tmp_path / "g.csv"
    code, _, _ = run(["sweep-near-singular", "--trials", "4", "--seed", "1",
                      "--kernel", "G", "--poly", "yx", "--out", str(out)],
                     capsys)
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert all(float(r[5]) < 1e-9 for r in rows)


def test_singular_sweep_schema_and_accuracy(capsys, tmp_path):
    out = tmp_path / "s.csv"
    code, text, _ = run(["sweep-singular", "--trials", "6", "--seed", "2",
                         "--diam-range", "0.02", "0.1", "--out", str(out)],
                        capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# tripanel-csv v1 sweep-singular"
    assert lines[-1].startswith("# loglog_slope ")
    rows = [line.split(",") for line in lines[2:-1]]
    assert len(rows) == 6
    # QSA at these diameters is a few-percent-accurate or better
    assert all(float(r[5]) < 0.05 for r in rows)


@pytest.mark.parametrize("sub", ["sweep-near-singular", "sweep-singular"])
def test_sweep_without_trials_exits_1(capsys, tmp_path, sub):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--trials", "0", "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 1
    assert "--trials: must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("sub, option, cause", [
    ("sweep-singular", ["--min-angle", "61"], "min_angle must be in [0, 60)"),
    ("sweep-singular", ["--diam-range", "0", "0.1"],
     "diameter range must have 0 < lo <= hi"),
    ("sweep-near-singular", ["--coord-range", "0", "0"],
     "coordinate range must have lo < hi"),
    ("sweep-near-singular", ["--c-range", "0.01", "-0.01"],
     "c range must have lo <= hi"),
    ("sweep-near-singular", ["--coord-range", "0.9", "1.0"],
     "coordinate range must lie within (-1/sqrt(2), 1/sqrt(2))"),
    ("sweep-singular", ["--diam-range", "4", "5"],
     "diameter range must have hi <= pi"),
], ids=["min-angle", "diam-range", "coord-range", "c-range",
        "coord-range-off-sphere", "diam-range-wraps"])
def test_sweep_range_no_panel_meets_exits_1(capsys, tmp_path, sub, option, cause):
    # these ranges used to redraw forever or fail deep in the math; the
    # panel generator now rejects them before its first draw
    out = tmp_path / "s.csv"
    code, _, err = run([sub, "--trials", "3", *option, "--out", str(out)],
                       capsys)
    assert code == 1
    assert cause in err
    assert not out.exists()


def test_singular_sweep_too_small_for_a_slope_exits_1(capsys, tmp_path):
    # one trial fills one diameter bin, and a slope needs two
    out = tmp_path / "s.csv"
    code, _, err = run(["sweep-singular", "--trials", "1", "--seed", "2024",
                        "--out", str(out)], capsys)
    assert code == 1
    assert "at least two diameter bins, got 1" in err
    assert not out.exists()


def test_sphere_test_command(capsys, tmp_path):
    out = tmp_path / "sp.csv"
    code, text, _ = run(["sphere-test", "--subdivisions", "2",
                         "--strategies", "qsa", "zero", "centroid",
                         "centroid-star", "--out", str(out)], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [r[0] for r in rows] == ["qsa", "zero", "centroid", "centroid-star"]
    assert all(r[1] == "162" for r in rows)
    errs = [float(r[2]) for r in rows]
    assert all(np.isfinite(errs))
    assert max(errs) < 1.0
    # the correction ranking already shows at this coarse level
    assert errs[0] < errs[1] and errs[0] < errs[2]


def test_curvature_command_sphere(capsys, tmp_path):
    out = tmp_path / "k.csv"
    code, _, _ = run(["curvature", "--sphere-subdivisions", "1",
                      "--sdf", "sphere", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1].endswith("k1_exact,k2_exact,max_abs_err")
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 42
    for r in rows:
        assert float(r[6]) == pytest.approx(-1.0)
        assert float(r[7]) == pytest.approx(-1.0)
        assert float(r[8]) < 0.5


def test_curvature_command_exact_columns_take_the_probe_normals(capsys, tmp_path):
    # at the probe's normals the exact columns are the torus's principal
    # curvatures -1/r and -cos(v)/rho to rounding; at the estimated normals
    # (tilted up to a few degrees on a 12 x 6 torus) they would not be
    out = tmp_path / "k.csv"
    code, _, _ = run(["curvature", "--torus", "0.4", "0.2", "12", "6",
                      "--sdf", "torus:0.4:0.2", "--out", str(out)], capsys)
    assert code == 0
    rows = np.array([line.split(",") for line in out.read_text().splitlines()[2:]],
                    dtype=float)
    rho = np.hypot(rows[:, 1], rows[:, 2])
    want = np.sort(np.column_stack([np.full(len(rho), -1.0 / 0.2),
                                    -(rho - 0.4) / (0.2 * rho)]), axis=1)
    assert np.abs(rows[:, 6:8] - want).max() <= 1e-13
    est = np.sort(estimate_fundamental_forms(generate_torus_mesh(0.4, 0.2, 12, 6))
                  .principal_curvatures(), axis=1)
    assert np.array_equal(rows[:, 4:6], est)
    assert np.array_equal(rows[:, 8], np.abs(est - rows[:, 6:8]).max(axis=1))


def test_curvature_command_plane_forms_are_zero(capsys, tmp_path):
    # the plane probe serves the batched shape-operator call: its exact
    # principal curvatures are exactly zero at every node
    out = tmp_path / "k.csv"
    code, _, _ = run(["curvature", "--sphere-subdivisions", "1",
                      "--sdf", "plane", "--out", str(out)], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 42
    assert all(float(r[6]) == 0.0 and float(r[7]) == 0.0 for r in rows)


def test_bem_command_sphere_smoke(capsys, tmp_path):
    js, csv = tmp_path / "u.json", tmp_path / "u.csv"
    code, text, _ = run(["bem", "--sphere-subdivisions", "1", "--grid", "9",
                         "--bc", "x1-flux", "--out-json", str(js),
                         "--out-csv", str(csv)], capsys)
    assert code == 0
    doc = json.loads(js.read_text())
    assert doc["residual"] < 1e-8
    assert doc["n_nodes"] == 42
    assert len(doc["gamma"]) == 42
    rows = [line.split(",") for line in csv.read_text().splitlines()[2:]]
    assert len(rows) == 81
    inside = [float(r[3]) for r in rows if not math.isnan(float(r[3]))]
    corner = [float(r[3]) for r in rows
              if abs(float(r[0])) > 0.9 and abs(float(r[1])) > 0.9]
    assert len(inside) > 10
    assert all(math.isnan(v) for v in corner)
    # x1 flux drives a dipole-like field: u should change sign across x=0
    assert min(inside) < 0.0 < max(inside)


def _choices(command, option):
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions
                if option in a.option_strings)


@pytest.mark.parametrize("command, option, enum", [
    ("sphere-test", "--strategies", SingularStrategy),
    ("bem", "--strategy", SingularStrategy),
    ("bem", "--regularization", Regularization),
])
def test_cli_choices_are_the_enum_values(command, option, enum):
    # every member is a choice, and every choice selects its own member
    choices = _choices(command, option)
    assert len(choices) == len(enum)
    assert {enum(name.replace("-", "_")) for name in choices} == set(enum)
    for member in enum:
        assert member.value.replace("_", "-") in choices


def test_bem_command_mean_zero_centroid_star(capsys, tmp_path):
    js, csv = tmp_path / "u.json", tmp_path / "u.csv"
    code, _, _ = run(["bem", "--sphere-subdivisions", "1", "--grid", "5",
                      "--regularization", "mean-zero",
                      "--strategy", "centroid-star",
                      "--out-json", str(js), "--out-csv", str(csv)], capsys)
    assert code == 0
    doc = json.loads(js.read_text())
    assert doc["strategy"] == "centroid-star" and doc["residual"] < 1e-8
    # the mean-zero gauge: the area-weighted mean of gamma vanishes
    weights = nodal_areas(generate_sphere_mesh(1))
    gamma = np.array(doc["gamma"])
    assert abs(gamma @ weights) <= 1e-12 * (np.abs(gamma) @ weights)


@pytest.mark.parametrize("command", [
    ["curvature", "--out", "{d}/k.csv"],
    ["bem", "--sphere-subdivisions", "0", "--out-json", "{d}/u.json",
     "--out-csv", "{d}/u.csv"],
], ids=["curvature", "bem"])
@pytest.mark.parametrize("counts", [("8.7", "4"), ("8", "4.2"), ("8", "nan")])
def test_torus_counts_must_be_whole_numbers(capsys, tmp_path, command, counts):
    argv = [a.format(d=tmp_path) for a in command]
    code, _, err = run([*argv, "--torus", "0.4", "0.2", *counts], capsys)
    assert code == 1
    assert "--torus NU and NV must be whole numbers" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("grid", ["0", "1", "2"])
def test_bem_grid_below_3_exits_1(capsys, tmp_path, grid):
    # 0 ticks write an empty slice, 1 one NaN row at (-0.95, -0.95, 0), and
    # 2 only the four corners, all outside the 0.95 ball
    with pytest.raises(SystemExit) as exc:
        main(["bem", "--sphere-subdivisions", "0", "--grid", grid,
              "--out-json", str(tmp_path / "u.json"),
              "--out-csv", str(tmp_path / "u.csv")])
    assert exc.value.code == 1
    assert f"--grid: must be at least 3, got {grid}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("fmt", ["json", "off"])
def test_bem_command_mesh_file(capsys, tmp_path, fmt):
    # a JSON file keeps the stored normals and an OFF file drops them: the
    # solve takes the stored ones or estimates them, and fits the forms
    base = generate_sphere_mesh(1)
    unit = base.nodes / np.linalg.norm(base.nodes, axis=1, keepdims=True)
    path = tmp_path / f"sphere.{fmt}"
    save_mesh(SurfaceMesh(base.nodes, base.triangles, node_normals=unit), path)
    assert (load_mesh(path).node_normals is None) == (fmt == "off")
    js, csv = tmp_path / "u.json", tmp_path / "u.csv"
    code, _, _ = run(["bem", "--mesh", str(path), "--grid", "5",
                      "--out-json", str(js), "--out-csv", str(csv)], capsys)
    assert code == 0
    doc = json.loads(js.read_text())
    assert doc["residual"] < 1e-8
    assert doc["n_nodes"] == 42
