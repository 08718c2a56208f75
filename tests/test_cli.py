"""End-to-end runs of the command-line tool.

Each test writes a JSON config into a tmp dir, invokes ``main`` in process,
and inspects exit codes, stderr, and the emitted CSV/JSON artifacts.  One
determinism test goes through a real subprocess to cover the module entry
point as shipped.
"""

import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cauchypot
from cauchypot.cauchy import singular_S
from cauchypot.arcs import ComplexPolynomial
from cauchypot.cli import _json17, _pairs, _polynomial, main
from cauchypot.geometry import build_arc_system, build_closed_contour
from cauchypot.errors import AlignmentError, SchemaError
from cauchypot.potential import (PotentialField, read_potential_binary, write_potential_binary,
                                 write_potential_csv)
from cauchypot.sampling import (
    SampledDensity,
    read_density_csv,
    read_solution_csv,
    write_density_csv,
    write_solution_csv,
)

CIRCLE = {"type": "circle", "radius": 1.0, "center": [0.0, 0.0],
          "panels": 8, "nodes_per_panel": 32}
SEGMENT = {"type": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0],
           "panels": 8, "nodes_per_panel": 32}


def run_cli(tmp_path, config, *extra, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=1))
    out = tmp_path / "out"
    return main(["--config", str(path), "--out", str(out), *extra]), out


def summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


# ---------------------------------------------------------------------------
# the three worked examples from the interface contract
# ---------------------------------------------------------------------------

def test_solve_closed_monomial_matches_rhs_csv(tmp_path):
    host = build_closed_contour(CIRCLE)
    rhs_path = tmp_path / "rhs.csv"
    write_density_csv(rhs_path, host.nodes ** 3)
    config = {
        "command": "solve-closed",
        "geometry": {"curve": CIRCLE},
        "rhs": {"family": "csv", "path": str(rhs_path)},
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    got = read_solution_csv(out / "solution.csv", host=host)
    want = read_density_csv(rhs_path)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_bounded_chebyshev_on_segment(tmp_path):
    config = {
        "command": "bounded",
        "geometry": {"arcs": [SEGMENT]},
        "rhs": {"family": "chebyshev-T", "degree": 2},
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    doc = summary(out)
    assert doc["bounded"] is True
    assert doc["residual"] <= 1e-6


def test_moments_of_constant_one(tmp_path):
    config = {
        "command": "moments",
        "geometry": {"arcs": [SEGMENT]},
        "rhs": {"family": "constant", "value": 1.0},
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    (m0,) = summary(out)["moments"]
    assert abs(complex(m0[0], m0[1]) + 1j * np.pi) <= 1e-10


# ---------------------------------------------------------------------------
# solver plumbing
# ---------------------------------------------------------------------------

def test_solve_arcs_requires_defect_poly(tmp_path, capsys):
    config = {
        "command": "solve-arcs",
        "geometry": {"arcs": [SEGMENT]},
        "rhs": {"family": "constant", "value": 1.0},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 64
    assert "defect_poly" in capsys.readouterr().err


def test_solve_arcs_small_residual(tmp_path):
    config = {
        "command": "solve-arcs",
        "geometry": {"arcs": [SEGMENT]},
        "rhs": {"family": "monomial", "degree": 1},
        "defect_poly": [[0.0, 0.0]],
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    assert summary(out)["residual"] <= 1e-8


def test_bounded_false_still_exits_zero(tmp_path):
    # non-existence is an answer, not a failure
    config = {
        "command": "bounded",
        "geometry": {"arcs": [SEGMENT]},
        "rhs": {"family": "constant", "value": 1.0},
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    doc = summary(out)
    assert doc["bounded"] is False
    assert abs(complex(*doc["defect_poly"][0]) + 1.0) <= 1e-9


def test_bounded_summary_schema(tmp_path):
    # the report's JSON form, which only the command line knows
    config = {
        "command": "bounded",
        "geometry": {"arcs": [SEGMENT]},
        "rhs": {"family": "constant", "value": 1.0},
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    doc = summary(out)
    assert list(doc) == ["command", "bounded", "moments", "defect_poly", "residual",
                         "solution_csv", "serial"]
    assert doc["bounded"] is False
    assert doc["solution_csv"] == "solution.csv"
    assert len(doc["moments"]) == 1 and len(doc["moments"][0]) == 2


def test_polynomial_pairs_roundtrip():
    # defect_poly in, kernel_poly and defect_poly out
    p = ComplexPolynomial([1.0, 0.0, 2.0 + 1.0j])
    q = _polynomial(_pairs(p.coefficients))
    assert np.array_equal(q.coefficients, p.coefficients)


def test_bounded_solution_roundtrips_as_rhs(tmp_path):
    host = build_arc_system([SEGMENT])
    config = {
        "command": "bounded",
        "geometry": {"arcs": [SEGMENT]},
        "rhs": {"family": "chebyshev-T", "degree": 2},
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    reported = summary(out)["residual"]
    f0 = SampledDensity(host, read_solution_csv(out / "solution.csv", host=host))
    g_back = singular_S(f0, density_class="sqrt")
    want = 2.0 * host.nodes.real ** 2 - 1.0
    assert np.max(np.abs(g_back.values - want)) <= 2.0 * reported


def test_complex_constant_rhs(tmp_path):
    # m0 of g = 2i is 2i * (-i pi) = 2 pi
    config = {
        "command": "moments",
        "geometry": {"arcs": [SEGMENT]},
        "rhs": {"family": "constant", "value": [0.0, 2.0]},
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    (m0,) = summary(out)["moments"]
    assert abs(complex(m0[0], m0[1]) - 2.0 * np.pi) <= 1e-9


def test_solution_table_accepted_as_rhs_csv(tmp_path):
    base = {
        "command": "solve-closed",
        "geometry": {"curve": CIRCLE},
        "rhs": {"family": "monomial", "degree": 2},
    }
    code, out = run_cli(tmp_path, base, "--serial")
    assert code == 0
    # S(S t^2) = t^2: feeding the solution back reproduces it
    again = dict(base)
    again["rhs"] = {"family": "csv", "path": str(out / "solution.csv")}
    path = tmp_path / "again.json"
    path.write_text(json.dumps(again))
    out2 = tmp_path / "out2"
    assert main(["--config", str(path), "--out", str(out2), "--serial"]) == 0
    host = build_closed_contour(CIRCLE)
    a = read_solution_csv(out / "solution.csv", host=host)
    b = read_solution_csv(out2 / "solution.csv", host=host)
    assert np.max(np.abs(a - b)) <= 1e-9


# ---------------------------------------------------------------------------
# recovery commands
# ---------------------------------------------------------------------------

def test_recover_curve_disk_wall(tmp_path):
    config = {
        "command": "recover-curve",
        "geometry": {"curve": {"type": "circle", "radius": 1.0,
                               "panels": 8, "nodes_per_panel": 16}},
        "potential": {"family": "disk-wall", "radius": 1.0},
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    doc = summary(out)
    assert abs(doc["total_mass"] - 1.0) <= 1e-6
    assert doc["flagged_nodes"] == []
    host = build_closed_contour({"type": "circle", "radius": 1.0,
                                 "panels": 8, "nodes_per_panel": 16})
    dens = read_solution_csv(out / "solution.csv", host=host)
    assert np.max(np.abs(dens.real - 1.0 / (2.0 * np.pi))) <= 1e-6


def test_recover_curve_ignores_off_curve_charge(tmp_path):
    # a charge at the origin makes u = log|z| smooth across the circle, so
    # the one-sided normal derivatives cancel: no curve component to find
    config = {
        "command": "recover-curve",
        "geometry": {"curve": {"type": "circle", "radius": 1.0,
                               "panels": 8, "nodes_per_panel": 16}},
        "potential": {"family": "point-charges", "charges": [[0.0, 0.0, 1.0]]},
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    assert abs(summary(out)["total_mass"]) <= 1e-8


def test_recover_curve_segment_green(tmp_path):
    config = {
        "command": "recover-curve",
        "geometry": {"arcs": [{"type": "segment", "a": [-1.0, 0.0],
                               "b": [1.0, 0.0], "panels": 8,
                               "nodes_per_panel": 16}]},
        "potential": {"family": "segment-green", "a": -1.0, "b": 1.0},
        "tolerances": {"flag": 1e-6},
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    doc = summary(out)
    assert abs(doc["total_mass"] - 1.0) <= 1e-6
    assert doc["flagged_nodes"] == []


def grid_csv(tmp_path):
    h = 0.05
    xs = np.arange(-1.5, 1.5 + h / 2, h)
    X, Y = np.meshgrid(xs, xs)
    field = PotentialField(values=(X ** 2 + Y ** 2 - 1.0) / 2.0,
                           x0=xs[0], y0=xs[0], h=h)
    path = tmp_path / "grid.csv"
    write_potential_csv(path, field)
    return path, h


def test_recover_area_from_csv(tmp_path):
    path, h = grid_csv(tmp_path)
    config = {
        "command": "recover-area",
        "potential": {"family": "csv", "path": str(path)},
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    doc = summary(out)
    assert doc["grid"]["nx"] == 59 and doc["grid"]["ny"] == 59
    rows = (out / "density.csv").read_text().strip().splitlines()
    assert rows[0] == "x,y,density"
    dens = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert np.max(np.abs(dens - 1.0 / np.pi)) <= 1e-9  # Laplacian of a quadratic is exact


def test_recover_area_h_max_enforced(tmp_path, capsys):
    path, h = grid_csv(tmp_path)
    config = {
        "command": "recover-area",
        "potential": {"family": "csv", "path": str(path)},
        "tolerances": {"h_max": 0.01},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 65


def test_point_masses_from_binary(tmp_path):
    h = 0.02
    xs = np.arange(-2.0, 2.0 + h / 2, h)
    X, Y = np.meshgrid(xs, xs)
    Z = X + 1j * Y
    with np.errstate(divide="ignore"):
        U = np.log(np.abs(Z ** 2 - 1.0))
    U[~np.isfinite(U)] = -40.0
    field = PotentialField(values=U, x0=xs[0], y0=xs[0], h=h)
    write_potential_binary(tmp_path / "u.f64", tmp_path / "u.json", field)
    config = {
        "command": "point-masses",
        "potential": {"family": "binary", "data": str(tmp_path / "u.f64"),
                      "header": str(tmp_path / "u.json")},
        "cluster_radius": 0.2,
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    doc = summary(out)
    masses = doc["point_masses"]
    assert len(masses) == 2
    masses.sort(key=lambda r: r[0])
    assert abs(masses[0][0] + 1.0) <= 2 * h and abs(masses[1][0] - 1.0) <= 2 * h
    assert abs(masses[0][2] - 1.0) <= 1e-2 and abs(masses[1][2] - 1.0) <= 1e-2
    rows = (out / "masses.csv").read_text().strip().splitlines()
    assert rows[0] == "index,re_a,im_a,mass"
    assert len(rows) == 3


def test_equilibrium_disk(tmp_path):
    config = {
        "command": "equilibrium",
        "shape": {"type": "disk", "radius": 2.0, "center": [0.5, 0.0]},
    }
    code, out = run_cli(tmp_path, config, "--serial")
    assert code == 0
    assert abs(summary(out)["total_mass"] - 1.0) <= 1e-12
    host = build_closed_contour({"type": "circle", "radius": 2.0,
                                 "center": [0.5, 0.0],
                                 "panels": 8, "nodes_per_panel": 32})
    dens = read_solution_csv(out / "solution.csv", host=host)
    assert np.max(np.abs(dens - 1.0 / (4.0 * np.pi))) <= 1e-15


# ---------------------------------------------------------------------------
# exit codes and diagnostics
# ---------------------------------------------------------------------------

def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n "command": "moments",\n "geometry": \n}\n')
    code = main(["--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 64
    err = capsys.readouterr().err
    assert f"{path}:" in err
    assert ":4:" in err  # the parser chokes on the closing brace line


def test_unknown_command_is_a_schema_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"command": "fit", "geometry": {}})
    assert code == 64
    # the commands in their documented order
    assert ("unknown command 'fit'; expected one of solve-closed, solve-arcs, bounded, "
            "moments, recover-curve, recover-area, point-masses, equilibrium\n"
            ) in capsys.readouterr().err


def test_unknown_geometry_kind(tmp_path, capsys):
    config = {
        "command": "solve-closed",
        "geometry": {"curve": {"type": "pentagon", "radius": 1.0}},
        "rhs": {"family": "monomial", "degree": 0},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 64


def config_line(tmp_path, key):
    """1-based line of a key in the config file run_cli wrote."""
    lines = (tmp_path / "config.json").read_text().splitlines()
    return next(n for n, line in enumerate(lines, start=1) if f'"{key}"' in line)


def test_non_integer_degree_reports_its_line(tmp_path, capsys):
    config = {
        "command": "moments",
        "geometry": {"arcs": [SEGMENT]},
        "rhs": {"family": "monomial", "degree": "two"},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 64
    err = capsys.readouterr().err
    assert f":{config_line(tmp_path, 'degree')}: " in err
    assert "degree" in err and "Traceback" not in err


def test_one_coordinate_endpoint_reports_its_line(tmp_path, capsys):
    config = {
        "command": "moments",
        "geometry": {"arcs": [dict(SEGMENT, a=[-1.0])]},
        "rhs": {"family": "constant", "value": 1.0},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 64
    err = capsys.readouterr().err
    assert f":{config_line(tmp_path, 'a')}: " in err
    assert "[re, im]" in err


def test_zero_panels_reports_its_line(tmp_path, capsys):
    config = {
        "command": "solve-closed",
        "geometry": {"curve": dict(CIRCLE, panels=0)},
        "rhs": {"family": "monomial", "degree": 2},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 64
    err = capsys.readouterr().err
    assert f":{config_line(tmp_path, 'panels')}: " in err
    assert "positive integer" in err


RHS = {"family": "monomial", "degree": 1}
CIRCULAR = {"type": "circular", "radius": 1.0, "theta_a": -1.0, "theta_b": 1.0,
            "panels": 4, "nodes_per_panel": 8}
POLYGON = {"type": "rounded-polygon", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]],
           "corner_radius": 0.2}
ON_SEGMENT = {"command": "recover-curve", "geometry": {"arcs": [SEGMENT]}}
ON_CIRCLE = {"command": "recover-curve", "geometry": {"curve": CIRCLE}}

# (key at fault, config): every one of these exited 1 with a traceback
BAD_NUMBERS = {
    "circle-radius": ("radius", {"command": "solve-closed", "rhs": RHS,
                                 "geometry": {"curve": dict(CIRCLE, radius="one")}}),
    "ellipse-axes": ("semi_axes", {"command": "solve-closed", "rhs": RHS, "geometry": {
        "curve": {"type": "ellipse", "semi_axes": [2.0]}}}),
    "corner-radius": ("corner_radius", {"command": "solve-closed", "rhs": RHS, "geometry": {
        "curve": dict(POLYGON, corner_radius="round")}}),
    "circular-radius": ("radius", {"command": "moments", "rhs": RHS,
                                   "geometry": {"arcs": [dict(CIRCULAR, radius="r")]}}),
    "circular-theta-a": ("theta_a", {"command": "moments", "rhs": RHS,
                                     "geometry": {"arcs": [dict(CIRCULAR, theta_a="x")]}}),
    "circular-theta-b": ("theta_b", {"command": "moments", "rhs": RHS,
                                     "geometry": {"arcs": [dict(CIRCULAR, theta_b="y")]}}),
    "point-charge": ("charges", dict(ON_SEGMENT, potential={
        "family": "point-charges", "charges": [[0.1, "a", 1.0]]})),
    "disk-wall-radius": ("radius", dict(ON_SEGMENT, potential={
        "family": "disk-wall", "radius": "r"})),
    "segment-green-a": ("a", dict(ON_CIRCLE, potential={"family": "segment-green", "a": "left"})),
    "segment-green-b": ("b", dict(ON_CIRCLE, potential={"family": "segment-green", "b": "right"})),
    "cluster-radius": ("cluster_radius", {"command": "point-masses", "cluster_radius": "wide",
                                          "potential": {"family": "csv"}}),
    "equilibrium-radius": ("radius", {"command": "equilibrium",
                                      "shape": {"type": "disk", "radius": "big"}}),
    "equilibrium-panels": ("panels", {"command": "equilibrium", "shape": {
        "type": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0], "panels": "eight"}}),
    # these exited 65 as under-resolved (a radius that is not positive) or ran
    # with a JSON true read as 1
    "cluster-radius-zero": ("cluster_radius", {"command": "point-masses", "cluster_radius": 0,
                                               "potential": {"family": "csv"}}),
    "cluster-radius-negative": ("cluster_radius", {"command": "point-masses",
                                                   "cluster_radius": -0.2,
                                                   "potential": {"family": "csv"}}),
    "circle-radius-true": ("radius", {"command": "solve-closed", "rhs": RHS,
                                      "geometry": {"curve": dict(CIRCLE, radius=True)}}),
    "circle-panels-true": ("panels", {"command": "solve-closed", "rhs": RHS,
                                      "geometry": {"curve": dict(CIRCLE, panels=True)}}),
    "circle-center-true": ("center", {"command": "solve-closed", "rhs": RHS,
                                      "geometry": {"curve": dict(CIRCLE, center=True)}}),
    "circle-center-pair-true": ("center", {"command": "solve-closed", "rhs": RHS, "geometry": {
        "curve": dict(CIRCLE, center=[True, 0.0])}}),
    "degree-true": ("degree", {"command": "solve-closed", "geometry": {"curve": CIRCLE},
                               "rhs": {"family": "monomial", "degree": True}}),
    # these ran (text read as its number, a charge's fourth entry ignored, a
    # JSON true read as 1) or exited 65 (a charge put at 1, the segment's end)
    "circle-radius-text": ("radius", {"command": "solve-closed", "rhs": RHS,
                                      "geometry": {"curve": dict(CIRCLE, radius="1.0")}}),
    "point-charge-text": ("charges", dict(ON_SEGMENT, potential={
        "family": "point-charges", "charges": [["2.0", "0.0", "1"]]})),
    "point-charge-four": ("charges", dict(ON_SEGMENT, potential={
        "family": "point-charges", "charges": [[2.0, 0.0, 1.0, "junk"]]})),
    "point-charge-true": ("charges", dict(ON_SEGMENT, potential={
        "family": "point-charges", "charges": [[True, 0.0, 1.0]]})),
    "defect-poly-true": ("defect_poly", {"command": "solve-arcs", "rhs": RHS,
                                         "geometry": {"arcs": [SEGMENT]},
                                         "defect_poly": [[True, False]]}),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_number_reports_its_line(tmp_path, capsys, case):
    key, config = BAD_NUMBERS[case]
    if config["command"] == "point-masses":
        config = dict(config, potential={"family": "csv", "path": str(grid_csv(tmp_path)[0])})
    code, _ = run_cli(tmp_path, config)
    assert code == 64
    err = capsys.readouterr().err
    assert f":{config_line(tmp_path, key)}: " in err
    assert key in err


@pytest.mark.parametrize("key, value", [("h", True), ("nx", 3.9), ("x0", "0"), ("ny", "4"),
                                        ("y0", [0.0]), ("nx", None)])
def test_a_potential_header_takes_numbers_only(tmp_path, capsys, key, value):
    # "h": true was read as 1.0, "nx": 3.9 as 3 and "x0": "0" as 0.0; each
    # bad field is a schema error naming its key, and the command exits 64
    data, header = tmp_path / "u.f64", tmp_path / "u.json"
    write_potential_binary(data, header, PotentialField(values=np.zeros((4, 4)), h=0.1))
    fields = json.loads(header.read_text())
    header.write_text(json.dumps(dict(fields, **{key: value})))
    with pytest.raises(SchemaError, match=f"'{key}'"):
        read_potential_binary(data, header)
    code, _ = run_cli(tmp_path, {"command": "recover-area", "potential": {
        "family": "binary", "data": str(data), "header": str(header)}})
    assert code == 64
    assert f"'{key}'" in capsys.readouterr().err


def test_a_potential_header_takes_integral_floats_for_its_sizes(tmp_path):
    data, header = tmp_path / "u.f64", tmp_path / "u.json"
    field = PotentialField(values=np.arange(12.0).reshape(3, 4), x0=-1.0, y0=0.5, h=0.1)
    write_potential_binary(data, header, field)
    fields = json.loads(header.read_text())
    header.write_text(json.dumps(dict(fields, nx=4.0, ny=3.0)))
    got = read_potential_binary(data, header)
    assert got.values.tobytes() == field.values.tobytes()
    assert (got.x0, got.y0, got.h) == (field.x0, field.y0, field.h)


def test_bad_key_shared_with_an_earlier_section_reports_its_own_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(
        '{\n'
        '  "command": "recover-curve",\n'
        '  "geometry": {"curve": {"type": "circle", "radius": 1.0,\n'
        '                         "panels": 8, "nodes_per_panel": 32}},\n'
        '  "potential": {"family": "disk-wall",\n'
        '                "radius": "r"}\n'
        '}\n')
    code = main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 64
    assert f"{path}:6: " in capsys.readouterr().err


def test_wrong_host_family_for_command(tmp_path, capsys):
    config = {
        "command": "solve-closed",
        "geometry": {"arcs": [SEGMENT]},
        "rhs": {"family": "monomial", "degree": 0},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 64
    assert "closed-contour" in capsys.readouterr().err


def test_nonpositive_tolerance_rejected(tmp_path, capsys):
    config = {
        "command": "moments",
        "geometry": {"arcs": [SEGMENT]},
        "rhs": {"family": "constant", "value": 1.0},
        "tolerances": {"residual": -1.0},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 64
    assert "positive" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 64


def test_residual_failure_exits_65_with_node(tmp_path, capsys):
    config = {
        "command": "solve-closed",
        "geometry": {"curve": CIRCLE},
        "rhs": {"family": "monomial", "degree": 3},
    }
    code, out = run_cli(tmp_path, config, "--serial", "--tol", "1e-20")
    assert code == 65
    assert "node" in capsys.readouterr().err
    # artifacts still land so the run can be inspected
    assert (out / "solution.csv").exists()
    assert "residual" in summary(out)


def test_failed_solve_closed_applies_S_twice(tmp_path, capsys, monkeypatch):
    # the worst node comes from the S(S g) the solver already formed
    host = build_closed_contour(CIRCLE)
    g = SampledDensity(host, host.nodes ** 40)
    err = np.abs(singular_S(singular_S(g)).values - g.values)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return singular_S(*args, **kwargs)

    monkeypatch.setattr("cauchypot.closed.singular_S", counted)
    monkeypatch.setattr("cauchypot.cli.singular_S", counted)
    config = {
        "command": "solve-closed",
        "geometry": {"curve": CIRCLE},
        "rhs": {"family": "monomial", "degree": 40},
        "tolerances": {"residual": 1e-15},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 65
    assert len(calls) == 2
    assert capsys.readouterr().err == (
        f"solve-closed did not converge: residual {np.max(err):.3g} exceeds "
        f"1e-15 at node {int(np.argmax(err))}\n")


def test_flagged_recovery_exits_65(tmp_path, capsys):
    config = {
        "command": "recover-curve",
        "geometry": {"arcs": [{"type": "segment", "a": [-1.0, 0.0],
                               "b": [1.0, 0.0], "panels": 8,
                               "nodes_per_panel": 16}]},
        "potential": {"family": "segment-green", "a": -1.0, "b": 1.0},
    }
    code, out = run_cli(tmp_path, config, "--serial", "--tol", "1e-13")
    assert code == 65
    assert "node" in capsys.readouterr().err
    assert summary(out)["flagged_nodes"] != []


def test_bad_potential_family_for_grid_command(tmp_path, capsys):
    config = {
        "command": "recover-area",
        "potential": {"family": "disk-wall", "radius": 1.0},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 64


def test_point_masses_radius_under_four_cells_is_a_numerical_failure(tmp_path, capsys):
    # positive but 2 cells of the h = 0.05 grid: the config is valid, the numerics not
    config = {"command": "point-masses", "cluster_radius": 0.1,
              "potential": {"family": "csv", "path": str(grid_csv(tmp_path)[0])}}
    code, _ = run_cli(tmp_path, config)
    assert code == 65
    assert "4 grid cells" in capsys.readouterr().err


def test_point_masses_needs_cluster_radius(tmp_path, capsys):
    path, _ = grid_csv(tmp_path)
    config = {
        "command": "point-masses",
        "potential": {"family": "csv", "path": str(path)},
    }
    code, _ = run_cli(tmp_path, config)
    assert code == 64
    assert "cluster_radius" in capsys.readouterr().err


def _rewrite(path, edit):
    """Replace the lines of a text file by edit(lines)."""
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


def _rhs_table(tmp_path, table, edit):
    """A csv rhs for SEGMENT written by the package, then edited."""
    host = build_arc_system([SEGMENT])
    path = tmp_path / "rhs.csv"
    if table == "density":
        write_density_csv(path, host.nodes)
    elif table == "solution":
        write_solution_csv(path, host, host.nodes)
    else:  # "shifted": a solution table on a host half a unit off SEGMENT
        shifted = build_arc_system([dict(SEGMENT, a=[-1.0, 0.5], b=[1.0, 0.5])])
        write_solution_csv(path, shifted, host.nodes)
    _rewrite(path, edit)
    return {"command": "moments", "geometry": {"arcs": [SEGMENT]},
            "rhs": {"family": "csv", "path": str(path)}}


def _grid(tmp_path, table, edit):
    """A recover-area config on a csv or binary grid, its table then edited."""
    if table == "grid-csv":
        path, _ = grid_csv(tmp_path)
        _rewrite(path, edit)
        return {"command": "recover-area", "potential": {"family": "csv", "path": str(path)}}
    field = PotentialField(values=np.zeros((4, 4)), h=0.1)
    write_potential_binary(tmp_path / "u.f64", tmp_path / "u.json", field)
    _rewrite(tmp_path / "u.json", edit)
    return {"command": "recover-area", "potential": {
        "family": "binary", "data": str(tmp_path / "u.f64"), "header": str(tmp_path / "u.json")}}


# (table, edit of its lines, words of the message)
MALFORMED_TABLES = {
    "density-cell": ("density", lambda r: r[:2] + ["1,abc,0"] + r[3:], "line 3"),
    "density-short-row": ("density", lambda r: r[:2] + ["1,0.5"] + r[3:], "line 3"),
    "density-header": ("density", lambda r: ["index,re,im"] + r[1:], "density header"),
    "density-index-gap": ("density", lambda r: r[:2] + r[3:], "contiguous"),
    "density-row-count": ("density", lambda r: r[:-1], "file has 255 rows"),
    "solution-cell": ("solution", lambda r: r[:2] + ["1,0,0,0,x,0"] + r[3:], "line 3"),
    "solution-header": ("solution", lambda r: ["index,s,x,y,re_f,im_f"] + r[1:],
                        "solution header"),
    "solution-off-host": ("shifted", lambda r: r, "deviate from host nodes"),
    "grid-csv-cell": ("grid-csv", lambda r: r[:2] + ["-1.45,-1.5,abc"] + r[3:],
                      "not a table of numbers"),
    "grid-csv-header": ("grid-csv", lambda r: ["y,x,u"] + r[1:], "header must be x,y,u"),
    "grid-header-nx": ("grid-binary",
                       lambda r: ['{"nx": "two", "ny": 4, "x0": 0, "y0": 0, "h": 0.1}'],
                       "must be numbers"),
    "grid-header-json": ("grid-binary", lambda r: ["nx = 4"], "not JSON"),
    # nx * ny matches the 16 values, but the lattice has no shape
    "grid-header-negative-nx": ("grid-binary",
                                lambda r: ['{"nx": -4, "ny": -4, "x0": 0, "y0": 0, "h": 0.1}'],
                                "nx, ny >= 1"),
    "grid-header-zero-h": ("grid-binary",
                           lambda r: ['{"nx": 4, "ny": 4, "x0": 0, "y0": 0, "h": 0}'], "h > 0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_input_table_exits_64(tmp_path, capsys, case):
    table, edit, words = MALFORMED_TABLES[case]
    make = _grid if table.startswith("grid") else _rhs_table
    code, _ = run_cli(tmp_path, make(tmp_path, table, edit))
    err = capsys.readouterr().err
    assert code == 64, err
    assert words in err
    assert "Traceback" not in err


@pytest.mark.parametrize("table", ["density", "solution"])
def test_a_table_that_is_not_utf8_exits_64_naming_the_file(tmp_path, capsys, table):
    # a byte 0xff in the header once escaped as a UnicodeDecodeError traceback, exit 1
    config = _rhs_table(tmp_path, table, lambda r: r)
    path = Path(config["rhs"]["path"])
    path.write_bytes(path.read_bytes().replace(b"re_f", b"re_f\xff", 1))
    code, _ = run_cli(tmp_path, config)
    err = capsys.readouterr().err
    assert code == 64, err
    assert "rhs.csv is not UTF-8 text: byte 0xff" in err and "Traceback" not in err
    with pytest.raises(AlignmentError, match="rhs.csv is not UTF-8"):
        (read_density_csv if table == "density" else read_solution_csv)(path)


@pytest.mark.parametrize("text", ["x,y,u\n", "", "x,y,u\n\n  \n"],
                         ids=["header-only", "empty", "blank-rows"])
def test_a_potential_csv_without_rows_exits_64_on_one_line(tmp_path, capsys, text):
    # numpy once warned "input contained no data" on stderr, and the message
    # then blamed the columns
    (tmp_path / "u.csv").write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run_cli(tmp_path, {"command": "recover-area", "potential": {
            "family": "csv", "path": str(tmp_path / "u.csv")}})
    err = capsys.readouterr().err
    assert code == 64, err
    assert len(err.splitlines()) == 1 and "u.csv has no rows" in err


def _atom_grid(tmp_path, case):
    """log|z - (0.31 + 0.02i)| on a 41 x 41 lattice of spacing 0.05, as a csv
    or binary potential, with one cell, coordinate or header field made
    NaN (or infinite, for h)."""
    h = 0.05
    xs = -1.0 + h * np.arange(41)
    X, Y = np.meshgrid(xs, xs)
    field = PotentialField(np.log(np.abs(X + 1j * Y - (0.31 + 0.02j))), x0=xs[0], y0=xs[0], h=h)
    if case.startswith("csv"):
        path = tmp_path / "u.csv"
        write_potential_csv(path, field)
        col = 2 if case == "csv-cell" else 0
        _rewrite(path, lambda r: r[:100] + [",".join(
            "nan" if i == col else v for i, v in enumerate(r[100].split(",")))] + r[101:])
        return {"family": "csv", "path": str(path)}
    data, header = tmp_path / "u.f64", tmp_path / "u.json"
    write_potential_binary(data, header, field)
    if case == "binary-cell":
        values = np.fromfile(data, dtype="<f8")
        values[100] = np.nan
        values.tofile(data)
    else:
        doc = json.loads(header.read_text())
        key = case.split("-")[1]
        doc[key] = np.inf if key == "h" else np.nan
        header.write_text(json.dumps(doc))
    return {"family": "binary", "data": str(data), "header": str(header)}


@pytest.mark.parametrize("command", ["recover-area", "point-masses"])
@pytest.mark.parametrize("case", ["csv-cell", "csv-coordinate", "binary-cell", "header-x0",
                                  "header-y0", "header-h"])
def test_potential_grid_with_nan_or_inf_exits_64(tmp_path, capsys, command, case):
    # a NaN cell drops out of the point-mass threshold, which lost the atom,
    # and into the area sum, which wrote total_mass NaN: both exited 0
    config = {"command": command, "potential": _atom_grid(tmp_path, case),
              "cluster_radius": 0.3}
    code, _ = run_cli(tmp_path, config)
    err = capsys.readouterr().err
    assert code == 64, err
    assert "finite" in err


@pytest.mark.parametrize("command", ["recover-area", "point-masses"])
def test_potential_csv_with_a_duplicated_point_exits_64(tmp_path, capsys, command):
    # one row replaced by a copy of the first leaves a cell unset: point-masses
    # reported a spurious second atom, and recover-area wrote a total mass
    h = 0.05
    xs = -1.0 + h * np.arange(41)
    X, Y = np.meshgrid(xs, xs)
    path = tmp_path / "u.csv"
    write_potential_csv(path, PotentialField(np.log(np.abs(X + 1j * Y - (0.31 + 0.17j))),
                                             x0=xs[0], y0=xs[0], h=h))
    _rewrite(path, lambda r: r[:100] + [r[1]] + r[101:])
    config = {"command": command, "potential": {"family": "csv", "path": str(path)},
              "cluster_radius": 0.3}
    code, _ = run_cli(tmp_path, config)
    err = capsys.readouterr().err
    assert code == 64, err
    assert "twice" in err
    assert "Traceback" not in err


# (exit code, config, extra arguments, words of the message)
REFUSALS = {
    "negative-tol": (64, {"command": "moments", "geometry": {"arcs": [SEGMENT]}, "rhs": RHS},
                     ("--tol", "-1"), "--tol must be positive"),
    "config-array": (64, [{"command": "moments"}], (), "must be a JSON object"),
    "solve-arcs-residual": (65, {"command": "solve-arcs", "geometry": {"arcs": [SEGMENT]},
                                 "rhs": RHS, "defect_poly": [[0.0, 0.0]],
                                 "tolerances": {"residual": 1e-300}}, (), "at node"),
    "degree-2**23": (64, {"command": "moments", "geometry": {"arcs": [SEGMENT]},
                          "rhs": {"family": "monomial", "degree": 2 ** 23}}, (),
                     "exceeds the limit"),
    "disk-wall-radius": (64, dict(ON_CIRCLE, potential={"family": "disk-wall", "radius": -1.0}),
                         (), "positive radius"),
    "segment-green-order": (64, dict(ON_SEGMENT, potential={"family": "segment-green",
                                                            "a": 1.0, "b": -1.0}),
                            (), "b > a"),
    "curve-potential-family": (64, dict(ON_SEGMENT, potential={"family": "csv"}), (),
                               "unknown potential family"),
    "binary-without-paths": (64, {"command": "recover-area", "potential": {"family": "binary"}},
                             (), "'data' and 'header'"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_exit_with_their_code(tmp_path, capsys, case):
    want, config, extra, words = REFUSALS[case]
    code, _ = run_cli(tmp_path, config, *extra)
    err = capsys.readouterr().err
    assert code == want, err
    assert words in err
    assert "Traceback" not in err


def test_runs_leave_numpy_ma_unimported(tmp_path):
    # importing numpy.ma (which np.unique pulls in) costs about 15 ms of a run
    path, _ = grid_csv(tmp_path)
    configs = [
        {"command": "bounded", "geometry": {"arcs": [SEGMENT]},
         "rhs": {"family": "chebyshev-T", "degree": 2}},
        {"command": "recover-area", "potential": {"family": "csv", "path": str(path)}},
    ]
    args = []
    for k, config in enumerate(configs):
        (tmp_path / f"{k}.json").write_text(json.dumps(config))
        args += [str(tmp_path / f"{k}.json"), str(tmp_path / f"out{k}")]
    script = ("import sys\n"
              "from cauchypot.cli import main\n"
              "for config, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    assert main(['--config', config, '--out', out]) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cauchypot.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_serial_reruns_byte_identical_in_process(tmp_path):
    config = {
        "command": "bounded",
        "geometry": {"arcs": [SEGMENT]},
        "rhs": {"family": "chebyshev-T", "degree": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", str(path), "--out", str(out), "--serial"]) == 0
        outs.append(out)
    for art in ("solution.csv", "summary.json"):
        assert (outs[0] / art).read_bytes() == (outs[1] / art).read_bytes()


def test_json17_writes_every_supported_type_and_refuses_the_rest():
    doc = {"empty": {}, "none": None, "list": [True, False, np.int64(3), 0.1, "a\"b"],
           "nested": {"pair": (np.float64(-2.5e-300), [])}}
    assert _json17(doc) == (
        '{\n  "empty": {},\n  "none": null,\n  "list": [\n    true,\n    false,\n    3,\n'
        '    0.10000000000000001,\n    "a\\"b"\n  ],\n  "nested": {\n    "pair": [\n'
        '      -2.5e-300,\n      []\n    ]\n  }\n}')
    assert json.loads(_json17(doc))["list"][3] == 0.1
    assert (_json17({}), _json17(None)) == ("{}", "null")
    for bad in (1j, {"set": {1}}, [object()]):
        with pytest.raises(TypeError, match="cannot serialize"):
            _json17(bad)


def test_serial_reruns_byte_identical_subprocess(tmp_path):
    config = {
        "command": "solve-closed",
        "geometry": {"curve": CIRCLE},
        "rhs": {"family": "monomial", "degree": 4},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "cauchypot.cli", "--config", str(path),
             "--out", str(out), "--serial"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "solution.csv").read_bytes()
                     + (out / "summary.json").read_bytes())
    assert blobs[0] == blobs[1]


# (exit code, config): each of these ended in a traceback (exit 1), but
# "fd", which exited 64 after opening the path 1 as file descriptor 1
# (standard output) and closing it
CRASHES = {
    "nan-radius": (64, {"command": "solve-closed", "rhs": RHS,
                        "geometry": {"curve": dict(CIRCLE, radius=float("nan"))}}),
    "curve-not-a-mapping": (64, {"command": "solve-closed", "rhs": RHS,
                                 "geometry": {"curve": 1.0}}),
    "arc-not-a-mapping": (64, {"command": "moments", "rhs": RHS,
                               "geometry": {"arcs": [SEGMENT, "text"]}}),
    "infinite-panels": (64, {"command": "moments", "rhs": RHS,
                             "geometry": {"arcs": [dict(SEGMENT, panels=float("-inf"))]}}),
    "too-many-nodes": (64, {"command": "moments", "rhs": RHS,
                            "geometry": {"arcs": [dict(SEGMENT, panels=1e308)]}}),
    "infinite-degree": (64, {"command": "bounded", "geometry": {"arcs": [SEGMENT]},
                             "rhs": {"family": "chebyshev-T", "degree": float("inf")}}),
    "repeated-vertex": (64, {"command": "solve-closed", "rhs": RHS, "geometry": {
        "curve": dict(POLYGON, vertices=[[0, 0], [2, 0], [2, 1], [2, 1], [0, 1]])}}),
    "constant-value": (64, {"command": "moments", "geometry": {"arcs": [SEGMENT]},
                            "rhs": {"family": "constant", "value": [1.0, "text"]}}),
    "empty-defect-poly": (64, {"command": "solve-arcs", "geometry": {"arcs": [SEGMENT]},
                               "rhs": RHS, "defect_poly": []}),
    "infinite-charge": (64, dict(ON_SEGMENT, potential={
        "family": "point-charges", "charges": [[0.0, float("-inf"), 1.0]]})),
    "fd": (64, {"command": "moments", "geometry": {"arcs": [SEGMENT]},
                "rhs": {"family": "csv", "path": 1}}),
    "equilibrium-shape": (64, {"command": "equilibrium", "shape": {"type": None}}),
    # the nodes' real parts all round to 1e308: a segment, not positively
    # oriented, refused as the geometry is built
    "overflow": (64, {"command": "solve-closed", "rhs": RHS,
                      "geometry": {"curve": dict(CIRCLE, center=1e308)}}),
    # an overflow in the arithmetic, here t**2 at |t| = 1e200, exits 65
    "overflow-in-rhs": (65, {"command": "solve-closed",
                             "rhs": {"family": "monomial", "degree": 2},
                             "geometry": {"curve": dict(CIRCLE, radius=1e200)}}),
}


@pytest.mark.parametrize("case", sorted(CRASHES))
def test_configs_that_crashed_exit_cleanly(tmp_path, capsys, case):
    want, config = CRASHES[case]
    code, _ = run_cli(tmp_path, config)
    os.fstat(1)  # standard output is still open
    err = capsys.readouterr().err
    assert code == want, err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# fuzzing: mutated valid configs never end in a traceback
# ---------------------------------------------------------------------------

def fuzz_bases(tmp_path):
    """One valid config per command, small enough to run in milliseconds."""
    grid, _ = grid_csv(tmp_path)
    small = dict(CIRCLE, nodes_per_panel=8)
    arcs = [dict(SEGMENT, nodes_per_panel=8), dict(CIRCULAR, theta_a=2.0, theta_b=3.0)]
    return [
        {"command": "solve-closed", "geometry": {"curve": small},
         "rhs": {"family": "monomial", "degree": 3}, "tolerances": {"residual": 1e-8}},
        {"command": "solve-closed", "geometry": {"curve": dict(POLYGON, panels=4,
                                                               nodes_per_panel=16)},
         "rhs": {"family": "constant", "value": [1.0, 2.0]}},
        {"command": "solve-arcs", "geometry": {"arcs": arcs},
         "rhs": {"family": "monomial", "degree": 1}, "defect_poly": [[0.0, 0.0]]},
        {"command": "bounded", "geometry": {"arcs": arcs},
         "rhs": {"family": "chebyshev-T", "degree": 2}},
        {"command": "moments", "geometry": {"arcs": arcs},
         "rhs": {"family": "constant", "value": 1.0}},
        {"command": "recover-curve", "geometry": {"curve": small},
         "potential": {"family": "disk-wall", "radius": 1.0, "center": [0.0, 0.0]},
         "tolerances": {"flag": 1e-6}},
        {"command": "recover-curve", "geometry": {"arcs": arcs[:1]},
         "potential": {"family": "point-charges", "charges": [[0.0, 2.0, 1.0]]}},
        {"command": "recover-area", "potential": {"family": "csv", "path": str(grid)},
         "tolerances": {"h_max": 0.1}},
        {"command": "point-masses", "potential": {"family": "csv", "path": str(grid)},
         "cluster_radius": 0.3},
        {"command": "equilibrium", "shape": {"type": "segment", "a": [-1.0, 0.0],
                                             "b": [1.0, 0.0], "panels": 4,
                                             "nodes_per_panel": 8}},
    ]


# Huge counts go up to 1024: one of them on a base config makes at most
# 32768 nodes (1024 panels of the equilibrium shape's default 32), half a MB
# per complex array.  Each mutated config carries at most one, so two never
# multiply.
_HUGE = 1024
_COUNTS = ("panels", "nodes_per_panel", "degree")
_WRONG = ["text", None, True, [], {}, [1.0], [[0.0, 0.0, 0.0]], -1, 0, 0.5,
          float("nan"), float("inf"), -float("inf"), 1e308, 10 ** 400]


def _entries(config, path=()):
    """Every (path, value) in a config, containers included."""
    items = config.items() if isinstance(config, dict) else enumerate(config)
    out = []
    for key, value in items:
        out.append((path + (key,), value))
        if isinstance(value, (dict, list)):
            out += _entries(value, path + (key,))
    return out


def _mutate(rng, config):
    """A copy of ``config`` with one to three random edits: a key dropped, a
    value of the wrong type, a NaN or an infinity, or at most one huge count."""
    config = copy.deepcopy(config)
    huge = False
    for _ in range(int(rng.integers(1, 4))):
        entries = _entries(config)
        if not entries:
            break
        path, _ = entries[int(rng.integers(len(entries)))]
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        kind = int(rng.integers(3))
        if kind == 0 and isinstance(parent, dict):
            del parent[path[-1]]
        elif kind == 1 and path[-1] in _COUNTS and not huge:
            parent[path[-1]] = int(rng.integers(_HUGE // 2, _HUGE + 1))
            huge = True
        else:
            parent[path[-1]] = copy.deepcopy(_WRONG[int(rng.integers(len(_WRONG)))])
    return config


@pytest.mark.parametrize("base", range(10))
def test_mutated_configs_exit_cleanly(tmp_path, capsys, base):
    # seeded by the base's index, so every run tries the same configs
    rng = np.random.default_rng(base)
    valid = fuzz_bases(tmp_path)[base]
    code, _ = run_cli(tmp_path, valid)
    assert code == 0, capsys.readouterr().err
    for case in range(40):
        config = _mutate(rng, valid)
        code, _ = run_cli(tmp_path, config, name=f"fuzz{case}.json")
        err = capsys.readouterr().err
        assert code in (0, 64, 65), (case, config, err)
        assert "Traceback" not in err, (case, config, err)
