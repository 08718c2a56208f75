"""Potential evaluation and measure recovery.

Forward potentials are checked against closed forms (uniform circle and
arcsine equilibrium potentials, Fourier series of the periodic log kernel);
recoveries are checked against the densities those closed forms belong to,
plus the locality property that harmonic addends contribute nothing.
"""

import json
import math
import warnings

import numpy as np
import pytest

from cauchypot.errors import (
    GeometryError,
    NearBoundaryError,
    ResolutionError,
    SchemaError,
)
from cauchypot.geometry import build_arc_system, build_closed_contour
from cauchypot.potential import (
    MeasureEstimate,
    PotentialField,
    detect_point_masses,
    equilibrium_density,
    log_potential,
    read_potential_binary,
    read_potential_csv,
    recover_area_density,
    recover_curve_density,
    write_potential_binary,
    write_potential_csv,
)
from cauchypot.quadrature import host_rule
from cauchypot.sampling import SampledDensity, read_density_csv

LOG2 = math.log(2.0)


def circle_host(per=32, radius=1.0, center=(0.0, 0.0)):
    return build_closed_contour({
        "type": "circle", "radius": radius, "center": list(center),
        "panels": 8, "nodes_per_panel": per,
    })


def segment_host(per=32, a=-1.0, b=1.0):
    return build_arc_system([{
        "type": "segment", "a": a, "b": b, "panels": 8, "nodes_per_panel": per,
    }])


def segment_branch(z):
    # sqrt(z^2 - 1) with its cut exactly on [-1, 1]: the per-factor principal
    # roots place each factor's cut on a leftward ray and the product's
    # discontinuities cancel off the segment
    return np.sqrt(z - 1.0) * np.sqrt(z + 1.0)


def segment_green(z):
    return math.log(abs(z + segment_branch(z))) - LOG2


# ---------------------------------------------------------------------------
# forward potentials
# ---------------------------------------------------------------------------

def test_circle_uniform_potential_off_curve():
    est = equilibrium_density({"type": "disk", "radius": 1.0})
    sd = est.curve_density
    # exterior: potential of the unit-mass circle measure is log|z|
    assert abs(log_potential(sd, 2.0) - LOG2) <= 1e-12
    assert abs(log_potential(sd, -3.0) - math.log(3.0)) <= 1e-12
    # interior: identically zero
    assert abs(log_potential(sd, 0.3)) <= 1e-12
    assert abs(log_potential(sd, 0.1 + 0.2j)) <= 1e-12


def test_circle_uniform_potential_on_node():
    sd = equilibrium_density({"type": "disk", "radius": 1.0}).curve_density
    for k in (0, 17, 100):
        assert abs(log_potential(sd, sd.host.nodes[k])) <= 1e-12


def test_closed_on_node_against_fourier_series():
    # rho = (1 + cos th)/(2 pi) on the unit circle: with the kernel expansion
    # log|2 sin(phi/2)| = -sum cos(m phi)/m the potential at z = e^{i th0}
    # on the circle is exactly -cos(th0)/2
    host = circle_host(per=32)
    rho = (1.0 + np.cos(host.params)) / (2.0 * np.pi)
    sd = SampledDensity(host, rho.astype(complex))
    for k in (3, 40, 177):
        exact = -0.5 * math.cos(host.params[k])
        assert abs(log_potential(sd, host.nodes[k]) - exact) <= 1e-6


def test_arcsine_potential_constant_on_segment():
    # the segment equilibrium potential is -log 2 at every interior point
    est = equilibrium_density({"type": "segment", "a": -1.0, "b": 1.0})
    sd = est.curve_density
    xs = sd.host.nodes.real
    k_half = int(np.argmin(np.abs(xs - 0.5)))
    assert abs(log_potential(sd, sd.host.nodes[k_half]) + LOG2) <= 1e-4
    sel = np.where(np.abs(xs) <= 0.9)[0]
    worst = max(abs(log_potential(sd, sd.host.nodes[k]) + LOG2)
                for k in sel[::17])
    assert worst <= 1e-4
    # near the endpoints the subtracted quadrature degrades but stays honest
    worst_all = max(abs(log_potential(sd, sd.host.nodes[k]) + LOG2)
                    for k in range(0, sd.host.n_nodes, 29))
    assert worst_all <= 1e-3


def test_segment_potential_off_curve_matches_branch():
    sd = equilibrium_density({"type": "segment", "a": -1.0, "b": 1.0}).curve_density
    for z in (2.0, 3.0 + 2.0j, -0.4 + 1.1j):
        assert abs(log_potential(sd, z) - segment_green(z)) <= 1e-12


def test_area_component_far_field():
    # gridded uniform disk density: exterior potential approaches mass*log|z|
    h = 0.02
    xs = np.arange(-1.2, 1.2 + h / 2, h)
    X, Y = np.meshgrid(xs, xs)
    dens = np.where(np.hypot(X, Y) <= 1.0, 1.0 / np.pi, 0.0)
    mass = float(np.sum(dens)) * h * h
    me = MeasureEstimate(area_density=dens, area_origin=(xs[0], xs[0]),
                         area_h=h, total_mass=mass)
    me.validate()
    for z in (3.0, 2.0 + 2.0j):
        assert abs(log_potential(me, z) - mass * math.log(abs(z))) <= 1e-3


def test_point_mass_potential_and_domain_error():
    me = MeasureEstimate(point_masses=[(1.0 + 0.0j, 1.0)], total_mass=1.0)
    assert abs(log_potential(me, 3.0) - LOG2) <= 1e-15
    with pytest.raises(ValueError):
        log_potential(me, 1.0 + 0.0j)


def test_between_node_evaluation_near_curve_refused():
    sd = equilibrium_density({"type": "disk", "radius": 1.0}).curve_density
    z = sd.host.nodes[5] * (1.0 + 5e-9)  # inside the cutoff, off every node
    with pytest.raises(NearBoundaryError):
        log_potential(sd, z)


def test_log_potential_rejects_wrong_types():
    with pytest.raises(TypeError):
        log_potential("not a measure", 1.0)


# ---------------------------------------------------------------------------
# curve recovery
# ---------------------------------------------------------------------------

def test_circle_recovery_density_and_mass():
    host = circle_host(per=32)
    u = PotentialField(evaluator=lambda z: max(math.log(abs(z)), 0.0))
    est = recover_curve_density(u, host, tol=1e-8)
    dv = est.curve_density.values.real
    assert np.max(np.abs(dv - 1.0 / (2.0 * np.pi))) <= 1e-6
    assert abs(est.total_mass - 1.0) <= 1e-6
    assert est.flagged_nodes == []
    # positive measure: recovered density nonnegative within tolerance
    assert np.min(dv) >= -1e-8
    est.validate()


def test_segment_recovery_matches_arcsine():
    host = segment_host(per=32)
    u = PotentialField(evaluator=segment_green)
    est = recover_curve_density(u, host, tol=1e-6)
    xs = host.nodes.real
    ref = 1.0 / (np.pi * np.sqrt(1.0 - xs ** 2))
    rel = np.abs(est.curve_density.values.real - ref) / ref
    # the per-node offset ladder keeps even near-endpoint nodes convergent
    assert np.max(rel) <= 1e-6
    assert est.flagged_nodes == []
    assert abs(est.total_mass - 1.0) <= 1e-6
    assert np.min(est.curve_density.values.real) >= -1e-8


def test_segment_recovery_value_at_center():
    host = segment_host(per=32)
    est = recover_curve_density(PotentialField(evaluator=segment_green), host)
    k0 = int(np.argmin(np.abs(host.nodes.real)))
    assert abs(est.curve_density.values.real[k0] - 1.0 / np.pi) <= 1e-4


def test_harmonic_addend_contributes_nothing():
    # recovery is local: log|z - 5| is harmonic near the circle and must not
    # move the density
    host = circle_host(per=32)
    base = lambda z: 0.5 * max(math.log(abs(z)), 0.0)
    bumped = lambda z: base(z) + math.log(abs(z - 5.0))
    d1 = recover_curve_density(PotentialField(evaluator=base), host)
    d2 = recover_curve_density(PotentialField(evaluator=bumped), host)
    diff = np.abs(d1.curve_density.values - d2.curve_density.values)
    assert np.max(diff) <= 1e-6
    assert np.max(np.abs(d1.curve_density.values.real - 1.0 / (4.0 * np.pi))) <= 1e-6


def test_consistency_loop_circle():
    host = circle_host(per=32)
    u = PotentialField(evaluator=lambda z: max(math.log(abs(z)), 0.0))
    est = recover_curve_density(u, host)
    for z in (2.0, -1.7 + 0.6j):
        assert abs(log_potential(est.curve_density, z) - math.log(abs(z))) <= 1e-3


def test_consistency_loop_segment():
    host = segment_host(per=32)
    est = recover_curve_density(PotentialField(evaluator=segment_green), host)
    # off the curve, against the analytic Green potential
    for z in (2.0, 0.3 + 1.2j):
        assert abs(log_potential(est.curve_density, z) - segment_green(z)) <= 1e-3
    # back on the segment the potential must flatten out at -log 2
    xs = host.nodes.real
    sel = np.where(np.abs(xs) <= 0.9)[0]
    worst = max(abs(log_potential(est.curve_density, host.nodes[k]) + LOG2)
                for k in sel[::11])
    assert worst <= 1e-3


def test_host_diameter_computed_once(monkeypatch):
    # the diameter scales every near-curve cutoff; it is fixed by the nodes,
    # so one recovery plus a potential at every node measure it only once
    import cauchypot.geometry as geometry

    calls = []
    diameter = geometry._point_set_diameter

    def counted(pts):
        calls.append(pts.size)
        return diameter(pts)

    monkeypatch.setattr(geometry, "_point_set_diameter", counted)
    host = segment_host(per=64)
    assert host.n_nodes == 512
    est = recover_curve_density(PotentialField(evaluator=segment_green), host)
    for z in host.nodes:
        log_potential(est.curve_density, z)
    assert len(calls) == 1


def test_recovery_argument_validation():
    host = circle_host()
    with pytest.raises(GeometryError):
        recover_curve_density(lambda z: 0.0, "not a host")
    with pytest.raises(TypeError):
        recover_curve_density(3.14, host)
    grid = PotentialField(values=np.zeros((8, 8)), h=0.1)
    with pytest.raises(ValueError):
        recover_curve_density(grid, host)
    with pytest.raises(ValueError):
        recover_curve_density(lambda z: 0.0, host, levels=1)


def test_recovery_flags_bad_nodes_without_raising():
    # an evaluator that blows up on the plus side of one node: that node is
    # flagged and zeroed, the rest recover normally
    host = circle_host(per=16)
    bad = host.nodes[7]

    def u(z):
        # trips on the inward offsets of node 7 only: the ladder reaches at
        # most 1e-3 of a panel from the node, well under the node spacing
        if abs(z - bad) < 1e-2 and abs(z) < 1.0 - 1e-12:
            raise ValueError("pole")
        return max(math.log(abs(z)), 0.0)

    est = recover_curve_density(PotentialField(evaluator=u), host)
    assert est.flagged_nodes == [7]
    assert est.curve_density.values[7] == 0.0
    others = np.delete(est.curve_density.values.real, 7)
    assert np.max(np.abs(others - 1.0 / (2.0 * np.pi))) <= 1e-6


# ---------------------------------------------------------------------------
# area recovery
# ---------------------------------------------------------------------------

def area_grid(fn, lo, hi, h):
    xs = np.arange(lo, hi + h / 2, h)
    X, Y = np.meshgrid(xs, xs)
    return PotentialField(values=fn(X, Y), x0=xs[0], y0=xs[0], h=h), xs


def test_disk_area_density():
    # u = (|z|^2 - 1)/2 has Laplacian 2, the potential of dx dy / pi
    h = 0.01
    grid, xs = area_grid(
        lambda X, Y: np.where(np.hypot(X, Y) <= 1.0,
                              (X ** 2 + Y ** 2 - 1.0) / 2.0,
                              np.log(np.maximum(np.hypot(X, Y), 1e-300))),
        -1.5, 1.5, h)
    est = recover_area_density(grid)
    ny, nx = est.area_density.shape
    gx = est.area_origin[0] + h * np.arange(nx)
    gy = est.area_origin[1] + h * np.arange(ny)
    GX, GY = np.meshgrid(gx, gy)
    inner = np.hypot(GX, GY) <= 0.8
    assert np.max(np.abs(est.area_density[inner] - 1.0 / np.pi)) <= 1e-3
    assert abs(est.total_mass - 1.0) <= 1e-4
    est.validate()


def test_harmonic_grid_recovers_zero():
    grid, _ = area_grid(lambda X, Y: X ** 2 - Y ** 2, -1.0, 1.0, 0.02)
    est = recover_area_density(grid)
    assert np.max(np.abs(est.area_density)) <= 1e-8


def test_log_sampled_off_origin_near_zero():
    # harmonic away from 0; what survives is truncation of the 5-point
    # stencil, at the 1e-5 level for this spacing, not a real density
    grid, _ = area_grid(lambda X, Y: np.log(np.hypot(X, Y)), 1.0, 2.0, 0.01)
    est = recover_area_density(grid)
    assert np.max(np.abs(est.area_density)) <= 1e-4


def test_noise_floor_zeroes_linear_data():
    # u = x is harmonic and its second differences are pure rounding; the
    # noise floor must zero every cell exactly
    grid, _ = area_grid(lambda X, Y: X, 0.0, 1.0, 0.01)
    est = recover_area_density(grid)
    assert np.all(est.area_density == 0.0)
    assert est.total_mass == 0.0


def test_area_grid_validation():
    grid, _ = area_grid(lambda X, Y: X * Y, 0.0, 1.0, 0.25)
    with pytest.raises(ResolutionError):
        recover_area_density(grid, h_max=0.1)
    with pytest.raises(ResolutionError):
        recover_area_density(PotentialField(values=np.zeros((4, 9)), h=0.1))
    with pytest.raises(TypeError):
        recover_area_density(PotentialField(evaluator=lambda z: 0.0))


def test_area_origin_bookkeeping():
    grid, xs = area_grid(lambda X, Y: X ** 2 + Y ** 2, -1.0, 1.0, 0.1)
    est = recover_area_density(grid)
    assert est.area_density.shape == (xs.size - 2, xs.size - 2)
    assert abs(est.area_origin[0] - (xs[0] + 0.1)) <= 1e-15
    assert abs(est.area_origin[1] - (xs[0] + 0.1)) <= 1e-15


# ---------------------------------------------------------------------------
# point masses
# ---------------------------------------------------------------------------

def test_two_unit_atoms():
    h = 0.02
    grid, _ = area_grid(
        lambda X, Y: np.log(np.maximum(
            np.hypot(X - 1.0, Y) * np.hypot(X + 1.0, Y), 1e-300)),
        -2.0, 2.0, h)
    est = detect_point_masses(grid, cluster_radius=0.2)
    assert len(est.point_masses) == 2
    atoms = sorted(est.point_masses, key=lambda am: am[0].real)
    for (a, m), target in zip(atoms, (-1.0, 1.0)):
        assert abs(a - target) <= 2.0 * h
        assert abs(m - 1.0) <= 1e-2
    assert abs(est.total_mass - 2.0) <= 2e-2
    est.validate()


def test_single_atom_at_origin():
    grid, _ = area_grid(
        lambda X, Y: np.log(np.maximum(np.hypot(X, Y), 1e-300)), -1.0, 1.0, 0.02)
    est = detect_point_masses(grid, cluster_radius=0.2)
    assert len(est.point_masses) == 1
    a, m = est.point_masses[0]
    assert abs(a) <= 0.04
    assert abs(m - 1.0) <= 1e-2


def test_atom_mass_scales():
    # 2 log|z - i| carries mass 2 at i
    h = 0.02
    xs = np.arange(-1.0, 1.0 + h / 2, h)
    ys = np.arange(0.0, 2.0 + h / 2, h)
    X, Y = np.meshgrid(xs, ys)
    vals = 2.0 * np.log(np.maximum(np.hypot(X, Y - 1.0), 1e-300))
    grid = PotentialField(values=vals, x0=xs[0], y0=ys[0], h=h)
    est = detect_point_masses(grid, cluster_radius=0.2)
    assert len(est.point_masses) == 1
    a, m = est.point_masses[0]
    assert abs(a - 1.0j) <= 2.0 * h
    assert abs(m - 2.0) <= 1e-2


def test_cluster_radius_resolution_guard():
    grid, _ = area_grid(
        lambda X, Y: np.log(np.maximum(np.hypot(X, Y), 1e-300)), -1.0, 1.0, 0.02)
    with pytest.raises(ResolutionError):
        detect_point_masses(grid, cluster_radius=0.06)


def test_overlapping_clusters_warn():
    # two atoms closer than the cluster radius: both boxes swallow both
    # singularities, which is exactly the ambiguity the warning reports
    h = 0.005
    grid, _ = area_grid(
        lambda X, Y: (np.log(np.maximum(np.hypot(X, Y), 1e-300))
                      + np.log(np.maximum(np.hypot(X - 0.06, Y), 1e-300))),
        -0.5, 0.5, h)
    with pytest.warns(UserWarning, match="overlap"):
        est = detect_point_masses(grid, cluster_radius=0.08)
    assert len(est.point_masses) == 2


def test_flat_grid_yields_no_atoms():
    grid = PotentialField(values=np.zeros((32, 32)), h=0.05)
    est = detect_point_masses(grid, cluster_radius=1.0)
    assert est.point_masses == []
    assert est.total_mass == 0.0


# ---------------------------------------------------------------------------
# equilibrium references
# ---------------------------------------------------------------------------

def test_equilibrium_disk():
    est = equilibrium_density({"type": "disk", "radius": 1.0})
    vals = est.curve_density.values
    assert np.max(np.abs(vals - 1.0 / (2.0 * np.pi))) == 0.0
    assert abs(est.total_mass - 1.0) <= 1e-12
    est.validate()


def test_equilibrium_disk_scaled_and_centered():
    est = equilibrium_density({"type": "disk", "radius": 2.0, "center": [0.0, 1.0]})
    assert np.max(np.abs(est.curve_density.values - 1.0 / (4.0 * np.pi))) == 0.0
    assert abs(est.total_mass - 1.0) <= 1e-12
    # unit mass far field: log|z - center|
    z = 5.0
    assert abs(log_potential(est.curve_density, z) - math.log(abs(z - 1j))) <= 1e-10


def test_equilibrium_segment_values():
    # the node nearest the centre sits ~6e-3 off it, so compare against the
    # arcsine formula exactly at the node and only loosely against 1/pi
    est = equilibrium_density({"type": "segment", "a": -1.0, "b": 1.0})
    host = est.curve_density.host
    k0 = int(np.argmin(np.abs(host.nodes.real)))
    x0 = host.nodes.real[k0]
    assert abs(est.curve_density.values.real[k0]
               - 1.0 / (np.pi * math.sqrt(1.0 - x0 * x0))) <= 1e-15
    assert abs(est.curve_density.values.real[k0] - 1.0 / np.pi) <= 1e-4
    assert abs(est.total_mass - 1.0) <= 1e-12

    est2 = equilibrium_density({"type": "segment", "a": 0.0, "b": 4.0})
    host2 = est2.curve_density.host
    k2 = int(np.argmin(np.abs(host2.nodes.real - 2.0)))
    assert abs(est2.curve_density.values.real[k2] - 1.0 / (2.0 * np.pi)) <= 1e-4
    assert abs(est2.total_mass - 1.0) <= 1e-12


def test_equilibrium_matches_recovery():
    # the closed-form arcsine density and the density recovered from the
    # analytic Green potential must be the same measure
    ref = equilibrium_density({"type": "segment", "a": -1.0, "b": 1.0,
                               "panels": 8, "nodes_per_panel": 32})
    host = ref.curve_density.host
    est = recover_curve_density(PotentialField(evaluator=segment_green), host)
    rel = (np.abs(est.curve_density.values.real - ref.curve_density.values.real)
           / ref.curve_density.values.real)
    assert np.max(rel) <= 1e-6


def test_equilibrium_unsupported_shape():
    with pytest.raises(NotImplementedError):
        equilibrium_density({"type": "triangle", "vertices": [0, 1, 1j]})


# ---------------------------------------------------------------------------
# estimate bookkeeping and IO
# ---------------------------------------------------------------------------

def test_validate_catches_mass_mismatch():
    est = equilibrium_density({"type": "disk", "radius": 1.0})
    est.total_mass = 2.0
    with pytest.raises(ValueError):
        est.validate()


def test_estimate_json_and_curve_csv(tmp_path):
    est = equilibrium_density({"type": "disk", "radius": 1.0})
    est.point_masses = [(1.0 + 2.0j, 0.5)]
    est.total_mass += 0.5
    doc = est.to_json()
    assert doc["point_masses"] == [[1.0, 2.0, 0.5]]
    assert abs(doc["total_mass"] - 1.5) <= 1e-12
    path = tmp_path / "curve.csv"
    est.write_curve_csv(path)
    back = read_density_csv(path, expect=est.curve_density.host.n_nodes)
    assert np.max(np.abs(back - est.curve_density.values)) == 0.0


def test_potential_field_validation():
    with pytest.raises(ValueError):
        PotentialField()
    with pytest.raises(ValueError):
        PotentialField(evaluator=lambda z: 0.0, values=np.zeros((4, 4)), h=0.1)
    with pytest.raises(ValueError):
        PotentialField(values=np.zeros(16), h=0.1)
    with pytest.raises(ValueError):
        PotentialField(values=np.zeros((4, 4)), h=0.0)
    grid = PotentialField(values=np.zeros((4, 4)), h=0.1)
    with pytest.raises(ValueError):
        grid(0.0)


def test_potential_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((7, 5))
    grid = PotentialField(values=vals, x0=-0.5, y0=0.25, h=0.125)
    path = tmp_path / "grid.csv"
    write_potential_csv(path, grid)
    back = read_potential_csv(path)
    assert back.values.shape == (7, 5)
    assert np.array_equal(back.values, vals)
    assert (back.x0, back.y0, back.h) == (-0.5, 0.25, 0.125)


def test_potential_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    vals = rng.standard_normal((6, 9))
    grid = PotentialField(values=vals, x0=1.0, y0=-2.0, h=0.03125)
    data = tmp_path / "grid.f64"
    header = tmp_path / "grid.json"
    write_potential_binary(data, header, grid)
    back = read_potential_binary(data, header)
    assert np.array_equal(back.values, vals)
    assert (back.x0, back.y0, back.h) == (1.0, -2.0, 0.03125)
    hdr = json.loads(header.read_text())
    assert hdr["nx"] == 9 and hdr["ny"] == 6


def test_potential_csv_schema_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x,y,u\n0,0,1\n1,0,1\n0,1,1\n")  # missing (1,1)
    with pytest.raises(SchemaError):
        read_potential_csv(ragged)
    uneven = tmp_path / "uneven.csv"
    rows = ["x,y,u"]
    for y in (0.0, 1.0):
        for x in (0.0, 1.0, 2.5):
            rows.append(f"{x},{y},0")
    uneven.write_text("\n".join(rows) + "\n")
    with pytest.raises(SchemaError):
        read_potential_csv(uneven)
    short = tmp_path / "short.csv"
    short.write_text("x,y\n0,0\n1,0\n")
    with pytest.raises(SchemaError):
        read_potential_csv(short)


def test_potential_binary_schema_errors(tmp_path):
    data = tmp_path / "grid.f64"
    header = tmp_path / "grid.json"
    np.zeros(10).tofile(data)
    header.write_text(json.dumps({"nx": 4, "ny": 4, "x0": 0, "y0": 0, "h": 0.1}))
    with pytest.raises(SchemaError):
        read_potential_binary(data, header)
    header.write_text(json.dumps({"nx": 5, "ny": 2, "x0": 0, "y0": 0}))
    with pytest.raises(SchemaError):
        read_potential_binary(data, header)
