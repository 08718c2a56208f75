"""Cauchy transform, singular operator, and Plemelj limits."""

import numpy as np
import pytest

from cauchypot.cauchy import (
    boundary_value,
    cauchy_transform,
    plemelj_residuals,
    singular_S,
)
from cauchypot.errors import AlignmentError, BoundaryLimitError, NearBoundaryError
from cauchypot.geometry import build_arc_system, build_closed_contour
from cauchypot.quadrature import host_rule, integrate_arclength
from cauchypot.sampling import (
    SampledDensity,
    read_density_csv,
    read_solution_csv,
    write_solution_csv,
)

from oracles import cauchy_dense, chebyshev_T, chebyshev_U


def circle(n_per=128, panels=8, r=1.0):
    return build_closed_contour(
        {"type": "circle", "radius": r, "panels": panels, "nodes_per_panel": n_per}
    )


def segment(m=1024):
    return build_arc_system(
        [{"type": "segment", "a": [-1, 0], "b": [1, 0],
          "panels": 8, "nodes_per_panel": m // 8}]
    )


# ---------------------------------------------------------------------------
# off-curve transform
# ---------------------------------------------------------------------------

def test_cauchy_transform_interior_of_analytic_data():
    c = circle()
    f = SampledDensity.from_function(c, lambda t: t ** 2)
    assert abs(cauchy_transform(f, 0.5) - 0.25) <= 1e-10


def test_cauchy_transform_exterior_vanishes():
    c = circle()
    f = SampledDensity.from_function(c, lambda t: t ** 2)
    assert abs(cauchy_transform(f, 3.0)) <= 1e-10


def test_cauchy_transform_pole_density():
    c = circle()
    f = SampledDensity.from_function(c, lambda t: 1.0 / t)
    val = cauchy_transform(f, 3.0)
    assert abs(val - (-1.0 / 3.0)) <= 1e-10
    ref = cauchy_dense(lambda t: 1.0 / t,
                       lambda th: np.exp(1j * th),
                       lambda th: 1j * np.exp(1j * th), 3.0)
    assert abs(val - ref) <= 1e-12


def test_cauchy_transform_decay_bound():
    c = circle()
    rng = np.random.default_rng(11)
    f = SampledDensity(c, rng.standard_normal(c.n_nodes)
                       + 1j * rng.standard_normal(c.n_nodes))
    norm1 = integrate_arclength(np.abs(f.values), host_rule(c)).real
    for z in (1.8, -2.5 + 1j, 0.2 + 0.1j, 5j):
        bound = norm1 / (2 * np.pi) / c.distance_to(z)
        assert abs(cauchy_transform(f, z)) <= bound * (1 + 1e-12)


def test_cauchy_transform_refuses_points_on_curve():
    c = circle()
    f = SampledDensity.from_function(c, lambda t: t)
    with pytest.raises(NearBoundaryError):
        cauchy_transform(f, c.nodes[3])


# ---------------------------------------------------------------------------
# singular operator
# ---------------------------------------------------------------------------

def test_S_fixes_positive_powers_on_circle():
    c = circle()
    for n in range(5):
        f = SampledDensity.from_function(c, lambda t, n=n: t ** n)
        sf = singular_S(f)
        assert np.max(np.abs(sf.values - c.nodes ** n)) <= 1e-9


def test_S_negates_negative_powers_on_circle():
    c = circle()
    f = SampledDensity.from_function(c, lambda t: 1.0 / t)
    sf = singular_S(f)
    assert np.max(np.abs(sf.values + 1.0 / c.nodes)) <= 1e-9


def test_S_involution_on_closed_contour():
    c = circle()
    rng = np.random.default_rng(7)
    ns = np.arange(-4, 5)
    coef = (rng.standard_normal(9) + 1j * rng.standard_normal(9)) / (1 + np.abs(ns)) ** 2
    vals = sum(coef[j] * c.nodes ** ns[j] for j in range(9))
    f = SampledDensity(c, vals)
    s2 = singular_S(singular_S(f))
    assert np.max(np.abs(s2.values - f.values)) <= 1e-10


def test_S_annihilates_inverse_sqrt_weight():
    seg = segment()
    f = SampledDensity(seg, 1.0 / (1j * np.sqrt(1.0 - seg.nodes.real ** 2)))
    sf = singular_S(f, density_class="inverse_sqrt")
    assert np.max(np.abs(sf.values)) <= 1e-8


def test_S_linearity():
    c = circle(16)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(c.n_nodes) + 1j * rng.standard_normal(c.n_nodes)
    v = rng.standard_normal(c.n_nodes) + 1j * rng.standard_normal(c.n_nodes)
    su = singular_S(SampledDensity(c, u)).values
    sv = singular_S(SampledDensity(c, v)).values
    sw = singular_S(SampledDensity(c, 3.0 * u - 2j * v)).values
    scale = np.max(np.abs(sw))
    assert np.max(np.abs(sw - (3.0 * su - 2j * sv))) <= 1e-12 * max(1.0, scale)


def test_S_airfoil_pairs_on_segment():
    # S maps -i sqrt(1-t^2) U_{n-1} to T_n on [-1, 1]
    seg = segment(512)
    x = seg.nodes.real
    for n in (1, 2, 3):
        f = SampledDensity(seg, -1j * np.sqrt(1 - x ** 2) * chebyshev_U(n - 1, x))
        sf = singular_S(f, density_class="sqrt")
        assert np.max(np.abs(sf.values - chebyshev_T(n, x))) <= 1e-9


def test_S_at_selected_indices_matches_full():
    seg = segment(256)
    f = SampledDensity(seg, np.exp(seg.nodes.real))
    full = singular_S(f)
    idx = np.array([3, 77, 200])
    part = singular_S(f, at_indices=idx)
    assert np.allclose(part, full.values[idx], rtol=0, atol=1e-13)
    one = singular_S(f, at_indices=77)
    assert abs(one - full.values[77]) <= 1e-13


# ---------------------------------------------------------------------------
# boundary values
# ---------------------------------------------------------------------------

def test_boundary_value_plus_side_of_monomial():
    c = circle(2048)  # ladder bottom must clear a few node spacings
    f = SampledDensity.from_function(c, lambda t: t)
    bp = boundary_value(f, "plus", 0, tol=1e-6)
    assert abs(bp - c.nodes[0]) <= 1e-6


def test_boundary_value_minus_side_of_monomial():
    c = circle(2048)
    f = SampledDensity.from_function(c, lambda t: t)
    bm = boundary_value(f, "minus", 0, tol=1e-6)
    assert abs(bm) <= 1e-6


def test_boundary_value_half_jump_on_segment():
    # f = 1: C+(x) = f/2 + Sf/2 with Sf = (1/pi i) log((1-x)/(1+x))
    seg = segment(2048)
    f = SampledDensity(seg, np.ones(seg.n_nodes))
    k = int(np.argmin(np.abs(seg.nodes)))
    x = seg.nodes[k].real
    cp = boundary_value(f, "plus", k, h0=0.01)
    s_exact = np.log((1 - x) / (1 + x)) / (1j * np.pi)
    assert abs((cp - 0.5 * s_exact) - 0.5) <= 1e-6


def test_boundary_value_flags_unconverged_ladder():
    # coarse grid: the ladder cannot certify 1e-6
    c = circle(64)
    f = SampledDensity.from_function(c, lambda t: t ** 3)
    with pytest.raises(BoundaryLimitError):
        boundary_value(f, "plus", 0, tol=1e-6)


def test_boundary_value_rejects_ladder_into_cutoff():
    c = circle(64)
    f = SampledDensity.from_function(c, lambda t: t)
    with pytest.raises(BoundaryLimitError):
        boundary_value(f, "plus", 0, h0=1e-9)


# ---------------------------------------------------------------------------
# Plemelj identities
# ---------------------------------------------------------------------------

def test_plemelj_residuals_cubic_on_circle():
    c = circle(2048)
    f = SampledDensity.from_function(c, lambda t: t ** 3)
    jump, total = plemelj_residuals(f)
    assert jump <= 1e-6
    assert total <= 1e-6


def test_plemelj_residuals_measure_the_diameter_once(monkeypatch):
    import cauchypot.geometry as geometry

    calls = []
    diameter = geometry._point_set_diameter

    def counted(pts):
        calls.append(pts.size)
        return diameter(pts)

    monkeypatch.setattr(geometry, "_point_set_diameter", counted)
    c = circle(32)
    plemelj_residuals(SampledDensity.from_function(c, lambda t: t ** 3))
    assert len(calls) == 1


def test_plemelj_residuals_laurent_density():
    c = circle(2048)
    f = SampledDensity.from_function(c, lambda t: 2.0 * t + 5.0 / t)
    jump, total = plemelj_residuals(f)
    assert jump <= 1e-6
    assert total <= 1e-6


def test_plemelj_residuals_sqrt_density_on_segment():
    seg = segment(2048)
    f = SampledDensity(seg, -1j * np.sqrt(1.0 - seg.nodes.real ** 2))
    idx = np.nonzero(np.abs(seg.nodes.real) <= 0.9)[0][::64]
    jump, total = plemelj_residuals(f, at_indices=idx, h0=0.01,
                                    density_class="sqrt")
    assert jump <= 1e-5
    assert total <= 1e-5


# ---------------------------------------------------------------------------
# sampled densities and CSV round trips
# ---------------------------------------------------------------------------

def test_sampled_density_alignment_and_finiteness():
    c = circle(16)
    with pytest.raises(AlignmentError):
        SampledDensity(c, np.ones(c.n_nodes + 1))
    bad = np.ones(c.n_nodes, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(AlignmentError):
        SampledDensity(c, bad)


def test_density_csv_round_trip_is_bit_exact(tmp_path):
    c = circle(16)
    rng = np.random.default_rng(2)
    vals = (rng.standard_normal(c.n_nodes) * 10.0 ** rng.integers(-17, 3, c.n_nodes)
            + 1j * rng.standard_normal(c.n_nodes))
    f = SampledDensity(c, vals)
    p = tmp_path / "f.csv"
    f.to_csv(p)
    back = SampledDensity.from_csv(p, c)
    assert np.array_equal(back.values, f.values)
    raw = read_density_csv(p)
    assert np.array_equal(raw, f.values)


def test_solution_csv_round_trip_and_host_check(tmp_path):
    seg = segment(64)
    vals = np.exp(1j * seg.arclength)
    p = tmp_path / "sol.csv"
    write_solution_csv(p, seg, vals)
    back = read_solution_csv(p, seg)
    assert np.array_equal(back, vals)
    other = segment(128)
    with pytest.raises(AlignmentError):
        read_solution_csv(p, other)


def test_density_arithmetic():
    c = circle(16)
    f = SampledDensity.from_function(c, lambda t: t)
    g = SampledDensity.from_function(c, lambda t: t ** 2)
    h = 2.0 * f - g
    assert np.allclose(h.values, 2.0 * c.nodes - c.nodes ** 2)
    assert np.allclose((f + g).values, c.nodes + c.nodes ** 2)
