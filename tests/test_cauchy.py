"""Cauchy transform, singular operator, and Plemelj limits."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cauchypot.cauchy import (
    boundary_value,
    cauchy_transform,
    plemelj_residuals,
    singular_S,
)
from cauchypot.errors import (
    AlignmentError,
    BoundaryLimitError,
    GeometryError,
    NearBoundaryError,
)
from cauchypot.geometry import build_arc_system, build_closed_contour
from cauchypot.potential import equilibrium_density, log_potential
from cauchypot.quadrature import integrate_arclength
from cauchypot.sampling import (
    SampledDensity,
    read_density_csv,
    read_solution_csv,
    write_density_csv,
    write_solution_csv,
)

from oracles import angle_sum_winding, cauchy_dense, chebyshev_T, chebyshev_U


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
    norm1 = integrate_arclength(np.abs(f.values), c).real
    for z in (1.8, -2.5 + 1j, 0.2 + 0.1j, 5j):
        bound = norm1 / (2 * np.pi) / c.distance_to(z)
        assert abs(cauchy_transform(f, z)) <= bound * (1 + 1e-12)


def test_cauchy_transform_refuses_points_on_curve():
    c = circle()
    f = SampledDensity.from_function(c, lambda t: t)
    with pytest.raises(NearBoundaryError):
        cauchy_transform(f, c.nodes[3])


def test_cauchy_transform_refuses_an_array_with_one_point_on_curve():
    c = circle()
    f = SampledDensity.from_function(c, lambda t: t)
    z = np.array([[0.5, 3.0], [2j, 0.1 - 0.2j]])
    assert cauchy_transform(f, z).shape == (2, 2)
    z[1, 0] = c.nodes[5] + 0.1 * c.near_cutoff
    with pytest.raises(NearBoundaryError):
        cauchy_transform(f, z)


def test_cauchy_transform_that_overflows_raises():
    # the constant 1e308 on a 256-node circle: inf + NaN i before; 1e300 is
    # fine, C 1 = 1 inside
    c = circle(n_per=32)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match="cauchy_transform"):
            cauchy_transform(SampledDensity(c, np.full(c.n_nodes, 1e308 + 0j)), 0.1j)
    value = cauchy_transform(SampledDensity(c, np.full(c.n_nodes, 1e300 + 0j)), 0.1j)
    assert abs(value - 1e300) <= 1e-12 * 1e300


# ---------------------------------------------------------------------------
# singular operator
# ---------------------------------------------------------------------------

def test_S_fixes_positive_powers_on_circle():
    c = circle()
    for n in range(5):
        f = SampledDensity.from_function(c, lambda t, n=n: t ** n)
        sf = singular_S(f)
        assert np.max(np.abs(sf.values - c.nodes ** n)) <= 1e-9


@pytest.mark.parametrize("host", [lambda: circle(n_per=32), lambda: segment(m=256)],
                         ids=["circle", "segment"])
def test_S_that_overflows_raises(host):
    # S of the constant 1e308 overflows its sums: the output density blamed
    # its own samples before (AlignmentError, a config error in the CLI);
    # 1e300 is fine, S 1 = 1 on the circle
    host = host()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match="singular_S"):
            singular_S(SampledDensity(host, np.full(host.n_nodes, 1e308 + 0j)))
    sf = singular_S(SampledDensity(host, np.full(host.n_nodes, 1e300 + 0j))).values
    assert np.isfinite(sf).all()
    if not hasattr(host, "arcs"):
        assert np.max(np.abs(sf - 1e300)) <= 1e-12 * 1e300


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


CHAIN = {"type": "chain", "nodes": [[v, 1.0] for v in np.linspace(-1.0, 1.0, 12)]}
SUBSET_HOSTS = {
    "circle": circle(8, 8),
    "ellipse": build_closed_contour(
        {"type": "ellipse", "semi_axes": [2.0, 1.0], "panels": 8, "nodes_per_panel": 8}),
    # enough nodes that smooth data take the interpolated closed-contour route
    "ellipse 512": build_closed_contour(
        {"type": "ellipse", "semi_axes": [2.0, 1.0], "panels": 8, "nodes_per_panel": 64}),
    "segment": segment(64),
    "two segments": build_arc_system([
        {"type": "segment", "a": [-2, 0], "b": [-0.5, 0], "panels": 4, "nodes_per_panel": 8},
        {"type": "segment", "a": [0.5, 0.5], "b": [2, 0.2], "panels": 4, "nodes_per_panel": 6},
    ]),
    "circular arcs": build_arc_system([
        {"type": "circular", "radius": 1.0, "theta_a": 0.4, "theta_b": 2.5,
         "panels": 4, "nodes_per_panel": 8},
        {"type": "circular", "radius": 1.0, "theta_a": 3.5, "theta_b": 5.5,
         "panels": 2, "nodes_per_panel": 10},
    ]),
    "segment and chain": build_arc_system([
        {"type": "segment", "a": [-1, 0], "b": [1, 0], "panels": 4, "nodes_per_panel": 8},
        CHAIN,
    ]),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(SUBSET_HOSTS)),
    density_class=st.sampled_from(["smooth", "inverse_sqrt", "sqrt"]),
    seed=st.integers(0, 2 ** 16),
    smooth=st.booleans(),
    picks=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12)),
)
def test_S_at_any_indices_is_bitwise_the_full_result(name, density_class, seed, smooth, picks):
    host = SUBSET_HOSTS[name]
    rng = np.random.default_rng(seed)
    if smooth:  # a degree-8 trigonometric polynomial in the node parameter
        k = np.arange(-8, 9)
        x = np.exp(1j * np.outer(host.params, k))
        c = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
        f = SampledDensity(host, x @ c)
    else:
        f = SampledDensity(host, rng.standard_normal(host.n_nodes)
                           + 1j * rng.standard_normal(host.n_nodes))
    # a chain arc has no principal-value rule: only graded nodes are valid
    n_ok = host.arcs[0].n_nodes if name == "segment and chain" else host.n_nodes
    full = singular_S(f, at_indices=np.arange(n_ok), density_class=density_class)
    if isinstance(picks, float):  # one int index gives one complex number
        k = int(picks * n_ok)
        one = singular_S(f, at_indices=k, density_class=density_class)
        assert np.complex128(one).tobytes() == full[k].tobytes()
        return
    idx = (np.array(picks) * n_ok).astype(int)  # unsorted, may repeat
    part = singular_S(f, at_indices=idx, density_class=density_class)
    assert part.tobytes() == full[idx].tobytes()
    if n_ok < host.n_nodes:
        with pytest.raises(GeometryError):
            singular_S(f, at_indices=np.append(idx, n_ok + 2), density_class=density_class)


INDEX_HOSTS = {
    # the interpolated remainder, and the summed rows of data that leave it rough
    "circle 128": circle(16, 8),
    # corners: the multipole rows from 1024 nodes on
    "rounded polygon 2048": build_closed_contour(
        {"type": "rounded-polygon", "vertices": [[0, 0], [2, 0], [2.5, 1], [0, 1.5]],
         "corner_radius": 0.2, "panels": 8, "nodes_per_panel": 256}),
    "segment 64": segment(64),
    "segment 2048": segment(2048),
}


@pytest.mark.parametrize("name", sorted(INDEX_HOSTS))
@pytest.mark.parametrize("rough", [False, True])
def test_S_refuses_indices_that_are_not_nodes(name, rough):
    host = INDEX_HOSTS[name]
    n = host.n_nodes
    values = (np.random.default_rng(3).standard_normal(n) if rough
              else host.nodes ** 2 + 1.0)
    f = SampledDensity(host, values)
    for bad in (-1, n, [0, -1], [[0, 1]], 1.7, [0.0, 1.0], [True, False]):
        with pytest.raises(IndexError):
            singular_S(f, at_indices=bad)
        with pytest.raises(IndexError):
            plemelj_residuals(f, at_indices=bad)
    empty = singular_S(f, at_indices=[])
    assert empty.shape == (0,) and empty.dtype == complex
    last = singular_S(f, at_indices=[n - 1])
    assert last.tobytes() == singular_S(f).values[-1:].tobytes()


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


@pytest.mark.parametrize("ladder", [dict(h0=np.nan), dict(h0=np.inf), dict(levels=0)],
                         ids=["h0-nan", "h0-inf", "no-levels"])
def test_boundary_value_rejects_a_bad_ladder(ladder):
    c = circle(64)
    f = SampledDensity.from_function(c, lambda t: t)
    with pytest.raises(BoundaryLimitError):
        boundary_value(f, "plus", 0, **ladder)


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf],
                         ids=["negative", "zero", "nan", "inf"])
def test_boundary_value_rejects_a_bad_tolerance(tol):
    # a tolerance that no gap can meet, or that every gap meets, is a bad
    # input, not a failed extrapolation
    c = circle(64)
    f = SampledDensity.from_function(c, lambda t: t)
    with pytest.raises(BoundaryLimitError, match="tol must be finite and positive"):
        boundary_value(f, "plus", 0, tol=tol)


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


@pytest.mark.parametrize("at_indices", [[], (), np.array([], dtype=int), np.array([])],
                         ids=["list", "tuple", "int-array", "float-array"])
@pytest.mark.parametrize("host", [circle(16), segment(256)], ids=["circle", "segment"])
def test_plemelj_residuals_refuse_an_empty_node_set(host, at_indices):
    f = SampledDensity(host, host.nodes ** 2 + 1.0)
    with pytest.raises(ValueError, match="at least one node"):
        plemelj_residuals(f, at_indices=at_indices)


@pytest.mark.parametrize("n_per, sampled", [(12, 96), (16, 64), (150, 67)])
def test_plemelj_residuals_sample_every_64th_part_by_default(monkeypatch, n_per, sampled):
    # every (n // 64)-th node: all 96 of 96, 64 of 128, 67 of 1200
    import cauchypot.cauchy as cauchy

    seen = []
    boundary_values = cauchy._boundary_values

    def spy(host, values, idx, *args):
        seen.append(np.asarray(idx).tolist())
        return boundary_values(host, values, idx, *args)

    monkeypatch.setattr(cauchy, "_boundary_values", spy)
    host = circle(n_per)
    plemelj_residuals(SampledDensity(host, host.nodes ** 3))
    assert seen == [list(range(0, host.n_nodes, max(1, host.n_nodes // 64)))]
    assert len(seen[0]) == sampled


@pytest.mark.parametrize("host", [circle(32), circle(512), segment(256)],
                         ids=["circle", "circle-4096", "segment"])
def test_plemelj_residuals_at_one_node_match_boundary_values(host):
    f = SampledDensity(host, np.exp(host.nodes) + 0.5j * host.nodes)
    for k in (0, 17, host.n_nodes // 2, host.n_nodes - 1):
        jump, total = plemelj_residuals(f, at_indices=[k], levels=4)
        cp = boundary_value(f, "plus", k, levels=4)
        cm = boundary_value(f, "minus", k, levels=4)
        assert jump == pytest.approx(abs(cp - cm - f.values[k]), rel=1e-12, abs=1e-15)
        assert total == pytest.approx(abs(cp + cm - singular_S(f, at_indices=k)),
                                      rel=1e-12, abs=1e-15)


def test_plemelj_ladder_reports_the_first_failing_node_and_side():
    # near the pole at 1.25 the minus ladder of node 0 misses 10 * tol while
    # its plus ladder passes; the nodes before it in idx pass on both sides
    c = circle(16)
    f = SampledDensity.from_function(c, lambda t: 1.0 / (t - 1.25))
    idx, tol = [64, 32, 0, 8, 120], 1e-4
    first = None
    for k in idx:  # the node-by-node order, plus before minus
        for side in ("plus", "minus"):
            try:
                boundary_value(f, side, k, tol=tol)
            except BoundaryLimitError:
                first = first or (k, side)
    assert first == (0, "minus")
    with pytest.raises(BoundaryLimitError, match=r"at node 0 \(minus\)"):
        plemelj_residuals(f, at_indices=idx, tol=tol)


# the rounded polygon of the benchmark's closed-contour workload
POLYGON = {"type": "rounded-polygon", "corner_radius": 0.25,
           "vertices": [[1.2, 0.0], [0.0, 1.0], [-1.1, 0.1], [-0.2, -1.0]]}


@pytest.mark.parametrize("spec, every", [
    ({"type": "circle", "radius": 1.0, "nodes_per_panel": 128}, 1),
    ({"type": "ellipse", "semi_axes": [2.0, 1.0], "nodes_per_panel": 128}, 1),
    (dict(POLYGON, nodes_per_panel=512), 4),
    # the recovery benchmark's circle, at the 64 nodes plemelj_residuals samples
    ({"type": "circle", "radius": 1.0, "nodes_per_panel": 2048}, 256),
], ids=["circle", "ellipse", "polygon", "circle-16384"])
@pytest.mark.parametrize("h0, levels", [(None, 3), (0.02, 5)], ids=["default", "h0=0.02"])
def test_ladder_rungs_take_the_winding_number_of_their_side(monkeypatch, spec, every,
                                                            h0, levels):
    # chi, the one-sided limit of C[1], is 1 on plus rungs and 0 on minus
    # rungs; where each rung's winding number says the same, the limits are
    # bitwise those that restore f_k through the winding number
    import cauchypot.cauchy as cauchy

    host = build_closed_contour(dict(spec, panels=8))
    compensated, rungs = cauchy._compensated_cauchy, []

    def both(host, values, z, k, chi):
        wind, _ = angle_sum_winding(host, z)
        assert np.array_equal(chi, wind)
        got = compensated(host, values, z, k, chi)
        assert np.array_equal(got, compensated(host, values, z, k, wind))
        rungs.append(z.size)
        return got

    monkeypatch.setattr(cauchy, "_compensated_cauchy", both)
    t = host.nodes
    f = SampledDensity(host, t ** 3 - 0.5j * t + (2.0 + 1.0j) / t)
    idx = np.arange(0, host.n_nodes, every)
    plemelj_residuals(f, at_indices=idx, h0=h0, levels=levels)
    assert rungs == [idx.size * 2 * levels]


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
    write_density_csv(p, f.values)
    back = read_density_csv(p, expect=c.n_nodes)
    assert np.array_equal(back, f.values)
    with pytest.raises(AlignmentError):
        read_density_csv(p, expect=c.n_nodes + 1)


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


def test_solution_csv_lists_the_nodes_by_arclength(tmp_path):
    c = circle(8, panels=4)
    p = tmp_path / "sol.csv"
    write_solution_csv(p, c, c.tangents)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "index,s,re_z,im_z,re_f,im_f"
    assert len(lines) == c.n_nodes + 1
    s_vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b > a for a, b in zip(s_vals, s_vals[1:]))
    assert np.array_equal(read_solution_csv(p, c), c.tangents)


def test_density_arithmetic():
    c = circle(16)
    f = SampledDensity.from_function(c, lambda t: t)
    g = SampledDensity.from_function(c, lambda t: t ** 2)
    h = 2.0 * f - g
    assert np.allclose(h.values, 2.0 * c.nodes - c.nodes ** 2)
    assert np.allclose((f + g).values, c.nodes + c.nodes ** 2)
    # a density on another host, even one of as many nodes, or a bare
    # array or number, is refused rather than its values taken as this host's
    e = build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0], "panels": 8,
                              "nodes_per_panel": 16})
    for other in (SampledDensity.from_function(e, lambda t: t),
                  SampledDensity(circle(16), f.values)):
        for op in (operator.add, operator.sub):
            with pytest.raises(AlignmentError, match="different hosts"):
                op(f, other)
    for other in (f.values, 1.0):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError, match="density arithmetic"):
                op(f, other)


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

def _ones(host):
    return SampledDensity(host, np.ones(host.n_nodes))


# (error class, call)
REFUSALS = {
    "S of a bare array": (TypeError, lambda: singular_S(np.ones(64))),
    "S in an unknown density class": (
        ValueError, lambda: singular_S(_ones(circle(8)), density_class="log")),
    "S on a lone arc": (GeometryError, lambda: singular_S(_ones(segment(64).arcs[0]))),
    "limit from the left": (ValueError, lambda: boundary_value(_ones(circle(8)), side="left")),
}


@pytest.mark.parametrize("node", [-1, 64, 2.7])
def test_boundary_value_refuses_a_node_as_S_refuses_its_indices(node):
    # checked as S's indices are: no wrap-around from the end, no truncation
    f = _ones(circle(8))
    assert f.host.n_nodes == 64
    for call in (lambda: boundary_value(f, node=node),
                 lambda: singular_S(f, at_indices=node)):
        with pytest.raises(IndexError, match=r"1-d integer array in \[0, 64\)"):
            call()


# calls at a point z, which must raise for a NaN or infinite z, not give NaN
AT_A_POINT = {
    "cauchy transform on a contour": lambda z: cauchy_transform(_ones(circle(8)), [2.0, z]),
    "cauchy transform on an arc": lambda z: cauchy_transform(_ones(segment(64)), z),
    "sqrt(R) of an arc system": lambda z: segment(64).eval_sqrtR(z),
    "potential of a density": lambda z: log_potential(_ones(circle(8)), z),
    "potential of an estimate": lambda z: log_potential(
        equilibrium_density({"type": "disk", "radius": 1.0}), z),
}


@pytest.mark.parametrize("z", [np.nan, np.inf, complex(0.5, np.nan), complex(-np.inf, 1.0)])
@pytest.mark.parametrize("case", sorted(AT_A_POINT))
def test_evaluation_points_must_be_finite(case, z):
    with pytest.raises(ValueError, match="finite"):
        AT_A_POINT[case](z)


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_raise_their_class(case):
    cls, call = REFUSALS[case]
    with pytest.raises(cls) as info:
        call()
    assert info.type is cls
