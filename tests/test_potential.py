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
from hypothesis import assume, given, settings, strategies as st

from cauchypot import potential, quadrature
from cauchypot.cauchy import singular_S
from cauchypot.errors import (
    GeometryError,
    NearBoundaryError,
    ResolutionError,
    SchemaError,
)
from cauchypot.geometry import ClosedContour, build_arc_system, build_closed_contour
from cauchypot.potential import (
    MeasureEstimate,
    _clusters_8,
    PotentialField,
    detect_point_masses,
    equilibrium_density,
    log_potential,
    log_potential_nodes,
    read_potential_binary,
    read_potential_csv,
    recover_area_density,
    recover_curve_density,
    write_potential_binary,
    write_potential_csv,
)
from cauchypot.sampling import (
    SampledDensity,
    _write_grid_csv,
    read_density_csv,
    write_density_csv,
)

from oracles import (
    area_density_full_lattice,
    circular_arc_equilibrium,
    cluster_labels_8,
    ellipse_equilibrium,
    grid_csv_per_cell,
    log_potential_nodes_direct,
    point_mass_moments,
    recover_curve_density_loop,
    segment_potentials,
)

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
        assert abs(log_potential(sd, host.nodes[k]) - exact) <= 1e-15


def test_arcsine_potential_constant_on_segment():
    # the segment equilibrium potential is -log 2 at every interior point,
    # the end nodes included
    sd = equilibrium_density({"type": "segment", "a": -1.0, "b": 1.0}).curve_density
    worst = max(abs(log_potential(sd, z) + LOG2) for z in sd.host.nodes)
    assert worst <= 1e-14


# measured worst errors at every node against the closed forms of
# oracles.segment_potentials; the arcsine and T3 densities reach ~m/pi at the
# end nodes, so their rounding grows with m.  The first-order rule this
# replaced missed by 2.3e-3 to 1.4e-4 (arcsine, T3) and 2.9e-4 to 1.3e-6
# (semicircle)
SEGMENT_ALLOWANCES = {"arcsine": 4e-16, "T3": 4e-16, "semicircle": 1e-15}


@pytest.mark.parametrize("m", [32, 128, 512])
@pytest.mark.parametrize("name", sorted(SEGMENT_ALLOWANCES))
def test_on_node_potential_of_segment_densities(name, m):
    host = segment_host(per=m // 8)
    x = host.nodes.real
    rho, exact = segment_potentials()[name]
    sd = SampledDensity(host, rho(x).astype(complex))
    scale = m if name != "semicircle" else 1
    assert np.max(np.abs(log_potential_nodes(sd) - exact(x))) <= SEGMENT_ALLOWANCES[name] * scale


@pytest.mark.parametrize(("m", "measured"), [(128, 2.32e-4), (512, 1.88e-5)])
def test_on_node_potential_of_a_density_nonzero_at_the_ends(m, measured):
    # rho = 1 makes phi = pi sin(u) rho lose smoothness at the ends in tau,
    # so the Chebyshev expansion converges algebraically: at the rate of the
    # first-order rule it replaced, with 1.2-1.4x its error (1.9e-4 / 1.6e-5);
    # pinned to the measured error
    host = segment_host(per=m // 8)
    x = host.nodes.real
    rho, exact = segment_potentials()["constant"]
    sd = SampledDensity(host, rho(x).astype(complex))
    assert np.max(np.abs(log_potential_nodes(sd) - exact(x))) <= 1.05 * measured


@pytest.mark.parametrize(("per", "tol"), [(16, 1e-13), (64, 5e-13)])
def test_on_node_potential_of_the_circular_arc_equilibrium(per, tol):
    # |theta| <= 1.1 on the unit circle: the potential is log sin(0.55) on
    # the arc; the first-order rule missed by 5.4e-4 / 1.3e-4 at 128 / 512 nodes
    alpha = 1.1
    host = build_arc_system([{"type": "circular", "radius": 1.0, "theta_a": -alpha,
                              "theta_b": alpha, "panels": 8, "nodes_per_panel": per}])
    sd = SampledDensity(host, circular_arc_equilibrium(alpha, np.angle(host.nodes)) + 0j)
    # unit mass up to the rounding of the rule's sqrt(1 - tau^2) at the ends
    assert abs(np.sum(sd.values.real * host.weights) - 1.0) <= 1e-13
    want = math.log(math.sin(0.5 * alpha))
    assert np.max(np.abs(log_potential_nodes(sd) - want)) <= tol


@pytest.mark.parametrize("per", [16, 128])
def test_on_node_potential_of_the_ellipse_equilibrium(per):
    host = build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0],
                                 "panels": 8, "nodes_per_panel": per})
    sd = SampledDensity(host, ellipse_equilibrium(host.dz_dtheta) + 0j)
    assert np.max(np.abs(log_potential_nodes(sd) - math.log(1.5))) <= 1e-14


BITWISE_HOSTS = {
    "circle": lambda: circle_host(per=5),
    "ellipse": lambda: build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0],
                                             "panels": 8, "nodes_per_panel": 512}),
    "segment": lambda: segment_host(per=64),
    "three arcs": lambda: build_arc_system([
        {"type": "segment", "a": -1.0, "b": -0.3, "panels": 8, "nodes_per_panel": 8},
        {"type": "circular", "radius": 1.0, "theta_a": 0.3, "theta_b": 1.4,
         "panels": 8, "nodes_per_panel": 300},
        {"type": "segment", "a": [0.2, -1.0], "b": [1.0, -1.2], "panels": 8,
         "nodes_per_panel": 33}]),
}


@pytest.mark.parametrize("name", sorted(BITWISE_HOSTS))
def test_on_node_loop_is_bitwise_the_all_node_potential(name):
    # blocks of rows differ between the two (4 rows of the 4096-node ellipse
    # per block, one row per call), the answers may not
    host = BITWISE_HOSTS[name]()
    rng = np.random.default_rng(7)
    sd = SampledDensity(host, rng.standard_normal(host.n_nodes) + 0j)
    loop = np.array([log_potential(sd, z) for z in host.nodes])
    assert np.array_equal(loop, log_potential_nodes(sd))


@pytest.mark.parametrize("name", sorted(BITWISE_HOSTS))
def test_log_potential_looks_up_an_exact_node(name, monkeypatch):
    # an exact node is found in the host's node map, with no nearest-node
    # search; a point 1e-12 off a node takes the search and lands on it
    host = BITWISE_HOSTS[name]()
    sd = SampledDensity(host, np.random.default_rng(3).standard_normal(host.n_nodes) + 0j)
    want = log_potential_nodes(sd)
    with monkeypatch.context() as m:
        m.setattr(np, "argmin", None)
        exact = np.array([log_potential(sd, z) for z in host.nodes])
    assert exact.tobytes() == want.tobytes()
    off = np.array([log_potential(sd, z + 1e-12) for z in host.nodes])
    assert off.tobytes() == want.tobytes()


def test_a_contour_of_32_times_an_odd_node_count_takes_the_proxies(monkeypatch):
    # 4000 = 32 x 125: after 32 proxies the loop steps to 80, the smallest
    # even divisor of 4000 from 64 on, of which 64 rows are new; S takes the
    # kernel table at 80 proxies too
    rows = []
    log_rows = quadrature._log_rows

    def counting(t, q, x, *args, **kwargs):
        rows.append(x.size)
        return log_rows(t, q, x, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_log_rows", counting)
    host = build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0],
                                 "panels": 8, "nodes_per_panel": 500})
    rho = 1.0 + 0.3 * host.nodes.real
    got = log_potential_nodes(SampledDensity(host, rho + 0j))
    assert rows == [32, 64]
    gap = np.max(np.abs(got - log_potential_nodes_direct(host, rho)))
    assert gap <= DIRECT_SUM_TOLERANCE["closed"] * np.sum(np.abs(host.weights * rho))
    singular_S(SampledDensity(host, np.exp(3j * host.params)))
    assert vars(host)["_kernel_table"][0] == 80


def test_a_contour_whose_node_count_32_does_not_divide_takes_the_proxies(monkeypatch):
    # 1000 = 8 x 125: the proxies start at 40, the smallest even divisor of
    # 1000 from 32 on, and 40 rows resolve the potential's remainder and S's
    log_rows, cauchy_sum = quadrature._log_rows, quadrature._cauchy_sum
    rows, s_rows = [], []

    def counting(t, q, x, *args, **kwargs):
        rows.append(x.size)
        return log_rows(t, q, x, *args, **kwargs)

    def counting_s(t, z, *args, **kwargs):
        s_rows.append(z.size)
        return cauchy_sum(t, z, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_log_rows", counting)
    monkeypatch.setattr(quadrature, "_cauchy_sum", counting_s)
    host = build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0],
                                 "panels": 8, "nodes_per_panel": 125})
    rho = 1.0 + 0.3 * host.nodes.real
    got = log_potential_nodes(SampledDensity(host, rho + 0j))
    assert rows == [40]
    gap = np.max(np.abs(got - log_potential_nodes_direct(host, rho)))
    assert gap <= DIRECT_SUM_TOLERANCE["closed"] * np.sum(np.abs(host.weights * rho))
    g = SampledDensity(host, np.exp(3j * host.params))
    back = singular_S(singular_S(g)).values
    assert s_rows == [40, 40]
    assert np.max(np.abs(back - g.values)) <= 1e-14


def test_on_node_potential_refuses_chain_arcs():
    chain = {"type": "chain", "nodes": [[2.0 + 0.1 * k, 0.02 * k * k] for k in range(12)]}
    host = build_arc_system([{"type": "segment", "a": -1.0, "b": 1.0, "panels": 4,
                              "nodes_per_panel": 8}, chain])
    sd = SampledDensity(host, np.ones(host.n_nodes, dtype=complex))
    assert math.isfinite(log_potential(sd, host.nodes[3]))
    with pytest.raises(GeometryError):
        log_potential(sd, host.nodes[-1])
    with pytest.raises(GeometryError):
        log_potential_nodes(sd)
    with pytest.raises(TypeError):
        log_potential_nodes(MeasureEstimate(curve_density=sd))


@pytest.mark.parametrize("edit", ["in place", "one entry in place", "reassigned"])
def test_on_node_memo_follows_the_values(edit):
    # a density is a frozen record of a read-only copy of its values: an
    # edit is refused, the memo stands, and a changed density is a new one
    host = segment_host(per=16)
    rng = np.random.default_rng(3)
    given = rng.standard_normal(host.n_nodes) + 0j
    sd = SampledDensity(host, given)
    text = repr(sd)
    before = log_potential(sd, host.nodes[5])
    assert repr(sd) == text  # the memo is no field
    memo = vars(sd)["_node_potential"]  # held by quadrature._held
    given[:] = 0.0  # the caller's array is not the density's
    assert sd.values is not given
    new = sd.values + rng.standard_normal(host.n_nodes)
    if edit == "in place":
        with pytest.raises(ValueError):
            sd.values[:] = new
    elif edit == "one entry in place":
        new = sd.values.copy()
        new[3] += 0.5
        with pytest.raises(ValueError):
            sd.values[3] += 0.5
    else:
        with pytest.raises(AttributeError):
            sd.values = new
    assert log_potential(sd, host.nodes[5]) == before
    assert vars(sd)["_node_potential"] is memo
    fresh = SampledDensity(host, new)
    assert log_potential(fresh, host.nodes[5]) != before
    assert np.array_equal(log_potential_nodes(fresh),
                          log_potential_nodes(SampledDensity(host, new)))
    assert not np.array_equal(log_potential_nodes(fresh), log_potential_nodes(sd))


@st.composite
def potential_ellipses(draw):
    """A rotated ellipse of axis ratio 1-4, up to 10 diameters from the
    origin, with 32 k nodes, 1024 to 4096: p = 32 always divides them."""
    a = draw(st.floats(0.5, 3.0))
    b = a / draw(st.floats(1.0, 4.0))
    n = 32 * draw(st.integers(32, 128))
    spin = np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    centre = 20.0 * a * draw(st.complex_numbers(max_magnitude=1.0, **FLOATS))
    th = 2.0 * np.pi * np.arange(n) / n
    return ClosedContour(centre + spin * (a * np.cos(th) + 1j * b * np.sin(th)),
                         spin * (-a * np.sin(th) + 1j * b * np.cos(th)), 8)


@st.composite
def potential_arcs(draw):
    """One to three segments and circular arcs, each in its own 5-wide box,
    of 32 to 512 nodes."""
    arcs = []
    for x in 5.0 * np.arange(draw(st.integers(1, 3))):
        per = draw(st.integers(4, 64))
        if draw(st.booleans()):
            a = [x + draw(st.floats(-2.0, -0.5)), draw(st.floats(-1.0, 1.0))]
            b = [x + draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0))]
            arcs.append({"type": "segment", "a": a, "b": b, "panels": 8, "nodes_per_panel": per})
        else:
            theta_a = draw(st.floats(-np.pi, np.pi))
            arcs.append({"type": "circular", "center": [x, 0.0],
                         "radius": draw(st.floats(0.5, 2.0)), "theta_a": theta_a,
                         "theta_b": theta_a + draw(st.floats(0.3, 5.0)),
                         "panels": 8, "nodes_per_panel": per})
    return build_arc_system(arcs)


def trig_or_chebyshev(host, coeffs, weighted):
    """sum_k c_k cos(k th + k) on a contour; on each arc sum_k c_k T_k(tau),
    over sqrt(1 - tau^2) if ``weighted``."""
    if isinstance(host, ClosedContour):
        th = 2.0 * np.pi * np.arange(host.n_nodes) / host.n_nodes
        return sum(c * np.cos(k * th + k) for k, c in enumerate(coeffs))
    tau = host.params
    rho = np.polynomial.chebyshev.chebval(tau, coeffs)
    return rho / np.sqrt(1.0 - tau * tau) if weighted else rho


def recovered_noise(host):
    """``recover_curve_density`` of two charges a diameter or more off the
    curve: their potential is harmonic across it, so the density is the
    ladder's noise alone."""
    c, d = np.mean(host.nodes), host.diameter()

    def u(z):
        return math.log(abs(z - c - 3j * d)) - 0.5 * math.log(abs(z - c + 2.0 * d))

    return recover_curve_density(u, host).curve_density.values.real


@st.composite
def on_node_densities(draw):
    """(kind, host, rho): a series of ``trig_or_chebyshev``, seeded
    standard-normal samples, or on a contour a recovered density."""
    kind = draw(st.sampled_from(["series", "normal", "recovered"]))
    hosts = potential_ellipses()
    host = draw(hosts if kind == "recovered" else hosts | potential_arcs())
    if kind == "normal":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return kind, host, rng.standard_normal(host.n_nodes)
    if kind == "recovered":
        return kind, host, recovered_noise(host)
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9))
    return kind, host, trig_or_chebyshev(host, coeffs, draw(st.booleans()))


# c of the tolerance c * sum |q| against the direct sums, about twice the
# largest |u - direct| / sum |q| measured over 500 ellipses (5.4e-15) and
# 800 arc systems (7.2e-14) of these strategies.  On arcs the direct sums
# are the noisier side: their chord |t_j - t_k| between graded end nodes,
# some 1e-5 apart, carries the rounding eps |t| of nodes up to 10 from the
# origin, which the closed form in the parameter does not (the worst case
# moved to the origin differs by 1.3e-14 instead of 1.6e-13).  A recovery's
# noise peaks at those end nodes (up to 8.6e-13 there), so it is drawn on
# contours only
DIRECT_SUM_TOLERANCE = {"closed": 1e-14, "arcs": 1.5e-13}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=on_node_densities())
def test_on_node_potential_is_the_direct_sum(case):
    # the remainder interpolated from proxies on resolved curves, whatever
    # the density, summed at the nodes otherwise: the direct sums to rounding
    _, host, rho = case
    q = host.weights * rho
    got = log_potential_nodes(SampledDensity(host, rho + 0j))
    gap = np.max(np.abs(got - log_potential_nodes_direct(host, rho)))
    kind = "closed" if isinstance(host, ClosedContour) else "arcs"
    assert gap <= DIRECT_SUM_TOLERANCE[kind] * np.sum(np.abs(q))


@pytest.mark.parametrize("host", [
    lambda: build_closed_contour({"type": "rounded-polygon", "corner_radius": 0.25, "panels": 8,
                                  "nodes_per_panel": 512, "vertices": [[1.2, 0.0], [0.0, 1.0],
                                                                       [-1.1, 0.1], [-0.2, -1.0]]}),
    lambda: circle_host(per=15),
    lambda: build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0], "panels": 8,
                                  "nodes_per_panel": 12}),
], ids=["library polygon-4096", "circle-120", "ellipse-96"])
@pytest.mark.parametrize("smooth", [True, False])
def test_on_node_potential_without_proxies_is_bitwise_the_direct_sum(host, smooth):
    # a curve whose z' is not resolved (corners), and fewer than 128 nodes:
    # no proxies, the direct rows at every node
    host = host()
    rho = (1.0 + 0.3 * host.nodes.real if smooth
           else np.random.default_rng(5).standard_normal(host.n_nodes))
    got = log_potential_nodes(SampledDensity(host, rho + 0j))
    assert got.tobytes() == log_potential_nodes_direct(host, rho).tobytes()


def test_on_node_potentials_that_overflow_raise():
    # 1e308 overflows the Fourier part (NaN before); 1e300 is fine
    host = circle_host(per=32)
    huge = SampledDensity(host, np.full(host.n_nodes, 1e308, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match="log_potential_nodes"):
            log_potential_nodes(huge)
    u = log_potential_nodes(SampledDensity(host, np.full(host.n_nodes, 1e300, dtype=complex)))
    assert np.isfinite(u).all() and np.max(np.abs(u)) <= 1e-12 * 1e300


@pytest.mark.parametrize("z", [1.0, 3.0])
def test_log_potentials_that_overflow_raise(z):
    # of 1e308 at a node (NaN before) and outside, where the exact value
    # 1e308 * 2 pi log 3 overflows; 1e300 is fine there and inside, where
    # the potential is 0
    host = circle_host(per=32)
    with np.errstate(over="ignore", invalid="ignore"):
        for measure in (SampledDensity(host, np.full(host.n_nodes, 1e308, dtype=complex)),
                        MeasureEstimate(curve_density=SampledDensity(
                            host, np.full(host.n_nodes, 1e308, dtype=complex)))):
            with pytest.raises(OverflowError, match="log_potential"):
                log_potential(measure, z)
    sd = SampledDensity(host, np.full(host.n_nodes, 1e300, dtype=complex))
    assert abs(log_potential(sd, z) - 1e300 * 2.0 * math.pi * math.log(z)) <= 1e-12 * 1e300
    assert abs(log_potential(sd, 0.1j)) <= 1e-12 * 1e300


def test_curve_potential_takes_the_rule_once_per_density(monkeypatch):
    # the weighted samples and the values at the nodes come from the memo
    # after the first call, on the nodes and off the curve
    import cauchypot.potential as potential

    calls = []
    log_arcs = potential._log_arcs

    def counted(host, q):
        calls.append(host)
        return log_arcs(host, q)

    monkeypatch.setattr(potential, "_log_arcs", counted)
    sd = equilibrium_density({"type": "segment", "a": -1.0, "b": 1.0}).curve_density
    calls.clear()
    for z in sd.host.nodes:
        log_potential(sd, z)
        log_potential(sd, z + 2.0j)
    log_potential_nodes(sd)
    assert len(calls) == 1


def test_segment_potential_off_curve_matches_branch():
    sd = equilibrium_density({"type": "segment", "a": -1.0, "b": 1.0}).curve_density
    for z in (2.0, 3.0 + 2.0j, -0.4 + 1.1j):
        assert abs(log_potential(sd, z) - segment_green(z)) <= 1e-12


def arcsine(host):
    """The unit-mass arcsine density on every segment of a system."""
    rho = [1.0 / (math.pi * np.sqrt(np.abs(arc.nodes - arc.a) * np.abs(arc.b - arc.nodes)))
           for arc in host.arcs]
    return SampledDensity(host, np.concatenate(rho).astype(complex))


@pytest.mark.parametrize("per", [4, 8, 16])
def test_on_node_potential_adds_the_other_arc_in_closed_form(per):
    # at the nodes of [-1, -0.3], the second segment [0.2, 1] adds its Green
    # potential log(r/2) + log|w - sqrt(w^2 - 1)|, w = (x - 0.6)/r < -1, r = 0.4
    left = {"type": "segment", "a": -1.0, "b": -0.3, "panels": 8, "nodes_per_panel": per}
    right = {"type": "segment", "a": 0.2, "b": 1.0, "panels": 8, "nodes_per_panel": per}
    alone = arcsine(build_arc_system([left]))
    both = arcsine(build_arc_system([left, right]))
    for x in alone.host.nodes:
        w = (x.real - 0.6) / 0.4
        green = math.log(0.2) + math.log(math.sqrt(w * w - 1.0) - w)
        assert abs(log_potential(both, x) - log_potential(alone, x) - green) <= 1e-13


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
    u = lambda z: max(math.log(abs(z)), 0.0)
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
    u = segment_green
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
    est = recover_curve_density(segment_green, host)
    k0 = int(np.argmin(np.abs(host.nodes.real)))
    assert abs(est.curve_density.values.real[k0] - 1.0 / np.pi) <= 1e-4


def test_harmonic_addend_contributes_nothing():
    # recovery is local: log|z - 5| is harmonic near the circle and must not
    # move the density
    host = circle_host(per=32)
    base = lambda z: 0.5 * max(math.log(abs(z)), 0.0)
    bumped = lambda z: base(z) + math.log(abs(z - 5.0))
    d1 = recover_curve_density(base, host)
    d2 = recover_curve_density(bumped, host)
    diff = np.abs(d1.curve_density.values - d2.curve_density.values)
    assert np.max(diff) <= 1e-6
    assert np.max(np.abs(d1.curve_density.values.real - 1.0 / (4.0 * np.pi))) <= 1e-6


def test_consistency_loop_circle():
    host = circle_host(per=32)
    u = lambda z: max(math.log(abs(z)), 0.0)
    est = recover_curve_density(u, host)
    for z in (2.0, -1.7 + 0.6j):
        assert abs(log_potential(est.curve_density, z) - math.log(abs(z))) <= 1e-3


def test_consistency_loop_segment():
    host = segment_host(per=32)
    est = recover_curve_density(segment_green, host)
    # off the curve, against the analytic Green potential
    for z in (2.0, 0.3 + 1.2j):
        assert abs(log_potential(est.curve_density, z) - segment_green(z)) <= 1e-3
    # back on the segment the potential must flatten out at -log 2, at every
    # node (measured 2.9e-11, set by the recovered density)
    assert np.max(np.abs(log_potential_nodes(est.curve_density) + LOG2)) <= 1e-10


def test_host_diameter_computed_once(monkeypatch):
    # the diameter scales every near-curve cutoff; it is fixed by the nodes,
    # so one recovery plus a potential at and 1e-12 off every node measure
    # it only once (an exact node is looked up and needs no diameter)
    import cauchypot.geometry as geometry

    calls = []
    diameter = geometry._point_set_diameter

    def counted(pts):
        calls.append(pts.size)
        return diameter(pts)

    monkeypatch.setattr(geometry, "_point_set_diameter", counted)
    host = segment_host(per=64)
    assert host.n_nodes == 512
    est = recover_curve_density(segment_green, host)
    for z in host.nodes:
        log_potential(est.curve_density, z)
        log_potential(est.curve_density, z + 1e-12)
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


@pytest.mark.parametrize("levels", [1, 0, -3, 2.5, 3.0, "3", None, True, np.int64(1)])
def test_recovery_refuses_levels_that_are_not_an_integer_of_at_least_two(levels):
    # every bad value fails the one check up front, with the one error class
    with pytest.raises(ValueError, match="integer number of offset levels") as info:
        recover_curve_density(lambda z: 0.0, circle_host(), levels=levels)
    assert type(info.value) is ValueError


def test_recovery_takes_numpy_integer_levels():
    def u(z):
        return math.log(max(abs(z), 1.0))

    host = circle_host(per=16)
    want = recover_curve_density(u, host, levels=3)
    got = recover_curve_density(u, host, levels=np.int32(3))
    assert got.curve_density.values.tobytes() == want.curve_density.values.tobytes()


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

    est = recover_curve_density(u, host)
    assert est.flagged_nodes == [7]
    assert est.curve_density.values[7] == 0.0
    others = np.delete(est.curve_density.values.real, 7)
    assert np.max(np.abs(others - 1.0 / (2.0 * np.pi))) <= 1e-6


def test_recovery_hands_u_numpy_points():
    # u sees np.complex128 points: a division by zero in it gives inf and
    # flags the node, where a Python complex would raise ZeroDivisionError
    host = circle_host(per=8)
    bad = host.nodes[5]
    seen = set()

    def u(z):
        seen.add(type(z))
        with np.errstate(divide="ignore", invalid="ignore"):
            return max(math.log(abs(z)), 0.0) + 0.0 * (1.0 / (z - bad)).real  # NaN at node 5

    est = recover_curve_density(u, host)
    assert seen == {np.complex128}
    assert est.flagged_nodes == [5]


@pytest.mark.parametrize("h0", [-1e-4, 0.0, math.nan, "x", True, np.full(5, 1e-3),
                                [1e-3, [1e-3]]],
                         ids=["negative", "zero", "nan", "text", "bool", "wrong-size", "ragged"])
def test_recovery_rejects_a_bad_offset(h0):
    # a negative offset would walk the ladder to the wrong sides and negate
    # the measure; zero or NaN would flag every node instead of failing.
    # Every bad value fails the one check up front, as levels does, with
    # ValueError naming h0 (the 64-node circle takes a number or 64 of them)
    host = circle_host(per=8)
    with pytest.raises(ValueError, match="h0") as info:
        recover_curve_density(lambda z: max(math.log(abs(z)), 0.0), host, h0=h0)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("tol", [-1e-6, 0.0, math.nan, math.inf, "x", [1e-6]],
                         ids=["negative", "zero", "nan", "inf", "text", "array"])
def test_recovery_rejects_a_bad_tolerance(tol):
    # a negative or zero tolerance would flag every node, a NaN or infinite
    # one would switch the gap check off; each raises ValueError naming tol
    host = circle_host(per=8)
    with pytest.raises(ValueError, match="tol") as info:
        recover_curve_density(lambda z: max(math.log(abs(z)), 0.0), host, tol=tol)
    assert type(info.value) is ValueError


def test_recovery_takes_an_offset_per_node():
    def u(z):
        return math.log(max(abs(z), 1.0))

    host = circle_host(per=8)
    h0 = 1e-3 * host.local_panel_length
    want = recover_curve_density(u, host, h0=h0, tol=1e-6)
    got = recover_curve_density(u, host, h0=np.full(host.n_nodes, h0), tol=1e-6)
    assert got.curve_density.values.tobytes() == want.curve_density.values.tobytes()


FLOATS = dict(allow_nan=False, allow_infinity=False)


@st.composite
def recovery_hosts(draw):
    """A circle, an ellipse, or one or two disjoint segments and circular arcs."""
    per = draw(st.integers(4, 10))
    kind = draw(st.sampled_from(["circle", "ellipse", "arcs"]))
    if kind == "circle":
        return build_closed_contour({
            "type": "circle", "radius": draw(st.floats(0.3, 3.0)),
            "center": [draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))],
            "panels": 4, "nodes_per_panel": per})
    if kind == "ellipse":
        return build_closed_contour({
            "type": "ellipse", "semi_axes": [draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))],
            "panels": 4, "nodes_per_panel": per})
    arcs = []
    for x in 5.0 * np.arange(draw(st.integers(1, 2))):  # each arc in its own 5-wide box
        if draw(st.booleans()):
            a = [x + draw(st.floats(-2.0, -0.5)), draw(st.floats(-1.0, 1.0))]
            b = [x + draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0))]
            arcs.append({"type": "segment", "a": a, "b": b, "panels": 4, "nodes_per_panel": per})
        else:
            theta_a = draw(st.floats(-np.pi, np.pi))
            arcs.append({"type": "circular", "center": [x, 0.0],
                         "radius": draw(st.floats(0.5, 2.0)), "theta_a": theta_a,
                         "theta_b": theta_a + draw(st.floats(0.5, 2.5)),
                         "panels": 4, "nodes_per_panel": per})
    return build_arc_system(arcs)


def harmonic(coeffs, charges, z0=0.0, scale=1.0):
    """Re sum c_k w^k + sum m log|z - a| with w = (z - z0)/scale."""
    def u(z):
        w = (complex(z) - z0) / scale
        return (sum((c * w ** k).real for k, c in enumerate(coeffs))
                + math.fsum(m * math.log(abs(z - a)) for a, m in charges))
    return u


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    host=recovery_hosts(),
    coeffs=st.lists(st.complex_numbers(max_magnitude=1.0, **FLOATS), max_size=4),
    charges=st.lists(st.tuples(st.complex_numbers(max_magnitude=8.0, **FLOATS),
                               st.floats(-2.0, 2.0)), max_size=3),
    h0=st.one_of(st.none(), st.floats(1e-5, 1e-2)),
    levels=st.integers(2, 5),
    tol=st.one_of(st.none(), st.floats(1e-14, 1e-4)),
    period=st.sampled_from([5, 23, 2 ** 62]),
    seed=st.integers(0, 2 ** 16),
)
def test_batched_recovery_is_bitwise_the_node_by_node_loop(host, coeffs, charges, h0,
                                                           levels, tol, period, seed):
    charges = [(a, m) for a, m in charges if host.distance_to(a) > 0.05]
    smooth = harmonic(coeffs, charges)
    failures = (ValueError, OverflowError, FloatingPointError)

    def u(z):
        # fails at a fixed pseudo-random set of points, whatever the call order
        draw = hash((complex(z), seed)) % period
        if draw == 0:
            raise failures[seed % 3]("pole")
        return math.nan if draw == 1 else smooth(z)

    est = recover_curve_density(u, host, h0=h0, levels=levels, tol=tol)
    dens, mass, flagged = recover_curve_density_loop(u, host, host.weights,
                                                     h0, levels, tol)
    assert est.curve_density.values.tobytes() == dens.astype(complex).tobytes()
    assert np.float64(est.total_mass).tobytes() == np.float64(mass).tobytes()
    assert est.flagged_nodes == flagged


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    segment=st.booleans(),
    m=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
    centre=st.complex_numbers(max_magnitude=2.0, **FLOATS),
    size=st.floats(0.3, 3.0),
    per=st.integers(8, 32),
    coeffs=st.lists(st.complex_numbers(max_magnitude=1.0, **FLOATS), max_size=4),
    charge=st.floats(-2.0, 2.0),
)
def test_recovered_mass_is_conserved(segment, m, centre, size, per, coeffs, charge):
    # m times a unit-mass potential plus a harmonic term: the polynomial and
    # a charge two sizes off the curve carry no mass on it
    far = [(centre + 3.0 * size * (1.0 + 1.0j), charge)]
    extra = harmonic(coeffs, far, centre, size)
    if segment:
        a, b = centre.real - size, centre.real + size
        host = segment_host(per=per, a=a, b=b)
        unit = lambda z: segment_green((complex(z) - centre.real) / size) + math.log(size)
        tol = 1e-4
    else:
        host = circle_host(per=per, radius=size, center=(centre.real, centre.imag))
        unit = lambda z: max(math.log(abs(z - centre)), math.log(size))
        tol = 1e-6
    est = recover_curve_density(lambda z: m * unit(z) + extra(z), host)
    assert abs(est.total_mass - m) <= tol * abs(m)


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
        recover_area_density(lambda z: 0.0)


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


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -0.2])
def test_point_masses_refuse_a_non_finite_cluster_radius(radius):
    # a NaN radius passed the resolution guard and boxed no cell: every mass
    # 0; a radius that is not positive was refused as under-resolved
    grid, _ = area_grid(
        lambda X, Y: np.log(np.maximum(np.hypot(X - 0.013, Y + 0.007), 1e-300)), -1.0, 1.0, 0.02)
    with pytest.raises(ValueError, match="finite"):
        detect_point_masses(grid, cluster_radius=radius)


def test_area_recovery_refuses_a_nan_h_max():
    # a NaN maximum passed every spacing
    grid, _ = area_grid(lambda X, Y: X * Y, 0.0, 1.0, 0.25)
    with pytest.raises(ValueError, match="NaN"):
        recover_area_density(grid, h_max=math.nan)
    assert recover_area_density(grid, h_max=math.inf).total_mass == 0.0


def test_flat_grid_yields_no_atoms():
    grid = PotentialField(values=np.zeros((32, 32)), h=0.05)
    est = detect_point_masses(grid, cluster_radius=1.0)
    assert est.point_masses == []
    assert est.total_mass == 0.0


def test_clusters_are_the_labelled_components():
    # a ring whose bounding box holds a second cluster, inside the box of
    # an L round both; then random masks of several densities
    ring = np.zeros((11, 12), dtype=bool)
    ring[1:8, 1:9] = True
    ring[2:7, 2:8] = False
    ring[4, 4:6] = True
    ring[:10, 10] = ring[9, :11] = True
    masks = [ring] + [np.random.default_rng(seed).random((13, 17)) < p
                      for seed, p in enumerate((0.05, 0.3, 0.6, 0.95))]
    for mask in masks:
        labels, count = cluster_labels_8(mask)
        clusters = _clusters_8(mask)
        assert len(clusters) == count
        for c, cells in enumerate(clusters, 1):
            assert np.array_equal(cells, np.flatnonzero(labels == c))
    assert len(_clusters_8(ring)) == 3


def _assert_contour_moments(est, ref, radius, tol=1e-12):
    """The atoms of ``est`` are the reference's clusters, in order, each with
    the mass Re M0 and the position c + M1 / Re M0 of the contour moments
    round its box, or c where Re M0 is 0 or M0 vanishes (up to rounding)."""
    assert len(est.point_masses) == len(ref)
    for (a, m), (c, m0, m1, scale) in zip(est.point_masses, ref):
        assert abs(m - m0.real) <= tol * scale
        moment = tol * scale * 2.0 * radius  # |z - c| <= sqrt(2) radius on the box
        if a == c:
            assert m == 0.0 or abs(m0) <= 1e-11 * scale or abs(m1) <= moment
        else:
            assert abs((a - c) * m - m1) <= moment


def test_mass_box_takes_the_cells_at_exactly_one_radius():
    # a spike on a lattice point over a faint quadratic: the centroid is the
    # point itself, and the rows and columns one radius off lie on the box
    h = 0.25
    xs = h * np.arange(33)
    X, Y = np.meshgrid(xs, xs)
    values = 2.0 ** -10 * (X ** 2 + Y ** 2)
    values[16, 16] += 1.0
    est = detect_point_masses(PotentialField(values, 0.0, 0.0, h), 1.0)
    ref = point_mass_moments(values, 0.0, 0.0, h, 1.0)
    inside = point_mass_moments(values, 0.0, 0.0, h, 1.0 - 1e-12)
    assert [c for c, *_ in ref] == [c for c, *_ in inside] == [4 + 4j]
    _assert_contour_moments(est, ref, 1.0)
    assert abs(ref[0][1] - inside[0][1]) > 1e-3 * ref[0][2]


def _two_atoms(seed, h, n):
    """Two atoms of masses in [0.5, 1.5] near -1 and +1 on the n x n lattice
    of spacing h from -2 - 2i, each at a seeded cell with a fixed offset
    inside it: the layout of the benchmark's grid-atoms op."""
    rng = np.random.default_rng(seed)
    xs = -2.0 + h * np.arange(n)
    cells = rng.integers(-10, 11, size=(2, 2))
    atoms = np.array([complex(-1.0 + h * (cells[0, 0] + 0.37), h * (cells[0, 1] + 0.61)),
                      complex(1.0 + h * (cells[1, 0] + 0.37), h * (cells[1, 1] + 0.61))])
    masses = rng.uniform(0.5, 1.5, 2)
    Z = xs + 1j * xs[:, None]
    values = sum(m * np.log(np.abs(Z - a)) for a, m in zip(atoms, masses))
    return PotentialField(values, xs[0], xs[0], h), atoms, masses


# (spacing, points per axis, cluster radius, mass and position tolerances):
# each the smallest power of ten above five times the worst error measured
# over seeds 1-10, the position's over the radius (4.7e-8 and 3.1e-14 on the
# 801^2 lattice, 1.9e-6 and 2.2e-10 on the 201^2)
ATOM_LATTICES = [(0.005, 801, 0.1, 1e-6, 1e-12), (0.02, 201, 0.2, 1e-5, 1e-8)]


@pytest.mark.parametrize("h, n, radius, mass_tol, position_tol", ATOM_LATTICES)
def test_atoms_off_the_lattice_points_within_pinned_errors(h, n, radius, mass_tol, position_tol):
    for seed in range(1, 11):
        grid, atoms, masses = _two_atoms(seed, h, n)
        est = detect_point_masses(grid, cluster_radius=radius)
        found = sorted(est.point_masses, key=lambda am: am[0].real)
        assert len(found) == 2
        assert np.max(np.abs([m for _, m in found] - masses)) <= mass_tol
        assert np.max(np.abs([a for a, _ in found] - atoms)) <= position_tol * radius
        est.validate()


def test_zero_net_mass_pair_gives_finite_atoms():
    # +1 and -1 three cells apart make one cluster whose box holds both: M0
    # is what the cancellation leaves, and the position is far off but finite
    h = 0.02
    xs = -1.0 + h * np.arange(101)
    Z = xs + 1j * xs[:, None]
    values = np.log(np.abs(Z - (0.013 + 0.007j))) - np.log(np.abs(Z - (0.073 + 0.007j)))
    est = detect_point_masses(PotentialField(values, xs[0], xs[0], h), 0.2)
    (a, m), = est.point_masses
    assert math.isfinite(m) and math.isfinite(a.real) and math.isfinite(a.imag)
    assert abs(m) <= 1e-6
    _assert_contour_moments(est, point_mass_moments(values, xs[0], xs[0], h, 0.2), 0.2)


def test_box_clipped_at_the_lattice_edge_gives_finite_atoms():
    # an atom 1.37 cells inside the right edge: its box stops at the last
    # interior column, 0.37 cells past the atom, where the differences across
    # it are of order 2 and straddle the atom
    h = 0.02
    xs = -1.0 + h * np.arange(101)
    Z = xs + 1j * xs[:, None]
    atom = complex(xs[-1] - 1.37 * h, 0.21 + 0.61 * h)
    values = 0.7 * np.log(np.abs(Z - atom))
    est = detect_point_masses(PotentialField(values, xs[0], xs[0], h), 0.2)
    (a, m), = est.point_masses
    assert math.isfinite(m) and math.isfinite(a.real) and math.isfinite(a.imag)
    _assert_contour_moments(est, point_mass_moments(values, xs[0], xs[0], h, 0.2), 0.2)


@st.composite
def atom_lattices(draw):
    """A gridded potential and a cluster radius: atoms of either sign, near
    or beyond the lattice edges, optionally with a second atom within one
    cluster radius of the first; sparse spikes of heavy-tailed sizes, whose
    clusters take many shapes; or a flat lattice."""
    ny, nx = draw(st.integers(7, 40)), draw(st.integers(7, 40))
    h = draw(st.sampled_from([0.01, 0.05, 0.25]))
    x0, y0 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    radius = h * draw(st.floats(4.5, 2.0 * max(nx, ny)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["atoms", "spikes", "flat"]))
    if kind == "flat":
        values = np.full((ny, nx), float(draw(st.integers(-8, 8))))
    elif kind == "spikes":
        spikes = rng.random((ny, nx)) < draw(st.floats(0.01, 0.3))
        values = spikes * rng.standard_normal((ny, nx)) * 10.0 ** rng.uniform(-4.0, 0.0, (ny, nx))
    else:
        count = draw(st.integers(1, 4))
        a = (x0 + h * rng.uniform(-1.0, nx, count)) + 1j * (y0 + h * rng.uniform(-1.0, ny, count))
        if draw(st.booleans()):
            a = np.append(a, a[0] + radius * rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.random()))
        m = rng.choice([-1.0, 1.0], a.size) * rng.uniform(0.2, 2.0, a.size)
        Z = (x0 + h * np.arange(nx)) + 1j * (y0 + h * np.arange(ny))[:, None]
        with np.errstate(divide="ignore"):
            values = sum(mk * np.log(np.abs(Z - ak)) for ak, mk in zip(a, m))
        values = values + draw(st.floats(-1.0, 1.0)) * Z.real
        assume(np.isfinite(values).all())
    return PotentialField(values, x0, y0, h), radius


def _bits(x):
    return np.asarray(x, dtype=complex).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(lattice=atom_lattices())
def test_point_masses_are_the_contour_moments_of_their_boxes(lattice):
    # clusters and warnings bitwise those of the labelled components; masses
    # and positions the moments of the point-by-point reference
    grid, radius = lattice
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        est = detect_point_masses(grid, radius)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        ref = point_mass_moments(grid.values, grid.x0, grid.y0, grid.h, radius)
    assert [str(w.message) for w in got] == [str(w.message) for w in want]
    _assert_contour_moments(est, ref, radius)
    assert np.isfinite([v for am in est.point_masses for v in am]).all()
    assert _bits(est.total_mass) == _bits(math.fsum(m for _, m in est.point_masses))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(lattice=atom_lattices())
def test_area_recovery_is_bitwise_the_full_lattice_formula(lattice):
    grid, _ = lattice
    dens, mass = area_density_full_lattice(grid.values, grid.h)
    area = recover_area_density(grid)
    assert area.area_density.tobytes() == dens.tobytes()
    assert _bits(area.total_mass) == _bits(mass)


def test_grid_values_are_a_read_only_copy():
    # the field copies its values once, and the Laplacian that both grid
    # recoveries share is kept on it; an edit in place would leave it stale
    values = np.add.outer(np.arange(8.0), 2.0 * np.arange(9.0))
    grid = PotentialField(values, h=0.5)
    values[3, 3] = 1e6
    assert grid.values[3, 3] == 9.0
    with pytest.raises(ValueError):
        grid.values[3, 3] = 0.0
    with pytest.raises(AttributeError):
        grid.values = values
    area = recover_area_density(grid)
    assert detect_point_masses(grid, 2.0).point_masses == []
    lap = vars(grid)["_lattice_laplacian"]  # kept by the first recovery
    assert quadrature._held(grid, potential._lattice_laplacian) is lap
    assert not lap.flags.writeable
    assert area.area_density.tobytes() == area_density_full_lattice(grid.values, 0.5)[0].tobytes()


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
    est = recover_curve_density(segment_green, host)
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


def test_estimate_curve_csv_roundtrip(tmp_path):
    est = equilibrium_density({"type": "disk", "radius": 1.0})
    path = tmp_path / "curve.csv"
    write_density_csv(path, est.curve_density.values)
    back = read_density_csv(path, expect=est.curve_density.host.n_nodes)
    assert np.max(np.abs(back - est.curve_density.values)) == 0.0


def test_potential_field_validation():
    with pytest.raises(ValueError):
        PotentialField(values=np.zeros(16), h=0.1)
    with pytest.raises(ValueError):
        PotentialField(values=np.zeros((4, 4)), h=0.0)


def _field(cell=0.0, **spec):
    values = np.zeros((6, 6))
    values[2, 3] = cell
    return lambda tmp_path: PotentialField(values=values, **{"h": 0.1, **spec})


def _one_column_csv(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("x,y,u\n" + "".join(f"0.5,{0.1 * k!r},0\n" for k in range(6)))
    return read_potential_csv(path)


def _duplicated_point_csv(tmp_path):
    # x^2 + y^2 on a 6 x 6 lattice, the row of (0.2, 0.2) replaced by a second
    # (0, 0): the row count still matches, and the cell read 0.2, not 0.08
    xs = 0.1 * np.arange(6)
    X, Y = np.meshgrid(xs, xs)
    path = tmp_path / "u.csv"
    write_potential_csv(path, PotentialField(values=X ** 2 + Y ** 2, h=0.1))
    rows = path.read_text().splitlines()
    rows[1 + 2 * 6 + 2] = rows[1]
    path.write_text("\n".join(rows) + "\n")
    return read_potential_csv(path)


def _overflowing_point_masses(tmp_path):
    # the Laplacian's weighted sums overflow, with numpy's warnings: the
    # cluster's centroid was NaN and its box held no cell
    with np.errstate(over="ignore", invalid="ignore"):
        return detect_point_masses(_field(cell=1e307, h=0.5)(tmp_path), cluster_radius=2.0)


# (error class, call with a scratch directory)
REFUSALS = {
    "NaN cell": (ValueError, _field(cell=np.nan)),
    "infinite cell": (ValueError, _field(cell=-np.inf)),
    "NaN x0": (ValueError, _field(x0=np.nan)),
    "infinite y0": (ValueError, _field(y0=np.inf)),
    "NaN h": (ValueError, _field(h=np.nan)),
    "infinite h": (ValueError, _field(h=np.inf)),
    "point masses of a callable": (TypeError, lambda tmp_path: detect_point_masses(
        lambda z: 0.0, cluster_radius=1.0)),
    "point masses of an overflowing grid": (ValueError, _overflowing_point_masses),
    "csv lattice with one x": (SchemaError, _one_column_csv),
    "csv lattice point given twice": (SchemaError, _duplicated_point_csv),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_raise_their_class(tmp_path, case):
    cls, call = REFUSALS[case]
    with pytest.raises(cls) as info:
        call(tmp_path)
    assert info.type is cls


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


@pytest.mark.parametrize("seed", range(4))
def test_grid_csv_is_bytewise_the_per_cell_writer(tmp_path, seed):
    # signed zeros, subnormals and values near the ends of the exponent range
    rng = np.random.default_rng(seed)
    ny, nx = rng.integers(1, 12, 2)
    pool = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1.7976931348623157e308,
                     math.pi, -1.0 / 3.0])
    values = np.where(rng.random((ny, nx)) < 0.5, rng.choice(pool, (ny, nx)),
                      rng.standard_normal((ny, nx)) * 10.0 ** rng.integers(-300, 300, (ny, nx)))
    x0, y0, h = rng.choice([0.0, -0.0, -1.25, 1e-300]), rng.uniform(-3, 3), rng.choice([0.1, 1e-3, 0.3])
    _write_grid_csv(tmp_path / "rows.csv", "density", values, x0, y0, h)
    grid_csv_per_cell(tmp_path / "cells.csv", "density", values, x0, y0, h)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


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


def test_potential_csv_refuses_a_transposed_header(tmp_path):
    # a 5 x 7 lattice written as y,x,u columns under that header: read as
    # x,y,u it would come back as a 7 x 5 field with x0 and y0 swapped
    vals = np.random.default_rng(13).standard_normal((5, 7))
    path = tmp_path / "grid.csv"
    write_potential_csv(path, PotentialField(values=vals, x0=-0.5, y0=0.25, h=0.125))
    rows = [r.split(",") for r in path.read_text().splitlines()]
    path.write_text("".join(f"{y},{x},{u}\n" for x, y, u in rows))
    with pytest.raises(SchemaError, match="x,y,u"):
        read_potential_csv(path)


def test_potential_binary_refuses_a_partial_trailing_value(tmp_path):
    # 20 float64 values for a 5 x 4 header, then 3 stray bytes
    data = tmp_path / "grid.f64"
    header = tmp_path / "grid.json"
    data.write_bytes(np.arange(20.0).astype("<f8").tobytes() + b"\x00\x01\x02")
    header.write_text(json.dumps({"nx": 5, "ny": 4, "x0": 0, "y0": 0, "h": 0.1}))
    with pytest.raises(SchemaError, match="partial"):
        read_potential_binary(data, header)
    data.write_bytes(np.arange(20.0).astype("<f8").tobytes())
    assert read_potential_binary(data, header).values.shape == (4, 5)


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
