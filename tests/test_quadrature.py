"""Quadrature rules and principal values against independent references."""

import cmath
import functools
import gc
import hashlib
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from cauchypot import quadrature
from cauchypot.errors import AlignmentError, GeometryError
from cauchypot.arcs import bounded_solution, general_solution, solvability_moments
from cauchypot.cauchy import boundary_value, plemelj_residuals, singular_S
from cauchypot.closed import solve_closed
from cauchypot.geometry import (ClosedContour, _angles, _own_sigma, build_arc_system,
                                build_closed_contour)
from cauchypot.quadrature import (
    _exact_sums,
    analytic_pole_kernel,
    closed_node_derivative,
    fd4_arc_derivative,
    host_rule,
    integrate,
    integrate_arclength,
    neville,
)
from cauchypot.sampling import SampledDensity

from oracles import chebyshev_T, chebyshev_U, pv_arc_theta_dense, pv_segment_dense


def circle(n_per=16, panels=8, r=1.0):
    return build_closed_contour(
        {"type": "circle", "radius": r, "panels": panels, "nodes_per_panel": n_per}
    )


def segment(m=128, a=-1.0, b=1.0):
    return build_arc_system(
        [{"type": "segment", "a": [np.real(a), np.imag(a)],
          "b": [np.real(b), np.imag(b)], "panels": 8, "nodes_per_panel": m // 8}]
    )


# ---------------------------------------------------------------------------
# host rules
# ---------------------------------------------------------------------------

def test_trapezoid_integrates_entire_integrand_to_zero():
    c = circle(8, 8)  # 64 nodes
    val = integrate(SampledDensity.from_function(c, lambda t: t), c)
    assert abs(val) <= 1e-12


def test_first_kind_chebyshev_nodes_and_weights():
    # the graded rule on [-1, 1]: first-kind points, weights pi/m times the
    # first-kind weight function sqrt(1 - t^2)
    rule = segment(16)
    k = np.arange(16, 0, -1)
    assert np.array_equal(rule.params, np.cos((2 * k - 1) * np.pi / 32))
    assert np.allclose(rule.weights / np.sqrt(1.0 - rule.params ** 2), np.pi / 16,
                       rtol=1e-15, atol=0)


def test_first_kind_chebyshev_arcsine_integral():
    rule = segment(16)
    assert abs(integrate(1.0 / np.sqrt(1.0 - rule.nodes.real ** 2), rule) - np.pi) <= 1e-12


def test_second_kind_chebyshev_moment_matching():
    # int t^j sqrt(1-t^2) dt = B(j/2 + 1/2, 3/2) for even j, 0 for odd j; the
    # graded rule is exact while t^j (1 - t^2) has degree below 2m
    m = 8
    rule = segment(m)
    t = rule.nodes.real
    for j in range(2 * m - 2):
        exact = 0.0 if j % 2 else special.beta((j + 1) / 2.0, 1.5)
        assert abs(integrate(t ** j * np.sqrt(1.0 - t * t), rule) - exact) <= 1e-13


def test_integrate_checks_alignment():
    rule = circle(8, 8)
    with pytest.raises(AlignmentError):
        integrate(np.ones(65), rule)


@st.composite
def float_rows(draw):
    """1-8 rows of 0-4096 floats, of either sign or all positive, of
    magnitudes 10**e, e uniform in a drawn part of [-300, 308], with a
    drawn share made subnormal or signed zeros, a drawn share cancelled
    exactly by negated copies of others, and up to three infinities or
    NaNs."""
    n_rows = draw(st.integers(1, 8))
    n = draw(st.one_of(st.integers(0, 8), st.integers(0, 4096)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(st.integers(-300, 308))
    hi = draw(st.integers(lo, 308))
    sign = rng.choice([-1.0, 1.0], (n_rows, n)) if draw(st.booleans()) else 1.0
    rows = sign * 10.0 ** rng.uniform(lo, hi, (n_rows, n))
    tiny = rng.random((n_rows, n)) < draw(st.floats(0.0, 1.0))
    rows[tiny] = rng.integers(-(1 << 52), 1 << 52, np.count_nonzero(tiny)) * 5e-324
    zero = rng.random((n_rows, n)) < draw(st.floats(0.0, 1.0))
    rows[zero] = rng.choice([0.0, -0.0], np.count_nonzero(zero))
    pairs = int(draw(st.floats(0.0, 1.0)) * n) // 2
    cols = rng.permutation(n)
    rows[:, cols[pairs:2 * pairs]] = -rows[:, cols[:pairs]]
    if n:
        for value in draw(st.lists(st.sampled_from([math.inf, -math.inf, math.nan]),
                                   max_size=3)):
            rows[rng.integers(n_rows), rng.integers(n)] = value
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=float_rows())
@example(rows=np.array([[1e308, 1e308, -1e308]]))  # a finite sum that overflows fsum
@example(rows=np.array([[-0.0, -0.0], [5e-324, -5e-324]]))
@example(rows=np.empty((0, 3)))
def test_exact_sums_are_fsum_bit_for_bit(rows):
    want = []
    for row in rows:
        try:
            want.append(math.fsum(row))
        except (ValueError, OverflowError) as exc:
            want.append(type(exc))
    error = next((w for w in want if isinstance(w, type)), None)
    if error is not None:
        with pytest.raises(error):
            _exact_sums(rows)
        return
    for got, w in zip(_exact_sums(rows).tolist(), want):
        assert got == w or (math.isnan(got) and math.isnan(w))
        assert math.copysign(1.0, got) == math.copysign(1.0, w)


def test_integrals_and_moments_are_the_fsum_of_their_products():
    # the sums before they were exact: math.fsum of the real and of the
    # imaginary parts of the weighted samples, one row at a time
    host = build_arc_system([
        {"type": "segment", "a": [-1.0, 0.0], "b": [-0.3, 0.0], "panels": 8, "nodes_per_panel": 64},
        {"type": "circular", "center": [0.0, 0.5], "radius": 0.6, "theta_a": -0.3,
         "theta_b": 2.0, "panels": 8, "nodes_per_panel": 64}])
    g = np.cos(3 * host.nodes) + 0.5j * host.nodes ** 2

    def fsum_integral(w, v):
        p = w * v
        return complex(math.fsum(p.real), math.fsum(p.imag))

    assert integrate(g, host) == fsum_integral(host.dt_weights, g)
    assert integrate_arclength(g, host) == fsum_integral(host.weights, g)
    base = g / host.sqrtR_plus_nodes()
    want = np.array([fsum_integral(host.dt_weights, host.nodes ** k * base)
                     for k in range(host.n_arcs)])
    assert solvability_moments(SampledDensity(host, g)).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# principal values: PV int f(t)/(t - x) dt = pi*i S f(x) at a node x
# ---------------------------------------------------------------------------

def test_pv_constant_density_log_kernel_at_every_node():
    seg = segment(128)
    ones = SampledDensity(seg, np.ones(seg.n_nodes))
    x = seg.nodes.real
    for k in range(seg.n_nodes):
        val = 1j * np.pi * singular_S(ones, at_indices=k)
        exact = np.log((1.0 - x[k]) / (1.0 + x[k]))
        assert abs(val - exact) <= 1e-10


def test_pv_log_kernel_near_x_point_three():
    seg = segment(128)
    ones = SampledDensity(seg, np.ones(seg.n_nodes))
    k = int(np.argmin(np.abs(seg.nodes - 0.3)))
    x = seg.nodes[k].real
    val = 1j * np.pi * singular_S(ones, at_indices=k)
    assert abs(val - np.log((1.0 - x) / (1.0 + x))) <= 1e-12
    # the analytic value near x = 0.3 for orientation
    assert abs(np.log(0.7 / 1.3) - val) <= 0.02


def test_pv_closed_loop_half_residue():
    c = circle(16, 8)
    ones = SampledDensity(c, np.ones(c.n_nodes))
    for k in (0, 5, 17, 100):
        assert abs(1j * np.pi * singular_S(ones, at_indices=k) - 1j * np.pi) <= 1e-10


def test_pv_inverse_sqrt_chebyshev_identity_at_x_point_four():
    seg = segment(128)
    k = int(np.argmin(np.abs(seg.nodes - 0.4)))
    x_node = seg.nodes[k]
    f = SampledDensity(seg, 1.0 / np.sqrt(1.0 - seg.nodes.real ** 2))
    val = 1j * np.pi * singular_S(f, at_indices=k, density_class="inverse_sqrt")
    assert abs(val) <= 1e-10
    # independent oracle: t = cos(theta) turns the integrand into
    # 1/(cos(theta) - x) on (0, pi); regularize the theta pole
    x = x_node.real
    oracle = pv_arc_theta_dense(
        G=lambda th: np.ones_like(th),
        t_of_theta=np.cos,
        dt_dtheta=lambda th: -np.sin(th),
        theta_x=float(np.arccos(x)),
        x=x,
    )
    assert abs(oracle) <= 1e-8
    assert abs(val - oracle) <= 1e-8


def test_pv_smooth_density_against_dense_reference():
    # a smooth density against a dense Gauss-Legendre reference
    seg = segment(256)
    f = SampledDensity(seg, np.exp(seg.nodes.real))
    k = int(np.argmin(np.abs(seg.nodes - 0.25)))
    val = 1j * np.pi * singular_S(f, at_indices=k)
    ref = pv_segment_dense(np.exp, -1.0, 1.0, seg.nodes[k])
    assert abs(val - ref) <= 1e-4


def test_pv_linearity():
    seg = segment(64)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(seg.n_nodes) + 1j * rng.standard_normal(seg.n_nodes)
    v = rng.standard_normal(seg.n_nodes) + 1j * rng.standard_normal(seg.n_nodes)
    fu, fv = SampledDensity(seg, u), SampledDensity(seg, v)
    fw = SampledDensity(seg, 2.0 * u - 1.5j * v)
    k = 20
    a = 1j * np.pi * singular_S(fu, at_indices=k)
    b = 1j * np.pi * singular_S(fv, at_indices=k)
    w = 1j * np.pi * singular_S(fw, at_indices=k)
    assert abs(w - (2.0 * a - 1.5j * b)) <= 1e-12 * max(1.0, abs(w))


def test_pv_convergence_at_least_second_order():
    # halving panel width (doubling node count) gains >= 4x for smooth data;
    # 1/(t-2) keeps the coarse error well above the roundoff floor
    def err(m):
        seg = segment(m)
        f = SampledDensity(seg, 1.0 / (seg.nodes - 2.0))
        k = int(np.argmin(np.abs(seg.nodes - 0.25)))
        ref = pv_segment_dense(lambda t: 1.0 / (t - 2.0), -1.0, 1.0, seg.nodes[k])
        return abs(1j * np.pi * singular_S(f, at_indices=k) - ref)

    # two halvings: 2nd order predicts 16x, allow preasymptotic wobble
    e16, e64 = err(16), err(64)
    assert e64 <= e16 / 13.0


def test_pv_on_circular_arc_against_theta_reference():
    sys = build_arc_system(
        [{"type": "circular", "radius": 1.0, "theta_a": 0.4, "theta_b": 2.5,
          "panels": 8, "nodes_per_panel": 32}]
    )
    arc = sys.arcs[0]
    f = SampledDensity(sys, np.exp(-sys.nodes))
    k = 60
    val = 1j * np.pi * singular_S(f, at_indices=k)
    # dense reference in the arc's own angle variable
    th_a, th_b = arc.theta_a, arc.theta_b
    x = sys.nodes[k]

    # parametrize by s in (0, pi): theta = th_a + (th_b - th_a) * s / pi
    def t_of(s):
        return np.exp(1j * (th_a + (th_b - th_a) * s / np.pi))

    def dt_ds(s):
        return 1j * ((th_b - th_a) / np.pi) * np.exp(
            1j * (th_a + (th_b - th_a) * s / np.pi))

    # pole angle in s-units
    th_pole = np.angle(x)
    if th_pole < 0:
        th_pole += 2 * np.pi
    s_x = (th_pole - th_a) * np.pi / (th_b - th_a)
    ref = pv_arc_theta_dense(
        G=lambda s: np.exp(-t_of(s)) * dt_ds(s),
        t_of_theta=t_of,
        dt_dtheta=dt_ds,
        theta_x=float(s_x),
        x=x,
    )
    # smooth class on arcs is 2nd order; m = 256 puts this near 1e-5
    assert abs(val - ref) <= 1e-4


def test_pv_on_segment_beside_a_chain_arc():
    # chain arcs carry no graded rule; a pole on a segment still gets its
    # principal value, with the chain entering as a plain quadrature sum
    chain = [[v, 1.0] for v in np.linspace(-1.0, 1.0, 12)]
    sysm = build_arc_system([
        {"type": "segment", "a": [-1, 0], "b": [1, 0], "panels": 8, "nodes_per_panel": 16},
        {"type": "chain", "nodes": chain},
    ])
    ones = SampledDensity(sysm, np.ones(sysm.n_nodes))
    n_seg = sysm.arcs[0].n_nodes
    w_chain = sysm.dt_weights[n_seg:]
    t_chain = sysm.nodes[n_seg:]
    seg_nodes = np.arange(0, n_seg, 9)
    for k in seg_nodes:
        x = sysm.nodes[k].real
        exact = np.log((1.0 - x) / (1.0 + x)) + np.sum(w_chain / (t_chain - x))
        assert abs(1j * np.pi * singular_S(ones, at_indices=int(k)) - exact) <= 1e-10
    s_seg = singular_S(ones, at_indices=seg_nodes)
    want = [singular_S(ones, at_indices=int(k)) for k in seg_nodes]
    assert np.max(np.abs(s_seg - want)) <= 1e-14
    # a pole on the chain itself has no principal-value rule
    with pytest.raises(GeometryError):
        singular_S(ones, at_indices=n_seg + 3)
    with pytest.raises(GeometryError):
        singular_S(ones, at_indices=[0, n_seg + 3])


# ---------------------------------------------------------------------------
# the spectral operator on graded arcs
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    m=st.integers(2, 39),
    radius=st.floats(0.1, 10.0),
    centre=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    theta_a=st.floats(-7.0, 7.0),
    sweep=st.floats(0.1, 6.2),
    clockwise=st.booleans(),
)
def test_own_sigma_takes_the_root_of_sqrt_own_plus(m, radius, centre, theta_a, sweep,
                                                   clockwise):
    # the closed form's sign is -arc._sign, set by rule rather than by a
    # comparison with sqrt_own_plus; a wrong sign misses by 2
    theta_b = theta_a - sweep if clockwise else theta_a + sweep
    arc = build_arc_system([{
        "type": "circular", "center": [radius * centre[0], radius * centre[1]],
        "radius": radius, "theta_a": theta_a, "theta_b": theta_b,
        "panels": 1, "nodes_per_panel": m}]).arcs[0]
    u = _angles(m)
    want = arc.sqrt_own_plus
    got = _own_sigma(arc, u) * np.sin(u)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [16, 688, 4096])
@pytest.mark.parametrize("spec", [
    {"type": "segment", "a": [-1.0, 0.2], "b": [0.7, 1.1]},
    {"type": "circular", "center": [0.3, -0.2], "radius": 1.7, "theta_a": 0.4, "theta_b": -2.1},
], ids=["segment", "circular"])
def test_an_arc_holds_its_spectral_factors_bitwise_as_computed_afresh(spec, m):
    # the expressions S evaluated on every call before the arc held them
    arc = build_arc_system([{**spec, "panels": 1, "nodes_per_panel": m}]).arcs[0]
    u = _angles(m)
    j = np.arange(m - 1)
    fresh = {
        "_u": (u,),
        "_sin_of_u": (np.sin(u),),
        "_sigma": (_own_sigma(arc, u),),
        "_twiddles": (np.exp(-0.5j * np.pi * np.arange(m) / m) / m,
                      np.exp(0.5j * np.pi * np.arange(1, m) / m)),
        "_smooth": (np.fft.fft(np.where(j % 2 == 0, 2.0 / (j + 1), 0.0), 2 * m).conj(),
                    np.log((1.0 - arc.params) / (1.0 + arc.params))),
    }
    tables = {"_twiddles": quadrature._twiddles, "_smooth": quadrature._smooth}

    def read(name):  # a field of the arc, or a table S keeps on it
        return quadrature._held(arc, tables[name]) if name in tables else getattr(arc, name)

    for name, want in fresh.items():
        held = read(name)
        assert read(name) is held
        for h, w in zip(held if isinstance(held, tuple) else (held,), want, strict=True):
            assert h.dtype == w.dtype and h.tobytes() == w.tobytes()
            assert not h.flags.writeable


@pytest.mark.parametrize("per", [32, 128])
def test_S_and_the_bounded_solution_give_the_same_bytes_on_a_second_call(per):
    # below (512 nodes) and above (2048) the crossover; the moments, their
    # powers formed as each block of rows is summed, are bitwise the
    # integrals of t^k g / sqrt(R)+ taken one k at a time
    host = build_arc_system([
        {"type": "segment", "a": [-1.0, 0.0], "b": [-0.3, 0.0], "panels": 8, "nodes_per_panel": per},
        {"type": "circular", "center": [0.0, 0.5], "radius": 0.6, "theta_a": -0.3,
         "theta_b": 2.0, "panels": 8, "nodes_per_panel": per}])
    g = poly_values(host, [1.0, 0.5j, -0.3, 0.2])
    for c in ("smooth", "inverse_sqrt", "sqrt"):
        f = class_density(host, g, c)
        first = singular_S(f, density_class=c).values.tobytes()
        assert singular_S(f, density_class=c).values.tobytes() == first
    one, two = (bounded_solution(SampledDensity(host, g)) for _ in range(2))
    assert one.solution.values.tobytes() == two.solution.values.tobytes()
    assert one.moments.tobytes() == two.moments.tobytes()
    assert (one.residual, one.bounded) == (two.residual, two.bounded)
    base = g / host.sqrtR_plus_nodes()
    assert one.moments.tobytes() == np.array([integrate(host.nodes ** k * base, host)
                                              for k in range(host.n_arcs)]).tobytes()


def test_an_arc_system_holds_no_copy_of_the_nodes_off_each_arc():
    # S and the potential form the nodes of the other arcs where they sum
    # over them; a system of 64 segments once held 64 copies of about all
    # of its nodes, one per arc, and the solvability sums' powers, 64 rows
    # of all of its nodes each, until they were formed as they are summed
    th = 2.0 * np.pi * np.arange(64) / 64
    host = build_arc_system([
        {"type": "segment", "a": [0.8 * np.cos(t), 0.8 * np.sin(t)],
         "b": [1.2 * np.cos(t), 1.2 * np.sin(t)], "panels": 1, "nodes_per_panel": 24}
        for t in th])
    assert host.n_nodes >= quadrature._FMM_MIN_NODES
    g = SampledDensity(host, poly_values(host, [1.0, 0.5j, -0.3]))
    for c in ("smooth", "inverse_sqrt", "sqrt"):
        singular_S(class_density(host, g.values, c), density_class=c)
    bounded_solution(g)
    assert "_proxy_plan" in vars(host)
    held = [a for v in vars(host).values() for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray)]
    complements = {host.n_nodes - arc.n_nodes for arc in host.arcs}
    assert held and not any(a.shape[-1] in complements for a in held)
    assert not any(a.size >= host.n_arcs * host.n_nodes for a in held)


@pytest.mark.parametrize("density_class", ["inverse_sqrt", "sqrt", "smooth"])
def test_S_of_T3_plus_iT4_on_a_segment_in_closed_form(density_class):
    # T_n / sqrt(1 - x^2) -> -i U_{n-1}; sqrt(1 - x^2) T_n = sqrt(1 - x^2)
    # (U_n - U_{n-2}) / 2 with sqrt(1 - x^2) U_{n-1} -> i T_n; and pi*i*S p =
    # p(x) log((1 - x)/(1 + x)) + int (p(t) - p(x))/(t - x) dt for a polynomial p
    seg = segment(64)
    x = seg.nodes.real
    T, U = (lambda n: chebyshev_T(n, x)), (lambda n: chebyshev_U(n, x))
    p, w = T(3) + 1j * T(4), np.sqrt(1.0 - x ** 2)
    if density_class == "inverse_sqrt":
        f, want = p / w, -1j * (U(2) + 1j * U(3))
    elif density_class == "sqrt":
        f, want = p * w, 0.5j * (T(4) - T(2) + 1j * (T(5) - T(3)))
    else:
        divided = 8 * x ** 2 - 10 / 3 + 1j * (16 * x ** 3 - 32 * x / 3)
        f, want = p, (p * np.log((1 - x) / (1 + x)) + divided) / (1j * np.pi)
    got = singular_S(SampledDensity(seg, f), density_class=density_class).values
    assert np.max(np.abs(got - want)) <= 1e-13


@st.composite
def arc_systems(draw, arcs=(1, 3), per=lambda count: (48, 160), segments=st.booleans()):
    """``arcs`` segments or circular arcs (sweeps of either sign), arc k in
    the disk of radius 0.6 about 3k, each with ``per(number of arcs)``
    nodes; an arc is a segment where ``segments`` draws True."""
    specs = []
    count = draw(st.integers(*arcs))
    for k in range(count):
        c = 3.0 * k + draw(st.complex_numbers(max_magnitude=0.1, allow_nan=False,
                                              allow_infinity=False))
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        nodes = {"panels": 1, "nodes_per_panel": draw(st.integers(*per(count)))}
        if draw(segments):
            a = c + 0.5 * cmath.exp(1j * angle)
            specs.append({"type": "segment", "a": [a.real, a.imag],
                          "b": [2 * c.real - a.real, 2 * c.imag - a.imag], **nodes})
        else:
            sweep = draw(st.floats(0.3, 4.5)) * draw(st.sampled_from([-1.0, 1.0]))
            specs.append({"type": "circular", "center": [c.real, c.imag],
                          "radius": draw(st.floats(0.2, 0.5)), "theta_a": angle,
                          "theta_b": angle + sweep, **nodes})
    return build_arc_system(specs)


polynomials = st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                          allow_infinity=False), min_size=1, max_size=6)


def poly_values(host, coeffs):
    return np.polynomial.polynomial.polyval(host.nodes - np.mean(host.nodes), coeffs)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(host=arc_systems())
def test_S_annihilates_the_kernel_on_random_arc_systems(host):
    # S t^k / sqrtR+ = 0 for k < N, to rounding in the size of the density
    # (which grows like m at the end nodes); the dense pole subtraction
    # with its 4th-order diagonal missed by up to 7e-8 of it
    s_plus = host.sqrtR_plus_nodes()
    for k in range(host.n_arcs):
        f = host.nodes ** k / s_plus
        sf = singular_S(SampledDensity(host, f), density_class="inverse_sqrt").values
        assert np.max(np.abs(sf)) <= 1e-13 * np.max(np.abs(f))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(host=arc_systems(), coeffs=polynomials)
def test_bounded_solution_residual_on_random_arc_systems(host, coeffs):
    # S f0 = g + P at every node, to 1e-14 m |g| with m nodes on the finest
    # arc; the dense pole subtraction left up to 1.4e-7 m |g| on such systems
    g = poly_values(host, coeffs)
    report = bounded_solution(SampledDensity(host, g))
    m = max(arc.n_nodes for arc in host.arcs)
    assert report.residual <= 1e-14 * m * np.max(np.abs(g))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(host=arc_systems(), coeffs=polynomials, seed=st.integers(0, 2 ** 16),
       density_class=st.sampled_from(["smooth", "inverse_sqrt", "sqrt"]))
def test_S_is_linear_on_random_arc_systems(host, coeffs, seed, density_class):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(host.n_nodes) + 1j * rng.standard_normal(host.n_nodes)
    h = poly_values(host, coeffs)
    alpha, beta = complex(*rng.standard_normal(2)), 0.7 - 0.2j

    def S(v):
        return singular_S(SampledDensity(host, v), density_class=density_class).values

    want = alpha * S(f) + beta * S(h)
    assert np.max(np.abs(S(alpha * f + beta * h) - want)) <= 1e-12 * np.max(np.abs(want))


# 1-4 arcs of 1024-4096 nodes in all: segments, circular arcs, or both
large_arc_systems = st.one_of(
    *(arc_systems(arcs=(1, 4), per=lambda count: (-(-1024 // count), 4096 // count),
                  segments=kind) for kind in (st.just(True), st.just(False), st.booleans())))


def direct_S(f, density_class):
    """S with every arc remainder summed directly, as below the crossover."""
    with mock.patch.object(quadrature, "_FMM_MIN_NODES", 1 << 30):
        return singular_S(f, density_class=density_class).values


def class_density(host, v, density_class):
    """v times the class's power of sqrt(R)+ at the nodes."""
    s_plus = host.sqrtR_plus_nodes()
    return SampledDensity(host, {"smooth": v, "inverse_sqrt": v / s_plus,
                                 "sqrt": v * s_plus}[density_class])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(host=large_arc_systems, seed=st.integers(0, 2 ** 16),
       density_class=st.sampled_from(["smooth", "inverse_sqrt", "sqrt"]),
       picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12))
def test_planned_S_matches_the_direct_remainders_on_random_arc_systems(host, seed,
                                                                        density_class, picks):
    # the first proxies' remainders are products with the proxy plan's
    # kernels; rough data weigh every node alike
    assert quadrature._FMM_MIN_NODES <= host.n_nodes <= 4096
    rng = np.random.default_rng(seed)
    f = class_density(host, rng.standard_normal(host.n_nodes)
                      + 1j * rng.standard_normal(host.n_nodes), density_class)
    full = singular_S(f, density_class=density_class).values
    assert "_proxy_plan" in vars(host)
    gap = np.max(np.abs(full - direct_S(f, density_class)))
    assert gap <= 1e-14 * np.max(np.abs(f.values))
    idx = (np.array(picks) * host.n_nodes).astype(int)  # unsorted, may repeat
    got = singular_S(f, at_indices=idx, density_class=density_class)
    assert got.tobytes() == full[idx].tobytes()


def two_circular_arcs(per):
    return build_arc_system([
        {"type": "circular", "center": [0.0, 0.0], "radius": 1.0, "theta_a": lo,
         "theta_b": hi, "panels": 8, "nodes_per_panel": per} for lo, hi in ((0.3, 1.4), (2.2, 4.0))])


def test_the_proxy_plan_is_built_on_first_use_and_kept_with_its_host(monkeypatch):
    builds = []
    kernels = quadrature._proxy_plan

    @functools.wraps(kernels)
    def counting(host):
        builds.append(host.n_nodes)
        return kernels(host)

    monkeypatch.setattr(quadrature, "_proxy_plan", counting)
    host, small = two_circular_arcs(128), two_circular_arcs(32)
    assert host.n_nodes == 2048 and small.n_nodes < quadrature._FMM_MIN_NODES
    assert "_proxy_plan" not in vars(host) and "_proxy_plan" not in vars(small)
    g = poly_values(small, [1.0, 0.5j, -0.3])
    singular_S(SampledDensity(small, g))
    bounded_solution(SampledDensity(small, g))
    assert builds == [] and "_proxy_plan" not in vars(small)
    # one build serves every class, density, index set and solver
    g = SampledDensity(host, poly_values(host, [1.0, 0.5j, -0.3]))
    first = {c: singular_S(class_density(host, g.values, c), density_class=c).values
             for c in ("smooth", "inverse_sqrt", "sqrt")}
    assert builds == [host.n_nodes]
    plan = host._proxy_plan
    singular_S(SampledDensity(host, np.conj(g.values)))
    singular_S(g, at_indices=[7, 1030, 7])
    bounded_solution(g)
    general_solution(g)
    assert builds == [host.n_nodes] and host._proxy_plan is plan
    held = [a for kernels in plan if kernels for a in kernels if a is not None]
    assert len(held) == 4
    assert sum(a.nbytes for a in held) <= 2048 * host.n_nodes
    # two fresh hosts give the same bits whatever came first
    fresh = two_circular_arcs(128)
    singular_S(SampledDensity(fresh, np.ones(fresh.n_nodes)), at_indices=[5])
    general_solution(SampledDensity(fresh, g.values))
    for c, want in first.items():
        f = class_density(fresh, g.values, c)
        assert singular_S(f, density_class=c).values.tobytes() == want.tobytes()
    # the plan lives on the host and holds no reference to it
    ref = weakref.ref(host)
    del host, g, plan
    gc.collect()
    assert ref() is None


def test_no_arc_is_planned_among_five_equal_arcs():
    host = build_arc_system([{"type": "segment", "a": [3.0 * k, 0.0], "b": [3.0 * k + 1.0, 0.5],
                              "panels": 8, "nodes_per_panel": 32} for k in range(5)])
    assert host.n_nodes >= quadrature._FMM_MIN_NODES
    f = SampledDensity(host, poly_values(host, [1.0, 0.5j]))
    assert singular_S(f).values.tobytes() == direct_S(f, "smooth").tobytes()
    assert host._proxy_plan == (None,) * 5


# ---------------------------------------------------------------------------
# the operator on closed contours
# ---------------------------------------------------------------------------

ROUNDED_POLYGONS = (
    [[1.2, 0.0], [0.0, 1.0], [-1.1, 0.1], [-0.2, -1.0]],
    [[0.0, 0.0], [2.0, 0.0], [2.5, 1.0], [0.0, 1.5]],
)


@st.composite
def closed_contours(draw, kinds=("circle", "ellipse", "polygon"), per=(8, 16, 32, 64, 128)):
    """(kind, host): a circle (random center and radius), a 2:1 or 1.5:0.75
    ellipse (random center) or one of two rounded polygons, with 8 panels of
    ``per`` nodes (64-1024 nodes by default)."""
    kind = draw(st.sampled_from(kinds))
    c = draw(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
    nodes = {"panels": 8, "nodes_per_panel": draw(st.sampled_from(per))}
    if kind == "circle":
        spec = {"type": "circle", "center": [c.real, c.imag],
                "radius": draw(st.floats(0.2, 3.0))}
    elif kind == "ellipse":
        spec = {"type": "ellipse", "center": [c.real, c.imag],
                "semi_axes": draw(st.sampled_from([[2.0, 1.0], [1.5, 0.75]]))}
    else:
        spec = {"type": "rounded-polygon", "corner_radius": 0.2,
                "vertices": draw(st.sampled_from(ROUNDED_POLYGONS))}
    return kind, build_closed_contour({**spec, **nodes})


def trig_polynomial(host, degree, seed):
    """Frequencies k, |k| <= degree (capped below n/2), their random
    coefficients, and the trigonometric polynomial at the nodes."""
    degree = min(degree, host.n_nodes // 2 - 1)
    rng = np.random.default_rng(seed)
    k = np.arange(-degree, degree + 1)
    c = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
    return k, c, np.exp(1j * np.outer(host.params, k)) @ c


def closed_S(host, values):
    return singular_S(SampledDensity(host, values)).values


@settings(max_examples=40, deadline=None, derandomize=True)
@given(host=closed_contours(kinds=("circle",)), degree=st.integers(0, 511),
       seed=st.integers(0, 2 ** 16))
def test_S_of_fourier_modes_on_circles_is_sgn_plus(host, degree, seed):
    _, host = host
    # on a circle S e^{ik theta} = e^{ik theta} for k >= 0 and -e^{ik theta}
    # for k < 0, to rounding that grows with the node count
    k, c, g = trig_polynomial(host, degree, seed)
    want = np.exp(1j * np.outer(host.params, k)) @ (np.where(k >= 0, 1.0, -1.0) * c)
    assert np.max(np.abs(closed_S(host, g) - want)) <= 1e-15 * host.n_nodes * np.max(np.abs(g))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(host=closed_contours(), degree=st.integers(0, 511), seed=st.integers(0, 2 ** 16))
def test_S_is_an_involution_on_random_closed_contours(host, degree, seed):
    # a trigonometric polynomial of degree below n/2 is resolved on a circle
    # or an ellipse, so S(S g) = g to rounding; a rounded polygon's curvature
    # jumps where the corner arcs meet the edges, which limits the rule to
    # algebraic convergence, measured below 2/n at 64-1024 nodes
    kind, host = host
    _, _, g = trig_polynomial(host, degree, seed)
    back = closed_S(host, closed_S(host, g))
    tol = 4.0 / host.n_nodes if kind == "polygon" else 1e-12
    assert np.max(np.abs(back - g)) <= tol * np.max(np.abs(g))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(host=closed_contours(), degree=st.integers(0, 511), seed=st.integers(0, 2 ** 16))
def test_S_is_linear_on_random_closed_contours(host, degree, seed):
    _, host = host
    _, _, f = trig_polynomial(host, degree, seed)
    rng = np.random.default_rng(seed + 1)
    h = rng.standard_normal(host.n_nodes) + 1j * rng.standard_normal(host.n_nodes)
    alpha, beta = complex(*rng.standard_normal(2)), 0.7 - 0.2j
    want = alpha * closed_S(host, f) + beta * closed_S(host, h)
    got = closed_S(host, alpha * f + beta * h)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


PLEMELJ_LEVELS = 4


@settings(max_examples=30, deadline=None, derandomize=True)
@given(host=closed_contours(per=(1024, 2048)), degree=st.integers(0, 8),
       seed=st.integers(0, 2 ** 16))
def test_plemelj_jump_on_random_closed_contours(host, degree, seed):
    # C+ f - C- f = f for a Laurent polynomial f = sum_{|k| <= degree} a_k w^k,
    # w = (t - c)/delta about the node mean c (inside: every curve here is
    # convex), delta = min|t - c|, each mode scaled to max 1 on the curve.
    # The ladder's finest rung sits 10 node spacings off the curve, where the
    # trapezoid sums are resolved, so the tolerance is the extrapolation
    # error: Neville on h0, h0/2, ..., h0/2^(L-1) misses by at most
    # max|g^(L)| h0^L / (L! 2^(L(L-1)/2)), and on the rungs of w^k,
    # |g^(L)| <= (|k| + L - 1)^L |w^k| / r^L with r = delta - h0 the least
    # distance to c, where |w^k| is at most (1 + h0/r)^|k| times its
    # largest value on the curve.  Plus 1e-13 of the data for rounding.
    # Measured: at most 0.14 of this tolerance, at 8192 and 16384 nodes.
    _, host = host
    t, levels = host.nodes, PLEMELJ_LEVELS
    c = np.mean(t)
    delta = np.min(np.abs(t - c))
    k = np.arange(-degree, degree + 1)
    modes = ((t - c) / delta)[:, None] ** k
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) / np.max(
        np.abs(modes), axis=0)
    spacing = np.max(np.abs(t - np.roll(t, 1)))
    h0 = 10.0 * spacing * 2 ** (levels - 1)
    r = delta - h0
    miss = (((np.abs(k) + levels - 1) * h0 / r) ** levels * (1.0 + h0 / r) ** np.abs(k)
            / (math.factorial(levels) * 2 ** (levels * (levels - 1) // 2)))
    size = np.abs(a) * np.max(np.abs(modes), axis=0)
    idx = np.arange(0, t.size, t.size // 16)
    jump, _ = plemelj_residuals(SampledDensity(host, modes @ a), at_indices=idx,
                                h0=h0, levels=levels)
    assert jump <= np.sum(size * miss) + 1e-13 * np.sum(size)


def pole_subtracted_rows(host, f, nodes=None):
    """S f as the trapezoid rule on (f(t) - f(x))/(t - x) dt plus pi*i f(x),
    the diagonal term f'(x) dt, summed row by row over all nodes (or at the
    node indices ``nodes``)."""
    t, w = host.nodes, host.dt_weights
    df = closed_node_derivative(host, f)
    nodes = np.arange(t.size) if nodes is None else np.asarray(nodes)
    out = np.empty(nodes.size, dtype=complex)
    for lo in range(0, nodes.size, 64):
        rows = nodes[lo:lo + 64]
        on = (np.arange(rows.size), rows)
        den = t - t[rows, None]
        den[on] = 1.0
        reg = (f - f[rows, None]) / den
        reg[on] = df[rows]
        out[lo:lo + 64] = (np.sum(w * reg, axis=1) + f[rows] * 1j * np.pi) / (1j * np.pi)
    return out


def fallback_input(name):
    """A host whose S takes the pole-subtracted rows, and Laurent data on it."""
    rng = np.random.default_rng(3)
    p, q = (rng.standard_normal(201) + 1j * rng.standard_normal(201) for _ in range(2))
    if name == "under-resolved ellipse":
        host = build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0],
                                     "panels": 8, "nodes_per_panel": 64})
    else:
        per = {"polygon": 512, "polygon below the crossover": 64}[name]
        host = build_closed_contour({"type": "rounded-polygon", "corner_radius": 0.25,
                                     "vertices": ROUNDED_POLYGONS[0], "panels": 8,
                                     "nodes_per_panel": per})
        p, q = p[:33], q[:33]
    t = host.nodes
    g = (np.polynomial.polynomial.polyval(t / np.max(np.abs(t)), p)
         + np.polynomial.polynomial.polyval(np.min(np.abs(t)) / t, q) - q[0])
    return host, g


@pytest.mark.parametrize("name", ["polygon", "under-resolved ellipse",
                                  "polygon below the crossover"])
def test_S_falls_back_to_the_pole_subtracted_rows(name):
    # data on a rounded polygon are not smooth in the node parameter (the
    # curvature jumps), and degree-200 Laurent data on a 512-node ellipse
    # are far from resolved (S misses P - Q by about max|g|), so S is the
    # pole-subtracted rows.  Below the crossover they are summed directly,
    # bit for bit; the 4096-node polygon takes its far field from multipole
    # expansions, which agree with the direct sums to rounding
    host, g = fallback_input(name)
    got = singular_S(SampledDensity(host, g)).values
    want = pole_subtracted_rows(host, g)
    if name == "polygon":
        assert host.n_nodes >= quadrature._FMM_MIN_NODES
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(g))
    else:
        assert host.n_nodes < quadrature._FMM_MIN_NODES
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("vertices, per", [(ROUNDED_POLYGONS[0], 128),
                                           (ROUNDED_POLYGONS[1], 150)])
def test_multipole_rows_match_the_pole_subtracted_rows(vertices, per):
    # 1024 nodes (the crossover) and 1200, where the tree's boxes at one
    # level differ in size by a node; rough data weigh every box alike
    host = build_closed_contour({"type": "rounded-polygon", "corner_radius": 0.2,
                                 "vertices": vertices, "panels": 8, "nodes_per_panel": per})
    rng = np.random.default_rng(per)
    g = rng.standard_normal(host.n_nodes) + 1j * rng.standard_normal(host.n_nodes)
    got = closed_S(host, g)
    assert np.max(np.abs(got - pole_subtracted_rows(host, g))) <= 1e-14 * np.max(np.abs(g))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(host=closed_contours(per=(128, 150, 256, 512)), seed=st.integers(0, 2 ** 16),
       picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12))
def test_multipole_rows_match_the_direct_rows_on_random_closed_contours(host, seed, picks):
    # 1024-4096 nodes, 1200 where the tree's boxes at one level differ in
    # size by a node; rough data leave every remainder unresolved, so every
    # host takes the rows, and their far field comes from the expansions
    _, host = host
    assert host.n_nodes >= quadrature._FMM_MIN_NODES
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(host.n_nodes) + 1j * rng.standard_normal(host.n_nodes)
    f = SampledDensity(host, g)
    full = singular_S(f).values
    assert np.max(np.abs(full - pole_subtracted_rows(host, g))) <= 1e-14 * np.max(np.abs(g))
    idx = (np.array(picks) * host.n_nodes).astype(int)  # unsorted, may repeat
    assert singular_S(f, at_indices=idx).tobytes() == full[idx].tobytes()
    # the near field alone: the kernel's rows against the pole-subtracted
    # sums over the same near leaves
    got, want = near_rows(host, g)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(g))


def near_rows(host, g):
    """The near field of S's rows at every node, from the plan's kernel and
    summed directly with the pole subtraction over the same leaves."""
    plan = host._multipole_plan
    t, w, n = host.nodes, host.dt_weights, host.n_nodes
    df = quadrature.closed_node_derivative(host, g)
    leaf = plan.leaf
    pos = np.arange(n) - plan.first[leaf]
    every = np.ones(plan.first.size, dtype=bool)
    got = (plan._near(w * g, every)[leaf, pos] - g * plan._near(w, every)[leaf, pos]
           + w * df)
    a, b = plan._pairs[1].T
    want = np.empty(n, dtype=complex)
    for i in range(n):
        j = np.concatenate([plan.leaf_cols[q][plan.leaf_own[q]] for q in b[a == leaf[i]]])
        j = j[j != i]
        want[i] = np.sum(w[j] * (g[j] - g[i]) / (t[j] - t[i])) + w[i] * df[i]
    return got, want


def _plan_bytes(host):
    """The bytes of the arrays a host's multipole plan holds beyond the host's own."""
    own = (host.nodes, host.dt_weights)
    held = [a for v in vars(host._multipole_plan).values()
            for a in (v if isinstance(v, tuple) else (v,))]
    return sum(a.nbytes for a in held
               if isinstance(a, np.ndarray) and not any(np.shares_memory(a, o) for o in own))


def test_the_multipole_plan_is_built_on_first_use_and_kept_with_its_host(monkeypatch):
    builds = []
    plan = quadrature._MultipolePlan

    def counting(*args):
        builds.append(args[0].size)
        return plan(*args)

    monkeypatch.setattr(quadrature, "_MultipolePlan", counting)
    host, g = fallback_input("polygon")
    circle_1024 = circle(128, 8)
    small, _ = fallback_input("polygon below the crossover")
    assert builds == []
    # resolved data, or a host below the crossover: no plan
    closed_S(circle_1024, np.exp(3j * circle_1024.params))
    closed_S(small, np.random.default_rng(1).standard_normal(small.n_nodes))
    assert builds == []
    first = closed_S(host, g)
    assert builds == [host.n_nodes]
    # a second S, a second density, S at nodes and a solve reuse it
    assert closed_S(host, g).tobytes() == first.tobytes()
    closed_S(host, np.conj(g))
    singular_S(SampledDensity(host, g), at_indices=[3, 1, 3])
    solve_closed(SampledDensity(host, g), tolerance=None)
    assert builds == [host.n_nodes]
    # the 4096-node plan held 989 bytes per node: 768 of them the near
    # kernel's, and the M2L factors as r_B/d, -r_A/d and -1/d, not their powers;
    # the off-curve walk of plemelj_residuals adds nothing to it
    assert _plan_bytes(host) <= 1024 * host.n_nodes
    plemelj_residuals(SampledDensity(host, g))
    assert builds == [host.n_nodes]
    assert _plan_bytes(host) <= 1024 * host.n_nodes
    # the plan lives on the host and holds no reference to it
    ref = weakref.ref(host)
    del host
    gc.collect()
    assert ref() is None


def test_the_near_kernel_is_built_once_and_dies_with_its_host(monkeypatch):
    # S's leaves, pairs and near kernel come with the first S on the
    # multipole route; every later S, density, index set and solve reuses
    # them, and every array of the plan is read-only
    builds = []
    kernel = quadrature._MultipolePlan._kernel

    def counting(plan):
        builds.append(plan.nodes.size)
        return kernel.func(plan)

    counted = functools.cached_property(counting)
    counted.__set_name__(quadrature._MultipolePlan, "_kernel")
    monkeypatch.setattr(quadrature._MultipolePlan, "_kernel", counted)
    host, g = fallback_input("polygon")
    first = closed_S(host, g)
    assert builds == [host.n_nodes]
    held = host._multipole_plan._kernel
    closed_S(host, np.conj(g))
    singular_S(SampledDensity(host, g), at_indices=[9, 2, 9])
    solve_closed(SampledDensity(host, g), tolerance=None)
    assert closed_S(host, g).tobytes() == first.tobytes()
    assert builds == [host.n_nodes] and host._multipole_plan._kernel is held
    for v in vars(host._multipole_plan).values():
        for a in v if isinstance(v, tuple) else (v,):
            assert not isinstance(a, np.ndarray) or not a.flags.writeable
    ref = weakref.ref(held[0])
    del host, held
    gc.collect()
    assert ref() is None


def test_off_curve_sums_do_not_depend_on_the_leaves_of_S():
    # the walk shares S's leaves, and needs none of S's pairs or kernel.
    # Its sums on a 4096-node polygon are bitwise the same before and after
    # S builds its pairs and near kernel over those leaves; the hash is
    # theirs (numpy 2.4.6 on x86-64 Linux: re-pin it if numpy changes its
    # sums)
    host, g = fallback_input("polygon")
    z, k = off_curve_targets(host, np.random.default_rng(5), 400)

    def sums(h):
        return np.concatenate([quadrature._closed_cauchy_sum(h, z, g, g[k]),
                               quadrature._closed_cauchy_sum(h, z, g)])

    first = sums(host)
    closed_S(host, g)
    assert sums(host).tobytes() == first.tobytes()
    assert hashlib.sha256(first.tobytes()).hexdigest() == (
        "73bab810da1062daeb6955ac011c89303a84d9fed1f6088f57b9b967866a7800")


@pytest.fixture
def counted_rows(monkeypatch):
    """The target counts of every ``_cauchy_sum`` call, in call order."""
    counted = []
    kernel = quadrature._cauchy_sum

    def counting(t, z, *args, **kwargs):
        counted.append(z.size)
        return kernel(t, z, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_cauchy_sum", counting)
    return counted


def test_S_on_a_circle_sums_few_rows(counted_rows):
    # on a circle the remainder S f - H f is the mean of f, so zero-mean data
    # leave only rounding: below the crossover the first 32 proxies settle
    # it, and from there on the circle's kernel table (G = 0) sums no row
    for per in (64, 512):
        counted_rows.clear()
        host = circle(per, 8)
        k, c, g = trig_polynomial(host, 40, 11)
        g = g - np.mean(g)
        got = closed_S(host, g)
        want = np.exp(1j * np.outer(host.params, k)) @ (np.where(k > 0, 1.0, -1.0) * c)
        want = want - np.mean(want)
        if host.n_nodes < quadrature._FMM_MIN_NODES:
            assert 0 < sum(counted_rows) <= 64
        else:
            assert counted_rows == []
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(g))


def test_proxy_counts_step_to_the_next_even_divisor():
    # each the smallest even divisor of n at or above twice the last, from
    # 32 on, while 4p <= n: 32 and its doublings where they divide n; none
    # for an odd n or where 4 x 32 > n
    assert list(quadrature._proxy_counts(4096)) == [32, 64, 128, 256, 512, 1024]
    assert list(quadrature._proxy_counts(4000)) == [32, 80, 160, 400, 800]
    assert list(quadrature._proxy_counts(480)) == [32, 80]
    assert list(quadrature._proxy_counts(1200)) == [40, 80, 200]
    assert list(quadrature._proxy_counts(1000)) == [40, 100, 200]
    assert list(quadrature._proxy_counts(96)) == list(quadrature._proxy_counts(1001)) == []
    # capped, as the kernel table and S's probes from the crossover on: p**2 <= 16 n
    assert list(quadrature._proxy_counts(4096, capped=True)) == [32, 64, 128, 256]
    assert list(quadrature._proxy_counts(4000, capped=True)) == [32, 80, 160]
    assert list(quadrature._proxy_counts(1024, capped=True)) == [32, 64, 128]


# on the 40-lobe contour of the test below, over max|g| (max|S g| for the
# second S): twice the measured 1.02e-15 (S g) and 8.8e-16 (S(S g)) against
# the direct rows, and 1.44e-15 for S(S g) against the direct rows twice
LOBE_TOLERANCE = 2.1e-15
LOBE_INVOLUTION_TOLERANCE = 3.0e-15


def test_S_keeps_the_probed_rows_where_the_proxies_do_not_resolve(counted_rows):
    # r = 1 + 0.2 cos 40 th at 1024 nodes: z' and the data are resolved, but
    # the remainder is not at p = 32 ... 128, where the probes stop as the
    # kernel table's do (p**2 <= 16 n), and no table is built; S keeps the
    # 128 probed direct rows and takes the others from the multipole plan,
    # so S at any nodes is bitwise the full S.  1024 nodes
    # resolve S g on this curve only to a DFT tail of 1.6e-7, so S(S g) - g
    # is the rule's 1.05e-3 of max|g| there, on the direct rows as on these
    n = 1024
    th = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + 0.2 * np.cos(40 * th)
    host = ClosedContour(r * np.exp(1j * th), (-8.0 * np.sin(40 * th) + 1j * r) * np.exp(1j * th), 8)
    g = np.exp(3j * th) + 0.5 * np.exp(-2j * th)
    got = closed_S(host, g)
    assert counted_rows == [32, 32, 64]
    assert host._dz_resolved and host._kernel_table is None
    nodes = np.random.default_rng(5).choice(n, 50, replace=False)
    assert singular_S(SampledDensity(host, g), at_indices=nodes).tobytes() == got[nodes].tobytes()
    direct = pole_subtracted_rows(host, g)
    scale = np.max(np.abs(g))
    assert np.max(np.abs(got - direct)) <= LOBE_TOLERANCE * scale
    back = closed_S(host, got)
    assert np.max(np.abs(back - pole_subtracted_rows(host, got))) <= (
        LOBE_TOLERANCE * np.max(np.abs(got)))
    assert np.max(np.abs(back - pole_subtracted_rows(host, direct))) <= (
        LOBE_INVOLUTION_TOLERANCE * scale)
    assert np.max(np.abs(back - g)) <= 1.1e-3 * scale


def test_S_takes_one_dft_of_the_values_and_one_of_dz_per_host(monkeypatch):
    # the diagonal derivative reuses S's DFT of the values, and the host
    # keeps whether its dz/dtheta is resolved
    host = circle(64, 8)
    g = host.nodes ** 3 + 0.5 / (host.nodes - 0.1 + 0.2j)
    fft = np.fft.fft
    seen = []

    def counted(a, *args, **kwargs):
        seen.append(a)
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    first = closed_S(host, g)
    second = closed_S(host, g)
    whole = [a for a in seen if a.size == host.n_nodes]
    assert sum(a is host.dz_dtheta for a in whole) == 1
    assert sum(np.array_equal(a, g) for a in whole) == 2
    assert len(whole) == 3
    assert first.tobytes() == second.tobytes()


def test_S_at_one_polygon_node_sums_one_row(counted_rows):
    # the corners leave the remainder rough whatever the data, so even
    # smooth data in the node parameter are not probed
    host = build_closed_contour({"type": "rounded-polygon", "corner_radius": 0.25,
                                 "vertices": ROUNDED_POLYGONS[0], "panels": 8,
                                 "nodes_per_panel": 64})
    assert host.n_nodes < quadrature._FMM_MIN_NODES
    g = np.exp(3j * host.params)
    one = singular_S(SampledDensity(host, g), at_indices=5)
    assert counted_rows == [1]
    assert np.complex128(one).tobytes() == pole_subtracted_rows(host, g)[5].tobytes()


def test_S_at_one_polygon_node_above_the_crossover_sums_no_row(counted_rows):
    # the far field comes from the expansions and only the near leaves of
    # the node are summed, so no N-node row is formed
    host, g = fallback_input("polygon")
    one = singular_S(SampledDensity(host, g), at_indices=5)
    assert counted_rows == []
    assert np.complex128(one).tobytes() == closed_S(host, g)[5].tobytes()


def test_S_above_the_crossover_at_any_indices_is_bitwise_the_full_S():
    host = build_closed_contour({"type": "rounded-polygon", "corner_radius": 0.2,
                                 "vertices": ROUNDED_POLYGONS[1], "panels": 8,
                                 "nodes_per_panel": 150})
    assert host.n_nodes >= quadrature._FMM_MIN_NODES
    rng = np.random.default_rng(8)
    f = SampledDensity(host, rng.standard_normal(host.n_nodes)
                       + 1j * rng.standard_normal(host.n_nodes))
    full = singular_S(f).values
    for size in (1, 7, 300, 3 * host.n_nodes):
        idx = rng.integers(0, host.n_nodes, size)  # unsorted, may repeat
        assert singular_S(f, at_indices=idx).tobytes() == full[idx].tobytes()
    assert np.complex128(singular_S(f, at_indices=1199)).tobytes() == full[1199].tobytes()


def test_S_above_the_crossover_imports_nothing_beyond_numpy():
    # numpy is the one runtime dependency: a fresh interpreter that imports
    # the package and its CLI and applies S on a 4096-node polygon (the
    # multipole route) loads neither scipy nor numpy.ma, unless numpy itself
    # did (numpy 1.x imports numpy.ma)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "watched = ('scipy', 'numpy.ma')\n"
        "before = {m for m in watched if m in sys.modules}\n"
        "import cauchypot as cp\n"
        "import cauchypot.cli\n"
        "host = cp.build_closed_contour({'type': 'rounded-polygon', 'corner_radius': 0.25,\n"
        f"    'vertices': {ROUNDED_POLYGONS[0]}, 'panels': 8, 'nodes_per_panel': 512}})\n"
        "cp.singular_S(cp.SampledDensity(host, np.exp(3j * host.params)))\n"
        "print(sorted({m for m in watched if m in sys.modules} - before))\n"
    )
    src = str(Path(quadrature.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# S from the kernel table on smooth closed contours
# ---------------------------------------------------------------------------

# the largest axis ratio of the ellipses drawn at each node count, whose
# kernel table fits in 16 n entries: measured, p = 128 resolves the ratio 3.5
# at 1024 and 2048 nodes, p = 160 the ratio 4 at 4000, p = 256 the ratio 7 at
# 4096 and p = 512 the ratio 8 at 16384 (the last two at 0.76 and 0.90 of
# the threshold)
TABLE_RATIOS = {1024: 3.5, 2048: 3.5, 4000: 4.0, 4096: 7.0, 16384: 8.0}
# twice the worst of the 25 draws of the property below, over max|g|:
# measured 1.12e-13 against the direct rows and 6.4e-14 for S(S g) - g
TABLE_TOLERANCE = 2.3e-13
INVOLUTION_TOLERANCE = 1.3e-13


def ellipse_contour(n, ratio, scale=1.0, turn=0.0, center=0.0, start=0.0):
    """An ellipse of semi-axes ``scale`` and ``scale / ratio``, turned by
    ``turn`` about ``center``, at n nodes from the parameter ``start`` on."""
    th = start + 2.0 * np.pi * np.arange(n) / n
    rot = scale * np.exp(1j * turn)
    return ClosedContour(center + rot * (np.cos(th) + 1j / ratio * np.sin(th)),
                         rot * (-np.sin(th) + 1j / ratio * np.cos(th)), 8)


@st.composite
def table_ellipses(draw):
    """(host, g): a turned, moved and scaled ellipse of axis ratio up to its
    node count's ``TABLE_RATIOS`` entry, with trigonometric data of degree up
    to 64 or Laurent data of degree up to 32 about its centre."""
    n = draw(st.sampled_from(sorted(TABLE_RATIOS)))
    angle = st.floats(0.0, 2.0 * np.pi)
    host = ellipse_contour(
        n, draw(st.floats(1.0, TABLE_RATIOS[n])), draw(st.floats(0.1, 10.0)), draw(angle),
        draw(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)),
        draw(angle))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        _, _, g = trig_polynomial(host, draw(st.integers(0, 64)), int(rng.integers(2 ** 16)))
        return host, g
    degree = draw(st.integers(0, 32))
    p, q = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            for _ in range(2))
    w = host.nodes - np.mean(host.nodes)
    return host, (np.polynomial.polynomial.polyval(w / np.max(np.abs(w)), p)
                  + np.polynomial.polynomial.polyval(np.min(np.abs(w)) / w, q) - q[0])


def table_gaps(host, g, seed):
    """max|S g - the direct rows| (at every node; at 2048 nodes drawn from
    ``seed`` of 16384) and max|S(S g) - g|, each over max|g|."""
    got = closed_S(host, g)
    nodes = (None if host.n_nodes < 16384
             else np.random.default_rng(seed).choice(host.n_nodes, 2048, replace=False))
    want = pole_subtracted_rows(host, g, nodes)
    scale = np.max(np.abs(g))
    return (np.max(np.abs((got if nodes is None else got[nodes]) - want)) / scale,
            np.max(np.abs(closed_S(host, got) - g)) / scale)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=table_ellipses(), seed=st.integers(0, 2 ** 16))
# 40 semi-axes out, the nodes' rounding lifts the top of the table at p = 128
# to 1.1e-14: a table is kept only as that rounding allows
@example(case=(ellipse_contour(1024, 2.0, 0.125, center=5.0), np.full(1024, 0.125 - 0.13j)),
         seed=0)
def test_S_from_the_kernel_table_is_the_direct_rows_on_random_ellipses(case, seed):
    host, g = case
    assert quadrature._held(host, quadrature._kernel_table) is not None
    gap, back = table_gaps(host, g, seed)
    assert gap <= TABLE_TOLERANCE
    assert back <= INVOLUTION_TOLERANCE


def without_table(host):
    """A copy of ``host`` that has no kernel table: S takes the proxies."""
    copy = ClosedContour(host.nodes, host.dz_dtheta, host.n_panels)
    copy.__dict__["_kernel_table"] = None
    return copy


@pytest.mark.parametrize("ratio, per, p", [(1.5, 128, 64), (2.0, 512, 128), (4.0, 512, 256),
                                           (8.0, 2048, 512)])
def test_the_kernel_table_of_an_ellipse_is_small_and_as_accurate_as_the_proxies(ratio, per, p):
    # S g = g for g analytic inside: a degree-32 polynomial in t and a pole
    # outside.  The table holds at most 16 n entries, and S from it errs by
    # at most twice S from the proxies (measured 0.99, 1.48, 1.28 and 1.38 times)
    host = build_closed_contour({"type": "ellipse", "semi_axes": [1.0, 1.0 / ratio],
                                 "panels": 8, "nodes_per_panel": per})
    t = host.nodes
    c = [1.0, 1j] @ np.random.default_rng(0).standard_normal((2, 33))
    g = np.polynomial.polynomial.polyval(t, c) / 10.0 + 1.0 / (t - 3.0)
    got = closed_S(host, g)
    size, table = host._kernel_table
    assert size == p and table.size <= 16 * host.n_nodes and not table.flags.writeable
    err = np.max(np.abs(got - g))
    assert err <= 2.0 * np.max(np.abs(closed_S(without_table(host), g) - g))
    assert err <= 1e-14 * np.max(np.abs(g))


def test_the_kernel_table_is_built_once_by_a_resolved_S(monkeypatch, counted_rows):
    builds = []
    build = quadrature._kernel_table

    @functools.wraps(build)
    def counting(host):
        builds.append(host.n_nodes)
        return build(host)

    monkeypatch.setattr(quadrature, "_kernel_table", counting)
    ellipse = build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0],
                                    "panels": 8, "nodes_per_panel": 512})
    g = np.exp(3j * ellipse.params) + 0.5 / (ellipse.nodes - 3.0)
    # rough data take the multipole rows, and build no table
    rough = np.random.default_rng(4).standard_normal(ellipse.n_nodes) + 0j
    closed_S(ellipse, rough)
    assert builds == []
    first = closed_S(ellipse, g)
    assert builds == [ellipse.n_nodes] and counted_rows == []
    # a second S, a second density, S at nodes and a solve reuse it
    assert closed_S(ellipse, g).tobytes() == first.tobytes()
    closed_S(ellipse, np.conj(g))
    assert singular_S(SampledDensity(ellipse, g), at_indices=[7, 2, 7]).tobytes() == (
        first[[7, 2, 7]].tobytes())
    solve_closed(SampledDensity(ellipse, g), tolerance=None)
    assert builds == [ellipse.n_nodes] and counted_rows == []
    # below the crossover, and on a curve with corners, no table
    small = build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0],
                                  "panels": 8, "nodes_per_panel": 64})
    polygon, _ = fallback_input("polygon")
    closed_S(small, np.exp(3j * small.params))
    closed_S(polygon, np.exp(3j * polygon.params))
    assert builds == [ellipse.n_nodes]
    assert "_kernel_table" not in vars(small) and "_kernel_table" not in vars(polygon)


def test_the_kernel_table_of_a_circle_is_at_rounding():
    # z'/(z(th) - z(ph)) is cot((th - ph)/2)/2 + i/2 on a circle, so G = 0;
    # the first 32 proxies resolve it, whatever the centre, radius and nodes
    for per, r, c in ((128, 1.0, 0.0), (2048, 1.3, 0.1 - 0.2j)):
        host = build_closed_contour({"type": "circle", "radius": r, "center": [c.real, c.imag],
                                     "panels": 8, "nodes_per_panel": per})
        p, table = quadrature._held(host, quadrature._kernel_table)
        assert p == 32 and np.max(np.abs(table)) <= 1e-15


def off_curve_targets(host, rng, count):
    """``count`` points at 0.5-50 node spacings off random nodes, on either
    side, a tenth of them 2-10 diameters out; and each point's node."""
    t, n = host.nodes, host.n_nodes
    k = rng.integers(0, n, count)
    spacing = np.abs(t[(k + 1) % n] - t[k])
    h = spacing * 10.0 ** rng.uniform(math.log10(0.5), math.log10(50.0), count)
    z = t[k] + rng.choice([-1.0, 1.0], count) * h * 1j * host.tangents[k]
    far = rng.random(count) < 0.1
    z[far] = np.mean(t) + host.diameter() * rng.uniform(2.0, 10.0, far.sum()) * np.exp(
        2j * np.pi * rng.random(far.sum()))
    # a rung across a corner may come near another node: keep a quarter spacing
    keep = host.distance_to(z) >= 0.25 * spacing
    return z[keep], k[keep]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(host=closed_contours(per=(128, 150, 256, 512)), seed=st.integers(0, 2 ** 16),
       subtract=st.booleans())
def test_off_curve_tree_matches_the_direct_sums_on_random_closed_contours(host, seed,
                                                                          subtract):
    # targets on both sides and far out, with the pole subtraction of the
    # ladders (s_i the sample at the target's node) or without it (the
    # Cauchy transform); rough data weigh every box alike
    _, host = host
    n, t, w = host.n_nodes, host.nodes, host.dt_weights
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z, k = off_curve_targets(host, rng, 400)
    s = f[k] if subtract else None
    fewest = quadrature._TREE_TARGETS + -(-quadrature._TREE_PAIRS // n)
    assert n >= quadrature._FMM_MIN_NODES and z.size >= fewest
    full = quadrature._closed_cauchy_sum(host, z, f, s)
    assert "_multipole_plan" in vars(host)
    direct = quadrature._cauchy_sum(t, z, f, s, w) if subtract else quadrature._cauchy_sum(
        t, z, w * f)
    assert np.max(np.abs(full - direct)) <= 1e-14 * np.max(np.abs(f))
    # any batch on the tree gives its targets' entries bitwise; a batch
    # below the crossover is the direct sums, bitwise
    pick = rng.permutation(z.size)[:rng.integers(fewest, z.size + 1)]
    part = quadrature._closed_cauchy_sum(host, z[pick], f, None if s is None else s[pick])
    assert part.tobytes() == full[pick].tobytes()
    few = pick[:fewest - 1]
    part = quadrature._closed_cauchy_sum(host, z[few], f, None if s is None else s[few])
    assert part.tobytes() == direct[few].tobytes()


def test_plemelj_ladders_above_the_crossover_share_one_tree(monkeypatch, counted_rows):
    # plemelj_residuals at the 64 default nodes of a 4096-node polygon: 384
    # ladder rungs walk the tree, which needs the expansions only; S at the
    # nodes (the corners leave its remainder rough) adds the rest of the
    # plan to the same tree.  No N-node row is formed.
    import cauchypot.cauchy as cauchy

    builds = []
    plan = quadrature._MultipolePlan

    def counting(*args):
        builds.append(args[0].size)
        return plan(*args)

    monkeypatch.setattr(quadrature, "_MultipolePlan", counting)
    host, g = fallback_input("polygon")
    f = SampledDensity(host, g)
    idx = np.arange(0, host.n_nodes, host.n_nodes // 64)
    ladders = cauchy._boundary_values(host, g, idx, ("plus", "minus"), None, 3, None)
    assert builds == [host.n_nodes] and counted_rows == []
    built = set(vars(host._multipole_plan))
    assert "multipole_of_weights" in built
    assert not built & {"_pairs", "_m2l", "_kernel", "rows_of_weights"}
    first = plemelj_residuals(f)
    kept = dict(vars(host._multipole_plan))
    assert plemelj_residuals(f) == first
    assert builds == [host.n_nodes] and counted_rows == []
    assert all(v is kept[name] for name, v in vars(host._multipole_plan).items())
    again = cauchy._boundary_values(host, g, idx, ("plus", "minus"), None, 3, None)
    assert again.tobytes() == ladders.tobytes()
    ref = weakref.ref(host)
    del host, f
    gc.collect()
    assert ref() is None


def test_boundary_value_at_one_node_above_the_crossover_sums_its_rungs_directly(
        counted_rows):
    # three rungs are below the tree's crossover: one direct sum of three
    # targets, bitwise the compensated rungs extrapolated by hand
    host, g = fallback_input("polygon")
    assert host.n_nodes >= quadrature._FMM_MIN_NODES
    k = 5
    got = boundary_value(SampledDensity(host, g), "plus", k)
    assert counted_rows == [3]
    hs = 1e-2 * host.local_panel_length / 2.0 ** np.arange(3)
    z = host.nodes[k] + hs * (host.tangents[k] * 1j)
    rungs = quadrature._cauchy_sum(host.nodes, z, g, np.full(3, g[k]), host.dt_weights)
    want, _ = neville(rungs / (2j * np.pi) + g[k] * 1.0)
    assert np.complex128(got).tobytes() == np.complex128(want).tobytes()
    assert "_multipole_plan" not in vars(host)


def test_neville_exact_on_quadratic_ladder():
    a, b, c, h = 0.7 - 0.2j, -1.3 + 0.5j, 2.5 + 1.0j, 0.1
    hs = h / 2.0 ** np.arange(3)
    value, gap = neville(a + b * hs + c * hs ** 2)
    assert abs(value - a) <= 1e-14
    # finest pair: the order-1 entry from h/2, h/4 is a - c h^2 / 8
    assert abs(gap - abs(c) * h ** 2 / 8.0) <= 1e-14
    # one level has no convergence estimate
    assert neville([a]) == (a, np.inf)


def test_pole_lookup_errors():
    seg = segment(64)
    ones = SampledDensity(seg, np.ones(seg.n_nodes))
    with pytest.raises(IndexError):
        singular_S(ones, at_indices=10_000)


def test_host_rule_weights_recover_total_length():
    c = circle(16, 8)
    assert abs(np.sum(c.weights) - 2 * np.pi) <= 1e-10
    # graded arc weights estimate plain arclength only at 2nd order
    seg = segment(64)
    assert abs(np.sum(seg.weights) - 2.0) <= 1e-3


def test_host_rule_is_the_host_and_refuses_anything_else():
    c, seg = circle(8, 8), segment(16)
    assert host_rule(c) is c and host_rule(seg) is seg
    # the rule is derived once: the same arrays on every access
    for host in (c, seg):
        for name in ("params", "weights", "dt_weights"):
            assert getattr(host, name) is getattr(host, name)
        assert np.allclose(host.weights, np.abs(host.dt_weights), rtol=1e-15, atol=0)
    for other in (seg.arcs[0], SampledDensity(c, np.ones(c.n_nodes)), None):
        with pytest.raises(GeometryError):
            host_rule(other)


def test_the_integrals_refuse_anything_but_a_host():
    # a bare arc once summed over itself alone, and a string raised
    # AttributeError
    c, seg = circle(8, 8), segment(16)
    for other in (seg.arcs[0], "circle", SampledDensity(c, np.ones(c.n_nodes)), None):
        for integral in (integrate, integrate_arclength):
            with pytest.raises(GeometryError):
                integral(np.ones(seg.n_nodes), other)


# ---------------------------------------------------------------------------
# the span tracer's kernels: fourth-order arc derivative, analytic pole kernel
# ---------------------------------------------------------------------------

POLE_ARCS = {
    "segment": {"type": "segment", "a": [-0.3, 0.2], "b": [1.1, -0.5]},
    "circular": {"type": "circular", "center": [0.2, -0.1], "radius": 1.3,
                 "theta_a": -0.4, "theta_b": 2.1},
}


def pole_arc(kind, panels, per):
    return build_arc_system([dict(POLE_ARCS[kind], panels=panels, nodes_per_panel=per)])


def dt_du(arc):
    """dt/du at the nodes, tau = cos u: the segment's -(b - a)/2 sin u and the
    circular arc's i (t - c) (theta_b - theta_a)/2 (-sin u)."""
    sin_u = np.sin(np.arccos(arc.params))
    if arc.kind == "segment":
        return -0.5 * (arc.b - arc.a) * sin_u
    return -0.5j * (arc.theta_b - arc.theta_a) * sin_u * (arc.nodes - arc.center)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", sorted(POLE_ARCS))
def test_fd4_arc_derivative_of_three_nodes_is_the_two_point_stencil(kind, p):
    # under 5 nodes the differences in u are numpy's gradient: one-sided at
    # the ends, centred between; measured within 3.8e-15 of max|want|
    arc = pole_arc(kind, 1, 3).arcs[0]
    f = arc.nodes ** p
    h = np.diff(np.arccos(arc.params))[0]
    want = np.array([f[1] - f[0], 0.5 * (f[2] - f[0]), f[2] - f[1]]) / h / dt_du(arc)
    assert np.max(np.abs(fd4_arc_derivative(arc, f) - want)) <= 1e-14 * np.max(np.abs(want))


# measured max |d - p t^(p - 1)| at 128 and 512 nodes, four times apart as
# fourth order gives (ratio 254-256); end stencils dominate
FD4_ERRORS = {("segment", 2): (8.13e-6, 3.18e-8), ("segment", 3): (4.53e-5, 1.78e-7),
              ("circular", 2): (8.55e-5, 3.35e-7), ("circular", 3): (4.01e-4, 1.57e-6)}


@pytest.mark.parametrize(("kind", "p"), sorted(FD4_ERRORS))
def test_fd4_arc_derivative_of_powers_converges_at_fourth_order(kind, p):
    for per, measured in zip((16, 64), FD4_ERRORS[kind, p]):
        arc = pole_arc(kind, 8, per).arcs[0]
        t = arc.nodes
        assert np.max(np.abs(fd4_arc_derivative(arc, t ** p) - p * t ** (p - 1))) <= 1.1 * measured


def test_fd4_arc_derivative_refuses_a_chain():
    chain = {"type": "chain", "nodes": [[2.0 + 0.1 * k, 0.02 * k * k] for k in range(12)]}
    arc = build_arc_system([chain]).arcs[0]
    with pytest.raises(GeometryError):
        fd4_arc_derivative(arc, arc.nodes ** 2)


@pytest.mark.parametrize("kind", sorted(POLE_ARCS))
def test_analytic_pole_kernel_on_an_arc_is_its_closed_form(kind):
    # PV int dt/(t - x) = log((b - x)/(a - x)): on a segment log(|b - x|/|x - a|);
    # on a circular arc the log of the ratio of the sines of half the angles
    # to the ends, plus i sweep/2.  At 2048 nodes measured within 1.8e-15
    # (segment) and 0 (circular), and on the circular arc within 8.4e-10 of
    # the chord ratio, whose chords of nodes 1e-6 from an end lose 1e-10
    host = pole_arc(kind, 8, 256)
    arc = host.arcs[0]
    x, tau = arc.nodes, arc.params
    chords = np.log(np.abs(arc.b - x) / np.abs(x - arc.a))
    got = analytic_pole_kernel(host, np.arange(host.n_nodes))
    if kind == "segment":
        assert np.max(np.abs(got - chords)) <= 4e-15
    else:
        th = arc.theta_a + 0.5 * (arc.theta_b - arc.theta_a) * (1.0 + tau)
        want = (np.log(np.abs(np.sin(0.5 * (arc.theta_b - th)) / np.sin(0.5 * (arc.theta_a - th))))
                + 0.5j * (arc.theta_b - arc.theta_a))
        assert np.max(np.abs(got - want)) <= 4e-15
        assert np.max(np.abs(got - 0.5j * (arc.theta_b - arc.theta_a) - chords)) <= 1e-9
    assert analytic_pole_kernel(host, 7) == complex(got[7])


def test_analytic_pole_kernel_of_a_contour_and_its_refusals():
    assert analytic_pole_kernel(circle(8, 8), 3) == 1j * np.pi
    host = build_arc_system([POLE_ARCS["segment"] | {"panels": 4, "nodes_per_panel": 8},
                             {"type": "chain", "nodes": [[2.0 + 0.1 * k, 0.02 * k * k]
                                                         for k in range(12)]}])
    for k in (-1, host.n_nodes, [3, host.n_nodes]):
        with pytest.raises(IndexError):
            analytic_pole_kernel(host, k)
    with pytest.raises(GeometryError):
        analytic_pole_kernel(host, host.n_nodes - 1)
