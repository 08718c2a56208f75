"""Quadrature rules and principal values against independent references."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from cauchypot import quadrature
from cauchypot.errors import AlignmentError, GeometryError
from cauchypot.arcs import bounded_solution
from cauchypot.cauchy import plemelj_residuals, singular_S
from cauchypot.geometry import _angles, build_arc_system, build_closed_contour
from cauchypot.quadrature import (
    _own_sigma,
    closed_node_derivative,
    host_rule,
    integrate,
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
def arc_systems(draw):
    """1-3 segments or circular arcs (sweeps of either sign), arc k in the
    disk of radius 0.6 about 3k, each with 48-160 nodes."""
    specs = []
    for k in range(draw(st.integers(1, 3))):
        c = 3.0 * k + draw(st.complex_numbers(max_magnitude=0.1, allow_nan=False,
                                              allow_infinity=False))
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        nodes = {"panels": 1, "nodes_per_panel": draw(st.integers(48, 160))}
        if draw(st.booleans()):
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


def pole_subtracted_rows(host, f):
    """S f as the trapezoid rule on (f(t) - f(x))/(t - x) dt plus pi*i f(x),
    the diagonal term f'(x) dt, summed row by row over all nodes."""
    t, w = host.nodes, host.dt_weights
    df = closed_node_derivative(host, f)
    out = np.empty(t.size, dtype=complex)
    for lo in range(0, t.size, 64):
        rows = np.arange(lo, min(lo + 64, t.size))
        on = (np.arange(rows.size), rows)
        den = t - t[rows, None]
        den[on] = 1.0
        reg = (f - f[rows, None]) / den
        reg[on] = df[rows]
        out[rows] = (np.sum(w * reg, axis=1) + f[rows] * 1j * np.pi) / (1j * np.pi)
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
    # leave only rounding and the first 32 proxies settle it
    host = circle(512, 8)
    k, c, g = trig_polynomial(host, 40, 11)
    g = g - np.mean(g)
    got = closed_S(host, g)
    want = np.exp(1j * np.outer(host.params, k)) @ (np.where(k > 0, 1.0, -1.0) * c)
    want = want - np.mean(want)
    assert 0 < sum(counted_rows) <= 64
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(g))


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
