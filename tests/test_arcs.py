"""Arc-system solution theory: kernel, moments, bounded solutions, defects."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

import cauchypot
from cauchypot.arcs import (
    ComplexPolynomial,
    bounded_solution,
    candidate_f0,
    defect_polynomial,
    general_solution,
    holder_diagnostic,
    homogeneous_basis,
    modified_residual,
    solvability_moments,
    sqrtR_polynomial_part,
)
from cauchypot.cauchy import singular_S
from cauchypot.errors import GeometryError, ResolutionError
from cauchypot.geometry import build_arc_system, build_closed_contour
from cauchypot.sampling import SampledDensity

from oracles import chebyshev_T, sL_union_dense


def segment(per=64, a=-1.0, b=1.0):
    return build_arc_system(
        [{"type": "segment", "a": [a, 0], "b": [b, 0],
          "panels": 8, "nodes_per_panel": per}]
    )


# asymmetric two-interval system used throughout; rightmost arc carries the
# +i branch of sqrt(R), the next one -i
A0, B0, A1, B1 = -2.0, -0.8, 0.5, 1.7


def two_intervals(per=64):
    return build_arc_system([
        {"type": "segment", "a": [A0, 0], "b": [B0, 0],
         "panels": 8, "nodes_per_panel": per},
        {"type": "segment", "a": [A1, 0], "b": [B1, 0],
         "panels": 8, "nodes_per_panel": per},
    ])


def spline_segfuncs(system, values):
    """u-space numerators for sL_union_dense from node samples.

    Bounded densities on a graded arc are smooth functions of u, so a cubic
    spline through the (uniform-in-u) samples is an independent
    reconstruction; the sin(u) line-element factor is explicit.
    """
    out = []
    off = system.arc_offsets
    for j, arc in enumerate(system.arcs):
        vals = values[off[j]:off[j] + arc.n_nodes]
        u = np.arccos(np.clip(arc.params, -1.0, 1.0))  # descending
        sr = CubicSpline(u[::-1], vals[::-1].real)
        si = CubicSpline(u[::-1], vals[::-1].imag)
        d = 0.5 * abs(arc.b - arc.a)

        def F(uu, sr=sr, si=si, d=d):
            return (sr(uu) + 1j * si(uu)) * d * np.sin(uu)

        out.append((arc.a.real, arc.b.real, F))
    return out


# ---------------------------------------------------------------------------
# ComplexPolynomial
# ---------------------------------------------------------------------------

def test_polynomial_eval_degree():
    p = ComplexPolynomial([1.0, 0.0, 2.0 + 1.0j])
    assert p.degree == 2
    assert abs(p(2.0) - (1.0 + 4.0 * (2.0 + 1.0j))) < 1e-14
    assert ComplexPolynomial([3.0, 0.0]).degree == 0


def test_sqrtR_polynomial_part_single_segment():
    # Q(t) = t - (a+b)/2 for one arc, so the divided difference is 1
    a, b = 0.3 + 0.2j, 2.1 - 0.5j
    sysm = build_arc_system(
        [{"type": "segment", "a": [a.real, a.imag], "b": [b.real, b.imag],
          "panels": 4, "nodes_per_panel": 16}]
    )
    q = sqrtR_polynomial_part(sysm).coefficients
    assert abs(q[1] - 1.0) < 1e-14
    assert abs(q[0] + 0.5 * (a + b)) < 1e-14


def test_sqrtR_polynomial_part_two_intervals():
    sysm = two_intervals(16)
    q = sqrtR_polynomial_part(sysm).coefficients
    # monic quadratic t^2 + s1 t + s2 with s1 = -(sum of roots)/2
    roots_sum = A0 + B0 + A1 + B1
    assert abs(q[2] - 1.0) < 1e-14
    assert abs(q[1] + 0.5 * roots_sum) < 1e-13


def test_two_interval_branch_matches_closed_form():
    sysm = two_intervals()
    t = sysm.nodes.real
    inner = np.sqrt(np.abs((t - A0) * (t - B0) * (t - A1) * (t - B1)))
    sign = np.where(t < 0, -1.0, 1.0)
    assert np.max(np.abs(sysm.sqrtR_plus_nodes() - 1j * sign * inner)) < 1e-12


# ---------------------------------------------------------------------------
# homogeneous kernel
# ---------------------------------------------------------------------------

def test_basis_annihilated_single_segment():
    sysm = segment()
    (h,) = homogeneous_basis(sysm)
    x = sysm.nodes.real
    assert np.max(np.abs(h.values - 1.0 / (1j * np.sqrt(1 - x**2)))) < 1e-10
    r = singular_S(h, density_class="inverse_sqrt")
    assert np.max(np.abs(r.values)) <= 1e-8


def test_basis_annihilated_two_intervals():
    sysm = two_intervals()
    basis = homogeneous_basis(sysm)
    assert len(basis) == 2
    for h in basis:
        r = singular_S(h, density_class="inverse_sqrt")
        assert np.max(np.abs(r.values)) <= 1e-6


def test_basis_annihilation_confirmed_by_dense_oracle():
    # closed-form 1/sqrt(R)+ numerators, sin(u) cancelled analytically
    sysm = two_intervals()
    m1r, d1r = 0.5 * (A1 + B1), 0.5 * (B1 - A1)
    m0l, d0l = 0.5 * (A0 + B0), 0.5 * (B0 - A0)

    def F_right(u):
        t = m1r + d1r * np.cos(u)
        return -1j / np.sqrt((t - A0) * (t - B0))

    def F_left(u):
        t = m0l + d0l * np.cos(u)
        return 1j / np.sqrt((A1 - t) * (B1 - t))

    segs = [(A0, B0, F_left), (A1, B1, F_right)]
    off = sysm.arc_offsets
    for k in (off[0] + 300, off[1] + 200):
        val = sL_union_dense(segs, sysm.nodes[k].real)
        assert abs(val) <= 1e-8


def test_basis_scaling_is_linear():
    sysm = segment()
    (h,) = homogeneous_basis(sysm)
    s1 = singular_S(h, density_class="inverse_sqrt").values
    h50 = SampledDensity(sysm, 50.0 * h.values)
    s50 = singular_S(h50, density_class="inverse_sqrt").values
    # operator linearity is sharp; the residual magnitudes sit at the
    # roundoff floor, so their ratio is only linear up to a small factor
    assert np.max(np.abs(s50 - 50.0 * s1)) <= 1e-10
    r1, r50 = np.max(np.abs(s1)), np.max(np.abs(s50))
    assert r50 <= 100.0 * max(r1, 1e-16)


def test_basis_gram_rank():
    sysm = two_intervals(32)
    V = np.stack([h.values for h in homogeneous_basis(sysm)], axis=1)
    assert np.linalg.matrix_rank(V.conj().T @ V) == 2


def test_adding_kernel_element_keeps_residual():
    sysm = two_intervals()
    g = SampledDensity(sysm, np.exp(sysm.nodes / 2.0))
    f = general_solution(g)
    base = np.max(np.abs(
        singular_S(f, density_class="inverse_sqrt").values - g.values))
    for h in homogeneous_basis(sysm):
        f2 = SampledDensity(sysm, f.values + h.values)
        r2 = np.max(np.abs(
            singular_S(f2, density_class="inverse_sqrt").values - g.values))
        assert abs(r2 - base) <= 2e-6


# ---------------------------------------------------------------------------
# solvability moments
# ---------------------------------------------------------------------------

def test_moments_on_unit_segment():
    sysm = segment()
    g1 = SampledDensity(sysm, np.ones(sysm.n_nodes, complex))
    m = solvability_moments(g1)
    assert abs(m[0] + 1j * np.pi) <= 1e-10
    gt = SampledDensity(sysm, sysm.nodes)
    assert abs(solvability_moments(gt)[0]) <= 1e-12
    for n in (1, 2, 3, 4):
        gn = SampledDensity(sysm, chebyshev_T(n, sysm.nodes.real).astype(complex))
        assert abs(solvability_moments(gn)[0]) <= 1e-10


def test_moments_reject_foreign_host():
    # the solvers take their system from the samples' host, which must be one
    host = build_closed_contour({"type": "circle", "radius": 1.0,
                                 "panels": 2, "nodes_per_panel": 8})
    g = SampledDensity(host, np.ones(host.n_nodes, complex))
    for solver in (solvability_moments, general_solution, candidate_f0,
                   defect_polynomial, modified_residual, bounded_solution):
        with pytest.raises(GeometryError):
            solver(g)


# ---------------------------------------------------------------------------
# general solution
# ---------------------------------------------------------------------------

def test_general_solution_constant_data():
    sysm = segment()
    x = sysm.nodes.real
    g = SampledDensity(sysm, np.ones(sysm.n_nodes, complex))
    f = general_solution(g)
    exact = 1j * x / np.sqrt(1 - x**2)
    mask = np.abs(x) <= 0.9
    assert np.max(np.abs((f.values - exact)[mask])) <= 1e-7
    resid = singular_S(f, density_class="inverse_sqrt").values - g.values
    assert np.max(np.abs(resid)) <= 1e-6


def test_general_solution_pure_kernel():
    sysm = segment()
    x = sysm.nodes.real
    g = SampledDensity(sysm, np.zeros(sysm.n_nodes, complex))
    c = 2.0 - 1.0j
    f = general_solution(g, P=ComplexPolynomial([c]))
    exact = c / (1j * np.sqrt(1 - x**2))
    assert np.max(np.abs(f.values - exact)) <= 1e-9
    resid = singular_S(f, density_class="inverse_sqrt").values
    assert np.max(np.abs(resid)) <= 1e-6


def test_general_solution_takes_a_plain_coefficient_list():
    sysm = segment(8)
    g = SampledDensity(sysm, sysm.nodes ** 2)
    want = general_solution(g, P=ComplexPolynomial([2.0 - 1.0j])).values
    assert np.array_equal(general_solution(g, P=[2.0 - 1.0j]).values, want)
    with pytest.raises(ValueError):
        general_solution(g, P=[0.0, 1.0])  # degree 1 > N-1


def test_general_solution_rejects_large_degree():
    sysm = segment(16)
    g = SampledDensity(sysm, np.ones(sysm.n_nodes, complex))
    with pytest.raises(ValueError):
        general_solution(g, P=ComplexPolynomial([0.0, 1.0]))  # degree 1 > N-1


# ---------------------------------------------------------------------------
# bounded-solution candidate
# ---------------------------------------------------------------------------

def test_candidate_f0_chebyshev_identities():
    sysm = segment()
    x = sysm.nodes.real
    gt = SampledDensity(sysm, sysm.nodes)
    f0 = candidate_f0(gt)
    assert np.max(np.abs(f0.values + 1j * np.sqrt(1 - x**2))) <= 1e-8

    gT2 = SampledDensity(sysm, 2 * sysm.nodes**2 - 1)
    f0b = candidate_f0(gT2)
    assert np.max(np.abs(f0b.values + 2j * x * np.sqrt(1 - x**2))) <= 1e-8

    g1 = SampledDensity(sysm, np.ones(sysm.n_nodes, complex))
    assert np.max(np.abs(candidate_f0(g1).values)) <= 1e-9


# ---------------------------------------------------------------------------
# defect polynomial and the modified equation
# ---------------------------------------------------------------------------

def test_defect_polynomial_unit_segment():
    sysm = segment()
    g1 = SampledDensity(sysm, np.ones(sysm.n_nodes, complex))
    P = defect_polynomial(g1)
    assert P.degree == 0
    assert abs(P.coefficients[0] + 1.0) <= 1e-10
    gt = SampledDensity(sysm, sysm.nodes)
    Pt = defect_polynomial(gt)
    assert np.max(np.abs(Pt.coefficients)) <= 1e-10


def test_defect_polynomial_two_intervals_monomial():
    # t/sqrt(R) lies in the kernel, so S_L f0 = 0 and the modified
    # equation forces P(z) = -z exactly
    sysm = two_intervals()
    g = SampledDensity(sysm, sysm.nodes)
    P = defect_polynomial(g)
    assert abs(P.coefficients[1] + 1.0) <= 1e-12
    assert abs(P.coefficients[0]) <= 1e-12
    assert np.max(np.abs(candidate_f0(g).values)) <= 1e-10


def test_modified_residual_examples():
    sysm = segment()
    g1 = SampledDensity(sysm, np.ones(sysm.n_nodes, complex))
    assert modified_residual(g1) <= 1e-8
    gT3 = SampledDensity(sysm, 4 * sysm.nodes**3 - 3 * sysm.nodes)
    assert modified_residual(gT3) <= 1e-7
    two = two_intervals()
    gt = SampledDensity(two, two.nodes)
    assert modified_residual(gt) <= 1e-5


def test_modified_equation_against_dense_oracle():
    # non-trivial case: g = t^2 makes f0 and the defect both order one
    sysm = two_intervals()
    g = SampledDensity(sysm, sysm.nodes**2)
    f0 = candidate_f0(g)
    P = defect_polynomial(g)
    segs = spline_segfuncs(sysm, f0.values)
    off = sysm.arc_offsets
    for k in (off[0] + 128, off[0] + 400, off[1] + 100, off[1] + 450):
        x = sysm.nodes[k].real
        lhs = sL_union_dense(segs, x)
        rhs = x**2 + P(x)
        assert abs(lhs - rhs) <= 1e-6
        assert abs(rhs) > 0.1  # the comparison is not vacuous


# ---------------------------------------------------------------------------
# bounded_solution
# ---------------------------------------------------------------------------

def test_bounded_solution_T2():
    sysm = segment()
    x = sysm.nodes.real
    g = SampledDensity(sysm, 2 * sysm.nodes**2 - 1)
    rep = bounded_solution(g)
    assert rep.bounded
    assert np.max(np.abs(rep.solution.values + 2j * x * np.sqrt(1 - x**2))) <= 1e-8
    assert rep.residual <= 1e-6


def test_bounded_solution_constant_fails():
    sysm = segment()
    g = SampledDensity(sysm, np.ones(sysm.n_nodes, complex))
    rep = bounded_solution(g)
    assert not rep.bounded
    assert abs(rep.moments[0] + 1j * np.pi) <= 1e-10
    assert abs(rep.defect_poly.coefficients[0] + 1.0) <= 1e-10
    assert rep.residual <= 1e-8  # modified equation still holds


def test_bounded_solution_zero_data():
    sysm = segment(16)
    g = SampledDensity(sysm, np.zeros(sysm.n_nodes, complex))
    rep = bounded_solution(g)
    assert rep.bounded
    assert np.max(np.abs(rep.solution.values)) == 0.0


def scaled_moment_ratios(g, system):
    """|m_k| over sum |w| |tau|^k |g/sqrtR+|, m_k the moments in the basis
    tau^k, tau = (t - c)/rho, c the mean endpoint and rho the largest
    distance from c to an endpoint; plain sums, no compensated summation."""
    w = system.dt_weights
    ends = system.endpoints
    tau = (system.nodes - ends.mean()) / np.max(np.abs(ends - ends.mean()))
    base = g / system.sqrtR_plus_nodes()
    return np.array([abs(np.sum(w * tau ** k * base))
                     / np.sum(np.abs(w) * np.abs(tau) ** k * np.abs(base))
                     for k in range(system.n_arcs)])


def test_bounded_iff_moment_tolerance():
    sysm = two_intervals()
    for gv in (sysm.nodes**2, np.exp(sysm.nodes), sysm.nodes**2 - 1.3):
        g = SampledDensity(sysm, np.asarray(gv, complex))
        rep = bounded_solution(g)
        assert rep.bounded == bool(np.all(scaled_moment_ratios(g.values, sysm) <= 1e-8))
        if rep.bounded:
            assert rep.residual <= 1e-6


def equal_segments(k, lo, hi, per=8):
    """k equal segments, evenly spaced on [lo, hi], 4 * per nodes each."""
    h = (hi - lo) / (2 * k - 1)
    return build_arc_system([{"type": "segment", "a": [lo + 2 * j * h, 0],
                              "b": [lo + (2 * j + 1) * h, 0], "panels": 4,
                              "nodes_per_panel": per} for j in range(k)])


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-4.0, 4.0)])
def test_constant_data_on_sixteen_segments_have_no_bounded_solution(lo, hi):
    # the moments of 1 cancel to 1e-2 of their absolute sums; a bar of
    # 1e-8 max|g| diam^(N - 1/2) let them pass on [-4, 4]
    sysm = equal_segments(16, lo, hi)
    g = np.ones(sysm.n_nodes, complex)
    ratio = np.max(scaled_moment_ratios(g, sysm))
    assert 1e-3 < ratio < 1e-1
    assert not bounded_solution(SampledDensity(sysm, g)).bounded


@settings(max_examples=25, deadline=None, derandomize=True)
@given(ends=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=8),
       coef=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=4),
       scale=st.floats(-3.0, 3.0), turn=st.floats(0.0, 2 * np.pi),
       shift=st.complex_numbers(max_magnitude=10.0))
def test_bounded_verdict_is_invariant_under_similarity(ends, coef, scale, turn, shift):
    # g = S f0 with f0 = sqrtR+ p has a bounded solution; g plus a 1e-6 max|g|
    # perturbation that the first moment sees in full does not.  Both
    # verdicts hold for the same samples on the system moved by z -> az + b
    # (S and the moment test are invariant under it)
    cuts = np.cumsum(ends) - ends[0]
    segs = [(cuts[j], cuts[j + 1]) for j in range(0, len(cuts) - 1, 2)]
    a = 10.0 ** scale * np.exp(1j * turn)

    def system(z):
        return build_arc_system([{"type": "segment", "a": [z(u).real, z(u).imag],
                                  "b": [z(v).real, z(v).imag], "panels": 4,
                                  "nodes_per_panel": 8} for u, v in segs])

    sysm = system(lambda x: x)
    t = sysm.nodes
    p = np.polynomial.polynomial.polyval((t - t.mean()) / np.ptp(t.real), coef)
    g = singular_S(SampledDensity(sysm, sysm.sqrtR_plus_nodes() * p),
                   density_class="sqrt").values
    size = np.max(np.abs(g))
    if size == 0.0:
        return
    w, s_plus = sysm.dt_weights, sysm.sqrtR_plus_nodes()
    bump = 1e-6 * size * np.conj(w) * s_plus / np.abs(w * s_plus)
    moved = system(lambda x: a * x + shift)
    for host in (sysm, moved):
        assert bounded_solution(SampledDensity(host, g)).bounded
        assert not bounded_solution(SampledDensity(host, g + bump)).bounded


def test_bounded_solution_after_killing_moments():
    # tune a quadratic so both moments vanish, then the candidate solves
    # the unmodified equation
    sysm = two_intervals()
    ones = SampledDensity(sysm, np.ones(sysm.n_nodes, complex))
    tt = SampledDensity(sysm, sysm.nodes)
    t2 = SampledDensity(sysm, sysm.nodes**2)
    M = np.stack([solvability_moments(ones), solvability_moments(tt)], axis=1)
    c = np.linalg.solve(M, -solvability_moments(t2))
    g = SampledDensity(sysm, sysm.nodes**2 + c[1] * sysm.nodes + c[0])
    rep = bounded_solution(g)
    assert rep.bounded
    assert rep.residual <= 1e-6


# ---------------------------------------------------------------------------
# equivalence of the two solution forms
# ---------------------------------------------------------------------------

def test_forms_differ_by_kernel_single_segment():
    sysm = segment()
    g = SampledDensity(sysm, 2 * sysm.nodes**2 - 1)  # vanishing moment
    d = general_solution(g).values - candidate_f0(g).values
    V = np.stack([h.values for h in homogeneous_basis(sysm)], axis=1)
    c, *_ = np.linalg.lstsq(V, d, rcond=None)
    assert np.max(np.abs(d - V @ c)) <= 1e-6


def test_forms_differ_by_kernel_two_intervals():
    sysm = two_intervals()
    ones = SampledDensity(sysm, np.ones(sysm.n_nodes, complex))
    tt = SampledDensity(sysm, sysm.nodes)
    t2 = SampledDensity(sysm, sysm.nodes**2)
    M = np.stack([solvability_moments(ones), solvability_moments(tt)], axis=1)
    c = np.linalg.solve(M, -solvability_moments(t2))
    g = SampledDensity(sysm, sysm.nodes**2 + c[1] * sysm.nodes + c[0])
    d = general_solution(g).values - candidate_f0(g).values
    V = np.stack([h.values for h in homogeneous_basis(sysm)], axis=1)
    coef, *_ = np.linalg.lstsq(V, d, rcond=None)
    assert np.max(np.abs(d - V @ coef)) <= 1e-6
    assert np.max(np.abs(coef)) > 0.1  # the kernel component is real, not noise


def test_endpoint_vanishing_under_refinement():
    vals = []
    for per in (16, 32, 64):
        sysm = segment(per)
        g = SampledDensity(sysm, 2 * sysm.nodes**2 - 1)
        f0 = candidate_f0(g)
        vals.append(max(abs(f0.values[0]), abs(f0.values[-1])))
    assert vals[1] < vals[0]
    assert vals[2] < vals[1]


# ---------------------------------------------------------------------------
# Hoelder diagnostic
# ---------------------------------------------------------------------------

def test_holder_quotient_stable_for_bounded_solution():
    qs = []
    for per in (64, 128):
        sysm = segment(per)
        g = SampledDensity(sysm, sysm.nodes)
        qs.append(holder_diagnostic(candidate_f0(g), 0.1, exponent=0.99))
    assert np.isfinite(qs[0]) and qs[0] > 0
    assert abs(qs[1] - qs[0]) <= 0.1 * qs[0]


def test_holder_quotient_blows_up_toward_endpoints():
    sysm = segment()
    x = sysm.nodes.real
    h = SampledDensity(sysm, 1.0 / (1j * np.sqrt(1 - x**2)))
    q_far = holder_diagnostic(h, 0.1, exponent=1.0)
    q_near = holder_diagnostic(h, 1e-3, exponent=1.0)
    assert np.isfinite(q_far)
    assert q_near >= 10.0 * q_far


def dense_holder_quotient(system, values, margin, exponent):
    """The quotient from the whole m x m difference arrays of each arc."""
    best = 0.0
    for k, arc in enumerate(system.arcs):
        keep = np.min(np.abs(arc.nodes[:, None] - system.endpoints), axis=1) >= margin
        t, v = arc.nodes[keep], values[system.arc_offsets[k]:][:arc.n_nodes][keep]
        if t.size >= 2:
            iu = np.triu_indices(t.size, k=1)
            q = (np.abs(v[:, None] - v)[iu] / np.abs(t[:, None] - t)[iu] ** exponent)
            best = max(best, float(np.max(q)))
    return best


@pytest.mark.parametrize("exponent", [0.5, 1.0, 100.0])
def test_holder_quotient_is_the_maximum_over_all_pairs(exponent):
    # the circular arc repeats values at close nodes, so at exponent 100,
    # where its dx**100 underflows to 0, some of its quotients are 0/0 (and
    # others inf): its maximum is NaN, which the maximum over arcs drops,
    # leaving the segment's 1.4e188
    sysm = build_arc_system([
        {"type": "segment", "a": [-1.0, 0.0], "b": [-0.3, 0.0], "panels": 4, "nodes_per_panel": 8},
        {"type": "circular", "center": [0.0, 2.0], "radius": 0.2, "theta_a": 0.3,
         "theta_b": 2.4, "panels": 8, "nodes_per_panel": 64}])
    rng = np.random.default_rng(3)
    v = np.round(2.0 * rng.standard_normal(sysm.n_nodes)) + 1j * rng.standard_normal(sysm.n_nodes)
    v[sysm.arc_offsets[1]:] = np.round(v[sysm.arc_offsets[1]:].real)
    g = SampledDensity(sysm, v)
    with np.errstate(all="ignore"):
        got = holder_diagnostic(g, 0.02, exponent=exponent)
        want = dense_holder_quotient(sysm, v, 0.02, exponent)
    assert np.isfinite(got)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_holder_quotient_memory_grows_linearly():
    # the maximum is taken over blocks of rows, not over m x m arrays: a
    # 2048-node segment peaked at 0.71 MB traced (345 B per node; the m x m
    # arrays took 125 MB)
    import tracemalloc

    sysm = segment(256)
    assert sysm.n_nodes == 2048
    g = SampledDensity(sysm, np.sin(3.0 * sysm.nodes.real))
    tracemalloc.start()
    try:
        holder_diagnostic(g, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * sysm.n_nodes


def test_holder_quotient_error_paths():
    sysm = segment(16)
    g = SampledDensity(sysm, sysm.nodes)
    with pytest.raises(ResolutionError):
        holder_diagnostic(g, 1.5)  # margin swallows every node
    with pytest.raises(ValueError):
        holder_diagnostic(g, -0.1)
    # a bad exponent used to return 0.0 (nan) or inf with a warning, and a
    # non-finite margin to blame the mesh
    for margin, exponent in ((0.1, math.nan), (0.1, math.inf), (0.1, 0.0), (0.1, -1.0),
                             (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            holder_diagnostic(g, margin, exponent=exponent)
    circle = build_closed_contour(
        {"type": "circle", "radius": 1.0, "panels": 4, "nodes_per_panel": 8})
    gc = SampledDensity(circle, np.ones(circle.n_nodes, complex))
    with pytest.raises(GeometryError):
        holder_diagnostic(gc, 0.1)


def test_arc_solver_runs_without_scipy():
    # scipy is a test extra, so an import of it (scipy.fft, say) in the library
    # would pass every other test; here it cannot be imported at all
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import cauchypot as cp\n"
        "s = cp.build_arc_system([\n"
        "    {'type': 'circular', 'radius': 1.0, 'theta_a': 0.4, 'theta_b': 2.5,\n"
        "     'panels': 4, 'nodes_per_panel': 16},\n"
        "    {'type': 'segment', 'a': [-0.5, -0.5], 'b': [0.6, -0.8],\n"
        "     'panels': 4, 'nodes_per_panel': 16}])\n"
        "report = cp.bounded_solution(cp.SampledDensity(s, s.nodes ** 3 + 0.5))\n"
        "assert report.residual < 1e-12, report.residual\n"
    )
    src = str(Path(cauchypot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
