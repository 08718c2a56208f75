"""Geometry layer: contour builders, arc systems, and the sqrt(R) branch."""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cauchypot.errors import (
    DegenerateSystemError,
    DisjointnessError,
    EndpointSingularityError,
    GeometryError,
    NearBoundaryError,
    ResolutionError,
)
from cauchypot import geometry, quadrature
from cauchypot.geometry import (
    ArcSystem,
    ClosedContour,
    _orientation,
    _pieces_meet,
    _polyline_contacts,
    build_arc_system,
    build_closed_contour,
    parse_geometry,
    sqrtR_boundary_plus,
)

from cauchypot.arcs import bounded_solution
from cauchypot.cauchy import singular_S
from cauchypot.quadrature import _held
from cauchypot.sampling import SampledDensity

from oracles import ellipse_perimeter, ELLIPSE_2_1_PERIMETER

rng = np.random.default_rng(20260815)


def circle(r=1.0, c=0.0, panels=8, per=16):
    return build_closed_contour({
        "type": "circle", "center": [np.real(c), np.imag(c)],
        "radius": r, "panels": panels, "nodes_per_panel": per,
    })


def ellipse(sa=2.0, sb=1.0, panels=8, per=32):
    return build_closed_contour({
        "type": "ellipse", "center": [0, 0], "semi_axes": [sa, sb],
        "panels": panels, "nodes_per_panel": per,
    })


def two_intervals(per=8, panels=4):
    return build_arc_system([
        {"type": "segment", "a": [-2, 0], "b": [-1, 0], "panels": panels, "nodes_per_panel": per},
        {"type": "segment", "a": [1, 0], "b": [2, 0], "panels": panels, "nodes_per_panel": per},
    ])


# ---------------------------------------------------------------------------
# closed contours
# ---------------------------------------------------------------------------

def test_circle_basic_fields():
    c = circle(r=2.0, c=1.0 + 0.5j)
    assert c.n_nodes == 128
    assert abs(c.total_length - 4.0 * np.pi) < 1e-13
    # complex weights integrate dt exactly to zero around a closed loop
    assert abs(np.sum(c.dt_weights)) < 1e-12
    assert np.max(np.abs(np.abs(c.tangents) - 1.0)) < 1e-13
    # plus normal points into the disc
    inside = c.nodes + 1e-3j * c.tangents
    assert np.all(np.abs(inside - (1.0 + 0.5j)) < 2.0)


def test_ellipse_length_matches_elliptic_integral():
    e = ellipse()
    ref = ellipse_perimeter(2.0, 1.0)
    assert abs(ref - ELLIPSE_2_1_PERIMETER) < 1e-12
    # trapezoid on a periodic analytic speed is spectrally accurate
    assert abs(e.total_length - ref) < 1e-12


def test_orientation_is_enforced():
    th = 2.0 * np.pi * np.arange(64) / 64
    cw = np.exp(-1j * th)  # clockwise
    with pytest.raises(GeometryError):
        build_closed_contour({"type": "node-chain", "nodes": np.stack([cw.real, cw.imag], axis=1).tolist(), "panels": 8})


def scaled_contour(shape, scale, center):
    """A 1024-node circle, ellipse or rounded polygon, its size times ``scale``."""
    at, panels = [center.real, center.imag], {"panels": 8, "nodes_per_panel": 128}
    if shape == "circle":
        return build_closed_contour(dict(panels, type="circle", center=at, radius=scale))
    if shape == "ellipse":
        return build_closed_contour(dict(panels, type="ellipse", center=at,
                                         semi_axes=[2.0 * scale, scale]))
    verts = np.array([[1.2, 0.0], [0.0, 1.0], [-1.1, 0.1], [-0.2, -1.0]]) * scale + at
    return build_closed_contour(dict(panels, type="rounded-polygon", vertices=verts.tolist(),
                                     corner_radius=0.25 * scale))


# |S w^3 - w^3| at unit scale is 4e-15 on the circle, 2e-14 on the ellipse
# and 1.5e-5 on the polygon, whose corners are only C^1
@pytest.mark.parametrize("shape, tol", [("circle", 1e-13), ("ellipse", 1e-13),
                                        ("polygon", 2e-5)])
@pytest.mark.parametrize("exponent", range(-300, 301, 50))
def test_closed_contours_build_solve_and_refuse_reversal_at_every_scale(shape, tol, exponent):
    # the orientation and contact tests take the nodes times a power of two
    # when their size is extreme, so the shoelace area neither underflows to
    # 0 (refusing a small curve) nor overflows to NaN (accepting a clockwise
    # one)
    scale = 10.0 ** exponent
    center = (0.3 - 0.2j) * scale
    host = scaled_contour(shape, scale, center)
    w = (host.nodes - center) / scale
    f = SampledDensity(host, w ** 3)
    assert np.max(np.abs(singular_S(f).values - f.values)) < tol
    with pytest.raises(GeometryError, match="not positively oriented"):
        ClosedContour(host.nodes[::-1], -host.dz_dtheta[::-1], host.n_panels)


def test_too_few_nodes_rejected():
    with pytest.raises(ResolutionError):
        circle(panels=1, per=8)


def test_self_intersection_rejected():
    th = 2.0 * np.pi * np.arange(64) / 64
    eight = np.sin(2 * th) + 1j * np.sin(th)  # figure eight
    with pytest.raises(GeometryError):
        build_closed_contour({
            "type": "node-chain",
            "nodes": np.stack([eight.real, eight.imag], axis=1).tolist(),
            "panels": 8,
        })


def test_one_node_spike_on_fine_circle_rejected():
    # the spike crosses the curve between two nodes of a 4096-node circle
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    z[1029] = -1.5 * z[1029]
    with pytest.raises(GeometryError, match="crosses or touches"):
        build_closed_contour({
            "type": "node-chain",
            "nodes": np.stack([z.real, z.imag], axis=1).tolist(),
            "panels": 8,
        })


def outlying_node_circle(n, k=1001):
    """An n-node unit circle with node k moved out to radius 3: a valid
    curve whose two segments at node k are far longer than the rest."""
    z = np.exp(2j * np.pi * np.arange(n) / n)
    z[k] *= 3.0
    return z


def node_chain(z):
    return build_closed_contour({"type": "node-chain", "panels": 8,
                                 "nodes": np.stack([z.real, z.imag], axis=1).tolist()})


def test_outlying_node_keeps_the_contact_test_near_linear():
    # the grid's cell is the 99th-percentile segment, so the two long ones
    # take every later segment as candidates and the others only the
    # neighbouring cells' (with a cell of the longest segment, building
    # this curve took over a minute)
    with mock.patch.object(geometry, "_ranges", wraps=geometry._ranges) as spy:
        host = node_chain(outlying_node_circle(65536))
    candidates = sum(int(np.sum(call.args[1])) for call in spy.call_args_list)
    assert host.n_nodes == 65536 and candidates <= 16 * host.n_nodes


@pytest.mark.parametrize("k", [0, 1001, 4095])
def test_diameter_sees_an_outlying_node(k):
    # the diameter samples every 8th of 4096 nodes, and node 1001 is not one
    # of them: the points extreme along x, y, x + y and x - y are
    host = node_chain(outlying_node_circle(4096, k))
    assert host.diameter() == pytest.approx(4.0, rel=1e-6)


def test_jittered_rounded_polygons_accepted():
    # straight edges give runs of nearly collinear segments, none of which
    # may test as a contact; one of these 40 used to fail a sign-only test
    gen = np.random.default_rng(3)
    base = np.array([[1.2, 0.0], [0.0, 1.0], [-1.1, 0.1], [-0.2, -1.0]])
    for _ in range(40):
        per = int(gen.integers(32, 513))
        host = build_closed_contour({
            "type": "rounded-polygon",
            "vertices": (base + gen.uniform(-0.1, 0.1, base.shape)).tolist(),
            "corner_radius": 0.25, "panels": 8, "nodes_per_panel": per,
        })
        assert host.n_nodes == 8 * per


def test_rounded_polygon():
    sq = build_closed_contour({
        "type": "rounded-polygon",
        "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]],
        "corner_radius": 0.25,
        "panels": 8, "nodes_per_panel": 16,
    })
    # shorter than the sharp square, longer than the inscribed circle
    assert sq.total_length < 8.0
    assert sq.total_length > 2 * np.pi
    # exact: 4 straight pieces of length 1.5 plus a full circle of radius 0.25
    assert abs(sq.total_length - (6.0 + 2 * np.pi * 0.25)) < 1e-12
    assert geometry._signed_area(sq.nodes) > 0
    assert np.max(np.abs(np.abs(sq.tangents) - 1.0)) < 1e-12
    with pytest.raises(GeometryError):
        build_closed_contour({
            "type": "rounded-polygon",
            "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]],
            "corner_radius": 1.5,
            "panels": 8, "nodes_per_panel": 16,
        })


def test_vertex_ordering_of_polygon_is_normalized():
    cw = build_closed_contour({
        "type": "rounded-polygon",
        "vertices": [[1, -1], [-1, -1], [-1, 1], [1, 1]],  # clockwise input
        "corner_radius": 0.25,
        "panels": 8, "nodes_per_panel": 16,
    })
    assert geometry._signed_area(cw.nodes) > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    gaps=st.lists(st.floats(0.3, 1.0), min_size=3, max_size=8),
    axes=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
    spin=st.floats(0.0, 2.0 * np.pi),
    fill=st.floats(0.05, 0.95),
    per=st.integers(4, 96),
    clockwise=st.booleans(),
)
def test_convex_rounded_polygon_nodes_lie_on_edges_and_corners(gaps, axes, spin, fill,
                                                               per, clockwise):
    # vertices on an ellipse, counter-clockwise, are in convex position
    ang = spin + 2.0 * np.pi * np.cumsum(gaps) / sum(gaps)
    v = axes[0] * np.cos(ang) + 1j * axes[1] * np.sin(ang)
    prev, nxt = np.roll(v, 1), np.roll(v, -1)
    e1 = (v - prev) / np.abs(v - prev)
    e2 = (nxt - v) / np.abs(nxt - v)
    turn = np.angle(e2 / e1)
    # a corner radius whose tangent points stay inside their edges
    room = 0.5 * np.minimum(np.abs(v - prev), np.abs(nxt - v)) / np.tan(0.5 * turn)
    radius = fill * float(np.min(room))
    verts = v[::-1] if clockwise else v
    host = build_closed_contour({
        "type": "rounded-polygon", "vertices": [[z.real, z.imag] for z in verts],
        "corner_radius": radius, "panels": 4, "nodes_per_panel": per,
    })
    z = host.nodes[:, None]
    t = np.clip(np.real((z - prev) / (v - prev)), 0.0, 1.0)
    to_edge = np.abs(prev + t * (v - prev) - z)
    # corner centres on the inner bisectors, radius / cos(turn / 2) from the vertex
    centre = v + (e2 - e1) / np.abs(e2 - e1) * radius / np.cos(0.5 * turn)
    to_circle = np.abs(np.abs(z - centre) - radius)
    gap = np.minimum(to_edge.min(axis=1), to_circle.min(axis=1))
    assert np.max(gap) <= 1e-12 * max(axes)
    speed = np.abs(host.dz_dtheta)
    assert np.max(np.abs(speed - host.total_length / (2.0 * np.pi))) <= 1e-12 * speed[0]
    # no node slides along its piece: neighbours are at most one step apart
    chord = np.abs(np.diff(np.append(host.nodes, host.nodes[0])))
    assert np.max(chord) <= (1.0 + 1e-12) * host.total_length / host.n_nodes


# ---------------------------------------------------------------------------
# arc systems: construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 11])
def test_open_fd4_is_exact_on_polynomials_it_resolves(n):
    # from 5 points every stencil is 4th order, exact on quartics; below,
    # numpy's gradient, exact on lines (one-sided ends) and at interior
    # points on quadratics.  Tolerances about twice the worst measured:
    # 8.3e-14 (line), 1.9e-15 max|u'| (quartic), 5.6e-17 (quadratic)
    x = 0.7 - 0.3 * np.arange(n)
    quartic, line = (x - 0.2) ** 4 - 3.0 * x ** 3, 2.0 - 5.0 * x
    d = geometry._open_fd4(line.astype(complex) * (1 + 2j), -0.3)
    assert d.dtype == complex and np.max(np.abs(d + 5.0 * (1 + 2j))) <= 2e-13
    if n >= 5:
        want = 4.0 * (x - 0.2) ** 3 - 9.0 * x ** 2
        gap = np.max(np.abs(geometry._open_fd4(quartic, -0.3) - want))
        assert gap <= 4e-15 * np.max(np.abs(want))
    elif n > 2:
        d = geometry._open_fd4(x * x, -0.3)
        assert np.max(np.abs(d[1:-1] - 2.0 * x[1:-1])) <= 1e-16


def test_point_at_follows_the_arc_and_refuses_a_chain():
    host = build_arc_system([
        {"type": "segment", "a": [-1.0, 0.5], "b": [1.0, -0.5], "panels": 4, "nodes_per_panel": 8},
        {"type": "circular", "center": [3.0, 0.0], "radius": 0.5, "theta_a": 0.2,
         "theta_b": 2.0, "panels": 4, "nodes_per_panel": 8},
        {"type": "chain", "nodes": [[5.0 + 0.1 * k, 0.02 * k * k] for k in range(12)]}])
    for arc in host.arcs[:2]:
        assert np.max(np.abs(arc.point_at(arc.params) - arc.nodes)) <= 1e-15
        assert abs(arc.point_at(-1.0) - arc.a) <= 1e-15 and abs(arc.point_at(1.0) - arc.b) <= 1e-15
    with pytest.raises(GeometryError, match="chain"):
        host.arcs[2].point_at(0.0)


def test_segment_arc_nodes_and_grading():
    sys1 = build_arc_system([
        {"type": "segment", "a": [-1, 0], "b": [1, 0], "panels": 4, "nodes_per_panel": 8},
    ])
    arc = sys1.arcs[0]
    m = arc.n_nodes
    assert m == 32
    # first-kind Chebyshev parameters, ascending
    k = np.arange(m, 0, -1)
    tau_ref = np.cos((2 * k - 1) * np.pi / (2 * m))
    assert np.max(np.abs(arc.params - tau_ref)) < 1e-14
    assert np.all(np.diff(arc.nodes.real) > 0)
    # own-factor boundary value on [-1,1]: i*sqrt(1-tau^2)
    assert np.max(np.abs(arc.sqrt_own_plus - 1j * np.sqrt(1 - tau_ref**2))) < 1e-14


def test_disjointness_enforced():
    with pytest.raises(DisjointnessError):
        build_arc_system([
            {"type": "segment", "a": [-1, 0], "b": [1, 0], "panels": 2, "nodes_per_panel": 8},
            {"type": "segment", "a": [0, -1], "b": [0, 1], "panels": 2, "nodes_per_panel": 8},
        ])
    with pytest.raises((DisjointnessError, DegenerateSystemError)):
        build_arc_system([
            {"type": "segment", "a": [-1, 0], "b": [0, 0], "panels": 2, "nodes_per_panel": 8},
            {"type": "segment", "a": [0, 0], "b": [1, 0], "panels": 2, "nodes_per_panel": 8},
        ])


def test_touching_arcs_rejected():
    # the endpoint of one segment lies inside the other
    with pytest.raises(DisjointnessError):
        build_arc_system([
            {"type": "segment", "a": [-1, 0], "b": [1, 0], "panels": 2, "nodes_per_panel": 8},
            {"type": "segment", "a": [0, 0], "b": [0, 1], "panels": 2, "nodes_per_panel": 8},
        ])
    # a circular arc that ends where it is tangent to the segment
    with pytest.raises(DisjointnessError):
        build_arc_system([
            {"type": "segment", "a": [-1, 0], "b": [1, 0], "panels": 2, "nodes_per_panel": 8},
            {"type": "circular", "center": [0, 1], "radius": 1.0,
             "theta_a": -np.pi / 2 - 1.0, "theta_b": -np.pi / 2,
             "panels": 2, "nodes_per_panel": 8},
        ])


def test_curved_arcs_that_meet_between_nodes_rejected():
    # unit circles about -1 and +1 touch at 0, which is no node of either arc:
    # the node polylines stay 6e-4 apart, the arcs themselves meet
    def pair(shift):
        return [{"type": "circular", "center": [-shift, 0], "radius": 1.0,
                 "theta_a": -0.5, "theta_b": 0.5, "panels": 1, "nodes_per_panel": 16},
                {"type": "circular", "center": [shift, 0], "radius": 1.0,
                 "theta_a": np.pi - 0.5, "theta_b": np.pi + 0.5,
                 "panels": 1, "nodes_per_panel": 16}]

    with pytest.raises(DisjointnessError):
        build_arc_system(pair(1.0))
    build_arc_system(pair(1.001))
    # segments that cross a 4-node circular arc past its middle chord (x = 0.97),
    # or touch it at its middle, where there is no node
    arc = {"type": "circular", "radius": 1.0, "theta_a": -0.6, "theta_b": 0.6,
           "panels": 1, "nodes_per_panel": 4}
    for a, b in (([0.99, 0.0], [1.5, 0.0]), ([1.0, -0.3], [1.0, 0.3])):
        with pytest.raises(DisjointnessError):
            build_arc_system([arc, {"type": "segment", "a": a, "b": b,
                                    "panels": 1, "nodes_per_panel": 4}])
    # between the chord and the arc, clear of both
    build_arc_system([arc, {"type": "segment", "a": [0.98, -0.01], "b": [0.98, 0.01],
                            "panels": 1, "nodes_per_panel": 4}])


def test_overlapping_collinear_segments_rejected():
    with pytest.raises(DisjointnessError):
        build_arc_system([
            {"type": "segment", "a": [-1, 0], "b": [0.5, 0], "panels": 2, "nodes_per_panel": 8},
            {"type": "segment", "a": [0, 0], "b": [1, 0], "panels": 2, "nodes_per_panel": 8},
        ])
    # a chain that doubles back along itself
    x = np.concatenate((np.linspace(0.0, 1.0, 9), np.linspace(0.9, 0.5, 5)))
    with pytest.raises(GeometryError) as info:
        build_arc_system([{"type": "chain", "nodes": [[v, 0.0] for v in x]}])
    assert not isinstance(info.value, DisjointnessError)


def test_self_crossing_chain_arc_rejected():
    t = np.linspace(-1.5, 1.5, 40)  # (t^2 - 1, t^3 - t) crosses itself at 0
    with pytest.raises(GeometryError, match="arc 0 crosses or touches itself") as info:
        build_arc_system([{"type": "chain",
                           "nodes": np.stack([t * t - 1, t ** 3 - t], axis=1).tolist()}])
    assert not isinstance(info.value, DisjointnessError)


def test_degenerate_endpoints_rejected():
    with pytest.raises((DegenerateSystemError, GeometryError)):
        build_arc_system([
            {"type": "segment", "a": [0.5, 0], "b": [0.5, 0], "panels": 2, "nodes_per_panel": 8},
        ])


# ---------------------------------------------------------------------------
# the contact test against every pair
# ---------------------------------------------------------------------------

def all_pairs_contacts(polylines, closed=False, circles=None):
    """The contacts of ``_polyline_contacts`` found by trying every pair, O(n^2).

    Each non-adjacent pair of pieces passes the same box filter, then the
    orientation test or, with a curved piece, ``_pieces_meet``.  That one
    starts from its first piece where both are curved, so it runs in both
    orders: returns the segment owners, the pairs found in both orders and
    those found in either.
    """
    if closed:
        polylines = [np.append(polylines[0], polylines[0][0])]
    circles = circles or [None] * len(polylines)
    p = np.concatenate([pts[:-1] for pts in polylines])
    q = np.concatenate([pts[1:] for pts in polylines])
    owner = np.repeat(np.arange(len(polylines)), [pts.size - 1 for pts in polylines])
    columns = []
    for pts, c in zip(polylines, circles):
        k = pts.size - 1
        columns.append((np.zeros(k, complex), np.zeros(k), np.zeros(k), np.zeros(k)) if c is None
                       else (np.full(k, complex(c[0])), np.full(k, float(c[1])), c[2][:-1],
                             np.diff(c[2])))
    cen, rad, th0, dth = (np.concatenate(col) for col in zip(*columns))
    sag = (1.0 + 1e-7) * 2.0 * rad * np.sin(0.25 * dth) ** 2
    xmin, xmax = np.minimum(p.real, q.real) - sag, np.maximum(p.real, q.real) + sag
    ymin, ymax = np.minimum(p.imag, q.imag) - sag, np.maximum(p.imag, q.imag) + sag
    n = p.size
    i, j = np.triu_indices(n, 1)
    keep = (~((owner[i] == owner[j]) & ((j - i == 1) | (closed & (j - i == n - 1))))
            & (xmin[i] <= xmax[j]) & (xmin[j] <= xmax[i])
            & (ymin[i] <= ymax[j]) & (ymin[j] <= ymax[i]))
    i, j = i[keep], j[keep]
    meet = ((_orientation(p[j], q[j], p[i]) * _orientation(p[j], q[j], q[i]) <= 0)
            & (_orientation(p[i], q[i], p[j]) * _orientation(p[i], q[i], q[j]) <= 0))
    forward, backward = meet.copy(), meet.copy()
    curved = (rad[i] > 0) | (rad[j] > 0)
    if curved.any():
        pieces = (p, q, cen, rad, th0, dth)
        forward[curved] = _pieces_meet(pieces, i[curved], j[curved])
        backward[curved] = _pieces_meet(pieces, j[curved], i[curved])

    def pairs(found):
        return set(zip(i[found].tolist(), j[found].tolist()))

    return owner, pairs(forward & backward), pairs(forward | backward)


LATTICE = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda v: complex(*v))


@st.composite
def polyline_sets(draw):
    """(polylines, closed, circles) for ``_polyline_contacts``.

    Polylines through integer lattice points, whose midpoints lie on or
    within 1e-7 of the grid's cell edges, and lattice walks of unit
    horizontal and vertical steps and repeated points, which double back
    into collinear overlaps; open ones may add arcs of circles and one long
    segment among the short ones.
    """
    closed = draw(st.booleans())
    polylines, circles = [], []
    for _ in range(1 if closed else draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["points", "walk"] if closed else ["points", "walk", "arc"]))
        if kind == "arc":
            c = draw(LATTICE)
            r = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
            steps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=10)))
            steps *= min(1.0, 6.0 / steps.sum()) * draw(st.sampled_from([1.0, -1.0]))
            ang = draw(st.integers(-8, 8)) * np.pi / 8 + np.concatenate(([0.0], np.cumsum(steps)))
            polylines.append(c + r * np.exp(1j * ang))
            circles.append((c, r, ang))
            continue
        if kind == "points":
            pts = draw(st.lists(LATTICE, min_size=2, max_size=12))
        else:
            moves = draw(st.lists(st.sampled_from([1, -1, 1j, -1j, 0]), min_size=1, max_size=16))
            pts = draw(LATTICE) + np.concatenate(([0], np.cumsum(moves)))
        polylines.append(np.array(pts, dtype=complex))
        circles.append(None)
    if not closed and draw(st.booleans()):
        far = st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(lambda v: complex(*v))
        polylines.append(np.array([draw(far), draw(far)]))
        circles.append(None)
    return polylines, closed, None if closed else circles


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=polyline_sets(), block=st.sampled_from([geometry._BLOCK, 1, 7]))
def test_polyline_contacts_are_those_of_every_pair(case, block):
    # small blocks split the candidates of one call over many passes
    polylines, closed, circles = case
    with mock.patch.object(geometry, "_BLOCK", block):
        assert_contacts_of_every_pair(polylines, closed, circles)


def assert_contacts_of_every_pair(polylines, closed=False, circles=None):
    owner, i, j = _polyline_contacts(polylines, closed=closed, circles=circles)
    want_owner, sure, either = all_pairs_contacts(polylines, closed, circles)
    assert owner.tolist() == want_owner.tolist()
    got = list(zip(i.tolist(), j.tolist()))
    assert got == sorted(set(got)) and all(a < b for a, b in got)
    assert sure <= set(got) <= either


def test_outlying_node_circle_contacts_are_those_of_every_pair():
    # two segments longer than the grid's cell among 4096
    assert_contacts_of_every_pair([outlying_node_circle(4096)], closed=True)


def test_repeated_point_beside_an_arc_piece_is_a_contact_without_warnings():
    # a zero-length piece 5e-4 inside the box of the arc piece from angle 0 to
    # 0.1, widened by its sagitta, and 4.5e-3 inside the circle: it has no
    # direction, and its polyline touches itself across the repeated point
    ang = np.linspace(-0.5, 0.5, 11)
    arc = np.exp(1j * ang)
    point = np.cos(0.1) - 2.0 * np.sin(0.025) ** 2 + 5e-4 + 0.05j
    walk = np.array([0.5 - 0.2j, point, point, 0.5 + 0.2j])
    owner, i, j = _polyline_contacts([arc, walk], circles=[(0.0, 1.0, ang), None])
    assert list(zip(i.tolist(), j.tolist())) == [(10, 12)]
    assert owner[10] == owner[12] == 1
    assert_contacts_of_every_pair([arc, walk], circles=[(0.0, 1.0, ang), None])


@st.composite
def convex_polygons(draw):
    """A closed polyline: points at sorted random angles of an ellipse of
    aspect ratio 1e-9 to 1, scaled by 1e-3 to 1e3, turned and moved by up to
    1e4; perhaps with one point pushed in (towards the centre, or onto the
    chord of its neighbours and past it) by 1e-16 to 1e-1 relative, or
    wound twice."""
    n = draw(st.integers(3, 40))
    ang = 2.0 * np.pi * np.concatenate([
        lap + np.sort(draw(st.lists(st.integers(0, 2 ** 20 - 1), min_size=n, max_size=n,
                                    unique=True))) / 2.0 ** 20
        for lap in range(draw(st.sampled_from([1, 1, 1, 2])))])
    aspect = 10.0 ** draw(st.floats(-9.0, 0.0))
    z = np.cos(ang) + 1j * aspect * np.sin(ang)
    push = draw(st.sampled_from(["none", "centre", "chord"]))
    if push != "none":
        k = draw(st.integers(0, z.size - 1))
        by = 10.0 ** draw(st.floats(-16.0, -1.0))
        if push == "centre":
            z[k] *= 1.0 - by
        else:
            chord = z[(k + 1) % z.size] - z[k - 1]
            z[k] = 0.5 * (z[k - 1] + z[(k + 1) % z.size]) + 1j * by * chord
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    turn = np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    offset = complex(draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4)))
    return offset + scale * turn * z


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=convex_polygons())
def test_convex_certificate_agrees_with_every_pair(z):
    assert_contacts_of_every_pair([z], closed=True)


@st.composite
def monotone_polylines(draw):
    """(polylines, circles): open polylines, each monotone along x or y in
    either direction (with ties), or an arc of a circle within a quadrant,
    laid side by side along x or y with boxes that are apart, share exactly
    one bound, or overlap by one unit or by one ulp.  Integer points keep
    the shared bounds exact."""
    lay = draw(st.sampled_from([1, 1j]))
    polylines, circles, start = [], [], 0.0
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)) == 0:
            r = draw(st.sampled_from([1.0, 2.0]))
            quadrant = draw(st.integers(0, 3)) * np.pi / 2
            ang = quadrant + np.sort(np.array(draw(st.lists(
                st.floats(0.0, np.pi / 2), min_size=2, max_size=10, unique=True))))
            ang = ang[::draw(st.sampled_from([1, -1]))]
            pts, c = r * np.exp(1j * ang), [0.0, r, ang]
        else:
            along = draw(st.sampled_from([1, -1, 1j, -1j]))
            steps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=12))
            across = draw(st.lists(st.integers(-3, 3), min_size=len(steps) + 1,
                                   max_size=len(steps) + 1))
            pts = along * (np.concatenate(([0], np.cumsum(steps))) + 1j * np.array(across))
            c = None
        coord = (pts / lay).real
        shift = (start - coord.min()) * lay
        pts = pts + shift
        if c is not None:
            c[0] = shift
        coord = (pts / lay).real
        nudge = draw(st.sampled_from([0, 0, -1, 1]))
        if nudge and len(polylines):
            low = coord == coord.min()
            moved = np.nextafter(coord[low], coord[low] + nudge)
            pts[low] += (moved - coord[low]) * lay
        polylines.append(pts.astype(complex))
        circles.append(None if c is None else tuple(c))
        start = float(coord.max()) + draw(st.sampled_from([0.0, 1.0, -1.0]))
    return polylines, circles


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=monotone_polylines())
def test_ordered_arcs_certificate_agrees_with_every_pair(case):
    polylines, circles = case
    assert_contacts_of_every_pair(polylines, circles=circles)


@pytest.mark.parametrize("spec, grid", [
    ({"type": "circle", "radius": 1.0, "panels": 8, "nodes_per_panel": 2048}, False),
    ({"type": "ellipse", "semi_axes": [2.0, 1.0], "panels": 8, "nodes_per_panel": 512}, False),
    ({"type": "rounded-polygon", "corner_radius": 0.25, "panels": 8, "nodes_per_panel": 512,
      "vertices": [[1.2, 0.0], [0.0, 1.0], [-1.1, 0.1], [-0.2, -1.0]]}, True),
    ([{"type": "segment", "a": [-1, 0], "b": [1, 0], "panels": 8, "nodes_per_panel": 256}],
     False),
    ([{"type": "segment", "a": [a, 0], "b": [b, 0], "panels": 8, "nodes_per_panel": 128}
      for a, b in [(-1.0, -0.3), (0.2, 1.0)]], False),
    ([{"type": "circular", "center": [0, 0], "radius": 1.0, "theta_a": ta, "theta_b": tb,
       "panels": 8, "nodes_per_panel": 128} for ta, tb in [(0.3, 1.4), (2.2, 4.0)]], False),
    ([{"type": "segment", "a": a, "b": b, "panels": 8, "nodes_per_panel": per}
      for a, b, per in [([-1, 0], [-0.4, 0], 86), ([0.1, 0], [1, 0], 86),
                        ([-0.5, 0.5], [0.5, 0.8], 84)]], False),
])
def test_route_that_decides_each_benchmark_host(spec, grid):
    # the benchmark's large closed contours and its arc systems: a certificate
    # settles all but the rounded polygon, whose straight runs turn by 4e-19
    with mock.patch.object(geometry, "_orientation", wraps=_orientation) as spy:
        if isinstance(spec, dict):
            build_closed_contour(spec)
        else:
            build_arc_system(spec)
    assert spy.called == grid


def test_self_contact_error_names_the_first_pair_in_segment_order():
    # z = e^{it} + e^{3it}/2 curls twice: segments 10 and 20 cross, and so do
    # 42 and 52, left of the first crossing, where the grid's columns start
    th = 2.0 * np.pi * (np.arange(64) + 0.5) / 64
    z = np.exp(1j * th) + 0.5 * np.exp(3j * th)
    _, i, j = _polyline_contacts([z], closed=True)
    assert list(zip(i.tolist(), j.tolist())) == [(10, 20), (42, 52)]
    with pytest.raises(GeometryError, match="at segments 10 and 20$"):
        build_closed_contour({"type": "node-chain", "panels": 8,
                              "nodes": np.stack([z.real, z.imag], axis=1).tolist()})


# ---------------------------------------------------------------------------
# sqrt(R): branch identities
# ---------------------------------------------------------------------------

def eval_R(system, z):
    """R(z), the product of (z - e) over the system's endpoints e."""
    return np.prod(np.subtract.outer(z, system.endpoints), axis=-1)


def test_sqrtR_square_is_R():
    sysm = build_arc_system([
        {"type": "segment", "a": [-2, 0], "b": [-1, 0.5], "panels": 2, "nodes_per_panel": 8},
        {"type": "circular", "center": [1, 0], "radius": 0.7,
         "theta_a": -1.0, "theta_b": 1.2, "panels": 2, "nodes_per_panel": 8},
    ])
    pts = 3.0 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
    pts = np.array([z for z in pts if sysm.distance_to(z) > 0.05])
    v = sysm.eval_sqrtR(pts)
    R = eval_R(sysm, pts)
    assert np.max(np.abs(v**2 - R)) < 1e-10 * np.max(np.abs(R))


def test_sqrtR_normalized_at_infinity():
    sysm = two_intervals()
    for ang in (0.3, 1.7, 2.9, -2.2):
        z = 1e8 * np.exp(1j * ang)
        assert abs(sysm.eval_sqrtR(z) / z**2 - 1.0) < 1e-6


def test_sqrtR_scalar_point_gives_scalar():
    sysm = two_intervals()
    pts = np.array([3.0, 0.5 + 1.0j])
    want = sysm.eval_sqrtR(pts)
    for z, w in zip(pts, want):
        v = sysm.eval_sqrtR(z)
        assert np.ndim(v) == 0
        assert complex(v) == w


def test_sqrtR_single_valued_off_arcs():
    # walk a closed loop that encircles one interval; values must come back
    # to the start without a sign flip and with small increments throughout
    sysm = two_intervals()
    th = 2.0 * np.pi * np.arange(400) / 400
    loop = 1.5 + 0.8 * np.exp(1j * th)  # encircles [1,2] only
    v = sysm.eval_sqrtR(loop)
    dv = np.abs(np.diff(np.concatenate([v, v[:1]])))
    assert np.max(dv) < 0.2 * np.max(np.abs(v))


def test_boundary_values_are_opposite_and_square_to_R():
    sysm = two_intervals(per=16)
    plus = sysm.sqrtR_plus_nodes()
    nodes = sysm.nodes
    # plus value squared equals R on the arc (the modulus is continuous)
    assert np.max(np.abs(plus**2 - eval_R(sysm, nodes))) < 1e-10
    # compare with a numerical limit from either side
    tang = sysm.tangents
    for idx in (3, 20, 40, 60):
        t, n = nodes[idx], 1j * tang[idx]
        above = sysm.eval_sqrtR(t + 1e-7 * n, check_distance=False)
        below = sysm.eval_sqrtR(t - 1e-7 * n, check_distance=False)
        assert abs(above - plus[idx]) < 1e-5
        assert abs(below + plus[idx]) < 1e-5
        assert abs(above + below) < 1e-5  # opposite limits


def test_circular_arc_boundary_limit():
    sysm = build_arc_system([
        {"type": "circular", "center": [0, 0], "radius": 1.0,
         "theta_a": 0.4, "theta_b": 2.3, "panels": 4, "nodes_per_panel": 8},
    ])
    arc = sysm.arcs[0]
    t = arc.point_at(0.11)
    p = sysm.sqrtR_plus_at(0, t)
    n = 1j * 1j * t  # plus normal for a ccw-run circular arc points inward
    n = n / abs(n)
    lim = sysm.eval_sqrtR(t + 1e-8 * n, check_distance=False)
    assert abs(p - lim) < 1e-6
    assert abs(p**2 - eval_R(sysm, t)) < 1e-10


def test_chain_arc_matches_segment_closed_form():
    # a chain sampled from a straight segment must reproduce the segment branch
    pts = np.linspace(-1.0, 1.0, 41)
    chain = build_arc_system([
        {"type": "chain", "nodes": np.stack([pts, np.zeros_like(pts)], axis=1).tolist()},
    ])
    seg = build_arc_system([
        {"type": "segment", "a": [-1, 0], "b": [1, 0], "panels": 1, "nodes_per_panel": 16},
    ])
    for z in (1.7 + 0.3j, -0.4 + 1.1j, 0.2 - 0.9j, 3.0):
        assert abs(chain.eval_sqrtR(z) - seg.eval_sqrtR(z)) < 1e-10
    # boundary plus values along the chain approximate i*sqrt(1-x^2)
    x = chain.nodes.real
    ref = 1j * np.sqrt(1.0 - x**2)
    assert np.max(np.abs(chain.sqrtR_plus_nodes() - ref)) < 1e-4


def _polyline_chain_factor(arc, z):
    """Loop reference for the chain-arc branch: the principal pair, signed by
    the polyline product (z - b) * prod_k sqrt((z - p_k)/(z - p_{k+1}))."""
    p = np.concatenate(([arc.a], arc.nodes, [arc.b]))
    branch = z - arc.b
    for k in range(p.size - 1):
        branch *= np.sqrt((z - p[k]) / (z - p[k + 1]))
    pair = np.sqrt(z - arc.a) * np.sqrt(z - arc.b)
    return pair if abs(branch - pair) < abs(branch + pair) else -pair


def test_chain_branch_matches_recorded_values():
    # values recorded from the point-by-point walk on a straight horizontal
    # chain, where the principal product's cut is the chain itself
    x = np.linspace(-1.0, 1.0, 41)
    x = x + 0.01 * np.sin(7 * x) * (1 - x * x)
    chain = build_arc_system([
        {"type": "chain", "nodes": np.stack([x, np.zeros_like(x)], axis=1).tolist()},
    ])
    recorded = {
        1.7 + 0.3j: 1.3908473600557323 + 0.3666829406640021j,
        -0.4 + 1.1j: -0.30074630563761795 + 1.4630271153859986j,
        0.2 - 0.9j: 0.13460903910741717 - 1.3372058904332653j,
        3.0: 2.8284271247461903 + 0j,
        -2.5 - 0.2j: -2.292934944404482 - 0.21806113654474368j,
    }
    got = chain.eval_sqrtR(np.array(list(recorded)))
    assert np.max(np.abs(got - np.array(list(recorded.values())))) < 1e-14
    # on the plus side of a straight chain the factor is i sqrt(|t - a| |b - t|)
    # exactly; the two-offset extrapolation it once took erred by 2.5e-12
    t = chain.nodes
    want = 1j * np.sqrt(np.abs(t - chain.arcs[0].a) * np.abs(chain.arcs[0].b - t))
    assert np.max(np.abs(chain.arcs[0].sqrt_own_plus - want)) < 1e-14


def test_curved_chain_branch_matches_circular_arc():
    # a chain sampled from a circular arc has the circular arc's branch off
    # the arc and on its plus side, including between the two leftward rays
    # where the principal pair has the opposite sign
    th = np.linspace(0.4, 2.3, 130)
    pts = np.exp(1j * th)
    chain = build_arc_system([
        {"type": "chain", "nodes": np.stack([pts.real, pts.imag], axis=1).tolist()},
    ])
    circ = build_arc_system([
        {"type": "circular", "center": [0, 0], "radius": 1.0,
         "theta_a": 0.4, "theta_b": 2.3, "panels": 1, "nodes_per_panel": 32},
    ])
    z = 2.5 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    z = np.concatenate((z[[chain.distance_to(w) > 0.05 for w in z]],
                        [-0.18 + 0.5j, -5.6 + 0.65j, 0.0 + 0.6j]))
    want = circ.eval_sqrtR(z)
    assert np.max(np.abs(chain.eval_sqrtR(z) - want) / np.abs(want)) < 1e-12
    for w in z[:20]:
        assert abs(chain.arcs[0].factor_eval(w) - _polyline_chain_factor(chain.arcs[0], w)) < 1e-14
    ref = np.array([circ.sqrtR_plus_at(0, t) for t in chain.nodes])
    assert np.max(np.abs(chain.sqrtR_plus_nodes() - ref)) < 1e-8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    centre=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    radius=st.floats(0.3, 3.0),
    start=st.floats(-np.pi, np.pi),
    sweep=st.floats(0.3, 5.5),
    clockwise=st.booleans(),
    n_points=st.integers(40, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_branch_is_the_circular_arc_branch(centre, radius, start, sweep, clockwise,
                                                 n_points, seed):
    # the chain's cut is the polyline, so off it (away from the thin lenses
    # between chords and circle) the branch is the circular arc's closed form,
    # inside the circle too, where rays from a point cross the chain again
    c = complex(*centre)
    end = start - sweep if clockwise else start + sweep
    pts = c + radius * np.exp(1j * np.linspace(start, end, n_points))
    chain = build_arc_system([
        {"type": "chain", "nodes": np.stack([pts.real, pts.imag], axis=1).tolist()},
    ])
    circ = build_arc_system([
        {"type": "circular", "center": [c.real, c.imag], "radius": radius,
         "theta_a": start, "theta_b": end, "panels": 1, "nodes_per_panel": 32},
    ])
    gen = np.random.default_rng(seed)
    z = c + radius * 2.5 * np.sqrt(gen.random(64)) * np.exp(2j * np.pi * gen.random(64))
    z = z[np.abs(np.abs(z - c) - radius) > 0.05]
    want = circ.eval_sqrtR(z)
    assert np.max(np.abs(chain.eval_sqrtR(z) - want) / np.abs(want)) <= 1e-12
    ref = circ.sqrtR_plus_at(0, chain.nodes)
    assert np.max(np.abs(chain.sqrtR_plus_nodes() - ref)) <= 1e-8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    arcs=st.lists(st.tuples(st.booleans(), st.floats(0.2, 2.0), st.floats(-np.pi, np.pi),
                            st.floats(-2.0 * np.pi + 0.1, 2.0 * np.pi - 0.1)),
                  min_size=1, max_size=3),
    direction=st.floats(-np.pi, np.pi),
)
def test_closed_form_branch_is_z_to_the_n_at_infinity(arcs, direction):
    # segments and circular arcs, each in its own cell 6 apart: the sign of
    # each closed-form factor is fixed by its ray angle alone
    specs = []
    for k, (segment, size, angle, sweep) in enumerate(arcs):
        c = 6.0 * k
        if segment:
            a, b = c - size * np.exp(1j * angle), c + size * np.exp(1j * (angle + sweep))
            specs.append({"type": "segment", "a": [a.real, a.imag], "b": [b.real, b.imag]})
        elif abs(sweep) > 1e-3:
            specs.append({"type": "circular", "center": [c, 0.0], "radius": size,
                          "theta_a": angle, "theta_b": angle + sweep})
    if not specs:
        return
    sysm = build_arc_system(specs)
    z = 1e6 * sysm.diameter() * np.exp(1j * direction)
    assert abs(sysm.eval_sqrtR(z) / z ** sysm.n_arcs - 1.0) <= 1e-4


def segment_circular_chain(per=16):
    """A segment, a circular arc and a chain arc, ``per`` * 4 nodes on the first two."""
    s = np.linspace(0.0, 1.0, 40)
    pts = 3.0 + s + 0.3j * np.sin(3.0 * s)
    return build_arc_system([
        {"type": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0],
         "panels": 4, "nodes_per_panel": per},
        {"type": "circular", "center": [0.0, -3.0], "radius": 1.0,
         "theta_a": 0.5, "theta_b": 2.5, "panels": 4, "nodes_per_panel": per},
        {"type": "chain", "nodes": np.stack([pts.real, pts.imag], axis=1).tolist()},
    ])


def test_sqrtR_plus_at_nodes_matches_node_values():
    # at a node, the boundary value is that node's own
    sysm = segment_circular_chain()
    plus = sysm.sqrtR_plus_nodes()
    off = sysm.arc_offsets
    for k, arc in enumerate(sysm.arcs):
        ref = plus[off[k]:off[k + 1]]
        at = np.array([sqrtR_boundary_plus(sysm, point=t, arc_index=k) for t in arc.nodes])
        assert np.max(np.abs(at - ref) / np.abs(ref)) <= 1e-15


@pytest.mark.parametrize("per", [16, 256])
def test_sqrtR_boundary_plus_at_nodes_matches_node_values(per):
    # by point and arc it is looked up; computed afresh from the point's
    # coordinates (on a graded arc from the angle u recovered from them), it
    # agrees with the node values to the rounding of those coordinates, a
    # relative eps max|t| / |t - end| (measured at most 0.3 of that bound)
    sysm = segment_circular_chain(per)
    plus = sysm.sqrtR_plus_nodes()
    off = sysm.arc_offsets
    for k, arc in enumerate(sysm.arcs):
        ref = plus[off[k]:off[k + 1]]
        got = np.array([sqrtR_boundary_plus(sysm, point=t, arc_index=k) for t in arc.nodes])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12
        afresh = sysm.sqrtR_plus_at(k, arc.nodes)
        ends = np.minimum(np.abs(arc.nodes - arc.a), np.abs(arc.nodes - arc.b))
        bound = np.finfo(float).eps * np.max(np.abs(sysm._points)) / ends
        assert np.all(np.abs(afresh - ref) / np.abs(ref) <= bound)


def test_near_boundary_guard():
    sysm = two_intervals()
    with pytest.raises(NearBoundaryError):
        sysm.eval_sqrtR(sysm.nodes[5])
    with pytest.raises(EndpointSingularityError):
        sqrtR_boundary_plus(sysm, point=sysm.arcs[0].a, arc_index=0)


def test_R_coefficients_are_monic_product():
    sysm = two_intervals()
    # R(z) = (z^2 - 1)(z^2 - 4) for endpoints +-1, +-2
    ref = np.array([4.0, 0.0, -5.0, 0.0, 1.0])
    assert np.max(np.abs(sysm.R_coeffs - ref)) < 1e-12


def test_local_panel_length_is_length_over_panel_count():
    c = circle(panels=8, per=16)
    assert c.local_panel_length == c.total_length / 8
    # 8 panels do not divide a 100-node chain, which then counts one
    th = 2 * np.pi * np.arange(100) / 100
    chain = build_closed_contour({"type": "node-chain", "panels": 8,
                                  "nodes": np.stack([np.cos(th), np.sin(th)], axis=1).tolist()})
    assert chain.local_panel_length == chain.total_length
    # a segment counts its panels, a chain arc one whatever its spec says
    x = np.linspace(2.0, 3.0, 40)
    sysm = build_arc_system([
        {"type": "segment", "a": [-1, 0], "b": [1, 0], "panels": 4, "nodes_per_panel": 8},
        {"type": "chain", "panels": 3, "nodes": np.stack([x, 0.2 * x * x - 2.0], axis=1).tolist()}])
    assert sysm.local_panel_length == sysm.total_length / 5


def test_records_holding_arrays_compare_by_identity_and_hash():
    # field-wise == would compare arrays and raise on the truth value
    import cauchypot as cp

    circ = {"type": "circle", "radius": 1.0, "panels": 2, "nodes_per_panel": 8}
    seg = [{"type": "segment", "a": [-1, 0], "b": [1, 0], "panels": 2, "nodes_per_panel": 8}]
    host = build_closed_contour(circ)
    for make in [
        lambda: build_closed_contour(circ),
        lambda: build_arc_system(seg),
        lambda: build_arc_system(seg).arcs[0],
        lambda: cp.SampledDensity(host, np.ones(host.n_nodes)),
        lambda: cp.ComplexPolynomial([1.0, 2.0]),
        lambda: cp.bounded_solution(cp.SampledDensity.from_function(
            build_arc_system(seg), lambda t: t)),
        lambda: cp.recover_area_density(cp.PotentialField(values=np.zeros((5, 5)), h=0.1)),
    ]:
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_parse_geometry_dispatch(tmp_path):
    spec = {"curve": {"type": "circle", "center": [0, 0], "radius": 1.0,
                      "panels": 4, "nodes_per_panel": 8}}
    host = parse_geometry(spec)
    assert isinstance(host, ClosedContour)
    spec2 = {"arcs": [{"type": "segment", "a": [-1, 0], "b": [1, 0],
                       "panels": 2, "nodes_per_panel": 8}]}
    host2 = parse_geometry(spec2)
    assert isinstance(host2, ArcSystem)
    with pytest.raises(GeometryError):
        parse_geometry({"neither": 1})
    # the spec survives a JSON file round trip
    p = tmp_path / "geom.json"
    p.write_text(json.dumps(spec))
    host3 = parse_geometry(json.loads(p.read_text()))
    assert host3.n_nodes == host.n_nodes


def test_a_closed_contour_cannot_be_edited_under_what_it_caches():
    # the contour copies its nodes and dz/dtheta once and makes them and
    # every array it derives read-only, so an edit in place raises instead
    # of leaving the cached weights and plan stale
    c = circle()
    nodes, dz = c.nodes.copy(), c.dz_dtheta.copy()
    host = ClosedContour(nodes, dz, c.n_panels)
    assert host.nodes is not nodes and host.dz_dtheta is not dz
    nodes *= 2.0
    assert np.array_equal(host.nodes, c.nodes)
    for name in ("nodes", "dz_dtheta", "params", "tangents", "arclength", "dt_weights",
                 "weights"):
        with pytest.raises(ValueError):
            getattr(host, name)[:] *= 2.0
    assert np.array_equal(host.nodes, c.nodes) and np.array_equal(host.dt_weights, c.dt_weights)


def test_an_arc_system_cannot_be_edited_under_what_it_caches():
    # arcs copy their array fields once, and they, the system and every
    # array either derives and caches are read-only, so an edit in place
    # raises instead of leaving the caches stale
    circular = {"type": "circular", "center": [0.0, 2.0], "radius": 1.0, "theta_a": 0.3,
                "theta_b": 2.4, "panels": 8, "nodes_per_panel": 64}
    system = build_arc_system([{"type": "segment", "a": [-1, 0], "b": [1, 0], "panels": 8,
                                "nodes_per_panel": 64}, circular])
    assert system.n_nodes >= 1024  # holds a proxy plan
    fields = {name: getattr(system.arcs[1], name).copy()
              for name in ("nodes", "params", "dt_dtau", "tangents", "arclength")}
    arc = dataclasses.replace(system.arcs[1], **fields)
    for name, a in fields.items():
        assert getattr(arc, name) is not a
        a *= 2.0
        assert np.array_equal(getattr(arc, name), getattr(system.arcs[1], name))
    g = system.nodes ** 2
    bounded = bounded_solution(SampledDensity(system, g))
    for c in ("smooth", "inverse_sqrt", "sqrt"):
        singular_S(SampledDensity(system, g), density_class=c)
    held = [getattr(system, name) for name in (
        "endpoints", "nodes", "params", "dt_weights", "weights", "tangents", "arclength",
        "R_coeffs", "_points", "_plus_nodes")]
    plan = _held(system, quadrature._proxy_plan)
    held += [k for kernels in plan if kernels for k in kernels if k is not None]
    for arc in system.arcs:
        held += [getattr(arc, name) for name in (
            "nodes", "params", "dt_dtau", "tangents", "arclength", "sqrt_own_plus",
            "dt_weights", "_u", "_sin_of_u", "_sigma")]
        held += [*_held(arc, quadrature._twiddles),
                 *_held(arc, quadrature._smooth)]
    assert len(held) == 10 + 3 + 2 * 14
    for a in held:
        with pytest.raises(ValueError):
            a[...] *= 2.0
    with pytest.raises(ValueError):
        system.nodes[:] *= 2
    with pytest.raises(ValueError):
        system.arcs[0].params[0] = 0
    again = bounded_solution(SampledDensity(system, g))
    assert again.solution.values.tobytes() == bounded.solution.values.tobytes()


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

def _stalled_circle():
    """A 128-node circle whose parameter speed vanishes at one node."""
    c = circle()
    dz = c.dz_dtheta.copy()
    dz[5] = 0.0
    return ClosedContour(c.nodes, dz, c.n_panels)


def _curve(kind, **spec):
    return lambda: build_closed_contour({"type": kind, "panels": 8, "nodes_per_panel": 8, **spec})


def _arc(kind, **spec):
    return lambda: build_arc_system([{"type": kind, "panels": 8, "nodes_per_panel": 8, **spec}])


_th = 2 * np.pi * np.arange(10) / 10
_x = np.linspace(0.0, 1.0, 5)

# (error class, call)
REFUSALS = {
    "vanishing speed": (GeometryError, _stalled_circle),
    "ellipse axis 0": (GeometryError, _curve("ellipse", semi_axes=[2.0, 0.0])),
    "ellipse axis -1": (GeometryError, _curve("ellipse", semi_axes=[-1.0, 1.0])),
    "polygon of 2 vertices": (GeometryError, _curve("rounded-polygon", vertices=[[0, 0], [1, 0]],
                                                    corner_radius=0.1)),
    "corner radius 0": (GeometryError, _curve("rounded-polygon", vertices=[[0, 0], [1, 0], [0, 1]],
                                              corner_radius=0.0)),
    "corner radius -0.1": (GeometryError, _curve("rounded-polygon",
                                                 vertices=[[0, 0], [1, 0], [0, 1]],
                                                 corner_radius=-0.1)),
    "closed chain of 10 points": (ResolutionError, _curve(
        "node-chain", nodes=np.stack([np.cos(_th), np.sin(_th)], axis=1).tolist())),
    "sweep 0": (GeometryError, _arc("circular", radius=1.0, theta_a=0.5, theta_b=0.5)),
    "sweep 2 pi": (GeometryError, _arc("circular", radius=1.0, theta_a=0.0, theta_b=2 * np.pi)),
    "chain of 5 points": (ResolutionError, _arc("chain", nodes=np.stack([_x, _x * _x],
                                                                        axis=1).tolist())),
    "arc of 1 node": (ResolutionError, _arc("segment", a=[-1, 0], b=[1, 0], panels=1,
                                            nodes_per_panel=1)),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_raise_their_class(case):
    cls, call = REFUSALS[case]
    with pytest.raises(cls) as info:
        call()
    assert info.type is cls


def test_collinear_vertex_leaves_the_rounded_polygon_unchanged():
    # a vertex in the middle of a straight edge turns by no angle, so it
    # gets no corner: the edge is summed in two pieces, exact here, where
    # the edge lies on the x axis and its midpoint is a float
    spec = {"type": "rounded-polygon", "corner_radius": 0.2, "panels": 8,
            "nodes_per_panel": 64, "vertices": [[0, 0], [2, 0], [2.5, 1], [0, 1.5]]}
    plain = build_closed_contour(spec)
    split = build_closed_contour(dict(spec, vertices=[[0, 0], [1, 0], [2, 0], [2.5, 1], [0, 1.5]]))
    assert split.nodes.tobytes() == plain.nodes.tobytes()
    assert split.dz_dtheta.tobytes() == plain.dz_dtheta.tobytes()
