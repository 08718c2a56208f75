"""Plane curves and arc systems, with the square-root branch attached to them.

Two kinds of hosts are supported:

* ``ClosedContour`` -- a positively oriented, rectifiable Jordan curve sampled
  at nodes uniform in a 2*pi-periodic parameter.  The bounded complementary
  domain lies on the *plus* side; the plus normal is ``1j * tangent``.

* ``ArcSystem`` -- a union of pairwise disjoint open arcs gamma(a_j, b_j).
  Each arc is oriented from ``a`` to ``b`` and its plus side is the left side
  of the direction of travel.  The system carries the polynomial

      R(z) = prod_j (z - a_j) * (z - b_j)

  and the branch of sqrt(R) that is single valued off the arcs and satisfies
  sqrt(R)(z) / z**N -> 1 as z -> infinity (N = number of arcs).  Boundary
  values taken from the two sides of an arc are negatives of each other.

Arc nodes are placed at cosine-graded parameters (the first-kind Chebyshev
points mapped onto the arc), which is the natural grid for densities with
inverse-square-root endpoint behaviour.  Node chains keep the supplied points.

A host is a frozen record of its inputs: the nodes and their parameter
derivative on a contour, the arcs of a system.  Everything derived from them
(tangents, arclength, the diameter and the near cutoff it scales, R and the
plus values of sqrt(R)) is a ``functools.cached_property``, computed on first
use and then kept, since the inputs never change.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSystemError,
    DisjointnessError,
    EndpointSingularityError,
    GeometryError,
    NearBoundaryError,
    ResolutionError,
)

__all__ = [
    "ClosedContour",
    "Arc",
    "ArcSystem",
    "build_closed_contour",
    "build_arc_system",
    "eval_sqrtR",
    "sqrtR_boundary_plus",
    "parse_geometry",
    "node_table_csv",
]

_MIN_NODES = 16
_FAR_FACTOR = 1.0e6
_NEAR_CUTOFF_FACTOR = 1.0e-8
_BLOCK = 1 << 18  # array elements per pass of the chunked vectorised loops


class _Host:
    """Size and cutoffs common to both hosts, taken over their ``_points``."""

    @property
    def n_nodes(self):
        return self.nodes.size

    @property
    def local_panel_length(self):
        return self.total_length / max(len(self.panels), 1)

    @cached_property
    def _diameter(self):
        return _point_set_diameter(self._points)

    def diameter(self):
        return self._diameter

    @cached_property
    def near_cutoff(self):
        return _NEAR_CUTOFF_FACTOR * self.diameter()

    def distance_to(self, z):
        return np.min(np.abs(self._points - z))


# ---------------------------------------------------------------------------
# closed contours
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedContour(_Host):
    """Positively oriented closed curve sampled at parameter-uniform nodes.

    Inputs
    ------
    nodes : complex ndarray, shape (n,)
        Node positions z(theta_k), theta_k = 2*pi*k/n.
    dz_dtheta : complex ndarray
        Parameter derivative at the nodes.
    panels : tuple of (start, stop)
        Contiguous node-index ranges; bookkeeping for panel-based rules.

    Derived once: ``params`` (the theta_k), ``tangents`` (the unit field of
    dz_dtheta), ``arclength`` (cumulative at the nodes, starting at 0),
    ``total_length``, ``diameter()`` and ``near_cutoff``.
    """

    nodes: np.ndarray
    dz_dtheta: np.ndarray
    panels: tuple
    kind: str = "closed"

    def __post_init__(self):
        n = self.nodes.size
        if n < _MIN_NODES:
            raise ResolutionError(f"closed contour needs >= {_MIN_NODES} nodes, got {n}")
        speed = np.abs(self.dz_dtheta)
        if np.any(speed <= 0.0):
            raise GeometryError("vanishing parameter speed at a node")
        tmag = np.abs(self.tangents)
        if np.max(np.abs(tmag - 1.0)) > 1e-12:
            raise GeometryError("tangent field is not unit length")
        if self.signed_area() <= 0.0:
            raise GeometryError("contour is not positively oriented")
        _, i, j = _polyline_contacts([self.nodes], closed=True)
        if i.size:
            raise GeometryError(f"curve crosses or touches itself at segments {i[0]} and {j[0]}")

    # -- derived fields ----------------------------------------------------

    @property
    def _points(self):
        return self.nodes

    @cached_property
    def params(self):
        return 2.0 * np.pi * np.arange(self.n_nodes) / self.n_nodes

    @cached_property
    def tangents(self):
        return self.dz_dtheta / np.abs(self.dz_dtheta)

    @cached_property
    def arclength(self):
        return np.concatenate(([0.0], np.cumsum(self.arclength_weights)))[:-1]

    @cached_property
    def total_length(self):
        return float(np.sum(self.arclength_weights))

    @property
    def normals_plus(self):
        """Unit normal pointing into the bounded (plus) domain."""
        return 1j * self.tangents

    @property
    def complex_weights(self):
        """Weights w_k with  integral f(t) dt  ~=  sum w_k f(t_k)."""
        h = 2.0 * np.pi / self.n_nodes
        return h * self.dz_dtheta

    @property
    def arclength_weights(self):
        h = 2.0 * np.pi / self.n_nodes
        return h * np.abs(self.dz_dtheta)

    def signed_area(self):
        z = self.nodes
        zn = np.roll(z, -1)
        return 0.5 * float(np.sum(np.imag(np.conj(z) * zn)))

    def winding_number(self, z):
        """Winding number of the node polyline about ``z`` (robust, O(n))."""
        v = self.nodes - z
        ang = np.angle(np.roll(v, -1) / v)
        return int(round(float(np.sum(ang)) / (2.0 * np.pi)))

    def contains(self, z):
        return self.winding_number(z) != 0


def _polyline_contacts(polylines, closed=False):
    """Non-adjacent segments of point polylines that cross or touch.

    With ``closed`` the one polyline also joins its last point to its first.
    Midpoints are hashed into a grid whose cell is the longest segment, so
    segments can meet only in equal or neighbouring cells; candidates pass a
    bounding-box filter, then four orientation signs decide, counting touching
    and collinear overlap as contact (Shamos & Hoey, FOCS 1976).  Returns the
    polyline index of every segment and the segment indices i < j of contacts.
    """
    if closed:
        polylines = [np.append(polylines[0], polylines[0][0])]
    p = np.concatenate([pts[:-1] for pts in polylines])
    q = np.concatenate([pts[1:] for pts in polylines])
    owner = np.repeat(np.arange(len(polylines)), [pts.size - 1 for pts in polylines])
    n = p.size
    xmin, xmax = np.minimum(p.real, q.real), np.maximum(p.real, q.real)
    ymin, ymax = np.minimum(p.imag, q.imag), np.maximum(p.imag, q.imag)

    mid = 0.5 * (p + q)
    cell = (1.0 + 1e-7) * float(np.max(np.abs(q - p))) or 1.0  # margin for rounding
    cx = np.floor((mid.real - mid.real.min()) / cell).astype(np.int64)
    cy = np.floor((mid.imag - mid.imag.min()) / cell).astype(np.int64)
    width = int(cy.max()) + 3
    key = (cx + 1) * width + cy + 1
    order = np.argsort(key, kind="stable")
    skey = key[order]
    # each segment against the later ones of its own cell and all of four
    # neighbour cells; the other four neighbours see it from their side
    rows = np.arange(n)
    lo, hi = [rows + 1], [np.searchsorted(skey, skey, "right")]
    for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1)):
        target = skey + dx * width + dy
        lo.append(np.searchsorted(skey, target, "left"))
        hi.append(np.searchsorted(skey, target, "right"))
    rows, lo = np.tile(rows, 5), np.concatenate(lo)
    count = np.concatenate(hi) - lo

    cuts = np.searchsorted(np.cumsum(count), np.arange(_BLOCK, count.sum(), _BLOCK))
    hits_i, hits_j = [], []
    for r, l, c in zip(np.split(rows, cuts), np.split(lo, cuts), np.split(count, cuts)):
        first = np.cumsum(c) - c
        i = order[np.repeat(r, c)]
        j = order[np.arange(c.sum()) - np.repeat(first - l, c)]
        gap = np.abs(i - j)
        adjacent = (owner[i] == owner[j]) & ((gap == 1) | (closed & (gap == n - 1)))
        keep = (~adjacent & (xmin[i] <= xmax[j]) & (xmin[j] <= xmax[i])
                & (ymin[i] <= ymax[j]) & (ymin[j] <= ymax[i]))
        i, j = i[keep], j[keep]
        meet = ((_orientation(p[j], q[j], p[i]) * _orientation(p[j], q[j], q[i]) <= 0)
                & (_orientation(p[i], q[i], p[j]) * _orientation(p[i], q[i], q[j]) <= 0))
        hits_i.append(np.minimum(i, j)[meet])
        hits_j.append(np.maximum(i, j)[meet])
    return owner, np.concatenate(hits_i), np.concatenate(hits_j)


def _orientation(a, b, c):
    """Sign of the turn a -> b -> c: +1 left, -1 right, 0 collinear."""
    return np.sign(np.imag(np.conj(b - a) * (c - a)))


def _point_set_diameter(pts):
    pts = np.asarray(pts)
    if pts.size > 512:
        step = max(1, pts.size // 512)
        pts = pts[::step]
    d = np.abs(pts[:, None] - pts[None, :])
    return float(np.max(d))


def _make_panels(n_nodes, n_panels):
    if n_panels <= 0 or n_nodes % n_panels:
        raise GeometryError(f"{n_nodes} nodes do not split into {n_panels} panels")
    per = n_nodes // n_panels
    return tuple((k * per, (k + 1) * per) for k in range(n_panels))


def _closed_from_parametrization(pos, dpos, n_nodes, n_panels):
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    return ClosedContour(pos(theta), dpos(theta), _make_panels(n_nodes, n_panels))


def build_closed_contour(spec):
    """Build a ClosedContour from a JSON-style mapping.

    Supported kinds: ``circle``, ``ellipse``, ``rounded-polygon``,
    ``node-chain`` (a closed chain of explicit points).
    """
    kind = spec.get("type")
    n_panels = _count(spec, "panels", 8)
    n = n_panels * _count(spec, "nodes_per_panel", 16)

    if kind == "circle":
        c = _as_complex(spec.get("center", 0.0), "center")
        r = _real(spec, "radius")
        if r <= 0:
            raise GeometryError("circle radius must be positive")
        return _closed_from_parametrization(
            lambda th: c + r * np.exp(1j * th),
            lambda th: 1j * r * np.exp(1j * th),
            n, n_panels,
        )

    if kind == "ellipse":
        c = _as_complex(spec.get("center", 0.0), "center")
        try:
            sa, sb = (float(v) for v in spec["semi_axes"])
        except (TypeError, ValueError):
            raise GeometryError(f"'semi_axes' must be two numbers, not {spec['semi_axes']!r}",
                                key="semi_axes") from None
        if sa <= 0 or sb <= 0:
            raise GeometryError("ellipse semi-axes must be positive")
        return _closed_from_parametrization(
            lambda th: c + sa * np.cos(th) + 1j * sb * np.sin(th),
            lambda th: -sa * np.sin(th) + 1j * sb * np.cos(th),
            n, n_panels,
        )

    if kind == "rounded-polygon":
        verts = np.array([_as_complex(v, "vertices") for v in spec["vertices"]])
        return _rounded_polygon(verts, _real(spec, "corner_radius"), n, n_panels)

    if kind == "node-chain":
        nodes = np.array([_as_complex(v, "nodes") for v in spec["nodes"]])
        return _closed_node_chain(nodes, n_panels=n_panels)

    raise GeometryError(f"unknown closed-contour kind {kind!r}")


def _rounded_polygon(verts, radius, n_nodes, n_panels):
    if verts.size < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    if radius <= 0:
        raise GeometryError("corner radius must be positive")
    area = 0.5 * float(np.sum(np.imag(np.conj(verts) * np.roll(verts, -1))))
    if area < 0:
        verts = verts[::-1]

    nv = verts.size
    tang_pts = []
    for k in range(nv):
        prev = verts[(k - 1) % nv]
        cur = verts[k]
        nxt = verts[(k + 1) % nv]
        e1 = (cur - prev) / abs(cur - prev)
        e2 = (nxt - cur) / abs(nxt - cur)
        phi = cmath.phase(e2 / e1)
        if abs(phi) < 1e-14:
            tang_pts.append((cur, cur, None, 0.0, e1))
            continue
        q = radius * math.tan(abs(phi) / 2.0)
        if q > 0.5 * min(abs(cur - prev), abs(nxt - cur)):
            raise GeometryError("corner radius too large for polygon edges")
        p1 = cur - e1 * q
        p2 = cur + e2 * q
        center = p1 + 1j * e1 * radius * np.sign(phi)
        tang_pts.append((p1, p2, center, phi, e1))

    pieces = []  # (length, start, unit, center, ang0, turn); turn 0 marks an edge
    for k in range(nv):
        p1, p2, center, phi, e1 = tang_pts[k]
        p2_prev = tang_pts[(k - 1) % nv][1]
        seg_len = abs(p1 - p2_prev)
        if seg_len > 0:
            pieces.append((seg_len, p2_prev, (p1 - p2_prev) / seg_len, 0.0, 0.0, 0.0))
        if center is not None:
            pieces.append((radius * abs(phi), 0.0, 0.0, center, cmath.phase(p1 - center), phi))

    total = sum(p[0] for p in pieces)
    length, *cols = (np.array(col) for col in zip(*pieces))
    bounds = np.concatenate(([0.0], np.cumsum(length)))
    s = total * np.arange(n_nodes) / n_nodes
    k = np.clip(np.searchsorted(bounds, s, side="right") - 1, 0, len(pieces) - 1)
    loc = s - bounds[k]
    start, unit, center, ang0, turn = (col[k] for col in cols)
    scale = total / (2.0 * np.pi)  # ds/dtheta, constant
    nodes = start + unit * loc
    dz = unit * scale
    arc = turn != 0
    c, turn = center[arc], turn[arc]
    nodes[arc] = c + radius * np.exp(1j * (ang0[arc] + np.copysign(loc[arc] / radius, turn)))
    dz[arc] = 1j * (nodes[arc] - c) / radius * np.sign(turn) * scale
    return ClosedContour(nodes, dz, _make_panels(n_nodes, n_panels))


def _closed_node_chain(nodes, n_panels):
    n = nodes.size
    if n < _MIN_NODES:
        raise ResolutionError(f"closed contour needs >= {_MIN_NODES} nodes, got {n}")
    dz = _periodic_fd4(nodes) / (2.0 * np.pi / n)
    return ClosedContour(nodes, dz, _make_panels(n, 1 if n % n_panels else n_panels))


def _periodic_fd4(values):
    """4th-order centered first difference on a periodic unit-step grid."""
    vm2 = np.roll(values, 2)
    vm1 = np.roll(values, 1)
    vp1 = np.roll(values, -1)
    vp2 = np.roll(values, -2)
    return (vm2 - 8.0 * vm1 + 8.0 * vp1 - vp2) / 12.0


def _open_fd4(values, spacing):
    """4th-order first derivative on a uniform open grid (one-sided at ends)."""
    n = values.size
    d = np.empty(n, dtype=values.dtype)
    if n < 5:
        d[:] = np.gradient(values, spacing)
        return d
    v = values
    d[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / 12.0
    # one-sided / skewed 4th-order stencils at the ends
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    d[0] = np.dot(c, v[:5])
    d[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / 12.0
    d[-1] = -np.dot(c, v[-5:][::-1])
    d[-2] = -(-3.0 * v[-1] - 10.0 * v[-2] + 18.0 * v[-3] - 6.0 * v[-4] + v[-5]) / 12.0
    return d / spacing


# ---------------------------------------------------------------------------
# arcs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arc:
    """A single smooth open arc from ``a`` to ``b``.

    The plus side is the left side when travelling from a to b.  Nodes are
    interior; for ``segment`` and ``circular`` arcs they sit at the images of
    the first-kind Chebyshev points, for ``chain`` arcs they are the supplied
    interior points.

    The fields are what the builders lay down: the nodes with their
    parameters, derivative, tangents and arclength, the panels, the branch
    calibration and, on circular arcs, the circle.  ``sqrt_own_plus`` is
    derived once: the plus boundary values at the nodes of this arc's own
    factor s_j(z) = sqrt((z - a)(z - b)), normalized s_j(z)/z -> 1 at
    infinity with its cut along the arc.
    """

    kind: str
    a: complex
    b: complex
    nodes: np.ndarray
    params: np.ndarray            # tau in (-1, 1), ascending along a -> b
    dt_dtau: np.ndarray
    tangents: np.ndarray
    arclength: np.ndarray
    total_length: float
    panels: tuple
    # branch bookkeeping for the Moebius closed form
    _psi: float = 0.0
    _sign: float = 1.0
    # circular-arc data
    center: complex = 0.0
    radius: float = 0.0
    theta_a: float = 0.0
    theta_b: float = 0.0

    @property
    def n_nodes(self):
        return self.nodes.size

    @property
    def midpoint(self):
        return 0.5 * (self.a + self.b)

    @property
    def normals_plus(self):
        return 1j * self.tangents

    @property
    def graded(self):
        """True when nodes follow the cosine grading (weighted rules valid)."""
        return self.kind in ("segment", "circular")

    @cached_property
    def sqrt_own_plus(self):
        return self.factor_plus(self.nodes, tau=self.params)

    @property
    def sin_u(self):
        """sqrt(1 - tau^2) at the nodes."""
        return np.sqrt(1.0 - self.params ** 2)

    def point_at(self, tau):
        tau = np.asarray(tau, dtype=float)
        if self.kind == "segment":
            mid = 0.5 * (self.a + self.b)
            half = 0.5 * (self.b - self.a)
            return mid + half * tau
        if self.kind == "circular":
            th = 0.5 * (self.theta_a + self.theta_b) + 0.5 * (self.theta_b - self.theta_a) * tau
            return self.center + self.radius * np.exp(1j * th)
        raise GeometryError("point_at is undefined for chain arcs")

    def factor_eval(self, z):
        """This arc's own square-root factor s_j(z) at points off the arc."""
        if self.kind == "chain":
            return _chain_factor_eval(self, z)
        zb = z - self.b
        xi = (z - self.a) / zb
        return self._sign * zb * _sqrt_ray(xi, self._psi)

    def factor_plus(self, t, tau=None):
        """Plus boundary value of the own factor at a point t on the open arc."""
        if self.kind == "segment":
            if tau is None:
                half = 0.5 * (self.b - self.a)
                tau = np.real((np.asarray(t) - self.midpoint) / half)
            return 1j * 0.5 * (self.b - self.a) * np.sqrt(1.0 - np.asarray(tau) ** 2)
        if self.kind == "circular":
            t = np.asarray(t)
            r = np.abs((t - self.a) / (t - self.b))
            return self._sign * (t - self.b) * (-np.sqrt(r) * np.exp(0.5j * self._psi))
        return _chain_factor_plus(self, t)


def _sqrt_ray(xi, psi):
    """Square root of xi with branch cut along the ray arg(xi) = psi."""
    rot = cmath.exp(-1j * (psi - math.pi))
    return np.sqrt(xi * rot) * cmath.exp(0.5j * (psi - math.pi))


def _calibrate_branch(a, b, mid_on_arc, midpoint, diameter):
    """Fix the ray angle and overall sign so the factor ~ z at infinity."""
    psi = cmath.phase((mid_on_arc - a) / (mid_on_arc - b))
    zfar = midpoint + _FAR_FACTOR * diameter * cmath.exp(0.7j)
    raw = (zfar - b) * _sqrt_ray((zfar - a) / (zfar - b), psi)
    sign = 1.0 if abs(raw / zfar - 1.0) < abs(raw / zfar + 1.0) else -1.0
    return psi, sign


def _cheb_grading(m):
    """First-kind Chebyshev parameters, ascending, with sin(u) attached."""
    if m < 2:
        raise ResolutionError("an arc needs at least 2 interior nodes")
    k = np.arange(m, 0, -1)
    u = (2.0 * k - 1.0) * np.pi / (2.0 * m)
    return np.cos(u)  # ascending in (-1, 1)


def _build_segment_arc(a, b, m, n_panels):
    if a == b:
        raise DegenerateSystemError("segment endpoints coincide")
    tau = _cheb_grading(m)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid + half * tau
    dt = np.full(m, half, dtype=complex)
    tangents = dt / np.abs(dt)
    arclen = np.abs(half) * (tau + 1.0)
    psi, sign = _calibrate_branch(a, b, mid, mid, abs(b - a))
    return Arc(
        kind="segment", a=a, b=b, nodes=nodes, params=tau, dt_dtau=dt,
        tangents=tangents, arclength=arclen, total_length=abs(b - a),
        panels=_make_panels(m, n_panels) if m % n_panels == 0 else ((0, m),),
        _psi=psi, _sign=sign,
    )


def _build_circular_arc(center, radius, theta_a, theta_b, m, n_panels):
    if radius <= 0:
        raise GeometryError("circular arc radius must be positive")
    sweep = theta_b - theta_a
    if sweep == 0 or abs(sweep) >= 2.0 * np.pi:
        raise GeometryError("circular arc sweep must be nonzero and under a full turn")
    tau = _cheb_grading(m)
    th = 0.5 * (theta_a + theta_b) + 0.5 * sweep * tau
    nodes = center + radius * np.exp(1j * th)
    dt = 1j * radius * np.exp(1j * th) * (0.5 * sweep)
    a = center + radius * cmath.exp(1j * theta_a)
    b = center + radius * cmath.exp(1j * theta_b)
    mid_on_arc = center + radius * cmath.exp(1j * 0.5 * (theta_a + theta_b))
    psi, sign = _calibrate_branch(a, b, mid_on_arc, 0.5 * (a + b), max(abs(b - a), radius))
    return Arc(
        kind="circular", a=a, b=b, nodes=nodes, params=tau, dt_dtau=dt,
        tangents=dt / np.abs(dt), arclength=radius * abs(sweep) * 0.5 * (tau + 1.0),
        total_length=radius * abs(sweep),
        panels=_make_panels(m, n_panels) if m % n_panels == 0 else ((0, m),),
        _psi=psi, _sign=sign,
        center=center, radius=radius, theta_a=theta_a, theta_b=theta_b,
    )


def _build_chain_arc(points, n_panels):
    pts = np.asarray(points, dtype=complex)
    if pts.size < 8:
        raise ResolutionError("chain arc needs at least 8 points")
    a, b = pts[0], pts[-1]
    nodes = pts[1:-1]
    chord = np.abs(np.diff(pts))
    s_all = np.concatenate(([0.0], np.cumsum(chord)))
    tang_all = _open_fd4(pts, 1.0)
    tang_all = tang_all / np.abs(tang_all)
    return Arc(
        kind="chain", a=a, b=b, nodes=nodes,
        params=2.0 * s_all[1:-1] / s_all[-1] - 1.0,
        dt_dtau=np.gradient(pts, 2.0 / (pts.size - 1))[1:-1],
        tangents=tang_all[1:-1],
        arclength=s_all[1:-1], total_length=float(s_all[-1]),
        panels=((0, nodes.size),),
    )


def _chain_factor_eval(arc, z):
    """Own factor on a chain arc by sign tracking along escape paths."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    out = np.empty(flat.size, dtype=complex)
    diam = max(abs(arc.b - arc.a), arc.total_length)
    rows = _BLOCK // 322
    for lo in range(0, flat.size, rows):
        out[lo:lo + rows] = _tracked_sqrt(arc, flat[lo:lo + rows], diam)
    return out.reshape(z.shape)[()]


def _principal_pair(arc, z):
    return np.sqrt(z - arc.a) * np.sqrt(z - arc.b)


def _nearest_node(nodes, z):
    """Index of the node nearest to each point of the 1-d array z."""
    idx = np.empty(z.size, dtype=int)
    rows = max(1, _BLOCK // nodes.size)
    for lo in range(0, z.size, rows):
        idx[lo:lo + rows] = np.argmin(np.abs(nodes - z[lo:lo + rows, None]), axis=1)
    return idx


def _tracked_sqrt(arc, z, diam):
    # walk from each z away from the arc, then far out (322 points); count
    # branch flips of the per-factor principal product, whose discontinuities
    # are two leftward rays; calibrate against the asymptotic value far out.
    u = z - arc.nodes[_nearest_node(arc.nodes, z)]
    u = np.where(u != 0, u / np.abs(np.where(u != 0, u, 1.0)), 1.0)
    leg1 = z[:, None] + u[:, None] * np.linspace(0.0, 8.0 * diam, 257)
    end = leg1[:, -1]
    leg2 = end[:, None] * np.linspace(1.0, (_FAR_FACTOR * diam) / np.abs(end), 65, axis=1)
    path = np.concatenate((leg1, leg2), axis=1)
    vals = _principal_pair(arc, path)
    flips = np.abs(vals[:, 1:] - vals[:, :-1]) > np.abs(vals[:, 1:] + vals[:, :-1])
    # the product of the step signs is the flip count from z to far
    sign = np.prod(np.where(flips, -1.0, 1.0), axis=1)
    # the far value must match +z
    ratio = vals[:, -1] / path[:, -1]
    s0 = np.where(np.abs(ratio - 1.0) < np.abs(ratio + 1.0), 1.0, -1.0)
    return s0 * sign * _principal_pair(arc, z)


def _chain_factor_plus(arc, t):
    t = np.asarray(t, dtype=complex)
    ts = t.ravel()
    normal = 1j * arc.tangents[_nearest_node(arc.nodes, ts)]
    diam = max(abs(arc.b - arc.a), arc.total_length)
    eps1 = 1e-5 * diam
    v = _chain_factor_eval(arc, np.concatenate((ts + eps1 * normal, ts + 0.5 * eps1 * normal)))
    ph1, ph2 = np.angle(v[:ts.size]), np.angle(v[ts.size:])
    ph2 = ph2 + np.round((ph1 - ph2) / (2 * np.pi)) * 2 * np.pi
    phase = 2.0 * ph2 - ph1
    out = np.sqrt(np.abs((ts - arc.a) * (ts - arc.b))) * np.exp(1j * phase)
    return out.reshape(t.shape)[()]


# ---------------------------------------------------------------------------
# arc systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArcSystem(_Host):
    """Union of pairwise disjoint arcs carrying R and its square-root branch.

    The one input is ``arcs``; the node set and its bookkeeping, ``R_coeffs``,
    ``diameter()``, ``near_cutoff`` and the plus values of sqrt(R) at the
    nodes are derived once, on first use.
    """

    arcs: tuple
    kind: str = "arcs"

    def __post_init__(self):
        if not self.arcs:
            raise GeometryError("arc system needs at least one arc")
        ends = self.endpoints
        for i in range(len(ends)):
            for j in range(i + 1, len(ends)):
                if abs(ends[i] - ends[j]) == 0.0:
                    raise DegenerateSystemError("coincident arc endpoints make R degenerate")
        self._check_disjoint()

    # -- structure ----------------------------------------------------------

    @property
    def n_arcs(self):
        return len(self.arcs)

    @cached_property
    def endpoints(self):
        return np.array([end for arc in self.arcs for end in (arc.a, arc.b)])

    @cached_property
    def nodes(self):
        return np.concatenate([arc.nodes for arc in self.arcs])

    @cached_property
    def arc_offsets(self):
        off = [0]
        for arc in self.arcs:
            off.append(off[-1] + arc.n_nodes)
        return off

    @cached_property
    def tangents(self):
        return np.concatenate([arc.tangents for arc in self.arcs])

    @cached_property
    def arclength(self):
        # global arclength, accumulated across arcs in order
        out = []
        base = 0.0
        for arc in self.arcs:
            out.append(base + arc.arclength)
            base += arc.total_length
        return np.concatenate(out)

    @property
    def total_length(self):
        return sum(arc.total_length for arc in self.arcs)

    @cached_property
    def panels(self):
        return tuple((base + p0, base + p1)
                     for arc, base in zip(self.arcs, self.arc_offsets)
                     for (p0, p1) in arc.panels)

    @cached_property
    def _points(self):
        return np.concatenate([self.endpoints, self.nodes])

    def _check_disjoint(self):
        owner, i, j = _polyline_contacts(
            [np.concatenate(([arc.a], arc.nodes, [arc.b])) for arc in self.arcs])
        for a, b in zip(owner[i], owner[j]):
            if a != b:
                raise DisjointnessError(f"arcs {a} and {b} cross or touch")
        if i.size:
            raise GeometryError(f"arc {owner[i[0]]} crosses or touches itself")

    # -- the square-root branch ---------------------------------------------

    @cached_property
    def R_coeffs(self):
        return np.polynomial.polynomial.polyfromroots(self.endpoints)

    def eval_R(self, z):
        return np.polynomial.polynomial.polyval(z, self.R_coeffs)

    def eval_sqrtR(self, z, check_distance=True):
        """sqrt(R) on the single-valued branch, for z off the arcs."""
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zs = np.atleast_1d(z)
        if check_distance:
            cut = self.near_cutoff
            flat = zs.ravel()
            for lo in range(0, flat.size, 4096):
                chunk = flat[lo:lo + 4096]
                dmin = np.min(np.abs(chunk[:, None] - self._points[None, :]), axis=1)
                if np.any(dmin < cut):
                    raise NearBoundaryError(
                        "evaluation point is within the near-boundary cutoff; "
                        "use sqrtR_boundary_plus for on-arc values"
                    )
        out = np.ones(zs.shape, dtype=complex)
        for arc in self.arcs:
            out = out * arc.factor_eval(zs)
        return out[0] if scalar else out

    @cached_property
    def _plus_nodes(self):
        return np.concatenate([self.sqrtR_plus_at(k, arc.nodes, tau=arc.params)
                               for k, arc in enumerate(self.arcs)])

    def sqrtR_plus_nodes(self):
        """Plus boundary values of sqrt(R) at every host node (cached)."""
        return self._plus_nodes

    def sqrtR_plus_at(self, arc_index, t, tau=None):
        """Plus boundary value at an arbitrary interior point of one arc."""
        own = self.arcs[arc_index].factor_plus(t, tau=tau)
        t = np.asarray(t, dtype=complex)
        others = [arc.factor_eval(t) for l, arc in enumerate(self.arcs) if l != arc_index]
        return own * np.prod(others, axis=0) if others else own


def build_arc_system(arc_specs):
    """Build an ArcSystem from a list of JSON-style arc mappings.

    Each entry carries ``type`` (``segment`` | ``circular`` | ``chain``) plus
    ``panels`` / ``nodes_per_panel`` controlling the per-arc node count.
    """
    arcs = []
    for spec in arc_specs:
        kind = spec.get("type", "segment")
        n_panels = _count(spec, "panels", 8)
        m = n_panels * _count(spec, "nodes_per_panel", 16)
        if kind == "segment":
            arcs.append(_build_segment_arc(
                _as_complex(spec["a"], "a"), _as_complex(spec["b"], "b"), m, n_panels))
        elif kind == "circular":
            arcs.append(_build_circular_arc(
                _as_complex(spec.get("center", 0.0), "center"), _real(spec, "radius"),
                _real(spec, "theta_a"), _real(spec, "theta_b"), m, n_panels))
        elif kind == "chain":
            pts = [_as_complex(p, "nodes") for p in spec["nodes"]]
            arcs.append(_build_chain_arc(pts, n_panels))
        else:
            raise GeometryError(f"unknown arc kind {kind!r}")
    return ArcSystem(arcs=tuple(arcs))


def eval_sqrtR(system, z):
    """Module-level convenience wrapper for ArcSystem.eval_sqrtR."""
    return system.eval_sqrtR(z)


def sqrtR_boundary_plus(system, node_index=None, point=None, arc_index=None):
    """Plus-side boundary value of sqrt(R) on an arc of the system.

    Either pass a global ``node_index`` or an on-arc ``point`` together with
    ``arc_index``.  Requests at an arc endpoint raise, since sqrt(R) vanishes
    there only as a limit and the reciprocal densities blow up.
    """
    if node_index is not None:
        return system.sqrtR_plus_nodes()[node_index]
    if point is None or arc_index is None:
        raise ValueError("need node_index, or point and arc_index")
    arc = system.arcs[arc_index]
    if min(abs(point - arc.a), abs(point - arc.b)) < system.near_cutoff:
        raise EndpointSingularityError("boundary value requested at an arc endpoint")
    return system.sqrtR_plus_at(arc_index, point)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _as_complex(v, key):
    """A point given as a number or an [re, im] pair."""
    try:
        if isinstance(v, (list, tuple)):
            re, im = v
            return complex(float(re), float(im))
        return complex(v)
    except (TypeError, ValueError):
        raise GeometryError(f"'{key}' must be a number or an [re, im] pair, "
                            f"not {v!r}", key=key) from None


def _real(spec, key, default=None):
    """A real-number field of a spec; required when there is no default."""
    v = spec[key] if default is None else spec.get(key, default)
    try:
        return float(v)
    except (TypeError, ValueError):
        raise GeometryError(f"'{key}' must be a real number, not {v!r}", key=key) from None


def _count(spec, key, default):
    """A positive integer field of a geometry spec."""
    v = spec.get(key, default)
    try:
        if int(v) > 0:
            return int(v)
    except (TypeError, ValueError):
        pass
    raise GeometryError(f"'{key}' must be a positive integer, not {v!r}", key=key)


def parse_geometry(spec):
    """Dispatch a JSON-style geometry mapping to the right builder."""
    if "curve" in spec:
        return build_closed_contour(spec["curve"])
    if "arcs" in spec:
        return build_arc_system(spec["arcs"])
    raise GeometryError("geometry spec needs a 'curve' or 'arcs' entry")


def load_geometry(path):
    with open(path) as fh:
        return parse_geometry(json.load(fh))


def node_table_csv(host, path):
    """Write the node table: index, s, re_z, im_z, re_tangent, im_tangent."""
    nodes = host.nodes
    s = host.arclength
    tang = host.tangents
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "s", "re_z", "im_z", "re_tangent", "im_tangent"])
        for k in range(nodes.size):
            writer.writerow([
                k, f"{s[k]:.17g}",
                f"{nodes[k].real:.17g}", f"{nodes[k].imag:.17g}",
                f"{tang[k].real:.17g}", f"{tang[k].imag:.17g}",
            ])
