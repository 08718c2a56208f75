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
  The branch is a product of one factor ~ z per arc, each fixed by rule: on
  segments and circular arcs, a root of (z - a)/(z - b) cut along the ray
  through the arc's midpoint, whose sign follows from that ray's angle; on
  chains, the sign of a product of principal roots, one per chain segment.

Arc nodes are placed at cosine-graded parameters (the first-kind Chebyshev
points mapped onto the arc), which is the natural grid for densities with
inverse-square-root endpoint behaviour.  Node chains keep the supplied points.

A host is a frozen record of its inputs: the nodes and their parameter
derivative on a contour, the arcs of a system.  Everything derived from them
(tangents, arclength, the diameter and the near cutoff it scales, R and the
plus values of sqrt(R)) is a ``functools.cached_property``, computed on first
use and then kept, since the inputs never change.  Hosts and arcs keep
read-only copies of their array inputs and derive read-only arrays, so an
edit in place raises ValueError instead of leaving what was derived stale.
A table that only an operator reads is the operator's to build and keep
on the host; of this package, the module imports ``errors`` alone, and it
reads and writes no files.

Each host is its own quadrature rule over all its nodes: ``params``,
``nodes``, ``weights`` (arclength) and ``dt_weights`` (the complex line
element), derived like the rest.  That is the periodic trapezoid rule on a
contour, the rule of the cosine substitution on graded arcs and the
composite trapezoid rule on chains.  Panels split no node set: a contour or
arc keeps only the panel count of its spec, and ``local_panel_length``
(total length over that count) scales the normal offsets of boundary limits
and curve recovery.
"""

from __future__ import annotations

import cmath
import math
import numbers
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
    "sqrtR_boundary_plus",
    "parse_geometry",
]

_MIN_NODES = 16
# the most nodes a spec may ask for (64 MB per complex array)
_MAX_NODES = 1 << 22
_NEAR_CUTOFF_FACTOR = 1.0e-8
_BLOCK = 1 << 18  # segment pairs per pass of the polyline contact test
# array elements per block of rows of point-to-node sums: about 2**14 keeps a
# block's temporaries in cache (2**18 ran 1.5-3x slower at 4096-16384 nodes)
_ROW_BLOCK = 1 << 14
# coordinates whose largest binary exponent lies beyond this, either way, are
# scaled for the orientation and contact tests (products stay normal within)
_EXPONENT_BAND = np.finfo(float).maxexp // 4


def _ranges(start, count):
    """start[i], start[i] + 1, ..., start[i] + count[i] - 1 for each i, in one array."""
    return np.arange(np.sum(count)) + np.repeat(start - (np.cumsum(count) - count), count)


def _read_only(a):
    """The array ``a``, made read-only: what is cached from it cannot go stale."""
    a.flags.writeable = False
    return a


def _in_band(z):
    """The points ``z`` as they are, or, when the binary exponent of their
    largest coordinate lies beyond ``_EXPONENT_BAND``, times the power of two
    that brings that coordinate into [1/2, 1).  The scaling is exact (but for
    coordinates that fall below the normal range), and the products of two
    coordinates that orientations and areas form then neither overflow nor
    underflow."""
    e = np.frexp(max(np.max(np.abs(z.real)), np.max(np.abs(z.imag))))[1]
    return z if abs(e) <= _EXPONENT_BAND else np.ldexp(z.real, -e) + 1j * np.ldexp(z.imag, -e)


def _signed_area(z):
    """The shoelace area of the closed polyline ``z``, positive when it runs
    counter-clockwise."""
    return 0.5 * float(np.sum(np.imag(np.conj(z) * np.roll(z, -1))))


def _by_rows(fn, n, width, dtype=float):
    """fn(rows) over slices of range(n) of about ``_ROW_BLOCK`` / ``width`` rows each."""
    out = np.empty(n, dtype=dtype)
    step = max(1, _ROW_BLOCK // width)
    for lo in range(0, n, step):
        out[lo:lo + step] = fn(slice(lo, lo + step))
    return out


class _Host:
    """Size, node lookup and cutoffs (over ``_points``) common to both hosts."""

    @property
    def n_nodes(self):
        return self.nodes.size

    @property
    def local_panel_length(self):
        return self.total_length / self.n_panels

    @cached_property
    def _diameter(self):
        return _point_set_diameter(self._points)

    def diameter(self):
        return self._diameter

    @cached_property
    def _node_index(self):
        """{node: its first index}, for scalar lookups of exact nodes."""
        nodes = self.nodes.tolist()
        return dict(zip(nodes[::-1], range(len(nodes) - 1, -1, -1)))

    @cached_property
    def near_cutoff(self):
        return _NEAR_CUTOFF_FACTOR * self.diameter()

    def distance_to(self, z):
        """Distance from each point of ``z`` to the nearest of ``_points``."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = _by_rows(lambda r: np.min(np.abs(self._points - flat[r, None]), axis=1),
                       flat.size, self._points.size)
        return out.reshape(z.shape)[()]


# ---------------------------------------------------------------------------
# closed contours
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClosedContour(_Host):
    """Positively oriented closed curve sampled at parameter-uniform nodes.

    Inputs
    ------
    nodes : complex ndarray, shape (n,)
        Node positions z(theta_k), theta_k = 2*pi*k/n.
    dz_dtheta : complex ndarray
        Parameter derivative at the nodes.
    n_panels : int
        Panel count of the spec, which sets ``local_panel_length``.

    Derived once: ``params`` (the theta_k), the periodic trapezoid rule
    (``dt_weights`` and its magnitudes ``weights``), ``tangents`` (the unit
    field of dz_dtheta), ``arclength`` (cumulative at the nodes, starting at
    0), ``total_length``, ``diameter()`` and ``near_cutoff``.
    """

    nodes: np.ndarray
    dz_dtheta: np.ndarray
    n_panels: int

    def __post_init__(self):
        for name in ("nodes", "dz_dtheta"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name))))
        n = self.nodes.size
        if n < _MIN_NODES:
            raise ResolutionError(f"closed contour needs >= {_MIN_NODES} nodes, got {n}")
        speed = np.abs(self.dz_dtheta)
        if np.any(speed <= 0.0):
            raise GeometryError("vanishing parameter speed at a node")
        z = _in_band(self.nodes)
        if _signed_area(z) <= 0.0:
            raise GeometryError("contour is not positively oriented")
        _, i, j = _polyline_contacts([z], closed=True)
        if i.size:
            raise GeometryError(f"curve crosses or touches itself at segments {i[0]} and {j[0]}")

    # -- derived fields ----------------------------------------------------

    @property
    def _points(self):
        return self.nodes

    @cached_property
    def params(self):
        return _read_only(_uniform_angles(self.n_nodes))

    @cached_property
    def tangents(self):
        return _read_only(self.dz_dtheta / np.abs(self.dz_dtheta))

    @cached_property
    def arclength(self):
        return _read_only(np.concatenate(([0.0], np.cumsum(self.weights)))[:-1])

    @cached_property
    def total_length(self):
        return float(np.sum(self.weights))

    @cached_property
    def dt_weights(self):
        """Trapezoid weights w_k with  integral f(t) dt  ~=  sum w_k f(t_k)."""
        return _read_only((2.0 * np.pi / self.n_nodes) * self.dz_dtheta)

    @cached_property
    def weights(self):
        """Trapezoid weights w_k with  integral f(t) |dt|  ~=  sum w_k f(t_k)."""
        return _read_only((2.0 * np.pi / self.n_nodes) * np.abs(self.dz_dtheta))


def _polyline_contacts(polylines, closed=False, circles=None):
    """Non-adjacent segments of point polylines that cross or touch.

    With ``closed`` the one polyline also joins its last point to its first.
    ``circles`` may give, per polyline, None or (center, radius, angles of its
    points): its segments are then the arcs of that circle between the points,
    and their boxes grow by the sagitta r(1 - cos(dtheta/2)).  Returns the
    polyline index of every segment and the segment indices i < j of
    contacts, sorted by (i, j).

    Two O(n) certificates (Preparata & Shamos, Computational Geometry, 1985,
    section 3.3) prove that no pair meets, and then no grid is built:

    * A closed polyline whose every turn is left by a margin,
      cross(e_k, e_k+1) > 1e-12 max(|e_k|, |e_k+1|) (|e_k| + |e_k+1|) for
      its edges e_k, and whose turns sum to 2 pi (turning number one,
      counted exactly: with each turn in (0, pi), Im e_k changes sign twice
      per round) is strictly convex, so no two non-adjacent segments meet.
      The margin also keeps at +1 every orientation sign the grid would
      compute.  Seen from p_j, the other vertices lie in angular order from
      q_j to the vertex before p_j, so of those off segment j the smallest
      sine from e_j lies at a neighbour: at the vertex after q_j, where it
      is cross(e_j, e_j+1) / (|e_j| |e_j + e_j+1|) > 1e-12, or at the vertex
      before p_j, where it is the sine of the turn at p_j, above 2e-12.
      Each orientation the grid tests on segment j is then at least
      1e-12 |e_j| |x - p_j|, thousands of times the few units of 2**-53 by
      which rounding can move it relative to that product; the turns the
      certificate tests have the same headroom.
    * Open polylines each of whose pieces are strictly ordered along x or
      along y, in either direction (the running max of the upper bounds of
      the boxes of pieces <= k lies below the running min of the lower
      bounds of pieces >= k + 2), and whose own boxes are pairwise apart:
      the box filter below then refuses every non-adjacent pair, since the
      certificate mirrors its ``<=`` exactly.

    Anything else goes to the grid, whose cell is the 99th-percentile span
    (a segment plus two sagittas): the longer segments come first in the
    sorted order and take every later segment as candidates, and the
    midpoints of the others are hashed into the grid, where two of them can
    meet only in equal or neighbouring cells.  Cells are keyed column by
    column, so a segment's candidates are two runs of the sorted keys: the
    later entries of its own cell with the cell above it, and the three
    cells of the next column; the other four neighbours see it from their
    side.  Candidates pass a bounding-box filter, then four orientation
    signs decide, counting touching and collinear overlap as contact (Shamos
    & Hoey, FOCS 1976), or ``_pieces_meet`` where one of the two is curved.
    """
    if closed:
        polylines = [np.append(polylines[0], polylines[0][0])]
    if len(polylines) == 1:
        p, q = polylines[0][:-1], polylines[0][1:]
    else:
        p = np.concatenate([pts[:-1] for pts in polylines])
        q = np.concatenate([pts[1:] for pts in polylines])
    sizes = [pts.size - 1 for pts in polylines]
    owner = np.repeat(np.arange(len(polylines)), sizes)
    none = np.zeros(0, dtype=np.intp)
    if closed and _strictly_convex(q - p):
        return owner, none, none
    px, py, qx, qy = (np.ascontiguousarray(v) for v in (p.real, p.imag, q.real, q.imag))
    n = p.size
    xmin, xmax = np.minimum(px, qx), np.maximum(px, qx)
    ymin, ymax = np.minimum(py, qy), np.maximum(py, qy)
    span = np.abs(q - p)
    pieces = None
    if any(c is not None for c in circles or ()):
        cen, rad, th0, dth = (np.concatenate(parts) for parts in zip(*(
            (np.zeros(pts.size - 1, complex), np.zeros(pts.size - 1), np.zeros(pts.size - 1),
             np.zeros(pts.size - 1)) if c is None else
            (np.full(pts.size - 1, complex(c[0])), np.full(pts.size - 1, float(c[1])),
             c[2][:-1], np.diff(c[2]))
            for pts, c in zip(polylines, circles))))
        pieces = (p, q, cen, rad, th0, dth)
        # 2 r sin^2(dtheta/4) = r(1 - cos(dtheta/2)), with a margin for rounding
        sag = (1.0 + 1e-7) * 2.0 * rad * np.sin(0.25 * dth) ** 2
        xmin, xmax, ymin, ymax = xmin - sag, xmax + sag, ymin - sag, ymax + sag
        span += 2.0 * sag
    if not closed and _ordered_apart(np.cumsum([0, *sizes]), np.stack((xmin, ymin, -xmax, -ymax))):
        return owner, none, none

    mx, my = 0.5 * (px + qx), 0.5 * (py + qy)
    k = 99 * (n - 1) // 100
    cell = (1.0 + 1e-7) * float(np.partition(span, k)[k]) or 1.0  # margin for rounding
    long = span > cell
    cx = np.floor((mx - mx.min()) / cell).astype(np.int64)
    cy = np.floor((my - my.min()) / cell).astype(np.int64)
    width = int(cy.max()) + 3
    key = np.where(long, 0, (cx + 1) * width + cy + 1)
    order = np.argsort(key, kind="stable")
    skey = key[order]
    # the later entries of a segment's own cell and those of the cell above it
    # (key + 1), then the next column's three cells (key + width - 1 to + 1);
    # the longer segments (key 0) come first and take every later segment
    rows = np.arange(n)
    n_long = np.count_nonzero(long)
    end = np.searchsorted(skey, skey + 1, "right")
    end[:n_long] = n
    lo = np.concatenate((rows + 1, np.searchsorted(skey, skey + (width - 1), "left")))
    count = np.concatenate((end, np.searchsorted(skey, skey + (width + 1), "right"))) - lo
    count[n:n + n_long] = 0
    rows = np.tile(rows, 2)

    cuts = np.searchsorted(np.cumsum(count), np.arange(_BLOCK, count.sum(), _BLOCK))
    hits_i, hits_j = [], []
    for r, l, c in zip(np.split(rows, cuts), np.split(lo, cuts), np.split(count, cuts)):
        i = order[np.repeat(r, c)]
        j = order[_ranges(l, c)]
        gap = np.abs(i - j)
        adjacent = (owner[i] == owner[j]) & ((gap == 1) | (closed & (gap == n - 1)))
        keep = (~adjacent & (xmin[i] <= xmax[j]) & (xmin[j] <= xmax[i])
                & (ymin[i] <= ymax[j]) & (ymin[j] <= ymax[i]))
        i, j = i[keep], j[keep]
        meet = ((_orientation(p[j], q[j], p[i]) * _orientation(p[j], q[j], q[i]) <= 0)
                & (_orientation(p[i], q[i], p[j]) * _orientation(p[i], q[i], q[j]) <= 0))
        if pieces is not None:
            curved = (rad[i] > 0) | (rad[j] > 0)
            if curved.any():
                meet[curved] = _pieces_meet(pieces, i[curved], j[curved])
        hits_i.append(np.minimum(i, j)[meet])
        hits_j.append(np.maximum(i, j)[meet])
    i, j = np.concatenate(hits_i), np.concatenate(hits_j)
    first = np.lexsort((j, i))
    return owner, i[first], j[first]


def _strictly_convex(e):
    """Whether the closed polyline of the edges ``e`` passes the convexity
    certificate of ``_polyline_contacts``."""
    e = np.append(e, e[0])
    size = np.abs(e)
    turn = np.imag(e[1:] * np.conj(e[:-1]))
    return bool(np.all(turn > 1e-12 * np.maximum(size[1:], size[:-1]) * (size[1:] + size[:-1]))
                and np.count_nonzero(np.diff(e.imag >= 0)) == 2)


def _ordered_apart(starts, lo):
    """Whether open polylines are each strictly ordered along an axis and
    their boxes pairwise apart, as ``_polyline_contacts`` certifies.

    ``lo`` holds the lower bounds of the piece boxes along x, y, -x and -y,
    one row each; the pieces of polyline k are ``starts[k]:starts[k + 1]``.
    """
    hi = -lo[[2, 3, 0, 1]]
    for s, e in zip(starts[:-1], starts[1:]):
        if e - s > 2:
            below = np.maximum.accumulate(hi[:, s:e - 2], axis=1)
            above = np.minimum.accumulate(lo[:, e - 1:s + 1:-1], axis=1)[:, ::-1]
            if not np.any(np.all(below < above, axis=1)):
                return False
    lower = np.minimum.reduceat(lo, starts[:-1], axis=1)
    upper = -lower[[2, 3, 0, 1]]
    apart = np.any(upper[:, :, None] < lower[:, None, :], axis=0)
    return bool(np.all(apart | np.eye(apart.shape[0], dtype=bool)))


def _pieces_meet(pieces, i, j):
    """Whether pieces i and j, at least one an arc of a circle, share a point.

    The candidates are the four ends and the points where the two carriers
    (circle and circle, or circle and line) meet, or come closest when they
    miss by rounding; the pieces meet if one candidate lies within 1e-14 of
    the coordinates' size of both.
    """
    p, q, cen, rad, th0, dth = pieces
    a = np.where(rad[i] > 0, i, j)           # an arc
    b = np.where(rad[i] > 0, j, i)
    ca, ra, line = cen[a], rad[a], rad[b] == 0
    e = cen[b] - ca
    d = np.abs(e)
    d = np.where(d > 0, d, 1.0)
    chord = q[b] - p[b]
    size = np.abs(chord)
    v = chord / np.where(size > 0, size, 1.0)  # a repeated point has no direction: 0
    foot = np.where(line, p[b] + v * np.real(np.conj(v) * (ca - p[b])),
                    ca + e / d * (d * d + ra * ra - rad[b] ** 2) / (2.0 * d))
    w = np.where(line, v, 1j * e / d) * np.sqrt(np.maximum(ra * ra - np.abs(foot - ca) ** 2, 0.0))
    x = np.stack([p[i], q[i], p[j], q[j], foot + w, foot - w])
    gap = np.maximum(_piece_distance(x, pieces, i), _piece_distance(x, pieces, j))
    scale = np.max(np.abs(np.vstack([x[:4], rad[i], rad[j]])), axis=0)
    return np.any(gap <= 1e-14 * scale, axis=0)


def _piece_distance(x, pieces, k):
    """Distance from the points x (rows) to the pieces k (columns)."""
    p, q, cen, rad, th0, dth = (arr[k] for arr in pieces)
    v = q - p
    sq = np.abs(v) ** 2
    s = np.clip(np.real(np.conj(v) * (x - p)) / np.where(sq > 0, sq, 1.0), 0.0, 1.0)
    ang = np.mod(np.sign(dth) * np.angle((x - cen) * np.exp(-1j * th0)), 2.0 * np.pi)
    on_arc = np.where(ang <= np.abs(dth), np.abs(np.abs(x - cen) - rad),
                      np.minimum(np.abs(x - p), np.abs(x - q)))
    return np.where(rad > 0, on_arc, np.abs(x - p - s * v))


def _orientation(a, b, c):
    """Sign of the turn a -> b -> c: +1 left, -1 right, 0 collinear."""
    return np.sign(np.imag(np.conj(b - a) * (c - a)))


def _point_set_diameter(pts):
    pts = np.asarray(pts)
    if pts.size > 512:
        # about 512 evenly spaced points, and those extreme along x, y,
        # x + y and x - y, which an outlying point is among
        ext = [f(v) for v in (pts.real, pts.imag, pts.real + pts.imag, pts.real - pts.imag)
               for f in (np.argmin, np.argmax)]
        pts = np.concatenate((pts[::pts.size // 512], pts[ext]))
    d = np.abs(pts[:, None] - pts[None, :])
    return float(np.max(d))


def _uniform_angles(n_nodes):
    """The n_nodes parameters 2 pi k / n_nodes of a parametrized contour."""
    return 2.0 * np.pi * np.arange(n_nodes) / n_nodes


def build_closed_contour(spec):
    """Build a ClosedContour from a JSON-style mapping.

    Supported kinds: ``circle``, ``ellipse``, ``rounded-polygon``,
    ``node-chain`` (a closed chain of explicit points).
    """
    if not isinstance(spec, dict):
        raise GeometryError(f"a curve must be a mapping, not {spec!r}", key="curve")
    kind = spec.get("type")
    n_panels, n = _node_count(spec)

    if kind == "circle":
        c = _as_complex(spec.get("center", 0.0), "center")
        r = _real(spec, "radius")
        if r <= 0:
            raise GeometryError("circle radius must be positive")
        e = np.exp(1j * _uniform_angles(n))
        return ClosedContour(c + r * e, 1j * r * e, n_panels)

    if kind == "ellipse":
        c = _as_complex(spec.get("center", 0.0), "center")
        try:
            sa, sb = (float(_number(v)) for v in spec["semi_axes"])
        except (TypeError, ValueError):
            raise GeometryError(f"'semi_axes' must be two numbers, not {spec['semi_axes']!r}",
                                key="semi_axes") from None
        if not (0.0 < sa < math.inf and 0.0 < sb < math.inf):
            raise GeometryError("ellipse semi-axes must be positive and finite")
        th = _uniform_angles(n)
        cos, sin = np.cos(th), np.sin(th)
        return ClosedContour(c + sa * cos + 1j * sb * sin, -sa * sin + 1j * sb * cos, n_panels)

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
    if np.any(verts == np.roll(verts, -1)):
        raise GeometryError("polygon repeats a vertex in a row")
    if _signed_area(_in_band(verts)) < 0:
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
    return ClosedContour(nodes, dz, n_panels)


def _closed_node_chain(nodes, n_panels):
    n = nodes.size
    if n < _MIN_NODES:
        raise ResolutionError(f"closed contour needs >= {_MIN_NODES} nodes, got {n}")
    dz = _periodic_fd4(nodes) / (2.0 * np.pi / n)
    return ClosedContour(nodes, dz, 1 if n % n_panels else n_panels)


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

@dataclass(frozen=True, eq=False)
class Arc:
    """A single smooth open arc from ``a`` to ``b``.

    The plus side is the left side when travelling from a to b.  Nodes are
    interior; for ``segment`` and ``circular`` arcs they sit at the images of
    the first-kind Chebyshev points, for ``chain`` arcs they are the supplied
    interior points.

    The fields are what the builders lay down: the nodes with their
    parameters, derivative, tangents and arclength, the panel count, the branch
    ray angle and, on circular arcs, the circle.  Derived once: the rule's
    ``dt_weights``, and ``sqrt_own_plus``, the plus boundary values at the
    nodes of this arc's own factor s_j(z) = sqrt((z - a)(z - b)), normalized
    s_j(z)/z -> 1 at infinity with its cut along the arc.  On a graded arc
    of m nodes, also derived once: the angles ``_u`` of the nodes (tau =
    cos u), ``_sin_of_u`` = sin u and ``_sigma``, the own factor over sin u
    in closed form (``_own_sigma``).
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
    n_panels: int
    # ray angle of the Moebius closed form: phase((m - a)/(m - b)), m mid-arc
    _psi: float = 0.0
    # circular-arc data
    center: complex = 0.0
    radius: float = 0.0
    theta_a: float = 0.0
    theta_b: float = 0.0

    def __post_init__(self):
        for name in ("nodes", "params", "dt_dtau", "tangents", "arclength"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name))))

    @property
    def n_nodes(self):
        return self.nodes.size

    @property
    def midpoint(self):
        return 0.5 * (self.a + self.b)

    @property
    def _sign(self):
        """+1 or -1 so the closed form ~ z at infinity, where (z - a)/(z - b) -> 1.

        ``_sqrt_ray(1, psi)`` is +1 for psi in [0, pi] and -1 for psi < 0.
        """
        return 1.0 if self._psi >= 0.0 else -1.0

    @property
    def graded(self):
        """True when nodes follow the cosine grading (weighted rules valid)."""
        return self.kind in ("segment", "circular")

    @cached_property
    def sqrt_own_plus(self):
        return _read_only(self.factor_plus(self.nodes, tau=self.params))

    @cached_property
    def dt_weights(self):
        """w_j with int f dt ~= sum w_j f(t_j): (pi/m) sin(u_j) (dt/dtau)_j on a graded
        arc; on a chain half the chords to both neighbours (composite trapezoid)."""
        if self.graded:
            return _read_only((np.pi / self.n_nodes) * self.sin_u * self.dt_dtau)
        d = np.diff(np.concatenate(([self.a], self.nodes, [self.b])))
        return _read_only(0.5 * (d[:-1] + d[1:]))

    @cached_property
    def _u(self):
        return _read_only(_angles(self.n_nodes))

    @cached_property
    def _sin_of_u(self):
        return _read_only(np.sin(self._u))

    @cached_property
    def _sigma(self):
        return _read_only(_own_sigma(self, self._u))

    @property
    def sin_u(self):
        """sqrt(1 - tau^2) at the nodes."""
        return np.sqrt(1.0 - self.params ** 2)

    def point_at(self, tau):
        tau = np.asarray(tau, dtype=float)
        if self.kind == "segment":
            return self.midpoint + 0.5 * (self.b - self.a) * tau
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


def _angles(m):
    """The angles u of the m first-kind points tau = cos(u), in node order."""
    k = np.arange(m, 0, -1)
    return (2.0 * k - 1.0) * np.pi / (2.0 * m)


def _own_sigma(arc, u):
    """The arc's own factor over sin(u), s_own / sqrt(1 - tau^2), in closed form.

    On a segment it is i(b - a)/2.  On a circular arc of radius r, sweep D
    and mid angle th_m, (t - a)(t - b) = 4 r^2 e^{i(th + th_m)}
    sin(D c^2/2) sin(D s^2/2) with c = cos(u/2), s = sin(u/2), sin(u) = 2cs,
    so 1 - tau^2 is never formed; the root is the one ``sqrt_own_plus`` takes,
    -``arc._sign`` times this one.
    """
    if arc.kind == "segment":
        return np.full(u.size, 0.5j * (arc.b - arc.a))
    half = 0.5 * (arc.theta_b - arc.theta_a)
    c2, s2 = np.cos(0.5 * u) ** 2, np.sin(0.5 * u) ** 2
    mid = 0.5 * (arc.theta_a + arc.theta_b)
    sigma = arc.radius * np.exp(1j * (mid + 0.5 * half * arc.params)) * np.sqrt(
        np.sin(half * c2) / c2 * (np.sin(half * s2) / s2))
    return sigma if arc._sign < 0 else -sigma


def _cheb_grading(m):
    """First-kind Chebyshev parameters, ascending in (-1, 1)."""
    if m < 2:
        raise ResolutionError("an arc needs at least 2 interior nodes")
    return np.cos(_angles(m))


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
    return Arc(
        kind="segment", a=a, b=b, nodes=nodes, params=tau, dt_dtau=dt,
        tangents=tangents, arclength=arclen, total_length=abs(b - a),
        n_panels=n_panels, _psi=cmath.phase((mid - a) / (mid - b)),
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
    return Arc(
        kind="circular", a=a, b=b, nodes=nodes, params=tau, dt_dtau=dt,
        tangents=dt / np.abs(dt), arclength=radius * abs(sweep) * 0.5 * (tau + 1.0),
        total_length=radius * abs(sweep), n_panels=n_panels,
        _psi=cmath.phase((mid_on_arc - a) / (mid_on_arc - b)),
        center=center, radius=radius, theta_a=theta_a, theta_b=theta_b,
    )


def _build_chain_arc(points):
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
        arclength=s_all[1:-1], total_length=float(s_all[-1]), n_panels=1,
    )


def _chain_factor_eval(arc, z):
    """Own factor on a chain arc: the principal pair sqrt(z - a)*sqrt(z - b)
    with the sign of the polyline product over p = (a, nodes, b),

        (z - b) * prod_k sqrt((z - p_k)/(z - p_{k+1})),

    whose principal roots are each cut exactly along their own segment: the
    product is single valued off the chain and tends to z at infinity.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    p = np.concatenate(([arc.a], arc.nodes, [arc.b]))

    def signed(rows):
        w = flat[rows]
        branch = (w - arc.b) * np.prod(np.sqrt((w[:, None] - p[:-1]) / (w[:, None] - p[1:])),
                                       axis=1)
        pair = np.sqrt(w - arc.a) * np.sqrt(w - arc.b)
        return np.where(np.abs(branch - pair) < np.abs(branch + pair), 1.0, -1.0) * pair

    return _by_rows(signed, flat.size, p.size, complex).reshape(z.shape)[()]


def _nearest_node(nodes, z):
    """Index of the node nearest to each point of the 1-d array z."""
    return _by_rows(lambda r: np.argmin(np.abs(nodes - z[r, None]), axis=1), z.size,
                    nodes.size, int)


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

@dataclass(frozen=True, eq=False)
class ArcSystem(_Host):
    """Union of pairwise disjoint arcs carrying R and its square-root branch.

    The one input is ``arcs``; the node set and its bookkeeping, the rule
    (the arcs' ``params`` and ``dt_weights`` in node order, and ``weights``,
    the magnitudes), ``R_coeffs``, ``diameter()``, ``near_cutoff`` and the
    plus values of sqrt(R) at the nodes are derived once, on first use.
    """

    arcs: tuple

    def __post_init__(self):
        if not self.arcs:
            raise GeometryError("arc system needs at least one arc")
        ends = np.sort(self.endpoints)
        if np.any(ends[1:] == ends[:-1]):
            raise DegenerateSystemError("coincident arc endpoints make R degenerate")
        self._check_disjoint()

    # -- structure ----------------------------------------------------------

    @property
    def n_arcs(self):
        return len(self.arcs)

    @cached_property
    def endpoints(self):
        return _read_only(np.array([end for arc in self.arcs for end in (arc.a, arc.b)]))

    @cached_property
    def nodes(self):
        return _read_only(np.concatenate([arc.nodes for arc in self.arcs]))

    @cached_property
    def params(self):
        return _read_only(np.concatenate([arc.params for arc in self.arcs]))

    @cached_property
    def dt_weights(self):
        return _read_only(np.concatenate([arc.dt_weights for arc in self.arcs]))

    @cached_property
    def weights(self):
        return _read_only(np.abs(self.dt_weights))

    @cached_property
    def arc_offsets(self):
        return [0, *np.cumsum([arc.n_nodes for arc in self.arcs]).tolist()]

    @cached_property
    def tangents(self):
        return _read_only(np.concatenate([arc.tangents for arc in self.arcs]))

    @cached_property
    def arclength(self):
        # global arclength, accumulated across arcs in order
        base = np.cumsum([0.0] + [arc.total_length for arc in self.arcs[:-1]])
        return _read_only(np.concatenate([b + arc.arclength for b, arc in zip(base, self.arcs)]))

    @property
    def total_length(self):
        return sum(arc.total_length for arc in self.arcs)

    @property
    def n_panels(self):
        return sum(arc.n_panels for arc in self.arcs)

    @cached_property
    def _points(self):
        return _read_only(np.concatenate([self.endpoints, self.nodes]))

    def _check_disjoint(self):
        owner, i, j = _polyline_contacts(
            [np.concatenate(([arc.a], arc.nodes, [arc.b])) for arc in self.arcs],
            circles=[(arc.center, arc.radius, np.concatenate((
                [arc.theta_a], 0.5 * (arc.theta_a + arc.theta_b)
                + 0.5 * (arc.theta_b - arc.theta_a) * arc.params, [arc.theta_b])))
                if arc.kind == "circular" else None for arc in self.arcs])
        for a, b in zip(owner[i], owner[j]):
            if a != b:
                raise DisjointnessError(f"arcs {a} and {b} cross or touch")
        if i.size:
            raise GeometryError(f"arc {owner[i[0]]} crosses or touches itself")

    # -- the square-root branch ---------------------------------------------

    @cached_property
    def R_coeffs(self):
        return _read_only(np.polynomial.polynomial.polyfromroots(self.endpoints))

    def eval_sqrtR(self, z, check_distance=True):
        """sqrt(R) on the single-valued branch, for finite z off the arcs."""
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zs = np.atleast_1d(z)
        if not np.isfinite(zs).all():
            raise ValueError("evaluation points must be finite")
        if check_distance and np.any(self.distance_to(zs) < self.near_cutoff):
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
        return _read_only(np.concatenate([self.sqrtR_plus_at(k, arc.nodes, tau=arc.params)
                                          for k, arc in enumerate(self.arcs)]))

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
    if not isinstance(arc_specs, (list, tuple)):
        raise GeometryError(f"'arcs' must be a list of mappings, not {arc_specs!r}", key="arcs")
    arcs = []
    for spec in arc_specs:
        if not isinstance(spec, dict):
            raise GeometryError(f"an arc must be a mapping, not {spec!r}", key="arcs")
        kind = spec.get("type", "segment")
        n_panels, m = _node_count(spec)
        if kind == "segment":
            arcs.append(_build_segment_arc(
                _as_complex(spec["a"], "a"), _as_complex(spec["b"], "b"), m, n_panels))
        elif kind == "circular":
            arcs.append(_build_circular_arc(
                _as_complex(spec.get("center", 0.0), "center"), _real(spec, "radius"),
                _real(spec, "theta_a"), _real(spec, "theta_b"), m, n_panels))
        elif kind == "chain":
            pts = [_as_complex(p, "nodes") for p in spec["nodes"]]
            arcs.append(_build_chain_arc(pts))
        else:
            raise GeometryError(f"unknown arc kind {kind!r}")
    return ArcSystem(arcs=tuple(arcs))


def sqrtR_boundary_plus(system, point, arc_index):
    """Plus-side boundary value of sqrt(R) at a ``point`` on arc ``arc_index``.

    At the nodes the values are ``system.sqrtR_plus_nodes()``.  Requests at
    an arc endpoint raise, since sqrt(R) vanishes there only as a limit and
    the reciprocal densities blow up.
    """
    arc = system.arcs[arc_index]
    if min(abs(point - arc.a), abs(point - arc.b)) < system.near_cutoff:
        raise EndpointSingularityError("boundary value requested at an arc endpoint")
    return system.sqrtR_plus_at(arc_index, point)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

def _number(v):
    """v itself if it is a number, else TypeError: a JSON true is not the
    number 1, and neither is the string "1"."""
    if isinstance(v, bool) or not isinstance(v, numbers.Number):
        raise TypeError(f"{v!r} is not a number")
    return v


def _as_complex(v, key):
    """A finite point given as a number or an [re, im] pair."""
    try:
        if isinstance(v, (list, tuple)):
            re, im = v
            z = complex(float(_number(re)), float(_number(im)))
        else:
            z = complex(_number(v))
        if cmath.isfinite(z):
            return z
    except (TypeError, ValueError, OverflowError):
        pass
    raise GeometryError(f"'{key}' must be a number or an [re, im] pair, "
                        f"not {v!r}", key=key)


def _real(spec, key, default=None):
    """A finite real-number field of a spec; required when there is no default."""
    v = spec[key] if default is None else spec.get(key, default)
    try:
        if math.isfinite(float(_number(v))):
            return float(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise GeometryError(f"'{key}' must be a real number, not {v!r}", key=key)


def _count(spec, key, default):
    """A positive integer field of a geometry spec."""
    v = spec.get(key, default)
    try:
        if int(_number(v)) > 0:
            return int(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise GeometryError(f"'{key}' must be a positive integer, not {v!r}", key=key)


def _node_count(spec):
    """The panel count of a spec and its node count, at most ``_MAX_NODES``."""
    n_panels = _count(spec, "panels", 8)
    n = n_panels * _count(spec, "nodes_per_panel", 16)
    if n > _MAX_NODES:
        raise GeometryError(f"{n} nodes exceed the limit of {_MAX_NODES}", key="nodes_per_panel")
    return n_panels, n


def parse_geometry(spec):
    """Dispatch a JSON-style geometry mapping to the right builder."""
    if "curve" in spec:
        return build_closed_contour(spec["curve"])
    if "arcs" in spec:
        return build_arc_system(spec["arcs"])
    raise GeometryError("geometry spec needs a 'curve' or 'arcs' entry")

