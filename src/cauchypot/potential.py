"""Logarithmic potentials and the inverse problem: measure from potential.

A finite measure is recovered from u(z) = int log|z - t| dmu(t) by reading
off where u fails to be harmonic.  Curve densities come from the sum of the
two one-sided normal derivatives over 2*pi, area densities from the
Laplacian over 2*pi, and point masses from the contour moments of
F = u_x - i u_y round a box about each isolated cluster of the discrete
Laplacian: the flux of u through the box and its first moment.  Harmonic
additions to u change none of these; locality is what the recovery tests
pin down.

Arcs are treated as two-sided curves: the normal derivative is taken from
each side separately and the density is the sum over 2*pi, mirroring the
two-sided jump structure of the Cauchy transform on arcs.

The forward map at the nodes, where the log kernel is singular, is formed
once per density at every node by ``quadrature._log_closed`` or
``_log_arcs``, whose routes the ``quadrature`` module states beside S's.
``log_potential`` at a node reads the same values.

A gridded potential is a ``sampling.PotentialField``; its lattice Laplacian
is formed once per field, kept on it by ``quadrature._held``, and shared by
the area and point-mass recoveries.  The module opens no files: the grid's
CSV and binary forms are read and written by ``sampling``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, NearBoundaryError, ResolutionError
from .geometry import (
    ArcSystem,
    ClosedContour,
    _by_rows,
    _read_only,
    _real,
    build_arc_system,
    build_closed_contour,
)
from .quadrature import _held, _log_arcs, _log_closed, normal_ladder
from .sampling import (PotentialField, SampledDensity, read_potential_binary, read_potential_csv,
                       write_potential_binary, write_potential_csv)

# The grid field and its file forms live in ``sampling``; they are imported
# and listed here too because callers, the benchmark's span tracer
# (perfbench/spans.py) among them, look them up in ``cauchypot.potential``.
__all__ = ["PotentialField", "MeasureEstimate", "log_potential", "log_potential_nodes",
           "recover_curve_density", "recover_area_density", "detect_point_masses",
           "equilibrium_density", "read_potential_csv", "write_potential_csv",
           "read_potential_binary", "write_potential_binary"]


@dataclass(eq=False)
class MeasureEstimate:
    """A measure split into curve, area, and atomic components.

    ``total_mass`` is kept consistent with the integrated components;
    ``validate`` checks the bookkeeping to 1e-6 relative.
    """

    curve_density: SampledDensity = None
    area_density: np.ndarray = None
    area_origin: tuple = (0.0, 0.0)
    area_h: float = 0.0
    point_masses: list = field(default_factory=list)
    total_mass: float = 0.0
    flagged_nodes: list = field(default_factory=list)

    def component_mass(self):
        total = 0.0
        if self.curve_density is not None:
            total += float(np.sum(self.curve_density.values.real
                                  * self.curve_density.host.weights))
        if self.area_density is not None:
            total += float(np.sum(self.area_density)) * self.area_h ** 2
        total += math.fsum(m for _, m in self.point_masses)
        return total

    def validate(self):
        comp = self.component_mass()
        scale = max(abs(self.total_mass), abs(comp), 1e-300)
        if abs(comp - self.total_mass) > 1e-6 * scale:
            raise ValueError(
                f"total mass {self.total_mass:.9g} disagrees with the "
                f"integrated components {comp:.9g}"
            )
        return self


# ---------------------------------------------------------------------------
# forward map: potential of a measure
# ---------------------------------------------------------------------------

def _charges(density):
    """q = w * rho, the density times the host's arclength weights, which
    weights every sum over nodes, off the curve too; held on the density."""
    return density.host.weights * density.values.real


def _node_potential(density):
    """u, the potential at every node (``quadrature._log_closed`` or
    ``_log_arcs``), held on the density from the first on-node request."""
    host, q = density.host, _held(density, _charges)
    return _read_only(_log_closed(host, q) if isinstance(host, ClosedContour)
                      else _log_arcs(host, q))


def _on_nodes(density, idx):
    """The held u at the nodes ``idx``; on chain arcs (NaN) GeometryError."""
    host = density.host
    out = _held(density, _node_potential)[idx]
    if isinstance(host, ArcSystem) and np.isnan(out).any():
        if not all(host.arcs[a].graded for a in np.searchsorted(
                host.arc_offsets, np.atleast_1d(idx), side="right") - 1):
            raise GeometryError("on-arc potential needs a graded (cosine) arc")
    return out


def _curve_potential(density, z):
    host = density.host
    k = host._node_index.get(z)
    if k is not None:  # an exact node is its own nearest node
        return float(_on_nodes(density, k))
    d = np.abs(host.nodes - z)
    k = int(np.argmin(d))
    if d[k] <= 1e-9 * host.diameter():
        return float(_on_nodes(density, k))
    if d[k] < host.near_cutoff:
        raise NearBoundaryError(
            "potential evaluation between nodes near the curve; "
            "evaluate at a node or beyond the cutoff"
        )
    return float(np.sum(_held(density, _charges) * np.log(d)))


def _area_potential(dens, x0, y0, h, z):
    ny, nx = dens.shape
    xs = x0 + h * np.arange(nx)
    ys = y0 + h * np.arange(ny)
    X, Y = np.meshgrid(xs, ys)
    d = np.hypot(X - z.real, Y - z.imag)
    hit = d < 0.5 * h
    # self cells integrate in closed form over the equal-area disk
    self_val = h * h * (math.log(h / math.sqrt(math.pi)) - 0.5)
    out = float(np.sum(dens[hit])) * self_val
    d = np.where(hit, 1.0, d)
    far = np.where(hit, 0.0, dens)
    out += float(np.sum(far * np.log(d))) * h * h
    return out


def log_potential(measure, z):
    """u(z) = int log|z - t| dmu(t) for a sampled or estimated measure.

    Accepts a MeasureEstimate or a bare SampledDensity of curve samples.
    On-curve requests must land on a node, where the value is bitwise the
    one ``log_potential_nodes`` gives (chain arcs raise GeometryError); an
    exact node is found in the host's node map, with no search, and a point
    within 1e-9 times the host's diameter of its nearest node reads that
    node's value; other points between nodes inside the near cutoff are
    refused.  Evaluation
    exactly at a point mass raises the log domain error, at a point that is
    NaN or infinite ValueError, and a potential that overflows OverflowError.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("evaluation point must be finite")
    if isinstance(measure, SampledDensity):
        measure = MeasureEstimate(curve_density=measure)
    elif not isinstance(measure, MeasureEstimate):
        raise TypeError("measure must be a MeasureEstimate or SampledDensity")
    total = 0.0
    if measure.curve_density is not None:
        total += _curve_potential(measure.curve_density, z)
    if measure.area_density is not None:
        total += _area_potential(measure.area_density, measure.area_origin[0],
                                 measure.area_origin[1], measure.area_h, z)
    for a, m in measure.point_masses:
        total += m * math.log(abs(z - a))  # zero distance -> domain error
    if not math.isfinite(total):
        raise OverflowError("log_potential: the potential overflows")
    return total


def log_potential_nodes(density):
    """u(t_k) = int log|t_k - t| rho(t) ds(t) at every node t_k of a curve density.

    rho is the real part of the samples of a ``SampledDensity``.  Returns a
    copy of the values formed once per density (``_node_potential``), the
    ones ``log_potential`` reads at a node.  Nodes on chain arcs are refused
    with GeometryError, and a potential that overflows with OverflowError.
    """
    if not isinstance(density, SampledDensity):
        raise TypeError("density must be a SampledDensity")
    out = _on_nodes(density, np.arange(density.host.n_nodes))
    if not np.isfinite(out).all():
        raise OverflowError("log_potential_nodes: the potential overflows")
    return out


# ---------------------------------------------------------------------------
# inverse maps
# ---------------------------------------------------------------------------

def recover_curve_density(u, host, h0=None, levels=3, tol=None):
    """Density of the curve part of mu from one-sided normal derivatives.

    The scalar callable ``u`` is differenced along both unit normals of each
    node at offsets h0 / 2**i (1 + 2 * levels calls per node) and extrapolated
    by ``quadrature.normal_ladder``; the density is the sum of the two one-sided
    derivatives over 2*pi.  ``u`` is called once per point, in one pass over
    each batch of points, and is handed numpy complex scalars, so a division
    by zero in it gives inf or NaN where a Python complex would raise.  Nodes
    failing the gap check (above 10x tol), or where ``u`` raises ValueError,
    OverflowError or FloatingPointError or returns a non-finite value, are
    flagged in the estimate, never fatal.  ``levels`` that is not an integer
    of at least 2 raises ValueError, and so do an ``h0`` (a number, or one
    per node) and a ``tol`` that are not finite positive reals.
    """
    if not isinstance(host, (ClosedContour, ArcSystem)):
        raise GeometryError("curve recovery needs a contour or arc system host")
    if isinstance(u, PotentialField):
        raise ValueError("curve recovery needs a callable, not a grid")
    if not callable(u):
        raise TypeError("u must be callable")
    if not isinstance(levels, (int, np.integer)) or levels < 2:
        raise ValueError("extrapolation needs an integer number of offset levels, at least two")
    if h0 is not None:
        _require_positive("h0", h0, ((), (host.n_nodes,)))
    if tol is not None:
        _require_positive("tol", tol)
    # the offset scale is local: near an arc endpoint the potential is only
    # smooth in the normal direction out to the endpoint distance, so the
    # ladder must shrink with it or the extrapolation diverges there
    scale = np.full(host.n_nodes, host.local_panel_length)
    if isinstance(host, ArcSystem):
        ends = host.endpoints
        scale = np.minimum(scale, _by_rows(lambda r: np.min(np.abs(host.nodes[r, None] - ends),
                                                            axis=1), host.n_nodes, ends.size))

    def u_or_nan(zi):  # float(u) at one point, NaN where u fails there
        try:
            return float(u(zi))
        except (ValueError, OverflowError, FloatingPointError):
            return math.nan

    def at(z):  # numpy scalars go to u: a zero division in it flags the node
        return np.fromiter(map(u_or_nan, z.flat), float, z.size).reshape(z.shape)

    u0 = at(host.nodes)[:, None, None]
    value, _, bad = normal_ladder(host, np.arange(host.n_nodes), ("plus", "minus"),
                                  1e-3 * scale if h0 is None else h0, levels, tol,
                                  lambda z, hs: (at(z) - u0) / hs)
    total = 0.0 + value[:, 0] + value[:, 1]  # +0.0 first: two -0.0 limits sum to +0.0
    ok = np.isfinite(total)
    dens = np.where(ok, total / (2.0 * math.pi), 0.0)
    flagged = np.flatnonzero(~ok | bad.any(axis=1)).tolist()
    sd = SampledDensity(host, dens.astype(complex))
    mass = float(np.sum(dens * host.weights))
    return MeasureEstimate(curve_density=sd, total_mass=mass, flagged_nodes=flagged)


def _require_positive(name, v, shapes=((),)):
    """ValueError naming ``name`` unless ``v`` holds finite positive reals in one of ``shapes``."""
    try:
        a = np.asarray(v)
    except (TypeError, ValueError):  # a ragged sequence
        a = None
    if not (a is not None and a.dtype.kind in "iuf" and a.shape in shapes
            and np.all(np.isfinite(a) & (a > 0))):
        what = "a number or one per node" if len(shapes) > 1 else "a number"
        raise ValueError(f"{name} must be {what}, finite and positive")


def _lattice_laplacian(u):
    """The 5-point Laplacian of the field ``u`` on its interior lattice (one
    ring in), read-only; held on the field by ``quadrature._held``, so both
    grid recoveries share it."""
    values, h = u.values, u.h
    return _read_only((values[1:-1, :-2] + values[1:-1, 2:] +
                       values[:-2, 1:-1] + values[2:, 1:-1] -
                       4.0 * values[1:-1, 1:-1]) / (h * h))


def recover_area_density(u, h_max=None):
    """Area density (1 / 2 pi) x discrete Laplacian of a gridded potential.

    The returned grid covers the interior cells (the 5-point stencil
    consumes one ghost ring; supply at least two rings beyond the support
    of the measure so boundary cells stay meaningful).  Second differences
    amplify rounding by 1/h^2, so cells below the noise floor
    10/h^2 * eps * max|u| are zeroed.  A NaN ``h_max`` is refused: it would
    pass every spacing.
    """
    if not isinstance(u, PotentialField):
        raise TypeError("area recovery needs a grid PotentialField")
    if h_max is not None and math.isnan(h_max):
        raise ValueError("h_max must be a number, not NaN")
    if u.values.shape[0] < 5 or u.values.shape[1] < 5:
        raise ResolutionError("grid needs at least 5 points per axis")
    if h_max is not None and u.h > h_max:
        raise ResolutionError(
            f"grid spacing {u.h:.3g} exceeds the configured maximum {h_max:.3g}"
        )
    lap = _held(u, _lattice_laplacian)
    floor = 10.0 / (u.h * u.h) * np.finfo(float).eps * np.max(np.abs(u.values))
    dens = lap / (2.0 * math.pi)
    dens[np.abs(lap) <= floor] = 0.0
    mass = float(np.sum(dens)) * u.h ** 2
    return MeasureEstimate(
        area_density=dens,
        area_origin=(u.x0 + u.h, u.y0 + u.h),
        area_h=u.h,
        total_mass=mass,
    )


def _clusters_8(mask):
    """Connected components of a boolean grid under 8-connectivity.

    Each component is the ascending array of its cells' row-major flat
    indices, and the components come in the reading order of their first
    cells.  The search visits the set cells only.
    """
    ny, nx = mask.shape
    cells = np.flatnonzero(mask).tolist()
    left = set(cells)
    clusters = []
    for seed in cells:
        if seed not in left:
            continue
        left.remove(seed)
        stack, found = [seed], [seed]
        while stack:
            iy, ix = divmod(stack.pop(), nx)
            for yy in range(max(iy - 1, 0), min(iy + 2, ny)):
                for k in range(yy * nx + max(ix - 1, 0), yy * nx + min(ix + 2, nx)):
                    if k in left:
                        left.remove(k)
                        stack.append(k)
                        found.append(k)
        clusters.append(np.sort(found))
    return clusters


# _CENTRED[k, j - 1] weighs u(x + j h) - u(x - j h) in the centred first
# difference of order 2k (B. Fornberg, Math. Comp. 51, 1988); row 0 is unused
_CENTRED = _read_only(np.array([[0.0, 0.0, 0.0, 0.0],
                               [1 / 2, 0.0, 0.0, 0.0],
                               [2 / 3, -1 / 12, 0.0, 0.0],
                               [3 / 4, -3 / 20, 1 / 60, 0.0],
                               [4 / 5, -1 / 5, 4 / 105, -1 / 280]]))


def _row_derivative(values, iy, ix, h):
    """du/dx at the lattice points (iy, ix), differenced along their rows.

    The centred difference of order 8 where its 9-point stencil fits in the
    row, else of the highest even order that fits (at least 2: the points
    are off the row's ends).  Stencil points beyond the order taken are read
    clipped to the row and weighted 0.
    """
    n = values.shape[1]
    step = np.arange(1, 5)
    order = np.minimum(np.minimum(ix, n - 1 - ix), 4)
    ahead = values[iy[:, None], np.minimum(ix[:, None] + step, n - 1)]
    behind = values[iy[:, None], np.maximum(ix[:, None] - step, 0)]
    terms = (ahead - behind) * _CENTRED[order]
    return (((terms[:, 3] + terms[:, 2]) + terms[:, 1]) + terms[:, 0]) / h


def _edge_weights(n):
    """Trapezoid weights of n equally spaced points, in units of the spacing:
    with the 4th-order end corrections 3/8, 7/6, 23/24 from 6 points on, plain
    below (one point spans nothing and weighs 0)."""
    w = np.ones(n)
    if n >= 6:
        w[:3] = w[:-4:-1] = (3 / 8, 7 / 6, 23 / 24)
    else:
        w[0] -= 0.5
        w[-1] -= 0.5
    return w


def _contour_moments(u, boxes, centers):
    """(M0, M1, S) per box: the contour moments of F = u_x - i u_y round it.

    Box (r0, r1, c0, c1) has the lattice points (r0, c0) and (r1, c1) as
    corners, and its boundary runs counterclockwise along the lattice lines.
    With F = sum_k m_k/(z - a_k) + analytic inside, M0 = (1/2 pi i) oint F dz
    = sum m_k and M1 = (1/2 pi i) oint (z - c) F dz = sum m_k (a_k - c), c
    the box's entry of ``centers`` (L. M. Delves & J. N. Lyness, Math. Comp.
    21, 1967); S = (1/2 pi) oint |F| |dz| is their scale.  u_x and u_y come
    from ``_row_derivative``, and each edge is summed by the trapezoid rule
    of ``_edge_weights`` (B. Fornberg, SIAM Rev. 63, 2021).  The boundaries
    of all boxes are differenced together, and each box is summed on its
    own: the cost is O(perimeter) per box.
    """
    h, values = u.h, u.values
    iy, ix, wdz = [], [], []
    for r0, r1, c0, c1 in boxes:
        rows, cols = np.arange(r0, r1 + 1), np.arange(c0, c1 + 1)
        wr, wc = _edge_weights(rows.size) * h, _edge_weights(cols.size) * h
        iy.append(np.concatenate((np.full(cols.size, r0), rows, np.full(cols.size, r1), rows[::-1])))
        ix.append(np.concatenate((cols, np.full(rows.size, c1), cols[::-1], np.full(rows.size, c0))))
        wdz.append(np.concatenate((wc, 1j * wr, -wc, -1j * wr)))
    first = np.cumsum([0] + [a.size for a in iy[:-1]])
    c = np.repeat(np.asarray(centers, dtype=complex), [a.size for a in iy])
    iy, ix, wdz = np.concatenate(iy), np.concatenate(ix), np.concatenate(wdz)
    f = _row_derivative(values, iy, ix, h) - 1j * _row_derivative(values.T, ix, iy, h)
    z = (u.x0 + h * ix - c.real) + 1j * (u.y0 + h * iy - c.imag)
    f_dz = f * wdz
    m0 = np.add.reduceat(f_dz, first) / (2j * math.pi)
    m1 = np.add.reduceat(z * f_dz, first) / (2j * math.pi)
    scale = np.add.reduceat(np.abs(f_dz), first) / (2.0 * math.pi)
    return m0, m1, scale


def detect_point_masses(u, cluster_radius):
    """Locate atoms of mu and their masses from a gridded potential.

    Cells whose discrete Laplacian exceeds 1e-3 of the peak are clustered
    under 8-connectivity, and each cluster yields one atom.  Its
    Laplacian-weighted centroid c places a box: the rows and columns of the
    Laplacian's interior lattice within cluster_radius of c.  Round the
    boundary of that box the contour moments of F = u_x - i u_y, M0 = sum m_k
    and M1 = sum m_k (a_k - c) over the singularities inside
    (``_contour_moments``), give the mass Re M0 and the position c + M1 / Re
    M0; the box picks up the slow tails the threshold cuts off.  Where M0
    vanishes, |M0| < 1e-12 (1/2 pi) oint |F| |dz| or Re M0 = 0, the atom
    stays at c.  The overlap warning names the centroids.  The cost is one
    Laplacian over the lattice, shared with ``recover_area_density``, plus,
    per cluster, its cells and its box's perimeter.  A ``cluster_radius``
    that is not finite and positive is refused, and so are values so large
    that the Laplacian or its weighted sums overflow.
    """
    if not isinstance(u, PotentialField):
        raise TypeError("point-mass detection needs a grid PotentialField")
    if not (math.isfinite(cluster_radius) and cluster_radius > 0):  # a NaN would box nothing
        raise ValueError("cluster radius must be finite and positive")
    h = u.h
    if cluster_radius / h < 4.0:
        raise ResolutionError("cluster radius must span at least 4 grid cells")
    lap = _held(u, _lattice_laplacian)
    ny, nx = lap.shape
    xs = u.x0 + h * (1 + np.arange(nx))
    ys = u.y0 + h * (1 + np.arange(ny))
    size = np.abs(lap)
    peak = float(np.max(size))
    if peak == 0.0:
        return MeasureEstimate(point_masses=[], total_mass=0.0)
    centers, boxes = [], []
    for cells in _clusters_8(size >= 1e-3 * peak):
        iy, ix = np.divmod(cells, nx)
        wgt = size.ravel()[cells]
        cx = float(np.sum(xs[ix] * wgt) / np.sum(wgt))
        cy = float(np.sum(ys[iy] * wgt) / np.sum(wgt))
        if not (math.isfinite(cx) and math.isfinite(cy)):  # a NaN centroid boxes nothing
            raise ValueError("the lattice Laplacian overflows: grid values too large")
        # the box in lattice indices; the interior lattice starts one in
        rows = np.flatnonzero(np.abs(ys - cy) <= cluster_radius) + 1
        cols = np.flatnonzero(np.abs(xs - cx) <= cluster_radius) + 1
        centers.append(complex(cx, cy))
        boxes.append((rows[0], rows[-1], cols[0], cols[-1]))
    atoms = []
    for c, m0, m1, scale in zip(centers, *_contour_moments(u, boxes, centers)):
        mass = float(m0.real)
        vanishes = mass == 0.0 or abs(m0) < 1e-12 * scale
        atoms.append((c if vanishes else c + complex(m1) / mass, mass))
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) < cluster_radius:
                warnings.warn(
                    f"clusters at {centers[i]:.4g} and {centers[j]:.4g} "
                    "overlap within the cluster radius; masses are ambiguous",
                    stacklevel=2,
                )
    total = math.fsum(m for _, m in atoms)
    return MeasureEstimate(point_masses=atoms, total_mass=total)


def equilibrium_density(shape):
    """Closed-form equilibrium measures used as recovery references.

    disk(r): uniform density 1/(2 pi r) on the bounding circle.
    segment(a, b): arcsine density 1/(pi sqrt(|t - a| |b - t|)).
    Both carry unit mass; the graded rule integrates the arcsine density
    to 1 exactly, node count notwithstanding.
    """
    kind = shape.get("type")
    panels = shape.get("panels", 8)
    per = shape.get("nodes_per_panel", 32)
    if kind == "disk":
        r = _real(shape, "radius", 1.0)
        host = build_closed_contour({
            "type": "circle", "radius": r,
            "center": shape.get("center", [0.0, 0.0]),
            "panels": panels, "nodes_per_panel": per,
        })
        dens = np.full(host.n_nodes, 1.0 / (2.0 * math.pi * r))
    elif kind == "segment":
        host = build_arc_system([{
            "type": "segment", "a": shape["a"], "b": shape["b"],
            "panels": panels, "nodes_per_panel": per,
        }])
        arc = host.arcs[0]
        t = host.nodes
        dens = 1.0 / (math.pi * np.sqrt(np.abs(t - arc.a) * np.abs(arc.b - t)))
    else:
        raise NotImplementedError(f"no equilibrium reference for shape {kind!r}")
    return MeasureEstimate(curve_density=SampledDensity(host, dens.astype(complex)),
                           total_mass=float(np.sum(dens * host.weights)))
