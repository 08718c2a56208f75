"""Logarithmic potentials and the inverse problem: measure from potential.

A finite measure is recovered from u(z) = int log|z - t| dmu(t) by reading
off where u fails to be harmonic.  Curve densities come from the sum of the
two one-sided normal derivatives over 2*pi, area densities from the
Laplacian over 2*pi, and point masses from integrating the discrete
Laplacian over isolated clusters.  Harmonic additions to u change none of
these; locality is what the recovery tests pin down.

Arcs are treated as two-sided curves: the normal derivative is taken from
each side separately and the density is the sum over 2*pi, mirroring the
two-sided jump structure of the Cauchy transform on arcs.

The forward map at the nodes, where the log kernel is singular, splits like
S: a part diagonal in a spectral basis, computed once per density for every
node in O(N log N) (Fourier on closed contours, Chebyshev on graded arcs),
plus a smooth remainder summed per requested node.  ``log_potential`` at a
node and ``log_potential_nodes`` share that code and agree bitwise.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    GeometryError,
    NearBoundaryError,
    ResolutionError,
    SchemaError,
)
from .geometry import (
    ArcSystem,
    ClosedContour,
    _by_rows,
    _real,
    build_arc_system,
    build_closed_contour,
)
from .quadrature import _trig_coeffs, _trig_sum, normal_ladder
from .sampling import SampledDensity

__all__ = [
    "PotentialField",
    "MeasureEstimate",
    "log_potential",
    "log_potential_nodes",
    "recover_curve_density",
    "recover_area_density",
    "detect_point_masses",
    "equilibrium_density",
    "read_potential_csv",
    "write_potential_csv",
    "read_potential_binary",
    "write_potential_binary",
]


class PotentialField:
    """A potential sampled on a square grid.

    Values are row-major: ``values[iy, ix]`` sits at (x0 + ix*h, y0 + iy*h).
    Values, origin and spacing must be finite: a NaN cell would drop out of
    the recoveries' thresholds and turn their sums into NaN.  Curve recovery
    takes the potential as a plain callable instead.
    """

    def __init__(self, values, x0=0.0, y0=0.0, h=0.0):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("grid values must be 2-d")
        x0, y0, h = float(x0), float(y0), float(h)
        if not (np.isfinite(values).all() and np.isfinite([x0, y0, h]).all()):
            raise ValueError("grid values, origin and spacing must be finite")
        if h <= 0:
            raise ValueError("grid spacing must be positive")
        self.values = values
        self.x0, self.y0, self.h = x0, y0, h


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

def _log_memo(density):
    """(host, values, q, own, ring) for a curve density, built once per density.

    q = w * rho, the density times the host's arclength weights, weights
    every sum over nodes, off the curve too.  own[k] is the spectral part
    of the potential at node k over the component holding k
    (``_own_part``).  On a closed contour of n nodes, ring[n - k, j] =
    2|sin((th_j - th_k)/2)|, a window of 2|sin(pi m/n)|, m = j - k mod n
    (None on arcs).  The tuple is kept on the density (not a field: ``==``
    and ``repr`` ignore it) with a copy of the values it came from, and
    rebuilt when the host or the values differ from that copy.
    """
    memo = getattr(density, "_log_memo", None)
    if memo is None or memo[0] is not density.host or not np.array_equal(memo[1], density.values):
        host = density.host
        q = host.weights * density.values.real
        ring = None
        if isinstance(host, ClosedContour):
            n = host.n_nodes
            chord = np.abs(2.0 * np.sin(np.pi * np.arange(n) / n))
            ring = sliding_window_view(np.tile(chord, 2), n)
        memo = (host, density.values.copy(), q, _own_part(host, q), ring)
        density._log_memo = memo
    return memo


def _own_part(host, q):
    """int rho log|t - t_k| ds over node k's own component, less a smooth remainder.

    Closed contour: with v = rho |z'| (q = 2 pi v / n) the kernel
    log|2 sin((th - th_k)/2)| is diagonal in Fourier, e^{i j th} -> -pi/|j|
    e^{i j th_k} and 1 -> 0, the Nyquist mode taken as its cosine (R. Kress,
    Linear Integral Equations, ch. 12); one real FFT pair.  Graded arc: with
    phi = pi sin(u) |dt/dtau| rho = m q expanded in T_n(tau), the kernel
    log|tau - tau_k| is diagonal too, T_0 -> -log 2 and T_n -> -T_n/n (S.
    Olver, Math. Comp. 80, 2011).  On a segment |t - t_k| / |tau - tau_k| is
    L/2, which adds log(L/2) c_0.  What is left, the log of that ratio on a
    curve or a circular arc, is summed per node by ``_log_rows``.  Chain arcs
    get NaN: the potential on them is refused.
    """
    if isinstance(host, ClosedContour):
        n = q.size
        c = np.fft.rfft(q)
        c[0] = 0.0
        c[1:] *= -0.5 * n / np.arange(1, c.size)
        return np.fft.irfft(c, n)
    own = np.full(q.size, math.nan)
    off = host.arc_offsets
    for j, arc in enumerate(host.arcs):
        if not arc.graded:
            continue
        m = arc.n_nodes
        c = _trig_coeffs(m * q[off[j]:off[j + 1]])
        c[1:] /= -np.arange(1, m)
        log_half = math.log(0.5 * arc.total_length) if arc.kind == "segment" else 0.0
        c[0] *= log_half - math.log(2.0)
        own[off[j]:off[j + 1]] = _trig_sum(c, m).real
    return own


def _log_rows(t, q, x, pole=None, dist=None, speed=None, lo=0):
    """sum_j q_j log|t_j - x_i| for every target x_i.

    With ``dist``, x_i is the node ``pole[i]`` and ``dist(rows)`` gives, for
    those rows, parameter distances to the columns lo, lo + 1, ...: the log
    on them is that of |t_j - x_i| / dist, smooth through the pole, and log
    ``speed[i]`` (its limit) on the diagonal.  Rows go in blocks of
    ``geometry._ROW_BLOCK`` elements; a row's sum does not depend on the
    other rows.
    """
    def block(rows):
        d = np.abs(t - x[rows, None])
        if dist is not None:
            e = dist(rows)
            own = d[:, lo:lo + e.shape[1]]
            on = (np.arange(e.shape[0]), pole[rows] - lo)
            own[on] = e[on] = 1.0
            own /= e
            own[on] = speed[rows]
        np.log(d, out=d)
        d *= q
        return np.sum(d, axis=1)

    return _by_rows(block, x.size, t.size)


def _on_nodes(density, idx):
    """The potential of a curve density at its nodes ``idx`` (ascending).

    The memo's own part plus the ``_log_rows`` remainder of each node's
    component: on a closed contour and on a circular arc the log of chord
    over parameter distance (2|sin((th - th_k)/2)|, |tau - tau_k|), on an
    arc system the other arcs' plain sums.
    """
    host, _, q, own, ring = _log_memo(density)
    t = host.nodes
    if isinstance(host, ClosedContour):
        return own[idx] + _log_rows(t, q, t[idx], idx, lambda r: ring[t.size - idx[r]],
                                    np.abs(host.dz_dtheta[idx]))
    off = host.arc_offsets
    cut = [bisect.bisect_left(idx, o) for o in off]  # idx is ascending
    out = own[idx]
    for a, arc in enumerate(host.arcs):
        rows = slice(cut[a], cut[a + 1])
        k = idx[rows]
        if k.size == 0:
            continue
        if not arc.graded:
            raise GeometryError("on-arc potential needs a graded (cosine) arc")
        if arc.kind == "circular":
            tau = arc.params
            out[rows] += _log_rows(t, q, t[k], k, lambda r: np.abs(tau - tau[k[r] - off[a], None]),
                                   np.abs(arc.dt_dtau[k - off[a]]), off[a])
        elif len(off) > 2:
            other = np.ones(t.size, dtype=bool)
            other[off[a]:off[a + 1]] = False
            out[rows] += _log_rows(t[other], q[other], t[k])
    return out


def _curve_potential(density, z):
    host = density.host
    t = host.nodes
    d = np.abs(t - z)
    k = int(np.argmin(d))
    if d[k] <= 1e-9 * host.diameter():
        return float(_on_nodes(density, np.array([k]))[0])
    if d[k] < host.near_cutoff:
        raise NearBoundaryError(
            "potential evaluation between nodes near the curve; "
            "evaluate at a node or beyond the cutoff"
        )
    return float(np.sum(_log_memo(density)[2] * np.log(d)))


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
    On-curve requests must land on a node, where the curve part is spectral
    (see ``log_potential_nodes``; chain arcs raise GeometryError); points
    between nodes inside the near cutoff are refused.  Evaluation exactly
    at a point mass raises the log domain error.
    """
    z = complex(z)
    if isinstance(measure, SampledDensity):
        return _curve_potential(measure, z)
    if not isinstance(measure, MeasureEstimate):
        raise TypeError("measure must be a MeasureEstimate or SampledDensity")
    total = 0.0
    if measure.curve_density is not None:
        total += _curve_potential(measure.curve_density, z)
    if measure.area_density is not None:
        total += _area_potential(measure.area_density, measure.area_origin[0],
                                 measure.area_origin[1], measure.area_h, z)
    for a, m in measure.point_masses:
        total += m * math.log(abs(z - a))  # zero distance -> domain error
    return total


def log_potential_nodes(density):
    """u(t_k) = int log|t_k - t| rho(t) ds(t) at every node t_k of a curve density.

    rho is the real part of the samples of a ``SampledDensity``.  Each value
    is bitwise the one ``log_potential`` gives at that node, and the own
    part behind them is computed once per density (see ``_own_part``).
    Nodes on chain arcs are refused with GeometryError.
    """
    if not isinstance(density, SampledDensity):
        raise TypeError("density must be a SampledDensity")
    return _on_nodes(density, np.arange(density.host.n_nodes))


# ---------------------------------------------------------------------------
# inverse maps
# ---------------------------------------------------------------------------

def recover_curve_density(u, host, h0=None, levels=3, tol=None):
    """Density of the curve part of mu from one-sided normal derivatives.

    The scalar callable ``u`` is differenced along both unit normals of each
    node at offsets h0 / 2**i (1 + 2 * levels calls per node) and extrapolated
    by ``quadrature.normal_ladder``; the density is the sum of the two one-sided
    derivatives over 2*pi.  Nodes failing the gap check (above 10x tol) or whose
    evaluations blow up are flagged in the estimate, never fatal.
    """
    if not isinstance(host, (ClosedContour, ArcSystem)):
        raise GeometryError("curve recovery needs a contour or arc system host")
    if isinstance(u, PotentialField):
        raise ValueError("curve recovery needs a callable, not a grid")
    if not callable(u):
        raise TypeError("u must be callable")
    if levels < 2:
        raise ValueError("extrapolation needs at least two offset levels")
    # the offset scale is local: near an arc endpoint the potential is only
    # smooth in the normal direction out to the endpoint distance, so the
    # ladder must shrink with it or the extrapolation diverges there
    scale = np.full(host.n_nodes, host.local_panel_length)
    if isinstance(host, ArcSystem):
        scale = np.minimum(scale, np.min(np.abs(host.nodes[:, None] - host.endpoints), axis=1))

    def at(z):  # float(u) at every point, NaN where u fails there
        out = np.full(z.shape, math.nan)
        for i, zi in enumerate(z.flat):
            with contextlib.suppress(ValueError, OverflowError, FloatingPointError):
                out.flat[i] = float(u(zi))
        return out

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


def _laplacian(values, h):
    return (values[1:-1, :-2] + values[1:-1, 2:] +
            values[:-2, 1:-1] + values[2:, 1:-1] -
            4.0 * values[1:-1, 1:-1]) / (h * h)


def recover_area_density(u, h_max=None):
    """Area density (1 / 2 pi) x discrete Laplacian of a gridded potential.

    The returned grid covers the interior cells (the 5-point stencil
    consumes one ghost ring; supply at least two rings beyond the support
    of the measure so boundary cells stay meaningful).  Second differences
    amplify rounding by 1/h^2, so cells below the noise floor
    10/h^2 * eps * max|u| are zeroed.
    """
    if not isinstance(u, PotentialField):
        raise TypeError("area recovery needs a grid PotentialField")
    if u.values.shape[0] < 5 or u.values.shape[1] < 5:
        raise ResolutionError("grid needs at least 5 points per axis")
    if h_max is not None and u.h > h_max:
        raise ResolutionError(
            f"grid spacing {u.h:.3g} exceeds the configured maximum {h_max:.3g}"
        )
    lap = _laplacian(u.values, u.h)
    floor = 10.0 / (u.h * u.h) * np.finfo(float).eps * np.max(np.abs(u.values))
    lap = np.where(np.abs(lap) <= floor, 0.0, lap)
    dens = lap / (2.0 * math.pi)
    mass = float(np.sum(dens)) * u.h ** 2
    return MeasureEstimate(
        area_density=dens,
        area_origin=(u.x0 + u.h, u.y0 + u.h),
        area_h=u.h,
        total_mass=mass,
    )


def _clusters_8(mask):
    """Connected components of a boolean grid under 8-connectivity."""
    ny, nx = mask.shape
    labels = np.zeros((ny, nx), dtype=int)
    current = 0
    for iy, ix in zip(*np.nonzero(mask)):  # row-major: clusters numbered in reading order
        if labels[iy, ix]:
            continue
        current += 1
        stack = [(iy, ix)]
        labels[iy, ix] = current
        while stack:
            cy, cx = stack.pop()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = cy + dy, cx + dx
                    if (0 <= yy < ny and 0 <= xx < nx
                            and mask[yy, xx] and not labels[yy, xx]):
                        labels[yy, xx] = current
                        stack.append((yy, xx))
    return labels, current


def detect_point_masses(u, cluster_radius):
    """Locate atoms of mu and their masses from a gridded potential.

    Cells whose discrete Laplacian exceeds 1e-3 of the peak are clustered
    under 8-connectivity; each cluster yields one atom at its
    Laplacian-weighted centroid.  The mass integrates the Laplacian over a
    box of half-width cluster_radius around the centroid: the box picks up
    the slow tails the threshold cuts off, and by the discrete divergence
    theorem the sum equals the flux of u through the box boundary.
    """
    if not isinstance(u, PotentialField):
        raise TypeError("point-mass detection needs a grid PotentialField")
    h = u.h
    if cluster_radius / h < 4.0:
        raise ResolutionError("cluster radius must span at least 4 grid cells")
    lap = _laplacian(u.values, h)
    ny, nx = lap.shape
    xs = u.x0 + h * (1 + np.arange(nx))
    ys = u.y0 + h * (1 + np.arange(ny))
    peak = float(np.max(np.abs(lap)))
    if peak == 0.0:
        return MeasureEstimate(point_masses=[], total_mass=0.0)
    mask = np.abs(lap) >= 1e-3 * peak
    labels, count = _clusters_8(mask)
    X, Y = np.meshgrid(xs, ys)
    atoms = []
    for c in range(1, count + 1):
        sel = labels == c
        wgt = np.abs(lap[sel])
        cx = float(np.sum(X[sel] * wgt) / np.sum(wgt))
        cy = float(np.sum(Y[sel] * wgt) / np.sum(wgt))
        box = ((np.abs(X - cx) <= cluster_radius)
               & (np.abs(Y - cy) <= cluster_radius))
        mass = float(np.sum(lap[box])) * h * h / (2.0 * math.pi)
        atoms.append((complex(cx, cy), mass))
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            if abs(atoms[i][0] - atoms[j][0]) < cluster_radius:
                warnings.warn(
                    f"clusters at {atoms[i][0]:.4g} and {atoms[j][0]:.4g} "
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
        dens = np.full(host.n_nodes, 1.0 / (2.0 * math.pi * r), dtype=complex)
        sd = SampledDensity(host, dens)
        mass = float(np.sum(dens.real * host.weights))
        return MeasureEstimate(curve_density=sd, total_mass=mass)
    if kind == "segment":
        host = build_arc_system([{
            "type": "segment", "a": shape["a"], "b": shape["b"],
            "panels": panels, "nodes_per_panel": per,
        }])
        arc = host.arcs[0]
        t = host.nodes
        dens = 1.0 / (math.pi * np.sqrt(np.abs(t - arc.a) * np.abs(arc.b - t)))
        sd = SampledDensity(host, dens.astype(complex))
        mass = float(np.sum(dens * host.weights))
        return MeasureEstimate(curve_density=sd, total_mass=mass)
    raise NotImplementedError(f"no equilibrium reference for shape {kind!r}")


# ---------------------------------------------------------------------------
# grid ingestion
# ---------------------------------------------------------------------------

def read_potential_csv(path):
    """Read a potential grid from CSV rows x,y,u forming a full lattice."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"potential CSV is not a table of numbers: {exc}") from None
    if data.shape[1] != 3:
        raise SchemaError("potential CSV needs exactly the columns x,y,u")
    if not np.isfinite(data).all():
        raise SchemaError("potential CSV holds a value that is not finite")
    xs, ys = _axis(data[:, 0]), _axis(data[:, 1])
    nx, ny = xs.size, ys.size
    if nx < 2 or ny < 2:
        raise SchemaError("potential lattice needs at least 2 points per axis")
    if nx * ny != data.shape[0]:
        raise SchemaError("potential CSV rows do not form a full lattice")
    h = float(xs[1] - xs[0])
    hx = np.diff(xs)
    hy = np.diff(ys)
    if (np.max(np.abs(hx - h)) > 1e-9 * abs(h)
            or np.max(np.abs(hy - h)) > 1e-9 * abs(h)):
        raise SchemaError("potential lattice spacing is not uniform")
    vals = np.empty((ny, nx))
    ix = np.searchsorted(xs, data[:, 0])
    iy = np.searchsorted(ys, data[:, 1])
    vals[iy, ix] = data[:, 2]
    return PotentialField(values=vals, x0=float(xs[0]), y0=float(ys[0]), h=h)


def _axis(coords):
    """The distinct values of ``coords``, ascending."""
    v = np.sort(coords)
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


def write_potential_csv(path, fieldobj):
    _write_grid_csv(path, "u", fieldobj.values, fieldobj.x0, fieldobj.y0, fieldobj.h)


def _write_grid_csv(path, column, values, x0, y0, h):
    """Rows x, y and the value at each lattice point, 17 significant digits."""
    ny, nx = values.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"x,y,{column}\n")
        for iy in range(ny):
            for ix in range(nx):
                fh.write(f"{x0 + ix * h:.17g},{y0 + iy * h:.17g},{values[iy, ix]:.17g}\n")


def read_potential_binary(data_path, header_path):
    """Row-major little-endian float64 lattice with a JSON header."""
    try:
        with open(header_path, "r", encoding="ascii") as fh:
            hdr = json.load(fh)
    except ValueError as exc:
        raise SchemaError(f"potential header is not JSON: {exc}") from None
    try:
        nx, ny = int(hdr["nx"]), int(hdr["ny"])
        x0, y0, h = float(hdr["x0"]), float(hdr["y0"]), float(hdr["h"])
    except KeyError as exc:
        raise SchemaError(f"potential header missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"potential header fields must be numbers: {exc}") from None
    if nx < 1 or ny < 1 or not (h > 0 and np.isfinite([x0, y0, h]).all()):
        raise SchemaError("potential header needs nx, ny >= 1, finite x0 and y0, "
                          "and a finite h > 0")
    raw = np.fromfile(data_path, dtype="<f8")
    if raw.size != nx * ny:
        raise SchemaError(
            f"binary lattice holds {raw.size} values, header says {nx * ny}"
        )
    if not np.isfinite(raw).all():
        raise SchemaError("binary lattice holds a value that is not finite")
    return PotentialField(values=raw.reshape(ny, nx), x0=x0, y0=y0, h=h)


def write_potential_binary(data_path, header_path, fieldobj):
    ny, nx = fieldobj.values.shape
    fieldobj.values.astype("<f8").tofile(data_path)
    with open(header_path, "w", encoding="ascii") as fh:
        json.dump({"nx": nx, "ny": ny, "x0": fieldobj.x0,
                   "y0": fieldobj.y0, "h": fieldobj.h}, fh)
        fh.write("\n")
