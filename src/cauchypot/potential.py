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
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GeometryError,
    NearBoundaryError,
    ResolutionError,
    SchemaError,
)
from .geometry import (
    ArcSystem,
    ClosedContour,
    _real,
    build_arc_system,
    build_closed_contour,
)
from .quadrature import host_rule, neville
from .sampling import SampledDensity, write_density_csv

__all__ = [
    "PotentialField",
    "MeasureEstimate",
    "log_potential",
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
    """A potential known either through point evaluations or on a grid.

    Grid values are row-major: ``values[iy, ix]`` sits at
    (x0 + ix*h, y0 + iy*h).
    """

    def __init__(self, evaluator=None, values=None, x0=0.0, y0=0.0, h=0.0):
        if (evaluator is None) == (values is None):
            raise ValueError("need exactly one of evaluator or grid values")
        self.evaluator = evaluator
        if values is not None:
            values = np.asarray(values, dtype=float)
            if values.ndim != 2:
                raise ValueError("grid values must be 2-d")
            if h <= 0:
                raise ValueError("grid spacing must be positive")
        self.values = values
        self.x0, self.y0, self.h = float(x0), float(y0), float(h)

    @property
    def is_grid(self):
        return self.values is not None

    def __call__(self, z):
        if self.evaluator is None:
            raise ValueError("grid potential cannot be point-evaluated")
        return float(self.evaluator(z))


@dataclass
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
            w = host_rule(self.curve_density.host).weights
            total += float(np.sum(self.curve_density.values.real * w))
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

    def to_json(self):
        return {
            "total_mass": float(self.total_mass),
            "point_masses": [
                [float(a.real), float(a.imag), float(m)]
                for a, m in self.point_masses
            ],
            "flagged_nodes": [int(k) for k in self.flagged_nodes],
        }

    def write_curve_csv(self, path):
        if self.curve_density is None:
            raise ValueError("no curve component to write")
        write_density_csv(path, self.curve_density.values)


# ---------------------------------------------------------------------------
# forward map: potential of a measure
# ---------------------------------------------------------------------------

def _seg_log_moment(l1, l2):
    # int log|s| ds over (-l1, l2)
    left = l1 * (math.log(l1) - 1.0) if l1 > 0 else 0.0
    right = l2 * (math.log(l2) - 1.0) if l2 > 0 else 0.0
    return left + right


def _split_log_sum(g, d, dpar, k, log_speed):
    """sum g * log(d) with the log split at the pole k.

    log(d) = log(d / dpar) + log(dpar), dpar a parameter distance to the
    pole: the ratio is bounded through the pole (limit ``log_speed``), and
    log(dpar) is summed against g - g[k], the density frozen at the pole,
    whose own integral the caller adds in closed form (or knows to vanish).
    """
    n = g.size
    nz = np.arange(n) != k
    ratio = np.empty(n)
    ratio[nz] = np.log(d[nz] / dpar[nz])
    ratio[k] = log_speed
    logs = np.zeros(n)
    logs[nz] = np.log(dpar[nz])
    return float(np.sum(g * ratio) + np.sum((g - g[k]) * logs))


def _closed_potential_on_node(host, rho, k):
    """int rho log|t - t_k| ds over a closed contour, pole at node k.

    Against the periodic kernel log|2 sin((th - th_k)/2)| the integrand
    splits into a bounded ratio (diagonal limit log|z'(th_k)|) plus the
    kernel itself, whose exact integral against the frozen density
    vanishes; only the subtracted remainder is summed.
    """
    th = host.params
    wth = 2.0 * np.pi / host.n_nodes
    v = rho * np.abs(host.dz_dtheta)
    half = np.abs(2.0 * np.sin(0.5 * (th - th[k])))
    d = np.abs(host.nodes - host.nodes[k])
    log_speed = math.log(float(np.abs(host.dz_dtheta[k])))
    return wth * _split_log_sum(v, d, half, k, log_speed)


def _arc_log_self(arc, rho_arc, k_local):
    """int rho log|t - t_k| ds over one graded arc, pole at a node of it.

    In the u parametrization (nodes on the uniform midpoint lattice of
    (0, pi)) the kernel splits as log(|t - t_k| / |u - u_k|) + log|u - u_k|;
    the ratio is smooth through the pole (limit log|dt/du|), and the second
    factor integrates in closed form against the frozen density.
    """
    if not arc.graded:
        raise GeometryError("on-arc potential needs a graded (cosine) arc")
    u = np.arccos(np.clip(arc.params, -1.0, 1.0))
    du_w = np.pi / arc.n_nodes
    speed = np.abs(arc.dt_dtau) * arc.sin_u
    g = rho_arc * speed
    uk = u[k_local]
    d = np.abs(arc.nodes - arc.nodes[k_local])
    log_speed = math.log(max(float(speed[k_local]), 1e-300))
    part12 = du_w * _split_log_sum(g, d, np.abs(u - uk), k_local, log_speed)
    return part12 + float(g[k_local]) * _seg_log_moment(uk, np.pi - uk)


def _curve_potential(density, z):
    host = density.host
    rho = density.values.real
    w = host_rule(host).weights
    t = host.nodes
    d = np.abs(t - z)
    k = int(np.argmin(d))
    if d[k] <= 1e-9 * host.diameter():
        if isinstance(host, ClosedContour):
            return _closed_potential_on_node(host, rho, k)
        total = 0.0
        off = host.arc_offsets
        for j, arc in enumerate(host.arcs):
            lo, hi = off[j], off[j] + arc.n_nodes
            if lo <= k < hi:
                total += _arc_log_self(arc, rho[lo:hi], k - lo)
            else:
                dj = np.abs(arc.nodes - t[k])
                total += float(np.sum(w[lo:hi] * rho[lo:hi] * np.log(dj)))
        return total
    if d[k] < host.near_cutoff:
        raise NearBoundaryError(
            "potential evaluation between nodes near the curve; "
            "evaluate at a node or beyond the cutoff"
        )
    return float(np.sum(w * rho * np.log(d)))


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
    On-curve requests must land on a node (weighted singular quadrature);
    points between nodes inside the near cutoff are refused.  Evaluation
    exactly at a point mass raises the log domain error.
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


# ---------------------------------------------------------------------------
# inverse maps
# ---------------------------------------------------------------------------

def recover_curve_density(u, host, h0=None, levels=3, tol=None):
    """Density of the curve part of mu from one-sided normal derivatives.

    At each node the potential is differenced along both unit normals with
    offsets h0 / 2**i and Richardson-extrapolated to the curve; the density
    is the sum of the two one-sided derivatives over 2*pi.  Nodes whose
    extrapolation fails the convergence check (gap above 10x tol) or whose
    evaluations blow up are flagged in the estimate, never fatal.
    """
    if not isinstance(host, (ClosedContour, ArcSystem)):
        raise GeometryError("curve recovery needs a contour or arc system host")
    if isinstance(u, PotentialField) and u.is_grid:
        raise ValueError("curve recovery needs an evaluator, not a grid")
    if not callable(u):
        raise TypeError("u must be callable or an evaluator PotentialField")
    if levels < 2:
        raise ValueError("extrapolation needs at least two offset levels")
    nodes = host.nodes
    normals = 1j * host.tangents
    # the offset scale is local: near an arc endpoint the potential is only
    # smooth in the normal direction out to the endpoint distance, so the
    # ladder must shrink with it or the extrapolation diverges there
    scale = np.full(host.n_nodes, host.local_panel_length)
    if isinstance(host, ArcSystem):
        ends = host.endpoints
        gap = np.min(np.abs(nodes[:, None] - ends[None, :]), axis=1)
        scale = np.minimum(scale, gap)
    h0_k = np.full(host.n_nodes, h0) if h0 is not None else 1e-3 * scale
    dens = np.zeros(host.n_nodes)
    flagged = []
    for k in range(host.n_nodes):
        z = nodes[k]
        n_hat = normals[k]
        hs = h0_k[k] / 2.0 ** np.arange(levels)
        try:
            u0 = float(u(z))
            total = 0.0
            worst = 0.0
            for sgn in (1.0, -1.0):
                d = np.array([(float(u(z + sgn * hh * n_hat)) - u0) / hh
                              for hh in hs])
                val, gap = neville(d)
                total += val
                worst = max(worst, gap)
            if not math.isfinite(total):
                raise ValueError("non-finite derivative")
            dens[k] = total / (2.0 * math.pi)
            if tol is not None and worst > 10.0 * tol:
                flagged.append(k)
        except (ValueError, OverflowError, FloatingPointError):
            flagged.append(k)
            dens[k] = 0.0
    sd = SampledDensity(host, dens.astype(complex),
                        meta={"flagged_nodes": list(flagged)})
    w = host_rule(host).weights
    mass = float(np.sum(dens * w))
    return MeasureEstimate(curve_density=sd, total_mass=mass,
                           flagged_nodes=flagged)


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
    if not isinstance(u, PotentialField) or not u.is_grid:
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
    for iy in range(ny):
        for ix in range(nx):
            if not mask[iy, ix] or labels[iy, ix]:
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
    if not isinstance(u, PotentialField) or not u.is_grid:
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
        mass = float(np.sum(dens.real * host_rule(host).weights))
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
        mass = float(np.sum(dens * host_rule(host).weights))
        return MeasureEstimate(curve_density=sd, total_mass=mass)
    raise NotImplementedError(f"no equilibrium reference for shape {kind!r}")


# ---------------------------------------------------------------------------
# grid ingestion
# ---------------------------------------------------------------------------

def read_potential_csv(path):
    """Read a potential grid from CSV rows x,y,u forming a full lattice."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 3:
        raise SchemaError("potential CSV needs exactly the columns x,y,u")
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
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


def write_potential_csv(path, fieldobj):
    if not fieldobj.is_grid:
        raise ValueError("only grid potentials serialize to CSV")
    ny, nx = fieldobj.values.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,u\n")
        for iy in range(ny):
            for ix in range(nx):
                x = fieldobj.x0 + ix * fieldobj.h
                y = fieldobj.y0 + iy * fieldobj.h
                fh.write(f"{x:.17g},{y:.17g},{fieldobj.values[iy, ix]:.17g}\n")


def read_potential_binary(data_path, header_path):
    """Row-major little-endian float64 lattice with a JSON header."""
    with open(header_path, "r", encoding="ascii") as fh:
        hdr = json.load(fh)
    try:
        nx, ny = int(hdr["nx"]), int(hdr["ny"])
        x0, y0, h = float(hdr["x0"]), float(hdr["y0"]), float(hdr["h"])
    except KeyError as exc:
        raise SchemaError(f"potential header missing key {exc}") from exc
    raw = np.fromfile(data_path, dtype="<f8")
    if raw.size != nx * ny:
        raise SchemaError(
            f"binary lattice holds {raw.size} values, header says {nx * ny}"
        )
    return PotentialField(values=raw.reshape(ny, nx), x0=x0, y0=y0, h=h)


def write_potential_binary(data_path, header_path, fieldobj):
    if not fieldobj.is_grid:
        raise ValueError("only grid potentials serialize to binary")
    ny, nx = fieldobj.values.shape
    fieldobj.values.astype("<f8").tofile(data_path)
    with open(header_path, "w", encoding="ascii") as fh:
        json.dump({"nx": nx, "ny": ny, "x0": fieldobj.x0,
                   "y0": fieldobj.y0, "h": fieldobj.h}, fh)
        fh.write("\n")
