"""Samples of densities and potentials, and the package's data files.

A ``SampledDensity`` is complex values aligned one-to-one with the nodes of
a ``ClosedContour`` or ``ArcSystem``; all operators in this package consume
and produce node-aligned samples.  A ``PotentialField`` is a potential
sampled on a square lattice, what the grid recoveries take.

This is the one module that reads and writes data files: the density table
(index, re_f, im_f), the solution table the command-line tool writes
(index, s, re_z, im_z, re_f, im_f), a lattice as CSV (x, y, value) or as
little-endian float64 values with a JSON header, and the point-mass table
(index, re_a, im_a, mass).  Numbers carry 17 significant digits, so round
trips are bit-exact.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, SchemaError
from .geometry import _number, _read_only

__all__ = ["SampledDensity", "PotentialField", "write_density_csv", "read_density_csv",
           "write_solution_csv", "read_solution_csv", "read_samples_csv", "read_potential_csv",
           "write_potential_csv", "read_potential_binary", "write_potential_binary",
           "write_masses_csv"]

_DENSITY_HEADER = ["index", "re_f", "im_f"]
_SOLUTION_HEADER = ["index", "s", "re_z", "im_z", "re_f", "im_f"]
_GRID_HEADER = ["x", "y", "u"]


@dataclass(frozen=True, eq=False)
class SampledDensity:
    """Complex samples f(t_k) at the nodes of a host curve: a frozen record,
    as the hosts are, of a read-only complex copy of the values, so what is
    derived once per density cannot go stale (an edit raises ValueError)."""

    host: object
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size != self.host.n_nodes:
            raise AlignmentError(
                f"expected {self.host.n_nodes} samples, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise AlignmentError("samples must be finite")
        object.__setattr__(self, "values", _read_only(vals))

    @classmethod
    def from_function(cls, host, f):
        return cls(host, np.asarray(f(host.nodes), dtype=complex))

    def __add__(self, other):
        return SampledDensity(self.host, self.values + other.values)

    def __sub__(self, other):
        return SampledDensity(self.host, self.values - other.values)

    def __mul__(self, c):
        return SampledDensity(self.host, self.values * c)

    __rmul__ = __mul__


class PotentialField:
    """A potential sampled on a square grid.

    Values are row-major: ``values[iy, ix]`` sits at (x0 + ix*h, y0 + iy*h).
    Values, origin and spacing must be finite: a NaN cell would drop out of
    the recoveries' thresholds and turn their sums into NaN.  The field
    holds a read-only copy of the values, and neither they nor ``h`` can be
    reassigned, so what is derived from them once (the lattice Laplacian
    that ``potential`` keeps on the field) cannot go stale.  Curve recovery
    takes the potential as a plain callable instead.
    """

    def __init__(self, values, x0=0.0, y0=0.0, h=0.0):
        values = np.array(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("grid values must be 2-d")
        x0, y0, h = float(x0), float(y0), float(h)
        if not (np.isfinite(values).all() and np.isfinite([x0, y0, h]).all()):
            raise ValueError("grid values, origin and spacing must be finite")
        if h <= 0:
            raise ValueError("grid spacing must be positive")
        self._values, self._h = _read_only(values), h
        self.x0, self.y0 = x0, y0

    @property
    def values(self):
        return self._values

    @property
    def h(self):
        return self._h


def write_density_csv(path, values):
    """Density interchange table: index, re_f, im_f."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_DENSITY_HEADER)
        for k, v in enumerate(values):
            w.writerow([k, f"{v.real:.17g}", f"{v.imag:.17g}"])


def _read_rows(path, header, what, cols):
    """One complex array per pair of the float columns ``cols`` (real part,
    imaginary part) of a CSV table whose rows are indexed 0, 1, 2, ...

    A wrong header, a row that is short or has a cell that is not a number
    (named by its file line), or a gap in the index raises AlignmentError.
    """
    idx, vals = [], []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        first = next(r, [])
        if [h.strip() for h in first] != header:
            raise AlignmentError(f"unexpected {what} header {first!r}")
        for row in r:
            try:
                idx.append(int(row[0]))
                vals.append([float(row[c]) for c in cols])
            except (IndexError, ValueError):
                raise AlignmentError(f"{what} row at line {r.line_num} is not "
                                     f"{len(header)} numbers: {row!r}") from None
    if idx != list(range(len(idx))):
        raise AlignmentError(f"{what} rows are not a contiguous index range")
    return np.array(vals, dtype=float).reshape(-1, len(cols)).view(complex).T.copy()


def read_density_csv(path, expect=None):
    (vals,) = _read_rows(path, _DENSITY_HEADER, "density", (1, 2))
    if expect is not None and vals.size != expect:
        raise AlignmentError(f"host has {expect} nodes but file has {vals.size} rows")
    return vals


def write_solution_csv(path, host, values):
    """Full node table plus samples: index, s, re_z, im_z, re_f, im_f."""
    nodes, s = host.nodes, host.arclength
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SOLUTION_HEADER)
        for k in range(nodes.size):
            w.writerow([
                k, f"{s[k]:.17g}",
                f"{nodes[k].real:.17g}", f"{nodes[k].imag:.17g}",
                f"{values[k].real:.17g}", f"{values[k].imag:.17g}",
            ])


def read_solution_csv(path, host=None):
    """Read samples from a solution table, checking node alignment if a host
    is supplied (positions must match to ~1e-12 of the host diameter)."""
    zs, fs = _read_rows(path, _SOLUTION_HEADER, "solution", (2, 3, 4, 5))
    if host is not None:
        if zs.size != host.n_nodes:
            raise AlignmentError(
                f"host has {host.n_nodes} nodes but file has {zs.size} rows"
            )
        tol = 1e-12 * max(host.diameter(), 1.0)
        err = np.max(np.abs(zs - host.nodes))
        if err > tol:
            raise AlignmentError(
                f"sample positions deviate from host nodes by {err:.3g}"
            )
    return fs


def read_samples_csv(path, host):
    """The samples for ``host`` in a solution table (a header of at least 6
    columns, its nodes checked against the host's) or else a density table,
    so that solver outputs feed straight back in as right-hand sides."""
    with open(path, newline="") as fh:
        ncols = len(fh.readline().split(","))
    if ncols >= 6:
        return read_solution_csv(path, host=host)
    return read_density_csv(path, expect=host.n_nodes)


def read_potential_csv(path):
    """Read a potential grid from CSV rows x,y,u forming a full lattice.

    A table whose header is not x,y,u (with ``y,x,u`` the lattice would be
    read transposed) raises SchemaError.
    """
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"potential CSV is not a table of numbers: {exc}") from None
    if data.shape[1] != 3:
        raise SchemaError("potential CSV needs exactly the columns x,y,u")
    # latin-1 decodes any byte: the table has been read, only its names are checked
    with open(path, newline="", encoding="latin-1") as fh:
        first = next(csv.reader(fh), [])
    if [h.strip() for h in first] != _GRID_HEADER:
        raise SchemaError(f"potential CSV header must be x,y,u, not {first!r}")
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
    seen = np.zeros((ny, nx), dtype=bool)
    seen[iy, ix] = True
    if not seen.all():
        raise SchemaError("potential CSV gives a lattice point twice and leaves another out")
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
    """Rows x, y and the value at each lattice point, 17 significant digits.

    Each column's x and each row's y is formatted once, and a row of the
    lattice is written in one call.
    """
    ny, nx = values.shape
    xs = [format(x0 + ix * h, ".17g") for ix in range(nx)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"x,y,{column}\n")
        for iy in range(ny):
            y = "," + format(y0 + iy * h, ".17g") + ","
            fh.write("".join([x + y + format(v, ".17g") + "\n"
                              for x, v in zip(xs, values[iy].tolist())]))


def read_potential_binary(data_path, header_path):
    """Row-major little-endian float64 lattice with a JSON header.

    The data file must hold exactly nx * ny values: a count of whole values
    that differs from the header's, or a partial value after them, raises
    SchemaError.
    """
    try:
        with open(header_path, "r", encoding="ascii") as fh:
            hdr = json.load(fh)
    except ValueError as exc:
        raise SchemaError(f"potential header is not JSON: {exc}") from None
    if not isinstance(hdr, dict):
        raise SchemaError("potential header must be a JSON object")
    nx, ny = (_header_field(hdr, key, int) for key in ("nx", "ny"))
    x0, y0, h = (_header_field(hdr, key, float) for key in ("x0", "y0", "h"))
    if nx < 1 or ny < 1 or not (h > 0 and np.isfinite([x0, y0, h]).all()):
        raise SchemaError("potential header needs nx, ny >= 1, finite x0 and y0, "
                          "and a finite h > 0")
    raw = np.fromfile(data_path, dtype=np.uint8)
    if raw.size % 8:
        raise SchemaError(f"binary lattice of {raw.size} bytes ends in a partial float64 value")
    raw = raw.view("<f8")
    if raw.size != nx * ny:
        raise SchemaError(
            f"binary lattice holds {raw.size} values, header says {nx * ny}"
        )
    if not np.isfinite(raw).all():
        raise SchemaError("binary lattice holds a value that is not finite")
    return PotentialField(values=raw.reshape(ny, nx), x0=x0, y0=y0, h=h)


def _header_field(hdr, key, kind):
    """hdr[key] as ``kind``: a number (``geometry._number``), and for int an integer."""
    if key not in hdr:
        raise SchemaError(f"potential header missing key {key!r}")
    v = hdr[key]
    try:
        out = kind(_number(v))
        if kind is float or out == v:  # int(3.9) is not 3.9
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a number"
    raise SchemaError(f"potential header fields must be numbers: {key!r} must be {what}, "
                      f"not {v!r}")


def write_potential_binary(data_path, header_path, fieldobj):
    ny, nx = fieldobj.values.shape
    fieldobj.values.astype("<f8").tofile(data_path)
    with open(header_path, "w", encoding="ascii") as fh:
        json.dump({"nx": nx, "ny": ny, "x0": fieldobj.x0,
                   "y0": fieldobj.y0, "h": fieldobj.h}, fh)
        fh.write("\n")


def write_masses_csv(path, point_masses):
    """Point-mass table: index, re_a, im_a, mass, for (position, mass) pairs."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index,re_a,im_a,mass\n")
        for k, (a, m) in enumerate(point_masses):
            fh.write(f"{k}," + ",".join(format(float(v), ".17g") for v in (a.real, a.imag, m))
                     + "\n")
