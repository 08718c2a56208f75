"""Densities sampled at host nodes, and their CSV forms.

A ``SampledDensity`` is complex values aligned one-to-one with the nodes of
a ``ClosedContour`` or ``ArcSystem``.  All operators in this package consume
and produce node-aligned samples.

Two CSV layouts are used: the density interchange table (index, re_f, im_f),
and the full solution table (index, s, re_z, im_z, re_f, im_f) written by
the command-line tool.  Both carry 17 significant digits so that round trips
are bit-exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError
from .geometry import _read_only, _write_node_table

__all__ = [
    "SampledDensity",
    "write_density_csv",
    "read_density_csv",
    "write_solution_csv",
    "read_solution_csv",
]

_DENSITY_HEADER = ["index", "re_f", "im_f"]
_SOLUTION_HEADER = ["index", "s", "re_z", "im_z", "re_f", "im_f"]


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
    _write_node_table(path, host, _SOLUTION_HEADER[4:], values)


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
