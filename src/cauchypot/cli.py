"""Command-line front end: configs in, CSV tables and JSON summaries out.

One run is one JSON config naming a command, a geometry, and the data it
needs.  Results land in the output directory as ``solution.csv`` (or a
grid/atom table for the recovery commands) plus ``summary.json``.  All
floating-point output is printed with 17 significant digits so files
round-trip losslessly; serial reruns of the same config are byte-identical.

Exit codes: 0 for success (including "no bounded solution", which is an
answer, not a failure), 64 for config/schema violations (message carries a
config line number), 65 for numerical non-convergence (message carries the
failing node index when one exists).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .arcs import (
    ComplexPolynomial,
    bounded_solution,
    general_solution,
    solvability_moments,
)
from .cauchy import singular_S
from .closed import solve_closed
from .errors import (
    AlignmentError,
    CauchypotError,
    GeometryError,
    ResolutionError,
    SchemaError,
)
from .geometry import (_MAX_NODES, ArcSystem, ClosedContour, _as_complex, _number, _real,
                       parse_geometry)
from .potential import (
    _write_grid_csv,
    detect_point_masses,
    equilibrium_density,
    read_potential_binary,
    read_potential_csv,
    recover_area_density,
    recover_curve_density,
)
from .sampling import (
    SampledDensity,
    read_density_csv,
    read_solution_csv,
    write_solution_csv,
)

__all__ = ["main", "run_config"]

@contextmanager
def _section(name):
    """Tag the errors raised while reading one top-level config section."""
    try:
        yield
    except CauchypotError as exc:
        exc.section = name
        raise


def _key_line(text, key, section=None):
    """1-based line of a config key, looked for from its section's line on."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if section and f'"{section}"' in line), 0)
    return next((i + 1 for i in range(start, len(lines)) if key and f'"{key}"' in lines[i]), 1)


def _fmt(x):
    return format(float(x), ".17g")


def _json17(obj, indent=0):
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad_in}"{k}": {_json17(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad_in}{_json17(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _pairs(values):
    return [[float(v.real), float(v.imag)] for v in np.atleast_1d(values)]


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

@_section("geometry")
def _geometry(config, kind=(ClosedContour, ArcSystem)):
    spec = config.get("geometry")
    if not isinstance(spec, dict):
        raise SchemaError("config needs a 'geometry' mapping", key="geometry")
    host = parse_geometry(spec)
    if not isinstance(host, kind):
        family = "a closed-contour" if kind is ClosedContour else "an arc-system"
        raise SchemaError(f"{config['command']} needs {family} geometry", key="geometry")
    return host


@_section("rhs")
def _rhs_values(spec, host):
    if not isinstance(spec, dict):
        raise SchemaError("config needs an 'rhs' mapping", key="rhs")
    family = spec.get("family")
    t = host.nodes
    if family == "monomial":
        return t ** _degree(spec)
    if family == "chebyshev-T":
        n = _degree(spec)
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        return np.polynomial.chebyshev.chebval(t, coeffs).astype(complex)
    if family == "constant":
        return np.full(t.size, _as_complex(spec.get("value", 1.0), "value"))
    if family == "csv":
        path = spec.get("path")
        if not (path and isinstance(path, str)):  # an int would open a file descriptor
            raise SchemaError("csv rhs needs a 'path'", key="rhs")
        # accept both the 3-column density table and the 6-column solution
        # table, so solver outputs feed straight back in as right-hand sides
        with open(path, newline="") as fh:
            ncols = len(fh.readline().split(","))
        if ncols >= 6:
            return read_solution_csv(path, host=host)
        return read_density_csv(path, expect=host.n_nodes)
    raise SchemaError(f"unknown rhs family {family!r}", key="rhs")


def _degree(spec):
    """The integer degree of a polynomial rhs family, from 0 to ``_MAX_NODES``."""
    try:
        n = int(_number(spec["degree"]))
    except (KeyError, TypeError, ValueError, OverflowError):
        n = -1
    if n < 0:
        raise SchemaError(f"{spec['family']} rhs needs an integer degree >= 0",
                          key="degree" if "degree" in spec else "rhs")
    if n > _MAX_NODES:
        raise SchemaError(f"{spec['family']} rhs degree {n} exceeds the limit of {_MAX_NODES}",
                          key="degree")
    return n


@_section("potential")
def _potential_evaluator(spec):
    """Analytic potential families for the normal-derivative recovery."""
    if not isinstance(spec, dict):
        raise SchemaError("config needs a 'potential' mapping", key="potential")
    family = spec.get("family")
    if family == "point-charges":
        try:
            charges = [(complex(float(_number(re)), float(_number(im))), float(_number(m)))
                       for re, im, m in spec.get("charges", [])]
        except (TypeError, ValueError, IndexError, KeyError, OverflowError):
            charges = None
        if charges is None or not all(cmath.isfinite(a) and math.isfinite(m)
                                      for a, m in charges):
            raise SchemaError("'charges' must be a list of [re, im, mass] numbers",
                              key="charges")
        if not charges:
            raise SchemaError("point-charges needs a nonempty 'charges' list",
                              key="potential")

        def u(z):
            return math.fsum(m * math.log(abs(z - a)) for a, m in charges)

        return u
    if family == "disk-wall":
        r = _real(spec, "radius", 1.0)
        c = _as_complex(spec.get("center", [0.0, 0.0]), "center")
        if r <= 0:
            raise SchemaError("disk-wall needs a positive radius", key="potential")
        # equilibrium potential of the uniform circle measure
        return lambda z: max(math.log(abs(z - c)), math.log(r))
    if family == "segment-green":
        a = _real(spec, "a", -1.0)
        b = _real(spec, "b", 1.0)
        if not b > a:
            raise SchemaError("segment-green needs b > a", key="potential")
        mid, half = 0.5 * (a + b), 0.5 * (b - a)

        def u(z):
            w = (complex(z) - mid) / half
            s = np.sqrt(w - 1.0) * np.sqrt(w + 1.0)
            return math.log(abs(w + s)) + math.log(half / 2.0)

        return u
    raise SchemaError(f"unknown potential family {family!r}", key="potential")


@_section("potential")
def _potential_grid(spec):
    if not isinstance(spec, dict):
        raise SchemaError("config needs a 'potential' mapping", key="potential")
    family = spec.get("family")
    if family == "csv":
        if not isinstance(spec.get("path"), str):
            raise SchemaError("csv potential needs a 'path'", key="potential")
        return read_potential_csv(spec["path"])
    if family == "binary":
        if not (isinstance(spec.get("data"), str) and isinstance(spec.get("header"), str)):
            raise SchemaError("binary potential needs 'data' and 'header' "
                              "paths", key="potential")
        return read_potential_binary(spec["data"], spec["header"])
    raise SchemaError(
        f"grid commands need a csv or binary potential, not {family!r}",
        key="potential")


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, summary dict)
# ---------------------------------------------------------------------------

def _cmd_solve_closed(config, out_dir, tols):
    tol = tols["residual"]
    host = _geometry(config, ClosedContour)
    g = SampledDensity(host, _rhs_values(config.get("rhs"), host))
    f = solve_closed(g, tolerance=None)
    residual = f.meta["residual"]
    write_solution_csv(out_dir / "solution.csv", host, f.values)
    summary = {
        "command": "solve-closed",
        "n_nodes": host.n_nodes,
        "residual": residual,
        "tolerance": tol,
    }
    if residual > tol:
        print(f"solve-closed did not converge: residual {residual:.3g} "
              f"exceeds {tol:.3g} at node {f.meta['worst_node']}", file=sys.stderr)
        return 65, summary
    return 0, summary


def _cmd_solve_arcs(config, out_dir, tols):
    tol = tols["residual"]
    host = _geometry(config, ArcSystem)
    if "defect_poly" not in config:
        raise SchemaError(
            "solve-arcs requires 'defect_poly' (kernel polynomial "
            "coefficients as [re, im] pairs; use [[0.0, 0.0]] for none)",
            key="defect_poly")
    try:
        P = ComplexPolynomial.from_json(config["defect_poly"])
    except (TypeError, ValueError, OverflowError):
        raise SchemaError("'defect_poly' must be a nonempty list of [re, im] pairs",
                          key="defect_poly") from None
    g = SampledDensity(host, _rhs_values(config.get("rhs"), host))
    f = general_solution(g, P=P)
    err = np.abs(singular_S(f, density_class="inverse_sqrt").values - g.values)
    residual = float(np.max(err))
    write_solution_csv(out_dir / "solution.csv", host, f.values)
    summary = {
        "command": "solve-arcs",
        "n_nodes": host.n_nodes,
        "kernel_poly": P.to_json(),
        "residual": residual,
        "tolerance": tol,
    }
    if residual > tol:
        print(f"solve-arcs did not converge: residual {residual:.3g} "
              f"exceeds {tol:.3g} at node {int(np.argmax(err))}", file=sys.stderr)
        return 65, summary
    return 0, summary


def _cmd_bounded(config, out_dir, tols):
    host = _geometry(config, ArcSystem)
    g = SampledDensity(host, _rhs_values(config.get("rhs"), host))
    report = bounded_solution(g)
    write_solution_csv(out_dir / "solution.csv", host, report.solution.values)
    summary = {"command": "bounded"}
    summary.update(report.to_json("solution.csv"))
    # no bounded solution is a result, not a tool failure: exit 0 either way
    return 0, summary


def _cmd_moments(config, out_dir, tols):
    host = _geometry(config, ArcSystem)
    g = SampledDensity(host, _rhs_values(config.get("rhs"), host))
    m = solvability_moments(g)
    write_solution_csv(out_dir / "solution.csv", host, g.values)
    return 0, {
        "command": "moments",
        "n_nodes": host.n_nodes,
        "moments": _pairs(m),
    }


def _cmd_recover_curve(config, out_dir, tols):
    host = _geometry(config)
    u = _potential_evaluator(config.get("potential"))
    # gap flagging only runs when a flag tolerance was actually requested;
    # evaluation blow-ups are always flagged by the library
    est = recover_curve_density(u, host, tol=tols["flag"])
    write_solution_csv(out_dir / "solution.csv", host,
                       est.curve_density.values)
    summary = {
        "command": "recover-curve",
        "n_nodes": host.n_nodes,
        "total_mass": est.total_mass,
        "flagged_nodes": [int(k) for k in est.flagged_nodes],
    }
    if est.flagged_nodes:
        print("recover-curve: one-sided derivatives did not converge at node "
              f"{est.flagged_nodes[0]} "
              f"({len(est.flagged_nodes)} nodes flagged)", file=sys.stderr)
        return 65, summary
    return 0, summary


def _cmd_recover_area(config, out_dir, tols):
    grid = _potential_grid(config.get("potential"))
    h_max = config.get("tolerances", {}).get("h_max")
    est = recover_area_density(grid, h_max=h_max)
    _write_grid_csv(out_dir / "density.csv", "density", est.area_density,
                    *est.area_origin, est.area_h)
    ny, nx = est.area_density.shape
    return 0, {
        "command": "recover-area",
        "total_mass": est.total_mass,
        "grid": {"nx": nx, "ny": ny, "x0": est.area_origin[0],
                 "y0": est.area_origin[1], "h": est.area_h},
    }


def _cmd_point_masses(config, out_dir, tols):
    grid = _potential_grid(config.get("potential"))
    radius = None if config.get("cluster_radius") is None else _real(config, "cluster_radius")
    if radius is None or radius <= 0:
        raise SchemaError("point-masses needs a positive 'cluster_radius'", key="cluster_radius")
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        est = detect_point_masses(grid, cluster_radius=radius)
        overlaps = [str(w.message) for w in rec]
    with open(out_dir / "masses.csv", "w", encoding="ascii") as fh:
        fh.write("index,re_a,im_a,mass\n")
        for k, (a, m) in enumerate(est.point_masses):
            fh.write(f"{k},{_fmt(a.real)},{_fmt(a.imag)},{_fmt(m)}\n")
    return 0, {
        "command": "point-masses",
        "point_masses": [[float(a.real), float(a.imag), float(m)]
                         for a, m in est.point_masses],
        "total_mass": est.total_mass,
        "warnings": overlaps,
    }


def _cmd_equilibrium(config, out_dir, tols):
    shape = config.get("shape")
    if not isinstance(shape, dict):
        raise SchemaError("equilibrium needs a 'shape' mapping", key="shape")
    with _section("shape"):
        try:
            est = equilibrium_density(shape)
        except NotImplementedError as exc:
            raise SchemaError(str(exc), key="type") from None
    host = est.curve_density.host
    write_solution_csv(out_dir / "solution.csv", host,
                       est.curve_density.values)
    return 0, {
        "command": "equilibrium",
        "n_nodes": host.n_nodes,
        "total_mass": est.total_mass,
    }


_HANDLERS = {
    "solve-closed": _cmd_solve_closed,
    "solve-arcs": _cmd_solve_arcs,
    "bounded": _cmd_bounded,
    "moments": _cmd_moments,
    "recover-curve": _cmd_recover_curve,
    "recover-area": _cmd_recover_area,
    "point-masses": _cmd_point_masses,
    "equilibrium": _cmd_equilibrium,
}


def run_config(config, out_dir, tol=None, serial=False):
    """Run one validated config mapping; returns the process exit code."""
    command = config.get("command")
    if command not in _HANDLERS:
        raise SchemaError(
            f"unknown command {command!r}; expected one of {', '.join(_HANDLERS)}",
            key="command")
    tolerances = config.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise SchemaError("'tolerances' must be a mapping", key="tolerances")
    for name, val in tolerances.items():
        if not (isinstance(val, (int, float)) and not isinstance(val, bool)
                and 0 < val <= sys.float_info.max):
            raise SchemaError(f"tolerance '{name}' must be positive",
                              key="tolerances")
    flag_tol = tol if tol is not None else tolerances.get("flag")
    tols = {
        "residual": float(tol if tol is not None
                          else tolerances.get("residual", 1e-8)),
        "flag": None if flag_tol is None else float(flag_tol),
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    code, summary = _HANDLERS[command](config, out_dir, tols)
    summary["serial"] = bool(serial)
    (out_dir / "summary.json").write_text(_json17(summary) + "\n", encoding="ascii")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cauchypot",
        description="Singular integral equations with Cauchy kernel, and "
                    "measure recovery from logarithmic potentials.")
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--serial", action="store_true",
                        help="force bit-reproducible serial mode")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the residual/flagging tolerance")
    args = parser.parse_args(argv)
    if args.tol is not None and not args.tol > 0:
        print("config:1: --tol must be positive", file=sys.stderr)
        return 64
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"{args.config}:1: cannot read config: {exc}", file=sys.stderr)
        return 64
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"{args.config}:{exc.lineno}: {exc.msg}", file=sys.stderr)
        return 64
    if not isinstance(config, dict):
        print(f"{args.config}:1: config must be a JSON object", file=sys.stderr)
        return 64
    try:
        # overflow or NaN in the arithmetic is a numerical failure, not a crash
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return run_config(config, args.out, tol=args.tol, serial=args.serial)
    except ResolutionError as exc:
        # under-resolution outranks the GeometryError base it derives from:
        # the config parsed fine, the numerics just cannot be done on it
        print(f"numerical resolution failure: {exc}", file=sys.stderr)
        return 65
    except (GeometryError, SchemaError, AlignmentError, KeyError,
            TypeError, OSError) as exc:
        line = _key_line(text, getattr(exc, "key", None), getattr(exc, "section", None))
        print(f"{args.config}:{line}: {exc}", file=sys.stderr)
        return 64
    except (CauchypotError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 65


if __name__ == "__main__":
    sys.exit(main())
