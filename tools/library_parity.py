#!/usr/bin/env python3
"""Check that the library gives bitwise the same results at two revisions.

    python3 tools/library_parity.py REV

Run from anywhere inside a git checkout.  REV is exported with ``git
archive`` as ``cli_parity.py`` does.  A fixed set of library calls then runs
twice, each in a fresh interpreter: once on REV's ``src/`` and once on the
working tree's.  Every result is hashed (sha256 of its dtype, shape and
bytes; a call that raises is hashed as the name of its error class).  The
script prints the hash over all results for each tree, names each result
that differs, and exits 1 if any does.

The calls cover S on closed contours along each of its paths (proxy
interpolation, direct pole-subtracted rows below 1024 nodes, multipole far
field from 1024 nodes on), S on each arc kind (segment, circular, a segment
beside a chain) in each density class, ``solve_closed``, the arc-system
solvers on five systems, Plemelj residuals, boundary values, Cauchy
transforms, on-node and off-curve potentials, the integrals, the
equilibrium references, and curve, area and point-mass recovery.  Atoms
sit off the lattice points of their grid.  It needs the standard library
and numpy only.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from cli_parity import source_trees

SEGMENT = {"type": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0], "panels": 8, "nodes_per_panel": 32}
LEFT = {"type": "segment", "a": [-1.0, 0.0], "b": [-0.3, 0.0], "panels": 4, "nodes_per_panel": 16}
RIGHT = {"type": "segment", "a": [0.2, 0.0], "b": [1.0, 0.1], "panels": 4, "nodes_per_panel": 20}
FAR = {"type": "segment", "a": [1.5, -0.5], "b": [2.5, 0.5], "panels": 4, "nodes_per_panel": 12}
CIRCULAR = {"type": "circular", "center": [0.0, 2.0], "radius": 1.0, "theta_a": 0.3,
            "theta_b": 2.4, "panels": 8, "nodes_per_panel": 16}
_x = np.linspace(2.0, 3.0, 40)
CHAIN = {"type": "chain", "nodes": np.stack([_x, 0.2 * _x * _x - 2.0], axis=1).tolist()}
POLYGON = {"type": "rounded-polygon", "corner_radius": 0.2,
           "vertices": [[0, 0], [2, 0], [2.5, 1], [0, 1.5]], "panels": 8}


def flat(result):
    """A solver report or measure estimate as one list of numbers."""
    if hasattr(result, "bounded"):
        return [result.residual, result.bounded, *result.moments, *result.solution.values]
    out = [result.total_mass, *result.flagged_nodes]
    if result.curve_density is not None:
        out += list(result.curve_density.values)
    if result.area_density is not None:
        out += [*result.area_origin, result.area_h, *result.area_density.ravel()]
    return out + [v for a, m in result.point_masses for v in (a, m)]


def calls():
    """(name, call) pairs: each call returns one library result."""
    import cauchypot as cp

    def sd(host, values):
        return cp.SampledDensity(host, values)

    def rhs(t):
        return np.cos(3 * t) + 0.5j * t * t

    closed = {
        # resolved data on a circle: the proxy interpolation
        "circle": (cp.build_closed_contour({"type": "circle", "radius": 1.3, "center": [0.1, -0.2],
                                            "panels": 8, "nodes_per_panel": 32}),
                   lambda h: h.nodes ** 3 + 0.5 / (h.nodes - 0.1 + 0.2j)),
        # data that jump where the node order wraps: direct rows, 512 nodes
        "ellipse": (cp.build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0],
                                             "panels": 8, "nodes_per_panel": 64}),
                    lambda h: np.cos(0.1 * np.arange(h.n_nodes))
                    + 1j * np.sin(0.3 * np.arange(h.n_nodes))),
        # corners: direct rows at 512 nodes, multipole far field at 4096
        "polygon-512": (cp.build_closed_contour(dict(POLYGON, nodes_per_panel=64)),
                        lambda h: h.nodes ** 2),
        "polygon-4096": (cp.build_closed_contour(dict(POLYGON, nodes_per_panel=512)),
                         lambda h: h.nodes ** 2 + 1.0 / (h.nodes - 1.0 - 0.7j)),
    }
    for name, (host, data) in closed.items():
        g = sd(host, data(host))
        yield f"{name} S", lambda g=g: cp.singular_S(g).values
        yield f"{name} S at nodes", lambda g=g: cp.singular_S(g, at_indices=[5, 0, 77, 5])
        yield f"{name} solve", lambda g=g: cp.solve_closed(g, tolerance=None).values
        yield f"{name} involution residual", lambda g=g: cp.involution_residual(g)
        yield f"{name} integrals", lambda g=g, h=host: [cp.integrate(g, h),
                                                       cp.integrate_arclength(g, h)]

    circle = closed["circle"][0]
    g = sd(circle, circle.nodes ** 3)
    yield "circle plemelj", lambda: cp.plemelj_residuals(g)
    yield "circle boundary values", lambda: [cp.boundary_value(g, side, node=k)
                                             for side in ("plus", "minus") for k in (0, 100)]
    yield "circle cauchy transform", lambda: cp.cauchy_transform(g, [0.1, 0.5j, 3.0, -2 + 1j])

    systems = {
        "segment": [SEGMENT],
        "circular": [CIRCULAR],
        "two segments": [LEFT, RIGHT],
        "segment and circular": [SEGMENT, CIRCULAR],
        "three segments": [LEFT, RIGHT, FAR],
    }
    for name, specs in systems.items():
        host = cp.build_arc_system(specs)
        s_plus = host.sqrtR_plus_nodes()
        g = sd(host, rhs(host.nodes))
        built = {"smooth": g, "inverse_sqrt": sd(host, g.values / s_plus),
                 "sqrt": sd(host, g.values * s_plus)}
        for cls, f in built.items():
            yield f"{name} S {cls}", lambda f=f, c=cls: cp.singular_S(f, density_class=c).values
        yield f"{name} moments", lambda g=g: cp.solvability_moments(g)
        yield f"{name} general", lambda g=g: cp.general_solution(g, P=[0.5]).values
        yield f"{name} f0", lambda g=g: cp.candidate_f0(g).values
        yield f"{name} defect", lambda g=g: cp.defect_polynomial(g).coefficients
        yield f"{name} modified residual", lambda g=g: cp.modified_residual(g)
        yield f"{name} bounded", lambda g=g: flat(cp.bounded_solution(g))
        yield f"{name} plemelj", lambda f=built["sqrt"]: cp.plemelj_residuals(
            f, density_class="sqrt")
        yield f"{name} cauchy transform", lambda g=g: cp.cauchy_transform(g, [0.3j, -2.0, 4 + 1j])

    chain = cp.build_arc_system([SEGMENT, CHAIN])
    n_seg = chain.arcs[0].n_nodes
    g = sd(chain, rhs(chain.nodes))
    for cls, f in {"smooth": g, "inverse_sqrt": sd(chain, g.values / chain.sqrtR_plus_nodes()),
                   "sqrt": sd(chain, g.values * chain.sqrtR_plus_nodes())}.items():
        yield f"segment and chain S {cls}", lambda f=f, c=cls: cp.singular_S(
            f, at_indices=np.arange(n_seg), density_class=c)
    yield "segment and chain moments", lambda: cp.solvability_moments(g)

    disk = cp.equilibrium_density({"type": "disk", "radius": 1.3, "center": [0.1, -0.2]})
    arcsine = cp.equilibrium_density({"type": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0]})
    for name, est in (("disk", disk), ("arcsine", arcsine)):
        yield f"{name} equilibrium", lambda e=est: flat(e)
        yield f"{name} potential at nodes", lambda e=est: cp.log_potential_nodes(e.curve_density)
        yield f"{name} potential off the curve", lambda e=est: [
            cp.log_potential(e, z) for z in (0.05j, 3.0 + 1.0j)]
    for name, specs in (("circular", [CIRCULAR]), ("two segments", [LEFT, RIGHT])):
        host = cp.build_arc_system(specs)
        yield f"{name} potential at nodes", lambda h=host: cp.log_potential_nodes(
            sd(h, 1.0 + 0.3 * h.nodes.real))
    ellipse = closed["ellipse"][0]
    yield "ellipse potential at nodes", lambda: cp.log_potential_nodes(
        sd(ellipse, 1.0 + 0.2 * ellipse.nodes.real ** 2))

    def disk_wall(z):
        return max(math.log(abs(z - (0.1 - 0.2j))), math.log(1.3))


    def segment_green(z):
        s = np.sqrt(complex(z) - 1.0) * np.sqrt(complex(z) + 1.0)
        return math.log(abs(complex(z) + s)) - math.log(2.0)

    yield "disk recovery", lambda: flat(cp.recover_curve_density(disk_wall, disk.curve_density.host))
    yield "arcsine recovery", lambda: flat(cp.recover_curve_density(
        segment_green, arcsine.curve_density.host))

    h = 0.05
    xs = -1.0 + h * np.arange(41)
    X, Y = np.meshgrid(xs, xs)
    Z = X + 1j * Y
    area = cp.PotentialField(0.7 * (X ** 2 + Y ** 2) + 0.3 * X * Y + 0.1 * X ** 3,
                             x0=xs[0], y0=xs[0], h=h)
    yield "area recovery", lambda: flat(cp.recover_area_density(area))
    atoms = cp.PotentialField(np.log(np.abs(Z - (-0.41 + 0.13j)))
                              + 0.8 * np.log(np.abs(Z - (0.52 - 0.27j))), x0=xs[0], y0=xs[0], h=h)
    yield "point masses", lambda: flat(cp.detect_point_masses(atoms, 0.3))


def digests():
    """sha256 of each result, by name."""
    out = {}
    for name, call in calls():
        try:
            value = np.ascontiguousarray(np.asarray(call()))
            blob = f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
        except Exception as exc:  # a refusal is a result too
            blob = f"raises {type(exc).__name__}".encode()
        out[name] = hashlib.sha256(blob).hexdigest()
    return out


def run(src):
    """The digests, computed by a fresh interpreter on the ``src/`` tree ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--emit"], env=env, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode:
        print(f"{src}: the library calls failed\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def total(digest):
    return hashlib.sha256("".join(f"{k}={v}\n" for k, v in digest.items()).encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description="Library results at REV against the working tree.")
    parser.add_argument("rev", nargs="?", help="git revision to compare against, e.g. HEAD~")
    parser.add_argument("--emit", action="store_true",
                        help="print the digests of the cauchypot on the path as JSON")
    args = parser.parse_args()
    if args.emit:
        print(json.dumps(digests()))
        return 0
    if args.rev is None:
        parser.error("REV is required")
    with tempfile.TemporaryDirectory() as tmp:
        trees = source_trees(args.rev, Path(tmp))
        if trees is None:
            return 2
        got = {name: run(src) for name, src in trees.items()}
    names = sorted(set(got["rev"]) | set(got["work"]))
    differing = [n for n in names if got["rev"].get(n) != got["work"].get(n)]
    for n in differing:
        print(f"{n}: DIFFERS")
    for tree, digest in got.items():
        print(f"{tree}: {total(digest)} over {len(digest)} results")
    print(f"{len(differing)} of {len(names)} results differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
