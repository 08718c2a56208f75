#!/usr/bin/env python3
"""Check that the library gives bitwise the same results at two revisions.

    python3 tools/library_parity.py REV

Run from anywhere inside a git checkout.  REV is exported with ``git
archive`` as ``cli_parity.py`` does.  A fixed set of library calls then runs
twice, each in a fresh interpreter: once on REV's ``src/`` and once on the
working tree's.  Every result is hashed (sha256 of its dtype, shape and
bytes; a call that raises is hashed as the name of its error class).  The
script prints the hash over all results for each tree, names each result
that differs with its largest absolute difference and that difference over
a scale, and exits 1 if any differs.  The scale is the largest entry of the
data a result is formed from where the call names them (so that a residual
near 0 is not its own scale), and else the result's own largest entry.

The calls cover S on closed contours along each of its paths (proxy
interpolation, direct pole-subtracted rows below 1024 nodes, multipole far
field from 1024 nodes on, at 1200, 4096 and 16384 nodes, and the kernel
table of its smooth remainder on Laurent data from 1024 nodes on, on a
4096-node 2:1 ellipse, a 16384-node circle and a 16384-node 8:1 ellipse;
proxies from 40 on a 1000-node 2:1 ellipse and the kernel table at 80 on a
1200-node one, node counts that 32 does not divide; the probed direct rows
and multipole rows for the rest on a 1024-node contour of 40 lobes), S on each arc
kind (segment, circular, a segment beside a chain) in each density class,
``solve_closed``, the arc-system solvers on five systems, S in each class
and the general and bounded solutions on five arc systems of 2048 nodes
(the benchmark's four and a segment beside a circular arc), whose
remainders take the proxy plan, the moments and the bounded and general
solutions on 64 segments of 128 nodes, Plemelj
residuals, boundary values and Cauchy transforms (on a 256-node circle,
summed directly, and on a 4096-node polygon and a 16384-node circle, where
``plemelj_residuals`` and a 64-point grid of the transform take the
multipole tree and boundary values at two nodes the direct sums, and
``plemelj_residuals`` and the grid on the 1200-node polygon, whose leaves
differ in size by a node: its ladders take the tree, its grid is below the
crossover and takes the direct sums), on-node
and off-curve potentials (on-node also on the 16384-node circle, a
4096-node, a 4000-node, a 1200-node and a 1000-node 2:1 ellipse, the benchmark's 4096-node rounded polygon and a
segment, a circular arc and a segment of 64, 2400 and 264 nodes, and of
standard-normal samples on that circle and that ellipse and of the density
recovered from the disk-wall potential on a 1024-node unit circle), the
integrals (and, summed exactly at scale,
integrals of data whose exact integral is 0 on the 16384-node circle and on
two mirrored segments of 2048 nodes), the equilibrium references, and
curve, area and point-mass recovery: on a small lattice, on the 801^2
lattice of the benchmark's ``recovery.grid-atoms`` op, and on a lattice
with an atom whose mass box crosses its edge and two atoms within one
cluster radius.  Atoms sit off the lattice points of their grid.  The
contact pairs of the geometry check, sorted, close the set: on a 4096-node
circle with one spiked node, a 2000-step random walk, two circular arcs
that touch between their nodes, a 16384-node 2:1 ellipse, a union of 16
segments on the real axis, a regular 64-gon with one vertex 1e-13 of its
radius inside the chord of its neighbours, and two segments that meet end
to end, and a 4096-node circle with one node out at 3 times its radius
(two segments far longer than the rest).  The data files close it: for each
writer and reader pair (the potential grid as CSV and as binary with its
JSON header, the density table and the solution table), on fixed values
with signed zeros, a subnormal and extremes of the exponent range, the
bytes written in a temporary directory and the values read back.  That
makes 169 results.  It needs the standard library and numpy only.
"""

import argparse
import hashlib
import json
import math
import os
import pickle
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
# the rounded polygon of the benchmark's closed-contour ops
BENCH_POLYGON = {"type": "rounded-polygon", "corner_radius": 0.25,
                 "vertices": [[1.2, 0.0], [0.0, 1.0], [-1.1, 0.1], [-0.2, -1.0]]}


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
    """(name, call) or (name, call, data): each call returns one library
    result, formed from the array ``data`` where that is given."""
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
        yield f"{name} S", lambda g=g: cp.singular_S(g).values, g.values
        yield f"{name} S at nodes", lambda g=g: cp.singular_S(g, at_indices=[5, 0, 77, 5]), g.values
        yield f"{name} solve", lambda g=g: cp.solve_closed(g, tolerance=None).values, g.values
        yield f"{name} involution residual", lambda g=g: cp.involution_residual(g), g.values
        yield f"{name} integrals", lambda g=g, h=host: [cp.integrate(g, h),
                                                       cp.integrate_arclength(g, h)]

    # the tree's edge shapes: at 1200 nodes its boxes at one level differ in
    # size by a node; 16384 nodes make it 9 levels deep
    for per in (150, 2048):
        host = cp.build_closed_contour(dict(POLYGON, nodes_per_panel=per))
        g = sd(host, host.nodes ** 2 + 1.0 / (host.nodes - 1.0 - 0.7j))
        yield f"polygon-{host.n_nodes} S", lambda g=g: cp.singular_S(g).values, g.values
        yield f"polygon-{host.n_nodes} S at a node", lambda g=g, k=host.n_nodes - 1: (
            cp.singular_S(g, at_indices=k)), g.values
        if per == 150:
            polygon_1200 = g

    circle = closed["circle"][0]
    g = sd(circle, circle.nodes ** 3)
    yield "circle plemelj", lambda: cp.plemelj_residuals(g), g.values
    yield "circle boundary values", lambda: [cp.boundary_value(g, side, node=k)
                                             for side in ("plus", "minus") for k in (0, 100)]
    yield "circle cauchy transform", lambda: cp.cauchy_transform(g, [0.1, 0.5j, 3.0, -2 + 1j])

    # off-curve sums through the multipole tree: 384 ladder rungs and 64
    # grid points over the curve's bounding box and beyond it; on the
    # 1200-node polygon the walk sums boxes over leaves that differ in size
    # by a node (402 rungs; its 64 grid points are below the crossover)
    def grid(host):
        t = host.nodes
        x = np.linspace(t.real.min() - 0.3, t.real.max() + 0.3, 8)
        y = np.linspace(t.imag.min() - 0.3, t.imag.max() + 0.3, 8)
        return x + 1j * y[:, None]

    yield "polygon-1200 plemelj", lambda: cp.plemelj_residuals(polygon_1200), polygon_1200.values
    yield "polygon-1200 cauchy transform", lambda: cp.cauchy_transform(
        polygon_1200, grid(polygon_1200.host))
    big_circle = cp.build_closed_contour({"type": "circle", "radius": 1.3, "center": [0.1, -0.2],
                                          "panels": 8, "nodes_per_panel": 2048})
    for name, host, data in (("polygon-4096", *closed["polygon-4096"]),
                             ("circle-16384", big_circle, closed["circle"][1])):
        g = sd(host, data(host))
        yield f"{name} plemelj", lambda g=g: cp.plemelj_residuals(g), g.values
        yield f"{name} boundary values", lambda g=g: [
            cp.boundary_value(g, side, node=k) for side in ("plus", "minus") for k in (0, 100)]
        yield f"{name} cauchy transform", lambda g=g, z=grid(host): cp.cauchy_transform(g, z)

    # the exact summation at scale: integrals of data whose exact integral is
    # 0, (t - c)^3 and Re(t - c) on the big circle about c, and t on two
    # segments mirrored about 0
    mirrored = cp.build_arc_system([dict(SEGMENT, b=[-0.3, 0.0], nodes_per_panel=128),
                                    dict(SEGMENT, a=[0.3, 0.0], nodes_per_panel=128)])
    z = big_circle.nodes - (0.1 - 0.2j)
    yield "circle-16384 cancelling integrals", lambda: [
        cp.integrate(z ** 3, big_circle), cp.integrate_arclength(z.real, big_circle)]
    yield f"mirrored segments-{mirrored.n_nodes} cancelling integrals", lambda: [
        cp.integrate(mirrored.nodes, mirrored), cp.integrate_arclength(mirrored.nodes.real, mirrored)]

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
            f, density_class="sqrt"), built["sqrt"].values
        yield f"{name} cauchy transform", lambda g=g: cp.cauchy_transform(g, [0.3j, -2.0, 4 + 1j])

    # from 1024 nodes on, S takes the first proxies' remainders from the
    # system's proxy plan: the benchmark's arc systems at 2048 nodes, and a
    # segment beside a circular arc
    planned = {
        "segment": [dict(SEGMENT, nodes_per_panel=256)],
        "union": [dict(SEGMENT, b=[-0.3, 0.0], nodes_per_panel=128),
                  dict(SEGMENT, a=[0.2, 0.0], nodes_per_panel=128)],
        "two circular": [dict(CIRCULAR, center=[0.0, 0.0], theta_a=0.3, theta_b=1.4,
                              nodes_per_panel=128),
                         dict(CIRCULAR, center=[0.0, 0.0], theta_a=2.2, theta_b=4.0,
                              nodes_per_panel=128)],
        "three segments": [dict(SEGMENT, b=[-0.4, 0.0], nodes_per_panel=86),
                           dict(SEGMENT, a=[0.1, 0.0], nodes_per_panel=86),
                           dict(SEGMENT, a=[-0.5, 0.5], b=[0.5, 0.8], nodes_per_panel=84)],
        "segment and circular": [dict(SEGMENT, nodes_per_panel=128),
                                 dict(CIRCULAR, nodes_per_panel=128)],
    }
    for name, specs in planned.items():
        host = cp.build_arc_system(specs)
        name = f"{name}-{host.n_nodes}"
        s_plus = host.sqrtR_plus_nodes()
        g = sd(host, rhs(host.nodes))
        for cls, f in {"smooth": g, "inverse_sqrt": sd(host, g.values / s_plus),
                       "sqrt": sd(host, g.values * s_plus)}.items():
            yield f"{name} S {cls}", lambda f=f, c=cls: cp.singular_S(f, density_class=c).values
        yield f"{name} general", lambda g=g: cp.general_solution(g, P=[0.5]).values
        yield f"{name} bounded", lambda g=g: flat(cp.bounded_solution(g))

    # many arcs: 64 segments of 128 nodes from radius 0.8 to 1.2, the system
    # of the memory tests, whose solvability sums take 64 powers of t
    angles = 2.0 * np.pi * np.arange(64) / 64
    radial = cp.build_arc_system([
        {"type": "segment", "a": [0.8 * np.cos(a), 0.8 * np.sin(a)],
         "b": [1.2 * np.cos(a), 1.2 * np.sin(a)], "panels": 1, "nodes_per_panel": 128}
        for a in angles])
    g = sd(radial, rhs(radial.nodes))
    yield "64 segments-8192 moments", lambda g=g: cp.solvability_moments(g)
    yield "64 segments-8192 bounded", lambda g=g: flat(cp.bounded_solution(g))
    yield "64 segments-8192 general", lambda g=g: cp.general_solution(g, P=[0.5]).values

    chain = cp.build_arc_system([SEGMENT, CHAIN])
    n_seg = chain.arcs[0].n_nodes
    g = sd(chain, rhs(chain.nodes))
    for cls, f in {"smooth": g, "inverse_sqrt": sd(chain, g.values / chain.sqrtR_plus_nodes()),
                   "sqrt": sd(chain, g.values * chain.sqrtR_plus_nodes())}.items():
        yield f"segment and chain S {cls}", lambda f=f, c=cls: cp.singular_S(
            f, at_indices=np.arange(n_seg), density_class=c)
    yield "segment and chain moments", lambda: cp.solvability_moments(g)

    # the geometry check's contacts, each as (i, j, owner of i, owner of j) in
    # (i, j) order: a 4096-node circle with one spiked node, a 2000-step
    # random walk, two circular arcs that touch between their nodes; a convex
    # curve and a row of segments, and a dented polygon and two segments that
    # share a box bound, which fall just short of the proofs of no contact;
    # a circle with two segments longer than the grid's cell
    from cauchypot.geometry import _polyline_contacts

    def contacts(*args, **kwargs):
        owner, i, j = _polyline_contacts(*args, **kwargs)
        return np.stack([i, j, owner[i], owner[j]])[:, np.lexsort((j, i))]

    spiked = np.exp(2j * np.pi * np.arange(4096) / 4096)
    spiked[1029] *= -1.5
    walk = np.cumsum(np.exp(2j * np.pi * np.random.default_rng(7).random(2001)))
    ang = np.linspace(-0.5, 0.5, 18)
    touching = [(-1.0, 1.0, ang), (1.0, 1.0, np.pi + ang)]
    yield "spiked circle-4096 contacts", lambda: contacts([spiked], closed=True)
    yield "random walk-2000 contacts", lambda: contacts([walk])
    yield "touching circular arcs contacts", lambda: contacts(
        [c + r * np.exp(1j * a) for c, r, a in touching], circles=touching)
    th = 2.0 * np.pi * np.arange(16384) / 16384
    ellipse_16384 = 2.0 * np.cos(th) + 1j * np.sin(th)
    row = [np.linspace(k, k + 0.5, 33) + 0j for k in range(16)]
    gon = np.exp(2j * np.pi * np.arange(64) / 64)
    gon[5] = 0.5 * (gon[4] + gon[6]) * (1.0 - 1e-13 / abs(0.5 * (gon[4] + gon[6])))
    ends = [np.linspace(0.0, 1.0, 9) + 0j, np.linspace(1.0, 2.0, 9) + 0j]
    yield "ellipse-16384 contacts", lambda: contacts([ellipse_16384], closed=True)
    yield "16 segments contacts", lambda: contacts(row)
    yield "dented 64-gon contacts", lambda: contacts([gon], closed=True)
    yield "end to end segments contacts", lambda: contacts(ends)
    outlying = np.exp(2j * np.pi * np.arange(4096) / 4096)
    outlying[1001] *= 3.0
    yield "outlying node circle-4096 contacts", lambda: contacts([outlying], closed=True)

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

    # on-node potentials at scale: the remainder interpolated from proxies
    # on the circle and the ellipse, summed at every node on the benchmark's
    # polygon (z' not resolved), and the three-arc host of the potential tests
    on_nodes = {
        "circle-16384": big_circle,
        "ellipse-4096": cp.build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0],
                                                 "panels": 8, "nodes_per_panel": 512}),
        "library polygon-4096": cp.build_closed_contour(dict(
            BENCH_POLYGON, panels=8, nodes_per_panel=512)),
        "three arcs": cp.build_arc_system([
            dict(LEFT, panels=8, nodes_per_panel=8),
            dict(CIRCULAR, center=[0.0, 0.0], theta_a=0.3, theta_b=1.4, nodes_per_panel=300),
            {"type": "segment", "a": [0.2, -1.0], "b": [1.0, -1.2], "panels": 8,
             "nodes_per_panel": 33}]),
    }
    for name, host in on_nodes.items():
        yield f"{name} potential at nodes", lambda h=host: cp.log_potential_nodes(
            sd(h, 1.0 + 0.3 * h.nodes.real + 0.2 * h.nodes.imag ** 2))
    # a node count of 32 times an odd number: the proxies step from 32 to 80
    ellipse_4000 = cp.build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0],
                                            "panels": 8, "nodes_per_panel": 500})
    yield "ellipse-4000 potential at nodes", lambda: cp.log_potential_nodes(
        sd(ellipse_4000, 1.0 + 0.3 * ellipse_4000.nodes.real + 0.2 * ellipse_4000.nodes.imag ** 2))
    # node counts that 32 does not divide: the proxies start at 40, where
    # they resolve S and the potential at 1000 nodes; at 1200 S takes the
    # kernel table at p = 80
    for per in (125, 150):
        host = cp.build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0],
                                        "panels": 8, "nodes_per_panel": per})
        g = sd(host, host.nodes ** 3 + 0.5 / (host.nodes - 0.1 + 0.2j))
        yield f"ellipse-{host.n_nodes} S", lambda g=g: cp.singular_S(g).values, g.values
        yield f"ellipse-{host.n_nodes} potential at nodes", lambda h=host: cp.log_potential_nodes(
            sd(h, 1.0 + 0.3 * h.nodes.real + 0.2 * h.nodes.imag ** 2))
    # r = 1 + 0.2 cos 40 th at 1024 nodes: S's proxies probe 256 rows and do
    # not resolve, and there is no kernel table
    from cauchypot.geometry import ClosedContour

    th = 2.0 * np.pi * np.arange(1024) / 1024
    r = 1.0 + 0.2 * np.cos(40 * th)
    lobes = ClosedContour(r * np.exp(1j * th), (-8.0 * np.sin(40 * th) + 1j * r) * np.exp(1j * th),
                          8)
    g = sd(lobes, np.exp(3j * th) + 0.5 * np.exp(-2j * th))
    yield "40 lobes-1024 S", lambda g=g: cp.singular_S(g).values, g.values
    # S of seeded degree-32 Laurent data about the centre, from the kernel
    # table of S's smooth remainder (p = 128, 32 and 512)
    rng = np.random.default_rng(13)
    p, q = ([1.0, 1j] @ rng.standard_normal((2, 33)) for _ in range(2))
    tables = {"ellipse-4096": on_nodes["ellipse-4096"], "circle-16384": big_circle,
              "ellipse 8:1-16384": cp.build_closed_contour({
                  "type": "ellipse", "semi_axes": [1.0, 0.125], "panels": 8,
                  "nodes_per_panel": 2048})}
    for name, host in tables.items():
        w = host.nodes - np.mean(host.nodes)
        g = sd(host, np.polynomial.polynomial.polyval(w / np.max(np.abs(w)), p)
               + np.polynomial.polynomial.polyval(np.min(np.abs(w)) / w, q) - q[0])
        yield f"{name} Laurent S", lambda g=g: cp.singular_S(g).values, g.values
    # rough densities on curves whose z' is resolved take the proxies too:
    # seeded standard-normal samples, and a recovery with its ladder noise
    for name in ("ellipse-4096", "circle-16384"):
        host = on_nodes[name]
        g = sd(host, np.random.default_rng(11).standard_normal(host.n_nodes) + 0j)
        yield (f"{name} standard-normal potential at nodes",
               lambda g=g: cp.log_potential_nodes(g), g.values)
    unit = cp.build_closed_contour({"type": "circle", "radius": 1.0, "panels": 8,
                                    "nodes_per_panel": 128})
    wall = cp.recover_curve_density(lambda z: max(math.log(abs(z)), 0.0), unit).curve_density
    yield ("recovered disk-wall potential at nodes",
           lambda: cp.log_potential_nodes(wall), wall.values)

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

    # the lattice of the benchmark's grid-atoms op: 801^2 points, h = 0.005,
    # each atom at offsets 0.37 and 0.61 inside its cell
    h = 0.005
    xs = -2.0 + h * np.arange(801)
    X, Y = np.meshgrid(xs, xs)
    Z = X + 1j * Y
    grid = cp.PotentialField(0.83 * np.log(np.abs(Z - complex(-1.0 + 3.37 * h, -3.39 * h)))
                             + 1.21 * np.log(np.abs(Z - complex(1.0 - 6.63 * h, 2.61 * h))),
                             x0=xs[0], y0=xs[0], h=h)
    yield "grid-atoms point masses", lambda: flat(cp.detect_point_masses(grid, 0.1))
    yield "grid-atoms area recovery", lambda: flat(cp.recover_area_density(grid))

    # an atom whose mass box crosses the lattice edge, and a negative atom
    # within one cluster radius of another (which warns)
    h = 0.01
    xs = -1.0 + h * np.arange(201)
    X, Y = np.meshgrid(xs, xs)
    Z = X + 1j * Y
    grid_edge = cp.PotentialField(np.log(np.abs(Z - complex(0.96 + 0.37 * h, 0.2 + 0.61 * h)))
                                  + 0.7 * np.log(np.abs(Z - complex(-0.4 + 0.37 * h, -0.3 + 0.61 * h)))
                                  - 0.5 * np.log(np.abs(Z - complex(-0.32 + 0.37 * h, -0.3 + 0.61 * h))),
                                  x0=xs[0], y0=xs[0], h=h)
    yield "edge and pair point masses", lambda: flat(cp.detect_point_masses(grid_edge, 0.1))
    yield "edge and pair area recovery", lambda: flat(cp.recover_area_density(grid_edge))

    # the data files: the bytes each writer writes to two paths, then those
    # of the values its reader reads back from them
    def roundtrip(write, read):
        with tempfile.TemporaryDirectory() as tmp:
            paths = (Path(tmp) / "data", Path(tmp) / "header")
            write(*paths)
            written = b"".join(p.read_bytes() for p in paths if p.exists())
            back = np.ascontiguousarray(read(*paths))
        return np.frombuffer(written + back.tobytes(), dtype=np.uint8)

    def field_values(f):
        return np.append(f.values.ravel(), [f.x0, f.y0, f.h])

    rng = np.random.default_rng(17)
    extremes = [0.0, -0.0, 5e-324, -1e-300, 1.7976931348623157e308, math.pi, -1.0 / 3.0]
    lattice = rng.standard_normal((6, 9)) * 10.0 ** rng.integers(-30, 30, (6, 9))
    lattice.flat[:len(extremes)] = extremes
    field = cp.PotentialField(lattice, x0=-0.5, y0=1e-300, h=0.1)
    yield "potential csv round trip", lambda: roundtrip(
        lambda a, b: cp.write_potential_csv(a, field),
        lambda a, b: field_values(cp.read_potential_csv(a)))
    yield "potential binary round trip", lambda: roundtrip(
        lambda a, b: cp.write_potential_binary(a, b, field),
        lambda a, b: field_values(cp.read_potential_binary(a, b)))
    samples = rng.standard_normal(circle.n_nodes) + 1j * rng.standard_normal(circle.n_nodes)
    samples[:len(extremes)] = np.array(extremes) - 1j * np.array(extremes[::-1])
    yield "density csv round trip", lambda: roundtrip(
        lambda a, b: cp.write_density_csv(a, samples),
        lambda a, b: cp.read_density_csv(a, expect=circle.n_nodes))
    yield "solution csv round trip", lambda: roundtrip(
        lambda a, b: cp.write_solution_csv(a, circle, samples),
        lambda a, b: cp.read_solution_csv(a, host=circle))


def results():
    """By name: each result as an array, or as the error class it raised,
    and the largest magnitude of the data it is formed from (None if the
    call names none)."""
    out = {}
    for name, call, *data in calls():
        try:
            result = np.ascontiguousarray(np.asarray(call()))
        except Exception as exc:  # a refusal is a result too
            result = f"raises {type(exc).__name__}"
        out[name] = result, float(np.max(np.abs(data[0]))) if data else None
    return out


def digest(result):
    """sha256 of a result's dtype, shape and bytes, or of its error class."""
    blob = (result.encode() if isinstance(result, str)
            else f"{result.dtype.str}{result.shape}".encode() + result.tobytes())
    return hashlib.sha256(blob).hexdigest()


def difference(a, b, scale=None):
    """max |a - b| and that over ``scale`` (max |b| if None), for two numeric
    results of one shape."""
    if isinstance(a, str) or isinstance(b, str) or a.shape != b.shape or a.size == 0:
        return None
    a, b = a.astype(complex), b.astype(complex)
    gap = float(np.max(np.abs(a - b)))
    scale = float(np.max(np.abs(b))) if scale is None else scale
    return gap, gap / scale if scale else math.inf


def run(src):
    """The results, computed by a fresh interpreter on the ``src/`` tree ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.NamedTemporaryFile(suffix=".pickle") as out:
        proc = subprocess.run([sys.executable, __file__, "--emit", out.name], env=env,
                              capture_output=True, text=True, timeout=600)
        if proc.returncode:
            print(f"{src}: the library calls failed\n{proc.stderr}", file=sys.stderr)
            sys.exit(2)
        with open(out.name, "rb") as fh:
            return pickle.load(fh)


def total(by_name):
    return hashlib.sha256("".join(f"{k}={v}\n" for k, v in by_name.items()).encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description="Library results at REV against the working tree.")
    parser.add_argument("rev", nargs="?", help="git revision to compare against, e.g. HEAD~")
    parser.add_argument("--emit", metavar="PATH",
                        help="pickle the results of the cauchypot on the path to PATH")
    args = parser.parse_args()
    if args.emit:
        with open(args.emit, "wb") as fh:
            pickle.dump(results(), fh)
        return 0
    if args.rev is None:
        parser.error("REV is required")
    with tempfile.TemporaryDirectory() as tmp:
        trees = source_trees(args.rev, Path(tmp))
        if trees is None:
            return 2
        got = {name: run(src) for name, src in trees.items()}
    digests = {tree: {n: digest(r) for n, (r, _) in res.items()} for tree, res in got.items()}
    names = sorted(set(got["rev"]) | set(got["work"]))
    differing = [n for n in names if digests["rev"].get(n) != digests["work"].get(n)]
    for n in differing:
        line = f"{n}: DIFFERS"
        if n in got["rev"] and n in got["work"]:
            (new, scale), (old, _) = got["work"][n], got["rev"][n]
            gap = difference(new, old, scale)
            if gap is not None:
                of = "max" if scale is None else "max|data|"
                line += f" by {gap[0]:.3g} ({gap[1]:.3g} of {of})"
        print(line)
    for tree, d in digests.items():
        print(f"{tree}: {total(d)} over {len(d)} results")
    print(f"{len(differing)} of {len(names)} results differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
