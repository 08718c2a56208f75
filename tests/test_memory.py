"""The memory of each public operation is O(N): its traced peak on a fresh
host is at most c N bytes for N nodes.

Each operation runs once under ``tracemalloc``, which counts numpy's data
buffers, on a host and data built before tracing starts, so the peak holds
what the operation derives and keeps on the host (kernel tables, multipole
and proxy plans) as well as its temporaries.  c is 1.5 times the peak per node
measured in one run (numpy 2.4.6), rounded up to 10 bytes, room for other
numpy versions' temporaries but not for a second copy of a plan: closed
contours at 16384 nodes (the rounded polygon's on-node potential, which sums
its direct rows, at 4096), arc systems at 2 x 4096 and, for curve recovery,
64 x 256.
"""

import math
import tracemalloc

import numpy as np
import pytest

import cauchypot as cp

POLYGON = {"type": "rounded-polygon", "corner_radius": 0.25,
           "vertices": [[1.2, 0.0], [0.0, 1.0], [-1.1, 0.1], [-0.2, -1.0]]}


def ellipse(per):
    return cp.build_closed_contour({"type": "ellipse", "semi_axes": [2.0, 1.0], "panels": 8,
                                    "nodes_per_panel": per})


def polygon(per):
    return cp.build_closed_contour(dict(POLYGON, panels=8, nodes_per_panel=per))


def segment_and_circular(per):
    return cp.build_arc_system([
        {"type": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0], "panels": 8,
         "nodes_per_panel": per},
        {"type": "circular", "center": [0.0, 2.0], "radius": 1.0, "theta_a": 0.3,
         "theta_b": 2.4, "panels": 8, "nodes_per_panel": per}])


def radial_segments(per):
    """64 segments from radius 0.8 to 1.2, at equally spaced angles."""
    th = 2.0 * np.pi * np.arange(64) / 64
    return cp.build_arc_system([
        {"type": "segment", "a": [0.8 * np.cos(t), 0.8 * np.sin(t)],
         "b": [1.2 * np.cos(t), 1.2 * np.sin(t)], "panels": 1, "nodes_per_panel": per}
        for t in th])


def charge_potential(z):
    """The potential of a unit charge at 3, off the curves."""
    return math.log(abs(z - 3.0))


def laurent(host):
    w = host.nodes - np.mean(host.nodes)
    return cp.SampledDensity(host, w ** 3 + 0.5 / w)


def density(host):
    t = host.nodes
    return cp.SampledDensity(host, (1.0 + 0.3 * t.real + 0.2 * t.imag ** 2) + 0j)


def arc_data(host):
    return cp.SampledDensity(host, np.cos(3 * host.nodes) + 0.5j * host.nodes ** 2)


def grid_transform(g):
    """The Cauchy transform at 64 points over the curve's box and beyond it."""
    t = g.host.nodes
    x = np.linspace(t.real.min() - 0.3, t.real.max() + 0.3, 8)
    y = np.linspace(t.imag.min() - 0.3, t.imag.max() + 0.3, 8)
    return cp.cauchy_transform(g, (x + 1j * y[:, None]).ravel())


# (host, nodes per panel, data, operation, c in bytes per node; the
# measured peak per node in the comment)
CASES = {
    "ellipse S": (ellipse, 2048, laurent, cp.singular_S, 260),  # 167
    "ellipse solve_closed": (ellipse, 2048, laurent,
                             lambda g: cp.solve_closed(g, tolerance=None), 270),  # 176
    "ellipse log_potential_nodes": (ellipse, 2048, density, cp.log_potential_nodes, 200),  # 130
    "ellipse cauchy_transform": (ellipse, 2048, laurent, grid_transform, 880),  # 584
    "ellipse plemelj_residuals": (ellipse, 2048, laurent, cp.plemelj_residuals, 990),  # 657
    "polygon S": (polygon, 2048, laurent, cp.singular_S, 3090),  # 2053
    "polygon solve_closed": (polygon, 2048, laurent,
                             lambda g: cp.solve_closed(g, tolerance=None), 3100),  # 2061
    "polygon plemelj_residuals": (polygon, 2048, laurent, cp.plemelj_residuals, 2950),  # 1966
    "polygon log_potential_nodes": (polygon, 512, density, cp.log_potential_nodes, 320),  # 210
    "arcs general_solution": (segment_and_circular, 512, arc_data,
                              lambda g: cp.general_solution(g, P=[0.5]), 2180),  # 1449
    "arcs bounded_solution": (segment_and_circular, 512, arc_data, cp.bounded_solution,
                              2320),  # 1545
    "arcs solvability_moments": (segment_and_circular, 512, arc_data, cp.solvability_moments,
                                 490),  # 321
    "arcs log_potential_nodes": (segment_and_circular, 512, density, cp.log_potential_nodes,
                                 320),  # 213
    # the host itself is the data; the distances to the 128 endpoints were
    # one N x 128 array, 3080 bytes per node
    "64 segments recover_curve_density": (
        radial_segments, 256, lambda host: host,
        lambda host: cp.recover_curve_density(charge_potential, host), 500),  # 328
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_traced_peak_of_an_operation_is_within_its_bytes_per_node(name):
    build, per, data, operation, bytes_per_node = CASES[name]
    host = build(per)
    g = data(host)
    tracemalloc.start()
    try:
        operation(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_node * host.n_nodes
