#!/usr/bin/env python3
"""Time the rows of the ROADMAP baseline table, one layer call at a time.

    python3 perfbench/layers.py

Run from the root of a source checkout.  Each row is the median wall time
of three calls, printed as a markdown table.  These are single-call
layer timings for comparison with the ROADMAP; the benchmark proper is
run.py.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import run  # sets the thread variables before numpy loads

ENV = dict(os.environ, PYTHONPATH=str(run.SRC))
REPEATS = 3


def circle(cp, n):
    return cp.build_closed_contour({"type": "circle", "radius": 1.0, "panels": 8,
                                    "nodes_per_panel": n // 8})


def two_segments(cp, n):
    per = n // 16
    return cp.build_arc_system([
        {"type": "segment", "a": [-1.0, 0.0], "b": [-0.3, 0.0], "panels": 8, "nodes_per_panel": per},
        {"type": "segment", "a": [0.2, 0.0], "b": [1.0, 0.0], "panels": 8, "nodes_per_panel": per}])


def chain(cp, n):
    x = np.linspace(-1.0, 1.0, n + 2)
    return cp.build_arc_system([{"type": "chain", "panels": 1,
                                 "nodes": np.stack([x, 0.2 * x * x], axis=1).tolist()}])


def cli(command, geometry, rhs, workdir):
    config = Path(workdir) / f"{command}.json"
    config.write_text(json.dumps({"command": command, "geometry": geometry, "rhs": rhs}))
    return lambda: subprocess.run(
        [sys.executable, "-m", "cauchypot.cli", "--config", str(config),
         "--out", str(Path(workdir) / command), "--serial"], env=ENV, check=True)


def rows(cp, workdir):
    for n in (256, 1024, 4096):
        yield "`build_closed_contour` circle", n, lambda n=n: circle(cp, n)
    for n in (512, 2048, 8192):
        yield "`build_arc_system`, 2 segments", n, lambda n=n: two_segments(cp, n)
    yield "chain arc build", 128, lambda: chain(cp, 128)
    for n in (256, 1024, 4096):
        g = cp.SampledDensity.from_function(circle(cp, n), lambda t: t ** 3)
        yield "`singular_S` closed (circle)", n, lambda g=g: cp.singular_S(g)
    for n in (512, 2048, 8192):
        g = cp.SampledDensity.from_function(two_segments(cp, n), lambda t: t ** 2)
        yield "`singular_S` arcs (2 segments)", n, lambda g=g: cp.singular_S(g)
        yield "`bounded_solution` (2 segments)", n, lambda g=g: cp.bounded_solution(g)
    g = cp.SampledDensity.from_function(circle(cp, 512), lambda t: t ** 3 + 1.0 / t)
    yield "`plemelj_residuals` (64 sampled nodes)", 512, lambda: cp.plemelj_residuals(g)
    disk = circle(cp, 512)
    yield "`recover_curve_density` disk", 512, lambda: cp.recover_curve_density(
        lambda z: max(math.log(abs(z)), 0.0), disk)
    xs = np.linspace(-2.0, 2.0, 400) + 0.0013
    X, Y = np.meshgrid(xs, xs)
    grid = cp.PotentialField(values=np.log(np.abs((X + 1j * Y) ** 2 - 1.0)),
                             x0=xs[0], y0=xs[0], h=xs[1] - xs[0])
    yield "`detect_point_masses`", "400×400", lambda: cp.detect_point_masses(grid, 0.2)
    yield "CLI `solve-closed`, subprocess", 256, cli(
        "solve-closed", {"curve": {"type": "circle", "radius": 1.0, "panels": 8,
                                   "nodes_per_panel": 32}},
        {"family": "monomial", "degree": 3}, workdir)
    yield "CLI `bounded`, subprocess", 256, cli(
        "bounded", {"arcs": [{"type": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0],
                              "panels": 8, "nodes_per_panel": 32}]},
        {"family": "chebyshev-T", "degree": 2}, workdir)
    yield "`import cauchypot`, fresh interpreter", "—", lambda: subprocess.run(
        [sys.executable, "-c", "import cauchypot"], env=ENV, check=True)


def main():
    cp = run.load_package()
    print("| path | N | median time |")
    print("|---|---|---|")
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for name, n, call in rows(cp, workdir):
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            print(f"| {name} | {n} | {1e3 * statistics.median(times):.0f} ms |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
