#!/usr/bin/env python3
"""Check that the command-line tool gives byte-identical results at two revisions.

    python3 tools/cli_parity.py REV

Run from anywhere inside a git checkout.  REV (a commit, tag or branch) is
exported with ``git archive`` into a temporary directory.  A fixed set of
configs then runs twice, each in a fresh interpreter: once on REV's
``src/`` and once on the working tree's ``src/``.  The set covers all eight
commands; circle, ellipse, rounded-polygon and node-chain curves; segment,
two-segment, sixteen-segment, circular, segment+circular and segment+chain
arc systems (curve recovery included on several arcs, where the ladder
shrinks toward each arc's endpoints; moments and the recovered mass on
every arc kind, so each kind's quadrature weights are covered; one chain is
C-shaped, a 3/4 circle that rays from inside it cross again); csv and binary potential grids; runs
that exit 65, one of them on an ellipse rhs that is not resolved; a
node-chain figure eight that crosses itself once and exits 64; and four
schema errors, 35 configs in all.
For every config the script compares each output file, stdout, stderr and
the exit code, prints one line, and exits 1 if anything differs.  For each
CSV or JSON file that differs it also prints the largest absolute difference
over its numbers and that over the largest magnitude among REV's, as
``library_parity.py`` does.  For the
two point-masses configs it also prints, per tree, the largest position and
mass error of the atoms found against those the grids were made from.  It needs
the standard library and numpy only.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

SEGMENT = {"type": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0], "panels": 8, "nodes_per_panel": 32}
LEFT = {"type": "segment", "a": [-1.0, 0.0], "b": [-0.3, 0.0], "panels": 4, "nodes_per_panel": 16}
RIGHT = {"type": "segment", "a": [0.2, 0.0], "b": [1.0, 0.1], "panels": 4, "nodes_per_panel": 20}
CIRCLE = {"type": "circle", "radius": 1.3, "center": [0.1, -0.2], "panels": 8, "nodes_per_panel": 32}
ELLIPSE = {"type": "ellipse", "semi_axes": [2.0, 1.0], "panels": 8, "nodes_per_panel": 64}
POLYGON = {"type": "rounded-polygon", "vertices": [[0, 0], [2, 0], [2.5, 1], [0, 1.5]],
           "corner_radius": 0.2, "panels": 8, "nodes_per_panel": 64}
_th = 2 * np.pi * np.arange(96) / 96
STAR = {"type": "node-chain", "panels": 4, "nodes": np.stack(
    [(1 + 0.2 * np.cos(3 * _th)) * np.cos(_th), (1 + 0.2 * np.cos(3 * _th)) * np.sin(_th)],
    axis=1).tolist()}
# a figure eight whose upper lobe is the wider, so that it is positively
# oriented; it crosses itself once, between nodes, at segments 31 and 63
_et = 2 * np.pi * (np.arange(64) + 0.5) / 64
EIGHT = {"type": "node-chain", "panels": 4, "nodes": np.stack(
    [np.sin(2 * _et) * (1 + 0.5 * np.sin(_et)), np.sin(_et)], axis=1).tolist()}
_x = np.linspace(2.0, 3.0, 40)
CHAIN = {"type": "chain", "panels": 1, "nodes": np.stack([_x, 0.2 * _x * _x - 2.0], axis=1).tolist()}
_ct = np.linspace(0.25 * np.pi, 1.75 * np.pi, 60)
C_CHAIN = {"type": "chain", "panels": 1,
           "nodes": np.stack([3.0 + np.cos(_ct), np.sin(_ct)], axis=1).tolist()}
CIRCULAR = [{"type": "circular", "radius": 1.0, "theta_a": a, "theta_b": b, "panels": 8,
             "nodes_per_panel": 16} for a, b in ((0.3, 1.4), (2.2, 4.0))]
# sixteen equal segments, evenly spaced on [-4, 4], 32 nodes each
SIXTEEN = [{"type": "segment", "a": [-4.0 + 2 * j * 8 / 31, 0.0],
            "b": [-4.0 + (2 * j + 1) * 8 / 31, 0.0], "panels": 4, "nodes_per_panel": 8}
           for j in range(16)]


# the atoms of the point-masses grids: (position, mass)
ATOMS = [(-0.41 + 0.13j, 1.0), (0.52 - 0.27j, 0.8)]


def mono(n):
    return {"family": "monomial", "degree": n}


def cheb(n):
    return {"family": "chebyshev-T", "degree": n}


def write_inputs(work):
    """Grids and a density table that both trees read; returns their specs."""
    specs = {}
    h = 0.05
    xs = -1.0 + h * np.arange(41)
    X, Y = np.meshgrid(xs, xs)
    Z = X + 1j * Y
    grids = {"area": 0.7 * (X ** 2 + Y ** 2) + 0.3 * X * Y,
             "atoms": sum(m * np.log(np.abs(Z - a)) for a, m in ATOMS)}
    for name, U in grids.items():
        table = np.column_stack([X.ravel(), Y.ravel(), U.ravel()])
        np.savetxt(work / f"{name}.csv", table, fmt="%.17g", delimiter=",", header="x,y,u",
                   comments="")
        specs[f"{name}-csv"] = {"family": "csv", "path": str(work / f"{name}.csv")}
        U.astype("<f8").tofile(work / f"{name}.f64")
        (work / f"{name}.json").write_text(json.dumps(
            {"nx": xs.size, "ny": xs.size, "x0": xs[0], "y0": xs[0], "h": h}))
        specs[f"{name}-binary"] = {"family": "binary", "data": str(work / f"{name}.f64"),
                                   "header": str(work / f"{name}.json")}
    for n, name in ((256, "rhs"), (512, "rhs-512")):
        rows = "".join(f"{i},{np.cos(0.1 * i):.17g},{np.sin(0.3 * i):.17g}\n" for i in range(n))
        (work / f"{name}.csv").write_text("index,re_f,im_f\n" + rows)
        specs[f"{name}-csv"] = {"family": "csv", "path": str(work / f"{name}.csv")}
    return specs


def configs(inputs):
    """(name, config text) pairs; the text is written as is."""
    out = {
        "solve-closed-circle": {"command": "solve-closed", "geometry": {"curve": CIRCLE}, "rhs": mono(3)},
        "solve-closed-ellipse": {"command": "solve-closed", "geometry": {"curve": ELLIPSE},
                                 "rhs": cheb(4)},
        "solve-closed-polygon": {"command": "solve-closed", "geometry": {"curve": POLYGON},
                                 "rhs": mono(2), "tolerances": {"residual": 1e-2}},
        "solve-closed-node-chain": {"command": "solve-closed", "geometry": {"curve": STAR},
                                    "rhs": mono(1), "tolerances": {"residual": 1e-3}},
        "solve-closed-csv-rhs": {"command": "solve-closed", "geometry": {"curve": CIRCLE},
                                 "rhs": inputs["rhs-csv"]},
        # cos(0.1 k) + i sin(0.3 k) at node k jumps where the node order wraps: the
        # rhs is not resolved, so S sums every row, and the residual 7e-4 exits 65
        "solve-closed-under-resolved": {"command": "solve-closed",
                                        "geometry": {"curve": ELLIPSE},
                                        "rhs": inputs["rhs-512-csv"]},
        "solve-closed-exit-65": {"command": "solve-closed", "geometry": {"curve": CIRCLE},
                                 "rhs": mono(40), "tolerances": {"residual": 1e-15}},
        # exit 64, stderr naming the one pair of crossing segments
        "solve-closed-figure-eight": {"command": "solve-closed", "geometry": {"curve": EIGHT},
                                      "rhs": mono(1)},
        "solve-arcs-segment": {"command": "solve-arcs", "geometry": {"arcs": [SEGMENT]},
                               "rhs": cheb(3), "defect_poly": [[0.5, -0.25]],
                               "tolerances": {"residual": 1e-4}},
        # sin(0.3 k) at node k has a non-integer frequency in the cosine angle, so
        # the rhs is not smooth at the segment's ends and the residual stays above 1e-4
        "solve-arcs-exit-65": {"command": "solve-arcs", "geometry": {"arcs": [SEGMENT]},
                               "rhs": inputs["rhs-csv"], "defect_poly": [[0.0, 0.0]],
                               "tolerances": {"residual": 1e-6}},
        "bounded-segment": {"command": "bounded", "geometry": {"arcs": [SEGMENT]}, "rhs": cheb(2)},
        "bounded-two-segments": {"command": "bounded", "geometry": {"arcs": [LEFT, RIGHT]},
                                 "rhs": mono(3)},
        "bounded-circular": {"command": "bounded", "geometry": {"arcs": CIRCULAR}, "rhs": mono(2)},
        "bounded-csv-rhs": {"command": "bounded", "geometry": {"arcs": [SEGMENT]},
                            "rhs": inputs["rhs-csv"]},
        # the moments of 1 cancel to 1e-2 of their absolute sums: no bounded solution
        "bounded-sixteen-segments": {"command": "bounded", "geometry": {"arcs": SIXTEEN},
                                     "rhs": mono(0)},
        "moments-two-segments": {"command": "moments", "geometry": {"arcs": [LEFT, RIGHT]},
                                 "rhs": mono(4)},
        "moments-segment-chain": {"command": "moments", "geometry": {"arcs": [SEGMENT, CHAIN]},
                                  "rhs": mono(2)},
        "moments-segment-c-chain": {"command": "moments",
                                    "geometry": {"arcs": [SEGMENT, C_CHAIN]}, "rhs": mono(2)},
        "moments-circular": {"command": "moments", "geometry": {"arcs": CIRCULAR},
                             "rhs": mono(2)},
        "recover-curve-disk": {"command": "recover-curve", "geometry": {"curve": CIRCLE},
                               "potential": {"family": "disk-wall", "radius": 1.3,
                                             "center": [0.1, -0.2]}},
        "recover-curve-segment": {"command": "recover-curve", "geometry": {"arcs": [SEGMENT]},
                                  "potential": {"family": "segment-green"}},
        "recover-curve-flagged": {"command": "recover-curve", "geometry": {"curve": ELLIPSE},
                                  "potential": {"family": "point-charges",
                                                "charges": [[0.3, 0.1, 1.0], [3.0, 0.0, 0.5]]},
                                  "tolerances": {"flag": 1e-12}},
        "recover-curve-segment-arc": {"command": "recover-curve",
                                      "geometry": {"arcs": [SEGMENT, CIRCULAR[0]]},
                                      "potential": {"family": "point-charges", "charges": [
                                          [0.0, -0.5, 1.0], [0.3, 0.5, -0.7], [2.0, 1.5, 0.4]]}},
        # the chain's trapezoid weights enter the recovered mass
        "recover-curve-segment-chain": {"command": "recover-curve",
                                        "geometry": {"arcs": [SEGMENT, CHAIN]},
                                        "potential": {"family": "point-charges", "charges": [
                                            [0.0, -0.5, 1.0], [2.5, 1.0, -0.7]]}},
        "recover-curve-two-segments-flagged": {"command": "recover-curve",
                                               "geometry": {"arcs": [LEFT, RIGHT]},
                                               "potential": {"family": "segment-green"},
                                               "tolerances": {"flag": 1e-9}},
        "equilibrium-disk": {"command": "equilibrium",
                             "shape": {"type": "disk", "radius": 2.0, "center": [0.5, 0.0]}},
        "equilibrium-segment": {"command": "equilibrium",
                                "shape": {"type": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0]}},
        "error-degree": {"command": "moments", "geometry": {"arcs": [SEGMENT]},
                         "rhs": {"family": "monomial", "degree": "two"}},
        "error-endpoint": {"command": "moments", "geometry": {"arcs": [dict(SEGMENT, a=[-1.0])]},
                           "rhs": mono(0)},
        "error-host-family": {"command": "solve-closed", "geometry": {"arcs": [SEGMENT]},
                              "rhs": mono(1)},
    }
    for form in ("csv", "binary"):
        out[f"recover-area-{form}"] = {"command": "recover-area", "potential": inputs[f"area-{form}"]}
        out[f"point-masses-{form}"] = {"command": "point-masses", "potential": inputs[f"atoms-{form}"],
                                       "cluster_radius": 0.3}
    texts = {name: json.dumps(config, indent=1) for name, config in out.items()}
    # a key that an earlier section also names: the error must point at line 6
    texts["error-shared-key"] = (
        '{\n  "command": "recover-curve",\n'
        '  "geometry": {"curve": {"type": "circle", "radius": 1.0,\n'
        '                         "panels": 8, "nodes_per_panel": 32}},\n'
        '  "potential": {"family": "disk-wall",\n                "radius": "r"}\n}\n')
    return texts


def run(src, config, out):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "cauchypot.cli", "--config", str(config),
                           "--out", str(out), "--serial"],
                          env=env, capture_output=True, timeout=600)
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.exists() else {}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, **files}


def atom_errors(table):
    """The largest position and mass errors of the bytes of a masses.csv
    against ``ATOMS``, each found atom taken against the nearest true one."""
    rows = np.loadtxt(io.BytesIO(table), delimiter=",", skiprows=1, ndmin=2)
    errors = [min((abs(complex(re, im) - a), abs(m - mass)) for a, mass in ATOMS)
              for _, re, im, m in rows]
    return tuple(max(e) for e in zip(*errors)) if errors else (np.nan, np.nan)


def numbers(name, data):
    """The numbers of a JSON file, or of a CSV file's rows under its header, in order."""
    if name.endswith(".json"):
        def walk(v):
            if isinstance(v, (dict, list)):
                for item in v.values() if isinstance(v, dict) else v:
                    yield from walk(item)
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                yield float(v)
        return np.array(list(walk(json.loads(data))))
    return np.array([float(c) for row in list(csv.reader(io.StringIO(data.decode())))[1:]
                     for c in row])


def difference(name, new, old):
    """How the numbers of one output file differ, in words."""
    a, b = numbers(name, new), numbers(name, old)
    if a.shape != b.shape:
        return f"{a.size} numbers against {b.size}"
    gap = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
    top = float(np.max(gap, initial=0.0))
    scale = float(np.max(np.abs(b), initial=0.0))
    return f"largest difference {top:.3g} ({top / scale if scale else math.inf:.3g} of max)"


def imported_from(src):
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", "import cauchypot; print(cauchypot.__file__)"],
                          env=env, capture_output=True, text=True, check=True).stdout.strip()


def source_trees(rev, tmp):
    """The ``src/`` trees to compare, by name: REV's, exported with ``git
    archive`` into the directory ``tmp``, and the working tree's.  None,
    after a message, if either does not provide the ``cauchypot`` it is
    run with."""
    root = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                               text=True, check=True).stdout.strip())
    archive = subprocess.run(["git", "-C", str(root), "archive", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp / "rev", filter="data")
    trees = {"rev": tmp / "rev" / "src", "work": root / "src"}
    for name, src in trees.items():
        if not imported_from(src).startswith(str(src)):
            print(f"{name}: cauchypot is not imported from {src}", file=sys.stderr)
            return None
    return trees


def main():
    parser = argparse.ArgumentParser(description="CLI outputs at REV against the working tree.")
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~")
    rev = parser.parse_args().rev
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = source_trees(rev, tmp)
        if trees is None:
            return 2
        inputs = tmp / "inputs"
        inputs.mkdir()
        differing = 0
        texts = configs(write_inputs(inputs))
        for name, text in texts.items():
            path = inputs / f"{name}.json"
            path.write_text(text)
            got = {tree: run(src, path, tmp / tree / name) for tree, src in trees.items()}
            keys = sorted(set(got["rev"]) | set(got["work"]))
            diff = [k for k in keys if got["rev"].get(k) != got["work"].get(k)]
            differing += bool(diff)
            status = f"DIFFERS in {', '.join(diff)}" if diff else "identical"
            print(f"{name}: exit {got['work']['exit code']}, {len(keys) - 3} files, {status}",
                  flush=True)
            for k in diff:
                if k.endswith((".csv", ".json")) and k in got["rev"] and k in got["work"]:
                    print(f"  {k}: {difference(k, got['work'][k], got['rev'][k])}")
            for tree, files in got.items():
                if "masses.csv" in files:
                    position, mass = atom_errors(files["masses.csv"])
                    print(f"  {tree}: largest position error {position:.3g}, "
                          f"largest mass error {mass:.3g}")
    print(f"{differing} of {len(texts)} configs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
