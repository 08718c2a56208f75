#!/usr/bin/env python3
"""Benchmark a revision against the working tree in alternating pairs.

    python3 tools/bench_pair.py REV [--workload library] [--pairs 10]
                                    [--seconds 20] [--first-seed 1]

Run from anywhere inside a git checkout.  REV is exported with ``git
archive`` as ``cli_parity.py`` does.  Each pair runs the benchmark's
command from ``BENCHMARK.json`` (``perfbench/run.py``) once in each tree,
each tree's own copy and unchanged, with one seed for both; the seeds are FIRST-SEED, FIRST-SEED + 1, ..., and the tree that goes
first alternates from pair to pair.  The script writes
``BENCH_<rev>_<change>.json`` at the root of the checkout, where <change>
is the short HEAD commit if ``src/`` and ``perfbench/`` are as committed,
and ``worktree-`` and the first 8 hex digits of the ``src/`` digest if not.

The header holds the machine (nproc, Python, numpy, the BLAS thread
variables), both commits and the sha256 digest of each tree's ``src/``.
Under ``workloads`` each workload run gets the seconds per run, the seeds,
and each end-to-end metric of ``BENCHMARK.json`` with each tree's median
and quartiles over the pairs, the change of the medians, the number of
pairs the working tree won and the values of every pair; and each op kind
with each tree's median time and worst oracle error over all runs, taken
from the result files.  A run of another workload on the same two trees
joins the file's ``workloads``.  Before it writes, the script checks that
every end-to-end metric has a finite median on both trees; if one lacks it,
the script names it and exits 1 without writing.  It needs the standard
library and numpy only.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from cli_parity import source_trees

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def src_digest(src):
    """sha256 over the relative paths and bytes of the ``.py`` files under ``src``."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(root, command, workload, seed, seconds):
    """One run of the benchmark ``command`` in the tree ``root``: (metrics, op records)."""
    proc = subprocess.Popen(command + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(seconds)],
                            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate()
    if proc.returncode:
        sys.exit(f"{root}: perfbench/run.py exited {proc.returncode}\n{err}")
    metrics = {k: v["value"] for k, v in json.loads(out.splitlines()[-1])["metrics"].items()}
    result, = (root / ".perfbench_out" / "results").glob(
        f"{workload}-seed{seed}-trace0-*-{proc.pid}.json")
    return metrics, json.loads(result.read_text())["ops"]


def spread(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "quartiles": [float(q1), float(q3)]}


def summary(spec, runs, seeds):
    """The header's metrics and op kinds from the runs of both trees."""
    metrics = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        values = {tree: np.array([r[0].get(name) for r in runs[tree]], dtype=float).tolist()
                  for tree in runs}  # a metric a run lacks is NaN
        parent, change = spread(values["parent"]), spread(values["change"])
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "parent": parent, "change": change,
            "median_change": (change["median"] / parent["median"] - 1.0
                              if parent["median"] else None),
            "change_wins": f"{wins} of {len(seeds)}",
            "pairs": [{"seed": s, "parent": p, "change": c}
                      for s, p, c in zip(seeds, values["parent"], values["change"])]}
    ops = {}
    for tree, results in runs.items():
        records = [op for _, run_ops in results for op in run_ops]
        for kind in sorted({op["kind"] for op in records}):
            mine = [op for op in records if op["kind"] == kind]
            errs = [op["err"] for op in mine if op["err"] is not None]
            ops.setdefault(kind, {})[tree] = {
                "runs_ops": len(mine),
                "failed": sum(not op["ok"] for op in mine),
                "median_s": float(np.median([op["seconds"] for op in mine])),
                "worst_err": max(errs) if errs else None}
    return metrics, ops


def main():
    parser = argparse.ArgumentParser(description="REV against the working tree, in pairs.")
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~")
    parser.add_argument("--workload", default="library")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    head = git(root, "rev-parse", "HEAD")
    clean = not git(root, "status", "--porcelain", "--", "src", "perfbench")
    with tempfile.TemporaryDirectory() as tmp:
        trees = source_trees(args.rev, Path(tmp))
        if trees is None:
            return 2
        roots = {"parent": trees["rev"].parent, "change": root}
        digests = {tree: src_digest(r / "src") for tree, r in roots.items()}
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for tree in order:
                runs[tree].append(run(roots[tree], spec["command"], args.workload, seed,
                                      args.seconds))
            print(f"pair {i + 1} of {len(seeds)} (seed {seed}): closed_group_s "
                  + " / ".join(f"{runs[t][-1][0].get('closed_group_s', math.nan):.4g}"
                               for t in runs),
                  flush=True)
    metrics, ops = summary(spec, runs, seeds)
    lacking = [name for name, m in metrics.items()
               if not all(math.isfinite(m[tree]["median"]) for tree in ("parent", "change"))]
    if lacking:
        sys.exit(f"no finite median on both trees, no BENCH file written: {', '.join(lacking)}")
    rev = git(root, "rev-parse", args.rev + "^{commit}")
    change = head[:7] if clean else "worktree-" + digests["change"][:8]
    bench = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "machine": platform.machine(),
                    "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
                    "thread_vars_in_runs": "perfbench/run.py sets each to 1"},
        "parent": {"rev": args.rev, "commit": rev, "src_sha256": digests["parent"]},
        "change": {"head": head, "src_and_perfbench_as_committed": clean,
                   "src_sha256": digests["change"]},
        "workloads": {},
    }
    out = root / f"BENCH_{rev[:7]}_{change}.json"
    if out.exists():
        kept = json.loads(out.read_text())
        if (kept["parent"], kept["change"]) == (bench["parent"], bench["change"]):
            bench["workloads"] = kept["workloads"]
    bench["workloads"][args.workload] = {
        "command": spec["command"], "seconds": args.seconds, "seeds": seeds,
        "order": "parent first in odd-numbered pairs, change first in even-numbered",
        "metrics": metrics, "ops": ops}
    out.write_text(json.dumps(bench, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
              f"({m['change_wins']} won by the change)")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
