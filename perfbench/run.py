#!/usr/bin/env python3
"""Benchmark of the cauchypot package: one seeded workload per run.

    python3 perfbench/run.py --workload library --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  ``--trace 0`` measures
the end-to-end metrics with nothing wrapped.  ``--trace 1`` wraps the
package's public functions in span recorders (see spans.py), alternates
plain and traced decks, and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The metric names and units come from BENCHMARK.json.
A result file with provenance goes to .perfbench_out/results/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from oracles import Check  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import GROUPS, TOLERANCES, CliMix, Library  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = {w.name: w for w in (CliMix, Library)}
IMPORT_REPEATS = 5
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def load_package():
    init = SRC / "cauchypot" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no package source at {init}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cauchypot
    import cauchypot.cli  # noqa: F401  (cli-mix calls cauchypot.cli.main in traced runs)

    if Path(cauchypot.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported cauchypot from {cauchypot.__file__}, not {init}")
    return cauchypot


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, float(np.percentile(samples, p))
    return 100, float(max(samples))


def run_deck(wl, deck, records, tracer=None, first_op=0):
    for i, op in enumerate(deck):
        rec = {"kind": op.kind, "group": op.group, "ok": False, "err": None}
        if tracer:
            tracer.op = first_op + i
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.span("bench.op"):
                    seconds, err = op.run()
            else:
                seconds, err = op.run()
            rec.update(seconds=seconds, err=err, ok=bool(err <= op.tol))
            if not rec["ok"]:
                rec["error"] = f"oracle error {err:.3g} above tolerance {op.tol:.3g}"
        except Exception as exc:  # a failed op is counted, and the run goes on
            rec.update(seconds=time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
        finally:
            if tracer:
                tracer.op = None
        if not rec["ok"]:
            print(f"failed op {op.kind}: {rec['error']}", file=sys.stderr)
        records.append(rec)


def plain_run(wl, args):
    """Deal decks until --seconds of op time have passed.

    The set-up is repeated before every ``wl.setup_every`` decks, outside
    the op time, and every repeat builds the same state from the seed; the
    ops use the first.  Spread through the run like the ops, the set-ups
    see the same drifts in the host's speed, so their median is as steady
    from run to run as the op times are.
    """
    state, setup_times = None, []
    rng = np.random.default_rng([args.seed, 1])
    records, group_times = [], {g: [] for g in GROUPS}
    wall = 0.0
    while True:
        if len(group_times["closed"]) % wl.setup_every == 0:
            t0 = time.perf_counter()
            built = wl.setup(np.random.default_rng([args.seed, 0]))
            setup_times.append(time.perf_counter() - t0)
            state = built if state is None else state
        t0 = time.perf_counter()
        deck = wl.deck(rng, state)
        first = len(records)
        run_deck(wl, deck, records)
        wall += time.perf_counter() - t0
        for g, times in group_times.items():
            times.append(sum(r["seconds"] for r in records[first:] if r["group"] == g))
        if args.smoke or (wall >= args.seconds and len(records) >= wl.min_ops):
            break
        if len(records) + len(deck) > wl.max_ops:
            break  # one more deck would change which percentile is the tail
    seconds = [r["seconds"] for r in records]
    errs = [r["err"] for r in records if r["err"] is not None and math.isfinite(r["err"])]
    p, tail_s = tail(seconds)
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliMix) else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(seconds),
        "op_tail_s": tail_s,
        "ops_per_s": len(records) / wall,
        "accuracy_digits": -math.log10(max(max(errs, default=1.0), 1e-16)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        **{f"{g}_group_s": statistics.median(times) for g, times in group_times.items()},
    }
    beyond = sum(1 for s in seconds if s > tail_s)
    notes = {"tail_percentile": p, "samples_beyond_tail": beyond,
             "setup_times_s": setup_times, "wall_s": wall,
             "decks": len(group_times["closed"]), "accuracy": tolerance_margins(records)}
    print(f"op_tail_s is p{p}: {beyond} of {len(seconds)} samples lie beyond it")
    print("smallest margin below a tolerance: "
          f"{notes['accuracy']['min_margin_digits']:.3g} digits")
    return metrics, records, notes, None


def tolerance_margins(records):
    """Worst error per op kind, and its distance below the kind's tolerance.

    accuracy_digits is set by the least accurate op kind, so a loss of
    digits in a more accurate kind shows only here: the margin is
    log10(tolerance / worst error), and the smallest over all kinds is
    reported as well.
    """
    worst = {}
    for r in records:
        if r["err"] is not None and math.isfinite(r["err"]):
            worst[r["kind"]] = max(worst.get(r["kind"], 0.0), r["err"])
    margins = {k: math.log10(TOLERANCES[k] / max(e, 1e-300))
               for k, e in worst.items() if TOLERANCES[k] > 0}
    return {"worst_err_by_kind": worst, "margin_digits_by_kind": margins,
            "min_margin_digits": min(margins.values(), default=math.inf)}


def import_seconds(env, repeats):
    """Fresh interpreter plus `import cauchypot`, median wall time."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cauchypot"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_run(wl, args, env):
    """Alternate plain and traced decks; spans come from the traced ones."""
    tracer = Tracer()
    wl.in_process = True  # cli-mix: both halves call cli.main in this process
    import_s = import_seconds(env, 1 if args.smoke else IMPORT_REPEATS)
    tracer.install()
    wl.tracer = tracer
    try:
        with tracer.span("bench.setup"):
            state = wl.setup(np.random.default_rng([args.seed, 0]))
    finally:
        tracer.uninstall()
        wl.tracer = None
    rng = np.random.default_rng([args.seed, 1])
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        run_deck(wl, wl.deck(rng, state), plain)
        deck = wl.deck(rng, state)
        tracer.install()
        wl.tracer = tracer
        try:
            run_deck(wl, deck, traced, tracer, first_op=len(traced))
        finally:
            tracer.uninstall()
            wl.tracer = None
        if args.smoke or time.perf_counter() - t0 >= args.seconds:
            break
    metrics = layer_metrics(tracer, len(traced))
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = (
        statistics.median(r["seconds"] for r in traced)
        / statistics.median(r["seconds"] for r in plain) - 1.0)
    notes = {"plain_ops": len(plain), "traced_ops": len(traced),
             "wall_s": time.perf_counter() - t0}
    return metrics, plain + traced, notes, tracer.spans


def provenance(args, records, notes):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "runs": {"ops": len(records), **{k: v for k, v in notes.items()
                                         if k not in ("setup_times_s", "accuracy")}},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and one deck per phase (smoke test)")
    parser.add_argument("--perturb", type=float, default=0.0,
                        help="scale every answer by 1 + PERTURB before checking it")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cp = load_package()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wl = WORKLOADS[args.workload](cp, Check(args.perturb), workdir, env)
    try:
        if args.trace:
            metrics, records, notes, spans = traced_run(wl, args, env)
        else:
            metrics, records, notes, spans = plain_run(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    failed = sum(1 for r in records if not r["ok"])
    prov = provenance(args, records, notes)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"provenance": prov, "metrics": out, "notes": notes, "failed": failed,
         "failed_frac": failed / len(records), "ops": records}, indent=1))
    if spans is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(
            [dict(zip(("name", "start", "end", "parent", "op", "work"), s)) for s in spans]))
    for name, m in out.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed}/{len(records)}")
    print("provenance " + json.dumps(prov))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
