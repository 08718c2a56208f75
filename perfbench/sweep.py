#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 1]

Runs run.py once per workload of BENCHMARK.json and seed, one after
another, from the root of the checkout.  For every metric it prints the
median, the quartiles and the spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json, and writes all of it to
.perfbench_out/sweep-trace<0|1>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in metrics}
        failed = attempted = 0
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        rows = {}
        print(f"{workload}: {failed} of {attempted} ops failed over seeds {args.seeds}")
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "values": v}
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:g}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {m['name']:40s} {med:12.6g} {m['unit']:7s} spread {spread:7.4f}  {verdict}")
        report["workloads"][workload] = {"failed": failed, "attempted": attempted,
                                         "metrics": rows}
    out = ROOT / ".perfbench_out" / f"sweep-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
