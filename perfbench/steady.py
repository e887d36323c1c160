#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed (seeds 1..--runs), and reports, for
every end-to-end metric, the median, the quartiles and the spread (the
distance between the first and third quartile as a share of the
median), next to the metric's bound in BENCHMARK.json. A spread above a
third of its bound is flagged. Run it from the repository root:

    python3 perfbench/steady.py --runs 10 --out perfbench/steadiness.json

The runs are sequential; each takes about run_seconds plus set-up.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args()

    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    summary = {"runs": args.runs, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        results = [run_once(wl, args.first_seed + i, args.seconds, args.trace)
                   for i in range(args.runs)]
        if not all(r["correct"] and r["failed"] == 0 for r in results):
            print(f"{wl}: a run reported failures", file=sys.stderr)
            ok = False
        rows = {}
        print(f"{wl} ({args.runs} runs, attempted {[r['attempted'] for r in results]})")
        for d in defs:
            s = summarize([r["metrics"][d["name"]]["value"] for r in results])
            rows[d["name"]] = s
            bound = d.get("bound")
            flag = ""
            if bound is not None and d["name"] != "setup_s" and s["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
                ok = False
            bound_text = f"bound {bound:.3f}" if bound is not None else ""
            print(f"  {d['name']:34s} median {s['median']:14.6g}  q1 {s['q1']:14.6g}  "
                  f"q3 {s['q3']:14.6g}  spread {s['spread']:.4f}  {bound_text}{flag}")
        summary["workloads"][wl] = rows
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
