"""Run the benchmark at several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads cold-search cli-warm --seeds 1 2 3 4 5 \\
        --out perfbench/baseline.json

For every end-to-end metric this prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median`` next to the metric's bound from ``BENCHMARK.json``.
Each workload then gets one ``--trace 1`` run at the first seed, kept in the
report with its per-layer metrics.  Runs are sequential, one benchmark
process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in res["metrics"].items()}})
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bound}
            print(f"  {workload:16s} {name:12s} median {med:12.5g} "
                  f"spread {(q3 - q1) / med:7.4f} bound {bound}", flush=True)
        traced = run_once(workload, args.seeds[0], args.seconds, 1)
        print(workload, "traced", json.dumps(traced), flush=True)
        report[workload] = {"runs": runs, "summary": summary, "traced": traced}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "seeds": args.seeds,
                       "workloads": report}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
