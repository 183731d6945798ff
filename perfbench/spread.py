"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads classify certify arith]
        [--seeds 1 2 3 ...] [--trace] [--record perfbench/baseline.json]

Runs ``run.py`` once per (workload, seed), one after another, with the
``run_seconds`` of BENCHMARK.json.  Untraced, it prints per end-to-end
metric the median, the quartiles and the quartile distance as a share of
the median (``statistics.quantiles(values, n=4)``) next to the metric's
bound.  With ``--trace`` it makes traced runs and prints each one's
``trace.overhead`` and duration.

``--record`` adds the runs to a record file: an untraced set of seeds is
appended to its ``sets``, traced runs go to its ``traced``.  Once the
file holds two or more sets, the last set's medians are also compared
with the first set's, as a share of the first, next to each bound.
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
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    run_row, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "run": run_row}


def summarise(runs, bounds):
    summary = {}
    for name, bound in bounds.items():
        vals = [r["metrics"][name] for r in runs.values()]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med, "bound": bound}
        print("  %-12s median %.5g  q1 %.5g  q3 %.5g  spread %.3f "
              "(bound %.2f)" % (name, med, q1, q3, summary[name]["spread"],
                                bound))
    return summary


def compare(first, last, bounds):
    """Print how much worse each median of ``last`` is than ``first``."""
    for workload in last:
        if workload not in first:
            continue
        print("%s: last set against first" % workload)
        for name, bound in bounds.items():
            a = first[workload]["summary"][name]["median"]
            b = last[workload]["summary"][name]["median"]
            print("  %-12s %+.3f (bound %.2f)" % (name, b / a - 1, bound))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"sets": [], "traced": {}}
    if args.record and os.path.exists(args.record):
        with open(args.record, encoding="utf-8") as fh:
            record = json.load(fh)

    this_set = {}
    for workload in args.workloads:
        runs = {}
        for seed in args.seeds:
            runs[str(seed)] = run = run_once(
                workload, seed, bench["run_seconds"], args.trace)
            shown = ({"trace.overhead": run["metrics"].get("trace.overhead")}
                     if args.trace else run["metrics"])
            print("%s seed %d: correct %s, %.1f s, %s" % (
                workload, seed, run["correct"], run["run"]["run_s"],
                json.dumps(shown)), flush=True)
        if args.trace:
            record["traced"].setdefault(workload, {}).update(runs)
        else:
            this_set[workload] = {"runs": runs,
                                  "summary": summarise(runs, bounds)}
    if this_set:
        record["sets"].append(this_set)
        if len(record["sets"]) > 1:
            compare(record["sets"][0], this_set, bounds)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
