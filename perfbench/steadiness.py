#!/usr/bin/env python3
"""Steadiness check for the fleet benchmark.

    python3 perfbench/steadiness.py --workloads plan,mixed \\
        --seeds 10 --sets 2 --gap 300 [--first-seed 100] [--json out.json]

For each set, runs every workload once per seed through perfbench/run.py
(untraced) and reports, per end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median. With --sets 2 the sets are
separated by --gap seconds, and the gap between their medians is reported
as a share of the first set's median. A metric is steady when its spread
stays under a third of its bound in BENCHMARK.json and the second set's
median is not worse than the first's by more than the bound. The table is printed as Markdown;
--from-json summarizes a saved record without running. Exits 1 when any
run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    diag = next((json.loads(l)["diag"] for l in lines if l.startswith('{"diag"')), {})
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("incorrect result: %s seed %d" % (workload, seed))
    return result["metrics"], diag


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--gap", type=float, default=0.0, help="seconds between sets")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", help="write the raw record here")
    parser.add_argument("--from-json", help="summarize a record written by --json instead of running")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    record = {"seconds": args.seconds, "sets": []}
    if args.from_json:
        with open(args.from_json) as f:
            record = json.load(f)
        workloads = list(record["sets"][0]["workloads"])
    for set_index in range(0 if args.from_json else args.sets):
        if set_index:
            time.sleep(args.gap)
        started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        per_workload = {}
        for workload in workloads:
            values, steal, dropped = {}, [], []
            for k in range(args.seeds):
                seed = args.first_seed + set_index * 1000 + k
                metrics, diag = run_once(workload, seed, args.seconds)
                steal.append(diag.get("host_steal_share", 0.0))
                dropped.append(sum(w["dropped"] for w in diag.get("windows", {}).values()))
                for name, m in metrics.items():
                    values.setdefault(name, []).append(m["value"])
            per_workload[workload] = {
                "metrics": {n: summarize(v) for n, v in values.items()},
                "host_steal_share": summarize(steal) if any(steal) else None,
                "dropped_windows": dropped,
            }
        record["sets"].append({"started": started, "workloads": per_workload})

    ok = True
    print("| workload | metric | set | median | q1 | q3 | spread | bound | gap |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        for name in sorted(bounds):
            first = None
            for s, entry in enumerate(record["sets"]):
                stats = entry["workloads"][workload]["metrics"].get(name)
                if stats is None:
                    continue
                gap = ""
                if first is None:
                    first = stats
                else:
                    g = (stats["median"] - first["median"]) / first["median"]
                    gap = "%+.3f" % g
                    worse = g if lower_is_better[name] else -g
                    if worse > bounds[name]:
                        ok = False
                if name != "setup_s" and stats["spread"] > bounds[name] / 3:
                    ok = False
                print("| %s | %s | %d | %.6g | %.6g | %.6g | %.3f | %.2f | %s |" % (
                    workload, name, s, stats["median"], stats["q1"], stats["q3"],
                    stats["spread"], bounds[name], gap))
        for s, entry in enumerate(record["sets"]):
            steal = entry["workloads"][workload].get("host_steal_share")
            if steal:
                print("| %s | host steal share (diag) | %d | %.4f | %.4f | %.4f | | | |" % (
                    workload, s, steal["median"], steal["q1"], steal["q3"]))
            dropped = entry["workloads"][workload].get("dropped_windows")
            if dropped:
                print("| %s | windows dropped per run (diag) | %d | %s | | | | | |" % (
                    workload, s, " ".join(str(d) for d in dropped)))
    if args.json and not args.from_json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    print("steady" if ok else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
