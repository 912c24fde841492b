#!/usr/bin/env python3
"""Self-test of the fleet benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Checks, at the tiny fleet size:

  1. every workload, untraced, prints exactly the end-to-end metrics of
     BENCHMARK.json with their units, and traced, exactly the per-layer
     ones, and reports correct with no failed request;
  2. the correctness gate fails a run whose expectations are wrong: with
     one expected outcome deliberately inverted (--flip-expected), the run
     reports correct=false and exits non-zero;
  3. without the program sources (a directory holding only BENCHMARK.json
     and perfbench/), the benchmark exits non-zero and prints no result.

Exits 0 when all checks pass.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  label + ": runs correct" + ("" if code == 0 else "\n" + err[-1500:]))
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == want, label + ": prints every %s metric with its unit" % key)
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  label + ": every value is a number")

    code, result, _ = run("plan", 0, "--flip-expected", "3")
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] >= 1,
          "a deliberately wrong expected outcome fails the run")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env_backup = os.environ.pop("CARGO_TARGET_DIR", None)
    try:
        code, result, _ = run("plan", 0, cwd=bare)
    finally:
        if env_backup is not None:
            os.environ["CARGO_TARGET_DIR"] = env_backup
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None,
          "without the program sources the benchmark fails and prints no result")

    print("self-test %s" % ("passed" if not failures else "FAILED (%d)" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
