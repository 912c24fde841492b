#!/usr/bin/env python3
"""Build and run the fleet benchmark.

    python3 perfbench/run.py --workload plan|mixed \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_fleet (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset, then runs it with the same arguments and relays its output. The
last line of stdout is perfbench_fleet's JSON result. Build output goes to
stderr. Extra flags (--scale tiny, --flip-expected K) pass through to
perfbench_fleet; see fleet_bench.cc.

Exit codes: perfbench_fleet's own (0 correct, 1 a correctness failure, 2 a
usage or set-up error), 3 when the build fails, 4 when the run overruns
its time limit.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    """Configures once, then builds incrementally. Returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_fleet",
                  "--parallel", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "perfbench_fleet")


def git_sha():
    """The commit being measured, when the checkout is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1][:12]


def src_digest():
    """Content hash of the program sources: identifies the code measured
    even where there is no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan", "mixed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no program sources next to perfbench/", file=sys.stderr)
        return 3
    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", trace_dir, "--git-sha", git_sha(),
           "--src-digest", src_digest()] + extra
    # Own process group, so an overrun can stop perfbench_fleet and the server
    # process it started together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run overran %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
