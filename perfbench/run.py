#!/usr/bin/env python3
"""Builds the netclust benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds
perfbench (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs only re-check the
build. Build output goes to stderr, so the last line of stdout is the
workload's JSON result. --selftest feeds every workload's checker a
deliberate wrong answer and exits 0 only if each run is reported incorrect.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170

# (workload, fault, trace) of the self-test; see README.md. The fleet's
# check runs in serve_lookup's traced run only.
FAULTS = [
    ("offline_cluster", "swap-prefix", "0"),
    ("offline_cluster", "drop-request", "0"),
    ("serve_lookup", "swap-prefix", "0"),
    ("serve_lookup", "fleet-swap-prefix", "1"),
    ("serve_churn", "swap-prefix", "0"),
    ("serve_churn", "unrestored-flap", "0"),
    ("serve_churn", "wrong-source", "0"),
]


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run(binary, args, capture=False):
    """Runs the binary to its end (killing it past the time limit)."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def selftest(binary):
    caught = 0
    for workload, fault, trace in FAULTS:
        code, out = run(binary, ["--workload", workload, "--seed", "1",
                                 "--seconds", "2", "--trace", trace,
                                 "--inject", fault], capture=True)
        lines = out.decode().strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = result.get("correct") is False and code != 0
        caught += ok
        print("%-16s %-18s %s" % (workload, fault,
                                  "reported incorrect" if ok else "MISSED"))
    print("self-test: %d of %d wrong answers caught" % (caught, len(FAULTS)))
    return 0 if caught == len(FAULTS) else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--inject")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.selftest:
        return selftest(binary)
    if not args.workload:
        parser.error("--workload is required")
    forwarded = ["--workload", args.workload, "--seed", args.seed,
                 "--seconds", args.seconds, "--trace", args.trace]
    if args.inject:
        forwarded += ["--inject", args.inject]
    code, _ = run(binary, forwarded)
    return code


if __name__ == "__main__":
    sys.exit(main())
