#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload serve_zipf --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in its own process. The last line of standard output
of a single-workload run is its JSON result; build output goes to
standard error. The exit code is non-zero when the build fails, a check
fails, or the run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["study_paper", "serve_zipf", "live_churn"]
# A run measures for --seconds, then checks its outputs; this caps the
# whole process.
RUN_TIMEOUT_S = 170
# Workloads whose process is pinned to one CPU. serve_zipf hands every
# cache miss from a client thread to a worker thread and back; on a
# virtualized host a wake-up on an idle vCPU waits for the hypervisor to
# resume it, which made its p99 vary twofold between identical runs.
PINNED = {"serve_zipf"}
BUILD_TIMEOUT_S = 850


def build():
    """Builds the benchmark binary; returns its path."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: build timed out")
    if done.returncode != 0:
        sys.exit(f"e2ebench: build failed ({done.returncode})")
    return os.path.abspath(os.path.join(target, "release", "shift-e2ebench"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        pin = None
        if workload in PINNED:
            cpu = max(os.sched_getaffinity(0))
            pin = lambda: os.sched_setaffinity(0, {cpu})
        sys.stdout.flush()
        try:
            done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, preexec_fn=pin)
        except subprocess.TimeoutExpired:
            print(f"e2ebench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            status = 1
            continue
        if done.returncode != 0:
            print(f"e2ebench: {workload} exited with {done.returncode}", file=sys.stderr)
            status = done.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
