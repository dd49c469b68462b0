#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

    python3 benchmark/run.py --workload matrix-cold --seed 0 --seconds 35 --trace 0

Run from the repository root. The first run builds the `ledger` binary
with cargo (into $CARGO_TARGET_DIR, or benchmark/target); every run then
executes the workload in a fresh scratch directory under .bench_work/,
removes it afterwards, and prints the binary's result line as the last
line of standard output. With --trace 1 the span trees are also written
to .bench_out/<workload>-seed<seed>.trace.jsonl. Exits non-zero if the
build fails, the run fails or times out, or any output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("matrix-cold", "stream-replay", "serve-mixed")
# A built run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    """Builds the release binary and returns its path, or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    exe = os.path.join(target, "release", "ledger")
    return exe if done.returncode == 0 and os.path.isfile(exe) else None


def run(exe, args, work):
    """Runs the workload; returns (exit code, stdout), or None on timeout."""
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
    ]
    if args.trace:
        out = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}.trace.jsonl")
        cmd += ["--trace-out", out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 150:
        parser.error("--seed must be >= 0 and --seconds in (0, 150]")

    exe = build()
    if exe is None:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ran = run(exe, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    if ran is None:
        print(f"run.py: the workload did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    code, stdout = ran
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"run.py: the workload exited {code} without a result line", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if code == 0 and result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
