#!/usr/bin/env python3
"""Build heus_e2e from this checkout and run one workload.

    python3 bench/e2e/run.py --workload conn_churn --seed 1 --seconds 15 --trace 0

The benchmark is built (RelWithDebInfo) into .bench_build/e2e at the root of
the checkout; the first run builds the heus libraries too. Build output goes
to stderr. The last line of stdout is the benchmark's JSON result: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics (the
Chrome trace lands in .bench_build/e2e/trace-<workload>.json). The exit
status is the benchmark's: non-zero when the sources are missing, the build
fails or an operation disagrees with the oracle.

--seconds does not set the amount of work: each workload replays a fixed
number of episodes, sized so its measured phase takes about 15 s on a 4-core
machine, so a run does the same work on every commit. It only caps a run on
a slow machine: the measured phase stops early once it passes 1.2 times
--seconds.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = Path(".bench_build") / "e2e"
WORKLOADS = ("conn_churn", "conn_revoke", "job_storm", "user_day", "lint_gate")


def build() -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (ROOT / BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", "bench/e2e", "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "heus_e2e"],
        cwd=ROOT, stdout=sys.stderr, check=True)
    return ROOT / BUILD / "heus_e2e"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="nominal measured time; caps the phase at 1.2x")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, for iterating on the benchmark")
    args = ap.parse_args()
    # On SIGTERM unwind, so subprocess.run kills and reaps the build or the
    # benchmark it is waiting for instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    # The benchmark builds the library from the checkout it sits in.
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"run.py: no heus sources under {ROOT}", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append(f"--trace={BUILD / f'trace-{args.workload}.json'}")
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
