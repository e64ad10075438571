#!/usr/bin/env python3
"""End-to-end benchmark of dbp_serve's socket path.

Run from the repository root:

    python3 servebench/run.py --workload tiers_bulk_binary --seed 1 \
        --seconds 10 --trace 0

Builds the repository's dbp_serve and the servebench load generator from
source into .bench_build/ (configure once, incremental build every run),
then runs one measurement. The last stdout line is the JSON result; the
build log stays in .bench_build/build.log. servebench/README.md describes
the workloads and metrics.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(BUILD, "run")
# One run measures for --seconds, plus set-up and checking; a hung run is
# stopped after this long.
RUN_TIMEOUT_S = 170


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no repository sources next to servebench/ to build dbp_serve from")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(
            ["cmake", "--build", BUILD, "--target", "dbp_serve", "servebench",
             "-j", str(os.cpu_count() or 1)]
        )
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                fail("build failed; see " + log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--inject", choices=["none", "malformed", "drop", "perturb"],
                        default="none", help="failure-accounting self-test faults")
    args = parser.parse_args()

    build()
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    command = [
        os.path.join(BUILD, "servebench"),
        "--serve=" + os.path.join(BUILD, "dbp", "tools", "dbp_serve"),
        # Relative, so socket paths stay under the AF_UNIX length limit.
        "--run-dir=" + os.path.relpath(RUN_DIR, ROOT),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%s" % args.seconds,
        "--trace=" + args.trace,
        "--inject=" + args.inject,
    ]
    sys.stdout.flush()
    # Own process group: on a timeout the benchmark and any dbp_serve it
    # started are stopped together.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
