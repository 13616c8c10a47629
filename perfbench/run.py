#!/usr/bin/env python3
"""Served-query benchmark for iqlkit.

Builds `iqlserve` and the benchmark client from the repository sources
(Release, into .bench_build/ at the repository root), then runs one
measurement:

    python3 perfbench/run.py --workload small_tc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The last line of standard output is the JSON result. See
perfbench/README.md for the workloads, metrics and run shape.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "runs")


def build():
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                   "tools/iqlserve.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("perfbench: %s is missing; run from a full iqlkit "
                     "checkout" % needed)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j4", "--target", "iqlserve",
              "perfbench_client"]]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the answer oracle rejects "
                             "corrupted served answers, then exit")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build()
    os.makedirs(WORKDIR, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench_client"),
               "--server=" + os.path.join(BUILD, "iqlkit_tools", "iqlserve"),
               "--workdir=" + WORKDIR]
    if args.selftest:
        command.append("--selftest")
    else:
        command += ["--workload=" + args.workload, "--seed=%d" % args.seed,
                    "--seconds=%s" % args.seconds, "--trace=%d" % args.trace]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
