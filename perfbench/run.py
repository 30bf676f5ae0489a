#!/usr/bin/env python3
"""Build and run the mobitherm end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload cold_submit|warm_zipf|paper_sweep \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the library in src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
driver. Build output goes to stderr; the driver's last stdout line is the
JSON result. With --trace 1 the spans are written to
<build dir>/traces/<workload>-seed<N>.tsv.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("cold_submit", "warm_zipf", "paper_sweep")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no library sources at src/; run from a full "
              "checkout", file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench_driver",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, cwd=root, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    command = [os.path.join(build, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.tsv")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
