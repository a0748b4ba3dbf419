#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The binary is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build). Working files go to
perfbench-work/ inside it: the fleet's master journal, removed when the
run ends, and the traced run's spans (spans/<workload>-<seed>.json,
Chrome trace-event JSON), kept. Build output goes to standard error; the
last line of standard output is the benchmark's JSON result. Extra flags
(--timer heap, --dispatch-batch 0) pass through to the binary.
"""

import os
import subprocess
import sys

# One run must end within 180 s; the binary bounds its own reps well
# inside this, so hitting it means something hung.
RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--work-dir", work_dir],
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
