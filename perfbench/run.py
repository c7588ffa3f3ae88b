#!/usr/bin/env python3
"""Build and run the mobidx serving benchmark.

    python3 perfbench/run.py --workload <track-mixed|query-scan|ingest-durable> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the benchmark package in
perfbench/ (release profile, offline) into $CARGO_TARGET_DIR, default
.bench_build, then runs one workload. Build output goes to standard
error; the last line of standard output is the JSON result. The exit code
is the benchmark's: 0 when every operation succeeded and every check
passed, non-zero otherwise (including a failed build).
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(root, "perfbench", "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "mobidx-perfbench")
    return subprocess.run([exe, *sys.argv[1:]], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
