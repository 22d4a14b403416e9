#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the given arguments. Traced
runs write their spans under `.bench_build/perfbench-traces/`. Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Exits with the build's or the benchmark's non-zero code on
failure.
"""

import os
import subprocess
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "Cargo.toml"


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", str(MANIFEST)],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with code {build.returncode}", file=sys.stderr)
        return build.returncode
    return subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
