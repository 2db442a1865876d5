#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lookup|hot|cold|ingest \
        --seed N --seconds S --trace 0|1

The build uses the release profile into .bench_build, with dune's
shared cache off so that nothing is read from or written to outside
the checkout; build output goes to standard error.  The benchmark's last
line of standard output is its JSON result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGETS = ["./perfbench/oqfbench.exe", "./bin/oqf_cli.exe"]


def main():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            print(f"run.py: no {need} here; run from the root of a checkout",
                  file=sys.stderr)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "--cache=disabled", "--display", "quiet"]
        + TARGETS,
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "oqfbench.exe")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
