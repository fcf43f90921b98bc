#!/usr/bin/env python3
"""Build argus from source and run one benchmark run.

    python3 argusbench/run.py --workload editor-session --seed 3 --seconds 20 --trace 0
    python3 argusbench/run.py --smoke

Run from anywhere; the repository root is the parent of this file's
directory.  The benchmark executable is built with dune into the
directory named by CARGO_TARGET_DIR (relative to the root), or _build
when that is unset, with dune's shared cache off so nothing is written
outside the checkout.  The run's output is passed through unchanged:
its last line is the result object.  Exits 2 without a result when the
checkout holds no argus sources to build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def fail(msg):
    print(f"argusbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", os.path.join("argusbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} under {ROOT}: nothing to build")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    if os.path.isabs(build_dir) or ".." in build_dir.split(os.sep):
        build_dir = "_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ROOT, "--build-dir", build_dir, "--cache=disabled",
             "--display=quiet", "./argusbench/main.exe"]
    try:
        b = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if b.returncode != 0:
        fail(f"build failed with exit code {b.returncode}")
    exe = os.path.join(ROOT, build_dir, "default", "argusbench", "main.exe")
    try:
        r = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT} s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
