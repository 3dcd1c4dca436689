#!/usr/bin/env python3
"""Build and run the end-to-end exploration benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload printf5-1w --seed 1 --seconds 30 --trace 0

Builds perfbench/cmd/c9bench (a Go module of its own that uses the
repository's packages) into the build directory -- $CARGO_TARGET_DIR, or
.bench_build -- with the Go build cache and home directory kept there
too, so nothing outside the checkout is read or written. Then runs it.
The benchmark prints a report on stderr and the result as the last line
of stdout. A failed build exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(
        os.environ,
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "c9bench")
    built = subprocess.run(
        ["go", "build", "-o", exe, "./cmd/c9bench"],
        cwd=src, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [exe, "-workload", args.workload, "-seed", str(args.seed),
         "-seconds", str(args.seconds), "-trace", str(args.trace),
         "-trace-dir", os.path.join(build, "traces")],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
