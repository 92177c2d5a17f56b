#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload meet-batch --seed 1 --seconds 10 --trace 0

The Go benchmark in this directory is built from source into
.bench_build/ (compiler cache included, so nothing is written outside the
checkout), then run with the same arguments. Its last line of standard
output is the JSON result. The exit status is non-zero, with no result
line, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# A run measures for --seconds and then tears its fleet down; anything
# slower than this is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def go_env():
    """Keep the toolchain's caches and temporary files inside the checkout
    and the toolchain itself offline."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off",
               GOSUMDB="off", GOFLAGS="", CGO_ENABLED="0")
    return env


def run(cmd, env, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    with subprocess.Popen(cmd, env=env, **kw) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"run.py: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
            return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at the repository root; nothing to build", file=sys.stderr)
        return 1
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    status = run(["go", "build", "-o", BINARY, "."], env, BUILD_TIMEOUT_S,
                 cwd=HERE, stdout=sys.stderr)
    if status != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    return 1 if run(cmd, env, RUN_TIMEOUT_S, cwd=ROOT) != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
