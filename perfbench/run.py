#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig10 --seed 1 --seconds 10 --trace 0

Builds the `perfbench` crate (release) from the checkout's sources, then
runs one workload and relays its output; the last line of standard
output is the JSON result. Build output goes to `$CARGO_TARGET_DIR`,
or `.bench_build` when that is unset. Exits non-zero when the build
fails, the arguments are wrong, or any answer differs from the reference.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def main(argv):
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.abspath(".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
