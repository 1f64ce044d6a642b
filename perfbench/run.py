#!/usr/bin/env python3
"""Build the perfbench harness from source, then run benchmark workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid-replay --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Every argument is passed to the harness binary; see perfbench/README.md.
`--workload all` runs each workload in a process of its own, one after the
other, so that process-wide figures such as peak RSS belong to one workload.
The build goes to $CARGO_TARGET_DIR (default `.bench_build`) and its output
to stderr, so the last line of stdout is the harness's JSON result (of the
last workload, with `all`). A failed build exits non-zero without printing a
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ["grid-replay", "serve-mix", "sampled-long"]

# The harness stops itself after 170 s; this is the backstop.
RUN_TIMEOUT_S = 178


def runs(args):
    """The argument lists of the harness runs that `args` asks for."""
    if "--workload" in args:
        at = args.index("--workload") + 1
        if at < len(args) and args[at] == "all":
            return [args[:at] + [name] + args[at + 1 :] for name in WORKLOADS]
    return [args]


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("error: building the benchmark harness failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    status = 0
    for args in runs(sys.argv[1:]):
        sys.stdout.flush()
        try:
            run = subprocess.run([binary] + args, env=env, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: the harness ran longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 3
        status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
