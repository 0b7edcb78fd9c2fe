#!/usr/bin/env python3
"""Wire-level serving benchmark for elm-server.

Builds the release `elm-server` binary and the `perfbench` load generator from
the sources in this checkout, then runs one workload:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 30 --trace 0

The generator prints a metric table and, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The exit code is the
generator's: 0 only when every answer matched its replay. Build output goes
to standard error. `CARGO_TARGET_DIR` (default `.bench_build`) holds the
build; traced runs write spans and the layer table to `perfbench/out/`.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("interactive", "batch-saturate", "session-churn")
# The generator bounds its own run well inside this; this limit is
# the backstop that guarantees no process outlives the benchmark.
RUN_TIMEOUT_S = 170


def cargo(args, env):
    done = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr)
    return done.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "crates", "server")):
        print("perfbench: no elm-server sources beside perfbench/", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build_flags = ["build", "--release", "--offline", "--locked", "--quiet"]
    if not cargo([*build_flags, "-p", "elm-server", "--bin", "elm-server"], env):
        return 3
    if not cargo([*build_flags, "--manifest-path", os.path.join(HERE, "Cargo.toml")], env):
        return 3

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(target, "release", "elm-server"),
        "--out", os.path.join(HERE, "out"),
    ]
    # A session of its own, so every server the generator spawns can be
    # stopped as one group whatever happens to the generator; a SIGTERM to
    # this wrapper unwinds through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 4
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
