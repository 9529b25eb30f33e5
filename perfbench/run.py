#!/usr/bin/env python3
"""Build and run the perfbench end-to-end benchmark.

    python3 perfbench/run.py --workload parallel_4k --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
driver (and the simulator libraries it links) under .bench_build/; later
runs reuse that build. The driver's output is passed through: human-
readable lines, then one JSON line with `correct`, `attempted`, `failed`
and `metrics`. At a seed with pinned results (pins/) outputs are checked
against the pins; at any other seed against the second-scheduler oracle.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("parallel_4k", "scenario_sweep", "paper_stack")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally; build logs go to stderr."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy-size run (self-test); never uses the pins")
    ap.add_argument("--expect", help="check against this pin file")
    ap.add_argument("--write-expect", help="write this run's results here")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    pins = os.path.join(HERE, "pins", f"{args.workload}.seed{args.seed}.txt")
    if args.expect:
        cmd += ["--expect", args.expect]
    elif not args.toy and os.path.exists(pins):
        cmd += ["--expect", pins]
    if args.write_expect:
        cmd += ["--write-expect", args.write_expect]
    if args.toy:
        cmd.append("--toy")
    if args.trace:
        cmd += ["--spans", os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
