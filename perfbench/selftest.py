#!/usr/bin/env python3
"""Self-test of the perfbench benchmark at toy size.

    python3 perfbench/selftest.py

For each workload, a toy-size run must print every end-to-end metric of
BENCHMARK.json by name with its unit; a run checked against the toy
run's own results must pass, and fail once one pinned result is
perturbed; the traced run must reproduce the untraced results and report
every per-layer metric. For scenario_sweep, per-cell event counts must
exclude the warm-up restored from the donor image.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("parallel_4k", "scenario_sweep", "paper_stack")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return ({m["name"]: m["unit"] for m in b["end_to_end"]},
            {m["name"]: m["unit"] for m in b["per_layer"]})


def run(workload, *extra, trace=0):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy", *extra],
        capture_output=True, text=True)
    if out.returncode != 0:
        raise AssertionError(f"{workload}: exit {out.returncode}\n"
                             f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(workload, lines, result, want):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{workload}: metrics {got} != {want}"
    for name, unit in want.items():
        assert any(re.match(rf"{re.escape(name)}\s+\S+\s+{re.escape(unit)}$",
                            line) for line in lines), \
            f"{workload}: no human-readable line for {name} [{unit}]"
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)), f"{workload}: {name}"


def perturb(src, dst):
    with open(src) as f:
        lines = f.read().splitlines()
    key, value = lines[0].split("\t", 1)
    flipped = value[:-1] + ("0" if value[-1] != "0" else "1")
    lines[0] = f"{key}\t{flipped}"
    with open(dst, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    e2e, layers = spec()
    work_dir = os.path.join(ROOT, ".bench_build", "selftest")
    os.makedirs(work_dir, exist_ok=True)
    for w in WORKLOADS:
        pins = os.path.join(work_dir, f"{w}.pins")
        bad = os.path.join(work_dir, f"{w}.bad")

        # Unpinned toy run: second-scheduler oracle, every e2e metric.
        lines, r = run(w, "--write-expect", pins)
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, r
        check_metrics(w, lines, r, e2e)

        # Pinned: passes as written, fails once one result is perturbed.
        _, r = run(w, "--expect", pins)
        assert r["correct"] and r["failed"] == 0, r
        perturb(pins, bad)
        _, r = run(w, "--expect", bad)
        assert not r["correct"] and r["failed"] > 0, r

        # Traced: same results as untraced, every per-layer metric.
        lines, r = run(w, "--expect", pins, trace=1)
        assert r["correct"] and r["failed"] == 0, r
        check_metrics(w, lines, r, layers)

        if w == "scenario_sweep":
            m = re.search(r"donor events (\d+), cell events min (\d+) max "
                          r"(\d+)", "\n".join(lines))
            assert m, "scenario_sweep: no cell-event summary"
            donor, lo, hi = (int(x) for x in m.groups())
            assert 0 < lo <= hi < donor, (donor, lo, hi)
        print(f"{w}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
