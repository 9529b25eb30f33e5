#!/usr/bin/env python3
"""Every bench and tool rejects any argument it does not declare.

Runs each of the 21 flag-taking binaries (the fig*/tab_* benches,
composed_stack, des_throughput, fastforward, fault_sweep, ttreplay,
fault_bisect and `scenarioctl run`) with
  * an unknown flag, and each declared flag misspelt by one letter;
  * every shared flag the binary does not declare, well-formed;
  * a malformed or out-of-range value of each flag it declares;
  * each declared value flag with no value, and each switch with one;
  * `--selftest` with another flag (the self-tests run alone).
Every run must exit 2, name the flag on stderr, print nothing on stdout
(no run started) and leave its working directory empty: each run also
passes the binary's own output flags first, so a parser that ran anyway
would write a file.

DECLARED below is the specification: the flags each binary reads.

Usage: strict_flags_test.py BENCH_DIR TOOLS_DIR
Stdlib only; exits nonzero listing failed cases.
"""

import concurrent.futures
import os
import subprocess
import sys
import tempfile

OBS = ["--trace", "--metrics-json"]
MACHINE = ["--faults", "--fault-seed", "--seed", "--scheduler"]
TOOL = MACHINE + ["--threads", "--ff", "--cores", "--horizon", "--period",
                  "--checkpoint-every"]

DECLARED = {
    "bench/fig3_heartbeat_rate": OBS + MACHINE,
    "bench/fig4_ctx_switch": [],
    "bench/fig6_omp_modes": OBS + ["--seed", "--scheduler"],
    "bench/fig7_coherence": OBS,
    "bench/tab_ablations": OBS + MACHINE,
    "bench/tab_blended_polling": [],
    "bench/tab_carat_overhead": OBS + ["--seed"],
    "bench/tab_consistency": [],
    "bench/tab_farmem": ["--seed"],
    "bench/tab_heartbeat_overhead": OBS,
    "bench/tab_omp_epcc": OBS + ["--scheduler"],
    "bench/tab_pipeline_interrupt": OBS + ["--seed"],
    "bench/tab_primitives": OBS,
    "bench/tab_virtine_startup": OBS,
    "bench/composed_stack": OBS + ["--faults", "--fault-seed", "--seed",
                                   "--cores", "--steps", "--period",
                                   "--no-deactivate"],
    "bench/des_throughput": ["--smoke", "--out", "--threads"],
    "bench/fastforward": ["--smoke", "--out", "--threads"],
    "bench/fault_sweep": ["--smoke", "--jobs", "--out"],
    "tools/ttreplay": TOOL + ["--replay", "--vs-scheduler",
                              "--vs-fault-seed", "--selftest"],
    "tools/fault_bisect": TOOL + ["--gap-factor", "--min-events", "--out",
                                  "--smoke", "--selftest"],
    "tools/scenarioctl run": ["--cores", "--warm-rounds", "--run-rounds",
                              "--drops", "--seeds", "--strategies",
                              "--workers", "--out"],
}

SWITCHES = {"--smoke", "--selftest", "--no-deactivate"}
# Output flags: passed well-formed ahead of every bad argument.
OUTPUTS = {"--trace": "trace.json", "--metrics-json": "metrics.json",
           "--out": "out.json"}
# Well-formed values of the shared flags (and of a few common own ones)
# for binaries that do not declare them.
WELL_FORMED = {"--trace": "trace.json", "--metrics-json": "metrics.json",
               "--faults": "drop=0.1", "--fault-seed": "3", "--seed": "7",
               "--scheduler": "linear", "--threads": "2", "--ff": "on",
               "--checkpoint-every": "1000", "--jobs": "2", "--cores": "4",
               "--smoke": None}
MALFORMED = {
    "--cores": ["abc", "-1", "0"],
    "--threads": ["0", "4097"],
    "--horizon": ["banana", "0"],
    "--drops": ["2", "0.1,,0.2", "nan"],
    "--faults": ["bogus", "drop=2"],
    "--fault-seed": ["-3", "7x"],
    "--seed": ["x", "+7"],
    "--scheduler": ["auto", "Frontier"],
    "--ff": ["maybe"],
    "--steps": ["0"],
    "--period": ["1e3", "0"],
    "--checkpoint-every": ["0"],
    "--replay": ["5", "9:5", "a:b"],
    "--vs-scheduler": ["x"],
    "--vs-fault-seed": ["-1"],
    "--gap-factor": ["abc", "0", "inf"],
    "--min-events": ["-5"],
    "--jobs": ["0", "1025"],
    "--warm-rounds": ["0"],
    "--run-rounds": ["x"],
    "--seeds": ["0"],
    "--strategies": ["both"],
    "--workers": ["257"],
}


def cases(declared):
    """(bad arguments, flag name they must name) for one binary."""
    out = [("--no-such-flag=1", "--no-such-flag")]
    for f in declared:
        typo = f[:-1]
        if typo not in declared:
            out.append((typo + "=1", typo))
    for f, v in WELL_FORMED.items():
        if f not in declared:
            out.append((f if v is None else f"{f}={v}", f))
    for f in declared:
        if f in SWITCHES:
            out.append((f + "=1", f))
            continue
        out.append((f, f))
        out.append((f + "=", f))
        for v in MALFORMED.get(f, []):
            out.append((f"{f}={v}", f))
    if "--selftest" in declared:
        out.append(("--cores=4 --selftest", "--selftest"))
    return out


def run_case(cmd, outputs, bad, name):
    with tempfile.TemporaryDirectory() as td:
        try:
            proc = subprocess.run(cmd + outputs + bad.split(), cwd=td,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            return f"{bad}: still running after 60 s (a run started)"
        left = sorted(os.listdir(td))
    problems = []
    if proc.returncode != 2:
        problems.append(f"exit {proc.returncode}, want 2")
    if name not in proc.stderr:
        problems.append(f"stderr does not name {name}")
    if proc.stdout:
        problems.append(f"stdout not empty: {proc.stdout[:80]!r}")
    if left:
        problems.append(f"wrote {left}")
    if not problems:
        return None
    return (f"{bad}: " + "; ".join(problems) +
            f" [stderr: {proc.stderr.strip()[:160]!r}]")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    dirs = {"bench": argv[1], "tools": argv[2]}
    jobs = []
    for binary, declared in DECLARED.items():
        words = binary.split()
        where, exe = words[0].split("/")
        cmd = [os.path.join(dirs[where], exe)] + words[1:]
        outputs = [f"{f}={OUTPUTS[f]}" for f in declared if f in OUTPUTS]
        for bad, name in cases(declared):
            jobs.append((binary, cmd, outputs, bad, name))

    failures = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        results = pool.map(lambda j: run_case(*j[1:]), jobs)
        for (binary, *_), problem in zip(jobs, results):
            if problem is not None:
                failures.append(f"{binary} {problem}")

    for f in failures:
        print("FAIL", f)
    print(f"{len(jobs) - len(failures)}/{len(jobs)} rejected arguments "
          f"across {len(DECLARED)} binaries")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
