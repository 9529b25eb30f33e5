#!/usr/bin/env python3
"""Self-test for tools/check_des_regression.py.

Regression focus: the guard used to `continue` past any guarded map
missing from either file, so a fresh run that stopped emitting most of
its speedup maps still passed on whichever map remained — a vacuous
pass. The guard must now hard-fail on missing maps, missing entries,
and zero comparisons, and apply host-aware floors to the thread-scaling
matrix.

Usage: check_des_regression_test.py PATH_TO_GUARD_SCRIPT
Stdlib only; exits nonzero listing failed cases.
"""

import json
import os
import subprocess
import sys
import tempfile


def run_guard(script, fresh, base, *extra):
    with tempfile.TemporaryDirectory() as td:
        fresh_path = os.path.join(td, "fresh.json")
        base_path = os.path.join(td, "base.json")
        with open(fresh_path, "w") as f:
            json.dump(fresh, f)
        with open(base_path, "w") as f:
            json.dump(base, f)
        proc = subprocess.run(
            [sys.executable, script, fresh_path, base_path, *extra],
            capture_output=True,
            text=True,
        )
    return proc


def full_doc(host_cpus=8):
    return {
        "host_cpus": host_cpus,
        "speedup_frontier_vs_linear": {"64": 30.0, "256": 100.0},
        "speedup_parallel_vs_frontier": {"64": 4.0, "256": 5.0},
        "speedup_auto_vs_linear": {"64": 120.0, "256": 500.0},
        "speedup_threads_vs_1": {
            "1024": {"2": 1.9, "4": 3.6, "8": 6.0},
            "4096": {"2": 1.8, "4": 3.4, "8": 5.5},
        },
    }


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    script = argv[1]
    failures = []

    def check(name, proc, want_rc, want_stderr=None):
        ok = proc.returncode == want_rc
        if ok and want_stderr is not None:
            ok = want_stderr in proc.stderr
        if not ok:
            failures.append(
                f"{name}: rc={proc.returncode} (want {want_rc})"
                f"\n  stdout: {proc.stdout.strip()}"
                f"\n  stderr: {proc.stderr.strip()}"
            )
        else:
            print(f"ok: {name}")

    # 1. Identical fresh/baseline: clean pass.
    check("identical files pass", run_guard(script, full_doc(), full_doc()), 0)

    # 2. A collapsed flat ratio is caught.
    fresh = full_doc()
    fresh["speedup_parallel_vs_frontier"]["256"] = 1.0
    check("flat-map regression fails", run_guard(script, fresh, full_doc()), 1)

    # 3. A collapsed thread-scaling ratio is caught (host has the CPUs).
    fresh = full_doc()
    fresh["speedup_threads_vs_1"]["1024"]["4"] = 1.0
    check("thread-matrix regression fails",
          run_guard(script, fresh, full_doc()), 1)

    # 4. THE vacuous-pass bug: fresh run silently lost one guarded map
    # while the remaining maps are healthy. The old guard skipped the
    # missing map and exited 0.
    fresh = full_doc()
    del fresh["speedup_parallel_vs_frontier"]
    check("missing one guarded map fails",
          run_guard(script, fresh, full_doc()), 1, "missing")

    # 5. Fresh run with NO guarded maps at all must fail, not pass.
    check("no guarded maps fails",
          run_guard(script, {"host_cpus": 8}, full_doc()), 1)

    # 6. Baseline entry absent from the fresh run (core count dropped
    # from the sweep) must fail.
    fresh = full_doc()
    del fresh["speedup_threads_vs_1"]["4096"]["8"]
    check("missing matrix entry fails",
          run_guard(script, fresh, full_doc()), 1, "missing")

    # 7. Host-aware floor: a 1-CPU runner measuring ~1x scaling against
    # a committed 6x must pass (clamped floor), because the hardware
    # cannot express the speedup.
    fresh = full_doc(host_cpus=1)
    for cores in fresh["speedup_threads_vs_1"]:
        for t in fresh["speedup_threads_vs_1"][cores]:
            fresh["speedup_threads_vs_1"][cores][t] = 0.95
    check("1-cpu host passes flat scaling",
          run_guard(script, fresh, full_doc()), 0)

    # 8. ...but even a 1-CPU runner fails if oversubscription collapses
    # throughput below the clamped floor.
    fresh = full_doc(host_cpus=1)
    fresh["speedup_threads_vs_1"]["1024"]["8"] = 0.3
    check("1-cpu host still catches collapse",
          run_guard(script, fresh, full_doc()), 1)

    # 9. Tolerance flag is honored: 10% dip passes at default 25%, fails
    # at --tolerance=0.05.
    fresh = full_doc()
    fresh["speedup_auto_vs_linear"]["64"] = 108.0
    check("10% dip within default tolerance",
          run_guard(script, fresh, full_doc()), 0)
    check("10% dip outside tight tolerance",
          run_guard(script, fresh, full_doc(), "--tolerance=0.05"), 1)

    # --- fastforward profile ---
    def ff_doc():
        return {
            "host_cpus": 8,
            "traces_identical": True,
            "speedup_ff_vs_full": {
                "frontier": {"16": 400.0, "64": 280.0},
                "linear": {"16": 640.0, "64": 830.0},
                "parallel": {"16": 95.0, "64": 90.0},
            },
        }

    # 10. Healthy fastforward run passes (keys here are non-numeric
    # scheduler names — the sort must not choke on them).
    check("ff profile passes",
          run_guard(script, ff_doc(), ff_doc(), "--profile=fastforward"), 0)

    # 11. A collapsed skip-ahead ratio is caught.
    fresh = ff_doc()
    fresh["speedup_ff_vs_full"]["linear"]["64"] = 2.0
    check("ff ratio collapse fails",
          run_guard(script, fresh, ff_doc(), "--profile=fastforward"), 1)

    # 12. A scheduler dropped from the fresh sweep must fail.
    fresh = ff_doc()
    del fresh["speedup_ff_vs_full"]["parallel"]
    check("ff missing scheduler fails",
          run_guard(script, fresh, ff_doc(), "--profile=fastforward"), 1,
          "missing")

    # 13. The map vanishing entirely must fail, never pass vacuously.
    check("ff no guarded map fails",
          run_guard(script, {"host_cpus": 8, "traces_identical": True},
                    ff_doc(), "--profile=fastforward"), 1)

    # 14. Speedup without re-verified trace equality is meaningless: a
    # fresh run that lost (or failed) the digest comparison must fail
    # even with healthy ratios.
    fresh = ff_doc()
    del fresh["traces_identical"]
    check("ff missing trace verdict fails",
          run_guard(script, fresh, ff_doc(), "--profile=fastforward"), 1,
          "traces_identical")
    fresh = ff_doc()
    fresh["traces_identical"] = False
    check("ff false trace verdict fails",
          run_guard(script, fresh, ff_doc(), "--profile=fastforward"), 1,
          "traces_identical")

    # 15. The des profile ignores ff maps and vice versa: a des baseline
    # checked under --profile=fastforward has no guarded map -> fail.
    check("profiles select disjoint maps",
          run_guard(script, full_doc(), full_doc(),
                    "--profile=fastforward"), 1)

    # --- bisect profile ---
    def bisect_doc():
        return {
            "host_cpus": 8,
            "minimal_sets_agree": True,
            "minimal_still_fails": True,
            "empty_script_passes": True,
            "speedup_checkpoint_vs_scratch": {"ddmin": {"16": 6.0}},
        }

    # 17. Healthy bisect run passes.
    check("bisect profile passes",
          run_guard(script, bisect_doc(), bisect_doc(), "--profile=bisect"),
          0)

    # 18. Checkpoint-accelerated ddmin losing its edge over scratch is a
    # regression (checkpoint placement or restore cost broke).
    fresh = bisect_doc()
    fresh["speedup_checkpoint_vs_scratch"]["ddmin"]["16"] = 0.9
    check("bisect speedup collapse fails",
          run_guard(script, fresh, bisect_doc(), "--profile=bisect"), 1)

    # 19. The speedup is meaningless unless both ddmin modes converged on
    # the same minimal set, the minimal set still fails, and the empty
    # schedule passes — each verdict is individually required, whether
    # missing or explicitly false.
    for flag in ("minimal_sets_agree", "minimal_still_fails",
                 "empty_script_passes"):
        fresh = bisect_doc()
        del fresh[flag]
        check(f"bisect missing {flag} fails",
              run_guard(script, fresh, bisect_doc(), "--profile=bisect"), 1,
              flag)
        fresh = bisect_doc()
        fresh[flag] = False
        check(f"bisect false {flag} fails",
              run_guard(script, fresh, bisect_doc(), "--profile=bisect"), 1,
              flag)

    # 20. A bisect bench that stopped emitting its ratio map must fail,
    # never pass vacuously.
    fresh = bisect_doc()
    del fresh["speedup_checkpoint_vs_scratch"]
    check("bisect no guarded map fails",
          run_guard(script, fresh, bisect_doc(), "--profile=bisect"), 1)

    # --- scenarios profile ---
    def scenarios_doc(host_cpus=8):
        return {
            "host_cpus": host_cpus,
            "scenarios_per_sec": 1200.0,
            "digests_worker_count_invariant": True,
            "speedup_workers_vs_1": {"4": 2.8},
        }

    # 22. Healthy scenario-server matrix passes.
    check("scenarios profile passes",
          run_guard(script, scenarios_doc(), scenarios_doc(),
                    "--profile=scenarios"), 0)

    # 23. Digest agreement is load-bearing: worker-count-dependent
    # results fail even with healthy throughput, whether the flag is
    # missing or explicitly false.
    fresh = scenarios_doc()
    del fresh["digests_worker_count_invariant"]
    check("scenarios missing digest verdict fails",
          run_guard(script, fresh, scenarios_doc(), "--profile=scenarios"),
          1, "digests_worker_count_invariant")
    fresh = scenarios_doc()
    fresh["digests_worker_count_invariant"] = False
    check("scenarios false digest verdict fails",
          run_guard(script, fresh, scenarios_doc(), "--profile=scenarios"),
          1, "digests_worker_count_invariant")

    # 24. A fresh run that never measured throughput fails.
    fresh = scenarios_doc()
    del fresh["scenarios_per_sec"]
    check("scenarios missing throughput fails",
          run_guard(script, fresh, scenarios_doc(), "--profile=scenarios"),
          1, "scenarios_per_sec")
    fresh = scenarios_doc()
    fresh["scenarios_per_sec"] = 0.0
    check("scenarios zero throughput fails",
          run_guard(script, fresh, scenarios_doc(), "--profile=scenarios"),
          1, "scenarios_per_sec")

    # 25. Pool scaling collapse is caught...
    fresh = scenarios_doc()
    fresh["speedup_workers_vs_1"]["4"] = 0.5
    check("scenarios pool collapse fails",
          run_guard(script, fresh, scenarios_doc(), "--profile=scenarios"),
          1)

    # 26. ...but a 1-CPU runner measuring ~1x against a committed 2.8x
    # passes via the host-aware clamp (and still fails a true collapse).
    fresh = scenarios_doc(host_cpus=1)
    fresh["speedup_workers_vs_1"]["4"] = 0.95
    check("scenarios 1-cpu host passes flat pool scaling",
          run_guard(script, fresh, scenarios_doc(), "--profile=scenarios"),
          0)
    fresh = scenarios_doc(host_cpus=1)
    fresh["speedup_workers_vs_1"]["4"] = 0.3
    check("scenarios 1-cpu host still catches collapse",
          run_guard(script, fresh, scenarios_doc(), "--profile=scenarios"),
          1)

    # 27. The ratio map vanishing entirely must fail, never pass
    # vacuously.
    fresh = scenarios_doc()
    del fresh["speedup_workers_vs_1"]
    check("scenarios no guarded map fails",
          run_guard(script, fresh, scenarios_doc(), "--profile=scenarios"),
          1)

    # --- hotpath profile ---
    def hotpath_doc():
        return {
            "host_cpus": 8,
            "hotpath": {
                "bytes_per_hot_event": 16,
                "events_per_sec": {"2": 2.0e7, "64": 1.5e7},
                "events_per_sec_parallel": {"2": 3.0e7, "64": 6.0e7},
                "allocs_per_million_events": {"2": 0.0, "64": 0.0},
            },
        }

    # 28. Healthy hotpath section passes.
    check("hotpath profile passes",
          run_guard(script, hotpath_doc(), hotpath_doc(),
                    "--profile=hotpath"), 0)

    # 29. The section vanishing entirely must fail, never pass vacuously.
    check("hotpath missing section fails",
          run_guard(script, {"host_cpus": 8}, hotpath_doc(),
                    "--profile=hotpath"), 1, "hotpath")

    # 30. A core count dropped from the events_per_sec series is a hard
    # failure, as is a series that was emitted but never measured.
    fresh = hotpath_doc()
    del fresh["hotpath"]["events_per_sec"]["64"]
    check("hotpath missing series entry fails",
          run_guard(script, fresh, hotpath_doc(), "--profile=hotpath"), 1,
          "events_per_sec[64 cores]")
    fresh = hotpath_doc()
    fresh["hotpath"]["events_per_sec_parallel"]["2"] = 0.0
    check("hotpath zero throughput fails",
          run_guard(script, fresh, hotpath_doc(), "--profile=hotpath"), 1,
          "events_per_sec_parallel[2 cores]")

    # 31. The whole series map vanishing must fail.
    fresh = hotpath_doc()
    del fresh["hotpath"]["events_per_sec"]
    check("hotpath missing series map fails",
          run_guard(script, fresh, hotpath_doc(), "--profile=hotpath"), 1,
          "events_per_sec")

    # 32. Growing the packed heap record is the layout regression this
    # profile exists to catch; a missing measurement fails too.
    fresh = hotpath_doc()
    fresh["hotpath"]["bytes_per_hot_event"] = 24
    check("hotpath record growth fails",
          run_guard(script, fresh, hotpath_doc(), "--profile=hotpath"), 1,
          "bytes_per_hot_event")
    fresh = hotpath_doc()
    del fresh["hotpath"]["bytes_per_hot_event"]
    check("hotpath missing record size fails",
          run_guard(script, fresh, hotpath_doc(), "--profile=hotpath"), 1,
          "bytes_per_hot_event")

    # 33. The parallel/frontier ratio is host-independent and floored:
    # a collapse fails even though both absolute series are positive.
    fresh = hotpath_doc()
    fresh["hotpath"]["events_per_sec_parallel"]["64"] = 1.6e7
    check("hotpath parallel/frontier collapse fails",
          run_guard(script, fresh, hotpath_doc(), "--profile=hotpath"), 1,
          "parallel/frontier")

    # 34. Allocation discipline is a ceiling with +1 absolute slack: a
    # fraction of an alloc per million over a zero baseline passes, a
    # real allocation leak fails.
    fresh = hotpath_doc()
    fresh["hotpath"]["allocs_per_million_events"]["64"] = 0.9
    check("hotpath small alloc noise passes",
          run_guard(script, fresh, hotpath_doc(), "--profile=hotpath"), 0)
    fresh = hotpath_doc()
    fresh["hotpath"]["allocs_per_million_events"]["64"] = 50.0
    check("hotpath alloc leak fails",
          run_guard(script, fresh, hotpath_doc(), "--profile=hotpath"), 1,
          "allocs_per_million_events[64 cores]")

    # 35. The des profile must not be satisfied by a hotpath-only doc
    # (disjoint selection, same rule as case 15).
    check("hotpath doc fails des profile",
          run_guard(script, hotpath_doc(), hotpath_doc()), 1)

    # 36. des and hotpath compare like with like: a fresh run at another
    # host thread count than the baseline is a named usage error, even
    # when every ratio would pass; the other profiles do not look.
    fresh = full_doc()
    fresh["host_threads"] = 4
    base = full_doc()
    base["host_threads"] = 1
    check("des host_threads mismatch is usage error",
          run_guard(script, fresh, base), 2, "host_threads mismatch")
    fresh = hotpath_doc()
    fresh["host_threads"] = 4
    base = hotpath_doc()
    base["host_threads"] = 1
    check("hotpath host_threads mismatch is usage error",
          run_guard(script, fresh, base, "--profile=hotpath"), 2,
          "host_threads mismatch")
    fresh = full_doc()
    fresh["host_threads"] = 1
    base = full_doc()
    base["host_threads"] = 1
    check("des matching host_threads passes",
          run_guard(script, fresh, base), 0)
    fresh = ff_doc()
    fresh["host_threads"] = 4
    check("fastforward ignores host_threads",
          run_guard(script, fresh, ff_doc(), "--profile=fastforward"), 0)

    # 21. Unknown profile is a usage error.
    check("unknown profile is usage error",
          run_guard(script, ff_doc(), ff_doc(), "--profile=bogus"), 2)

    if failures:
        print(f"\n{len(failures)} case(s) failed:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
