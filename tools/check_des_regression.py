#!/usr/bin/env python3
"""DES throughput regression guard for CI.

Compares a freshly-measured bench JSON (typically a --smoke run on a CI
box of unknown speed) against the committed baseline. Absolute events/s
are machine-dependent, so the guard checks *speedup ratios*, which
cancel host speed: a ratio collapsing means one mode regressed relative
to the other in the same binary on the same box.

Profiles select which ratio maps are guarded:
  --profile=des (default) — des_throughput: frontier/linear,
    parallel/frontier, auto/linear per core count, and the work-stealing
    engine's thread-scaling matrix (parallel at T host threads vs 1);
  --profile=fastforward — fastforward: wall-clock ratio of full-fidelity
    vs analytic skip-ahead per scheduler x core count
    (speedup_ff_vs_full), plus a hard requirement that the fresh run
    re-verified trace equality (traces_identical == true; the speedup is
    meaningless if the skipping run computed something else);
  --profile=bisect — fault_bisect: wall-clock ratio of from-scratch vs
    checkpoint-accelerated ddmin (speedup_checkpoint_vs_scratch), plus
    hard requirements that the fresh run's checkpoint and scratch modes
    converged on the same minimal set, that the minimal set still fails,
    and that the empty schedule passes — the speedup is meaningless if
    the accelerated bisection computed a different answer;
  --profile=scenarios — fault_sweep's scenario-server matrix: pool
    throughput ratio vs one worker (speedup_workers_vs_1, host-aware
    clamped like the thread matrix), a hard requirement that the fresh
    run re-verified worker-count-invariant digests
    (digests_worker_count_invariant == true), and a hard requirement
    that scenarios_per_sec was measured and positive — a batch whose
    results depend on how many workers raced the queue has broken the
    snapshot-hydration contract, and a missing throughput number means
    the matrix never ran;
  --profile=hotpath — des_throughput's hot-path memory-discipline
    section: hard-requires the per-core-count events_per_sec and
    events_per_sec_parallel series (every committed core count measured
    and positive — absolute throughput is host-dependent, presence is
    not), guards the parallel/frontier throughput ratio per core count
    with the tolerance floor (same binary, same box — host speed
    cancels), requires bytes_per_hot_event to be measured and no larger
    than the committed packed-record size, and holds
    allocs_per_million_events to a ceiling of committed * (1 +
    tolerance) + 1 (an absolute slack of one alloc per million events,
    so a zero-alloc baseline does not demand bit-exact zero on a noisy
    runner).

Every guarded map must be present (as a dict) in BOTH files, and every
baseline entry must be measured in the fresh run; a bench that silently
stops emitting a map is itself a regression, not a skip. Zero
comparisons is always a hard failure.

Thread-scaling floors are host-aware: scaling beyond the physical CPU
count is not expected, so when the fresh run reports host_cpus < T the
committed ratio is clamped to min(committed, host_cpus) before the
tolerance floor is applied. A 1-CPU runner therefore only asserts that
oversubscription does not collapse throughput.

The des and hotpath profiles compare like with like: their
parallel/frontier ratios move with the host thread count the bench ran
at, so a fresh run whose host_threads differs from the baseline's is a
usage error (exit 2, naming both counts), not a regression.

Exit 0 if every ratio is within the tolerance of its committed value;
exit 1 (listing the offenders) otherwise; exit 2 on usage/shape errors.

Usage: check_des_regression.py FRESH.json BASELINE.json
           [--tolerance=0.25] [--profile=des|fastforward|bisect]
"""

import json
import sys

PROFILES = {
    "des": (
        "speedup_frontier_vs_linear",
        "speedup_parallel_vs_frontier",
        "speedup_auto_vs_linear",
        "speedup_threads_vs_1",
    ),
    "fastforward": ("speedup_ff_vs_full",),
    "bisect": ("speedup_checkpoint_vs_scratch",),
    "scenarios": ("speedup_workers_vs_1",),
    # hotpath is checked by check_hotpath(), not the generic ratio loop.
    "hotpath": (),
}

# Booleans the fresh run must assert true for the profile's ratios to
# mean anything at all; missing counts as false.
REQUIRED_FLAGS = {
    "fastforward": ("traces_identical",),
    "bisect": (
        "minimal_sets_agree",
        "minimal_still_fails",
        "empty_script_passes",
    ),
    "scenarios": ("digests_worker_count_invariant",),
}

# Numbers the fresh run must have measured (present and > 0) for the
# profile to mean anything; missing or non-positive is a hard failure.
REQUIRED_NUMBERS = {
    "scenarios": ("scenarios_per_sec",),
}

# Ratio maps whose last key is a host-thread count: the committed ratio
# is clamped to host_cpus before the floor when the runner is smaller
# than the sweep (scaling beyond the physical CPUs is not expected).
HOST_CLAMPED = ("speedup_threads_vs_1", "speedup_workers_vs_1")

# Profiles whose fresh run must use the baseline's host_threads.
THREAD_MATCHED = ("des", "hotpath")


def flatten(tree, prefix=()):
    """Flatten {"1024": {"2": 1.9}} into {("1024", "2"): 1.9}; flat maps
    become single-element keys. Ratio maps are numbers at the leaves."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(flatten(value, prefix + (key,)))
        else:
            out[prefix + (key,)] = value
    return out


def key_label(name, key):
    if name == "speedup_threads_vs_1" and len(key) == 2:
        return f"{name}[{key[0]} cores, {key[1]} threads]"
    if name == "speedup_workers_vs_1" and len(key) == 1:
        return f"{name}[{key[0]} workers]"
    if name == "speedup_ff_vs_full" and len(key) == 2:
        return f"{name}[{key[0]}, {key[1]} cores]"
    if name == "speedup_checkpoint_vs_scratch" and len(key) == 2:
        return f"{name}[{key[0]}, {key[1]} cores]"
    return f"{name}[{'/'.join(key)}]"


def sort_key(key):
    # Numeric parts sort numerically; scheduler names and other
    # non-numeric parts sort lexically after them.
    return tuple(
        (0, int(part), "") if part.isdigit() else (1, 0, part)
        for part in key
    )


def check_hotpath(fresh, base, tolerance, failures):
    """Guard the hot-path memory-discipline section. Returns the number
    of checks performed (counts toward the no-vacuous-pass rule)."""
    checked = 0
    fresh_hot = fresh.get("hotpath")
    base_hot = base.get("hotpath")
    bad = False
    if not isinstance(fresh_hot, dict):
        failures.append("hotpath: missing or not a map in fresh run")
        bad = True
    if not isinstance(base_hot, dict):
        failures.append("hotpath: missing or not a map in baseline")
        bad = True
    if bad:
        return 0

    # Packed-record size: host-independent bytes. Growing the record the
    # heap sifts is exactly the regression this profile exists to catch.
    fresh_bytes = fresh_hot.get("bytes_per_hot_event")
    base_bytes = base_hot.get("bytes_per_hot_event")
    if not isinstance(fresh_bytes, (int, float)) \
            or isinstance(fresh_bytes, bool) or fresh_bytes <= 0:
        failures.append(
            "hotpath.bytes_per_hot_event: fresh run did not measure "
            "this (missing or non-positive)"
        )
    elif isinstance(base_bytes, (int, float)) \
            and not isinstance(base_bytes, bool):
        checked += 1
        status = "ok" if fresh_bytes <= base_bytes else "REGRESSION"
        print(
            f"hotpath.bytes_per_hot_event: measured {fresh_bytes:.0f}, "
            f"committed {base_bytes:.0f} -> {status}"
        )
        if fresh_bytes > base_bytes:
            failures.append(
                f"hotpath.bytes_per_hot_event: {fresh_bytes:.0f} > "
                f"committed {base_bytes:.0f} (the packed heap record "
                "grew)"
            )
    else:
        failures.append(
            "hotpath.bytes_per_hot_event: missing from baseline"
        )

    # Throughput series: every committed core count must have been
    # measured and positive. Absolute events/s is host-dependent, so the
    # hard requirement is presence, not magnitude...
    series_maps = {}
    for series in ("events_per_sec", "events_per_sec_parallel"):
        fresh_map = fresh_hot.get(series)
        base_map = base_hot.get(series)
        if not isinstance(fresh_map, dict):
            failures.append(
                f"hotpath.{series}: missing or not a map in fresh run"
            )
            continue
        if not isinstance(base_map, dict):
            failures.append(
                f"hotpath.{series}: missing or not a map in baseline"
            )
            continue
        series_maps[series] = (fresh_map, base_map)
        for key in sorted(base_map, key=lambda k: sort_key((k,))):
            checked += 1
            value = fresh_map.get(key)
            ok = isinstance(value, (int, float)) \
                and not isinstance(value, bool) and value > 0
            print(
                f"hotpath.{series}[{key} cores]: "
                + (f"measured {value:.0f} -> ok" if ok
                   else "missing or non-positive -> REGRESSION")
            )
            if not ok:
                failures.append(
                    f"hotpath.{series}[{key} cores]: missing or "
                    "non-positive in fresh run"
                )

    # ...except the parallel/frontier ratio, where host speed cancels
    # (same binary, same box): guard it with the tolerance floor.
    if len(series_maps) == 2:
        fresh_f, base_f = series_maps["events_per_sec"]
        fresh_p, base_p = series_maps["events_per_sec_parallel"]
        for key in sorted(base_f, key=lambda k: sort_key((k,))):
            committed_f = base_f.get(key)
            committed_p = base_p.get(key)
            measured_f = fresh_f.get(key)
            measured_p = fresh_p.get(key)
            values = (committed_f, committed_p, measured_f, measured_p)
            if not all(isinstance(v, (int, float))
                       and not isinstance(v, bool) and v > 0
                       for v in values):
                continue  # presence failures already recorded above
            committed = committed_p / committed_f
            measured = measured_p / measured_f
            floor = committed * (1.0 - tolerance)
            checked += 1
            status = "ok" if measured >= floor else "REGRESSION"
            print(
                f"hotpath parallel/frontier[{key} cores]: measured "
                f"{measured:.2f}x, committed {committed:.2f}x, floor "
                f"{floor:.2f}x -> {status}"
            )
            if measured < floor:
                failures.append(
                    f"hotpath parallel/frontier[{key} cores]: "
                    f"{measured:.2f}x < floor {floor:.2f}x "
                    f"(committed {committed:.2f}x)"
                )

    # Allocation discipline: a ceiling, not a floor. The +1 absolute
    # slack keeps a zero-alloc baseline from demanding bit-exact zero.
    fresh_map = fresh_hot.get("allocs_per_million_events")
    base_map = base_hot.get("allocs_per_million_events")
    if not isinstance(fresh_map, dict):
        failures.append(
            "hotpath.allocs_per_million_events: missing or not a map "
            "in fresh run"
        )
    elif not isinstance(base_map, dict):
        failures.append(
            "hotpath.allocs_per_million_events: missing or not a map "
            "in baseline"
        )
    else:
        for key in sorted(base_map, key=lambda k: sort_key((k,))):
            committed = base_map[key]
            value = fresh_map.get(key)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or value < 0:
                failures.append(
                    f"hotpath.allocs_per_million_events[{key} cores]: "
                    "missing or negative in fresh run"
                )
                continue
            ceiling = committed * (1.0 + tolerance) + 1.0
            checked += 1
            status = "ok" if value <= ceiling else "REGRESSION"
            print(
                f"hotpath.allocs_per_million_events[{key} cores]: "
                f"measured {value:.1f}, committed {committed:.1f}, "
                f"ceiling {ceiling:.1f} -> {status}"
            )
            if value > ceiling:
                failures.append(
                    f"hotpath.allocs_per_million_events[{key} cores]: "
                    f"{value:.1f} > ceiling {ceiling:.1f} "
                    f"(committed {committed:.1f})"
                )
    return checked


def main(argv):
    tolerance = 0.25
    profile = "des"
    paths = []
    for a in argv[1:]:
        if a.startswith("--tolerance="):
            tolerance = float(a.split("=", 1)[1])
        elif a.startswith("--profile="):
            profile = a.split("=", 1)[1]
            if profile not in PROFILES:
                print(f"unknown profile {profile!r} (expected "
                      f"{'|'.join(PROFILES)})", file=sys.stderr)
                return 2
        else:
            paths.append(a)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(paths[0]) as f:
        fresh = json.load(f)
    with open(paths[1]) as f:
        base = json.load(f)

    if profile in THREAD_MATCHED and \
            fresh.get("host_threads") != base.get("host_threads"):
        print(f"host_threads mismatch: fresh run used "
              f"{fresh.get('host_threads')!r}, baseline "
              f"{base.get('host_threads')!r}; rerun the bench at the "
              f"baseline's thread count", file=sys.stderr)
        return 2

    host_cpus = fresh.get("host_cpus", 0)

    failures = []
    checked = 0
    for flag in REQUIRED_FLAGS.get(profile, ()):
        if fresh.get(flag) is not True:
            failures.append(
                f"{flag}: fresh run did not re-verify this invariant "
                "(missing or false)"
            )
    for number in REQUIRED_NUMBERS.get(profile, ()):
        value = fresh.get(number)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value <= 0:
            failures.append(
                f"{number}: fresh run did not measure this "
                "(missing or non-positive)"
            )
    if profile == "hotpath":
        checked += check_hotpath(fresh, base, tolerance, failures)
    for name in PROFILES[profile]:
        fresh_map = fresh.get(name)
        base_map = base.get(name)
        # A guarded map vanishing from either side means the bench (or
        # the baseline) stopped measuring something it used to — fail
        # loudly instead of skipping the comparisons.
        bad = False
        if not isinstance(fresh_map, dict):
            failures.append(f"{name}: missing or not a map in fresh run")
            bad = True
        if not isinstance(base_map, dict):
            failures.append(f"{name}: missing or not a map in baseline")
            bad = True
        if bad:
            continue
        fresh_flat = flatten(fresh_map)
        for key, committed in sorted(flatten(base_map).items(),
                                     key=lambda kv: sort_key(kv[0])):
            label = key_label(name, key)
            if key not in fresh_flat:
                failures.append(f"{label}: missing from fresh run")
                continue
            measured = fresh_flat[key]
            note = ""
            if name in HOST_CLAMPED:
                threads = int(key[-1])
                if 0 < host_cpus < threads and committed > host_cpus:
                    committed = float(host_cpus)
                    note = f" (clamped to {host_cpus} host cpus)"
            floor = committed * (1.0 - tolerance)
            checked += 1
            status = "ok" if measured >= floor else "REGRESSION"
            print(
                f"{label}: measured {measured:.2f}x, "
                f"committed {committed:.2f}x{note}, floor {floor:.2f}x "
                f"-> {status}"
            )
            if measured < floor:
                failures.append(
                    f"{label}: {measured:.2f}x < floor "
                    f"{floor:.2f}x (committed {committed:.2f}x{note})"
                )

    if checked == 0:
        # Never pass vacuously, whatever shape the inputs had.
        failures.append("no ratios compared between the two files")
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nall {checked} ratios within {tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
