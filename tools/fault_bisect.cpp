// fault_bisect: shrink a failing fault schedule to a minimal reproducer.
//
// A probabilistic FaultPlan that makes a run fail (a worker's interbeat
// gap blows past --gap-factor periods) typically arms hundreds to
// thousands of individual fault events, almost all of which are
// irrelevant to the failure. This tool
//
//   1. records the probabilistic run's materialized fault schedule
//      (every armed event, identified by provenance — stream, site,
//      opportunity index),
//   2. re-runs it *scripted* (zero RNG draws) while capturing a
//      deterministic snapshot every checkpoint interval, and
//   3. delta-debugs (ddmin) the event list down to a minimal failing
//      subset, restoring each trial from the nearest checkpoint that
//      precedes the first removed event instead of re-running the
//      prologue from cycle zero.
//
// The same ddmin loop also runs in from-scratch mode (every trial
// restores the t=0 checkpoint); the tool asserts both modes converge on
// the same minimal set and reports the wall-clock ratio — that ratio is
// the number CI guards (BENCH_bisect.json, --profile=bisect).
//
// Flags: the harness's --faults (default: kDefaultSpec below),
// --fault-seed, --seed, --scheduler, --threads and --ff for the
// machine, plus --cores=N --horizon=T --period=P --checkpoint-every=N
// --gap-factor=F --min-events=N --out=FILE --smoke, or --selftest
// alone. Any other argument is a usage error.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "harness.hpp"
#include "hwsim/fault_plan.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/snapshot.hpp"
#include "replay_workload.hpp"

namespace iw::tools {
namespace {

struct Options {
  unsigned cores{16};
  Cycles horizon{6'000'000};
  Cycles period{20'000};
  Cycles every{250'000};
  double gap_factor{2.5};
  std::size_t min_events{1000};
  std::string out;
  bool smoke{false};
  bool selftest{false};
};

/// --gap-factor=F: a finite real > 0.
bool parse_gap_factor(const char* s, double* out) {
  return bench::Harness::parse_real(s, out) && *out > 0.0;
}

/// The default failing plan: a dense fault window late in the horizon
/// (the shape of the BENCH_fault_sweep p99 outlier — a long healthy
/// prologue, then a burst), arming well over a thousand events and
/// failing through back-to-back heartbeat IPI drops. The late window is
/// exactly where checkpoint-accelerated bisection pays: every trial
/// restores at the window edge instead of re-running the prologue.
constexpr const char* kDefaultSpec =
    "drop=0.35,delay=0.3:600,dup=0.05,jitter=0.3:300,spurious=0.04,"
    "stall=0.015:300,window=5000000-5800000";

bool same_event(const hwsim::FaultEvent& a, const hwsim::FaultEvent& b) {
  return a.stream == b.stream && a.site == b.site && a.index == b.index;
}

/// Earliest recorded time of an event in `all` but not in `subset`
/// (both sorted the way recorded_events() returns them). The trial
/// trajectory is bit-identical to the full scripted run strictly before
/// this instant, so any checkpoint earlier than it is a valid restore
/// point for the trial.
Cycles first_removed_time(const std::vector<hwsim::FaultEvent>& all,
                          const std::vector<hwsim::FaultEvent>& subset) {
  std::size_t j = 0;
  for (const hwsim::FaultEvent& ev : all) {
    if (j < subset.size() && same_event(ev, subset[j])) {
      ++j;
    } else {
      return ev.time;
    }
  }
  return kNever;  // subset == all: nothing removed
}

/// One reusable bisection session: a single machine instance and its
/// workload, plus the checkpoints (snapshots, oldest first) captured
/// under the full recorded script.
class BisectSession {
 public:
  BisectSession(const hwsim::MachineConfig& mc, const hwsim::FaultPlan& plan,
                const std::vector<hwsim::FaultEvent>& all, const Options& opt)
      : plan_(plan), all_(all), baseline_(all), opt_(opt), machine_(mc) {
    // Script before the workload exists: starting the heartbeat arms
    // timers, which already consumes fault opportunities.
    machine_.fault_injector().set_script(plan_, all_);
    workload_ =
        std::make_unique<ReplayWorkload>(machine_, opt_.period, false);
    checkpoints_.push_back(machine_.snapshot());
    for (Cycles t = opt_.every; t < opt_.horizon; t += opt_.every) {
      run_to(t);
      checkpoints_.push_back(machine_.snapshot());
    }
    run_to(opt_.horizon);
    full_fails_ = workload_->failed(opt_.gap_factor);
  }

  [[nodiscard]] bool full_script_fails() const { return full_fails_; }
  [[nodiscard]] std::size_t checkpoints() const {
    return checkpoints_.size();
  }

  /// Does the failure reproduce under the subset schedule? In
  /// checkpoint mode the trial restores from the latest snapshot that
  /// strictly precedes the first event the subset removed (relative to
  /// the schedule the checkpoints were captured under); in scratch mode it
  /// always rewinds to the earliest checkpoint.
  bool trial_fails(const std::vector<hwsim::FaultEvent>& subset,
                   bool use_checkpoints) {
    ++tests_;
    machine_.fault_injector().set_script(plan_, subset);
    const hwsim::Snapshot* from = &checkpoints_.front();
    if (use_checkpoints) {
      const Cycles diverge = first_removed_time(baseline_, subset);
      for (const hwsim::Snapshot& s : checkpoints_) {
        if (s.at() < diverge) from = &s;
      }
    }
    machine_.restore(*from);
    // The gap predicate is monotone (a running max), so a trial can
    // stop at the first checkpoint interval where it trips — both
    // modes get the early exit; only the skipped prologue differs.
    Cycles t = from->at();
    while (t < opt_.horizon && !workload_->failed(opt_.gap_factor)) {
      const Cycles stop =
          std::min<Cycles>((t / opt_.every + 1) * opt_.every, opt_.horizon);
      run_to(stop);
      cycles_replayed_ += stop - t;
      t = stop;
    }
    return workload_->failed(opt_.gap_factor);
  }

  /// Adopt a reduced schedule as the new baseline: keep the checkpoint
  /// prefix that is still on its trajectory and recapture the suffix
  /// under the new script. Without this, every trial after the first
  /// reduction diverges from the *original* schedule almost
  /// immediately and the checkpoints degenerate to from-scratch replay.
  void rebaseline(const std::vector<hwsim::FaultEvent>& cur) {
    const Cycles diverge = first_removed_time(baseline_, cur);
    std::size_t keep = 1;
    while (keep < checkpoints_.size() && checkpoints_[keep].at() < diverge) {
      ++keep;
    }
    machine_.fault_injector().set_script(plan_, cur);
    machine_.restore(checkpoints_[keep - 1]);
    checkpoints_.erase(checkpoints_.begin() + keep, checkpoints_.end());
    const Cycles from = checkpoints_.back().at();
    cycles_replayed_ += opt_.horizon - from;
    for (Cycles t = (from / opt_.every + 1) * opt_.every; t < opt_.horizon;
         t += opt_.every) {
      run_to(t);
      checkpoints_.push_back(machine_.snapshot());
    }
    baseline_ = cur;
  }

  /// Classic ddmin. Subsets of the (sorted) recorded list stay sorted,
  /// which first_removed_time() and set_script() both rely on.
  std::vector<hwsim::FaultEvent> ddmin(bool use_checkpoints) {
    std::vector<hwsim::FaultEvent> cur = all_;
    std::size_t n = 2;
    while (cur.size() >= 2) {
      const std::size_t chunk = (cur.size() + n - 1) / n;
      bool reduced = false;
      for (std::size_t i = 0; i < n && !reduced; ++i) {
        const std::size_t lo = std::min(i * chunk, cur.size());
        const std::size_t hi = std::min(lo + chunk, cur.size());
        if (lo == hi) continue;
        std::vector<hwsim::FaultEvent> part(cur.begin() + lo,
                                            cur.begin() + hi);
        if (trial_fails(part, use_checkpoints)) {
          cur = std::move(part);
          n = 2;
          reduced = true;
          if (use_checkpoints) rebaseline(cur);
        }
      }
      for (std::size_t i = 0; i < n && !reduced; ++i) {
        const std::size_t lo = std::min(i * chunk, cur.size());
        const std::size_t hi = std::min(lo + chunk, cur.size());
        if (lo == hi || (lo == 0 && hi == cur.size())) continue;
        std::vector<hwsim::FaultEvent> rest;
        rest.reserve(cur.size() - (hi - lo));
        rest.insert(rest.end(), cur.begin(), cur.begin() + lo);
        rest.insert(rest.end(), cur.begin() + hi, cur.end());
        if (trial_fails(rest, use_checkpoints)) {
          cur = std::move(rest);
          n = std::max<std::size_t>(n - 1, 2);
          reduced = true;
          if (use_checkpoints) rebaseline(cur);
        }
      }
      if (!reduced) {
        if (n >= cur.size()) break;
        n = std::min(cur.size(), n * 2);
      }
    }
    return cur;
  }

  [[nodiscard]] std::uint64_t tests() const { return tests_; }
  [[nodiscard]] std::uint64_t cycles_replayed() const {
    return cycles_replayed_;
  }
  void reset_counters() {
    tests_ = 0;
    cycles_replayed_ = 0;
  }

 private:
  void run_to(Cycles t) {
    if (!machine_.run_until(t)) {
      std::fprintf(stderr, "fault_bisect: advance budget exhausted\n");
      std::exit(2);
    }
  }

  hwsim::FaultPlan plan_;
  std::vector<hwsim::FaultEvent> all_;
  /// The schedule the checkpoints are currently captured under.
  std::vector<hwsim::FaultEvent> baseline_;
  Options opt_;
  hwsim::Machine machine_;
  std::unique_ptr<ReplayWorkload> workload_;
  std::vector<hwsim::Snapshot> checkpoints_;
  bool full_fails_{false};
  std::uint64_t tests_{0};
  std::uint64_t cycles_replayed_{0};
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int run(const Options& opt, const bench::Harness& hx) {
  hwsim::MachineConfig mc;
  mc.num_cores = opt.cores;
  mc.max_advances = ~std::uint64_t{0};
  hx.apply(mc);
  if (!mc.faults.enabled) {
    std::string err;
    if (!hwsim::FaultPlan::parse(kDefaultSpec, &mc.faults, &err)) {
      std::fprintf(stderr, "fault_bisect: default plan: %s\n", err.c_str());
      return 2;
    }
  }
  const hwsim::FaultPlan plan = mc.faults;

  // Phase 1: probabilistic run, recording every armed event.
  std::vector<hwsim::FaultEvent> events;
  double baseline_gap = 0.0;
  {
    hwsim::Machine m(mc);
    m.fault_injector().set_recording(true);
    ReplayWorkload w(m, opt.period, false);
    if (!m.run_until(opt.horizon)) {
      std::fprintf(stderr, "fault_bisect: recording run did not finish\n");
      return 2;
    }
    events = m.fault_injector().recorded_events();
    baseline_gap = w.max_gap_periods();
    if (!w.failed(opt.gap_factor)) {
      std::fprintf(stderr,
                   "fault_bisect: plan does not fail the predicate "
                   "(max gap %.2f periods <= %.2f); raise rates or "
                   "lower --gap-factor\n",
                   baseline_gap, opt.gap_factor);
      return 1;
    }
  }
  if (events.size() < opt.min_events) {
    std::fprintf(stderr,
                 "fault_bisect: only %zu events armed (< %zu); raise "
                 "rates or --horizon\n",
                 events.size(), opt.min_events);
    return 1;
  }
  std::printf("recorded %zu armed fault events, max gap %.2f periods\n",
              events.size(), baseline_gap);

  // Phase 2: scripted baseline with checkpoints.
  hwsim::MachineConfig script_mc = mc;
  script_mc.faults = hwsim::FaultPlan{};  // installed via set_script
  BisectSession session(script_mc, plan, events, opt);
  if (!session.full_script_fails()) {
    std::fprintf(stderr,
                 "fault_bisect: scripted replay of the recording does "
                 "not fail — recording/replay divergence\n");
    return 2;
  }
  std::printf("scripted replay fails too; %zu checkpoints every %" PRIu64
              " cycles\n",
              session.checkpoints(), opt.every);

  // Phase 3: ddmin twice — from scratch, then checkpoint-accelerated.
  const auto t_scratch = std::chrono::steady_clock::now();
  const std::vector<hwsim::FaultEvent> min_scratch = session.ddmin(false);
  const double wall_scratch = ms_since(t_scratch);
  const std::uint64_t tests_scratch = session.tests();
  const std::uint64_t cycles_scratch = session.cycles_replayed();
  session.reset_counters();

  const auto t_ckpt = std::chrono::steady_clock::now();
  const std::vector<hwsim::FaultEvent> min_ckpt = session.ddmin(true);
  const double wall_ckpt = ms_since(t_ckpt);
  const std::uint64_t tests_ckpt = session.tests();
  const std::uint64_t cycles_ckpt = session.cycles_replayed();

  const bool agree =
      min_scratch.size() == min_ckpt.size() &&
      std::equal(min_scratch.begin(), min_scratch.end(), min_ckpt.begin(),
                 same_event);
  const bool minimal_fails = session.trial_fails(min_ckpt, false);
  const bool empty_passes = !session.trial_fails({}, false);
  const double speedup = wall_ckpt > 0.0 ? wall_scratch / wall_ckpt : 0.0;

  std::printf("minimal reproducer: %zu of %zu events "
              "(%" PRIu64 " scratch trials %.1f ms, %" PRIu64
              " checkpoint trials %.1f ms, speedup %.2fx)\n",
              min_ckpt.size(), events.size(), tests_scratch, wall_scratch,
              tests_ckpt, wall_ckpt, speedup);
  for (const hwsim::FaultEvent& ev : min_ckpt) {
    std::printf("  t=%" PRIu64 " stream=%u site=%u index=%" PRIu64
                " effects=0x%x magnitude=%" PRIu64 " vector=%d\n",
                ev.time, unsigned{ev.stream},
                static_cast<unsigned>(ev.site), ev.index,
                unsigned{ev.effects}, ev.magnitude, int{ev.vector});
  }
  if (!agree) {
    std::fprintf(stderr, "fault_bisect: checkpoint and scratch ddmin "
                         "disagree on the minimal set\n");
  }
  if (!minimal_fails) {
    std::fprintf(stderr, "fault_bisect: minimal set does not refail\n");
  }
  if (!empty_passes) {
    std::fprintf(stderr, "fault_bisect: empty schedule still fails — "
                         "the failure is not fault-induced\n");
  }

  if (!opt.out.empty()) {
    std::FILE* f = std::fopen(opt.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "fault_bisect: cannot write %s\n",
                   opt.out.c_str());
      return 2;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"fault_bisect\",\n");
    std::fprintf(f,
                 "  \"workload\": \"heartbeat-supervised spin, "
                 "%u cores, %" PRIu64 "-cycle period, %" PRIu64
                 "-cycle horizon\",\n",
                 opt.cores, opt.period, opt.horizon);
    std::fprintf(f, "  \"smoke\": %s,\n", opt.smoke ? "true" : "false");
    std::fprintf(f, "  \"scheduler\": \"%s\",\n",
                 iw::bench::Harness::scheduler_name(mc.scheduler));
    std::fprintf(f, "  \"gap_factor\": %.2f,\n", opt.gap_factor);
    std::fprintf(f, "  \"checkpoint_every\": %" PRIu64 ",\n", opt.every);
    std::fprintf(f, "  \"recorded_events\": %zu,\n", events.size());
    std::fprintf(f, "  \"baseline_max_gap_periods\": %.3f,\n",
                 baseline_gap);
    std::fprintf(f, "  \"minimal_size\": %zu,\n", min_ckpt.size());
    std::fprintf(f, "  \"minimal_events\": [\n");
    for (std::size_t i = 0; i < min_ckpt.size(); ++i) {
      const hwsim::FaultEvent& ev = min_ckpt[i];
      std::fprintf(f,
                   "    {\"time\": %" PRIu64 ", \"stream\": %u, \"site\": "
                   "%u, \"index\": %" PRIu64 ", \"effects\": %u, "
                   "\"magnitude\": %" PRIu64 ", \"vector\": %d}%s\n",
                   ev.time, unsigned{ev.stream},
                   static_cast<unsigned>(ev.site), ev.index,
                   unsigned{ev.effects}, ev.magnitude, int{ev.vector},
                   i + 1 < min_ckpt.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"tests_scratch\": %" PRIu64 ",\n", tests_scratch);
    std::fprintf(f, "  \"tests_checkpoint\": %" PRIu64 ",\n", tests_ckpt);
    std::fprintf(f, "  \"cycles_replayed_scratch\": %" PRIu64 ",\n",
                 cycles_scratch);
    std::fprintf(f, "  \"cycles_replayed_checkpoint\": %" PRIu64 ",\n",
                 cycles_ckpt);
    std::fprintf(f, "  \"wall_ms_scratch\": %.2f,\n", wall_scratch);
    std::fprintf(f, "  \"wall_ms_checkpoint\": %.2f,\n", wall_ckpt);
    std::fprintf(f, "  \"minimal_sets_agree\": %s,\n",
                 agree ? "true" : "false");
    std::fprintf(f, "  \"minimal_still_fails\": %s,\n",
                 minimal_fails ? "true" : "false");
    std::fprintf(f, "  \"empty_script_passes\": %s,\n",
                 empty_passes ? "true" : "false");
    std::fprintf(f,
                 "  \"speedup_checkpoint_vs_scratch\": {\"ddmin\": "
                 "{\"%u\": %.2f}}\n",
                 opt.cores, speedup);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", opt.out.c_str());
  }

  return (agree && minimal_fails && empty_passes) ? 0 : 1;
}

}  // namespace
}  // namespace iw::tools

int main(int argc, char** argv) {
  using namespace iw::bench;
  Harness hx;
  iw::tools::Options opt;
  if (!hx.parse(argc, argv,
                {kFaults, kFaultSeed, kSeed, kScheduler, kThreads,
                 kFastForward},
                {count_flag("--cores", &opt.cores, 1, 4096),
                 count_flag("--horizon", &opt.horizon, 1),
                 count_flag("--period", &opt.period, 1),
                 count_flag("--checkpoint-every", &opt.every, 1),
                 parsed_flag("--gap-factor", "F", "a real number > 0",
                             &iw::tools::parse_gap_factor, &opt.gap_factor),
                 count_flag("--min-events", &opt.min_events),
                 text_flag("--out", "FILE", &opt.out),
                 switch_flag("--smoke", &opt.smoke),
                 switch_flag("--selftest", &opt.selftest)})) {
    return 2;
  }
  if (opt.selftest) {
    if (argc != 2) {
      std::fprintf(stderr, "--selftest: runs alone, takes no other flag\n");
      return 2;
    }
    // Small enough for ctest, still end-to-end: record, checkpoint,
    // ddmin both ways, verify the minimal set.
    opt.cores = 4;
    opt.horizon = 1'200'000;
    opt.every = 100'000;
    opt.min_events = 20;
    opt.smoke = true;
    Harness self;
    char prog[] = "fault_bisect";
    char faults[] = "--faults=drop=0.4,stall=0.01:300,window=700000-1100000";
    char* self_argv[] = {prog, faults, nullptr};
    if (!self.parse(2, self_argv, {kFaults})) return 2;
    return iw::tools::run(opt, self);
  }
  return iw::tools::run(opt, hx);
}
