// ttreplay: time-travel replay over a checkpointed run.
//
// Runs the shared heartbeat workload to --horizon, capturing a
// deterministic snapshot every --checkpoint-every cycles plus a trace
// hash per checkpoint window. From there:
//
//   --replay=A:B        rewind to the newest checkpoint at or before A,
//                       re-run [A,B) in full fidelity with the paranoid
//                       frontier cross-checks enabled, twice, and verify
//                       the two replays are bit-identical (and, when the
//                       window lines up with the checkpoint grid, that
//                       they match the original pass).
//   --vs-scheduler=NAME re-run the whole horizon under a second
//   --vs-fault-seed=N   configuration and localize the first checkpoint
//                       window whose trace diverges — schedulers must
//                       never diverge (that is the determinism
//                       guarantee); fault seeds legitimately do, and the
//                       divergent window is where to start reading.
//   --selftest          exercise all of the above on a small config
//                       (alone: with any other flag it is a usage error).
//
// The machine takes the harness's --faults, --fault-seed, --seed,
// --scheduler, --threads and --ff; --cores, --horizon, --period and
// --checkpoint-every size the run. Any other argument is a usage error.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "harness.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/snapshot.hpp"
#include "obs/trace.hpp"
#include "replay_workload.hpp"

namespace iw::tools {
namespace {

std::uint64_t trace_hash(const obs::TraceRecorder& tr) {
  std::ostringstream os;
  tr.write_text(os);
  const std::string s = os.str();
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// A cycle window [a, b).
struct Window {
  Cycles a{0};
  Cycles b{0};
};

/// --replay=A:B: two cycle counts with A < B.
bool parse_window(const char* s, Window* out) {
  const char* colon = std::strchr(s, ':');
  if (colon == nullptr) return false;
  const std::string a(s, colon);
  return bench::Harness::parse_count(a.c_str(), &out->a) &&
         bench::Harness::parse_count(colon + 1, &out->b) && out->a < out->b;
}

struct Options {
  unsigned cores{8};
  Cycles horizon{2'000'000};
  Cycles period{20'000};
  Cycles every{100'000};
  std::optional<Window> replay;
  std::optional<hwsim::SchedulerKind> vs_sched;
  std::optional<std::uint64_t> vs_fault_seed;
  bool selftest{false};
};

/// One checkpointed forward pass, kept alive so its snapshots (oldest
/// first) can be restored into the same machine and workload.
class Session {
 public:
  Session(const hwsim::MachineConfig& mc, const Options& opt)
      : opt_(opt), machine_(mc) {
    workload_ =
        std::make_unique<ReplayWorkload>(machine_, opt_.period, false);
    ring_.push_back(machine_.snapshot());
    for (Cycles t = opt_.every; ; t += opt_.every) {
      const Cycles stop = std::min(t, opt_.horizon);
      obs::TraceRecorder tr;
      machine_.set_tracer(&tr);
      run_to(stop);
      window_hashes_.push_back(trace_hash(tr));
      ring_.push_back(machine_.snapshot());
      if (stop == opt_.horizon) break;
    }
  }

  [[nodiscard]] const std::vector<std::uint64_t>& window_hashes() const {
    return window_hashes_;
  }
  [[nodiscard]] Cycles window_start(std::size_t w) const {
    return w * opt_.every;
  }
  [[nodiscard]] Cycles window_end(std::size_t w) const {
    return std::min<Cycles>((w + 1) * opt_.every, opt_.horizon);
  }

  /// Re-run [a,b) in full fidelity: restore the newest checkpoint at or
  /// before `a`, run dark to `a`, then trace to `b`. Paranoid frontier
  /// cross-checks stay on for the whole replay.
  std::uint64_t replay(Cycles a, Cycles b) {
    // The earliest checkpoint sits a few cycles past zero (workload
    // construction consumes machine-context time before it is taken),
    // so it serves as the floor for any earlier `a`.
    const hwsim::Snapshot* from = &ring_.front();
    for (const hwsim::Snapshot& s : ring_) {
      if (s.at() <= a) from = &s;
    }
    machine_.restore(*from);
    machine_.set_paranoid_frontier(true);
    obs::TraceRecorder warmup;
    machine_.set_tracer(&warmup);
    run_to(std::max(a, from->at()));
    obs::TraceRecorder tr;
    machine_.set_tracer(&tr);
    run_to(b);
    machine_.set_paranoid_frontier(false);
    return trace_hash(tr);
  }

 private:
  void run_to(Cycles t) {
    if (!machine_.run_until(t)) {
      std::fprintf(stderr, "ttreplay: advance budget exhausted\n");
      std::exit(2);
    }
  }

  Options opt_;
  hwsim::Machine machine_;
  std::unique_ptr<ReplayWorkload> workload_;
  std::vector<hwsim::Snapshot> ring_;
  std::vector<std::uint64_t> window_hashes_;
};

hwsim::MachineConfig base_config(const Options& opt,
                                 const bench::Harness& hx) {
  hwsim::MachineConfig mc;
  mc.num_cores = opt.cores;
  mc.max_advances = ~std::uint64_t{0};
  hx.apply(mc);
  return mc;
}

/// Compare two sessions window-by-window; returns the first divergent
/// window index, or -1 if the runs are bit-identical throughout.
long first_divergent_window(const Session& a, const Session& b) {
  const auto& ha = a.window_hashes();
  const auto& hb = b.window_hashes();
  const std::size_t n = std::min(ha.size(), hb.size());
  for (std::size_t w = 0; w < n; ++w) {
    if (ha[w] != hb[w]) return static_cast<long>(w);
  }
  if (ha.size() != hb.size()) return static_cast<long>(n);
  return -1;
}

int run(const Options& opt, const bench::Harness& hx) {
  const hwsim::MachineConfig mc = base_config(opt, hx);
  Session base(mc, opt);
  std::printf("forward pass: %zu windows of %" PRIu64 " cycles\n",
              base.window_hashes().size(), opt.every);

  int rc = 0;
  if (opt.replay) {
    const Cycles a = opt.replay->a;
    const Cycles b = std::min(opt.replay->b, opt.horizon);
    const std::uint64_t h1 = base.replay(a, b);
    const std::uint64_t h2 = base.replay(a, b);
    const bool stable = h1 == h2;
    std::printf("replay [%" PRIu64 ", %" PRIu64 "): hash %016" PRIx64
                " (paranoid, %s)\n",
                a, b, h1, stable ? "stable across two replays" : "UNSTABLE");
    if (!stable) rc = 1;
    if (a % opt.every == 0 && b == std::min<Cycles>(a + opt.every,
                                                    opt.horizon)) {
      const std::size_t w = a / opt.every;
      const bool match = base.window_hashes()[w] == h1;
      std::printf("  window %zu original hash %016" PRIx64 " -> %s\n", w,
                  base.window_hashes()[w],
                  match ? "match" : "MISMATCH");
      if (!match) rc = 1;
    }
  }

  if (opt.vs_sched || opt.vs_fault_seed) {
    hwsim::MachineConfig alt = mc;
    const char* what = "";
    if (opt.vs_sched) {
      alt.scheduler = *opt.vs_sched;
      what = "scheduler";
    }
    if (opt.vs_fault_seed) {
      alt.fault_seed = *opt.vs_fault_seed;
      what = "fault seed";
    }
    Session other(alt, opt);
    const long w = first_divergent_window(base, other);
    if (w < 0) {
      std::printf("vs %s: bit-identical across all %zu windows\n", what,
                  base.window_hashes().size());
      // A scheduler change must never diverge; a fault-seed change
      // normally does, but identical traces are not an error.
    } else {
      const Cycles ws = base.window_start(static_cast<std::size_t>(w));
      const Cycles we = base.window_end(static_cast<std::size_t>(w));
      std::printf("vs %s: first divergence in window %ld "
                  "[%" PRIu64 ", %" PRIu64 ")\n",
                  what, w, ws, we);
      const std::uint64_t hb = base.replay(ws, we);
      const std::uint64_t ho = other.replay(ws, we);
      std::printf("  paranoid replay: base %016" PRIx64 " vs alt %016"
                  PRIx64 " -> %s\n",
                  hb, ho, hb == ho ? "CONVERGED (suspicious)" : "diverged");
      if (opt.vs_sched && !opt.vs_fault_seed) {
        std::fprintf(stderr,
                     "ttreplay: scheduler change diverged — determinism "
                     "violation\n");
        rc = 1;
      }
    }
  }
  return rc;
}

int selftest() {
  Options opt;
  opt.cores = 4;
  opt.horizon = 600'000;
  opt.every = 50'000;

  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("selftest: %-44s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };

  bench::Harness hx;
  {
    char prog[] = "ttreplay";
    char faults[] = "--faults=drop=0.2,jitter=0.2:300";
    char* argv[] = {prog, faults, nullptr};
    if (!hx.parse(2, argv, {bench::kFaults})) return 2;
  }
  const hwsim::MachineConfig mc = base_config(opt, hx);
  Session base(mc, opt);

  // Every window replays to its original hash, under paranoid checks.
  bool all_match = true;
  for (std::size_t w = 0; w < base.window_hashes().size(); ++w) {
    const std::uint64_t h =
        base.replay(base.window_start(w), base.window_end(w));
    all_match = all_match && h == base.window_hashes()[w];
  }
  check(all_match, "window replays match the forward pass");

  // An unaligned window is stable across two replays.
  const std::uint64_t u1 = base.replay(123'000, 287'000);
  const std::uint64_t u2 = base.replay(123'000, 287'000);
  check(u1 == u2, "unaligned replay is deterministic");

  // A scheduler swap is bit-identical (the determinism guarantee).
  {
    hwsim::MachineConfig alt = mc;
    alt.scheduler = hwsim::SchedulerKind::kLinearScan;
    Session other(alt, opt);
    check(first_divergent_window(base, other) == -1,
          "linear-scan scheduler is bit-identical");
  }
  {
    hwsim::MachineConfig alt = mc;
    alt.scheduler = hwsim::SchedulerKind::kParallelEpoch;
    alt.threads = 2;
    Session other(alt, opt);
    check(first_divergent_window(base, other) == -1,
          "parallel-epoch scheduler is bit-identical");
  }

  // A different fault seed diverges, and the divergence localizes.
  {
    hwsim::MachineConfig alt = mc;
    alt.fault_seed = 0xfeedbeefULL;
    Session other(alt, opt);
    const long w = first_divergent_window(base, other);
    check(w >= 0, "fault-seed change diverges");
    if (w >= 0) {
      const Cycles ws = base.window_start(static_cast<std::size_t>(w));
      const Cycles we = base.window_end(static_cast<std::size_t>(w));
      check(base.replay(ws, we) != other.replay(ws, we),
            "divergent window re-diverges under paranoid replay");
    }
  }
  return failures == 0 ? 0 : 1;
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
                 parsed_flag("--replay", "A:B", "cycles A:B with A < B",
                             &iw::tools::parse_window, &opt.replay),
                 parsed_flag("--vs-scheduler", "NAME",
                             "frontier, linear or parallel",
                             &Harness::parse_scheduler, &opt.vs_sched),
                 count_flag("--vs-fault-seed", &opt.vs_fault_seed),
                 switch_flag("--selftest", &opt.selftest)})) {
    return 2;
  }
  if (opt.selftest) {
    if (argc != 2) {
      std::fprintf(stderr, "--selftest: runs alone, takes no other flag\n");
      return 2;
    }
    return iw::tools::selftest();
  }
  return iw::tools::run(opt, hx);
}
